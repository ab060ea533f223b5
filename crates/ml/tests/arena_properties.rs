//! Property test for the scratch arena's pools: random interleavings of
//! `take` and `give` over many buffer lengths, the fused serve's B×T
//! shapes among them. Every `take` must come back zeroed and in the
//! requested shape, no buffer may be handed out twice while it is held,
//! and once one pass of a sequence has run, replaying it allocates
//! nothing.

use mpgraph_ml::tensor::Matrix;
use mpgraph_ml::ScratchArena;
use proptest::prelude::*;

/// History length of the serve's stacked windows (T).
const T: usize = 9;

/// Row widths the forwards use: PC column, sequence-wide scores, head
/// widths, model widths, FFN widths, a live vocabulary.
const WIDTHS: [usize; 10] = [1, 4, 9, 16, 21, 32, 64, 126, 128, 256];

/// One step of a sequence: `take` a shape, or `give` back the held buffer
/// at `pick % held`.
#[derive(Debug, Clone, Copy)]
enum Op {
    Take(usize, usize),
    Give(usize),
}

/// Decodes a drawn tuple into an op. Shapes are either `B·T` stacked
/// window rows or `B` readout rows, for batch sizes 1 to 16.
fn op((kind, batch, stacked, width, pick): (u8, usize, bool, usize, usize)) -> Op {
    if kind < 3 {
        let rows = if stacked { batch * T } else { batch };
        Op::Take(rows, WIDTHS[width])
    } else {
        Op::Give(pick)
    }
}

/// Runs `ops` on `arena` and gives every still-held buffer back at the
/// end, checking each `take` against the buffers held at that moment.
fn run(arena: &mut ScratchArena, ops: &[Op]) {
    let mut held: Vec<Matrix> = Vec::new();
    for &o in ops {
        match o {
            Op::Take(rows, cols) => {
                let m = arena.take(rows, cols);
                assert_eq!((m.rows, m.cols, m.data.len()), (rows, cols, rows * cols));
                assert!(
                    m.data.iter().all(|&v| v == 0.0),
                    "take({rows}, {cols}) not zeroed"
                );
                let p = m.data.as_ptr();
                assert!(
                    held.iter().all(|h| h.data.as_ptr() != p),
                    "take({rows}, {cols}) handed out a buffer still held"
                );
                let mut m = m;
                // Dirty it, so a reuse that skipped the zero fill shows.
                m.data.fill(-3.5);
                held.push(m);
            }
            Op::Give(pick) => {
                if !held.is_empty() {
                    let i = pick % held.len();
                    arena.give(held.swap_remove(i));
                }
            }
        }
    }
    for m in held {
        arena.give(m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn takes_are_zeroed_distinct_and_stop_missing_after_one_pass(
        raw in prop::collection::vec(
            (0u8..5, 1usize..17, 0u8..2, 0usize..WIDTHS.len(), 0usize..64),
            1..400,
        ),
    ) {
        let ops: Vec<Op> = raw
            .into_iter()
            .map(|(k, b, s, w, p)| op((k, b, s == 1, w, p)))
            .collect();
        let takes = ops.iter().filter(|o| matches!(o, Op::Take(..))).count() as u64;
        let mut arena = ScratchArena::new();
        run(&mut arena, &ops);
        let (hits, misses) = arena.stats();
        prop_assert_eq!(hits + misses, takes);
        // The warm pass: every length's pool already holds as many
        // buffers as the sequence ever holds at once.
        for pass in 2..4u64 {
            run(&mut arena, &ops);
            let (h, m) = arena.stats();
            prop_assert_eq!(m, misses, "pass {} allocated", pass);
            prop_assert_eq!(h, hits + (pass - 1) * takes);
        }
    }
}
