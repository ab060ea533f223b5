//! Property tests at the MPGTRC02 trace-file boundary: every byte string
//! that reaches `io::read_binary` either loads as a trace holding the
//! invariants `TraceBuilder::finish` guarantees (section offsets sorted and
//! inside the record range), or is refused with a typed `TraceIoError` —
//! never a panic.

use mpgraph_frameworks::io::{read_binary, write_binary, TraceIoError};
use mpgraph_frameworks::{MemRecord, Trace};
use proptest::prelude::*;

/// Header bytes before the first section offset: magic, phase count, and
/// the three section lengths.
const SECTIONS_AT: usize = 8 + 1 + 3 * 8;

/// A valid trace of `n` records whose transitions and iteration starts are
/// `transitions` / `starts` folded into the record range, sorted and
/// deduplicated, as `TraceBuilder::finish` leaves them.
fn trace(n: usize, transitions: &[usize], starts: &[usize]) -> Trace {
    let fold = |v: &[usize]| -> Vec<usize> {
        let mut s: Vec<usize> = v.iter().map(|&x| x % n.max(1)).collect();
        s.sort_unstable();
        s.dedup();
        if n == 0 {
            s.clear();
        }
        s
    };
    Trace {
        records: (0..n as u64)
            .map(|i| MemRecord {
                pc: 0x40_0000 + 4 * (i % 7),
                vaddr: 0x10_0000 + 64 * i,
                core: (i % 4) as u8,
                is_write: i % 5 == 0,
                phase: (i % 3) as u8,
                gap: (i % 9) as u8,
                dep: i % 2 == 0,
            })
            .collect(),
        num_phases: 3,
        transitions: fold(transitions),
        iteration_starts: fold(starts),
    }
}

fn encode(t: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    write_binary(t, &mut buf).expect("writing to memory cannot fail");
    buf
}

/// Recomputes the FNV-1a trailer over everything between the magic and
/// the trailer — what a deliberate edit of the file would do.
fn reseal(buf: &mut [u8]) {
    let end = buf.len() - 8;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in &buf[8..end] {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    buf[end..].copy_from_slice(&h.to_le_bytes());
}

fn set_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn valid_traces_round_trip(
        n in 0usize..24,
        transitions in prop::collection::vec(0usize..1000, 0..5),
        starts in prop::collection::vec(0usize..1000, 0..4),
    ) {
        let t = trace(n, &transitions, &starts);
        let back = read_binary(&mut encode(&t).as_slice()).expect("a valid trace loads");
        prop_assert_eq!(back.records, t.records);
        prop_assert_eq!(back.transitions, t.transitions);
        prop_assert_eq!(back.iteration_starts, t.iteration_starts);
        prop_assert_eq!(back.num_phases, t.num_phases);
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        n in 0usize..12,
        transitions in prop::collection::vec(0usize..1000, 0..4),
        starts in prop::collection::vec(0usize..1000, 0..3),
    ) {
        let buf = encode(&trace(n, &transitions, &starts));
        for cut in 0..buf.len() {
            prop_assert!(
                read_binary(&mut &buf[..cut]).is_err(),
                "truncation at byte {} of {} loaded",
                cut,
                buf.len()
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error(
        n in 0usize..8,
        transitions in prop::collection::vec(0usize..1000, 0..3),
        starts in prop::collection::vec(0usize..1000, 0..3),
    ) {
        let buf = encode(&trace(n, &transitions, &starts));
        for bit in 0..8 * buf.len() {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                read_binary(&mut bad.as_slice()).is_err(),
                "flip of bit {} went undetected",
                bit
            );
        }
    }

    /// Section values the checksum cannot vouch for: after an entry is
    /// pushed past the record range or out of order and the trailer is
    /// recomputed, the file must still be refused as corrupt.
    #[test]
    fn resealed_bad_section_offsets_are_corrupt(
        n in 1usize..24,
        transitions in prop::collection::vec(0usize..1000, 1..5),
        starts in prop::collection::vec(0usize..1000, 1..4),
        victim in 0usize..64,
        past_end in 0u64..1_000_000,
        unsorted in 0u8..2,
    ) {
        let t = trace(n, &transitions, &starts);
        let offsets = t.transitions.len() + t.iteration_starts.len();
        let victim = victim % offsets;
        let mut buf = encode(&t);
        let at = SECTIONS_AT + 8 * victim;
        // Either the entry moves past the last record, or — where the
        // section has an entry after it — above that successor.
        let in_transitions = victim < t.transitions.len();
        let section = if in_transitions { &t.transitions } else { &t.iteration_starts };
        let index = if in_transitions { victim } else { victim - t.transitions.len() };
        let value = match section.get(index + 1) {
            Some(&next) if unsorted == 1 && next + 1 < n => (next + 1) as u64,
            _ => n as u64 + past_end,
        };
        set_u64(&mut buf, at, value);
        reseal(&mut buf);
        match read_binary(&mut buf.as_slice()) {
            Err(TraceIoError::Corrupt(_)) => {}
            other => panic!("offset {value} at entry {victim} accepted: {other:?}"),
        }
    }
}

/// The file that used to crash `mpgraph serve`: 64 records whose second
/// iteration starts at record 500, with a valid trailer.
#[test]
fn iteration_start_past_the_records_is_corrupt() {
    let mut t = trace(64, &[], &[0]);
    t.iteration_starts = vec![0, 500];
    let mut buf = Vec::new();
    write_binary(&t, &mut buf).expect("writing to memory cannot fail");
    match read_binary(&mut buf.as_slice()) {
        Err(TraceIoError::Corrupt(what)) => assert!(what.contains("iteration"), "{what}"),
        other => panic!("accepted: {other:?}"),
    }
}
