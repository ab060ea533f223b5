//! Property tests for the `mpgraph serve --stdin` line parser
//! (`serve_load::parse_stdin_line`): arbitrary text never panics, and
//! formatted `stream pc vaddr [w]` lines round-trip, in decimal or hex.

use mpgraph_bench::serve_load::{parse_stdin_line, StdinLineError};
use proptest::prelude::*;

/// Characters that reach every branch: digits, hex letters and prefixes,
/// the write flag, comments, whitespace, signs and non-ASCII text.
const ALPHABET: &[char] = &[
    '0', '1', '7', '9', 'a', 'f', 'F', 'x', 'X', 'w', 'r', '#', ' ', '\t', '-', '+', '.', 'é', '∞',
];

fn number(v: u64, style: u8) -> String {
    match style {
        0 => v.to_string(),
        1 => format!("0x{v:x}"),
        _ => format!("0X{v:X}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_text_never_panics(
        picks in prop::collection::vec(0usize..ALPHABET.len(), 0..48),
    ) {
        let line: String = picks.iter().map(|&i| ALPHABET[i]).collect();
        if let Ok(Some((_, access))) = parse_stdin_line(&line) {
            prop_assert!(!access.hit && access.core == 0);
        }
    }

    #[test]
    fn formatted_lines_round_trip(
        wide in 0u64..u64::MAX,
        narrow in 0u8..2,
        pc in 0u64..u64::MAX,
        vaddr in 0u64..u64::MAX,
        styles in (0u8..3, 0u8..3, 0u8..3),
        write in 0u8..2,
    ) {
        // Half the cases draw a 32-bit stream id, half a 64-bit one.
        let stream = if narrow == 1 { wide & u64::from(u32::MAX) } else { wide };
        let line = format!(
            "  {}\t{} {}{}",
            number(stream, styles.0),
            number(pc, styles.1),
            number(vaddr, styles.2),
            if write == 1 { " w" } else { "" },
        );
        match u32::try_from(stream) {
            Ok(id) => {
                let (parsed, access) = parse_stdin_line(&line)
                    .expect("valid line")
                    .expect("not blank");
                prop_assert_eq!(parsed, id);
                prop_assert_eq!(access.pc, pc);
                prop_assert_eq!(access.block, vaddr >> 6);
                prop_assert_eq!(access.is_write, write == 1);
            }
            Err(_) => prop_assert_eq!(
                parse_stdin_line(&line).err(),
                Some(StdinLineError::StreamOutOfRange(stream))
            ),
        }
    }
}

#[test]
fn blank_comment_and_malformed_lines() {
    for skipped in ["", "   ", "\t", "# stream pc vaddr", "  #comment"] {
        assert!(matches!(parse_stdin_line(skipped), Ok(None)), "{skipped:?}");
    }
    let rejected = |line: &str| parse_stdin_line(line).err();
    assert_eq!(rejected("0 0x400100"), Some(StdinLineError::MissingField));
    assert_eq!(
        rejected("not a valid access line"),
        Some(StdinLineError::BadNumber("not".into()))
    );
    assert_eq!(
        rejected("0 0x400100 0xzz"),
        Some(StdinLineError::BadNumber("0xzz".into()))
    );
    assert_eq!(
        rejected("4294967296 0 0"),
        Some(StdinLineError::StreamOutOfRange(1 << 32))
    );
}
