//! Property tests for the analyzer's lexer: totality and tiling.
//!
//! Every pass downstream of [`fg_analyze::lexer::lex`] assumes two
//! invariants the lexer's module docs promise:
//!
//! * **totality** — any input string lexes without panicking (the analyzer
//!   reads every `.rs` file in the workspace, including fixtures that are
//!   deliberately not valid Rust);
//! * **tiling** — token spans partition the input exactly: they start at 0,
//!   are contiguous, never empty, and end at `len`, so `strip_lines` can
//!   reassemble per-line code/comment views without losing or duplicating
//!   bytes.

use fg_analyze::lexer::{lex, strip_lines};
use proptest::prelude::*;

/// Asserts the tiling invariant for `src`.
fn assert_tiles(src: &str) {
    let tokens = lex(src);
    let mut cursor = 0usize;
    for tok in &tokens {
        assert_eq!(
            tok.start, cursor,
            "gap or overlap at byte {cursor} in {src:?}"
        );
        assert!(
            tok.end > tok.start,
            "empty token at byte {cursor} in {src:?}"
        );
        cursor = tok.end;
    }
    assert_eq!(cursor, src.len(), "tokens must cover all of {src:?}");
}

/// Maps draws from `0..300` to bytes biased towards the characters that
/// drive the lexer's state machine, so random inputs actually reach the
/// string/comment/raw-string states (values ≥ 256 pick from the salt).
fn salt(raw: Vec<u16>) -> Vec<u8> {
    const SALT: &[u8] = b"\"'/r#*\\\nb/**/r#\"";
    raw.into_iter()
        .map(|v| match v {
            0..=255 => v as u8,
            other => SALT[(other as usize - 256) % SALT.len()],
        })
        .collect()
}

proptest! {
    /// Arbitrary (lossily decoded) bytes never panic the lexer, and the
    /// resulting token spans tile the input.
    #[test]
    fn arbitrary_bytes_lex_totally_and_tile(
        raw in proptest::collection::vec(0u16..300, 0..512),
    ) {
        let src = String::from_utf8_lossy(&salt(raw)).into_owned();
        assert_tiles(&src);
    }

    /// Unterminated constructs (a lone quote, an open block comment, a raw
    /// string missing its closing hashes) still lex to end of input.
    #[test]
    fn truncations_of_tricky_rust_lex_totally(cut_permille in 0u32..1001) {
        let src = "fn f<'a>() { let s = r##\"raw \"quoted\" text\"##; \
                   /* outer /* nested */ */ let c = 'x'; let b = b\"\\x00\"; } // t\n";
        let cut = (src.len() as u64 * u64::from(cut_permille) / 1000) as usize;
        // Cut on a char boundary (the fixture is ASCII, so every byte is).
        assert_tiles(&src[..cut]);
    }

    /// `strip_lines` produces exactly one view per input line regardless of
    /// input shape, and never panics.
    #[test]
    fn strip_lines_matches_line_count(
        raw in proptest::collection::vec(0u16..300, 0..256),
    ) {
        let src = String::from_utf8_lossy(&salt(raw)).into_owned();
        let views = strip_lines(&src, &lex(&src));
        // Empty input still yields one (empty) view.
        prop_assert_eq!(views.len(), src.lines().count().max(1));
    }
}
