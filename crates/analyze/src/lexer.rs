//! A small Rust lexer for the source passes.
//!
//! Each workspace file is lexed once (`SourceFile::parse`), and everything
//! in `fg-analyze` that reads source — the item extractor, the call graph,
//! and the per-line views the pattern lints match ([`strip_lines`]) — reads
//! those tokens. A per-line stripping heuristic is blind to raw strings
//! (`r#"…"#`) and fragile around nested block comments; the tokenizer is
//! not.
//!
//! Design constraints:
//!
//! * **Total.** Any `&str` lexes without panicking; malformed input degrades
//!   to `Punct`/unterminated-literal tokens, never an error (property-tested
//!   in `tests/lexer_proptest.rs`).
//! * **Tiling.** Token spans partition the input exactly: concatenating
//!   `&src[t.start..t.end]` over all tokens reproduces the source
//!   byte-for-byte. Line/column mapping is therefore exact.
//! * **Faithful where it matters.** Nested block comments, raw (byte)
//!   strings with any `#` count, raw identifiers, byte/char literals,
//!   lifetimes vs chars, and float-vs-range (`1.5` vs `1..2`) are
//!   distinguished; operator gluing is not (multi-char operators come out
//!   as adjacent `Punct` tokens, which the consumers re-associate).

/// What a token is. Coarse on purpose: the passes match identifier text and
/// structure, not expression grammar.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (including raw `r#ident`).
    Ident,
    /// A lifetime (`'a`, `'static`), including the quote.
    Lifetime,
    /// Any string-like literal: `"…"`, `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`.
    Str,
    /// A char or byte literal: `'x'`, `'\n'`, `b'x'`.
    Char,
    /// A numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single non-whitespace symbol (`{`, `:`, `+`, …).
    Punct,
    /// `// …` to end of line (newline excluded).
    LineComment,
    /// `/* … */`, nesting-aware; unterminated runs to end of input.
    BlockComment,
    /// A run of whitespace (kept so spans tile the input).
    Whitespace,
}

/// One token: a kind and a byte span into the lexed source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// What kind of token.
    pub kind: TokKind,
    /// Starting byte offset (inclusive).
    pub start: usize,
    /// Ending byte offset (exclusive).
    pub end: usize,
}

impl Token {
    /// The token's text within `src` (the same string passed to [`lex`]).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

/// Tokenizes `src` completely. Never fails; see module docs for guarantees.
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut tokens = Vec::with_capacity(src.len() / 4 + 8);
    let mut i = 0usize;
    while i < bytes.len() {
        let start = i;
        let b = bytes[i];
        let kind = if b.is_ascii_whitespace() {
            while i < bytes.len() && bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            TokKind::Whitespace
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            TokKind::LineComment
        } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
            i += 2;
            let mut depth = 1usize;
            while i < bytes.len() && depth > 0 {
                if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    depth += 1;
                    i += 2;
                } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    i = next_char_boundary(src, i);
                }
            }
            TokKind::BlockComment
        } else if b == b'r' || b == b'b' {
            // Raw strings, byte strings, byte chars, raw identifiers — or a
            // plain identifier starting with r/b.
            if let Some(end) = raw_or_byte_literal(src, i) {
                i = end.0;
                end.1
            } else {
                i = ident_end(src, i);
                TokKind::Ident
            }
        } else if b == b'"' {
            i = string_end(src, i + 1, b'"');
            TokKind::Str
        } else if b == b'\'' {
            let (end, kind) = quote_token(src, i);
            i = end;
            kind
        } else if b.is_ascii_digit() {
            i = number_end(src, i);
            TokKind::Num
        } else if is_ident_start(src, i) {
            i = ident_end(src, i);
            TokKind::Ident
        } else {
            i = next_char_boundary(src, i);
            TokKind::Punct
        };
        tokens.push(Token {
            kind,
            start,
            end: i,
        });
    }
    tokens
}

fn next_char_boundary(src: &str, i: usize) -> usize {
    if i >= src.len() {
        return src.len();
    }
    let mut j = i + 1;
    while j < src.len() && !src.is_char_boundary(j) {
        j += 1;
    }
    j
}

fn is_ident_start(src: &str, i: usize) -> bool {
    src[i..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
}

fn is_ident_continue(src: &str, i: usize) -> bool {
    src[i..]
        .chars()
        .next()
        .is_some_and(|c| c.is_alphanumeric() || c == '_')
}

fn ident_end(src: &str, mut i: usize) -> usize {
    i = next_char_boundary(src, i);
    while i < src.len() && is_ident_continue(src, i) {
        i = next_char_boundary(src, i);
    }
    i
}

/// Scans past a `"`-style body starting *after* the opening quote, honouring
/// backslash escapes; unterminated runs to end of input. Returns the offset
/// just past the closing quote.
fn string_end(src: &str, mut i: usize, quote: u8) -> usize {
    let bytes = src.as_bytes();
    while i < bytes.len() {
        if bytes[i] == b'\\' {
            // Skip the backslash and the escaped character after it.
            i = next_char_boundary(src, i + 1);
            continue;
        }
        if bytes[i] == quote {
            return i + 1;
        }
        i = next_char_boundary(src, i);
    }
    i
}

/// Attempts `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`, or a raw identifier
/// at `i` (which points at `r` or `b`). Returns `(end, kind)` on a match,
/// `None` when the text is just an ordinary identifier.
fn raw_or_byte_literal(src: &str, i: usize) -> Option<(usize, TokKind)> {
    let bytes = src.as_bytes();
    let mut j = i + 1;
    let mut saw_r = bytes[i] == b'r';
    if bytes[i] == b'b' {
        match bytes.get(j) {
            Some(&b'\'') => {
                // Byte char b'x'.
                let (end, _) = quote_token(src, j);
                return Some((end, TokKind::Char));
            }
            Some(&b'"') => return Some((string_end(src, j + 1, b'"'), TokKind::Str)),
            Some(&b'r') => {
                saw_r = true;
                j += 1;
            }
            _ => return None,
        }
    }
    if !saw_r {
        return None;
    }
    // At this point src[..j] is `r` or `br`; a raw string needs `#* "`.
    let mut hashes = 0usize;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    match bytes.get(j) {
        Some(&b'"') => {
            // Raw string: no escapes; terminated by `"` + `hashes` hashes.
            j += 1;
            while j < bytes.len() {
                if bytes[j] == b'"'
                    && bytes[j + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&b| b == b'#')
                        .count()
                        == hashes
                {
                    return Some((j + 1 + hashes, TokKind::Str));
                }
                j = next_char_boundary(src, j);
            }
            Some((j, TokKind::Str)) // unterminated
        }
        _ if hashes == 1 && j < src.len() && is_ident_start(src, j) => {
            // Raw identifier r#ident.
            Some((ident_end(src, j), TokKind::Ident))
        }
        _ => None,
    }
}

/// Disambiguates `'` at `i`: char literal (`'x'`, `'\n'`, `'\u{7ff}'`),
/// lifetime (`'a`, `'_`), or a lone `Punct`.
fn quote_token(src: &str, i: usize) -> (usize, TokKind) {
    let bytes = src.as_bytes();
    match bytes.get(i + 1) {
        Some(&b'\\') => (string_end(src, i + 1, b'\''), TokKind::Char),
        Some(_)
            if {
                // 'x' — any single char directly followed by a closing quote.
                let after = next_char_boundary(src, i + 1);
                bytes.get(i + 1) != Some(&b'\'') && bytes.get(after) == Some(&b'\'')
            } =>
        {
            let after = next_char_boundary(src, i + 1);
            (after + 1, TokKind::Char)
        }
        Some(_) if is_ident_start(src, i + 1) => (ident_end(src, i + 1), TokKind::Lifetime),
        _ => (i + 1, TokKind::Punct),
    }
}

fn number_end(src: &str, mut i: usize) -> usize {
    let bytes = src.as_bytes();
    // Leading digit run, including base prefixes, underscores, and suffixes
    // (`0xff_u64`); alphanumerics cover `e`/`E` exponents without a sign.
    i = ident_end(src, i);
    // Fractional part: only when `.` is followed by a digit (so `1..2` and
    // `x.method()` stay out of the number).
    if bytes.get(i) == Some(&b'.') && bytes.get(i + 1).is_some_and(u8::is_ascii_digit) {
        i = ident_end(src, i + 1);
    }
    // Signed exponent: `1.5e-3` — the run above stopped at the sign.
    if matches!(bytes.get(i), Some(&b'+') | Some(&b'-'))
        && i > 0
        && matches!(bytes.get(i - 1), Some(&b'e') | Some(&b'E'))
        && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
    {
        i = ident_end(src, i + 1);
    }
    i
}

/// One source line, split into its code and comment parts with literal
/// contents blanked — the view the pattern lints match against.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LineView {
    /// Code with string/char contents removed (quotes kept) and comments
    /// stripped.
    pub code: String,
    /// Comment text on this line (both `//` and `/* */` bodies), where the
    /// inline `fg-analyze: allow(…)` waiver grammar lives. Doc comments
    /// (`///`, `//!`, `/**`, `/*!`) are excluded: documentation *describing*
    /// the waiver grammar must never act as a waiver.
    pub comment: String,
}

/// Splits `src` into per-line [`LineView`]s from its `tokens` (what
/// [`lex`] returned for `src`), raw-string- and nested-comment-correct.
pub fn strip_lines(src: &str, tokens: &[Token]) -> Vec<LineView> {
    let n_lines = src.lines().count().max(1);
    let mut lines: Vec<LineView> = vec![LineView::default(); n_lines];
    let mut line = 0usize;
    for tok in tokens {
        let text = tok.text(src);
        let is_doc = matches!(tok.kind, TokKind::LineComment | TokKind::BlockComment)
            && (text.starts_with("///") && !text.starts_with("////")
                || text.starts_with("//!")
                || text.starts_with("/**") && !text.starts_with("/***") && text != "/**/"
                || text.starts_with("/*!"));
        for (k, piece) in text.split('\n').enumerate() {
            if k > 0 {
                line += 1;
            }
            if piece.is_empty() {
                continue;
            }
            let view = &mut lines[line.min(n_lines - 1)];
            match tok.kind {
                TokKind::LineComment | TokKind::BlockComment if is_doc => {}
                TokKind::LineComment | TokKind::BlockComment => view.comment.push_str(piece),
                TokKind::Str | TokKind::Char => {
                    // Keep the delimiters so e.g. `"` counts as code, but
                    // blank the contents so prose never matches a pattern.
                    if k == 0 {
                        view.code.push(piece.chars().next().unwrap_or('"'));
                    }
                    if tok.kind == TokKind::Str
                        && k == text.split('\n').count() - 1
                        && piece.len() > usize::from(k == 0)
                    {
                        view.code.push('"');
                    }
                }
                _ => view.code.push_str(piece),
            }
        }
    }
    lines
}

/// Maps byte offsets to 1-based line numbers.
pub struct LineIndex {
    starts: Vec<usize>,
}

impl LineIndex {
    /// Builds the index for `src`.
    pub fn new(src: &str) -> Self {
        let mut starts = vec![0usize];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                starts.push(i + 1);
            }
        }
        LineIndex { starts }
    }

    /// 1-based line containing byte `offset`.
    pub fn line(&self, offset: usize) -> usize {
        match self.starts.binary_search(&offset) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, &str)> {
        lex(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Whitespace)
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn tiles(src: &str) -> bool {
        let mut rebuilt = String::new();
        for t in lex(src) {
            rebuilt.push_str(t.text(src));
        }
        rebuilt == src
    }

    #[test]
    fn tokens_tile_ordinary_code() {
        let src = "fn main() { let x = 1 + 2; }\n";
        assert!(tiles(src));
        assert_eq!(kinds(src)[0], (TokKind::Ident, "fn"));
    }

    #[test]
    fn raw_strings_lex_as_one_literal() {
        for src in [
            r##"let s = r"Instant::now";"##,
            r###"let s = r#"thread_rng " inside"#;"###,
            r####"let s = r##"nested "# still inside"##;"####,
            r###"let b = br#"bytes"#;"###,
        ] {
            assert!(tiles(src), "{src}");
            assert!(
                kinds(src).iter().any(|(k, _)| *k == TokKind::Str),
                "{src}: {:?}",
                kinds(src)
            );
            // Nothing inside the raw string leaks out as an identifier.
            assert!(
                !kinds(src)
                    .iter()
                    .any(|(k, t)| *k == TokKind::Ident && (*t == "Instant" || *t == "thread_rng")),
                "{src}"
            );
        }
    }

    #[test]
    fn raw_identifiers_are_idents() {
        let src = "let r#type = 1;";
        assert!(tiles(src));
        assert!(kinds(src).contains(&(TokKind::Ident, "r#type")));
    }

    #[test]
    fn nested_block_comments_terminate_correctly() {
        let src = "/* outer /* inner */ still comment */ let x = 1;";
        assert!(tiles(src));
        let ks = kinds(src);
        assert_eq!(ks[0].0, TokKind::BlockComment);
        assert!(ks[0].1.ends_with("comment */"), "{:?}", ks[0].1);
        assert!(ks.contains(&(TokKind::Ident, "let")));
    }

    #[test]
    fn lifetimes_and_chars_disambiguate() {
        let src = "fn f<'a>(x: &'a str) -> char { let q = '\"'; let n = '\\n'; 'x' }";
        assert!(tiles(src));
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::Lifetime, "'a")));
        assert!(ks.contains(&(TokKind::Char, "'\"'")));
        assert!(ks.contains(&(TokKind::Char, "'\\n'")));
        assert!(ks.contains(&(TokKind::Char, "'x'")));
    }

    #[test]
    fn numbers_cover_floats_ranges_and_suffixes() {
        let src = "let a = 1.5e-3; let b = 0xff_u64; for i in 1..20 {}";
        assert!(tiles(src));
        let ks = kinds(src);
        assert!(ks.contains(&(TokKind::Num, "1.5e-3")), "{ks:?}");
        assert!(ks.contains(&(TokKind::Num, "0xff_u64")));
        assert!(ks.contains(&(TokKind::Num, "1")));
        assert!(ks.contains(&(TokKind::Num, "20")));
    }

    #[test]
    fn unterminated_literals_never_panic() {
        for src in ["let s = \"open", "let s = r#\"open", "/* open", "let c = '"] {
            assert!(tiles(src), "{src}");
        }
    }

    #[test]
    fn strip_lines_blanks_strings_and_collects_comments() {
        let src = "let s = \"Instant::now\"; // fg-analyze: allow(wall-clock): x\n\
                   let t = r#\"thread_rng\"#;\n\
                   /* SystemTime in\n   a block */ let u = 1;\n";
        let lines = strip_lines(src, &lex(src));
        assert!(!lines[0].code.contains("Instant"));
        assert!(lines[0].comment.contains("allow(wall-clock)"));
        assert!(!lines[1].code.contains("thread_rng"));
        assert!(lines[2].comment.contains("SystemTime"));
        assert!(!lines[3].code.contains("SystemTime"));
        assert!(lines[3].code.contains("let u = 1;"));
    }

    #[test]
    fn line_index_maps_offsets() {
        let idx = LineIndex::new("ab\ncd\nef");
        assert_eq!(idx.line(0), 1);
        assert_eq!(idx.line(2), 1);
        assert_eq!(idx.line(3), 2);
        assert_eq!(idx.line(7), 3);
    }
}
