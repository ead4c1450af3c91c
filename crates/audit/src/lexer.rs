//! Hand-rolled lossless Rust lexer for the token-level audit engine.
//!
//! The auditor must understand real Rust token boundaries — raw strings
//! with arbitrary hash fences, nested block comments, lifetimes vs char
//! literals, numeric suffixes — without pulling in `syn` (the workspace is
//! offline and the audit crate is deliberately dependency-free). This
//! lexer is *lossless*: every byte of the input belongs to exactly one
//! token, so concatenating the lexemes reproduces the source verbatim.
//! That property is what the round-trip proptests pin, and it is what
//! makes line attribution exact for findings.
//!
//! The lexer never fails: malformed input (an unterminated string, a stray
//! byte) degrades to [`TokKind::Unknown`] or an unterminated literal token
//! running to end-of-file, because the auditor must keep scanning a
//! workspace that may be mid-edit.

/// Token classification. Trivia ([`TokKind::Whitespace`] and the comment
/// kinds) is kept in the stream so the engine can see doc comments and
/// `audit:allow` markers; rules operate on the non-trivia projection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// A run of whitespace (spaces, tabs, newlines).
    Whitespace,
    /// `// ...` to end of line; `doc` when `///` or `//!`.
    LineComment {
        /// Whether this is a doc comment (`///` or `//!`).
        doc: bool,
    },
    /// `/* ... */`, nesting-aware; `doc` when `/**` or `/*!`.
    BlockComment {
        /// Whether this is a doc comment (`/**` or `/*!`).
        doc: bool,
    },
    /// Identifier or keyword (including raw `r#ident`).
    Ident,
    /// Lifetime such as `'a` or `'static`.
    Lifetime,
    /// Integer literal (any base, `_` separators, suffix).
    Int,
    /// Float literal (fraction, exponent, or `f32`/`f64` suffix).
    Float,
    /// `"..."` or `b"..."` string literal (escapes honored).
    Str,
    /// `r"..."` / `r#"..."#` / `br#"..."#` raw string literal.
    RawStr,
    /// `'x'`, `'\n'`, `b'x'` char/byte literal.
    Char,
    /// One punctuation byte (`.`, `-`, `(` …). Multi-byte operators are
    /// emitted as consecutive single-byte tokens; rules match sequences.
    Punct,
    /// A byte the lexer does not recognize (kept so the stream stays
    /// lossless).
    Unknown,
}

impl TokKind {
    /// Whether this kind is trivia (whitespace or a comment).
    pub fn is_trivia(self) -> bool {
        matches!(
            self,
            TokKind::Whitespace | TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }

    /// Whether this kind is a comment.
    pub fn is_comment(self) -> bool {
        matches!(
            self,
            TokKind::LineComment { .. } | TokKind::BlockComment { .. }
        )
    }
}

/// One token: a classified byte range of the source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Token {
    /// Classification.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: usize,
}

impl Token {
    /// The lexeme text within `src` (the source the token was lexed from).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        &src[self.start..self.end]
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

struct Lexer<'s> {
    src: &'s [u8],
    pos: usize,
    line: usize,
}

impl<'s> Lexer<'s> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump_to(&mut self, end: usize) {
        for &b in &self.src[self.pos..end.min(self.src.len())] {
            if b == b'\n' {
                self.line += 1;
            }
        }
        self.pos = end.min(self.src.len());
    }

    fn whitespace(&mut self) -> TokKind {
        let mut j = self.pos;
        while j < self.src.len() && self.src[j].is_ascii_whitespace() {
            j += 1;
        }
        self.bump_to(j);
        TokKind::Whitespace
    }

    fn line_comment(&mut self) -> TokKind {
        let rest = &self.src[self.pos..];
        let doc =
            rest.starts_with(b"///") && !rest.starts_with(b"////") || rest.starts_with(b"//!");
        let mut j = self.pos;
        while j < self.src.len() && self.src[j] != b'\n' {
            j += 1;
        }
        self.bump_to(j);
        TokKind::LineComment { doc }
    }

    fn block_comment(&mut self) -> TokKind {
        let rest = &self.src[self.pos..];
        let doc =
            (rest.starts_with(b"/**") && !rest.starts_with(b"/**/")) || rest.starts_with(b"/*!");
        let mut depth = 0usize;
        let mut j = self.pos;
        while j < self.src.len() {
            if self.src[j] == b'/' && self.src.get(j + 1) == Some(&b'*') {
                depth += 1;
                j += 2;
            } else if self.src[j] == b'*' && self.src.get(j + 1) == Some(&b'/') {
                depth -= 1;
                j += 2;
                if depth == 0 {
                    break;
                }
            } else {
                j += 1;
            }
        }
        self.bump_to(j);
        TokKind::BlockComment { doc }
    }

    /// A `"` string body starting at `open_quote` (escape-aware); returns
    /// the end offset one past the closing quote (or end of input).
    fn string_end(&self, open_quote: usize) -> usize {
        let mut j = open_quote + 1;
        while j < self.src.len() {
            match self.src[j] {
                b'\\' => j += 2,
                b'"' => return j + 1,
                _ => j += 1,
            }
        }
        self.src.len()
    }

    /// A raw string starting at the `r` (after any `b`); `at` points at
    /// the `r`. Returns `Some(end)` past the closing fence if this really
    /// is a raw string opener.
    fn raw_string_end(&self, at: usize) -> Option<usize> {
        let mut j = at + 1;
        let mut hashes = 0usize;
        while self.src.get(j) == Some(&b'#') {
            hashes += 1;
            j += 1;
        }
        if self.src.get(j) != Some(&b'"') {
            return None;
        }
        j += 1;
        while j < self.src.len() {
            if self.src[j] == b'"' {
                let fence = &self.src[j + 1..(j + 1 + hashes).min(self.src.len())];
                if fence.len() == hashes && fence.iter().all(|&b| b == b'#') {
                    return Some(j + 1 + hashes);
                }
            }
            j += 1;
        }
        Some(self.src.len())
    }

    /// A `'` at `self.pos`: decide lifetime vs char literal and return the
    /// token kind + end offset.
    fn quote(&self) -> (TokKind, usize) {
        let i = self.pos;
        match self.peek(1) {
            Some(b'\\') => {
                // Escaped char literal: skip the escape pair, then scan to
                // the closing quote.
                let mut j = i + 3;
                while j < self.src.len() && self.src[j] != b'\'' {
                    j += 1;
                }
                (TokKind::Char, (j + 1).min(self.src.len()))
            }
            Some(c) if is_ident_start(c) => {
                if self.peek(2) == Some(b'\'') {
                    // 'a'
                    (TokKind::Char, i + 3)
                } else {
                    // Lifetime: 'ident (no closing quote).
                    let mut j = i + 2;
                    while j < self.src.len() && is_ident_continue(self.src[j]) {
                        j += 1;
                    }
                    (TokKind::Lifetime, j)
                }
            }
            Some(_) if self.peek(2) == Some(b'\'') => (TokKind::Char, i + 3),
            _ => (TokKind::Unknown, i + 1),
        }
    }

    /// A numeric literal starting at a digit.
    fn number(&self) -> (TokKind, usize) {
        let i = self.pos;
        let mut j = i;
        let mut float = false;
        if self.src[i] == b'0' && matches!(self.peek(1), Some(b'x') | Some(b'o') | Some(b'b')) {
            j = i + 2;
            while j < self.src.len() && (self.src[j].is_ascii_hexdigit() || self.src[j] == b'_') {
                j += 1;
            }
        } else {
            while j < self.src.len() && (self.src[j].is_ascii_digit() || self.src[j] == b'_') {
                j += 1;
            }
            // Fraction: `1.5` (but not `1..2` ranges or `x.0` field access
            // — the dot must be followed by a digit).
            if self.src.get(j) == Some(&b'.')
                && self.src.get(j + 1).is_some_and(|b| b.is_ascii_digit())
            {
                float = true;
                j += 1;
                while j < self.src.len() && (self.src[j].is_ascii_digit() || self.src[j] == b'_') {
                    j += 1;
                }
            }
            // Exponent: `1e6`, `1.5e-3`.
            if matches!(self.src.get(j), Some(b'e') | Some(b'E')) {
                let mut k = j + 1;
                if matches!(self.src.get(k), Some(b'+') | Some(b'-')) {
                    k += 1;
                }
                if self.src.get(k).is_some_and(|b| b.is_ascii_digit()) {
                    float = true;
                    j = k;
                    while j < self.src.len()
                        && (self.src[j].is_ascii_digit() || self.src[j] == b'_')
                    {
                        j += 1;
                    }
                }
            }
        }
        // Suffix (`u32`, `f64`, `usize` …) is part of the literal token.
        if self.src.get(j).copied().is_some_and(is_ident_start) {
            let suffix_start = j;
            while j < self.src.len() && is_ident_continue(self.src[j]) {
                j += 1;
            }
            let suffix = &self.src[suffix_start..j];
            if suffix.starts_with(b"f32") || suffix.starts_with(b"f64") {
                float = true;
            }
        }
        (if float { TokKind::Float } else { TokKind::Int }, j)
    }

    fn next_token(&mut self) -> Option<Token> {
        if self.pos >= self.src.len() {
            return None;
        }
        let start = self.pos;
        let line = self.line;
        let b = self.src[start];
        let kind = if b.is_ascii_whitespace() {
            self.whitespace()
        } else if b == b'/' && self.peek(1) == Some(b'/') {
            self.line_comment()
        } else if b == b'/' && self.peek(1) == Some(b'*') {
            self.block_comment()
        } else if b == b'"' {
            let end = self.string_end(start);
            self.bump_to(end);
            TokKind::Str
        } else if b == b'r' || b == b'b' {
            // Raw strings (r", r#"), byte strings (b", br#"), byte chars
            // (b'x'), raw idents (r#ident) — or a plain identifier.
            let raw_at = if b == b'b' && self.peek(1) == Some(b'r') {
                Some(start + 1)
            } else if b == b'r' {
                Some(start)
            } else {
                None
            };
            if b == b'b' && self.peek(1) == Some(b'"') {
                let end = self.string_end(start + 1);
                self.bump_to(end);
                TokKind::Str
            } else if b == b'b' && self.peek(1) == Some(b'\'') {
                let saved = self.pos;
                self.pos = saved + 1;
                let (_, end) = self.quote();
                self.pos = saved;
                self.bump_to(end);
                TokKind::Char
            } else if let Some(end) = raw_at.and_then(|at| {
                // `r#ident` is a raw identifier, not a raw string: only
                // treat as raw string when the fence really opens one.
                self.raw_string_end(at)
            }) {
                self.bump_to(end);
                TokKind::RawStr
            } else if b == b'r'
                && self.peek(1) == Some(b'#')
                && self.peek(2).is_some_and(is_ident_start)
            {
                // Raw identifier r#match.
                let mut j = start + 3;
                while j < self.src.len() && is_ident_continue(self.src[j]) {
                    j += 1;
                }
                self.bump_to(j);
                TokKind::Ident
            } else {
                let mut j = start + 1;
                while j < self.src.len() && is_ident_continue(self.src[j]) {
                    j += 1;
                }
                self.bump_to(j);
                TokKind::Ident
            }
        } else if is_ident_start(b) {
            let mut j = start + 1;
            while j < self.src.len() && is_ident_continue(self.src[j]) {
                j += 1;
            }
            self.bump_to(j);
            TokKind::Ident
        } else if b == b'\'' {
            let (kind, end) = self.quote();
            self.bump_to(end);
            kind
        } else if b.is_ascii_digit() {
            let (kind, end) = self.number();
            self.bump_to(end);
            kind
        } else if b.is_ascii_punctuation() {
            self.bump_to(start + 1);
            TokKind::Punct
        } else {
            self.bump_to(start + 1);
            TokKind::Unknown
        };
        Some(Token {
            kind,
            start,
            end: self.pos,
            line,
        })
    }
}

/// Lexes `src` into a lossless token stream: the concatenation of every
/// token's lexeme reproduces `src` byte-for-byte.
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(t) = lx.next_token() {
        out.push(t);
    }
    out
}

/// Returns `src` with comment bodies and string/char-literal contents
/// replaced by spaces (newlines preserved), so pattern matching over the
/// result only ever sees real code. Built on [`lex`], this replaces the
/// old per-line `Sanitizer` state machine.
pub fn sanitize_source(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    for tok in lex(src) {
        let text = tok.text(src);
        match tok.kind {
            TokKind::LineComment { .. }
            | TokKind::BlockComment { .. }
            | TokKind::Str
            | TokKind::RawStr
            | TokKind::Char => {
                for c in text.chars() {
                    out.push(if c == '\n' { '\n' } else { ' ' });
                }
            }
            _ => out.push_str(text),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(src: &str) {
        let toks = lex(src);
        let rebuilt: String = toks.iter().map(|t| t.text(src)).collect();
        assert_eq!(rebuilt, src, "lexer must be lossless");
    }

    #[test]
    fn lossless_on_basics() {
        for src in [
            "fn main() { let x = 1 + 2; }",
            "let s = \"str with \\\" escape\"; // trailing",
            "let r = r#\"raw \" with hash\"#; let n = 0xFF_u32;",
            "let c = '\\n'; let l: &'static str = \"x\";",
            "/* outer /* inner */ still */ code()",
            "let f = 1.5e-3f64; let t = x.0; let rr = 1..2;",
            "let b = b\"bytes\"; let bc = b'x'; let ri = r#match;",
            "",
            "unterminated \"string runs to eof",
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"call .unwrap() now\"; // .unwrap()\n";
        let s = sanitize_source(src);
        assert!(!s.contains(".unwrap()"));
        assert!(s.contains("let x ="));
        assert_eq!(s.len(), src.len());
    }

    #[test]
    fn nested_block_comments_blank_across_lines() {
        let src = "/* a /* b */ still comment */ real.unwrap()";
        let s = sanitize_source(src);
        assert!(!s.contains("still"));
        assert!(s.contains("real.unwrap()"));
    }

    #[test]
    fn lifetimes_survive_sanitizing_char_literals_do_not() {
        let src = "fn f<'a>(c: char) -> bool { c == '\"' }";
        let s = sanitize_source(src);
        assert!(s.contains("'a"));
        assert!(!s.contains('"'));
        round_trip(src);
    }

    #[test]
    fn raw_string_fences_respect_hash_count() {
        let src = "let s = r##\"inner \"# not the end\"##; tail()";
        round_trip(src);
        let s = sanitize_source(src);
        assert!(!s.contains("inner"));
        assert!(s.contains("tail()"));
    }

    #[test]
    fn number_kinds() {
        let toks = lex("1 1.5 1e6 0x1F 1_000 2f64 3usize");
        let kinds: Vec<TokKind> = toks
            .iter()
            .filter(|t| !t.kind.is_trivia())
            .map(|t| t.kind)
            .collect();
        assert_eq!(
            kinds,
            vec![
                TokKind::Int,
                TokKind::Float,
                TokKind::Float,
                TokKind::Int,
                TokKind::Int,
                TokKind::Float,
                TokKind::Int,
            ]
        );
    }

    #[test]
    fn line_numbers_are_one_based_and_accurate() {
        let toks = lex("a\nb\n  c");
        let idents: Vec<(String, usize)> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| (t.text("a\nb\n  c").to_owned(), t.line))
            .collect();
        assert_eq!(
            idents,
            vec![("a".into(), 1), ("b".into(), 2), ("c".into(), 3)]
        );
    }

    #[test]
    fn doc_comments_classified() {
        let toks = lex("/// doc\n// plain\n//! inner\n/** block doc */\n/* plain */");
        let docs: Vec<bool> = toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::LineComment { doc } | TokKind::BlockComment { doc } => Some(doc),
                _ => None,
            })
            .collect();
        assert_eq!(docs, vec![true, false, true, true, false]);
    }
}
