//! Hand-rolled Rust tokenizer for the static-analysis pass.
//!
//! The PR 1 analyzer worked on a *masked* copy of each source file —
//! comments and literals blanked to spaces before byte-substring checks.
//! That shape admits whole classes of false negatives (a pattern split
//! across a rustfmt line break) and false positives (an identifier that
//! merely *contains* a banned name). This module replaces it with a real
//! lexer: the full token stream with byte spans, so every rule reasons
//! about adjacent *tokens* instead of adjacent *bytes*.
//!
//! The lexer covers the token grammar the workspace uses — identifiers
//! and keywords, lifetimes vs. char literals, integer and float literals
//! in every base, plain/byte/C/raw string literals (`"…"`, `b"…"`,
//! `c"…"`, `r#"…"#`, `br#"…"#`), raw identifiers (`r#fn`), nested block
//! comments, and multi-byte operators (`::`, `==`, `..=`, …). It is
//! lossless: tokens are non-overlapping, strictly ascending byte spans,
//! and every non-whitespace byte of the input falls inside exactly one
//! token (the corpus test in `tests/corpus.rs` enforces this over every
//! `.rs` file in the repository). No external dependencies, consistent
//! with the vendored-stand-ins policy.

/// The kind of one lexical token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers like `r#fn`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`, `'_`).
    Lifetime,
    /// Numeric literal: integer or float, any base, with optional suffix.
    Num,
    /// String-ish literal: string, byte string, C string, raw string, or
    /// char/byte-char literal.
    Literal,
    /// `//` line comment, including `///` and `//!` doc comments.
    LineComment,
    /// `/* … */` block comment (nesting handled), including `/** … */`.
    BlockComment,
    /// Punctuation or operator, possibly multi-byte (`::`, `==`, `..=`).
    Punct,
}

/// One token: its kind and the half-open byte span `lo..hi` in the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Token kind.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub lo: usize,
    /// Byte offset one past the last byte.
    pub hi: usize,
}

impl Tok {
    /// The token's text within `src` (the source it was lexed from).
    pub fn text<'s>(&self, src: &'s str) -> &'s str {
        src.get(self.lo..self.hi).unwrap_or("")
    }
}

/// A tokenization failure: the byte offset it happened at and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable description (e.g. "unterminated string literal").
    pub msg: &'static str,
}

impl std::fmt::Display for LexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

/// Three-byte operators, tried before the two-byte ones.
const PUNCT3: [&[u8]; 4] = [b"..=", b"<<=", b">>=", b"..."];

/// Two-byte operators, tried before single punctuation bytes.
const PUNCT2: [&[u8]; 20] = [
    b"::", b"==", b"!=", b"<=", b">=", b"=>", b"->", b"..", b"&&", b"||", b"<<", b">>", b"+=",
    b"-=", b"*=", b"/=", b"%=", b"^=", b"&=", b"|=",
];

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

fn byte_at(b: &[u8], i: usize) -> u8 {
    b.get(i).copied().unwrap_or(0)
}

/// Tokenizes `src` into the full token stream (comments included).
///
/// # Errors
///
/// Returns a [`LexError`] for unterminated string literals, char
/// literals, or block comments. Any text a Rust compiler accepts lexes
/// without error; the converse does not hold (this lexer is deliberately
/// permissive about token *contents*).
pub fn lex(src: &str) -> Result<Vec<Tok>, LexError> {
    Lexer {
        b: src.as_bytes(),
        pos: 0,
        out: Vec::new(),
    }
    .run()
}

struct Lexer<'s> {
    b: &'s [u8],
    pos: usize,
    out: Vec<Tok>,
}

impl Lexer<'_> {
    fn run(mut self) -> Result<Vec<Tok>, LexError> {
        while self.pos < self.b.len() {
            let c = byte_at(self.b, self.pos);
            if c.is_ascii_whitespace() {
                self.pos += 1;
            } else if c == b'/' && byte_at(self.b, self.pos + 1) == b'/' {
                self.line_comment();
            } else if c == b'/' && byte_at(self.b, self.pos + 1) == b'*' {
                self.block_comment()?;
            } else if c == b'"' {
                self.string()?;
            } else if c == b'\'' {
                self.lifetime_or_char()?;
            } else if is_ident_start(c) {
                self.ident_or_prefixed_literal()?;
            } else if c.is_ascii_digit() {
                self.number();
            } else {
                self.punct();
            }
        }
        Ok(self.out)
    }

    fn push(&mut self, kind: TokKind, lo: usize) {
        self.out.push(Tok {
            kind,
            lo,
            hi: self.pos,
        });
    }

    fn line_comment(&mut self) {
        let lo = self.pos;
        while self.pos < self.b.len() && byte_at(self.b, self.pos) != b'\n' {
            self.pos += 1;
        }
        self.push(TokKind::LineComment, lo);
    }

    fn block_comment(&mut self) -> Result<(), LexError> {
        let lo = self.pos;
        let mut depth = 0usize;
        while self.pos < self.b.len() {
            if byte_at(self.b, self.pos) == b'/' && byte_at(self.b, self.pos + 1) == b'*' {
                depth += 1;
                self.pos += 2;
            } else if byte_at(self.b, self.pos) == b'*' && byte_at(self.b, self.pos + 1) == b'/' {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    self.push(TokKind::BlockComment, lo);
                    return Ok(());
                }
            } else {
                self.pos += 1;
            }
        }
        Err(LexError {
            at: lo,
            msg: "unterminated block comment",
        })
    }

    /// A plain (escaped) string body; the cursor sits on the opening `"`.
    fn string(&mut self) -> Result<(), LexError> {
        let lo = self.pos;
        self.pos += 1; // opening quote
        while self.pos < self.b.len() {
            match byte_at(self.b, self.pos) {
                b'\\' => self.pos += 2,
                b'"' => {
                    self.pos += 1;
                    self.push(TokKind::Literal, lo);
                    return Ok(());
                }
                _ => self.pos += 1,
            }
        }
        Err(LexError {
            at: lo,
            msg: "unterminated string literal",
        })
    }

    /// A raw string body starting at `lo` (span start, possibly covering a
    /// `r`/`br`/`cr` prefix); the cursor sits on the first `#` or the `"`.
    fn raw_string(&mut self, lo: usize) -> Result<(), LexError> {
        let mut hashes = 0usize;
        while byte_at(self.b, self.pos) == b'#' {
            hashes += 1;
            self.pos += 1;
        }
        debug_assert_eq!(byte_at(self.b, self.pos), b'"');
        self.pos += 1;
        while self.pos < self.b.len() {
            if byte_at(self.b, self.pos) == b'"' {
                let mut k = 0;
                while k < hashes && byte_at(self.b, self.pos + 1 + k) == b'#' {
                    k += 1;
                }
                if k == hashes {
                    self.pos += 1 + hashes;
                    self.push(TokKind::Literal, lo);
                    return Ok(());
                }
            }
            self.pos += 1;
        }
        Err(LexError {
            at: lo,
            msg: "unterminated raw string literal",
        })
    }

    /// A char (or byte-char) literal body starting at `lo`; the cursor
    /// sits on the opening `'` which is already known to open a literal.
    fn char_literal(&mut self, lo: usize) -> Result<(), LexError> {
        self.pos += 1; // opening quote
        if byte_at(self.b, self.pos) == b'\\' {
            self.pos += 2; // escape lead + escaped byte (covers \', \\)
            while self.pos < self.b.len() && byte_at(self.b, self.pos) != b'\'' {
                self.pos += 1; // \x7f, \u{…} extend further
            }
        } else {
            while self.pos < self.b.len() && byte_at(self.b, self.pos) != b'\'' {
                self.pos += 1; // one (possibly multi-byte UTF-8) char
            }
        }
        if self.pos >= self.b.len() {
            return Err(LexError {
                at: lo,
                msg: "unterminated char literal",
            });
        }
        self.pos += 1; // closing quote
        self.push(TokKind::Literal, lo);
        Ok(())
    }

    /// `'…`: a lifetime/label unless the identifier run is followed by a
    /// closing quote (then it is a char literal like `'a'`).
    fn lifetime_or_char(&mut self) -> Result<(), LexError> {
        let lo = self.pos;
        let first = byte_at(self.b, self.pos + 1);
        if first == b'\\' {
            return self.char_literal(lo);
        }
        if is_ident_start(first) {
            let mut j = self.pos + 2;
            while is_ident_continue(byte_at(self.b, j)) {
                j += 1;
            }
            if byte_at(self.b, j) == b'\'' {
                return self.char_literal(lo); // 'a'
            }
            self.pos = j;
            self.push(TokKind::Lifetime, lo);
            return Ok(());
        }
        // Non-identifier content: a char literal like '(' or '✓'.
        self.char_literal(lo)
    }

    /// An identifier — or the prefix of a string/char literal (`b"…"`,
    /// `r#"…"#`, `c"…"`, `b'x'`) or a raw identifier (`r#fn`).
    fn ident_or_prefixed_literal(&mut self) -> Result<(), LexError> {
        let lo = self.pos;
        while is_ident_continue(byte_at(self.b, self.pos)) {
            self.pos += 1;
        }
        let word = self.b.get(lo..self.pos).unwrap_or(b"");
        let next = byte_at(self.b, self.pos);
        let is_raw_prefix = matches!(word, b"r" | b"br" | b"cr");
        let is_plain_prefix = matches!(word, b"b" | b"c");
        if next == b'"' && (is_raw_prefix || is_plain_prefix) {
            if is_raw_prefix {
                return self.raw_string(lo);
            }
            // Run the plain string scan from the quote, spanning `lo`.
            return self.string_spanning(lo);
        }
        if next == b'#' && is_raw_prefix {
            // Either a raw string with hashes or a raw identifier.
            let mut j = self.pos;
            while byte_at(self.b, j) == b'#' {
                j += 1;
            }
            if byte_at(self.b, j) == b'"' {
                return self.raw_string(lo);
            }
            if word == b"r" && is_ident_start(byte_at(self.b, self.pos + 1)) {
                // Raw identifier `r#fn`: one Ident token covering it all.
                self.pos += 1;
                while is_ident_continue(byte_at(self.b, self.pos)) {
                    self.pos += 1;
                }
                self.push(TokKind::Ident, lo);
                return Ok(());
            }
        }
        if next == b'\'' && word == b"b" {
            return self.char_literal(lo); // byte char b'x'
        }
        self.push(TokKind::Ident, lo);
        Ok(())
    }

    /// A plain string scan whose token span starts at `lo` (for `b"…"` /
    /// `c"…"` prefixes); the cursor sits on the opening quote.
    fn string_spanning(&mut self, lo: usize) -> Result<(), LexError> {
        // Reuse string() but fix up the span start afterwards.
        self.string()?;
        if let Some(last) = self.out.last_mut() {
            last.lo = lo;
        }
        Ok(())
    }

    /// A numeric literal: integer or float, any base, optional suffix.
    fn number(&mut self) {
        let lo = self.pos;
        let radix_prefix = byte_at(self.b, self.pos) == b'0'
            && matches!(
                byte_at(self.b, self.pos + 1),
                b'x' | b'X' | b'o' | b'O' | b'b' | b'B'
            );
        if radix_prefix {
            self.pos += 2;
            // Digits of any base plus type suffix, one run.
            while is_ident_continue(byte_at(self.b, self.pos)) {
                self.pos += 1;
            }
            self.push(TokKind::Num, lo);
            return;
        }
        while byte_at(self.b, self.pos).is_ascii_digit() || byte_at(self.b, self.pos) == b'_' {
            self.pos += 1;
        }
        // Fractional part: `.` followed by a digit (so `0..n` and
        // `1.max(2)` stay ranges / method calls), or a trailing `1.`.
        if byte_at(self.b, self.pos) == b'.' {
            let after = byte_at(self.b, self.pos + 1);
            if after.is_ascii_digit() {
                self.pos += 1;
                while byte_at(self.b, self.pos).is_ascii_digit()
                    || byte_at(self.b, self.pos) == b'_'
                {
                    self.pos += 1;
                }
            } else if after != b'.' && !is_ident_start(after) {
                self.pos += 1; // `1.`
            }
        }
        // Exponent.
        if matches!(byte_at(self.b, self.pos), b'e' | b'E') {
            let mut j = self.pos + 1;
            if matches!(byte_at(self.b, j), b'+' | b'-') {
                j += 1;
            }
            if byte_at(self.b, j).is_ascii_digit() {
                self.pos = j;
                while byte_at(self.b, self.pos).is_ascii_digit()
                    || byte_at(self.b, self.pos) == b'_'
                {
                    self.pos += 1;
                }
            }
        }
        // Type suffix (`f64`, `u32`, `usize`, …).
        while is_ident_continue(byte_at(self.b, self.pos)) {
            self.pos += 1;
        }
        self.push(TokKind::Num, lo);
    }

    fn punct(&mut self) {
        let lo = self.pos;
        let rest = self.b.get(self.pos..).unwrap_or(b"");
        for p in PUNCT3 {
            if rest.starts_with(p) {
                self.pos += 3;
                self.push(TokKind::Punct, lo);
                return;
            }
        }
        for p in PUNCT2 {
            if rest.starts_with(p) {
                self.pos += 2;
                self.push(TokKind::Punct, lo);
                return;
            }
        }
        self.pos += 1;
        self.push(TokKind::Punct, lo);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .unwrap()
            .into_iter()
            .map(|t| (t.kind, t.text(src).to_owned()))
            .collect()
    }

    fn texts(src: &str) -> Vec<String> {
        kinds(src).into_iter().map(|(_, s)| s).collect()
    }

    #[test]
    fn idents_puncts_and_numbers() {
        assert_eq!(
            kinds("let x = 42;"),
            vec![
                (TokKind::Ident, "let".into()),
                (TokKind::Ident, "x".into()),
                (TokKind::Punct, "=".into()),
                (TokKind::Num, "42".into()),
                (TokKind::Punct, ";".into()),
            ]
        );
    }

    #[test]
    fn multi_byte_operators_are_single_tokens() {
        assert_eq!(
            texts("a::b == c != d ..= e .. f -> g => h"),
            vec!["a", "::", "b", "==", "c", "!=", "d", "..=", "e", "..", "f", "->", "g", "=>", "h"]
        );
    }

    #[test]
    fn float_and_integer_literals() {
        assert_eq!(
            texts("1.5e-3 0.5 1_000 0x7f_u8 1f64 2usize 1."),
            vec!["1.5e-3", "0.5", "1_000", "0x7f_u8", "1f64", "2usize", "1."]
        );
        // Ranges and method calls on integers do not swallow the dot.
        assert_eq!(texts("0..2"), vec!["0", "..", "2"]);
        assert_eq!(texts("1.max(2)"), vec!["1", ".", "max", "(", "2", ")"]);
    }

    #[test]
    fn strings_and_escapes_are_one_literal() {
        let src = r#"let s = "a.unwrap() \" // not a comment";"#;
        let k = kinds(src);
        assert_eq!(k[3].0, TokKind::Literal);
        assert!(k[3].1.contains("unwrap"));
        assert_eq!(k.len(), 5);
    }

    #[test]
    fn raw_byte_and_c_strings() {
        for src in [
            "r\"x[0]\"",
            "r#\"quote \" inside\"#",
            "br#\"bytes\"#",
            "b\"bytes\"",
            "c\"cstr\"",
        ] {
            let toks = lex(src).unwrap();
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, TokKind::Literal, "{src}");
            assert_eq!(toks[0].lo, 0);
            assert_eq!(toks[0].hi, src.len());
        }
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        assert_eq!(
            kinds("<'a> 'static 'x' b'y' '\\n' '_'"),
            vec![
                (TokKind::Punct, "<".into()),
                (TokKind::Lifetime, "'a".into()),
                (TokKind::Punct, ">".into()),
                (TokKind::Lifetime, "'static".into()),
                (TokKind::Literal, "'x'".into()),
                (TokKind::Literal, "b'y'".into()),
                (TokKind::Literal, "'\\n'".into()),
                (TokKind::Literal, "'_'".into()),
            ]
        );
    }

    #[test]
    fn comments_line_block_nested() {
        let src = "a // line .unwrap()\nb /* c[0] /* nested */ still */ d";
        let k = kinds(src);
        assert_eq!(k[0], (TokKind::Ident, "a".into()));
        assert_eq!(k[1].0, TokKind::LineComment);
        assert_eq!(k[2], (TokKind::Ident, "b".into()));
        assert_eq!(k[3].0, TokKind::BlockComment);
        assert!(k[3].1.contains("nested"));
        assert_eq!(k[4], (TokKind::Ident, "d".into()));
    }

    #[test]
    fn raw_identifiers() {
        assert_eq!(kinds("r#fn"), vec![(TokKind::Ident, "r#fn".into())]);
    }

    #[test]
    fn unterminated_inputs_error() {
        assert!(lex("\"abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("r#\"abc").is_err());
        assert!(lex("'\\n").is_err());
    }

    #[test]
    fn spans_are_lossless() {
        let src = "fn f(v: &[u64]) -> bool { v.iter().any(|&x| x != 0) } // tail";
        let toks = lex(src).unwrap();
        let mut prev_hi = 0;
        for t in &toks {
            assert!(t.lo >= prev_hi, "overlap at {t:?}");
            // Gap between tokens is pure whitespace.
            assert!(src[prev_hi..t.lo].chars().all(char::is_whitespace));
            prev_hi = t.hi;
        }
        assert!(src[prev_hi..].chars().all(char::is_whitespace));
    }
}
