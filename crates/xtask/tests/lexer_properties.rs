//! Property tests for the analyze lexer.
//!
//! The vendored proptest stand-in has no string strategies, so inputs are
//! composed from fragment tables indexed by generated `usize`s: a random
//! sequence of code fragments is glued together with random *separators*
//! (whitespace and comments), and the code-token stream must not care
//! which separators were chosen — comments and spacing are noise to every
//! rule built on the engine.

use proptest::prelude::*;
use xtask::lexer::{lex, TokKind};

/// Code fragments that are valid token sequences on their own.
const FRAGMENTS: [&str; 12] = [
    "fn foo()",
    "let x = a.unwrap();",
    "vec![1, 2]",
    "h.cross_links &= mask;",
    "x.collect::<Vec<_>>()",
    "let s = \"str // not a comment\";",
    "let c = 'a';",
    "let lt: &'static str = r\"raw\";",
    "if a == b { panic!(\"no\") }",
    "m[i] += 1.0;",
    "#[cfg(test)] mod t {}",
    "let r = r#\"raw \" inside\"#;",
];

/// Separators that must be invisible to the code-token stream.
const SEPARATORS: [&str; 8] = [
    " ",
    "\n",
    "\t\n  ",
    "// line comment\n",
    "/* block */",
    "/* nested /* block */ */",
    "//! doc line\n",
    "/** doc block */",
];

/// Pieces safe to embed inside a double-quoted string literal.
const STRING_PIECES: [&str; 8] = [
    "abc",
    "// not a comment",
    "/* not a block */",
    "\\\"escaped quote",
    "\\\\",
    "'c'",
    "ident_like",
    "1.5e3",
];

/// The (kind, text) stream of non-comment tokens.
fn code_stream(src: &str) -> Result<Vec<(TokKind, String)>, String> {
    lex(src)
        .map_err(|e| format!("lex failed on {src:?}: {e:?}"))?
        .into_iter()
        .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .map(|t| {
            let text = src
                .get(t.lo..t.hi)
                .ok_or_else(|| format!("token span {}..{} is not valid", t.lo, t.hi))?;
            Ok((t.kind, text.to_owned()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Gluing the same fragments with different separators yields the
    /// same code-token stream as gluing them with single spaces.
    #[test]
    fn code_tokens_invariant_under_separator_choice(
        picks in proptest::collection::vec((0..FRAGMENTS.len(), 0..SEPARATORS.len()), 1..8),
    ) {
        let mut with_seps = String::new();
        let mut with_spaces = String::new();
        for &(f, s) in &picks {
            with_seps.push_str(FRAGMENTS[f]);
            with_seps.push_str(SEPARATORS[s]);
            with_spaces.push_str(FRAGMENTS[f]);
            with_spaces.push(' ');
        }
        prop_assert_eq!(code_stream(&with_seps).unwrap(), code_stream(&with_spaces).unwrap());
    }

    /// Comment-looking and code-looking text inside a string literal never
    /// leaks tokens: the whole literal is one `Literal` token, and the
    /// surrounding code tokens are unaffected.
    #[test]
    fn string_contents_stay_one_literal(
        pieces in proptest::collection::vec(0..STRING_PIECES.len(), 0..6),
    ) {
        let mut body = String::new();
        for &p in &pieces {
            body.push_str(STRING_PIECES[p]);
        }
        let src = format!("let s = \"{body}\"; done");
        let toks = code_stream(&src).unwrap();
        // let s = "..." ; done  =>  exactly 6 code tokens.
        prop_assert_eq!(toks.len(), 6, "tokens: {:?}", toks);
        prop_assert_eq!(toks[3].0, TokKind::Literal);
        let quoted = format!("\"{body}\"");
        prop_assert_eq!(toks[3].1.as_str(), quoted.as_str());
        prop_assert_eq!(toks[5].1.as_str(), "done");
    }
}
