//! Line-oriented lexer.
//!
//! Fortran-style input: one statement per line, `!` starts a comment unless
//! the line is an `!hpf$` directive, case-insensitive identifiers (the lexer
//! lower-cases them). Each source line becomes a token line tagged with its
//! 1-based line number. Tokens borrow the source: an identifier is a copy
//! only when it has an uppercase letter to fold, and every line's tokens
//! share one buffer.

use std::borrow::Cow;
use std::ops::Range;

use crate::error::{FrontError, FrontResult};

/// Token kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum Tok<'a> {
    /// Identifier or keyword (lower-cased), borrowed from the source when
    /// it is lower-case there already.
    Ident(Cow<'a, str>),
    /// Integer literal.
    Int(i64),
    /// Real literal (contains `.` or exponent).
    Real(f64),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `=`
    Eq,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `:`
    Colon,
    /// `::`
    ColonColon,
}

impl std::fmt::Display for Tok<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "{s}"),
            Tok::Int(v) => write!(f, "{v}"),
            Tok::Real(v) => write!(f, "{v}"),
            Tok::LParen => write!(f, "("),
            Tok::RParen => write!(f, ")"),
            Tok::Comma => write!(f, ","),
            Tok::Eq => write!(f, "="),
            Tok::Plus => write!(f, "+"),
            Tok::Minus => write!(f, "-"),
            Tok::Star => write!(f, "*"),
            Tok::Slash => write!(f, "/"),
            Tok::Colon => write!(f, ":"),
            Tok::ColonColon => write!(f, "::"),
        }
    }
}

/// One tokenized source line.
#[derive(Debug, Clone, PartialEq)]
pub struct TokLine {
    /// 1-based source line number.
    pub line: usize,
    /// True when the line began with `!hpf$`.
    pub directive: bool,
    /// The line's tokens, as a range of [`Tokens::toks`].
    pub toks: Range<usize>,
}

/// A tokenized source text: every token in one buffer, and the non-empty
/// lines as ranges of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tokens<'a> {
    /// Every token, in source order.
    pub toks: Vec<Tok<'a>>,
    /// The non-empty token lines, in source order.
    pub lines: Vec<TokLine>,
}

impl<'a> Tokens<'a> {
    /// The tokens of `line`.
    pub fn of(&self, line: &TokLine) -> &[Tok<'a>] {
        &self.toks[line.toks.clone()]
    }
}

/// Tokenize a whole source text into non-empty token lines.
pub fn tokenize(source: &str) -> FrontResult<Tokens<'_>> {
    // Sized up front for a program of ordinary length: a token seldom
    // takes fewer than two source bytes, and a token line is a source
    // line. The caps keep a huge or blank input from reserving memory it
    // does not use; a longer program grows the buffers as usual.
    const RESERVED_TOKS: usize = 4096;
    const RESERVED_LINES: usize = 512;
    let newlines = source.bytes().filter(|&b| b == b'\n').count();
    let mut out = Tokens {
        toks: Vec::with_capacity((source.len() / 2).min(RESERVED_TOKS)),
        lines: Vec::with_capacity((newlines + 1).min(RESERVED_LINES)),
    };
    for (i, raw) in source.lines().enumerate() {
        let lineno = i + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            continue;
        }
        let (directive, rest) = match strip_directive_prefix(trimmed) {
            Some(rest) => (true, rest),
            None => (false, trimmed),
        };
        // Comments: everything from `!` (non-directive) to end of line.
        let code = match rest.find('!') {
            Some(pos) => &rest[..pos],
            None => rest,
        };
        if code.trim().is_empty() {
            continue;
        }
        let start = out.toks.len();
        tokenize_line(code, lineno, &mut out.toks)?;
        if out.toks.len() > start {
            out.lines.push(TokLine {
                line: lineno,
                directive,
                toks: start..out.toks.len(),
            });
        }
    }
    Ok(out)
}

fn strip_directive_prefix(line: &str) -> Option<&str> {
    let prefix = line.get(..5)?;
    prefix.eq_ignore_ascii_case("!hpf$").then(|| &line[5..])
}

/// Append the tokens of one line's code to `toks`.
fn tokenize_line<'a>(code: &'a str, line: usize, toks: &mut Vec<Tok<'a>>) -> FrontResult<()> {
    let bytes = code.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '=' => {
                toks.push(Tok::Eq);
                i += 1;
            }
            '+' => {
                toks.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                toks.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                toks.push(Tok::Star);
                i += 1;
            }
            '/' => {
                toks.push(Tok::Slash);
                i += 1;
            }
            ':' => {
                if i + 1 < bytes.len() && bytes[i + 1] == b':' {
                    toks.push(Tok::ColonColon);
                    i += 2;
                } else {
                    toks.push(Tok::Colon);
                    i += 1;
                }
            }
            _ if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut saw_dot = false;
                let mut saw_exp = false;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_digit() {
                        i += 1;
                    } else if d == '.' && !saw_dot && !saw_exp {
                        saw_dot = true;
                        i += 1;
                    } else if (d == 'e' || d == 'E') && !saw_exp && i > start {
                        saw_exp = true;
                        i += 1;
                        if i < bytes.len() && (bytes[i] == b'+' || bytes[i] == b'-') {
                            i += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &code[start..i];
                if saw_dot || saw_exp {
                    let v: f64 = text
                        .parse()
                        .map_err(|_| FrontError::new(line, format!("bad real literal `{text}`")))?;
                    toks.push(Tok::Real(v));
                } else {
                    let v: i64 = text.parse().map_err(|_| {
                        FrontError::new(line, format!("bad integer literal `{text}`"))
                    })?;
                    toks.push(Tok::Int(v));
                }
            }
            _ if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() {
                    let d = bytes[i] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let word = &code[start..i];
                toks.push(Tok::Ident(
                    if word.bytes().any(|b| b.is_ascii_uppercase()) {
                        Cow::Owned(word.to_ascii_lowercase())
                    } else {
                        Cow::Borrowed(word)
                    },
                ));
            }
            other => {
                return Err(FrontError::new(
                    line,
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_statement() {
        let lines = tokenize("      do j = 1, n\n").unwrap();
        assert_eq!(lines.lines.len(), 1);
        assert!(!lines.lines[0].directive);
        assert_eq!(
            lines.toks,
            vec![
                Tok::Ident("do".into()),
                Tok::Ident("j".into()),
                Tok::Eq,
                Tok::Int(1),
                Tok::Comma,
                Tok::Ident("n".into()),
            ]
        );
    }

    #[test]
    fn directive_lines_are_flagged() {
        let lines = tokenize("!hpf$ distribute d(block) on pr").unwrap();
        assert!(lines.lines[0].directive);
        assert_eq!(lines.toks[0], Tok::Ident("distribute".into()));
    }

    #[test]
    fn comments_are_stripped() {
        let lines = tokenize("      x = 1 ! set x\n! whole-line comment\n").unwrap();
        assert_eq!(lines.lines.len(), 1);
        assert_eq!(lines.of(&lines.lines[0]).len(), 3);
    }

    #[test]
    fn numbers_and_reals() {
        let lines = tokenize("x = 0.25 * 4 + 1e2").unwrap();
        assert_eq!(
            lines.toks,
            vec![
                Tok::Ident("x".into()),
                Tok::Eq,
                Tok::Real(0.25),
                Tok::Star,
                Tok::Int(4),
                Tok::Plus,
                Tok::Real(100.0),
            ]
        );
    }

    #[test]
    fn double_colon_vs_single() {
        let lines = tokenize("align (:, *) with d :: a, b").unwrap();
        assert!(lines.toks.contains(&Tok::ColonColon));
        assert!(lines.toks.contains(&Tok::Colon));
    }

    #[test]
    fn case_is_folded() {
        let lines = tokenize("FORALL (K = 1:N)").unwrap();
        assert_eq!(lines.toks[0], Tok::Ident("forall".into()));
        assert!(matches!(lines.toks[0], Tok::Ident(Cow::Owned(_))));
        let lower = tokenize("forall (k = 1:n)").unwrap();
        assert!(matches!(lower.toks[0], Tok::Ident(Cow::Borrowed("forall"))));
    }

    #[test]
    fn directive_prefix_is_case_insensitive() {
        let lines =
            tokenize("!HPF$ Distribute d(BLOCK) on pr\n!Hpf$ template t(n)\n!hpf x").unwrap();
        assert_eq!(lines.lines.len(), 2);
        assert!(lines.lines.iter().all(|l| l.directive));
        assert_eq!(lines.toks[0], Tok::Ident("distribute".into()));
    }

    #[test]
    fn bad_char_is_reported_with_line() {
        let err = tokenize("x = 1\ny = $2").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains('$'));
    }

    #[test]
    fn triplet_tokens() {
        let lines = tokenize("a(1:n:2, j)").unwrap();
        let colons = lines.toks.iter().filter(|t| **t == Tok::Colon).count();
        assert_eq!(colons, 2);
    }
}
