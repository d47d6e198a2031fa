//! Case folding and diagnostics of the lexer.
//!
//! Identifiers and the `!hpf$` prefix are case-insensitive, and the lexer
//! folds them without copying a line or a lower-case word. A mixed-case
//! program must parse to the same AST as its lower-case original, and the
//! diagnostics of malformed programs must keep their exact text: the
//! `compile-sweep` workload hashes every rejected program's diagnostic into
//! its fingerprint.

use hpf::{analyze, parse_program, GAXPY_SOURCE, SPMV_SOURCE};

/// `source` with the directive prefix upper-cased and every identifier
/// recased: a one-letter name upper-cased (`A`, `N`), a longer word
/// capitalised (`Real`, `Distribute`). Literals keep their case.
fn mixed_case(source: &str) -> String {
    let mut out = String::with_capacity(source.len());
    for line in source.lines() {
        let rest = match line.strip_prefix("!hpf$") {
            Some(rest) => {
                out.push_str("!HPF$");
                rest
            }
            None => line,
        };
        let mut chars = rest.char_indices().peekable();
        while let Some((i, c)) = chars.next() {
            if !(c.is_ascii_alphabetic() || c == '_') {
                out.push(c);
                // A real literal's exponent letter stays as written.
                if c.is_ascii_digit() || c == '.' {
                    while let Some(&(_, d)) = chars.peek() {
                        if !(d.is_ascii_alphanumeric() || d == '.') {
                            break;
                        }
                        out.push(d);
                        chars.next();
                    }
                }
                continue;
            }
            let mut end = i + c.len_utf8();
            while let Some(&(j, d)) = chars.peek() {
                if !(d.is_ascii_alphanumeric() || d == '_') {
                    break;
                }
                end = j + d.len_utf8();
                chars.next();
            }
            let ident = &rest[i..end];
            out.push_str(&ident[..1].to_ascii_uppercase());
            out.push_str(&ident[1..]);
        }
        out.push('\n');
    }
    out
}

#[test]
fn mixed_case_programs_parse_to_the_lower_case_ast() {
    for source in [GAXPY_SOURCE, SPMV_SOURCE] {
        let mixed = mixed_case(source);
        assert_ne!(mixed, source);
        assert!(mixed.contains("!HPF$"), "{mixed}");
        let lower = parse_program(source).expect("parses");
        let folded = parse_program(&mixed).expect("mixed case parses");
        assert_eq!(folded, lower, "{mixed}");
        assert_eq!(analyze(&folded), analyze(&lower));
    }
    let spelled = mixed_case(GAXPY_SOURCE);
    assert!(spelled.contains("Real A(N"), "{spelled}");
    assert!(spelled.contains("!HPF$ Distribute"), "{spelled}");
}

/// The four ways `compile-sweep` breaks a program.
fn mutations(source: &str) -> [String; 4] {
    let drop_first = |victim: &str| {
        let (mut dropped, mut kept) = (false, Vec::new());
        for l in source.lines() {
            if !dropped && l.trim() == victim {
                dropped = true;
            } else {
                kept.push(l);
            }
        }
        kept.join("\n") + "\n"
    };
    let real_comma: Vec<String> = (source.lines())
        .map(|l| match l.trim_start().starts_with("real ") {
            true => format!("{l},"),
            false => l.to_string(),
        })
        .collect();
    [
        drop_first("end forall"),
        source.replacen(") = ", ") = * ", 1),
        real_comma.join("\n") + "\n",
        source.replacen("parameter (n=", "parameter (n=,", 1),
    ]
}

fn diagnostic(source: &str) -> String {
    let err = match parse_program(source) {
        Ok(prog) => analyze(&prog).expect_err("malformed"),
        Err(e) => e,
    };
    err.to_string()
}

#[test]
fn malformed_programs_keep_their_diagnostics() {
    let got = mutations(GAXPY_SOURCE).map(|s| diagnostic(&s));
    assert_eq!(got, PINNED);
}

const PINNED: [&str; 4] = [
    "line 13: `end do` closes a forall block",
    "line 11: expected expression, found *",
    "line 3: expected identifier, found end of line",
    "line 2: expected expression, found ,",
];
