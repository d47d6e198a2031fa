//! Recursive-descent parser over tokenized lines.

use crate::ast::*;
use crate::error::{FrontError, FrontResult};
use crate::lexer::{tokenize, Tok};

/// Intrinsic function names recognized as calls rather than array
/// references.
pub const INTRINSICS: &[&str] = &["sum", "abs", "min", "max", "mod", "sqrt"];

/// Parse a full program.
pub fn parse_program(source: &str) -> FrontResult<Program> {
    let tokens = tokenize(source)?;
    let lines = &tokens.lines;
    let mut prog = Program::default();
    // Stack of open blocks: (opener, partial statement list).
    enum Block {
        Do { var: String, lo: Expr, hi: Expr },
        Forall { indices: Vec<(String, Expr, Expr)> },
    }
    let mut stack: Vec<(Block, Vec<Stmt>)> = Vec::new();
    let mut done = false;

    let push_stmt =
        |stack: &mut Vec<(Block, Vec<Stmt>)>, prog: &mut Program, s: Stmt| match stack.last_mut() {
            Some((_, body)) => body.push(s),
            None => prog.stmts.push(s),
        };

    for line in lines {
        if done {
            return Err(FrontError::new(
                line.line,
                "statement after final `end`".to_string(),
            ));
        }
        let mut cur = Cursor::new(line.line, tokens.of(line));
        if line.directive {
            prog.directives.push(parse_directive(&mut cur)?);
            cur.expect_end()?;
            continue;
        }
        match cur.peek_ident() {
            Some("parameter") => {
                cur.bump();
                cur.expect(Tok::LParen)?;
                loop {
                    let name = cur.expect_ident()?.to_string();
                    cur.expect(Tok::Eq)?;
                    let value = parse_expr(&mut cur)?;
                    prog.decls.push(Decl::Parameter { name, value });
                    if !cur.eat(Tok::Comma) {
                        break;
                    }
                }
                cur.expect(Tok::RParen)?;
                cur.expect_end()?;
            }
            Some("real") => {
                cur.bump();
                loop {
                    let name = cur.expect_ident()?.to_string();
                    cur.expect(Tok::LParen)?;
                    let mut dims = Vec::new();
                    loop {
                        dims.push(parse_expr(&mut cur)?);
                        if !cur.eat(Tok::Comma) {
                            break;
                        }
                    }
                    cur.expect(Tok::RParen)?;
                    prog.decls.push(Decl::Array { name, dims });
                    if !cur.eat(Tok::Comma) {
                        break;
                    }
                }
                cur.expect_end()?;
            }
            Some("do") => {
                cur.bump();
                let var = cur.expect_ident()?.to_string();
                cur.expect(Tok::Eq)?;
                let lo = parse_expr(&mut cur)?;
                cur.expect(Tok::Comma)?;
                let hi = parse_expr(&mut cur)?;
                cur.expect_end()?;
                stack.push((Block::Do { var, lo, hi }, Vec::new()));
            }
            Some("forall") => {
                cur.bump();
                cur.expect(Tok::LParen)?;
                let mut indices = Vec::new();
                loop {
                    let var = cur.expect_ident()?.to_string();
                    cur.expect(Tok::Eq)?;
                    let lo = parse_expr(&mut cur)?;
                    cur.expect(Tok::Colon)?;
                    let hi = parse_expr(&mut cur)?;
                    indices.push((var, lo, hi));
                    if !cur.eat(Tok::Comma) {
                        break;
                    }
                }
                cur.expect(Tok::RParen)?;
                cur.expect_end()?;
                stack.push((Block::Forall { indices }, Vec::new()));
            }
            Some("enddo") => {
                cur.bump();
                cur.expect_end()?;
                close_block(&mut stack, &mut prog, line.line, "do")?;
            }
            Some("end") => {
                cur.bump();
                match cur.peek_ident() {
                    Some("do") => {
                        cur.bump();
                        cur.expect_end()?;
                        close_block(&mut stack, &mut prog, line.line, "do")?;
                    }
                    Some("forall") => {
                        cur.bump();
                        cur.expect_end()?;
                        close_block(&mut stack, &mut prog, line.line, "forall")?;
                    }
                    None => {
                        cur.expect_end()?;
                        if let Some((_, _)) = stack.last() {
                            return Err(FrontError::new(
                                line.line,
                                "`end` with unclosed do/forall block".to_string(),
                            ));
                        }
                        done = true;
                    }
                    Some(other) => {
                        return Err(FrontError::new(
                            line.line,
                            format!("unexpected `end {other}`"),
                        ))
                    }
                }
            }
            _ => {
                // Assignment statement.
                let lhs = parse_expr(&mut cur)?;
                cur.expect(Tok::Eq)?;
                let rhs = parse_expr(&mut cur)?;
                cur.expect_end()?;
                match lhs {
                    Expr::ArrayRef { .. } | Expr::Var(_) => {}
                    _ => {
                        return Err(FrontError::new(
                            line.line,
                            "left-hand side must be a variable or array reference".to_string(),
                        ))
                    }
                }
                push_stmt(
                    &mut stack,
                    &mut prog,
                    Stmt::Assign {
                        lhs,
                        rhs,
                        line: line.line,
                    },
                );
            }
        }
    }

    if let Some((_, _)) = stack.last() {
        return Err(FrontError::new(
            lines.last().map(|l| l.line).unwrap_or(0),
            "unclosed do/forall block at end of input".to_string(),
        ));
    }

    // Close over helper: rebuild blocks into statements.
    fn close_block(
        stack: &mut Vec<(Block, Vec<Stmt>)>,
        prog: &mut Program,
        line: usize,
        expect: &str,
    ) -> FrontResult<()> {
        let Some((block, body)) = stack.pop() else {
            return Err(FrontError::new(
                line,
                format!("`end {expect}` without block"),
            ));
        };
        let stmt = match block {
            Block::Do { var, lo, hi } => {
                if expect != "do" {
                    return Err(FrontError::new(
                        line,
                        format!("`end {expect}` closes a do block"),
                    ));
                }
                Stmt::Do { var, lo, hi, body }
            }
            Block::Forall { indices } => {
                if expect != "forall" {
                    return Err(FrontError::new(
                        line,
                        format!("`end {expect}` closes a forall block"),
                    ));
                }
                Stmt::Forall { indices, body }
            }
        };
        match stack.last_mut() {
            Some((_, parent)) => parent.push(stmt),
            None => prog.stmts.push(stmt),
        }
        Ok(())
    }

    Ok(prog)
}

fn parse_directive(cur: &mut Cursor<'_>) -> FrontResult<Directive> {
    match cur.expect_ident()? {
        "processors" => {
            let name = cur.expect_ident()?.to_string();
            cur.expect(Tok::LParen)?;
            let mut extents = Vec::new();
            loop {
                extents.push(parse_expr(cur)?);
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            cur.expect(Tok::RParen)?;
            Ok(Directive::Processors { name, extents })
        }
        "template" => {
            let name = cur.expect_ident()?.to_string();
            cur.expect(Tok::LParen)?;
            let mut extents = Vec::new();
            loop {
                extents.push(parse_expr(cur)?);
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            cur.expect(Tok::RParen)?;
            Ok(Directive::Template { name, extents })
        }
        "distribute" => {
            let target = cur.expect_ident()?.to_string();
            cur.expect(Tok::LParen)?;
            let mut specs = Vec::new();
            loop {
                specs.push(parse_dist_spec(cur)?);
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            cur.expect(Tok::RParen)?;
            let on = cur.expect_ident()?;
            if on != "on" {
                return Err(cur.err(format!("expected `on`, found `{on}`")));
            }
            let procs = cur.expect_ident()?.to_string();
            Ok(Directive::Distribute {
                target,
                specs,
                procs,
            })
        }
        "align" => {
            cur.expect(Tok::LParen)?;
            let mut pattern = Vec::new();
            loop {
                if cur.eat(Tok::Star) {
                    pattern.push(AlignDim::Star);
                } else if cur.eat(Tok::Colon) {
                    pattern.push(AlignDim::Colon);
                } else {
                    return Err(cur.err("expected `*` or `:` in align pattern".to_string()));
                }
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            cur.expect(Tok::RParen)?;
            let with = cur.expect_ident()?;
            if with != "with" {
                return Err(cur.err(format!("expected `with`, found `{with}`")));
            }
            let template = cur.expect_ident()?.to_string();
            cur.expect(Tok::ColonColon)?;
            let mut arrays = Vec::new();
            loop {
                arrays.push(cur.expect_ident()?.to_string());
                if !cur.eat(Tok::Comma) {
                    break;
                }
            }
            Ok(Directive::Align {
                pattern,
                template,
                arrays,
            })
        }
        other => Err(cur.err(format!("unknown directive `{other}`"))),
    }
}

fn parse_dist_spec(cur: &mut Cursor<'_>) -> FrontResult<DistSpec> {
    if cur.eat(Tok::Star) {
        return Ok(DistSpec::Star);
    }
    match cur.expect_ident()? {
        "block" => Ok(DistSpec::Block),
        "cyclic" => {
            if cur.eat(Tok::LParen) {
                let b = match cur.bump() {
                    Some(Tok::Int(v)) => *v,
                    _ => return Err(cur.err("expected block size in cyclic(b)".to_string())),
                };
                cur.expect(Tok::RParen)?;
                Ok(DistSpec::CyclicBlock(b))
            } else {
                Ok(DistSpec::Cyclic)
            }
        }
        other => Err(cur.err(format!("unknown distribution format `{other}`"))),
    }
}

/// Expression grammar: `expr := term (("+"|"-") term)*`,
/// `term := factor (("*"|"/") factor)*`, `factor := ["-"] primary`.
fn parse_expr(cur: &mut Cursor<'_>) -> FrontResult<Expr> {
    let mut lhs = parse_term(cur)?;
    loop {
        if cur.eat(Tok::Plus) {
            let rhs = parse_term(cur)?;
            lhs = Expr::bin(BinOp::Add, lhs, rhs);
        } else if cur.eat(Tok::Minus) {
            let rhs = parse_term(cur)?;
            lhs = Expr::bin(BinOp::Sub, lhs, rhs);
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_term(cur: &mut Cursor<'_>) -> FrontResult<Expr> {
    let mut lhs = parse_factor(cur)?;
    loop {
        if cur.eat(Tok::Star) {
            let rhs = parse_factor(cur)?;
            lhs = Expr::bin(BinOp::Mul, lhs, rhs);
        } else if cur.eat(Tok::Slash) {
            let rhs = parse_factor(cur)?;
            lhs = Expr::bin(BinOp::Div, lhs, rhs);
        } else {
            return Ok(lhs);
        }
    }
}

fn parse_factor(cur: &mut Cursor<'_>) -> FrontResult<Expr> {
    if cur.eat(Tok::Minus) {
        let inner = parse_factor(cur)?;
        return Ok(Expr::Neg(Box::new(inner)));
    }
    parse_primary(cur)
}

fn parse_primary(cur: &mut Cursor<'_>) -> FrontResult<Expr> {
    match cur.bump() {
        Some(Tok::Int(v)) => Ok(Expr::Int(*v)),
        Some(Tok::Real(v)) => Ok(Expr::Real(*v)),
        Some(Tok::LParen) => {
            let e = parse_expr(cur)?;
            cur.expect(Tok::RParen)?;
            Ok(e)
        }
        Some(Tok::Ident(name)) => {
            let name: &str = name;
            if cur.eat(Tok::LParen) {
                if INTRINSICS.contains(&name) {
                    let mut args = Vec::new();
                    loop {
                        args.push(parse_expr(cur)?);
                        if !cur.eat(Tok::Comma) {
                            break;
                        }
                    }
                    cur.expect(Tok::RParen)?;
                    Ok(Expr::Call {
                        name: name.to_string(),
                        args,
                    })
                } else {
                    let mut subs = Vec::new();
                    loop {
                        subs.push(parse_subscript(cur)?);
                        if !cur.eat(Tok::Comma) {
                            break;
                        }
                    }
                    cur.expect(Tok::RParen)?;
                    Ok(Expr::ArrayRef {
                        name: name.to_string(),
                        subs,
                    })
                }
            } else {
                Ok(Expr::Var(name.to_string()))
            }
        }
        other => Err(cur.err(format!(
            "expected expression, found {}",
            other
                .map(|t| t.to_string())
                .unwrap_or_else(|| "end of line".into())
        ))),
    }
}

fn parse_subscript(cur: &mut Cursor<'_>) -> FrontResult<Subscript> {
    // `:` or `lo:` or `:hi` or `lo:hi[:step]` or plain index expression.
    let lo = if cur.at(Tok::Colon) {
        None
    } else {
        Some(parse_expr(cur)?)
    };
    if cur.eat(Tok::Colon) {
        let hi = if cur.at(Tok::Colon) || cur.at(Tok::Comma) || cur.at(Tok::RParen) {
            None
        } else {
            Some(parse_expr(cur)?)
        };
        let step = if cur.eat(Tok::Colon) {
            Some(parse_expr(cur)?)
        } else {
            None
        };
        Ok(Subscript::Triplet { lo, hi, step })
    } else {
        // `lo` is only None when the subscript started with `:`, and that
        // path always takes the triplet branch above; guard anyway so a
        // malformed token stream surfaces as a diagnostic, not a panic.
        match lo {
            Some(e) => Ok(Subscript::Index(e)),
            None => Err(cur.err("expected index expression".into())),
        }
    }
}

/// Token cursor over one line.
struct Cursor<'a> {
    /// 1-based source line number.
    line: usize,
    toks: &'a [Tok<'a>],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(line: usize, toks: &'a [Tok<'a>]) -> Self {
        Cursor { line, toks, pos: 0 }
    }

    fn peek(&self) -> Option<&'a Tok<'a>> {
        self.toks.get(self.pos)
    }

    fn peek_ident(&self) -> Option<&'a str> {
        match self.peek() {
            Some(Tok::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn at(&self, t: Tok) -> bool {
        self.peek() == Some(&t)
    }

    fn bump(&mut self) -> Option<&'a Tok<'a>> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: Tok) -> bool {
        if self.at(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> FrontResult<()> {
        if self.eat(t.clone()) {
            Ok(())
        } else {
            Err(self.err(format!(
                "expected `{t}`, found {}",
                self.peek()
                    .map(|x| format!("`{x}`"))
                    .unwrap_or_else(|| "end of line".into())
            )))
        }
    }

    /// The next token as an identifier, borrowed: a caller copies only
    /// the names the AST keeps.
    fn expect_ident(&mut self) -> FrontResult<&'a str> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(format!(
                "expected identifier, found {}",
                other
                    .map(|t| format!("`{t}`"))
                    .unwrap_or_else(|| "end of line".into())
            ))),
        }
    }

    fn expect_end(&mut self) -> FrontResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(t) => Err(self.err(format!("unexpected trailing `{t}`"))),
        }
    }

    fn err(&self, message: String) -> FrontError {
        FrontError::new(self.line, message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure3() {
        let prog = parse_program(crate::GAXPY_SOURCE).unwrap();
        assert_eq!(prog.decls.len(), 2 + 4); // 2 parameters + 4 arrays
        assert_eq!(prog.directives.len(), 5);
        assert_eq!(prog.stmts.len(), 1);
        let Stmt::Do { var, body, .. } = &prog.stmts[0] else {
            panic!("outer statement should be a do loop");
        };
        assert_eq!(var, "j");
        assert_eq!(body.len(), 2); // forall + sum assignment
        assert!(matches!(body[0], Stmt::Forall { .. }));
    }

    #[test]
    fn nested_blocks() {
        let src = "
      do i = 1, 4
        do j = 1, 4
          a(i, j) = i + j
        end do
      end do
      end
";
        let prog = parse_program(src).unwrap();
        let Stmt::Do { body, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert!(matches!(&body[0], Stmt::Do { .. }));
    }

    #[test]
    fn enddo_spelling() {
        let src = "
      do i = 1, 4
        a(i) = i
      enddo
      end
";
        assert!(parse_program(src).is_ok());
    }

    #[test]
    fn triplets_parse() {
        let prog = parse_program("a(1:n, :, 2:8:2) = 0\nend\n").unwrap();
        let Stmt::Assign { lhs, .. } = &prog.stmts[0] else {
            panic!()
        };
        let Expr::ArrayRef { subs, .. } = lhs else {
            panic!()
        };
        assert!(matches!(
            subs[0],
            Subscript::Triplet {
                lo: Some(_),
                hi: Some(_),
                step: None
            }
        ));
        assert!(matches!(
            subs[1],
            Subscript::Triplet {
                lo: None,
                hi: None,
                step: None
            }
        ));
        assert!(matches!(subs[2], Subscript::Triplet { step: Some(_), .. }));
    }

    #[test]
    fn precedence_and_unary_minus() {
        let prog = parse_program("x = -a + b * c\nend\n").unwrap();
        let Stmt::Assign { rhs, .. } = &prog.stmts[0] else {
            panic!()
        };
        // (-a) + (b*c)
        let Expr::Bin(BinOp::Add, l, r) = rhs else {
            panic!("top must be +, got {rhs:?}")
        };
        assert!(matches!(**l, Expr::Neg(_)));
        assert!(matches!(**r, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn parenthesized_grouping() {
        let prog = parse_program("x = (a + b) * c\nend\n").unwrap();
        let Stmt::Assign { rhs, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Bin(BinOp::Mul, _, _)));
    }

    #[test]
    fn sum_is_a_call() {
        let prog = parse_program("c(1:n, j) = sum(temp, 2)\nend\n").unwrap();
        let Stmt::Assign { rhs, .. } = &prog.stmts[0] else {
            panic!()
        };
        assert!(matches!(rhs, Expr::Call { name, .. } if name == "sum"));
    }

    #[test]
    fn unclosed_block_is_an_error() {
        let err = parse_program("do i = 1, 4\na(i) = 0\n").unwrap_err();
        assert!(err.message.contains("unclosed"));
    }

    #[test]
    fn mismatched_end_is_an_error() {
        let err = parse_program("forall (i = 1:4)\na(i) = 0\nend do\nend\n").unwrap_err();
        assert!(err.message.contains("closes"));
    }

    #[test]
    fn distribute_direct_array_form() {
        let prog = parse_program("!hpf$ processors p(4)\n!hpf$ distribute a(block, *) on p\nend\n")
            .unwrap();
        let Directive::Distribute {
            target,
            specs,
            procs,
        } = &prog.directives[1]
        else {
            panic!()
        };
        assert_eq!(target, "a");
        assert_eq!(specs, &vec![DistSpec::Block, DistSpec::Star]);
        assert_eq!(procs, "p");
    }

    #[test]
    fn cyclic_with_block_size() {
        let prog = parse_program("!hpf$ distribute a(cyclic(4)) on p\nend\n").unwrap();
        let Directive::Distribute { specs, .. } = &prog.directives[0] else {
            panic!()
        };
        assert_eq!(specs[0], DistSpec::CyclicBlock(4));
    }

    #[test]
    fn statement_after_end_rejected() {
        let err = parse_program("end\nx = 1\n").unwrap_err();
        assert!(err.message.contains("after final"));
    }
}
