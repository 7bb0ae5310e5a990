//! Recursive-descent parser for OIL programs.
//!
//! The parser implements the core grammar of the paper's Figure 5 together
//! with the extensions used by the paper's own listings (Figures 2, 4, 6, 9
//! and 11): anonymous top-level `mod par { .. }` blocks, multiple FIFO names
//! per declaration, array variable declarations and slices, frequency units
//! (`Hz`, `kHz`, `MHz`, `GHz`, `S/s` spellings) and the `...` placeholder
//! condition.
//!
//! Number literals stay exact: a rate or latency amount is the literal's
//! decimal scaled by its unit's power of ten, converted once to the
//! rational the analyses use, or refused with a spanned diagnostic.

use crate::ast::*;
use crate::lexer::tokenize;
use crate::span::{Diagnostic, Span};
use crate::token::{Decimal, Token, TokenKind};
use oil_dataflow::Rational;

/// How deeply expressions and statements may nest. The parser, every pass
/// over the tree and the tree's `Drop` recurse once per level, so deeper
/// input is refused with a diagnostic instead of exhausting the stack.
pub const MAX_NESTING: usize = 128;

/// A recursive-descent / Pratt parser over a token stream.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

/// Parse an OIL program from source text.
pub fn parse_program(source: &str) -> Result<Program, Diagnostic> {
    Parser::new(source)?.parse()
}

impl Parser {
    /// Create a parser for `source`, running the lexer eagerly.
    pub fn new(source: &str) -> Result<Self, Diagnostic> {
        Ok(Parser {
            tokens: tokenize(source)?,
            pos: 0,
            depth: 0,
        })
    }

    /// Go one nesting level deeper, refusing to pass [`MAX_NESTING`], and
    /// return the depth to restore when the nested construct ends.
    fn enter(&mut self) -> Result<usize, Diagnostic> {
        if self.depth == MAX_NESTING {
            return Err(Diagnostic::error(
                format!("nesting deeper than {MAX_NESTING} levels"),
                self.peek().span,
            ));
        }
        self.depth += 1;
        Ok(self.depth - 1)
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn check(&self, kind: &TokenKind) -> bool {
        self.peek_kind() == kind
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.check(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<Token, Diagnostic> {
        if self.check(&kind) {
            Ok(self.bump())
        } else {
            Err(Diagnostic::error(
                format!("expected {kind}, found {}", self.peek_kind()),
                self.peek().span,
            ))
        }
    }

    fn expect_ident(&mut self) -> Result<Ident, Diagnostic> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let t = self.bump();
                Ok(Ident::new(name, t.span))
            }
            other => Err(Diagnostic::error(
                format!("expected identifier, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn expect_int(&mut self) -> Result<(i64, Span), Diagnostic> {
        match *self.peek_kind() {
            TokenKind::Int(n) => {
                let t = self.bump();
                Ok((n, t.span))
            }
            ref other => Err(Diagnostic::error(
                format!("expected integer, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn expect_number(&mut self) -> Result<(Decimal, Span), Diagnostic> {
        match *self.peek_kind() {
            TokenKind::Int(n) => {
                let t = self.bump();
                Ok((Decimal::new(u128::from(n.unsigned_abs()), 0), t.span))
            }
            TokenKind::Decimal(x) => {
                let t = self.bump();
                Ok((x, t.span))
            }
            ref other => Err(Diagnostic::error(
                format!("expected number, found {other}"),
                self.peek().span,
            )),
        }
    }

    /// Parse a full program: a sequence of module definitions.
    pub fn parse(&mut self) -> Result<Program, Diagnostic> {
        let mut modules = Vec::new();
        while !self.check(&TokenKind::Eof) {
            modules.push(self.parse_module()?);
        }
        if modules.is_empty() {
            return Err(Diagnostic::error(
                "a program must contain at least one module",
                Span::synthetic(),
            ));
        }
        Ok(Program { modules })
    }

    fn parse_module(&mut self) -> Result<Module, Diagnostic> {
        let start = self.expect(TokenKind::Mod)?.span;
        let kind = if self.eat(&TokenKind::Par) {
            ModuleKind::Par
        } else if self.eat(&TokenKind::Seq) {
            ModuleKind::Seq
        } else {
            return Err(Diagnostic::error(
                format!(
                    "expected `par` or `seq` after `mod`, found {}",
                    self.peek_kind()
                ),
                self.peek().span,
            ));
        };

        // Name and parameter list are optional: the top module may be an
        // anonymous `mod par { .. }` block (Fig. 11 of the paper).
        let name = if let TokenKind::Ident(_) = self.peek_kind() {
            Some(self.expect_ident()?)
        } else {
            None
        };
        let mut params = Vec::new();
        if self.eat(&TokenKind::LParen) {
            if !self.check(&TokenKind::RParen) {
                loop {
                    let out = self.eat(&TokenKind::Out);
                    let ty = self.expect_ident()?;
                    let pname = self.expect_ident()?;
                    params.push(StreamParam {
                        out,
                        ty,
                        name: pname,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(TokenKind::RParen)?;
        }

        self.expect(TokenKind::LBrace)?;
        let body = match kind {
            ModuleKind::Par => ModuleBody::Par(self.parse_par_body()?),
            ModuleKind::Seq => ModuleBody::Seq(self.parse_seq_body()?),
        };
        let end = self.expect(TokenKind::RBrace)?.span;

        Ok(Module {
            name,
            kind,
            params,
            body,
            span: start.merge(end),
        })
    }

    // ---- parallel bodies -------------------------------------------------

    fn parse_par_body(&mut self) -> Result<ParBody, Diagnostic> {
        let mut buffers = Vec::new();
        let mut latencies = Vec::new();
        let mut calls = Vec::new();

        loop {
            match self.peek_kind() {
                TokenKind::Fifo => buffers.push(self.parse_fifo_decl()?),
                TokenKind::Source => buffers.push(self.parse_source_sink(true)?),
                TokenKind::Sink => buffers.push(self.parse_source_sink(false)?),
                TokenKind::Start => latencies.push(self.parse_latency()?),
                TokenKind::Ident(_) => {
                    // Parallel composition of module instantiations.
                    calls.push(self.parse_module_call()?);
                    while self.eat(&TokenKind::ParallelBar) {
                        calls.push(self.parse_module_call()?);
                    }
                    // Optional trailing semicolon after the composition.
                    self.eat(&TokenKind::Semicolon);
                }
                TokenKind::RBrace => break,
                other => {
                    return Err(Diagnostic::error(
                        format!(
                            "expected a buffer declaration, latency constraint or module \
                             instantiation in parallel module body, found {other}"
                        ),
                        self.peek().span,
                    ))
                }
            }
        }

        Ok(ParBody {
            buffers,
            latencies,
            calls,
        })
    }

    fn parse_fifo_decl(&mut self) -> Result<BufferDecl, Diagnostic> {
        let start = self.expect(TokenKind::Fifo)?.span;
        let ty = self.expect_ident()?;
        let mut names = vec![self.expect_ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.expect_ident()?);
        }
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(BufferDecl::Fifo {
            ty,
            names,
            span: start.merge(end),
        })
    }

    fn parse_source_sink(&mut self, is_source: bool) -> Result<BufferDecl, Diagnostic> {
        let start = self.bump().span; // `source` or `sink`
        let ty = self.expect_ident()?;
        let name = self.expect_ident()?;
        self.expect(TokenKind::Assign)?;
        let func = self.expect_ident()?;
        self.expect(TokenKind::LParen)?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::At)?;
        let rate = self.parse_frequency()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        let span = start.merge(end);
        Ok(if is_source {
            BufferDecl::Source {
                ty,
                name,
                func,
                rate,
                span,
            }
        } else {
            BufferDecl::Sink {
                ty,
                name,
                func,
                rate,
                span,
            }
        })
    }

    /// `value · 10^shift` in `unit`, as the exact rational the analyses
    /// use, or a diagnostic at the literal when no `i128` fraction holds it.
    fn exact(value: Decimal, shift: i64, unit: &str, span: Span) -> Result<Rational, Diagnostic> {
        value.to_rational(shift).ok_or_else(|| {
            let scaled = Decimal::new(value.mantissa, value.exponent.saturating_add(shift));
            Diagnostic::error(
                format!("{scaled} {unit} has no exact rational representation"),
                span,
            )
        })
    }

    fn parse_frequency(&mut self) -> Result<Frequency, Diagnostic> {
        let (value, span) = self.expect_number()?;
        // Optional unit identifier: Hz, kHz, MHz, GHz; also accept the
        // sample-rate spellings used informally in the paper (`MS/s`, `kS/s`).
        let mut shift = 0;
        if let TokenKind::Ident(unit) = self.peek_kind() {
            let unit_shift = match unit.as_str() {
                "Hz" | "hz" | "S" => Some(0),
                "kHz" | "KHz" | "khz" | "kS" => Some(3),
                "MHz" | "mhz" | "MS" => Some(6),
                "GHz" | "ghz" | "GS" => Some(9),
                _ => None,
            };
            if let Some(unit_shift) = unit_shift {
                shift = unit_shift;
                self.bump();
                // Swallow a `/ s` suffix for sample-rate spellings.
                if self.check(&TokenKind::Slash) {
                    self.bump();
                    if matches!(self.peek_kind(), TokenKind::Ident(s) if s == "s") {
                        self.bump();
                    }
                }
            }
        }
        let hz = Self::exact(value, shift, "Hz", span)?;
        if !hz.is_positive() {
            return Err(Diagnostic::error("frequency must be positive", span));
        }
        Ok(Frequency::from_hz(hz))
    }

    fn parse_latency(&mut self) -> Result<LatencyConstraint, Diagnostic> {
        let start = self.expect(TokenKind::Start)?.span;
        let subject = self.expect_ident()?;
        let (amount, span) = self.expect_number()?;
        // Optional time unit, defaulting to milliseconds as in the grammar.
        let mut shift = -3;
        if let TokenKind::Ident(unit) = self.peek_kind() {
            let unit_shift = match unit.as_str() {
                "ms" => Some(-3),
                "us" => Some(-6),
                "ns" => Some(-9),
                "s" => Some(0),
                _ => None,
            };
            if let Some(unit_shift) = unit_shift {
                shift = unit_shift;
                self.bump();
            }
        }
        let amount_s = Self::exact(amount, shift, "s", span)?;
        let relation = if self.eat(&TokenKind::After) {
            LatencyRelation::After
        } else if self.eat(&TokenKind::Before) {
            LatencyRelation::Before
        } else {
            return Err(Diagnostic::error(
                format!("expected `after` or `before`, found {}", self.peek_kind()),
                self.peek().span,
            ));
        };
        let reference = self.expect_ident()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(LatencyConstraint {
            subject,
            amount_s,
            relation,
            reference,
            span: start.merge(end),
        })
    }

    fn parse_module_call(&mut self) -> Result<ModuleCall, Diagnostic> {
        let module = self.expect_ident()?;
        let start = module.span;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                let out = self.eat(&TokenKind::Out);
                let name = self.expect_ident()?;
                args.push(CallArg { out, name });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        let end = self.expect(TokenKind::RParen)?.span;
        Ok(ModuleCall {
            module,
            args,
            span: start.merge(end),
        })
    }

    // ---- sequential bodies -----------------------------------------------

    fn parse_seq_body(&mut self) -> Result<SeqBody, Diagnostic> {
        let mut vars = Vec::new();
        let mut stmts = Vec::new();

        loop {
            match self.peek_kind() {
                TokenKind::RBrace => break,
                TokenKind::Ident(_) if matches!(self.peek_ahead(1), TokenKind::Ident(_)) => {
                    // `T x;` or `T x[6], y[6];` — a variable declaration.
                    vars.extend(self.parse_var_decl()?);
                }
                _ => stmts.push(self.parse_stmt()?),
            }
        }

        Ok(SeqBody { vars, stmts })
    }

    fn parse_var_decl(&mut self) -> Result<Vec<VarDecl>, Diagnostic> {
        let ty = self.expect_ident()?;
        let mut decls = Vec::new();
        loop {
            let name = self.expect_ident()?;
            let mut array_len = None;
            let mut span = ty.span.merge(name.span);
            if self.eat(&TokenKind::LBracket) {
                let (n, nspan) = self.expect_int()?;
                if n <= 0 {
                    return Err(Diagnostic::error("array length must be positive", nspan));
                }
                array_len = Some(n as u64);
                span = span.merge(self.expect(TokenKind::RBracket)?.span);
            }
            decls.push(VarDecl {
                ty: ty.clone(),
                name,
                array_len,
                span,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(TokenKind::Semicolon)?;
        Ok(decls)
    }

    fn parse_block(&mut self) -> Result<Vec<Stmt>, Diagnostic> {
        self.expect(TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.check(&TokenKind::RBrace) {
            stmts.push(self.parse_stmt()?);
        }
        self.expect(TokenKind::RBrace)?;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let depth = self.enter()?;
        let stmt = self.stmt();
        self.depth = depth;
        stmt
    }

    fn stmt(&mut self) -> Result<Stmt, Diagnostic> {
        match self.peek_kind().clone() {
            TokenKind::If => self.parse_if(),
            TokenKind::Switch => self.parse_switch(),
            TokenKind::Loop => self.parse_loop(),
            TokenKind::Ident(_) => {
                // Either an assignment `x = e;` / `x:2 = e;` or a call `F(..);`
                if matches!(self.peek_ahead(1), TokenKind::LParen) {
                    self.parse_call_stmt()
                } else {
                    self.parse_assign()
                }
            }
            other => Err(Diagnostic::error(
                format!("expected a statement, found {other}"),
                self.peek().span,
            )),
        }
    }

    fn parse_if(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::If)?.span;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let then_branch = self.parse_block()?;
        let mut else_branch = Vec::new();
        let mut end = self.tokens[self.pos - 1].span;
        if self.eat(&TokenKind::Else) {
            if self.check(&TokenKind::If) {
                // `else if` sugar: wrap the nested if in a single-statement block.
                let nested = self.parse_stmt()?;
                end = nested.span();
                else_branch.push(nested);
            } else {
                else_branch = self.parse_block()?;
                end = self.tokens[self.pos - 1].span;
            }
        }
        Ok(Stmt::If {
            cond,
            then_branch,
            else_branch,
            span: start.merge(end),
        })
    }

    fn parse_switch(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Switch)?.span;
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let mut cases = Vec::new();
        while self.check(&TokenKind::Case) {
            let cstart = self.bump().span;
            let (value, _) = self.expect_int()?;
            let body = self.parse_block()?;
            let cend = self.tokens[self.pos - 1].span;
            cases.push(Case {
                value,
                body,
                span: cstart.merge(cend),
            });
        }
        self.expect(TokenKind::Default)?;
        let default = self.parse_block()?;
        let end = self.tokens[self.pos - 1].span;
        Ok(Stmt::Switch {
            scrutinee,
            cases,
            default,
            span: start.merge(end),
        })
    }

    fn parse_loop(&mut self) -> Result<Stmt, Diagnostic> {
        let start = self.expect(TokenKind::Loop)?.span;
        let body = self.parse_block()?;
        self.expect(TokenKind::While)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        let end = self.expect(TokenKind::RParen)?.span;
        self.eat(&TokenKind::Semicolon);
        Ok(Stmt::LoopWhile {
            body,
            cond,
            span: start.merge(end),
        })
    }

    fn parse_call_stmt(&mut self) -> Result<Stmt, Diagnostic> {
        let func = self.expect_ident()?;
        let start = func.span;
        self.expect(TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.check(&TokenKind::RParen) {
            loop {
                if self.eat(&TokenKind::Out) {
                    args.push(Arg::Out(self.parse_access()?));
                } else {
                    args.push(Arg::In(self.parse_expr()?));
                }
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(TokenKind::RParen)?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(Stmt::Call {
            func,
            args,
            span: start.merge(end),
        })
    }

    fn parse_assign(&mut self) -> Result<Stmt, Diagnostic> {
        let target = self.parse_access()?;
        let start = target.name.span;
        self.expect(TokenKind::Assign)?;
        let value = self.parse_expr()?;
        let end = self.expect(TokenKind::Semicolon)?.span;
        Ok(Stmt::Assign {
            target,
            value,
            span: start.merge(end),
        })
    }

    fn parse_access(&mut self) -> Result<Access, Diagnostic> {
        let name = self.expect_ident()?;
        let mut access = Access::simple(name);
        if self.eat(&TokenKind::Colon) {
            let (n, nspan) = self.expect_int()?;
            if n <= 0 {
                return Err(Diagnostic::error("access rate must be positive", nspan));
            }
            access.rate = Some(n as u64);
        } else if self.eat(&TokenKind::LBracket) {
            let (lo, _) = self.expect_int()?;
            self.expect(TokenKind::Colon)?;
            let (hi, hspan) = self.expect_int()?;
            self.expect(TokenKind::RBracket)?;
            if lo < 0 || hi < lo {
                return Err(Diagnostic::error("invalid slice bounds", hspan));
            }
            access.slice = Some((lo as u64, hi as u64));
        }
        Ok(access)
    }

    // ---- expressions -----------------------------------------------------

    /// Parse an expression (public so tests and tools can parse fragments).
    pub fn parse_expr(&mut self) -> Result<Expr, Diagnostic> {
        self.parse_expr_bp(0)
    }

    fn parse_expr_bp(&mut self, min_bp: u8) -> Result<Expr, Diagnostic> {
        let depth = self.depth;
        let mut lhs = self.parse_primary()?;
        loop {
            let op = match self.peek_kind() {
                TokenKind::Star => BinOp::Mul,
                TokenKind::Slash => BinOp::Div,
                TokenKind::Plus => BinOp::Add,
                TokenKind::Minus => BinOp::Sub,
                TokenKind::Eq => BinOp::Eq,
                TokenKind::Ne => BinOp::Ne,
                TokenKind::Lt => BinOp::Lt,
                TokenKind::Le => BinOp::Le,
                TokenKind::Gt => BinOp::Gt,
                TokenKind::Ge => BinOp::Ge,
                TokenKind::AndAnd => BinOp::And,
                _ => break,
            };
            let bp = op.precedence();
            if bp < min_bp {
                break;
            }
            // Each operator folded into `lhs` deepens the tree by a level.
            self.enter()?;
            self.bump();
            let rhs = self.parse_expr_bp(bp + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                span,
            };
        }
        self.depth = depth;
        Ok(lhs)
    }

    fn parse_primary(&mut self) -> Result<Expr, Diagnostic> {
        let depth = self.enter()?;
        let primary = self.primary();
        self.depth = depth;
        primary
    }

    fn primary(&mut self) -> Result<Expr, Diagnostic> {
        match self.peek_kind().clone() {
            TokenKind::Int(n) => {
                let t = self.bump();
                Ok(Expr::Int(n, t.span))
            }
            TokenKind::Decimal(x) => {
                let t = self.bump();
                Ok(Expr::Float(x.to_f64(), t.span))
            }
            TokenKind::Ellipsis => {
                let t = self.bump();
                Ok(Expr::Opaque(t.span))
            }
            TokenKind::Minus => {
                let t = self.bump();
                let inner = self.parse_primary()?;
                let span = t.span.merge(inner.span());
                Ok(Expr::Binary {
                    op: BinOp::Sub,
                    lhs: Box::new(Expr::Int(0, t.span)),
                    rhs: Box::new(inner),
                    span,
                })
            }
            TokenKind::Not => {
                let t = self.bump();
                let inner = self.parse_primary()?;
                let span = t.span.merge(inner.span());
                Ok(Expr::Not(Box::new(inner), span))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(_) => {
                if matches!(self.peek_ahead(1), TokenKind::LParen) {
                    let func = self.expect_ident()?;
                    let start = func.span;
                    self.expect(TokenKind::LParen)?;
                    let mut args = Vec::new();
                    if !self.check(&TokenKind::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect(TokenKind::RParen)?.span;
                    Ok(Expr::Call {
                        func,
                        args,
                        span: start.merge(end),
                    })
                } else {
                    let access = self.parse_access()?;
                    let span = access.name.span;
                    Ok(Expr::Var(access, span))
                }
            }
            other => Err(Diagnostic::error(
                format!("expected an expression, found {other}"),
                self.peek().span,
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2C: &str = r#"
        mod seq A(out int a, int b){
            loop{ f(out a:3, b:3); } while(1);
        }
        mod seq B(out int c, int d){
            init(out c:4);
            loop{ g(out c:2, d:2); } while(1);
        }
        mod par C(){
            fifo int x, y;
            A(out x, y) || B(out y, x)
        }
    "#;

    #[test]
    fn parse_fig2c_rate_conversion() {
        let p = parse_program(FIG2C).unwrap();
        assert_eq!(p.modules.len(), 3);
        let a = p.module("A").unwrap();
        assert_eq!(a.kind, ModuleKind::Seq);
        assert_eq!(a.params.len(), 2);
        assert!(a.params[0].out);
        assert!(!a.params[1].out);
        let c = p.module("C").unwrap();
        assert_eq!(c.kind, ModuleKind::Par);
        match &c.body {
            ModuleBody::Par(b) => {
                assert_eq!(b.calls.len(), 2);
                assert_eq!(b.buffers.len(), 1);
                match &b.buffers[0] {
                    BufferDecl::Fifo { names, .. } => assert_eq!(names.len(), 2),
                    _ => panic!("expected fifo"),
                }
            }
            _ => panic!("expected parallel body"),
        }
        assert_eq!(p.top_module().unwrap().display_name(), "C");
    }

    #[test]
    fn parse_fig2b_sequential_schedule() {
        let src = r#"
            mod seq Sched(){
                int x[6], y[6];
                init(out y[0:3]);
                loop{
                    f(out x[0:2], y[0:2]);
                    g(out y[4:5], x[0:1]);
                    f(out x[3:5], y[3:5]);
                    g(out y[0:1], x[2:3]);
                    g(out y[2:3], x[4:5]);
                } while(1);
            }
        "#;
        let p = parse_program(src).unwrap();
        let m = p.module("Sched").unwrap();
        match &m.body {
            ModuleBody::Seq(b) => {
                assert_eq!(b.vars.len(), 2);
                assert_eq!(b.vars[0].array_len, Some(6));
                assert_eq!(b.stmts.len(), 2);
                match &b.stmts[1] {
                    Stmt::LoopWhile { body, cond, .. } => {
                        assert_eq!(body.len(), 5);
                        assert!(cond.is_always_true());
                    }
                    _ => panic!("expected loop"),
                }
            }
            _ => panic!("expected sequential body"),
        }
    }

    #[test]
    fn parse_fig4a_modal_module() {
        let src = r#"
            mod seq M(out int x){
                if(...){ y = g(); }
                else { y = h(); }
                k(y, out x:2);
            }
        "#;
        let p = parse_program(src).unwrap();
        let m = p.module("M").unwrap();
        match &m.body {
            ModuleBody::Seq(b) => {
                assert_eq!(b.stmts.len(), 2);
                match &b.stmts[0] {
                    Stmt::If {
                        cond,
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        assert!(matches!(cond, Expr::Opaque(_)));
                        assert_eq!(then_branch.len(), 1);
                        assert_eq!(else_branch.len(), 1);
                    }
                    _ => panic!("expected if"),
                }
                match &b.stmts[1] {
                    Stmt::Call { func, args, .. } => {
                        assert_eq!(func.name, "k");
                        assert_eq!(args.len(), 2);
                        assert!(args[1].is_out());
                        match &args[1] {
                            Arg::Out(a) => assert_eq!(a.rate, Some(2)),
                            _ => unreachable!(),
                        }
                    }
                    _ => panic!("expected call"),
                }
            }
            _ => panic!("expected sequential body"),
        }
    }

    #[test]
    fn parse_fig6_source_sink_latency() {
        let src = r#"
            mod par A(int a, out int b){
                fifo int z;
                B(a, out z) || C(a, z, out b)
            }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                start x 5 ms before y;
                A(x, out y)
            }
        "#;
        let p = parse_program(src).unwrap();
        let d = p.module("D").unwrap();
        match &d.body {
            ModuleBody::Par(b) => {
                assert_eq!(b.buffers.len(), 2);
                assert_eq!(b.latencies.len(), 1);
                assert_eq!(b.latencies[0].amount_s, Rational::new(5, 1000));
                assert_eq!(b.latencies[0].relation, LatencyRelation::Before);
                match &b.buffers[0] {
                    BufferDecl::Source { rate, func, .. } => {
                        assert_eq!(rate.hz, Rational::from_int(1000));
                        assert_eq!(func.name, "src");
                    }
                    _ => panic!("expected source"),
                }
                assert_eq!(b.calls.len(), 1);
                assert_eq!(b.calls[0].args.len(), 2);
                assert!(b.calls[0].args[1].out);
            }
            _ => panic!("expected parallel body"),
        }
    }

    #[test]
    fn parse_fig9a_two_while_loops() {
        let src = r#"
            mod seq A(int x){
                loop{ y = f(x); } while(...);
                loop{ g(x, y); } while(...);
            }
        "#;
        let p = parse_program(src).unwrap();
        let m = p.module("A").unwrap();
        match &m.body {
            ModuleBody::Seq(b) => {
                assert_eq!(b.stmts.len(), 2);
                assert!(b.stmts.iter().all(|s| matches!(s, Stmt::LoopWhile { .. })));
            }
            _ => panic!("expected seq body"),
        }
    }

    #[test]
    fn parse_anonymous_top_module() {
        let src = r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par{
                fifo sample vid;
                source sample rf = receiveRF() @ 6.4 MHz;
                sink sample screen = display() @ 4 MHz;
                start screen 0 ms after speakers;
                W(rf, out vid)
            }
        "#;
        let p = parse_program(src).unwrap();
        let top = p.top_module().unwrap();
        assert!(top.name.is_none());
        assert_eq!(top.display_name(), "<top>");
        match &top.body {
            ModuleBody::Par(b) => {
                assert_eq!(b.buffers.len(), 3);
                match &b.buffers[1] {
                    BufferDecl::Source { rate, .. } => {
                        assert_eq!(rate.hz, Rational::from_int(6_400_000))
                    }
                    _ => panic!("expected source"),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn parse_switch_statement() {
        let src = r#"
            mod seq S(int a, out int b){
                switch(a) case 0 { f(a, out b); } case 1 { g(a, out b); } default { h(a, out b); }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.module("S").unwrap().body {
            ModuleBody::Seq(b) => match &b.stmts[0] {
                Stmt::Switch { cases, default, .. } => {
                    assert_eq!(cases.len(), 2);
                    assert_eq!(cases[0].value, 0);
                    assert_eq!(cases[1].value, 1);
                    assert_eq!(default.len(), 1);
                }
                _ => panic!("expected switch"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn parse_expression_precedence() {
        let mut p = Parser::new("a + b * c - d / 2").unwrap();
        let e = p.parse_expr().unwrap();
        // Expect ((a + (b*c)) - (d/2))
        match e {
            Expr::Binary {
                op: BinOp::Sub,
                lhs,
                rhs,
                ..
            } => {
                assert!(matches!(*lhs, Expr::Binary { op: BinOp::Add, .. }));
                assert!(matches!(*rhs, Expr::Binary { op: BinOp::Div, .. }));
            }
            _ => panic!("unexpected parse"),
        }
    }

    #[test]
    fn parse_else_if_chain() {
        let src = r#"
            mod seq M(int a, out int b){
                if(a == 0){ f(a, out b); } else if(a == 1){ g(a, out b); } else { h(a, out b); }
            }
        "#;
        let p = parse_program(src).unwrap();
        match &p.module("M").unwrap().body {
            ModuleBody::Seq(b) => match &b.stmts[0] {
                Stmt::If { else_branch, .. } => {
                    assert_eq!(else_branch.len(), 1);
                    assert!(matches!(else_branch[0], Stmt::If { .. }));
                }
                _ => panic!(),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn error_on_missing_semicolon() {
        let src = "mod seq A(out int a){ f(out a) }";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn error_on_control_in_par_body() {
        // Control statements are not allowed in the parallel specification;
        // they do not even parse there.
        let src = "mod par A(){ if(1){ } }";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn error_on_zero_rate_access() {
        let src = "mod seq A(out int a){ f(out a:0); }";
        assert!(parse_program(src).is_err());
    }

    #[test]
    fn latency_units_are_exact() {
        let parse = |amount: &str| {
            let src = format!(
                "mod par D(){{ source int x = s() @ 1 Hz; sink int y = t() @ 1 Hz; \
                 start x {amount} before y; A(x, out y) }}"
            );
            parse_program(&src).map(|p| match &p.module("D").unwrap().body {
                ModuleBody::Par(b) => b.latencies[0].amount_s,
                _ => panic!(),
            })
        };
        assert_eq!(parse("5").unwrap(), Rational::new(5, 1000));
        assert_eq!(parse("0.5 s").unwrap(), Rational::new(1, 2));
        assert_eq!(parse("10 us").unwrap(), Rational::new(1, 100_000));
        assert_eq!(parse("3 ns").unwrap(), Rational::new(3, 1_000_000_000));
        // 10^-35 ms is 10^-38 s, the smallest power of ten an i128
        // denominator holds; 10^-36 ms is refused at the literal, in the
        // unit the analyses use.
        let tiny = |k: usize| format!("0.{}1 ms", "0".repeat(k - 1));
        assert_eq!(parse(&tiny(35)).unwrap(), Rational::new(1, 10i128.pow(38)));
        let err = parse(&tiny(36)).unwrap_err();
        assert!(err.message.contains("exact rational"), "{}", err.message);
        assert_eq!(err.span.column, 74);
    }

    #[test]
    fn error_on_empty_program() {
        assert!(parse_program("").is_err());
    }

    #[test]
    fn error_on_bad_module_kind() {
        assert!(parse_program("mod foo A(){}").is_err());
    }

    #[test]
    fn frequency_units() {
        let int = Rational::from_int;
        for (text, hz) in [
            ("@ 1 Hz", int(1)),
            ("@ 2 kHz", int(2000)),
            ("@ 6.4 MHz", int(6_400_000)),
            ("@ 1 GHz", int(1_000_000_000)),
            ("@ 32000", int(32000)),
            ("@ 6.4 MS/s", int(6_400_000)),
            // Exact decimals, never rounded through a double.
            ("@ 4.1 MHz", int(4_100_000)),
            ("@ 4100 kHz", int(4_100_000)),
            (
                "@ 6.40000000000000000001 MHz",
                Rational::new(640_000_000_000_000_000_001, 100_000_000_000_000),
            ),
            (
                "@ 0.3333333333333333333333 MHz",
                Rational::new(3_333_333_333_333_333_333_333, 10_000_000_000_000_000),
            ),
        ] {
            let src = format!(
                "mod par D(){{ source int x = s() {text}; sink int y = t() @ 1 Hz; A(x, out y) }}"
            );
            let p = parse_program(&src).unwrap();
            match &p.module("D").unwrap().body {
                ModuleBody::Par(b) => match &b.buffers[0] {
                    BufferDecl::Source { rate, .. } => assert_eq!(rate.hz, hz, "for {text}"),
                    _ => panic!(),
                },
                _ => panic!(),
            }
        }
    }
}
