//! Abstract syntax tree for OIL programs.
//!
//! The node structure follows the core grammar of the paper's Figure 5:
//!
//! ```text
//! Program      P ::= M*
//! Modules      M ::= mod par A(R){ G L N } | mod seq A(R) { V S }
//! Buffers      G ::= fifo T x; | source T x = F() @ n Hz; | sink T x = F() @ n Hz;
//! Latency      L ::= start x n ms after y; | start x n ms before y;
//! Streams      R ::= out T r | T r
//! Module calls N ::= A(B) | N ‖ N
//! Statements   S ::= x = e; | F(A); | if(e){S}else{S} | if(e){S} |
//!                    switch(e) C default {S} | loop {S} while(e)
//! Arguments    A ::= e | out x | out r | out r:n
//! ```

use crate::span::Span;
use std::fmt;

/// An identifier with its source location.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// The identifier text.
    pub name: String,
    /// Where it appears in the source.
    pub span: Span,
}

impl Ident {
    /// Construct an identifier.
    pub fn new(name: impl Into<String>, span: Span) -> Self {
        Ident {
            name: name.into(),
            span,
        }
    }

    /// Construct an identifier without a source location (for synthesised
    /// nodes, e.g. programs built programmatically in tests and benches).
    pub fn synthetic(name: impl Into<String>) -> Self {
        Ident {
            name: name.into(),
            span: Span::synthetic(),
        }
    }
}

impl fmt::Display for Ident {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A complete OIL program: a list of module definitions. The concurrent
/// structure of the application is rooted in the *top module*: either the
/// single anonymous `mod par { .. }` block or, if absent, the last defined
/// module.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// All module definitions in source order.
    pub modules: Vec<Module>,
}

impl Program {
    /// Find a module definition by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules
            .iter()
            .find(|m| m.name.as_ref().map(|n| n.name.as_str()) == Some(name))
    }

    /// The top module of the program: the anonymous `mod par { .. }` block if
    /// one exists, otherwise the last module in the file.
    pub fn top_module(&self) -> Option<&Module> {
        self.modules
            .iter()
            .find(|m| m.name.is_none())
            .or_else(|| self.modules.last())
    }
}

/// Whether a module contains a parallel or a sequential specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModuleKind {
    /// `mod par`: instantiates other modules which execute concurrently.
    Par,
    /// `mod seq`: a sequential specification which is automatically
    /// parallelised by the compiler.
    Seq,
}

impl fmt::Display for ModuleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModuleKind::Par => write!(f, "mod par"),
            ModuleKind::Seq => write!(f, "mod seq"),
        }
    }
}

/// A module definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// Name, or `None` for the anonymous top-level `mod par { .. }` block.
    pub name: Option<Ident>,
    /// Parallel or sequential.
    pub kind: ModuleKind,
    /// Stream parameters (FIFOs passed by the instantiating module).
    pub params: Vec<StreamParam>,
    /// The module body.
    pub body: ModuleBody,
    /// Source location of the whole definition.
    pub span: Span,
}

impl Module {
    /// The module's name, or `"<top>"` for the anonymous top module.
    pub fn display_name(&self) -> &str {
        self.name
            .as_ref()
            .map(|n| n.name.as_str())
            .unwrap_or("<top>")
    }

    /// Input stream parameters (those without `out`).
    pub fn input_params(&self) -> impl Iterator<Item = &StreamParam> {
        self.params.iter().filter(|p| !p.out)
    }

    /// Output stream parameters (those with `out`).
    pub fn output_params(&self) -> impl Iterator<Item = &StreamParam> {
        self.params.iter().filter(|p| p.out)
    }
}

/// A stream parameter of a module: `out T r` or `T r`.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamParam {
    /// True if this is an output stream of the module.
    pub out: bool,
    /// Type name (opaque to OIL; checked by the host C/C++ compiler).
    pub ty: Ident,
    /// Stream name.
    pub name: Ident,
}

/// The body of a module.
#[derive(Debug, Clone, PartialEq)]
pub enum ModuleBody {
    /// A parallel body: buffer declarations, latency constraints and a
    /// parallel composition of module instantiations.
    Par(ParBody),
    /// A sequential body: local variable declarations and statements.
    Seq(SeqBody),
}

/// The body of a `mod par` module.
#[derive(Debug, Clone, PartialEq)]
pub struct ParBody {
    /// FIFO, source and sink declarations.
    pub buffers: Vec<BufferDecl>,
    /// `start .. after/before ..` latency constraints.
    pub latencies: Vec<LatencyConstraint>,
    /// Module instantiations composed with `‖`.
    pub calls: Vec<ModuleCall>,
}

/// A buffer declaration in a parallel module body.
#[derive(Debug, Clone, PartialEq)]
pub enum BufferDecl {
    /// `fifo T x, y, ..;`
    Fifo {
        /// Element type.
        ty: Ident,
        /// Declared FIFO names.
        names: Vec<Ident>,
        /// Source location.
        span: Span,
    },
    /// `source T x = F() @ n Hz;` — a time-triggered source sampling the
    /// environment at a fixed rate.
    Source {
        /// Element type.
        ty: Ident,
        /// Stream name the source writes to.
        name: Ident,
        /// Function implementing the low-level communication.
        func: Ident,
        /// Sampling frequency.
        rate: Frequency,
        /// Source location.
        span: Span,
    },
    /// `sink T x = F() @ n Hz;` — a time-triggered sink consuming from the
    /// program at a fixed rate.
    Sink {
        /// Element type.
        ty: Ident,
        /// Stream name the sink reads from.
        name: Ident,
        /// Function implementing the low-level communication.
        func: Ident,
        /// Consumption frequency.
        rate: Frequency,
        /// Source location.
        span: Span,
    },
}

impl BufferDecl {
    /// Source location of the declaration.
    pub fn span(&self) -> Span {
        match self {
            BufferDecl::Fifo { span, .. }
            | BufferDecl::Source { span, .. }
            | BufferDecl::Sink { span, .. } => *span,
        }
    }
}

/// A frequency such as `1 kHz` or `6.4 MHz`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frequency {
    /// The frequency in Hertz.
    pub hz: f64,
}

impl Frequency {
    /// Construct a frequency from a value in Hertz.
    pub fn from_hz(hz: f64) -> Self {
        Frequency { hz }
    }

    /// The period in seconds.
    pub fn period_seconds(&self) -> f64 {
        1.0 / self.hz
    }

    /// The period in integer picoseconds (rounded), the time base used by the
    /// simulator.
    pub fn period_picos(&self) -> u64 {
        (1e12 / self.hz).round() as u64
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.hz >= 1e6 {
            write!(f, "{} MHz", self.hz / 1e6)
        } else if self.hz >= 1e3 {
            write!(f, "{} kHz", self.hz / 1e3)
        } else {
            write!(f, "{} Hz", self.hz)
        }
    }
}

/// Direction of a latency constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LatencyRelation {
    /// `start x n ms after y`: x must start at least/defined n ms after y.
    After,
    /// `start x n ms before y`: x must start within n ms before y.
    Before,
}

/// A latency constraint between two sources/sinks:
/// `start x n ms after y;` or `start x n ms before y;`.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConstraint {
    /// The source/sink being constrained.
    pub subject: Ident,
    /// The amount of time, in milliseconds.
    pub amount_ms: f64,
    /// Whether the subject starts after or before the reference.
    pub relation: LatencyRelation,
    /// The source/sink the constraint is relative to.
    pub reference: Ident,
    /// Source location.
    pub span: Span,
}

/// A module instantiation `A(out x, y)` inside a parallel composition.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleCall {
    /// Name of the instantiated module.
    pub module: Ident,
    /// Stream arguments.
    pub args: Vec<CallArg>,
    /// Source location.
    pub span: Span,
}

/// A stream argument of a module instantiation: `out r` or `r`.
#[derive(Debug, Clone, PartialEq)]
pub struct CallArg {
    /// True if the instantiated module writes this stream.
    pub out: bool,
    /// The FIFO / source / sink / parameter stream passed.
    pub name: Ident,
}

/// The body of a `mod seq` module.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqBody {
    /// Local variable declarations `T x;` (and array declarations `T x[n];`).
    pub vars: Vec<VarDecl>,
    /// Statements in program order.
    pub stmts: Vec<Stmt>,
}

/// A local variable declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct VarDecl {
    /// Type name.
    pub ty: Ident,
    /// Variable name.
    pub name: Ident,
    /// Array length if declared as `T x[n];`.
    pub array_len: Option<u64>,
    /// Source location.
    pub span: Span,
}

/// A statement in a sequential module body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `x = e;`
    Assign {
        /// The assigned variable or output stream access.
        target: Access,
        /// Right-hand side expression.
        value: Expr,
        /// Source location.
        span: Span,
    },
    /// `F(a, out b, ..);`
    Call {
        /// The coordinated (C/C++-style) function.
        func: Ident,
        /// Arguments.
        args: Vec<Arg>,
        /// Source location.
        span: Span,
    },
    /// `if (e) { .. } else { .. }` — the else branch is optional.
    If {
        /// Condition.
        cond: Expr,
        /// Statements executed when the condition holds.
        then_branch: Vec<Stmt>,
        /// Statements executed otherwise (empty when no `else` was written).
        else_branch: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `switch (e) case n { .. } .. default { .. }`
    Switch {
        /// The value switched on.
        scrutinee: Expr,
        /// `case n { .. }` arms.
        cases: Vec<Case>,
        /// The `default { .. }` arm.
        default: Vec<Stmt>,
        /// Source location.
        span: Span,
    },
    /// `loop { .. } while (e);` — executes the body at least once and repeats
    /// while the condition holds. `while(1)` denotes an infinite stream loop.
    LoopWhile {
        /// Loop body.
        body: Vec<Stmt>,
        /// Continuation condition (evaluated after each iteration).
        cond: Expr,
        /// Source location.
        span: Span,
    },
}

impl Stmt {
    /// Source location of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Assign { span, .. }
            | Stmt::Call { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Switch { span, .. }
            | Stmt::LoopWhile { span, .. } => *span,
        }
    }

    /// True if this statement (or any nested statement) contains a loop.
    pub fn contains_loop(&self) -> bool {
        match self {
            Stmt::LoopWhile { .. } => true,
            Stmt::Assign { .. } | Stmt::Call { .. } => false,
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => {
                then_branch.iter().any(Stmt::contains_loop)
                    || else_branch.iter().any(Stmt::contains_loop)
            }
            Stmt::Switch { cases, default, .. } => {
                cases.iter().any(|c| c.body.iter().any(Stmt::contains_loop))
                    || default.iter().any(Stmt::contains_loop)
            }
        }
    }
}

/// A `case n { .. }` arm of a switch statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// The matched (non-negative) value.
    pub value: i64,
    /// The arm body.
    pub body: Vec<Stmt>,
    /// Source location.
    pub span: Span,
}

/// A variable or stream access, possibly with the colon multi-rate notation
/// `r:n` (read/write `n` values per loop iteration) or the array-slice
/// notation `x[a:b]` used by the paper's sequential examples.
#[derive(Debug, Clone, PartialEq)]
pub struct Access {
    /// The accessed variable or stream.
    pub name: Ident,
    /// Number of values accessed per iteration (`r:n`); `None` means one.
    pub rate: Option<u64>,
    /// Array slice bounds (`x[a:b]`, inclusive) if written with brackets.
    pub slice: Option<(u64, u64)>,
}

impl Access {
    /// Plain access to a single value.
    pub fn simple(name: Ident) -> Self {
        Access {
            name,
            rate: None,
            slice: None,
        }
    }

    /// Number of values transferred per access: `n` for `r:n`, the slice
    /// length for `x[a:b]`, otherwise one.
    pub fn count(&self) -> u64 {
        if let Some(n) = self.rate {
            n
        } else if let Some((lo, hi)) = self.slice {
            hi.saturating_sub(lo) + 1
        } else {
            1
        }
    }
}

/// An argument of a coordinated function call.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// An input argument: an arbitrary expression.
    In(Expr),
    /// An output argument: `out x`, `out r` or `out r:n`.
    Out(Access),
}

impl Arg {
    /// True for `out` arguments.
    pub fn is_out(&self) -> bool {
        matches!(self, Arg::Out(_))
    }
}

/// Binary operators of the expression grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `*`
    Mul,
    /// `/` (written `\` in the paper's grammar)
    Div,
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&`
    And,
}

impl BinOp {
    /// Binding power used by the Pratt parser (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinOp::Mul | BinOp::Div => 5,
            BinOp::Add | BinOp::Sub => 4,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 3,
            BinOp::Eq | BinOp::Ne => 2,
            BinOp::And => 1,
        }
    }

    /// The operator's source form.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
        }
    }
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// An integer literal.
    Int(i64, Span),
    /// A floating point literal.
    Float(f64, Span),
    /// A variable or stream read, possibly multi-rate (`r:n`) or sliced.
    Var(Access, Span),
    /// A call of a coordinated function used as a value, e.g. `y = g();`.
    Call {
        /// The function name.
        func: Ident,
        /// Input argument expressions.
        args: Vec<Expr>,
        /// Source location.
        span: Span,
    },
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
        /// Source location.
        span: Span,
    },
    /// Logical negation `!e`.
    Not(Box<Expr>, Span),
    /// The `...` placeholder the paper uses for an unspecified data-dependent
    /// condition. Semantically an opaque boolean read from module state.
    Opaque(Span),
}

impl Expr {
    /// Source location of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::Int(_, s)
            | Expr::Float(_, s)
            | Expr::Var(_, s)
            | Expr::Not(_, s)
            | Expr::Opaque(s) => *s,
            Expr::Call { span, .. } | Expr::Binary { span, .. } => *span,
        }
    }

    /// True for the literal `1`, conventionally used as the always-true
    /// condition of an infinite stream loop (`loop { .. } while(1);`).
    pub fn is_always_true(&self) -> bool {
        matches!(self, Expr::Int(n, _) if *n != 0)
    }

    /// Collect every variable/stream read performed by this expression.
    pub fn reads(&self, out: &mut Vec<Access>) {
        match self {
            Expr::Int(..) | Expr::Float(..) | Expr::Opaque(..) => {}
            Expr::Var(a, _) => out.push(a.clone()),
            Expr::Call { args, .. } => {
                for a in args {
                    a.reads(out);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.reads(out);
                rhs.reads(out);
            }
            Expr::Not(e, _) => e.reads(out),
        }
    }

    /// Collect every coordinated function invoked by this expression.
    pub fn called_functions(&self, out: &mut Vec<Ident>) {
        match self {
            Expr::Call { func, args, .. } => {
                out.push(func.clone());
                for a in args {
                    a.called_functions(out);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                lhs.called_functions(out);
                rhs.called_functions(out);
            }
            Expr::Not(e, _) => e.called_functions(out),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(s: &str) -> Ident {
        Ident::synthetic(s)
    }

    #[test]
    fn access_count() {
        assert_eq!(Access::simple(ident("x")).count(), 1);
        assert_eq!(
            Access {
                name: ident("x"),
                rate: Some(3),
                slice: None
            }
            .count(),
            3
        );
        assert_eq!(
            Access {
                name: ident("x"),
                rate: None,
                slice: Some((0, 2))
            }
            .count(),
            3
        );
        assert_eq!(
            Access {
                name: ident("x"),
                rate: None,
                slice: Some((4, 5))
            }
            .count(),
            2
        );
    }

    #[test]
    fn frequency_periods() {
        let f = Frequency::from_hz(6.4e6);
        assert_eq!(f.period_picos(), 156_250);
        let f2 = Frequency::from_hz(32_000.0);
        assert_eq!(f2.period_picos(), 31_250_000);
        assert!((f.period_seconds() - 1.5625e-7).abs() < 1e-18);
        assert_eq!(f.to_string(), "6.4 MHz");
        assert_eq!(Frequency::from_hz(32e3).to_string(), "32 kHz");
        assert_eq!(Frequency::from_hz(50.0).to_string(), "50 Hz");
    }

    #[test]
    fn expr_reads_and_calls() {
        let e = Expr::Binary {
            op: BinOp::Add,
            lhs: Box::new(Expr::Var(Access::simple(ident("a")), Span::synthetic())),
            rhs: Box::new(Expr::Call {
                func: ident("f"),
                args: vec![Expr::Var(Access::simple(ident("b")), Span::synthetic())],
                span: Span::synthetic(),
            }),
            span: Span::synthetic(),
        };
        let mut reads = Vec::new();
        e.reads(&mut reads);
        assert_eq!(reads.len(), 2);
        let mut calls = Vec::new();
        e.called_functions(&mut calls);
        assert_eq!(calls, vec![ident("f")]);
    }

    #[test]
    fn binop_precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
    }

    #[test]
    fn stmt_contains_loop() {
        let inner_loop = Stmt::LoopWhile {
            body: vec![],
            cond: Expr::Int(1, Span::synthetic()),
            span: Span::synthetic(),
        };
        let s = Stmt::If {
            cond: Expr::Opaque(Span::synthetic()),
            then_branch: vec![inner_loop],
            else_branch: vec![],
            span: Span::synthetic(),
        };
        assert!(s.contains_loop());
        let s2 = Stmt::Call {
            func: ident("f"),
            args: vec![],
            span: Span::synthetic(),
        };
        assert!(!s2.contains_loop());
    }

    #[test]
    fn always_true_condition() {
        assert!(Expr::Int(1, Span::synthetic()).is_always_true());
        assert!(!Expr::Int(0, Span::synthetic()).is_always_true());
        assert!(!Expr::Opaque(Span::synthetic()).is_always_true());
    }
}
