//! Pretty printer for OIL ASTs.
//!
//! The printer produces canonical source text that parses back to an
//! equivalent AST, which is exercised by round-trip tests and property tests.
//! Rates and latency amounts print as exact decimals, so they read back as
//! the same rationals.

use crate::ast::*;
use crate::token::Decimal;
use oil_dataflow::Rational;
use std::fmt::Write;

/// Render a whole program as OIL source text.
pub fn print_program(program: &Program) -> String {
    let mut out = String::new();
    for (i, m) in program.modules.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_module(m, &mut out);
    }
    out
}

/// Render a single module definition.
pub fn print_module(module: &Module, out: &mut String) {
    let _ = write!(out, "{}", module.kind);
    if let Some(name) = &module.name {
        let _ = write!(out, " {name}");
    }
    out.push('(');
    for (i, p) in module.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if p.out {
            out.push_str("out ");
        }
        let _ = write!(out, "{} {}", p.ty, p.name);
    }
    out.push_str(") {\n");
    match &module.body {
        ModuleBody::Par(body) => print_par_body(body, out),
        ModuleBody::Seq(body) => print_seq_body(body, out),
    }
    out.push_str("}\n");
}

fn print_par_body(body: &ParBody, out: &mut String) {
    for b in &body.buffers {
        match b {
            BufferDecl::Fifo { ty, names, .. } => {
                let names: Vec<&str> = names.iter().map(|n| n.name.as_str()).collect();
                let _ = writeln!(out, "    fifo {} {};", ty, names.join(", "));
            }
            BufferDecl::Source {
                ty,
                name,
                func,
                rate,
                ..
            } => {
                let _ = write!(out, "    source {ty} {name} = {func}() @ ");
                print_quantity(rate.hz, 0, "Hz", out);
                out.push_str(";\n");
            }
            BufferDecl::Sink {
                ty,
                name,
                func,
                rate,
                ..
            } => {
                let _ = write!(out, "    sink {ty} {name} = {func}() @ ");
                print_quantity(rate.hz, 0, "Hz", out);
                out.push_str(";\n");
            }
        }
    }
    for l in &body.latencies {
        let rel = match l.relation {
            LatencyRelation::After => "after",
            LatencyRelation::Before => "before",
        };
        let _ = write!(out, "    start {} ", l.subject);
        print_quantity(l.amount_s, 3, "ms", out);
        let _ = writeln!(out, " {rel} {};", l.reference);
    }
    if !body.calls.is_empty() {
        out.push_str("    ");
        for (i, c) in body.calls.iter().enumerate() {
            if i > 0 {
                out.push_str(" || ");
            }
            print_module_call(c, out);
        }
        out.push('\n');
    }
}

/// `value · 10^shift` in `unit`, as the decimal the lexer reads back
/// exactly. A value with no finite decimal expansion, which no literal can
/// denote, prints as its fraction in the unshifted unit.
fn print_quantity(value: Rational, shift: i64, unit: &str, out: &mut String) {
    let _ = match Decimal::from_rational(value) {
        Some(d) => write!(
            out,
            "{} {unit}",
            Decimal::new(d.mantissa, d.exponent + shift)
        ),
        None if shift == 0 => write!(out, "{value} {unit}"),
        None => write!(out, "{value} s"),
    };
}

fn print_module_call(call: &ModuleCall, out: &mut String) {
    let _ = write!(out, "{}(", call.module);
    for (i, a) in call.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        if a.out {
            out.push_str("out ");
        }
        let _ = write!(out, "{}", a.name);
    }
    out.push(')');
}

fn print_seq_body(body: &SeqBody, out: &mut String) {
    for v in &body.vars {
        match v.array_len {
            Some(n) => {
                let _ = writeln!(out, "    {} {}[{}];", v.ty, v.name, n);
            }
            None => {
                let _ = writeln!(out, "    {} {};", v.ty, v.name);
            }
        }
    }
    for s in &body.stmts {
        print_stmt(s, 1, out);
    }
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn print_stmt(stmt: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match stmt {
        Stmt::Assign { target, value, .. } => {
            let _ = write!(out, "{} = {};", print_access(target), print_expr(value));
            out.push('\n');
        }
        Stmt::Call { func, args, .. } => {
            let args: Vec<String> = args
                .iter()
                .map(|a| match a {
                    Arg::In(e) => print_expr(e),
                    Arg::Out(acc) => format!("out {}", print_access(acc)),
                })
                .collect();
            let _ = writeln!(out, "{}({});", func, args.join(", "));
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
            ..
        } => {
            let _ = writeln!(out, "if({}) {{", print_expr(cond));
            for s in then_branch {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            if else_branch.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_branch {
                    print_stmt(s, level + 1, out);
                }
                indent(level, out);
                out.push_str("}\n");
            }
        }
        Stmt::Switch {
            scrutinee,
            cases,
            default,
            ..
        } => {
            let _ = writeln!(out, "switch({})", print_expr(scrutinee));
            for c in cases {
                indent(level, out);
                let _ = writeln!(out, "case {} {{", c.value);
                for s in &c.body {
                    print_stmt(s, level + 1, out);
                }
                indent(level, out);
                out.push_str("}\n");
            }
            indent(level, out);
            out.push_str("default {\n");
            for s in default {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::LoopWhile { body, cond, .. } => {
            out.push_str("loop {\n");
            for s in body {
                print_stmt(s, level + 1, out);
            }
            indent(level, out);
            let _ = writeln!(out, "}} while({});", print_expr(cond));
        }
    }
}

fn print_access(a: &Access) -> String {
    if let Some(n) = a.rate {
        format!("{}:{}", a.name, n)
    } else if let Some((lo, hi)) = a.slice {
        format!("{}[{}:{}]", a.name, lo, hi)
    } else {
        a.name.name.clone()
    }
}

/// Render an expression as source text (fully parenthesised for binary
/// operators, so precedence is preserved on re-parse).
pub fn print_expr(e: &Expr) -> String {
    match e {
        Expr::Int(n, _) => n.to_string(),
        Expr::Float(x, _) => format!("{x:?}"),
        Expr::Var(a, _) => print_access(a),
        Expr::Call { func, args, .. } => {
            let args: Vec<String> = args.iter().map(print_expr).collect();
            format!("{}({})", func, args.join(", "))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            format!("({} {} {})", print_expr(lhs), op.as_str(), print_expr(rhs))
        }
        Expr::Not(inner, _) => format!("!{}", print_expr(inner)),
        Expr::Opaque(_) => "...".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    /// Strip spans so structurally identical ASTs compare equal after a
    /// round trip through the printer.
    fn normalize(p: &Program) -> String {
        // Printing twice is a convenient structural normal form: if
        // print(parse(print(x))) == print(x) the printer/parser pair is
        // consistent for x.
        print_program(p)
    }

    #[test]
    fn round_trip_rate_conversion() {
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = normalize(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(normalize(&p2), printed);
        assert_eq!(p1.modules.len(), p2.modules.len());
    }

    #[test]
    fn round_trip_control_statements() {
        let src = r#"
            mod seq M(int a, out int x){
                int y;
                if(a > 3 && a < 10){ y = g(a); } else { y = h(a * 2 + 1); }
                switch(a) case 0 { y = g(a); } default { y = h(a); }
                loop{ k(y, out x:2); } while(...);
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = normalize(&p1);
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(normalize(&p2), printed);
    }

    #[test]
    fn round_trip_sources_sinks_latency() {
        let src = r#"
            mod par D(){
                source int x = src() @ 1000 Hz;
                sink int y = snk() @ 1000 Hz;
                start x 5 ms before y;
                A(x, out y)
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = normalize(&p1);
        assert!(printed.contains("source int x = src() @ 1000 Hz;"));
        assert!(printed.contains("start x 5 ms before y;"));
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(normalize(&p2), printed);

        // Exact decimals print as the same exact decimals: PAL's rates, a
        // rate a double cannot scale (4.1 MHz), 21 and 22 significant
        // digits, and a latency far below a nanosecond.
        let src = r#"
            mod par D(){
                source int x = src() @ 6.40000000000000000001 MHz;
                sink int y = snk() @ 4.1 MHz;
                sink int z = snk() @ 0.3333333333333333333333 MHz;
                sink int w = snk() @ 32 kHz;
                start y 0.0000000000000000001 ms after z;
                A(x, out y, out z, out w)
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = normalize(&p1);
        for line in [
            "@ 6400000.00000000000001 Hz;",
            "@ 4100000 Hz;",
            "@ 333333.3333333333333333 Hz;",
            "@ 32000 Hz;",
            "start y 0.0000000000000000001 ms after z;",
        ] {
            assert!(printed.contains(line), "{line} in {printed}");
        }
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(normalize(&p2), printed);
    }

    #[test]
    fn expr_printer_parenthesises() {
        let mut parser = crate::parser::Parser::new("a + b * c").unwrap();
        let e = parser.parse_expr().unwrap();
        assert_eq!(print_expr(&e), "(a + (b * c))");
    }

    #[test]
    fn round_trip_array_slices() {
        let src = r#"
            mod seq S(){
                int x[6], y[6];
                init(out y[0:3]);
                loop{ f(out x[0:2], y[0:2]); } while(1);
            }
        "#;
        let p1 = parse_program(src).unwrap();
        let printed = normalize(&p1);
        assert!(printed.contains("y[0:3]"));
        let p2 = parse_program(&printed).unwrap();
        assert_eq!(normalize(&p2), printed);
    }
}
