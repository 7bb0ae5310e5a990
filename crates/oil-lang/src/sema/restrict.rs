//! Restriction checks that keep OIL analysable.
//!
//! The paper's Section IV: pointers, dynamic memory allocation and recursion
//! are not allowed, which makes the language not Turing complete and the
//! temporal analysis decidable. The grammar already has no pointers or
//! allocation; the checks here reject the remaining ways a program could
//! escape analysability.

use crate::ast::*;
use crate::registry::FunctionRegistry;
use crate::span::{Diagnostic, Span};
use std::collections::{BTreeMap, BTreeSet};

/// Run all restriction checks, appending diagnostics to `diags`.
pub fn check(program: &Program, registry: &FunctionRegistry, diags: &mut Vec<Diagnostic>) {
    check_unique_module_names(program, diags);
    check_no_module_recursion(program, diags);
    check_instantiations(program, diags);
    check_seq_bodies(program, registry, diags);
}

fn check_unique_module_names(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut seen: BTreeMap<&str, Span> = BTreeMap::new();
    let mut anonymous = 0usize;
    for m in &program.modules {
        match &m.name {
            Some(name) => {
                if seen.insert(name.name.as_str(), name.span).is_some() {
                    diags.push(Diagnostic::error(
                        format!("module `{}` is defined more than once", name.name),
                        name.span,
                    ));
                }
            }
            None => {
                anonymous += 1;
                if anonymous > 1 {
                    diags.push(Diagnostic::error(
                        "only one anonymous top-level `mod par { .. }` block is allowed",
                        m.span,
                    ));
                }
                if m.kind != ModuleKind::Par {
                    diags.push(Diagnostic::error(
                        "the anonymous top-level module must be a `mod par`",
                        m.span,
                    ));
                }
            }
        }
    }
}

/// The module instantiation graph must be acyclic: a module (transitively)
/// instantiating itself would be unbounded recursion.
fn check_no_module_recursion(program: &Program, diags: &mut Vec<Diagnostic>) {
    // Adjacency by module name; anonymous top module uses the reserved name
    // "<top>" which no other module can instantiate anyway.
    let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for m in &program.modules {
        let name = m.display_name().to_string();
        let entry = edges.entry(name).or_default();
        if let ModuleBody::Par(body) = &m.body {
            for call in &body.calls {
                entry.insert(call.module.name.clone());
            }
        }
    }

    // Depth-first search with colouring to find a cycle.
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color: BTreeMap<&str, Color> =
        edges.keys().map(|k| (k.as_str(), Color::White)).collect();

    fn dfs<'a>(
        node: &'a str,
        edges: &'a BTreeMap<String, BTreeSet<String>>,
        color: &mut BTreeMap<&'a str, Color>,
        stack: &mut Vec<&'a str>,
    ) -> Option<Vec<String>> {
        color.insert(node, Color::Grey);
        stack.push(node);
        if let Some(succs) = edges.get(node) {
            for succ in succs {
                match color.get(succ.as_str()).copied() {
                    Some(Color::Grey) => {
                        let mut cycle: Vec<String> = stack.iter().map(|s| s.to_string()).collect();
                        cycle.push(succ.clone());
                        return Some(cycle);
                    }
                    Some(Color::White) => {
                        if let Some(c) = dfs(succ.as_str(), edges, color, stack) {
                            return Some(c);
                        }
                    }
                    _ => {}
                }
            }
        }
        stack.pop();
        color.insert(node, Color::Black);
        None
    }

    let names: Vec<&str> = edges.keys().map(|s| s.as_str()).collect();
    for name in names {
        if color.get(name) == Some(&Color::White) {
            let mut stack = Vec::new();
            if let Some(cycle) = dfs(name, &edges, &mut color, &mut stack) {
                diags.push(Diagnostic::error(
                    format!(
                        "recursive module instantiation is not allowed: {}",
                        cycle.join(" -> ")
                    ),
                    program
                        .module(&cycle[0])
                        .map(|m| m.span)
                        .unwrap_or_default(),
                ));
                return;
            }
        }
    }
}

/// Check each `mod par` instantiation against the instantiated module's
/// definition: arity and stream directions must match, and streams passed as
/// arguments must be visible in the instantiating module.
fn check_instantiations(program: &Program, diags: &mut Vec<Diagnostic>) {
    for m in &program.modules {
        let ModuleBody::Par(body) = &m.body else {
            continue;
        };

        // Names visible inside this parallel body: its own stream parameters
        // plus locally declared FIFOs, sources and sinks.
        let mut visible: BTreeSet<&str> = m.params.iter().map(|p| p.name.name.as_str()).collect();
        for b in &body.buffers {
            match b {
                BufferDecl::Fifo { names, .. } => {
                    for n in names {
                        if !visible.insert(n.name.as_str()) {
                            diags.push(Diagnostic::error(
                                format!(
                                    "`{}` is declared more than once in module `{}`",
                                    n.name,
                                    m.display_name()
                                ),
                                n.span,
                            ));
                        }
                    }
                }
                BufferDecl::Source { name, .. } | BufferDecl::Sink { name, .. } => {
                    if !visible.insert(name.name.as_str()) {
                        diags.push(Diagnostic::error(
                            format!(
                                "`{}` is declared more than once in module `{}`",
                                name.name,
                                m.display_name()
                            ),
                            name.span,
                        ));
                    }
                }
            }
        }

        if body.calls.is_empty() {
            diags.push(Diagnostic::warning(
                format!(
                    "parallel module `{}` instantiates no modules",
                    m.display_name()
                ),
                m.span,
            ));
        }

        for call in &body.calls {
            for arg in &call.args {
                if !visible.contains(arg.name.name.as_str()) {
                    diags.push(Diagnostic::error(
                        format!(
                            "stream `{}` passed to `{}` is not declared in module `{}`",
                            arg.name.name,
                            call.module.name,
                            m.display_name()
                        ),
                        arg.name.span,
                    ));
                }
            }
            if let Some(callee) = program.module(&call.module.name) {
                if callee.params.len() != call.args.len() {
                    diags.push(Diagnostic::error(
                        format!(
                            "module `{}` expects {} stream arguments, {} were passed",
                            call.module.name,
                            callee.params.len(),
                            call.args.len()
                        ),
                        call.span,
                    ));
                    continue;
                }
                for (param, arg) in callee.params.iter().zip(&call.args) {
                    if param.out != arg.out {
                        diags.push(Diagnostic::error(
                            format!(
                                "stream argument `{}` of `{}` must {} marked `out` to match parameter `{}`",
                                arg.name.name,
                                call.module.name,
                                if param.out { "be" } else { "not be" },
                                param.name.name
                            ),
                            arg.name.span,
                        ));
                    }
                }
            }
        }

        // Latency constraints must reference declared sources/sinks.
        let source_sink_names: BTreeSet<&str> = body
            .buffers
            .iter()
            .filter_map(|b| match b {
                BufferDecl::Source { name, .. } | BufferDecl::Sink { name, .. } => {
                    Some(name.name.as_str())
                }
                _ => None,
            })
            .collect();
        for l in &body.latencies {
            for endpoint in [&l.subject, &l.reference] {
                if !source_sink_names.contains(endpoint.name.as_str()) {
                    diags.push(Diagnostic::error(
                        format!(
                            "latency constraint endpoint `{}` is not a source or sink declared in module `{}`",
                            endpoint.name,
                            m.display_name()
                        ),
                        endpoint.span,
                    ));
                }
            }
            if l.amount_s.is_negative() {
                diags.push(Diagnostic::error(
                    "latency constraint amount must be non-negative",
                    l.span,
                ));
            }
        }
    }
}

/// Check sequential bodies: no instantiation of modules, all coordinated
/// functions side-effect free, no writes to input streams and no reads of
/// values that are never produced.
fn check_seq_bodies(program: &Program, registry: &FunctionRegistry, diags: &mut Vec<Diagnostic>) {
    let module_names: BTreeSet<&str> = program
        .modules
        .iter()
        .filter_map(|m| m.name.as_ref())
        .map(|n| n.name.as_str())
        .collect();

    for m in &program.modules {
        let ModuleBody::Seq(body) = &m.body else {
            continue;
        };
        let input_params: BTreeSet<&str> = m.input_params().map(|p| p.name.name.as_str()).collect();
        let mut declared: BTreeSet<String> = m.params.iter().map(|p| p.name.name.clone()).collect();
        for v in &body.vars {
            declared.insert(v.name.name.clone());
        }

        let mut written: BTreeSet<String> = BTreeSet::new();
        let mut reported_unknown: BTreeSet<String> = BTreeSet::new();
        check_stmts(
            &body.stmts,
            m,
            &module_names,
            &input_params,
            registry,
            &mut declared,
            &mut written,
            &mut reported_unknown,
            diags,
        );

        // Reads of names that are neither declared, parameters, nor ever
        // written anywhere in the module are likely mistakes.
        let mut reads = Vec::new();
        collect_reads(&body.stmts, &mut reads);
        for access in reads {
            let name = &access.name.name;
            if !declared.contains(name) && !written.contains(name) {
                diags.push(Diagnostic::error(
                    format!(
                        "`{}` is read in module `{}` but never declared, written or passed as a stream",
                        name,
                        m.display_name()
                    ),
                    access.name.span,
                ));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_stmts(
    stmts: &[Stmt],
    module: &Module,
    module_names: &BTreeSet<&str>,
    input_params: &BTreeSet<&str>,
    registry: &FunctionRegistry,
    declared: &mut BTreeSet<String>,
    written: &mut BTreeSet<String>,
    reported_unknown: &mut BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { target, value, .. } => {
                check_write_target(target, module, input_params, diags);
                written.insert(target.name.name.clone());
                declared.insert(target.name.name.clone());
                let mut calls = Vec::new();
                value.called_functions(&mut calls);
                for f in calls {
                    check_function(&f, module, module_names, registry, reported_unknown, diags);
                }
            }
            Stmt::Call { func, args, .. } => {
                check_function(
                    func,
                    module,
                    module_names,
                    registry,
                    reported_unknown,
                    diags,
                );
                for arg in args {
                    match arg {
                        Arg::Out(access) => {
                            check_write_target(access, module, input_params, diags);
                            written.insert(access.name.name.clone());
                            declared.insert(access.name.name.clone());
                        }
                        Arg::In(e) => {
                            let mut calls = Vec::new();
                            e.called_functions(&mut calls);
                            for f in calls {
                                check_function(
                                    &f,
                                    module,
                                    module_names,
                                    registry,
                                    reported_unknown,
                                    diags,
                                );
                            }
                        }
                    }
                }
            }
            Stmt::If {
                then_branch,
                else_branch,
                cond,
                ..
            } => {
                let mut calls = Vec::new();
                cond.called_functions(&mut calls);
                for f in calls {
                    check_function(&f, module, module_names, registry, reported_unknown, diags);
                }
                check_stmts(
                    then_branch,
                    module,
                    module_names,
                    input_params,
                    registry,
                    declared,
                    written,
                    reported_unknown,
                    diags,
                );
                check_stmts(
                    else_branch,
                    module,
                    module_names,
                    input_params,
                    registry,
                    declared,
                    written,
                    reported_unknown,
                    diags,
                );
            }
            Stmt::Switch { cases, default, .. } => {
                for c in cases {
                    check_stmts(
                        &c.body,
                        module,
                        module_names,
                        input_params,
                        registry,
                        declared,
                        written,
                        reported_unknown,
                        diags,
                    );
                }
                check_stmts(
                    default,
                    module,
                    module_names,
                    input_params,
                    registry,
                    declared,
                    written,
                    reported_unknown,
                    diags,
                );
            }
            Stmt::LoopWhile { body, .. } => {
                check_stmts(
                    body,
                    module,
                    module_names,
                    input_params,
                    registry,
                    declared,
                    written,
                    reported_unknown,
                    diags,
                );
            }
        }
    }
}

fn check_write_target(
    target: &Access,
    module: &Module,
    input_params: &BTreeSet<&str>,
    diags: &mut Vec<Diagnostic>,
) {
    if input_params.contains(target.name.name.as_str()) {
        diags.push(Diagnostic::error(
            format!(
                "input stream `{}` of module `{}` cannot be written (declare the parameter `out` to write it)",
                target.name.name,
                module.display_name()
            ),
            target.name.span,
        ));
    }
}

fn check_function(
    func: &Ident,
    module: &Module,
    module_names: &BTreeSet<&str>,
    registry: &FunctionRegistry,
    reported_unknown: &mut BTreeSet<String>,
    diags: &mut Vec<Diagnostic>,
) {
    if module_names.contains(func.name.as_str()) {
        diags.push(Diagnostic::error(
            format!(
                "module `{}` cannot be instantiated from the sequential body of `{}`; modules are only instantiated from `mod par` bodies",
                func.name,
                module.display_name()
            ),
            func.span,
        ));
        return;
    }
    if !registry.is_side_effect_free(&func.name) {
        diags.push(Diagnostic::error(
            format!(
                "function `{}` is not side-effect free and cannot be coordinated by OIL",
                func.name
            ),
            func.span,
        ));
    }
    if !registry.is_known(&func.name) && reported_unknown.insert(func.name.clone()) {
        diags.push(Diagnostic::warning(
            format!(
                "function `{}` is not registered; assuming it is side-effect free with the default response time",
                func.name
            ),
            func.span,
        ));
    }
}

fn collect_reads(stmts: &[Stmt], out: &mut Vec<Access>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign { value, .. } => value.reads(out),
            Stmt::Call { args, .. } => {
                for a in args {
                    if let Arg::In(e) = a {
                        e.reads(out);
                    }
                }
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
                ..
            } => {
                cond.reads(out);
                collect_reads(then_branch, out);
                collect_reads(else_branch, out);
            }
            Stmt::Switch {
                scrutinee,
                cases,
                default,
                ..
            } => {
                scrutinee.reads(out);
                for c in cases {
                    collect_reads(&c.body, out);
                }
                collect_reads(default, out);
            }
            Stmt::LoopWhile { body, cond, .. } => {
                collect_reads(body, out);
                cond.reads(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::registry::FunctionSignature;

    fn run(src: &str) -> Vec<Diagnostic> {
        let mut reg = FunctionRegistry::new();
        for f in ["f", "g", "h", "k", "init"] {
            reg.register(FunctionSignature::pure(f, 1e-6));
        }
        let program = parse_program(src).unwrap();
        let mut diags = Vec::new();
        check(&program, &reg, &mut diags);
        diags
    }

    fn errors(src: &str) -> Vec<String> {
        run(src)
            .into_iter()
            .filter(|d| d.is_error())
            .map(|d| d.message)
            .collect()
    }

    #[test]
    fn duplicate_module_names_rejected() {
        let errs = errors("mod seq A(out int a){ f(out a); } mod seq A(out int a){ f(out a); }");
        assert!(errs.iter().any(|e| e.contains("more than once")));
    }

    #[test]
    fn self_recursion_rejected() {
        let errs = errors("mod par A(int x, out int y){ A(x, out y) }");
        assert!(errs.iter().any(|e| e.contains("recursive")));
    }

    #[test]
    fn deep_recursion_rejected() {
        let errs = errors(
            "mod par A(int x, out int y){ B(x, out y) }
             mod par B(int x, out int y){ C(x, out y) }
             mod par C(int x, out int y){ A(x, out y) }",
        );
        assert!(errs.iter().any(|e| e.contains("recursive")));
    }

    #[test]
    fn acyclic_hierarchy_accepted() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod par M(int x, out int y){ L(x, out y) }
             mod par N(int x, out int y){ M(x, out y) }",
        );
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod par M(){ fifo int a, b; L(a) || L(a, out b) }",
        );
        assert!(errs
            .iter()
            .any(|e| e.contains("expects 2 stream arguments")));
    }

    #[test]
    fn direction_mismatch_rejected() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod par M(){ fifo int a, b; L(out a, b) }",
        );
        assert!(errs.iter().any(|e| e.contains("marked `out`")));
    }

    #[test]
    fn undeclared_stream_argument_rejected() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod par M(){ fifo int a; L(a, out ghost) }",
        );
        assert!(errs.iter().any(|e| e.contains("ghost")));
    }

    #[test]
    fn module_call_in_seq_body_rejected() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod seq M(int x, out int y){ loop{ L(x, out y); } while(1); }",
        );
        assert!(errs
            .iter()
            .any(|e| e.contains("cannot be instantiated from the sequential body")));
    }

    #[test]
    fn write_to_input_stream_rejected() {
        let errs = errors("mod seq A(int a, out int b){ loop{ f(out a); f(out b); } while(1); }");
        assert!(errs.iter().any(|e| e.contains("cannot be written")));
    }

    #[test]
    fn read_of_undefined_value_rejected() {
        let errs = errors("mod seq A(out int b){ loop{ f(phantom, out b); } while(1); }");
        assert!(errs.iter().any(|e| e.contains("phantom")));
    }

    #[test]
    fn implicitly_declared_local_accepted() {
        // Fig. 4a of the paper writes `y = g();` without declaring `y`.
        let errs =
            errors("mod seq M(out int x){ if(...){ y = g(); } else { y = h(); } k(y, out x:2); }");
        assert!(errs.is_empty(), "{errs:?}");
    }

    #[test]
    fn unknown_function_is_warning_not_error() {
        let diags = run("mod seq A(out int b){ loop{ exotic(out b); } while(1); }");
        assert!(diags
            .iter()
            .any(|d| !d.is_error() && d.message.contains("exotic")));
        assert!(diags.iter().all(|d| !d.is_error()));
    }

    #[test]
    fn latency_endpoints_must_be_sources_or_sinks() {
        let errs = errors(
            "mod seq L(int x, out int y){ loop{ f(x, out y); } while(1); }
             mod par M(){
                source int s = f() @ 1 kHz;
                sink int t = g() @ 1 kHz;
                fifo int q;
                start s 5 ms before q;
                L(s, out t)
             }",
        );
        assert!(errs.iter().any(|e| e.contains("not a source or sink")));
    }

    #[test]
    fn two_anonymous_top_modules_rejected() {
        let errs = errors(
            "mod par { fifo int a; X(out a) }
             mod par { fifo int b; Y(out b) }",
        );
        assert!(errs.iter().any(|e| e.contains("anonymous")));
    }
}
