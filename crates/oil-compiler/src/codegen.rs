//! Task code generation.
//!
//! The paper's compiler emits a sequential C++ fragment per task, compiled by
//! an ordinary single-core compiler (Section IV). This reproduction emits the
//! equivalent Rust: every task becomes a function that acquires its input
//! windows from the circular buffers, evaluates its (possibly guarded) body
//! by calling the coordinated function, and releases its output windows. The
//! generated text is used by the examples, checked by tests for structural
//! properties, and is a faithful stand-in for the paper's back end without
//! requiring a C++ toolchain.

use oil_dataflow::taskgraph::TaskGraph;
use std::fmt::Write;

/// Code generated for one sequential module.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedCode {
    /// The module instance path this code belongs to.
    pub instance: String,
    /// One generated function per task, in task order.
    pub task_functions: Vec<String>,
    /// The complete module source (buffer declarations + task functions +
    /// a data-driven scheduler loop).
    pub module_source: String,
}

impl GeneratedCode {
    /// Total number of generated source lines.
    pub fn line_count(&self) -> usize {
        self.module_source.lines().count()
    }
}

/// Generate Rust task code for one module instance from its task graph.
pub fn generate_module_code(instance: &str, graph: &TaskGraph) -> GeneratedCode {
    let mut task_functions = Vec::new();
    for task in &graph.tasks {
        let mut f = String::new();
        let _ = writeln!(
            f,
            "/// Task `{}` extracted from `{}` (function `{}`).",
            task.name, graph.module, task.function
        );
        let _ = writeln!(
            f,
            "pub fn {}(buffers: &mut Buffers, state: &mut TaskState) {{",
            sanitize(&task.name)
        );
        for r in &task.reads {
            let _ = writeln!(
                f,
                "    let {b} = buffers.{b}.read({count});",
                b = sanitize(&graph.buffers[r.buffer].name),
                count = r.count
            );
        }
        if task.guarded {
            let _ = writeln!(f, "    if state.guard_active() {{");
            let _ = writeln!(f, "        state.call_{}();", sanitize(&task.function));
            let _ = writeln!(f, "    }}");
        } else {
            let _ = writeln!(f, "    state.call_{}();", sanitize(&task.function));
        }
        for w in &task.writes {
            let _ = writeln!(
                f,
                "    buffers.{b}.write({count});",
                b = sanitize(&graph.buffers[w.buffer].name),
                count = w.count
            );
        }
        let _ = writeln!(f, "}}");
        task_functions.push(f);
    }

    let mut module_source = String::new();
    let _ = writeln!(
        module_source,
        "// Generated by the OIL compiler for instance `{instance}`."
    );
    let _ = writeln!(
        module_source,
        "// Circular buffers (capacity assigned by CTA buffer sizing):"
    );
    for b in &graph.buffers {
        let _ = writeln!(
            module_source,
            "//   {}: capacity {:?}, initial tokens {}, stream {:?}",
            b.name, b.capacity, b.initial_tokens, b.stream
        );
    }
    for f in &task_functions {
        module_source.push('\n');
        module_source.push_str(f);
    }
    let _ = writeln!(
        module_source,
        "\n/// Data-driven schedule: fire every task whose inputs are available."
    );
    let _ = writeln!(
        module_source,
        "pub fn schedule(buffers: &mut Buffers, state: &mut TaskState) {{"
    );
    for task in &graph.tasks {
        let conds: Vec<String> = task
            .reads
            .iter()
            .map(|r| {
                format!(
                    "buffers.{}.available() >= {}",
                    sanitize(&graph.buffers[r.buffer].name),
                    r.count
                )
            })
            .collect();
        let cond = if conds.is_empty() {
            "true".to_string()
        } else {
            conds.join(" && ")
        };
        let _ = writeln!(
            module_source,
            "    if {cond} {{ {}(buffers, state); }}",
            sanitize(&task.name)
        );
    }
    let _ = writeln!(module_source, "}}");

    GeneratedCode {
        instance: instance.to_string(),
        task_functions,
        module_source,
    }
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallelize::extract_task_graph;
    use oil_lang::parser::parse_program;
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};

    fn graph(src: &str, module: &str) -> TaskGraph {
        let mut reg = FunctionRegistry::new();
        for f in ["f", "g", "h", "k", "init"] {
            reg.register(FunctionSignature::pure(f, 1e-6));
        }
        let p = parse_program(src).unwrap();
        extract_task_graph(p.module(module).unwrap(), &reg)
    }

    #[test]
    fn generates_one_function_per_task() {
        let g = graph(
            "mod seq M(out int x){ if(...){ y = g(); } else { y = h(); } k(y, out x:2); }",
            "M",
        );
        let code = generate_module_code("M", &g);
        assert_eq!(code.task_functions.len(), 3);
        assert!(code.module_source.contains("pub fn schedule"));
        assert!(code.line_count() > 10);
    }

    #[test]
    fn guarded_tasks_emit_guard_checks() {
        let g = graph(
            "mod seq M(out int x){ if(...){ y = g(); } else { y = h(); } k(y, out x:2); }",
            "M",
        );
        let code = generate_module_code("M", &g);
        // The guarded tasks check the guard; the unconditional one does not.
        assert!(code.task_functions[0].contains("guard_active"));
        assert!(code.task_functions[1].contains("guard_active"));
        assert!(!code.task_functions[2].contains("guard_active"));
    }

    #[test]
    fn multi_rate_accesses_appear_as_counts() {
        let g = graph(
            "mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }",
            "A",
        );
        let code = generate_module_code("A", &g);
        assert!(code.task_functions[0].contains("read(3)"));
        assert!(code.task_functions[0].contains("write(3)"));
    }

    #[test]
    fn scheduler_guards_on_input_availability() {
        let g = graph(
            "mod seq A(int x, out int o){ loop{ y = f(x); g(y, out o); } while(1); }",
            "A",
        );
        let code = generate_module_code("A", &g);
        assert!(code.module_source.contains("available() >= 1"));
    }
}
