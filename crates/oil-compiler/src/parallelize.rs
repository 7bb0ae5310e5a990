//! Task-graph extraction from sequential OIL modules.
//!
//! Following Section IV of the paper (and the method of Geuns et al.,
//! LCTES 2013 it builds on):
//!
//! * a task is created for **every function call and assignment statement**;
//! * statements guarded by `if`/`switch` become tasks that execute
//!   **unconditionally** while their bodies remain guarded (Fig. 4);
//! * a circular buffer is created for **every variable**; statements writing
//!   the variable become producers, statements reading it become consumers;
//! * stream parameters of the module become buffers tagged with the stream
//!   name, using the colon notation's counts as per-firing rates;
//! * the while-loop nest of every statement is recorded so the CTA derivation
//!   can create one component per loop (Fig. 9).

use oil_dataflow::taskgraph::{BufferId, LoopId, PortAccess, Task, TaskBuffer, TaskGraph};
use oil_lang::ast::*;
use oil_lang::registry::FunctionRegistry;

/// Extract the task graph of a sequential `module`.
///
/// # Panics
/// Panics if the module does not have a sequential body (callers obtain
/// modules from an analysed program where this is guaranteed).
pub fn extract_task_graph(module: &Module, registry: &FunctionRegistry) -> TaskGraph {
    let ModuleBody::Seq(body) = &module.body else {
        panic!("extract_task_graph requires a sequential module");
    };
    let mut ex = Extractor {
        graph: TaskGraph::new(module.display_name()),
        registry,
        module,
        task_counter: 0,
    };

    // Buffers for stream parameters first so their indices are stable.
    for p in &module.params {
        ex.buffer_for(&p.name.name, Some(p.name.name.clone()));
    }
    for v in &body.vars {
        ex.buffer_for(&v.name.name, None);
    }

    ex.walk(&body.stmts, &mut Vec::new(), false);
    ex.graph
}

struct Extractor<'a> {
    graph: TaskGraph,
    registry: &'a FunctionRegistry,
    module: &'a Module,
    task_counter: usize,
}

impl<'a> Extractor<'a> {
    fn buffer_for(&mut self, name: &str, stream: Option<String>) -> BufferId {
        if let Some(idx) = self.graph.buffer_by_name(name) {
            return idx;
        }
        self.graph.add_buffer(TaskBuffer {
            name: name.to_string(),
            initial_tokens: 0,
            capacity: None,
            stream: stream.or_else(|| {
                self.module
                    .params
                    .iter()
                    .find(|p| p.name.name == name)
                    .map(|p| p.name.name.clone())
            }),
        })
    }

    fn next_task_name(&mut self, function: &str) -> String {
        let n = self.task_counter;
        self.task_counter += 1;
        format!("t{}_{}", n, function)
    }

    fn walk(&mut self, stmts: &[Stmt], loop_nest: &mut Vec<LoopId>, guarded: bool) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign { target, value, .. } => {
                    self.add_statement_task(
                        "=",
                        Some(target),
                        &expr_reads(value),
                        loop_nest,
                        guarded,
                    );
                }
                Stmt::Call { func, args, .. } => {
                    let mut reads = Vec::new();
                    let mut writes = Vec::new();
                    for arg in args {
                        match arg {
                            Arg::In(e) => reads.extend(expr_reads(e)),
                            Arg::Out(a) => writes.push(a.clone()),
                        }
                    }
                    self.add_call_task(&func.name, &writes, &reads, loop_nest, guarded);
                }
                Stmt::If {
                    cond,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    // The guard expression's reads are attributed to the tasks
                    // inside (they need the value to evaluate their guard).
                    let _ = cond;
                    self.walk(then_branch, loop_nest, true);
                    self.walk(else_branch, loop_nest, true);
                }
                Stmt::Switch { cases, default, .. } => {
                    for c in cases {
                        self.walk(&c.body, loop_nest, true);
                    }
                    self.walk(default, loop_nest, true);
                }
                Stmt::LoopWhile { body, cond, .. } => {
                    let parent = loop_nest.last().copied();
                    let id = self.graph.add_loop(parent, cond.is_always_true());
                    loop_nest.push(id);
                    self.walk(body, loop_nest, guarded);
                    loop_nest.pop();
                }
            }
        }
    }

    fn add_statement_task(
        &mut self,
        function: &str,
        target: Option<&Access>,
        reads: &[Access],
        loop_nest: &[LoopId],
        guarded: bool,
    ) {
        let writes: Vec<Access> = target.cloned().into_iter().collect();
        self.add_call_task(function, &writes, reads, loop_nest, guarded);
    }

    fn add_call_task(
        &mut self,
        function: &str,
        writes: &[Access],
        reads: &[Access],
        loop_nest: &[LoopId],
        guarded: bool,
    ) {
        let name = self.next_task_name(function);
        let response_time = self.registry.response_time(function);
        let read_ports = reads
            .iter()
            .map(|a| PortAccess {
                buffer: self.buffer_for(&a.name.name, None),
                count: a.count(),
            })
            .collect::<Vec<_>>();
        let write_ports = writes
            .iter()
            .map(|a| PortAccess {
                buffer: self.buffer_for(&a.name.name, None),
                count: a.count(),
            })
            .collect::<Vec<_>>();

        // Prologue writes (outside every loop) provide initial tokens, e.g.
        // `init(out c:4)` of Fig. 2c.
        if loop_nest.is_empty() {
            for w in &write_ports {
                self.graph.buffers[w.buffer].initial_tokens += w.count;
            }
        }

        let idx = self.graph.add_task(Task {
            name,
            function: function.to_string(),
            response_time,
            guarded,
            loop_nest: loop_nest.to_vec(),
            reads: read_ports,
            writes: write_ports,
        });
        if let Some(&innermost) = loop_nest.last() {
            self.graph.loops[innermost].tasks.push(idx);
        }
    }
}

/// All variable/stream reads of an expression, in evaluation order.
fn expr_reads(e: &Expr) -> Vec<Access> {
    let mut v = Vec::new();
    e.reads(&mut v);
    v
}

/// The tasks of `graph` that execute repeatedly at run time, in task order.
///
/// Prologue statements (outside every while-loop) run exactly once before
/// start-up; their effect is fully captured by the initial tokens they leave
/// in the buffers, so the execution engines never schedule them. A module
/// whose *entire* body is prologue (no loop has any task) keeps all of its
/// tasks — there is nothing else to execute.
pub fn runnable_tasks(graph: &TaskGraph) -> Vec<oil_dataflow::index::ActorId> {
    let has_loop_tasks = graph.loops.iter().any(|l| !l.tasks.is_empty());
    graph
        .tasks
        .iter_enumerated()
        .filter(|(_, t)| !(t.loop_nest.is_empty() && has_loop_tasks))
        .map(|(i, _)| i)
        .collect()
}

/// Which loops (by id) access a given buffer, in program order. Used by the
/// CTA derivation to wire the stream-periodicity connections of Fig. 9.
pub fn loops_accessing(graph: &TaskGraph, buffer: BufferId) -> Vec<LoopId> {
    let mut out = Vec::new();
    for l in &graph.loops {
        let touches = graph.tasks.iter().any(|t| {
            t.loop_nest.contains(&l.id)
                && (t.reads.iter().any(|r| r.buffer == buffer)
                    || t.writes.iter().any(|w| w.buffer == buffer))
        });
        if touches {
            out.push(l.id);
        }
    }
    out
}

/// Dump the loop structure of the extracted graph (examples print this to
/// mirror the paper's figures).
pub fn describe_loops(graph: &TaskGraph) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for l in &graph.loops {
        let tasks: Vec<&str> = l
            .tasks
            .iter()
            .map(|&t| graph.tasks[t].name.as_str())
            .collect();
        let _ = writeln!(
            s,
            "loop {} (parent {:?}, infinite {}): [{}]",
            l.id,
            l.parent,
            l.infinite,
            tasks.join(", ")
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_lang::parser::parse_program;
    use oil_lang::registry::FunctionSignature;

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "h", "k", "init", "LPF", "resamp"] {
            r.register(FunctionSignature::pure(f, 1e-6));
        }
        r
    }

    fn extract(src: &str, module: &str) -> TaskGraph {
        let p = parse_program(src).unwrap();
        extract_task_graph(p.module(module).unwrap(), &registry())
    }

    #[test]
    fn fig4a_guarded_tasks() {
        let tg = extract(
            "mod seq M(out int x){ if(...){ y = g(); } else { y = h(); } k(y, out x:2); }",
            "M",
        );
        // Three tasks: t_g, t_h (guarded) and t_k (unconditional).
        assert_eq!(tg.tasks.len(), 3);
        let guarded: Vec<bool> = tg.tasks.iter().map(|t| t.guarded).collect();
        assert_eq!(guarded, vec![true, true, false]);
        // Buffer y has two producers and one consumer; buffer/stream x has
        // one producer writing two values per firing.
        let by = tg.buffer_by_name("y").unwrap();
        let bx = tg.buffer_by_name("x").unwrap();
        assert_eq!(tg.producers(by).len(), 2);
        assert_eq!(tg.consumers(by).len(), 1);
        assert_eq!(
            tg.producers(bx),
            vec![(tg.task_by_name("t2_k").unwrap(), 2)]
        );
        assert_eq!(tg.buffers[bx].stream.as_deref(), Some("x"));
        assert!(tg.buffers[by].stream.is_none());
    }

    #[test]
    fn fig2c_module_a_single_task_multi_rate() {
        let tg = extract(
            "mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }",
            "A",
        );
        assert_eq!(tg.tasks.len(), 1);
        assert_eq!(tg.loops.len(), 1);
        assert!(tg.loops.iter().next().unwrap().infinite);
        let t = &tg.tasks[tg.task_by_name("t0_f").unwrap()];
        assert_eq!(t.writes[0].count, 3);
        assert_eq!(t.reads[0].count, 3);
        assert_eq!(t.loop_nest.len(), 1);
    }

    #[test]
    fn fig2c_module_b_prologue_initial_tokens() {
        let tg = extract(
            "mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }",
            "B",
        );
        let bc = tg.buffer_by_name("c").unwrap();
        assert_eq!(tg.buffers[bc].initial_tokens, 4);
        assert_eq!(tg.prologue_tasks().len(), 1);
        let l0 = tg.loops.iter().next().unwrap().id;
        assert_eq!(tg.tasks_in_loop(l0).len(), 1);
    }

    #[test]
    fn fig9a_two_loops_and_intermediate_variable() {
        let tg = extract(
            "mod seq A(int x, out int o){
                loop{ y = f(x); o = f(y); } while(...);
                loop{ g(x, y, out o); } while(...);
             }",
            "A",
        );
        assert_eq!(tg.loops.len(), 2);
        assert!(!tg.loops.iter().next().unwrap().infinite);
        let bx = tg.buffer_by_name("x").unwrap();
        let by = tg.buffer_by_name("y").unwrap();
        let loop_ids: Vec<LoopId> = tg.loops.iter().map(|l| l.id).collect();
        assert_eq!(loops_accessing(&tg, bx), loop_ids);
        assert_eq!(loops_accessing(&tg, by), loop_ids);
        // y is produced in loop 0 and consumed in loops 0 and 1.
        assert_eq!(tg.producers(by).len(), 1);
        assert_eq!(tg.consumers(by).len(), 2);
    }

    #[test]
    fn nested_loops_get_parent_links() {
        let tg = extract(
            "mod seq N(int a, out int b){
                loop{
                    f(a, out b);
                    loop{ g(a, out b); } while(...);
                } while(1);
             }",
            "N",
        );
        assert_eq!(tg.loops.len(), 2);
        let ids: Vec<LoopId> = tg.loops.iter().map(|l| l.id).collect();
        assert_eq!(tg.loops[ids[1]].parent, Some(ids[0]));
        let nested = tg.task_by_name("t1_g").unwrap();
        assert_eq!(tg.tasks[nested].loop_nest, ids);
        assert!(describe_loops(&tg).contains("parent Some(l0)"));
    }

    #[test]
    fn switch_arms_are_guarded() {
        let tg = extract(
            "mod seq S(int a, out int b){
                loop{ switch(a) case 0 { f(a, out b); } default { g(a, out b); } } while(1);
             }",
            "S",
        );
        assert_eq!(tg.tasks.len(), 2);
        assert!(tg.tasks.iter().all(|t| t.guarded));
    }

    #[test]
    fn response_times_come_from_registry() {
        let mut reg = registry();
        reg.register(FunctionSignature::pure("slow", 5e-3));
        let p = parse_program("mod seq A(int a, out int b){ loop{ slow(a, out b); } while(1); }")
            .unwrap();
        let tg = extract_task_graph(p.module("A").unwrap(), &reg);
        assert_eq!(
            tg.tasks.iter().next().unwrap().response_time,
            oil_dataflow::Rational::new(5, 1000)
        );
    }

    #[test]
    fn task_graph_converts_to_consistent_sdf() {
        let tg = extract(
            "mod seq A(int x, out int o){ loop{ y = f(x); g(y, out o); } while(1); }",
            "A",
        );
        let sdf = tg.to_sdf();
        assert!(sdf.is_consistent());
    }
}
