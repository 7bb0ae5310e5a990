//! Task graphs extracted from sequential OIL modules.
//!
//! Following the method of Geuns et al. (LCTES 2013) that the paper builds on
//! (Section IV): a **task** is created for every function call and assignment
//! statement of a sequential module; statements guarded by `if`/`switch`
//! still become *unconditionally executing* tasks whose bodies remain
//! guarded, and a **circular buffer** is created for every variable, with one
//! producer per statement writing it and one consumer per statement reading
//! it.
//!
//! The task graph is the intermediate form between the OIL AST (built by the
//! `oil-compiler` crate) and the dataflow/CTA abstractions: it knows nothing
//! about OIL syntax, only about tasks, buffers, access counts and the
//! while-loop nest each task lives in. Tasks are indexed by [`ActorId`] —
//! every task becomes exactly one dataflow actor, so the ids carry over to
//! the SDF conversion unchanged.

use crate::define_index_type;
use crate::index::{ActorId, IndexVec};
use crate::sdf::SdfGraph;

define_index_type! {
    /// A circular buffer of a task graph (one per variable or stream).
    pub struct BufferId = "b";
}

define_index_type! {
    /// A while-loop of a sequential module.
    pub struct LoopId = "l";
}

/// One access of a task to a buffer: how many values per firing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortAccess {
    /// The accessed buffer.
    pub buffer: BufferId,
    /// Values transferred per task firing.
    pub count: u64,
}

/// A task: the unit of parallel execution extracted from one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique name within the task graph (e.g. `tg`, `tf#2`).
    pub name: String,
    /// The coordinated function this task executes (or `"="` for an
    /// assignment statement).
    pub function: String,
    /// Worst-case response time of one firing, in seconds.
    pub response_time: f64,
    /// True if the statement is nested under `if`/`switch`: the task itself
    /// executes unconditionally, but its body is guarded (Fig. 4 of the
    /// paper).
    pub guarded: bool,
    /// The chain of while-loop ids (outermost first) this task is nested in;
    /// empty for prologue statements outside any loop.
    pub loop_nest: Vec<LoopId>,
    /// Buffers read per firing.
    pub reads: Vec<PortAccess>,
    /// Buffers written per firing.
    pub writes: Vec<PortAccess>,
}

/// A circular buffer created for a variable or stream of the module.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskBuffer {
    /// Buffer name (the variable/stream name, possibly suffixed).
    pub name: String,
    /// Values present before execution starts (written by prologue
    /// statements such as `init(out c:4)`).
    pub initial_tokens: u64,
    /// Capacity in values, once buffer sizing has run; `None` while unsized
    /// (modelled as unbounded).
    pub capacity: Option<u64>,
    /// If this buffer realises (part of) a module stream parameter, the
    /// stream's name.
    pub stream: Option<String>,
}

/// A while-loop of the sequential module.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopInfo {
    /// Loop id (index into [`TaskGraph::loops`]).
    pub id: LoopId,
    /// Parent loop id for nested loops.
    pub parent: Option<LoopId>,
    /// Tasks whose innermost enclosing loop is this one.
    pub tasks: Vec<ActorId>,
    /// True if the loop condition is the constant `1` (an infinite stream
    /// loop).
    pub infinite: bool,
}

/// The task graph of one sequential module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskGraph {
    /// Name of the module this graph was extracted from.
    pub module: String,
    /// Tasks, indexed by the actor id they become in the SDF conversion.
    pub tasks: IndexVec<ActorId, Task>,
    /// Buffers.
    pub buffers: IndexVec<BufferId, TaskBuffer>,
    /// While-loops (top-level and nested).
    pub loops: IndexVec<LoopId, LoopInfo>,
}

impl TaskGraph {
    /// An empty task graph for `module`.
    pub fn new(module: impl Into<String>) -> Self {
        TaskGraph {
            module: module.into(),
            ..Default::default()
        }
    }

    /// Add a buffer, returning its index.
    pub fn add_buffer(&mut self, buffer: TaskBuffer) -> BufferId {
        self.buffers.push(buffer)
    }

    /// Add a task, returning its index.
    pub fn add_task(&mut self, task: Task) -> ActorId {
        self.tasks.push(task)
    }

    /// Add a loop, returning its id.
    pub fn add_loop(&mut self, parent: Option<LoopId>, infinite: bool) -> LoopId {
        let id = self.loops.next_index();
        self.loops.push(LoopInfo {
            id,
            parent,
            tasks: Vec::new(),
            infinite,
        })
    }

    /// Producers (task, values per firing) of `buffer`.
    pub fn producers(&self, buffer: BufferId) -> Vec<(ActorId, u64)> {
        self.tasks
            .iter_enumerated()
            .flat_map(|(t, task)| {
                task.writes
                    .iter()
                    .filter(move |w| w.buffer == buffer)
                    .map(move |w| (t, w.count))
            })
            .collect()
    }

    /// Consumers (task, values per firing) of `buffer`.
    pub fn consumers(&self, buffer: BufferId) -> Vec<(ActorId, u64)> {
        self.tasks
            .iter_enumerated()
            .flat_map(|(t, task)| {
                task.reads
                    .iter()
                    .filter(move |r| r.buffer == buffer)
                    .map(move |r| (t, r.count))
            })
            .collect()
    }

    /// Find a buffer by name.
    pub fn buffer_by_name(&self, name: &str) -> Option<BufferId> {
        self.buffers.position(|b| b.name == name)
    }

    /// Find a task by name.
    pub fn task_by_name(&self, name: &str) -> Option<ActorId> {
        self.tasks.position(|t| t.name == name)
    }

    /// Convert the task graph to an SDF graph (paper Section V-B1): one actor
    /// per task (with the *same* [`ActorId`]); for every buffer, a data edge
    /// from each producer to each consumer carrying the initial tokens, plus
    /// — when the buffer has a finite capacity — an oppositely directed space
    /// edge initialised with the remaining free space. Every task also gets a
    /// self-edge with one token, modelling that its firings do not overlap
    /// (tasks execute on a single processor at a time).
    pub fn to_sdf(&self) -> SdfGraph {
        let mut g = SdfGraph::new();
        for t in &self.tasks {
            let a = g.add_actor(t.name.clone(), t.response_time);
            g.add_named_edge(format!("self_{}", t.name), a, a, 1, 1, 1);
        }
        for (bi, b) in self.buffers.iter_enumerated() {
            let producers = self.producers(bi);
            let consumers = self.consumers(bi);
            for &(p, pc) in &producers {
                for &(c, cc) in &consumers {
                    g.add_named_edge(
                        format!("{}_{}to{}", b.name, p, c),
                        p,
                        c,
                        pc,
                        cc,
                        b.initial_tokens,
                    );
                    if let Some(cap) = b.capacity {
                        let free = cap.saturating_sub(b.initial_tokens);
                        g.add_named_edge(
                            format!("{}_space_{}to{}", b.name, c, p),
                            c,
                            p,
                            cc,
                            pc,
                            free,
                        );
                    }
                }
            }
        }
        g
    }

    /// Tasks directly contained in loop `loop_id` (not in nested loops).
    pub fn tasks_in_loop(&self, loop_id: LoopId) -> Vec<ActorId> {
        self.tasks
            .iter_enumerated()
            .filter(|(_, t)| t.loop_nest.last() == Some(&loop_id))
            .map(|(i, _)| i)
            .collect()
    }

    /// Prologue tasks (outside every loop).
    pub fn prologue_tasks(&self) -> Vec<ActorId> {
        self.tasks
            .iter_enumerated()
            .filter(|(_, t)| t.loop_nest.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

/// True when `level(b)` satisfies every `(buffer, count)` port of `ports`,
/// counting ports on the **same** buffer cumulatively: a task touching one
/// buffer through two ports (e.g. `f(a, a)`) consumes/produces the *sum*
/// per firing, so gating each port's count individually would admit a
/// firing the buffer cannot actually serve. Shared by every execution
/// engine's admission rule (the firing itself then transfers per port, in
/// port order).
pub fn ports_satisfied<B: Copy + Eq>(
    ports: &[(B, usize)],
    mut level: impl FnMut(B) -> usize,
) -> bool {
    ports.iter().all(|&(b, _)| {
        let need: usize = ports
            .iter()
            .filter(|&&(pb, _)| pb == b)
            .map(|&(_, c)| c)
            .sum();
        level(b) >= need
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Idx;

    #[test]
    fn ports_satisfied_sums_same_buffer_ports() {
        // Two ports on buffer 0 gate on the sum, not each count alone.
        let ports = [(0usize, 1), (0, 1), (1, 2)];
        assert!(ports_satisfied(&ports, |b| [2, 2][b]));
        assert!(!ports_satisfied(&ports, |b| [1, 2][b]));
        assert!(!ports_satisfied(&ports, |b| [2, 1][b]));
        assert!(ports_satisfied::<usize>(&[], |_| 0));
    }

    /// Hand-built task graph of the paper's Fig. 4: tasks tg and th guarded by
    /// the if statement, task tk consuming y and producing two values to x.
    fn fig4_taskgraph() -> TaskGraph {
        let mut tg = TaskGraph::new("M");
        let by = tg.add_buffer(TaskBuffer {
            name: "y".into(),
            initial_tokens: 0,
            capacity: Some(2),
            stream: None,
        });
        let bx = tg.add_buffer(TaskBuffer {
            name: "x".into(),
            initial_tokens: 0,
            capacity: Some(4),
            stream: Some("x".into()),
        });
        tg.add_task(Task {
            name: "tg".into(),
            function: "g".into(),
            response_time: 1e-6,
            guarded: true,
            loop_nest: vec![],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: by,
                count: 1,
            }],
        });
        tg.add_task(Task {
            name: "th".into(),
            function: "h".into(),
            response_time: 1e-6,
            guarded: true,
            loop_nest: vec![],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: by,
                count: 1,
            }],
        });
        tg.add_task(Task {
            name: "tk".into(),
            function: "k".into(),
            response_time: 2e-6,
            guarded: false,
            loop_nest: vec![],
            reads: vec![PortAccess {
                buffer: by,
                count: 2,
            }],
            writes: vec![PortAccess {
                buffer: bx,
                count: 2,
            }],
        });
        tg
    }

    #[test]
    fn producers_and_consumers() {
        let tg = fig4_taskgraph();
        let by = tg.buffer_by_name("y").unwrap();
        let bx = tg.buffer_by_name("x").unwrap();
        assert_eq!(tg.producers(by).len(), 2);
        assert_eq!(tg.consumers(by).len(), 1);
        assert_eq!(tg.producers(bx).len(), 1);
        assert_eq!(tg.consumers(bx).len(), 0);
        // Guarded tasks are marked as such but present unconditionally.
        assert!(tg.tasks[tg.task_by_name("tg").unwrap()].guarded);
        assert!(!tg.tasks[tg.task_by_name("tk").unwrap()].guarded);
    }

    #[test]
    fn to_sdf_structure() {
        let tg = fig4_taskgraph();
        let sdf = tg.to_sdf();
        // 3 actors; edges: 3 self-edges + y: 2 producers x 1 consumer x 2
        // (data+space) = 4 edges; x has no consumers so no edges.
        assert_eq!(sdf.actor_count(), 3);
        assert_eq!(sdf.edge_count(), 3 + 4);
        assert!(sdf.is_consistent());
        // Task ids carry over: task `tk` is the same ActorId in the SDF graph.
        let tk = tg.task_by_name("tk").unwrap();
        assert_eq!(sdf.actor_by_name("tk"), Some(tk));
    }

    #[test]
    fn loops_and_prologue_classification() {
        let mut tg = TaskGraph::new("B");
        let c = tg.add_buffer(TaskBuffer {
            name: "c".into(),
            initial_tokens: 0,
            capacity: None,
            stream: Some("c".into()),
        });
        // Prologue: init writes 4 values.
        tg.add_task(Task {
            name: "t_init".into(),
            function: "init".into(),
            response_time: 1e-6,
            guarded: false,
            loop_nest: vec![],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: c,
                count: 4,
            }],
        });
        let l0 = tg.add_loop(None, true);
        let t_g = tg.add_task(Task {
            name: "t_g".into(),
            function: "g".into(),
            response_time: 1e-6,
            guarded: false,
            loop_nest: vec![l0],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: c,
                count: 2,
            }],
        });
        tg.loops[l0].tasks.push(t_g);

        assert_eq!(tg.prologue_tasks(), vec![ActorId::new(0)]);
        assert_eq!(tg.tasks_in_loop(l0), vec![ActorId::new(1)]);
        assert!(tg.loops[l0].infinite);
        assert_eq!(tg.loops[l0].parent, None);
    }

    #[test]
    fn nested_loops_parenting() {
        let mut tg = TaskGraph::new("N");
        let outer = tg.add_loop(None, true);
        let inner = tg.add_loop(Some(outer), false);
        assert_eq!(tg.loops[inner].parent, Some(outer));
        let b = tg.add_buffer(TaskBuffer {
            name: "v".into(),
            initial_tokens: 0,
            capacity: None,
            stream: None,
        });
        tg.add_task(Task {
            name: "t".into(),
            function: "f".into(),
            response_time: 1e-6,
            guarded: false,
            loop_nest: vec![outer, inner],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: b,
                count: 1,
            }],
        });
        assert_eq!(tg.tasks_in_loop(inner), vec![ActorId::new(0)]);
        assert!(tg.tasks_in_loop(outer).is_empty());
    }

    #[test]
    fn capacity_becomes_space_edge_tokens() {
        let mut tg = TaskGraph::new("P");
        let b = tg.add_buffer(TaskBuffer {
            name: "q".into(),
            initial_tokens: 1,
            capacity: Some(5),
            stream: None,
        });
        let p = tg.add_task(Task {
            name: "prod".into(),
            function: "f".into(),
            response_time: 1e-6,
            guarded: false,
            loop_nest: vec![],
            reads: vec![],
            writes: vec![PortAccess {
                buffer: b,
                count: 1,
            }],
        });
        let c = tg.add_task(Task {
            name: "cons".into(),
            function: "g".into(),
            response_time: 1e-6,
            guarded: false,
            loop_nest: vec![],
            reads: vec![PortAccess {
                buffer: b,
                count: 1,
            }],
            writes: vec![],
        });
        let sdf = tg.to_sdf();
        let space_edge = sdf
            .edges
            .iter()
            .find(|e| e.name.contains("space"))
            .expect("space edge present");
        assert_eq!(space_edge.src, c);
        assert_eq!(space_edge.dst, p);
        assert_eq!(space_edge.initial_tokens, 4);
        assert!(sdf.check_deadlock_free().is_ok());
    }
}
