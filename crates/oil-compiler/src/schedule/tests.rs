//! Tests that need the schedule module's private items (the ledger, the
//! per-row access lists). Everything expressible through the public API
//! lives in the root `tests/schedule_synthesis.rs`, where tier-1 runs it.

use super::ledger::{row_access, Fault, FaultKind, UnitAccess};
use super::*;
use crate::rtgraph::{self, RtBuffer};
use crate::{build, Executable};
use oil_dataflow::index::Idx;
use oil_lang::registry::{FunctionRegistry, FunctionSignature};
use std::collections::BTreeMap;

fn fused(on: bool) -> SynthesisConfig {
    SynthesisConfig {
        fusion: on,
        ..SynthesisConfig::default()
    }
}

/// Three buffers `a`, `b` (one initial token), `c` and two units:
/// unit 0 reads `2·a`, writes `b`; unit 1 reads `b`, writes `3·c`.
fn ledger_fixture() -> (RtGraph, Vec<UnitAccess>) {
    let buffer = |name: &str, initial_tokens| RtBuffer {
        name: name.into(),
        capacity: 4,
        initial_tokens,
    };
    let graph = RtGraph {
        buffers: vec![buffer("a", 0), buffer("b", 1), buffer("c", 0)].into(),
        ..RtGraph::default()
    };
    let b = RtBufferId::new;
    let access = vec![
        UnitAccess {
            reads: vec![(b(0), 2)],
            writes: vec![(b(1), 1)],
        },
        UnitAccess {
            reads: vec![(b(1), 1)],
            writes: vec![(b(2), 3)],
        },
    ];
    (graph, access)
}

fn step(unit: u32, times: u32) -> Step {
    Step { unit, times }
}

#[test]
fn ledger_underflow_names_the_buffer_and_leaves_the_levels_untouched() {
    let (graph, access) = ledger_fixture();
    let mut ledger = Ledger::new(&graph, |_| true);
    let fault = ledger.fire(&access, step(0, 1), step(0, 1), None);
    assert_eq!(
        fault,
        Err(Fault {
            buffer: RtBufferId::new(0),
            kind: FaultKind::Underflow
        })
    );
    assert_eq!(ledger.level(RtBufferId::new(1)), 1, "nothing moved");
    ledger.restored().expect("still at the initial levels");
    let message = fault.unwrap_err().invalid(&graph, "step 3: unit 0");
    assert_eq!(
        message,
        ScheduleError::Invalid("step 3: unit 0 underflows buffer `a`".into())
    );
}

#[test]
fn ledger_bounds_writes_and_detects_unrestored_levels() {
    let (graph, access) = ledger_fixture();
    let capacity = engine_capacities(&graph);
    let (b, c) = (RtBufferId::new(1), RtBufferId::new(2));
    let mut ledger = Ledger::new(&graph, |_| true);
    // One firing of unit 1 moves b 1 -> 0 and c 0 -> 3, within capacity 4.
    ledger
        .fire(&access, step(1, 1), step(1, 1), Some(&capacity))
        .unwrap();
    assert_eq!((ledger.level(b), ledger.level(c)), (0, 3));
    // A fused run 0 -> 1 moves only the head's reads and the tail's
    // writes: unbounded it goes through, bounded it overflows.
    let mut run = Ledger::new(&graph, |buffer| buffer != RtBufferId::new(0));
    run.fire(&access, step(0, 2), step(1, 2), None).unwrap();
    assert_eq!((run.level(b), run.level(c)), (1, 6));
    let mut bounded = Ledger::new(&graph, |buffer| buffer != RtBufferId::new(0));
    let kind = FaultKind::Overflow { level: 6, bound: 4 };
    assert_eq!(
        bounded.fire(&access, step(0, 2), step(1, 2), Some(&capacity)),
        Err(Fault { buffer: c, kind })
    );
    // The run left c above its initial level: not loopable.
    let kind = FaultKind::Unrestored {
        level: 6,
        initial: 0,
    };
    assert_eq!(run.restored(), Err(Fault { buffer: c, kind }));
}

#[test]
fn ledger_try_fire_needs_write_space_while_the_inputs_are_held() {
    // A self-loop at capacity: the accounting rule (read, then write)
    // would admit the firing, the engines' enabling rule does not.
    let graph = RtGraph {
        buffers: vec![RtBuffer {
            name: "state".into(),
            capacity: 1,
            initial_tokens: 1,
        }]
        .into(),
        ..RtGraph::default()
    };
    let state = RtBufferId::new(0);
    let access = vec![UnitAccess {
        reads: vec![(state, 1)],
        writes: vec![(state, 1)],
    }];
    let capacity = engine_capacities(&graph);
    let mut ledger = Ledger::new(&graph, |_| true);
    assert!(!ledger.try_fire(&access[0], &capacity));
    ledger
        .fire(&access, step(0, 1), step(0, 1), Some(&capacity))
        .expect("the replay rule admits it");
    // Untracked buffers are invisible: no space is needed in them.
    let mut blind = Ledger::new(&graph, |_| false);
    assert!(blind.try_fire(&access[0], &capacity));
    assert_eq!(blind.level(state), 1);
}

#[test]
fn collapsed_twin_matches_the_modal_period_flow() {
    // The collapsed (uniform) twin of a modal graph must carry the
    // exact per-buffer token flow of the modal schedule — the static
    // bridge that lets the value-free simulator oracle cover modal
    // programs.
    let graph = rtgraph::non_uniform_merge_demo();
    let plan = rtgraph::plan(&graph);
    let s = synthesize(&graph, &plan, 1, &fused(true)).unwrap();
    let info = modal_admission(&graph, &plan).unwrap().expect("modal");
    let collapsed = collapse_modal(&graph, &info);
    let cplan = rtgraph::plan(&collapsed);
    assert!(
        cplan.clusters.is_empty(),
        "the collapsed twin is uniform: {:?}",
        cplan.clusters
    );
    let cs = synthesize(&collapsed, &cplan, 1, &fused(true)).unwrap();
    assert!(cs.modes.is_none());
    let flow = |g: &RtGraph, sch: &StaticSchedule| -> BTreeMap<String, u64> {
        let access = row_access(g, &sch.units, None);
        let mut produced: BTreeMap<String, u64> = BTreeMap::new();
        for (u, a) in access.iter().enumerate() {
            for &(b, c) in &a.writes {
                *produced.entry(g.buffers[b].name.clone()).or_default() +=
                    sch.units[u].repetitions * c as u64;
            }
        }
        produced
    };
    assert_eq!(flow(&graph, &s), flow(&collapsed, &cs));
}

#[test]
fn fused_runs_reach_other_workers_only_at_their_ends() {
    let src = r#"
        mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
        mod seq Q(int m, out int b){ loop{ g(m:2, out b); } while(1); }
        mod par D(){
            fifo int mid;
            source int x = src() @ 2 kHz;
            sink int y = snk() @ 1 kHz;
            P(x, out mid) || Q(mid, out y)
        }
    "#;
    let mut registry = FunctionRegistry::new();
    for f in ["f", "g", "src", "snk"] {
        registry.register(FunctionSignature::pure(f, 1e-5));
    }
    let Executable {
        graph, schedule: s, ..
    } = build(src, &registry, 2, &fused(true)).unwrap();
    let access = row_access(&graph, &s.units, None);
    let crosses = |b: &RtBufferId| s.cross_buffers.contains(b);
    // The pipeline is one chain cut once: fusion runs up to the cut on both
    // sides, so the crossing buffer is a run's tail write and a run's head
    // read — and nothing else of a run ever crosses.
    let (mut written, mut read) = (0, 0);
    for item in s.fused_workers.iter().flatten() {
        let WorkItem::Fused(run) = item else { continue };
        assert!(!run.links.iter().any(crosses), "a link crosses: {run:?}");
        let last = run.stages.len() - 1;
        for (i, st) in run.stages.iter().enumerate() {
            let a = &access[st.unit as usize];
            let reads = a.reads.iter().filter(|(b, _)| crosses(b)).count();
            let writes = a.writes.iter().filter(|(b, _)| crosses(b)).count();
            assert!(
                reads == 0 || i == 0,
                "an inner stage reads a crossing buffer"
            );
            assert!(
                writes == 0 || i == last,
                "an inner stage writes a crossing buffer"
            );
            read += reads;
            written += writes;
        }
    }
    assert_eq!((s.cross_buffers.len(), written, read), (1, 1, 1));
    s.validate(&graph).unwrap();
}
