//! Schedule synthesis through the public API only
//! (`oil::compiler::schedule`): unit structure, repetition vectors,
//! partitioning, modal admission in both shapes, mode scripts and plans,
//! covering iterations, digests and the fusion pass. These were
//! `oil-compiler` unit tests; living here, the tier-1 command runs them.
//! Tests that need the module's private items stay in
//! `crates/oil-compiler/src/schedule/tests.rs`.

mod support;

use oil::compiler::rtgraph::{self, RtGraph};
use oil::compiler::schedule::{
    modal_admission, parse_fusion, plan_mode_sequence, synthesize, FusionStats, ModeDependentRates,
    ModeScript, ScheduleError, StaticSchedule, Step, SynthesisConfig, UnitKind, WorkItem,
};
use oil::dataflow::index::Idx;
use oil::dataflow::Rational;
use support::{fusion, schedule, PIPELINE};

fn synth_with(src: &str, workers: usize, fuse: bool) -> (RtGraph, StaticSchedule) {
    let registry = support::pure(&["f", "g", "init", "src", "snk"], 1e-5);
    let exe = oil::build(src, &registry, workers, &fusion(fuse)).expect("schedulable");
    (exe.graph, exe.schedule)
}

// Fusion forced on so the tests are deterministic under the CI
// fusion-off (`OIL_RT_FUSION=0`) leg.
fn synth(src: &str, workers: usize) -> (RtGraph, StaticSchedule) {
    synth_with(src, workers, true)
}

#[test]
fn one_period_fires_the_repetition_vector_and_loops() {
    let (graph, s) = synth(PIPELINE, 1);
    // P fires 2× per Q firing; source 2 samples, sink 1 drain.
    let reps: Vec<u64> = s.units.iter().map(|u| u.repetitions).collect();
    assert_eq!(reps, vec![2, 1, 2, 1], "{:?}", s.units);
    assert_eq!(s.period_firings(), 6);
    assert_eq!(s.components, 1);
    s.validate(&graph).expect("admitted schedules re-validate");
}

#[test]
fn single_worker_schedules_have_no_crossings() {
    let (_, s) = synth(PIPELINE, 1);
    assert_eq!(s.worker_count(), 1);
    assert!(s.cross_buffers.is_empty());
}

#[test]
fn split_pipelines_cross_at_stage_boundaries() {
    let (_, s) = synth(PIPELINE, 2);
    assert_eq!(s.worker_count(), 2);
    // A 4-unit chain (source → P → Q → sink) cut once: exactly one or
    // two buffers cross (the cut buffer; the source/sink conduits stay
    // with their stage).
    assert!(
        !s.cross_buffers.is_empty() && s.cross_buffers.len() <= 2,
        "{:?}",
        s.cross_buffers
    );
    // Both workers have work.
    assert!(s.workers.iter().all(|w| !w.is_empty()));
}

#[test]
fn independent_chains_stay_whole_per_worker() {
    let src = r#"
        mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x0 = src() @ 1 kHz;
            sink int y0 = snk() @ 1 kHz;
            source int x1 = src() @ 1 kHz;
            sink int y1 = snk() @ 1 kHz;
            S(x0, out y0) || S(x1, out y1)
        }
    "#;
    let (_, s) = synth(src, 2);
    assert_eq!(s.components, 2);
    assert_eq!(s.worker_count(), 2);
    assert!(
        s.cross_buffers.is_empty(),
        "independent components must not cross: {:?}",
        s.cross_buffers
    );
}

#[test]
fn uniform_modal_clusters_collapse_to_quasi_static_units() {
    let src = r#"
        mod seq S(int a, out int b){
            loop{ if(...){ t = f(a:2); } else { t = g(a:2); } init(t, out b); } while(1);
        }
        mod par D(){
            source int x = src() @ 2 kHz;
            sink int y = snk() @ 1 kHz;
            S(x, out y)
        }
    "#;
    let (graph, s) = synth(src, 2);
    let cluster = s
        .units
        .iter()
        .find_map(|u| match &u.kind {
            UnitKind::Cluster {
                representative,
                members,
            } => Some((*representative, members.clone())),
            _ => None,
        })
        .expect("the modal twins form one quasi-static unit");
    assert_eq!(cluster.1.len(), 2);
    assert_eq!(cluster.0, cluster.1[0], "lowest id is the representative");
    s.validate(&graph).unwrap();
}

#[test]
fn non_uniform_modal_demo_synthesizes_per_mode_schedules() {
    // The demo's merge twins share one write list and read disjoint
    // buffers — exactly the union-advance shape, so synthesis admits
    // them as a modal unit instead of rejecting.
    let graph = rtgraph::non_uniform_merge_demo();
    let s = schedule("the merge demo", &graph, 2, &fusion(true));
    let modes = s.modes.as_ref().expect("a modal schedule");
    assert_eq!(modes.arms.len(), 2);
    assert_eq!(modes.arm_names.len(), 2);
    assert!(matches!(
        &s.units[modes.unit as usize].kind,
        UnitKind::Modal { members } if members == &modes.arms
    ));
    // Per-mode digests differ (the corpus distinguishes arms) while
    // the structural digest is shared.
    assert_ne!(s.digest_mode(0), s.digest_mode(1));
    s.validate(&graph).expect("steady state re-validates");
    s.validate_transitions(&graph)
        .expect("every (mode, mode') seam re-validates");
    // The modal unit never lands inside a fused run.
    for items in &s.fused_workers {
        for item in items {
            if let WorkItem::Fused(run) = item {
                assert!(run.stages.iter().all(|st| st.unit != modes.unit));
            }
        }
    }
}

/// The demo with its second twin writing two tokens per firing: the
/// arms diverge in write counts, so union-advance no longer applies and
/// admission must go mode-dependent.
fn write_divergent_demo() -> RtGraph {
    let mut graph = rtgraph::non_uniform_merge_demo();
    let n1 = graph.nodes.indices().nth(1).unwrap();
    graph.nodes[n1].writes[0].1 = 2;
    graph
}

#[test]
fn write_divergent_arms_synthesize_per_mode_schedules() {
    // PR 7 rejected this shape (divergent write lists break the
    // union-advance argument); per-mode synthesis now admits it with
    // one repetition vector and period per mode.
    let graph = write_divergent_demo();
    let s = schedule("write-divergent", &graph, 2, &SynthesisConfig::default());
    let modes = s.modes.as_ref().expect("a modal schedule");
    let dep = modes.dependent.as_ref().expect("mode-dependent tables");
    // Unit order: modal {n0, n1}, n2, source a, source b, sink. Mode 0
    // fires n0 (one token into t) and gates source b; mode 1 fires n1
    // (two tokens into t), so n2 and the sink run twice and source a
    // gates. Hand-solved balance equations.
    assert_eq!(dep.reps, vec![vec![1, 1, 1, 0, 1], vec![1, 2, 0, 1, 2]]);
    assert!(dep.seam_latency_max > Rational::ZERO);
    s.validate(&graph)
        .expect("per-mode steady state re-validates");
    s.validate_transitions(&graph)
        .expect("every (mode, mode') seam re-validates");
    // The corpus distinguishes modes and seams.
    assert_ne!(s.digest_mode(0), s.digest_mode(1));
    assert_ne!(s.digest_transition(0, 1), s.digest_transition(1, 0));
    // Fusion rewrites each mode's worker lists and nothing else of the
    // table; off, the lists are the plain projections and the schedule
    // digests as it did before rows could fuse.
    let off = schedule("write-divergent", &graph, 2, &fusion(false));
    let on = schedule("write-divergent", &graph, 2, &fusion(true));
    assert_eq!(on, s);
    let off_dep = off.modes.as_ref().unwrap().dependent.as_ref().unwrap();
    assert_eq!((&on.period, &on.workers), (&off.period, &off.workers));
    assert_eq!((&dep.reps, &dep.periods), (&off_dep.reps, &off_dep.periods));
    assert_eq!(dep.steps, off_dep.steps);
    assert_eq!(off.fusion, FusionStats::default());
    assert_eq!(off_dep.batch, [1, 1]);
    let plain = |steps: &[Step]| steps.iter().map(|&s| WorkItem::Step(s)).collect::<Vec<_>>();
    for (lists, steps) in off_dep.fused.iter().zip(&off_dep.steps) {
        let projected: Vec<_> = steps.iter().map(|w| plain(w)).collect();
        assert_eq!(*lists, projected);
    }
    assert_eq!(off.digest(), 0x9a0d_6a60_e8d5_dae5, "the parent's digest");
    // Mode 0 chains source a into the modal unit and n2 into the sink;
    // mode 1's worker 1 interleaves source b, so nothing chains there.
    assert_eq!(on.fusion.runs_fused, 2);
    assert_eq!(on.fused_workers, dep.fused[0]);
    assert!(dep.batch.iter().all(|&b| b > 1), "{:?}", dep.batch);
}

#[test]
fn shared_read_arms_synthesize_per_mode_schedules() {
    // The second twin also reads the first twin's input buffer:
    // overlapping read sets break union-advance (the union would steal
    // the other arm's tokens) but each mode is individually consistent.
    let mut graph = rtgraph::non_uniform_merge_demo();
    let n0 = graph.nodes.indices().next().unwrap();
    let n1 = graph.nodes.indices().nth(1).unwrap();
    let shared = graph.nodes[n0].reads[0];
    graph.nodes[n1].reads.push(shared);
    let plan = rtgraph::plan(&graph);
    let info = modal_admission(&graph, &plan).unwrap().expect("modal");
    assert!(info.mode_dependent);
    let s = schedule("shared-read", &graph, 2, &SynthesisConfig::default());
    let dep = s.modes.as_ref().unwrap().dependent.as_ref().unwrap();
    // Mode 1 consumes both inputs, so *no* source gates there; mode 0
    // still gates source b.
    assert_eq!(dep.reps[0], vec![1, 1, 1, 0, 1]);
    assert_eq!(dep.reps[1], vec![1, 1, 1, 1, 1]);
    s.validate_transitions(&graph).unwrap();
}

#[test]
fn arm_reading_a_modal_written_buffer_is_rejected() {
    // An arm reading a buffer any arm writes stays inadmissible even
    // under per-mode synthesis: the only producer such a buffer could
    // have is the modal unit itself, so the reading mode would either
    // self-loop or starve.
    let mut graph = rtgraph::non_uniform_merge_demo();
    let n1 = graph.nodes.indices().nth(1).unwrap();
    let written = graph.nodes[n1].writes[0].0;
    graph.nodes[n1].reads.push((written, 1));
    let plan = rtgraph::plan(&graph);
    match synthesize(&graph, &plan, 2, &SynthesisConfig::default()) {
        Err(ScheduleError::NonUniformCluster { cluster, members }) => {
            assert_eq!(cluster, 0);
            // Reading `t` makes it contested, so clustering also pulls
            // its other consumer in; the reporting names every member.
            assert!(
                members.contains(&graph.nodes[n1].name),
                "member names are reported: {members:?}"
            );
            let rendered = ScheduleError::NonUniformCluster { cluster, members }.to_string();
            assert!(
                rendered.contains(&graph.nodes[n1].name),
                "display names the members: {rendered}"
            );
        }
        other => panic!("expected a NonUniformCluster rejection, got {other:?}"),
    }
}

#[test]
fn seam_latency_bound_is_enforced_per_pair() {
    let graph = write_divergent_demo();
    let plan = rtgraph::plan(&graph);
    let free = schedule("write-divergent", &graph, 2, &SynthesisConfig::default());
    let worst = free
        .modes
        .as_ref()
        .unwrap()
        .dependent
        .as_ref()
        .unwrap()
        .seam_latency_max;
    // A bound at exactly the worst seam is feasible (exact rational
    // arithmetic, no tolerance)...
    let bound = SynthesisConfig {
        seam_latency_bound: Some(worst),
        ..SynthesisConfig::default()
    };
    let ok = schedule("write-divergent, bounded", &graph, 2, &bound);
    let dep = ok.modes.as_ref().unwrap().dependent.as_ref().unwrap();
    assert_eq!(dep.seam_latency_bound, Some(worst));
    assert_eq!(dep.seam_latency_max, worst);
    // ...while any tighter bound is a SeamLatency rejection that names
    // the violated pair and both figures.
    let tighter = worst * Rational::new(1, 2);
    match synthesize(
        &graph,
        &plan,
        2,
        &SynthesisConfig {
            seam_latency_bound: Some(tighter),
            ..SynthesisConfig::default()
        },
    ) {
        Err(ScheduleError::SeamLatency { latency, bound, .. }) => {
            assert_eq!(bound, tighter);
            assert!(latency > bound);
        }
        other => panic!("expected a SeamLatency rejection, got {other:?}"),
    }
}

#[test]
fn mode_script_normalizes_switch_points() {
    // Unsorted entries sort; duplicate firing indices keep the last
    // entry (later switches win, matching `arm_at`'s "last switch at or
    // before" semantics).
    let script = ModeScript::new(0, vec![(5, 2), (3, 1), (5, 9)]);
    assert_eq!(script.switches, vec![(3, 1), (5, 9)]);
    assert_eq!(script.arm_at(2), 0);
    assert_eq!(script.arm_at(3), 1);
    assert_eq!(script.arm_at(5), 9);
}

#[test]
fn mode_script_lookup_agrees_with_a_scan_on_a_dense_script() {
    // 10⁵ switch points, three firings apart, cycling seven arms. The
    // binary search must pick what "the last switch at or before the
    // firing" picks, at, between and beyond the switch points. (A linear
    // `arm_at` makes this loop 1.5·10¹⁰ steps.)
    const SWITCHES: u64 = 100_000;
    let points = (0..SWITCHES).map(|i| (10 + 3 * i, (i % 7) as u32 + 1));
    let script = ModeScript::new(0, points.rev().collect());
    assert!(script.switches.windows(2).all(|w| w[0].0 < w[1].0));
    let mut expected = script.initial;
    let mut next = 0usize;
    for firing in 0..3 * SWITCHES + 20 {
        if script.switches.get(next).is_some_and(|s| s.0 == firing) {
            expected = script.switches[next].1;
            next += 1;
        }
        assert_eq!(script.arm_at(firing), expected, "firing {firing}");
    }
    assert_eq!(next as u64, SWITCHES);
    assert_eq!(script.arm_at(u64::MAX), ((SWITCHES - 1) % 7) as u32 + 1);
}

#[test]
fn mode_script_validates_arm_indices() {
    assert!(ModeScript::new(0, vec![(3, 1)]).validate_arms(2).is_ok());
    let bad_initial = ModeScript::new(7, vec![]).validate_arms(2).unwrap_err();
    assert!(bad_initial.contains("selects arm 7"), "{bad_initial}");
    let bad_switch = ModeScript::new(0, vec![(3, 2)])
        .validate_arms(2)
        .unwrap_err();
    assert!(bad_switch.contains("arm 2"), "{bad_switch}");
}

#[test]
fn plan_mode_sequence_follows_the_script_at_period_boundaries() {
    let rates = ModeDependentRates {
        modal: vec![1, 1],
        sources: vec![vec![1, 0], vec![0, 1]],
        sinks: vec![vec![1], vec![2]],
    };
    // Switch at modal firing 2: two periods of mode 0, then mode 1
    // until source 1's budget drains.
    let script = ModeScript::new(0, vec![(2, 1)]);
    let plan = plan_mode_sequence(&rates, &script, |_| 5);
    assert_eq!(plan.runs, vec![(0, 2), (1, 5)]);
    assert_eq!(plan.modes().collect::<Vec<_>>(), [0, 0, 1, 1, 1, 1, 1]);
    assert_eq!(plan.periods(), 7);
    assert_eq!((plan.mode_switches, plan.transition_firings), (1, 0));
    assert_eq!(plan.produced, vec![2, 5]);
    assert_eq!(plan.drained, vec![2 + 5 * 2]);
    assert_eq!(plan.modal_firings, 7);
}

#[test]
fn plan_mode_sequence_past_horizon_never_switches() {
    // A switch point beyond the run's modal firings executes as the
    // constant-initial-arm run with zero switches (the satellite-3
    // regression at the planning layer).
    let rates = ModeDependentRates {
        modal: vec![1, 1],
        sources: vec![vec![1, 0], vec![0, 1]],
        sinks: vec![vec![1], vec![2]],
    };
    let script = ModeScript::new(0, vec![(1_000_000, 1)]);
    let plan = plan_mode_sequence(&rates, &script, |_| 3);
    let constant = plan_mode_sequence(&rates, &ModeScript::new(0, vec![]), |_| 3);
    assert_eq!(plan, constant);
    assert_eq!(plan.runs, vec![(0, 3)]);
    assert_eq!(plan.mode_switches, 0);
}

/// [`plan_mode_sequence`] by its definition: period by period, each modal
/// firing looked up in the script.
fn plan_by_definition(
    rates: &ModeDependentRates,
    script: &ModeScript,
    budgets: &[u64],
) -> (Vec<u32>, Vec<u64>, Vec<u64>, [u64; 3]) {
    let (mut modes, mut fired, mut switches, mut transition) = (Vec::new(), 0u64, 0u64, 0u64);
    let mut produced = vec![0u64; budgets.len()];
    let mut drained = vec![0u64; rates.sinks[0].len()];
    loop {
        let mode = script.arm_at(fired);
        let m = mode as usize;
        let feeds = |s: usize| produced[s] < budgets[s] && rates.sources[m][s] > 0;
        if !(0..budgets.len()).any(feeds) {
            break;
        }
        switches += modes.last().is_some_and(|&prev| prev != mode) as u64;
        modes.push(mode);
        for (p, rate) in produced.iter_mut().zip(&rates.sources[m]) {
            *p += rate;
        }
        for (d, rate) in drained.iter_mut().zip(&rates.sinks[m]) {
            *d += rate;
        }
        for _ in 0..rates.modal[m] {
            transition += (script.arm_at(fired) != mode) as u64;
            fired += 1;
        }
    }
    (modes, produced, drained, [fired, switches, transition])
}

#[test]
fn plan_mode_sequence_counts_equal_the_per_firing_definition() {
    // Periods of 1, 2 and 3 modal firings, so switch points land on period
    // boundaries, one firing either side of them and mid-period.
    let rates = ModeDependentRates {
        modal: vec![1, 2, 3],
        sources: vec![vec![1, 0, 0, 1], vec![0, 2, 0, 1], vec![0, 0, 3, 1]],
        sinks: vec![vec![2], vec![3], vec![4]],
    };
    let every_firing = |n: u64| (0..n).map(|i| (i, (i * 7 % 3) as u32)).collect::<Vec<_>>();
    let scripts = [
        ModeScript::constant(2),
        ModeScript::new(0, every_firing(400)),
        ModeScript::new(1, vec![(0, 2), (1, 0), (2, 1), (3, 1), (4, 2), (11, 0)]),
        ModeScript::new(2, vec![(5, 0), (6, 2), (7, 1), (8, 2), (9, 1), (10, 0)]),
        ModeScript::new(0, (0..60).map(|i| (i * i, (i % 3) as u32)).collect()),
        ModeScript::new(1, vec![(1_000_000, 0)]),
    ];
    for script in &scripts {
        for budgets in [[40, 40, 40, 100], [7, 0, 90, 30], [0, 0, 0, 0]] {
            let plan = plan_mode_sequence(&rates, script, |s| budgets[s.index()]);
            let (modes, produced, drained, counts) = plan_by_definition(&rates, script, &budgets);
            let what = format!("{script:?} under {budgets:?}");
            assert_eq!(plan.modes().collect::<Vec<_>>(), modes, "{what}");
            assert_eq!(plan.periods(), modes.len() as u64, "{what}");
            assert_eq!(
                (&plan.produced, &plan.drained),
                (&produced, &drained),
                "{what}"
            );
            let planned = [
                plan.modal_firings,
                plan.mode_switches,
                plan.transition_firings,
            ];
            assert_eq!(planned, counts, "{what}");
            assert!(plan.runs.iter().all(|r| r.1 > 0), "{what}");
            assert!(plan.runs.windows(2).all(|w| w[0].0 != w[1].0), "{what}");
        }
    }
    // A switch point at every modal firing, then a constant tail of 2^40
    // periods: the plan is one walk of the script plus one division per
    // run, not a step per period.
    let dense = ModeScript::new(0, (0..200_000).map(|i| (i, (i % 3) as u32)).collect());
    let plan = plan_mode_sequence(&rates, &dense, |_| 1 << 40);
    assert!(plan.mode_switches > 50_000 && plan.periods() >= 1 << 40);
    let &(last, tail) = plan.runs.last().expect("the run is not empty");
    assert!(last == 199_999 % 3 && tail > 1 << 39, "{last}: {tail}");
}

#[test]
fn parse_fusion_accepts_the_documented_values_only() {
    assert!(parse_fusion(""));
    assert!(parse_fusion("1"));
    assert!(!parse_fusion("0"));
    assert!(std::panic::catch_unwind(|| parse_fusion("yes")).is_err());
}

#[test]
fn covering_iterations_cover_the_source_budgets() {
    let (graph, s) = synth(PIPELINE, 1);
    // Source fires 2× per iteration; a 5-sample budget needs 3
    // iterations (⌈5/2⌉), covering 6 ≥ 5 samples.
    let iters = s.covering_iterations(&graph, |_| 5);
    assert_eq!(iters, vec![3]);
    assert_eq!(s.covering_iterations(&graph, |_| 0), vec![0]);
}

#[test]
fn covering_iterations_include_the_standing_stock_drain() {
    // An init prologue leaves standing tokens a level-preserving period
    // never consumes, but a data-driven engine drains at end of run —
    // the covering count must include the extra firings they enable.
    let src = r#"
        mod seq A(int a, out int b){ init(out b:4); loop{ f(a, out b); } while(1); }
        mod seq B(int a, out int b){ loop{ g(a:2, out b); } while(1); }
        mod par D(){
            fifo int z;
            source int x = src() @ 2 kHz;
            sink int y = snk() @ 1 kHz;
            A(x, out z) || B(z, out y)
        }
    "#;
    let (graph, s) = synth(src, 1);
    // Budget 10: A fires 10, z carries 4 + 10 = 14, B fires 7 — more
    // than the 5 source-covering iterations (q(B) = 1) alone would run.
    let iters = s.covering_iterations(&graph, |_| 10);
    let b_unit = s
        .units
        .iter()
        .position(|u| matches!(&u.kind, UnitKind::Node(id) if graph.nodes[*id].name.contains("B")))
        .expect("B's task is a unit");
    let fired_b = iters[s.units[b_unit].component as usize] * s.units[b_unit].repetitions;
    assert!(fired_b >= 7, "B must cover the stock drain: {fired_b}");
}

#[test]
fn digests_are_stable_and_sensitive_to_worker_count() {
    let (_, a1) = synth(PIPELINE, 1);
    let (_, b1) = synth(PIPELINE, 1);
    assert_eq!(a1.digest(), b1.digest());
    let (_, a2) = synth(PIPELINE, 2);
    assert_ne!(a1.digest(), a2.digest());
}

#[test]
fn fusion_merges_single_worker_pipelines() {
    let (graph, s) = synth(PIPELINE, 1);
    assert!(
        s.fusion.runs_fused >= 1,
        "a one-worker pipeline must fuse: {:?}",
        s.fused_workers
    );
    assert!(s.fusion.fused_chain_len_max >= 2);
    // Every firing of the projection is preserved across the rewrite.
    let fused_firings: u64 = s.fused_workers[0]
        .iter()
        .map(|i| match i {
            WorkItem::Step(st) => st.times as u64,
            WorkItem::Fused(run) => run.firings(),
        })
        .sum();
    assert_eq!(fused_firings, s.period_firings());
    s.validate(&graph).expect("fused schedules re-validate");
}

#[test]
fn fusion_off_leaves_the_projection_untouched() {
    let (graph, s) = synth_with(PIPELINE, 1, false);
    assert_eq!(s.fusion, FusionStats::default());
    let plain: Vec<Step> = s.fused_workers[0]
        .iter()
        .map(|i| match i {
            WorkItem::Step(st) => *st,
            WorkItem::Fused(_) => panic!("no fused runs with fusion off"),
        })
        .collect();
    assert_eq!(plain, s.workers[0]);
    s.validate(&graph).unwrap();
}

#[test]
fn fusion_changes_the_digest_but_not_the_period() {
    let (_, on) = synth(PIPELINE, 1);
    let (_, off) = synth_with(PIPELINE, 1, false);
    assert_eq!(on.period, off.period, "fusion must not alter the period");
    assert_eq!(on.workers, off.workers);
    assert_ne!(on.digest(), off.digest());
}

#[test]
fn whole_component_runs_are_batchable() {
    // A single linear chain on one worker fuses into one run covering
    // the whole component, which the executor may iterate back to back.
    let src = r#"
        mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            S(x, out y)
        }
    "#;
    let (graph, s) = synth(src, 1);
    let batched = s.fused_workers[0].iter().any(|i| match i {
        WorkItem::Fused(run) => run.batch,
        WorkItem::Step(_) => false,
    });
    assert!(
        batched,
        "a whole-component run must be batchable: {:?}",
        s.fused_workers
    );
    s.validate(&graph).unwrap();
}
