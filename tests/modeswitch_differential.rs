//! Differential verification of **per-mode quasi-static schedules with hot
//! mode switching** — the paper's SDR "user changes channels mid-stream"
//! scenario.
//!
//! `oil-compiler::schedule` admits a non-uniform modal cluster when its
//! token flow is mode-independent (union-advance: disjoint per-arm reads,
//! one shared write list) and synthesizes per-mode schedules whose
//! transitions are proven by exact integer replay across the switch seam
//! for every (mode, mode') pair. Clusters whose token flow is
//! **mode-dependent** (arms with differing write counts, overlapping
//! reads) get one repetition vector and firing order *per mode* plus a
//! verified drain/fill seam between every ordered pair; the dependent legs below hold
//! both engines to the same resolved mode plan, seam accounting included
//! (`mode_switches`, `transition_firings`). `oil-rt` then executes the same dispatch
//! in two unrelated ways — the static-order engine replays compiled firing
//! lists, the self-timed engine fires data-driven — and this harness holds
//! them to bit-identical value streams under adversarial mode scripts:
//! switches at the first and second firing, back-to-back, mid-period
//! (computed from the synthesised repetition count), mid-stream, and far
//! beyond the horizon, at 1/2/4 workers with fusion on and off.
//!
//! The calendar (`oil_sim::network`, with or without the reference
//! interpreter's kernel payload) has no notion of a mode, so its leg runs
//! on the **collapsed twin**: the modal cluster replaced by one union node
//! with identical token flow ([`collapse_modal`]). The collapsed twin's
//! trace must be the same with and without the kernel payload — which,
//! combined with the in-crate proof that the modal schedule moves exactly
//! the collapsed schedule's per-period token flow, closes the calendar →
//! interpreter → engines oracle chain.
//!
//! Every failure message quotes the reproducing generator and seed
//! (`ModalScenario::generate(seed)` or `ModeDependentScenario::generate(seed)`).

mod support;

use oil::compiler::rtgraph::{self, RtGraph, RtPlan};
use oil::compiler::schedule::{
    collapse_modal, modal_admission, synthesize, ModeScript, ScheduleError, StaticSchedule,
    UnitKind,
};
use oil::gen::{ModalScenario, ModeDependentScenario};
use oil::rt::{execute, KernelLibrary, RtConfig, SelfTimedReport, StaticConfig, StaticReport};
use oil::sim::{build_simulation_from_graph, picos, SimulationConfig};
use support::{
    assert_identical, assert_prefix, dependent, env, fusion, modal, replay, schedule,
    static_config, stressed,
};

const WORKERS: [usize; 3] = [1, 2, 4];
const DURATION_S: f64 = 0.25;

/// The adversarial scripts plus one switching exactly mid-period, derived
/// from the synthesised schedule's own repetition count.
fn scripts_for(scenario: &ModalScenario, schedule: &StaticSchedule) -> Vec<ModeScript> {
    let mut scripts = scenario.adversarial_scripts();
    let modes = schedule.modes.as_ref().expect("modal schedule");
    let reps = schedule.units[modes.unit as usize].repetitions;
    let last = (scenario.arms - 1) as u32;
    if reps >= 2 {
        // Mid-period: the switch lands strictly inside a replayed period,
        // then switches back inside the next one.
        scripts.push(ModeScript::new(
            0,
            vec![(reps / 2, last), (reps + reps / 2, 0)],
        ));
    }
    scripts
}

/// The scripted self-timed reference: one thread, 4 warm-up samples.
fn reference(graph: &RtGraph, plan: &RtPlan, script: &ModeScript) -> SelfTimedReport {
    let config = support::selftimed_config(1);
    support::selftimed(graph, plan, DURATION_S, Some(script), &config)
}

/// A scripted static replay over [`DURATION_S`].
fn scripted(graph: &RtGraph, schedule: &StaticSchedule, script: &ModeScript) -> StaticReport {
    replay(graph, schedule, DURATION_S, Some(script), &static_config())
}

#[test]
fn scripted_static_replay_matches_scripted_selftimed_on_the_modal_corpus() {
    let mut reference_switches_total = 0u64;
    for (at, scenario) in modal(stressed(24, 48)) {
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        let schedules = WORKERS.map(|w| schedule(&at, graph, w, &env().synthesis));
        for script in scripts_for(&scenario, &schedules[0]) {
            let at = format!("{at} under {script:?}");
            let reference = reference(graph, &plan, &script);
            assert!(!reference.deadlocked, "{at}: scripted reference deadlocked");
            reference_switches_total += reference.mode_switches;

            let mut baseline: Option<StaticReport> = None;
            for (schedule, w) in schedules.iter().zip(WORKERS) {
                let report = scripted(graph, schedule, &script);
                let at = format!("{at} at {w} worker(s)");
                // Prefix oracle on every buffer: the static replay covers at
                // least the self-timed sample budget, and both engines
                // dispatch the identical scripted arm per firing index.
                assert_prefix(&at, &reference, &report);
                // The static replay runs to the end of its covering period,
                // so it can only observe *more* scripted switches, never
                // fewer or different ones.
                assert!(
                    report.mode_switches >= reference.mode_switches,
                    "{at}: static replay lost mode switches ({} < {})",
                    report.mode_switches,
                    reference.mode_switches
                );
                match &baseline {
                    None => baseline = Some(report),
                    Some(base) => {
                        assert_identical(&format!("{at} vs {}", base.threads), base, &report);
                        let switches = (base.mode_switches, report.mode_switches);
                        assert_eq!(switches.0, switches.1, "{at}: switches depend on workers");
                    }
                }
            }
        }
    }
    assert!(
        reference_switches_total > 0,
        "no script ever switched inside the horizon — the differential would be vacuous"
    );
}

#[test]
fn fusion_on_and_off_replay_identical_modal_streams() {
    // Union-advance modal units are excluded from fusion, but the rest of
    // the graph still fuses; switching mid-stream must not observe the
    // difference.
    for (at, scenario) in modal(8) {
        let graph = &scenario.graph;
        for w in WORKERS {
            let fused = schedule(&at, graph, w, &fusion(true));
            let plain = schedule(&at, graph, w, &fusion(false));
            assert_eq!(fused.period, plain.period, "{at}");
            for script in scripts_for(&scenario, &fused).into_iter().take(4) {
                let at = format!("{at} at {w} worker(s) under {script:?}: fusion on vs off");
                let (a, b) = (
                    scripted(graph, &fused, &script),
                    scripted(graph, &plain, &script),
                );
                assert_identical(&at, &a, &b);
                assert_eq!(a.mode_switches, b.mode_switches, "{at}");
            }
        }
    }

    // Every row of a mode-dependent table fuses on its own — the modal unit
    // with it — and runs of same-mode periods execute in batches. For every
    // ordered mode pair: a switch point on a period boundary and one firing
    // either side of it, then two periods later (a run shorter than any
    // batch) the switch back, into a run many batches long.
    let (mut fused_runs, mut batched_rows) = (0u32, 0usize);
    for (at, scenario) in dependent(6) {
        let graph = &scenario.graph;
        for w in WORKERS {
            let fused = schedule(&at, graph, w, &fusion(true));
            let plain = schedule(&at, graph, w, &fusion(false));
            let modes = fused.modes.as_ref().expect("modal");
            let dep = modes.dependent.as_ref().expect("mode-dependent");
            let unfused = plain.modes.as_ref().and_then(|m| m.dependent.as_ref());
            assert_eq!(Some(&dep.periods), unfused.map(|d| &d.periods), "{at}");
            assert_eq!(plain.fusion.runs_fused, 0, "{at}");
            fused_runs += fused.fusion.runs_fused;
            batched_rows += dep.batch.iter().filter(|&&b| b > 1).count();
            let per_period = |mode: u32| dep.reps[mode as usize][modes.unit as usize];
            let arms = scenario.arms as u32;
            let pairs = (0..arms).flat_map(|from| (0..arms).map(move |to| (from, to)));
            for (i, (from, to)) in pairs.filter(|(from, to)| from != to).enumerate() {
                let boundary = 3 * per_period(from);
                for at_firing in [boundary - 1, boundary, boundary + 1] {
                    let back = at_firing.next_multiple_of(per_period(from)) + 2 * per_period(to);
                    let script = ModeScript::new(from, vec![(at_firing, to), (back, from)]);
                    let trace = (i + at_firing as usize).is_multiple_of(2);
                    let config = StaticConfig {
                        trace,
                        ..static_config()
                    };
                    let a = replay(graph, &fused, DURATION_S, Some(&script), &config);
                    let b = replay(graph, &plain, DURATION_S, Some(&script), &config);
                    let what = format!("{at}, {w} worker(s), trace={trace}, {script:?}");
                    assert_identical(&format!("{what}: fusion on vs off"), &a, &b);
                    assert_eq!(a.tokens, b.tokens, "{what}");
                    assert_eq!(a.iterations, b.iterations, "{what}");
                    let seams = |r: &StaticReport| (r.mode_switches, r.transition_firings);
                    assert_eq!(seams(&a), seams(&b), "{what}");
                    assert_eq!(a.mode_switches, 2, "{what}");
                }
            }
        }
    }
    assert!(
        fused_runs > 0 && batched_rows > 0,
        "no mode row fused ({fused_runs} runs) or batched ({batched_rows} rows) — the \
         differential would be vacuous"
    );
}

#[test]
fn collapsed_twin_trace_matches_the_simulator() {
    // The calendar cannot run the modal graph itself. Its twin with the
    // cluster collapsed to one union node has the *identical per-buffer
    // token flow* (proven by exact integer replay in `oil-compiler`'s unit
    // tests) and is a plain KPN graph: its trace must be the same with and
    // without the kernel payload.
    for (at, scenario) in modal(8) {
        let plan = rtgraph::plan(&scenario.graph);
        let info = modal_admission(&scenario.graph, &plan)
            .unwrap_or_else(|e| panic!("{at}: {e}"))
            .unwrap_or_else(|| panic!("{at}: no modal cluster"));
        let collapsed = collapse_modal(&scenario.graph, &info);
        let mut net = build_simulation_from_graph(&collapsed);
        let (_, sim_trace) = net.run_traced(picos(0.05), &SimulationConfig::default());
        let lib = KernelLibrary::new();
        let report = execute(&collapsed, &lib, picos(0.05), &RtConfig::default());
        assert_eq!(
            report.trace.first_divergence(&sim_trace),
            None,
            "{at}: the kernel payload moved the collapsed twin's trace"
        );
    }
}

#[test]
fn transitions_are_admitted_for_every_mode_pair() {
    for (at, scenario) in modal(stressed(24, 48)) {
        for w in WORKERS {
            let at = format!("{at} at {w} worker(s)");
            let schedule = schedule(&at, &scenario.graph, w, &env().synthesis);
            let modes = schedule.modes.as_ref().unwrap_or_else(|| {
                panic!("{at}: admissible modal cluster got no per-mode schedules")
            });
            assert_eq!(modes.arms.len(), scenario.arms, "{at}");
            schedule
                .validate_transitions(&scenario.graph)
                .unwrap_or_else(|e| panic!("{at}: transition admission failed: {e}"));
            // Per-mode digests identify the dispatched arm: all distinct.
            let arms = 0..modes.arms.len() as u32;
            let digests: Vec<u64> = arms.map(|a| schedule.digest_mode(a)).collect();
            let distinct: std::collections::BTreeSet<_> = digests.iter().collect();
            let collide = distinct.len() < digests.len();
            assert!(!collide, "{at}: per-mode digests collide: {digests:x?}");
        }
    }
}

#[test]
fn rejected_programs_fall_back_to_selftimed_and_say_so() {
    // Write-divergent clusters are mode-dependent admissible; the shape
    // that remains inadmissible is an arm *reading* a buffer some arm
    // writes — the merge order is then data-dependent and synthesis must
    // still reject it, naming the members, and the caller must fall back
    // to the self-timed engine *and report the engine actually used*
    // (oil-bench fails its smoke run on a silent fallback).
    let mut graph = rtgraph::non_uniform_merge_demo();
    let n1 = graph.nodes.indices().nth(1).expect("demo has three nodes");
    let t = graph.nodes[n1].writes[0].0;
    graph.nodes[n1].reads.push((t, 1));
    let plan = rtgraph::plan(&graph);
    // The call-site pattern bench and examples use: requested staticsched,
    // got selftimed — recorded, not swallowed.
    let requested = "staticsched";
    let synthesized = synthesize(&graph, &plan, 2, &env().synthesis);
    let engine_actual = match synthesized {
        Ok(_) => requested,
        Err(_) => "selftimed",
    };
    let err = synthesized
        .expect_err("an arm reading a modal-written buffer admits no per-mode schedules");
    match &err {
        ScheduleError::NonUniformCluster { members, .. } => {
            assert!(
                members.iter().any(|m| m == "n0") && members.iter().any(|m| m == "n1"),
                "the diagnosis must name the cluster members: {members:?}"
            );
        }
        other => panic!("expected NonUniformCluster, got {other}"),
    }
    let display = err.to_string();
    assert!(
        display.contains("n0") && display.contains("n1"),
        "Display must name the members for corpus triage: {display}"
    );

    assert_eq!(engine_actual, "selftimed");
    let config = support::selftimed_config(2);
    let report = support::selftimed(&graph, &plan, 0.05, None, &config);
    assert!(!report.deadlocked, "the fallback engine must still run");
    assert_eq!(report.mode_switches, 0, "unscripted runs never switch");
    assert_ne!(
        engine_actual, requested,
        "this divergence is exactly what BENCH_runtime.json rows now record"
    );
}

// ---------------------------------------------------------------------------
// Mode-dependent token flow: per-mode repetition vectors + drain/fill seams.
// ---------------------------------------------------------------------------

/// The family's adversarial scripts plus one script per ordered mode pair,
/// so every (from, to) seam is crossed mid-horizon by at least one run.
fn dependent_scripts(scenario: &ModeDependentScenario) -> Vec<ModeScript> {
    let mut scripts = scenario.adversarial_scripts();
    for from in 0..scenario.arms as u32 {
        for to in 0..scenario.arms as u32 {
            if from != to {
                scripts.push(ModeScript::new(from, vec![(7, to)]));
            }
        }
    }
    scripts
}

#[test]
fn mode_dependent_static_replay_matches_scripted_selftimed() {
    // Arms with differing write counts synthesize one schedule per mode
    // plus verified drain/fill seams, and the static replay of that plan
    // is bit-identical to the data-driven scripted self-timed engine — at
    // 1/2/4 workers, fusion on and off, across every ordered mode pair.
    let mut seam_crossings = 0u64;
    for (at, scenario) in dependent(stressed(16, 32)) {
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        let schedules: Vec<(String, StaticSchedule)> = (WORKERS.iter())
            .flat_map(|&w| [(w, true), (w, false)])
            .map(|(w, fuse)| {
                let at = format!("{at} at {w} worker(s), fusion={fuse}");
                let s = schedule(&at, graph, w, &fusion(fuse));
                let dependent = s.modes.as_ref().and_then(|m| m.dependent.as_ref());
                assert!(dependent.is_some(), "{at}: no per-mode schedules");
                s.validate_transitions(graph)
                    .unwrap_or_else(|e| panic!("{at}: transition admission failed: {e}"));
                (at, s)
            })
            .collect();
        for script in dependent_scripts(&scenario) {
            let reference = reference(graph, &plan, &script);
            assert!(
                !reference.deadlocked,
                "{at}: reference deadlocked under {script:?}"
            );
            seam_crossings += reference.mode_switches;
            for (at, schedule) in &schedules {
                let at = format!("{at} under {script:?}");
                let report = scripted(graph, schedule, &script);
                assert_prefix(&at, &reference, &report);
                // Both engines walk the same resolved mode plan, so the
                // switch count and the seam accounting agree exactly.
                assert_eq!(
                    (report.mode_switches, report.transition_firings),
                    (reference.mode_switches, reference.transition_firings),
                    "{at}: mode switches or transition firings diverge"
                );
                assert_eq!(report.node_firings, reference.node_firings, "{at}");
                assert_eq!(report.sources, reference.sources, "{at}");
            }
        }
    }
    assert!(
        seam_crossings > 0,
        "no script ever crossed a mode seam — the differential would be vacuous"
    );
}

#[test]
fn a_mode_dependent_fan_out_source_stays_one_unit() {
    // Sources split into one unit per reader everywhere except under a
    // mode-dependent cluster: its per-mode rates and the self-timed
    // engine's source caps count tokens per source, and replicas in
    // different components would need different counts. A second reader of
    // arm 0's source (a sink tapping it at the source's own rate) leaves
    // the source one unit, and the static replay still matches the
    // scripted self-timed engine.
    let mut tapped_samples = 0;
    for (at, mut scenario) in dependent(4) {
        let graph = &mut scenario.graph;
        let tapped = (graph.sources.indices())
            .find(|&s| graph.sources[s].name == "s0")
            .expect("arm 0 has a source");
        let tap = graph.buffers.push(rtgraph::RtBuffer {
            name: "tap".into(),
            capacity: 4,
            initial_tokens: 0,
        });
        graph.sources[tapped].outputs.push(tap);
        graph.sinks.push(rtgraph::RtSink {
            name: "tap_sink".into(),
            function: "snk".into(),
            input: tap,
            period: graph.sources[tapped].period,
        });
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        let one_each: Vec<_> = graph.sources.indices().map(|s| (s, None)).collect();
        let mut schedules = Vec::new();
        for w in WORKERS {
            for fuse in [true, false] {
                let at = format!("{at} at {w} worker(s), fusion={fuse}");
                let schedule = schedule(&at, graph, w, &fusion(fuse));
                let modes = schedule.modes.as_ref().expect("modal");
                assert!(modes.dependent.is_some(), "{at}");
                let sources = schedule.units.iter().filter_map(|u| match u.kind {
                    UnitKind::Source { source, replica } => Some((source, replica)),
                    _ => None,
                });
                assert_eq!(sources.collect::<Vec<_>>(), one_each, "{at}");
                schedules.push((at, schedule));
            }
        }
        for script in scenario.adversarial_scripts() {
            let reference = reference(graph, &plan, &script);
            assert!(!reference.deadlocked, "{at} under {script:?}");
            for (at, schedule) in &schedules {
                let at = format!("{at} under {script:?}");
                let report = scripted(graph, schedule, &script);
                assert_prefix(&at, &reference, &report);
                assert_eq!(report.sources, reference.sources, "{at}");
                tapped_samples += report.sink_values("tap_sink").map_or(0, <[f64]>::len);
            }
        }
    }
    assert!(tapped_samples > 0, "the tap never drained a sample");
}

#[test]
fn observed_seam_latency_stays_within_the_proven_bound() {
    // Closing the loop between the static proof and the runtime
    // measurement: synthesis proves a virtual-time bound on every
    // drain/fill seam (`seam_latency_max`, by exact replay of each mode
    // pair), and the tracer measures each seam's wall-clock span. The two
    // are not the same currency — the seam's firings pay wall-clock
    // scheduling and instrumentation overhead the virtual model does not
    // price, and the OS can preempt mid-span — so the closure is
    // order-of-magnitude, not cycle-exact: the *best of a few attempts*
    // (transient preemption dies under a min) must stay within the proven
    // bound plus a fixed overhead allowance, on runs that beat real time.
    // A stuck drain, a lost wake-up or a seam replaying the wrong mode
    // pair overshoots by milliseconds and still fails loudly.
    const SEAM_ATTEMPTS: usize = 3;
    // Per-seam wall overhead on top of the virtual-time bound: a handful
    // of unfused step-by-step firings each costing clock reads, event
    // records and (in debug builds) unoptimised kernel dispatch.
    const SEAM_OVERHEAD_NS: f64 = 250_000.0;
    let mut checked = 0u64;
    for (at, scenario) in dependent(stressed(16, 32)) {
        let graph = &scenario.graph;
        for workers in [1, 2] {
            let at = format!("{at} at {workers} worker(s)");
            let schedule = schedule(&at, graph, workers, &env().synthesis);
            let bound_ns = schedule
                .modes
                .as_ref()
                .and_then(|m| m.dependent.as_ref())
                .map(|d| d.seam_latency_max.to_f64() * 1e9)
                .unwrap_or_else(|| panic!("{at}: no mode-dependent seam proof"));
            for script in dependent_scripts(&scenario) {
                let mut best: Option<u64> = None;
                for _ in 0..SEAM_ATTEMPTS {
                    let config = StaticConfig {
                        trace: true,
                        ..static_config()
                    };
                    let report = replay(graph, &schedule, DURATION_S, Some(&script), &config);
                    let tr = report.trace_report.as_ref().expect("tracing was enabled");
                    let observed_ns = tr.seam_latency_observed_ns();
                    // Real-time guard: on an overloaded host the whole run
                    // can fall behind its virtual horizon, and a wall-clock
                    // span then says nothing about the virtual-time proof.
                    if report.wall.as_secs_f64() > DURATION_S || observed_ns == 0 {
                        continue;
                    }
                    best = Some(best.map_or(observed_ns, |b| b.min(observed_ns)));
                    if (observed_ns as f64) <= bound_ns + SEAM_OVERHEAD_NS {
                        break;
                    }
                }
                let Some(observed_ns) = best else {
                    continue;
                };
                checked += 1;
                assert!(
                    observed_ns as f64 <= bound_ns + SEAM_OVERHEAD_NS,
                    "{at} under {script:?}: best-of-{SEAM_ATTEMPTS} observed seam span \
                     {observed_ns} ns exceeds the proven seam_latency_max {bound_ns:.0} ns \
                     + {SEAM_OVERHEAD_NS:.0} ns overhead allowance"
                );
            }
        }
    }
    assert!(
        checked > 0,
        "no traced run ever crossed a seam faster than real time — the \
         seam-latency closure would be vacuous"
    );
}

#[test]
fn past_horizon_switches_are_no_ops_on_both_engines() {
    // `ModeScript::new(0, vec![(1_000_000, last)])` never reaches its
    // switch point inside the horizon: both engines must report
    // `mode_switches == 0` and stream bit-identical to the constant
    // initial-arm script — for union-advance *and* mode-dependent
    // clusters.
    let union_advance = modal(4).map(|(at, s)| (at, s.graph, s.arms));
    let cases = union_advance.chain(dependent(4).map(|(at, s)| (at, s.graph, s.arms)));
    for (at, graph, arms) in cases {
        let plan = rtgraph::plan(&graph);
        let ghost = ModeScript::new(0, vec![(1_000_000, (arms - 1) as u32)]);
        let constant = ModeScript::constant(0);

        let (st_ghost, st_const) = (
            reference(&graph, &plan, &ghost),
            reference(&graph, &plan, &constant),
        );
        assert_eq!(st_ghost.mode_switches, 0, "{at}: self-timed switched");
        assert_eq!(st_ghost.transition_firings, 0, "{at}");
        assert_identical(
            &format!("{at}: self-timed, past-horizon vs constant"),
            &st_ghost,
            &st_const,
        );

        let schedule = schedule(&at, &graph, 2, &env().synthesis);
        let (sr_ghost, sr_const) = (
            scripted(&graph, &schedule, &ghost),
            scripted(&graph, &schedule, &constant),
        );
        assert_eq!(sr_ghost.mode_switches, 0, "{at}: static replay switched");
        assert_eq!(sr_ghost.transition_firings, 0, "{at}");
        assert_identical(
            &format!("{at}: static, past-horizon vs constant"),
            &sr_ghost,
            &sr_const,
        );
    }
}
