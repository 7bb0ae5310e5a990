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
//! The simulator is value-free (it traces token origins, not payloads), so
//! its leg runs on the **collapsed twin**: the modal cluster replaced by
//! one union node with identical token flow ([`collapse_modal`]). The
//! collapsed trace must be bit-identical between the simulator and the
//! reference interpreter — which, combined with the in-crate proof that
//! the modal schedule moves exactly the collapsed schedule's per-period
//! token flow, closes the simulator → interpreter → engines oracle chain.
//!
//! Every failure message quotes the reproducing seed
//! (`ModalScenario::generate(seed)`).

use oil::compiler::rtgraph;
use oil::compiler::schedule::{
    collapse_modal, modal_admission, synthesize, ModeScript, ScheduleError, StaticSchedule,
    SynthesisConfig, UnitKind,
};
use oil::gen::{ModalScenario, ModeDependentScenario};
use oil::rt::{
    execute, execute_selftimed, execute_selftimed_scripted, execute_staticsched_scripted,
    KernelLibrary, RtConfig, SelfTimedConfig, SelfTimedReport, StaticConfig, StaticReport,
};
use oil::sim::{build_simulation_from_graph, picos, SimulationConfig};

/// Synthesis with fusion pinned on or off (no seam bound, declared costs),
/// whatever the environment says.
fn fusion(on: bool) -> SynthesisConfig {
    SynthesisConfig {
        fusion: on,
        ..SynthesisConfig::default()
    }
}

fn stress() -> bool {
    std::env::var_os("OIL_RT_STRESS").is_some()
}

fn modal_seeds() -> u64 {
    if stress() {
        48
    } else {
        24
    }
}

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

fn scripted_static_run(
    graph: &rtgraph::RtGraph,
    schedule: &StaticSchedule,
    script: &ModeScript,
) -> StaticReport {
    traced_static_run(graph, schedule, script, false)
}

/// A scripted static replay recording every buffer's values, traced or not.
fn traced_static_run(
    graph: &rtgraph::RtGraph,
    schedule: &StaticSchedule,
    script: &ModeScript,
    trace: bool,
) -> StaticReport {
    execute_staticsched_scripted(
        graph,
        schedule,
        script,
        &KernelLibrary::new(),
        picos(DURATION_S),
        &StaticConfig {
            warmup_samples: 4,
            record_values: true,
            trace,
            ..StaticConfig::default()
        },
    )
}

#[test]
fn scripted_static_replay_matches_scripted_selftimed_on_the_modal_corpus() {
    let mut reference_switches_total = 0u64;
    for seed in 0..modal_seeds() {
        let scenario = ModalScenario::generate(seed);
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        let schedules: Vec<StaticSchedule> = WORKERS
            .iter()
            .map(|&w| {
                synthesize(graph, &plan, w, &SynthesisConfig::from_env()).unwrap_or_else(|e| {
                    panic!("seed {seed}: modal synthesis at {w} workers failed: {e}")
                })
            })
            .collect();
        for script in scripts_for(&scenario, &schedules[0]) {
            let reference = execute_selftimed_scripted(
                graph,
                &plan,
                &KernelLibrary::new(),
                picos(DURATION_S),
                &SelfTimedConfig {
                    threads: 1,
                    warmup_samples: 4,
                    ..SelfTimedConfig::default()
                },
                &script,
            );
            assert!(
                !reference.deadlocked,
                "seed {seed}: scripted self-timed reference deadlocked under {script:?}"
            );
            reference_switches_total += reference.mode_switches;

            let mut baseline: Option<StaticReport> = None;
            for (schedule, &w) in schedules.iter().zip(&WORKERS) {
                let report = scripted_static_run(graph, schedule, &script);
                // Prefix oracle on every buffer: the static replay covers at
                // least the self-timed sample budget, and both engines
                // dispatch the identical scripted arm per firing index.
                if let Some(d) = reference.values.prefix_divergence(&report.values) {
                    panic!(
                        "seed {seed}: scripted self-timed streams are not a prefix of \
                         the static replay at {w} worker(s) under {script:?}: {d}\n\
                         reproduce with ModalScenario::generate({seed})"
                    );
                }
                for (dy, st) in reference.sinks.iter().zip(&report.sinks) {
                    let shared = dy.values.len().min(st.values.len());
                    assert_eq!(
                        dy.values[..shared],
                        st.values[..shared],
                        "seed {seed}: sink `{}` diverges at {w} worker(s) under {script:?}",
                        dy.name
                    );
                }
                // The static replay runs to the end of its covering period,
                // so it can only observe *more* scripted switches, never
                // fewer or different ones.
                assert!(
                    report.mode_switches >= reference.mode_switches,
                    "seed {seed}: static replay lost mode switches at {w} worker(s) \
                     ({} < {}) under {script:?}",
                    report.mode_switches,
                    reference.mode_switches
                );
                match &baseline {
                    None => baseline = Some(report),
                    Some(base) => {
                        if let Some(d) = base.values.first_divergence(&report.values) {
                            panic!(
                                "seed {seed}: static replay differs between {} and {w} \
                                 worker(s) under {script:?}: {d}",
                                base.threads
                            );
                        }
                        assert_eq!(base.node_firings, report.node_firings, "seed {seed}");
                        assert_eq!(base.sources, report.sources, "seed {seed}");
                        assert_eq!(
                            base.mode_switches, report.mode_switches,
                            "seed {seed}: switch count depends on the worker count"
                        );
                        for (a, b) in base.sinks.iter().zip(&report.sinks) {
                            assert_eq!(a.consumed, b.consumed, "seed {seed}");
                            assert_eq!(a.values, b.values, "seed {seed}");
                        }
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
    for seed in 0..8 {
        let scenario = ModalScenario::generate(seed);
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        for &w in &WORKERS {
            let fused = synthesize(graph, &plan, w, &fusion(true))
                .unwrap_or_else(|e| panic!("seed {seed}: fused modal synthesis: {e}"));
            let plain = synthesize(graph, &plan, w, &fusion(false))
                .unwrap_or_else(|e| panic!("seed {seed}: unfused modal synthesis: {e}"));
            assert_eq!(fused.period, plain.period, "seed {seed}");
            for script in scripts_for(&scenario, &fused).into_iter().take(4) {
                let a = scripted_static_run(graph, &fused, &script);
                let b = scripted_static_run(graph, &plain, &script);
                if let Some(d) = a.values.first_divergence(&b.values) {
                    panic!(
                        "seed {seed}: fusion changed a modal value stream at {w} \
                         worker(s) under {script:?}: {d}"
                    );
                }
                assert_eq!(a.node_firings, b.node_firings, "seed {seed}");
                assert_eq!(a.mode_switches, b.mode_switches, "seed {seed}");
            }
        }
    }

    // Every row of a mode-dependent table fuses on its own — the modal unit
    // with it — and runs of same-mode periods execute in batches. For every
    // ordered mode pair: a switch point on a period boundary and one firing
    // either side of it, then two periods later (a run shorter than any
    // batch) the switch back, into a run many batches long.
    let (mut fused_runs, mut batched_rows) = (0u32, 0usize);
    for seed in 0..6 {
        let scenario = ModeDependentScenario::generate(seed);
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        for &w in &WORKERS {
            let fused = synthesize(graph, &plan, w, &fusion(true))
                .unwrap_or_else(|e| panic!("seed {seed}: fused mode-dependent synthesis: {e}"));
            let plain = synthesize(graph, &plan, w, &fusion(false))
                .unwrap_or_else(|e| panic!("seed {seed}: unfused mode-dependent synthesis: {e}"));
            let modes = fused.modes.as_ref().expect("modal");
            let dep = modes.dependent.as_ref().expect("mode-dependent");
            let unfused = plain.modes.as_ref().and_then(|m| m.dependent.as_ref());
            assert_eq!(
                Some(&dep.periods),
                unfused.map(|d| &d.periods),
                "seed {seed}"
            );
            assert_eq!(plain.fusion.runs_fused, 0, "seed {seed}");
            fused_runs += fused.fusion.runs_fused;
            batched_rows += dep.batch.iter().filter(|&&b| b > 1).count();
            let per_period = |mode: u32| dep.reps[mode as usize][modes.unit as usize];
            let arms = scenario.arms as u32;
            let pairs = (0..arms).flat_map(|from| (0..arms).map(move |to| (from, to)));
            for (i, (from, to)) in pairs.filter(|(from, to)| from != to).enumerate() {
                let boundary = 3 * per_period(from);
                for at in [boundary - 1, boundary, boundary + 1] {
                    let back = at.next_multiple_of(per_period(from)) + 2 * per_period(to);
                    let script = ModeScript::new(from, vec![(at, to), (back, from)]);
                    let trace = (i + at as usize).is_multiple_of(2);
                    let a = traced_static_run(graph, &fused, &script, trace);
                    let b = traced_static_run(graph, &plain, &script, trace);
                    let what = format!("seed {seed}, {w} worker(s), trace={trace}, {script:?}");
                    if let Some(d) = a.values.first_divergence(&b.values) {
                        panic!("fusion changed a mode-dependent value stream: {d}\n{what}");
                    }
                    assert_eq!(a.node_firings, b.node_firings, "{what}");
                    assert_eq!((&a.sources, a.tokens), (&b.sources, b.tokens), "{what}");
                    assert_eq!(a.iterations, b.iterations, "{what}");
                    assert_eq!(
                        (a.mode_switches, a.transition_firings),
                        (b.mode_switches, b.transition_firings),
                        "{what}"
                    );
                    assert_eq!(a.mode_switches, 2, "{what}");
                    for (fa, fb) in a.sinks.iter().zip(&b.sinks) {
                        assert_eq!(
                            (fa.consumed, &fa.values),
                            (fb.consumed, &fb.values),
                            "{what}"
                        );
                    }
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
    // The simulator traces token origins, not values, so the modal graph
    // itself cannot be its oracle. Its twin with the cluster collapsed to
    // one union node has the *identical per-buffer token flow* (proven by
    // exact integer replay in `oil-compiler`'s unit tests) and is a plain
    // KPN graph: simulator and interpreter must agree bit for bit.
    for seed in 0..8 {
        let scenario = ModalScenario::generate(seed);
        let plan = rtgraph::plan(&scenario.graph);
        let info = modal_admission(&scenario.graph, &plan)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
            .unwrap_or_else(|| panic!("seed {seed}: no modal cluster"));
        let collapsed = collapse_modal(&scenario.graph, &info);
        let mut net = build_simulation_from_graph(&collapsed);
        let (_, sim_trace) = net.run_traced(picos(0.05), &SimulationConfig::default());
        let report = execute(
            &collapsed,
            &KernelLibrary::new(),
            picos(0.05),
            &RtConfig::default(),
        );
        assert_eq!(
            report.trace.first_divergence(&sim_trace),
            None,
            "seed {seed}: collapsed-twin trace diverges from the simulator"
        );
    }
}

#[test]
fn transitions_are_admitted_for_every_mode_pair() {
    for seed in 0..modal_seeds() {
        let scenario = ModalScenario::generate(seed);
        let plan = rtgraph::plan(&scenario.graph);
        for &w in &WORKERS {
            let schedule = synthesize(&scenario.graph, &plan, w, &SynthesisConfig::from_env())
                .unwrap_or_else(|e| panic!("seed {seed} at {w} workers: {e}"));
            let modes = schedule.modes.as_ref().unwrap_or_else(|| {
                panic!("seed {seed}: admissible modal cluster got no per-mode schedules")
            });
            assert_eq!(modes.arms.len(), scenario.arms, "seed {seed}");
            schedule
                .validate_transitions(&scenario.graph)
                .unwrap_or_else(|e| {
                    panic!("seed {seed} at {w} workers: transition admission failed: {e}")
                });
            // Per-mode digests identify the dispatched arm: all distinct.
            let digests: Vec<u64> = (0..modes.arms.len() as u32)
                .map(|a| schedule.digest_mode(a))
                .collect();
            for i in 0..digests.len() {
                for j in i + 1..digests.len() {
                    assert_ne!(
                        digests[i], digests[j],
                        "seed {seed}: per-mode digests collide between arms {i} and {j}"
                    );
                }
            }
        }
    }
}

#[test]
fn rejected_programs_fall_back_to_selftimed_and_say_so() {
    // Write-divergent clusters are mode-dependent admissible since this
    // PR; the shape that remains inadmissible is an arm *reading* a buffer
    // some arm writes — the merge order is then data-dependent and
    // synthesis must still reject it, naming the members, and the caller
    // must fall back to the self-timed engine *and report the engine
    // actually used* (oil-bench fails its smoke run on a silent fallback).
    let mut graph = rtgraph::non_uniform_merge_demo();
    let n1 = graph.nodes.indices().nth(1).expect("demo has three nodes");
    let t = graph.nodes[n1].writes[0].0;
    graph.nodes[n1].reads.push((t, 1));
    let plan = rtgraph::plan(&graph);
    let err = synthesize(&graph, &plan, 2, &SynthesisConfig::from_env())
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

    // The call-site pattern bench and examples use: requested staticsched,
    // got selftimed — recorded, not swallowed.
    let requested = "staticsched";
    let engine_actual = match synthesize(&graph, &plan, 2, &SynthesisConfig::from_env()) {
        Ok(_) => requested,
        Err(_) => "selftimed",
    };
    assert_eq!(engine_actual, "selftimed");
    let report = execute_selftimed(
        &graph,
        &plan,
        &KernelLibrary::new(),
        picos(0.05),
        &SelfTimedConfig {
            threads: 2,
            warmup_samples: 4,
            ..SelfTimedConfig::default()
        },
    );
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

fn dependent_seeds() -> u64 {
    if stress() {
        32
    } else {
        16
    }
}

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

fn scripted_selftimed_run(
    graph: &rtgraph::RtGraph,
    plan: &rtgraph::RtPlan,
    script: &ModeScript,
) -> SelfTimedReport {
    execute_selftimed_scripted(
        graph,
        plan,
        &KernelLibrary::new(),
        picos(DURATION_S),
        &SelfTimedConfig {
            threads: 1,
            warmup_samples: 4,
            ..SelfTimedConfig::default()
        },
        script,
    )
}

#[test]
fn mode_dependent_static_replay_matches_scripted_selftimed() {
    // The tentpole differential: arms with differing write counts (the
    // shape PR 7 rejected) synthesize one schedule per mode plus verified
    // drain/fill seams, and the static replay of that plan is
    // bit-identical to the data-driven scripted self-timed engine — at
    // 1/2/4 workers, fusion on and off, across every ordered mode pair.
    let mut seam_crossings = 0u64;
    for seed in 0..dependent_seeds() {
        let scenario = ModeDependentScenario::generate(seed);
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        let schedules: Vec<(usize, bool, StaticSchedule)> = WORKERS
            .iter()
            .flat_map(|&w| [(w, true), (w, false)])
            .map(|(w, fuse)| {
                let s = synthesize(graph, &plan, w, &fusion(fuse)).unwrap_or_else(|e| {
                    panic!("seed {seed}: mode-dependent synthesis at {w} workers: {e}")
                });
                let modes = s.modes.as_ref().unwrap_or_else(|| {
                    panic!("seed {seed}: dependent cluster got no modal schedule")
                });
                assert!(
                    modes.dependent.is_some(),
                    "seed {seed}: divergent write counts must synthesize per-mode schedules"
                );
                s.validate_transitions(graph).unwrap_or_else(|e| {
                    panic!("seed {seed} at {w} workers: transition admission failed: {e}")
                });
                (w, fuse, s)
            })
            .collect();
        for script in dependent_scripts(&scenario) {
            let reference = scripted_selftimed_run(graph, &plan, &script);
            assert!(
                !reference.deadlocked,
                "seed {seed}: scripted self-timed reference deadlocked under {script:?}"
            );
            seam_crossings += reference.mode_switches;
            for (w, fusion, schedule) in &schedules {
                let report = scripted_static_run(graph, schedule, &script);
                if let Some(d) = reference.values.prefix_divergence(&report.values) {
                    panic!(
                        "seed {seed}: scripted self-timed streams are not a prefix of the \
                         mode-dependent static replay at {w} worker(s), fusion={fusion}, \
                         under {script:?}: {d}\n\
                         reproduce with ModeDependentScenario::generate({seed})"
                    );
                }
                for (dy, st) in reference.sinks.iter().zip(&report.sinks) {
                    let shared = dy.values.len().min(st.values.len());
                    assert_eq!(
                        dy.values[..shared],
                        st.values[..shared],
                        "seed {seed}: sink `{}` diverges at {w} worker(s), fusion={fusion}, \
                         under {script:?}",
                        dy.name
                    );
                }
                // Both engines walk the same resolved mode plan, so the
                // switch count and the seam accounting agree exactly.
                assert_eq!(
                    report.mode_switches, reference.mode_switches,
                    "seed {seed}: mode switches diverge at {w} worker(s) under {script:?}"
                );
                assert_eq!(
                    report.transition_firings, reference.transition_firings,
                    "seed {seed}: transition firings diverge at {w} worker(s) under {script:?}"
                );
                assert_eq!(report.node_firings, reference.node_firings, "seed {seed}");
                assert_eq!(report.sources, reference.sources, "seed {seed}");
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
    for seed in 0..4 {
        let mut scenario = ModeDependentScenario::generate(seed);
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
                let schedule = synthesize(graph, &plan, w, &fusion(fuse))
                    .unwrap_or_else(|e| panic!("seed {seed}: synthesis at {w} workers: {e}"));
                let modes = schedule.modes.as_ref().expect("modal");
                assert!(modes.dependent.is_some(), "seed {seed}");
                let sources = schedule.units.iter().filter_map(|u| match u.kind {
                    UnitKind::Source { source, replica } => Some((source, replica)),
                    _ => None,
                });
                assert_eq!(sources.collect::<Vec<_>>(), one_each, "seed {seed}");
                schedules.push((w, fuse, schedule));
            }
        }
        for script in scenario.adversarial_scripts() {
            let reference = scripted_selftimed_run(graph, &plan, &script);
            assert!(!reference.deadlocked, "seed {seed} under {script:?}");
            for (w, fuse, schedule) in &schedules {
                let report = scripted_static_run(graph, schedule, &script);
                let at = format!("seed {seed} at {w} worker(s), fusion={fuse}, under {script:?}");
                if let Some(d) = reference.values.prefix_divergence(&report.values) {
                    panic!("{at}: {d}");
                }
                for (dy, st) in reference.sinks.iter().zip(&report.sinks) {
                    let shared = dy.values.len().min(st.values.len());
                    assert_eq!(dy.values[..shared], st.values[..shared], "{at}");
                }
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
    for seed in 0..dependent_seeds() {
        let scenario = ModeDependentScenario::generate(seed);
        let graph = &scenario.graph;
        let plan = rtgraph::plan(graph);
        for &workers in &[1usize, 2] {
            let schedule = synthesize(graph, &plan, workers, &SynthesisConfig::from_env())
                .unwrap_or_else(|e| panic!("seed {seed}: synthesis at {workers}: {e}"));
            let bound_ns = schedule
                .modes
                .as_ref()
                .and_then(|m| m.dependent.as_ref())
                .map(|d| d.seam_latency_max.to_f64() * 1e9)
                .unwrap_or_else(|| panic!("seed {seed}: no mode-dependent seam proof"));
            for script in dependent_scripts(&scenario) {
                let mut best: Option<u64> = None;
                for _ in 0..SEAM_ATTEMPTS {
                    let report = execute_staticsched_scripted(
                        graph,
                        &schedule,
                        &script,
                        &KernelLibrary::new(),
                        picos(DURATION_S),
                        &StaticConfig {
                            warmup_samples: 4,
                            trace: true,
                            ..StaticConfig::default()
                        },
                    );
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
                    "seed {seed}: best-of-{SEAM_ATTEMPTS} observed seam span \
                     {observed_ns} ns exceeds the proven seam_latency_max \
                     {bound_ns:.0} ns + {SEAM_OVERHEAD_NS:.0} ns overhead \
                     allowance at {workers} worker(s) under {script:?}\n\
                     reproduce with ModeDependentScenario::generate({seed})"
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
    let cases: Vec<(String, rtgraph::RtGraph, usize)> = (0..4)
        .flat_map(|seed| {
            let ua = ModalScenario::generate(seed);
            let dep = ModeDependentScenario::generate(seed);
            [
                (
                    format!("ModalScenario::generate({seed})"),
                    ua.graph,
                    ua.arms,
                ),
                (
                    format!("ModeDependentScenario::generate({seed})"),
                    dep.graph,
                    dep.arms,
                ),
            ]
        })
        .collect();
    for (label, graph, arms) in &cases {
        let plan = rtgraph::plan(graph);
        let last = (*arms - 1) as u32;
        let ghost = ModeScript::new(0, vec![(1_000_000, last)]);
        let constant = ModeScript::constant(0);

        let st_ghost = scripted_selftimed_run(graph, &plan, &ghost);
        let st_const = scripted_selftimed_run(graph, &plan, &constant);
        assert_eq!(st_ghost.mode_switches, 0, "{label}: self-timed switched");
        assert_eq!(st_ghost.transition_firings, 0, "{label}");
        assert_eq!(
            st_ghost.values.first_divergence(&st_const.values),
            None,
            "{label}: a past-horizon switch changed the self-timed streams"
        );
        assert_eq!(st_ghost.node_firings, st_const.node_firings, "{label}");

        let schedule = synthesize(graph, &plan, 2, &SynthesisConfig::from_env())
            .unwrap_or_else(|e| panic!("{label}: synthesis failed: {e}"));
        let sr_ghost = scripted_static_run(graph, &schedule, &ghost);
        let sr_const = scripted_static_run(graph, &schedule, &constant);
        assert_eq!(sr_ghost.mode_switches, 0, "{label}: static replay switched");
        assert_eq!(sr_ghost.transition_firings, 0, "{label}");
        assert_eq!(
            sr_ghost.values.first_divergence(&sr_const.values),
            None,
            "{label}: a past-horizon switch changed the static streams"
        );
        assert_eq!(sr_ghost.node_firings, sr_const.node_firings, "{label}");
    }
}
