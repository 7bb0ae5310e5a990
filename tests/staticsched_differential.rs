//! Differential verification of the compiled static-order engine.
//!
//! The schedule synthesis pass (`oil_compiler::schedule`) claims that for
//! every accepted program the firing order can be decided at compile time;
//! the static-order engine (`oil_rt::staticsched`) claims that replaying
//! the synthesised lists — with zero runtime scheduling — produces exactly
//! the streams the dynamic engines produce. This harness holds both to it,
//! against the self-timed engine as the dynamic reference:
//!
//! 1. **Prefix oracle** — the static replay runs its sources to the end of
//!    the covering schedule iteration (`⌈budget/q⌉` iterations), at or past
//!    the self-timed engine's exact sample budget, so on every buffer the
//!    self-timed value stream must be a bit-exact **prefix** of the static
//!    replay's stream. Synthesis resolves uniform modal clusters exactly as
//!    the dynamic engines' deterministic tie-break does (lowest-id twin) and
//!    rejects only non-uniform clusters that are not modal-admissible
//!    (admissible ones get per-mode schedules, covered by
//!    `tests/modeswitch_differential.rs`), so this holds on *all* buffers,
//!    not only the plan's schedule-invariant subset.
//! 2. **Worker-count invariance** — schedules synthesised for 1/2/3/4
//!    workers replay bit-identical streams, firing counts and sink streams.
//! 3. **Liveness** — every synthesised schedule replays to completion
//!    under CTA-sized buffer bounds (validation proved one period; the
//!    runs prove the loop), with zero deadlocks on the full corpus —
//!    including the SDR-flavoured scenarios.
//! 4. **Schedule admission** — a property test independently replays one
//!    period of every synthesised schedule with exact integer token
//!    accounting: every unit fires exactly its repetition count, no read
//!    underflows, no CTA-sized capacity is exceeded, and the period is
//!    level-preserving — and then runs the workers' fused lists side by
//!    side under `level_max`, which must bring every worker to the end of
//!    its list. A fixed-seed golden corpus
//!    (`tests/data/schedule_corpus.txt`) pins the synthesised schedules'
//!    digests; regenerate after an intentional change with
//!    `OIL_UPDATE_SCHEDULE_CORPUS=1 cargo test --test staticsched_differential corpus`.
//! 5. **PAL rate conformance** — the case study replays with the real DSP
//!    kernels and must sustain the threshold fraction of the CTA-predicted
//!    sink rates.
//!
//! Every failure message quotes the reproducing seed
//! (`ProgramScenario::generate(seed)`, or `generate_sdr(seed)` for the SDR
//! slice).

use oil::compiler::schedule::{
    synthesize, ModeDependent, ScheduleError, StaticSchedule, Step, SynthesisConfig, UnitKind,
    WorkItem,
};
use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::dataflow::Rational;
use oil::gen::ProgramScenario;
use oil::lang::registry::{FunctionRegistry, FunctionSignature};
use oil::rt::{
    execute, execute_selftimed, execute_staticsched, measure, ConformanceVerdict, KernelLibrary,
    RtConfig, SelfTimedConfig, StaticConfig, StaticReport,
};
use oil::sim::picos;

/// Synthesis with fusion pinned on or off (no seam bound, declared costs),
/// whatever the environment says.
fn fusion(on: bool) -> SynthesisConfig {
    SynthesisConfig {
        fusion: on,
        ..SynthesisConfig::default()
    }
}

/// Generated programs per sweep (stress widens it, as in the sibling
/// harnesses).
fn program_seeds() -> u64 {
    if stress() {
        300
    } else {
        200
    }
}

fn stress() -> bool {
    std::env::var_os("OIL_RT_STRESS").is_some()
}

fn duration_s() -> f64 {
    if stress() {
        1.0
    } else {
        0.2
    }
}

/// Worker counts under test.
const WORKERS: [usize; 4] = [1, 2, 3, 4];

fn compile_scenario(scenario: &ProgramScenario) -> Option<oil::compiler::CompiledProgram> {
    match compile(
        &scenario.source,
        &scenario.registry,
        &CompilerOptions::default(),
    ) {
        Ok(compiled) => Some(compiled),
        Err(CompileError::Temporal(_)) => None,
        Err(CompileError::Frontend(diags)) => panic!(
            "seed {}: generated program must be front-end valid, got {diags:?}\n{}",
            scenario.seed, scenario.source
        ),
    }
}

fn static_run(
    graph: &rtgraph::RtGraph,
    schedule: &StaticSchedule,
    duration_seconds: f64,
) -> StaticReport {
    execute_staticsched(
        graph,
        schedule,
        &KernelLibrary::new(),
        picos(duration_seconds),
        &StaticConfig {
            warmup_samples: 4,
            // The CI traced-differential leg (OIL_RT_TRACE=1) drives the
            // whole suite down the instrumented paths; bit-identity with
            // the untraced run is its own oracle (trace_differential.rs).
            trace: oil::rt::env_trace(),
            ..StaticConfig::default()
        },
    )
}

/// A source read by two readers whose chains meet again: `x -> A`,
/// `x -> B`, `A, B -> C -> E -> y`. Both replicas of `x` stay in one
/// component. `A` is the heavy kernel, so two workers cut the chain
/// `A -> C`: a whole period of `ma` (8 tokens, twice its capacity) crosses,
/// and `B`'s run feeds `C`'s on the second worker.
const FAN_OUT: &str = r#"
    mod seq A(int a, out int m){ loop{ f(a, out m); } while(1); }
    mod seq B(int a, out int m){ loop{ g(a, out m); } while(1); }
    mod seq C(int m, int n, out int c){ loop{ h(m, n, out c); } while(1); }
    mod seq E(int c, out int o){ loop{ k(c:8, out o); } while(1); }
    mod par D(){
        fifo int ma, mb, mc;
        source int x = src() @ 8 kHz;
        sink int y = snk() @ 1 kHz;
        A(x, out ma) || B(x, out mb) || C(ma, mb, out mc) || E(mc, out y)
    }
"#;

fn fan_out_graph() -> rtgraph::RtGraph {
    let mut registry = FunctionRegistry::new();
    for (f, response) in [("f", 4e-5), ("g", 1e-5), ("h", 1e-5), ("k", 1e-5)] {
        registry.register(FunctionSignature::pure(f, response));
    }
    for f in ["src", "snk"] {
        registry.register(FunctionSignature::pure(f, 1e-5));
    }
    let compiled = compile(FAN_OUT, &registry, &CompilerOptions::default()).expect("FAN_OUT");
    rtgraph::lower(&compiled)
}

/// The corpus plus the SDR slice, as (label, scenario) pairs.
fn corpus() -> impl Iterator<Item = (&'static str, ProgramScenario)> {
    (0..program_seeds())
        .map(|seed| ("generate", ProgramScenario::generate(seed)))
        .chain((0..32).map(|seed| ("generate_sdr", ProgramScenario::generate_sdr(seed))))
}

#[test]
fn static_replay_matches_the_selftimed_reference_on_the_corpus() {
    let (mut checked, mut rejected, mut unschedulable) = (0u32, 0u32, 0u32);
    for (label, scenario) in corpus() {
        let seed = scenario.seed;
        let Some(compiled) = compile_scenario(&scenario) else {
            rejected += 1;
            continue;
        };
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        let schedule = match synthesize(&graph, &plan, 2, &SynthesisConfig::from_env()) {
            Ok(s) => s,
            Err(ScheduleError::NonUniformCluster { .. }) => {
                // Legitimate fallback to the self-timed engine; the
                // compiler's modal extraction produces uniform twins, so
                // this must stay the exception.
                unschedulable += 1;
                continue;
            }
            Err(e) => panic!(
                "seed {seed} ({label}): schedule synthesis failed: {e}\nsource:\n{}",
                scenario.source
            ),
        };
        checked += 1;

        let reference = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(duration_s()),
            &SelfTimedConfig {
                threads: 1,
                warmup_samples: 4,
                ..SelfTimedConfig::default()
            },
        );
        assert!(
            !reference.deadlocked,
            "seed {seed} ({label}): self-timed reference deadlocked"
        );

        let mut baseline: Option<StaticReport> = None;
        for &w in &WORKERS {
            let schedule_w = if w == 2 {
                schedule.clone()
            } else {
                synthesize(&graph, &plan, w, &SynthesisConfig::from_env()).unwrap_or_else(|e| {
                    panic!("seed {seed} ({label}): synthesis at {w} workers: {e}")
                })
            };
            let report = static_run(&graph, &schedule_w, duration_s());
            // Prefix oracle on ALL buffers: the static replay covers at
            // least the self-timed sample budget and the quasi-static
            // cluster resolution matches the dynamic tie-break exactly.
            if let Some(d) = reference.values.prefix_divergence(&report.values) {
                panic!(
                    "seed {seed} ({label}): self-timed streams are not a prefix of the \
                     static replay at {w} worker(s): {d}\nreproduce with \
                     ProgramScenario::{label}({seed})\nsource:\n{}",
                    scenario.source
                );
            }
            for (cal, stat) in reference.sinks.iter().zip(&report.sinks) {
                let shared = cal.values.len().min(stat.values.len());
                assert_eq!(
                    cal.values[..shared],
                    stat.values[..shared],
                    "seed {seed} ({label}): sink `{}` diverges at {w} worker(s)",
                    cal.name
                );
            }
            match &baseline {
                None => baseline = Some(report),
                Some(base) => {
                    if let Some(d) = base.values.first_divergence(&report.values) {
                        panic!(
                            "seed {seed} ({label}): static replay differs between \
                             {} and {w} worker(s): {d}",
                            base.threads
                        );
                    }
                    assert_eq!(base.node_firings, report.node_firings, "seed {seed}");
                    assert_eq!(base.sources, report.sources, "seed {seed}");
                    for (a, b) in base.sinks.iter().zip(&report.sinks) {
                        assert_eq!(a.consumed, b.consumed, "seed {seed} ({label})");
                        assert_eq!(a.values, b.values, "seed {seed} ({label})");
                    }
                }
            }
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must be schedulable and checked \
         ({checked} checked, {rejected} rejected, {unschedulable} unschedulable)"
    );
    assert_eq!(
        unschedulable, 0,
        "compiler-lowered graphs only produce uniform clusters"
    );
}

#[test]
fn synthesized_schedules_satisfy_the_admission_property() {
    // Independent replay of the admission proof: one period fires every
    // unit exactly its repetition count, stays within [0, capacity] on
    // every ring-backed buffer, and is level-preserving. This re-derives
    // what `synthesize` validated, from the schedule's own data, so a bug
    // in the shared validation logic cannot hide itself.
    let mut checked = 0u32;
    for (label, scenario) in corpus() {
        let seed = scenario.seed;
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        for workers in [1, 3] {
            let Ok(s) = synthesize(&graph, &plan, workers, &SynthesisConfig::from_env()) else {
                continue;
            };
            checked += 1;
            // Re-validate through the public checker…
            s.validate(&graph)
                .unwrap_or_else(|e| panic!("seed {seed} ({label}): {e}"));
            // …and independently: exact integer replay of the period.
            type Ports = Vec<(usize, usize)>;
            let ports = |unit: u32| -> (Ports, Ports) {
                let index = |list: &[(oil::compiler::RtBufferId, usize)]| -> Ports {
                    list.iter().map(|&(b, c)| (b.index(), c)).collect()
                };
                match &s.units[unit as usize].kind {
                    UnitKind::Node(id)
                    | UnitKind::Cluster {
                        representative: id, ..
                    } => (
                        index(&graph.nodes[*id].reads),
                        index(&graph.nodes[*id].writes),
                    ),
                    kind @ UnitKind::Source { .. } => {
                        let writes = kind.source_outputs(&graph).iter();
                        (Vec::new(), writes.map(|&b| (b.index(), 1)).collect())
                    }
                    UnitKind::Sink(id) => (vec![(graph.sinks[*id].input.index(), 1)], Vec::new()),
                    UnitKind::Modal { members } => {
                        // Union-advance: every member's aggregated reads
                        // are consumed each firing; all members share one
                        // write list (members[0] is canonical).
                        let access = |m: oil::compiler::RtNodeId| {
                            oil::compiler::schedule::modal_member_access(&graph, m)
                        };
                        (
                            members.iter().flat_map(|&m| index(&access(m).0)).collect(),
                            index(&access(members[0]).1),
                        )
                    }
                }
            };
            let consumed = |b: usize| {
                let bid = oil::compiler::rtgraph::RtBufferId::new(b);
                s.consumer_unit[bid].is_some()
            };
            let initial: Vec<i64> = graph
                .buffers
                .iter()
                .map(|b| b.initial_tokens as i64)
                .collect();
            let mut level = initial.clone();
            let mut fired = vec![0u64; s.units.len()];
            for step in &s.period {
                let (reads, writes) = ports(step.unit);
                for _ in 0..step.times {
                    fired[step.unit as usize] += 1;
                    for &(b, c) in &reads {
                        level[b] -= c as i64;
                        assert!(
                            level[b] >= 0,
                            "seed {seed} ({label}): buffer underflow in period replay"
                        );
                    }
                    for &(b, c) in &writes {
                        if !consumed(b) {
                            continue;
                        }
                        level[b] += c as i64;
                        let bid = oil::compiler::rtgraph::RtBufferId::new(b);
                        let cap = graph.buffers[bid]
                            .capacity
                            .max(graph.buffers[bid].initial_tokens)
                            .max(1) as i64;
                        assert!(
                            level[b] <= cap,
                            "seed {seed} ({label}): CTA capacity exceeded in period replay \
                             ({} > {cap})",
                            level[b]
                        );
                    }
                }
            }
            for (u, unit) in s.units.iter().enumerate() {
                assert_eq!(
                    fired[u], unit.repetitions,
                    "seed {seed} ({label}): unit {u} fired a non-repetition count"
                );
            }
            for (b, buf) in graph.buffers.iter().enumerate() {
                if consumed(b) {
                    assert_eq!(
                        level[b], initial[b],
                        "seed {seed} ({label}): period is not level-preserving on `{}`",
                        buf.name
                    );
                }
            }
            // The cooperative property, again without the ledger: run the
            // workers' fused lists side by side. A worker fires its next
            // item (a step of a self-feeding unit: its next firing) when
            // the reads are all there and the writes all fit `level_max`;
            // everybody must get to the end of their list, and the buffers
            // back to where they started.
            if s.modes.as_ref().is_some_and(|m| m.dependent.is_some()) {
                // One fused list per mode, each under its own access lists:
                // the tamper suite and `modeswitch_differential` hold those.
                continue;
            }
            let bound = |b: usize| s.level_max[oil::compiler::rtgraph::RtBufferId::new(b)] as i64;
            let mut level = initial.clone();
            let mut cursor = vec![(0usize, 0u32); s.fused_workers.len()];
            loop {
                let mut progressed = false;
                for (w, items) in s.fused_workers.iter().enumerate() {
                    while let Some(item) = items.get(cursor[w].0) {
                        let (head, tail) = match item {
                            WorkItem::Step(step) => (*step, *step),
                            WorkItem::Fused(run) => {
                                (run.stages[0], run.stages[run.stages.len() - 1])
                            }
                        };
                        let (reads, _) = ports(head.unit);
                        let (_, writes) = ports(tail.unit);
                        let feeds_itself = head.unit == tail.unit
                            && reads.iter().any(|r| writes.iter().any(|w| w.0 == r.0));
                        let (times_in, times_out, rounds) = if feeds_itself {
                            (1, 1, head.times)
                        } else {
                            (head.times as i64, tail.times as i64, 1)
                        };
                        let taken = |b: usize| -> i64 {
                            let port = reads.iter().filter(|r| r.0 == b);
                            port.map(|r| r.1 as i64 * times_in).sum()
                        };
                        let ready = reads.iter().all(|&(b, _)| level[b] >= taken(b))
                            && writes.iter().all(|&(b, c)| {
                                !consumed(b)
                                    || level[b] - taken(b) + c as i64 * times_out <= bound(b)
                            });
                        if !ready {
                            break;
                        }
                        for &(b, c) in &reads {
                            level[b] -= c as i64 * times_in;
                        }
                        for &(b, c) in writes.iter().filter(|w| consumed(w.0)) {
                            level[b] += c as i64 * times_out;
                        }
                        progressed = true;
                        cursor[w].1 += 1;
                        if cursor[w].1 == rounds {
                            cursor[w] = (cursor[w].0 + 1, 0);
                        }
                    }
                }
                let done =
                    (cursor.iter().zip(&s.fused_workers)).all(|(c, items)| c.0 == items.len());
                if done {
                    break;
                }
                assert!(
                    progressed,
                    "seed {seed} ({label}): the fused worker lists stall at items {cursor:?} \
                     of {workers} worker(s)"
                );
            }
            for (b, buf) in graph.buffers.iter().enumerate() {
                if consumed(b) {
                    assert_eq!(
                        level[b], initial[b],
                        "seed {seed} ({label}): the fused lists are not level-preserving on `{}`",
                        buf.name
                    );
                }
            }
        }
    }
    assert!(
        checked >= 100,
        "too few schedules property-checked ({checked})"
    );
}

use oil::dataflow::index::Idx;

// ---------------------------------------------------------------------------
// Fixed-seed golden schedule corpus.
// ---------------------------------------------------------------------------

const CORPUS_SEEDS: u64 = 48;
const CORPUS_PATH: &str = "tests/data/schedule_corpus.txt";

/// The schedule digest of a corpus seed at 1 and 2 workers, or `None` when
/// the compiler (legitimately) rejects the scenario.
fn corpus_digest(seed: u64) -> Option<(u64, u64)> {
    let scenario = ProgramScenario::generate(seed);
    let compiled = compile_scenario(&scenario)?;
    let graph = rtgraph::lower(&compiled);
    let plan = rtgraph::plan(&graph);
    // Fusion is forced ON so the pinned digests cover the fused worker
    // lists and stay stable under the CI leg that sets `OIL_RT_FUSION=0`.
    let d = |w: usize| {
        synthesize(&graph, &plan, w, &fusion(true))
            .expect("schedulable")
            .digest()
    };
    Some((d(1), d(2)))
}

/// Modal corpus slice: per-mode digests of the generated modal scenarios
/// (`ModalScenario::generate(seed)`), pinned as `M<seed>` lines — whole
/// schedule at 1 and 2 workers, then one `m…` digest per arm at 2 workers.
const MODAL_CORPUS_SEEDS: u64 = 16;

fn modal_corpus_digests(seed: u64) -> Vec<String> {
    let scenario = oil::gen::ModalScenario::generate(seed);
    let plan = rtgraph::plan(&scenario.graph);
    let synth = |w: usize| {
        synthesize(&scenario.graph, &plan, w, &fusion(true))
            .unwrap_or_else(|e| panic!("modal seed {seed} at {w} workers: {e}"))
    };
    let s1 = synth(1);
    let s2 = synth(2);
    let modes = s2
        .modes
        .as_ref()
        .unwrap_or_else(|| panic!("modal seed {seed}: synthesis produced no per-mode schedules"));
    let mut out = vec![
        format!("{:016x}", s1.digest()),
        format!("{:016x}", s2.digest()),
    ];
    for arm in 0..modes.arms.len() as u32 {
        out.push(format!("m{:016x}", s2.digest_mode(arm)));
    }
    out
}

/// Mode-dependent corpus slice: whole-schedule, per-mode and per-ordered-
/// pair transition digests of `ModeDependentScenario::generate(seed)`,
/// pinned as `D<seed>` lines — whole schedule at 1 and 2 workers, one
/// `m…` digest per mode at 2 workers, then one `t…` digest per ordered
/// mode pair (row-major, `from * modes + to`, diagonal skipped).
const DEPENDENT_CORPUS_SEEDS: u64 = 16;

fn dependent_corpus_digests(seed: u64) -> Vec<String> {
    let scenario = oil::gen::ModeDependentScenario::generate(seed);
    let plan = rtgraph::plan(&scenario.graph);
    let synth = |w: usize| {
        synthesize(&scenario.graph, &plan, w, &fusion(true))
            .unwrap_or_else(|e| panic!("dependent seed {seed} at {w} workers: {e}"))
    };
    let s1 = synth(1);
    let s2 = synth(2);
    let modes = s2.modes.as_ref().unwrap_or_else(|| {
        panic!("dependent seed {seed}: synthesis produced no per-mode schedules")
    });
    assert!(
        modes.dependent.is_some(),
        "dependent seed {seed}: expected mode-dependent synthesis"
    );
    let n = modes.arms.len() as u32;
    let mut out = vec![
        format!("{:016x}", s1.digest()),
        format!("{:016x}", s2.digest()),
    ];
    for mode in 0..n {
        out.push(format!("m{:016x}", s2.digest_mode(mode)));
    }
    for from in 0..n {
        for to in 0..n {
            if from != to {
                out.push(format!("t{:016x}", s2.digest_transition(from, to)));
            }
        }
    }
    out
}

#[test]
fn corpus_digests_pin_the_synthesised_schedules() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(CORPUS_PATH);
    if std::env::var_os("OIL_UPDATE_SCHEDULE_CORPUS").is_some() {
        let mut out = String::from(
            "# Fixed-seed schedule-digest corpus: `<seed> <digest@1w> <digest@2w> | rejected` per line.\n\
             # Modal lines: `M<seed> <digest@1w> <digest@2w> m<arm0@2w> m<arm1@2w> …` (per-mode digests).\n\
             # Mode-dependent lines: `D<seed> <digest@1w> <digest@2w> m<mode…@2w> … t<from,to…@2w> …`\n\
             # (per-mode digests, then per-ordered-pair transition digests, row-major, diagonal skipped).\n\
             # Generated by OIL_UPDATE_SCHEDULE_CORPUS=1 cargo test --test staticsched_differential corpus\n",
        );
        for seed in 0..CORPUS_SEEDS {
            match corpus_digest(seed) {
                Some((d1, d2)) => out.push_str(&format!("{seed} {d1:016x} {d2:016x}\n")),
                None => out.push_str(&format!("{seed} rejected\n")),
            }
        }
        for seed in 0..MODAL_CORPUS_SEEDS {
            out.push_str(&format!(
                "M{seed} {}\n",
                modal_corpus_digests(seed).join(" ")
            ));
        }
        for seed in 0..DEPENDENT_CORPUS_SEEDS {
            out.push_str(&format!(
                "D{seed} {}\n",
                dependent_corpus_digests(seed).join(" ")
            ));
        }
        std::fs::write(&path, out).expect("writing the schedule corpus file");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let corpus = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("schedule corpus {} missing: {e}", path.display()));
    let mut pinned = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let tag = parts.next().expect("seed");
        let expected: Vec<&str> = parts.collect();
        let actual_strs = if let Some(dseed) = tag.strip_prefix('D') {
            let seed: u64 = dseed.parse().expect("dependent corpus seed");
            dependent_corpus_digests(seed)
        } else if let Some(mseed) = tag.strip_prefix('M') {
            let seed: u64 = mseed.parse().expect("modal corpus seed");
            modal_corpus_digests(seed)
        } else {
            let seed: u64 = tag.parse().expect("corpus seed");
            corpus_digest(seed).map_or(vec!["rejected".to_string()], |(d1, d2)| {
                vec![format!("{d1:016x}"), format!("{d2:016x}")]
            })
        };
        assert_eq!(
            actual_strs, expected,
            "seed {tag}: synthesised schedule changed — a synthesis regression (or an \
             intentional change; then regenerate with OIL_UPDATE_SCHEDULE_CORPUS=1). \
             Reproduce with ProgramScenario::generate / ModalScenario::generate."
        );
        pinned += 1;
    }
    assert!(
        pinned >= 32 + (MODAL_CORPUS_SEEDS + DEPENDENT_CORPUS_SEEDS) as u32,
        "schedule corpus too small: {pinned} pinned seeds"
    );
}

#[test]
fn golden_corpora_outside_the_mode_dependent_rows_are_as_recorded() {
    // Per-mode fusion (PR 22) regenerated the `D` rows of the schedule
    // corpus and nothing else: every other line of it — program and
    // union-advance modal schedules at 1 and 2 workers — and the whole
    // runtime value corpus are pinned here by fingerprint, so a
    // regeneration that moves them has to say so in this test too.
    let read = |path: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let fingerprint = |text: &str, keep: &dyn Fn(&str) -> bool| {
        let mut h = oil::dataflow::fnv::Fnv1a::new();
        for line in text.lines().filter(|l| keep(l)) {
            h.write_str(line);
        }
        h.finish()
    };
    let schedules = fingerprint(&read(CORPUS_PATH), &|l| !l.starts_with('D'));
    let values = fingerprint(&read("tests/data/runtime_corpus.txt"), &|_| true);
    assert_eq!(
        (schedules, values),
        (SCHEDULE_ROWS_FINGERPRINT, RUNTIME_CORPUS_FINGERPRINT),
        "got ({schedules:#018x}, {values:#018x})"
    );
}

const SCHEDULE_ROWS_FINGERPRINT: u64 = 0xa971_ca03_677c_21cb;
const RUNTIME_CORPUS_FINGERPRINT: u64 = 0x085d_dc8f_95c6_e4a4;

// ---------------------------------------------------------------------------
// Tamper suite: the admission proof rejects every minimal corruption.
// ---------------------------------------------------------------------------

/// Both halves of the admission proof, as `synthesize` runs them.
fn admission(graph: &rtgraph::RtGraph, s: &StaticSchedule) -> Result<(), ScheduleError> {
    s.validate(graph)?;
    s.validate_transitions(graph)
}

/// `s` with one corruption applied must be rejected as
/// `ScheduleError::Invalid` by a message naming `needle`.
fn assert_rejected(
    what: &str,
    graph: &rtgraph::RtGraph,
    s: &StaticSchedule,
    corrupt: impl FnOnce(&mut StaticSchedule),
    needle: &str,
) {
    let mut tampered = s.clone();
    corrupt(&mut tampered);
    match admission(graph, &tampered) {
        Err(ScheduleError::Invalid(message)) => assert!(
            message.contains(needle),
            "{what}: rejected, but `{message}` does not name `{needle}`"
        ),
        other => panic!("{what}: expected an Invalid rejection, got {other:?}"),
    }
}

/// The dependent tables of a mode-dependent schedule, mutably.
fn dependent_mut(s: &mut StaticSchedule) -> &mut ModeDependent {
    let modes = s.modes.as_mut().expect("modal");
    modes.dependent.as_mut().expect("mode-dependent")
}

/// The period a shape is corrupted through: a mode-dependent schedule's own
/// tables are its modes' (the top level mirrors mode 0), so there the
/// corruption goes into mode 1.
fn period_of(s: &mut StaticSchedule, dependent: bool) -> &mut Vec<Step> {
    if dependent {
        &mut dependent_mut(s).periods[1]
    } else {
        &mut s.period
    }
}

#[test]
fn the_admission_proof_rejects_every_minimal_corruption() {
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let pal = rtgraph::lower_with_registry(&compiled, &oil::pal::pal_registry());
    // PAL's chains are components of their own, each one run through
    // scratch: nothing of it crosses at two workers, and at one no ring is
    // left to size. The fan-out program is one component: at one worker
    // its runs hand `ma` and `mb` over through rings, and a second worker
    // cuts the chain `A -> C`.
    let fan_out = fan_out_graph();
    let modal = oil::gen::ModalScenario::generate(0).graph;
    let dependent = oil::gen::ModeDependentScenario::generate(0).graph;
    let synth = |graph: &rtgraph::RtGraph, workers: usize| {
        synthesize(graph, &rtgraph::plan(graph), workers, &fusion(true)).expect("schedulable")
    };
    // One admitted schedule of each shape.
    let subjects = [
        ("PAL fused 1w", &pal, synth(&pal, 1)),
        ("uniform fused 1w", &fan_out, synth(&fan_out, 1)),
        ("uniform split 2w", &fan_out, synth(&fan_out, 2)),
        ("union-advance modal", &modal, synth(&modal, 2)),
        ("mode-dependent", &dependent, synth(&dependent, 2)),
    ];
    for (_, _, s) in &subjects[..2] {
        assert!(s.fusion.runs_fused > 0 && s.cross_buffers.is_empty());
    }
    assert!(!subjects[2].2.cross_buffers.is_empty());
    assert!(subjects[3]
        .2
        .modes
        .as_ref()
        .is_some_and(|m| m.dependent.is_none()));
    assert!(subjects[4]
        .2
        .modes
        .as_ref()
        .is_some_and(|m| m.dependent.is_some()));

    for (shape, graph, s) in &subjects {
        admission(graph, s).unwrap_or_else(|e| panic!("{shape}: untouched schedule: {e}"));
        let is_dependent = *shape == "mode-dependent";
        let prefix = if is_dependent { "mode 1: " } else { "" };
        let mut probe = (*s).clone();
        let period = period_of(&mut probe, is_dependent).clone();
        let (first, last) = (period[0], period[period.len() - 1]);

        // Swap two period steps: the period's final firing moved to the
        // front finds its input empty.
        assert_rejected(
            &format!("{shape}: swapped period steps"),
            graph,
            s,
            |t| {
                let p = period_of(t, is_dependent);
                let end = p.len() - 1;
                p.swap(0, end);
            },
            &format!("{prefix}step 0: unit {} underflows buffer `", last.unit),
        );
        // Bump one `times`: the unit over-fires (or overruns a buffer first).
        assert_rejected(
            &format!("{shape}: bumped times"),
            graph,
            s,
            |t| period_of(t, is_dependent)[0].times += 1,
            &format!("unit {} ", first.unit),
        );
        // Move a unit to another worker without re-projecting (where there
        // is another worker).
        if s.worker_count() > 1 {
            let moved = first.unit as usize;
            assert_rejected(
                &format!("{shape}: moved unit"),
                graph,
                s,
                |t| t.units[moved].worker = (t.units[moved].worker + 1) % 2,
                "list is not the projection of the period",
            );
        }
    }

    // Fused-list corruptions, on the single-worker fan-out schedule.
    let (shape, graph, s) = &subjects[1];
    let (at, link) = s.fused_workers[0]
        .iter()
        .enumerate()
        .find_map(|(at, item)| match item {
            WorkItem::Fused(run) => Some((at, run.links[0])),
            _ => None,
        })
        .expect("fan-out@1w fuses");
    let other = oil::compiler::RtBufferId::new((link.index() + 1) % graph.buffers.len());
    assert_rejected(
        &format!("{shape}: retargeted fused link"),
        graph,
        s,
        |t| {
            if let WorkItem::Fused(run) = &mut t.fused_workers[0][at] {
                run.links[0] = other;
            }
        },
        &format!("fused link `{}`", graph.buffers[other].name),
    );
    // Lowering `level_max` is rejected wherever the fused replay writes
    // the buffer through a ring (fully-elided links never do), and every
    // rejection names the buffer.
    let mut lowered = 0;
    for b in graph.buffers.indices() {
        let mut tampered = (*s).clone();
        tampered.level_max[b] = 0;
        match admission(graph, &tampered) {
            Ok(()) => {}
            Err(ScheduleError::Invalid(message)) => {
                let needle = format!("overflows buffer `{}`", graph.buffers[b].name);
                assert!(
                    message.contains(&needle),
                    "{shape}: `{message}` vs `{needle}`"
                );
                lowered += 1;
            }
            Err(e) => panic!("{shape}: lowered level bound: {e}"),
        }
    }
    assert!(lowered > 0, "{shape}: no level bound is load-bearing");

    // Corruptions of the cooperative proof, on the split schedule: what
    // one worker does to a crossing ring is another worker's business.
    let (shape, graph, s) = &subjects[2];
    let name = |b: oil::compiler::RtBufferId| graph.buffers[b].name.clone();
    let crossing = s.cross_buffers[0];
    // One slot short on a crossing ring: the producer's whole-period block
    // no longer fits, and nobody else can make it fit.
    assert!(s.level_max[crossing] > 1);
    assert_rejected(
        &format!("{shape}: crossing level bound lowered by one"),
        graph,
        s,
        |t| t.level_max[crossing] -= 1,
        &format!("overflows buffer `{}`", name(crossing)),
    );
    // Two items of a worker's list swapped: the run now ahead of the item
    // that feeds it waits for tokens that only come after it.
    let (w, at, starved) = (s.fused_workers.iter().enumerate())
        .find_map(|(w, items)| {
            let fed = |at: usize| match (&items[at], &items[at + 1]) {
                (feeder, WorkItem::Fused(run)) => {
                    let tail = match feeder {
                        WorkItem::Step(step) => step.unit,
                        WorkItem::Fused(feeder) => feeder.stages[feeder.stages.len() - 1].unit,
                    };
                    (graph.buffers.indices()).find(|&b| {
                        s.producer_unit[b] == Some(tail)
                            && s.consumer_unit[b] == Some(run.stages[0].unit)
                    })
                }
                _ => None,
            };
            (0..items.len().saturating_sub(1)).find_map(|at| Some((w, at, fed(at)?)))
        })
        .expect("fan-out@2w: an item feeding the run after it");
    assert_rejected(
        &format!("{shape}: reordered worker items"),
        graph,
        s,
        |t| t.fused_workers[w].swap(at, at + 1),
        &format!("underflows buffer `{}`", name(starved)),
    );
    // A run whose link is the crossing buffer: scratch cannot reach another
    // worker, and a link has both its ends in the run.
    let (w, at) = (s.fused_workers.iter().enumerate())
        .find_map(|(w, items)| {
            let run = |i: &WorkItem| matches!(i, WorkItem::Fused(_));
            Some((w, items.iter().position(run)?))
        })
        .expect("fan-out@2w fuses up to the cut");
    assert_rejected(
        &format!("{shape}: crossing fused link"),
        graph,
        s,
        |t| {
            if let WorkItem::Fused(run) = &mut t.fused_workers[w][at] {
                run.links[0] = crossing;
            }
        },
        &format!("fused link `{}` is not the single write", name(crossing)),
    );

    // Per-mode table corruptions, on the mode-dependent schedule.
    let (shape, graph, s) = &subjects[4];
    let arms = s.modes.as_ref().expect("modal").arms.len();
    let dropped = {
        let mut probe = (*s).clone();
        *dependent_mut(&mut probe).periods[1]
            .last()
            .expect("non-empty")
    };
    assert_rejected(
        &format!("{shape}: truncated mode period"),
        graph,
        s,
        |t| {
            dependent_mut(t).periods[1].pop();
        },
        &format!("mode 1: unit {} fired", dropped.unit),
    );
    // The clamp bug: a surplus mode row used to be checked against the last
    // arm's access lists and pass.
    assert_rejected(
        &format!("{shape}: surplus mode row"),
        graph,
        s,
        |t| {
            let dep = dependent_mut(t);
            dep.reps.push(dep.reps[arms - 1].clone());
            dep.periods.push(dep.periods[arms - 1].clone());
            dep.steps.push(dep.steps[arms - 1].clone());
        },
        &format!("rows (reps/periods/steps/fused/batch) for {arms} arms"),
    );
    assert_rejected(
        &format!("{shape}: changed seam latency"),
        graph,
        s,
        |t| {
            dependent_mut(t).seam_latency_max += oil::dataflow::Rational::new(1, 1000);
        },
        "recorded worst-case seam latency",
    );
    // Per-mode fused-list corruptions. Row 0 is also the top level's, so a
    // corruption of it goes into both.
    let dep = s.modes.as_ref().and_then(|m| m.dependent.as_ref());
    let dep = dep.expect("mode-dependent");
    assert!(s.fusion.runs_fused > 0 && dep.batch.iter().any(|&b| b > 1));
    let in_row = |t: &mut StaticSchedule, mode: usize, f: &dyn Fn(&mut Vec<Vec<WorkItem>>)| {
        f(&mut dependent_mut(t).fused[mode]);
        if mode == 0 {
            f(&mut t.fused_workers);
        }
    };
    let name = |b: oil::compiler::RtBufferId| graph.buffers[b].name.clone();
    let crossing = s.cross_buffers[0];
    // A run whose link is a crossing buffer, in one row only.
    let (mode, w, at) = (dep.fused.iter().enumerate())
        .find_map(|(mode, lists)| {
            let run = |i: &WorkItem| matches!(i, WorkItem::Fused(_));
            let found =
                |(w, items): (usize, &Vec<WorkItem>)| Some((w, items.iter().position(run)?));
            let (w, at) = lists.iter().enumerate().find_map(found)?;
            Some((mode, w, at))
        })
        .expect("a mode row fuses");
    assert_rejected(
        &format!("{shape}: a row's fused link leaves its worker"),
        graph,
        s,
        |t| {
            in_row(t, mode, &|lists| {
                if let WorkItem::Fused(run) = &mut lists[w][at] {
                    run.links[0] = crossing;
                }
            })
        },
        &format!(
            "mode {mode}: fused worker {w}: fused link `{}` is not the single write",
            name(crossing)
        ),
    );
    // Row 1 executing row 0's lists: compiled against another mode's token
    // flow, they fire the wrong units the wrong number of times.
    assert_rejected(
        &format!("{shape}: a row's fused lists swapped for another row's"),
        graph,
        s,
        |t| {
            let dep = dependent_mut(t);
            dep.fused[1] = dep.fused[0].clone();
        },
        "mode 1: fused worker 0 changes the firing count of unit",
    );
    // A pass of more periods than the rings were sized for.
    let batched = (0..arms)
        .find(|&m| dep.batch[m] > 1)
        .expect("a row batches");
    assert_rejected(
        &format!("{shape}: doubled batch"),
        graph,
        s,
        |t| dependent_mut(t).batch[batched] *= 2,
        &format!(
            "mode {batched}: {} periods per pass: ",
            dep.batch[batched] * 2
        ),
    );
    // A ring below what the fused lists need: every row that writes it
    // rejects it, and so does the seam replay on its own.
    let ring = (graph.buffers.indices())
        .find(|&b| {
            let mut tampered = (*s).clone();
            tampered.level_max[b] = 0;
            tampered.validate(graph).is_err()
        })
        .expect("a level bound is load-bearing");
    let needle = format!("overflows buffer `{}`", name(ring));
    assert_rejected(
        &format!("{shape}: lowered level bound"),
        graph,
        s,
        |t| t.level_max[ring] = 0,
        &needle,
    );
    let mut tampered = (*s).clone();
    tampered.level_max[ring] = 0;
    match tampered.validate_transitions(graph) {
        Err(ScheduleError::Invalid(message)) => assert!(
            message.starts_with("transition 0->") && message.contains(&needle),
            "{shape}: fused seam below its level bound: `{message}`"
        ),
        other => panic!("{shape}: fused seam below its level bound: {other:?}"),
    }

    // Dropping the per-mode tables altogether claims one period serves
    // every mode; it does not.
    let mut stripped = (*s).clone();
    stripped.modes.as_mut().expect("modal").dependent = None;
    assert!(
        matches!(admission(graph, &stripped), Err(ScheduleError::Invalid(_))),
        "{shape}: a stripped mode-dependent schedule must not pass as union-advance"
    );
}

// ---------------------------------------------------------------------------
// Fusion differential: the fused execution form is an optimisation, never a
// semantic change.
// ---------------------------------------------------------------------------

/// A shorter slice of the corpus (the fusion differential runs two static
/// replays per worker count per scenario).
fn fusion_corpus() -> impl Iterator<Item = (&'static str, ProgramScenario)> {
    (0..64)
        .map(|seed| ("generate", ProgramScenario::generate(seed)))
        .chain((0..16).map(|seed| ("generate_sdr", ProgramScenario::generate_sdr(seed))))
}

#[test]
fn fusion_on_and_off_replay_bit_identical_streams() {
    let mut fused_runs_total = 0u64;
    for (label, scenario) in fusion_corpus() {
        let seed = scenario.seed;
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        for &w in &WORKERS {
            let fused = match synthesize(&graph, &plan, w, &fusion(true)) {
                Ok(s) => s,
                Err(ScheduleError::NonUniformCluster { .. }) => continue,
                Err(e) => panic!("seed {seed} ({label}): fused synthesis at {w} workers: {e}"),
            };
            let plain = synthesize(&graph, &plan, w, &fusion(false)).unwrap_or_else(|e| {
                panic!("seed {seed} ({label}): unfused synthesis at {w} workers: {e}")
            });
            // Fusion rewrites the execution form only: the admitted period
            // and the per-worker projections are untouched.
            assert_eq!(fused.period, plain.period, "seed {seed} ({label})");
            assert_eq!(fused.workers, plain.workers, "seed {seed} ({label})");
            assert_eq!(plain.fusion.runs_fused, 0, "seed {seed} ({label})");
            fused_runs_total += fused.fusion.runs_fused as u64;

            let a = static_run(&graph, &fused, 0.1);
            let b = static_run(&graph, &plain, 0.1);
            if let Some(d) = a.values.first_divergence(&b.values) {
                panic!(
                    "seed {seed} ({label}): fusion changed a value stream at {w} \
                     worker(s): {d}\nreproduce with ProgramScenario::{label}({seed})\
                     \nsource:\n{}",
                    scenario.source
                );
            }
            assert_eq!(a.node_firings, b.node_firings, "seed {seed} ({label})");
            assert_eq!(a.sources, b.sources, "seed {seed} ({label})");
            assert_eq!(
                a.tokens, b.tokens,
                "seed {seed} ({label}): elided commits must still be counted"
            );
            for (fa, fb) in a.sinks.iter().zip(&b.sinks) {
                assert_eq!(fa.consumed, fb.consumed, "seed {seed} ({label})");
                assert_eq!(fa.values, fb.values, "seed {seed} ({label})");
            }
        }
    }
    assert!(
        fused_runs_total > 0,
        "the fusion pass never fired on the whole corpus — the differential \
         would be vacuous"
    );
}

// ---------------------------------------------------------------------------
// PAL case study.
// ---------------------------------------------------------------------------

#[test]
fn pal_fusion_collapses_the_pipelines_without_changing_a_bit() {
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let plan = rtgraph::plan(&graph);
    let duration = picos(1e-3);
    for workers in WORKERS {
        let fused = synthesize(&graph, &plan, workers, &fusion(true)).expect("schedulable");
        let plain = synthesize(&graph, &plan, workers, &fusion(false)).expect("schedulable");
        assert_eq!(plain.fusion.runs_fused, 0);
        if workers == 1 {
            // One worker owns the whole decoder: both the audio and the
            // video pipeline must collapse into fused runs, and at least
            // one interior buffer must lose its ring traffic entirely.
            assert!(
                fused.fusion.runs_fused >= 2,
                "PAL@1w fusion stats: {:?}",
                fused.fusion
            );
            assert!(
                fused.fusion.fused_chain_len_max >= 3,
                "PAL@1w fusion stats: {:?}",
                fused.fusion
            );
            assert!(
                fused.fusion.rings_elided >= 1,
                "PAL@1w fusion stats: {:?}",
                fused.fusion
            );
        }
        if workers <= 2 {
            // The RF source is one unit per reader, so the audio and the
            // video chain are components of their own, and each runs as
            // one batched whole-component run headed by its source
            // replica: both on one worker, one on each of two, with no
            // buffer crossing.
            assert!(fused.cross_buffers.is_empty(), "{:?}", fused.cross_buffers);
            assert_eq!(fused.components, 2);
            let lists = &fused.fused_workers;
            let placed = lists.iter().all(|items| !items.is_empty());
            assert!(placed && lists.iter().flatten().count() == 2, "{lists:?}");
            for item in lists.iter().flatten() {
                let WorkItem::Fused(run) = item else {
                    panic!("PAL@{workers}w: a plain step {item:?}");
                };
                let head = &fused.units[run.stages[0].unit as usize].kind;
                assert!(run.batch, "PAL@{workers}w: {run:?} is not batched");
                assert!(
                    matches!(
                        head,
                        UnitKind::Source {
                            replica: Some(_),
                            ..
                        }
                    ),
                    "PAL@{workers}w: {run:?} is headed by {head:?}"
                );
            }
        }
        let run = |s: &StaticSchedule| {
            execute_staticsched(
                &graph,
                s,
                &KernelLibrary::pal(),
                duration,
                &StaticConfig {
                    warmup_samples: 64,
                    ..StaticConfig::default()
                },
            )
        };
        let a = run(&fused);
        let b = run(&plain);
        assert_eq!(
            a.fusion, fused.fusion,
            "the report surfaces the schedule's fusion stats"
        );
        if let Some(d) = a.values.first_divergence(&b.values) {
            panic!("PAL fusion changed a value stream at {workers} worker(s): {d}");
        }
        assert_eq!(a.node_firings, b.node_firings, "workers={workers}");
        assert_eq!(a.sources, b.sources, "workers={workers}");
        assert_eq!(a.tokens, b.tokens, "workers={workers}");
        for (fa, fb) in a.sinks.iter().zip(&b.sinks) {
            assert_eq!(fa.consumed, fb.consumed, "workers={workers}");
            assert_eq!(fa.values, fb.values, "workers={workers}");
        }
    }
}

/// The replica buffers of every source split into one unit per reader, in
/// unit order (`None` for a source that stayed one unit).
fn replica_units(s: &StaticSchedule) -> Vec<Option<oil::compiler::RtBufferId>> {
    let replica = |kind: &UnitKind| match kind {
        UnitKind::Source { replica, .. } => Some(*replica),
        _ => None,
    };
    s.units.iter().filter_map(|u| replica(&u.kind)).collect()
}

#[test]
fn source_replicas_replay_the_reference_prefix() {
    // A source with several readers is one unit per reader, each
    // regenerating the source's pure sequence for its own buffer. PAL's
    // readers become components of their own; the fan-out program's meet
    // again, so its replicas share one component. Either way every stream
    // must be the reference interpreter's, at one and two workers, fusion
    // on and off.
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let pal = rtgraph::lower_with_registry(&compiled, &oil::pal::pal_registry());
    let fan_out = fan_out_graph();
    let subjects = [
        ("PAL", &pal, KernelLibrary::pal(), Rational::new(1, 1000), 2),
        (
            "fan-out",
            &fan_out,
            KernelLibrary::new(),
            Rational::new(1, 10),
            1,
        ),
    ];
    for (label, graph, lib, horizon, components) in &subjects {
        let duration = picos(horizon.to_f64());
        let reference = execute(graph, lib, duration, &RtConfig::default());
        let plan = rtgraph::plan(graph);
        let outputs: Vec<_> = (graph.sources.iter())
            .flat_map(|source| source.outputs.iter().map(move |&b| (source, b)))
            .collect();
        assert!(outputs.len() > graph.sources.len(), "{label}: no fan-out");
        for (workers, fuse) in [(1, true), (1, false), (2, true), (2, false)] {
            let at = format!("{label} at {workers} worker(s), fusion={fuse}");
            let s = synthesize(graph, &plan, workers, &fusion(fuse))
                .unwrap_or_else(|e| panic!("{at}: {e}"));
            s.validate(graph).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(s.components, *components, "{at}");
            let replicas: Vec<_> = outputs.iter().map(|&(_, b)| Some(b)).collect();
            assert_eq!(replica_units(&s), replicas, "{at}");

            let report = execute_staticsched(
                graph,
                &s,
                lib,
                duration,
                &StaticConfig {
                    warmup_samples: 4,
                    trace: true,
                    ..StaticConfig::default()
                },
            );
            if let Some(d) = reference.values.prefix_divergence(&report.values) {
                panic!("{at}: a stream diverges from the reference interpreter: {d}");
            }
            for (want, got) in reference.sinks.iter().zip(&report.sinks) {
                let prefix = !want.values.is_empty() && got.values.starts_with(&want.values);
                assert!(prefix, "{at}: sink `{}` is not the reference's", want.name);
            }
            // Every replica covers the budget, so the report's maximum
            // over them does too.
            for (source, (name, generated)) in graph.sources.iter().zip(&report.sources) {
                let budget = (*horizon / source.period).floor() as u64;
                assert!(
                    *generated >= budget,
                    "{at}: `{name}` {generated} < {budget}"
                );
            }
            let trace = report.trace_report.as_ref().expect("traced");
            let labels: Vec<&String> = trace.tracks.iter().flat_map(|t| &t.labels).collect();
            for (source, b) in &outputs {
                let label = format!("{}[{}]", source.name, graph.buffers[*b].name);
                assert!(labels.contains(&&label), "{at}: no `{label}` in {labels:?}");
            }
        }
    }
}

#[test]
fn pal_decoder_static_replay_conforms_to_the_predicted_rates() {
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let plan = rtgraph::plan(&graph);

    let duration = picos(2e-3);
    // As in the self-timed PAL test: the static replays get a longer
    // horizon so the 32 kHz speakers sink clears its 256-sample warmup
    // and the conformance verdict can be a real Pass, never vacuously
    // inconclusive. The self-timed reference stays short — the prefix
    // oracle only needs a prefix.
    let replay_duration = picos(12e-3);
    let reference = execute_selftimed(
        &graph,
        &plan,
        &KernelLibrary::pal(),
        duration,
        &SelfTimedConfig {
            threads: 1,
            warmup_samples: 256,
            ..SelfTimedConfig::default()
        },
    );
    assert!(!reference.deadlocked, "self-timed PAL reference");

    for workers in WORKERS {
        let schedule = synthesize(&graph, &plan, workers, &SynthesisConfig::from_env())
            .expect("the PAL graph is schedulable");
        assert!(
            schedule.period_firings() > 0 && schedule.validate(&graph).is_ok(),
            "admitted PAL schedule re-validates"
        );
        if workers == 1 {
            assert!(
                schedule.cross_buffers.is_empty(),
                "a single worker needs no synchronisation"
            );
        }
        let report = execute_staticsched(
            &graph,
            &schedule,
            &KernelLibrary::pal(),
            replay_duration,
            &StaticConfig {
                warmup_samples: 256,
                ..StaticConfig::default()
            },
        );
        if let Some(d) = reference.values.prefix_divergence(&report.values) {
            panic!("PAL static replay diverges at {workers} worker(s): {d}");
        }
        let speakers = report.sink_values("speakers").expect("speaker stream");
        assert!(speakers.len() > 32, "collected {} samples", speakers.len());
        assert!(speakers.iter().any(|v| v.abs() > 1e-6));
        // Same wall-clock conformance discipline as the self-timed PAL
        // test: MS/s-rate sinks against real kernel arithmetic, re-measured
        // on violation because CI hosts get preempted.
        let threshold = if std::env::var_os("OIL_RT_CONFORMANCE").is_some() {
            measure::conformance_threshold()
        } else if cfg!(debug_assertions) {
            0.005
        } else {
            0.02
        };
        let mut conformance = report.conformance(threshold);
        for _retry in 0..2 {
            if conformance.verdict() == ConformanceVerdict::Pass {
                break;
            }
            let again = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::pal(),
                replay_duration,
                &StaticConfig {
                    warmup_samples: 256,
                    ..StaticConfig::default()
                },
            );
            conformance = again.conformance(threshold);
        }
        assert!(
            conformance.verdict() == ConformanceVerdict::Pass,
            "PAL rate conformance {} at {workers} worker(s) in 3 consecutive \
             measurements:\n  {}",
            conformance.verdict(),
            conformance
                .violations()
                .into_iter()
                .chain(conformance.inconclusive_sinks())
                .collect::<Vec<_>>()
                .join("\n  ")
        );
    }
}
