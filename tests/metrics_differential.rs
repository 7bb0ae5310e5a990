//! Differential verification of the always-on metrics registry
//! (`oil::rt::metrics`) and the profile-guided cost model
//! (`oil::compiler::costmodel`).
//!
//! Four oracles:
//!
//! 1. **Bit-identity** — enabling metrics must never change a value
//!    stream, sink sample or firing count, on either engine at any worker
//!    count. Same contract tracing is held to (`trace_differential.rs`);
//!    like tracing, metering does not reach the reference interpreter.
//! 2. **Live oracle honesty** — on the untampered corpus, every run that
//!    beats real time must report [`DriftVerdict::Ok`]: the drift detector
//!    may only fire on real drift.
//! 3. **Cost-model steering** — a skewed synthetic cost model provably
//!    moves the partition, the moved schedule still passes
//!    `StaticSchedule::validate` (observations steer placement, never
//!    correctness), and both schedules stream bit-identical values.
//! 4. **Detection latency** — an injected 5x-slower kernel is reported as
//!    `Violated` in the *first* closed window, not at end-of-run.

use oil::compiler::costmodel::{KernelCost, KernelCostModel};
use oil::compiler::schedule::{synthesize, ScheduleError, SynthesisConfig};
use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::gen::ProgramScenario;
use oil::lang::registry::{FunctionRegistry, FunctionSignature};
use oil::rt::{
    execute_selftimed, execute_staticsched, DriftVerdict, Kernel, KernelLibrary, MetricsConfig,
    SelfTimedConfig, StaticConfig,
};
use oil::sim::picos;
use std::sync::{Mutex, MutexGuard};

const WORKERS: [usize; 3] = [1, 2, 4];
const MIN_ACCEPTED: usize = 8;
const HORIZON_S: f64 = 0.05;

/// Every test here that runs an engine holds this lock: a wall-clock
/// verdict must not be judged while a sibling test's workers take the
/// host's cores.
static ENGINE_RUNS: Mutex<()> = Mutex::new(());

fn engine_runs() -> MutexGuard<'static, ()> {
    // The lock guards no data, so a failed holder leaves nothing to repair.
    ENGINE_RUNS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

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

/// Byte-for-byte comparison of everything the value plane observes.
fn assert_bit_identical(
    seed: u64,
    what: &str,
    base: (
        &oil::rt::ValueTrace,
        &[oil::rt::SinkStream],
        &[(String, u64)],
    ),
    metered: (
        &oil::rt::ValueTrace,
        &[oil::rt::SinkStream],
        &[(String, u64)],
    ),
) {
    if let Some(d) = base.0.first_divergence(metered.0) {
        panic!("seed {seed}: {what}: metrics changed a value stream: {d}");
    }
    assert_eq!(
        base.2, metered.2,
        "seed {seed}: {what}: metrics changed firing counts"
    );
    assert_eq!(base.1.len(), metered.1.len(), "seed {seed}: {what}: sinks");
    for (a, b) in base.1.iter().zip(metered.1) {
        assert_eq!(
            a.consumed, b.consumed,
            "seed {seed}: {what}: sink `{}` consumed",
            a.name
        );
        assert_eq!(
            a.values, b.values,
            "seed {seed}: {what}: sink `{}` samples",
            a.name
        );
    }
}

/// The untampered corpus must never trip the oracle — but wall-clock rate
/// claims only bind when the run actually beat real time (an overloaded
/// host genuinely is drift, just not the kind this test injects).
fn assert_ok_verdict(seed: u64, what: &str, m: &oil::rt::MetricsReport, wall_s: f64) {
    if wall_s > HORIZON_S {
        return;
    }
    assert_eq!(
        m.verdict,
        DriftVerdict::Ok,
        "seed {seed}: {what}: drift oracle fired on an untampered run \
         (wall {wall_s:.6}s < virtual {HORIZON_S}s): {:?}",
        m.verdict
    );
}

#[test]
fn metered_runs_are_bit_identical_to_unmetered_on_all_engines() {
    let _serial = engine_runs();
    let metrics = Some(MetricsConfig::default());
    let mut accepted = 0usize;
    for seed in 0..24u64 {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        accepted += 1;
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        for &threads in &WORKERS {
            let run_selftimed = |metrics: Option<MetricsConfig>| {
                execute_selftimed(
                    &graph,
                    &plan,
                    &KernelLibrary::new(),
                    picos(HORIZON_S),
                    &SelfTimedConfig {
                        threads,
                        warmup_samples: 4,
                        metrics,
                        ..SelfTimedConfig::default()
                    },
                )
            };
            let base = run_selftimed(None);
            let metered = run_selftimed(metrics);
            let m = metered.metrics.as_ref().expect("metered run lost report");
            assert_ok_verdict(
                seed,
                &format!("selftimed@{threads}"),
                m,
                metered.wall.as_secs_f64(),
            );
            assert_bit_identical(
                seed,
                &format!("selftimed@{threads}"),
                (&base.values, &base.sinks, &base.node_firings),
                (&metered.values, &metered.sinks, &metered.node_firings),
            );

            let schedule = match synthesize(&graph, &plan, threads, &SynthesisConfig::from_env()) {
                Ok(s) => s,
                Err(ScheduleError::NonUniformCluster { .. }) => continue,
                Err(e) => panic!("seed {seed}: synthesis at {threads}: {e}"),
            };
            let run_static = |metrics: Option<MetricsConfig>| {
                execute_staticsched(
                    &graph,
                    &schedule,
                    &KernelLibrary::new(),
                    picos(HORIZON_S),
                    &StaticConfig {
                        record_values: true,
                        warmup_samples: 4,
                        metrics,
                        ..StaticConfig::default()
                    },
                )
            };
            let base = run_static(None);
            let metered = run_static(metrics);
            let m = metered.metrics.as_ref().expect("metered run lost report");
            assert_ok_verdict(
                seed,
                &format!("staticsched@{threads}"),
                m,
                metered.wall.as_secs_f64(),
            );
            assert_bit_identical(
                seed,
                &format!("staticsched@{threads}"),
                (&base.values, &base.sinks, &base.node_firings),
                (&metered.values, &metered.sinks, &metered.node_firings),
            );
        }
    }
    assert!(
        accepted >= MIN_ACCEPTED,
        "corpus too thin: only {accepted} of 24 seeds compiled"
    );
}

// ---------------------------------------------------------------------------
// Cost-model steering.
// ---------------------------------------------------------------------------

/// Four equal-declared-cost stages in a row: declared balancing has no
/// reason to isolate any one of them.
const CHAIN: &str = r#"
    mod seq A0(int a, out int b){ loop{ f0(a, out b); } while(1); }
    mod seq A1(int a, out int b){ loop{ f1(a, out b); } while(1); }
    mod seq A2(int a, out int b){ loop{ f2(a, out b); } while(1); }
    mod seq A3(int a, out int b){ loop{ f3(a, out b); } while(1); }
    mod par Top(){
        fifo int m0, m1, m2;
        source int x = src() @ 8 kHz;
        sink int y = snk() @ 8 kHz;
        A0(x, out m0) || A1(m0, out m1) || A2(m1, out m2) || A3(m2, out y)
    }
"#;

fn chain_registry() -> FunctionRegistry {
    let mut r = FunctionRegistry::new();
    for f in ["f0", "f1", "f2", "f3"] {
        r.register(FunctionSignature::pure(f, 1e-5));
    }
    r.register(FunctionSignature::pure("src", 1e-7));
    r.register(FunctionSignature::pure("snk", 1e-7));
    r
}

/// One kernel measured 500x more expensive than its equally-declared
/// peers; everything else cheap and uniform.
fn skewed_model() -> KernelCostModel {
    let mut model = KernelCostModel::new("test-host");
    let entry = |ns: f64| KernelCost {
        ns_per_firing: ns,
        burst: 64,
        samples: 9,
    };
    model.insert("f0", entry(50_000.0));
    for f in ["f1", "f2", "f3"] {
        model.insert(f, entry(100.0));
    }
    model
}

#[test]
fn skewed_cost_model_shifts_the_partition_and_never_the_values() {
    let _serial = engine_runs();
    let compiled = compile(CHAIN, &chain_registry(), &CompilerOptions::default())
        .expect("chain program compiles");
    let graph = rtgraph::lower(&compiled);
    let plan = rtgraph::plan(&graph);
    let workers = 2usize;

    let declared = synthesize(&graph, &plan, workers, &SynthesisConfig::default())
        .expect("declared-cost synthesis");
    let model = skewed_model();
    let measured = synthesize(
        &graph,
        &plan,
        workers,
        &SynthesisConfig {
            cost_model: Some(model.clone()),
            ..SynthesisConfig::default()
        },
    )
    .expect("measured-cost synthesis");

    // Provenance is recorded — and excluded from the structural digest.
    assert_eq!(declared.cost_model_hash, None);
    assert_eq!(measured.cost_model_hash, Some(model.fingerprint()));
    assert_eq!(measured.predicted_utilization.len(), workers);
    assert!(
        measured.predicted_utilization.iter().all(|u| *u > 0.0),
        "every worker should carry some predicted load: {:?}",
        measured.predicted_utilization
    );

    // The observation moved at least one unit to a different worker.
    let placement = |s: &oil::compiler::schedule::StaticSchedule| -> Vec<usize> {
        s.units.iter().map(|u| u.worker).collect()
    };
    assert_ne!(
        placement(&declared),
        placement(&measured),
        "a 500x skewed kernel cost must move the partition"
    );

    // …but never correctness: the moved schedule re-validates, and both
    // schedules stream bit-identical values.
    measured.validate(&graph).expect("measured-cost schedule");
    let run = |s| {
        execute_staticsched(
            &graph,
            s,
            &KernelLibrary::new(),
            picos(HORIZON_S),
            &StaticConfig {
                record_values: true,
                warmup_samples: 4,
                ..StaticConfig::default()
            },
        )
    };
    let a = run(&declared);
    let b = run(&measured);
    assert_bit_identical(
        0,
        "declared vs measured partition",
        (&a.values, &a.sinks, &a.node_firings),
        (&b.values, &b.sinks, &b.node_firings),
    );
}

#[test]
fn golden_digests_are_untouched_without_a_cost_model() {
    // `SynthesisConfig::from_env()` only grows a cost model when
    // OIL_COST_MODEL is set; with `cost_model: None` the measured-cost
    // path must be byte-for-byte the declared-cost path — the golden
    // corpus (tests/data/schedule_corpus.txt) relies on it.
    let compiled = compile(CHAIN, &chain_registry(), &CompilerOptions::default())
        .expect("chain program compiles");
    let graph = rtgraph::lower(&compiled);
    let plan = rtgraph::plan(&graph);
    for workers in [1usize, 2, 4] {
        let a = synthesize(&graph, &plan, workers, &SynthesisConfig::default())
            .expect("default synthesis");
        let b = synthesize(
            &graph,
            &plan,
            workers,
            &SynthesisConfig {
                cost_model: None,
                ..SynthesisConfig::default()
            },
        )
        .expect("explicit no-model synthesis");
        assert_eq!(
            a.digest(),
            b.digest(),
            "workers={workers}: absent cost model changed a digest"
        );
        assert_eq!(a.cost_model_hash, None);
    }
}

// ---------------------------------------------------------------------------
// Detection latency: injected slowdown → Violated within one window.
// ---------------------------------------------------------------------------

const DRIFT_PROGRAM: &str = r#"
    mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
    mod par Top(){
        source int x = src() @ 100 kHz;
        sink int y = snk() @ 100 kHz;
        W(x, out y)
    }
"#;

fn drift_registry() -> FunctionRegistry {
    let mut r = FunctionRegistry::new();
    r.register(FunctionSignature::pure("f", 1e-6));
    r.register(FunctionSignature::pure("src", 1e-7));
    r.register(FunctionSignature::pure("snk", 1e-7));
    r
}

/// A kernel that burns at least `micros` of wall clock per firing and
/// passes its input through.
fn busy_kernel(micros: u64) -> Kernel {
    Kernel::Custom(Box::new(move |inputs, out_len| {
        let t0 = std::time::Instant::now();
        while t0.elapsed() < std::time::Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
        vec![inputs.first().copied().unwrap_or(0.0); out_len]
    }))
}

/// The control run's horizon: exactly three control windows of the 100 kHz
/// source (12 288 samples), so no short tail window is judged.
const CONTROL_HORIZON_S: f64 = 0.12288;

#[test]
fn drift_detector_flags_injected_slowdown_within_one_window() {
    let _serial = engine_runs();
    let compiled = compile(
        DRIFT_PROGRAM,
        &drift_registry(),
        &CompilerOptions::default(),
    )
    .expect("drift program compiles");
    let graph = rtgraph::lower(&compiled);
    let plan = rtgraph::plan(&graph);
    let metrics = MetricsConfig { window: 128 };

    // The sink is predicted at 100 kHz; a kernel pinned at ≥50 µs/firing
    // caps the observed rate at ≤20 kHz — a 5x slowdown.
    let mut slow = KernelLibrary::new();
    slow.register("f", Box::new(|| busy_kernel(50)));
    let report = execute_selftimed(
        &graph,
        &plan,
        &slow,
        picos(0.01),
        &SelfTimedConfig {
            threads: 1,
            warmup_samples: 4,
            metrics: Some(metrics),
            ..SelfTimedConfig::default()
        },
    );
    let m = report.metrics.expect("metrics were enabled");
    match &m.verdict {
        DriftVerdict::Violated {
            window,
            observed_hz,
            predicted_hz,
        } => {
            assert_eq!(
                *window, 0,
                "the slowdown is constant from the first sample, so the \
                 FIRST closed window must already violate"
            );
            assert!(
                observed_hz < predicted_hz,
                "violation must quote observed {observed_hz} < predicted {predicted_hz}"
            );
        }
        other => panic!(
            "a 5x kernel slowdown must be Violated within one window, got {other:?}\n{}",
            m.summary_line()
        ),
    }

    // Control: the same program with its normal (fast) kernels stays clean
    // when it beats real time. Its windows are 4096 samples (≈41 ms of
    // budget each), so one scheduler preemption cannot fake a violation the
    // way it could in a 128-sample (1.28 ms) window.
    let report = execute_selftimed(
        &graph,
        &plan,
        &KernelLibrary::new(),
        picos(CONTROL_HORIZON_S),
        &SelfTimedConfig {
            threads: 1,
            warmup_samples: 4,
            metrics: Some(MetricsConfig { window: 4096 }),
            ..SelfTimedConfig::default()
        },
    );
    let m = report.metrics.expect("metrics were enabled");
    assert_eq!(
        m.sinks[0]
            .windows
            .iter()
            .map(|w| w.samples)
            .collect::<Vec<_>>(),
        [4096; 3],
        "the control horizon must close exactly three full windows"
    );
    if report.wall.as_secs_f64() <= CONTROL_HORIZON_S {
        assert!(
            !matches!(m.verdict, DriftVerdict::Violated { .. }),
            "untampered control run must not violate: {}",
            m.summary_line()
        );
    }
}
