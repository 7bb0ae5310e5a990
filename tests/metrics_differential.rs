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

mod support;

use oil::compiler::costmodel::{KernelCost, KernelCostModel};
use oil::compiler::schedule::{StaticSchedule, SynthesisConfig};
use oil::lang::registry::FunctionSignature;
use oil::rt::{
    execute_selftimed, DriftVerdict, Kernel, KernelLibrary, MetricsConfig, SelfTimedConfig,
};
use oil::sim::picos;
use std::sync::{Mutex, MutexGuard};
use support::{assert_identical, build_program, matrix, programs, Knobs};

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

#[test]
fn metered_runs_are_bit_identical_to_unmetered_on_all_engines() {
    let _serial = engine_runs();
    let cells = matrix(&[1, 2, 4]);
    let mut accepted = 0usize;
    for (at, scenario) in programs(24, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        accepted += 1;
        for cell in &cells {
            let at = format!("{at}: {cell}");
            let run = |metrics| {
                cell.run(
                    &at,
                    &exe.graph,
                    HORIZON_S,
                    Knobs {
                        metrics,
                        ..Knobs::default()
                    },
                )
            };
            let base = run(None);
            let metered = run(Some(MetricsConfig::default()));
            let m = metered.metrics().expect("metered run lost report");
            // The untampered corpus must never trip the oracle — but
            // wall-clock rate claims only bind when the run actually beat
            // real time (an overloaded host genuinely is drift, just not
            // the kind this test injects).
            let wall_s = metered.wall_s();
            if wall_s <= HORIZON_S {
                assert_eq!(
                    m.verdict,
                    DriftVerdict::Ok,
                    "{at}: drift oracle fired on an untampered run \
                     (wall {wall_s:.6}s < virtual {HORIZON_S}s): {:?}",
                    m.verdict
                );
            }
            assert_identical(&format!("{at}: metered vs unmetered"), &base, &metered);
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

/// `CHAIN` built for two workers under `config`.
fn chain(config: &SynthesisConfig) -> oil::Executable {
    let mut registry = support::pure(&["f0", "f1", "f2", "f3"], 1e-5);
    registry.register(FunctionSignature::pure("src", 1e-7));
    registry.register(FunctionSignature::pure("snk", 1e-7));
    oil::build(CHAIN, &registry, 2, config).expect("chain program builds")
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
    let workers = 2usize;
    let declared = chain(&SynthesisConfig::default()).schedule;
    let model = skewed_model();
    let measured = chain(&SynthesisConfig {
        cost_model: Some(model.clone()),
        ..SynthesisConfig::default()
    });
    let (graph, measured) = (measured.graph, measured.schedule);

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
    let placement =
        |s: &StaticSchedule| -> Vec<usize> { s.units.iter().map(|u| u.worker).collect() };
    assert_ne!(
        placement(&declared),
        placement(&measured),
        "a 500x skewed kernel cost must move the partition"
    );

    // …but never correctness: the moved schedule re-validates, and both
    // schedules stream bit-identical values.
    measured.validate(&graph).expect("measured-cost schedule");
    let config = support::static_config();
    let a = support::replay(&graph, &declared, HORIZON_S, None, &config);
    let b = support::replay(&graph, &measured, HORIZON_S, None, &config);
    assert_identical("declared vs measured partition", &a, &b);
}

#[test]
fn golden_digests_are_untouched_without_a_cost_model() {
    // `SynthesisConfig::from_env()` only grows a cost model when
    // OIL_COST_MODEL is set, and the golden corpus
    // (tests/data/schedule_corpus.txt) is synthesised with none. A model
    // that measured nothing must leave every kernel at its declared
    // response, so its schedules are byte-for-byte the declared-cost ones.
    assert!(SynthesisConfig::default().cost_model.is_none());
    let graph = chain(&SynthesisConfig::default()).graph;
    let empty = SynthesisConfig {
        cost_model: Some(KernelCostModel::new("empty")),
        ..SynthesisConfig::default()
    };
    for workers in [1usize, 2, 4] {
        let a = support::schedule("CHAIN", &graph, workers, &SynthesisConfig::default());
        let b = support::schedule("CHAIN", &graph, workers, &empty);
        assert_eq!(
            a.digest(),
            b.digest(),
            "workers={workers}: an empty cost model changed a digest"
        );
        assert_eq!(a.cost_model_hash, None);
        assert!(b.cost_model_hash.is_some());
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
    let mut registry = support::pure(&["src", "snk"], 1e-7);
    registry.register(FunctionSignature::pure("f", 1e-6));
    let config = SynthesisConfig::default();
    let exe = oil::build(DRIFT_PROGRAM, &registry, 1, &config).expect("drift program builds");
    let (graph, plan) = (&exe.graph, &exe.plan);
    let metrics = MetricsConfig { window: 128 };

    // The sink is predicted at 100 kHz; a kernel pinned at ≥50 µs/firing
    // caps the observed rate at ≤20 kHz — a 5x slowdown.
    let mut slow = KernelLibrary::new();
    slow.register("f", Box::new(|| busy_kernel(50)));
    let report = execute_selftimed(
        graph,
        plan,
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
        graph,
        plan,
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
