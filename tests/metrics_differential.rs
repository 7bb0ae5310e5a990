//! Differential verification of the run metrics (`oil::rt::metrics`).
//!
//! Four oracles:
//!
//! 1. **Bit-identity** — enabling metrics must never change a value
//!    stream, sink sample or firing count, on either engine at any worker
//!    count. Same contract tracing is held to (`trace_differential.rs`);
//!    like tracing, metering does not reach the reference interpreter.
//! 2. **Live oracle honesty** — on the untampered corpus, no run that
//!    beats real time may read a drift window as violated or degrading:
//!    the drift detector may only fire on real drift.
//! 3. **Detection latency** — an injected 5x-slower kernel is reported as
//!    `Violated` in the *first* closed window, not at end-of-run.
//! 4. **One observation path** — a run traced and metered at once gives
//!    two views of the same probes, and they agree exactly: work items,
//!    per-worker busy time, parks and ring-wait time.

mod support;

use oil::compiler::schedule::SynthesisConfig;
use oil::lang::registry::FunctionSignature;
use oil::rt::trace::{EventKind, TraceTrack};
use oil::rt::{
    execute_selftimed, execute_staticsched, Kernel, KernelLibrary, MetricsConfig, MetricsReport,
    RateVerdict, SelfTimedConfig, StaticConfig, TraceReport,
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
                assert!(
                    matches!(m.verdict, RateVerdict::Pass | RateVerdict::Inconclusive),
                    "{at}: drift oracle fired on an untampered run \
                     (wall {wall_s:.6}s < virtual {HORIZON_S}s): {}",
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

/// A kernel that sleeps at least `micros` per firing and passes its input
/// through. Unlike [`busy_kernel`] it leaves the core to its peers, so a
/// worker blocked behind it outlasts its spin budget and parks even when
/// both workers share one core.
fn sleeping_kernel(micros: u64) -> Kernel {
    Kernel::Custom(Box::new(move |inputs, out_len| {
        std::thread::sleep(std::time::Duration::from_micros(micros));
        vec![inputs.first().copied().unwrap_or(0.0); out_len]
    }))
}

/// The control run's horizon: the warm-up boundary at the sink's fifth
/// sample (the first after its 4 warm-up samples), then exactly three
/// control windows of the 100 kHz source (12 288 samples), so no short tail
/// window is judged.
const CONTROL_HORIZON_S: f64 = 0.12293;

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
        RateVerdict::Violated {
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
        report.throughput[0]
            .windows
            .iter()
            .map(|w| w.samples)
            .collect::<Vec<_>>(),
        [4096; 3],
        "the control horizon must close exactly three full windows"
    );
    if report.wall.as_secs_f64() <= CONTROL_HORIZON_S {
        assert!(
            !matches!(m.verdict, RateVerdict::Violated { .. }),
            "untampered control run must not violate: {}",
            m.summary_line()
        );
    }
}

// ---------------------------------------------------------------------------
// One observation path: the traced and the metered view of one run agree.
// ---------------------------------------------------------------------------

/// Assert that `metrics` and `trace`, both folded from the probes of one
/// run, agree exactly.
fn assert_views_agree(at: &str, trace: &TraceReport, metrics: &MetricsReport) {
    assert_eq!(trace.dropped, 0, "{at}: a dropped span cannot be compared");
    let items = |t: &TraceTrack| {
        let work = (t.events.iter())
            .filter(|e| matches!(e.kind, EventKind::Firing | EventKind::SuperStep));
        work.fold((0u64, 0u64), |(n, ns), e| (n + 1, ns + e.dur_ns))
    };
    let per_worker: Vec<(u64, u64)> = trace.tracks.iter().map(items).collect();
    let spans: u64 = per_worker.iter().map(|&(n, _)| n).sum();
    assert_eq!(metrics.firings, spans, "{at}: work items vs work spans");
    let busy: Vec<u64> = per_worker.iter().map(|&(_, ns)| ns).collect();
    assert_eq!(
        metrics.worker_firing_ns, busy,
        "{at}: busy ns vs span durations"
    );
    assert_eq!(metrics.parks, trace.park_count(), "{at}: parks");
    assert_eq!(
        metrics.backpressure_ns,
        trace.backpressure_wait_ns(),
        "{at}: backpressure ns"
    );
}

#[test]
fn trace_and_metrics_of_one_run_agree_exactly() {
    let _serial = engine_runs();
    let both = Knobs {
        trace: true,
        metrics: Some(MetricsConfig::default()),
    };
    let cells = matrix(&[1, 2]);
    for (at, scenario) in programs(6, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        for cell in &cells {
            let at = format!("{at}: {cell}");
            let report = cell.run(&at, &exe.graph, HORIZON_S, both);
            let trace = report.trace_report().expect("tracing was enabled");
            let metrics = report.metrics().expect("metrics were enabled");
            assert_views_agree(&at, trace, metrics);
        }
    }

    // A consumer slowed to ≥200 µs per firing behind a crossing ring: the
    // producer's blocked waits outlast the spin budget and park, so parks
    // and wait time are compared at values other than zero.
    let registry = support::pure(&["f", "g", "init", "src", "snk"], 1e-5);
    let mut slow = KernelLibrary::new();
    slow.register("g", Box::new(|| sleeping_kernel(200)));
    let synthesis = support::fusion(true);
    let exe = oil::build(support::PIPELINE, &registry, 2, &synthesis).expect("pipeline builds");
    assert!(
        !exe.schedule.cross_buffers.is_empty(),
        "the pipeline crosses workers"
    );
    let report = execute_staticsched(
        &exe.graph,
        &exe.schedule,
        &slow,
        picos(HORIZON_S),
        &StaticConfig {
            trace: true,
            metrics: Some(MetricsConfig::default()),
            ..StaticConfig::default()
        },
    );
    let (trace, metrics) = (report.trace_report.unwrap(), report.metrics.unwrap());
    assert!(
        trace.park_count() > 0,
        "the crossing ring must park: {:?}",
        trace.counters
    );
    assert!(trace.backpressure_wait_ns() > 0);
    assert_views_agree("slowed pipeline: staticsched@2", &trace, &metrics);
    let report = execute_selftimed(
        &exe.graph,
        &exe.plan,
        &slow,
        picos(HORIZON_S),
        &SelfTimedConfig {
            threads: 2,
            trace: true,
            metrics: Some(MetricsConfig::default()),
            ..SelfTimedConfig::default()
        },
    );
    let parks = report.parks;
    let (trace, metrics) = (report.trace_report.unwrap(), report.metrics.unwrap());
    assert_views_agree("slowed pipeline: selftimed@2", &trace, &metrics);
    // Self-timed workers never block inside a ring, so each park is a
    // condvar park: one count per worker, which all three reports read.
    assert!(parks > 0, "the idle producer must park");
    assert_eq!(
        trace.park_count(),
        parks,
        "selftimed@2: trace vs report parks"
    );
    assert_eq!(
        trace.counters.unparks, parks,
        "selftimed@2: one wake per park"
    );
}
