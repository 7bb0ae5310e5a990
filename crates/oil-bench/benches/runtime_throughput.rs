//! Runtime throughput: the execution engines head to head.
//!
//! Two references and two engines over three workloads, each executed over
//! a fixed virtual horizon while the wall clock is measured:
//!
//! * **sim** — the discrete-event simulator: token origins only, no kernel
//!   work, no threads. The scheduling-overhead floor.
//! * **calendar** — `oil-rt::exec`, the single-threaded reference
//!   interpreter: real kernels fired inline from the virtual-clock calendar
//!   (the price of bit-identical traces). One row; it is the oracle the
//!   engines are compared against, not a contender.
//! * **selftimed** — `oil-rt::selftimed` at 1/2/4 worker threads: real
//!   kernels, no clock, tasks fire whenever data and space allow with
//!   repetition-vector batching.
//! * **staticsched** — `oil-rt::staticsched` at 1/2/4 workers: each worker
//!   replays the compiled periodic firing list (`oil_compiler::schedule`)
//!   with zero readiness scanning; runs of consecutive firings execute as
//!   single blocked kernel calls.
//!
//! Workloads:
//!
//! * **pal** — the PAL decoder with its real DSP kernels (Fig. 11): one RF
//!   source at 6.4 MS/s through mixers, filters and resamplers to the
//!   display and speaker sinks;
//! * **sdr** — an FM-receiver-style chain (wideband source → decimator →
//!   demod mixer → audio resampler → sink) with real DSP kernels, the
//!   `ProgramScenario::generate_sdr` topology at radio-ish rates;
//! * **wide** — eight independent chains with deliberately heavy FIR
//!   kernels (2047 taps), the shape where kernel work dominates scheduling
//!   and worker threads pay off.
//!
//! Results are printed and written to `BENCH_runtime.json` at the workspace
//! root under **schema v9**: one record per (workload, engine_mode,
//! threads), each carrying the host parallelism measured *at that row's
//! execution* (`std::thread::available_parallelism()` can change under
//! cgroup pressure mid-run), a `"degraded": true` flag whenever
//! `threads > host_parallelism` — so 2/4-thread numbers taken on a 1-core
//! host are never silently mistaken for parallel scaling — the
//! schedule-fusion counters of the static-order rows (`runs_fused`,
//! `rings_elided`, `fused_chain_len_max`; zero on the other engines),
//! `engine_actual` (v5): the engine that really produced the row,
//! `transition_firings` (v6): modal firings spent draining a mode-switch
//! seam (0 on non-modal and union-advance workloads), the runtime-trace
//! telemetry columns (v7) — `park_count`, `ring_highwater_max`,
//! `backpressure_wait_ns`, `seam_latency_observed_ns` — and (v8):
//!
//! * `telemetry_source` — where those four columns came from: `"inline"`
//!   when the row itself ran traced (`OIL_RT_TRACE=1`), `"companion"` when
//!   a short traced companion run at the smoke horizon supplied them (the
//!   headline rows run untraced, and schema v7's constant zeros taught
//!   nothing), `"none"` on the sim and calendar rows;
//! * `predicted_utilization` / `measured_utilization` — per-worker
//!   utilization: predicted by synthesis from its cost vector, measured by
//!   the metrics registry (`OIL_RT_METRICS=1`; empty when metrics are off);
//! * `drift` — the registry's CTA-drift verdict for the row
//!   (`ok`/`degrading`/`violated`, `none` with metrics off).
//!
//! Schema v9 drops v8's cost-model provenance (a per-row fingerprint and a
//! top-level object): the partitioner has one cost source, the declared
//! CTA response times. A traced row (inline or companion)
//! that dropped events prints a `WARNING:` line — a saturated buffer must
//! not silently truncate the evidence.
//! A requested staticsched row whose synthesis is rejected falls back to
//! selftimed **loudly** — `engine_actual` records it, a `FALLBACK:` line is
//! printed, and the smoke run fails — never a mislabelled number.
//!
//! `cargo bench -p oil-bench --bench runtime_throughput -- --test` runs a
//! smoke-sized horizon (CI). `--floor-pal-staticsched <tokens/s>` makes the
//! run fail when the PAL static-order single-worker row falls below the
//! given throughput — the CI regression floor for the fused engine.
//! `--compare <baseline.json>` fails the run when any non-degraded engine
//! row regresses more than 25% in tokens/wall-second against the same
//! non-degraded row of a committed baseline (sim rows are reference, not
//! gated).

use oil_compiler::schedule::{FusionStats, ScheduleError, SynthesisConfig};
use oil_compiler::{build, schedule, Executable};
use oil_dsp::{Decimator, FirFilter, Mixer, RationalResampler};
use oil_lang::registry::{FunctionRegistry, FunctionSignature};
use oil_rt::{
    env_metrics, env_trace, execute, execute_selftimed, execute_staticsched, DriftVerdict, Kernel,
    KernelLibrary, MetricsConfig, MetricsReport, RtConfig, SelfTimedConfig, StaticConfig,
    TraceReport,
};
use oil_sim::{build_simulation_from_graph, picos, SimulationConfig};
use std::fmt::Write as _;
use std::time::Instant;

struct Row {
    workload: &'static str,
    engine_mode: &'static str,
    /// The engine that actually produced this row. Differs from
    /// `engine_mode` only when a requested staticsched row fell back to
    /// selftimed because synthesis rejected the graph — recorded loudly
    /// instead of silently mislabelling the number (schema v5).
    engine_actual: &'static str,
    threads: usize,
    virtual_s: f64,
    wall_ms: f64,
    tokens: u64,
    tokens_per_wall_s: f64,
    /// Host parallelism observed when this row ran.
    host_parallelism: usize,
    /// Schedule-fusion counters (zero for every engine but staticsched).
    fusion: FusionStats,
    /// Modal firings spent draining a mode-switch seam (schema v6; 0 for
    /// non-modal workloads and for engines without seam accounting).
    transition_firings: u64,
    /// Where the four telemetry columns below came from (schema v8):
    /// `"inline"` (this row ran traced), `"companion"` (a short traced run
    /// at the smoke horizon), or `"none"` (sim rows).
    telemetry_source: &'static str,
    /// Runtime-trace telemetry (schema v7): condvar + ring parks.
    park_count: u64,
    /// Highest ring occupancy observed after a push.
    ring_highwater_max: usize,
    /// Nanoseconds blocked on ring backpressure.
    backpressure_wait_ns: u64,
    /// Longest observed mode-switch seam span.
    seam_latency_observed_ns: u64,
    /// Synthesis-predicted per-worker utilization (staticsched rows only).
    predicted_utilization: Vec<f64>,
    /// Metrics-measured per-worker utilization (empty with metrics off).
    measured_utilization: Vec<f64>,
    /// The metrics registry's drift verdict for this row (`none` when
    /// metrics are off).
    drift: &'static str,
}

fn host_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The v7 telemetry quadruple of a row.
fn trace_fields(tr: &TraceReport) -> (u64, usize, u64, u64) {
    (
        tr.park_count(),
        tr.ring_highwater_max(),
        tr.backpressure_wait_ns(),
        tr.seam_latency_observed_ns(),
    )
}

/// A saturated trace buffer silently truncates the evidence; say so.
fn warn_drops(label: &str, tr: &TraceReport) {
    if tr.dropped > 0 {
        eprintln!(
            "WARNING: {label}: traced run dropped {} event(s) — telemetry \
             under-counts; raise the horizon or lower the worker count",
            tr.dropped
        );
    }
}

/// Telemetry for one engine row: from the row's own trace when tracing is
/// on, else from a traced companion run at the smoke horizon (schema v7
/// emitted constant zeros here).
fn telemetry(
    label: &str,
    inline: Option<&TraceReport>,
    companion: impl FnOnce() -> Option<TraceReport>,
) -> (&'static str, u64, usize, u64, u64) {
    if let Some(tr) = inline {
        warn_drops(label, tr);
        let (p, h, b, s) = trace_fields(tr);
        return ("inline", p, h, b, s);
    }
    match companion() {
        Some(tr) => {
            warn_drops(&format!("{label} (companion)"), &tr);
            let (p, h, b, s) = trace_fields(&tr);
            ("companion", p, h, b, s)
        }
        None => ("none", 0, 0, 0, 0),
    }
}

fn drift_tag(m: Option<&MetricsReport>) -> &'static str {
    match m.map(|m| &m.verdict) {
        None => "none",
        Some(DriftVerdict::Ok) => "ok",
        Some(DriftVerdict::Degrading { .. }) => "degrading",
        Some(DriftVerdict::Violated { .. }) => "violated",
    }
}

fn measured_utilization(m: Option<&MetricsReport>, wall: std::time::Duration) -> Vec<f64> {
    m.map(|m| m.measured_utilization(wall.as_nanos() as u64))
        .unwrap_or_default()
}

fn pal_graph(synth: &SynthesisConfig) -> Executable {
    let registry = oil_pal::pal_registry();
    build(oil_pal::PAL_DECODER_OIL, &registry, 1, synth).expect("PAL decoder builds")
}

/// The SDR chain: a fixed `generate_sdr`-shaped program at radio-ish rates
/// (512 kHz wideband → ÷8 decimation → mixer demod → 2:3 resample → 96 kHz
/// sink), bound to real DSP kernels.
fn sdr_graph(synth: &SynthesisConfig) -> (Executable, KernelLibrary) {
    const WIDEBAND: f64 = 512_000.0;
    let src = r#"
        mod seq Decim(int a, out int b){ loop{ f0(a:8, out b); } while(1); }
        mod seq Demod(int a, out int b){ loop{ f1(a, out b); } while(1); }
        mod seq Resamp(int a, out int b){ loop{ f2(a:2, out b:3); } while(1); }
        mod par Top(){
            fifo int ifs, af;
            source int x = src() @ 512 kHz;
            sink int y = snk() @ 96 kHz;
            Decim(x, out ifs) || Demod(ifs, out af) || Resamp(af, out y)
        }
    "#;
    let mut reg = FunctionRegistry::new();
    reg.register(FunctionSignature::pure("f0", 1e-5)); // fires at 64 kHz
    reg.register(FunctionSignature::pure("f1", 1e-5));
    reg.register(FunctionSignature::pure("f2", 2e-5)); // fires at 32 kHz
    reg.register(FunctionSignature::pure("src", 1e-7));
    reg.register(FunctionSignature::pure("snk", 1e-7));
    let exe = build(src, &reg, 1, synth).expect("sdr program");

    let mut lib = KernelLibrary::new();
    lib.register(
        "f0",
        Box::new(|| Kernel::Decimate(Decimator::new(8, WIDEBAND, 63))),
    );
    lib.register(
        "f1",
        Box::new(|| Kernel::Mix(Mixer::new(16_000.0, WIDEBAND / 8.0))),
    );
    lib.register(
        "f2",
        Box::new(|| Kernel::Resample(RationalResampler::new(3, 2, WIDEBAND / 8.0, 63))),
    );
    (exe, lib)
}

/// Eight independent source → filter → sink chains at 4 kHz: wide enough
/// that firings overlap, with kernels heavy enough that worker threads matter.
fn wide_graph(synth: &SynthesisConfig) -> (Executable, KernelLibrary) {
    const CHAINS: usize = 8;
    let mut src = String::new();
    let _ = writeln!(
        src,
        "mod seq S(int a, out int b){{ loop{{ heavy(a, out b); }} while(1); }}"
    );
    let _ = writeln!(src, "mod par Top(){{");
    for i in 0..CHAINS {
        let _ = writeln!(src, "    source int x{i} = src() @ 4 kHz;");
        let _ = writeln!(src, "    sink int y{i} = snk() @ 4 kHz;");
    }
    let calls: Vec<String> = (0..CHAINS).map(|i| format!("S(x{i}, out y{i})")).collect();
    let _ = writeln!(src, "    {}\n}}", calls.join(" || "));

    let mut reg = FunctionRegistry::new();
    // The declared response time (75% of the period) is the virtual-time
    // budget; the wall-clock kernel below costs real microseconds.
    reg.register(FunctionSignature::pure("heavy", 1.875e-4));
    reg.register(FunctionSignature::pure("src", 1e-7));
    reg.register(FunctionSignature::pure("snk", 1e-7));
    let exe = build(&src, &reg, 1, synth).expect("wide program");

    let mut lib = KernelLibrary::new();
    lib.register(
        "heavy",
        Box::new(|| Kernel::Fir(FirFilter::low_pass(200.0, 4_000.0, 2047))),
    );
    (exe, lib)
}

/// The row of a single-threaded reference (`sim`, `calendar`): no workers
/// to sweep, no trace, no metrics.
fn reference_row(
    workload: &'static str,
    engine: &'static str,
    virtual_s: f64,
    wall: std::time::Duration,
    tokens: u64,
) -> Row {
    Row {
        workload,
        engine_mode: engine,
        engine_actual: engine,
        threads: 1,
        virtual_s,
        wall_ms: wall.as_secs_f64() * 1e3,
        tokens,
        tokens_per_wall_s: tokens as f64 / wall.as_secs_f64(),
        host_parallelism: host_parallelism(),
        fusion: FusionStats::default(),
        transition_firings: 0,
        telemetry_source: "none",
        park_count: 0,
        ring_highwater_max: 0,
        backpressure_wait_ns: 0,
        seam_latency_observed_ns: 0,
        predicted_utilization: Vec::new(),
        measured_utilization: Vec::new(),
        drift: "none",
    }
}

const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

#[allow(clippy::too_many_arguments)]
fn bench_workload(
    rows: &mut Vec<Row>,
    workload: &'static str,
    exe: &Executable,
    lib: &KernelLibrary,
    virtual_s: f64,
    companion_s: f64,
    synth: &SynthesisConfig,
    trace: bool,
    metrics: Option<MetricsConfig>,
) {
    let (graph, plan) = (&exe.graph, &exe.plan);
    // Simulator floor (token origins only, no kernels, no trace recording).
    let mut net = build_simulation_from_graph(graph);
    let started = Instant::now();
    let sim_metrics = net.run(
        picos(virtual_s),
        &SimulationConfig {
            cores: 0,
            warmup_ticks: 64,
        },
    );
    let wall = started.elapsed();
    // Same currency as the runtime reports — values actually pushed into
    // buffers — so every row is directly comparable.
    rows.push(reference_row(
        workload,
        "sim",
        virtual_s,
        wall,
        sim_metrics.tokens_written,
    ));

    let report = execute(
        graph,
        lib,
        picos(virtual_s),
        &RtConfig {
            warmup_ticks: 64,
            record_traces: false,
            record_values: false,
            ..RtConfig::default()
        },
    );
    assert!(
        report.meets_real_time_constraints(),
        "{workload}: the calendar interpreter missed constraints"
    );
    rows.push(reference_row(
        workload,
        "calendar",
        virtual_s,
        report.wall,
        report.tokens,
    ));

    for threads in THREAD_SWEEP {
        let run = |trace: bool, horizon: f64| {
            execute_selftimed(
                graph,
                plan,
                lib,
                picos(horizon),
                &SelfTimedConfig {
                    threads,
                    record_values: false,
                    trace,
                    metrics,
                    ..SelfTimedConfig::default()
                },
            )
        };
        let report = run(trace, virtual_s);
        assert!(
            !report.deadlocked,
            "{workload}: self-timed engine deadlocked at {threads} threads"
        );
        let label = format!("{workload} selftimed@{threads}");
        let (telemetry_source, telemetry_parks, ring_highwater_max, backpressure, seam) =
            telemetry(&label, report.trace_report.as_ref(), || {
                run(true, companion_s).trace_report
            });
        rows.push(Row {
            workload,
            engine_mode: "selftimed",
            engine_actual: "selftimed",
            threads,
            virtual_s,
            wall_ms: report.wall.as_secs_f64() * 1e3,
            tokens: report.tokens,
            tokens_per_wall_s: report.tokens as f64 / report.wall.as_secs_f64(),
            host_parallelism: host_parallelism(),
            fusion: FusionStats::default(),
            transition_firings: 0,
            telemetry_source,
            // The self-timed engine counts parks unconditionally; the
            // row's own count beats the companion's shorter horizon.
            park_count: if telemetry_source == "inline" {
                telemetry_parks
            } else {
                report.parks
            },
            ring_highwater_max,
            backpressure_wait_ns: backpressure,
            seam_latency_observed_ns: seam,
            predicted_utilization: Vec::new(),
            measured_utilization: measured_utilization(report.metrics.as_ref(), report.wall),
            drift: drift_tag(report.metrics.as_ref()),
        });
    }

    for workers in THREAD_SWEEP {
        match schedule::synthesize(graph, plan, workers, synth) {
            Ok(schedule) => {
                let run = |trace: bool, horizon: f64| {
                    execute_staticsched(
                        graph,
                        &schedule,
                        lib,
                        picos(horizon),
                        &StaticConfig {
                            record_values: false,
                            trace,
                            metrics,
                            ..StaticConfig::default()
                        },
                    )
                };
                let report = run(trace, virtual_s);
                let label = format!("{workload} staticsched@{workers}");
                let (telemetry_source, park_count, ring_highwater_max, backpressure, seam) =
                    telemetry(&label, report.trace_report.as_ref(), || {
                        run(true, companion_s).trace_report
                    });
                rows.push(Row {
                    workload,
                    engine_mode: "staticsched",
                    engine_actual: "staticsched",
                    threads: report.threads,
                    virtual_s,
                    wall_ms: report.wall.as_secs_f64() * 1e3,
                    tokens: report.tokens,
                    tokens_per_wall_s: report.tokens as f64 / report.wall.as_secs_f64(),
                    host_parallelism: host_parallelism(),
                    fusion: report.fusion,
                    transition_firings: report.transition_firings,
                    telemetry_source,
                    park_count,
                    ring_highwater_max,
                    backpressure_wait_ns: backpressure,
                    seam_latency_observed_ns: seam,
                    predicted_utilization: schedule.predicted_utilization.clone(),
                    measured_utilization: measured_utilization(
                        report.metrics.as_ref(),
                        report.wall,
                    ),
                    drift: drift_tag(report.metrics.as_ref()),
                });
            }
            Err(e @ ScheduleError::NonUniformCluster { .. }) => {
                // The graph admits no static-order schedule (not even
                // per-mode ones): fall back to the self-timed engine and
                // say so — the row records the engine actually used and
                // the smoke run fails on it.
                eprintln!(
                    "WARNING: {workload}: staticsched@{workers} fell back to \
                     selftimed: {e}"
                );
                let run = |trace: bool, horizon: f64| {
                    execute_selftimed(
                        graph,
                        plan,
                        lib,
                        picos(horizon),
                        &SelfTimedConfig {
                            threads: workers,
                            record_values: false,
                            trace,
                            metrics,
                            ..SelfTimedConfig::default()
                        },
                    )
                };
                let report = run(trace, virtual_s);
                let label = format!("{workload} staticsched@{workers} (fallback)");
                let (telemetry_source, telemetry_parks, ring_highwater_max, backpressure, seam) =
                    telemetry(&label, report.trace_report.as_ref(), || {
                        run(true, companion_s).trace_report
                    });
                rows.push(Row {
                    workload,
                    engine_mode: "staticsched",
                    engine_actual: "selftimed",
                    threads: report.threads,
                    virtual_s,
                    wall_ms: report.wall.as_secs_f64() * 1e3,
                    tokens: report.tokens,
                    tokens_per_wall_s: report.tokens as f64 / report.wall.as_secs_f64(),
                    host_parallelism: host_parallelism(),
                    fusion: FusionStats::default(),
                    transition_firings: report.transition_firings,
                    telemetry_source,
                    park_count: if telemetry_source == "inline" {
                        telemetry_parks
                    } else {
                        report.parks
                    },
                    ring_highwater_max,
                    backpressure_wait_ns: backpressure,
                    seam_latency_observed_ns: seam,
                    predicted_utilization: Vec::new(),
                    measured_utilization: measured_utilization(
                        report.metrics.as_ref(),
                        report.wall,
                    ),
                    drift: drift_tag(report.metrics.as_ref()),
                });
            }
            Err(e) => panic!("{workload}: schedule synthesis at {workers} workers: {e}"),
        }
    }
}

fn utilization_json(u: &[f64]) -> String {
    let mut s = String::from("[");
    for (i, x) in u.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{x:.4}");
    }
    s.push(']');
    s
}

/// Pull the value of `key` out of a one-line schema-v7/v8/v9 row. Scalar
/// fields only (the array fields are emitted after every scalar).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim().trim_matches('"'))
}

struct BaselineRow {
    workload: String,
    engine_mode: String,
    threads: usize,
    virtual_s: f64,
    tokens_per_wall_s: f64,
    degraded: bool,
}

/// Parse the committed BENCH_runtime.json (one row per line, as this
/// binary writes it — schema v7, v8 or v9). A hand-rolled reader.
fn parse_baseline(raw: &str) -> Vec<BaselineRow> {
    raw.lines()
        .filter_map(|line| {
            let workload = field(line, "workload")?.to_string();
            Some(BaselineRow {
                workload,
                engine_mode: field(line, "engine_mode")?.to_string(),
                threads: field(line, "threads")?.parse().ok()?,
                virtual_s: field(line, "virtual_seconds")?.parse().ok()?,
                tokens_per_wall_s: field(line, "tokens_per_wall_second")?.parse().ok()?,
                degraded: field(line, "degraded")? == "true",
            })
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--test");
    // CI regression floor for the fused static-order engine: the run fails
    // when the PAL staticsched single-worker row drops below this many
    // tokens per wall-second.
    let floor_pal_staticsched: Option<f64> = args
        .iter()
        .position(|a| a == "--floor-pal-staticsched")
        .map(|i| {
            args.get(i + 1)
                .and_then(|v| v.parse().ok())
                .expect("--floor-pal-staticsched takes a tokens/s number")
        });
    let compare_path: Option<String> = args.iter().position(|a| a == "--compare").map(|i| {
        args.get(i + 1)
            .cloned()
            .expect("--compare takes a baseline JSON path")
    });
    // Read the baseline up front — this run overwrites BENCH_runtime.json
    // at the workspace root, and comparing against our own fresh output
    // would make the gate vacuous.
    let baseline: Option<(String, Vec<BaselineRow>)> = compare_path.map(|path| {
        // Cargo runs bench binaries from the package dir; accept a path
        // relative to the workspace root too (where this binary writes).
        let resolved = if std::path::Path::new(&path).exists() {
            std::path::PathBuf::from(&path)
        } else {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../")
                .join(&path)
        };
        let raw = std::fs::read_to_string(&resolved)
            .unwrap_or_else(|e| panic!("--compare: cannot read {path}: {e}"));
        let rows = parse_baseline(&raw);
        assert!(
            !rows.is_empty(),
            "--compare: no benchmark rows found in {path}"
        );
        (path, rows)
    });
    let (pal_s, sdr_s, wide_s) = if smoke {
        (1e-3, 0.05, 0.1)
    } else {
        (10e-3, 1.0, 2.0)
    };
    // Traced companions always run at the smoke horizon: telemetry shape,
    // not throughput, is what they report.
    let (pal_c, sdr_c, wide_c) = (1e-3, 0.05, 0.1);

    // The one place the fusion/cost-model toggles read the environment:
    // every synthesis below sees the same immutable config.
    let synth = SynthesisConfig::from_env();
    // Tracing is opt-in (OIL_RT_TRACE=1); the regression floor is always
    // gated on an untraced run, so the four telemetry columns of the
    // headline rows come from traced companion runs instead. Metrics are
    // equally opt-in (OIL_RT_METRICS=1) and ride the headline rows — the
    // registry is designed to be left on.
    let trace = env_trace();
    let metrics = env_metrics();

    let mut rows = Vec::new();
    let pal = pal_graph(&synth);
    bench_workload(
        &mut rows,
        "pal",
        &pal,
        &KernelLibrary::pal(),
        pal_s,
        pal_c,
        &synth,
        trace,
        metrics,
    );
    let (sdr, sdr_lib) = sdr_graph(&synth);
    bench_workload(
        &mut rows, "sdr", &sdr, &sdr_lib, sdr_s, sdr_c, &synth, trace, metrics,
    );
    let (wide, wide_lib) = wide_graph(&synth);
    bench_workload(
        &mut rows, "wide", &wide, &wide_lib, wide_s, wide_c, &synth, trace, metrics,
    );

    println!(
        "\n{:<8} {:<12} {:<12} {:>7} {:>10} {:>12} {:>12} {:>16} {:>6}",
        "workload",
        "engine",
        "actual",
        "threads",
        "virtual s",
        "wall ms",
        "tokens",
        "tokens/wall-s",
        "host"
    );
    for r in &rows {
        println!(
            "{:<8} {:<12} {:<12} {:>7} {:>10.4} {:>12.2} {:>12} {:>16.0} {:>6}",
            r.workload,
            r.engine_mode,
            r.engine_actual,
            r.threads,
            r.virtual_s,
            r.wall_ms,
            r.tokens,
            r.tokens_per_wall_s,
            r.host_parallelism
        );
    }

    // One line of runtime telemetry per engine row when the run is smoke-
    // sized — the CI leg's quick look at scheduler health without opening
    // the Perfetto trace.
    if smoke {
        for r in rows.iter().filter(|r| r.telemetry_source != "none") {
            println!(
                "telemetry[{}]: {} {}@{} parks={} ring_highwater_max={} \
                 backpressure_wait_ns={} seam_latency_observed_ns={} drift={}",
                r.telemetry_source,
                r.workload,
                r.engine_actual,
                r.threads,
                r.park_count,
                r.ring_highwater_max,
                r.backpressure_wait_ns,
                r.seam_latency_observed_ns,
                r.drift
            );
        }
    }

    // Machine-readable results at the workspace root (schema v9: see the
    // module docs for the field-by-field history). One row per line — the
    // `--compare` reader and external tooling rely on it.
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema_version\": 9,");
    let _ = writeln!(json, "  \"benchmarks\": [");
    for (i, r) in rows.iter().enumerate() {
        let degraded = r.threads > r.host_parallelism;
        let _ = writeln!(
            json,
            "    {{\"workload\": \"{}\", \"engine_mode\": \"{}\", \
             \"engine_actual\": \"{}\", \"threads\": {}, \
             \"virtual_seconds\": {}, \"wall_ms\": {:.3}, \"tokens\": {}, \
             \"tokens_per_wall_second\": {:.0}, \"host_parallelism\": {}, \
             \"degraded\": {}, \"runs_fused\": {}, \"rings_elided\": {}, \
             \"fused_chain_len_max\": {}, \"transition_firings\": {}, \
             \"telemetry_source\": \"{}\", \"park_count\": {}, \
             \"ring_highwater_max\": {}, \"backpressure_wait_ns\": {}, \
             \"seam_latency_observed_ns\": {}, \
             \"drift\": \"{}\", \"predicted_utilization\": {}, \
             \"measured_utilization\": {}}}{}",
            r.workload,
            r.engine_mode,
            r.engine_actual,
            r.threads,
            r.virtual_s,
            r.wall_ms,
            r.tokens,
            r.tokens_per_wall_s,
            r.host_parallelism,
            degraded,
            r.fusion.runs_fused,
            r.fusion.rings_elided,
            r.fusion.fused_chain_len_max,
            r.transition_firings,
            r.telemetry_source,
            r.park_count,
            r.ring_highwater_max,
            r.backpressure_wait_ns,
            r.seam_latency_observed_ns,
            r.drift,
            utilization_json(&r.predicted_utilization),
            utilization_json(&r.measured_utilization),
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    json.push_str("  ]\n}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_runtime.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }

    // A requested engine must be the engine that ran: any fallback row is
    // loud, and fatal under `--test` (the CI smoke leg).
    let fallbacks: Vec<&Row> = rows
        .iter()
        .filter(|r| r.engine_mode != r.engine_actual)
        .collect();
    for r in &fallbacks {
        eprintln!(
            "FALLBACK: {} {}@{} actually ran on {}",
            r.workload, r.engine_mode, r.threads, r.engine_actual
        );
    }
    if smoke && !fallbacks.is_empty() {
        eprintln!(
            "FAIL: {} requested staticsched row(s) silently fell back to selftimed",
            fallbacks.len()
        );
        std::process::exit(1);
    }

    if let Some(floor) = floor_pal_staticsched {
        let row = rows
            .iter()
            .find(|r| r.workload == "pal" && r.engine_mode == "staticsched" && r.threads == 1)
            .expect("the PAL staticsched@1 row exists");
        if row.tokens_per_wall_s < floor {
            eprintln!(
                "FAIL: PAL staticsched@1 throughput {:.0} tokens/s is below the \
                 regression floor {floor:.0}",
                row.tokens_per_wall_s
            );
            std::process::exit(1);
        }
        println!(
            "PAL staticsched@1 throughput {:.0} tokens/s clears the floor {floor:.0}",
            row.tokens_per_wall_s
        );
    }

    // Regression gate against a committed baseline: a non-degraded engine
    // row that lost more than 25% of its tokens/wall-second against the
    // same non-degraded baseline row fails the run. Degraded rows
    // (threads > host cores, either side) carry no signal and are
    // skipped, as are rows the baseline lacks (new workloads/engines) and
    // the sim rows — the no-kernel floor is a single-shot millisecond
    // measurement whose run-to-run swing exceeds the gate's threshold
    // (the scenario_sweep bench times the simulator properly).
    if let Some((path, baseline)) = baseline {
        let mut regressions = 0usize;
        let mut compared = 0usize;
        for r in rows
            .iter()
            .filter(|r| r.engine_mode != "sim" && r.threads <= r.host_parallelism)
        {
            // virtual_seconds is part of the key: a smoke-horizon row
            // against a full-horizon baseline (or vice versa) measures
            // fixed-cost amortisation, not a regression.
            let Some(b) = baseline.iter().find(|b| {
                b.workload == r.workload
                    && b.engine_mode == r.engine_mode
                    && b.threads == r.threads
                    && b.virtual_s == r.virtual_s
            }) else {
                continue;
            };
            if b.degraded || b.tokens_per_wall_s <= 0.0 {
                continue;
            }
            compared += 1;
            let ratio = r.tokens_per_wall_s / b.tokens_per_wall_s;
            if ratio < 0.75 {
                regressions += 1;
                eprintln!(
                    "REGRESSION: {} {}@{}: {:.0} tokens/s is {:.0}% of the \
                     baseline {:.0}",
                    r.workload,
                    r.engine_mode,
                    r.threads,
                    r.tokens_per_wall_s,
                    ratio * 100.0,
                    b.tokens_per_wall_s
                );
            }
        }
        // A gate that compared nothing proved nothing — refuse to pass
        // vacuously (horizon mismatch, all-degraded baseline, renamed
        // workloads all land here).
        if compared == 0 {
            eprintln!(
                "FAIL: --compare matched no baseline row (same workload, engine, \
                 threads and virtual horizon, both sides non-degraded) in {path}"
            );
            std::process::exit(1);
        }
        if regressions > 0 {
            eprintln!("FAIL: {regressions} non-degraded row(s) regressed >25% vs {path}");
            std::process::exit(1);
        }
        println!("bench-compare: {compared} row(s) compared, none regressed >25% vs {path}");
    }
}
