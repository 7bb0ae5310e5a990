//! The four runtime workloads: a program (or generated graph) is set up
//! from text to a ready schedule, then replayed by the static-order engine
//! in a closed loop — one free-running engine run after another.

use crate::host;
use crate::layers::{self, Budget};
use crate::metrics::Measured;
use crate::pipeline::{self, run_op};
use crate::programs::{self, ModalInput, Program};
use crate::spans::Recorder;
use crate::stats;
use crate::{Outcome, RunArgs};
use oil::compiler::rtgraph::{self, RtGraph, RtPlan};
use oil::compiler::schedule::{synthesize, ModeScript, StaticSchedule, SynthesisConfig};
use oil::dsp::generator::dominant_frequency;
use oil::pal::NativePalDecoder;
use oil::rt::exec::SinkStream;
use oil::rt::{
    execute, execute_selftimed_scripted, execute_staticsched_scripted, profile_graph,
    KernelLibrary, MetricsConfig, ProfileConfig, RtConfig, SelfTimedConfig, StaticConfig,
    StaticReport,
};
use oil::sim::{build_simulation_from_graph, picos, SimulationConfig};
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Pal,
    Wide,
    Modal,
}

/// What distinguishes the four workloads. Horizons are sized so one repeat
/// takes ≈0.4–0.5 s on the 2-core dev host: about twenty repeats fit the
/// 10 s a run measures, which is what holds the median of `pal_2w` (whose
/// single repeats swing ±20 %) within ~2 % run to run.
pub struct Spec {
    pub kind: Kind,
    pub workers: usize,
    /// Virtual seconds of one repeat (`Modal`: the modal firings every
    /// source is budgeted for).
    pub horizon: f64,
    /// Virtual seconds (modal firings) of the reference run a repeat's sink
    /// streams are checked against.
    pub reference_horizon: f64,
}

pub fn spec(workload: &str) -> Option<Spec> {
    let (kind, workers, horizon, reference_horizon) = match workload {
        "pal_1w" => (Kind::Pal, 1, 3.0, 2e-3),
        "pal_2w" => (Kind::Pal, 2, 0.2, 2e-3),
        "wide_2w" => (Kind::Wide, 2, 100.0, 0.25),
        // The reference must outlast the first switch point (at 3 × 0.9 ×
        // 300 k / 65 ≈ 12.5 k firings) so the compared prefix crosses a seam.
        "modal_switch" => (Kind::Modal, 1, 300_000.0, 20_000.0),
        _ => return None,
    };
    Some(Spec {
        kind,
        workers,
        horizon,
        reference_horizon,
    })
}

/// A workload set up and ready to execute.
struct Ready {
    graph: RtGraph,
    plan: RtPlan,
    schedule: StaticSchedule,
    library: KernelLibrary,
    script: ModeScript,
    /// Virtual seconds per horizon unit (1 except for `Modal`).
    unit_s: f64,
    /// The audio tone the PAL front end carries.
    pal_tone_hz: Option<f64>,
}

/// Horizons shrink tenfold under `--smoke`.
fn scaled(horizon: f64, smoke: bool) -> f64 {
    if smoke {
        horizon / 10.0
    } else {
        horizon
    }
}

/// One run: the workload, its arguments and what was derived from them.
struct Job<'a> {
    spec: &'a Spec,
    args: &'a RunArgs,
    /// The workload's worker count, capped at `nproc`.
    workers: usize,
    /// Which generated graph `modal_switch` runs (unused by the others).
    scenario_seed: u64,
}

impl Job<'_> {
    fn horizon(&self) -> f64 {
        scaled(self.spec.horizon, self.args.smoke)
    }
}

/// Source text (or generated graph) → schedule and kernel library. With an
/// enabled recorder every layer crossed gets a span and `layer` its counts.
fn set_up(job: &Job, rec: &mut Recorder, layer: &mut Measured) -> Result<Ready, String> {
    let Job {
        spec,
        args,
        workers,
        scenario_seed,
    } = *job;
    let from_program = |rec: &mut Recorder, layer: &mut Measured, p: Program, library, tone| {
        let op = run_op(rec, &p, &[workers]);
        op.check(&p)?;
        if rec.enabled() {
            pipeline::count_metrics(&p, &op, layer);
            pipeline::latency_checks(rec, &op);
        }
        let schedule = op
            .schedules
            .into_iter()
            .next()
            .expect("one worker count was requested")
            .map_err(|e| format!("{}: no static-order schedule: {e}", p.name))?;
        Ok(Ready {
            graph: op.graph.expect("checked: the program compiled"),
            plan: op.plan.expect("checked: the program compiled"),
            schedule,
            library,
            script: ModeScript::default(),
            unit_s: 1.0,
            pal_tone_hz: tone,
        })
    };
    match spec.kind {
        Kind::Pal => {
            let p = Program {
                name: "pal".into(),
                source: oil::pal::PAL_DECODER_OIL.into(),
                registry: oil::pal::pal_registry(),
                expected_rates: vec![("screen", 4_000_000), ("speakers", 32_000)],
            };
            let tone = programs::pal_signal(args.seed).1;
            from_program(rec, layer, p, programs::pal_library(args.seed), Some(tone))
        }
        Kind::Wide => from_program(
            rec,
            layer,
            programs::wide_program(),
            programs::wide_library(args.seed),
            None,
        ),
        Kind::Modal => {
            let input = rec.span("gen.scenario", |_| {
                ModalInput::generate(scenario_seed, args.seed)
            });
            let graph = input.scenario.graph.clone();
            let plan = rec.span("compiler.plan", |_| rtgraph::plan(&graph));
            let span = ["compiler.synthesize_1w", "compiler.synthesize_2w"][workers - 1];
            let schedule = rec
                .span(span, |_| {
                    synthesize(&graph, &plan, workers, &SynthesisConfig::default())
                })
                .map_err(|e| format!("modal graph: no static-order schedule: {e}"))?;
            schedule
                .validate(&graph)
                .and_then(|()| schedule.validate_transitions(&graph))
                .map_err(|e| format!("modal schedule does not re-validate: {e}"))?;
            if rec.enabled() {
                layer.add("compiler.rt_nodes", graph.nodes.len() as f64);
                pipeline::schedule_metrics(&schedule, layer);
            }
            Ok(Ready {
                script: input.script(args.seed, job.horizon() as u64),
                unit_s: input.modal_period_s,
                library: input.library,
                graph,
                plan,
                schedule,
                pal_tone_hz: None,
            })
        }
    }
}

impl Ready {
    /// What the engine does before its first firing: one kernel instance
    /// per node and source. Part of `setup_s`.
    fn instantiate_kernels(&self) {
        for node in self.graph.nodes.iter() {
            std::hint::black_box(self.library.instantiate(&node.function));
        }
        for source in self.graph.sources.iter() {
            std::hint::black_box(self.library.instantiate_source(&source.function));
        }
    }

    fn execute(&self, horizon: f64, config: &StaticConfig) -> StaticReport {
        execute_staticsched_scripted(
            &self.graph,
            &self.schedule,
            &self.script,
            &self.library,
            picos(horizon * self.unit_s),
            config,
        )
    }
}

const PLAIN: StaticConfig = StaticConfig {
    record_values: false,
    warmup_samples: 16,
    trace: false,
    metrics: None,
};

/// Independent references a repeat's outputs are held to.
struct Reference {
    /// Sink streams of a short run on another engine: the calendar engine
    /// (one thread), or the scripted self-timed engine for the modal graph.
    sinks: Vec<SinkStream>,
    wall_ms: f64,
    /// The audio tone `NativePalDecoder` recovers from the same RF signal.
    native_tone_hz: Option<f64>,
}

fn tone_of(audio: &[f64]) -> f64 {
    dominant_frequency(&audio[audio.len() / 2..], 32_000.0)
}

/// Tolerance of a zero-crossing frequency estimate over `samples` samples.
fn tone_tolerance(tone_hz: f64, samples: usize) -> f64 {
    (0.05 * tone_hz).max(2.0 * 32_000.0 / samples.max(1) as f64)
}

fn reference(job: &Job, ready: &Ready) -> Result<Reference, String> {
    let Job { spec, args, .. } = *job;
    let horizon = picos(scaled(spec.reference_horizon, args.smoke) * ready.unit_s);
    let started = Instant::now();
    let sinks = if spec.kind == Kind::Modal {
        let report = execute_selftimed_scripted(
            &ready.graph,
            &ready.plan,
            &ready.library,
            horizon,
            &SelfTimedConfig {
                threads: 1,
                record_values: false,
                ..SelfTimedConfig::default()
            },
            &ready.script,
        );
        if report.deadlocked {
            return Err("the self-timed reference deadlocked".into());
        }
        report.sinks
    } else {
        let report = execute(
            &ready.graph,
            &ready.library,
            horizon,
            &RtConfig {
                threads: 1,
                warmup_ticks: 64,
                record_traces: false,
                record_values: false,
                ..RtConfig::default()
            },
        );
        if !report.meets_real_time_constraints() {
            return Err("the calendar reference missed a deadline or overflowed".into());
        }
        report.sinks
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if sinks.iter().any(|s| s.values.is_empty()) {
        return Err("the reference run left a sink without samples".into());
    }
    let native_tone_hz = ready.pal_tone_hz.map(|_| {
        // 50 ms of RF: 1600 speaker samples, many periods of either tone.
        let rf = programs::pal_signal(args.seed).0.block(320_000);
        tone_of(&NativePalDecoder::new(2.0e6).decode(&rf).audio)
    });
    if let (Some(tone), Some(native)) = (ready.pal_tone_hz, native_tone_hz) {
        if (native - tone).abs() > tone_tolerance(tone, 800) {
            return Err(format!(
                "NativePalDecoder recovers {native} Hz from a {tone} Hz tone"
            ));
        }
    }
    Ok(Reference {
        sinks,
        wall_ms,
        native_tone_hz,
    })
}

/// The counts of a repeat that must be identical on every repeat.
#[derive(Debug, PartialEq, Eq)]
struct ExactCounts {
    threads: usize,
    tokens: u64,
    iterations: u64,
    node_firings: Vec<u64>,
    consumed: Vec<u64>,
    mode_switches: u64,
    transition_firings: u64,
}

impl ExactCounts {
    fn of(report: &StaticReport) -> Self {
        ExactCounts {
            threads: report.threads,
            tokens: report.tokens,
            iterations: report.iterations,
            node_firings: report.node_firings.iter().map(|f| f.1).collect(),
            consumed: report.sinks.iter().map(|s| s.consumed).collect(),
            mode_switches: report.mode_switches,
            transition_firings: report.transition_firings,
        }
    }

    fn firings(&self) -> u64 {
        self.node_firings.iter().sum()
    }

    /// The workload's unit of delivered work.
    fn items(&self, kind: Kind) -> u64 {
        match kind {
            Kind::Modal => self.firings(),
            Kind::Pal | Kind::Wide => self.consumed.iter().sum(),
        }
    }
}

/// Hold one repeat to the references and to the first repeat's counts.
fn verify(
    job: &Job,
    ready: &Ready,
    reference: &Reference,
    baseline: &mut Option<ExactCounts>,
    report: &StaticReport,
) -> Result<(), String> {
    let Job { spec, workers, .. } = *job;
    let counts = ExactCounts::of(report);
    if counts.threads != workers {
        return Err(format!(
            "ran on {} worker(s), not {workers}",
            counts.threads
        ));
    }
    if spec.kind == Kind::Modal && counts.mode_switches != programs::MODAL_SWITCHES {
        return Err(format!(
            "{} mode switches executed, {} scripted",
            counts.mode_switches,
            programs::MODAL_SWITCHES
        ));
    }
    for (sink, expected) in report.sinks.iter().zip(&reference.sinks) {
        if sink.name != expected.name || sink.consumed < expected.consumed {
            return Err(format!(
                "sink `{}` consumed {} samples, the reference's `{}` {}",
                sink.name, sink.consumed, expected.name, expected.consumed
            ));
        }
        let n = expected.values.len().min(sink.values.len());
        let same = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        if n == 0 || !same(&sink.values[..n], &expected.values[..n]) {
            return Err(format!(
                "sink `{}`: first {n} samples are not bit-equal to the reference engine's",
                sink.name
            ));
        }
    }
    if let (Some(tone), Some(native)) = (ready.pal_tone_hz, reference.native_tone_hz) {
        let speakers = report
            .sink_values("speakers")
            .ok_or("no speakers sink in the PAL report")?;
        let recovered = tone_of(speakers);
        let tolerance = tone_tolerance(tone, speakers.len() / 2);
        if (recovered - tone).abs() > tolerance || (recovered - native).abs() > tolerance {
            return Err(format!(
                "speakers carry {recovered} Hz; the source tone is {tone} Hz and \
                 NativePalDecoder recovers {native} Hz"
            ));
        }
    }
    match baseline {
        Some(first) if *first != counts => Err(format!(
            "exact counts changed between repeats: {first:?} then {counts:?}"
        )),
        Some(_) => Ok(()),
        None => {
            *baseline = Some(counts);
            Ok(())
        }
    }
}

/// Run one runtime workload, untraced or traced.
pub fn run(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let nproc = host::nproc();
    let workers = spec.workers.min(nproc);
    let mut out = Outcome {
        degraded: workers < spec.workers,
        ..Outcome::default()
    };
    let mut job = Job {
        spec,
        args,
        workers,
        scenario_seed: 0,
    };
    out.info("workers", workers as f64);
    out.info("horizon", job.horizon());
    if spec.kind == Kind::Modal {
        job.scenario_seed = ModalInput::scenario_seed(args.seed);
        out.info("modal_scenario_seed", job.scenario_seed as f64);
    }
    if args.trace {
        traced(&job, &mut out)?;
    } else {
        untraced(&job, &mut out)?;
    }
    Ok(out)
}

/// One op: execute, verify, account.
fn repeat(
    out: &mut Outcome,
    check: &mut impl FnMut(&StaticReport) -> Result<(), String>,
    ready: &Ready,
    horizon: f64,
    config: &StaticConfig,
) -> StaticReport {
    let report = ready.execute(horizon, config);
    out.attempt(check(&report));
    report
}

fn untraced(job: &Job, out: &mut Outcome) -> Result<(), String> {
    let Job { spec, args, .. } = *job;
    let mut rec = Recorder::new(false);
    let mut unused = Measured::default();
    let (ready, setup_s) = crate::timed_setups(args.smoke, || {
        let ready = set_up(job, &mut rec, &mut unused)?;
        ready.instantiate_kernels();
        Ok(ready)
    })?;

    let check_started = Instant::now();
    let reference = reference(job, &ready)?;
    out.info("check_s", check_started.elapsed().as_secs_f64());

    let horizon = job.horizon();
    let mut baseline = None;
    let mut check = |r: &StaticReport| verify(job, &ready, &reference, &mut baseline, r);
    // One untimed warm-up repeat: page faults, lazy allocation, caches.
    let warmup = repeat(out, &mut check, &ready, horizon, &PLAIN);

    let (mut rate, mut cpu_ns, mut wall_ms, mut tokens_per_s) = (vec![], vec![], vec![], vec![]);
    let timed = Instant::now();
    while rate.len() < 5 || timed.elapsed().as_secs_f64() < args.seconds {
        let cpu0 = host::process_cpu_ns();
        let report = repeat(out, &mut check, &ready, horizon, &PLAIN);
        let cpu = host::process_cpu_ns() - cpu0;
        let items = ExactCounts::of(&report).items(spec.kind) as f64;
        let wall = report.wall.as_secs_f64();
        rate.push(items / wall);
        cpu_ns.push(cpu as f64 / items);
        wall_ms.push(wall * 1e3);
        tokens_per_s.push(report.tokens as f64 / wall);
    }

    out.end_to_end(&rate, &cpu_ns, &setup_s);
    out.summary("repeat_wall_ms", &wall_ms);
    out.info("tokens_per_s", stats::median(&tokens_per_s));
    // Sink rate against the CTA-predicted rate: above 1 keeps up with
    // real time, and `pal_2w` (≈0.5) does not.
    let predicted: f64 = warmup.throughput.iter().map(|t| t.predicted_hz).sum();
    let consumed: u64 = warmup.sinks.iter().map(|s| s.consumed).sum();
    if predicted > 0.0 {
        let sink_rate = consumed as f64 / (stats::median(&wall_ms) / 1e3);
        out.info("real_time_factor", sink_rate / predicted);
    }
    Ok(())
}

fn traced(job: &Job, out: &mut Outcome) -> Result<(), String> {
    let Job {
        spec,
        args,
        workers,
        ..
    } = *job;
    let mut rec = Recorder::new(true);
    let mut m = Measured::default();
    let budget = Budget::new(args.smoke);

    let ready = rec.span("setup", |rec| {
        let ready = set_up(job, rec, &mut m)?;
        rec.span("rt.instantiate_kernels", |_| ready.instantiate_kernels());
        Ok::<_, String>(ready)
    })?;
    pipeline::span_metrics(&rec, &mut m);
    m.set("gen.corpus_ms", rec.total_ns("gen.scenario") as f64 / 1e6);

    let reference = rec.span("check.reference", |_| reference(job, &ready))?;
    if spec.kind != Kind::Modal {
        m.set("rt.calendar.ref_ms", reference.wall_ms);
    }

    let horizon = job.horizon();
    let mut baseline = None;
    let mut check = |r: &StaticReport| verify(job, &ready, &reference, &mut baseline, r);
    rec.span("repeat.warmup", |_| {
        repeat(out, &mut check, &ready, horizon, &PLAIN)
    });

    // The instrumented engine against the plain one at the same horizon,
    // interleaved so drift hits every variant alike.
    let variants = [
        ("repeat.plain", false, false),
        ("repeat.trace", true, false),
        ("repeat.metrics", false, true),
        ("repeat.traced", true, true),
    ];
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut last = None;
    for _ in 0..if args.smoke { 1 } else { 3 } {
        for (i, &(span, trace, metrics)) in variants.iter().enumerate() {
            let config = StaticConfig {
                trace,
                metrics: metrics.then(MetricsConfig::default),
                ..PLAIN
            };
            let report = rec.span(span, |_| repeat(out, &mut check, &ready, horizon, &config));
            walls[i].push(report.wall.as_secs_f64());
            last = Some(report);
        }
    }
    let plain = stats::median(&walls[0]);
    let overhead_pct = |w: &[f64]| (stats::median(w) / plain - 1.0) * 100.0;
    m.set("rt.trace.overhead_pct", overhead_pct(&walls[1]));
    m.set("rt.metrics.overhead_pct", overhead_pct(&walls[2]));
    out.info(
        "traced_over_untraced_wall",
        stats::median(&walls[3]) / plain,
    );

    // --- The fully instrumented repeat explains itself.
    let report = last.expect("the variant loop ran");
    let counts = ExactCounts::of(&report);
    let wall_ns = report.wall.as_nanos() as f64;
    let worker_ns = wall_ns * workers as f64;
    m.set("rt.static.ns_per_firing", wall_ns / counts.firings() as f64);
    m.set("rt.static.tokens", counts.tokens as f64);
    m.set("rt.static.iterations", counts.iterations as f64);
    m.set("rt.static.firings", counts.firings() as f64);
    m.set("rt.static.mode_switches", counts.mode_switches as f64);
    m.set(
        "rt.static.transition_firings",
        counts.transition_firings as f64,
    );
    let trace = report.trace_report.as_ref().ok_or("no trace report")?;
    m.set("rt.static.park_count", trace.park_count() as f64);
    m.set(
        "rt.static.backpressure_wait_ns",
        trace.backpressure_wait_ns() as f64,
    );
    m.set(
        "rt.static.ring_highwater_max",
        trace.ring_highwater_max() as f64,
    );
    m.set(
        "rt.static.seam_latency_observed_ns",
        trace.seam_latency_observed_ns() as f64,
    );
    m.set("rt.trace.dropped", trace.dropped as f64);
    let metrics = report.metrics.as_ref().ok_or("no metrics report")?;
    m.set(
        "rt.static.firing_p50_ns",
        metrics.firing_quantile_ns(0.5) as f64,
    );
    m.set(
        "rt.static.firing_p99_ns",
        metrics.firing_quantile_ns(0.99) as f64,
    );
    let busy = metrics.measured_utilization(report.wall.as_nanos() as u64);
    m.set(
        "rt.static.worker_busy_share_min",
        busy.iter().copied().fold(f64::INFINITY, f64::min),
    );
    m.set(
        "rt.static.worker_busy_share_max",
        busy.iter().copied().fold(0.0, f64::max),
    );

    // Kernel time = firings × calibrated ns/firing, per coordinated
    // function; what is neither kernel nor ring wait is coordination.
    let costs = rec.span("rt.profile_graph", |_| {
        profile_graph(&ready.graph, &ready.library, &ProfileConfig::default())
    });
    let mut kernel_ns = 0.0;
    for (node, &firings) in ready.graph.nodes.iter().zip(&counts.node_firings) {
        if let Some(ns) = costs.ns_per_firing(&node.function) {
            m.set(&format!("rt.kernel.ns_per_firing.{}", node.function), ns);
            kernel_ns += ns * firings as f64;
        }
    }
    let kernel_share = kernel_ns / worker_ns;
    let wait_share = trace.backpressure_wait_ns() as f64 / worker_ns;
    m.set("rt.kernel_share", kernel_share);
    m.set("rt.static.wait_share", wait_share);
    m.set("rt.static.coord_share", 1.0 - kernel_share - wait_share);

    // --- The fallback engine and the value-free simulator on the same graph.
    let short = horizon / 8.0 * ready.unit_s;
    let selftimed = rec.span("rt.selftimed", |_| {
        execute_selftimed_scripted(
            &ready.graph,
            &ready.plan,
            &ready.library,
            picos(short),
            &SelfTimedConfig {
                threads: 1,
                record_values: false,
                ..SelfTimedConfig::default()
            },
            &ready.script,
        )
    });
    out.attempt(if selftimed.deadlocked {
        Err("the self-timed engine deadlocked".to_string())
    } else {
        Ok(())
    });
    let consumed: u64 = selftimed.sinks.iter().map(|s| s.consumed).sum();
    let firings: u64 = selftimed.node_firings.iter().map(|f| f.1).sum();
    let wall = selftimed.wall.as_secs_f64();
    m.set("rt.selftimed.sink_samples_per_s", consumed as f64 / wall);
    m.set("rt.selftimed.ns_per_firing", wall * 1e9 / firings as f64);
    m.set("rt.selftimed.parks", selftimed.parks as f64);
    if spec.kind != Kind::Modal {
        // (The simulator has no notion of a mode script.)
        let (tokens, wall) = rec.span("sim.run", |_| {
            let mut net = build_simulation_from_graph(&ready.graph);
            let t0 = Instant::now();
            let sim = net.run(
                picos(short / 8.0),
                &SimulationConfig {
                    cores: 0,
                    warmup_ticks: 64,
                },
            );
            (sim.tokens_written, t0.elapsed().as_secs_f64())
        });
        m.set("sim.tokens_per_s", tokens as f64 / wall);
    }

    // --- The layers underneath, in isolation.
    if spec.kind != Kind::Modal {
        layers::dsp(&mut rec, budget, &mut m);
    }
    layers::ring(&mut rec, budget, host::nproc(), &mut m);
    if spec.kind == Kind::Pal {
        let rf = programs::pal_signal(args.seed)
            .0
            .block(if args.smoke { 64_000 } else { 640_000 });
        let mut decoder = NativePalDecoder::new(2.0e6);
        let (samples, wall) = rec.span("pal.native", |_| {
            let t0 = Instant::now();
            let decoded = decoder.decode(&rf);
            (
                decoded.video.len() + decoded.audio.len(),
                t0.elapsed().as_secs_f64(),
            )
        });
        let native = samples as f64 / wall;
        let engine = counts.consumed.iter().sum::<u64>() as f64 / plain;
        m.set("pal.native_samples_per_s", native);
        m.set("pal.native_ratio", native / engine);
    }

    out.measured = m;
    out.spans = Some(rec);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    fn modal_args(trace: bool) -> RunArgs {
        RunArgs {
            workload: "modal_switch".into(),
            seed: 3,
            seconds: 0.05,
            trace,
            smoke: true,
            out: None,
        }
    }

    #[test]
    fn a_smoke_run_passes_its_own_checks_untraced_and_traced() {
        let spec = spec("modal_switch").unwrap();
        let out = run(&spec, &modal_args(false)).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        assert!(out.attempted >= 6, "a warm-up and at least five repeats");
        for name in ["items_per_s", "setup_s", "peak_rss_mb"] {
            assert!(out.measured.get(name).unwrap() > 0.0, "{name}");
        }

        let out = run(&spec, &modal_args(true)).unwrap();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        let share = |name: &str| out.measured.get(name).unwrap();
        let sum = share("rt.kernel_share")
            + share("rt.static.wait_share")
            + share("rt.static.coord_share");
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        assert_eq!(share("rt.static.mode_switches"), 64.0);
        assert!(out.spans.is_some());
        // Every name the traced run sets is in the per-layer table.
        out.measured.to_json(PER_LAYER);
    }

    #[test]
    fn verify_catches_a_diverging_sample_and_a_changed_count() {
        let (spec, args) = (spec("modal_switch").unwrap(), modal_args(false));
        let mut job = Job {
            spec: &spec,
            args: &args,
            workers: 1,
            scenario_seed: ModalInput::scenario_seed(args.seed),
        };
        let (mut rec, mut m) = (Recorder::new(false), Measured::default());
        let ready = set_up(&job, &mut rec, &mut m).unwrap();
        let reference = reference(&job, &ready).unwrap();
        let mut report = ready.execute(job.horizon(), &PLAIN);
        let mut baseline = None;
        verify(&job, &ready, &reference, &mut baseline, &report).unwrap();

        report.sinks[0].values[7] += 1.0;
        let why = verify(&job, &ready, &reference, &mut None, &report).unwrap_err();
        assert!(why.contains("not bit-equal"), "{why}");
        report.sinks[0].values[7] -= 1.0;

        report.tokens += 1;
        let why = verify(&job, &ready, &reference, &mut baseline, &report).unwrap_err();
        assert!(why.contains("exact counts changed"), "{why}");
        report.tokens -= 1;

        job.workers = 2;
        let why = verify(&job, &ready, &reference, &mut baseline, &report).unwrap_err();
        assert!(why.contains("worker"), "{why}");
    }

    #[test]
    fn tone_estimates_are_held_to_a_length_aware_tolerance() {
        assert_eq!(tone_tolerance(1000.0, 16_000), 50.0);
        assert_eq!(tone_tolerance(1000.0, 320), 200.0);
        let audio: Vec<f64> = (0..3200)
            .map(|i| (2.0 * std::f64::consts::PI * 3000.0 * i as f64 / 32_000.0).sin())
            .collect();
        assert!((tone_of(&audio) - 3000.0).abs() < tone_tolerance(3000.0, 1600));
    }
}
