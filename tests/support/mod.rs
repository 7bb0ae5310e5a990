//! The harness every integration suite shares, pulled in with `mod support;`:
//!
//! * the environment, read once ([`env`]): `OIL_RT_STRESS`,
//!   `OIL_RT_THREADS`, `OIL_RT_TRACE`, `OIL_RT_FUSION` (through
//!   `SynthesisConfig::from_env`) and `OIL_RT_CONFORMANCE`. Junk in any of
//!   them panics;
//! * the corpora, each item with the expression that reproduces it:
//!   generated programs built through `oil::build` ([`programs`],
//!   [`build_program`]), and the modal and mode-dependent graphs
//!   ([`modal`], [`dependent`]);
//! * the engine matrix, engine × workers ([`matrix`]), fusion as the
//!   environment says; every run takes a mode script or none;
//! * the comparators, over what every engine report shares ([`Observe`]):
//!   bit-exact prefix ([`assert_prefix`]), exact equality
//!   ([`assert_identical`]) and the golden digest corpora ([`golden`]);
//! * the PAL decoder ([`pal`]) and its wall-clock conformance check
//!   ([`assert_conforms`]).
#![allow(dead_code)]

use oil::compiler::rtgraph::{self, RtGraph, RtPlan};
use oil::compiler::schedule::{synthesize, ModeScript, StaticSchedule, SynthesisConfig};
use oil::compiler::CompileError;
use oil::gen::{ModalScenario, ModeDependentScenario, ProgramScenario};
use oil::lang::registry::{FunctionRegistry, FunctionSignature};
use oil::rt::{
    execute_selftimed, execute_selftimed_scripted, execute_staticsched_scripted, measure,
    ConformanceVerdict, KernelLibrary, MetricsConfig, MetricsReport, RateConformance, RtReport,
    SelfTimedConfig, SelfTimedReport, SinkStream, StaticConfig, StaticReport, TraceReport,
    ValueTrace,
};
use oil::sim::picos;
use oil::{BuildError, Executable};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// The environment.
// ---------------------------------------------------------------------------

/// The process environment of a test run.
pub struct Env {
    /// `OIL_RT_STRESS` is set: wider seed ranges and a 5× horizon.
    pub stress: bool,
    /// `OIL_RT_THREADS`: the "N" of the `{1, 2, N}` worker sweeps.
    pub threads: Option<usize>,
    /// `OIL_RT_TRACE`: run the corpus down the instrumented paths.
    pub trace: bool,
    /// `OIL_RT_FUSION`, through `SynthesisConfig::from_env`.
    pub synthesis: SynthesisConfig,
    /// The rate-conformance threshold of the generated corpus: the
    /// `OIL_RT_CONFORMANCE` override, else 0.5 (0.01 in debug builds,
    /// whose unoptimised kernels measure the build profile, not the engine).
    pub corpus_threshold: f64,
    /// The same for the PAL decoder, whose display sink is predicted at
    /// 4 MS/s and bound by real FIR and resampler arithmetic: the override,
    /// else 2 % (0.5 % in debug builds).
    pub pal_threshold: f64,
}

/// The environment, read on first use.
pub fn env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    let debug = cfg!(debug_assertions);
    ENV.get_or_init(|| Env {
        stress: std::env::var_os("OIL_RT_STRESS").is_some(),
        threads: std::env::var("OIL_RT_THREADS")
            .ok()
            .map(|v| parse_threads(&v)),
        trace: oil::rt::env_trace(),
        synthesis: SynthesisConfig::from_env(),
        corpus_threshold: measure::conformance_threshold(if debug { 0.01 } else { 0.5 }),
        pal_threshold: measure::conformance_threshold(if debug { 0.005 } else { 0.02 }),
    })
}

/// Parse an `OIL_RT_THREADS` value: a base-10 thread count (`0` = the
/// machine's parallelism). Anything else panics: an override that does not
/// apply is worse than none.
pub fn parse_threads(raw: &str) -> usize {
    raw.trim()
        .parse()
        .unwrap_or_else(|_| panic!("OIL_RT_THREADS must be a thread count (0 = auto), got `{raw}`"))
}

/// Worker counts of the sweeps: 1, 2 and N (`OIL_RT_THREADS`, else the
/// machine's parallelism), sorted and deduplicated.
pub fn thread_counts() -> Vec<usize> {
    let available = || std::thread::available_parallelism().map_or(4, |n| n.get());
    let n = env().threads.filter(|&n| n > 0).unwrap_or_else(available);
    let mut counts = vec![1, 2, n];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// `normal`, or `stress` under `OIL_RT_STRESS`.
pub fn stressed<T>(normal: T, stress: T) -> T {
    if env().stress {
        stress
    } else {
        normal
    }
}

/// Generated programs per sweep.
pub fn program_seeds() -> u64 {
    stressed(200, 300)
}

/// Virtual seconds per generated program. Generated rates are ≥ 25 Hz, so
/// 0.2 s reaches a steady state for every stage.
pub fn duration_s() -> f64 {
    stressed(0.2, 1.0)
}

// ---------------------------------------------------------------------------
// Programs and corpora.
// ---------------------------------------------------------------------------

/// A registry of pure functions sharing one response time.
pub fn pure(functions: &[&str], response: f64) -> FunctionRegistry {
    let mut registry = FunctionRegistry::new();
    for f in functions {
        registry.register(FunctionSignature::pure(*f, response));
    }
    registry
}

/// A two-stage pipeline: `P` at 2 kHz, `Q` decimating 2:1 into a 1 kHz
/// sink (run with `pure(&["f", "g", "init", "src", "snk"], 1e-5)`).
pub const PIPELINE: &str = r#"
    mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
    mod seq Q(int m, out int b){ loop{ g(m:2, out b); } while(1); }
    mod par D(){
        fifo int mid;
        source int x = src() @ 2 kHz;
        sink int y = snk() @ 1 kHz;
        P(x, out mid) || Q(mid, out y)
    }
"#;

/// A `stages`-deep single-rate pipeline of `f` between a 1 kHz source and
/// sink (the compile corpus's `pipeline_source`).
pub fn pipeline_source(stages: usize) -> String {
    let wire = |i: usize| match i {
        0 => "x".to_string(),
        i if i == stages => "y".to_string(),
        i => format!("m{}", i - 1),
    };
    let fifos: String = (1..stages)
        .map(|i| format!("    fifo int {};\n", wire(i)))
        .collect();
    let calls: Vec<String> = (0..stages)
        .map(|i| format!("W({}, out {})", wire(i), wire(i + 1)))
        .collect();
    format!(
        "mod seq W(int a, out int b){{ loop{{ f(a, out b); }} while(1); }}\nmod par Top(){{\n\
         {fifos}    source int x = src() @ 1000 Hz;\n    sink int y = snk() @ 1000 Hz;\n    \
         {}\n}}\n",
        calls.join(" || ")
    )
}

/// `ProgramScenario::generate(0..plain)` then `generate_sdr(0..sdr)`, each
/// with the expression that reproduces it.
pub fn programs(plain: u64, sdr: u64) -> impl Iterator<Item = (String, ProgramScenario)> {
    let plain = (0..plain).map(|s| {
        let at = format!("ProgramScenario::generate({s})");
        (at, ProgramScenario::generate(s))
    });
    plain.chain((0..sdr).map(|s| {
        let at = format!("ProgramScenario::generate_sdr({s})");
        (at, ProgramScenario::generate_sdr(s))
    }))
}

/// `ModalScenario::generate(0..n)`, as [`programs`].
pub fn modal(n: u64) -> impl Iterator<Item = (String, ModalScenario)> {
    (0..n).map(|s| {
        let at = format!("ModalScenario::generate({s})");
        (at, ModalScenario::generate(s))
    })
}

/// `ModeDependentScenario::generate(0..n)`, as [`programs`].
pub fn dependent(n: u64) -> impl Iterator<Item = (String, ModeDependentScenario)> {
    (0..n).map(|s| {
        let at = format!("ModeDependentScenario::generate({s})");
        (at, ModeDependentScenario::generate(s))
    })
}

/// Simulator warm-up ticks covering a generated program's pipeline fill:
/// with rate up-conversion the sink ticks many times before the slowest
/// upstream stage has produced its first burst, and those ticks are not
/// misses.
pub fn warmup_ticks(scenario: &ProgramScenario) -> u64 {
    let stages = scenario.stages.iter().map(|s| s.firing_hz);
    let slowest_hz = stages.chain([scenario.source_hz]).min().unwrap_or(1);
    4 + scenario.sink_hz.div_ceil(slowest_hz) * 6
}

/// Build a generated program for `workers` workers under the
/// environment's synthesis configuration. `None` when the temporal analysis
/// (legitimately) rejects it; any other rejection panics, naming `at`.
pub fn build_program(at: &str, scenario: &ProgramScenario, workers: usize) -> Option<Executable> {
    let (source, config) = (&scenario.source, &env().synthesis);
    match oil::build(source, &scenario.registry, workers, config) {
        Ok(exe) => Some(exe),
        Err(BuildError::Compile(CompileError::Temporal(_))) => None,
        Err(e) => panic!("{at}: a generated program must build, got {e}\n{source}"),
    }
}

/// The PAL decoder built for `workers` workers under `config`.
pub fn pal(workers: usize, config: &SynthesisConfig) -> Executable {
    let registry = oil::pal::pal_registry();
    oil::build(oil::pal::PAL_DECODER_OIL, &registry, workers, config).expect("PAL builds")
}

/// Synthesis with fusion pinned on or off (no seam bound, declared
/// costs), whatever the environment says.
pub fn fusion(on: bool) -> SynthesisConfig {
    SynthesisConfig {
        fusion: on,
        ..SynthesisConfig::default()
    }
}

/// The schedule of `graph` for `workers` workers; a rejection panics,
/// naming `at`.
pub fn schedule(
    at: &str,
    graph: &RtGraph,
    workers: usize,
    config: &SynthesisConfig,
) -> StaticSchedule {
    synthesize(graph, &rtgraph::plan(graph), workers, config)
        .unwrap_or_else(|e| panic!("{at}: synthesis at {workers} worker(s): {e}"))
}

// ---------------------------------------------------------------------------
// Engine runs and the matrix.
// ---------------------------------------------------------------------------

/// The self-timed engine's harness configuration: 4 warm-up samples,
/// tracing as `OIL_RT_TRACE` says.
pub fn selftimed_config(threads: usize) -> SelfTimedConfig {
    SelfTimedConfig {
        threads,
        warmup_samples: 4,
        trace: env().trace,
        ..SelfTimedConfig::default()
    }
}

/// The static-order engine's harness configuration, as
/// [`selftimed_config`].
pub fn static_config() -> StaticConfig {
    StaticConfig {
        warmup_samples: 4,
        trace: env().trace,
        ..StaticConfig::default()
    }
}

/// A self-timed run over the synthetic kernels, under `script` if given.
pub fn selftimed(
    graph: &RtGraph,
    plan: &RtPlan,
    horizon_s: f64,
    script: Option<&ModeScript>,
    config: &SelfTimedConfig,
) -> SelfTimedReport {
    let (lib, horizon) = (KernelLibrary::new(), picos(horizon_s));
    match script {
        None => execute_selftimed(graph, plan, &lib, horizon, config),
        Some(s) => execute_selftimed_scripted(graph, plan, &lib, horizon, config, s),
    }
}

/// A static replay over the synthetic kernels, under `script` if given.
pub fn replay(
    graph: &RtGraph,
    schedule: &StaticSchedule,
    horizon_s: f64,
    script: Option<&ModeScript>,
    config: &StaticConfig,
) -> StaticReport {
    let script = script.cloned().unwrap_or_default();
    let (lib, horizon) = (KernelLibrary::new(), picos(horizon_s));
    execute_staticsched_scripted(graph, schedule, &script, &lib, horizon, config)
}

/// The engine axis of the matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    SelfTimed,
    Static,
}

/// One cell of the engine matrix: an engine at a worker count, fusion as
/// the environment says (the self-timed engine has none).
#[derive(Clone, Copy, Debug)]
pub struct Cell {
    pub engine: Engine,
    pub workers: usize,
}

/// Both engines at every worker count of `workers`. (The mode-script axis
/// is the `script` argument of [`selftimed`] and [`replay`].)
pub fn matrix(workers: &[usize]) -> Vec<Cell> {
    let engines = [Engine::SelfTimed, Engine::Static];
    let cell = |engine| workers.iter().map(move |&workers| Cell { engine, workers });
    engines.into_iter().flat_map(cell).collect()
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.engine {
            Engine::SelfTimed => write!(f, "selftimed@{}", self.workers),
            Engine::Static => write!(f, "staticsched@{}", self.workers),
        }
    }
}

/// The instrumentation of a cell's run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Knobs {
    pub trace: bool,
    pub metrics: Option<MetricsConfig>,
}

impl Cell {
    /// The cell's schedule of `graph` under the environment's synthesis
    /// configuration (`None` for the self-timed engine).
    pub fn schedule(&self, at: &str, graph: &RtGraph) -> Option<StaticSchedule> {
        let static_engine = self.engine == Engine::Static;
        static_engine.then(|| schedule(at, graph, self.workers, &env().synthesis))
    }

    /// Run `graph` for `horizon_s` virtual seconds in this cell.
    pub fn run(&self, at: &str, graph: &RtGraph, horizon_s: f64, knobs: Knobs) -> Report {
        let Knobs { trace, metrics } = knobs;
        match self.schedule(at, graph) {
            None => {
                let config = SelfTimedConfig {
                    trace,
                    metrics,
                    ..selftimed_config(self.workers)
                };
                let plan = rtgraph::plan(graph);
                Report::SelfTimed(selftimed(graph, &plan, horizon_s, None, &config))
            }
            Some(schedule) => {
                let config = StaticConfig {
                    trace,
                    metrics,
                    ..static_config()
                };
                Report::Static(replay(graph, &schedule, horizon_s, None, &config))
            }
        }
    }
}

/// The report of a cell's run.
pub enum Report {
    SelfTimed(SelfTimedReport),
    Static(StaticReport),
}

/// `$body` over whichever report `$report` holds, bound to `$r`.
macro_rules! either {
    ($report:expr, $r:ident => $body:expr) => {
        match $report {
            Report::SelfTimed($r) => $body,
            Report::Static($r) => $body,
        }
    };
}

impl Report {
    pub fn trace_report(&self) -> Option<&TraceReport> {
        either!(self, r => r.trace_report.as_ref())
    }

    pub fn metrics(&self) -> Option<&MetricsReport> {
        either!(self, r => r.metrics.as_ref())
    }

    pub fn wall_s(&self) -> f64 {
        either!(self, r => r.wall.as_secs_f64())
    }
}

// ---------------------------------------------------------------------------
// Comparators.
// ---------------------------------------------------------------------------

/// What every engine report observes: the value plane, the firing counts
/// and (except the reference interpreter) the source sample counts.
pub struct Observed<'a> {
    pub values: &'a ValueTrace,
    pub sinks: &'a [SinkStream],
    pub node_firings: &'a [(String, u64)],
    pub sources: Option<&'a [(String, u64)]>,
}

pub trait Observe {
    fn observed(&self) -> Observed<'_>;
}

impl Observe for RtReport {
    fn observed(&self) -> Observed<'_> {
        let (values, sinks, node_firings) = (&self.values, &self.sinks, &self.node_firings);
        Observed {
            values,
            sinks,
            node_firings,
            sources: None,
        }
    }
}

macro_rules! observe_engine_report {
    ($($report:ty),*) => {$(
        impl Observe for $report {
            fn observed(&self) -> Observed<'_> {
                Observed {
                    values: &self.values,
                    sinks: &self.sinks,
                    node_firings: &self.node_firings,
                    sources: Some(&self.sources),
                }
            }
        }
    )*};
}
observe_engine_report!(SelfTimedReport, StaticReport);

impl Observe for Report {
    fn observed(&self) -> Observed<'_> {
        either!(self, r => r.observed())
    }
}

/// Every buffer stream and every sink's samples of `reference` are a
/// bit-exact prefix of `run`'s.
pub fn assert_prefix(at: &str, reference: &impl Observe, run: &impl Observe) {
    let (want, got) = (reference.observed(), run.observed());
    if let Some(d) = want.values.prefix_divergence(got.values) {
        panic!("{at}: the reference streams are not a prefix of the run's: {d}");
    }
    for (w, g) in want.sinks.iter().zip(got.sinks) {
        let shared = w.values.len().min(g.values.len());
        let sink = &w.name;
        assert_eq!(
            w.values[..shared],
            g.values[..shared],
            "{at}: sink `{sink}`"
        );
    }
}

/// `a` and `b` observed bit-identical behaviour: value streams, firing
/// counts, sink streams and source sample counts.
pub fn assert_identical(at: &str, a: &impl Observe, b: &impl Observe) {
    let (a, b) = (a.observed(), b.observed());
    if let Some(d) = a.values.first_divergence(b.values) {
        panic!("{at}: value streams differ: {d}");
    }
    assert_eq!(a.node_firings, b.node_firings, "{at}: firing counts");
    assert_eq!(a.sinks.len(), b.sinks.len(), "{at}: sink count");
    for (x, y) in a.sinks.iter().zip(b.sinks) {
        assert_eq!(x.consumed, y.consumed, "{at}: sink `{}` consumed", x.name);
        assert_eq!(x.values, y.values, "{at}: sink `{}` samples", x.name);
    }
    if let (Some(x), Some(y)) = (a.sources, b.sources) {
        assert_eq!(x, y, "{at}: source sample counts");
    }
}

/// A golden digest corpus: every `<tag> <digest>…` line of `path` (below
/// its `#` header) must equal `digests(tag)`, and a failure names
/// `repro(tag)`. With `update` set in the environment the file is
/// rewritten instead, from `header` and `tags`. Returns the lines pinned
/// (`u32::MAX` after a rewrite).
pub fn golden(
    path: &str,
    update: &str,
    header: &str,
    tags: impl IntoIterator<Item = String>,
    digests: impl Fn(&str) -> Vec<String>,
    repro: impl Fn(&str) -> String,
) -> u32 {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os(update).is_some() {
        let mut out = String::from(header);
        for tag in tags {
            out.push_str(&format!("{tag} {}\n", digests(&tag).join(" ")));
        }
        std::fs::write(&path, out).expect("writing the corpus file");
        eprintln!("regenerated {}", path.display());
        return u32::MAX;
    }
    let corpus = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus file {} missing: {e}", path.display()));
    let mut pinned = 0;
    for line in corpus.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split_whitespace();
        let tag = fields.next().expect("a tag");
        assert_eq!(
            digests(tag),
            fields.collect::<Vec<_>>(),
            "{tag}: a pinned digest changed — a regression, or an intentional change: then \
             regenerate with {update}=1. Reproduce with {}.",
            repro(tag)
        );
        pinned += 1;
    }
    pinned
}

/// The wall-clock conformance oracle: a preempted host can depress one
/// measurement, so while the verdict is not a pass `again` measures once
/// more, three runs in all. A real regression fails every one.
pub fn assert_conforms(at: &str, first: RateConformance, again: impl Fn() -> RateConformance) {
    let mut conformance = first;
    for _retry in 0..2 {
        if conformance.verdict() == ConformanceVerdict::Pass {
            break;
        }
        conformance = again();
    }
    let evidence: Vec<String> = (conformance.violations().into_iter())
        .chain(conformance.inconclusive_sinks())
        .collect();
    assert!(
        conformance.verdict() == ConformanceVerdict::Pass,
        "{at}: rate conformance {} in 3 consecutive measurements:\n  {}",
        conformance.verdict(),
        evidence.join("\n  ")
    );
}
