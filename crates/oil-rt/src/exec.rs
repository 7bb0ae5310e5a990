//! The reference interpreter: the simulator's calendar carrying real sample
//! values.
//!
//! OIL's restrictions make temporal behaviour **data-independent** (rates
//! are static, guarded statements still fire), so *when* every firing starts
//! and completes is a pure function of the graph. `oil_sim::network` replays
//! that function on its one calendar; [`execute`] runs the same loop with a
//! kernel [`Payload`]: a source kernel is asked for its sample once per
//! tick, a node's kernel fires when its firing is admitted, the outputs are
//! committed at the firing's completion, and sink samples are collected in
//! place. A payload cannot move an event, so the interpreter's token trace
//! *is* the simulator's (`tests/runtime_differential.rs` checks that the
//! kernels leave it untouched). The calendar's timing is guarded by the
//! pinned digest corpus (`tests/data/runtime_corpus.txt`), the
//! insertion-order test in `tests/determinism.rs` and the miss and latency
//! sweep of `tests/differential.rs`.
//!
//! It is an oracle, not an engine: the self-timed engine, the static-order
//! engine and the repo benchmark compare their value streams against it.
//! That is why it has no threads, no shared state and no instrumentation —
//! its only duty is to be obviously right.

use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{BufferValues, ValueTrace};
use oil_compiler::rtgraph::RtGraph;
use oil_dataflow::index::Idx;
use oil_sim::time::picos_nearest;
use oil_sim::trace::ExecutionTrace;
use oil_sim::{
    build_simulation_from_graph, Payload, Picos, SimBufferId, SimNodeId, SimSinkId, SimSourceId,
    SimulationConfig,
};
use std::time::{Duration, Instant};

/// Configuration of a reference execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RtConfig {
    /// No effect: the interpreter is single-threaded. Kept only because the
    /// frozen `bench/` package still names the field.
    pub threads: usize,
    /// Sink ticks ignored before misses are counted (pipeline warm-up), as
    /// in [`oil_sim::SimulationConfig`].
    pub warmup_ticks: u64,
    /// Record the full per-buffer token trace (tests); counters are always
    /// kept.
    pub record_traces: bool,
    /// Record the per-buffer *value* streams ([`crate::measure::ValueTrace`]).
    /// On by default (the differential oracles need them); the benchmark's
    /// reference run turns this off.
    pub record_values: bool,
}

impl Default for RtConfig {
    fn default() -> Self {
        RtConfig {
            threads: 0,
            warmup_ticks: 4,
            record_traces: true,
            record_values: true,
        }
    }
}

/// Sample stream collected at one sink.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkStream {
    /// Sink name.
    pub name: String,
    /// Samples consumed.
    pub consumed: u64,
    /// Deadline misses (after warm-up).
    pub misses: u64,
    /// Worst observed end-to-end latency, in seconds.
    pub max_latency: f64,
    /// The consumed sample values, in order (capped at
    /// [`SINK_STREAM_CAP`]; `consumed` keeps the true count).
    pub values: Vec<f64>,
}

/// Upper bound on stored sink samples (counters keep counting beyond it).
pub const SINK_STREAM_CAP: usize = 1 << 16;

/// Everything one reference execution observed.
#[derive(Debug, Clone, PartialEq)]
pub struct RtReport {
    /// The observable trace (buffer pushes only when
    /// [`RtConfig::record_traces`]; source/sink counters always).
    pub trace: ExecutionTrace,
    /// Per-buffer value streams (recorded when [`RtConfig::record_values`]).
    /// For KPN-safe graphs these are schedule-invariant, so this is the
    /// reference the self-timed engine's prefix oracle compares against.
    pub values: ValueTrace,
    /// Per node: (name, completed firings).
    pub node_firings: Vec<(String, u64)>,
    /// Per buffer: (name, physical capacity, max occupancy). The physical
    /// capacity is the declared (CTA-sized) capacity plus one write burst
    /// per producing node: admission checks the declared capacity, but a
    /// completing firing commits unconditionally (space was checked when it
    /// was admitted), so concurrent producers can transiently exceed the
    /// declared value by at most their in-flight bursts — the same
    /// semantics as the simulator.
    pub buffers: Vec<(String, usize, usize)>,
    /// Per sink: the real output sample streams.
    pub sinks: Vec<SinkStream>,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Total tokens pushed across all buffers.
    pub tokens: u64,
}

impl RtReport {
    /// True if no sink missed a deadline and no source overflowed.
    pub fn meets_real_time_constraints(&self) -> bool {
        self.trace.total_misses() == 0 && self.trace.total_overflows() == 0
    }

    /// The collected sample stream of a sink (matched by name fragment).
    pub fn sink_values(&self, name: &str) -> Option<&[f64]> {
        self.sinks
            .iter()
            .find(|s| s.name.contains(name))
            .map(|s| s.values.as_slice())
    }
}

/// The kernel payload: tokens carry `f64` samples computed by the graph's
/// kernels, indexed by the network ids (which number as the graph does).
struct Kernels {
    nodes: Vec<Kernel>,
    sources: Vec<SourceKernel>,
    /// Per buffer, when recording values: every pushed value.
    values: Option<Vec<BufferValues>>,
    /// Per sink: the consumed samples, up to [`SINK_STREAM_CAP`].
    sinks: Vec<Vec<f64>>,
}

impl Payload for Kernels {
    type Value = f64;

    fn draw(&mut self, source: SimSourceId) -> f64 {
        self.sources[source.index()].next_sample()
    }

    fn fire(&mut self, node: SimNodeId, inputs: &[f64], out_len: usize, outputs: &mut Vec<f64>) {
        self.nodes[node.index()].fire_extend(inputs, out_len, outputs);
    }

    fn pushed(&mut self, buffer: SimBufferId, value: f64) {
        if let Some(values) = &mut self.values {
            values[buffer.index()].record(value);
        }
    }

    fn consumed(&mut self, sink: SimSinkId, value: f64) {
        let stream = &mut self.sinks[sink.index()];
        if stream.len() < SINK_STREAM_CAP {
            stream.push(value);
        }
    }
}

/// Per-source sample budgets of a `duration`-long run: the horizon every
/// engine and the simulator admit (ticks at `period, 2·period, …`, time ≤
/// `duration`).
pub(crate) fn source_budgets(graph: &RtGraph, duration: Picos) -> Vec<u64> {
    let period = |s: &oil_compiler::rtgraph::RtSource| {
        picos_nearest(s.period).unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name))
    };
    let ticks = |s| duration.checked_div(period(s)).unwrap_or(0);
    graph.sources.iter().map(ticks).collect()
}

/// Execute `graph` for `duration` picoseconds of virtual time with the
/// kernels of `lib`.
///
/// # Panics
/// Panics if a response time or period cannot be placed on the picosecond
/// clock (impossible for compiler-lowered graphs). A panicking kernel
/// unwinds through this call unchanged.
pub fn execute(
    graph: &RtGraph,
    lib: &KernelLibrary,
    duration: Picos,
    config: &RtConfig,
) -> RtReport {
    let started = Instant::now();
    let mut net = build_simulation_from_graph(graph);
    let mut kernels = Kernels {
        nodes: graph
            .nodes
            .iter()
            .map(|n| lib.instantiate(&n.function))
            .collect(),
        sources: graph
            .sources
            .iter()
            .map(|s| lib.instantiate_source(&s.function))
            .collect(),
        values: config.record_values.then(|| {
            let named = |b: &oil_compiler::rtgraph::RtBuffer| BufferValues {
                name: b.name.clone(),
                ..Default::default()
            };
            graph.buffers.iter().map(named).collect()
        }),
        sinks: vec![Vec::new(); graph.sinks.len()],
    };
    let sim = SimulationConfig {
        cores: 0,
        warmup_ticks: config.warmup_ticks,
    };
    let (metrics, trace) = kernels.replay(&mut net, duration, &sim, config.record_traces);

    // Physical capacity: one in-flight write burst per producer on top.
    let mut buffers = metrics.buffers;
    for n in &graph.nodes {
        for &(b, c) in &n.writes {
            buffers[b.index()].1 += c;
        }
    }
    let sinks = metrics.sinks.into_iter().zip(kernels.sinks);
    RtReport {
        trace,
        values: ValueTrace {
            buffers: kernels.values.unwrap_or_default(),
        },
        node_firings: metrics.node_firings,
        buffers,
        sinks: sinks
            .map(
                |((name, consumed, misses, max_latency), values)| SinkStream {
                    name,
                    consumed,
                    misses,
                    max_latency,
                    values,
                },
            )
            .collect(),
        wall: started.elapsed(),
        tokens: metrics.tokens_written,
    }
}
