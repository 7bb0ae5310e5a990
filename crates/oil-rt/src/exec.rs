//! The reference interpreter: a single-threaded calendar replay of an
//! [`RtGraph`] that is timing-identical to the simulator and produces values.
//!
//! OIL's restrictions make temporal behaviour **data-independent** (rates
//! are static, guarded statements still fire), so *when* every firing starts
//! and completes is a pure function of the graph. The interpreter replays
//! that function on a calendar of `(time, kind, id)`-ordered events with the
//! same documented tie-breaking rule as `oil_sim::network` (sources deliver,
//! completing nodes commit, sinks consume; lower ids first) and the same
//! data-driven admission rule, and additionally computes the samples: a
//! node's kernel fires inline when its firing is admitted, the outputs are
//! held until the firing's completion event commits them, a source kernel
//! is asked for its next sample at the source's tick, and sink samples are
//! collected in place.
//!
//! It is an oracle, not an engine: `tests/runtime_differential.rs` holds its
//! token traces, misses and overflows to bit-identical agreement with
//! `oil-sim` over hundreds of generated programs, and the self-timed engine,
//! the static-order engine and the repo benchmark compare their value
//! streams against it. That is why it has no threads, no shared state and
//! no instrumentation — its only duty is to be obviously right.

use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{BufferValues, ValueTrace};
use oil_compiler::rtgraph::{RtBufferId, RtGraph, RtNodeId, RtSinkId, RtSourceId};
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::taskgraph::ports_satisfied;
use oil_dataflow::Rational;
use oil_sim::time::picos_nearest;
use oil_sim::trace::{BufferTrace, ExecutionTrace};
use oil_sim::Picos;
use std::collections::{BTreeMap, VecDeque};
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

/// A token travelling through a buffer: the origin timestamp of the source
/// sample it derives from (the simulator's trace currency) plus the actual
/// sample value (the interpreter's extra).
#[derive(Debug, Clone, Copy)]
struct Token {
    origin: Picos,
    value: f64,
}

struct Buffer {
    /// The CTA-sized capacity that admission and source ticks check space
    /// against, exactly like the simulator. A completing firing commits
    /// unconditionally, so occupancy may transiently exceed it (see
    /// [`RtReport::buffers`]).
    declared: usize,
    tokens: VecDeque<Token>,
    max_occupancy: usize,
    pushes: Vec<Picos>,
    values: BufferValues,
}

struct Node {
    kernel: Kernel,
    response: Picos,
    /// While a firing is in flight: the oldest origin among its inputs and
    /// the outputs its completion event will commit.
    in_flight: Option<(Picos, Vec<f64>)>,
    firings: u64,
}

struct Source {
    kernel: SourceKernel,
    period: Picos,
    produced: u64,
    overflows: u64,
}

struct Sink {
    period: Picos,
    ticks: u64,
    stream: SinkStream,
}

/// Event kinds, ranked exactly like `oil_sim::network`'s documented
/// tie-breaking rule: sources deliver first, completing nodes commit second,
/// sinks consume last; within a kind, lower ids first.
const RANK_SOURCE: u8 = 0;
const RANK_COMPLETE: u8 = 1;
const RANK_SINK: u8 = 2;

#[derive(Debug, Clone, Copy)]
enum RtEvent {
    SourceTick(RtSourceId),
    NodeComplete(RtNodeId),
    SinkTick(RtSinkId),
}

/// The calendar: an ordered map keyed by `(time, rank, id)`. Deliberately a
/// different structure from the simulator's binary heap — the two share
/// only the documented ordering contract, not code.
#[derive(Default)]
struct Calendar {
    events: BTreeMap<(Picos, u8, u32), RtEvent>,
}

impl Calendar {
    fn schedule(&mut self, time: Picos, event: RtEvent) {
        let key = match event {
            RtEvent::SourceTick(i) => (time, RANK_SOURCE, i.index() as u32),
            RtEvent::NodeComplete(i) => (time, RANK_COMPLETE, i.index() as u32),
            RtEvent::SinkTick(i) => (time, RANK_SINK, i.index() as u32),
        };
        let previous = self.events.insert(key, event);
        debug_assert!(previous.is_none(), "double-scheduled event {key:?}");
    }

    fn pop(&mut self) -> Option<(Picos, RtEvent)> {
        self.events.pop_first().map(|((t, _, _), e)| (t, e))
    }
}

struct Interpreter<'a> {
    graph: &'a RtGraph,
    config: &'a RtConfig,
    buffers: IndexVec<RtBufferId, Buffer>,
    nodes: IndexVec<RtNodeId, Node>,
    calendar: Calendar,
    tokens_pushed: u64,
}

impl Interpreter<'_> {
    /// Push a token and maintain occupancy/trace accounting.
    fn push(&mut self, b: RtBufferId, token: Token) {
        let buffer = &mut self.buffers[b];
        buffer.tokens.push_back(token);
        buffer.max_occupancy = buffer.max_occupancy.max(buffer.tokens.len());
        if self.config.record_traces {
            buffer.pushes.push(token.origin);
        }
        if self.config.record_values {
            buffer.values.record(token.value);
        }
        self.tokens_pushed += 1;
    }

    /// Start every node that can fire at `now` (the simulator's data-driven
    /// admission rule: enough values on every read, enough space on every
    /// write, node not already firing; nodes scanned in id order to
    /// fixpoint).
    fn admit_ready_firings(&mut self, now: Picos) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for (ni, spec) in self.graph.nodes.iter_enumerated() {
                let buffers = &mut self.buffers;
                let ready = self.nodes[ni].in_flight.is_none()
                    && ports_satisfied(&spec.reads, |b| buffers[b].tokens.len())
                    && ports_satisfied(&spec.writes, |b| {
                        buffers[b].declared.saturating_sub(buffers[b].tokens.len())
                    });
                if !ready {
                    continue;
                }
                // Consume the inputs now (the firing occupies them for its
                // whole response time) and track the oldest origin.
                let mut origin = now;
                let mut inputs = Vec::new();
                for &(b, c) in &spec.reads {
                    for token in buffers[b].tokens.drain(..c) {
                        origin = origin.min(token.origin);
                        inputs.push(token.value);
                    }
                }
                let out_len = spec.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
                let node = &mut self.nodes[ni];
                node.in_flight = Some((origin, node.kernel.fire(&inputs, out_len)));
                self.calendar
                    .schedule(now + node.response, RtEvent::NodeComplete(ni));
                progressed = true;
            }
        }
    }
}

/// Place an exact time on the picosecond clock, with the same checked
/// conversion the simulator builder uses.
fn quantise(what: &str, name: &str, seconds: Rational) -> Picos {
    picos_nearest(seconds).unwrap_or_else(|e| panic!("{what} of `{name}`: {e}"))
}

/// Per-source sample budgets of a `duration`-long run: the horizon every
/// engine and the simulator admit (ticks at `period, 2·period, …`, time ≤
/// `duration`).
pub(crate) fn source_budgets(graph: &RtGraph, duration: Picos) -> Vec<u64> {
    let ticks = |period| duration.checked_div(period).unwrap_or(0);
    let periods = graph
        .sources
        .iter()
        .map(|s| quantise("period", &s.name, s.period));
    periods.map(ticks).collect()
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
    let mut interp = Interpreter {
        graph,
        config,
        buffers: graph
            .buffers
            .iter()
            .map(|b| Buffer {
                declared: b.capacity.max(b.initial_tokens).max(1),
                tokens: VecDeque::new(),
                max_occupancy: 0,
                pushes: Vec::new(),
                values: BufferValues {
                    name: b.name.clone(),
                    ..Default::default()
                },
            })
            .collect(),
        nodes: graph
            .nodes
            .iter()
            .map(|n| Node {
                kernel: lib.instantiate(&n.function),
                response: quantise("response", &n.name, n.response),
                in_flight: None,
                firings: 0,
            })
            .collect(),
        calendar: Calendar::default(),
        tokens_pushed: 0,
    };
    for (b, spec) in graph.buffers.iter_enumerated() {
        for _ in 0..spec.initial_tokens {
            interp.push(
                b,
                Token {
                    origin: 0,
                    value: 0.0,
                },
            );
        }
    }
    let mut sources: IndexVec<RtSourceId, Source> = graph
        .sources
        .iter()
        .map(|s| Source {
            kernel: lib.instantiate_source(&s.function),
            period: quantise("period", &s.name, s.period),
            produced: 0,
            overflows: 0,
        })
        .collect();
    let mut sinks: IndexVec<RtSinkId, Sink> = graph
        .sinks
        .iter()
        .map(|s| Sink {
            period: quantise("period", &s.name, s.period),
            ticks: 0,
            stream: SinkStream {
                name: s.name.clone(),
                consumed: 0,
                misses: 0,
                max_latency: 0.0,
                values: Vec::new(),
            },
        })
        .collect();
    for (i, s) in sources.iter_enumerated() {
        interp.calendar.schedule(s.period, RtEvent::SourceTick(i));
    }
    for (i, s) in sinks.iter_enumerated() {
        interp.calendar.schedule(s.period, RtEvent::SinkTick(i));
    }

    interp.admit_ready_firings(0);
    while let Some((now, event)) = interp.calendar.pop() {
        if now > duration {
            break;
        }
        match event {
            RtEvent::SourceTick(i) => {
                let source = &mut sources[i];
                let value = source.kernel.next_sample();
                for &b in &graph.sources[i].outputs {
                    if interp.buffers[b].declared > interp.buffers[b].tokens.len() {
                        interp.push(b, Token { origin: now, value });
                        source.produced += 1;
                    } else {
                        source.overflows += 1;
                    }
                }
                interp
                    .calendar
                    .schedule(now + source.period, RtEvent::SourceTick(i));
            }
            RtEvent::NodeComplete(ni) => {
                let node = &mut interp.nodes[ni];
                let (origin, outputs) = node.in_flight.take().expect("completion of an idle node");
                node.firings += 1;
                for &(b, c) in &graph.nodes[ni].writes {
                    for k in 0..c {
                        let value = outputs.get(k).copied().unwrap_or(0.0);
                        interp.push(b, Token { origin, value });
                    }
                }
            }
            RtEvent::SinkTick(i) => {
                let sink = &mut sinks[i];
                sink.ticks += 1;
                if let Some(token) = interp.buffers[graph.sinks[i].input].tokens.pop_front() {
                    sink.stream.consumed += 1;
                    let latency = now.saturating_sub(token.origin) as f64 / 1e12;
                    sink.stream.max_latency = sink.stream.max_latency.max(latency);
                    if sink.stream.values.len() < SINK_STREAM_CAP {
                        sink.stream.values.push(token.value);
                    }
                } else if sink.ticks > config.warmup_ticks {
                    sink.stream.misses += 1;
                }
                interp
                    .calendar
                    .schedule(now + sink.period, RtEvent::SinkTick(i));
            }
        }
        interp.admit_ready_firings(now);
    }

    let mut inflight_headroom = vec![0; graph.buffers.len()];
    for n in &graph.nodes {
        for &(b, c) in &n.writes {
            inflight_headroom[b.index()] += c;
        }
    }
    let mut trace = ExecutionTrace {
        buffers: Vec::new(),
        sources: graph
            .sources
            .iter()
            .zip(&sources)
            .map(|(s, state)| (s.name.clone(), state.produced, state.overflows))
            .collect(),
        sinks: sinks
            .iter()
            .map(|s| (s.stream.name.clone(), s.stream.consumed, s.stream.misses))
            .collect(),
    };
    let mut values = ValueTrace::default();
    let mut buffers = Vec::new();
    for ((spec, buffer), headroom) in graph
        .buffers
        .iter()
        .zip(interp.buffers)
        .zip(inflight_headroom)
    {
        buffers.push((
            spec.name.clone(),
            buffer.declared + headroom,
            buffer.max_occupancy,
        ));
        if config.record_traces {
            trace.buffers.push(BufferTrace {
                name: spec.name.clone(),
                pushes: buffer.pushes,
            });
        }
        if config.record_values {
            values.buffers.push(buffer.values);
        }
    }
    RtReport {
        trace,
        values,
        node_firings: graph
            .nodes
            .iter()
            .zip(&interp.nodes)
            .map(|(n, state)| (n.name.clone(), state.firings))
            .collect(),
        buffers,
        sinks: sinks.into_iter().map(|s| s.stream).collect(),
        wall: started.elapsed(),
        tokens: interp.tokens_pushed,
    }
}
