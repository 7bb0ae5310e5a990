//! The simulated task network and its calendar — the one event loop that
//! replays an OIL program's timing.
//!
//! OIL's restrictions make temporal behaviour data-independent: when each
//! firing starts and ends is a pure function of the graph. [`SimNetwork`]
//! replays that function on a calendar of `(time, kind, id)`-ordered events
//! (`EventKind` documents the tie-break) with a data-driven admission rule
//! and an optional processor model ([`SimulationConfig::cores`]). What a
//! token carries besides its origin timestamp is a [`Payload`]: `()` for the
//! simulator ([`SimNetwork::run`]), sample values computed by real kernels
//! for the reference interpreter (`oil_rt::exec`). A payload sees every
//! draw, firing, push and consumption and moves none of them, so both read
//! the same trace.

use crate::trace::{BufferTrace, ExecutionTrace};
use oil_dataflow::define_index_type;
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::taskgraph::ports_satisfied;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in picoseconds.
pub type Picos = u64;

define_index_type! {
    /// A buffer of the simulated network.
    pub struct SimBufferId = "sb";
}

define_index_type! {
    /// A task node of the simulated network.
    pub struct SimNodeId = "sn";
}

define_index_type! {
    /// A time-triggered source of the simulated network.
    pub struct SimSourceId = "ssrc";
}

define_index_type! {
    /// A time-triggered sink of the simulated network.
    pub struct SimSinkId = "ssnk";
}

/// A bounded circular buffer in the simulated network. Tokens carry the
/// timestamp of the source sample they originate from so end-to-end latency
/// can be measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SimBuffer {
    /// Buffer name (channel or `<instance>.<variable>`).
    pub name: String,
    /// Capacity in values.
    pub capacity: usize,
    /// Origin timestamps of the values currently present, oldest first.
    tokens: VecDeque<Picos>,
    /// Highest occupancy observed.
    pub max_occupancy: usize,
    /// Total values ever written.
    pub total_written: u64,
}

impl SimBuffer {
    fn space(&self) -> usize {
        self.capacity.saturating_sub(self.tokens.len())
    }

    fn push(&mut self, origin: Picos) {
        self.tokens.push_back(origin);
        self.total_written += 1;
        self.max_occupancy = self.max_occupancy.max(self.tokens.len());
    }
}

/// A task node of the simulated network.
#[derive(Debug, Clone, PartialEq)]
pub struct SimNode {
    /// Node name (task or black-box instance).
    pub name: String,
    /// Response time of one firing, in picoseconds.
    pub response_time: Picos,
    /// `(buffer, values per firing)` read at the start of a firing.
    pub reads: Vec<(SimBufferId, usize)>,
    /// `(buffer, values per firing)` written at the end of a firing.
    pub writes: Vec<(SimBufferId, usize)>,
    /// Number of completed firings.
    pub firings: u64,
}

/// A time-triggered source feeding one or more buffers at a fixed period.
/// Multi-reader channels are realised as one destination buffer per reader;
/// every tick delivers the sample to each destination (a broadcast, matching
/// dataflow semantics where every reader sees every token).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSource {
    /// Source name.
    pub name: String,
    /// Destination buffers (one per reader of the source channel).
    pub buffers: Vec<SimBufferId>,
    /// Period in picoseconds.
    pub period: Picos,
    /// Samples delivered (counted per destination).
    pub produced: u64,
    /// Ticks at which a destination buffer was full (a real system would
    /// lose the sample; the CTA buffer sizing guarantees this never
    /// happens). Counted per full destination.
    pub overflows: u64,
}

/// A time-triggered sink draining a buffer at a fixed period.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSink {
    /// Sink name.
    pub name: String,
    /// Buffer the sink consumes from.
    pub buffer: SimBufferId,
    /// Period in picoseconds.
    pub period: Picos,
    /// Samples consumed.
    pub consumed: u64,
    /// Ticks at which no data was available (deadline misses).
    pub misses: u64,
    /// Total ticks elapsed (including warm-up).
    pub ticks: u64,
    /// Worst observed end-to-end latency (oldest input origin of the
    /// consumed value to its consumption), in picoseconds.
    pub max_latency: Picos,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of processors; node `i` runs on processor `i % cores`. `0`
    /// means one processor per node (fully parallel, the assumption of the
    /// CTA model).
    pub cores: usize,
    /// Sink ticks ignored before misses are counted (the pipeline needs to
    /// fill once; the CTA offsets predict this time).
    pub warmup_ticks: u64,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            cores: 0,
            warmup_ticks: 4,
        }
    }
}

/// The simulated network: buffers, task nodes, sources and sinks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimNetwork {
    /// All buffers.
    pub buffers: IndexVec<SimBufferId, SimBuffer>,
    /// All task nodes.
    pub nodes: IndexVec<SimNodeId, SimNode>,
    /// All sources.
    pub sources: IndexVec<SimSourceId, SimSource>,
    /// All sinks.
    pub sinks: IndexVec<SimSinkId, SimSink>,
}

/// Results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Simulated time, in picoseconds.
    pub end_time: Picos,
    /// Per sink: (name, consumed, misses, max latency in seconds).
    pub sinks: Vec<(String, u64, u64, f64)>,
    /// Per source: (name, produced, overflows).
    pub sources: Vec<(String, u64, u64)>,
    /// Per buffer: (name, capacity, max occupancy).
    pub buffers: Vec<(String, usize, usize)>,
    /// Per node: (name, firings).
    pub node_firings: Vec<(String, u64)>,
    /// Total values ever written across all buffers (the token count the
    /// runtime's throughput reports are compared against).
    pub tokens_written: u64,
}

impl SimMetrics {
    /// Total deadline misses over all sinks.
    pub fn total_misses(&self) -> u64 {
        self.sinks.iter().map(|(_, _, m, _)| m).sum()
    }

    /// Total source overflows.
    pub fn total_overflows(&self) -> u64 {
        self.sources.iter().map(|(_, _, o)| o).sum()
    }

    /// Measured throughput of a sink in samples per second.
    pub fn sink_throughput(&self, name: &str) -> Option<f64> {
        let (_, consumed, _, _) = self.sinks.iter().find(|(n, ..)| n.contains(name))?;
        Some(*consumed as f64 / (self.end_time as f64 / 1e12))
    }

    /// Worst observed end-to-end latency into a sink, in seconds.
    pub fn sink_max_latency(&self, name: &str) -> Option<f64> {
        self.sinks
            .iter()
            .find(|(n, ..)| n.contains(name))
            .map(|(_, _, _, l)| *l)
    }

    /// True if no sink missed a deadline and no source overflowed.
    pub fn meets_real_time_constraints(&self) -> bool {
        self.total_misses() == 0 && self.total_overflows() == 0
    }
}

/// What a token carries besides its origin timestamp, and what computes it.
///
/// The calendar tells the payload of every source tick, firing, push and
/// consumption; the payload cannot move any of them. Ids are the network's,
/// which `build_simulation_from_graph` numbers as the runtime graph does.
pub trait Payload {
    /// The value one token carries. Initial tokens carry the default.
    type Value: Copy + Default;

    /// The sample of `source`'s current tick. Drawn once per tick, before
    /// any destination is offered it, even when every destination is full.
    fn draw(&mut self, source: SimSourceId) -> Self::Value;

    /// Fire `node` as it is admitted: `inputs` are the values it consumed
    /// (every read, in read order); append its `out_len` outputs to
    /// `outputs`. A write of `c` tokens commits the first `c` of them at the
    /// firing's completion.
    fn fire(
        &mut self,
        node: SimNodeId,
        inputs: &[Self::Value],
        out_len: usize,
        outputs: &mut Vec<Self::Value>,
    );

    /// `value` was pushed into `buffer`.
    fn pushed(&mut self, _buffer: SimBufferId, _value: Self::Value) {}

    /// `sink` consumed `value`.
    fn consumed(&mut self, _sink: SimSinkId, _value: Self::Value) {}

    /// Run `net` for `duration` picoseconds carrying this payload: the same
    /// loop as [`SimNetwork::run`], which is this with `()`. The trace's
    /// per-buffer pushes are recorded only when `record_pushes`; its source
    /// and sink counters always are.
    fn replay(
        &mut self,
        net: &mut SimNetwork,
        duration: Picos,
        config: &SimulationConfig,
        record_pushes: bool,
    ) -> (SimMetrics, ExecutionTrace)
    where
        Self: Sized,
    {
        net.run_impl(duration, config, record_pushes, None, self)
    }
}

/// The simulator's payload: tokens carry nothing but their origin.
impl Payload for () {
    type Value = ();

    fn draw(&mut self, _: SimSourceId) {}

    fn fire(&mut self, _: SimNodeId, _: &[()], _: usize, _: &mut Vec<()>) {}
}

/// A calendar event. The derived order is the documented tie-break for
/// events at the same instant: **sources deliver first, completing nodes
/// commit second, sinks consume last**, and within a kind, lower ids go
/// first. The rule is *structural* — it depends only on (time, kind, id),
/// never on the order events were inserted — which makes a run insensitive
/// to queue-population order
/// (`tests/determinism.rs::sim_traces_are_insensitive_to_event_insertion_order`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    SourceTick(SimSourceId),
    NodeComplete(SimNodeId),
    SinkTick(SimSinkId),
}

/// The state of one run: the calendar, the processors, the firings in
/// flight and the tokens' payload values.
struct Run<'p, P: Payload> {
    payload: &'p mut P,
    /// Pending events, earliest first.
    calendar: BinaryHeap<Reverse<(Picos, EventKind)>>,
    /// Per processor: when its firing in flight completes.
    core_busy_until: Vec<Picos>,
    /// Per node, while a firing is in flight: the oldest origin among its
    /// inputs (and `now`), which every output it commits carries.
    in_flight: IndexVec<SimNodeId, Option<Picos>>,
    /// Per node: the outputs of its firing in flight.
    outputs: IndexVec<SimNodeId, Vec<P::Value>>,
    /// Per buffer: the payload values of its tokens, oldest first.
    values: IndexVec<SimBufferId, VecDeque<P::Value>>,
    /// Per buffer, when recording: the origin of every token pushed.
    pushes: Option<IndexVec<SimBufferId, Vec<Picos>>>,
    /// Scratch: the values one firing consumes.
    inputs: Vec<P::Value>,
}

impl<P: Payload> Run<'_, P> {
    fn schedule(&mut self, time: Picos, event: EventKind) {
        self.calendar.push(Reverse((time, event)));
    }

    fn push(&mut self, net: &mut SimNetwork, b: SimBufferId, origin: Picos, value: P::Value) {
        net.buffers[b].push(origin);
        self.values[b].push_back(value);
        if let Some(pushes) = &mut self.pushes {
            pushes[b].push(origin);
        }
        self.payload.pushed(b, value);
    }

    /// Start every node that can fire at `now` — enough values on every
    /// read, enough space on every write, node and its processor idle —
    /// scanning nodes in id order to fixpoint. A firing consumes its inputs
    /// and fires the payload now; its outputs wait for its completion.
    fn admit(&mut self, net: &mut SimNetwork, now: Picos) {
        let mut progressed = true;
        while progressed {
            progressed = false;
            for ni in net.nodes.indices() {
                let node = &net.nodes[ni];
                let core = ni.index() % self.core_busy_until.len();
                let buffers = &mut net.buffers;
                let ready = self.in_flight[ni].is_none()
                    && self.core_busy_until[core] <= now
                    && ports_satisfied(&node.reads, |b| buffers[b].tokens.len())
                    && ports_satisfied(&node.writes, |b| buffers[b].space());
                if !ready {
                    continue;
                }
                let mut origin = now;
                self.inputs.clear();
                for &(b, c) in &node.reads {
                    for o in buffers[b].tokens.drain(..c) {
                        origin = origin.min(o);
                    }
                    self.inputs.extend(self.values[b].drain(..c));
                }
                let out_len = node.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
                self.outputs[ni].clear();
                self.payload
                    .fire(ni, &self.inputs, out_len, &mut self.outputs[ni]);
                self.in_flight[ni] = Some(origin);
                let complete = now + node.response_time;
                self.core_busy_until[core] = complete;
                self.schedule(complete, EventKind::NodeComplete(ni));
                progressed = true;
            }
        }
    }
}

impl SimNetwork {
    /// Add a buffer, returning its index.
    pub fn add_buffer(
        &mut self,
        name: impl Into<String>,
        capacity: usize,
        initial_tokens: usize,
    ) -> SimBufferId {
        let mut b = SimBuffer {
            name: name.into(),
            capacity: capacity.max(initial_tokens).max(1),
            tokens: VecDeque::new(),
            max_occupancy: 0,
            total_written: 0,
        };
        for _ in 0..initial_tokens {
            b.push(0);
        }
        self.buffers.push(b)
    }

    /// Add a task node, returning its index.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        response_time: Picos,
        reads: Vec<(SimBufferId, usize)>,
        writes: Vec<(SimBufferId, usize)>,
    ) -> SimNodeId {
        self.nodes.push(SimNode {
            name: name.into(),
            response_time,
            reads,
            writes,
            firings: 0,
        })
    }

    /// Add a time-triggered source feeding a single buffer.
    pub fn add_source(
        &mut self,
        name: impl Into<String>,
        buffer: SimBufferId,
        period: Picos,
    ) -> SimSourceId {
        self.add_source_fanout(name, vec![buffer], period)
    }

    /// Add a time-triggered source broadcasting to several buffers (one per
    /// reader of a multi-reader source channel).
    pub fn add_source_fanout(
        &mut self,
        name: impl Into<String>,
        buffers: Vec<SimBufferId>,
        period: Picos,
    ) -> SimSourceId {
        self.sources.push(SimSource {
            name: name.into(),
            buffers,
            period,
            produced: 0,
            overflows: 0,
        })
    }

    /// Add a time-triggered sink.
    pub fn add_sink(
        &mut self,
        name: impl Into<String>,
        buffer: SimBufferId,
        period: Picos,
    ) -> SimSinkId {
        self.sinks.push(SimSink {
            name: name.into(),
            buffer,
            period,
            consumed: 0,
            misses: 0,
            ticks: 0,
            max_latency: 0,
        })
    }

    /// Run the simulation for `duration` picoseconds.
    pub fn run(&mut self, duration: Picos, config: &SimulationConfig) -> SimMetrics {
        self.run_impl(duration, config, false, None, &mut ()).0
    }

    /// As [`SimNetwork::run`], additionally recording the per-buffer token
    /// trace (see [`crate::trace`]): the origin timestamp of every token
    /// pushed into every buffer, in push order.
    pub fn run_traced(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
    ) -> (SimMetrics, ExecutionTrace) {
        self.run_impl(duration, config, true, None, &mut ())
    }

    /// As [`SimNetwork::run_traced`], but populating the initial event queue
    /// in the order given by `tick_order` — a permutation of
    /// `0..sources+sinks` where values `< sources` name source ticks and the
    /// rest name sink ticks. Because event ordering is structural
    /// (`EventKind`), the insertion order must not influence the trace;
    /// `tests/determinism.rs` pins that property.
    pub fn run_traced_with_tick_order(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
        tick_order: &[usize],
    ) -> (SimMetrics, ExecutionTrace) {
        self.run_impl(duration, config, true, Some(tick_order), &mut ())
    }

    /// The event loop: every run, with or without a payload, is this one.
    fn run_impl<P: Payload>(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
        record: bool,
        tick_order: Option<&[usize]>,
        payload: &mut P,
    ) -> (SimMetrics, ExecutionTrace) {
        let cores = match config.cores {
            0 => self.nodes.len().max(1),
            cores => cores,
        };
        // The tokens already present (initial tokens, origin 0) carry the
        // default value and open the trace.
        let mut values = IndexVec::new();
        for (b, buffer) in self.buffers.iter_enumerated() {
            let initial = vec![P::Value::default(); buffer.tokens.len()];
            initial.iter().for_each(|&v| payload.pushed(b, v));
            values.push(VecDeque::from(initial));
        }
        let pushes = record.then(|| {
            self.buffers
                .iter()
                .map(|b| b.tokens.iter().copied().collect())
                .collect()
        });
        let mut run = Run {
            payload,
            calendar: BinaryHeap::new(),
            core_busy_until: vec![0; cores],
            in_flight: IndexVec::from_elem(None, self.nodes.len()),
            outputs: IndexVec::from_elem(Vec::new(), self.nodes.len()),
            values,
            pushes,
            inputs: Vec::new(),
        };

        // Initial ticks, by default sources then sinks in id order; a test
        // hook may permute the insertion order (the structural event
        // ordering makes this unobservable).
        let initial: Vec<(Picos, EventKind)> = self
            .sources
            .iter_enumerated()
            .map(|(i, s)| (s.period, EventKind::SourceTick(i)))
            .chain(
                self.sinks
                    .iter_enumerated()
                    .map(|(i, s)| (s.period, EventKind::SinkTick(i))),
            )
            .collect();
        let order = tick_order.map_or_else(|| (0..initial.len()).collect(), <[usize]>::to_vec);
        assert_eq!(
            order.len(),
            initial.len(),
            "tick_order must be a permutation"
        );
        for i in order {
            run.schedule(initial[i].0, initial[i].1);
        }

        run.admit(self, 0);
        while let Some(Reverse((time, event))) = run.calendar.pop() {
            if time > duration {
                break;
            }
            match event {
                EventKind::SourceTick(i) => {
                    // Broadcast: every destination buffer (one per reader)
                    // receives the sample; a full destination drops it and
                    // counts an overflow.
                    let value = run.payload.draw(i);
                    for d in 0..self.sources[i].buffers.len() {
                        let b = self.sources[i].buffers[d];
                        if self.buffers[b].space() >= 1 {
                            run.push(self, b, time, value);
                            self.sources[i].produced += 1;
                        } else {
                            self.sources[i].overflows += 1;
                        }
                    }
                    run.schedule(time + self.sources[i].period, event);
                }
                EventKind::NodeComplete(ni) => {
                    let origin = run.in_flight[ni]
                        .take()
                        .expect("completion of an idle node");
                    let outputs = std::mem::take(&mut run.outputs[ni]);
                    for w in 0..self.nodes[ni].writes.len() {
                        let (b, c) = self.nodes[ni].writes[w];
                        for k in 0..c {
                            let value = outputs.get(k).copied().unwrap_or_default();
                            run.push(self, b, origin, value);
                        }
                    }
                    run.outputs[ni] = outputs;
                    self.nodes[ni].firings += 1;
                }
                EventKind::SinkTick(i) => {
                    let sink = &mut self.sinks[i];
                    sink.ticks += 1;
                    if let Some(origin) = self.buffers[sink.buffer].tokens.pop_front() {
                        let value = run.values[sink.buffer].pop_front().unwrap_or_default();
                        sink.consumed += 1;
                        sink.max_latency = sink.max_latency.max(time.saturating_sub(origin));
                        run.payload.consumed(i, value);
                    } else if sink.ticks > config.warmup_ticks {
                        sink.misses += 1;
                    }
                    run.schedule(time + sink.period, event);
                }
            }
            run.admit(self, time);
        }

        let metrics = SimMetrics {
            end_time: duration,
            sinks: self
                .sinks
                .iter()
                .map(|s| {
                    let latency = s.max_latency as f64 / 1e12;
                    (s.name.clone(), s.consumed, s.misses, latency)
                })
                .collect(),
            sources: self
                .sources
                .iter()
                .map(|s| (s.name.clone(), s.produced, s.overflows))
                .collect(),
            buffers: self
                .buffers
                .iter()
                .map(|b| (b.name.clone(), b.capacity, b.max_occupancy))
                .collect(),
            node_firings: self
                .nodes
                .iter()
                .map(|n| (n.name.clone(), n.firings))
                .collect(),
            tokens_written: self.buffers.iter().map(|b| b.total_written).sum(),
        };
        let buffers = run.pushes.map_or_else(Vec::new, |pushes| {
            self.buffers
                .iter()
                .zip(pushes)
                .map(|(b, pushes)| BufferTrace {
                    name: b.name.clone(),
                    pushes,
                })
                .collect()
        });
        let trace = ExecutionTrace {
            buffers,
            sources: metrics.sources.clone(),
            sinks: self
                .sinks
                .iter()
                .map(|s| (s.name.clone(), s.consumed, s.misses))
                .collect(),
        };
        (metrics, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::picos;

    /// source (1 kHz) -> node (0.1 ms) -> sink (1 kHz), buffers of 4.
    fn simple_chain(node_rt: f64) -> SimNetwork {
        let mut net = SimNetwork::default();
        let bin = net.add_buffer("in", 4, 0);
        let bout = net.add_buffer("out", 4, 0);
        net.add_node("work", picos(node_rt), vec![(bin, 1)], vec![(bout, 1)]);
        net.add_source("src", bin, picos(1e-3));
        net.add_sink("snk", bout, picos(1e-3));
        net
    }

    #[test]
    fn chain_meets_constraints_when_fast_enough() {
        let mut net = simple_chain(1e-4);
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        let thr = metrics.sink_throughput("snk").unwrap();
        assert!((thr - 1000.0).abs() < 20.0, "throughput {thr}");
        assert!(metrics.sink_max_latency("snk").unwrap() <= 2.5e-3);
    }

    #[test]
    fn chain_misses_deadlines_when_too_slow() {
        // The node needs 3 ms per sample but samples arrive every 1 ms.
        let mut net = simple_chain(3e-3);
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        assert!(metrics.total_misses() > 0 || metrics.total_overflows() > 0);
        assert!(!metrics.meets_real_time_constraints());
    }

    #[test]
    fn multi_rate_node_fires_at_reduced_rate() {
        // A decimator by 4: reads 4, writes 1; sink at 250 Hz.
        let mut net = SimNetwork::default();
        let bin = net.add_buffer("in", 8, 0);
        let bout = net.add_buffer("out", 4, 0);
        net.add_node("decim", picos(1e-4), vec![(bin, 4)], vec![(bout, 1)]);
        net.add_source("src", bin, picos(1e-3));
        net.add_sink("snk", bout, picos(4e-3));
        let metrics = net.run(picos(1.0), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        let firings = metrics.node_firings[0].1;
        assert!((200..=260).contains(&firings), "firings {firings}");
    }

    #[test]
    fn undersized_buffer_causes_overflow() {
        let mut net = SimNetwork::default();
        let bin = net.add_buffer("in", 1, 0);
        let bout = net.add_buffer("out", 1, 0);
        net.add_node("work", picos(5e-3), vec![(bin, 1)], vec![(bout, 1)]);
        net.add_source("src", bin, picos(1e-3));
        net.add_sink("snk", bout, picos(1e-3));
        let metrics = net.run(picos(0.2), &SimulationConfig::default());
        // 200 ticks into one slot: the first sample finds it empty, each of
        // the 5 ms node's 40 admissions frees it for one more, and every
        // other tick finds it full.
        assert_eq!(metrics.sources, [("src".to_string(), 41, 159)]);
    }

    /// Numbers every source sample in draw order, passes it through the
    /// nodes, and counts what the calendar tells it.
    #[derive(Default)]
    struct Counting {
        draws: u64,
        fired: u64,
        pushed: u64,
        consumed: Vec<u64>,
    }

    impl Payload for Counting {
        type Value = u64;

        fn draw(&mut self, _: SimSourceId) -> u64 {
            self.draws += 1;
            self.draws
        }

        fn fire(&mut self, _: SimNodeId, inputs: &[u64], out_len: usize, outputs: &mut Vec<u64>) {
            self.fired += 1;
            outputs.extend(inputs.iter().copied().take(out_len));
        }

        fn pushed(&mut self, _: SimBufferId, _: u64) {
            self.pushed += 1;
        }

        fn consumed(&mut self, _: SimSinkId, value: u64) {
            self.consumed.push(value);
        }
    }

    #[test]
    fn a_payload_sees_every_tick_and_moves_nothing() {
        // The undersized chain: the source's only destination is full on
        // many ticks, and every tick must still draw one sample.
        let mut net = SimNetwork::default();
        let bin = net.add_buffer("in", 1, 0);
        let bout = net.add_buffer("out", 1, 0);
        net.add_node("work", picos(5e-3), vec![(bin, 1)], vec![(bout, 1)]);
        net.add_source("src", bin, picos(1e-3));
        net.add_sink("snk", bout, picos(1e-3));
        let config = SimulationConfig::default();

        let (plain, plain_trace) = net.clone().run_traced(picos(0.2), &config);
        let mut counting = Counting::default();
        let (metrics, trace) = counting.replay(&mut net, picos(0.2), &config, true);
        assert_eq!(metrics, plain);
        assert_eq!(trace.first_divergence(&plain_trace), None);

        assert!(metrics.total_overflows() > 100, "{metrics:?}");
        assert_eq!(counting.draws, 200, "one draw per tick, full or not");
        let (_, produced, overflows) = metrics.sources[0];
        assert_eq!(produced + overflows, counting.draws);
        assert_eq!(counting.pushed, metrics.tokens_written);
        let completed = metrics.node_firings[0].1;
        assert!((completed..=completed + 1).contains(&counting.fired));
        // Values travel with their tokens: the sink reads samples in draw
        // order, with the dropped ones missing.
        assert_eq!(counting.consumed.len() as u64, metrics.sinks[0].1);
        assert!(counting.consumed.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn initial_tokens_let_consumers_start_immediately() {
        let mut net = SimNetwork::default();
        let b = net.add_buffer("pre", 8, 4);
        let bout = net.add_buffer("out", 8, 0);
        net.add_node("cons", picos(1e-4), vec![(b, 4)], vec![(bout, 1)]);
        net.add_sink("snk", bout, picos(1e-2));
        let metrics = net.run(picos(0.05), &SimulationConfig::default());
        assert_eq!(metrics.node_firings[0].1, 1);
        assert_eq!(metrics.buffers[0].2, 4); // max occupancy of the pre-filled buffer
    }

    #[test]
    fn limited_cores_serialise_execution() {
        // Two independent chains; with one core the two nodes share it.
        let mut net = SimNetwork::default();
        let b1 = net.add_buffer("in1", 8, 0);
        let o1 = net.add_buffer("out1", 8, 0);
        let b2 = net.add_buffer("in2", 8, 0);
        let o2 = net.add_buffer("out2", 8, 0);
        net.add_node("n1", picos(0.6e-3), vec![(b1, 1)], vec![(o1, 1)]);
        net.add_node("n2", picos(0.6e-3), vec![(b2, 1)], vec![(o2, 1)]);
        net.add_source("s1", b1, picos(1e-3));
        net.add_source("s2", b2, picos(1e-3));
        net.add_sink("k1", o1, picos(1e-3));
        net.add_sink("k2", o2, picos(1e-3));

        let parallel = net.clone().run(
            picos(0.3),
            &SimulationConfig {
                cores: 0,
                warmup_ticks: 4,
            },
        );
        assert!(parallel.meets_real_time_constraints(), "{parallel:?}");

        // One core must execute 1.2 ms of work per 1 ms of input: it falls
        // behind and violates the constraints.
        let serial = net.run(
            picos(0.3),
            &SimulationConfig {
                cores: 1,
                warmup_ticks: 4,
            },
        );
        assert!(!serial.meets_real_time_constraints());
    }

    #[test]
    fn latency_accounts_for_pipeline_depth() {
        let mut net = SimNetwork::default();
        let a = net.add_buffer("a", 8, 0);
        let b = net.add_buffer("b", 8, 0);
        let c = net.add_buffer("c", 8, 0);
        net.add_node("n1", picos(2e-3), vec![(a, 1)], vec![(b, 1)]);
        net.add_node("n2", picos(3e-3), vec![(b, 1)], vec![(c, 1)]);
        net.add_source("src", a, picos(10e-3));
        net.add_sink("snk", c, picos(10e-3));
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        let latency = metrics.sink_max_latency("snk").unwrap();
        assert!(latency >= 5e-3, "latency {latency}");
        assert!(latency <= 20e-3, "latency {latency}");
    }
}
