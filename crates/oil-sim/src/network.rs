//! The simulated task network and the discrete-event engine.

use crate::trace::{BufferTrace, ExecutionTrace};
use oil_dataflow::define_index_type;
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::taskgraph::ports_satisfied;
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
    /// Values currently present, with their origin timestamps.
    tokens: VecDeque<Picos>,
    /// Highest occupancy observed.
    pub max_occupancy: usize,
    /// Total values ever written.
    pub total_written: u64,
}

impl SimBuffer {
    fn new(name: String, capacity: usize) -> Self {
        SimBuffer {
            name,
            capacity,
            tokens: VecDeque::new(),
            max_occupancy: 0,
            total_written: 0,
        }
    }

    fn occupancy(&self) -> usize {
        self.tokens.len()
    }

    fn space(&self) -> usize {
        self.capacity.saturating_sub(self.tokens.len())
    }

    fn push(&mut self, origin: Picos, count: usize) {
        for _ in 0..count {
            self.tokens.push_back(origin);
        }
        self.total_written += count as u64;
        self.max_occupancy = self.max_occupancy.max(self.tokens.len());
    }

    fn pop(&mut self, count: usize) -> Option<Picos> {
        let mut oldest = None;
        for _ in 0..count {
            let t = self.tokens.pop_front()?;
            oldest = Some(oldest.map_or(t, |o: Picos| o.min(t)));
        }
        oldest
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
    /// Processor this node is mapped to.
    pub core: usize,
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
    /// Number of start-up ticks to ignore before counting misses (the
    /// pipeline needs to fill once; the CTA offsets predict this time).
    pub warmup_ticks: u64,
    /// Observed end-to-end latencies (origin timestamp to consumption), in
    /// picoseconds.
    pub latencies: Vec<Picos>,
}

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulationConfig {
    /// Number of processors; nodes are assigned round-robin. `0` means one
    /// processor per node (fully parallel, the assumption of the CTA model).
    pub cores: usize,
    /// Sink ticks ignored before misses are counted (pipeline warm-up).
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

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    SourceTick(SimSourceId),
    SinkTick(SimSinkId),
    NodeComplete(SimNodeId),
}

impl EventKind {
    /// The documented tie-breaking rule for events at the same instant:
    /// **sources deliver first, completing nodes commit second, sinks
    /// consume last**, and within a kind, lower ids go first. The rule is
    /// *structural* — it depends only on (time, kind, id), never on the
    /// order events happened to be inserted into the queue — which is what
    /// makes the simulation replayable by an independent engine (`oil-rt`)
    /// and insensitive to queue-population order
    /// (`tests/determinism.rs::sim_traces_are_insensitive_to_event_insertion_order`).
    fn rank(self) -> (u8, usize) {
        match self {
            EventKind::SourceTick(i) => (0, i.index()),
            EventKind::NodeComplete(i) => (1, i.index()),
            EventKind::SinkTick(i) => (2, i.index()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: Picos,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Min-heap by (time, rank) (BinaryHeap is a max-heap, so reverse).
        other
            .time
            .cmp(&self.time)
            .then(other.kind.rank().cmp(&self.kind.rank()))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
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
        let mut b = SimBuffer::new(name.into(), capacity.max(initial_tokens).max(1));
        b.push(0, initial_tokens);
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
        let core = self.nodes.len();
        self.nodes.push(SimNode {
            name: name.into(),
            response_time,
            reads,
            writes,
            core,
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
            warmup_ticks: 0,
            latencies: Vec::new(),
        })
    }

    /// Run the simulation for `duration` picoseconds.
    pub fn run(&mut self, duration: Picos, config: &SimulationConfig) -> SimMetrics {
        self.run_impl(duration, config, false, None).0
    }

    /// As [`SimNetwork::run`], additionally recording the per-buffer token
    /// trace (see [`crate::trace`]): the origin timestamp of every token
    /// pushed into every buffer, in push order.
    pub fn run_traced(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
    ) -> (SimMetrics, ExecutionTrace) {
        let (metrics, trace) = self.run_impl(duration, config, true, None);
        (metrics, trace.expect("trace recording was requested"))
    }

    /// As [`SimNetwork::run_traced`], but populating the initial event queue
    /// in the order given by `tick_order` — a permutation of
    /// `0..sources+sinks` where values `< sources` name source ticks and the
    /// rest name sink ticks. Because event ordering is structural
    /// (`EventKind::rank`), the insertion order must not influence the
    /// trace; `tests/determinism.rs` pins that property.
    pub fn run_traced_with_tick_order(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
        tick_order: &[usize],
    ) -> (SimMetrics, ExecutionTrace) {
        let (metrics, trace) = self.run_impl(duration, config, true, Some(tick_order));
        (metrics, trace.expect("trace recording was requested"))
    }

    fn run_impl(
        &mut self,
        duration: Picos,
        config: &SimulationConfig,
        record: bool,
        tick_order: Option<&[usize]>,
    ) -> (SimMetrics, Option<ExecutionTrace>) {
        // Processor assignment.
        let cores = if config.cores == 0 {
            self.nodes.len().max(1)
        } else {
            config.cores
        };
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.core = i % cores;
        }
        for s in &mut self.sinks {
            s.warmup_ticks = config.warmup_ticks;
        }

        // Trace recording: per-buffer push log, seeded with the tokens
        // already present (initial tokens, origin 0).
        let mut pushes: IndexVec<SimBufferId, Vec<Picos>> = IndexVec::new();
        if record {
            for b in &self.buffers {
                pushes.push(b.tokens.iter().copied().collect());
            }
        }

        let mut heap: BinaryHeap<Event> = BinaryHeap::new();
        // Initial ticks, by default sources then sinks in id order; a test
        // hook may permute the insertion order (the structural event
        // ordering makes this unobservable).
        let initial: Vec<Event> = self
            .sources
            .iter_enumerated()
            .map(|(i, s)| Event {
                time: s.period,
                kind: EventKind::SourceTick(i),
            })
            .chain(self.sinks.iter_enumerated().map(|(i, s)| Event {
                time: s.period,
                kind: EventKind::SinkTick(i),
            }))
            .collect();
        match tick_order {
            None => heap.extend(initial),
            Some(order) => {
                assert_eq!(
                    order.len(),
                    initial.len(),
                    "tick_order must be a permutation"
                );
                heap.extend(order.iter().map(|&i| initial[i]));
            }
        }

        // Core and node state.
        let mut core_busy_until: Vec<Picos> = vec![0; cores];
        let mut node_busy: IndexVec<SimNodeId, bool> = IndexVec::from_elem(false, self.nodes.len());
        // Origin timestamp carried by the firing in flight.
        let mut node_origin: IndexVec<SimNodeId, Picos> = IndexVec::from_elem(0, self.nodes.len());
        let mut now: Picos = 0;

        // Try to start every node that can fire at `now`.
        macro_rules! start_ready_nodes {
            () => {
                loop {
                    let mut progressed = false;
                    for ni in self.nodes.indices() {
                        if node_busy[ni] {
                            continue;
                        }
                        let node = &self.nodes[ni];
                        if core_busy_until[node.core] > now {
                            continue;
                        }
                        let inputs_ready =
                            ports_satisfied(&node.reads, |b| self.buffers[b].occupancy());
                        let outputs_ready =
                            ports_satisfied(&node.writes, |b| self.buffers[b].space());
                        if inputs_ready && outputs_ready {
                            let reads = node.reads.clone();
                            let mut origin = now;
                            for (b, c) in reads {
                                if let Some(o) = self.buffers[b].pop(c) {
                                    origin = origin.min(o);
                                }
                            }
                            let node = &mut self.nodes[ni];
                            node_origin[ni] = origin;
                            node_busy[ni] = true;
                            let complete = now + node.response_time;
                            core_busy_until[node.core] = complete;
                            heap.push(Event {
                                time: complete,
                                kind: EventKind::NodeComplete(ni),
                            });
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
            };
        }

        start_ready_nodes!();

        while let Some(ev) = heap.pop() {
            if ev.time > duration {
                break;
            }
            now = ev.time;
            match ev.kind {
                EventKind::SourceTick(i) => {
                    // Broadcast: every destination buffer (one per reader)
                    // receives the sample; a full destination drops it and
                    // counts an overflow. Indexed iteration — this is the
                    // hottest event in the loop; cloning the destination
                    // list per tick would allocate millions of times per
                    // sweep.
                    for d in 0..self.sources[i].buffers.len() {
                        let buffer = self.sources[i].buffers[d];
                        if self.buffers[buffer].space() >= 1 {
                            self.buffers[buffer].push(now, 1);
                            self.sources[i].produced += 1;
                            if record {
                                pushes[buffer].push(now);
                            }
                        } else {
                            self.sources[i].overflows += 1;
                        }
                    }
                    let next = now + self.sources[i].period;
                    heap.push(Event {
                        time: next,
                        kind: EventKind::SourceTick(i),
                    });
                }
                EventKind::SinkTick(i) => {
                    let buffer = self.sinks[i].buffer;
                    let tick_number = self.sinks[i].ticks;
                    self.sinks[i].ticks += 1;
                    if self.buffers[buffer].occupancy() >= 1 {
                        let origin = self.buffers[buffer].pop(1).unwrap_or(now);
                        self.sinks[i].consumed += 1;
                        self.sinks[i].latencies.push(now.saturating_sub(origin));
                    } else if tick_number >= self.sinks[i].warmup_ticks {
                        self.sinks[i].misses += 1;
                    }
                    let next = now + self.sinks[i].period;
                    heap.push(Event {
                        time: next,
                        kind: EventKind::SinkTick(i),
                    });
                }
                EventKind::NodeComplete(ni) => {
                    node_busy[ni] = false;
                    let writes = self.nodes[ni].writes.clone();
                    let origin = node_origin[ni];
                    for (b, c) in writes {
                        self.buffers[b].push(origin, c);
                        if record {
                            for _ in 0..c {
                                pushes[b].push(origin);
                            }
                        }
                    }
                    self.nodes[ni].firings += 1;
                }
            }
            start_ready_nodes!();
        }

        let metrics = SimMetrics {
            end_time: duration,
            sinks: self
                .sinks
                .iter()
                .map(|s| {
                    let max_latency = s.latencies.iter().copied().max().unwrap_or(0) as f64 / 1e12;
                    (s.name.clone(), s.consumed, s.misses, max_latency)
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
        let trace = record.then(|| ExecutionTrace {
            buffers: self
                .buffers
                .iter_enumerated()
                .map(|(i, b)| BufferTrace {
                    name: b.name.clone(),
                    pushes: std::mem::take(&mut pushes[i]),
                })
                .collect(),
            sources: self
                .sources
                .iter()
                .map(|s| (s.name.clone(), s.produced, s.overflows))
                .collect(),
            sinks: self
                .sinks
                .iter()
                .map(|s| (s.name.clone(), s.consumed, s.misses))
                .collect(),
        });
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
        assert!(metrics.total_overflows() > 0);
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
