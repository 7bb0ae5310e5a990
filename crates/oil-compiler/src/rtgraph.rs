//! The runtime graph: the engine-consumable view of a compiled program.
//!
//! Both execution engines — the discrete-event simulator (`oil-sim`) and the
//! multi-threaded runtime (`oil-rt`) — execute the *same* flat graph of
//! buffers, data-driven nodes and time-triggered sources/sinks. This module
//! lowers a [`CompiledProgram`] into that graph once, so the engines cannot
//! diverge in how they interpret the compiler's output and the differential
//! harness (`tests/runtime_differential.rs`) tests *scheduling semantics*,
//! not graph construction:
//!
//! * every runnable task of every sequential module becomes one node (see
//!   [`crate::parallelize::runnable_tasks`]; prologue statements run before
//!   start-up and survive only as initial tokens);
//! * every black box becomes one node with its registered interface rates;
//! * every channel becomes one buffer **per reader** — multi-reader channels
//!   (such as the PAL decoder's RF source feeding both splitter branches)
//!   are broadcast: each reader observes every token, matching the dataflow
//!   semantics the CTA analysis assumes;
//! * every local variable becomes one buffer shared by the tasks of its
//!   module;
//! * capacities come from CTA buffer sizing, widened by the engines' atomic
//!   burst transfer plus one slack slot (the analysis assumes production
//!   spread over a firing, the engines commit at completion);
//! * all times are **exact rational seconds** — quantisation onto an
//!   engine's clock grid happens in the engine, through the checked
//!   conversions of `oil_sim::time`.

use crate::pipeline::CompiledProgram;
use oil_dataflow::define_index_type;
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::taskgraph::BufferId;
use oil_dataflow::unionfind::UnionFind;
use oil_dataflow::{ChannelId, Rational};
use oil_lang::sema::{ChannelKind, InstanceId};
use oil_lang::FunctionRegistry;
use std::collections::BTreeMap;

define_index_type! {
    /// A buffer of the runtime graph.
    pub struct RtBufferId = "rb";
}

define_index_type! {
    /// A data-driven node of the runtime graph.
    pub struct RtNodeId = "rn";
}

define_index_type! {
    /// A time-triggered source of the runtime graph.
    pub struct RtSourceId = "rsrc";
}

define_index_type! {
    /// A time-triggered sink of the runtime graph.
    pub struct RtSinkId = "rsnk";
}

/// Default capacity for buffers the sizing pass did not need to grow.
pub const DEFAULT_LOCAL_CAPACITY: usize = 4;

/// Extra slack added to every engine buffer: the CTA capacities are
/// sufficient under the model's scheduling assumptions; the engines'
/// data-driven schedule differs slightly (production at completion), so one
/// extra slot avoids spurious overflows without masking real undersizing.
pub const CAPACITY_SLACK: usize = 1;

/// A bounded buffer of the runtime graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtBuffer {
    /// Buffer name: the channel name for single-reader channels,
    /// `<channel>-><reader path>` for replicated multi-reader channels, or
    /// `<instance path>.<variable>` for locals.
    pub name: String,
    /// Capacity in values (CTA capacity + burst headroom + slack).
    pub capacity: usize,
    /// Values present before start-up (written by prologue statements).
    pub initial_tokens: usize,
}

/// A data-driven node: fires when every read has enough values and every
/// write has enough space, occupying its processor for its response time.
#[derive(Debug, Clone, PartialEq)]
pub struct RtNode {
    /// Node name (`<instance path>.<task>` or the black box's path).
    pub name: String,
    /// The coordinated function this node executes per firing.
    pub function: String,
    /// Worst-case response time of one firing, in exact seconds.
    pub response: Rational,
    /// `(buffer, values per firing)` consumed at the start of a firing.
    pub reads: Vec<(RtBufferId, usize)>,
    /// `(buffer, values per firing)` committed at the end of a firing.
    pub writes: Vec<(RtBufferId, usize)>,
}

/// A time-triggered source broadcasting one sample per period to every
/// reader of its channel.
#[derive(Debug, Clone, PartialEq)]
pub struct RtSource {
    /// Source name (`src_<function>_<channel>`).
    pub name: String,
    /// The environment function producing the samples.
    pub function: String,
    /// One destination buffer per reader of the source channel.
    pub outputs: Vec<RtBufferId>,
    /// Sampling period in exact seconds.
    pub period: Rational,
}

/// A time-triggered sink draining one value per period.
#[derive(Debug, Clone, PartialEq)]
pub struct RtSink {
    /// Sink name (`snk_<function>_<channel>`).
    pub name: String,
    /// The environment function consuming the samples.
    pub function: String,
    /// The buffer the sink drains.
    pub input: RtBufferId,
    /// Consumption period in exact seconds.
    pub period: Rational,
}

/// The engine-agnostic runtime graph of a compiled program.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RtGraph {
    /// All buffers.
    pub buffers: IndexVec<RtBufferId, RtBuffer>,
    /// All data-driven nodes.
    pub nodes: IndexVec<RtNodeId, RtNode>,
    /// All time-triggered sources.
    pub sources: IndexVec<RtSourceId, RtSource>,
    /// All time-triggered sinks.
    pub sinks: IndexVec<RtSinkId, RtSink>,
}

/// A destination of a channel: one of its reading instances, or the
/// time-triggered sink draining it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Dest {
    Reader(InstanceId),
    SinkDriver,
}

/// Lower a compiled program to its runtime graph, using `registry` to obtain
/// the consumption/production rates and response times of black-box modules
/// (e.g. the PAL decoder's `Video` and `Audio` modules).
pub fn lower_with_registry(compiled: &CompiledProgram, registry: &FunctionRegistry) -> RtGraph {
    let mut rt = RtGraph::default();
    let graph = &compiled.analyzed.graph;

    // Per-firing burst size of an instance on a channel (the colon notation
    // of sequential modules or a black box's interface counts).
    let burst = |instance: Option<InstanceId>, channel: ChannelId| -> usize {
        let Some(ii) = instance else { return 1 };
        let inst = &graph.instances[ii];
        let Some(binding) = inst.bindings.iter().find(|b| b.channel == channel) else {
            return 1;
        };
        match &compiled.derived.task_graphs[ii] {
            Some(tg) => tg
                .buffer_by_name(&binding.param)
                .map(|b| {
                    tg.tasks
                        .iter()
                        .flat_map(|t| t.reads.iter().chain(t.writes.iter()))
                        .filter(|a| a.buffer == b)
                        .map(|a| a.count as usize)
                        .max()
                        .unwrap_or(1)
                })
                .unwrap_or(1),
            None => registry
                .black_box(&inst.module_name)
                .map(|bb| {
                    let position = inst
                        .bindings
                        .iter()
                        .filter(|b| b.out == binding.out)
                        .position(|b| b.channel == channel)
                        .unwrap_or(0);
                    let counts = if binding.out {
                        &bb.production
                    } else {
                        &bb.consumption
                    };
                    counts.get(position).copied().unwrap_or(1).max(1) as usize
                })
                .unwrap_or(1),
        }
    };

    // One buffer per (channel, destination): every reader of a multi-reader
    // channel observes every token. A channel nobody reads still gets one
    // buffer so its writer has somewhere to commit.
    let mut channel_dests: IndexVec<ChannelId, Vec<(Dest, RtBufferId)>> =
        IndexVec::with_capacity(graph.channels.len());
    for (ci, ch) in graph.channels.iter_enumerated() {
        let write_burst = burst(ch.writer, ci);
        let mut dests: Vec<Dest> = ch.readers.iter().map(|&r| Dest::Reader(r)).collect();
        if ch.kind.is_sink() {
            dests.push(Dest::SinkDriver);
        }
        let replicated = dests.len() > 1;
        let initial = initial_tokens_for_channel(compiled, ci);
        let mut bound = Vec::with_capacity(dests.len().max(1));
        let add_dest = |dest: Dest, rt: &mut RtGraph| {
            let read_burst = match dest {
                Dest::Reader(r) => burst(Some(r), ci),
                Dest::SinkDriver => 1,
            };
            // The engines commit a firing's whole write burst atomically at
            // completion (the CTA model assumes element-wise production
            // spread over the firing), so a buffer needs room for *two*
            // write bursts — the committed one still draining plus the next
            // one in flight, classic double buffering — and one read burst,
            // on top of whatever the CTA sizing computed. Without the second
            // write burst a multi-rate producer serialises against its
            // consumer and the pipeline loses throughput it analytically
            // has (visible as RF overflows in the PAL decoder).
            let capacity = (compiled
                .buffers
                .channels
                .get(&ch.name)
                .copied()
                .unwrap_or(DEFAULT_LOCAL_CAPACITY as u64) as usize)
                .max(2 * write_burst + read_burst)
                + CAPACITY_SLACK;
            let name = if replicated {
                match dest {
                    Dest::Reader(r) => format!("{}->{}", ch.name, graph.instances[r].path),
                    Dest::SinkDriver => format!("{}->sink", ch.name),
                }
            } else {
                ch.name.clone()
            };
            let id = rt.buffers.push(RtBuffer {
                name,
                capacity: capacity.max(initial).max(1),
                initial_tokens: initial,
            });
            (dest, id)
        };
        if dests.is_empty() {
            // A channel nobody reads: keep one buffer so the writer has
            // somewhere to commit (and occupancy shows up in metrics). The
            // `SinkDriver` tag is inert here — no sink drains a non-sink
            // channel — but lets `writer_buffers` find the buffer.
            bound.push(add_dest(Dest::SinkDriver, &mut rt));
        } else {
            for d in dests {
                let entry = add_dest(d, &mut rt);
                bound.push(entry);
            }
        }
        channel_dests.push(bound);

        match &ch.kind {
            ChannelKind::Source { func, rate_hz } => {
                let outputs = channel_dests[ci].iter().map(|&(_, b)| b).collect();
                rt.sources.push(RtSource {
                    name: format!("src_{func}_{}", ch.name),
                    function: func.clone(),
                    outputs,
                    period: rate_hz.recip(),
                });
            }
            ChannelKind::Sink { func, rate_hz } => {
                let input = channel_dests[ci]
                    .iter()
                    .find(|(d, _)| *d == Dest::SinkDriver)
                    .map(|&(_, b)| b)
                    .expect("sink channels always have a sink-driver destination");
                rt.sinks.push(RtSink {
                    name: format!("snk_{func}_{}", ch.name),
                    function: func.clone(),
                    input,
                    period: rate_hz.recip(),
                });
            }
            ChannelKind::Fifo => {}
        }
    }

    // The buffers a given instance reads from / writes to on a channel.
    let reader_buffer = |instance: InstanceId, ci: ChannelId| -> Option<RtBufferId> {
        channel_dests[ci]
            .iter()
            .find(|(d, _)| *d == Dest::Reader(instance))
            .map(|&(_, b)| b)
    };
    let writer_buffers =
        |ci: ChannelId| -> Vec<RtBufferId> { channel_dests[ci].iter().map(|&(_, b)| b).collect() };

    // Instances: tasks of sequential modules, or a single node per black box.
    for (ii, inst) in graph.instances.iter_enumerated() {
        match &compiled.derived.task_graphs[ii] {
            Some(tg) => {
                // Local buffers for this instance.
                let mut local_buffer: BTreeMap<BufferId, RtBufferId> = BTreeMap::new();
                for (bi, b) in tg.buffers.iter_enumerated() {
                    if b.stream.is_some() {
                        continue;
                    }
                    let name = format!("{}.{}", inst.path, b.name);
                    let capacity = compiled
                        .buffers
                        .locals
                        .get(&name)
                        .copied()
                        .unwrap_or(DEFAULT_LOCAL_CAPACITY as u64)
                        as usize
                        + CAPACITY_SLACK;
                    let initial = b.initial_tokens as usize;
                    local_buffer.insert(
                        bi,
                        rt.buffers.push(RtBuffer {
                            name,
                            capacity: capacity.max(initial).max(1),
                            initial_tokens: initial,
                        }),
                    );
                }
                // A task-graph buffer read maps to a local buffer or to this
                // instance's replica of the bound channel; a write maps to
                // the local buffer or to *every* replica of the channel.
                let channel_of = |bi: BufferId| -> Option<ChannelId> {
                    let stream = tg.buffers[bi].stream.as_ref()?;
                    inst.bindings
                        .iter()
                        .find(|b| &b.param == stream)
                        .map(|b| b.channel)
                };
                for &ti in &crate::parallelize::runnable_tasks(tg) {
                    let t = &tg.tasks[ti];
                    let reads: Vec<(RtBufferId, usize)> = t
                        .reads
                        .iter()
                        .filter_map(|r| {
                            let b = match local_buffer.get(&r.buffer) {
                                Some(&b) => Some(b),
                                None => channel_of(r.buffer).and_then(|ci| reader_buffer(ii, ci)),
                            }?;
                            Some((b, r.count as usize))
                        })
                        .collect();
                    let mut writes: Vec<(RtBufferId, usize)> = Vec::new();
                    for w in &t.writes {
                        match local_buffer.get(&w.buffer) {
                            Some(&b) => writes.push((b, w.count as usize)),
                            None => {
                                if let Some(ci) = channel_of(w.buffer) {
                                    for b in writer_buffers(ci) {
                                        writes.push((b, w.count as usize));
                                    }
                                }
                            }
                        }
                    }
                    rt.nodes.push(RtNode {
                        name: format!("{}.{}", inst.path, t.name),
                        function: t.function.clone(),
                        response: t.response_time,
                        reads,
                        writes,
                    });
                }
            }
            None => {
                // Black box: one node with the registered interface rates.
                let interface = registry.black_box(&inst.module_name);
                let response = registry.black_box_response_time(&inst.module_name);
                let mut reads = Vec::new();
                let mut writes = Vec::new();
                let (mut in_idx, mut out_idx) = (0usize, 0usize);
                for b in &inst.bindings {
                    if b.out {
                        let count = interface
                            .and_then(|i| i.production.get(out_idx).copied())
                            .unwrap_or(1)
                            .max(1) as usize;
                        for buf in writer_buffers(b.channel) {
                            writes.push((buf, count));
                        }
                        out_idx += 1;
                    } else {
                        let count = interface
                            .and_then(|i| i.consumption.get(in_idx).copied())
                            .unwrap_or(1)
                            .max(1) as usize;
                        if let Some(buf) = reader_buffer(ii, b.channel) {
                            reads.push((buf, count));
                        }
                        in_idx += 1;
                    }
                }
                rt.nodes.push(RtNode {
                    name: inst.path.clone(),
                    function: inst.module_name.clone(),
                    response,
                    reads,
                    writes,
                });
            }
        }
    }

    rt
}

// ---------------------------------------------------------------------------
// The batching / conformance plan: scheduling metadata for self-timed
// execution.
// ---------------------------------------------------------------------------

/// Upper bound on planned batch sizes. Batching amortises per-wakeup
/// scheduling overhead; beyond this the latency/buffer-pressure cost of a
/// long burst outweighs the amortisation.
pub const MAX_BATCH: u32 = 64;

/// Scheduling metadata for the self-timed engine (`oil-rt::selftimed`),
/// computed once per graph by [`plan`].
///
/// * **Batch sizes** come from the repetition vector of the graph's SDF
///   view: an actor that fires 200× per graph iteration (e.g. the PAL RF
///   front end against the 32 kHz audio sink) is allowed up to
///   [`MAX_BATCH`] firings per wakeup, so a fast node does not pay one
///   scheduler round-trip per token.
/// * **Serial clusters** restore Kahn-process-network determinism where the
///   lowering produced *contested* buffers (two producers or two consumers
///   on one buffer — the task extraction creates these for modal `if`/
///   `switch` statements, whose branch tasks share their input and output
///   variables). All nodes contending on a buffer are grouped into one
///   cluster, executed serially by one owner with a fixed lowest-id-first
///   preference — the same preference the interpreter's id-ordered
///   admission scan applies. The plan additionally records whether each
///   cluster is *uniform* (all members exact twins): lowest-id-first is
///   timing-independent for twins, while a non-uniform cluster needs its
///   whole component pinned to one worker (see [`RtPlan::cluster_uniform`]).
/// * **KPN safety**: a graph with no clusters is a true Kahn process
///   network (every buffer single-producer/single-consumer), for which
///   per-buffer value streams are *schedule-invariant* — the property the
///   rate-conformance harness turns into a bit-identity oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RtPlan {
    /// Firings allowed per wakeup, per node (clustered nodes are pinned
    /// to 1).
    pub batch: IndexVec<RtNodeId, u32>,
    /// Samples allowed per wakeup, per source.
    pub source_batch: IndexVec<RtSourceId, u32>,
    /// Values drained per wakeup, per sink.
    pub sink_batch: IndexVec<RtSinkId, u32>,
    /// Serial clusters (each with ≥ 2 members, in ascending node order).
    pub clusters: Vec<Vec<RtNodeId>>,
    /// Per cluster: true when every member is an exact *twin* of the others
    /// (identical read and write access lists up to order). For twin
    /// clusters the owner's lowest-id-first discipline is timing-independent
    /// on its own: all members become ready together, so the lowest id wins
    /// at every decision no matter when the owner looks. A non-uniform
    /// cluster (members with disjoint, e.g. mode-gated, inputs) stays
    /// deterministic only if everything feeding it runs on the same worker —
    /// the engine pins such components (see
    /// `oil_rt::selftimed` unit partitioning).
    pub cluster_uniform: Vec<bool>,
    /// The cluster a node belongs to, if any.
    pub cluster_of: IndexVec<RtNodeId, Option<u32>>,
    /// Buffers no node or sink ever reads (the writer still commits into
    /// them; a self-timed engine may drain them instead of blocking).
    pub unread: IndexVec<RtBufferId, bool>,
    /// Buffers whose value streams are **schedule-invariant**: not written
    /// by a clustered node and not (transitively) downstream of one. A
    /// contested merge resolves by arrival order, so everything it feeds
    /// can legitimately differ between a clock-replaying and a free-running
    /// schedule; every other stream is pinned bit-for-bit by KPN
    /// determinism. On a KPN-safe graph every buffer is invariant.
    pub invariant: IndexVec<RtBufferId, bool>,
}

impl RtPlan {
    /// True when the graph is a Kahn process network: every buffer has at
    /// most one producer and one consumer, so per-buffer value streams are
    /// schedule-invariant and the full bit-identity oracle applies.
    pub fn is_kpn_safe(&self) -> bool {
        self.clusters.is_empty()
    }
}

/// Compute the self-timed scheduling plan of a runtime graph.
pub fn plan(graph: &RtGraph) -> RtPlan {
    let n_buffers = graph.buffers.len();
    let n_nodes = graph.nodes.len();

    // Producers/consumers per buffer, deduplicated per node (a node writing
    // one buffer through two ports is still a single producer).
    let mut producers: IndexVec<RtBufferId, Vec<RtNodeId>> =
        IndexVec::from_elem(Vec::new(), n_buffers);
    let mut consumers: IndexVec<RtBufferId, Vec<RtNodeId>> =
        IndexVec::from_elem(Vec::new(), n_buffers);
    let mut source_writes: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, n_buffers);
    let mut sink_reads: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, n_buffers);
    for (ni, n) in graph.nodes.iter_enumerated() {
        for &(b, _) in &n.reads {
            if consumers[b].last() != Some(&ni) {
                consumers[b].push(ni);
            }
        }
        for &(b, _) in &n.writes {
            if producers[b].last() != Some(&ni) {
                producers[b].push(ni);
            }
        }
    }
    for s in graph.sources.iter() {
        for &b in &s.outputs {
            source_writes[b] = true;
        }
    }
    for s in graph.sinks.iter() {
        sink_reads[s.input] = true;
    }

    let unread: IndexVec<RtBufferId, bool> = graph
        .buffers
        .indices()
        .map(|b| consumers[b].is_empty() && !sink_reads[b])
        .collect::<Vec<_>>()
        .into();

    // Serial clusters: union-find over nodes contending on a buffer
    // endpoint. (Sources and sinks never contend with nodes: source
    // channels have no writing instance and each sink drains a dedicated
    // replica buffer.)
    let mut uf = UnionFind::new(n_nodes);
    let mut contested: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, n_buffers);
    for b in graph.buffers.indices() {
        debug_assert!(
            !source_writes[b] || producers[b].is_empty(),
            "a source and a node cannot share a buffer's producer side"
        );
        debug_assert!(
            !sink_reads[b] || consumers[b].is_empty(),
            "a sink and a node cannot share a buffer's consumer side (every \
             sink must drain a dedicated replica)"
        );
        if producers[b].len() > 1 {
            contested[b] = true;
            for w in producers[b].windows(2) {
                uf.union(w[0].index(), w[1].index());
            }
        }
        if consumers[b].len() > 1 {
            contested[b] = true;
            for w in consumers[b].windows(2) {
                uf.union(w[0].index(), w[1].index());
            }
        }
    }
    let mut members: BTreeMap<usize, Vec<RtNodeId>> = BTreeMap::new();
    for ni in graph.nodes.indices() {
        members.entry(uf.find(ni.index())).or_default().push(ni);
    }
    let mut clusters: Vec<Vec<RtNodeId>> = Vec::new();
    let mut cluster_of: IndexVec<RtNodeId, Option<u32>> = IndexVec::from_elem(None, n_nodes);
    for (_, group) in members {
        if group.len() < 2 {
            continue;
        }
        let id = clusters.len() as u32;
        for &ni in &group {
            cluster_of[ni] = Some(id);
        }
        clusters.push(group);
    }
    // Twin detection per cluster: compare the raw access lists (sorted, not
    // aggregated — a node reading one buffer through two ports gates its
    // readiness differently from one reading the sum through a single
    // port).
    type AccessSig = (Vec<(RtBufferId, usize)>, Vec<(RtBufferId, usize)>);
    let access_sig = |ni: RtNodeId| -> AccessSig {
        let mut reads = graph.nodes[ni].reads.clone();
        let mut writes = graph.nodes[ni].writes.clone();
        reads.sort_unstable();
        writes.sort_unstable();
        (reads, writes)
    };
    let cluster_uniform: Vec<bool> = clusters
        .iter()
        .map(|group| {
            let first = access_sig(group[0]);
            group[1..].iter().all(|&ni| access_sig(ni) == first)
        })
        .collect();

    // Batch sizes from the repetition vector of the SDF view. Only
    // uncontested, read buffers become edges; contested buffers would need a
    // multi-producer edge SDF cannot express (their nodes are serialised
    // anyway), and unread buffers impose no rate constraint.
    use oil_dataflow::sdf::SdfGraph;
    let mut sdf = SdfGraph::new();
    let node_actor: Vec<_> = graph
        .nodes
        .iter()
        .map(|n| sdf.add_actor(n.name.clone(), Rational::ZERO))
        .collect();
    let source_actor: Vec<_> = graph
        .sources
        .iter()
        .map(|s| sdf.add_actor(s.name.clone(), Rational::ZERO))
        .collect();
    let sink_actor: Vec<_> = graph
        .sinks
        .iter()
        .map(|s| sdf.add_actor(s.name.clone(), Rational::ZERO))
        .collect();
    let port_count = |ports: &[(RtBufferId, usize)], b: RtBufferId| -> u64 {
        ports
            .iter()
            .filter(|&&(pb, _)| pb == b)
            .map(|&(_, c)| c as u64)
            .sum()
    };
    for (bi, buf) in graph.buffers.iter_enumerated() {
        if contested[bi] || unread[bi] {
            continue;
        }
        let src = if source_writes[bi] {
            graph
                .sources
                .iter_enumerated()
                .find(|(_, s)| s.outputs.contains(&bi))
                .map(|(i, _)| (source_actor[i.index()], 1u64))
        } else {
            producers[bi].first().map(|&ni| {
                (
                    node_actor[ni.index()],
                    port_count(&graph.nodes[ni].writes, bi),
                )
            })
        };
        let dst = if sink_reads[bi] {
            graph
                .sinks
                .iter_enumerated()
                .find(|(_, s)| s.input == bi)
                .map(|(i, _)| (sink_actor[i.index()], 1u64))
        } else {
            consumers[bi].first().map(|&ni| {
                (
                    node_actor[ni.index()],
                    port_count(&graph.nodes[ni].reads, bi),
                )
            })
        };
        if let (Some((sa, prod)), Some((da, cons))) = (src, dst) {
            if prod > 0 && cons > 0 {
                sdf.add_named_edge(&buf.name, sa, da, prod, cons, buf.initial_tokens as u64);
            }
        }
    }
    let q = sdf.repetition_vector().ok();
    let batch_of = |actor: oil_dataflow::index::ActorId| -> u32 {
        match &q {
            Some(q) => u32::try_from(q[actor])
                .unwrap_or(MAX_BATCH)
                .clamp(1, MAX_BATCH),
            None => 1,
        }
    };
    let batch: IndexVec<RtNodeId, u32> = graph
        .nodes
        .indices()
        .map(|ni| {
            if cluster_of[ni].is_some() {
                1
            } else {
                batch_of(node_actor[ni.index()])
            }
        })
        .collect::<Vec<_>>()
        .into();
    let source_batch: IndexVec<RtSourceId, u32> = graph
        .sources
        .indices()
        .map(|i| batch_of(source_actor[i.index()]))
        .collect::<Vec<_>>()
        .into();
    let sink_batch: IndexVec<RtSinkId, u32> = graph
        .sinks
        .indices()
        .map(|i| batch_of(sink_actor[i.index()]))
        .collect::<Vec<_>>()
        .into();

    // Schedule-invariance taint: a clustered node's outputs resolve by a
    // serialisation policy, and anything computed from them inherits the
    // dependence. Fixpoint over node taint → buffer taint.
    let mut node_tainted: IndexVec<RtNodeId, bool> = graph
        .nodes
        .indices()
        .map(|ni| cluster_of[ni].is_some())
        .collect::<Vec<_>>()
        .into();
    let mut buffer_tainted: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, n_buffers);
    loop {
        let mut changed = false;
        for (ni, n) in graph.nodes.iter_enumerated() {
            if node_tainted[ni] {
                for &(b, _) in &n.writes {
                    if !buffer_tainted[b] {
                        buffer_tainted[b] = true;
                        changed = true;
                    }
                }
            } else if n.reads.iter().any(|&(b, _)| buffer_tainted[b]) {
                node_tainted[ni] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let invariant: IndexVec<RtBufferId, bool> = graph
        .buffers
        .indices()
        .map(|b| !buffer_tainted[b])
        .collect::<Vec<_>>()
        .into();

    RtPlan {
        batch,
        source_batch,
        sink_batch,
        clusters,
        cluster_uniform,
        cluster_of,
        unread,
        invariant,
    }
}

/// A miniature graph with a **non-uniform** serial cluster: two producers
/// of one buffer (`t`) gated on *disjoint* source-fed inputs, plus a
/// drain node and a sink. Shared by the plan tests here and the self-timed
/// engine's component-pinning determinism tests.
#[doc(hidden)]
pub fn non_uniform_merge_demo() -> RtGraph {
    let mut g = RtGraph::default();
    let mk = |name: &str| RtBuffer {
        name: name.into(),
        capacity: 4,
        initial_tokens: 0,
    };
    let a = g.buffers.push(mk("a"));
    let b = g.buffers.push(mk("b"));
    let t = g.buffers.push(mk("t"));
    let o = g.buffers.push(mk("o"));
    let node =
        |name: &str, reads: Vec<(RtBufferId, usize)>, writes: Vec<(RtBufferId, usize)>| RtNode {
            name: name.into(),
            function: "f".into(),
            response: Rational::new(1, 1_000_000),
            reads,
            writes,
        };
    g.nodes.push(node("n0", vec![(a, 1)], vec![(t, 1)]));
    g.nodes.push(node("n1", vec![(b, 1)], vec![(t, 1)]));
    g.nodes.push(node("n2", vec![(t, 1)], vec![(o, 1)]));
    for (name, out) in [("sa", a), ("sb", b)] {
        g.sources.push(RtSource {
            name: name.into(),
            function: "s".into(),
            outputs: vec![out],
            period: Rational::new(1, 1000),
        });
    }
    g.sinks.push(RtSink {
        name: "sk".into(),
        function: "k".into(),
        input: o,
        period: Rational::new(1, 1000),
    });
    g
}

fn initial_tokens_for_channel(compiled: &CompiledProgram, channel: ChannelId) -> usize {
    let graph = &compiled.analyzed.graph;
    let Some(writer) = graph.channels[channel].writer else {
        return 0;
    };
    let Some(tg) = &compiled.derived.task_graphs[writer] else {
        return 0;
    };
    let Some(binding) = graph.instances[writer]
        .bindings
        .iter()
        .find(|b| b.channel == channel && b.out)
    else {
        return 0;
    };
    tg.buffer_by_name(&binding.param)
        .map(|b| tg.buffers[b].initial_tokens as usize)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompilerOptions};
    use oil_lang::registry::FunctionSignature;

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            r.register(FunctionSignature::pure(f, 1e-5));
        }
        r
    }

    #[test]
    fn single_reader_channels_keep_their_names() {
        let src = r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                W(x, out y)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        assert_eq!(rt.sources.len(), 1);
        assert_eq!(rt.sinks.len(), 1);
        assert_eq!(rt.nodes.len(), 1);
        // x: read only by W; y: written by W, drained by the sink.
        assert!(rt.buffers.iter().any(|b| b.name.ends_with(".x")));
        assert!(rt.buffers.iter().any(|b| b.name.ends_with(".y")));
        // Exact periods: 1 kHz -> 1/1000 s.
        assert_eq!(
            rt.sources.iter().next().unwrap().period,
            Rational::new(1, 1000)
        );
    }

    #[test]
    fn multi_reader_channels_are_replicated_per_reader() {
        let src = r#"
            mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
            mod seq Q(int a, out int n){ loop{ g(a, out n); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                sink int z = snk() @ 1 kHz;
                P(x, out y) || Q(x, out z)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        // The source broadcasts to two replicas, one per reader.
        let source = rt.sources.iter().next().unwrap();
        assert_eq!(source.outputs.len(), 2, "{:?}", rt.buffers);
        let names: Vec<&str> = source
            .outputs
            .iter()
            .map(|&b| rt.buffers[b].name.as_str())
            .collect();
        assert!(names.iter().all(|n| n.contains("->")), "{names:?}");
        // Each node reads its own replica.
        let read_buffers: Vec<RtBufferId> = rt
            .nodes
            .iter()
            .flat_map(|n| n.reads.iter().map(|&(b, _)| b))
            .collect();
        assert_eq!(read_buffers.len(), 2);
        assert_ne!(read_buffers[0], read_buffers[1]);
    }

    #[test]
    fn prologue_tasks_become_initial_tokens_not_nodes() {
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        // Two loop tasks only; the init prologue shows as initial tokens.
        assert_eq!(rt.nodes.len(), 2);
        let y = rt
            .buffers
            .iter()
            .find(|b| b.name.ends_with(".y"))
            .expect("channel y");
        assert_eq!(y.initial_tokens, 4);
    }

    #[test]
    fn plan_groups_modal_twins_into_one_cluster() {
        let src = r#"
            mod seq S(int a, out int b){
                loop{ if(...){ t = f(a:2); } else { t = g(a:2); } init(t, out b); } while(1);
            }
            mod par D(){
                source int x = src() @ 2 kHz;
                sink int y = snk() @ 1 kHz;
                S(x, out y)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        let p = plan(&rt);
        // The two branch tasks contend on the shared input replica and the
        // shared local `t`; the downstream task stays independent.
        assert!(!p.is_kpn_safe());
        assert_eq!(p.clusters.len(), 1);
        assert_eq!(p.clusters[0].len(), 2);
        // `t = g(a:2)` / `t = h(a:2)`: exact twins.
        assert_eq!(p.cluster_uniform, vec![true]);
        for &ni in &p.clusters[0] {
            assert_eq!(p.batch[ni], 1, "clustered nodes must not batch");
        }
        let free: Vec<RtNodeId> = rt
            .nodes
            .indices()
            .filter(|&ni| p.cluster_of[ni].is_none())
            .collect();
        assert_eq!(free.len(), 1);
        // Taint: the cluster's output `t` and everything downstream of it
        // (the sink channel `y`) are schedule-dependent; the source channel
        // replica the twins only *read* stays invariant.
        let by_name = |suffix: &str| {
            rt.buffers
                .iter_enumerated()
                .find(|(_, b)| b.name.ends_with(suffix))
                .map(|(i, _)| i)
                .unwrap()
        };
        assert!(p.invariant[by_name(".x")], "{:?}", rt.buffers);
        assert!(!p.invariant[by_name(".t")]);
        assert!(!p.invariant[by_name(".y")]);
    }

    #[test]
    fn plan_flags_non_uniform_clusters() {
        // Two producers of `t` gated on *disjoint* inputs: a contested merge
        // whose winner depends on which input has data, not on a fixed
        // tie-break. The plan must mark the cluster non-uniform so the
        // self-timed engine pins the whole component onto one worker.
        let g = non_uniform_merge_demo();
        let p = plan(&g);
        assert_eq!(p.clusters.len(), 1);
        assert_eq!(p.clusters[0].len(), 2);
        assert_eq!(p.cluster_uniform, vec![false]);
        let t = g
            .buffers
            .iter_enumerated()
            .find(|(_, b)| b.name == "t")
            .map(|(i, _)| i)
            .unwrap();
        assert!(!p.invariant[t], "a contested merge is schedule-dependent");
    }

    #[test]
    fn plan_batches_follow_the_repetition_vector() {
        // An 8:1 downsampling chain: the upstream node fires 8× per graph
        // iteration and gets a proportionally larger batch.
        let src = r#"
            mod seq F(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod seq Down(int a, out int b){ loop{ g(a:8, out b); } while(1); }
            mod par D(){
                fifo int m;
                source int x = src() @ 8 kHz;
                sink int y = snk() @ 1 kHz;
                F(x, out m) || Down(m, out y)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        let p = plan(&rt);
        assert!(p.is_kpn_safe());
        assert!(p.invariant.iter().all(|&i| i), "KPN ⇒ all invariant");
        let fast = rt.nodes.indices().next().unwrap();
        let slow = rt.nodes.indices().nth(1).unwrap();
        assert_eq!(p.batch[fast], 8, "{:?}", p.batch);
        assert_eq!(p.batch[slow], 1);
        assert_eq!(p.source_batch.iter().copied().max(), Some(8));
        assert_eq!(p.sink_batch.iter().next().copied(), Some(1));
    }

    #[test]
    fn plan_clamps_batches_and_flags_unread_buffers() {
        let src = r#"
            mod seq F(int a, out int b){ loop{ f(a:200, out b); } while(1); }
            mod par D(){
                source int x = src() @ 200 kHz;
                sink int y = snk() @ 1 kHz;
                F(x, out y)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        let p = plan(&rt);
        // The source fires 200× per iteration but batches are clamped.
        assert_eq!(p.source_batch.iter().next().copied(), Some(MAX_BATCH));
        assert!(p.batch.iter().all(|&b| (1..=MAX_BATCH).contains(&b)));
        assert!(p.unread.iter().all(|&u| !u), "all buffers are read here");
    }

    #[test]
    fn capacities_cover_bursts_and_slack() {
        let src = r#"
            mod seq Down(int a, out int b){ loop{ f(a:4, out b); } while(1); }
            mod par D(){
                source int x = src() @ 8 kHz;
                sink int y = snk() @ 2 kHz;
                Down(x, out y)
            }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let rt = lower_with_registry(&compiled, &registry());
        let x = rt
            .buffers
            .iter()
            .find(|b| b.name.ends_with(".x"))
            .expect("channel x");
        // Write burst 1 + read burst 4 + slack is the floor.
        assert!(x.capacity >= 5 + CAPACITY_SLACK, "{x:?}");
    }
}
