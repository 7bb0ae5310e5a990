//! The self-timed, free-running execution engine.
//!
//! The reference interpreter ([`crate::exec`]) pins the *semantics* of
//! execution: it replays virtual time sequentially on the simulator's
//! calendar, carrying kernel values. This engine drops the clock
//! entirely and keeps only what the paper's restrictions actually require
//! for correctness:
//!
//! * every task **fires as soon as** its input tokens and output space are
//!   available — no calendar, no virtual-clock barrier, no response times;
//! * tokens flow through lock-free SPSC rings ([`crate::ring`]), with
//!   **blocking backpressure**: a worker with nothing fireable spins briefly, yields,
//!   then parks until a peer's firing makes progress possible;
//! * nodes fire in **batches** (sizes from the repetition-vector pass,
//!   [`oil_compiler::rtgraph::plan`]), so a node that is 64× faster than
//!   the graph iteration pays one wakeup per burst, not per token.
//!
//! Dropping the clock drops determinism of *timing* but — for Kahn process
//! networks — not determinism of *values*: a node's k-th firing consumes
//! exactly tokens `k·c .. k·c+c` of each input stream no matter when it
//! runs, so per-buffer value streams are schedule-invariant. The lowering
//! is not always a KPN (modal `if`/`switch` statements produce twin tasks
//! contending on shared buffers); the plan groups such nodes into *serial
//! clusters* executed by a single owner with lowest-id-first preference —
//! the same preference as the interpreter's id-ordered admission scan.
//! For *uniform* clusters (all members exact twins, the shape modal
//! extraction produces) that preference is timing-independent by itself;
//! a non-uniform cluster (members gated on disjoint inputs) additionally
//! has its whole weakly-connected component pinned onto one worker, so its
//! merge order is a sequential function of that worker's fixed scan order
//! — which keeps the engine deterministic at every thread count.
//!
//! A non-uniform cluster can instead be driven by an explicit
//! [`ModeScript`] via [`execute_selftimed_scripted`]: when the cluster is
//! modal-admissible ([`modal_admission`]), its members become one
//! **union-advance** unit that consumes every member's aggregated inputs
//! on each firing and dispatches the scripted arm's kernel onto its slice,
//! broadcasting to the shared write list. Token flow is then
//! mode-independent — a pure KPN node — and the value streams match the
//! static-order engine's per-mode schedules firing for firing
//! (`tests/modeswitch_differential.rs`).
//! `tests/selftimed_differential.rs` holds the engine to exactly that: the
//! interpreter's value streams are a bit-exact prefix of this
//! engine's streams on KPN graphs, all streams are thread-count- and
//! perturbation-invariant, CTA-sized buffers never deadlock, and measured
//! sink throughput meets the CTA rate-conformance threshold
//! ([`crate::measure`]).
//!
//! **Termination** is a token budget, not a wall clock: each time-triggered
//! source produces exactly the number of samples the simulator would emit
//! over the requested virtual horizon, then retires; the pipeline drains;
//! and a sound quiescence protocol (generation stamp + idle census with
//! per-worker stamps — the last worker to go idle verifies that *every*
//! sleeping worker registered its empty scan at the current generation, so
//! a peer whose stamp was outdated by a later firing is never counted)
//! distinguishes completion from deadlock without any timeout.

use crate::exec::{SinkStream, SINK_STREAM_CAP};
use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{BufferValues, RateConformance, SinkThroughput, ThroughputMeter, ValueTrace};
use crate::metrics::{MetricsConfig, MetricsHub, MetricsReport, SinkMonitor};
use crate::ring::{self, Consumer, Producer};
use crate::trace::{EventKind, RingStat, TraceReport, WorkerTracer};
use oil_compiler::rtgraph::{RtGraph, RtNodeId, RtPlan, RtSinkId, RtSourceId};
use oil_compiler::schedule::{
    modal_admission, mode_dependent_rates, plan_mode_sequence, ModeScript,
};
use oil_dataflow::index::Idx;
use oil_dataflow::taskgraph::ports_satisfied;
use oil_dataflow::unionfind::UnionFind;
use oil_sim::Picos;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Configuration of a self-timed execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfTimedConfig {
    /// Worker threads; `0` uses the machine's available parallelism. The
    /// engine never spawns more workers than scheduling units.
    pub threads: usize,
    /// Record per-buffer value streams (the verification oracle); sink
    /// streams and counters are always kept.
    pub record_values: bool,
    /// Sink samples excluded from the steady-state throughput window.
    pub warmup_samples: u64,
    /// Perturbation seed: when set, workers inject random `yield`s and
    /// short sleeps between firing passes. Value streams must not change —
    /// the schedule-invariance property test drives this.
    pub chaos: Option<u64>,
    /// Record per-worker trace events and ring telemetry
    /// ([`crate::trace`]). Off costs a single predictable branch per
    /// instrumentation point; recording writes only worker-local memory,
    /// so value streams are bit-identical either way.
    pub trace: bool,
    /// Run with the always-on metrics registry ([`crate::metrics`]):
    /// per-worker counter/histogram cells, windowed sink throughput and
    /// the CTA drift detector. Same overhead discipline as `trace`.
    pub metrics: Option<MetricsConfig>,
}

impl Default for SelfTimedConfig {
    fn default() -> Self {
        SelfTimedConfig {
            threads: 0,
            record_values: true,
            warmup_samples: 16,
            chaos: None,
            trace: false,
            metrics: None,
        }
    }
}

/// Everything one self-timed execution observed.
#[derive(Debug)]
pub struct SelfTimedReport {
    /// Worker threads used.
    pub threads: usize,
    /// Per-buffer value streams (when [`SelfTimedConfig::record_values`]).
    pub values: ValueTrace,
    /// Per sink: the output sample streams (`misses` is always 0 — a
    /// free-running engine has no deadlines, only throughput).
    pub sinks: Vec<SinkStream>,
    /// Per sink: measured steady-state throughput vs the CTA-predicted
    /// rate.
    pub throughput: Vec<SinkThroughput>,
    /// Per node: (name, completed firings), in node-id order.
    pub node_firings: Vec<(String, u64)>,
    /// Per source: (name, samples generated).
    pub sources: Vec<(String, u64)>,
    /// True when the engine quiesced with sources still holding budget:
    /// nothing was fireable and nothing ever would be.
    pub deadlocked: bool,
    /// Total tokens pushed across all buffers (including drained unread
    /// buffers), the same currency as [`crate::RtReport::tokens`].
    pub tokens: u64,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Times a worker parked because nothing it owns was fireable.
    pub parks: u64,
    /// Serial clusters the plan imposed (0 ⇒ the graph ran as a pure KPN).
    pub clusters: usize,
    /// Arm changes the mode script performed (0 on unscripted runs).
    pub mode_switches: u64,
    /// Modal firings spent inside a mode-switch seam — firings whose
    /// scripted arm differs from the period mode executing them (the old
    /// mode *draining* its in-flight period). Always 0 for union-advance
    /// clusters, which switch hot.
    pub transition_firings: u64,
    /// Per-worker event tracks and ring telemetry (`Some` iff
    /// [`SelfTimedConfig::trace`]).
    pub trace_report: Option<TraceReport>,
    /// Merged metric cells, per-sink windows and the drift verdict
    /// (`Some` iff [`SelfTimedConfig::metrics`]).
    pub metrics: Option<MetricsReport>,
}

impl SelfTimedReport {
    /// The collected sample stream of a sink (matched by name fragment).
    pub fn sink_values(&self, name: &str) -> Option<&[f64]> {
        self.sinks
            .iter()
            .find(|s| s.name.contains(name))
            .map(|s| s.values.as_slice())
    }

    /// The rate-conformance verdict at `threshold` (see
    /// [`crate::measure::conformance_threshold`] for its override).
    pub fn conformance(&self, threshold: f64) -> RateConformance {
        RateConformance {
            threshold,
            sinks: self.throughput.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Scheduling units.
// ---------------------------------------------------------------------------

/// One data-driven node inside a [`Unit::Nodes`] unit.
struct NodePart {
    id: RtNodeId,
    kernel: Kernel,
    reads: Vec<(usize, usize)>,
    writes: Vec<(usize, usize)>,
    out_len: usize,
    batch: u32,
    fired: u64,
}

/// A scheduling unit: owned by exactly one worker, so every buffer endpoint
/// is touched by one thread and the SPSC contract holds engine-wide.
enum Unit {
    /// A single node, or a serial cluster in ascending id order.
    Nodes(Vec<NodePart>),
    /// A time-triggered source, free-running against its sample budget.
    Source {
        id: RtSourceId,
        kernel: SourceKernel,
        outputs: Vec<usize>,
        budget: u64,
        generated: u64,
        batch: u32,
    },
    /// A sink, draining its input as fast as tokens arrive.
    Sink {
        id: RtSinkId,
        input: usize,
        batch: u32,
        consumed: u64,
        values: Vec<f64>,
        meter: ThroughputMeter,
        /// `Some` iff metrics are on: the drift detector's windowing
        /// monitor for this sink.
        monitor: Option<SinkMonitor>,
    },
    /// A modal-admissible non-uniform cluster driven by a mode script:
    /// every firing pops the union of all members' aggregated reads
    /// (member id order, canonical buffer order) and fires the scripted
    /// arm's kernel on its slice, broadcasting to the shared write list.
    /// Token flow is mode-independent, so the unit is a KPN node and
    /// needs no component pinning. Member `NodePart.reads` hold the
    /// aggregated canonical read lists; the shared writes live here.
    Modal {
        members: Vec<NodePart>,
        writes: Vec<(usize, usize)>,
        out_len: usize,
        batch: u32,
        script: ModeScript,
        fired: u64,
        switches: u64,
        last_arm: u32,
        /// `Some` exactly for a **mode-dependent** cluster: the resolved
        /// period plan the unit walks instead of union-advance dispatch.
        dep: Option<ModalDep>,
    },
}

/// The resolved mode plan a mode-dependent [`Unit::Modal`] walks: each
/// period fires `period_reps[mode]` modal firings of one mode's arm
/// (reading only that arm's buffers, writing only that arm's outputs); a
/// scripted switch takes effect at the next period boundary, and the old
/// period's trailing firings are counted as transition (drain) firings —
/// the same protocol the static-order engine replays.
struct ModalDep {
    /// Per mode: modal firings per period (the per-mode repetition).
    period_reps: Vec<u64>,
    /// The plan's `(mode, periods)` runs ([`ModePlan::runs`]).
    ///
    /// [`ModePlan::runs`]: oil_compiler::schedule::ModePlan::runs
    runs: Vec<(u32, u64)>,
    /// Index of the run currently executing.
    run: usize,
    /// Periods of that run still to finish (the executing one included).
    periods_left: u64,
    /// Firings remaining in the current period (0 ⇒ the plan is spent).
    period_left: u64,
    /// See [`SelfTimedReport::transition_firings`].
    transition_firings: u64,
}

/// The buffer plumbing a worker owns: sparse per-buffer endpoint and
/// recorder slots (a slot is `Some` exactly when one of the worker's units
/// is that buffer's producer/consumer).
struct WorkerBufs {
    prods: Vec<Option<Producer<f64>>>,
    cons: Vec<Option<Consumer<f64>>>,
    recorders: Vec<Option<BufferValues>>,
    /// Declared (CTA-sized) capacities, shared read-only.
    declared: Arc<Vec<usize>>,
    /// Buffers nobody reads: the writer's commits are recorded and dropped
    /// instead of accumulating until they block the writer.
    unread: Arc<Vec<bool>>,
    record_values: bool,
    tokens: u64,
    scratch: Vec<f64>,
    /// `Some` iff [`SelfTimedConfig::trace`]: worker-local event buffer
    /// plus ring high-water marks.
    trace: Option<WorkerTracer>,
    /// `Some` iff [`SelfTimedConfig::metrics`]: the shared hub plus this
    /// worker's index, for its metric cell.
    metrics: Option<(Arc<MetricsHub>, usize)>,
}

impl WorkerBufs {
    /// Free slots in `b`, from the producing side (`usize::MAX` for drained
    /// unread buffers).
    fn space_count(&self, b: usize) -> usize {
        if self.unread[b] {
            return usize::MAX;
        }
        let p = self.prods[b].as_ref().expect("producer endpoint is owned");
        self.declared[b].saturating_sub(p.len())
    }

    /// Buffered values in `b`, from the consuming side.
    fn available_count(&self, b: usize) -> usize {
        self.cons[b]
            .as_ref()
            .expect("consumer endpoint is owned")
            .len()
    }

    fn space_for(&self, b: usize, c: usize) -> bool {
        self.space_count(b) >= c
    }

    fn commit(&mut self, b: usize, value: f64) {
        if !self.unread[b] {
            let p = self.prods[b].as_mut().expect("producer endpoint is owned");
            p.push(value).expect("space was checked before the firing");
            if let Some(t) = self.trace.as_mut() {
                // Post-push occupancy: a concurrent consumer drain only
                // lowers it, so the mark never over-reports.
                let level = p.len();
                t.note_level(b, level);
            }
        }
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                r.record(value);
            }
        }
        self.tokens += 1;
    }
}

/// Shared worker coordination: progress stamp, idle census, verdict.
struct Control {
    /// Bumped once per firing pass that made progress (after its pushes).
    gen: AtomicU64,
    /// Workers registered as idle (nothing fireable at their stamp).
    idle: AtomicUsize,
    /// Per worker: the generation its current idle registration certifies.
    /// Written under the mutex immediately before `idle` is incremented and
    /// meaningful exactly while the worker is counted idle — the census
    /// consults the stamps only when `idle == threads`, at which point every
    /// worker is between its increment and decrement.
    idle_stamps: Vec<AtomicU64>,
    done: AtomicBool,
    deadlocked: AtomicBool,
    /// Sources still holding sample budget.
    sources_open: AtomicUsize,
    parks: AtomicU64,
    threads: usize,
    m: Mutex<()>,
    cv: Condvar,
}

impl Control {
    /// Publish progress: wake parked peers whose inputs may now be ready.
    fn progress(&self) {
        self.gen.fetch_add(1, Ordering::SeqCst);
        if self.idle.load(Ordering::SeqCst) > 0 {
            let _guard = self.m.lock().expect("control mutex poisoned");
            self.cv.notify_all();
        }
    }
}

/// A tiny SplitMix64 for perturbation injection.
struct Chaos(u64);

impl Chaos {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn perturb(&mut self) {
        match self.next() % 128 {
            0 => std::thread::sleep(Duration::from_micros(50)),
            1..=15 => std::thread::yield_now(),
            _ => {}
        }
    }
}

/// Fire one scheduling unit as far as its batch allows. Returns true if at
/// least one firing happened.
fn run_unit(unit: &mut Unit, w: &mut WorkerBufs, control: &Control) -> bool {
    match unit {
        Unit::Nodes(parts) => {
            // Serial cluster discipline: at every step the lowest-id
            // fireable member wins — twin tasks with identical needs
            // starve deterministically, exactly like the calendar
            // engine's id-ordered admission scan. Readiness of all members
            // is judged against ONE per-buffer level snapshot: evaluating
            // members sequentially against the live rings would let a peer
            // worker's concurrent push/pop flip a later twin to ready after
            // an earlier identical twin was judged blocked, and the merge
            // order (hence the value streams) would depend on timing.
            // The snapshot alone is decisive only for *uniform* clusters
            // (exact twins become ready together, so the lowest id wins no
            // matter when the owner looks); a non-uniform cluster's members
            // can be flipped ready one at a time by cross-worker arrivals,
            // which is why `partition_units` pins such a cluster's whole
            // component onto this worker — every level this scan reads is
            // then a sequential function of this thread's own firings.
            let batch = if parts.len() == 1 { parts[0].batch } else { 1 };
            let clustered = parts.len() > 1;
            let mut avail_levels: BTreeMap<usize, usize> = BTreeMap::new();
            let mut space_levels: BTreeMap<usize, usize> = BTreeMap::new();
            let mut fired = false;
            'burst: for _ in 0..batch {
                if clustered {
                    avail_levels.clear();
                    space_levels.clear();
                    for part in parts.iter() {
                        for &(b, _) in &part.reads {
                            avail_levels
                                .entry(b)
                                .or_insert_with(|| w.available_count(b));
                        }
                        for &(b, _) in &part.writes {
                            space_levels.entry(b).or_insert_with(|| w.space_count(b));
                        }
                    }
                }
                for part in parts.iter_mut() {
                    let ready = if clustered {
                        ports_satisfied(&part.reads, |b| avail_levels[&b])
                            && ports_satisfied(&part.writes, |b| space_levels[&b])
                    } else {
                        ports_satisfied(&part.reads, |b| w.available_count(b))
                            && ports_satisfied(&part.writes, |b| w.space_count(b))
                    };
                    if !ready {
                        continue;
                    }
                    w.scratch.clear();
                    for &(b, c) in &part.reads {
                        let rx = w.cons[b].as_mut().expect("consumer endpoint is owned");
                        for _ in 0..c {
                            w.scratch
                                .push(rx.pop().expect("occupancy was checked above"));
                        }
                    }
                    let inputs = std::mem::take(&mut w.scratch);
                    let outputs = part.kernel.fire(&inputs, part.out_len);
                    w.scratch = inputs;
                    for &(b, c) in &part.writes {
                        for k in 0..c {
                            w.commit(b, outputs.get(k).copied().unwrap_or(0.0));
                        }
                    }
                    part.fired += 1;
                    fired = true;
                    continue 'burst;
                }
                break;
            }
            fired
        }
        Unit::Source {
            kernel,
            outputs,
            budget,
            generated,
            batch,
            ..
        } => {
            let mut fired = false;
            for _ in 0..*batch {
                if *budget == 0 {
                    break;
                }
                // Blocking backpressure: a source sample is broadcast to
                // every replica atomically, so it waits until all of them
                // have room (the interpreter drops and counts an
                // overflow instead; accepted programs overflow in neither).
                if !outputs.iter().all(|&b| w.space_for(b, 1)) {
                    break;
                }
                let v = kernel.next_sample();
                for &b in outputs.iter() {
                    w.commit(b, v);
                }
                *generated += 1;
                *budget -= 1;
                if *budget == 0 {
                    control.sources_open.fetch_sub(1, Ordering::SeqCst);
                }
                fired = true;
            }
            fired
        }
        Unit::Sink {
            input,
            batch,
            consumed,
            values,
            meter,
            monitor,
            ..
        } => {
            let mut drained = 0u64;
            for _ in 0..(*batch).max(8) {
                let Some(v) = w.cons[*input]
                    .as_mut()
                    .expect("sink input endpoint is owned")
                    .pop()
                else {
                    break;
                };
                *consumed += 1;
                meter.record();
                if let Some(m) = monitor.as_mut() {
                    m.record();
                }
                if values.len() < SINK_STREAM_CAP {
                    values.push(v);
                }
                drained += 1;
            }
            if drained > 0 {
                if let Some((h, wi)) = w.metrics.as_ref() {
                    h.cell(*wi).record_sink(drained);
                }
            }
            drained > 0
        }
        Unit::Modal {
            members,
            writes,
            out_len,
            batch,
            script,
            fired,
            switches,
            last_arm,
            dep,
        } => {
            if let Some(dep) = dep {
                return run_modal_dependent(
                    members, script, fired, switches, last_arm, dep, *batch, w,
                );
            }
            let mut any = false;
            for _ in 0..(*batch).max(1) {
                // Union-advance readiness: every member's aggregated reads
                // (pairwise disjoint by admission) and the shared writes.
                // Firing is fully determined by the script and the firing
                // index, so a conservative live-level check suffices —
                // availability only grows under the consumer, space only
                // grows under the producer.
                let ready = members
                    .iter()
                    .all(|m| ports_satisfied(&m.reads, |b| w.available_count(b)))
                    && ports_satisfied(writes, |b| w.space_count(b));
                if !ready {
                    break;
                }
                let arm = script.arm_at(*fired).min(members.len() as u32 - 1);
                if *last_arm != u32::MAX && arm != *last_arm {
                    *switches += 1;
                    if let Some(t) = w.trace.as_mut() {
                        t.instant(EventKind::ModeSwitch, arm);
                    }
                }
                *last_arm = arm;
                w.scratch.clear();
                let (mut start, mut len) = (0usize, 0usize);
                for (k, m) in members.iter().enumerate() {
                    if k as u32 == arm {
                        start = w.scratch.len();
                    }
                    for &(b, c) in &m.reads {
                        let rx = w.cons[b].as_mut().expect("consumer endpoint is owned");
                        for _ in 0..c {
                            w.scratch
                                .push(rx.pop().expect("occupancy was checked above"));
                        }
                    }
                    if k as u32 == arm {
                        len = w.scratch.len() - start;
                    }
                }
                let inputs = std::mem::take(&mut w.scratch);
                let outputs = members[arm as usize]
                    .kernel
                    .fire(&inputs[start..start + len], *out_len);
                w.scratch = inputs;
                for &(b, c) in writes.iter() {
                    for k in 0..c {
                        w.commit(b, outputs.get(k).copied().unwrap_or(0.0));
                    }
                }
                members[arm as usize].fired += 1;
                *fired += 1;
                any = true;
            }
            any
        }
    }
}

/// Fire a mode-dependent modal unit data-driven against its resolved
/// period plan (see [`ModalDep`]). Only the current period's arm gates the
/// firing — its reads must be available and its own writes must have space;
/// other arms' buffers never block it (they are drained and filled by the
/// mode sequence itself).
#[allow(clippy::too_many_arguments)]
fn run_modal_dependent(
    members: &mut [NodePart],
    script: &ModeScript,
    fired: &mut u64,
    switches: &mut u64,
    last_arm: &mut u32,
    dep: &mut ModalDep,
    batch: u32,
    w: &mut WorkerBufs,
) -> bool {
    let mut any = false;
    for _ in 0..batch.max(1) {
        if dep.period_left == 0 {
            break; // the plan is spent; source budgets are capped to match
        }
        let mode = dep.runs[dep.run].0;
        let ready = {
            let active = &members[mode as usize];
            ports_satisfied(&active.reads, |b| w.available_count(b))
                && ports_satisfied(&active.writes, |b| w.space_count(b))
        };
        if !ready {
            break;
        }
        if *last_arm != u32::MAX && mode != *last_arm {
            *switches += 1;
            if let Some(t) = w.trace.as_mut() {
                t.instant(EventKind::ModeSwitch, mode);
            }
        }
        *last_arm = mode;
        // A firing whose scripted arm differs from the executing period's
        // mode belongs to the seam: the old mode draining its in-flight
        // period before the switch takes effect at the boundary.
        let scripted = script.arm_at(*fired).min(members.len() as u32 - 1);
        let seam = scripted != mode;
        if seam {
            dep.transition_firings += 1;
        }
        let seam_t0 = match (seam, w.trace.as_ref()) {
            (true, Some(t)) => Some(t.now_ns()),
            _ => None,
        };
        w.scratch.clear();
        for ri in 0..members[mode as usize].reads.len() {
            let (b, c) = members[mode as usize].reads[ri];
            let rx = w.cons[b].as_mut().expect("consumer endpoint is owned");
            for _ in 0..c {
                w.scratch
                    .push(rx.pop().expect("occupancy was checked above"));
            }
        }
        let inputs = std::mem::take(&mut w.scratch);
        let active = &mut members[mode as usize];
        let outputs = active.kernel.fire(&inputs, active.out_len);
        w.scratch = inputs;
        for &(b, c) in &members[mode as usize].writes {
            for k in 0..c {
                w.commit(b, outputs.get(k).copied().unwrap_or(0.0));
            }
        }
        members[mode as usize].fired += 1;
        *fired += 1;
        if let Some(start) = seam_t0 {
            let t = w.trace.as_mut().expect("tracer outlives the run");
            t.span(EventKind::Seam, (mode << 16) | scripted, start);
        }
        dep.period_left -= 1;
        if dep.period_left == 0 {
            dep.periods_left -= 1;
            if dep.periods_left == 0 {
                dep.run += 1;
                dep.periods_left = dep.runs.get(dep.run).map_or(0, |r| r.1);
            }
            if dep.periods_left > 0 {
                dep.period_left = dep.period_reps[dep.runs[dep.run].0 as usize];
            }
        }
        any = true;
    }
    any
}

/// What one worker hands back after the run.
struct WorkerOut {
    units: Vec<Unit>,
    recorders: Vec<Option<BufferValues>>,
    tokens: u64,
    trace: Option<WorkerTracer>,
}

/// Timestamp origin for a unit pass — `Some` when any instrumentation is
/// on (the tracer's clock when tracing, so span and histogram agree).
#[inline]
fn scan_t0(bufs: &WorkerBufs) -> Option<u64> {
    match (&bufs.trace, &bufs.metrics) {
        (Some(t), _) => Some(t.now_ns()),
        (None, Some((h, _))) => Some(h.now_ns()),
        (None, None) => None,
    }
}

/// Close a productive unit pass opened at `start`: a trace span when
/// tracing, a firing-histogram sample in the worker's cell when metering.
#[inline]
fn note_pass(bufs: &mut WorkerBufs, unit: u32, start: u64) {
    if let Some((h, wi)) = bufs.metrics.as_ref() {
        let now = match bufs.trace.as_ref() {
            Some(t) => t.now_ns(),
            None => h.now_ns(),
        };
        h.cell(*wi).record_firing(now.saturating_sub(start));
    }
    if let Some(t) = bufs.trace.as_mut() {
        t.span(EventKind::Firing, unit, start);
    }
}

/// Extra empty-scan → rescan rounds (with a `yield_now` between) before a
/// worker parks.
const IDLE_RESCANS: usize = 2;

fn worker_loop(
    widx: usize,
    mut units: Vec<Unit>,
    mut bufs: WorkerBufs,
    control: &Control,
    chaos: Option<u64>,
) -> WorkerOut {
    let mut chaos = chaos.map(Chaos);
    'main: while !control.done.load(Ordering::SeqCst) {
        let scan = |units: &mut Vec<Unit>, bufs: &mut WorkerBufs| -> bool {
            let mut fired = false;
            for (ui, unit) in units.iter_mut().enumerate() {
                let t0 = scan_t0(bufs);
                let f = run_unit(unit, bufs, control);
                if f {
                    if let Some(start) = t0 {
                        // One span per productive pass: it covers the
                        // unit's whole batched burst, attributed by label.
                        note_pass(bufs, ui as u32, start);
                    }
                }
                fired |= f;
            }
            fired
        };
        if scan(&mut units, &mut bufs) {
            control.progress();
            if let Some(c) = chaos.as_mut() {
                c.perturb();
            }
            continue;
        }
        // Bounded spin: nothing fireable right now; give actively running
        // peers a moment before paying the park round-trip.
        for _ in 0..IDLE_RESCANS {
            std::thread::yield_now();
            if scan(&mut units, &mut bufs) {
                control.progress();
                continue 'main;
            }
        }
        // Park. The stamp `g0` is read before the verification scan, so
        // "idle at g0" certifies: nothing I own was fireable as of every
        // firing published up to generation g0.
        let g0 = control.gen.load(Ordering::SeqCst);
        if scan(&mut units, &mut bufs) {
            control.progress();
            continue;
        }
        let mut guard = control.m.lock().expect("control mutex poisoned");
        if control.gen.load(Ordering::SeqCst) != g0 || control.done.load(Ordering::SeqCst) {
            continue;
        }
        // Register idle *at stamp g0* (equal to the live generation — just
        // re-checked under the lock). The stamp matters: a peer counted
        // idle at an older stamp was already notified by the bump that
        // outdated it and may have fireable work it has not rescanned yet,
        // so `idle == threads` alone is not a fixpoint. Only a census in
        // which every sleeping worker certified an empty scan at the
        // *current* generation is.
        control.idle_stamps[widx].store(g0, Ordering::SeqCst);
        let idle = control.idle.fetch_add(1, Ordering::SeqCst) + 1;
        if idle == control.threads
            && control
                .idle_stamps
                .iter()
                .all(|s| s.load(Ordering::SeqCst) == g0)
        {
            // Idle census complete: every worker certified an empty scan at
            // the current generation and none is running — a global
            // fixpoint. With retired sources that is successful completion;
            // with budget left it is a deadlock (and can only be one:
            // nothing will ever fire again).
            let deadlocked = control.sources_open.load(Ordering::SeqCst) > 0;
            if deadlocked {
                control.deadlocked.store(true, Ordering::SeqCst);
            }
            control.done.store(true, Ordering::SeqCst);
            control.idle.fetch_sub(1, Ordering::SeqCst);
            control.cv.notify_all();
            drop(guard);
            if let Some(t) = bufs.trace.as_mut() {
                t.instant(EventKind::Census, deadlocked as u32);
            }
            break;
        }
        // Either a peer is still running, or a sleeper's stamp is stale.
        // A stale sleeper needs no help from us: the `gen` bump that
        // outdated its stamp notified the condvar, so it will wake and
        // rescan — and then either fire (bumping `gen`, waking us) or
        // re-register at the current generation and complete the census
        // itself.
        control.parks.fetch_add(1, Ordering::Relaxed);
        if let Some((h, wi)) = bufs.metrics.as_ref() {
            h.cell(*wi).record_park();
        }
        let park_t0 = scan_t0(&bufs);
        while control.gen.load(Ordering::SeqCst) == g0 && !control.done.load(Ordering::SeqCst) {
            guard = control.cv.wait(guard).expect("control mutex poisoned");
        }
        control.idle.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        if let Some(start) = park_t0 {
            // A park is this engine's backpressure: nothing the worker owns
            // was fireable until a peer's firing made progress possible.
            if let Some((h, wi)) = bufs.metrics.as_ref() {
                let now = match bufs.trace.as_ref() {
                    Some(t) => t.now_ns(),
                    None => h.now_ns(),
                };
                h.cell(*wi).record_backpressure(now.saturating_sub(start));
            }
            if let Some(t) = bufs.trace.as_mut() {
                t.parks += 1;
                t.unparks += 1;
                t.span(EventKind::Park, 0, start);
                t.instant(EventKind::Unpark, 0);
            }
        }
    }
    WorkerOut {
        units,
        recorders: bufs.recorders,
        tokens: bufs.tokens,
        trace: bufs.trace,
    }
}

// ---------------------------------------------------------------------------
// Setup: units, partition, endpoints.
// ---------------------------------------------------------------------------

/// Execute `graph` self-timed: sources produce the samples of `duration`
/// picoseconds of virtual time (the same count the simulator would emit),
/// everything downstream runs as fast as the hardware allows, and the
/// engine returns once the pipeline has drained.
///
/// # Panics
/// Panics if `plan` was computed for a different graph.
pub fn execute_selftimed(
    graph: &RtGraph,
    plan: &RtPlan,
    lib: &KernelLibrary,
    duration: Picos,
    config: &SelfTimedConfig,
) -> SelfTimedReport {
    execute_inner(graph, plan, lib, duration, config, None)
}

/// Execute `graph` self-timed under an explicit [`ModeScript`]: the
/// graph's modal-admissible non-uniform cluster (if any) runs as one
/// union-advance unit whose active arm follows the script, firing for
/// firing the same dispatch the static-order engine performs. A graph
/// without a modal cluster runs exactly as [`execute_selftimed`] would.
///
/// # Panics
/// Panics if the graph has a non-uniform cluster that is **not**
/// modal-admissible — scripted execution has no meaning for a merge whose
/// order is data-dependent.
pub fn execute_selftimed_scripted(
    graph: &RtGraph,
    plan: &RtPlan,
    lib: &KernelLibrary,
    duration: Picos,
    config: &SelfTimedConfig,
    script: &ModeScript,
) -> SelfTimedReport {
    execute_inner(graph, plan, lib, duration, config, Some(script))
}

fn execute_inner(
    graph: &RtGraph,
    plan: &RtPlan,
    lib: &KernelLibrary,
    duration: Picos,
    config: &SelfTimedConfig,
    script: Option<&ModeScript>,
) -> SelfTimedReport {
    assert_eq!(plan.batch.len(), graph.nodes.len(), "plan/graph mismatch");
    // Scripted runs route the (sole) modal-admissible cluster through the
    // union-advance unit; unscripted runs keep the legacy arrival-order
    // merge with component pinning, byte for byte.
    let modal = script.and_then(|_| {
        modal_admission(graph, plan).unwrap_or_else(|e| {
            panic!("scripted self-timed execution requires a modal-admissible graph: {e}")
        })
    });
    // A malformed script is a caller error surfaced before anything runs,
    // never a silently clamped arm.
    if let (Some(script), Some(info)) = (script, modal.as_ref()) {
        script
            .validate_arms(info.members.len())
            .unwrap_or_else(|e| panic!("invalid mode script: {e}"));
    }
    // Natural per-source sample budgets: the same horizon the calendar and
    // the simulator admit (ticks at `period, 2·period, …`, time ≤ duration).
    let natural_budgets = crate::exec::source_budgets(graph, duration);
    // A mode-dependent cluster resolves the script into a period plan up
    // front: token flow differs per mode, so the engine walks the same
    // verified mode sequence the static-order engine replays, and source
    // budgets are capped to the plan's totals (the final period always
    // runs to completion).
    let mode_plan = modal.as_ref().filter(|m| m.mode_dependent).map(|_| {
        let rates = mode_dependent_rates(graph, plan)
            .expect("modal admission succeeded above")
            .expect("a mode-dependent cluster has per-mode rates");
        let script = script.expect("a modal unit is only built when scripted");
        let seq = plan_mode_sequence(&rates, script, |id| natural_budgets[id.index()]);
        (rates, seq)
    });
    let started = Instant::now();
    let n_buffers = graph.buffers.len();

    // --- Buffers: declared capacities, rings, initial tokens, recorders.
    let declared: Arc<Vec<usize>> = Arc::new(
        graph
            .buffers
            .iter()
            .map(|b| b.capacity.max(b.initial_tokens).max(1))
            .collect(),
    );
    let unread: Arc<Vec<bool>> = Arc::new(plan.unread.iter().copied().collect());
    let mut producers: Vec<Option<Producer<f64>>> = Vec::with_capacity(n_buffers);
    let mut consumers: Vec<Option<Consumer<f64>>> = Vec::with_capacity(n_buffers);
    let mut recorders: Vec<Option<BufferValues>> = Vec::with_capacity(n_buffers);
    let mut setup_tokens: u64 = 0;
    for (i, b) in graph.buffers.iter().enumerate() {
        let mut recorder = BufferValues {
            name: b.name.clone(),
            ..Default::default()
        };
        if unread[i] {
            // No ring: commits are recorded and dropped.
            for _ in 0..b.initial_tokens {
                recorder.record(0.0);
                setup_tokens += 1;
            }
            producers.push(None);
            consumers.push(None);
        } else {
            let (mut tx, rx) = ring::spsc::<f64>(declared[i]);
            for _ in 0..b.initial_tokens {
                tx.push(0.0).expect("initial tokens fit the capacity");
                recorder.record(0.0);
                setup_tokens += 1;
            }
            producers.push(Some(tx));
            consumers.push(Some(rx));
        }
        recorders.push(Some(recorder));
    }

    // --- Scheduling units, in a stable order: node units (clusters appear
    // at their first member), then sources, then sinks.
    let mut units: Vec<Unit> = Vec::new();
    let mut emitted: Vec<bool> = vec![false; graph.nodes.len()];
    let make_part = |ni: RtNodeId| -> NodePart {
        let n = &graph.nodes[ni];
        NodePart {
            id: ni,
            kernel: lib.instantiate(&n.function),
            reads: n.reads.iter().map(|&(b, c)| (b.index(), c)).collect(),
            writes: n.writes.iter().map(|&(b, c)| (b.index(), c)).collect(),
            out_len: n.writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
            batch: plan.batch[ni],
            fired: 0,
        }
    };
    for ni in graph.nodes.indices() {
        if emitted[ni.index()] {
            continue;
        }
        match plan.cluster_of[ni] {
            Some(cid) if modal.as_ref().is_some_and(|m| m.cluster == cid) => {
                let info = modal.as_ref().expect("guard matched");
                for &m in &info.members {
                    emitted[m.index()] = true;
                }
                let parts: Vec<NodePart> = info
                    .members
                    .iter()
                    .zip(&info.member_reads)
                    .zip(&info.member_writes)
                    .map(|((&m, mr), mw)| {
                        let mut part = NodePart {
                            reads: mr.iter().map(|&(b, c)| (b.index(), c)).collect(),
                            writes: Vec::new(),
                            ..make_part(m)
                        };
                        if info.mode_dependent {
                            // Each arm fires against its *own* write list;
                            // union-advance arms broadcast to the shared
                            // unit-level list instead.
                            part.writes = mw.iter().map(|&(b, c)| (b.index(), c)).collect();
                            part.out_len = part.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
                        }
                        part
                    })
                    .collect();
                // Unit-level writes: the shared list under union-advance;
                // the union over arms for a mode-dependent cluster (only
                // used to claim producer endpoints and wire components —
                // firing uses the active arm's own list).
                let writes: Vec<(usize, usize)> = if info.mode_dependent {
                    let mut union: BTreeMap<usize, usize> = BTreeMap::new();
                    for mw in &info.member_writes {
                        for &(b, c) in mw {
                            let e = union.entry(b.index()).or_insert(0);
                            *e = (*e).max(c);
                        }
                    }
                    union.into_iter().collect()
                } else {
                    info.writes.iter().map(|&(b, c)| (b.index(), c)).collect()
                };
                let out_len = writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
                let batch = parts.iter().map(|p| p.batch).max().unwrap_or(1);
                units.push(Unit::Modal {
                    members: parts,
                    writes,
                    out_len,
                    batch,
                    script: script.cloned().unwrap_or_default(),
                    fired: 0,
                    switches: 0,
                    last_arm: u32::MAX,
                    dep: mode_plan.as_ref().map(|(rates, seq)| ModalDep {
                        period_reps: rates.modal.clone(),
                        runs: seq.runs.clone(),
                        run: 0,
                        periods_left: seq.runs.first().map_or(0, |r| r.1),
                        period_left: seq.runs.first().map_or(0, |r| rates.modal[r.0 as usize]),
                        transition_firings: 0,
                    }),
                });
            }
            Some(cid) => {
                let members = &plan.clusters[cid as usize];
                for &m in members {
                    emitted[m.index()] = true;
                }
                units.push(Unit::Nodes(members.iter().map(|&m| make_part(m)).collect()));
            }
            None => {
                emitted[ni.index()] = true;
                units.push(Unit::Nodes(vec![make_part(ni)]));
            }
        }
    }
    let mut open_sources = 0usize;
    for (i, s) in graph.sources.iter_enumerated() {
        // The natural horizon budget — capped to the resolved mode plan's
        // total when the cluster is mode-dependent (a gated source may
        // produce less; the completed final period may produce slightly
        // more).
        let budget = mode_plan
            .as_ref()
            .map(|(_, seq)| seq.produced[i.index()])
            .unwrap_or(natural_budgets[i.index()]);
        if budget > 0 {
            open_sources += 1;
        }
        units.push(Unit::Source {
            id: i,
            kernel: lib.instantiate_source(&s.function),
            outputs: s.outputs.iter().map(|b| b.index()).collect(),
            budget,
            generated: 0,
            batch: plan.source_batch[i],
        });
    }
    for (i, s) in graph.sinks.iter_enumerated() {
        units.push(Unit::Sink {
            id: i,
            input: s.input.index(),
            batch: plan.sink_batch[i],
            consumed: 0,
            values: Vec::new(),
            meter: ThroughputMeter::new(config.warmup_samples),
            monitor: None, // registered below, once the hub knows `threads`
        });
    }

    // --- Partition units over workers. Whole weakly-connected components
    // go to the least-loaded worker when there are enough of them
    // (independent subgraphs never contend); otherwise units round-robin so
    // one long pipeline still spreads across the pool — except components
    // containing a non-uniform serial cluster, which are pinned whole to
    // one worker (see `partition_units`).
    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        config.threads
    }
    .min(units.len())
    .max(1);
    // The metrics hub needs the final worker count; register each sink's
    // drift monitor now that it exists.
    let hub: Option<Arc<MetricsHub>> = config
        .metrics
        .map(|m| MetricsHub::new("selftimed", threads, m));
    if let Some(h) = hub.as_ref() {
        for unit in units.iter_mut() {
            if let Unit::Sink { id, monitor, .. } = unit {
                let s = &graph.sinks[*id];
                *monitor = Some(h.sink_monitor(s.name.clone(), s.period.recip().to_f64()));
            }
        }
    }
    let assignment = partition_units(graph, plan, &units, threads);

    // --- Distribute endpoints and recorders to the owning workers.
    let mut worker_units: Vec<Vec<Unit>> = (0..threads).map(|_| Vec::new()).collect();
    let mut worker_bufs: Vec<WorkerBufs> = (0..threads)
        .map(|w| WorkerBufs {
            prods: (0..n_buffers).map(|_| None).collect(),
            cons: (0..n_buffers).map(|_| None).collect(),
            recorders: (0..n_buffers).map(|_| None).collect(),
            declared: Arc::clone(&declared),
            unread: Arc::clone(&unread),
            record_values: config.record_values,
            tokens: 0,
            scratch: Vec::new(),
            // All tracers share one epoch so the merged tracks align.
            trace: config.trace.then(|| WorkerTracer::new(started, n_buffers)),
            metrics: hub.as_ref().map(|h| (Arc::clone(h), w)),
        })
        .collect();
    // Per worker, the display label of each local unit (trace attribution),
    // and which worker owns each buffer endpoint (a buffer whose endpoints
    // land on different workers is a synchronised SPSC crossing).
    let mut worker_labels: Vec<Vec<String>> = (0..threads).map(|_| Vec::new()).collect();
    let mut prod_owner: Vec<Option<usize>> = vec![None; n_buffers];
    let mut cons_owner: Vec<Option<usize>> = vec![None; n_buffers];
    for (unit, &w) in units.into_iter().zip(&assignment) {
        if config.trace {
            worker_labels[w].push(unit_label(&unit, graph));
        }
        let (reads, writes): (Vec<usize>, Vec<usize>) = match &unit {
            Unit::Nodes(parts) => (
                parts
                    .iter()
                    .flat_map(|p| p.reads.iter().map(|&(b, _)| b))
                    .collect(),
                parts
                    .iter()
                    .flat_map(|p| p.writes.iter().map(|&(b, _)| b))
                    .collect(),
            ),
            Unit::Source { outputs, .. } => (Vec::new(), outputs.clone()),
            Unit::Sink { input, .. } => (vec![*input], Vec::new()),
            Unit::Modal {
                members, writes, ..
            } => (
                members
                    .iter()
                    .flat_map(|p| p.reads.iter().map(|&(b, _)| b))
                    .collect(),
                writes.iter().map(|&(b, _)| b).collect(),
            ),
        };
        for b in reads {
            if let Some(rx) = consumers[b].take() {
                worker_bufs[w].cons[b] = Some(rx);
                cons_owner[b] = Some(w);
            }
        }
        for b in writes {
            if let Some(tx) = producers[b].take() {
                worker_bufs[w].prods[b] = Some(tx);
                prod_owner[b] = Some(w);
            }
            if let Some(r) = recorders[b].take() {
                worker_bufs[w].recorders[b] = Some(r);
            }
        }
        worker_units[w].push(unit);
    }

    // --- Run.
    let control = Arc::new(Control {
        gen: AtomicU64::new(0),
        idle: AtomicUsize::new(0),
        idle_stamps: (0..threads).map(|_| AtomicU64::new(u64::MAX)).collect(),
        done: AtomicBool::new(false),
        deadlocked: AtomicBool::new(false),
        sources_open: AtomicUsize::new(open_sources),
        parks: AtomicU64::new(0),
        threads,
        m: Mutex::new(()),
        cv: Condvar::new(),
    });
    let mut handles = Vec::with_capacity(threads);
    for (w, (units, bufs)) in worker_units.into_iter().zip(worker_bufs).enumerate() {
        let control = Arc::clone(&control);
        let chaos = config.chaos.map(|seed| {
            seed ^ (w as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xD1B5_4A32_D192_ED03
        });
        handles.push(
            std::thread::Builder::new()
                .name(format!("oil-rt-selftimed-{w}"))
                .spawn(move || worker_loop(w, units, bufs, &control, chaos))
                .expect("spawning a self-timed worker thread"),
        );
    }
    let outs: Vec<WorkerOut> = handles
        .into_iter()
        .map(|h| h.join().expect("self-timed worker panicked"))
        .collect();

    // --- Assemble the report.
    let mut tokens = setup_tokens;
    let mut node_firings: Vec<(String, u64)> =
        graph.nodes.iter().map(|n| (n.name.clone(), 0u64)).collect();
    let mut source_samples: Vec<(String, u64)> = graph
        .sources
        .iter()
        .map(|s| (s.name.clone(), 0u64))
        .collect();
    let mut sinks: Vec<Option<SinkStream>> = (0..graph.sinks.len()).map(|_| None).collect();
    let mut throughput: Vec<Option<SinkThroughput>> =
        (0..graph.sinks.len()).map(|_| None).collect();
    let mut mode_switches = 0u64;
    let mut transition_firings = 0u64;
    let mut trace_report = config.trace.then(|| TraceReport::new("selftimed", threads));
    let mut ring_hw: Vec<u32> = vec![0; n_buffers];
    for (w, out) in outs.into_iter().enumerate() {
        if let (Some(tr), Some(t)) = (trace_report.as_mut(), out.trace) {
            let hw = tr.push_track(
                format!("worker-{w}"),
                std::mem::take(&mut worker_labels[w]),
                t,
            );
            for (b, h) in hw.into_iter().enumerate() {
                ring_hw[b] = ring_hw[b].max(h);
            }
        }
        tokens += out.tokens;
        for (b, r) in out.recorders.into_iter().enumerate() {
            if let Some(r) = r {
                recorders[b] = Some(r);
            }
        }
        for unit in out.units {
            match unit {
                Unit::Nodes(parts) => {
                    for p in parts {
                        node_firings[p.id.index()].1 = p.fired;
                    }
                }
                Unit::Source { id, generated, .. } => {
                    source_samples[id.index()].1 = generated;
                }
                Unit::Sink {
                    id,
                    consumed,
                    values,
                    meter,
                    monitor,
                    ..
                } => {
                    // Flush the drift detector's partial tail window before
                    // the snapshot below.
                    if let Some(m) = monitor {
                        m.finish();
                    }
                    let s = &graph.sinks[id];
                    sinks[id.index()] = Some(SinkStream {
                        name: s.name.clone(),
                        consumed,
                        misses: 0,
                        max_latency: 0.0,
                        values,
                    });
                    throughput[id.index()] = Some(SinkThroughput {
                        name: s.name.clone(),
                        samples: consumed,
                        predicted_hz: s.period.recip().to_f64(),
                        measured_hz: meter.steady_rate_hz(),
                    });
                }
                Unit::Modal {
                    members,
                    switches,
                    dep,
                    ..
                } => {
                    for p in members {
                        node_firings[p.id.index()].1 = p.fired;
                    }
                    mode_switches += switches;
                    transition_firings += dep.map_or(0, |d| d.transition_firings);
                }
            }
        }
    }
    if let Some(tr) = trace_report.as_mut() {
        tr.rings = graph
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| RingStat {
                name: b.name.clone(),
                capacity: declared[i],
                // Initial tokens occupy the ring before any traced push.
                highwater: (ring_hw[i] as usize).max(b.initial_tokens),
                crossing: match (prod_owner[i], cons_owner[i]) {
                    (Some(p), Some(c)) => p != c,
                    _ => false,
                },
            })
            .collect();
    }
    SelfTimedReport {
        threads,
        values: ValueTrace {
            buffers: if config.record_values {
                recorders
                    .into_iter()
                    .map(|r| r.unwrap_or_default())
                    .collect()
            } else {
                Vec::new()
            },
        },
        sinks: sinks
            .into_iter()
            .map(|s| s.expect("every sink ran"))
            .collect(),
        throughput: throughput
            .into_iter()
            .map(|t| t.expect("every sink measured"))
            .collect(),
        node_firings,
        sources: source_samples,
        deadlocked: control.deadlocked.load(Ordering::SeqCst),
        tokens,
        wall: started.elapsed(),
        parks: control.parks.load(Ordering::SeqCst),
        clusters: plan.clusters.len(),
        mode_switches,
        transition_firings,
        trace_report,
        metrics: hub.as_ref().map(|h| h.snapshot()),
    }
}

/// The display label of a scheduling unit (trace attribution).
fn unit_label(unit: &Unit, graph: &RtGraph) -> String {
    let label = |parts: &[NodePart], modal| {
        crate::trace::unit_label(graph, parts.iter().map(|p| p.id), modal)
    };
    match unit {
        Unit::Nodes(parts) => label(parts, false),
        Unit::Modal { members, .. } => label(members, true),
        Unit::Source { id, .. } => graph.sources[*id].name.clone(),
        Unit::Sink { id, .. } => graph.sinks[*id].name.clone(),
    }
}

/// Assign each unit (by position) to a worker.
///
/// A component containing a **non-uniform** serial cluster (members gated
/// on disjoint inputs, [`RtPlan::cluster_uniform`]) is never split: with
/// every unit that can move the cluster's input levels on one thread, the
/// contested merge resolves by that worker's fixed scan order — a
/// deterministic, thread-count- and timing-independent sequence (and the
/// same one a single-threaded run produces, since units keep their relative
/// order and no other worker touches the component's buffers).
fn partition_units(graph: &RtGraph, plan: &RtPlan, units: &[Unit], threads: usize) -> Vec<usize> {
    if threads == 1 {
        return vec![0; units.len()];
    }
    // Weakly-connected components over the buffers the units touch.
    let n_buffers = graph.buffers.len();
    let mut uf = UnionFind::new(units.len() + n_buffers);
    for (u, unit) in units.iter().enumerate() {
        let touched: Vec<usize> = match unit {
            Unit::Nodes(parts) => parts
                .iter()
                .flat_map(|p| {
                    p.reads
                        .iter()
                        .map(|&(b, _)| b)
                        .chain(p.writes.iter().map(|&(b, _)| b))
                })
                .collect(),
            Unit::Source { outputs, .. } => outputs.clone(),
            Unit::Sink { input, .. } => vec![*input],
            Unit::Modal {
                members, writes, ..
            } => members
                .iter()
                .flat_map(|p| p.reads.iter().map(|&(b, _)| b))
                .chain(writes.iter().map(|&(b, _)| b))
                .collect(),
        };
        for b in touched {
            uf.union(u, units.len() + b);
        }
    }
    // Components that must stay whole: any member hosting a non-uniform
    // cluster node.
    let mut pinned_roots: std::collections::BTreeSet<usize> = Default::default();
    for (u, unit) in units.iter().enumerate() {
        if let Unit::Nodes(parts) = unit {
            if parts
                .iter()
                .any(|p| plan.cluster_of[p.id].is_some_and(|c| !plan.cluster_uniform[c as usize]))
            {
                pinned_roots.insert(uf.find(u));
            }
        }
    }
    let mut component_members: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
    for u in 0..units.len() {
        component_members.entry(uf.find(u)).or_default().push(u);
    }
    let mut assignment = vec![0usize; units.len()];
    let mut load = vec![0usize; threads];
    if component_members.len() >= threads {
        // Independent subgraphs: keep each on one worker (zero cross-worker
        // traffic), largest first onto the least-loaded worker.
        let mut components: Vec<Vec<usize>> = component_members.into_values().collect();
        components.sort_by_key(|c| std::cmp::Reverse(c.len()));
        for c in components {
            let w = (0..threads).min_by_key(|&w| load[w]).unwrap_or(0);
            for u in c {
                assignment[u] = w;
                load[w] += 1;
            }
        }
    } else {
        // Fewer components than workers: spread units round-robin so one
        // long pipeline still uses the whole pool — except pinned
        // components, which go whole onto the least-loaded worker.
        let mut pinned_to: std::collections::BTreeMap<usize, usize> = Default::default();
        let mut rr = 0usize;
        for (u, a) in assignment.iter_mut().enumerate() {
            let root = uf.find(u);
            if pinned_roots.contains(&root) {
                let w = *pinned_to
                    .entry(root)
                    .or_insert_with(|| (0..threads).min_by_key(|&w| load[w]).unwrap_or(0));
                *a = w;
            } else {
                *a = rr % threads;
                rr += 1;
            }
            load[*a] += 1;
        }
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, RtConfig};
    use oil_compiler::schedule::SynthesisConfig;
    use oil_compiler::{build, rtgraph, Executable};
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};
    use oil_sim::picos;

    /// A two-stage 2:1 pipeline, built through the front door.
    fn pipeline() -> Executable {
        const PIPELINE: &str = r#"
            mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
            mod seq Q(int m, out int b){ loop{ g(m:2, out b); } while(1); }
            mod par D(){
                fifo int mid;
                source int x = src() @ 2 kHz;
                sink int y = snk() @ 1 kHz;
                P(x, out mid) || Q(mid, out y)
            }
        "#;
        let mut registry = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            registry.register(FunctionSignature::pure(f, 1e-5));
        }
        build(PIPELINE, &registry, 1, &SynthesisConfig::default()).unwrap()
    }

    #[test]
    fn calendar_value_streams_are_a_prefix_of_the_free_run() {
        let Executable { graph, plan, .. } = pipeline();
        assert!(plan.is_kpn_safe());
        let reference = execute(
            &graph,
            &KernelLibrary::new(),
            picos(0.25),
            &RtConfig::default(),
        );
        for threads in [1, 2, 4] {
            let report = execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::new(),
                picos(0.25),
                &SelfTimedConfig {
                    threads,
                    ..SelfTimedConfig::default()
                },
            );
            assert!(!report.deadlocked, "threads={threads}");
            assert_eq!(
                reference.values.prefix_divergence(&report.values),
                None,
                "threads={threads}"
            );
            let calendar_sink = &reference.sinks[0];
            let free_sink = &report.sinks[0];
            assert!(free_sink.consumed >= calendar_sink.consumed);
            let shared = calendar_sink.values.len().min(free_sink.values.len());
            assert_eq!(
                calendar_sink.values[..shared],
                free_sink.values[..shared],
                "threads={threads}"
            );
        }
    }

    #[test]
    fn free_run_is_thread_count_invariant() {
        let Executable { graph, plan, .. } = pipeline();
        let base = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.1),
            &SelfTimedConfig {
                threads: 1,
                ..SelfTimedConfig::default()
            },
        );
        for threads in [2, 3, 8] {
            let other = execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::new(),
                picos(0.1),
                &SelfTimedConfig {
                    threads,
                    ..SelfTimedConfig::default()
                },
            );
            assert_eq!(base.values.first_divergence(&other.values), None);
            assert_eq!(base.node_firings, other.node_firings);
            let pairs = base.sinks.iter().zip(&other.sinks);
            for (a, b) in pairs {
                assert_eq!(a.consumed, b.consumed);
                assert_eq!(a.values, b.values);
            }
        }
    }

    #[test]
    fn a_starved_cycle_is_reported_as_deadlock_not_a_hang() {
        // Two mutually dependent nodes with no initial tokens: nothing can
        // ever fire. The engine must return with `deadlocked` set instead
        // of spinning or parking forever.
        use oil_compiler::rtgraph::{RtBuffer, RtNode, RtSource};
        use oil_dataflow::Rational;
        let mut graph = RtGraph::default();
        let a = graph.buffers.push(RtBuffer {
            name: "a".into(),
            capacity: 2,
            initial_tokens: 0,
        });
        let b = graph.buffers.push(RtBuffer {
            name: "b".into(),
            capacity: 2,
            initial_tokens: 0,
        });
        let feed = graph.buffers.push(RtBuffer {
            name: "feed".into(),
            capacity: 2,
            initial_tokens: 0,
        });
        graph.nodes.push(RtNode {
            name: "n0".into(),
            function: "f".into(),
            response: Rational::new(1, 1_000_000),
            reads: vec![(feed, 1), (b, 1)],
            writes: vec![(a, 1)],
        });
        graph.nodes.push(RtNode {
            name: "n1".into(),
            function: "g".into(),
            response: Rational::new(1, 1_000_000),
            reads: vec![(a, 1)],
            writes: vec![(b, 1)],
        });
        graph.sources.push(RtSource {
            name: "src_s_feed".into(),
            function: "s".into(),
            outputs: vec![feed],
            period: Rational::new(1, 1000),
        });
        let plan = rtgraph::plan(&graph);
        let report = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.01),
            &SelfTimedConfig {
                threads: 2,
                ..SelfTimedConfig::default()
            },
        );
        assert!(report.deadlocked, "{:?}", report.node_firings);
    }

    #[test]
    fn quiescence_census_never_drops_trailing_work() {
        // Regression for a census race: a worker whose park stamp was
        // outdated by a peer's firing (and which may therefore have
        // fireable work it has not rescanned) must not be counted towards
        // `idle == threads`, or the engine completes with trailing tokens
        // undrained / falsely reports deadlock. Many short multi-threaded
        // runs maximise park/wake churn around the drain; every run must
        // quiesce cleanly with the same sink count.
        let Executable { graph, plan, .. } = pipeline();
        let run = |threads: usize| {
            execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::new(),
                picos(0.02),
                &SelfTimedConfig {
                    threads,
                    ..SelfTimedConfig::default()
                },
            )
        };
        let expected = run(1);
        assert!(!expected.deadlocked);
        for rep in 0..50 {
            for threads in [2, 3] {
                let report = run(threads);
                assert!(!report.deadlocked, "rep {rep}, threads={threads}");
                assert_eq!(
                    report.sinks[0].consumed, expected.sinks[0].consumed,
                    "rep {rep}, threads={threads}: trailing sink samples were dropped"
                );
                assert_eq!(
                    report.node_firings, expected.node_firings,
                    "rep {rep}, threads={threads}"
                );
            }
        }
    }

    #[test]
    fn non_uniform_clusters_stay_deterministic_via_component_pinning() {
        // Two producers of `t` gated on *disjoint* inputs fed by separate
        // sources: which twin is ready depends on token arrival, so the
        // per-burst level snapshot alone cannot fix the merge order. The
        // plan marks the cluster non-uniform and the engine pins the whole
        // component onto one worker; the streams must stay bit-identical
        // across thread counts and under perturbation.
        let graph = rtgraph::non_uniform_merge_demo();
        let plan = rtgraph::plan(&graph);
        assert_eq!(plan.cluster_uniform, vec![false], "the scenario under test");
        let run = |threads: usize, chaos: Option<u64>| {
            execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::new(),
                picos(0.05),
                &SelfTimedConfig {
                    threads,
                    chaos,
                    ..SelfTimedConfig::default()
                },
            )
        };
        let base = run(1, None);
        assert!(!base.deadlocked);
        assert!(base.sinks[0].consumed > 0);
        for threads in [2, 4] {
            for chaos in [None, Some(0x0BAD_C0DE)] {
                let other = run(threads, chaos);
                assert!(!other.deadlocked, "threads={threads}, chaos={chaos:?}");
                assert_eq!(
                    base.values.first_divergence(&other.values),
                    None,
                    "threads={threads}, chaos={chaos:?}"
                );
                assert_eq!(
                    base.node_firings, other.node_firings,
                    "threads={threads}, chaos={chaos:?}"
                );
                assert_eq!(base.sinks[0].values, other.sinks[0].values);
            }
        }
    }

    #[test]
    fn duplicate_ports_on_one_buffer_gate_on_the_sum() {
        // A node touching one buffer through two ports (`f(a, a)`) consumes
        // the sum per firing; gating each port's count individually would
        // admit a firing with one token in the ring and panic mid-pop.
        use oil_compiler::rtgraph::{RtBuffer, RtNode, RtSink, RtSource};
        use oil_dataflow::Rational;
        let mut graph = RtGraph::default();
        let mk = |name: &str| RtBuffer {
            name: name.into(),
            capacity: 4,
            initial_tokens: 0,
        };
        let a = graph.buffers.push(mk("a"));
        let o = graph.buffers.push(mk("o"));
        graph.nodes.push(RtNode {
            name: "n0".into(),
            function: "f".into(),
            response: Rational::new(1, 1_000_000),
            reads: vec![(a, 1), (a, 1)],
            writes: vec![(o, 1)],
        });
        graph.sources.push(RtSource {
            name: "sa".into(),
            function: "s".into(),
            outputs: vec![a],
            period: Rational::new(1, 1000),
        });
        graph.sinks.push(RtSink {
            name: "sk".into(),
            function: "k".into(),
            input: o,
            period: Rational::new(1, 1000),
        });
        let plan = rtgraph::plan(&graph);
        let report = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.01), // 10 source samples -> 5 double-consuming firings
            &SelfTimedConfig {
                threads: 2,
                ..SelfTimedConfig::default()
            },
        );
        assert!(!report.deadlocked);
        assert_eq!(report.node_firings[0].1, 5);
        assert_eq!(report.sinks[0].consumed, 5);
    }

    #[test]
    fn perturbation_does_not_change_the_streams() {
        let Executable { graph, plan, .. } = pipeline();
        let calm = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.05),
            &SelfTimedConfig {
                threads: 4,
                ..SelfTimedConfig::default()
            },
        );
        let stormy = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.05),
            &SelfTimedConfig {
                threads: 4,
                chaos: Some(0xC0FFEE),
                ..SelfTimedConfig::default()
            },
        );
        assert_eq!(calm.values.first_divergence(&stormy.values), None);
        assert_eq!(calm.node_firings, stormy.node_firings);
    }
}
