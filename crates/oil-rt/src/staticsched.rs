//! The compiled static-order execution engine.
//!
//! The third engine closes the loop on the paper's premise: because OIL's
//! restrictions make the multi-rate schedule *statically derivable*, the
//! expensive part of execution — deciding what fires next — happens in the
//! compiler ([`oil_compiler::schedule`]), not here. Each worker replays its
//! **periodic static-order firing list** in a loop:
//!
//! * **zero readiness scanning** — no admission checks, no level snapshots,
//!   no fireability scans: the schedule was admitted only after an exact
//!   integer replay proved that no read underflows and no buffer exceeds
//!   its CTA-sized capacity;
//! * **zero synchronisation on intra-worker edges** — a buffer whose
//!   producer and consumer live on the same worker is a plain unsynchronised
//!   deque (no atomics at all: the validated replay *is* the proof the
//!   accesses are safe), which is every buffer when the schedule has one
//!   worker;
//! * cross-worker edges are the only synchronisation: bounded SPSC rings
//!   ([`crate::ring`]) whose blocking *slice* operations hand a step's or a
//!   fused run's whole block over in one transfer — typically one per
//!   schedule period per crossing buffer. Like the local deques they are
//!   sized from [`StaticSchedule::level_max`]: the schedule's cooperative
//!   replay proved that with rings that large no interleaving of the
//!   workers leaves one waiting forever, so a worker may gather all of an
//!   item's inputs before it writes any output, on crossing rings too;
//! * **no quiescence protocol** — one schedule period returns every buffer
//!   to its starting level, so the engine computes up front how many
//!   iterations cover the sources' sample budgets, replays exactly that
//!   many, and stops. Termination is arithmetic, not detection.
//!
//! Modal `if`/`switch` clusters execute their **quasi-static** resolution:
//! a *uniform* cluster's schedule fires the cluster representative (the
//! lowest-id twin — the member both dynamic engines' deterministic
//! tie-breaks select at every decision), so value streams are bit-identical
//! to the self-timed engine's on every buffer. A *non-uniform* cluster
//! admitted as a modal unit carries **one schedule arm per member**: every
//! firing consumes the union of all members' inputs (union-advance — token
//! flow is mode-independent) and runs whichever member's kernel the
//! [`ModeScript`] selects for that firing, so the engine **switches modes
//! hot**, mid-stream, without draining the pipeline — the SDR "user changes
//! channels" scenario. A **mode-dependent** cluster (arms moving different
//! tokens) carries one fused list per mode instead: the script is resolved
//! up front into runs of same-mode periods, and the same loop that replays
//! a plain schedule's one list replays each run's list — fused runs, block
//! kernels and all, the modal unit firing the run's member like any node —
//! in passes of as many periods as the schedule proved batchable.
//! `tests/staticsched_differential.rs` and
//! `tests/modeswitch_differential.rs` hold the engine to exactly that, plus
//! thread-count invariance and rate conformance.
//!
//! Compared to the self-timed engine the sources here run *past* their
//! budget to the end of the covering iteration (`⌈budget/q⌉` iterations per
//! component): the self-timed streams are therefore a bit-exact **prefix**
//! of this engine's streams, never the reverse.

use crate::exec::{SinkStream, SINK_STREAM_CAP};
use crate::kernel::{Kernel, KernelLibrary, SourceKernel};
use crate::measure::{BufferValues, SinkMonitor, ValueTrace};
use crate::metrics::{MetricsConfig, MetricsReport};
use crate::ring::{self, Consumer, Producer, WaitStats};
use crate::trace::{unit_label, EventKind, Probe, RingStat, TraceReport};
use oil_compiler::rtgraph::RtGraph;
use oil_compiler::schedule::{
    modal_member_access, plan_mode_sequence, FusionStats, ModePlan, ModeScript, StaticSchedule,
    UnitKind, WorkItem, FUSED_BATCH_MAX, FUSED_BATCH_TOKENS,
};
use oil_dataflow::index::Idx;
use oil_sim::Picos;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a static-order execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticConfig {
    /// Record per-buffer value streams (the verification oracle); sink
    /// streams and counters are always kept.
    pub record_values: bool,
    /// Sink samples excluded from the steady-state throughput window.
    pub warmup_samples: u64,
    /// Record per-worker trace events and ring telemetry
    /// ([`crate::trace`]). Off costs a single predictable branch per
    /// instrumentation point; recording writes only worker-local memory,
    /// so value streams are bit-identical either way.
    pub trace: bool,
    /// Run with metrics ([`crate::metrics`]): per-worker counters and
    /// histograms, and drift windows on every sink monitor. Same overhead
    /// discipline as `trace`, through the same per-worker probe: off is a
    /// single predictable branch per instrumentation point, and enabling
    /// it never changes value streams.
    pub metrics: Option<MetricsConfig>,
}

impl Default for StaticConfig {
    fn default() -> Self {
        StaticConfig {
            record_values: true,
            warmup_samples: 16,
            trace: false,
            metrics: None,
        }
    }
}

/// Everything one static-order execution observed.
#[derive(Debug)]
pub struct StaticReport {
    /// Worker threads used (the schedule's worker count).
    pub threads: usize,
    /// Per-buffer value streams (when [`StaticConfig::record_values`]).
    pub values: ValueTrace,
    /// Per sink: the output sample streams.
    pub sinks: Vec<SinkStream>,
    /// Per sink: its rate monitor — steady-state throughput against the
    /// CTA-predicted rate (`measure::conformance`) and, with metrics on,
    /// its drift windows.
    pub throughput: Vec<SinkMonitor>,
    /// Per node: (name, completed firings), in node-id order. Non-
    /// representative cluster members report 0, exactly as under the
    /// dynamic engines' deterministic tie-break; modal arms report the
    /// firings the mode script actually dispatched to them.
    pub node_firings: Vec<(String, u64)>,
    /// Per source: (name, samples generated). A source split into one
    /// unit per replica buffer reports the maximum over its replicas; each
    /// replica covers the sample budget, rounded up to whole iterations of
    /// its own component.
    pub sources: Vec<(String, u64)>,
    /// Total tokens pushed across all buffers (including dropped commits to
    /// unread buffers), the same currency as the other engines' reports.
    pub tokens: u64,
    /// Wall-clock execution time.
    pub wall: Duration,
    /// Schedule iterations executed (the maximum over components).
    pub iterations: u64,
    /// Buffers that crossed a worker boundary (the only synchronised ones).
    pub cross_buffers: usize,
    /// What the schedule's fusion pass did (zeroes when fusion was off).
    pub fusion: FusionStats,
    /// Mode switches the modal unit executed: for union-advance schedules,
    /// firings whose scripted arm differed from the previous firing's (hot
    /// switches); for mode-dependent schedules, period boundaries where the
    /// executed mode changed. 0 for non-modal schedules and constant
    /// scripts.
    pub mode_switches: u64,
    /// Firings spent crossing mode-switch seams: modal firings whose
    /// scripted arm differed from the period's executing mode (the drain —
    /// a switch requested mid-period takes effect at the next period
    /// boundary). Always 0 for union-advance schedules (hot switching needs
    /// no drain) and non-modal schedules.
    pub transition_firings: u64,
    /// Per-worker event tracks, ring telemetry and compile-phase timing
    /// (`Some` iff [`StaticConfig::trace`]).
    pub trace_report: Option<TraceReport>,
    /// The workers' folded counters and the worst sink drift verdict
    /// (`Some` iff [`StaticConfig::metrics`]).
    pub metrics: Option<MetricsReport>,
}

impl StaticReport {
    /// The collected sample stream of a sink (matched by name fragment).
    pub fn sink_values(&self, name: &str) -> Option<&[f64]> {
        self.sinks
            .iter()
            .find(|s| s.name.contains(name))
            .map(|s| s.values.as_slice())
    }
}

/// An unsynchronised bounded ring for intra-worker buffers: absolute
/// head/tail counters over a power-of-two store, no atomics, no occupancy
/// checks — the schedule validation proves every pop finds a value and
/// every push finds room within the declared capacity.
struct LocalRing {
    buf: Box<[f64]>,
    mask: usize,
    head: usize,
    tail: usize,
}

impl LocalRing {
    fn with_capacity(capacity: usize) -> Self {
        let size = capacity.max(1).next_power_of_two();
        LocalRing {
            buf: vec![0.0; size].into_boxed_slice(),
            mask: size - 1,
            head: 0,
            tail: 0,
        }
    }

    #[inline]
    fn push(&mut self, v: f64) {
        debug_assert!(self.tail - self.head < self.buf.len(), "validated level");
        self.buf[self.tail & self.mask] = v;
        self.tail += 1;
    }

    #[inline]
    fn pop(&mut self) -> f64 {
        debug_assert!(self.head < self.tail, "validated occupancy");
        let v = self.buf[self.head & self.mask];
        self.head += 1;
        v
    }

    fn push_block(&mut self, values: &[f64]) {
        debug_assert!(self.tail - self.head + values.len() <= self.buf.len());
        let at = self.tail & self.mask;
        let first = values.len().min(self.buf.len() - at);
        self.buf[at..at + first].copy_from_slice(&values[..first]);
        self.buf[..values.len() - first].copy_from_slice(&values[first..]);
        self.tail += values.len();
    }

    /// Current occupancy (for trace high-water marks only).
    #[inline]
    fn len(&self) -> usize {
        self.tail - self.head
    }

    fn pop_block(&mut self, n: usize, into: &mut Vec<f64>) {
        debug_assert!(self.tail - self.head >= n, "validated occupancy");
        let at = self.head & self.mask;
        let first = n.min(self.buf.len() - at);
        into.extend_from_slice(&self.buf[at..at + first]);
        into.extend_from_slice(&self.buf[..n - first]);
        self.head += n;
    }
}

/// One buffer endpoint as a worker sees it.
enum Slot {
    /// Not touched by this worker.
    Absent,
    /// Both endpoints on this worker: an unchecked local ring.
    Local(LocalRing),
    /// This worker produces into a cross-worker ring.
    Prod(Producer<f64>),
    /// This worker consumes from a cross-worker ring.
    Cons(Consumer<f64>),
    /// An unread buffer this worker writes: commits are recorded and
    /// dropped.
    Sunk,
}

/// Cross-firing state of one scheduling unit on its worker.
enum UnitState {
    Node {
        /// Node-id of the executed (representative) member.
        node: usize,
        kernel: Kernel,
        /// `(buffer, count)` per read port, in port order.
        reads: Vec<(usize, usize)>,
        writes: Vec<(usize, usize)>,
        /// Inputs per firing (all read ports flattened).
        in_len: usize,
        out_len: usize,
        /// Blocked execution admissible: no buffer is both read and
        /// written. A scheduled run of `k` consecutive firings then
        /// executes as one [`Kernel::fire_block`] call over block-popped
        /// inputs — the validated schedule proves the run's tokens arrive
        /// without its outputs, so gathering them before the pushes is
        /// sound (and bit-identical: per-buffer push/pop orders are
        /// unchanged).
        block: bool,
        fired: u64,
    },
    Source {
        source: usize,
        kernel: SourceKernel,
        outputs: Vec<usize>,
        generated: u64,
    },
    Sink {
        sink: usize,
        input: usize,
        values: Vec<f64>,
        monitor: SinkMonitor,
    },
    /// A **union-advance** modal unit: one arm per cluster member, the
    /// script dispatching per firing. Every firing pops the union of all
    /// members' reads in ascending member order (the schedule admitted
    /// exactly that token flow for every mode), feeds the active arm's
    /// slice to its kernel, and pushes the shared write list. Never uses
    /// the block fast path: the arm may change at any firing. (The modal
    /// unit of a **mode-dependent** schedule fires one fixed member per
    /// mode row; each member is compiled to a [`UnitState::Node`] of its
    /// own and the rows name the one they fire.)
    Modal {
        /// Arms ascending by member node id.
        members: Vec<ModalMember>,
        /// The shared aggregated write list (identical for every member).
        writes: Vec<(usize, usize)>,
        out_len: usize,
        script: ModeScript,
        /// Switch points of `script` already taken: the firings run in
        /// order, so the scripted arm follows by stepping a cursor.
        taken: usize,
        /// The scripted arm of the next firing.
        arm: u32,
        /// Total modal firings (the script's clock).
        fired: u64,
        /// Firings whose arm differed from the previous firing's.
        switches: u64,
    },
}

/// One arm of a union-advance modal unit.
struct ModalMember {
    /// Node id of the member this arm dispatches to.
    node: usize,
    kernel: Kernel,
    /// Aggregated reads in the canonical ascending-buffer order
    /// ([`modal_member_access`]), shared with synthesis and the scripted
    /// self-timed engine so value layouts agree everywhere.
    reads: Vec<(usize, usize)>,
    fired: u64,
}

/// One step of a worker's compiled list.
struct CompiledStep {
    /// Index into the worker's unit-state table.
    unit: u32,
    /// Consecutive firings at this position.
    times: u32,
    /// Iterations of the outer loop that include this step (its
    /// component's covering iteration count).
    iters: u64,
}

/// One stage of a compiled fused run.
struct CompiledStage {
    /// Index into the worker's unit-state table.
    unit: u32,
    /// Firings per run execution (before batching).
    times: u32,
}

/// A compiled fused super-step: the chain executes as one pass over two
/// ping-pong scratch buffers. Only the head's reads and the tail's writes
/// touch real buffer slots; each link's tokens are recorded and counted
/// without ever entering a ring.
struct CompiledFused {
    stages: Vec<CompiledStage>,
    /// Buffer index per stage boundary (`stages.len() - 1` entries).
    links: Vec<usize>,
    /// Iterations of the outer loop that include this run.
    iters: u64,
    /// Consecutive iterations executed back to back when the outer loop
    /// reaches a multiple of this (1 = no batching). Only whole-component
    /// runs batch — their links are scratch and they share no buffer with
    /// any other work item, so concatenating periods is reorder-safe and
    /// hands the block kernels real block sizes.
    batch: u64,
}

/// One item of a worker's compiled list.
enum CompiledWork {
    Step(CompiledStep),
    Fused(CompiledFused),
}

/// One row of a worker's compiled per-mode table: what it executes for a
/// period of the mode.
struct Row {
    items: Vec<CompiledWork>,
    /// Consecutive periods executed as one pass, every item firing that
    /// many periods' worth at once ([`ModeDependent::batch`]: the schedule
    /// proved the scaled list and sized the rings for it). 1 for the single
    /// row of a schedule without per-mode tables.
    ///
    /// [`ModeDependent::batch`]: oil_compiler::schedule::ModeDependent::batch
    batch: u64,
}

/// The buffer plumbing of one worker: endpoint slots plus producer-side
/// recording. Split from the unit table so a unit's state and the buffer
/// I/O can be borrowed mutably at the same time.
struct BufIo {
    slots: Vec<Slot>,
    recorders: Vec<Option<BufferValues>>,
    record_values: bool,
    tokens: u64,
    /// `Some` iff tracing or metrics are on: this worker's counters, wait
    /// statistics and (when tracing) events and ring high-water marks.
    /// Disjoint from `slots`, so wait observation and level notes borrow
    /// alongside the ring endpoints.
    probe: Option<Probe>,
}

/// Run a blocking ring call on buffer `b` with its wait observed by the
/// probe, when there is one (without, the ring skips timing entirely).
#[inline]
fn observed<R>(
    probe: &mut Option<Probe>,
    b: usize,
    call: impl FnOnce(Option<&mut WaitStats>) -> R,
) -> R {
    match probe {
        None => call(None),
        Some(p) => {
            let before = p.wait.wait_ns;
            let r = call(Some(&mut p.wait));
            p.waited(b, before);
            r
        }
    }
}

impl BufIo {
    #[inline]
    fn pop(&mut self, b: usize, abort: &AtomicBool) -> f64 {
        match &mut self.slots[b] {
            Slot::Local(q) => q.pop(),
            Slot::Cons(rx) => observed(&mut self.probe, b, |stats| {
                rx.pop_wait_observed(|| abort.load(Ordering::Relaxed), stats)
            })
            .expect("peer worker aborted mid-schedule"),
            _ => unreachable!("read from a buffer this worker does not consume"),
        }
    }

    #[inline]
    fn push(&mut self, b: usize, value: f64, abort: &AtomicBool) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                r.record(value);
            }
        }
        self.tokens += 1;
        match &mut self.slots[b] {
            Slot::Local(q) => {
                q.push(value);
                if let Some(p) = self.probe.as_mut() {
                    p.note_level(b, || q.len());
                }
            }
            Slot::Prod(tx) => {
                let pushed = observed(&mut self.probe, b, |stats| {
                    tx.push_wait_observed(value, || abort.load(Ordering::Relaxed), stats)
                });
                if pushed.is_err() {
                    panic!("peer worker aborted mid-schedule");
                }
                if let Some(p) = self.probe.as_mut() {
                    // Post-push occupancy: the consumer may already have
                    // drained, so this never over-reports.
                    p.note_level(b, || tx.len());
                }
            }
            Slot::Sunk => {}
            _ => unreachable!("write to a buffer this worker does not produce"),
        }
    }

    /// Pop `n` values into `scratch` (same per-buffer order as `n` single
    /// pops).
    fn pop_block(&mut self, b: usize, n: usize, scratch: &mut Vec<f64>, abort: &AtomicBool) {
        match &mut self.slots[b] {
            Slot::Local(q) => q.pop_block(n, scratch),
            // One block transfer; waits are observed once per block, and
            // not at all when nothing observes them.
            Slot::Cons(rx) => observed(&mut self.probe, b, |stats| {
                rx.pop_slice(n, scratch, || abort.load(Ordering::Relaxed), stats)
            })
            .expect("peer worker aborted mid-schedule"),
            _ => unreachable!("read from a buffer this worker does not consume"),
        }
    }

    /// Commit a fused link's tokens *without* ring traffic: the values are
    /// recorded and counted exactly as a push would, but they stay in the
    /// caller's scratch — the consumer stage reads them from there. The
    /// per-buffer value stream is unchanged because the link held no
    /// standing tokens and its producer's firing order is preserved.
    fn commit_elided(&mut self, b: usize, values: &[f64]) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                for &v in values {
                    r.record(v);
                }
            }
        }
        self.tokens += values.len() as u64;
    }

    /// Push a block of values (same per-buffer order as single pushes).
    fn push_block(&mut self, b: usize, values: &[f64], abort: &AtomicBool) {
        if self.record_values {
            if let Some(r) = self.recorders[b].as_mut() {
                for &v in values {
                    r.record(v);
                }
            }
        }
        self.tokens += values.len() as u64;
        match &mut self.slots[b] {
            Slot::Local(q) => {
                q.push_block(values);
                if let Some(p) = self.probe.as_mut() {
                    p.note_level(b, || q.len());
                }
            }
            Slot::Prod(tx) => {
                observed(&mut self.probe, b, |stats| {
                    tx.push_slice(values, || abort.load(Ordering::Relaxed), stats)
                })
                .expect("peer worker aborted mid-schedule");
                if let Some(p) = self.probe.as_mut() {
                    p.note_level(b, || tx.len());
                }
            }
            Slot::Sunk => {}
            _ => unreachable!("write to a buffer this worker does not produce"),
        }
    }
}

/// Everything one worker owns for the run.
struct Worker {
    /// The compiled per-mode table: one row per mode of a mode-dependent
    /// schedule, a single row otherwise.
    rows: Vec<Row>,
    /// The `(row, periods)` runs to replay, in order: the resolved
    /// [`ModePlan`](oil_compiler::schedule::ModePlan) of a mode-dependent
    /// schedule (shared by every worker, so cross-worker rings line up as
    /// in the validated order), else the one run of covering iterations.
    plan: Arc<Vec<(u32, u64)>>,
    units: Vec<UnitState>,
    io: BufIo,
    scratch: Vec<f64>,
    /// Reused output buffer for kernel calls; doubles as the second
    /// ping-pong scratch of fused runs.
    out_buf: Vec<f64>,
}

/// What one worker hands back.
struct WorkerOut {
    units: Vec<UnitState>,
    recorders: Vec<Option<BufferValues>>,
    tokens: u64,
    probe: Option<Probe>,
}

impl Worker {
    /// The one replay loop: walk the plan's runs; within a run, execute the
    /// row's list once per pass of `batch` periods (period by period while
    /// fewer remain — both forms were replayed by the schedule's proof).
    /// Every list returns every buffer to its initial level, so the passes
    /// simply follow each other, across a mode seam too.
    fn run(mut self, abort: &AtomicBool) -> WorkerOut {
        let io = &mut self.io;
        let scratch = &mut self.scratch;
        let out_buf = &mut self.out_buf;
        let mut prev: Option<u32> = None;
        for &(mode, periods) in self.plan.iter() {
            if let (Some(from), Some(p)) = (prev, io.probe.as_mut()) {
                // The periods abut at a boundary, so the seam span is an
                // empty marker; its arg packs the (from, to) mode pair.
                p.span(EventKind::Seam, (from << 16) | mode, p.now_ns());
                p.instant(EventKind::ModeSwitch, mode);
            }
            prev = Some(mode);
            let row = &self.rows[mode as usize];
            let mut it = 0;
            while it < periods {
                let pass = if periods - it >= row.batch {
                    row.batch
                } else {
                    1
                };
                for work in &row.items {
                    match work {
                        CompiledWork::Step(step) if it < step.iters => {
                            let t0 = io.probe.as_ref().map(Probe::now_ns);
                            let unit = &mut self.units[step.unit as usize];
                            let times = step.times as usize * pass as usize;
                            fire_step(unit, times, io, scratch, out_buf, abort);
                            if let (Some(p), Some(start)) = (io.probe.as_mut(), t0) {
                                p.work(EventKind::Firing, step.unit, start);
                            }
                        }
                        // A whole-component run (single-row tables only)
                        // executes at every `batch`-th iteration, for the
                        // iterations up to the next.
                        CompiledWork::Fused(f)
                            if it < f.iters && (f.batch == 1 || it.is_multiple_of(f.batch)) =>
                        {
                            let t0 = io.probe.as_ref().map(Probe::now_ns);
                            let reps = (pass * f.batch.min(f.iters - it)) as usize;
                            run_fused(f, reps, &mut self.units, io, scratch, out_buf, abort);
                            if let (Some(p), Some(start)) = (io.probe.as_mut(), t0) {
                                p.work(EventKind::SuperStep, f.stages[0].unit, start);
                            }
                        }
                        _ => {}
                    }
                }
                it += pass;
            }
        }
        WorkerOut {
            units: self.units,
            recorders: self.io.recorders,
            tokens: self.io.tokens,
            probe: self.io.probe,
        }
    }
}

/// Fire one unit `times` times in a row (a plain step of a worker's list).
fn fire_step(
    unit: &mut UnitState,
    times: usize,
    io: &mut BufIo,
    scratch: &mut Vec<f64>,
    out_buf: &mut Vec<f64>,
    abort: &AtomicBool,
) {
    match unit {
        UnitState::Node {
            kernel,
            reads,
            writes,
            in_len,
            out_len,
            block,
            fired,
            ..
        } => {
            if *block {
                // One kernel call for the whole scheduled run: gather every
                // firing's inputs (the schedule proved they exist), fire
                // the block, scatter.
                scratch.clear();
                if let [(b, c)] = reads[..] {
                    io.pop_block(b, times * c, scratch, abort);
                } else {
                    for _ in 0..times {
                        for &(b, c) in reads.iter() {
                            for _ in 0..c {
                                scratch.push(io.pop(b, abort));
                            }
                        }
                    }
                }
                out_buf.clear();
                kernel.fire_block_into(scratch, times, *in_len, *out_len, out_buf);
                if let [(b, c)] = writes[..] {
                    debug_assert_eq!(c, *out_len);
                    io.push_block(b, out_buf, abort);
                } else {
                    for j in 0..times {
                        for &(b, c) in writes.iter() {
                            for k in 0..c {
                                let v = out_buf.get(j * *out_len + k).copied();
                                io.push(b, v.unwrap_or(0.0), abort);
                            }
                        }
                    }
                }
            } else {
                for _ in 0..times {
                    scratch.clear();
                    for &(b, c) in reads.iter() {
                        for _ in 0..c {
                            scratch.push(io.pop(b, abort));
                        }
                    }
                    out_buf.clear();
                    kernel.fire_extend(scratch, *out_len, out_buf);
                    for &(b, c) in writes.iter() {
                        for &v in &out_buf[..c] {
                            io.push(b, v, abort);
                        }
                    }
                }
            }
            *fired += times as u64;
        }
        UnitState::Source {
            kernel,
            outputs,
            generated,
            ..
        } => {
            scratch.clear();
            kernel.fill_into(times, scratch);
            for &b in outputs.iter() {
                io.push_block(b, scratch, abort);
            }
            *generated += times as u64;
        }
        UnitState::Sink {
            input,
            values,
            monitor,
            ..
        } => {
            for _ in 0..times {
                let v = io.pop(*input, abort);
                monitor.record(1);
                if values.len() < SINK_STREAM_CAP {
                    values.push(v);
                }
            }
        }
        UnitState::Modal {
            members,
            writes,
            out_len,
            script,
            taken,
            arm,
            fired,
            switches,
        } => {
            for _ in 0..times {
                let last = *arm;
                while let Some(&(_, next)) = script.switches.get(*taken).filter(|p| p.0 <= *fired) {
                    (*arm, *taken) = (next.min(members.len() as u32 - 1), *taken + 1);
                }
                if *fired > 0 && *arm != last {
                    *switches += 1;
                    if let Some(p) = io.probe.as_mut() {
                        p.instant(EventKind::ModeSwitch, *arm);
                    }
                }
                // Union-advance: pop every member's inputs in ascending
                // member order; the active arm's slice feeds its kernel,
                // the rest is mode-gated traffic consumed and discarded.
                scratch.clear();
                let (mut start, mut len) = (0usize, 0usize);
                for (k, m) in members.iter().enumerate() {
                    if k as u32 == *arm {
                        start = scratch.len();
                    }
                    for &(b, c) in &m.reads {
                        for _ in 0..c {
                            scratch.push(io.pop(b, abort));
                        }
                    }
                    if k as u32 == *arm {
                        len = scratch.len() - start;
                    }
                }
                let active = &mut members[*arm as usize];
                out_buf.clear();
                let inputs = &scratch[start..start + len];
                active.kernel.fire_extend(inputs, *out_len, out_buf);
                for &(b, c) in writes.iter() {
                    for &v in &out_buf[..c] {
                        io.push(b, v, abort);
                    }
                }
                active.fired += 1;
                *fired += 1;
            }
        }
    }
}

/// Execute one fused super-step (`reps` concatenated iterations of it) as a
/// single pass over two ping-pong scratch buffers.
///
/// Stage `i + 1` consumes exactly the slice stage `i` produced: the link
/// tokens are recorded and counted ([`BufIo::commit_elided`]) but never
/// enter a ring and never allocate. Only the head's reads (the schedule
/// proved the tokens exist up front) and the tail's writes touch real
/// buffer slots — per-buffer push/pop orders, and therefore every value
/// stream, are bit-identical to the unfused replay.
#[allow(clippy::too_many_arguments)]
fn run_fused(
    f: &CompiledFused,
    reps: usize,
    units: &mut [UnitState],
    io: &mut BufIo,
    scratch: &mut Vec<f64>,
    out_buf: &mut Vec<f64>,
    abort: &AtomicBool,
) {
    let last = f.stages.len() - 1;
    let mut cur: &mut Vec<f64> = scratch;
    let mut nxt: &mut Vec<f64> = out_buf;
    for (si, stage) in f.stages.iter().enumerate() {
        let times = stage.times as usize * reps;
        match &mut units[stage.unit as usize] {
            UnitState::Source {
                kernel,
                outputs,
                generated,
                ..
            } => {
                debug_assert!(si == 0, "a source can only head a fused run");
                debug_assert_eq!(outputs.len(), 1, "fused heads have a single write");
                nxt.clear();
                kernel.fill_into(times, nxt);
                *generated += times as u64;
            }
            UnitState::Node {
                kernel,
                reads,
                writes,
                in_len,
                out_len,
                fired,
                ..
            } => {
                if si == 0 {
                    // Gather the head's inputs from its real buffers.
                    cur.clear();
                    if let [(b, c)] = reads[..] {
                        io.pop_block(b, times * c, cur, abort);
                    } else {
                        for _ in 0..times {
                            for &(b, c) in reads.iter() {
                                for _ in 0..c {
                                    cur.push(io.pop(b, abort));
                                }
                            }
                        }
                    }
                }
                nxt.clear();
                kernel.fire_block_into(cur, times, *in_len, *out_len, nxt);
                *fired += times as u64;
                if si == last {
                    // Scatter the tail's outputs to its real buffers.
                    if let [(b, c)] = writes[..] {
                        debug_assert_eq!(c, *out_len);
                        io.push_block(b, nxt, abort);
                    } else {
                        for j in 0..times {
                            for &(b, c) in writes.iter() {
                                for k in 0..c {
                                    let v = nxt.get(j * *out_len + k).copied();
                                    io.push(b, v.unwrap_or(0.0), abort);
                                }
                            }
                        }
                    }
                }
            }
            UnitState::Modal { .. } => {
                unreachable!("union-advance modal units are excluded from fusion at synthesis")
            }
            UnitState::Sink {
                values, monitor, ..
            } => {
                debug_assert!(si == last && si > 0, "a sink can only tail a fused run");
                debug_assert_eq!(cur.len(), times, "the link carried the sink's reads");
                monitor.record(cur.len() as u64);
                if values.len() < SINK_STREAM_CAP {
                    let take = (SINK_STREAM_CAP - values.len()).min(cur.len());
                    values.extend_from_slice(&cur[..take]);
                }
            }
        }
        if si != last {
            io.commit_elided(f.links[si], nxt);
            std::mem::swap(&mut cur, &mut nxt);
        }
    }
}

/// Execute `graph` by replaying the synthesised static-order `schedule`:
/// each source covers at least the sample budget of `duration` picoseconds
/// of virtual time (the count the simulator would emit, rounded up to whole
/// schedule iterations), and the engine returns once every worker has
/// replayed its covering iterations.
///
/// # Panics
/// Panics if `schedule` was synthesised for a different graph, or if a
/// kernel panics on a worker (the abort flag unblocks the peers, then the
/// panic propagates).
///
/// Modal schedules run the default [`ModeScript`] (arm 0 forever); use
/// [`execute_staticsched_scripted`] to inject mode changes.
pub fn execute_staticsched(
    graph: &RtGraph,
    schedule: &StaticSchedule,
    lib: &KernelLibrary,
    duration: Picos,
    config: &StaticConfig,
) -> StaticReport {
    execute_staticsched_scripted(
        graph,
        schedule,
        &ModeScript::default(),
        lib,
        duration,
        config,
    )
}

/// [`execute_staticsched`] with a scripted mode-change sequence.
///
/// For a **union-advance** schedule the modal unit (if any) consults
/// `script` at every firing and dispatches that arm's kernel — switching
/// **without draining the pipeline**, because the schedule's token flow is
/// mode-independent and every (mode, mode') seam was re-proven by exact
/// replay at synthesis ([`StaticSchedule::validate_transitions`]).
///
/// For a **mode-dependent** schedule the script is first resolved into a
/// [`ModePlan`]: each executed period runs one mode's verified fused list
/// (consecutive periods of one mode in batches), a requested switch takes
/// effect at the next period boundary (the old period's trailing firings
/// are the *drain*, reported as [`StaticReport::transition_firings`] — the
/// plan counts them, and the switches, from the switch points that fall
/// inside each run; no firing looks the script up); the next period
/// follows directly, since every period is level-preserving.
///
/// Non-modal schedules ignore the script.
///
/// # Panics
/// Panics (loudly, before executing anything) when the script selects an
/// arm the schedule does not have.
pub fn execute_staticsched_scripted(
    graph: &RtGraph,
    schedule: &StaticSchedule,
    script: &ModeScript,
    lib: &KernelLibrary,
    duration: Picos,
    config: &StaticConfig,
) -> StaticReport {
    assert_eq!(
        schedule.producer_unit.len(),
        graph.buffers.len(),
        "schedule/graph mismatch"
    );
    if let Some(modes) = schedule.modes.as_ref() {
        script
            .validate(modes)
            .unwrap_or_else(|e| panic!("invalid mode script: {e}"));
    }
    let started = Instant::now();
    let threads = schedule.worker_count();
    let n_buffers = graph.buffers.len();

    // --- Source budgets (the simulator's horizon count) and the covering
    // iteration count per component.
    let budgets = crate::exec::source_budgets(graph, duration);
    // A mode-dependent schedule replays the resolved mode plan instead of
    // a fixed covering-iteration count per component.
    let dependent = schedule.modes.as_ref().and_then(|m| m.dependent.as_ref());
    let plan = dependent.map(|dep| {
        let rates = dep.rates(&schedule.units, graph);
        plan_mode_sequence(&rates, script, |id| budgets[id.index()])
    });
    let component_iters = if plan.is_none() {
        schedule.covering_iterations(graph, |id| budgets[id.index()])
    } else {
        Vec::new()
    };
    let iterations = plan
        .as_ref()
        .map(ModePlan::periods)
        .unwrap_or_else(|| component_iters.iter().copied().max().unwrap_or(0));
    // Switches and drain firings of a mode-dependent run follow from the
    // plan alone; a union-advance modal unit counts its own hot switches.
    let (mut mode_switches, transition_firings) = plan
        .as_ref()
        .map_or((0, 0), |p| (p.mode_switches, p.transition_firings));
    let mode_runs = plan.map(|p| Arc::new(p.runs));

    // --- Per-buffer placement: the worker of each endpoint decides the
    // backing (local deque, cross-worker ring, or record-and-drop).
    let unit_worker = |u: Option<u32>| u.map(|u| schedule.units[u as usize].worker);
    // Every ring — local deque or crossing — is sized to the level the
    // schedule's cooperative replay proved sufficient: a fused run or a
    // coalesced step moves a whole period's tokens where the admitted
    // period moved a burst. The declared (CTA) capacity stays the floor.
    let sized: Vec<usize> = graph
        .buffers
        .iter_enumerated()
        .map(|(bi, b)| {
            let declared = b.capacity.max(b.initial_tokens).max(1);
            declared.max(schedule.level_max[bi] as usize)
        })
        .collect();
    let mut worker_slots: Vec<Vec<Slot>> = (0..threads)
        .map(|_| (0..n_buffers).map(|_| Slot::Absent).collect())
        .collect();
    let mut recorders: Vec<Option<BufferValues>> = Vec::with_capacity(n_buffers);
    let mut setup_tokens = 0u64;
    for (i, b) in graph.buffers.iter().enumerate() {
        let mut recorder = BufferValues {
            name: b.name.clone(),
            ..Default::default()
        };
        for _ in 0..b.initial_tokens {
            recorder.record(0.0);
            setup_tokens += 1;
        }
        let bi = oil_compiler::rtgraph::RtBufferId::new(i);
        let pw = unit_worker(schedule.producer_unit[bi]);
        let cw = unit_worker(schedule.consumer_unit[bi]);
        match (pw, cw) {
            (Some(p), None) => {
                // Unread: record-and-drop on the producer's worker.
                worker_slots[p][i] = Slot::Sunk;
            }
            (Some(p), Some(c)) if p == c => {
                let mut q = LocalRing::with_capacity(sized[i]);
                for _ in 0..b.initial_tokens {
                    q.push(0.0);
                }
                worker_slots[p][i] = Slot::Local(q);
            }
            (Some(p), Some(c)) => {
                let (mut tx, rx) = ring::spsc::<f64>(sized[i]);
                for _ in 0..b.initial_tokens {
                    tx.push(0.0).expect("initial tokens fit the capacity");
                }
                worker_slots[p][i] = Slot::Prod(tx);
                worker_slots[c][i] = Slot::Cons(rx);
            }
            (None, Some(c)) => {
                // Only initial tokens ever occupy it (validation bounds the
                // consumer's reads to those).
                let mut q = LocalRing::with_capacity(sized[i]);
                for _ in 0..b.initial_tokens {
                    q.push(0.0);
                }
                worker_slots[c][i] = Slot::Local(q);
            }
            (None, None) => {}
        }
        recorders.push(Some(recorder));
    }

    // --- Compile each worker's unit table and step list.
    let mut workers: Vec<Worker> = Vec::with_capacity(threads);
    // unit id -> (worker, local index); the modal unit of a mode-dependent
    // schedule is compiled to one node per member, mode `m`'s at `index + m`.
    let mut unit_home: Vec<(usize, u32)> = vec![(0, 0); schedule.units.len()];
    let mut worker_units: Vec<Vec<UnitState>> = (0..threads).map(|_| Vec::new()).collect();
    // Per worker, the display label of each local unit (trace attribution).
    let mut worker_labels: Vec<Vec<String>> = (0..threads).map(|_| Vec::new()).collect();
    let ports = |list: &[(oil_compiler::rtgraph::RtBufferId, usize)]| -> Vec<(usize, usize)> {
        list.iter().map(|&(b, c)| (b.index(), c)).collect()
    };
    let node_state = |id: oil_compiler::rtgraph::RtNodeId,
                      reads: Vec<(usize, usize)>,
                      writes: Vec<(usize, usize)>| {
        let block = reads
            .iter()
            .all(|&(b, _)| writes.iter().all(|&(wb, _)| wb != b));
        UnitState::Node {
            node: id.index(),
            kernel: lib.instantiate(&graph.nodes[id].function),
            in_len: reads.iter().map(|&(_, c)| c).sum(),
            out_len: writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
            reads,
            writes,
            block,
            fired: 0,
        }
    };
    for (u, unit) in schedule.units.iter().enumerate() {
        let w = unit.worker;
        unit_home[u] = (w, worker_units[w].len() as u32);
        let mut push = |state: UnitState, label: &dyn Fn() -> String| {
            worker_units[w].push(state);
            if config.trace {
                worker_labels[w].push(label());
            }
        };
        match &unit.kind {
            UnitKind::Node(id) => {
                let n = &graph.nodes[*id];
                let state = node_state(*id, ports(&n.reads), ports(&n.writes));
                push(state, &|| unit_label(graph, [*id], false));
            }
            UnitKind::Cluster {
                representative: id,
                members,
            } => {
                let n = &graph.nodes[*id];
                let state = node_state(*id, ports(&n.reads), ports(&n.writes));
                push(state, &|| unit_label(graph, members.iter().copied(), false));
            }
            // One generator per unit: a replica regenerates the source's
            // pure sequence for its own buffer.
            UnitKind::Source { source, replica } => {
                let s = &graph.sources[*source];
                let outputs = unit.kind.source_outputs(graph);
                let state = UnitState::Source {
                    source: source.index(),
                    kernel: lib.instantiate_source(&s.function),
                    outputs: outputs.iter().map(|b| b.index()).collect(),
                    generated: 0,
                };
                push(state, &|| match replica {
                    Some(b) => format!("{}[{}]", s.name, graph.buffers[*b].name),
                    None => s.name.clone(),
                });
            }
            UnitKind::Sink(id) => {
                let s = &graph.sinks[*id];
                let state = UnitState::Sink {
                    sink: id.index(),
                    input: s.input.index(),
                    values: Vec::new(),
                    monitor: SinkMonitor::new(
                        s.name.clone(),
                        s.period.recip().to_f64(),
                        config.warmup_samples,
                        config.metrics,
                    ),
                };
                push(state, &|| s.name.clone());
            }
            // Mode-dependent: a row fires one fixed member, moving exactly
            // that member's aggregated access lists — a node like any other.
            UnitKind::Modal { members } if dependent.is_some() => {
                for &m in members {
                    let (reads, writes) = modal_member_access(graph, m);
                    let state = node_state(m, ports(&reads), ports(&writes));
                    push(state, &|| unit_label(graph, [m], true));
                }
            }
            UnitKind::Modal { members } => {
                let arms: Vec<ModalMember> = members
                    .iter()
                    .map(|&m| ModalMember {
                        node: m.index(),
                        kernel: lib.instantiate(&graph.nodes[m].function),
                        reads: ports(&modal_member_access(graph, m).0),
                        fired: 0,
                    })
                    .collect();
                let writes = ports(&modal_member_access(graph, members[0]).1);
                let state = UnitState::Modal {
                    out_len: writes.iter().map(|&(_, c)| c).max().unwrap_or(0),
                    arm: script.initial.min(arms.len() as u32 - 1),
                    members: arms,
                    writes,
                    script: script.clone(),
                    taken: 0,
                    fired: 0,
                    switches: 0,
                };
                push(state, &|| unit_label(graph, members.iter().copied(), true));
            }
        }
    }
    let modal_unit = schedule.modes.as_ref().map(|m| m.unit);
    for (w, (units, mut slots)) in worker_units
        .into_iter()
        .zip(std::mem::take(&mut worker_slots))
        .enumerate()
    {
        // Hand each producer-side recorder to its worker.
        let mut recs: Vec<Option<BufferValues>> = (0..n_buffers).map(|_| None).collect();
        for (i, slot) in slots.iter_mut().enumerate() {
            let produces = matches!(slot, Slot::Local(_) | Slot::Prod(_) | Slot::Sunk);
            let bi = oil_compiler::rtgraph::RtBufferId::new(i);
            let is_producer = unit_worker(schedule.producer_unit[bi]) == Some(w);
            if produces && is_producer {
                recs[i] = recorders[i].take();
            }
        }
        // Tokens one stage moves per run execution: sizes the batching so
        // scratch stays cache-friendly.
        let stage_tokens = |s: &oil_compiler::schedule::Step| -> u64 {
            let width = match &units[unit_home[s.unit as usize].1 as usize] {
                UnitState::Node {
                    in_len, out_len, ..
                } => (*in_len).max(*out_len).max(1),
                UnitState::Source { .. } | UnitState::Sink { .. } => 1,
                // A union-advance modal unit never fuses, so it never sizes
                // a batch.
                UnitState::Modal { .. } => 1,
            };
            s.times as u64 * width as u64
        };
        // One row per mode of a mode-dependent schedule — its items run in
        // every period of the plan's runs, batched by the row's proven
        // factor — else the single row, whose items run their component's
        // covering iterations, whole-component runs batching on their own.
        let compile_row = |items: &[WorkItem], mode: Option<usize>| -> Vec<CompiledWork> {
            let local = |unit: u32| {
                let member = mode.filter(|_| Some(unit) == modal_unit).unwrap_or(0);
                unit_home[unit as usize].1 + member as u32
            };
            let iters = |unit: u32| match mode {
                Some(_) => u64::MAX,
                None => component_iters[schedule.units[unit as usize].component as usize],
            };
            items
                .iter()
                .map(|item| match item {
                    WorkItem::Step(s) => CompiledWork::Step(CompiledStep {
                        unit: local(s.unit),
                        times: s.times,
                        iters: iters(s.unit),
                    }),
                    WorkItem::Fused(run) => {
                        let batch = if run.batch && mode.is_none() {
                            let widest = run.stages.iter().map(&stage_tokens).max().unwrap_or(1);
                            (FUSED_BATCH_TOKENS / widest.max(1)).clamp(1, FUSED_BATCH_MAX)
                        } else {
                            1
                        };
                        CompiledWork::Fused(CompiledFused {
                            stages: run
                                .stages
                                .iter()
                                .map(|s| CompiledStage {
                                    unit: local(s.unit),
                                    times: s.times,
                                })
                                .collect(),
                            links: run.links.iter().map(|b| b.index()).collect(),
                            iters: iters(run.stages[0].unit),
                            batch,
                        })
                    }
                })
                .collect()
        };
        let (rows, plan) = match (dependent, &mode_runs) {
            (Some(dep), Some(runs)) => {
                let rows = dep.fused.iter().zip(&dep.batch).enumerate();
                let row = |(mode, (lists, &batch)): (usize, (&Vec<Vec<WorkItem>>, &u32))| Row {
                    items: compile_row(&lists[w], Some(mode)),
                    batch: batch as u64,
                };
                (rows.map(row).collect(), Arc::clone(runs))
            }
            _ => {
                let items = compile_row(&schedule.fused_workers[w], None);
                let max_iters = items.iter().map(|s| match s {
                    CompiledWork::Step(s) => s.iters,
                    CompiledWork::Fused(f) => f.iters,
                });
                let plan = Arc::new(vec![(0, max_iters.max().unwrap_or(0))]);
                (vec![Row { items, batch: 1 }], plan)
            }
        };
        workers.push(Worker {
            rows,
            plan,
            units,
            io: BufIo {
                slots,
                recorders: recs,
                record_values: config.record_values,
                tokens: 0,
                // All probes share one epoch so the merged tracks align.
                probe: (config.trace || config.metrics.is_some())
                    .then(|| Probe::new(started, n_buffers, config.trace)),
            },
            scratch: Vec::new(),
            out_buf: Vec::new(),
        });
    }

    // --- Run. No coordination beyond the cross-worker rings: each worker
    // replays its covering iterations and returns. The abort flag exists
    // only to unblock peers when a worker panics.
    let abort = Arc::new(AtomicBool::new(false));
    let outs: Vec<WorkerOut> = if threads == 1 {
        let worker = workers.pop().expect("one worker");
        vec![worker.run(&abort)]
    } else {
        let handles: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, worker)| {
                let abort = Arc::clone(&abort);
                std::thread::Builder::new()
                    .name(format!("oil-rt-static-{w}"))
                    .spawn(move || {
                        struct AbortOnPanic(Arc<AtomicBool>);
                        impl Drop for AbortOnPanic {
                            fn drop(&mut self) {
                                if std::thread::panicking() {
                                    self.0.store(true, Ordering::SeqCst);
                                }
                            }
                        }
                        let _guard = AbortOnPanic(Arc::clone(&abort));
                        worker.run(&abort)
                    })
                    .expect("spawning a static-order worker thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("static-order worker panicked"))
            .collect()
    };

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
    let mut throughput: Vec<Option<SinkMonitor>> = (0..graph.sinks.len()).map(|_| None).collect();
    let mut probes = Vec::with_capacity(threads);
    for out in outs {
        probes.extend(out.probe);
        tokens += out.tokens;
        for (b, r) in out.recorders.into_iter().enumerate() {
            if let Some(r) = r {
                recorders[b] = Some(r);
            }
        }
        for unit in out.units {
            match unit {
                UnitState::Node { node, fired, .. } => node_firings[node].1 = fired,
                UnitState::Source {
                    source, generated, ..
                } => {
                    let samples = &mut source_samples[source].1;
                    *samples = (*samples).max(generated);
                }
                UnitState::Sink {
                    sink,
                    values,
                    mut monitor,
                    ..
                } => {
                    monitor.finish();
                    sinks[sink] = Some(SinkStream {
                        name: monitor.name.clone(),
                        consumed: monitor.samples,
                        misses: 0,
                        max_latency: 0.0,
                        values,
                    });
                    throughput[sink] = Some(monitor);
                }
                UnitState::Modal {
                    members, switches, ..
                } => {
                    for m in members {
                        node_firings[m.node].1 = m.fired;
                    }
                    mode_switches += switches;
                }
            }
        }
    }
    let throughput: Vec<SinkMonitor> = throughput
        .into_iter()
        .map(|t| t.expect("every sink is a scheduled unit"))
        .collect();
    let metrics =
        (config.metrics).map(|_| MetricsReport::fold("staticsched", &probes, &throughput));
    let trace_report = config.trace.then(|| {
        let (mut tr, ring_hw) = TraceReport::fold("staticsched", probes, worker_labels);
        let mut crossing = vec![false; n_buffers];
        for &b in &schedule.cross_buffers {
            crossing[b.index()] = true;
        }
        tr.rings = graph
            .buffers
            .iter()
            .enumerate()
            .map(|(i, b)| RingStat {
                name: b.name.clone(),
                // The bound the ring was actually sized to.
                capacity: sized[i],
                // Initial tokens occupy the ring before any traced push.
                highwater: (ring_hw[i] as usize).max(b.initial_tokens),
                crossing: crossing[i],
            })
            .collect();
        tr.phases = schedule
            .phases
            .iter()
            .map(|p| (p.name.to_string(), p.dur_ns))
            .collect();
        tr
    });
    StaticReport {
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
            .map(|s| s.expect("every sink is a scheduled unit"))
            .collect(),
        throughput,
        node_firings,
        sources: source_samples,
        tokens,
        wall: started.elapsed(),
        iterations,
        cross_buffers: schedule.cross_buffers.len(),
        fusion: schedule.fusion,
        mode_switches,
        transition_firings,
        trace_report,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selftimed::{execute_selftimed, SelfTimedConfig};
    use oil_compiler::schedule::{synthesize, SynthesisConfig};
    use oil_compiler::{build, rtgraph, Executable};
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};
    use oil_sim::picos;

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

    /// `src` built through the front door for `workers` workers.
    fn built(src: &str, workers: usize) -> Executable {
        let mut registry = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            registry.register(FunctionSignature::pure(f, 1e-5));
        }
        build(src, &registry, workers, &SynthesisConfig::from_env()).expect("schedulable")
    }

    #[test]
    fn selftimed_streams_are_a_prefix_of_the_static_replay() {
        let Executable { graph, plan, .. } = built(PIPELINE, 1);
        let reference = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.1),
            &SelfTimedConfig {
                threads: 1,
                ..SelfTimedConfig::default()
            },
        );
        assert!(!reference.deadlocked);
        for workers in [1, 2, 4] {
            let Executable {
                graph, schedule, ..
            } = built(PIPELINE, workers);
            let report = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            );
            assert_eq!(
                reference.values.prefix_divergence(&report.values),
                None,
                "workers={workers}"
            );
            let (cal, fre) = (&reference.sinks[0], &report.sinks[0]);
            let shared = cal.values.len().min(fre.values.len());
            assert_eq!(cal.values[..shared], fre.values[..shared]);
            assert!(fre.consumed >= cal.consumed, "workers={workers}");
        }
    }

    #[test]
    fn static_replay_is_worker_count_invariant() {
        let run = |workers: usize| {
            let Executable {
                graph, schedule, ..
            } = built(PIPELINE, workers);
            execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            )
        };
        let base = run(1);
        assert!(base.iterations > 0);
        for workers in [2, 3, 4] {
            let other = run(workers);
            assert_eq!(base.values.first_divergence(&other.values), None);
            assert_eq!(base.node_firings, other.node_firings);
            assert_eq!(base.sources, other.sources);
            for (a, b) in base.sinks.iter().zip(&other.sinks) {
                assert_eq!(a.consumed, b.consumed);
                assert_eq!(a.values, b.values);
            }
        }
    }

    #[test]
    fn modal_clusters_replay_their_quasi_static_resolution() {
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
        let Executable { graph, plan, .. } = built(src, 1);
        assert!(!plan.is_kpn_safe(), "the scenario under test is modal");
        let reference = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::new(),
            picos(0.1),
            &SelfTimedConfig {
                threads: 1,
                ..SelfTimedConfig::default()
            },
        );
        for workers in [1, 2] {
            let schedule = built(src, workers).schedule;
            let report = execute_staticsched(
                &graph,
                &schedule,
                &KernelLibrary::new(),
                picos(0.1),
                &StaticConfig::default(),
            );
            // Both engines always select the lowest-id twin, so even the
            // "schedule-dependent" streams match bit for bit.
            assert_eq!(
                reference.values.prefix_divergence(&report.values),
                None,
                "workers={workers}"
            );
            // The starved twin reports zero firings in both engines.
            let starved_ref: Vec<_> = reference
                .node_firings
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(name, _)| name.clone())
                .collect();
            let starved_static: Vec<_> = report
                .node_firings
                .iter()
                .filter(|(_, n)| *n == 0)
                .map(|(name, _)| name.clone())
                .collect();
            assert_eq!(starved_ref, starved_static);
        }
    }

    #[test]
    fn sources_cover_their_budget_rounded_to_whole_iterations() {
        let Executable {
            graph, schedule, ..
        } = built(PIPELINE, 1);
        // 0.0105 s at 2 kHz = 21 samples; q(source) = 2 ⇒ 11 iterations,
        // 22 samples.
        let report = execute_staticsched(
            &graph,
            &schedule,
            &KernelLibrary::new(),
            picos(0.0105),
            &StaticConfig::default(),
        );
        assert_eq!(report.iterations, 11);
        assert_eq!(report.sources[0].1, 22);
        assert_eq!(report.sinks[0].consumed, 11);
    }

    #[test]
    fn a_panicking_kernel_aborts_the_run_instead_of_hanging() {
        let Executable {
            graph, schedule, ..
        } = built(PIPELINE, 2);
        let mut lib = KernelLibrary::new();
        lib.register(
            "f",
            Box::new(|| Kernel::Custom(Box::new(|_, _| panic!("injected kernel failure")))),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_staticsched(
                &graph,
                &schedule,
                &lib,
                picos(0.1),
                &StaticConfig::default(),
            )
        }));
        assert!(result.is_err(), "the kernel panic must propagate");

        // The same inside a fused row of a mode-dependent schedule: the
        // modal member's run on one worker, and a run whose peer worker
        // sits in a blocking pop behind it.
        let scenario = oil_gen::ModeDependentScenario::generate(1);
        let graph = &scenario.graph;
        for (workers, function) in [(1, "arm0"), (2, "front0")] {
            let schedule = synthesize(graph, &rtgraph::plan(graph), workers, &fused_on()).unwrap();
            let rows = &schedule
                .modes
                .as_ref()
                .unwrap()
                .dependent
                .as_ref()
                .unwrap()
                .fused;
            let node = graph
                .nodes
                .indices()
                .find(|&n| graph.nodes[n].function == function);
            let node = node.expect("the scenario has the node");
            let fires = |u: &oil_compiler::schedule::ScheduleUnit| match &u.kind {
                UnitKind::Node(n) => *n == node,
                UnitKind::Modal { members } => members.contains(&node),
                _ => false,
            };
            let unit = schedule.units.iter().position(fires).expect("scheduled") as u32;
            let in_a_run = rows[0].iter().flatten().any(|item| match item {
                WorkItem::Fused(run) => run.stages.iter().any(|s| s.unit == unit),
                WorkItem::Step(_) => false,
            });
            assert!(in_a_run, "`{function}` fires inside a fused run of mode 0");
            let mut lib = KernelLibrary::new();
            lib.register(
                function,
                Box::new(|| Kernel::Custom(Box::new(|_, _| panic!("injected kernel failure")))),
            );
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute_staticsched_scripted(
                    graph,
                    &schedule,
                    &ModeScript::new(0, vec![(40, 1)]),
                    &lib,
                    picos(0.1),
                    &StaticConfig::default(),
                )
            }));
            assert!(
                result.is_err(),
                "{workers} worker(s): the panic must propagate"
            );
        }
    }

    fn fused_on() -> SynthesisConfig {
        SynthesisConfig {
            fusion: true,
            ..SynthesisConfig::default()
        }
    }
}
