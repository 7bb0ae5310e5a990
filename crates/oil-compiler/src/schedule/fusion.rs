//! The fusion pass: super-step coalescing of each worker's firing list.

use super::ledger::{engine_capacities, Ledger, Levels, UnitAccess};
use super::model::{FusedRun, FusionStats, ScheduleUnit, Step, UnitKind, WorkItem};
use super::order::UnitOf;
use crate::rtgraph::{RtBufferId, RtGraph};
use oil_dataflow::index::IndexVec;

/// Hard cap on tokens flowing through one stage of one fused run: bounds
/// the scratch window the executor allocates (8 MiB of f64 per worker).
const MAX_FUSED_STAGE_TOKENS: u64 = 1 << 20;

/// True when the fusion pass is enabled for [`synthesize`](super::synthesize) (default on;
/// `OIL_RT_FUSION=0` disables it, `OIL_RT_FUSION=1` enables it).
///
/// Any other value is a **loud error**: a typoed override that silently
/// fell back to the default would make a fusion-off CI leg silently test
/// the fusion-on path (the same discipline `OIL_RT_CONFORMANCE` and
/// `OIL_RT_THREADS` follow).
pub fn fusion_enabled() -> bool {
    match std::env::var("OIL_RT_FUSION") {
        Err(_) => true,
        Ok(raw) => parse_fusion(&raw),
    }
}

/// Parse an `OIL_RT_FUSION` override. Split from [`fusion_enabled`] so the
/// rejection path is testable without mutating the process environment
/// (tests run concurrently; `set_var` would race).
pub fn parse_fusion(raw: &str) -> bool {
    match raw.trim() {
        // Set-but-empty behaves as unset (shells produce this easily).
        "" => true,
        "0" => false,
        "1" => true,
        other => panic!(
            "OIL_RT_FUSION must be 0 or 1 (or unset), got `{other}` — \
             refusing to guess which fusion mode you meant"
        ),
    }
}

/// Per buffer: the worker every existing endpoint lives on, when they all
/// agree (`None` for cross-worker buffers and endpoint-less buffers).
fn confined_worker(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
) -> IndexVec<RtBufferId, Option<usize>> {
    graph
        .buffers
        .indices()
        .map(|b| match (producer_unit[b], consumer_unit[b]) {
            (Some(p), Some(c)) => {
                let (pw, cw) = (units[p as usize].worker, units[c as usize].worker);
                (pw == cw).then_some(pw)
            }
            (Some(p), None) => Some(units[p as usize].worker),
            (None, Some(c)) => Some(units[c as usize].worker),
            (None, None) => None,
        })
        .collect::<Vec<_>>()
        .into()
}

/// What the fusion pass knows about the schedule it rewrites.
struct Context<'a> {
    graph: &'a RtGraph,
    access: &'a [UnitAccess],
    units: &'a [ScheduleUnit],
    producer_unit: &'a UnitOf,
    consumer_unit: &'a UnitOf,
    confined: IndexVec<RtBufferId, Option<usize>>,
    /// `access` is one mode's row of a mode-dependent table: every firing of
    /// the modal unit in it runs the same member, so the unit may chain.
    modal_fuses: bool,
}

/// The fusion pass: rewrite each worker's firing list, coalescing each
/// maximal producer→consumer chain's *entire period* of firings into one
/// [`FusedRun`] super-step.
///
/// A link edge `u → v` is fusable when `u`'s only write is the link, `v`'s
/// only read is the link, both units live on the worker, and the link
/// holds no initial tokens; chains are the maximal paths of that
/// (functional) edge relation. A chain runs *up to* a worker cut, not
/// across it: its head may read, and its tail may write, a buffer that
/// crosses to another worker. Each chain's run fires every stage its full
/// per-period repetition count, so the CTA-sized burst interleaving the
/// admission loop produced (often 3–5 firings per step) collapses to one
/// pass per stage. The run is *placed* at the earliest point of the
/// remaining plain-step list where the head's whole-period inputs from
/// this worker have accumulated — deferring the chain units' earlier
/// firings and hoisting their later ones — and the plain steps the folded
/// firings used to separate coalesce (a node feeding two chains becomes
/// one whole-period step). Per-unit firing order and per-buffer push/pop
/// value order are unchanged, so every value stream is bit-identical; the
/// reorder is visible solely through token levels and through *when* a
/// worker waits for another.
///
/// Both are settled by running all workers' lists side by side
/// ([`Ledger::replay_cooperative`]): [`StaticSchedule::level_max`] takes
/// the levels that replay reaches, floored at the CTA capacities — a ring
/// that carries a whole period per transfer needs the period's tokens, not
/// a burst's. A chain whose deferral would starve a plain step or another
/// chain of its worker is dropped back to plain steps and the placement
/// restarts without it; if the workers' lists starve *each other*, the run
/// (or, failing that, the coalesced list) of a stalled worker is dropped
/// the same way, down to the plain projections, which the admitted period
/// proves complete.
///
/// The pass runs once per row of the per-mode table, on the row's
/// projections under the row's access lists. `modal_fuses` says the row is
/// one mode of a mode-dependent table, where the modal unit fires one fixed
/// member and chains like a node; in the one all-modes row of a
/// union-advance schedule its arm may change at any firing, and it stays a
/// plain step.
pub(super) fn fuse_workers(
    graph: &RtGraph,
    access: &[UnitAccess],
    units: &[ScheduleUnit],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
    worker_lists: &[Vec<Step>],
    modal_fuses: bool,
) -> (Vec<Vec<WorkItem>>, FusionStats, Levels) {
    let cx = Context {
        graph,
        access,
        units,
        producer_unit,
        consumer_unit,
        confined: confined_worker(graph, units, producer_unit, consumer_unit),
        modal_fuses,
    };
    let capacity = engine_capacities(graph);
    let mut level_max = capacity.clone();
    let mut workers: Vec<WorkerFusion<'_>> = (worker_lists.iter().enumerate())
        .map(|(w, steps)| WorkerFusion::new(&cx, w, steps))
        .collect();
    let mut lists: Vec<Vec<WorkItem>> = (workers.iter_mut())
        .map(|w| w.place(&cx, &mut level_max))
        .collect();
    // Settle the lists against each other, sizing the crossing rings on
    // the way.
    let level_max = loop {
        let mut sized = level_max.clone();
        let mut ledger = Ledger::new(graph, |b| consumer_unit[b].is_some());
        let Err(stalls) = ledger.replay_cooperative(access, &lists, &mut sized, true) else {
            break sized;
        };
        // Somebody waits for tokens that cannot come before it moves: undo
        // a coalescing — the run a stalled worker sits at, else the whole
        // rewrite of a worker, a stalled one first.
        let stalled = |w: usize| stalls[w].map(|s| &lists[w][s.item]);
        let at_run = (0..lists.len()).find_map(|w| match stalled(w)? {
            WorkItem::Fused(run) => Some((w, Some(run.stages[0].unit))),
            WorkItem::Step(_) => None,
        });
        let rewritten = (0..lists.len()).filter(|&w| !workers[w].plain);
        let culprit = at_run.or_else(|| {
            let w = rewritten.min_by_key(|&w| stalls[w].is_none())?;
            Some((w, None))
        });
        let Some((w, run)) = culprit else {
            // Every list is the plain projection and they still starve each
            // other: not reachable from an admitted period (validation
            // rejects the schedule if it ever is).
            break sized;
        };
        match run {
            Some(head) => workers[w].drop_chain_of(head as usize),
            None => workers[w].plain = true,
        }
        for b in graph.buffers.indices() {
            if cx.confined[b] == Some(w) {
                level_max[b] = capacity[b];
            }
        }
        lists[w] = workers[w].place(&cx, &mut level_max);
    };
    let mut stats = FusionStats::default();
    // Batchable runs: a run that is its component's entire period may be
    // executed several iterations back to back (its links are scratch).
    let mut component_firings = vec![0u64; units.len().max(1)];
    for s in worker_lists.iter().flatten() {
        component_firings[units[s.unit as usize].component as usize] += s.times as u64;
    }
    // Fully-elided rings: link buffers no remaining plain step or run
    // boundary (head read / tail write) ever touches.
    let mut is_link: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, graph.buffers.len());
    let mut ring_touched: IndexVec<RtBufferId, bool> =
        IndexVec::from_elem(false, graph.buffers.len());
    for item in lists.iter_mut().flatten() {
        let (head, tail) = item.ends();
        let (reads, writes) = (
            &access[head.unit as usize].reads,
            &access[tail.unit as usize].writes,
        );
        for &(b, _) in reads.iter().chain(writes) {
            ring_touched[b] = true;
        }
        if let WorkItem::Fused(run) = item {
            let comp = units[run.stages[0].unit as usize].component as usize;
            run.batch = run.firings() == component_firings[comp];
            for &b in &run.links {
                is_link[b] = true;
            }
            stats.runs_fused += 1;
            stats.fused_chain_len_max = stats.fused_chain_len_max.max(run.stages.len() as u32);
        }
    }
    stats.rings_elided = graph
        .buffers
        .indices()
        .filter(|&b| is_link[b] && !ring_touched[b])
        .count() as u32;
    (lists, stats, level_max)
}

/// Target tokens through the widest stage of one batched execution: enough
/// to amortise the per-item overhead and fill the SIMD kernels without
/// growing the scratch buffers past cache-friendly sizes. The engine batches
/// whole-component runs to it, `batch_row` whole mode rows.
pub const FUSED_BATCH_TOKENS: u64 = 4096;
/// Batching cap (periods concatenated per execution).
pub const FUSED_BATCH_MAX: u64 = 64;

/// How many consecutive periods of one mode row the engine may execute as
/// one pass (see [`ModeDependent::batch`](super::ModeDependent::batch)).
///
/// Firing every item of `lists` `by` periods' worth at once keeps each
/// unit's firing order and each buffer's push/pop order, so it changes no
/// value stream; what it changes is the levels the rings reach and when a
/// worker waits. Both are settled the way fusion settles them: the scaled
/// lists are run side by side, `level_max` rising to what that takes. A row
/// whose scaled lists do not run to completion and back to the initial
/// levels (a step that lives on standing tokens, say) is left unbatched.
pub(super) fn batch_row(
    graph: &RtGraph,
    access: &[UnitAccess],
    consumer_unit: &UnitOf,
    lists: &[Vec<WorkItem>],
    level_max: &mut Levels,
) -> u32 {
    let tokens = |s: &Step| {
        let a = &access[s.unit as usize];
        let reads: usize = a.reads.iter().map(|&(_, c)| c).sum();
        let writes = a.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
        s.times as u64 * reads.max(writes).max(1) as u64
    };
    let stages = lists.iter().flatten().flat_map(WorkItem::stages);
    let widest = stages.map(tokens).max().unwrap_or(1);
    let by = (FUSED_BATCH_TOKENS / widest.max(1)).clamp(1, FUSED_BATCH_MAX) as u32;
    let Some(scaled) = (by > 1)
        .then(|| WorkItem::scaled_lists(lists, by))
        .flatten()
    else {
        return 1;
    };
    let mut sized = level_max.clone();
    let mut ledger = Ledger::new(graph, |b| consumer_unit[b].is_some());
    let replayed = ledger.replay_cooperative(access, &scaled, &mut sized, true);
    if replayed.is_err() || ledger.restored().is_err() {
        return 1;
    }
    *level_max = sized;
    by
}

/// One worker's share of the fusion pass: its projection, the chains found
/// in it, and which of them are still to be fused.
struct WorkerFusion<'a> {
    worker: usize,
    steps: &'a [Step],
    /// `(stages, links)` per chain.
    chains: Vec<(Vec<Step>, Vec<RtBufferId>)>,
    /// Per unit: the chain it belongs to (`usize::MAX` for none).
    chain_of: Vec<usize>,
    /// Per chain: still fused (dropped chains fall back to plain steps).
    active: Vec<bool>,
    /// Rewrite nothing: the list is the projection as it stands.
    plain: bool,
}

impl<'a> WorkerFusion<'a> {
    /// Find the chains of worker `worker`'s projection `steps`.
    fn new(cx: &Context<'_>, worker: usize, steps: &'a [Step]) -> Self {
        let Context {
            graph,
            access,
            units,
            consumer_unit,
            modal_fuses,
            ..
        } = *cx;
        // Whole-period firing count of each unit on this worker.
        let mut total = vec![0u64; units.len()];
        for s in steps {
            total[s.unit as usize] += s.times as u64;
        }
        // A union-advance modal unit never fuses: its per-firing kernel
        // dispatch is script-dependent, which a block-fired fused stage
        // cannot express — and keeping it out of runs means a hot switch
        // can never land inside a super-step. (A mode-dependent schedule
        // switches at period boundaries only, between whole lists.)
        let fusable = |u: usize| {
            (modal_fuses || !matches!(units[u].kind, UnitKind::Modal { .. }))
                && total[u] > 0
                && total[u] <= u32::MAX as u64
        };
        // The chain successor relation: `u → v` when u's single write feeds
        // v's single read over an initially-empty link with both ends on
        // this worker (`total` counts only its firings). At most one edge
        // leaves u (single write) and at most one enters v (single read +
        // single producer per buffer), so the relation is functional both
        // ways and chains are disjoint maximal paths.
        let succ = |u: usize| -> Option<(usize, RtBufferId)> {
            if !fusable(u) {
                return None;
            }
            let &[(link, prod)] = access[u].writes.as_slice() else {
                return None;
            };
            if prod == 0 || graph.buffers[link].initial_tokens != 0 {
                return None;
            }
            let v = consumer_unit[link]? as usize;
            if v == u || !fusable(v) {
                return None;
            }
            let &[(rb, cons)] = access[v].reads.as_slice() else {
                return None;
            };
            let burst = total[u].checked_mul(prod as u64)?;
            if rb != link
                || cons == 0
                || burst != total[v].checked_mul(cons as u64)?
                || burst > MAX_FUSED_STAGE_TOKENS
            {
                return None;
            }
            Some((v, link))
        };
        let successors: Vec<Option<(usize, RtBufferId)>> = (0..units.len()).map(succ).collect();
        let mut has_pred = vec![false; units.len()];
        for s in successors.iter().flatten() {
            has_pred[s.0] = true;
        }
        // Maximal paths: start from every head (an edge out, none in). Cycle
        // units all have a predecessor, so no walk enters a cycle except via
        // a tail into it — the membership check below cuts that walk short.
        let stage = |u: usize| Step {
            unit: u as u32,
            times: total[u] as u32,
        };
        let mut chain_of = vec![usize::MAX; units.len()];
        let mut chains: Vec<(Vec<Step>, Vec<RtBufferId>)> = Vec::new();
        for h in 0..units.len() {
            if has_pred[h] || successors[h].is_none() {
                continue;
            }
            let mut stages = vec![stage(h)];
            let mut links: Vec<RtBufferId> = Vec::new();
            let mut cur = h;
            while let Some((v, link)) = successors[cur] {
                if chain_of[v] != usize::MAX || stages.iter().any(|s| s.unit as usize == v) {
                    break;
                }
                stages.push(stage(v));
                links.push(link);
                cur = v;
            }
            if stages.len() < 2 {
                continue;
            }
            let ci = chains.len();
            for s in &stages {
                chain_of[s.unit as usize] = ci;
            }
            chains.push((stages, links));
        }
        WorkerFusion {
            worker,
            steps,
            active: vec![true; chains.len()],
            chains,
            chain_of,
            plain: false,
        }
    }

    /// Stop fusing the chain `unit` belongs to.
    fn drop_chain_of(&mut self, unit: usize) {
        self.active[self.chain_of[unit]] = false;
    }

    /// The placement replay: walk the plain projection with the active
    /// chains' units removed, emitting each chain's run at the earliest
    /// point its head's whole-period inputs have accumulated. A chain whose
    /// deferral starves someone on this worker is dropped back to plain
    /// steps and the replay restarts. Raises `level_max` to the levels the
    /// list reaches on this worker's own buffers; the buffers crossing to
    /// other workers are invisible here.
    fn place(&mut self, cx: &Context<'_>, level_max: &mut Levels) -> Vec<WorkItem> {
        if self.plain {
            return WorkItem::plain(self.steps);
        }
        // An invariant breach falls back to the unfused projection
        // (validation re-proves either way).
        self.try_place(cx, level_max).unwrap_or_else(|| {
            self.plain = true;
            WorkItem::plain(self.steps)
        })
    }

    fn try_place(&mut self, cx: &Context<'_>, level_max: &mut Levels) -> Option<Vec<WorkItem>> {
        let Context {
            graph,
            access,
            producer_unit,
            consumer_unit,
            ref confined,
            ..
        } = *cx;
        let (worker, steps, chains, chain_of) =
            (self.worker, self.steps, &self.chains, &self.chain_of);
        let active = &mut self.active;
        let tracked = |b: RtBufferId| confined[b] == Some(worker) && consumer_unit[b].is_some();
        // Fusion may push tokens into a local buffer earlier than the unfused
        // order did: the local rings are sized from the levels its writes reach.
        let raise = |lmax: &mut Levels, ledger: &Ledger<'_, _>, tail: Step| {
            for &(b, _) in &access[tail.unit as usize].writes {
                lmax[b] = lmax[b].max(ledger.level(b));
            }
        };
        'placement: loop {
            let mut ledger = Ledger::new(graph, tracked);
            let mut lmax = level_max.clone();
            let mut emitted = vec![false; chains.len()];
            let mut out: Vec<WorkItem> = Vec::new();
            // Emit every ready chain (to a fixpoint: one chain's tail may feed
            // another chain's head). A run moves its head's reads and its
            // tail's writes; a head whose inputs have not accumulated yet
            // underflows, which leaves the ledger untouched.
            let try_emit = |ledger: &mut Ledger<'_, _>,
                            lmax: &mut Levels,
                            emitted: &mut [bool],
                            out: &mut Vec<WorkItem>,
                            active: &[bool]| {
                let mut progressed = true;
                while progressed {
                    progressed = false;
                    for (ci, (stages, links)) in chains.iter().enumerate() {
                        let (head, tail) = (stages[0], stages[stages.len() - 1]);
                        let placed = active[ci]
                            && !emitted[ci]
                            && ledger.fire(access, head, tail, None).is_ok();
                        if placed {
                            raise(lmax, ledger, tail);
                            out.push(WorkItem::Fused(FusedRun {
                                stages: stages.clone(),
                                links: links.clone(),
                                batch: false,
                            }));
                            emitted[ci] = true;
                            progressed = true;
                        }
                    }
                }
            };
            try_emit(&mut ledger, &mut lmax, &mut emitted, &mut out, active);
            for step in steps {
                let u = step.unit as usize;
                if chain_of[u] != usize::MAX && active[chain_of[u]] {
                    continue; // folded into its chain's run
                }
                if let Err(fault) = ledger.fire(access, *step, *step, None) {
                    // Starved by a deferred chain — the unemitted active chain
                    // producing into the buffer: drop it and restart.
                    let ci = chain_of[producer_unit[fault.buffer]? as usize];
                    if ci == usize::MAX || !active[ci] || emitted[ci] {
                        return None;
                    }
                    active[ci] = false;
                    continue 'placement;
                }
                raise(&mut lmax, &ledger, *step);
                // Coalesce with a directly-adjacent plain step of the same
                // unit (no op of this worker separates them in the emitted
                // list).
                match out.last_mut() {
                    Some(WorkItem::Step(prev)) if prev.unit == step.unit => {
                        match prev.times.checked_add(step.times) {
                            Some(times) => prev.times = times,
                            None => out.push(WorkItem::Step(*step)),
                        }
                    }
                    _ => out.push(WorkItem::Step(*step)),
                }
                try_emit(&mut ledger, &mut lmax, &mut emitted, &mut out, active);
            }
            if let Some(ci) = (0..chains.len()).find(|&ci| active[ci] && !emitted[ci]) {
                // Head inputs never accumulated (initial-token stock below one
                // period's need): this chain cannot be placed — drop it.
                active[ci] = false;
                continue 'placement;
            }
            *level_max = lmax;
            return Some(out);
        }
    }
}
