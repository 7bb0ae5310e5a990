//! The fusion pass: super-step coalescing of each worker's firing list.

use super::ledger::{engine_capacities, Ledger, Levels, UnitAccess};
use super::model::{FusedRun, FusionStats, ScheduleUnit, Step, UnitKind, WorkItem};
use super::order::UnitOf;
use crate::rtgraph::{RtBufferId, RtGraph};
use oil_dataflow::index::IndexVec;

/// Hard cap on tokens flowing through one stage of one fused run: bounds
/// the scratch window the executor allocates (8 MiB of f64 per worker).
const MAX_FUSED_STAGE_TOKENS: u64 = 1 << 20;

/// True when the fusion pass is enabled for [`synthesize`] (default on;
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
pub(super) fn confined_worker(
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

/// The fusion pass: rewrite each worker's firing list, coalescing each
/// maximal producer→consumer chain's *entire period* of firings into one
/// [`FusedRun`] super-step.
///
/// A link edge `u → v` is fusable when `u`'s only write is the link, `v`'s
/// only read is the link, both units touch only worker-confined buffers,
/// and the link holds no initial tokens; chains are the maximal paths of
/// that (functional) edge relation. Each chain's run fires every stage its
/// full per-period repetition count, so the CTA-sized burst interleaving
/// the admission loop produced (often 3–5 firings per step) collapses to
/// one pass per stage. The run is *placed* at the earliest point of the
/// remaining plain-step list where the head's whole-period inputs have
/// accumulated — deferring the chain units' earlier firings and hoisting
/// their later ones. Per-unit firing order and per-buffer push/pop value
/// order are unchanged (only cross-buffer interleaving moves, and only on
/// worker-confined buffers no other worker can observe), so every value
/// stream is bit-identical; the reorder is visible solely through token
/// levels, which [`StaticSchedule::local_level_max`] absorbs and the
/// per-worker replay below re-proves. A chain whose deferral would starve
/// a plain step (or another chain) is dropped back to plain steps and the
/// placement replay restarts without it.
pub(super) fn fuse_workers(
    graph: &RtGraph,
    access: &[UnitAccess],
    units: &[ScheduleUnit],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
    worker_lists: &[Vec<Step>],
) -> (Vec<Vec<WorkItem>>, FusionStats, Levels) {
    let confined = confined_worker(graph, units, producer_unit, consumer_unit);
    // A unit is fusable when every buffer it touches is confined to its own
    // worker — hoisting its firings then reorders nothing another worker
    // can observe (cross-ring push/pop order is untouched).
    let fusable: Vec<bool> = units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            // Modal units never fuse: their per-firing kernel dispatch is
            // script-dependent, which a block-fired fused stage cannot
            // express — and keeping them out of runs means a mode switch
            // can never land inside a super-step.
            if matches!(unit.kind, UnitKind::Modal { .. }) {
                return false;
            }
            let a = &access[u];
            a.reads
                .iter()
                .chain(&a.writes)
                .all(|&(b, _)| confined[b] == Some(unit.worker))
        })
        .collect();
    let mut level_max = engine_capacities(graph);
    let mut stats = FusionStats::default();
    let mut lists: Vec<Vec<WorkItem>> = Vec::with_capacity(worker_lists.len());
    for steps in worker_lists {
        let items = fuse_worker(
            graph,
            access,
            units,
            producer_unit,
            consumer_unit,
            &confined,
            &fusable,
            steps,
            &mut level_max,
            &mut stats,
        );
        // Defensive: an invariant breach falls back to the unfused
        // projection for this worker (validate() re-proves either way).
        lists.push(items.unwrap_or_else(|| WorkItem::plain(steps)));
    }
    // Batchable runs: a run that is its component's entire period may be
    // executed several iterations back to back (its links are scratch).
    let mut component_firings = vec![0u64; units.len().max(1)];
    for s in worker_lists.iter().flatten() {
        component_firings[units[s.unit as usize].component as usize] += s.times as u64;
    }
    for item in lists.iter_mut().flatten() {
        if let WorkItem::Fused(run) = item {
            let comp = units[run.stages[0].unit as usize].component as usize;
            run.batch = run.firings() == component_firings[comp];
        }
    }
    // Fully-elided rings: link buffers no remaining plain step or run
    // boundary (head read / tail write) ever touches.
    let mut is_link: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, graph.buffers.len());
    let mut ring_touched: IndexVec<RtBufferId, bool> =
        IndexVec::from_elem(false, graph.buffers.len());
    for item in lists.iter().flatten() {
        let (head, tail) = item.ends();
        let (reads, writes) = (
            &access[head.unit as usize].reads,
            &access[tail.unit as usize].writes,
        );
        for &(b, _) in reads.iter().chain(writes) {
            ring_touched[b] = true;
        }
        if let WorkItem::Fused(run) = item {
            for &b in &run.links {
                is_link[b] = true;
            }
        }
    }
    stats.rings_elided = graph
        .buffers
        .indices()
        .filter(|&b| is_link[b] && !ring_touched[b])
        .count() as u32;
    (lists, stats, level_max)
}

/// Fuse one worker's projection (see [`fuse_workers`] for the legality
/// argument). Returns `None` on an internal invariant breach (the caller
/// falls back to the unfused projection).
#[allow(clippy::too_many_arguments)]
fn fuse_worker(
    graph: &RtGraph,
    access: &[UnitAccess],
    units: &[ScheduleUnit],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
    confined: &IndexVec<RtBufferId, Option<usize>>,
    fusable: &[bool],
    steps: &[Step],
    level_max: &mut Levels,
    stats: &mut FusionStats,
) -> Option<Vec<WorkItem>> {
    let worker = steps
        .first()
        .map(|s| units[s.unit as usize].worker)
        .unwrap_or(0);
    // Whole-period firing count of each unit on this worker.
    let mut total = vec![0u64; units.len()];
    for s in steps {
        total[s.unit as usize] += s.times as u64;
    }
    // The chain successor relation: `u → v` when u's single write feeds v's
    // single read over an initially-empty worker-confined link. At most one
    // edge leaves u (single write) and at most one enters v (single read +
    // single producer per buffer), so the relation is functional both ways
    // and chains are disjoint maximal paths.
    let succ = |u: usize| -> Option<(usize, RtBufferId)> {
        if !fusable[u] || total[u] == 0 || total[u] > u32::MAX as u64 {
            return None;
        }
        let &[(link, prod)] = access[u].writes.as_slice() else {
            return None;
        };
        if prod == 0 || graph.buffers[link].initial_tokens != 0 {
            return None;
        }
        let v = consumer_unit[link]? as usize;
        if v == u || !fusable[v] || total[v] == 0 || total[v] > u32::MAX as u64 {
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
    // units all have a predecessor, so no walk enters a cycle except via a
    // tail into it — the membership check below cuts that walk short.
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
    // Placement replay: walk the plain projection with chain units removed,
    // emitting each chain's run at the earliest point its head's
    // whole-period inputs have accumulated. A chain whose deferral starves
    // someone is dropped back to plain steps and the replay restarts.
    let mut active = vec![true; chains.len()];
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
                        out: &mut Vec<WorkItem>| {
            let mut progressed = true;
            while progressed {
                progressed = false;
                for (ci, (stages, links)) in chains.iter().enumerate() {
                    let (head, tail) = (stages[0], stages[stages.len() - 1]);
                    let placed =
                        active[ci] && !emitted[ci] && ledger.fire(access, head, tail, None).is_ok();
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
        try_emit(&mut ledger, &mut lmax, &mut emitted, &mut out);
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
            // Merge with a directly-adjacent plain step of the same unit
            // (replay-neutral: no op separates them in the emitted list).
            match out.last_mut() {
                Some(WorkItem::Step(prev)) if prev.unit == step.unit => {
                    match prev.times.checked_add(step.times) {
                        Some(times) => prev.times = times,
                        None => out.push(WorkItem::Step(*step)),
                    }
                }
                _ => out.push(WorkItem::Step(*step)),
            }
            try_emit(&mut ledger, &mut lmax, &mut emitted, &mut out);
        }
        if let Some(ci) = (0..chains.len()).find(|&ci| active[ci] && !emitted[ci]) {
            // Head inputs never accumulated (initial-token stock below one
            // period's need): this chain cannot be placed — drop it.
            active[ci] = false;
            continue 'placement;
        }
        for (ci, (stages, _)) in chains.iter().enumerate() {
            if active[ci] {
                stats.runs_fused += 1;
                stats.fused_chain_len_max = stats.fused_chain_len_max.max(stages.len() as u32);
            }
        }
        *level_max = lmax;
        return Some(out);
    }
}
