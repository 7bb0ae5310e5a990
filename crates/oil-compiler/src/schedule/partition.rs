//! Partitioning: per-unit cost estimates, the assignment of units to
//! workers by weakly-connected component, and the per-worker projection of
//! a global firing order.

use super::model::{ScheduleUnit, Step};
use crate::costmodel::KernelCostModel;
use crate::rtgraph::{RtGraph, RtNodeId};

/// The per-unit cost vector the partitioner balances: each unit's worst
/// row of the per-mode table, `reps × per-firing cost`.
///
/// Without a model the per-firing cost is the declared CTA response time
/// in seconds (byte for byte the historical expression: the golden corpus
/// pins it). With one it is the measured ns/firing, falling back to the
/// declared response scaled to ns for uncalibrated functions, so a partial
/// model keeps the relative weights of the kernels it has not seen. `arms[r]` is
/// the member row `r`'s modal firings run; `None` budgets the worst member
/// (any arm may run under a hot-switching script).
pub(super) fn unit_costs(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    model: Option<&KernelCostModel>,
    reps: &[Vec<u64>],
    arms: &[Option<usize>],
) -> Vec<f64> {
    // (per-firing floor, cost of a source/sink firing: one token moved, no
    // kernel work).
    let (floor, io) = if model.is_some() {
        (1.0, 10.0)
    } else {
        (1e-9, 1e-8)
    };
    let node = |id: RtNodeId| match model {
        Some(model) => measured_cost_ns(graph, id, model),
        None => graph.nodes[id].response.to_f64(),
    };
    let per_firing = |unit: &ScheduleUnit, arm| match unit.kind.nodes(arm) {
        [] => io,
        nodes => nodes.iter().map(|&n| node(n)).fold(floor, f64::max),
    };
    units
        .iter()
        .enumerate()
        .map(|(u, unit)| {
            reps.iter()
                .zip(arms)
                .map(|(reps, &arm)| reps[u] as f64 * per_firing(unit, arm))
                .fold(0.0, f64::max)
        })
        .collect()
}

/// A node's per-firing cost in nanoseconds under a measured cost model:
/// the calibrated ns/firing when the node's function has an entry, the
/// declared CTA response time scaled seconds→ns otherwise (so a partial
/// model keeps the same relative weights as the declared path for the
/// kernels it has not seen). Floored at 1 ns — a zero cost would let the
/// partitioner stack unboundedly many units on one worker for free.
fn measured_cost_ns(graph: &RtGraph, id: RtNodeId, model: &KernelCostModel) -> f64 {
    match model.ns_per_firing(&graph.nodes[id].function) {
        Some(ns) => ns.max(1.0),
        None => (graph.nodes[id].response.to_f64() * 1e9).max(1.0),
    }
}

/// Predicted per-worker utilization of a finished partition: each worker's
/// summed unit cost divided by the heaviest worker's (in `(0, 1]`; a
/// perfectly balanced partition is all ones). Purely observational — the
/// number the profile-guided loop improves, recorded in
/// [`StaticSchedule::predicted_utilization`].
pub(super) fn worker_utilization(
    units: &[ScheduleUnit],
    cost: &[f64],
    worker_count: usize,
) -> Vec<f64> {
    let mut load = vec![0.0f64; worker_count.max(1)];
    for (u, unit) in units.iter().enumerate() {
        load[unit.worker] += cost[u];
    }
    let peak = load.iter().copied().fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return vec![1.0; load.len()];
    }
    load.iter().map(|&l| l / peak).collect()
}

/// Step 4 of synthesis: assign units to workers by weakly-connected
/// component, balanced by the given per-unit cost estimates (mutates
/// `units[..].worker`; `period` supplies the dataflow order for contiguous
/// pipeline cuts — the rows' periods back to back).
pub(super) fn partition_workers(
    units: &mut [ScheduleUnit],
    cost: &[f64],
    components: u32,
    workers: usize,
    period: impl Iterator<Item = Step>,
) {
    let mut component_units: Vec<Vec<usize>> = vec![Vec::new(); components as usize];
    for (u, unit) in units.iter().enumerate() {
        component_units[unit.component as usize].push(u);
    }
    let component_cost: Vec<f64> = component_units
        .iter()
        .map(|us| us.iter().map(|&u| cost[u]).sum())
        .collect();
    // Components, heaviest first.
    let mut order: Vec<usize> = (0..components as usize).collect();
    order.sort_by(|&a, &b| {
        component_cost[b]
            .total_cmp(&component_cost[a])
            .then(a.cmp(&b))
    });
    if components as usize >= workers {
        // Whole components, heaviest first onto the least-loaded worker:
        // zero cross-worker buffers.
        let mut load = vec![0.0f64; workers];
        for c in order {
            let w = (0..workers)
                .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)))
                .unwrap_or(0);
            for &u in &component_units[c] {
                units[u].worker = w;
            }
            load[w] += component_cost[c];
        }
    } else {
        // Fewer components than workers: apportion workers to components by
        // cost (every component gets at least one), then cut each component
        // into contiguous segments of its dataflow order — the order of
        // first firing in the admitted period, so a pipeline splits at
        // stage boundaries and each cut crosses one buffer.
        let total: f64 = component_cost.iter().sum::<f64>().max(f64::MIN_POSITIVE);
        let mut share: Vec<usize> = component_cost
            .iter()
            .map(|&c| ((c / total) * workers as f64).floor() as usize)
            .map(|s| s.max(1))
            .collect();
        // Trim or grow to exactly `workers`, largest-cost components first.
        let mut assigned: usize = share.iter().sum();
        let mut i = 0;
        while assigned < workers {
            share[order[i % order.len()]] += 1;
            assigned += 1;
            i += 1;
        }
        i = 0;
        while assigned > workers {
            let c = order[order.len() - 1 - (i % order.len())];
            if share[c] > 1 {
                share[c] -= 1;
                assigned -= 1;
            }
            i += 1;
        }
        // First-firing order within each component.
        let mut first_pos = vec![usize::MAX; units.len()];
        for (pos, step) in period.enumerate() {
            let u = step.unit as usize;
            if first_pos[u] == usize::MAX {
                first_pos[u] = pos;
            }
        }
        let mut next_worker = 0usize;
        for (c, us) in component_units.iter().enumerate() {
            let segments = share[c];
            let mut ordered = us.clone();
            ordered.sort_by_key(|&u| (first_pos[u], u));
            let comp_total: f64 = component_cost[c].max(f64::MIN_POSITIVE);
            let mut acc = 0.0f64;
            let mut segment = 0usize;
            for &u in &ordered {
                // Cut when the accumulated cost passes the next segment
                // boundary (but never beyond the last segment).
                if segment + 1 < segments
                    && acc >= comp_total * (segment + 1) as f64 / segments as f64
                {
                    segment += 1;
                }
                units[u].worker = next_worker + segment;
                acc += cost[u];
            }
            next_worker += segments;
        }
    }
}

/// Drop workers that received no units (possible when units < workers
/// after clamping or a degenerate apportionment), renumbering densely.
pub(super) fn renumber_workers(units: &mut [ScheduleUnit], workers: usize) {
    let used: Vec<usize> = (0..workers)
        .filter(|&w| units.iter().any(|u| u.worker == w))
        .collect();
    for unit in units.iter_mut() {
        unit.worker = used.iter().position(|&w| w == unit.worker).unwrap_or(0);
    }
}

/// The per-worker projection of a global firing order.
pub(super) fn project_period(
    period: &[Step],
    units: &[ScheduleUnit],
    workers: usize,
) -> Vec<Vec<Step>> {
    let mut lists: Vec<Vec<Step>> = vec![Vec::new(); workers.max(1)];
    for step in period {
        lists[units[step.unit as usize].worker].push(*step);
    }
    lists
}
