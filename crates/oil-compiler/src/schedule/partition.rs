//! Partitioning: per-unit cost estimates, the assignment of units to
//! workers by weakly-connected component, and the per-worker projection of
//! a global firing order.

use super::ledger::{port, UnitAccess};
use super::model::{ScheduleUnit, Step};
use super::order::UnitOf;
use crate::rtgraph::RtGraph;

/// The per-unit cost vector the partitioner balances: each unit's worst
/// row of the per-mode table, `reps × per-firing cost`, where the
/// per-firing cost is the declared CTA response time in seconds (the
/// golden corpus pins this expression byte for byte). A source/sink unit
/// costs one token moved, no kernel work; a kernel unit is floored at 1 ns
/// so no unit is free to stack. `arms[r]` is the member row `r`'s modal
/// firings run; `None` budgets the worst member (any arm may run under a
/// hot-switching script).
pub(super) fn unit_costs(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    reps: &[Vec<u64>],
    arms: &[Option<usize>],
) -> Vec<f64> {
    let per_firing = |unit: &ScheduleUnit, arm| match unit.kind.nodes(arm) {
        [] => 1e-8,
        nodes => nodes
            .iter()
            .map(|&n| graph.nodes[n].response.to_f64())
            .fold(1e-9, f64::max),
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

/// Predicted per-worker utilization of a finished partition: each worker's
/// summed unit cost divided by the heaviest worker's (in `(0, 1]`; a
/// perfectly balanced partition is all ones). Purely observational,
/// recorded in [`StaticSchedule::predicted_utilization`].
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

/// The token flow between units, as the partitioner sees it.
pub(super) struct Flow {
    /// `(producer, consumer, tokens per period)` of every buffer with both
    /// ends, the tokens at the buffer's busiest row of the per-mode table.
    edges: Vec<(usize, usize, u64)>,
    /// The chain successor of each unit: `u → v` when the only buffer `u`
    /// feeds is the only buffer `v` is fed by — the edges the fusion pass
    /// can carry in scratch, so a cut that spares them spares a super-step.
    next: Vec<Option<usize>>,
}

impl Flow {
    pub(super) fn new(
        graph: &RtGraph,
        access: &[Vec<UnitAccess>],
        reps: &[Vec<u64>],
        producer_unit: &UnitOf,
        consumer_unit: &UnitOf,
    ) -> Self {
        let units = reps[0].len();
        let mut edges = Vec::new();
        for b in graph.buffers.indices() {
            let (Some(p), Some(c)) = (producer_unit[b], consumer_unit[b]) else {
                continue;
            };
            let (p, c) = (p as usize, c as usize);
            let rows = access.iter().zip(reps);
            let tokens = rows.map(|(a, reps)| reps[p] * port(&a[p].writes, b) as u64);
            edges.push((p, c, tokens.max().unwrap_or(0)));
        }
        let (mut fan_out, mut fan_in) = (vec![0u32; units], vec![0u32; units]);
        for &(p, c, _) in &edges {
            fan_out[p] += 1;
            fan_in[c] += 1;
        }
        let mut next = vec![None; units];
        for &(p, c, _) in &edges {
            if p != c && fan_out[p] == 1 && fan_in[c] == 1 {
                next[p] = Some(c);
            }
        }
        Flow { edges, next }
    }

    /// `units` (given in first-firing order) reordered so every chain is
    /// contiguous: chains in the order of their heads, each walked to its
    /// tail. Branches of a fork then sit one after the other instead of
    /// interleaved stage by stage, and a cut between them severs the fork's
    /// edge once rather than every branch somewhere.
    fn chain_contiguous(&self, units: &[usize]) -> Vec<usize> {
        let mut inside = vec![false; self.next.len()];
        for v in self.next.iter().flatten() {
            inside[*v] = true;
        }
        let mut placed = vec![false; self.next.len()];
        let mut ordered = Vec::with_capacity(units.len());
        // Heads first; whatever is left sits on a cycle of chain edges and
        // is walked from its earliest unit.
        let heads = units.iter().filter(|&&u| !inside[u]);
        for &start in heads.chain(units) {
            let mut at = Some(start);
            while let Some(u) = at.filter(|&u| !placed[u]) {
                placed[u] = true;
                ordered.push(u);
                at = self.next[u];
            }
        }
        ordered
    }
}

/// Cut `ordered` into `segments` contiguous runs (returned as the start of
/// every run but the first). The bottleneck — the costliest run — is made as
/// light as any contiguous cut can make it; among the cuts that achieve it,
/// the one splitting the fewest chains wins, then the one handing the
/// fewest tokens per period across.
fn balanced_cuts(ordered: &[usize], cost: &[f64], flow: &Flow, segments: usize) -> Vec<usize> {
    let n = ordered.len();
    let mut prefix = vec![0.0f64; n + 1];
    let mut pos = vec![usize::MAX; cost.len()];
    for (i, &u) in ordered.iter().enumerate() {
        prefix[i + 1] = prefix[i] + cost[u];
        pos[u] = i;
    }
    let run = |from: usize, to: usize| prefix[to] - prefix[from];
    // bottleneck[k][j]: the lightest bottleneck of the first `j` units in
    // `k + 1` runs.
    let mut bottleneck = vec![vec![f64::INFINITY; n + 1]; segments];
    for (j, whole) in bottleneck[0].iter_mut().enumerate().skip(1) {
        *whole = run(0, j);
    }
    for k in 1..segments {
        for j in k + 1..=n {
            let starts = k..j;
            let best = starts.map(|i| bottleneck[k - 1][i].max(run(i, j)));
            bottleneck[k][j] = best.fold(f64::INFINITY, f64::min);
        }
    }
    let limit = bottleneck[segments - 1][n];
    // What a cut before position `i` costs: (splits a chain, tokens per
    // period on the edges it severs).
    let mut severed = vec![0u64; n + 1];
    for &(p, c, tokens) in &flow.edges {
        let (a, b) = (pos[p].min(pos[c]), pos[p].max(pos[c]));
        if b != usize::MAX {
            for s in &mut severed[a + 1..=b] {
                *s += tokens;
            }
        }
    }
    let price = |i: usize| {
        let splits = flow.next[ordered[i - 1]] == Some(ordered[i]);
        (splits as u64, severed[i])
    };
    // cheapest[k][j]: the cheapest cuts of the first `j` units into `k + 1`
    // runs no heavier than `limit`, with the start of the last run.
    const NONE: (u64, u64) = (u64::MAX, u64::MAX);
    let mut cheapest = vec![vec![(NONE, 0usize); n + 1]; segments];
    for (j, uncut) in cheapest[0].iter_mut().enumerate().skip(1) {
        if run(0, j) <= limit {
            *uncut = ((0, 0), 0);
        }
    }
    for k in 1..segments {
        for j in k + 1..=n {
            for i in k..j {
                let (before, _) = cheapest[k - 1][i];
                if before == NONE || run(i, j) > limit {
                    continue;
                }
                let (splits, tokens) = price(i);
                let total = (before.0 + splits, before.1 + tokens);
                if total < cheapest[k][j].0 {
                    cheapest[k][j] = (total, i);
                }
            }
        }
    }
    let mut cuts = vec![0usize; segments - 1];
    let mut end = n;
    for k in (1..segments).rev() {
        end = cheapest[k][end].1;
        cuts[k - 1] = end;
    }
    cuts
}

/// Step 4 of synthesis: assign units to workers by weakly-connected
/// component, balanced by the given per-unit cost estimates (mutates
/// `units[..].worker`; `period` supplies the dataflow order — the rows'
/// periods back to back).
pub(super) fn partition_workers(
    units: &mut [ScheduleUnit],
    cost: &[f64],
    components: u32,
    workers: usize,
    period: impl Iterator<Item = Step>,
    flow: &Flow,
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
        // into contiguous segments of its chain-contiguous dataflow order.
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
            let mut by_firing = us.clone();
            by_firing.sort_by_key(|&u| (first_pos[u], u));
            let ordered = flow.chain_contiguous(&by_firing);
            let segments = share[c].min(ordered.len());
            let cuts = balanced_cuts(&ordered, cost, flow, segments);
            for (i, &u) in ordered.iter().enumerate() {
                units[u].worker = next_worker + cuts.partition_point(|&cut| cut <= i);
            }
            next_worker += share[c];
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
