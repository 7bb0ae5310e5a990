//! The mode dimension: per-mode firing rates, the resolution of a
//! [`ModeScript`] into the run-length [`ModePlan`] both engines
//! execute, and the *gating* that carves each mode's active slice out of a
//! mode-dependent graph.

use super::ledger::{row_access, UnitAccess};
use super::modal::{modal_admission, ModalClusterInfo};
use super::model::{modal_unit, ModeScript, ScheduleError, ScheduleUnit, UnitKind};
use super::order::{buffer_endpoints, build_units, repetition_vector, UnitOf};
use crate::rtgraph::{RtBufferId, RtGraph, RtPlan, RtSourceId};
use oil_dataflow::index::Idx;

/// The per-mode firing rates of a mode-dependent modal graph: what the
/// runtime engines need to plan a scripted run without holding the full
/// per-mode schedules (the self-timed engine is dynamic — it needs only
/// the period lengths and the per-period source/sink token counts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeDependentRates {
    /// Per mode: modal-unit firings per period (always ≥ 1).
    pub modal: Vec<u64>,
    /// Per mode, per source (by [`RtSourceId`] index): samples produced per
    /// period (0 when the source is gated in that mode).
    pub sources: Vec<Vec<u64>>,
    /// Per mode, per sink (by [`RtSinkId`](crate::rtgraph::RtSinkId) index): values drained per
    /// period (0 when the sink is gated in that mode).
    pub sinks: Vec<Vec<u64>>,
}

impl ModeDependentRates {
    /// Extract the rates from a per-mode repetition table.
    pub(super) fn from_reps(units: &[ScheduleUnit], graph: &RtGraph, reps: &[Vec<u64>]) -> Self {
        let modal = modal_unit(units).expect("a mode-dependent table has a modal unit");
        let mut rates = ModeDependentRates {
            modal: vec![0; reps.len()],
            sources: vec![vec![0; graph.sources.len()]; reps.len()],
            sinks: vec![vec![0; graph.sinks.len()]; reps.len()],
        };
        for (m, reps) in reps.iter().enumerate() {
            rates.modal[m] = reps[modal];
            for (u, unit) in units.iter().enumerate() {
                match unit.kind {
                    // One unit per source: a mode-dependent table never
                    // splits a source into replicas.
                    UnitKind::Source { source, .. } => rates.sources[m][source.index()] = reps[u],
                    UnitKind::Sink(id) => rates.sinks[m][id.index()] = reps[u],
                    _ => {}
                }
            }
        }
        rates
    }
}

/// The resolved mode sequence of one scripted run of a mode-dependent
/// program: which mode each executed period runs, and exactly how many
/// tokens every source and sink moves. Both engines execute this plan —
/// the static engine by replaying the per-mode firing lists run by run,
/// the self-timed engine by capping its source/sink budgets to the
/// planned totals and letting data-driven firing follow — which is what
/// makes their value streams bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModePlan {
    /// The executed periods, run-length encoded: `(mode, periods)` per
    /// maximal run of consecutive periods of one mode, in order (adjacent
    /// runs differ in mode, no run is empty).
    pub runs: Vec<(u32, u64)>,
    /// Per source (by index): total samples produced over the run. May
    /// exceed a source's natural sample budget by up to one period — the
    /// final period always runs to completion.
    pub produced: Vec<u64>,
    /// Per sink (by index): total values drained over the run.
    pub drained: Vec<u64>,
    /// Total modal-unit firings over the run.
    pub modal_firings: u64,
    /// Mode switches the plan executes (adjacent periods of different
    /// modes).
    pub mode_switches: u64,
    /// Modal firings executed in a mode other than the arm the script
    /// names for them: the tail of a period a switch point landed in (the
    /// *drain* — the switch takes effect at the next period boundary).
    pub transition_firings: u64,
}

impl ModePlan {
    /// Periods the plan executes.
    pub fn periods(&self) -> u64 {
        self.runs.iter().map(|&(_, periods)| periods).sum()
    }

    /// The mode of each executed period, in order.
    pub fn modes(&self) -> impl Iterator<Item = u32> + '_ {
        let run = |&(mode, periods): &(u32, u64)| (0..periods).map(move |_| mode);
        self.runs.iter().flat_map(run)
    }
}

/// Resolve a [`ModeScript`] against per-mode rates and source sample
/// budgets into the mode sequence a scripted run executes.
///
/// Each period's mode is the script's arm at the period's *first* modal
/// firing (the engines reject scripts naming an arm that does not exist,
/// [`ModeScript::validate_arms`], before planning) — a switch point landing
/// mid-period therefore takes effect at the next period boundary, and the
/// trailing firings of the old period are the *drain* the transition
/// protocol accounts as `transition_firings`. The plan stops at the first
/// period that would make no source progress (every source is exhausted or
/// gated in the selected mode): a script whose pending switch points lie
/// beyond the sources' budgets — e.g. a switch at firing 1 000 000 of a
/// 250-period run — never reaches them, so such past-horizon scripts
/// execute as the constant-arm run with zero switches.
///
/// The script is walked once, by a cursor over its switch points: between
/// two switch points every period start names the same arm, so the periods
/// up to the next point (or to the end of the budgets) are counted by
/// division, and the firings of a period's tail that lie past a switch
/// point by subtraction. The cost is linear in switch points plus runs,
/// whatever the number of periods.
pub fn plan_mode_sequence(
    rates: &ModeDependentRates,
    script: &ModeScript,
    budget: impl Fn(RtSourceId) -> u64,
) -> ModePlan {
    let budgets: Vec<u64> = (0..rates.sources.first().map_or(0, Vec::len))
        .map(|s| budget(RtSourceId::new(s)))
        .collect();
    let mut plan = ModePlan {
        runs: Vec::new(),
        produced: vec![0; budgets.len()],
        drained: vec![0; rates.sinks.first().map_or(0, Vec::len)],
        modal_firings: 0,
        mode_switches: 0,
        transition_firings: 0,
    };
    // The script's arm at modal firing `at`, and the switch points taken.
    let (mut arm, mut taken, mut at) = (script.initial, 0usize, 0u64);
    loop {
        while let Some(&(_, next)) = script.switches.get(taken).filter(|p| p.0 <= at) {
            (arm, taken) = (next, taken + 1);
        }
        let (mode, m) = (arm, arm as usize);
        let per_period = rates.modal[m];
        // Periods of mode `m` from here: those starting before the next
        // switch point, as long as one of its sources still has budget.
        let upcoming = script.switches.get(taken).map(|p| p.0);
        let by_script = upcoming.map_or(u64::MAX, |p| (p - at).div_ceil(per_period));
        let feeds = |(s, &rate): (usize, &u64)| match budgets[s].checked_sub(plan.produced[s]) {
            Some(left) if rate > 0 => left.div_ceil(rate),
            _ => 0,
        };
        let by_budget = rates.sources[m].iter().enumerate().map(feeds).max();
        let periods = by_script.min(by_budget.unwrap_or(0));
        if periods == 0 {
            break;
        }
        match plan.runs.last_mut() {
            Some((last, run)) if *last == mode => *run += periods,
            last => {
                plan.mode_switches += last.is_some() as u64;
                plan.runs.push((mode, periods));
            }
        }
        for (p, rate) in plan.produced.iter_mut().zip(&rates.sources[m]) {
            *p += periods * rate;
        }
        for (d, rate) in plan.drained.iter_mut().zip(&rates.sinks[m]) {
            *d += periods * rate;
        }
        // The firings `[at, end)` all run mode `m`; those past a switch
        // point to another arm are the drain.
        let end = at + periods * per_period;
        while let Some(&(p, next)) = script.switches.get(taken).filter(|p| p.0 < end) {
            plan.transition_firings += if arm == mode { 0 } else { p - at };
            (arm, taken, at) = (next, taken + 1, p);
        }
        plan.transition_firings += if arm == mode { 0 } else { end - at };
        at = end;
    }
    plan.modal_firings = at;
    plan
}

/// Which units are *active* in one mode of a mode-dependent graph.
///
/// The modal unit fires its mode-`mode` member only, so the slices of the
/// graph that exist purely to feed (or be fed by) the *other* arms make no
/// progress in this mode — a periodic schedule must gate them, or their
/// buffers would drift. A unit gates when any buffer it writes has a gated
/// consumer (or the modal unit not reading it this mode), or any buffer it
/// reads has a gated producer (or the modal unit not writing it this
/// mode); the condition propagates to a fixpoint, so gating walks outward
/// from the modal seam through whole chains (a gated node gates its source
/// upstream and its sink downstream). Unread buffers never gate their
/// writer — the engines drop those commits. Because gating is driven
/// purely by buffer endpoints, both endpoints of any buffer are active in
/// the same modes, which is what keeps every buffer's level untouched
/// across its off-modes.
///
/// The modal unit itself is never gated; if the fixpoint leaves one of its
/// mode-`mode` counterparties gated the mode has no periodic schedule at
/// all and the cluster is rejected.
fn mode_gating(
    graph: &RtGraph,
    access: &[UnitAccess],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
    modal_unit: usize,
    mode: usize,
) -> Result<Vec<bool>, ScheduleError> {
    let touches = |list: &[(RtBufferId, usize)], b: RtBufferId| list.iter().any(|&(lb, _)| lb == b);
    let mut active = vec![true; access.len()];
    loop {
        let mut changed = false;
        for u in 0..access.len() {
            if !active[u] || u == modal_unit {
                continue;
            }
            let gated = access[u]
                .writes
                .iter()
                .any(|&(b, _)| match consumer_unit[b] {
                    None => false,
                    Some(c) => !active[c as usize] || !touches(&access[c as usize].reads, b),
                })
                || access[u]
                    .reads
                    .iter()
                    .any(|&(b, _)| match producer_unit[b] {
                        None => false,
                        Some(p) => !active[p as usize] || !touches(&access[p as usize].writes, b),
                    });
            if gated {
                active[u] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let modal = &access[modal_unit];
    let gated = |end: Option<u32>| end.is_some_and(|u| !active[u as usize]);
    let mut starved = modal.reads.iter().map(|&(b, _)| (b, "reads", "producer"));
    let starved = starved.find(|&(b, ..)| producer_unit[b].is_none() || gated(producer_unit[b]));
    let mut blocked = modal.writes.iter().map(|&(b, _)| (b, "writes", "consumer"));
    let blocked = blocked.find(|&(b, ..)| gated(consumer_unit[b]));
    if let Some((b, verb, end)) = starved.or(blocked) {
        return Err(ScheduleError::Invalid(format!(
            "mode {mode}: the modal unit {verb} buffer `{}` but its {end} is gated in that mode",
            graph.buffers[b].name
        )));
    }
    Ok(active)
}

/// The analysis half of the per-mode table: one row per distinct token
/// flow, each with its access lists and repetition vector.
pub(super) struct Rows {
    /// What the modal unit fires per row: each mode of a mode-dependent
    /// cluster, or the one all-modes row (`None`) of any other graph.
    pub arms: Vec<Option<usize>>,
    pub access: Vec<Vec<UnitAccess>>,
    pub reps: Vec<Vec<u64>>,
}

/// Solve every row of the table. A mode's row gates the off-mode slice,
/// solves the SDF balance equations over the active units, and insists the
/// modal unit itself fires (a mode in which it cannot is not a mode); the
/// all-modes row is the `support` access with every unit active.
pub(super) fn solve_rows(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    modal: Option<&ModalClusterInfo>,
    support: Vec<UnitAccess>,
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
) -> Result<Rows, ScheduleError> {
    let Some(info) = modal.filter(|info| info.mode_dependent) else {
        let active = vec![true; units.len()];
        let reps = repetition_vector(graph, &support, producer_unit, consumer_unit, &active)?;
        return Ok(Rows {
            arms: vec![None],
            access: vec![support],
            reps: vec![reps],
        });
    };
    let unit = modal_unit(units).expect("modal admission implies a modal unit");
    let mut rows = Rows {
        arms: (0..info.members.len()).map(Some).collect(),
        access: Vec::new(),
        reps: Vec::new(),
    };
    for mode in 0..info.members.len() {
        let access = row_access(graph, units, Some(mode));
        let active = mode_gating(graph, &access, producer_unit, consumer_unit, unit, mode)?;
        let reps = repetition_vector(graph, &access, producer_unit, consumer_unit, &active)?;
        if reps[unit] == 0 {
            return Err(ScheduleError::Invalid(format!(
                "mode {mode}: the repetition vector fires the modal unit zero times"
            )));
        }
        rows.access.push(access);
        rows.reps.push(reps);
    }
    Ok(rows)
}

/// The per-mode firing rates of a mode-dependent modal graph, without a
/// full synthesis: what the scripted self-timed engine needs to resolve a
/// [`ModeScript`] into a [`ModePlan`] (period lengths and per-period
/// source/sink token counts). Returns `Ok(None)` for graphs that are not
/// mode-dependent modal (uniform, no clusters, or union-advance — none of
/// which need a plan), and the admission error for inadmissible clusters.
pub fn mode_dependent_rates(
    graph: &RtGraph,
    plan: &RtPlan,
) -> Result<Option<ModeDependentRates>, ScheduleError> {
    let Some(info) = modal_admission(graph, plan)?.filter(|i| i.mode_dependent) else {
        return Ok(None);
    };
    let units = build_units(graph, plan, Some(&info));
    let support = row_access(graph, &units, None);
    let (producer_unit, consumer_unit) = buffer_endpoints(graph, &support);
    let solved = solve_rows(
        graph,
        &units,
        Some(&info),
        support,
        &producer_unit,
        &consumer_unit,
    )?;
    let reps = solved.reps;
    Ok(Some(ModeDependentRates::from_reps(&units, graph, &reps)))
}
