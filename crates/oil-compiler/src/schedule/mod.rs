//! Quasi-static schedule synthesis: periodic static-order schedules.
//!
//! The paper's premise is that OIL's restrictions make the multi-rate
//! schedule *statically derivable*: the compiler knows the repetition
//! vector, the rate ratios and the CTA buffer bounds, so the expensive part
//! of execution — deciding *what fires next* — can be settled at compile
//! time in polynomial time. This pass does exactly that. From an
//! [`RtGraph`] and its [`RtPlan`] it synthesises one **periodic
//! static-order schedule per worker**: a finite firing list whose one
//! iteration fires every scheduling unit exactly its repetition count, so a
//! runtime engine (`oil_rt::staticsched`) can replay the list in a loop
//! with **zero readiness scanning** — the only synchronisation left is
//! blocking block transfers on the buffers that cross a worker boundary,
//! and the partitioning below minimises what crosses.
//!
//! Synthesis in four steps:
//!
//! 1. **Units.** Each uncontested node is a unit. A *uniform* serial
//!    cluster (modal `if`/`switch` twins with identical access lists,
//!    [`RtPlan::cluster_uniform`]) collapses into one **quasi-static**
//!    unit: at run time both engines' deterministic tie-break (the
//!    calendar's id-ordered admission, the self-timed snapshot scan) always
//!    selects the lowest-id member — twins become ready together and the
//!    lowest id wins every time — so the branch arbitration is resolved
//!    *at synthesis time*: the unit fires the representative, and the
//!    firing order around it is fixed. The guard is data-opaque and every
//!    branch moves identical tokens, which is what makes the schedule
//!    quasi-static rather than dynamic. A **non-uniform** cluster (members
//!    gated on disjoint inputs) resolves by token arrival at run time; it is
//!    admitted as a single **modal unit** with one schedule arm per member
//!    when the members share one aggregated write list and read pairwise
//!    disjoint buffers (see [`modal_admission`]): the unit consumes the
//!    union of all members' inputs every firing and fires the arm a
//!    [`ModeScript`] selects, so token flow is mode-independent and the
//!    per-mode schedules differ only in which kernel runs — hot switching
//!    needs no pipeline drain, and [`StaticSchedule::validate_transitions`]
//!    re-proves admission across every (mode, mode') seam by exact integer
//!    replay. Clusters outside that shape are rejected
//!    ([`ScheduleError::NonUniformCluster`]) and the caller falls back to
//!    the self-timed engine. Sources and sinks are units of their own; a
//!    source read by `k` readers is `k` units, one per replica buffer
//!    ([`UnitKind::Source`]), so chains that share only a source are
//!    components of their own.
//! 2. **Repetition vector.** The SDF view over units (collapsing makes
//!    every buffer single-producer/single-consumer) yields the per-unit
//!    firing counts `q` of one graph iteration, per weakly-connected
//!    component.
//! 3. **Admission.** A greedy bursting replay — fire each enabled unit as
//!    often as tokens and CTA-sized capacities allow, round-robin until the
//!    iteration completes — constructs the global firing order. Data-driven
//!    firing is *persistent* on single-producer/single-consumer graphs
//!    (firing one unit never disables another), so the greedy order
//!    completes whenever any order does. The order is then **validated** by
//!    exact integer token accounting ([`StaticSchedule::validate`]): a
//!    schedule is admitted only if replaying it never underflows a buffer
//!    and never exceeds the CTA-sized capacity — which is what lets the
//!    engine drop all runtime checks on intra-worker edges.
//! 4. **Partitioning.** Units are assigned to `workers` workers by
//!    weakly-connected component, balanced by kernel cost estimates
//!    (`q[u] ·` response time). When components outnumber workers each
//!    component stays whole (zero crossings); otherwise workers are
//!    apportioned to components by cost and each component is cut into
//!    contiguous segments of its dataflow order taken *chain by chain* —
//!    the branches of a fork one after the other, not interleaved — with
//!    the lightest bottleneck any such cut achieves, and among those the
//!    fewest chains split and the fewest tokens per period handed across.
//!    Each worker's list is the projection of the global order onto its
//!    units, rewritten by the fusion pass into whole-period super-steps *up
//!    to* the cut: what crosses is one block per period, not a burst per
//!    firing. Because every buffer has one producer and one consumer,
//!    whether a worker's next item can fire never depends on what another
//!    worker has *not* yet done, so replaying the workers' lists side by
//!    side once ([`StaticSchedule::validate`]) proves that no interleaving
//!    of them starves, overruns a ring sized to
//!    [`StaticSchedule::level_max`], or deadlocks.
//!
//! The schedule is *periodic*: one iteration returns every buffer to its
//! starting level (the repetition-vector property), so validating a single
//! iteration from the initial state covers the whole run, and the engine
//! needs no quiescence protocol — it executes a pre-computed number of
//! iterations and stops.

mod fusion;
mod gating;
mod ledger;
mod modal;
mod model;
mod order;
mod partition;
#[cfg(test)]
mod tests;
mod validate;

pub use fusion::{fusion_enabled, parse_fusion, FUSED_BATCH_MAX, FUSED_BATCH_TOKENS};
pub use gating::{mode_dependent_rates, plan_mode_sequence, ModeDependentRates, ModePlan};
pub use ledger::{modal_member_access, PortAccessList};
pub use modal::{collapse_modal, modal_admission, ModalClusterInfo};
pub use model::{
    FusedRun, FusionStats, ModalSchedule, ModeDependent, ModeScript, PhaseSpan, ScheduleError,
    ScheduleUnit, StaticSchedule, Step, UnitKind, WorkItem, MAX_PERIOD_FIRINGS,
};

use crate::costmodel::KernelCostModel;
use crate::rtgraph::{RtBufferId, RtGraph, RtPlan};
use ledger::{engine_capacities, Ledger};
use oil_dataflow::Rational;

/// Caller-supplied synthesis knobs. The environment is consulted only by
/// [`SynthesisConfig::from_env`] — call it once at a process entry point
/// (CLI, bench main, test harness setup) and thread the value through,
/// instead of re-reading `OIL_RT_FUSION` inside every synthesis, which is
/// racy when tests mutate the environment across threads and invisible to
/// callers.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisConfig {
    /// Run the fusion pass (super-step coalescing; see [`FusedRun`]).
    pub fusion: bool,
    /// Worst-case source-to-sink latency (seconds) a mode-switch seam may
    /// introduce, enforced by the CTA seam-latency check in
    /// [`StaticSchedule::validate_transitions`] for mode-dependent
    /// schedules. `None` leaves the seam latency unconstrained (it is still
    /// computed and reported in [`ModeDependent::seam_latency_max`]).
    pub seam_latency_bound: Option<Rational>,
    /// Measured per-kernel costs steering `partition_workers`. `None`
    /// balances on the declared CTA response times (the historical
    /// behaviour, byte-identical schedules). `Some` balances on measured
    /// ns/firing, falling back to the declared response (scaled to ns) for
    /// functions the model has not calibrated — placement only, the
    /// partition is still proven by the exact-integer replay either way.
    pub cost_model: Option<KernelCostModel>,
}

impl Default for SynthesisConfig {
    fn default() -> Self {
        SynthesisConfig {
            fusion: true,
            seam_latency_bound: None,
            cost_model: None,
        }
    }
}

impl SynthesisConfig {
    /// Read the configuration from the environment once (`OIL_RT_FUSION=0`
    /// disables fusion, `1` or unset enables it; anything else is a loud
    /// error — see [`fusion_enabled`]. `OIL_COST_MODEL=<path>` loads a
    /// measured cost model, loud on junk — see
    /// [`KernelCostModel::from_env`]).
    pub fn from_env() -> Self {
        SynthesisConfig {
            fusion: fusion_enabled(),
            cost_model: KernelCostModel::from_env(),
            ..SynthesisConfig::default()
        }
    }
}

/// Accumulates [`PhaseSpan`]s as synthesis walks its passes: each
/// [`PhaseTimer::lap`] closes the phase that ran since the previous lap.
struct PhaseTimer {
    last: std::time::Instant,
    phases: Vec<PhaseSpan>,
}

impl PhaseTimer {
    fn start() -> Self {
        PhaseTimer {
            last: std::time::Instant::now(),
            phases: Vec::new(),
        }
    }

    fn lap(&mut self, name: &'static str) {
        let now = std::time::Instant::now();
        self.phases.push(PhaseSpan {
            name,
            dur_ns: now.duration_since(self.last).as_nanos() as u64,
        });
        self.last = now;
    }
}

/// Synthesise a periodic static-order schedule for `workers` workers.
///
/// `workers` is clamped to `[1, #units]`. The plan must have been computed
/// for `graph` (as for [`crate::rtgraph::plan`] consumers). `config`
/// carries the caller-resolved knobs — build it once per process with
/// [`SynthesisConfig::from_env`] (or use [`SynthesisConfig::default`]);
/// synthesis itself never reads the environment.
///
/// One body serves every graph shape through the **per-mode table**: one
/// row (access lists, repetition vector, admitted period, worker
/// projections) per distinct token flow. Uniform and union-advance graphs
/// have a single row; a mode-dependent cluster ([`modal_admission`]) has
/// one row per arm, each over the mode's active slice of the graph. One
/// worker partition serves every row (balanced by each unit's worst row),
/// and the top-level period/workers/repetitions/fused lists are row 0's.
/// Every row fuses on its own ([`ModeDependent::fused`]): a fused run is
/// compiled against one mode's token flow and executed in that mode's
/// periods only.
pub fn synthesize(
    graph: &RtGraph,
    plan: &RtPlan,
    workers: usize,
    config: &SynthesisConfig,
) -> Result<StaticSchedule, ScheduleError> {
    // --- 1. Units, in the self-timed engine's unit order (clusters at
    // their first member). Non-uniform clusters outside both admissible
    // shapes reject here.
    let mut timer = PhaseTimer::start();
    let modal = modal_admission(graph, plan)?;
    let mut units = order::build_units(graph, plan, modal.as_ref());
    // --- Buffer endpoints over units, from the support access. Collapsing
    // clusters makes every read buffer single-producer/single-consumer
    // (the contested endpoints all belonged to one cluster).
    let support = ledger::row_access(graph, &units, None);
    let (producer_unit, consumer_unit) = order::buffer_endpoints(graph, &support);
    let capacity = engine_capacities(graph);
    timer.lap("modal_admission");

    // --- 2. Per row of the table: the repetition vector of the SDF view
    // over the row's active units. --- 3. Then the greedy bursting
    // admission (persistence of data-driven firing on SPSC graphs
    // guarantees the greedy order completes whenever any order does).
    let gating::Rows { arms, access, reps } = gating::solve_rows(
        graph,
        &units,
        modal.as_ref(),
        support,
        &producer_unit,
        &consumer_unit,
    )?;
    let firings = reps.iter().map(|reps| reps.iter().sum::<u64>());
    if let Some(firings) = firings.max().filter(|&f| f > MAX_PERIOD_FIRINGS) {
        return Err(ScheduleError::PeriodTooLong { firings });
    }
    timer.lap("repetition_vector");
    let mut periods = (access.iter().zip(&reps))
        .map(|(access, reps)| {
            let ledger = Ledger::new(graph, |b| consumer_unit[b].is_some());
            order::greedy_period(ledger, access, &capacity, reps)
        })
        .collect::<Result<Vec<_>, _>>()?;
    timer.lap("firing_order");
    for (unit, &r) in units.iter_mut().zip(&reps[0]) {
        unit.repetitions = r;
    }
    let components = order::assign_components(&mut units, graph, &producer_unit, &consumer_unit);

    // --- 4. Partition units over workers by component, balanced by kernel
    // cost estimates; a component that must be split is cut along its
    // chain-contiguous dataflow order, first firings taken across the
    // concatenated row periods so units gated in row 0 still get a
    // position.
    let workers = workers.clamp(1, units.len().max(1));
    let cost = partition::unit_costs(graph, &units, config.cost_model.as_ref(), &reps, &arms);
    let order = periods.iter().flatten().copied();
    let flow = partition::Flow::new(graph, &access, &reps, &producer_unit, &consumer_unit);
    partition::partition_workers(&mut units, &cost, components, workers, order, &flow);
    partition::renumber_workers(&mut units, workers);
    let worker_count = units.iter().map(|u| u.worker + 1).max().unwrap_or(1);
    let mut steps: Vec<Vec<Vec<Step>>> = periods
        .iter()
        .map(|p| partition::project_period(p, &units, worker_count))
        .collect();
    let cross_buffers: Vec<RtBufferId> = graph
        .buffers
        .indices()
        .filter(|&b| match (producer_unit[b], consumer_unit[b]) {
            (Some(p), Some(c)) => units[p as usize].worker != units[c as usize].worker,
            _ => false,
        })
        .collect();
    timer.lap("partition");

    // One fused list per row, each rewritten against the row's own token
    // flow; the rings are sized to the highest level any row reaches.
    let fuse = |row: usize| {
        fusion::fuse_workers(
            graph,
            &access[row],
            &units,
            &producer_unit,
            &consumer_unit,
            &steps[row],
            arms[row].is_some(),
        )
    };
    let plain = |row: usize| steps[row].iter().map(|w| WorkItem::plain(w)).collect();
    let (fused_workers, mut fusion, mut level_max) = if config.fusion {
        fuse(0)
    } else {
        (plain(0), FusionStats::default(), capacity)
    };
    // The rows of a mode-dependent table (row 0 is the top level's), each
    // with the number of periods the engine may execute as one pass.
    let (mut fused, mut batch) = (Vec::new(), Vec::new());
    let mode_rows = if arms[0].is_some() { arms.len() } else { 0 };
    for (row, access) in access.iter().enumerate().take(mode_rows) {
        let lists = match (row, config.fusion) {
            (0, _) => fused_workers.clone(),
            (_, false) => plain(row),
            (_, true) => {
                let (lists, stats, levels) = fuse(row);
                fusion.absorb(stats);
                for (max, level) in level_max.iter_mut().zip(levels.iter()) {
                    *max = (*max).max(*level);
                }
                lists
            }
        };
        batch.push(match config.fusion {
            true => fusion::batch_row(graph, access, &consumer_unit, &lists, &mut level_max),
            false => 1,
        });
        fused.push(lists);
    }
    timer.lap("fusion");
    // --- The mode-dependent tables, with the worst-case seam latency over
    // all ordered mode pairs (a pair over the configured bound surfaces
    // here as [`ScheduleError::SeamLatency`]).
    let (period, workers) = match arms[0] {
        Some(_) => (periods[0].clone(), steps[0].clone()),
        None => (periods.swap_remove(0), steps.swap_remove(0)),
    };
    let mut dependent = arms[0].map(|_| ModeDependent {
        reps,
        periods,
        steps,
        fused,
        batch,
        seam_latency_max: Rational::ZERO,
        seam_latency_bound: config.seam_latency_bound,
    });
    if let Some(dep) = &mut dependent {
        dep.seam_latency_max = validate::worst_seam_latency(graph, &units, dep)?;
        timer.lap("seam_latency_proof");
    }
    let predicted_utilization = partition::worker_utilization(&units, &cost, worker_count);
    let mut schedule = StaticSchedule {
        modes: modal.as_ref().map(|m| ModalSchedule {
            unit: model::modal_unit(&units).expect("modal admission implies a modal unit") as u32,
            arms: m.members.clone(),
            arm_names: m
                .members
                .iter()
                .map(|&n| graph.nodes[n].name.clone())
                .collect(),
            dependent,
        }),
        units,
        period,
        workers,
        components,
        producer_unit,
        consumer_unit,
        cross_buffers,
        fused_workers,
        fusion,
        level_max,
        phases: Vec::new(),
        cost_model_hash: config.cost_model.as_ref().map(|m| m.fingerprint()),
        predicted_utilization,
    };
    // Admission: the schedule is returned only with its validity — and,
    // for modal schedules, every switch seam — proven by exact replay (the
    // seam latency it records was computed just above).
    schedule.validate(graph)?;
    schedule.validate_seams(graph)?;
    timer.lap("admission_proof");
    schedule.phases = timer.phases;
    Ok(schedule)
}
