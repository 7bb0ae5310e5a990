//! The schedule model: units, steps, fused runs, the per-mode tables, the
//! [`StaticSchedule`] itself and its stable digests.

use super::gating::ModeDependentRates;
use super::ledger::{port, row_access};
use super::order::UnitOf;
use crate::rtgraph::{RtBufferId, RtGraph, RtNodeId, RtSinkId, RtSourceId};
use oil_dataflow::fnv::Fnv1a;
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::Rational;

/// Budget on total firings in one schedule period: beyond this the schedule
/// would not amortise its own memory traffic and the caller should fall
/// back to a dynamic engine.
pub const MAX_PERIOD_FIRINGS: u64 = 1 << 22;

/// Why a graph admits no static-order schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A non-uniform serial cluster that the per-mode synthesis cannot
    /// admit as a modal unit: its members diverge in their write sets,
    /// share read buffers, or it is not the only non-uniform cluster of
    /// the graph. (`oil_rt::selftimed` handles these by pinning the
    /// component to one worker.)
    NonUniformCluster {
        /// Index into [`RtPlan::clusters`](crate::rtgraph::RtPlan::clusters).
        cluster: u32,
        /// The member node names, ascending by node id — so a failing
        /// corpus seed is diagnosable from the message alone.
        members: Vec<String>,
    },
    /// The SDF view of the graph has no repetition vector (rate
    /// inconsistency or overflow) — nothing periodic exists to schedule.
    NoRepetitionVector {
        /// The underlying SDF error, rendered.
        reason: String,
    },
    /// One period would exceed [`MAX_PERIOD_FIRINGS`] firings.
    PeriodTooLong {
        /// Firings one iteration requires.
        firings: u64,
    },
    /// The greedy admission replay stalled before completing the
    /// iteration: the CTA-sized capacities cannot carry one full period
    /// (the same graphs deadlock under self-timed execution).
    Stuck {
        /// Firings admitted before the stall.
        admitted: u64,
        /// Firings the iteration requires.
        required: u64,
    },
    /// The CTA-bounded worst-case source-to-sink latency across a mode
    /// switch seam (drain the outgoing period, fill the incoming period)
    /// exceeds the program's latency constraint.
    SeamLatency {
        /// Outgoing mode.
        from: u32,
        /// Incoming mode.
        to: u32,
        /// The actual seam latency in seconds, exact.
        latency: Rational,
        /// The violated bound in seconds.
        bound: Rational,
    },
    /// Post-construction validation failed; the message names the buffer
    /// and step. Reaching this is a synthesis bug, not a property of the
    /// program.
    Invalid(String),
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NonUniformCluster { cluster, members } => write!(
                f,
                "serial cluster #{cluster} [{}] is non-uniform and not modal-admissible: \
                 its members diverge in write sets, share read buffers, or it is not \
                 the only non-uniform cluster — the merge order is data-dependent and \
                 admits no per-mode static-order schedule",
                members.join(", ")
            ),
            ScheduleError::NoRepetitionVector { reason } => {
                write!(f, "no repetition vector: {reason}")
            }
            ScheduleError::PeriodTooLong { firings } => write!(
                f,
                "one schedule period needs {firings} firings \
                 (budget {MAX_PERIOD_FIRINGS})"
            ),
            ScheduleError::Stuck { admitted, required } => write!(
                f,
                "admission stalled after {admitted} of {required} firings: the \
                 CTA-sized capacities cannot carry one schedule period"
            ),
            ScheduleError::SeamLatency {
                from,
                to,
                latency,
                bound,
            } => write!(
                f,
                "mode switch {from}->{to}: worst-case seam latency {}s exceeds \
                 the latency bound {}s",
                latency.to_f64(),
                bound.to_f64()
            ),
            ScheduleError::Invalid(message) => write!(f, "schedule validation: {message}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A scripted mode-change sequence: which arm of the modal unit each of
/// its firings executes. This is the compile-side stand-in for the
/// run-time mode-change tokens of the paper's `if`/`switch` guards — the
/// engines consult it per modal firing, so a switch takes effect *at* a
/// firing boundary with no pipeline drain (token flow is arm-independent
/// under union-advance, so the rest of the schedule never notices).
///
/// The default script runs arm 0 forever.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModeScript {
    /// Arm before the first switch point.
    pub initial: u32,
    /// `(firing index, arm)` pairs: from the modal unit's `index`-th firing
    /// onward, run `arm` (until the next entry takes over).
    ///
    /// **Invariant:** strictly ascending by firing index — [`Self::arm_at`]
    /// binary-searches it. [`Self::new`] establishes that from any input;
    /// code that fills the field directly must keep it.
    pub switches: Vec<(u64, u32)>,
}

impl ModeScript {
    /// A script that never switches.
    pub fn constant(arm: u32) -> Self {
        ModeScript {
            initial: arm,
            switches: Vec::new(),
        }
    }

    /// A script from (possibly unsorted, possibly duplicated) switch
    /// points: entries are sorted by firing index and duplicates collapse
    /// to the *last* entry given for that index — the entry [`Self::arm_at`]
    /// would have let win anyway, so normalisation never changes the arm
    /// sequence, it only makes the representation canonical.
    pub fn new(initial: u32, mut switches: Vec<(u64, u32)>) -> Self {
        switches.sort_by_key(|&(at, _)| at);
        switches.dedup_by(|later, earlier| {
            if later.0 == earlier.0 {
                earlier.1 = later.1;
                true
            } else {
                false
            }
        });
        ModeScript { initial, switches }
    }

    /// Check every arm index against the `arms` that exist. The engines'
    /// scripted entry points call this (via [`Self::validate`]) before
    /// executing, so an out-of-range arm is a loud, immediate error instead
    /// of a silently-clamped firing deep in the run.
    pub fn validate_arms(&self, arms: usize) -> Result<(), String> {
        let check = |what: &str, arm: u32| -> Result<(), String> {
            if (arm as usize) < arms {
                Ok(())
            } else {
                Err(format!(
                    "mode script {what} selects arm {arm}, but only arms \
                     0..{arms} exist"
                ))
            }
        };
        check("initial arm", self.initial)?;
        for &(at, arm) in &self.switches {
            check(&format!("switch point at firing {at}"), arm)?;
        }
        Ok(())
    }

    /// [`Self::validate_arms`] against a schedule's modal dimension.
    pub fn validate(&self, modes: &ModalSchedule) -> Result<(), String> {
        self.validate_arms(modes.arms.len())
    }

    /// The arm the `firing`-th modal firing executes. Engines clamp the
    /// result to the arms that exist.
    pub fn arm_at(&self, firing: u64) -> u32 {
        let taken = self.switches.partition_point(|&(at, _)| at <= firing);
        match taken.checked_sub(1) {
            Some(last) => self.switches[last].1,
            None => self.initial,
        }
    }
}

/// What one scheduling unit is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitKind {
    /// One uncontested data-driven node.
    Node(RtNodeId),
    /// A uniform modal cluster, quasi-statically resolved: the firing
    /// executes `representative` (the lowest-id member — the choice both
    /// dynamic engines' tie-breaks make at every decision), the remaining
    /// `members` are starved, exactly as under dynamic execution.
    Cluster {
        /// The member every firing executes.
        representative: RtNodeId,
        /// All members, ascending (including the representative).
        members: Vec<RtNodeId>,
    },
    /// A **modal unit**: a non-uniform cluster admitted under the
    /// union-advance rule ([`modal_admission`](super::modal_admission)). Every firing consumes the
    /// union of all members' aggregated reads and produces the shared
    /// write list; which member's kernel runs is the schedule *arm* a
    /// [`ModeScript`] selects at run time. Token flow is therefore
    /// mode-independent — one repetition vector, period and partition
    /// serve every mode, and switching arms mid-stream is sound without
    /// draining the pipeline.
    Modal {
        /// All members, ascending by node id; arm `k` fires `members[k]`.
        members: Vec<RtNodeId>,
    },
    /// A time-triggered source (one sample per firing). Sources are pure
    /// sequences — sample `n` is a function of `n` alone — so a source read
    /// by `k` readers is `k` units, one per replica buffer, each generating
    /// the same stream on its own: the readers' chains share no unit and
    /// become components of their own. A source with one output, and every
    /// source of a mode-dependent schedule (whose per-mode tables count
    /// tokens per source), is one unit writing all its replica buffers.
    Source {
        /// The source this unit generates.
        source: RtSourceId,
        /// The one replica buffer this unit writes; `None`: it writes every
        /// replica buffer of the source.
        replica: Option<RtBufferId>,
    },
    /// A sink (one value drained per firing).
    Sink(RtSinkId),
}

impl UnitKind {
    /// The nodes whose kernel a firing of the unit may run: the node
    /// itself, a uniform cluster's representative, the modal member `arm`
    /// selects (any member for `None`), none for sources and sinks.
    pub(super) fn nodes(&self, arm: Option<usize>) -> &[RtNodeId] {
        match (self, arm) {
            (UnitKind::Node(id), _)
            | (
                UnitKind::Cluster {
                    representative: id, ..
                },
                _,
            ) => std::slice::from_ref(id),
            (UnitKind::Modal { members }, Some(k)) => &members[k..=k],
            (UnitKind::Modal { members }, None) => members,
            (UnitKind::Source { .. } | UnitKind::Sink(_), _) => &[],
        }
    }

    /// The buffers a firing of a source unit writes one sample to: its
    /// replica, or every replica buffer of its source (none for the other
    /// kinds).
    pub fn source_outputs<'a>(&'a self, graph: &'a RtGraph) -> &'a [RtBufferId] {
        match self {
            UnitKind::Source {
                replica: Some(b), ..
            } => std::slice::from_ref(b),
            UnitKind::Source { source, .. } => &graph.sources[*source].outputs,
            _ => &[],
        }
    }
}

/// One scheduling unit with its synthesis results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleUnit {
    /// What fires.
    pub kind: UnitKind,
    /// Weakly-connected component of the unit (components iterate
    /// independently — their iteration counts are decoupled at run time).
    pub component: u32,
    /// The worker whose list contains this unit's firings.
    pub worker: usize,
    /// Firings per schedule period (the repetition-vector entry).
    pub repetitions: u64,
}

/// A run of consecutive firings of one unit inside a period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// Index into [`StaticSchedule::units`].
    pub unit: u32,
    /// Consecutive firings at this position.
    pub times: u32,
}

/// A fused super-step: a chain of producer→consumer stages executed as one
/// pass over scratch memory.
///
/// Within one run, stage `i + 1` consumes *exactly* the tokens stage `i`
/// produces (`times[i] · prod == times[i+1] · cons`), and the link buffer
/// between them holds no standing tokens when the run starts — so the
/// intermediate tokens never touch a ring: the executor hands stage `i`'s
/// output slice directly to stage `i + 1`. Only the head's reads and the
/// tail's writes go through real buffers — which may cross to another
/// worker; the links never do. Fusion is legal because OIL's coordinated
/// functions are side-effect-free (the paper's restriction): reordering a
/// worker's firings changes no per-buffer value stream, and the cooperative
/// replay in [`StaticSchedule::validate`] re-proves the token bounds, and
/// that no worker waits forever, over the fused order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedRun {
    /// The stages in dataflow order (at least two).
    pub stages: Vec<Step>,
    /// The link buffer carried in scratch between consecutive stages
    /// (`stages.len() - 1` entries).
    pub links: Vec<RtBufferId>,
    /// True when this run is its component's *entire* period: the executor
    /// may batch consecutive iterations of the run back to back (the links
    /// are scratch, so concatenating periods never overflows them).
    pub batch: bool,
}

impl FusedRun {
    /// Total firings the run executes.
    pub fn firings(&self) -> u64 {
        self.stages.iter().map(|s| s.times as u64).sum()
    }
}

/// One item of a worker's fused firing list: a plain step or a fused run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkItem {
    /// An unfused run of one unit's firings.
    Step(Step),
    /// A fused chain executed through scratch.
    Fused(FusedRun),
}

impl WorkItem {
    /// A step list as the unfused work items it is.
    pub(super) fn plain(steps: &[Step]) -> Vec<WorkItem> {
        steps.iter().map(|&s| WorkItem::Step(s)).collect()
    }

    /// The item's stages, in firing order (a plain step is its only stage).
    pub(super) fn stages(&self) -> &[Step] {
        match self {
            WorkItem::Step(s) => std::slice::from_ref(s),
            WorkItem::Fused(run) => &run.stages,
        }
    }

    /// The stages whose ring traffic the item carries: the first stage's
    /// reads and the last stage's writes (everything between is scratch).
    pub(super) fn ends(&self) -> (Step, Step) {
        let stages = self.stages();
        (stages[0], stages[stages.len() - 1])
    }

    /// The item `by` periods at a time: every stage fires `by ×` as often
    /// (`None` when a firing count leaves `u32`).
    fn scaled(&self, by: u32) -> Option<WorkItem> {
        let scale = |s: &Step| {
            let times = s.times.checked_mul(by)?;
            Some(Step { times, ..*s })
        };
        Some(match self {
            WorkItem::Step(s) => WorkItem::Step(scale(s)?),
            WorkItem::Fused(run) => WorkItem::Fused(FusedRun {
                stages: run.stages.iter().map(scale).collect::<Option<_>>()?,
                ..run.clone()
            }),
        })
    }

    /// Every worker's list `by` periods at a time (see
    /// [`ModeDependent::batch`]).
    pub(super) fn scaled_lists(lists: &[Vec<WorkItem>], by: u32) -> Option<Vec<Vec<WorkItem>>> {
        let scale = |items: &Vec<WorkItem>| items.iter().map(|i| i.scaled(by)).collect();
        lists.iter().map(scale).collect()
    }
}

/// What the fusion pass did to a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Fused runs across all workers.
    pub runs_fused: u32,
    /// Buffers whose ring traffic is eliminated *entirely* (every period
    /// token flows through scratch).
    pub rings_elided: u32,
    /// Longest chain (stage count) of any fused run.
    pub fused_chain_len_max: u32,
}

impl FusionStats {
    /// Fold one more mode row's stats in: a mode-dependent schedule reports
    /// the pass's work over all its rows.
    pub(super) fn absorb(&mut self, row: FusionStats) {
        self.runs_fused += row.runs_fused;
        self.rings_elided += row.rings_elided;
        self.fused_chain_len_max = self.fused_chain_len_max.max(row.fused_chain_len_max);
    }
}

/// The modal dimension of a schedule: which unit is modal and which node
/// each arm dispatches to. Present iff the graph had a (modal-admissible)
/// non-uniform cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModalSchedule {
    /// Index into [`StaticSchedule::units`] of the modal unit.
    pub unit: u32,
    /// Arm `k` fires `arms[k]` (the cluster members, ascending by id).
    pub arms: Vec<RtNodeId>,
    /// The members' node names (same order), for reports and logs.
    pub arm_names: Vec<String>,
    /// `Some` when the cluster is **mode-dependent** (arms diverge in their
    /// write lists or overlap in their reads): token flow then differs per
    /// mode, so each mode carries its own repetition vector and firing
    /// order, and a switch takes effect at a verified period seam (drain
    /// the outgoing period, fill the incoming one) instead of
    /// hot-switching. `None` is the union-advance case, where the shared
    /// period serves every mode.
    pub dependent: Option<ModeDependent>,
}

/// The per-mode dimension of a mode-dependent schedule: one repetition
/// vector, firing order and fused worker lists per mode, plus the CTA
/// seam-latency result. Every per-mode period is anchored at the graph's
/// initial levels and proven level-preserving, so mode `from`'s
/// end-of-period state *is* mode `to`'s entry state: a switch seam is
/// `period(from) ++ period(to)` with nothing in between, re-proven over the
/// fused lists for every ordered pair by
/// [`StaticSchedule::validate_transitions`]. The schedule's top-level
/// `period`/`workers`/`repetitions`/`fused_workers` are mode 0's (the
/// initial mode of the default script); the engines index into these
/// tables per run of same-mode periods.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeDependent {
    /// Per mode, per unit: firings per period. Units *gated* in a mode
    /// (their token flow reaches the modal unit only through arms that mode
    /// never fires) have repetition 0 there and simply do not appear in
    /// that mode's period.
    pub reps: Vec<Vec<u64>>,
    /// Per mode: the admitted global firing order of one period.
    pub periods: Vec<Vec<Step>>,
    /// Per mode, per worker: the projection of that mode's period onto the
    /// worker's units (the shared partition serves every mode).
    pub steps: Vec<Vec<Vec<Step>>>,
    /// Per mode, per worker: the list the engine executes for one period of
    /// the mode — [`Self::steps`] rewritten by the fusion pass against the
    /// mode's own token flow (the plain projection when fusion is off).
    /// Within one mode the modal unit fires one fixed member, so here it
    /// chains like any node.
    pub fused: Vec<Vec<Vec<WorkItem>>>,
    /// Per mode: how many consecutive periods of the mode the engine may
    /// execute as one pass, every item firing that many periods' worth at
    /// once (1: none). [`StaticSchedule::validate`] replays the lists
    /// scaled by this factor, and [`StaticSchedule::level_max`] covers the
    /// levels that replay reaches.
    pub batch: Vec<u32>,
    /// Worst-case source-to-sink latency (seconds) across any switch seam:
    /// the maximum over ordered mode pairs of drain + fill work, as bounded
    /// by the CTA seam-latency query. Exact.
    pub seam_latency_max: Rational,
    /// The bound [`StaticSchedule::validate_transitions`] enforces on the
    /// seam latency of every ordered pair (from
    /// [`SynthesisConfig::seam_latency_bound`](super::SynthesisConfig::seam_latency_bound)).
    pub seam_latency_bound: Option<Rational>,
}

impl ModeDependent {
    /// Number of modes.
    pub fn mode_count(&self) -> usize {
        self.reps.len()
    }

    /// The per-mode firing rates the engines schedule by (see
    /// [`ModeDependentRates`]), extracted from the repetition tables.
    pub fn rates(&self, units: &[ScheduleUnit], graph: &RtGraph) -> ModeDependentRates {
        ModeDependentRates::from_reps(units, graph, &self.reps)
    }
}

/// The index of the modal unit, if the schedule has one.
pub(super) fn modal_unit(units: &[ScheduleUnit]) -> Option<usize> {
    units
        .iter()
        .position(|u| matches!(u.kind, UnitKind::Modal { .. }))
}

/// Wall time of one synthesis phase, recorded by [`synthesize`](super::synthesize) so the
/// runtime's trace layer (`oil_rt::trace`) can report where compile time
/// went (CTA admission, repetition-vector solve, firing-order proof,
/// fusion, per-mode synthesis). Excluded from [`StaticSchedule::digest`]:
/// timings are observations, not schedule structure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (stable across runs; used as a trace label).
    pub name: &'static str,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// A synthesised periodic static-order schedule.
///
/// Equality compares schedule *structure* only: [`Self::phases`] is
/// wall-clock observation and two otherwise-identical syntheses must
/// compare equal regardless of how long their passes took.
#[derive(Debug, Clone)]
pub struct StaticSchedule {
    /// All scheduling units.
    pub units: Vec<ScheduleUnit>,
    /// The admitted global firing order of one period (run-length encoded).
    pub period: Vec<Step>,
    /// Per worker: the projection of [`Self::period`] onto its units.
    pub workers: Vec<Vec<Step>>,
    /// Number of weakly-connected components.
    pub components: u32,
    /// Per buffer: the unit producing into it (`None` when only initial
    /// tokens ever occupy it).
    pub producer_unit: UnitOf,
    /// Per buffer: the unit consuming from it (`None` for unread buffers —
    /// the engine records and drops the writer's commits).
    pub consumer_unit: UnitOf,
    /// Buffers whose producer and consumer live on different workers: the
    /// only places the engine synchronises.
    pub cross_buffers: Vec<RtBufferId>,
    /// Per worker: the firing list the engine actually executes — the
    /// projection of [`Self::period`] rewritten by the fusion pass (or the
    /// plain projection wrapped in [`WorkItem::Step`] when fusion is off).
    pub fused_workers: Vec<Vec<WorkItem>>,
    /// What the fusion pass did (over every mode row of a mode-dependent
    /// schedule).
    pub fusion: FusionStats,
    /// Per buffer: the level its ring is sized to — the highest the
    /// cooperative replay of [`Self::fused_workers`] (of any mode row, at
    /// its [`ModeDependent::batch`]) reaches, floored at the
    /// declared engine capacity. Fusion and step coalescing move a whole
    /// period's tokens at once where the admitted period moved a burst, so
    /// a ring — worker-local or crossing — may need more room than the CTA
    /// capacity; [`Self::validate`] proves this bound is enough.
    pub level_max: IndexVec<RtBufferId, u64>,
    /// The per-mode dimension: `Some` iff the graph had a modal-admissible
    /// non-uniform cluster. The period/worker lists are shared by every
    /// mode (union-advance makes token flow mode-independent); the arms
    /// differ only in which member kernel the modal unit dispatches to.
    pub modes: Option<ModalSchedule>,
    /// Wall time of each synthesis phase, in pass order. Observational
    /// only: not part of [`Self::digest`] and never compared by the
    /// golden corpus.
    pub phases: Vec<PhaseSpan>,
    /// Per worker: predicted utilization under the cost vector the
    /// partitioner balanced (worker load / heaviest worker load, in
    /// `(0, 1]`). Observational, excluded from equality and digest.
    pub predicted_utilization: Vec<f64>,
}

impl PartialEq for StaticSchedule {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `phases` (wall time, nondeterministic) and
        // `predicted_utilization` (observational, not structure).
        self.units == other.units
            && self.period == other.period
            && self.workers == other.workers
            && self.components == other.components
            && self.producer_unit == other.producer_unit
            && self.consumer_unit == other.consumer_unit
            && self.cross_buffers == other.cross_buffers
            && self.fused_workers == other.fused_workers
            && self.fusion == other.fusion
            && self.level_max == other.level_max
            && self.modes == other.modes
    }
}

impl Eq for StaticSchedule {}

impl StaticSchedule {
    /// Worker count of the schedule.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Total firings in one period.
    pub fn period_firings(&self) -> u64 {
        self.period.iter().map(|s| s.times as u64).sum()
    }

    /// Iterations each component must execute so that the periodic replay
    /// *covers* a data-driven (self-timed) execution with the given source
    /// sample budgets: enough that every unit fires at least as often as
    /// the maximal data-driven run would.
    ///
    /// A data-driven engine drains the pipeline at end of run — including
    /// firings enabled by standing initial-token stock that a periodic
    /// (level-preserving) schedule never consumes — so covering the source
    /// budgets alone is not enough. This computes the exact maximal firing
    /// counts `N[u]` as the greatest fixpoint of
    /// `N[u] = min_b ⌊(initial(b) + prod(b)·N[producer(b)]) / cons(b)⌋`
    /// seeded with `N[source] = budget` (every replica unit of a source
    /// gets the source's budget), then takes
    /// `max_u ⌈N[u] / q[u]⌉` per component. Units a budget constraint never
    /// reaches (source-free cycles, which a data-driven engine would spin
    /// on forever) contribute nothing; a component with no bounded units
    /// iterates zero times.
    pub fn covering_iterations(
        &self,
        graph: &RtGraph,
        budget: impl Fn(RtSourceId) -> u64,
    ) -> Vec<u64> {
        const UNBOUNDED: u128 = u128::MAX;
        let access = row_access(graph, &self.units, None);
        let mut n: Vec<u128> = self
            .units
            .iter()
            .map(|u| match u.kind {
                UnitKind::Source { source, .. } => budget(source) as u128,
                _ => UNBOUNDED,
            })
            .collect();
        // Downward fixpoint iteration; the pass cap only guards adversarial
        // lossy cycles — stopping early leaves an over-estimate, which is
        // the safe direction (the replay runs a few more level-preserving
        // iterations than strictly needed).
        for _pass in 0..self.units.len().max(1) * 64 {
            let mut changed = false;
            for (u, a) in access.iter().enumerate() {
                if matches!(self.units[u].kind, UnitKind::Source { .. }) {
                    continue;
                }
                let mut bound = UNBOUNDED;
                for &(b, c) in &a.reads {
                    let avail = match self.producer_unit[b] {
                        Some(p) => {
                            let pc = port(&access[p as usize].writes, b) as u128;
                            match n[p as usize] {
                                UNBOUNDED => UNBOUNDED,
                                np => (graph.buffers[b].initial_tokens as u128)
                                    .saturating_add(pc.saturating_mul(np)),
                            }
                        }
                        None => graph.buffers[b].initial_tokens as u128,
                    };
                    if avail != UNBOUNDED {
                        bound = bound.min(avail / c.max(1) as u128);
                    }
                }
                if bound < n[u] {
                    n[u] = bound;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let mut iters = vec![0u64; self.components as usize];
        for (u, unit) in self.units.iter().enumerate() {
            if unit.repetitions == 0 || n[u] == UNBOUNDED {
                continue;
            }
            let need = u64::try_from(n[u].div_ceil(unit.repetitions as u128)).unwrap_or(u64::MAX);
            let slot = &mut iters[unit.component as usize];
            *slot = (*slot).max(need);
        }
        iters
    }

    /// A stable FNV-1a digest of the schedule structure (units, period
    /// order, worker projections) for the golden schedule corpus.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.units.len() as u64);
        for u in &self.units {
            let (tag, ids): (u64, Vec<usize>) = match &u.kind {
                UnitKind::Node(id) => (0, vec![id.index()]),
                UnitKind::Cluster {
                    representative,
                    members,
                } => {
                    let ids = std::iter::once(representative).chain(members);
                    (1, ids.map(|m| m.index()).collect())
                }
                // A replica also mixes in its buffer; a source that is one
                // unit digests as it did before sources had replicas.
                UnitKind::Source { source, replica } => {
                    let ids = std::iter::once(source.index()).chain(replica.map(|b| b.index()));
                    (2, ids.collect())
                }
                UnitKind::Sink(id) => (3, vec![id.index()]),
                UnitKind::Modal { members } => (4, members.iter().map(|m| m.index()).collect()),
            };
            h.write_u64(tag);
            for id in ids {
                h.write_u64(id as u64);
            }
            h.write_u64(u.component as u64);
            h.write_u64(u.worker as u64);
            h.write_u64(u.repetitions);
        }
        write_steps(&mut h, &self.period, true);
        h.write_u64(self.workers.len() as u64);
        for w in &self.workers {
            write_steps(&mut h, w, true);
        }
        for items in &self.fused_workers {
            write_items(&mut h, items);
        }
        if let Some(m) = &self.modes {
            h.write_u64(5);
            h.write_u64(m.unit as u64);
            for &a in &m.arms {
                h.write_u64(a.index() as u64);
            }
            // Mode-dependent tables only: union-advance digests are
            // byte-for-byte what they were before per-mode synthesis
            // existed, so the golden corpus M-lines stay stable.
            if let Some(dep) = &m.dependent {
                h.write_u64(6);
                for reps in &dep.reps {
                    h.write_u64(reps.len() as u64);
                    for &r in reps {
                        h.write_u64(r);
                    }
                }
                for list in dep.periods.iter().chain(dep.steps.iter().flatten()) {
                    write_steps(&mut h, list, true);
                }
                // The per-mode fused lists and batch factors, where the
                // fusion pass rewrote a projection: a table it left alone
                // (fusion off) digests as it did before rows could fuse.
                let rows = dep.fused.iter().zip(&dep.steps).zip(&dep.batch);
                for (mode, ((fused, steps), &batch)) in rows.enumerate() {
                    let plain =
                        |(items, steps): (&Vec<_>, &Vec<_>)| *items == WorkItem::plain(steps);
                    if batch == 1 && fused.iter().zip(steps).all(plain) {
                        continue;
                    }
                    h.write_u64(7);
                    h.write_u64(mode as u64);
                    h.write_u64(batch as u64);
                    for items in fused {
                        write_items(&mut h, items);
                    }
                }
                // One zero per ordered mode pair: the length of the (always
                // empty) transition program the golden corpus was recorded
                // with.
                for _ in 0..dep.mode_count() * dep.mode_count() {
                    h.write_u64(0);
                }
            }
        }
        h.finish()
    }

    /// [`Self::digest`] specialised to one mode: mixes the arm index and
    /// the member node it dispatches to into the structural digest, for
    /// the per-mode lines of the golden schedule corpus.
    pub fn digest_mode(&self, arm: u32) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.digest());
        h.write_u64(arm as u64);
        if let Some(m) = &self.modes {
            let member = m
                .arms
                .get(arm as usize)
                .map(|a| a.index() as u64)
                .unwrap_or(u64::MAX);
            h.write_u64(member);
            // For mode-dependent schedules the mode also carries its own
            // repetition vector and firing order; mix them in (no-op for
            // union-advance, keeping those corpus lines stable).
            if let Some(dep) = &m.dependent {
                if let (Some(reps), Some(period)) =
                    (dep.reps.get(arm as usize), dep.periods.get(arm as usize))
                {
                    for &r in reps {
                        h.write_u64(r);
                    }
                    write_steps(&mut h, period, false);
                }
            }
        }
        h.finish()
    }

    /// [`Self::digest`] specialised to one ordered mode pair's seam: mixes
    /// the pair into the structural digest, for the transition lines of the
    /// golden schedule corpus.
    pub fn digest_transition(&self, from: u32, to: u32) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.digest());
        h.write_u64(from as u64);
        h.write_u64(to as u64);
        if self.modes.as_ref().is_some_and(|m| m.dependent.is_some()) {
            // The corpus' transition-program length (see [`Self::digest`]).
            h.write_u64(0);
        }
        h.finish()
    }
}

/// Absorb one worker's fused list.
fn write_items(h: &mut Fnv1a, items: &[WorkItem]) {
    h.write_u64(items.len() as u64);
    for item in items {
        match item {
            WorkItem::Step(s) => {
                h.write_u64(0);
                write_steps(h, std::slice::from_ref(s), false);
            }
            WorkItem::Fused(run) => {
                h.write_u64(1);
                write_steps(h, &run.stages, true);
                for &b in &run.links {
                    h.write_u64(b.index() as u64);
                }
                h.write_u64(run.batch as u64);
            }
        }
    }
}

/// Absorb a step list, optionally length-prefixed.
fn write_steps(h: &mut Fnv1a, steps: &[Step], with_len: bool) {
    if with_len {
        h.write_u64(steps.len() as u64);
    }
    for s in steps {
        h.write_u64(s.unit as u64);
        h.write_u64(s.times as u64);
    }
}
