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
//! blocking push/pop on the buffers that cross a worker boundary, and the
//! partitioning below minimises those crossings.
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
//!    the self-timed engine. Sources and sinks are units of their own.
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
//!    contiguous segments of its dataflow order, so a pipeline splits at
//!    stage boundaries — one crossing buffer per cut. Each worker's list is
//!    the projection of the global order onto its units; because every
//!    buffer has one producer and one consumer, replaying the projections
//!    concurrently (blocking only on cross-worker buffers) reproduces
//!    exactly the admitted global interleaving's token bounds.
//!
//! The schedule is *periodic*: one iteration returns every buffer to its
//! starting level (the repetition-vector property), so validating a single
//! iteration from the initial state covers the whole run, and the engine
//! needs no quiescence protocol — it executes a pre-computed number of
//! iterations and stops.

use crate::costmodel::KernelCostModel;
use crate::rtgraph::{RtBufferId, RtGraph, RtNodeId, RtPlan, RtSinkId, RtSourceId};
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::sdf::SdfGraph;
use oil_dataflow::Rational;
use std::collections::BTreeMap;

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
        /// Index into [`RtPlan::clusters`].
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
            seam_latency_bound: None,
            cost_model: KernelCostModel::from_env(),
        }
    }
}

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
    /// `(firing index, arm)` pairs, ascending by firing index: from the
    /// modal unit's `index`-th firing onward, run `arm` (until the next
    /// entry takes over).
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
        let mut arm = self.initial;
        for &(at, a) in &self.switches {
            if at <= firing {
                arm = a;
            } else {
                break;
            }
        }
        arm
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
    /// union-advance rule ([`modal_admission`]). Every firing consumes the
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
    /// A time-triggered source (one sample per firing, broadcast to every
    /// replica buffer).
    Source(RtSourceId),
    /// A sink (one value drained per firing).
    Sink(RtSinkId),
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
/// tail's writes go through real buffers. Fusion is legal because OIL's
/// coordinated functions are side-effect-free (the paper's restriction):
/// reordering a worker's local firings changes no per-buffer value stream,
/// and the per-worker replay in [`StaticSchedule::validate`] re-proves the
/// token bounds over the fused order.
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
/// vector and firing order per mode, plus the CTA seam-latency result.
/// Every per-mode period is anchored at the graph's initial levels and
/// proven level-preserving, so mode `from`'s end-of-period state *is* mode
/// `to`'s entry state: a switch seam is `period(from) ++ period(to)` with
/// nothing in between, re-proven for every ordered pair by
/// [`StaticSchedule::validate_transitions`]. The schedule's top-level
/// `period`/`workers`/`repetitions` are mode 0's (the initial mode of the
/// default script); the engines index into these tables per executed
/// period.
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
    /// Worst-case source-to-sink latency (seconds) across any switch seam:
    /// the maximum over ordered mode pairs of drain + fill work, as bounded
    /// by the CTA seam-latency query. Exact.
    pub seam_latency_max: Rational,
    /// The bound [`StaticSchedule::validate_transitions`] enforces on the
    /// seam latency of every ordered pair (from
    /// [`SynthesisConfig::seam_latency_bound`]).
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
        let modes = self.mode_count();
        let modal = units
            .iter()
            .position(|u| matches!(u.kind, UnitKind::Modal { .. }))
            .expect("a mode-dependent schedule has a modal unit");
        let mut rates = ModeDependentRates {
            modal: vec![0; modes],
            sources: vec![vec![0; graph.sources.len()]; modes],
            sinks: vec![vec![0; graph.sinks.len()]; modes],
        };
        for (m, reps) in self.reps.iter().enumerate() {
            rates.modal[m] = reps[modal];
            for (u, unit) in units.iter().enumerate() {
                match unit.kind {
                    UnitKind::Source(id) => rates.sources[m][id.index()] = reps[u],
                    UnitKind::Sink(id) => rates.sinks[m][id.index()] = reps[u],
                    _ => {}
                }
            }
        }
        rates
    }
}

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
    /// Per mode, per sink (by [`RtSinkId`] index): values drained per
    /// period (0 when the sink is gated in that mode).
    pub sinks: Vec<Vec<u64>>,
}

/// The resolved mode sequence of one scripted run of a mode-dependent
/// program: which mode each executed period runs, and exactly how many
/// tokens every source and sink moves. Both engines execute this plan —
/// the static engine by replaying the per-mode firing lists period by
/// period, the self-timed engine by capping its source/sink budgets to the
/// planned totals and letting data-driven firing follow — which is what
/// makes their value streams bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModePlan {
    /// The mode of each executed period, in order.
    pub mode_seq: Vec<u32>,
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
}

/// Resolve a [`ModeScript`] against per-mode rates and source sample
/// budgets into the mode sequence a scripted run executes.
///
/// Each period's mode is the script's arm at the period's *first* modal
/// firing, clamped to the modes that exist — a switch point landing
/// mid-period therefore takes effect at the next period boundary, and the
/// trailing firings of the old period are the *drain* the transition
/// protocol accounts as `transition_firings`. The plan stops at the first
/// period that would make no source progress (every source is exhausted or
/// gated in the selected mode): a script whose pending switch points lie
/// beyond the sources' budgets — e.g. a switch at firing 1 000 000 of a
/// 250-period run — never reaches them, so such past-horizon scripts
/// execute as the constant-arm run with zero switches.
pub fn plan_mode_sequence(
    rates: &ModeDependentRates,
    script: &ModeScript,
    budget: impl Fn(RtSourceId) -> u64,
) -> ModePlan {
    let modes = rates.modal.len() as u32;
    let budgets: Vec<u64> = (0..rates.sources.first().map_or(0, Vec::len))
        .map(|s| budget(RtSourceId::new(s)))
        .collect();
    let mut plan = ModePlan {
        mode_seq: Vec::new(),
        produced: vec![0; budgets.len()],
        drained: vec![0; rates.sinks.first().map_or(0, Vec::len)],
        modal_firings: 0,
        mode_switches: 0,
    };
    loop {
        let m = script.arm_at(plan.modal_firings).min(modes - 1);
        let progress = budgets
            .iter()
            .enumerate()
            .any(|(s, &b)| plan.produced[s] < b && rates.sources[m as usize][s] > 0);
        if !progress {
            break;
        }
        if plan.mode_seq.last().is_some_and(|&prev| prev != m) {
            plan.mode_switches += 1;
        }
        plan.mode_seq.push(m);
        for (s, p) in plan.produced.iter_mut().enumerate() {
            *p += rates.sources[m as usize][s];
        }
        for (k, d) in plan.drained.iter_mut().enumerate() {
            *d += rates.sinks[m as usize][k];
        }
        plan.modal_firings += rates.modal[m as usize];
    }
    plan
}

/// Wall time of one synthesis phase, recorded by [`synthesize`] so the
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
    pub producer_unit: IndexVec<RtBufferId, Option<u32>>,
    /// Per buffer: the unit consuming from it (`None` for unread buffers —
    /// the engine records and drops the writer's commits).
    pub consumer_unit: IndexVec<RtBufferId, Option<u32>>,
    /// Buffers whose producer and consumer live on different workers: the
    /// only places the engine synchronises.
    pub cross_buffers: Vec<RtBufferId>,
    /// Per worker: the firing list the engine actually executes — the
    /// projection of [`Self::period`] rewritten by the fusion pass (or the
    /// plain projection wrapped in [`WorkItem::Step`] when fusion is off).
    pub fused_workers: Vec<Vec<WorkItem>>,
    /// What the fusion pass did.
    pub fusion: FusionStats,
    /// Per buffer: the highest level the fused per-worker replay reaches
    /// (floored by the declared engine capacity). Fusion may push tokens
    /// into a worker-local buffer *earlier* than the unfused order did, so
    /// local rings are sized from this bound instead of the declared
    /// capacity alone; cross-worker buffers keep the declared capacity
    /// (fused runs never touch them).
    pub local_level_max: IndexVec<RtBufferId, u64>,
    /// The per-mode dimension: `Some` iff the graph had a modal-admissible
    /// non-uniform cluster. The period/worker lists are shared by every
    /// mode (union-advance makes token flow mode-independent); the arms
    /// differ only in which member kernel the modal unit dispatches to.
    pub modes: Option<ModalSchedule>,
    /// Wall time of each synthesis phase, in pass order. Observational
    /// only: not part of [`Self::digest`] and never compared by the
    /// golden corpus.
    pub phases: Vec<PhaseSpan>,
    /// [`KernelCostModel::fingerprint`] of the measured cost model that
    /// steered the partition, `None` when declared response times did.
    /// Provenance only: excluded from equality and [`Self::digest`], like
    /// [`Self::phases`] — two syntheses that landed on the same structure
    /// are the same schedule regardless of what steered the balance.
    pub cost_model_hash: Option<u64>,
    /// Per worker: predicted utilization under the cost vector the
    /// partitioner balanced (worker load / heaviest worker load, in
    /// `(0, 1]`). Observational, excluded from equality and digest.
    pub predicted_utilization: Vec<f64>,
}

impl PartialEq for StaticSchedule {
    fn eq(&self, other: &Self) -> bool {
        // Everything except `phases` (wall time, nondeterministic) and the
        // cost-model provenance (`cost_model_hash`,
        // `predicted_utilization` — observational, not structure).
        self.units == other.units
            && self.period == other.period
            && self.workers == other.workers
            && self.components == other.components
            && self.producer_unit == other.producer_unit
            && self.consumer_unit == other.consumer_unit
            && self.cross_buffers == other.cross_buffers
            && self.fused_workers == other.fused_workers
            && self.fusion == other.fusion
            && self.local_level_max == other.local_level_max
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
    /// seeded with `N[source] = budget`, then takes
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
        let access = unit_access(graph, &self.units);
        let mut n: Vec<u128> = self
            .units
            .iter()
            .map(|u| match u.kind {
                UnitKind::Source(id) => budget(id) as u128,
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
                if matches!(self.units[u].kind, UnitKind::Source(_)) {
                    continue;
                }
                let mut bound = UNBOUNDED;
                for &(b, c) in &a.reads {
                    let avail = match self.producer_unit[b] {
                        Some(p) => {
                            let pc = access[p as usize]
                                .writes
                                .iter()
                                .find(|&&(wb, _)| wb == b)
                                .map(|&(_, pc)| pc)
                                .unwrap_or(0) as u128;
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
            match &u.kind {
                UnitKind::Node(id) => {
                    h.write_u64(0);
                    h.write_u64(id.index() as u64);
                }
                UnitKind::Cluster {
                    representative,
                    members,
                } => {
                    h.write_u64(1);
                    h.write_u64(representative.index() as u64);
                    for &m in members {
                        h.write_u64(m.index() as u64);
                    }
                }
                UnitKind::Source(id) => {
                    h.write_u64(2);
                    h.write_u64(id.index() as u64);
                }
                UnitKind::Sink(id) => {
                    h.write_u64(3);
                    h.write_u64(id.index() as u64);
                }
                UnitKind::Modal { members } => {
                    h.write_u64(4);
                    for &m in members {
                        h.write_u64(m.index() as u64);
                    }
                }
            }
            h.write_u64(u.component as u64);
            h.write_u64(u.worker as u64);
            h.write_u64(u.repetitions);
        }
        h.write_u64(self.period.len() as u64);
        for s in &self.period {
            h.write_u64(s.unit as u64);
            h.write_u64(s.times as u64);
        }
        h.write_u64(self.workers.len() as u64);
        for w in &self.workers {
            h.write_u64(w.len() as u64);
            for s in w {
                h.write_u64(s.unit as u64);
                h.write_u64(s.times as u64);
            }
        }
        for items in &self.fused_workers {
            h.write_u64(items.len() as u64);
            for item in items {
                match item {
                    WorkItem::Step(s) => {
                        h.write_u64(0);
                        h.write_u64(s.unit as u64);
                        h.write_u64(s.times as u64);
                    }
                    WorkItem::Fused(run) => {
                        h.write_u64(1);
                        h.write_u64(run.stages.len() as u64);
                        for s in &run.stages {
                            h.write_u64(s.unit as u64);
                            h.write_u64(s.times as u64);
                        }
                        for &b in &run.links {
                            h.write_u64(b.index() as u64);
                        }
                        h.write_u64(run.batch as u64);
                    }
                }
            }
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
                for period in &dep.periods {
                    h.write_u64(period.len() as u64);
                    for s in period {
                        h.write_u64(s.unit as u64);
                        h.write_u64(s.times as u64);
                    }
                }
                for lists in &dep.steps {
                    for w in lists {
                        h.write_u64(w.len() as u64);
                        for s in w {
                            h.write_u64(s.unit as u64);
                            h.write_u64(s.times as u64);
                        }
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
                    for s in period {
                        h.write_u64(s.unit as u64);
                        h.write_u64(s.times as u64);
                    }
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

    /// Exact integer replay of the admitted period against the CTA-sized
    /// capacities: every unit fires exactly its repetition count, no read
    /// ever underflows, no ring-backed buffer ever exceeds its capacity,
    /// and the worker projections partition the period. This is the
    /// admission proof — [`synthesize`] never returns a schedule that fails
    /// it — and the oracle the schedule property tests replay
    /// independently.
    pub fn validate(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        if self.modes.as_ref().is_some_and(|m| m.dependent.is_some()) {
            return self.validate_dependent(graph);
        }
        let access = unit_access(graph, &self.units);
        let capacity: IndexVec<RtBufferId, usize> = engine_capacities(graph);
        let mut level: IndexVec<RtBufferId, u64> = graph
            .buffers
            .iter()
            .map(|b| b.initial_tokens as u64)
            .collect::<Vec<_>>()
            .into();
        let mut fired = vec![0u64; self.units.len()];
        for (pos, step) in self.period.iter().enumerate() {
            let a = &access[step.unit as usize];
            for _ in 0..step.times {
                for &(b, c) in &a.reads {
                    if level[b] < c as u64 {
                        return Err(ScheduleError::Invalid(format!(
                            "step {pos}: unit {} underflows buffer `{}`",
                            step.unit, graph.buffers[b].name
                        )));
                    }
                    level[b] -= c as u64;
                }
                for &(b, c) in &a.writes {
                    if self.consumer_unit[b].is_none() {
                        continue; // recorded and dropped by the engine
                    }
                    level[b] += c as u64;
                    if level[b] > capacity[b] as u64 {
                        return Err(ScheduleError::Invalid(format!(
                            "step {pos}: unit {} overflows buffer `{}` \
                             ({} > capacity {})",
                            step.unit, graph.buffers[b].name, level[b], capacity[b]
                        )));
                    }
                }
                fired[step.unit as usize] += 1;
            }
        }
        for (u, unit) in self.units.iter().enumerate() {
            if fired[u] != unit.repetitions {
                return Err(ScheduleError::Invalid(format!(
                    "unit {u} fired {} times in one period, repetition vector \
                     says {}",
                    fired[u], unit.repetitions
                )));
            }
        }
        // One period is state-preserving: every buffer returns to its
        // initial level, which is what makes the schedule loopable.
        for (b, buf) in graph.buffers.iter_enumerated() {
            if self.consumer_unit[b].is_some() && level[b] != buf.initial_tokens as u64 {
                return Err(ScheduleError::Invalid(format!(
                    "buffer `{}` ends the period at level {} (started at {})",
                    buf.name, level[b], buf.initial_tokens
                )));
            }
        }
        // The worker lists are exactly the per-worker projection of the
        // period.
        let mut cursors = vec![0usize; self.workers.len()];
        for step in &self.period {
            let w = self.units[step.unit as usize].worker;
            let expect = self.workers[w].get(cursors[w]);
            if expect != Some(step) {
                return Err(ScheduleError::Invalid(format!(
                    "worker {w} projection diverges from the period at step \
                     {:?}",
                    step
                )));
            }
            cursors[w] += 1;
        }
        if cursors
            .iter()
            .zip(&self.workers)
            .any(|(&c, w)| c != w.len())
        {
            return Err(ScheduleError::Invalid(
                "worker projections contain steps the period does not".into(),
            ));
        }
        self.validate_fused(graph, &access)
    }

    /// The admission proof for a **mode-dependent** schedule: every mode's
    /// period replays exactly (its repetition vector, no underflow, no
    /// capacity excess, level restoration) under that mode's access lists,
    /// every mode's worker lists partition its period, and the top-level
    /// period/worker/repetition fields mirror mode 0 (what a script-less
    /// consumer sees). Fusion is off for mode-dependent schedules — the
    /// fused lists must be the plain projections.
    fn validate_dependent(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        let modes = self.modes.as_ref().expect("dependent implies modal");
        let dep = modes.dependent.as_ref().expect("checked by caller");
        let capacity = engine_capacities(graph);
        let n_modes = dep.mode_count();
        if dep.periods.len() != n_modes || dep.steps.len() != n_modes {
            return Err(ScheduleError::Invalid(
                "per-mode table lengths disagree".into(),
            ));
        }
        for m in 0..n_modes {
            let access = mode_access(graph, &self.units, m);
            let reps = &dep.reps[m];
            if reps.len() != self.units.len() {
                return Err(ScheduleError::Invalid(format!(
                    "mode {m}: repetition vector length diverges from the units"
                )));
            }
            if reps[modes.unit as usize] == 0 {
                return Err(ScheduleError::Invalid(format!(
                    "mode {m}: the modal unit is gated in its own mode"
                )));
            }
            let mut level: IndexVec<RtBufferId, u64> = graph
                .buffers
                .iter()
                .map(|b| b.initial_tokens as u64)
                .collect::<Vec<_>>()
                .into();
            let mut fired = vec![0u64; self.units.len()];
            for (pos, step) in dep.periods[m].iter().enumerate() {
                let a = &access[step.unit as usize];
                for _ in 0..step.times {
                    for &(b, c) in &a.reads {
                        level[b] = level[b].checked_sub(c as u64).ok_or_else(|| {
                            ScheduleError::Invalid(format!(
                                "mode {m} step {pos}: unit {} underflows buffer `{}`",
                                step.unit, graph.buffers[b].name
                            ))
                        })?;
                    }
                    for &(b, c) in &a.writes {
                        if self.consumer_unit[b].is_none() {
                            continue;
                        }
                        level[b] += c as u64;
                        if level[b] > capacity[b] as u64 {
                            return Err(ScheduleError::Invalid(format!(
                                "mode {m} step {pos}: unit {} overflows buffer `{}` \
                                 ({} > capacity {})",
                                step.unit, graph.buffers[b].name, level[b], capacity[b]
                            )));
                        }
                    }
                    fired[step.unit as usize] += 1;
                }
            }
            if fired != *reps {
                return Err(ScheduleError::Invalid(format!(
                    "mode {m}: the period does not fire the mode's repetition \
                     vector"
                )));
            }
            for (b, buf) in graph.buffers.iter_enumerated() {
                if self.consumer_unit[b].is_some() && level[b] != buf.initial_tokens as u64 {
                    return Err(ScheduleError::Invalid(format!(
                        "mode {m}: buffer `{}` ends the period at level {} \
                         (started at {})",
                        buf.name, level[b], buf.initial_tokens
                    )));
                }
            }
            // Worker lists are exactly the per-worker projection of the
            // mode's period.
            if dep.steps[m].len() != self.workers.len() {
                return Err(ScheduleError::Invalid(format!(
                    "mode {m}: worker list count diverges"
                )));
            }
            let mut cursors = vec![0usize; dep.steps[m].len()];
            for step in &dep.periods[m] {
                let w = self.units[step.unit as usize].worker;
                if dep.steps[m][w].get(cursors[w]) != Some(step) {
                    return Err(ScheduleError::Invalid(format!(
                        "mode {m}: worker {w} projection diverges from the period"
                    )));
                }
                cursors[w] += 1;
            }
            if cursors
                .iter()
                .zip(&dep.steps[m])
                .any(|(&c, w)| c != w.len())
            {
                return Err(ScheduleError::Invalid(format!(
                    "mode {m}: worker projections contain steps the period does \
                     not"
                )));
            }
        }
        // The top-level fields mirror mode 0, and fusion is off.
        if self.period != dep.periods[0] || self.workers != dep.steps[0] {
            return Err(ScheduleError::Invalid(
                "top-level period/workers do not mirror mode 0".into(),
            ));
        }
        for (u, unit) in self.units.iter().enumerate() {
            if unit.repetitions != dep.reps[0][u] {
                return Err(ScheduleError::Invalid(format!(
                    "unit {u}: top-level repetitions do not mirror mode 0"
                )));
            }
        }
        if self.fusion != FusionStats::default() {
            return Err(ScheduleError::Invalid(
                "mode-dependent schedules do not fuse".into(),
            ));
        }
        for (w, items) in self.fused_workers.iter().enumerate() {
            let plain: Vec<Step> = items
                .iter()
                .map(|i| match i {
                    WorkItem::Step(s) => Ok(*s),
                    WorkItem::Fused(_) => Err(ScheduleError::Invalid(
                        "mode-dependent schedules carry no fused runs".into(),
                    )),
                })
                .collect::<Result<_, _>>()?;
            if plain != self.workers[w] {
                return Err(ScheduleError::Invalid(format!(
                    "worker {w}: fused list is not the plain projection"
                )));
            }
        }
        Ok(())
    }

    /// Re-prove the admission property over the fused worker lists: per
    /// worker, every unit keeps its projected firing count, fused runs touch
    /// only worker-confined buffers with exactly-balanced empty links, and
    /// the per-worker replay (which fully determines every confined buffer's
    /// level) never underflows nor exceeds [`Self::local_level_max`].
    fn validate_fused(&self, graph: &RtGraph, access: &[UnitAccess]) -> Result<(), ScheduleError> {
        if self.fused_workers.len() != self.workers.len() {
            return Err(ScheduleError::Invalid(
                "fused worker list count diverges from the projections".into(),
            ));
        }
        let confined =
            confined_worker(graph, &self.units, &self.producer_unit, &self.consumer_unit);
        let port = |ports: &[(RtBufferId, usize)], b: RtBufferId| -> u64 {
            ports
                .iter()
                .find(|&&(pb, _)| pb == b)
                .map(|&(_, c)| c as u64)
                .unwrap_or(0)
        };
        for (w, items) in self.fused_workers.iter().enumerate() {
            let mut expected = vec![0u64; self.units.len()];
            for s in &self.workers[w] {
                expected[s.unit as usize] += s.times as u64;
            }
            let mut counted = vec![0u64; self.units.len()];
            let mut level: IndexVec<RtBufferId, u64> = graph
                .buffers
                .iter()
                .map(|b| b.initial_tokens as u64)
                .collect::<Vec<_>>()
                .into();
            let read = |level: &mut IndexVec<RtBufferId, u64>,
                        b: RtBufferId,
                        tokens: u64|
             -> Result<(), ScheduleError> {
                level[b] = level[b].checked_sub(tokens).ok_or_else(|| {
                    ScheduleError::Invalid(format!(
                        "fused worker {w} underflows buffer `{}`",
                        graph.buffers[b].name
                    ))
                })?;
                Ok(())
            };
            let write = |level: &mut IndexVec<RtBufferId, u64>,
                         b: RtBufferId,
                         tokens: u64|
             -> Result<(), ScheduleError> {
                level[b] += tokens;
                if level[b] > self.local_level_max[b] {
                    return Err(ScheduleError::Invalid(format!(
                        "fused worker {w} exceeds the level bound on buffer `{}` \
                         ({} > {})",
                        graph.buffers[b].name, level[b], self.local_level_max[b]
                    )));
                }
                Ok(())
            };
            for item in items {
                match item {
                    WorkItem::Step(s) => {
                        counted[s.unit as usize] += s.times as u64;
                        let a = &access[s.unit as usize];
                        for &(b, c) in &a.reads {
                            if confined[b] == Some(w) {
                                read(&mut level, b, s.times as u64 * c as u64)?;
                            }
                        }
                        for &(b, c) in &a.writes {
                            if confined[b] == Some(w) && self.consumer_unit[b].is_some() {
                                write(&mut level, b, s.times as u64 * c as u64)?;
                            }
                        }
                    }
                    WorkItem::Fused(run) => {
                        if run.stages.len() < 2 || run.links.len() + 1 != run.stages.len() {
                            return Err(ScheduleError::Invalid(format!(
                                "fused worker {w} has a malformed run ({} stages, {} links)",
                                run.stages.len(),
                                run.links.len()
                            )));
                        }
                        for s in &run.stages {
                            counted[s.unit as usize] += s.times as u64;
                            let a = &access[s.unit as usize];
                            for &(b, _) in a.reads.iter().chain(&a.writes) {
                                if confined[b] != Some(w) {
                                    return Err(ScheduleError::Invalid(format!(
                                        "fused run touches buffer `{}` not confined to \
                                         worker {w}",
                                        graph.buffers[b].name
                                    )));
                                }
                            }
                        }
                        for (i, &link) in run.links.iter().enumerate() {
                            let (p, c) = (run.stages[i], run.stages[i + 1]);
                            let pa = &access[p.unit as usize];
                            let ca = &access[c.unit as usize];
                            if pa.writes.len() != 1
                                || pa.writes[0].0 != link
                                || ca.reads.len() != 1
                                || ca.reads[0].0 != link
                            {
                                return Err(ScheduleError::Invalid(format!(
                                    "fused link `{}` is not a single-writer/single-reader \
                                     edge of its stages",
                                    graph.buffers[link].name
                                )));
                            }
                            let produced = p.times as u64 * port(&pa.writes, link);
                            let consumed = c.times as u64 * port(&ca.reads, link);
                            if produced != consumed || produced == 0 {
                                return Err(ScheduleError::Invalid(format!(
                                    "fused link `{}` is unbalanced ({produced} produced, \
                                     {consumed} consumed)",
                                    graph.buffers[link].name
                                )));
                            }
                            if level[link] != 0 {
                                return Err(ScheduleError::Invalid(format!(
                                    "fused link `{}` holds {} standing tokens at run entry",
                                    graph.buffers[link].name, level[link]
                                )));
                            }
                        }
                        let head = run.stages[0];
                        for &(b, c) in &access[head.unit as usize].reads {
                            read(&mut level, b, head.times as u64 * c as u64)?;
                        }
                        let tail = run.stages[run.stages.len() - 1];
                        for &(b, c) in &access[tail.unit as usize].writes {
                            if self.consumer_unit[b].is_some() {
                                write(&mut level, b, tail.times as u64 * c as u64)?;
                            }
                        }
                    }
                }
            }
            if counted != expected {
                return Err(ScheduleError::Invalid(format!(
                    "fused worker {w} changes a unit's firing count"
                )));
            }
            for (b, buf) in graph.buffers.iter_enumerated() {
                if confined[b] == Some(w)
                    && self.consumer_unit[b].is_some()
                    && level[b] != buf.initial_tokens as u64
                {
                    return Err(ScheduleError::Invalid(format!(
                        "fused worker {w} ends the period with buffer `{}` at level \
                         {} (started at {})",
                        buf.name, level[b], buf.initial_tokens
                    )));
                }
            }
        }
        Ok(())
    }

    /// Re-prove the admission property across every `(mode, mode')` switch
    /// seam by exact integer replay: one period under `from` followed by
    /// one period under `to`, with buffer levels carried across the seam,
    /// must never underflow a buffer, never exceed its capacity (nor, on
    /// the fused worker lists, its fused level bound), and end with every
    /// buffer back at its initial level. No-op for non-modal schedules.
    ///
    /// Under the union-advance construction the modal unit's token flow is
    /// the same in every mode — it consumes the union of all members'
    /// inputs and produces the shared write list whichever arm runs — so
    /// the per-mode access lists coincide, and that is exactly why hot
    /// switching needs no pipeline drain: the state at any prefix of
    /// period(`from`) is a state period(`to`) itself visits, so the bounds
    /// hold pointwise across a switch injected *anywhere*, including
    /// mid-period and inside fused super-steps (whose stages never span
    /// the modal unit — it is excluded from fusion). The replay is still
    /// executed for every ordered pair: it guards the construction (an
    /// arm-dependent access introduced later would fail here), not the
    /// argument.
    pub fn validate_transitions(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        let Some(modes) = self.modes.as_ref() else {
            return Ok(());
        };
        if modes.dependent.is_some() {
            return self.validate_dependent_transitions(graph);
        }
        let access = unit_access(graph, &self.units);
        let capacity = engine_capacities(graph);
        let confined =
            confined_worker(graph, &self.units, &self.producer_unit, &self.consumer_unit);
        let arms = modes.arms.len() as u32;
        for from in 0..arms {
            for to in 0..arms {
                self.replay_seam(graph, &access, &capacity, &confined, from, to)?;
            }
        }
        Ok(())
    }

    /// The mode-dependent seam proof, for every ordered `(from, to)` pair:
    ///
    /// 1. **Drain/fill replay.** `period(from) ++ period(to)` is replayed
    ///    by exact integer accounting, levels carried across the seam — the
    ///    drain half under `from`'s access lists, the fill half under
    ///    `to`'s. No underflow, no capacity excess, and the composite must
    ///    end at the initial levels (mode `to`'s entry state, since every
    ///    per-mode period is anchored there). This is the proof obligation
    ///    the union-advance argument got for free from mode-independent
    ///    flow, and the proof that no transition program is needed between
    ///    the two periods.
    /// 2. **Seam latency.** The CTA chain drain → fill (each
    ///    stage's work = Σ firings · response, exact) bounds the worst-case
    ///    source-to-sink latency a switch inserts; when the synthesis
    ///    carried a [`SynthesisConfig::seam_latency_bound`] the bound is
    ///    enforced as a CTA `before` constraint and a violation is
    ///    [`ScheduleError::SeamLatency`].
    ///
    /// The per-worker lists need no separate replay here: mode-dependent
    /// schedules never fuse, so each worker's list is the exact projection
    /// of the global order ([`Self::validate_dependent`] proves it per
    /// mode), and on single-producer/single-consumer graphs the concurrent
    /// replay of projections reproduces the global interleaving's bounds.
    fn validate_dependent_transitions(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        let modes = self.modes.as_ref().expect("dependent implies modal");
        let dep = modes.dependent.as_ref().expect("checked by caller");
        let capacity = engine_capacities(graph);
        let n_modes = dep.mode_count() as u32;
        let mut latency_max = Rational::ZERO;
        for from in 0..n_modes {
            for to in 0..n_modes {
                let seam = |what: &str, b: RtBufferId| {
                    ScheduleError::Invalid(format!(
                        "transition {from}->{to}: {what} buffer `{}` across the \
                         switch seam",
                        graph.buffers[b].name
                    ))
                };
                let mut level: IndexVec<RtBufferId, u64> = graph
                    .buffers
                    .iter()
                    .map(|b| b.initial_tokens as u64)
                    .collect::<Vec<_>>()
                    .into();
                for mode in [from as usize, to as usize] {
                    let access = mode_access(graph, &self.units, mode);
                    for step in &dep.periods[mode] {
                        let a = &access[step.unit as usize];
                        for _ in 0..step.times {
                            for &(b, c) in &a.reads {
                                level[b] = level[b]
                                    .checked_sub(c as u64)
                                    .ok_or_else(|| seam("underflows", b))?;
                            }
                            for &(b, c) in &a.writes {
                                if self.consumer_unit[b].is_none() {
                                    continue;
                                }
                                level[b] += c as u64;
                                if level[b] > capacity[b] as u64 {
                                    return Err(seam("overflows", b));
                                }
                            }
                        }
                    }
                }
                for (b, buf) in graph.buffers.iter_enumerated() {
                    if self.consumer_unit[b].is_some() && level[b] != buf.initial_tokens as u64 {
                        return Err(seam("fails to restore", b));
                    }
                }
                let latency = self.seam_latency(graph, from, to)?;
                if latency > latency_max {
                    latency_max = latency;
                }
            }
        }
        if latency_max != dep.seam_latency_max {
            return Err(ScheduleError::Invalid(format!(
                "recorded worst-case seam latency {}s diverges from the \
                 recomputed {}s",
                dep.seam_latency_max.to_f64(),
                latency_max.to_f64()
            )));
        }
        Ok(())
    }

    /// The CTA-bounded worst-case source-to-sink latency across one
    /// `(from, to)` switch seam (see [`Self::validate_dependent_transitions`]).
    fn seam_latency(&self, graph: &RtGraph, from: u32, to: u32) -> Result<Rational, ScheduleError> {
        let modes = self.modes.as_ref().expect("dependent implies modal");
        let dep = modes.dependent.as_ref().expect("checked by caller");
        let response = |unit: &ScheduleUnit, mode: usize| -> Rational {
            match &unit.kind {
                UnitKind::Node(id)
                | UnitKind::Cluster {
                    representative: id, ..
                } => graph.nodes[*id].response,
                UnitKind::Modal { members } => {
                    graph.nodes[members[mode.min(members.len() - 1)]].response
                }
                // Sources and sinks move one token with no kernel work.
                UnitKind::Source(_) | UnitKind::Sink(_) => Rational::ZERO,
            }
        };
        let period_work = |mode: usize| -> Rational {
            let mut work = Rational::ZERO;
            for (u, unit) in self.units.iter().enumerate() {
                let reps = dep.reps[mode][u];
                if reps > 0 {
                    work += Rational::from_int(reps as i128) * response(unit, mode);
                }
            }
            work
        };
        let stages = [
            ("drain", period_work(from as usize)),
            ("fill", period_work(to as usize)),
        ];
        oil_cta::latency::check_seam_latency(&stages, dep.seam_latency_bound)
            .map(|report| report.latency)
            .map_err(|e| ScheduleError::SeamLatency {
                from,
                to,
                latency: e.latency,
                bound: e.bound,
            })
    }

    /// One `(from, to)` seam replay over the global period and every fused
    /// worker list (see [`Self::validate_transitions`]).
    fn replay_seam(
        &self,
        graph: &RtGraph,
        access: &[UnitAccess],
        capacity: &IndexVec<RtBufferId, usize>,
        confined: &IndexVec<RtBufferId, Option<usize>>,
        from: u32,
        to: u32,
    ) -> Result<(), ScheduleError> {
        let seam = |what: &str, b: RtBufferId| {
            ScheduleError::Invalid(format!(
                "transition {from}->{to}: {what} buffer `{}` across the switch seam",
                graph.buffers[b].name
            ))
        };
        let initial = |graph: &RtGraph| -> IndexVec<RtBufferId, u64> {
            graph
                .buffers
                .iter()
                .map(|b| b.initial_tokens as u64)
                .collect::<Vec<_>>()
                .into()
        };
        // Global period: period(from) ++ period(to), levels carried over
        // the seam.
        let mut level = initial(graph);
        for _half in 0..2 {
            for step in &self.period {
                let a = &access[step.unit as usize];
                for _ in 0..step.times {
                    for &(b, c) in &a.reads {
                        level[b] = level[b]
                            .checked_sub(c as u64)
                            .ok_or_else(|| seam("underflows", b))?;
                    }
                    for &(b, c) in &a.writes {
                        if self.consumer_unit[b].is_none() {
                            continue;
                        }
                        level[b] += c as u64;
                        if level[b] > capacity[b] as u64 {
                            return Err(seam("overflows", b));
                        }
                    }
                }
            }
        }
        for (b, buf) in graph.buffers.iter_enumerated() {
            if self.consumer_unit[b].is_some() && level[b] != buf.initial_tokens as u64 {
                return Err(seam("fails to restore", b));
            }
        }
        // Fused worker lists: each worker's confined-buffer accounting must
        // survive the seam too — fused runs hoist and defer firings, so a
        // worker's seam state differs from the global replay's.
        for (w, items) in self.fused_workers.iter().enumerate() {
            let mut level = initial(graph);
            for _half in 0..2 {
                for item in items {
                    match item {
                        WorkItem::Step(s) => {
                            let a = &access[s.unit as usize];
                            for &(b, c) in &a.reads {
                                if confined[b] == Some(w) {
                                    level[b] = level[b]
                                        .checked_sub(s.times as u64 * c as u64)
                                        .ok_or_else(|| seam("fused replay underflows", b))?;
                                }
                            }
                            for &(b, c) in &a.writes {
                                if confined[b] == Some(w) && self.consumer_unit[b].is_some() {
                                    level[b] += s.times as u64 * c as u64;
                                    if level[b] > self.local_level_max[b] {
                                        return Err(seam("fused replay overflows", b));
                                    }
                                }
                            }
                        }
                        WorkItem::Fused(run) => {
                            // Run buffers are all worker-confined
                            // (validate_fused proved it); only the head's
                            // reads and the tail's writes touch rings.
                            let head = run.stages[0];
                            for &(b, c) in &access[head.unit as usize].reads {
                                level[b] = level[b]
                                    .checked_sub(head.times as u64 * c as u64)
                                    .ok_or_else(|| seam("fused replay underflows", b))?;
                            }
                            let tail = run.stages[run.stages.len() - 1];
                            for &(b, c) in &access[tail.unit as usize].writes {
                                if self.consumer_unit[b].is_some() {
                                    level[b] += tail.times as u64 * c as u64;
                                    if level[b] > self.local_level_max[b] {
                                        return Err(seam("fused replay overflows", b));
                                    }
                                }
                            }
                        }
                    }
                }
            }
            for (b, buf) in graph.buffers.iter_enumerated() {
                if confined[b] == Some(w)
                    && self.consumer_unit[b].is_some()
                    && level[b] != buf.initial_tokens as u64
                {
                    return Err(seam("fails to restore", b));
                }
            }
        }
        Ok(())
    }
}

/// The aggregated per-buffer access lists of one unit (duplicate ports
/// summed — a unit reading one buffer through two ports consumes the sum
/// per firing).
struct UnitAccess {
    reads: Vec<(RtBufferId, usize)>,
    writes: Vec<(RtBufferId, usize)>,
}

fn aggregate(ports: &[(RtBufferId, usize)]) -> Vec<(RtBufferId, usize)> {
    let mut sums: BTreeMap<RtBufferId, usize> = BTreeMap::new();
    for &(b, c) in ports {
        *sums.entry(b).or_default() += c;
    }
    sums.into_iter().collect()
}

/// The union of several aggregated port lists: one entry per buffer at the
/// *maximum* per-firing count any list carries. For identical lists this
/// is the list itself; for pairwise-disjoint lists it is their sorted
/// concatenation.
fn union_ports(lists: &[Vec<(RtBufferId, usize)>]) -> Vec<(RtBufferId, usize)> {
    let mut max: BTreeMap<RtBufferId, usize> = BTreeMap::new();
    for list in lists {
        for &(b, c) in list {
            let slot = max.entry(b).or_default();
            *slot = (*slot).max(c);
        }
    }
    max.into_iter().collect()
}

/// [`unit_access`] specialised to one mode of a mode-dependent schedule:
/// the modal unit carries the selected member's aggregated access (that is
/// the token flow of a mode-`mode` firing); every other unit is
/// mode-independent.
fn mode_access(graph: &RtGraph, units: &[ScheduleUnit], mode: usize) -> Vec<UnitAccess> {
    let mut access = unit_access(graph, units);
    for (u, unit) in units.iter().enumerate() {
        if let UnitKind::Modal { members } = &unit.kind {
            let member = members[mode.min(members.len() - 1)];
            let (reads, writes) = modal_member_access(graph, member);
            access[u] = UnitAccess { reads, writes };
        }
    }
    access
}

fn unit_access(graph: &RtGraph, units: &[ScheduleUnit]) -> Vec<UnitAccess> {
    units
        .iter()
        .map(|u| match &u.kind {
            UnitKind::Node(id)
            | UnitKind::Cluster {
                representative: id, ..
            } => {
                let n = &graph.nodes[*id];
                UnitAccess {
                    reads: aggregate(&n.reads),
                    writes: aggregate(&n.writes),
                }
            }
            UnitKind::Modal { members } => {
                // The *support* access: the union over members, one entry
                // per buffer at the worst per-firing count. Under
                // union-advance this is exactly the old access (reads are
                // pairwise disjoint, writes are shared); for mode-dependent
                // clusters it is the superset the buffer-endpoint maps and
                // connectivity are built over — per-mode replays use
                // [`mode_access`] instead.
                let reads: Vec<_> = members
                    .iter()
                    .map(|&m| aggregate(&graph.nodes[m].reads))
                    .collect();
                let writes: Vec<_> = members
                    .iter()
                    .map(|&m| aggregate(&graph.nodes[m].writes))
                    .collect();
                UnitAccess {
                    reads: union_ports(&reads),
                    writes: union_ports(&writes),
                }
            }
            UnitKind::Source(id) => UnitAccess {
                reads: Vec::new(),
                writes: graph.sources[*id].outputs.iter().map(|&b| (b, 1)).collect(),
            },
            UnitKind::Sink(id) => UnitAccess {
                reads: vec![(graph.sinks[*id].input, 1)],
                writes: Vec::new(),
            },
        })
        .collect()
}

/// The capacities both runtime engines enforce (declared CTA-sized
/// capacity, floored by the initial tokens and one slot).
fn engine_capacities(graph: &RtGraph) -> IndexVec<RtBufferId, usize> {
    graph
        .buffers
        .iter()
        .map(|b| b.capacity.max(b.initial_tokens).max(1))
        .collect::<Vec<_>>()
        .into()
}

/// The modal-unit view of the single non-uniform cluster of a graph, when
/// per-mode synthesis admits it (see [`modal_admission`]). Shared by the
/// synthesis, the runtime engines' scripted setup and the collapsed-twin
/// construction so all of them agree on member order and access lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModalClusterInfo {
    /// Index into [`RtPlan::clusters`].
    pub cluster: u32,
    /// Members ascending by node id; schedule arm `k` fires `members[k]`.
    pub members: Vec<RtNodeId>,
    /// Per member (same order): its aggregated read list.
    pub member_reads: Vec<Vec<(RtBufferId, usize)>>,
    /// Per member (same order): its aggregated write list. Under
    /// union-advance every entry equals [`Self::writes`]; mode-dependent
    /// clusters diverge here.
    pub member_writes: Vec<Vec<(RtBufferId, usize)>>,
    /// Member 0's aggregated write list — the write list *every* member
    /// shares when `mode_dependent` is false (the union-advance paths key
    /// off this field; mode-dependent consumers must use
    /// [`Self::member_writes`]).
    pub writes: Vec<(RtBufferId, usize)>,
    /// False: the union-advance shape (shared writes, pairwise-disjoint
    /// reads) — one schedule serves every mode, hot switching. True: the
    /// arms diverge in write lists or overlap in reads, but each mode is
    /// individually consistent — synthesis produces one schedule per mode
    /// and proves the drain/fill seam between every ordered pair.
    pub mode_dependent: bool,
}

/// Decide whether the graph's non-uniform clusters are modal-admissible.
///
/// Returns `Ok(None)` when every cluster is uniform (nothing modal), and
/// `Ok(Some(info))` when exactly one cluster is non-uniform and its
/// members (a) share one aggregated write list and (b) read pairwise
/// disjoint buffer sets, also disjoint from the write set. That shape is
/// what makes the **union-advance** modal unit sound: every firing
/// consumes the union of all members' inputs — the active arm's slice
/// feeds its kernel; the inactive members' tokens are consumed and
/// discarded, since they are mode-gated traffic that would otherwise
/// accumulate without bound — and produces the shared write list, so
/// token flow is mode-independent and one repetition vector, period and
/// partition serve every mode.
///
/// Arms that diverge in write counts or overlap in reads break the
/// union-advance argument but are still individually consistent per mode:
/// the returned info then carries `mode_dependent: true` and synthesis
/// produces one schedule per mode plus the drain/fill seam proof (see
/// [`ModeDependent`]). What remains inadmissible — a second
/// non-uniform cluster, an arm with no writes, or an arm reading a buffer
/// any arm writes — is [`ScheduleError::NonUniformCluster`] and the caller
/// falls back to the self-timed engine.
pub fn modal_admission(
    graph: &RtGraph,
    plan: &RtPlan,
) -> Result<Option<ModalClusterInfo>, ScheduleError> {
    let reject = |c: usize| ScheduleError::NonUniformCluster {
        cluster: c as u32,
        members: plan.clusters[c]
            .iter()
            .map(|&m| graph.nodes[m].name.clone())
            .collect(),
    };
    let mut modal: Option<usize> = None;
    for (c, uniform) in plan.cluster_uniform.iter().enumerate() {
        if *uniform {
            continue;
        }
        if modal.is_some() {
            // Per-mode synthesis carries one mode dimension; a second
            // non-uniform cluster would need a mode product.
            return Err(reject(c));
        }
        modal = Some(c);
    }
    let Some(c) = modal else {
        return Ok(None);
    };
    let members = plan.clusters[c].clone();
    let member_reads: Vec<Vec<(RtBufferId, usize)>> = members
        .iter()
        .map(|&m| aggregate(&graph.nodes[m].reads))
        .collect();
    let member_writes: Vec<Vec<(RtBufferId, usize)>> = members
        .iter()
        .map(|&m| aggregate(&graph.nodes[m].writes))
        .collect();
    let writes = member_writes[0].clone();
    // Every arm must produce something (an arm with no writes has no
    // periodic schedule in any form), and no arm may read a buffer *any*
    // arm writes: the only producer such a buffer could have is the modal
    // unit itself, so the reading mode would either self-loop or starve —
    // neither admits a periodic per-mode schedule.
    if member_writes.iter().any(Vec::is_empty) {
        return Err(reject(c));
    }
    for reads in &member_reads {
        for &(b, _) in reads {
            if member_writes
                .iter()
                .any(|w| w.iter().any(|&(wb, _)| wb == b))
            {
                return Err(reject(c));
            }
        }
    }
    // Union-advance applies when the arms share one write list and read
    // pairwise-disjoint buffers; any other (write-divergent or
    // read-overlapping) shape is individually consistent per mode and
    // becomes a mode-dependent cluster.
    let shared_writes = member_writes.iter().all(|w| *w == writes);
    let disjoint_reads = member_reads.iter().enumerate().all(|(k, reads)| {
        reads.iter().all(|&(b, _)| {
            member_reads[..k]
                .iter()
                .all(|prev| !prev.iter().any(|&(pb, _)| pb == b))
        })
    });
    Ok(Some(ModalClusterInfo {
        cluster: c as u32,
        members,
        member_reads,
        member_writes,
        writes,
        mode_dependent: !(shared_writes && disjoint_reads),
    }))
}

/// Aggregated per-buffer port accesses in canonical ascending-buffer order:
/// `(buffer, total count)` pairs.
pub type PortAccessList = Vec<(RtBufferId, usize)>;

/// The aggregated `(reads, writes)` of one node, in the canonical
/// ascending-buffer order synthesis uses. The runtime engines build their
/// modal dispatch tables through this, so the per-firing value layout of a
/// modal firing (which slice of the popped union feeds the active kernel)
/// is identical everywhere.
pub fn modal_member_access(graph: &RtGraph, node: RtNodeId) -> (PortAccessList, PortAccessList) {
    let n = &graph.nodes[node];
    (aggregate(&n.reads), aggregate(&n.writes))
}

/// The uniform twin of a modal graph: the modal cluster's members replaced
/// by one node carrying the union-advance access (union of member reads,
/// shared writes). Buffers, sources and sinks are untouched. Because the
/// modal unit's token flow is mode-independent, the collapsed twin has the
/// modal graph's exact per-buffer token flow in *every* mode — which lets
/// the value-free simulator/calendar trace oracle cover the modal
/// schedule (see tests/modeswitch_differential.rs).
pub fn collapse_modal(graph: &RtGraph, info: &ModalClusterInfo) -> RtGraph {
    let mut union_reads: Vec<(RtBufferId, usize)> = Vec::new();
    for reads in &info.member_reads {
        union_reads.extend(reads.iter().copied());
    }
    union_reads.sort();
    let rep = &graph.nodes[info.members[0]];
    let mut nodes: Vec<crate::rtgraph::RtNode> = Vec::new();
    for (id, n) in graph.nodes.iter_enumerated() {
        if info.members.contains(&id) {
            continue;
        }
        nodes.push(n.clone());
    }
    nodes.push(crate::rtgraph::RtNode {
        name: format!("{}__modal", rep.name),
        function: rep.function.clone(),
        response: rep.response,
        reads: union_reads,
        writes: info.writes.clone(),
    });
    RtGraph {
        buffers: graph.buffers.clone(),
        nodes: nodes.into(),
        sources: graph.sources.clone(),
        sinks: graph.sinks.clone(),
    }
}

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
fn confined_worker(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
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
fn fuse_workers(
    graph: &RtGraph,
    access: &[UnitAccess],
    units: &[ScheduleUnit],
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    worker_lists: &[Vec<Step>],
) -> (Vec<Vec<WorkItem>>, FusionStats, IndexVec<RtBufferId, u64>) {
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
    let mut level_max: IndexVec<RtBufferId, u64> = engine_capacities(graph)
        .iter()
        .map(|&c| c as u64)
        .collect::<Vec<_>>()
        .into();
    let mut stats = FusionStats::default();
    let mut lists: Vec<Vec<WorkItem>> = Vec::with_capacity(worker_lists.len());
    for steps in worker_lists {
        match fuse_worker(
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
        ) {
            Some(items) => lists.push(items),
            // Defensive: an invariant breach falls back to the unfused
            // projection for this worker (validate() re-proves either way).
            None => lists.push(steps.iter().map(|&s| WorkItem::Step(s)).collect()),
        }
    }
    // Batchable runs: a run that is its component's entire period may be
    // executed several iterations back to back (its links are scratch).
    let mut component_firings = vec![0u64; units.len().max(1)];
    for steps in worker_lists {
        for s in steps {
            component_firings[units[s.unit as usize].component as usize] += s.times as u64;
        }
    }
    for items in &mut lists {
        for item in items.iter_mut() {
            if let WorkItem::Fused(run) = item {
                let comp = units[run.stages[0].unit as usize].component as usize;
                run.batch = run.firings() == component_firings[comp];
            }
        }
    }
    // Fully-elided rings: link buffers no remaining plain step or run
    // boundary (head read / tail write) ever touches.
    let mut is_link: IndexVec<RtBufferId, bool> = IndexVec::from_elem(false, graph.buffers.len());
    let mut ring_touched: IndexVec<RtBufferId, bool> =
        IndexVec::from_elem(false, graph.buffers.len());
    for items in &lists {
        for item in items {
            match item {
                WorkItem::Step(s) => {
                    let a = &access[s.unit as usize];
                    for &(b, _) in a.reads.iter().chain(&a.writes) {
                        ring_touched[b] = true;
                    }
                }
                WorkItem::Fused(run) => {
                    for &b in &run.links {
                        is_link[b] = true;
                    }
                    let head = &access[run.stages[0].unit as usize];
                    for &(b, _) in &head.reads {
                        ring_touched[b] = true;
                    }
                    let tail = &access[run.stages[run.stages.len() - 1].unit as usize];
                    for &(b, _) in &tail.writes {
                        ring_touched[b] = true;
                    }
                }
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
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    confined: &IndexVec<RtBufferId, Option<usize>>,
    fusable: &[bool],
    steps: &[Step],
    level_max: &mut IndexVec<RtBufferId, u64>,
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
    let mut chain_of = vec![usize::MAX; units.len()];
    let mut chains: Vec<(Vec<Step>, Vec<RtBufferId>)> = Vec::new();
    for h in 0..units.len() {
        if has_pred[h] || successors[h].is_none() {
            continue;
        }
        let mut stages = vec![Step {
            unit: h as u32,
            times: total[h] as u32,
        }];
        let mut links: Vec<RtBufferId> = Vec::new();
        let mut cur = h;
        while let Some((v, link)) = successors[cur] {
            if chain_of[v] != usize::MAX || stages.iter().any(|s| s.unit as usize == v) {
                break;
            }
            stages.push(Step {
                unit: v as u32,
                times: total[v] as u32,
            });
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
    let initial_level = |graph: &RtGraph| -> IndexVec<RtBufferId, u64> {
        graph
            .buffers
            .iter()
            .map(|b| b.initial_tokens as u64)
            .collect::<Vec<_>>()
            .into()
    };
    'placement: loop {
        let mut level = initial_level(graph);
        let mut lmax = level_max.clone();
        let bump = |b: RtBufferId, level: u64, lmax: &mut IndexVec<RtBufferId, u64>| {
            if level > lmax[b] {
                lmax[b] = level;
            }
        };
        let mut emitted = vec![false; chains.len()];
        let mut out: Vec<WorkItem> = Vec::new();
        // Emit every ready chain (to a fixpoint: one chain's tail may feed
        // another chain's head).
        let try_emit = |level: &mut IndexVec<RtBufferId, u64>,
                        lmax: &mut IndexVec<RtBufferId, u64>,
                        emitted: &mut [bool],
                        out: &mut Vec<WorkItem>| {
            loop {
                let mut progressed = false;
                for (ci, (stages, links)) in chains.iter().enumerate() {
                    if !active[ci] || emitted[ci] {
                        continue;
                    }
                    let head = stages[0];
                    let ha = &access[head.unit as usize];
                    if ha
                        .reads
                        .iter()
                        .any(|&(b, c)| level[b] < head.times as u64 * c as u64)
                    {
                        continue;
                    }
                    for &(b, c) in &ha.reads {
                        level[b] -= head.times as u64 * c as u64;
                    }
                    let tail = stages[stages.len() - 1];
                    for &(b, c) in &access[tail.unit as usize].writes {
                        if consumer_unit[b].is_some() {
                            level[b] += tail.times as u64 * c as u64;
                            bump(b, level[b], lmax);
                        }
                    }
                    out.push(WorkItem::Fused(FusedRun {
                        stages: stages.clone(),
                        links: links.clone(),
                        batch: false,
                    }));
                    emitted[ci] = true;
                    progressed = true;
                }
                if !progressed {
                    break;
                }
            }
        };
        // Blame: the unemitted active chain producing into `b`, if any.
        let starver = |b: RtBufferId, emitted: &[bool]| -> Option<usize> {
            let p = producer_unit[b]? as usize;
            let ci = chain_of[p];
            (ci != usize::MAX && active[ci] && !emitted[ci]).then_some(ci)
        };
        try_emit(&mut level, &mut lmax, &mut emitted, &mut out);
        for step in steps {
            let u = step.unit as usize;
            if chain_of[u] != usize::MAX && active[chain_of[u]] {
                continue; // folded into its chain's run
            }
            let t = step.times as u64;
            let a = &access[u];
            for &(b, c) in &a.reads {
                if confined[b] != Some(worker) {
                    continue;
                }
                if level[b] < t * c as u64 {
                    // Starved by a deferred chain: drop it and restart.
                    let ci = starver(b, &emitted)?;
                    active[ci] = false;
                    continue 'placement;
                }
                level[b] -= t * c as u64;
            }
            for &(b, c) in &a.writes {
                if confined[b] == Some(worker) && consumer_unit[b].is_some() {
                    level[b] += t * c as u64;
                    bump(b, level[b], &mut lmax);
                }
            }
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
            try_emit(&mut level, &mut lmax, &mut emitted, &mut out);
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

/// Synthesise a periodic static-order schedule for `workers` workers.
///
/// `workers` is clamped to `[1, #units]`. The plan must have been computed
/// for `graph` (as for [`crate::rtgraph::plan`] consumers). `config`
/// carries the caller-resolved knobs — build it once per process with
/// [`SynthesisConfig::from_env`] (or use [`SynthesisConfig::default`]);
/// synthesis itself never reads the environment.
pub fn synthesize(
    graph: &RtGraph,
    plan: &RtPlan,
    workers: usize,
    config: &SynthesisConfig,
) -> Result<StaticSchedule, ScheduleError> {
    synthesize_impl(graph, plan, workers, config)
}

/// [`synthesize`] with the fusion pass explicitly on or off (and no seam
/// latency bound, declared costs).
pub fn synthesize_with(
    graph: &RtGraph,
    plan: &RtPlan,
    workers: usize,
    fuse: bool,
) -> Result<StaticSchedule, ScheduleError> {
    synthesize_impl(
        graph,
        plan,
        workers,
        &SynthesisConfig {
            fusion: fuse,
            ..SynthesisConfig::default()
        },
    )
}

fn synthesize_impl(
    graph: &RtGraph,
    plan: &RtPlan,
    workers: usize,
    config: &SynthesisConfig,
) -> Result<StaticSchedule, ScheduleError> {
    let fuse = config.fusion;
    // --- 1. Units: uncontested nodes, collapsed uniform clusters, one
    // modal unit for the (single, modal-admissible) non-uniform cluster,
    // sources, sinks — in the self-timed engine's unit order (clusters at
    // their first member). Non-uniform clusters outside both admissible
    // shapes reject here; mode-dependent clusters divert to the per-mode
    // synthesis.
    let mut timer = PhaseTimer::start();
    let modal = modal_admission(graph, plan)?;
    if let Some(info) = modal.as_ref().filter(|m| m.mode_dependent) {
        return synthesize_mode_dependent(graph, plan, workers, info, config);
    }
    timer.lap("modal_admission");
    let mut units = build_units(graph, plan, modal.as_ref());
    let access = unit_access(graph, &units);

    // --- Buffer endpoints over units. Collapsing uniform clusters makes
    // every read buffer single-producer/single-consumer (the contested
    // endpoints all belonged to one cluster).
    let (producer_unit, consumer_unit) = buffer_endpoints(graph, &access);

    // --- 2. Repetition vector of the SDF view over units.
    let active = vec![true; units.len()];
    let reps = repetition_vector(
        graph,
        &access,
        &producer_unit,
        &consumer_unit,
        &active,
        units.len(),
    )?;
    for (u, unit) in units.iter_mut().enumerate() {
        unit.repetitions = reps[u];
    }
    let required: u64 = units.iter().map(|u| u.repetitions).sum();
    if required > MAX_PERIOD_FIRINGS {
        return Err(ScheduleError::PeriodTooLong { firings: required });
    }
    timer.lap("repetition_vector");

    // --- Weakly-connected components over shared buffers.
    let components = assign_components(&mut units, graph, &producer_unit, &consumer_unit);

    // --- 3. Greedy bursting admission: round-robin over units, firing each
    // enabled unit as long as tokens and capacities allow. Persistence of
    // data-driven firing on SPSC graphs guarantees the greedy order
    // completes whenever any order does.
    let capacity = engine_capacities(graph);
    let reps: Vec<u64> = units.iter().map(|u| u.repetitions).collect();
    let period = greedy_period(graph, &access, &consumer_unit, &capacity, &reps)?;
    timer.lap("firing_order");

    // --- 4. Partition units over workers by component, balanced by kernel
    // cost estimates.
    let workers = workers.clamp(1, units.len().max(1));
    let cost: Vec<f64> = match config.cost_model.as_ref() {
        // Declared costs: the historical expression, byte for byte, so the
        // golden schedule corpus digests are untouched when no model is
        // supplied.
        None => units
            .iter()
            .map(|u| {
                let per_firing = match &u.kind {
                    UnitKind::Node(id)
                    | UnitKind::Cluster {
                        representative: id, ..
                    } => graph.nodes[*id].response.to_f64().max(1e-9),
                    // A modal firing runs whichever arm the script selects;
                    // budget for the worst case.
                    UnitKind::Modal { members } => members
                        .iter()
                        .map(|&m| graph.nodes[m].response.to_f64())
                        .fold(1e-9, f64::max),
                    // Sources and sinks move one token with no kernel work.
                    UnitKind::Source(_) | UnitKind::Sink(_) => 1e-8,
                };
                u.repetitions as f64 * per_firing
            })
            .collect(),
        // Measured costs (ns/firing), falling back to the declared
        // response scaled to ns for uncalibrated functions — the same
        // relative weights as above for unknown kernels, so a partial
        // model degrades gracefully.
        Some(model) => units
            .iter()
            .map(|u| {
                let per_firing_ns = match &u.kind {
                    UnitKind::Node(id)
                    | UnitKind::Cluster {
                        representative: id, ..
                    } => measured_cost_ns(graph, *id, model),
                    UnitKind::Modal { members } => members
                        .iter()
                        .map(|&m| measured_cost_ns(graph, m, model))
                        .fold(1.0, f64::max),
                    UnitKind::Source(_) | UnitKind::Sink(_) => 10.0,
                };
                u.repetitions as f64 * per_firing_ns
            })
            .collect(),
    };
    partition_workers(&mut units, &cost, components, workers, &period);

    // --- Worker projections and cross-worker buffers.
    renumber_workers(&mut units, workers);
    let worker_count = units.iter().map(|u| u.worker + 1).max().unwrap_or(1);
    let worker_lists = project_period(&period, &units, worker_count);
    let cross_buffers: Vec<RtBufferId> = graph
        .buffers
        .indices()
        .filter(|&b| match (producer_unit[b], consumer_unit[b]) {
            (Some(p), Some(c)) => units[p as usize].worker != units[c as usize].worker,
            _ => false,
        })
        .collect();
    timer.lap("partition");

    let (fused_workers, fusion, local_level_max) = if fuse {
        fuse_workers(
            graph,
            &access,
            &units,
            &producer_unit,
            &consumer_unit,
            &worker_lists,
        )
    } else {
        (
            worker_lists
                .iter()
                .map(|w| w.iter().map(|&s| WorkItem::Step(s)).collect())
                .collect(),
            FusionStats::default(),
            engine_capacities(graph)
                .iter()
                .map(|&c| c as u64)
                .collect::<Vec<_>>()
                .into(),
        )
    };
    timer.lap("fusion");
    let modes = modal.as_ref().map(|m| ModalSchedule {
        unit: units
            .iter()
            .position(|u| matches!(&u.kind, UnitKind::Modal { .. }))
            .expect("modal admission implies a modal unit") as u32,
        arms: m.members.clone(),
        arm_names: m
            .members
            .iter()
            .map(|&n| graph.nodes[n].name.clone())
            .collect(),
        dependent: None,
    });
    let predicted_utilization = worker_utilization(&units, &cost, worker_count);
    let mut schedule = StaticSchedule {
        units,
        period,
        workers: worker_lists,
        components,
        producer_unit,
        consumer_unit,
        cross_buffers,
        fused_workers,
        fusion,
        local_level_max,
        modes,
        phases: Vec::new(),
        cost_model_hash: config.cost_model.as_ref().map(|m| m.fingerprint()),
        predicted_utilization,
    };
    // Admission: the schedule is returned only with its validity proven by
    // exact replay (over both the period and the fused worker lists), and
    // — for modal schedules — with every (mode, mode') switch seam
    // re-proven the same way.
    schedule.validate(graph)?;
    schedule.validate_transitions(graph)?;
    timer.lap("admission_proof");
    schedule.phases = timer.phases;
    Ok(schedule)
}

/// Step 1 of synthesis: the scheduling units of a graph, in the self-timed
/// engine's unit order (clusters at their first member, then sources, then
/// sinks). `modal` marks which cluster becomes the modal unit.
fn build_units(
    graph: &RtGraph,
    plan: &RtPlan,
    modal: Option<&ModalClusterInfo>,
) -> Vec<ScheduleUnit> {
    let mut units: Vec<ScheduleUnit> = Vec::new();
    let mut emitted = vec![false; graph.nodes.len()];
    for ni in graph.nodes.indices() {
        if emitted[ni.index()] {
            continue;
        }
        let kind = match plan.cluster_of[ni] {
            Some(cid) => {
                let members = plan.clusters[cid as usize].clone();
                for &m in &members {
                    emitted[m.index()] = true;
                }
                if modal.is_some_and(|m| m.cluster == cid) {
                    UnitKind::Modal { members }
                } else {
                    UnitKind::Cluster {
                        representative: members[0],
                        members,
                    }
                }
            }
            None => {
                emitted[ni.index()] = true;
                UnitKind::Node(ni)
            }
        };
        units.push(ScheduleUnit {
            kind,
            component: 0,
            worker: 0,
            repetitions: 0,
        });
    }
    for i in graph.sources.indices() {
        units.push(ScheduleUnit {
            kind: UnitKind::Source(i),
            component: 0,
            worker: 0,
            repetitions: 0,
        });
    }
    for i in graph.sinks.indices() {
        units.push(ScheduleUnit {
            kind: UnitKind::Sink(i),
            component: 0,
            worker: 0,
            repetitions: 0,
        });
    }
    units
}

/// The buffer-endpoint maps over units (single producer and single
/// consumer per buffer, by construction).
fn buffer_endpoints(
    graph: &RtGraph,
    access: &[UnitAccess],
) -> (
    IndexVec<RtBufferId, Option<u32>>,
    IndexVec<RtBufferId, Option<u32>>,
) {
    let n_buffers = graph.buffers.len();
    let mut producer_unit: IndexVec<RtBufferId, Option<u32>> = IndexVec::from_elem(None, n_buffers);
    let mut consumer_unit: IndexVec<RtBufferId, Option<u32>> = IndexVec::from_elem(None, n_buffers);
    for (u, a) in access.iter().enumerate() {
        for &(b, _) in &a.writes {
            debug_assert!(
                producer_unit[b].is_none(),
                "buffer `{}` has two producing units after cluster collapsing",
                graph.buffers[b].name
            );
            producer_unit[b] = Some(u as u32);
        }
        for &(b, _) in &a.reads {
            debug_assert!(
                consumer_unit[b].is_none(),
                "buffer `{}` has two consuming units after cluster collapsing",
                graph.buffers[b].name
            );
            consumer_unit[b] = Some(u as u32);
        }
    }
    (producer_unit, consumer_unit)
}

/// The repetition vector of the SDF view over the *active* units: gated
/// units (mode-dependent synthesis gates the off-mode slices of the graph)
/// get no actor and repetition 0, so the per-mode period simply omits
/// them. For the uniform path every unit is active and this is exactly the
/// old step 2.
fn repetition_vector(
    graph: &RtGraph,
    access: &[UnitAccess],
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    active: &[bool],
    n_units: usize,
) -> Result<Vec<u64>, ScheduleError> {
    let mut sdf = SdfGraph::new();
    let actors: Vec<_> = (0..n_units)
        .map(|u| active[u].then(|| sdf.add_actor(format!("u{u}"), 0.0)))
        .collect();
    for (bi, buf) in graph.buffers.iter_enumerated() {
        let (Some(p), Some(c)) = (producer_unit[bi], consumer_unit[bi]) else {
            continue; // unread or never-written: no rate constraint
        };
        let (Some(pa), Some(ca)) = (actors[p as usize], actors[c as usize]) else {
            continue; // a gated endpoint: the buffer is idle in this mode
        };
        let prod = access[p as usize]
            .writes
            .iter()
            .find(|&&(b, _)| b == bi)
            .map(|&(_, n)| n as u64)
            .unwrap_or(0);
        let cons = access[c as usize]
            .reads
            .iter()
            .find(|&&(b, _)| b == bi)
            .map(|&(_, n)| n as u64)
            .unwrap_or(0);
        if prod > 0 && cons > 0 {
            sdf.add_named_edge(&buf.name, pa, ca, prod, cons, buf.initial_tokens as u64);
        }
    }
    let q = sdf
        .repetition_vector()
        .map_err(|e| ScheduleError::NoRepetitionVector {
            reason: e.to_string(),
        })?;
    Ok((0..n_units)
        .map(|u| actors[u].map(|a| q[a]).unwrap_or(0))
        .collect())
}

/// Weakly-connected components over shared buffers (mutates
/// `units[..].component`, returns the component count).
fn assign_components(
    units: &mut [ScheduleUnit],
    graph: &RtGraph,
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
) -> u32 {
    let mut uf = oil_dataflow::unionfind::UnionFind::new(units.len());
    for bi in graph.buffers.indices() {
        if let (Some(p), Some(c)) = (producer_unit[bi], consumer_unit[bi]) {
            uf.union(p as usize, c as usize);
        }
    }
    let mut component_of_root: BTreeMap<usize, u32> = BTreeMap::new();
    for (u, unit) in units.iter_mut().enumerate() {
        let root = uf.find(u);
        let next = component_of_root.len() as u32;
        unit.component = *component_of_root.entry(root).or_insert(next);
    }
    component_of_root.len() as u32
}

/// Step 3 of synthesis: the greedy bursting admission replay — fire each
/// enabled unit as often as tokens and CTA-sized capacities allow,
/// round-robin until every unit has fired its repetition count. Returns
/// the admitted global firing order (run-length encoded).
fn greedy_period(
    graph: &RtGraph,
    access: &[UnitAccess],
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    capacity: &IndexVec<RtBufferId, usize>,
    repetitions: &[u64],
) -> Result<Vec<Step>, ScheduleError> {
    let required: u64 = repetitions.iter().sum();
    let mut level: IndexVec<RtBufferId, u64> = graph
        .buffers
        .iter()
        .map(|b| b.initial_tokens as u64)
        .collect::<Vec<_>>()
        .into();
    let mut remaining: Vec<u64> = repetitions.to_vec();
    let mut admitted: u64 = 0;
    let mut period: Vec<Step> = Vec::new();
    loop {
        let mut progressed = false;
        for (u, a) in access.iter().enumerate() {
            let mut times: u64 = 0;
            while remaining[u] > 0 {
                let tokens_ok = a.reads.iter().all(|&(b, c)| level[b] >= c as u64);
                let space_ok = a.writes.iter().all(|&(b, c)| {
                    consumer_unit[b].is_none() || level[b] + c as u64 <= capacity[b] as u64
                });
                if !(tokens_ok && space_ok) {
                    break;
                }
                for &(b, c) in &a.reads {
                    level[b] -= c as u64;
                }
                for &(b, c) in &a.writes {
                    if consumer_unit[b].is_some() {
                        level[b] += c as u64;
                    }
                }
                remaining[u] -= 1;
                times += 1;
            }
            if times > 0 {
                admitted += times;
                progressed = true;
                let mut left = times;
                while left > 0 {
                    let chunk = left.min(u32::MAX as u64) as u32;
                    period.push(Step {
                        unit: u as u32,
                        times: chunk,
                    });
                    left -= chunk as u64;
                }
            }
        }
        if remaining.iter().all(|&r| r == 0) {
            break;
        }
        if !progressed {
            return Err(ScheduleError::Stuck { admitted, required });
        }
    }
    Ok(period)
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
fn worker_utilization(units: &[ScheduleUnit], cost: &[f64], worker_count: usize) -> Vec<f64> {
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
/// pipeline cuts).
fn partition_workers(
    units: &mut [ScheduleUnit],
    cost: &[f64],
    components: u32,
    workers: usize,
    period: &[Step],
) {
    let mut component_units: Vec<Vec<usize>> = vec![Vec::new(); components as usize];
    for (u, unit) in units.iter().enumerate() {
        component_units[unit.component as usize].push(u);
    }
    let component_cost: Vec<f64> = component_units
        .iter()
        .map(|us| us.iter().map(|&u| cost[u]).sum())
        .collect();
    if components as usize >= workers {
        // Whole components, heaviest first onto the least-loaded worker:
        // zero cross-worker buffers.
        let mut order: Vec<usize> = (0..components as usize).collect();
        order.sort_by(|&a, &b| {
            component_cost[b]
                .total_cmp(&component_cost[a])
                .then(a.cmp(&b))
        });
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
        let mut order: Vec<usize> = (0..components as usize).collect();
        order.sort_by(|&a, &b| {
            component_cost[b]
                .total_cmp(&component_cost[a])
                .then(a.cmp(&b))
        });
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
        for (pos, step) in period.iter().enumerate() {
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
fn renumber_workers(units: &mut [ScheduleUnit], workers: usize) {
    let mut used: Vec<usize> = (0..workers)
        .filter(|&w| units.iter().any(|u| u.worker == w))
        .collect();
    if used.is_empty() {
        used.push(0);
    }
    let renumber: BTreeMap<usize, usize> = used.iter().enumerate().map(|(i, &w)| (w, i)).collect();
    for unit in units.iter_mut() {
        unit.worker = *renumber.get(&unit.worker).unwrap_or(&0);
    }
}

/// The per-worker projection of a global firing order.
fn project_period(period: &[Step], units: &[ScheduleUnit], workers: usize) -> Vec<Vec<Step>> {
    let mut lists: Vec<Vec<Step>> = vec![Vec::new(); workers.max(1)];
    for step in period {
        lists[units[step.unit as usize].worker].push(*step);
    }
    lists
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
    units: &[ScheduleUnit],
    access: &[UnitAccess],
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    modal_unit: usize,
    mode: usize,
) -> Result<Vec<bool>, ScheduleError> {
    let touches = |list: &[(RtBufferId, usize)], b: RtBufferId| list.iter().any(|&(lb, _)| lb == b);
    let mut active = vec![true; units.len()];
    loop {
        let mut changed = false;
        for u in 0..units.len() {
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
    for &(b, _) in &access[modal_unit].reads {
        match producer_unit[b] {
            Some(p) if active[p as usize] => {}
            _ => {
                return Err(ScheduleError::Invalid(format!(
                    "mode {mode}: the modal unit reads buffer `{}` but its \
                     producer is gated in that mode",
                    graph.buffers[b].name
                )))
            }
        }
    }
    for &(b, _) in &access[modal_unit].writes {
        if let Some(c) = consumer_unit[b] {
            if !active[c as usize] {
                return Err(ScheduleError::Invalid(format!(
                    "mode {mode}: the modal unit writes buffer `{}` but its \
                     consumer is gated in that mode",
                    graph.buffers[b].name
                )));
            }
        }
    }
    Ok(active)
}

/// One mode's repetition vector: gate the off-mode slice, solve the SDF
/// balance equations over the active units, and insist the modal unit
/// itself fires (a mode in which it cannot is not a mode).
fn mode_repetitions(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    access: &[UnitAccess],
    producer_unit: &IndexVec<RtBufferId, Option<u32>>,
    consumer_unit: &IndexVec<RtBufferId, Option<u32>>,
    modal_unit: usize,
    mode: usize,
) -> Result<Vec<u64>, ScheduleError> {
    let active = mode_gating(
        graph,
        units,
        access,
        producer_unit,
        consumer_unit,
        modal_unit,
        mode,
    )?;
    let reps = repetition_vector(
        graph,
        access,
        producer_unit,
        consumer_unit,
        &active,
        units.len(),
    )?;
    if reps[modal_unit] == 0 {
        return Err(ScheduleError::Invalid(format!(
            "mode {mode}: the repetition vector fires the modal unit zero times"
        )));
    }
    Ok(reps)
}

/// Per-mode synthesis for a **mode-dependent** modal cluster (see
/// [`modal_admission`]): one SDF repetition vector, admitted period and
/// worker projection per mode — each over the mode's active slice of the
/// graph — plus the CTA seam-latency result over every ordered mode pair.
/// One worker partition serves every mode (balanced by each unit's worst
/// mode), fusion is off (a fused run compiled against one mode's token
/// flow would be unsound in another), and the top-level
/// period/workers/repetitions mirror mode 0.
fn synthesize_mode_dependent(
    graph: &RtGraph,
    plan: &RtPlan,
    workers: usize,
    info: &ModalClusterInfo,
    config: &SynthesisConfig,
) -> Result<StaticSchedule, ScheduleError> {
    let seam_latency_bound = config.seam_latency_bound;
    let mut timer = PhaseTimer::start();
    let mut units = build_units(graph, plan, Some(info));
    let support = unit_access(graph, &units);
    let (producer_unit, consumer_unit) = buffer_endpoints(graph, &support);
    let modal_unit = units
        .iter()
        .position(|u| matches!(u.kind, UnitKind::Modal { .. }))
        .expect("modal admission implies a modal unit");
    let n_modes = info.members.len();
    let capacity = engine_capacities(graph);
    timer.lap("modal_admission");

    // --- Per mode: gate the off-mode slice, solve the mode's repetition
    // vector, admit a period by the same greedy bursting replay the
    // uniform path uses (under the mode's access lists).
    let mut reps_table: Vec<Vec<u64>> = Vec::with_capacity(n_modes);
    let mut periods: Vec<Vec<Step>> = Vec::with_capacity(n_modes);
    for m in 0..n_modes {
        let access = mode_access(graph, &units, m);
        let reps = mode_repetitions(
            graph,
            &units,
            &access,
            &producer_unit,
            &consumer_unit,
            modal_unit,
            m,
        )?;
        let required: u64 = reps.iter().sum();
        if required > MAX_PERIOD_FIRINGS {
            return Err(ScheduleError::PeriodTooLong { firings: required });
        }
        let period = greedy_period(graph, &access, &consumer_unit, &capacity, &reps)?;
        reps_table.push(reps);
        periods.push(period);
    }
    for (u, unit) in units.iter_mut().enumerate() {
        unit.repetitions = reps_table[0][u];
    }
    timer.lap("per_mode_synthesis");
    let components = assign_components(&mut units, graph, &producer_unit, &consumer_unit);

    // --- One worker partition for all modes: balance by each unit's worst
    // mode (reps × response), cut pipelines in first-firing order across
    // the concatenated mode periods so units gated in mode 0 still get a
    // dataflow position.
    let workers = workers.clamp(1, units.len().max(1));
    let cost: Vec<f64> = match config.cost_model.as_ref() {
        // Declared costs: the historical expression, byte for byte (see
        // the uniform path).
        None => units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                (0..n_modes)
                    .map(|m| {
                        let per_firing = match &unit.kind {
                            UnitKind::Node(id)
                            | UnitKind::Cluster {
                                representative: id, ..
                            } => graph.nodes[*id].response.to_f64().max(1e-9),
                            UnitKind::Modal { members } => {
                                graph.nodes[members[m]].response.to_f64().max(1e-9)
                            }
                            UnitKind::Source(_) | UnitKind::Sink(_) => 1e-8,
                        };
                        reps_table[m][u] as f64 * per_firing
                    })
                    .fold(0.0, f64::max)
            })
            .collect(),
        Some(model) => units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                (0..n_modes)
                    .map(|m| {
                        let per_firing_ns = match &unit.kind {
                            UnitKind::Node(id)
                            | UnitKind::Cluster {
                                representative: id, ..
                            } => measured_cost_ns(graph, *id, model),
                            UnitKind::Modal { members } => {
                                measured_cost_ns(graph, members[m], model)
                            }
                            UnitKind::Source(_) | UnitKind::Sink(_) => 10.0,
                        };
                        reps_table[m][u] as f64 * per_firing_ns
                    })
                    .fold(0.0, f64::max)
            })
            .collect(),
    };
    let order: Vec<Step> = periods.iter().flatten().copied().collect();
    partition_workers(&mut units, &cost, components, workers, &order);
    renumber_workers(&mut units, workers);
    let worker_count = units.iter().map(|u| u.worker + 1).max().unwrap_or(1);
    let steps: Vec<Vec<Vec<Step>>> = periods
        .iter()
        .map(|p| project_period(p, &units, worker_count))
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

    let fused_workers: Vec<Vec<WorkItem>> = steps[0]
        .iter()
        .map(|w| w.iter().map(|&s| WorkItem::Step(s)).collect())
        .collect();
    let local_level_max: IndexVec<RtBufferId, u64> = capacity
        .iter()
        .map(|&c| c as u64)
        .collect::<Vec<_>>()
        .into();
    let predicted_utilization = worker_utilization(&units, &cost, worker_count);
    let mut schedule = StaticSchedule {
        period: periods[0].clone(),
        workers: steps[0].clone(),
        units,
        components,
        producer_unit,
        consumer_unit,
        cross_buffers,
        fused_workers,
        fusion: FusionStats::default(),
        local_level_max,
        modes: Some(ModalSchedule {
            unit: modal_unit as u32,
            arms: info.members.clone(),
            arm_names: info
                .members
                .iter()
                .map(|&n| graph.nodes[n].name.clone())
                .collect(),
            dependent: Some(ModeDependent {
                reps: reps_table,
                periods,
                steps,
                seam_latency_max: Rational::ZERO,
                seam_latency_bound,
            }),
        }),
        phases: Vec::new(),
        cost_model_hash: config.cost_model.as_ref().map(|m| m.fingerprint()),
        predicted_utilization,
    };
    // --- Record the worst-case seam latency over all ordered pairs. The
    // per-pair CTA query also enforces the configured bound, so a
    // violation surfaces here as [`ScheduleError::SeamLatency`].
    let mut latency_max = Rational::ZERO;
    for from in 0..n_modes as u32 {
        for to in 0..n_modes as u32 {
            let latency = schedule.seam_latency(graph, from, to)?;
            if latency > latency_max {
                latency_max = latency;
            }
        }
    }
    schedule
        .modes
        .as_mut()
        .expect("built above")
        .dependent
        .as_mut()
        .expect("built above")
        .seam_latency_max = latency_max;
    timer.lap("seam_latency_proof");
    // Admission: per-mode validity and every switch seam proven by exact
    // replay before the schedule is released.
    schedule.validate(graph)?;
    schedule.validate_transitions(graph)?;
    timer.lap("admission_proof");
    schedule.phases = timer.phases;
    Ok(schedule)
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
    let Some(info) = modal_admission(graph, plan)? else {
        return Ok(None);
    };
    if !info.mode_dependent {
        return Ok(None);
    }
    let units = build_units(graph, plan, Some(&info));
    let support = unit_access(graph, &units);
    let (producer_unit, consumer_unit) = buffer_endpoints(graph, &support);
    let modal_unit = units
        .iter()
        .position(|u| matches!(u.kind, UnitKind::Modal { .. }))
        .expect("modal admission implies a modal unit");
    let n_modes = info.members.len();
    let mut rates = ModeDependentRates {
        modal: vec![0; n_modes],
        sources: vec![vec![0; graph.sources.len()]; n_modes],
        sinks: vec![vec![0; graph.sinks.len()]; n_modes],
    };
    for m in 0..n_modes {
        let access = mode_access(graph, &units, m);
        let reps = mode_repetitions(
            graph,
            &units,
            &access,
            &producer_unit,
            &consumer_unit,
            modal_unit,
            m,
        )?;
        rates.modal[m] = reps[modal_unit];
        for (u, unit) in units.iter().enumerate() {
            match unit.kind {
                UnitKind::Source(id) => rates.sources[m][id.index()] = reps[u],
                UnitKind::Sink(id) => rates.sinks[m][id.index()] = reps[u],
                _ => {}
            }
        }
    }
    Ok(Some(rates))
}

/// FNV-1a, locally (the compiler crate does not depend on the simulator's
/// trace hasher; the constants are the standard 64-bit FNV parameters, so
/// digests are stable across the workspace).
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtgraph;
    use crate::{compile, CompilerOptions};
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            r.register(FunctionSignature::pure(f, 1e-5));
        }
        r
    }

    fn synth_with(src: &str, workers: usize, fuse: bool) -> (rtgraph::RtGraph, StaticSchedule) {
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        let schedule = synthesize_with(&graph, &plan, workers, fuse).expect("schedulable");
        (graph, schedule)
    }

    // Fusion forced on so the tests are deterministic under the CI
    // fusion-off (`OIL_RT_FUSION=0`) leg.
    fn synth(src: &str, workers: usize) -> (rtgraph::RtGraph, StaticSchedule) {
        synth_with(src, workers, true)
    }

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

    #[test]
    fn one_period_fires_the_repetition_vector_and_loops() {
        let (graph, s) = synth(PIPELINE, 1);
        // P fires 2× per Q firing; source 2 samples, sink 1 drain.
        let reps: Vec<u64> = s.units.iter().map(|u| u.repetitions).collect();
        assert_eq!(reps, vec![2, 1, 2, 1], "{:?}", s.units);
        assert_eq!(s.period_firings(), 6);
        assert_eq!(s.components, 1);
        s.validate(&graph).expect("admitted schedules re-validate");
    }

    #[test]
    fn single_worker_schedules_have_no_crossings() {
        let (_, s) = synth(PIPELINE, 1);
        assert_eq!(s.worker_count(), 1);
        assert!(s.cross_buffers.is_empty());
    }

    #[test]
    fn split_pipelines_cross_at_stage_boundaries() {
        let (_, s) = synth(PIPELINE, 2);
        assert_eq!(s.worker_count(), 2);
        // A 4-unit chain (source → P → Q → sink) cut once: exactly one or
        // two buffers cross (the cut buffer; the source/sink conduits stay
        // with their stage).
        assert!(
            !s.cross_buffers.is_empty() && s.cross_buffers.len() <= 2,
            "{:?}",
            s.cross_buffers
        );
        // Both workers have work.
        assert!(s.workers.iter().all(|w| !w.is_empty()));
    }

    #[test]
    fn independent_chains_stay_whole_per_worker() {
        let src = r#"
            mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x0 = src() @ 1 kHz;
                sink int y0 = snk() @ 1 kHz;
                source int x1 = src() @ 1 kHz;
                sink int y1 = snk() @ 1 kHz;
                S(x0, out y0) || S(x1, out y1)
            }
        "#;
        let (_, s) = synth(src, 2);
        assert_eq!(s.components, 2);
        assert_eq!(s.worker_count(), 2);
        assert!(
            s.cross_buffers.is_empty(),
            "independent components must not cross: {:?}",
            s.cross_buffers
        );
    }

    #[test]
    fn uniform_modal_clusters_collapse_to_quasi_static_units() {
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
        let (graph, s) = synth(src, 2);
        let cluster = s
            .units
            .iter()
            .find_map(|u| match &u.kind {
                UnitKind::Cluster {
                    representative,
                    members,
                } => Some((*representative, members.clone())),
                _ => None,
            })
            .expect("the modal twins form one quasi-static unit");
        assert_eq!(cluster.1.len(), 2);
        assert_eq!(cluster.0, cluster.1[0], "lowest id is the representative");
        s.validate(&graph).unwrap();
    }

    #[test]
    fn non_uniform_modal_demo_synthesizes_per_mode_schedules() {
        // The demo's merge twins share one write list and read disjoint
        // buffers — exactly the union-advance shape, so synthesis admits
        // them as a modal unit instead of rejecting.
        let graph = rtgraph::non_uniform_merge_demo();
        let plan = rtgraph::plan(&graph);
        let s = synthesize_with(&graph, &plan, 2, true).expect("modal-admissible");
        let modes = s.modes.as_ref().expect("a modal schedule");
        assert_eq!(modes.arms.len(), 2);
        assert_eq!(modes.arm_names.len(), 2);
        assert!(matches!(
            &s.units[modes.unit as usize].kind,
            UnitKind::Modal { members } if members == &modes.arms
        ));
        // Per-mode digests differ (the corpus distinguishes arms) while
        // the structural digest is shared.
        assert_ne!(s.digest_mode(0), s.digest_mode(1));
        s.validate(&graph).expect("steady state re-validates");
        s.validate_transitions(&graph)
            .expect("every (mode, mode') seam re-validates");
        // The modal unit never lands inside a fused run.
        for items in &s.fused_workers {
            for item in items {
                if let WorkItem::Fused(run) = item {
                    assert!(run.stages.iter().all(|st| st.unit != modes.unit));
                }
            }
        }
    }

    /// The demo with its second twin writing two tokens per firing: the
    /// arms diverge in write counts, so union-advance no longer applies and
    /// admission must go mode-dependent.
    fn write_divergent_demo() -> rtgraph::RtGraph {
        let mut graph = rtgraph::non_uniform_merge_demo();
        let n1 = graph.nodes.indices().nth(1).unwrap();
        graph.nodes[n1].writes[0].1 = 2;
        graph
    }

    #[test]
    fn write_divergent_arms_synthesize_per_mode_schedules() {
        // PR 7 rejected this shape (divergent write lists break the
        // union-advance argument); per-mode synthesis now admits it with
        // one repetition vector and period per mode.
        let graph = write_divergent_demo();
        let plan = rtgraph::plan(&graph);
        let s = synthesize(&graph, &plan, 2, &SynthesisConfig::default()).expect("mode-dependent");
        let modes = s.modes.as_ref().expect("a modal schedule");
        let dep = modes.dependent.as_ref().expect("mode-dependent tables");
        // Unit order: modal {n0, n1}, n2, source a, source b, sink. Mode 0
        // fires n0 (one token into t) and gates source b; mode 1 fires n1
        // (two tokens into t), so n2 and the sink run twice and source a
        // gates. Hand-solved balance equations.
        assert_eq!(dep.reps, vec![vec![1, 1, 1, 0, 1], vec![1, 2, 0, 1, 2]]);
        assert!(dep.seam_latency_max > Rational::ZERO);
        s.validate(&graph)
            .expect("per-mode steady state re-validates");
        s.validate_transitions(&graph)
            .expect("every (mode, mode') seam re-validates");
        // The corpus distinguishes modes and seams.
        assert_ne!(s.digest_mode(0), s.digest_mode(1));
        assert_ne!(s.digest_transition(0, 1), s.digest_transition(1, 0));
        // Fusion is structurally off for mode-dependent schedules: the
        // on/off synthesis results coincide exactly.
        let off = synthesize_with(&graph, &plan, 2, false).unwrap();
        let on = synthesize_with(&graph, &plan, 2, true).unwrap();
        assert_eq!(on, off);
        assert_eq!(on.fusion, FusionStats::default());
    }

    #[test]
    fn shared_read_arms_synthesize_per_mode_schedules() {
        // The second twin also reads the first twin's input buffer:
        // overlapping read sets break union-advance (the union would steal
        // the other arm's tokens) but each mode is individually consistent.
        let mut graph = rtgraph::non_uniform_merge_demo();
        let n0 = graph.nodes.indices().next().unwrap();
        let n1 = graph.nodes.indices().nth(1).unwrap();
        let shared = graph.nodes[n0].reads[0];
        graph.nodes[n1].reads.push(shared);
        let plan = rtgraph::plan(&graph);
        let info = modal_admission(&graph, &plan).unwrap().expect("modal");
        assert!(info.mode_dependent);
        let s = synthesize(&graph, &plan, 2, &SynthesisConfig::default()).expect("mode-dependent");
        let dep = s.modes.as_ref().unwrap().dependent.as_ref().unwrap();
        // Mode 1 consumes both inputs, so *no* source gates there; mode 0
        // still gates source b.
        assert_eq!(dep.reps[0], vec![1, 1, 1, 0, 1]);
        assert_eq!(dep.reps[1], vec![1, 1, 1, 1, 1]);
        s.validate_transitions(&graph).unwrap();
    }

    #[test]
    fn arm_reading_a_modal_written_buffer_is_rejected() {
        // An arm reading a buffer any arm writes stays inadmissible even
        // under per-mode synthesis: the only producer such a buffer could
        // have is the modal unit itself, so the reading mode would either
        // self-loop or starve.
        let mut graph = rtgraph::non_uniform_merge_demo();
        let n1 = graph.nodes.indices().nth(1).unwrap();
        let written = graph.nodes[n1].writes[0].0;
        graph.nodes[n1].reads.push((written, 1));
        let plan = rtgraph::plan(&graph);
        match synthesize(&graph, &plan, 2, &SynthesisConfig::default()) {
            Err(ScheduleError::NonUniformCluster { cluster, members }) => {
                assert_eq!(cluster, 0);
                // Reading `t` makes it contested, so clustering also pulls
                // its other consumer in; the reporting names every member.
                assert!(
                    members.contains(&graph.nodes[n1].name),
                    "member names are reported: {members:?}"
                );
                let rendered = ScheduleError::NonUniformCluster { cluster, members }.to_string();
                assert!(
                    rendered.contains(&graph.nodes[n1].name),
                    "display names the members: {rendered}"
                );
            }
            other => panic!("expected a NonUniformCluster rejection, got {other:?}"),
        }
    }

    #[test]
    fn seam_latency_bound_is_enforced_per_pair() {
        let graph = write_divergent_demo();
        let plan = rtgraph::plan(&graph);
        let free = synthesize(&graph, &plan, 2, &SynthesisConfig::default()).unwrap();
        let worst = free
            .modes
            .as_ref()
            .unwrap()
            .dependent
            .as_ref()
            .unwrap()
            .seam_latency_max;
        // A bound at exactly the worst seam is feasible (exact rational
        // arithmetic, no tolerance)...
        let ok = synthesize(
            &graph,
            &plan,
            2,
            &SynthesisConfig {
                seam_latency_bound: Some(worst),
                ..SynthesisConfig::default()
            },
        )
        .unwrap();
        let dep = ok.modes.as_ref().unwrap().dependent.as_ref().unwrap();
        assert_eq!(dep.seam_latency_bound, Some(worst));
        assert_eq!(dep.seam_latency_max, worst);
        // ...while any tighter bound is a SeamLatency rejection that names
        // the violated pair and both figures.
        let tighter = worst * Rational::new(1, 2);
        match synthesize(
            &graph,
            &plan,
            2,
            &SynthesisConfig {
                seam_latency_bound: Some(tighter),
                ..SynthesisConfig::default()
            },
        ) {
            Err(ScheduleError::SeamLatency { latency, bound, .. }) => {
                assert_eq!(bound, tighter);
                assert!(latency > bound);
            }
            other => panic!("expected a SeamLatency rejection, got {other:?}"),
        }
    }

    #[test]
    fn mode_script_normalizes_switch_points() {
        // Unsorted entries sort; duplicate firing indices keep the last
        // entry (later switches win, matching `arm_at`'s "last switch at or
        // before" semantics).
        let script = ModeScript::new(0, vec![(5, 2), (3, 1), (5, 9)]);
        assert_eq!(script.switches, vec![(3, 1), (5, 9)]);
        assert_eq!(script.arm_at(2), 0);
        assert_eq!(script.arm_at(3), 1);
        assert_eq!(script.arm_at(5), 9);
    }

    #[test]
    fn mode_script_validates_arm_indices() {
        assert!(ModeScript::new(0, vec![(3, 1)]).validate_arms(2).is_ok());
        let bad_initial = ModeScript::new(7, vec![]).validate_arms(2).unwrap_err();
        assert!(bad_initial.contains("selects arm 7"), "{bad_initial}");
        let bad_switch = ModeScript::new(0, vec![(3, 2)])
            .validate_arms(2)
            .unwrap_err();
        assert!(bad_switch.contains("arm 2"), "{bad_switch}");
    }

    #[test]
    fn plan_mode_sequence_follows_the_script_at_period_boundaries() {
        let rates = ModeDependentRates {
            modal: vec![1, 1],
            sources: vec![vec![1, 0], vec![0, 1]],
            sinks: vec![vec![1], vec![2]],
        };
        // Switch at modal firing 2: two periods of mode 0, then mode 1
        // until source 1's budget drains.
        let script = ModeScript::new(0, vec![(2, 1)]);
        let plan = plan_mode_sequence(&rates, &script, |_| 5);
        assert_eq!(plan.mode_seq, vec![0, 0, 1, 1, 1, 1, 1]);
        assert_eq!(plan.mode_switches, 1);
        assert_eq!(plan.produced, vec![2, 5]);
        assert_eq!(plan.drained, vec![2 + 5 * 2]);
        assert_eq!(plan.modal_firings, 7);
    }

    #[test]
    fn plan_mode_sequence_past_horizon_never_switches() {
        // A switch point beyond the run's modal firings executes as the
        // constant-initial-arm run with zero switches (the satellite-3
        // regression at the planning layer).
        let rates = ModeDependentRates {
            modal: vec![1, 1],
            sources: vec![vec![1, 0], vec![0, 1]],
            sinks: vec![vec![1], vec![2]],
        };
        let script = ModeScript::new(0, vec![(1_000_000, 1)]);
        let plan = plan_mode_sequence(&rates, &script, |_| 3);
        let constant = plan_mode_sequence(&rates, &ModeScript::new(0, vec![]), |_| 3);
        assert_eq!(plan, constant);
        assert_eq!(plan.mode_seq, vec![0, 0, 0]);
        assert_eq!(plan.mode_switches, 0);
    }

    #[test]
    fn parse_fusion_accepts_the_documented_values_only() {
        assert!(parse_fusion(""));
        assert!(parse_fusion("1"));
        assert!(!parse_fusion("0"));
        assert!(std::panic::catch_unwind(|| parse_fusion("yes")).is_err());
    }

    #[test]
    fn collapsed_twin_matches_the_modal_period_flow() {
        // The collapsed (uniform) twin of a modal graph must carry the
        // exact per-buffer token flow of the modal schedule — the static
        // bridge that lets the value-free simulator oracle cover modal
        // programs.
        let graph = rtgraph::non_uniform_merge_demo();
        let plan = rtgraph::plan(&graph);
        let s = synthesize_with(&graph, &plan, 1, true).unwrap();
        let info = modal_admission(&graph, &plan).unwrap().expect("modal");
        let collapsed = collapse_modal(&graph, &info);
        let cplan = rtgraph::plan(&collapsed);
        assert!(
            cplan.clusters.is_empty(),
            "the collapsed twin is uniform: {:?}",
            cplan.clusters
        );
        let cs = synthesize_with(&collapsed, &cplan, 1, true).unwrap();
        assert!(cs.modes.is_none());
        let flow = |g: &rtgraph::RtGraph, sch: &StaticSchedule| -> BTreeMap<String, u64> {
            let access = unit_access(g, &sch.units);
            let mut produced: BTreeMap<String, u64> = BTreeMap::new();
            for (u, a) in access.iter().enumerate() {
                for &(b, c) in &a.writes {
                    *produced.entry(g.buffers[b].name.clone()).or_default() +=
                        sch.units[u].repetitions * c as u64;
                }
            }
            produced
        };
        assert_eq!(flow(&graph, &s), flow(&collapsed, &cs));
    }

    #[test]
    fn covering_iterations_cover_the_source_budgets() {
        let (graph, s) = synth(PIPELINE, 1);
        // Source fires 2× per iteration; a 5-sample budget needs 3
        // iterations (⌈5/2⌉), covering 6 ≥ 5 samples.
        let iters = s.covering_iterations(&graph, |_| 5);
        assert_eq!(iters, vec![3]);
        assert_eq!(s.covering_iterations(&graph, |_| 0), vec![0]);
    }

    #[test]
    fn covering_iterations_include_the_standing_stock_drain() {
        // An init prologue leaves standing tokens a level-preserving period
        // never consumes, but a data-driven engine drains at end of run —
        // the covering count must include the extra firings they enable.
        let src = r#"
            mod seq A(int a, out int b){ init(out b:4); loop{ f(a, out b); } while(1); }
            mod seq B(int a, out int b){ loop{ g(a:2, out b); } while(1); }
            mod par D(){
                fifo int z;
                source int x = src() @ 2 kHz;
                sink int y = snk() @ 1 kHz;
                A(x, out z) || B(z, out y)
            }
        "#;
        let (graph, s) = synth(src, 1);
        // Budget 10: A fires 10, z carries 4 + 10 = 14, B fires 7 — more
        // than the 5 source-covering iterations (q(B) = 1) alone would run.
        let iters = s.covering_iterations(&graph, |_| 10);
        let b_unit = s
            .units
            .iter()
            .position(
                |u| matches!(&u.kind, UnitKind::Node(id) if graph.nodes[*id].name.contains("B")),
            )
            .expect("B's task is a unit");
        let fired_b = iters[s.units[b_unit].component as usize] * s.units[b_unit].repetitions;
        assert!(fired_b >= 7, "B must cover the stock drain: {fired_b}");
    }

    #[test]
    fn digests_are_stable_and_sensitive_to_worker_count() {
        let (_, a1) = synth(PIPELINE, 1);
        let (_, b1) = synth(PIPELINE, 1);
        assert_eq!(a1.digest(), b1.digest());
        let (_, a2) = synth(PIPELINE, 2);
        assert_ne!(a1.digest(), a2.digest());
    }

    #[test]
    fn fusion_merges_single_worker_pipelines() {
        let (graph, s) = synth(PIPELINE, 1);
        assert!(
            s.fusion.runs_fused >= 1,
            "a one-worker pipeline must fuse: {:?}",
            s.fused_workers
        );
        assert!(s.fusion.fused_chain_len_max >= 2);
        // Every firing of the projection is preserved across the rewrite.
        let fused_firings: u64 = s.fused_workers[0]
            .iter()
            .map(|i| match i {
                WorkItem::Step(st) => st.times as u64,
                WorkItem::Fused(run) => run.firings(),
            })
            .sum();
        assert_eq!(fused_firings, s.period_firings());
        s.validate(&graph).expect("fused schedules re-validate");
    }

    #[test]
    fn fusion_off_leaves_the_projection_untouched() {
        let (graph, s) = synth_with(PIPELINE, 1, false);
        assert_eq!(s.fusion, FusionStats::default());
        let plain: Vec<Step> = s.fused_workers[0]
            .iter()
            .map(|i| match i {
                WorkItem::Step(st) => *st,
                WorkItem::Fused(_) => panic!("no fused runs with fusion off"),
            })
            .collect();
        assert_eq!(plain, s.workers[0]);
        s.validate(&graph).unwrap();
    }

    #[test]
    fn fusion_changes_the_digest_but_not_the_period() {
        let (_, on) = synth(PIPELINE, 1);
        let (_, off) = synth_with(PIPELINE, 1, false);
        assert_eq!(on.period, off.period, "fusion must not alter the period");
        assert_eq!(on.workers, off.workers);
        assert_ne!(on.digest(), off.digest());
    }

    #[test]
    fn fused_runs_never_touch_cross_worker_buffers() {
        let (graph, s) = synth(PIPELINE, 2);
        let access = unit_access(&graph, &s.units);
        for items in &s.fused_workers {
            for item in items {
                if let WorkItem::Fused(run) = item {
                    for st in &run.stages {
                        let a = &access[st.unit as usize];
                        for &(b, _) in a.reads.iter().chain(&a.writes) {
                            assert!(
                                !s.cross_buffers.contains(&b),
                                "fused stage touches cross buffer `{}`",
                                graph.buffers[b].name
                            );
                        }
                    }
                }
            }
        }
        s.validate(&graph).unwrap();
    }

    #[test]
    fn whole_component_runs_are_batchable() {
        // A single linear chain on one worker fuses into one run covering
        // the whole component, which the executor may iterate back to back.
        let src = r#"
            mod seq S(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                S(x, out y)
            }
        "#;
        let (graph, s) = synth(src, 1);
        let batched = s.fused_workers[0].iter().any(|i| match i {
            WorkItem::Fused(run) => run.batch,
            WorkItem::Step(_) => false,
        });
        assert!(
            batched,
            "a whole-component run must be batchable: {:?}",
            s.fused_workers
        );
        s.validate(&graph).unwrap();
    }
}
