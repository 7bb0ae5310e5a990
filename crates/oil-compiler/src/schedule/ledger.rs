//! The replay ledger: exact integer token accounting over a graph's
//! buffers.
//!
//! Every proof obligation of the schedule module — one period, one
//! period per mode, the workers' fused lists run side by side, every switch
//! seam — and both constructors (the greedy firing order, fusion placement)
//! are the same loop: start from the initial tokens, move tokens firing by
//! firing, never underflow, stay within a bound, end where you started.
//! That loop lives here, once; callers supply *what* fires and under
//! *which* bound, and turn a [`Fault`] into an error naming the unit and
//! position or mode.

use super::model::{ScheduleError, ScheduleUnit, Step, UnitKind, WorkItem};
use crate::rtgraph::{RtBuffer, RtBufferId, RtGraph, RtNodeId};
use oil_dataflow::index::IndexVec;
use std::collections::BTreeMap;

/// Aggregated per-buffer port accesses in canonical ascending-buffer order:
/// `(buffer, total count)` pairs.
pub type PortAccessList = Vec<(RtBufferId, usize)>;

/// The aggregated per-buffer access lists of one unit (duplicate ports
/// summed — a unit reading one buffer through two ports consumes the sum
/// per firing).
#[derive(Debug, Clone)]
pub(super) struct UnitAccess {
    pub reads: PortAccessList,
    pub writes: PortAccessList,
}

impl UnitAccess {
    /// The unit reads a buffer it also writes: levels then do not move
    /// monotonically within a step, so `times` firings at once and `times`
    /// firings in sequence prove different things.
    fn feeds_itself(&self) -> bool {
        self.reads.iter().any(|&(b, _)| port(&self.writes, b) > 0)
    }
}

fn aggregate(ports: &[(RtBufferId, usize)]) -> PortAccessList {
    let mut sums = ports.to_vec();
    sums.sort_by_key(|&(b, _)| b);
    sums.dedup_by(|port, sum| {
        let same = port.0 == sum.0;
        if same {
            sum.1 += port.1;
        }
        same
    });
    sums
}

/// The aggregated `(reads, writes)` of one node, in the canonical
/// ascending-buffer order synthesis uses. The runtime engines build their
/// modal dispatch tables through this, so the per-firing value layout of a
/// modal firing (which slice of the popped union feeds the active kernel)
/// is identical everywhere.
pub fn modal_member_access(graph: &RtGraph, node: RtNodeId) -> (PortAccessList, PortAccessList) {
    let n = &graph.nodes[node];
    (aggregate(&n.reads), aggregate(&n.writes))
}

/// The per-firing count `list` carries for buffer `b` (0 when absent).
pub(super) fn port(list: &[(RtBufferId, usize)], b: RtBufferId) -> usize {
    list.iter().find(|&&(lb, _)| lb == b).map_or(0, |&(_, c)| c)
}

/// The union of several aggregated port lists: one entry per buffer at the
/// *maximum* per-firing count any list carries. For identical lists this
/// is the list itself; for pairwise-disjoint lists it is their sorted
/// concatenation.
fn union_ports<'a>(lists: impl Iterator<Item = &'a PortAccessList>) -> PortAccessList {
    let mut max: BTreeMap<RtBufferId, usize> = BTreeMap::new();
    for list in lists {
        for &(b, c) in list {
            let slot = max.entry(b).or_default();
            *slot = (*slot).max(c);
        }
    }
    max.into_iter().collect()
}

/// The per-unit access lists of one row of the per-mode table.
///
/// `arm` selects what the modal unit moves per firing. `None` is the
/// *support* access: the union over members, one entry per buffer at the
/// worst per-firing count — under union-advance exactly the unit's token
/// flow in every mode (reads are pairwise disjoint, writes are shared), and
/// for mode-dependent clusters the superset the buffer-endpoint maps and
/// connectivity are built over. `Some(k)` is member `k`'s own aggregated
/// access: the token flow of a mode-`k` firing of a mode-dependent
/// cluster. Every other unit is mode-independent.
pub(super) fn row_access(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    arm: Option<usize>,
) -> Vec<UnitAccess> {
    units
        .iter()
        .map(|u| match &u.kind {
            kind @ UnitKind::Source { .. } => UnitAccess {
                reads: Vec::new(),
                writes: kind.source_outputs(graph).iter().map(|&b| (b, 1)).collect(),
            },
            UnitKind::Sink(id) => UnitAccess {
                reads: vec![(graph.sinks[*id].input, 1)],
                writes: Vec::new(),
            },
            kind => {
                let node = |&n| modal_member_access(graph, n);
                let (reads, writes) = match kind.nodes(arm) {
                    [only] => node(only),
                    nodes => {
                        let each: Vec<_> = nodes.iter().map(node).collect();
                        let reads = union_ports(each.iter().map(|a| &a.0));
                        (reads, union_ports(each.iter().map(|a| &a.1)))
                    }
                };
                UnitAccess { reads, writes }
            }
        })
        .collect()
}

/// Per-buffer level bounds.
pub(super) type Levels = IndexVec<RtBufferId, u64>;

/// The capacities both runtime engines enforce (declared CTA-sized
/// capacity, floored by the initial tokens and one slot).
pub(super) fn engine_capacities(graph: &RtGraph) -> Levels {
    graph
        .buffers
        .iter()
        .map(|b| b.capacity.max(b.initial_tokens).max(1) as u64)
        .collect::<Vec<_>>()
        .into()
}

/// What went wrong on which buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Fault {
    pub buffer: RtBufferId,
    pub kind: FaultKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FaultKind {
    /// A read found fewer tokens than it consumes.
    Underflow,
    /// A write pushed the level past the bound.
    Overflow { level: u64, bound: u64 },
    /// The replay did not return the buffer to its initial level.
    Unrestored { level: u64, initial: u64 },
    /// A fused run was entered with tokens standing in one of its links
    /// (the run carries a link in scratch, so it must start empty).
    LinkOccupied { level: u64 },
}

impl Fault {
    /// The validation error `"<who> underflows buffer `x`"`, `who` naming
    /// the unit and position or mode.
    pub fn invalid(&self, graph: &RtGraph, who: impl std::fmt::Display) -> ScheduleError {
        let name = &graph.buffers[self.buffer].name;
        ScheduleError::Invalid(match self.kind {
            FaultKind::Underflow => format!("{who} underflows buffer `{name}`"),
            FaultKind::Overflow { level, bound } => {
                format!("{who} overflows buffer `{name}` ({level} > bound {bound})")
            }
            FaultKind::Unrestored { level, initial } => {
                format!("{who} leaves buffer `{name}` at level {level} (started at {initial})")
            }
            FaultKind::LinkOccupied { level } => {
                format!("{who} enters fused link `{name}` holding {level} standing tokens")
            }
        })
    }
}

/// Where one worker of a cooperative replay came to rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Stall {
    /// Index into the worker's list of the item it could not fire.
    pub item: usize,
    pub fault: Fault,
}

/// Token levels over the *tracked* buffers of a graph, anchored at the
/// initial tokens.
///
/// Untracked buffers are invisible: their reads and writes are skipped and
/// they are exempt from restoration. The proofs track every consumed buffer
/// (the engines drop commits to an unread one); fusion's per-worker
/// placement tracks the consumed buffers confined to that worker (what the
/// other workers do to a crossing ring is settled afterwards, by
/// [`Ledger::replay_cooperative`]).
pub(super) struct Ledger<'g, T> {
    graph: &'g RtGraph,
    tracked: T,
    level: Levels,
}

/// The anchor of every replay: the tokens a buffer holds before start-up.
pub(super) fn initial(buf: &RtBuffer) -> u64 {
    buf.initial_tokens as u64
}

impl<'g, T: Fn(RtBufferId) -> bool> Ledger<'g, T> {
    /// A ledger at the initial levels tracking the buffers `tracked` admits.
    pub fn new(graph: &'g RtGraph, tracked: T) -> Self {
        let level = graph.buffers.iter().map(initial).collect::<Vec<_>>().into();
        Ledger {
            graph,
            tracked,
            level,
        }
    }

    /// The current level of `b`.
    pub fn level(&self, b: RtBufferId) -> u64 {
        self.level[b]
    }

    /// Move one work item's ring traffic: consume `head.times ×` every read
    /// of `head`'s unit, then produce `tail.times ×` every write of
    /// `tail`'s unit, each as a single transfer (what a step of a worker
    /// list does to a ring). A plain step is its own head and tail; a fused
    /// run moves only its first stage's reads and its last stage's writes.
    /// A write past `bound` (when one is given) is an overflow. The firing
    /// is all or nothing: a fault leaves the ledger untouched, so
    /// constructors may probe with it and a blocked worker may retry.
    #[inline] // the inner loop of every replay; ~15% of `validate` when outlined
    pub fn fire(
        &mut self,
        access: &[UnitAccess],
        head: Step,
        tail: Step,
        bound: Option<&Levels>,
    ) -> Result<(), Fault> {
        let tracked = &self.tracked;
        let head_reads = &access[head.unit as usize].reads;
        let reads = || head_reads.iter().filter(|&&(b, _)| tracked(b));
        let writes = || {
            let writes = access[tail.unit as usize].writes.iter();
            writes.filter(|&&(b, _)| tracked(b))
        };
        let need = |c: usize| head.times as u64 * c as u64;
        let gain = |c: usize| tail.times as u64 * c as u64;
        if let Some(&(buffer, _)) = reads().find(|&&(b, c)| self.level[b] < need(c)) {
            let kind = FaultKind::Underflow;
            return Err(Fault { buffer, kind });
        }
        if let Some(bound) = bound {
            for &(buffer, c) in writes() {
                // The level the write reaches once the head's own reads of
                // the buffer (a feedback edge) have been taken out.
                let level = self.level[buffer] - need(port(head_reads, buffer)) + gain(c);
                if level > bound[buffer] {
                    let bound = bound[buffer];
                    let kind = FaultKind::Overflow { level, bound };
                    return Err(Fault { buffer, kind });
                }
            }
        }
        for &(b, c) in reads() {
            self.level[b] -= need(c);
        }
        for &(b, c) in writes() {
            self.level[b] += gain(c);
        }
        Ok(())
    }

    /// Fire `step` as `step.times` *sequential* firings (what a step of the
    /// global period means). Unless the unit reads a buffer it also writes,
    /// levels move monotonically within the step, so one transfer proves
    /// exactly what firing by firing does; a self-loop is replayed singly.
    pub fn fire_each(
        &mut self,
        access: &[UnitAccess],
        step: Step,
        bound: Option<&Levels>,
    ) -> Result<(), Fault> {
        if !access[step.unit as usize].feeds_itself() {
            return self.fire(access, step, step, bound);
        }
        let once = Step { times: 1, ..step };
        (0..step.times).try_for_each(|_| self.fire(access, once, once, bound))
    }

    /// Fire `a` once iff the engines' data-driven enabling rule holds —
    /// every read has its tokens and every write has its space *while the
    /// inputs are still held* — and report whether it fired. This is the
    /// step of the greedy order construction.
    pub fn try_fire(&mut self, a: &UnitAccess, capacity: &Levels) -> bool {
        let tracked = &self.tracked;
        let (reads, writes) = (
            || a.reads.iter().filter(|&&(b, _)| tracked(b)),
            || a.writes.iter().filter(|&&(b, _)| tracked(b)),
        );
        let enabled = reads().all(|&(b, c)| self.level[b] >= c as u64)
            && writes().all(|&(b, c)| self.level[b] + c as u64 <= capacity[b]);
        if enabled {
            for &(b, c) in reads() {
                self.level[b] -= c as u64;
            }
            for &(b, c) in writes() {
                self.level[b] += c as u64;
            }
        }
        enabled
    }

    /// Run every worker's list side by side, the way the static-order engine
    /// does: each worker fires its next item as soon as the item's reads
    /// are all present and its writes all fit `level_max`, and waits
    /// otherwise. Items fire whole ([`Self::fire`]) — except a plain step of
    /// a unit that reads a buffer it writes, which the engine also fires
    /// one firing at a time — and a fused run must find its links empty.
    ///
    /// Whether an item can fire depends only on what *other* workers have
    /// already done, never on what they have not: the reads it waits for
    /// are consumed by nobody else and the space it waits for is filled by
    /// nobody else (every buffer has one producer and one consumer). So
    /// this round-robin is one maximal execution of a network in which all
    /// maximal executions fire the same items: if it completes, none
    /// deadlocks — and the engine's workers, which block token by token
    /// inside an item instead of waiting for the whole of it, only ever
    /// run ahead of it.
    ///
    /// With `grow`, a round in which nobody moved but some worker lacks
    /// only write space raises that buffer's `level_max` to the level the
    /// write needs and carries on; that is how synthesis sizes the rings.
    /// Without it (the proof) such a worker is stalled. `Err` holds, per
    /// worker, the item it stalled at and why (`None`: finished).
    pub fn replay_cooperative(
        &mut self,
        access: &[UnitAccess],
        lists: &[Vec<WorkItem>],
        level_max: &mut Levels,
        grow: bool,
    ) -> Result<(), Vec<Option<Stall>>> {
        // Per worker: the next item, and the firings of it already done.
        let mut cursors = vec![(0usize, 0u32); lists.len()];
        loop {
            let mut progressed = false;
            let mut stalls: Vec<Option<Stall>> = vec![None; lists.len()];
            for (w, items) in lists.iter().enumerate() {
                let (at, done) = &mut cursors[w];
                while let Some(item) = items.get(*at) {
                    let (head, tail) = item.ends();
                    let fired = if let WorkItem::Fused(run) = item {
                        let occupied = run.links.iter().find(|&&b| self.level[b] != 0);
                        match occupied {
                            Some(&buffer) => {
                                let level = self.level[buffer];
                                let kind = FaultKind::LinkOccupied { level };
                                Err(Fault { buffer, kind })
                            }
                            None => self.fire(access, head, tail, Some(level_max)),
                        }
                    } else if access[head.unit as usize].feeds_itself() {
                        let once = Step { times: 1, ..head };
                        (*done..head.times).try_for_each(|_| {
                            self.fire(access, once, once, Some(level_max))?;
                            *done += 1;
                            progressed = true;
                            Ok(())
                        })
                    } else {
                        self.fire(access, head, tail, Some(level_max))
                    };
                    match fired {
                        Ok(()) => {
                            (*at, *done) = (*at + 1, 0);
                            progressed = true;
                        }
                        Err(fault) => {
                            stalls[w] = Some(Stall { item: *at, fault });
                            break;
                        }
                    }
                }
            }
            if stalls.iter().all(Option::is_none) {
                return Ok(());
            }
            if progressed {
                continue;
            }
            let short_of_space = stalls.iter().flatten().find_map(|s| match s.fault.kind {
                FaultKind::Overflow { level, .. } => Some((s.fault.buffer, level)),
                _ => None,
            });
            match short_of_space {
                Some((buffer, level)) if grow => level_max[buffer] = level,
                _ => return Err(stalls),
            }
        }
    }

    /// Every tracked buffer is back at its initial level: the replayed
    /// list is loopable.
    pub fn restored(&self) -> Result<(), Fault> {
        for (b, buf) in self.graph.buffers.iter_enumerated() {
            let (level, initial) = (self.level[b], initial(buf));
            if (self.tracked)(b) && level != initial {
                let kind = FaultKind::Unrestored { level, initial };
                return Err(Fault { buffer: b, kind });
            }
        }
        Ok(())
    }
}
