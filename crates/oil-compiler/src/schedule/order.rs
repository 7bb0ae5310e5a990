//! Order construction: scheduling units, buffer endpoints, the repetition
//! vector of the SDF view over units, weakly-connected components and the
//! greedy bursting firing order.

use super::ledger::{initial, port, Ledger, Levels, UnitAccess};
use super::model::{ScheduleError, ScheduleUnit, Step, UnitKind};
use super::ModalClusterInfo;
use crate::rtgraph::{RtBufferId, RtGraph, RtPlan};
use oil_dataflow::index::{Idx, IndexVec};
use oil_dataflow::sdf::SdfGraph;
use oil_dataflow::Rational;
use std::collections::BTreeMap;

/// Per buffer: the unit at one of its ends.
pub(super) type UnitOf = IndexVec<RtBufferId, Option<u32>>;

/// Step 1 of synthesis: the scheduling units of a graph, in the self-timed
/// engine's unit order (clusters at their first member, then sources, then
/// sinks). `modal` marks which cluster becomes the modal unit.
///
/// A source with several replica buffers is one unit per buffer (see
/// [`UnitKind::Source`]), consecutive in output order — except under a
/// mode-dependent cluster, whose per-mode rates count tokens per source.
pub(super) fn build_units(
    graph: &RtGraph,
    plan: &RtPlan,
    modal: Option<&ModalClusterInfo>,
) -> Vec<ScheduleUnit> {
    let mut kinds: Vec<UnitKind> = Vec::new();
    let mut emitted = vec![false; graph.nodes.len()];
    for ni in graph.nodes.indices() {
        if emitted[ni.index()] {
            continue;
        }
        kinds.push(match plan.cluster_of[ni] {
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
            None => UnitKind::Node(ni),
        });
    }
    let split = !modal.is_some_and(|m| m.mode_dependent);
    for (source, s) in graph.sources.iter_enumerated() {
        let replicas: Vec<Option<RtBufferId>> = match split && s.outputs.len() > 1 {
            true => s.outputs.iter().copied().map(Some).collect(),
            false => vec![None],
        };
        kinds.extend((replicas.into_iter()).map(|replica| UnitKind::Source { source, replica }));
    }
    kinds.extend(graph.sinks.indices().map(UnitKind::Sink));
    kinds
        .into_iter()
        .map(|kind| ScheduleUnit {
            kind,
            component: 0,
            worker: 0,
            repetitions: 0,
        })
        .collect()
}

/// The buffer-endpoint maps over units (single producer and single
/// consumer per buffer, by construction).
pub(super) fn buffer_endpoints(graph: &RtGraph, access: &[UnitAccess]) -> (UnitOf, UnitOf) {
    let n_buffers = graph.buffers.len();
    let mut producer_unit: UnitOf = IndexVec::from_elem(None, n_buffers);
    let mut consumer_unit: UnitOf = IndexVec::from_elem(None, n_buffers);
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
/// units (a mode-dependent row gates the off-mode slices of the graph) get
/// no actor and repetition 0, so that row's period simply omits them.
pub(super) fn repetition_vector(
    graph: &RtGraph,
    access: &[UnitAccess],
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
    active: &[bool],
) -> Result<Vec<u64>, ScheduleError> {
    let mut sdf = SdfGraph::new();
    let actors: Vec<_> = active
        .iter()
        .enumerate()
        .map(|(u, &on)| on.then(|| sdf.add_actor(format!("u{u}"), Rational::ZERO)))
        .collect();
    for (bi, buf) in graph.buffers.iter_enumerated() {
        let (Some(p), Some(c)) = (producer_unit[bi], consumer_unit[bi]) else {
            continue; // unread or never-written: no rate constraint
        };
        let (Some(pa), Some(ca)) = (actors[p as usize], actors[c as usize]) else {
            continue; // a gated endpoint: the buffer is idle in this mode
        };
        let prod = port(&access[p as usize].writes, bi) as u64;
        let cons = port(&access[c as usize].reads, bi) as u64;
        if prod > 0 && cons > 0 {
            sdf.add_named_edge(&buf.name, pa, ca, prod, cons, initial(buf));
        }
    }
    let q = sdf
        .repetition_vector()
        .map_err(|e| ScheduleError::NoRepetitionVector {
            reason: e.to_string(),
        })?;
    Ok(actors.iter().map(|a| a.map_or(0, |a| q[a])).collect())
}

/// Weakly-connected components over shared buffers (mutates
/// `units[..].component`, returns the component count).
pub(super) fn assign_components(
    units: &mut [ScheduleUnit],
    graph: &RtGraph,
    producer_unit: &UnitOf,
    consumer_unit: &UnitOf,
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
pub(super) fn greedy_period(
    mut ledger: Ledger<'_, impl Fn(RtBufferId) -> bool>,
    access: &[UnitAccess],
    capacity: &Levels,
    repetitions: &[u64],
) -> Result<Vec<Step>, ScheduleError> {
    let required: u64 = repetitions.iter().sum();
    let mut remaining: Vec<u64> = repetitions.to_vec();
    let mut admitted: u64 = 0;
    let mut period: Vec<Step> = Vec::new();
    while admitted < required {
        let before = admitted;
        for (u, (a, left)) in access.iter().zip(&mut remaining).enumerate() {
            let mut times: u64 = 0;
            while *left > 0 && ledger.try_fire(a, capacity) {
                *left -= 1;
                times += 1;
            }
            admitted += times;
            while times > 0 {
                let chunk = times.min(u32::MAX as u64) as u32;
                period.push(Step {
                    unit: u as u32,
                    times: chunk,
                });
                times -= chunk as u64;
            }
        }
        if admitted == before {
            return Err(ScheduleError::Stuck { admitted, required });
        }
    }
    Ok(period)
}
