//! Modal admission: which non-uniform serial cluster (if any) becomes the
//! schedule's modal unit, in which of the two admissible shapes.

use super::ledger::modal_member_access;
use super::model::ScheduleError;
use crate::rtgraph::{RtBufferId, RtGraph, RtNode, RtNodeId, RtPlan};

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
    let (member_reads, member_writes): (Vec<_>, Vec<_>) = members
        .iter()
        .map(|&m| modal_member_access(graph, m))
        .unzip();
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
    let kept = graph.nodes.iter_enumerated();
    let kept = kept.filter(|(id, _)| !info.members.contains(id));
    let mut nodes: Vec<RtNode> = kept.map(|(_, n)| n.clone()).collect();
    nodes.push(RtNode {
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
