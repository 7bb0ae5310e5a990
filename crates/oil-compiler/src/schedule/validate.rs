//! Validation: the admission proof, as replays of one [`Ledger`] over the
//! per-mode table of a schedule.
//!
//! A schedule is a table with one row per *distinct token flow*: a single
//! row for uniform and union-advance graphs (every mode moves the same
//! tokens), one row per arm for mode-dependent ones. Each row carries its
//! access lists, repetition vector, period and worker projections. The
//! proof obligations iterate the table; every replay starts at the initial
//! tokens and must end there:
//!
//! | obligation | replayed list | tracked buffers | bound |
//! |---|---|---|---|
//! | period | each row's period, firing by firing | consumed | capacity |
//! | cooperative | each row's fused worker lists, side by side | consumed | `level_max` |
//! | batch | the same lists, `batch` periods per item | consumed | `level_max` |
//! | seams | `period(from) ++ period(to)`, every row pair | consumed | see below |
//! | seam latency | CTA drain → fill chain, every row pair | — | `seam_latency_bound` |
//!
//! A cooperative replay ends with every worker at the end of its list and
//! every buffer at its initial level, which is the state it started from,
//! so a row's lists loop — through a mode switch of a union-advance
//! schedule too, whose one row serves every arm; its one seam is replayed
//! over the global period within the capacities. The seams of a
//! mode-dependent table are replayed over what the engine executes there:
//! row `from`'s fused lists, then row `to`'s, on one ledger within
//! `level_max`.

use super::ledger::{
    engine_capacities, modal_member_access, row_access, FaultKind, Ledger, Levels, UnitAccess,
};

use super::model::{
    FusedRun, ModalSchedule, ModeDependent, ScheduleError, ScheduleUnit, StaticSchedule, Step,
    UnitKind, WorkItem,
};
use crate::rtgraph::{RtBufferId, RtGraph};
use oil_dataflow::Rational;

fn invalid(message: impl Into<String>) -> ScheduleError {
    ScheduleError::Invalid(message.into())
}

/// One row of a schedule's per-mode table (see the module docs).
struct ModeRow<'s> {
    /// Error-message prefix: empty for the single all-modes row, `mode k: `
    /// for a mode-dependent row.
    label: String,
    access: Vec<UnitAccess>,
    reps: Vec<u64>,
    period: &'s [Step],
    workers: &'s [Vec<Step>],
    /// The lists the engine executes for a period of the row.
    fused: &'s [Vec<WorkItem>],
    /// Periods the engine may execute as one pass.
    batch: u32,
}

impl StaticSchedule {
    /// The per-mode table, after checking that the schedule's modal
    /// dimension is coherent: the modal unit carries exactly the arms, and
    /// a mode-dependent schedule has exactly one `reps`/`periods`/`steps`
    /// row per arm, each firing the modal unit.
    fn mode_table(&self, graph: &RtGraph) -> Result<Vec<ModeRow<'_>>, ScheduleError> {
        if let Some(modes) = &self.modes {
            let unit = self.units.get(modes.unit as usize).map(|u| &u.kind);
            if !matches!(unit, Some(UnitKind::Modal { members }) if *members == modes.arms) {
                return Err(invalid(format!(
                    "unit {} is not the modal unit over the schedule's {} arms",
                    modes.unit,
                    modes.arms.len()
                )));
            }
        }
        let modes = self.modes.as_ref();
        let Some((modes, dep)) = modes.and_then(|m| Some((m, m.dependent.as_ref()?))) else {
            return Ok(vec![ModeRow {
                label: String::new(),
                access: row_access(graph, &self.units, None),
                reps: self.units.iter().map(|u| u.repetitions).collect(),
                period: &self.period,
                workers: &self.workers,
                fused: &self.fused_workers,
                batch: 1,
            }]);
        };
        let arms = modes.arms.len();
        let rows = [
            dep.reps.len(),
            dep.periods.len(),
            dep.steps.len(),
            dep.fused.len(),
            dep.batch.len(),
        ];
        if rows != [arms; 5] {
            return Err(invalid(format!(
                "the per-mode tables carry {rows:?} rows (reps/periods/steps/fused/batch) for \
                 {arms} arms"
            )));
        }
        (0..arms)
            .map(|m| {
                if dep.reps[m].len() != self.units.len() || dep.steps[m].len() != self.workers.len()
                {
                    return Err(invalid(format!(
                        "mode {m}: the repetition vector or worker lists diverge from the \
                         schedule's units or workers"
                    )));
                }
                if dep.reps[m][modes.unit as usize] == 0 {
                    return Err(invalid(format!(
                        "mode {m}: the modal unit is gated in its own mode"
                    )));
                }
                Ok(ModeRow {
                    label: format!("mode {m}: "),
                    access: row_access(graph, &self.units, Some(m)),
                    reps: dep.reps[m].clone(),
                    period: &dep.periods[m],
                    workers: &dep.steps[m],
                    fused: &dep.fused[m],
                    batch: dep.batch[m],
                })
            })
            .collect()
    }

    /// Exact integer replay of the admitted period against the CTA-sized
    /// capacities, for every row of the per-mode table: every unit fires
    /// exactly its repetition count, no read ever underflows, no
    /// ring-backed buffer ever exceeds its capacity, every buffer returns
    /// to its initial level (which is what makes the schedule loopable),
    /// and the worker projections partition the period. Then every row's
    /// fused worker lists are proven to run to completion side by side
    /// ([`Self::validate_fused`]); a mode-dependent schedule's top-level
    /// period/worker/repetition/fused-list fields must mirror mode 0 (what
    /// a script-less consumer sees). This is the admission proof —
    /// [`synthesize`](super::synthesize) never returns a schedule that
    /// fails it — and the oracle the schedule property tests replay
    /// independently.
    pub fn validate(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        let rows = self.mode_table(graph)?;
        let capacity = engine_capacities(graph);
        for row in &rows {
            let label = &row.label;
            let mut ledger = Ledger::new(graph, |b| self.consumer_unit[b].is_some());
            replay_period(graph, &mut ledger, row, &capacity, "")?;
            let mut fired = vec![0u64; self.units.len()];
            for step in row.period {
                fired[step.unit as usize] += step.times as u64;
            }
            if let Some(u) = (0..fired.len()).find(|&u| fired[u] != row.reps[u]) {
                return Err(invalid(format!(
                    "{label}unit {u} fired {} times in one period, repetition vector says {}",
                    fired[u], row.reps[u]
                )));
            }
            ledger
                .restored()
                .map_err(|f| f.invalid(graph, format_args!("{label}the period")))?;
            check_projection(&self.units, row)?;
        }
        if let Some(dep) = self.modes.as_ref().and_then(|m| m.dependent.as_ref()) {
            self.mirrors_mode_zero(dep)?;
        }
        rows.iter()
            .try_for_each(|row| self.validate_fused(graph, row))
    }

    /// The mode-dependent-only shape obligation: the top-level fields are
    /// mode 0's.
    fn mirrors_mode_zero(&self, dep: &ModeDependent) -> Result<(), ScheduleError> {
        let reps = self.units.iter().map(|u| u.repetitions);
        let mirrors = self.period == dep.periods[0]
            && self.workers == dep.steps[0]
            && self.fused_workers == dep.fused[0]
            && reps.eq(dep.reps[0].iter().copied());
        if !mirrors {
            return Err(invalid(
                "a mode-dependent schedule's top-level period/workers/repetitions/fused worker \
                 lists mirror mode 0",
            ));
        }
        Ok(())
    }

    /// The cooperative proof over one row's fused worker lists, which are
    /// what the engine executes in the row's periods: per worker, every unit
    /// keeps its projected firing count and every fused run is well formed
    /// ([`check_run`]: its stages live on the worker and its links never
    /// leave it); then all workers' lists run side by side
    /// ([`Ledger::replay_cooperative`]) — each worker firing its next item
    /// once the item's reads are present and its writes fit
    /// [`Self::level_max`] — and every worker must reach the end of its
    /// list with every buffer back at its initial level. That one execution
    /// decides it for all: no interleaving of the workers underflows a
    /// local ring, exceeds a ring's size, or leaves a worker waiting
    /// forever. A row the engine may batch is replayed once more with every
    /// item at `batch` periods' firings, under the same bound.
    fn validate_fused(&self, graph: &RtGraph, row: &ModeRow<'_>) -> Result<(), ScheduleError> {
        let label = &row.label;
        if row.fused.len() != row.workers.len() {
            return Err(invalid(format!(
                "{label}fused worker list count diverges from the projections"
            )));
        }
        for (w, items) in row.fused.iter().enumerate() {
            let mut delta = vec![0i128; self.units.len()];
            for s in &row.workers[w] {
                delta[s.unit as usize] += s.times as i128;
            }
            for s in items.iter().flat_map(WorkItem::stages) {
                delta[s.unit as usize] -= s.times as i128;
            }
            if let Some(u) = delta.iter().position(|&d| d != 0) {
                return Err(invalid(format!(
                    "{label}fused worker {w} changes the firing count of unit {u}"
                )));
            }
            for item in items {
                if let WorkItem::Fused(run) = item {
                    check_run(graph, &row.access, &self.units, w, run)
                        .map_err(|what| invalid(format!("{label}fused worker {w}: {what}")))?;
                }
            }
        }
        let mut ledger = Ledger::new(graph, |b| self.consumer_unit[b].is_some());
        let mut bound = self.level_max.clone();
        self.replay_lists(graph, &mut ledger, row, row.fused, &mut bound, label)?;
        if row.batch > 1 {
            let batched = format_args!("{label}{} periods per pass: ", row.batch);
            let scaled = WorkItem::scaled_lists(row.fused, row.batch)
                .ok_or_else(|| invalid(format!("{batched}a firing count overflows")))?;
            self.replay_lists(graph, &mut ledger, row, &scaled, &mut bound, batched)?;
        }
        Ok(())
    }

    /// Run `lists` side by side on `ledger`, under `row`'s access lists and
    /// within `bound` (a copy of [`Self::level_max`]; the proof never grows
    /// it): every worker must finish, and every buffer end at its initial
    /// level.
    fn replay_lists(
        &self,
        graph: &RtGraph,
        ledger: &mut Ledger<'_, impl Fn(RtBufferId) -> bool>,
        row: &ModeRow<'_>,
        lists: &[Vec<WorkItem>],
        bound: &mut Levels,
        ctx: impl std::fmt::Display,
    ) -> Result<(), ScheduleError> {
        let replayed = ledger.replay_cooperative(&row.access, lists, bound, false);
        if let Err(stalls) = replayed {
            // A worker short of space or at an occupied link names the
            // cause; one short of tokens may only be waiting for it.
            let stalled = stalls.iter().enumerate();
            let stalled = stalled.filter_map(|(w, s)| s.as_ref().map(|s| (w, s)));
            let (w, stall) = stalled
                .min_by_key(|(_, s)| s.fault.kind == FaultKind::Underflow)
                .expect("a stalled replay has a stalled worker");
            let (head, tail) = lists[w][stall.item].ends();
            let (h, t) = (head.unit, tail.unit);
            let who = format_args!("{ctx}the workers stall: fused worker {w}: units {h}..{t}");
            return Err(stall.fault.invalid(graph, who));
        }
        ledger
            .restored()
            .map_err(|f| f.invalid(graph, format_args!("{ctx}the fused worker lists")))
    }

    /// Re-prove the admission property across every mode-switch seam by
    /// exact integer replay. No-op for non-modal schedules.
    ///
    /// For every ordered pair of rows of the per-mode table, one period
    /// under `from` followed by one period under `to` — levels carried
    /// across the seam, each half under its own row's access lists — must
    /// never underflow a buffer, never exceed its bound, and end with
    /// every buffer back at its initial level (mode `to`'s entry state,
    /// since every period is anchored there): the proof that no transition
    /// program is needed between the two periods.
    ///
    /// A **union-advance** schedule has one row, because the modal unit
    /// consumes the union of all members' inputs and produces the shared
    /// write list whichever arm runs. That premise is checked per arm, and
    /// it is exactly why hot switching needs no pipeline drain: the state
    /// at any prefix of the period is a state the period visits under every
    /// arm, so the bounds hold pointwise across a switch injected
    /// *anywhere*, including mid-period and inside fused super-steps (whose
    /// stages never span the modal unit — it is excluded from fusion). The
    /// one seam is still replayed over the global period; the fused worker
    /// lists need no seam replay, because [`Self::validate`] proved they
    /// loop.
    ///
    /// A **mode-dependent** schedule switches at period boundaries, between
    /// whole fused lists, so its seams are replayed over those: all
    /// workers' lists of row `from` side by side, then row `to`'s, within
    /// [`Self::level_max`]. It additionally bounds the worst-case
    /// source-to-sink latency a switch inserts by the CTA chain drain →
    /// fill (each stage's work = Σ firings · response, exact): the recorded
    /// [`ModeDependent::seam_latency_max`] must equal the recomputed one,
    /// and a [`SynthesisConfig::seam_latency_bound`](super::SynthesisConfig)
    /// violation is [`ScheduleError::SeamLatency`].
    pub fn validate_transitions(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        self.validate_seams(graph)?;
        let Some(dep) = self.modes.as_ref().and_then(|m| m.dependent.as_ref()) else {
            return Ok(());
        };
        let latency_max = worst_seam_latency(graph, &self.units, dep)?;
        if latency_max != dep.seam_latency_max {
            return Err(invalid(format!(
                "recorded worst-case seam latency {}s diverges from the recomputed {}s",
                dep.seam_latency_max.to_f64(),
                latency_max.to_f64()
            )));
        }
        Ok(())
    }

    /// [`Self::validate_transitions`] less the recomputation of the
    /// recorded seam latency — what [`synthesize`](super::synthesize) runs,
    /// having just computed that value itself.
    pub(super) fn validate_seams(&self, graph: &RtGraph) -> Result<(), ScheduleError> {
        let Some(modes) = self.modes.as_ref() else {
            return Ok(());
        };
        let rows = self.mode_table(graph)?;
        let mut ledger = Ledger::new(graph, |b| self.consumer_unit[b].is_some());
        if modes.dependent.is_none() {
            let row = &rows[0];
            let capacity = engine_capacities(graph);
            let ctx = "any mode switch: ";
            replay_period(graph, &mut ledger, row, &capacity, ctx)?;
            replay_period(graph, &mut ledger, row, &capacity, ctx)?;
            ledger
                .restored()
                .map_err(|f| f.invalid(graph, format_args!("{ctx}the switch seam")))?;
            return Self::validate_union_advance(graph, modes, row);
        }
        // Every half of a fused seam ends at the initial levels (or is
        // rejected), so one ledger carries all the pairs.
        let mut bound = self.level_max.clone();
        for (from, drain) in rows.iter().enumerate() {
            for (to, fill) in rows.iter().enumerate() {
                for row in [drain, fill] {
                    let ctx = format_args!("transition {from}->{to}: {}", row.label);
                    self.replay_lists(graph, &mut ledger, row, row.fused, &mut bound, ctx)?;
                }
            }
        }
        Ok(())
    }

    /// The union-advance half of [`Self::validate_transitions`]: the one
    /// row really is every arm's token flow.
    fn validate_union_advance(
        graph: &RtGraph,
        modes: &ModalSchedule,
        row: &ModeRow<'_>,
    ) -> Result<(), ScheduleError> {
        let shared = &row.access[modes.unit as usize];
        let mut reads = Vec::new();
        for (k, &arm) in modes.arms.iter().enumerate() {
            let (arm_reads, arm_writes) = modal_member_access(graph, arm);
            if arm_writes != shared.writes {
                return Err(invalid(format!(
                    "mode {k}: arm `{}` diverges from the shared write list of modal unit {}, \
                     so one period cannot serve every mode",
                    graph.nodes[arm].name, modes.unit
                )));
            }
            reads.extend(arm_reads);
        }
        reads.sort();
        if reads != shared.reads {
            return Err(invalid(format!(
                "the arms of modal unit {} overlap in their reads, so one period cannot \
                 serve every mode",
                modes.unit
            )));
        }
        Ok(())
    }
}

/// The worst CTA-bounded source-to-sink latency across any ordered
/// `(from, to)` switch seam of a mode-dependent schedule; a pair over
/// the configured bound is [`ScheduleError::SeamLatency`].
pub(super) fn worst_seam_latency(
    graph: &RtGraph,
    units: &[ScheduleUnit],
    dep: &ModeDependent,
) -> Result<Rational, ScheduleError> {
    // Sources and sinks move one token with no kernel work.
    let response = |unit: &ScheduleUnit, mode: usize| {
        let node = unit.kind.nodes(Some(mode)).first();
        node.map_or(Rational::ZERO, |&n| graph.nodes[n].response)
    };
    let work: Vec<Rational> = (0..dep.mode_count())
        .map(|mode| {
            let mut work = Rational::ZERO;
            for (u, unit) in units.iter().enumerate() {
                let reps = dep.reps[mode][u];
                if reps > 0 {
                    work += Rational::from_int(reps as i128) * response(unit, mode);
                }
            }
            work
        })
        .collect();
    let mut worst = Rational::ZERO;
    for (from, &drain) in work.iter().enumerate() {
        for (to, &fill) in work.iter().enumerate() {
            let stages = [("drain", drain), ("fill", fill)];
            let report = oil_cta::latency::check_seam_latency(&stages, dep.seam_latency_bound)
                .map_err(|e| ScheduleError::SeamLatency {
                    from: from as u32,
                    to: to as u32,
                    latency: e.latency,
                    bound: e.bound,
                })?;
            if report.latency > worst {
                worst = report.latency;
            }
        }
    }
    Ok(worst)
}

/// The structure of one fused run of worker `w`: at least two stages, all
/// of them `w`'s units, joined by `stages - 1` links, every link the single
/// write of its producer stage and the single read of its consumer stage,
/// and exactly balanced. Both ends of every link are therefore `w`'s: a
/// link never crosses to another worker — only the head's reads and the
/// tail's writes may. (That the links are empty at run entry is the
/// replay's to check.)
fn check_run(
    graph: &RtGraph,
    access: &[UnitAccess],
    units: &[ScheduleUnit],
    w: usize,
    run: &FusedRun,
) -> Result<(), String> {
    if run.stages.len() < 2 || run.links.len() + 1 != run.stages.len() {
        return Err(format!(
            "malformed run ({} stages, {} links)",
            run.stages.len(),
            run.links.len()
        ));
    }
    if let Some(s) = run
        .stages
        .iter()
        .find(|s| units[s.unit as usize].worker != w)
    {
        return Err(format!("fused unit {} lives on another worker", s.unit));
    }
    for (i, &link) in run.links.iter().enumerate() {
        let (p, c) = (run.stages[i], run.stages[i + 1]);
        let name = &graph.buffers[link].name;
        let (writes, reads) = (
            &access[p.unit as usize].writes,
            &access[c.unit as usize].reads,
        );
        let (prod, cons) = match (writes.as_slice(), reads.as_slice()) {
            (&[(wb, prod)], &[(rb, cons)]) if wb == link && rb == link => (prod, cons),
            _ => {
                return Err(format!(
                    "fused link `{name}` is not the single write of unit {} and the single \
                     read of unit {}",
                    p.unit, c.unit
                ))
            }
        };
        let produced = p.times as u64 * prod as u64;
        let consumed = c.times as u64 * cons as u64;
        if produced != consumed || produced == 0 {
            return Err(format!(
                "fused link `{name}` is unbalanced ({produced} produced, {consumed} consumed)"
            ));
        }
    }
    Ok(())
}

/// Replay one row's period through `ledger`, firing by firing, within the
/// CTA-sized capacities.
fn replay_period(
    graph: &RtGraph,
    ledger: &mut Ledger<'_, impl Fn(RtBufferId) -> bool>,
    row: &ModeRow<'_>,
    capacity: &Levels,
    ctx: &str,
) -> Result<(), ScheduleError> {
    for (pos, &step) in row.period.iter().enumerate() {
        let fired = ledger.fire_each(&row.access, step, Some(capacity));
        fired.map_err(|f| {
            let who = format_args!("{ctx}{}step {pos}: unit {}", row.label, step.unit);
            f.invalid(graph, who)
        })?;
    }
    Ok(())
}

/// The row's worker lists are exactly the per-worker projection of its
/// period under the units' worker assignment.
fn check_projection(units: &[ScheduleUnit], row: &ModeRow<'_>) -> Result<(), ScheduleError> {
    let mut cursors = vec![0usize; row.workers.len()];
    let stray = row.period.iter().find_map(|step| {
        let w = units[step.unit as usize].worker;
        let Some(cursor) = cursors.get_mut(w) else {
            return Some(w);
        };
        *cursor += 1;
        (row.workers[w].get(*cursor - 1) != Some(step)).then_some(w)
    });
    let stray = stray.or_else(|| (0..cursors.len()).find(|&w| cursors[w] != row.workers[w].len()));
    match stray {
        Some(w) => Err(invalid(format!(
            "{}worker {w}'s list is not the projection of the period onto its units",
            row.label
        ))),
        None => Ok(()),
    }
}
