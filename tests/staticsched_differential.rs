//! Differential verification of the compiled static-order engine.
//!
//! The schedule synthesis pass (`oil_compiler::schedule`) claims that for
//! every accepted program the firing order can be decided at compile time;
//! the static-order engine (`oil_rt::staticsched`) claims that replaying
//! the synthesised lists — with zero runtime scheduling — produces exactly
//! the streams the dynamic engines produce. This harness holds both to it,
//! against the self-timed engine as the dynamic reference:
//!
//! 1. **Prefix oracle** — the static replay runs its sources to the end of
//!    the covering schedule iteration (`⌈budget/q⌉` iterations), at or past
//!    the self-timed engine's exact sample budget, so on every buffer the
//!    self-timed value stream must be a bit-exact **prefix** of the static
//!    replay's stream. Synthesis resolves uniform modal clusters exactly as
//!    the dynamic engines' deterministic tie-break does (lowest-id twin) and
//!    rejects only non-uniform clusters that are not modal-admissible
//!    (admissible ones get per-mode schedules, covered by
//!    `tests/modeswitch_differential.rs`), so this holds on *all* buffers,
//!    not only the plan's schedule-invariant subset.
//! 2. **Worker-count invariance** — schedules synthesised for 1/2/3/4
//!    workers replay bit-identical streams, firing counts and sink streams.
//! 3. **Liveness** — every synthesised schedule replays to completion
//!    under CTA-sized buffer bounds (validation proved one period; the
//!    runs prove the loop), with zero deadlocks on the full corpus —
//!    including the SDR-flavoured scenarios.
//! 4. **Schedule admission** — a property test independently replays one
//!    period of every synthesised schedule with exact integer token
//!    accounting: every unit fires exactly its repetition count, no read
//!    underflows, no CTA-sized capacity is exceeded, and the period is
//!    level-preserving — and then runs the workers' fused lists side by
//!    side under `level_max`, which must bring every worker to the end of
//!    its list. A fixed-seed golden corpus
//!    (`tests/data/schedule_corpus.txt`) pins the synthesised schedules'
//!    digests; regenerate after an intentional change with
//!    `OIL_UPDATE_SCHEDULE_CORPUS=1 cargo test --test staticsched_differential corpus`.
//! 5. **PAL rate conformance** — the case study replays with the real DSP
//!    kernels and must sustain the threshold fraction of the CTA-predicted
//!    sink rates.
//!
//! Every failure message quotes the reproducing seed
//! (`ProgramScenario::generate(seed)`, or `generate_sdr(seed)` for the SDR
//! slice).

mod support;

use oil::compiler::rtgraph::{RtBufferId, RtGraph};
use oil::compiler::schedule::{
    ModeDependent, ScheduleError, StaticSchedule, Step, UnitKind, WorkItem,
};
use oil::dataflow::index::Idx;
use oil::dataflow::Rational;
use oil::gen::{ModalScenario, ModeDependentScenario, ProgramScenario};
use oil::lang::registry::FunctionSignature;
use oil::rt::{
    execute, execute_selftimed, execute_staticsched, KernelLibrary, RtConfig, SelfTimedConfig,
    StaticConfig,
};
use oil::sim::picos;
use support::{
    assert_identical, assert_prefix, build_program, duration_s, env, fusion, program_seeds,
    programs, replay, schedule, static_config,
};

/// Worker counts under test.
const WORKERS: [usize; 4] = [1, 2, 3, 4];

/// A source read by two readers whose chains meet again: `x -> A`,
/// `x -> B`, `A, B -> C -> E -> y`. Both replicas of `x` stay in one
/// component. `A` is the heavy kernel, so two workers cut the chain
/// `A -> C`: a whole period of `ma` (8 tokens, twice its capacity) crosses,
/// and `B`'s run feeds `C`'s on the second worker.
const FAN_OUT: &str = r#"
    mod seq A(int a, out int m){ loop{ f(a, out m); } while(1); }
    mod seq B(int a, out int m){ loop{ g(a, out m); } while(1); }
    mod seq C(int m, int n, out int c){ loop{ h(m, n, out c); } while(1); }
    mod seq E(int c, out int o){ loop{ k(c:8, out o); } while(1); }
    mod par D(){
        fifo int ma, mb, mc;
        source int x = src() @ 8 kHz;
        sink int y = snk() @ 1 kHz;
        A(x, out ma) || B(x, out mb) || C(ma, mb, out mc) || E(mc, out y)
    }
"#;

fn fan_out_graph() -> RtGraph {
    let mut registry = support::pure(&["g", "h", "k", "src", "snk"], 1e-5);
    registry.register(FunctionSignature::pure("f", 4e-5));
    oil::build(FAN_OUT, &registry, 1, &fusion(true))
        .expect("FAN_OUT")
        .graph
}

#[test]
fn static_replay_matches_the_selftimed_reference_on_the_corpus() {
    // Synthesis never rejects a compiler-lowered graph: the compiler's
    // modal extraction produces uniform twins, so `build_program` panics on
    // any schedule error.
    let (mut checked, mut rejected) = (0u32, 0u32);
    for (at, scenario) in programs(program_seeds(), 32) {
        let Some(exe) = build_program(&at, &scenario, 2) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let graph = &exe.graph;
        let config = support::selftimed_config(1);
        let reference = support::selftimed(graph, &exe.plan, duration_s(), None, &config);
        assert!(
            !reference.deadlocked,
            "{at}: self-timed reference deadlocked"
        );

        let mut baseline = None;
        for w in WORKERS {
            let schedule_w = match w {
                2 => exe.schedule.clone(),
                _ => schedule(&at, graph, w, &env().synthesis),
            };
            let report = replay(graph, &schedule_w, duration_s(), None, &static_config());
            // Prefix oracle on ALL buffers: the static replay covers at
            // least the self-timed sample budget and the quasi-static
            // cluster resolution matches the dynamic tie-break exactly.
            let at = format!("{at} at {w} worker(s)");
            assert_prefix(
                &format!("{at}: self-timed vs static replay"),
                &reference,
                &report,
            );
            match &baseline {
                None => baseline = Some(report),
                Some(base) => assert_identical(&format!("{at} vs {}", base.threads), base, &report),
            }
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must be schedulable and checked \
         ({checked} checked, {rejected} rejected)"
    );
}

#[test]
fn synthesized_schedules_satisfy_the_admission_property() {
    // Independent replay of the admission proof: one period fires every
    // unit exactly its repetition count, stays within [0, capacity] on
    // every ring-backed buffer, and is level-preserving. This re-derives
    // what `synthesize` validated, from the schedule's own data, so a bug
    // in the shared validation logic cannot hide itself.
    let mut checked = 0u32;
    for (at, scenario) in programs(program_seeds(), 32) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        let graph = &exe.graph;
        for workers in [1, 3] {
            let s = match workers {
                1 => exe.schedule.clone(),
                _ => schedule(&at, graph, workers, &env().synthesis),
            };
            let at = format!("{at} at {workers} worker(s)");
            checked += 1;
            // Re-validate through the public checker…
            s.validate(graph).unwrap_or_else(|e| panic!("{at}: {e}"));
            // …and independently: exact integer replay of the period.
            type Ports = Vec<(usize, usize)>;
            let ports = |unit: u32| -> (Ports, Ports) {
                let index = |list: &[(oil::compiler::RtBufferId, usize)]| -> Ports {
                    list.iter().map(|&(b, c)| (b.index(), c)).collect()
                };
                match &s.units[unit as usize].kind {
                    UnitKind::Node(id)
                    | UnitKind::Cluster {
                        representative: id, ..
                    } => (
                        index(&graph.nodes[*id].reads),
                        index(&graph.nodes[*id].writes),
                    ),
                    kind @ UnitKind::Source { .. } => {
                        let writes = kind.source_outputs(graph).iter();
                        (Vec::new(), writes.map(|&b| (b.index(), 1)).collect())
                    }
                    UnitKind::Sink(id) => (vec![(graph.sinks[*id].input.index(), 1)], Vec::new()),
                    UnitKind::Modal { members } => {
                        // Union-advance: every member's aggregated reads
                        // are consumed each firing; all members share one
                        // write list (members[0] is canonical).
                        let access = |m: oil::compiler::RtNodeId| {
                            oil::compiler::schedule::modal_member_access(graph, m)
                        };
                        (
                            members.iter().flat_map(|&m| index(&access(m).0)).collect(),
                            index(&access(members[0]).1),
                        )
                    }
                }
            };
            let consumed = |b: usize| {
                let bid = oil::compiler::rtgraph::RtBufferId::new(b);
                s.consumer_unit[bid].is_some()
            };
            let initial: Vec<i64> = graph
                .buffers
                .iter()
                .map(|b| b.initial_tokens as i64)
                .collect();
            let mut level = initial.clone();
            let mut fired = vec![0u64; s.units.len()];
            for step in &s.period {
                let (reads, writes) = ports(step.unit);
                for _ in 0..step.times {
                    fired[step.unit as usize] += 1;
                    for &(b, c) in &reads {
                        level[b] -= c as i64;
                        assert!(level[b] >= 0, "{at}: buffer underflow in period replay");
                    }
                    for &(b, c) in &writes {
                        if !consumed(b) {
                            continue;
                        }
                        level[b] += c as i64;
                        let bid = oil::compiler::rtgraph::RtBufferId::new(b);
                        let cap = graph.buffers[bid]
                            .capacity
                            .max(graph.buffers[bid].initial_tokens)
                            .max(1) as i64;
                        assert!(
                            level[b] <= cap,
                            "{at}: CTA capacity exceeded in period replay \
                             ({} > {cap})",
                            level[b]
                        );
                    }
                }
            }
            for (u, unit) in s.units.iter().enumerate() {
                assert_eq!(
                    fired[u], unit.repetitions,
                    "{at}: unit {u} fired a non-repetition count"
                );
            }
            for (b, buf) in graph.buffers.iter().enumerate() {
                if consumed(b) {
                    assert_eq!(
                        level[b], initial[b],
                        "{at}: period is not level-preserving on `{}`",
                        buf.name
                    );
                }
            }
            // The cooperative property, again without the ledger: run the
            // workers' fused lists side by side. A worker fires its next
            // item (a step of a self-feeding unit: its next firing) when
            // the reads are all there and the writes all fit `level_max`;
            // everybody must get to the end of their list, and the buffers
            // back to where they started.
            if s.modes.as_ref().is_some_and(|m| m.dependent.is_some()) {
                // One fused list per mode, each under its own access lists:
                // the tamper suite and `modeswitch_differential` hold those.
                continue;
            }
            let bound = |b: usize| s.level_max[oil::compiler::rtgraph::RtBufferId::new(b)] as i64;
            let mut level = initial.clone();
            let mut cursor = vec![(0usize, 0u32); s.fused_workers.len()];
            loop {
                let mut progressed = false;
                for (w, items) in s.fused_workers.iter().enumerate() {
                    while let Some(item) = items.get(cursor[w].0) {
                        let (head, tail) = match item {
                            WorkItem::Step(step) => (*step, *step),
                            WorkItem::Fused(run) => {
                                (run.stages[0], run.stages[run.stages.len() - 1])
                            }
                        };
                        let (reads, _) = ports(head.unit);
                        let (_, writes) = ports(tail.unit);
                        let feeds_itself = head.unit == tail.unit
                            && reads.iter().any(|r| writes.iter().any(|w| w.0 == r.0));
                        let (times_in, times_out, rounds) = if feeds_itself {
                            (1, 1, head.times)
                        } else {
                            (head.times as i64, tail.times as i64, 1)
                        };
                        let taken = |b: usize| -> i64 {
                            let port = reads.iter().filter(|r| r.0 == b);
                            port.map(|r| r.1 as i64 * times_in).sum()
                        };
                        let ready = reads.iter().all(|&(b, _)| level[b] >= taken(b))
                            && writes.iter().all(|&(b, c)| {
                                !consumed(b)
                                    || level[b] - taken(b) + c as i64 * times_out <= bound(b)
                            });
                        if !ready {
                            break;
                        }
                        for &(b, c) in &reads {
                            level[b] -= c as i64 * times_in;
                        }
                        for &(b, c) in writes.iter().filter(|w| consumed(w.0)) {
                            level[b] += c as i64 * times_out;
                        }
                        progressed = true;
                        cursor[w].1 += 1;
                        if cursor[w].1 == rounds {
                            cursor[w] = (cursor[w].0 + 1, 0);
                        }
                    }
                }
                let done =
                    (cursor.iter().zip(&s.fused_workers)).all(|(c, items)| c.0 == items.len());
                if done {
                    break;
                }
                assert!(
                    progressed,
                    "{at}: the fused worker lists stall at items {cursor:?}"
                );
            }
            for (b, buf) in graph.buffers.iter().enumerate() {
                if consumed(b) {
                    assert_eq!(
                        level[b], initial[b],
                        "{at}: the fused lists are not level-preserving on `{}`",
                        buf.name
                    );
                }
            }
        }
    }
    assert!(
        checked >= 100,
        "too few schedules property-checked ({checked})"
    );
}

// ---------------------------------------------------------------------------
// Fixed-seed golden schedule corpus.
// ---------------------------------------------------------------------------

const CORPUS_SEEDS: u64 = 48;
const CORPUS_PATH: &str = "tests/data/schedule_corpus.txt";

/// Modal (`M<seed>`) and mode-dependent (`D<seed>`) rows of the corpus.
const MODAL_CORPUS_SEEDS: u64 = 16;
const DEPENDENT_CORPUS_SEEDS: u64 = 16;

/// The generator call that reproduces a corpus tag.
fn repro(tag: &str) -> String {
    match (tag.strip_prefix('M'), tag.strip_prefix('D')) {
        (Some(seed), _) => format!("ModalScenario::generate({seed})"),
        (_, Some(seed)) => format!("ModeDependentScenario::generate({seed})"),
        _ => format!("ProgramScenario::generate({tag})"),
    }
}

/// The pinned digests of a corpus tag. Fusion is forced ON so they cover
/// the fused worker lists and stay stable under the CI leg that sets
/// `OIL_RT_FUSION=0`.
///
/// * `<seed>`: the program's schedule at 1 and 2 workers, or `rejected`
///   when the compiler (legitimately) rejects it;
/// * `M<seed>`: the modal graph's schedule at 1 and 2 workers, then one
///   `m…` digest per arm at 2 workers;
/// * `D<seed>`: the mode-dependent graph's, likewise, then one `t…`
///   transition digest per ordered mode pair (row-major,
///   `from * modes + to`, diagonal skipped).
fn corpus_digests(tag: &str) -> Vec<String> {
    let at = repro(tag);
    let seed = |digits: &str| digits.parse::<u64>().expect("corpus seed");
    let graph = match (tag.strip_prefix('M'), tag.strip_prefix('D')) {
        (Some(s), _) => ModalScenario::generate(seed(s)).graph,
        (_, Some(s)) => ModeDependentScenario::generate(seed(s)).graph,
        _ => match build_program(&at, &ProgramScenario::generate(seed(tag)), 1) {
            Some(exe) => exe.graph,
            None => return vec!["rejected".into()],
        },
    };
    let hex = |digest: u64| format!("{digest:016x}");
    let s2 = schedule(&at, &graph, 2, &fusion(true));
    let mut out = vec![
        hex(schedule(&at, &graph, 1, &fusion(true)).digest()),
        hex(s2.digest()),
    ];
    if !tag.starts_with(['M', 'D']) {
        return out;
    }
    let modes = s2.modes.as_ref();
    let modes = modes.unwrap_or_else(|| panic!("{at}: synthesis produced no per-mode schedules"));
    let n = modes.arms.len() as u32;
    out.extend((0..n).map(|mode| format!("m{}", hex(s2.digest_mode(mode)))));
    if tag.starts_with('D') {
        assert!(
            modes.dependent.is_some(),
            "{at}: expected mode-dependent synthesis"
        );
        for (from, to) in (0..n).flat_map(|from| (0..n).map(move |to| (from, to))) {
            if from != to {
                out.push(format!("t{}", hex(s2.digest_transition(from, to))));
            }
        }
    }
    out
}

#[test]
fn corpus_digests_pin_the_synthesised_schedules() {
    let tags = (0..CORPUS_SEEDS).map(|seed| seed.to_string());
    let tags = tags
        .chain((0..MODAL_CORPUS_SEEDS).map(|seed| format!("M{seed}")))
        .chain((0..DEPENDENT_CORPUS_SEEDS).map(|seed| format!("D{seed}")));
    let pinned = support::golden(
        CORPUS_PATH,
        "OIL_UPDATE_SCHEDULE_CORPUS",
        "# Fixed-seed schedule-digest corpus: `<seed> <digest@1w> <digest@2w> | rejected` per line.\n\
         # Modal lines: `M<seed> <digest@1w> <digest@2w> m<arm0@2w> m<arm1@2w> …` (per-mode digests).\n\
         # Mode-dependent lines: `D<seed> <digest@1w> <digest@2w> m<mode…@2w> … t<from,to…@2w> …`\n\
         # (per-mode digests, then per-ordered-pair transition digests, row-major, diagonal skipped).\n\
         # Generated by OIL_UPDATE_SCHEDULE_CORPUS=1 cargo test --test staticsched_differential corpus\n",
        tags,
        corpus_digests,
        repro,
    );
    assert!(
        pinned >= 32 + (MODAL_CORPUS_SEEDS + DEPENDENT_CORPUS_SEEDS) as u32,
        "schedule corpus too small: {pinned} pinned seeds"
    );
}

#[test]
fn golden_corpora_outside_the_mode_dependent_rows_are_as_recorded() {
    // Per-mode fusion (PR 22) regenerated the `D` rows of the schedule
    // corpus and nothing else: every other line of it — program and
    // union-advance modal schedules at 1 and 2 workers — and the whole
    // runtime value corpus are pinned here by fingerprint, so a
    // regeneration that moves them has to say so in this test too.
    let read = |path: &str| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    };
    let fingerprint = |text: &str, keep: &dyn Fn(&str) -> bool| {
        let mut h = oil::dataflow::fnv::Fnv1a::new();
        for line in text.lines().filter(|l| keep(l)) {
            h.write_str(line);
        }
        h.finish()
    };
    let schedules = fingerprint(&read(CORPUS_PATH), &|l| !l.starts_with('D'));
    let values = fingerprint(&read("tests/data/runtime_corpus.txt"), &|_| true);
    assert_eq!(
        (schedules, values),
        (SCHEDULE_ROWS_FINGERPRINT, RUNTIME_CORPUS_FINGERPRINT),
        "got ({schedules:#018x}, {values:#018x})"
    );
}

const SCHEDULE_ROWS_FINGERPRINT: u64 = 0xa971_ca03_677c_21cb;
const RUNTIME_CORPUS_FINGERPRINT: u64 = 0x085d_dc8f_95c6_e4a4;

// ---------------------------------------------------------------------------
// Tamper suite: the admission proof rejects every minimal corruption.
// ---------------------------------------------------------------------------

/// Both halves of the admission proof, as `synthesize` runs them.
fn admission(graph: &RtGraph, s: &StaticSchedule) -> Result<(), ScheduleError> {
    s.validate(graph)?;
    s.validate_transitions(graph)
}

/// An admitted schedule of one shape, under corruption.
struct Subject<'a> {
    shape: &'a str,
    graph: &'a RtGraph,
    s: StaticSchedule,
}

impl Subject<'_> {
    /// The schedule with `corrupt` applied must be rejected as
    /// `ScheduleError::Invalid` by a message naming `needle`.
    fn rejects(&self, what: &str, needle: &str, corrupt: impl FnOnce(&mut StaticSchedule)) {
        let (shape, mut tampered) = (self.shape, self.s.clone());
        corrupt(&mut tampered);
        match admission(self.graph, &tampered) {
            Err(ScheduleError::Invalid(message)) => assert!(
                message.contains(needle),
                "{shape}: {what}: rejected, but `{message}` does not name `{needle}`"
            ),
            other => panic!("{shape}: {what}: expected an Invalid rejection, got {other:?}"),
        }
    }

    fn name(&self, b: RtBufferId) -> &str {
        &self.graph.buffers[b].name
    }
}

/// The dependent tables of a mode-dependent schedule, mutably.
fn dependent_mut(s: &mut StaticSchedule) -> &mut ModeDependent {
    let modes = s.modes.as_mut().expect("modal");
    modes.dependent.as_mut().expect("mode-dependent")
}

/// The period a shape is corrupted through: a mode-dependent schedule's own
/// tables are its modes' (the top level mirrors mode 0), so there the
/// corruption goes into mode 1.
fn period_of(s: &mut StaticSchedule, dependent: bool) -> &mut Vec<Step> {
    if dependent {
        &mut dependent_mut(s).periods[1]
    } else {
        &mut s.period
    }
}

/// The position of the first fused run in `lists`, as `(worker, item)`.
fn first_run(lists: &[Vec<WorkItem>]) -> Option<(usize, usize)> {
    let run = |i: &WorkItem| matches!(i, WorkItem::Fused(_));
    (lists.iter().enumerate()).find_map(|(w, items)| Some((w, items.iter().position(run)?)))
}

/// Point the first link of the fused run at `lists[w][at]` to `link`.
fn relink(lists: &mut [Vec<WorkItem>], (w, at): (usize, usize), link: RtBufferId) {
    if let WorkItem::Fused(run) = &mut lists[w][at] {
        run.links[0] = link;
    }
}

#[test]
fn the_admission_proof_rejects_every_minimal_corruption() {
    // PAL's chains are components of their own, each one run through
    // scratch: nothing of it crosses at two workers, and at one no ring is
    // left to size. The fan-out program is one component: at one worker
    // its runs hand `ma` and `mb` over through rings, and a second worker
    // cuts the chain `A -> C`.
    let pal = support::pal(1, &fusion(true)).graph;
    let fan_out = fan_out_graph();
    let modal = ModalScenario::generate(0).graph;
    let dependent = ModeDependentScenario::generate(0).graph;
    // One admitted schedule of each shape.
    let subjects = [
        ("PAL fused 1w", &pal, 1),
        ("uniform fused 1w", &fan_out, 1),
        ("uniform split 2w", &fan_out, 2),
        ("union-advance modal", &modal, 2),
        ("mode-dependent", &dependent, 2),
    ]
    .map(|(shape, graph, workers)| Subject {
        shape,
        graph,
        s: schedule(shape, graph, workers, &fusion(true)),
    });
    for subject in &subjects[..2] {
        assert!(subject.s.fusion.runs_fused > 0 && subject.s.cross_buffers.is_empty());
    }
    assert!(!subjects[2].s.cross_buffers.is_empty());
    let dependent_tables = |s: &StaticSchedule| s.modes.as_ref().map(|m| m.dependent.is_some());
    assert_eq!(dependent_tables(&subjects[3].s), Some(false));
    assert_eq!(dependent_tables(&subjects[4].s), Some(true));

    for subject in &subjects {
        let (shape, graph, s) = (subject.shape, subject.graph, &subject.s);
        admission(graph, s).unwrap_or_else(|e| panic!("{shape}: untouched schedule: {e}"));
        let is_dependent = shape == "mode-dependent";
        let prefix = if is_dependent { "mode 1: " } else { "" };
        let period = period_of(&mut s.clone(), is_dependent).clone();
        let (first, last) = (period[0], period[period.len() - 1]);

        // Swap two period steps: the period's final firing moved to the
        // front finds its input empty.
        let needle = format!("{prefix}step 0: unit {} underflows buffer `", last.unit);
        subject.rejects("swapped period steps", &needle, |t| {
            let p = period_of(t, is_dependent);
            let end = p.len() - 1;
            p.swap(0, end);
        });
        // Bump one `times`: the unit over-fires (or overruns a buffer first).
        let needle = format!("unit {} ", first.unit);
        subject.rejects("bumped times", &needle, |t| {
            period_of(t, is_dependent)[0].times += 1
        });
        // Move a unit to another worker without re-projecting (where there
        // is another worker).
        if s.worker_count() > 1 {
            let moved = first.unit as usize;
            let needle = "list is not the projection of the period";
            subject.rejects("moved unit", needle, |t| {
                t.units[moved].worker = (t.units[moved].worker + 1) % 2
            });
        }
    }

    // Fused-list corruptions, on the single-worker fan-out schedule.
    let subject = &subjects[1];
    let (shape, graph, s) = (subject.shape, subject.graph, &subject.s);
    let run = first_run(&s.fused_workers).expect("fan-out@1w fuses");
    let WorkItem::Fused(fused) = &s.fused_workers[run.0][run.1] else {
        unreachable!()
    };
    let other = RtBufferId::new((fused.links[0].index() + 1) % graph.buffers.len());
    let needle = format!("fused link `{}`", subject.name(other));
    subject.rejects("retargeted fused link", &needle, |t| {
        relink(&mut t.fused_workers, run, other)
    });
    // Lowering `level_max` is rejected wherever the fused replay writes
    // the buffer through a ring (fully-elided links never do), and every
    // rejection names the buffer.
    let mut lowered = 0;
    for b in graph.buffers.indices() {
        let mut tampered = s.clone();
        tampered.level_max[b] = 0;
        match admission(graph, &tampered) {
            Ok(()) => {}
            Err(ScheduleError::Invalid(message)) => {
                let needle = format!("overflows buffer `{}`", subject.name(b));
                assert!(
                    message.contains(&needle),
                    "{shape}: `{message}` vs `{needle}`"
                );
                lowered += 1;
            }
            Err(e) => panic!("{shape}: lowered level bound: {e}"),
        }
    }
    assert!(lowered > 0, "{shape}: no level bound is load-bearing");

    // Corruptions of the cooperative proof, on the split schedule: what
    // one worker does to a crossing ring is another worker's business.
    let subject = &subjects[2];
    let (graph, s) = (subject.graph, &subject.s);
    let crossing = s.cross_buffers[0];
    // One slot short on a crossing ring: the producer's whole-period block
    // no longer fits, and nobody else can make it fit.
    assert!(s.level_max[crossing] > 1);
    let needle = format!("overflows buffer `{}`", subject.name(crossing));
    subject.rejects("crossing level bound lowered by one", &needle, |t| {
        t.level_max[crossing] -= 1
    });
    // Two items of a worker's list swapped: the run now ahead of the item
    // that feeds it waits for tokens that only come after it.
    let (w, at, starved) = (s.fused_workers.iter().enumerate())
        .find_map(|(w, items)| {
            let fed = |at: usize| match (&items[at], &items[at + 1]) {
                (feeder, WorkItem::Fused(run)) => {
                    let tail = match feeder {
                        WorkItem::Step(step) => step.unit,
                        WorkItem::Fused(feeder) => feeder.stages[feeder.stages.len() - 1].unit,
                    };
                    (graph.buffers.indices()).find(|&b| {
                        s.producer_unit[b] == Some(tail)
                            && s.consumer_unit[b] == Some(run.stages[0].unit)
                    })
                }
                _ => None,
            };
            (0..items.len().saturating_sub(1)).find_map(|at| Some((w, at, fed(at)?)))
        })
        .expect("fan-out@2w: an item feeding the run after it");
    let needle = format!("underflows buffer `{}`", subject.name(starved));
    subject.rejects("reordered worker items", &needle, |t| {
        t.fused_workers[w].swap(at, at + 1)
    });
    // A run whose link is the crossing buffer: scratch cannot reach another
    // worker, and a link has both its ends in the run.
    let run = first_run(&s.fused_workers).expect("fan-out@2w fuses up to the cut");
    let needle = format!(
        "fused link `{}` is not the single write",
        subject.name(crossing)
    );
    subject.rejects("crossing fused link", &needle, |t| {
        relink(&mut t.fused_workers, run, crossing)
    });

    // Per-mode table corruptions, on the mode-dependent schedule.
    let subject = &subjects[4];
    let (shape, graph, s) = (subject.shape, subject.graph, &subject.s);
    let arms = s.modes.as_ref().expect("modal").arms.len();
    let dropped = *dependent_mut(&mut s.clone()).periods[1]
        .last()
        .expect("non-empty");
    let needle = format!("mode 1: unit {} fired", dropped.unit);
    subject.rejects("truncated mode period", &needle, |t| {
        dependent_mut(t).periods[1].pop();
    });
    // The clamp bug: a surplus mode row used to be checked against the last
    // arm's access lists and pass.
    let needle = format!("rows (reps/periods/steps/fused/batch) for {arms} arms");
    subject.rejects("surplus mode row", &needle, |t| {
        let dep = dependent_mut(t);
        dep.reps.push(dep.reps[arms - 1].clone());
        dep.periods.push(dep.periods[arms - 1].clone());
        dep.steps.push(dep.steps[arms - 1].clone());
    });
    // A row that never fires the modal unit cannot leave its mode.
    let modal = s.modes.as_ref().expect("modal").unit as usize;
    let needle = "mode 1: the modal unit is gated in its own mode";
    subject.rejects("modal unit gated in its own mode", needle, |t| {
        dependent_mut(t).reps[1][modal] = 0
    });
    let needle = "recorded worst-case seam latency";
    subject.rejects("changed seam latency", needle, |t| {
        dependent_mut(t).seam_latency_max += Rational::new(1, 1000);
    });
    // Per-mode fused-list corruptions. Row 0 is also the top level's, so a
    // corruption of it goes into both.
    let dep = s.modes.as_ref().and_then(|m| m.dependent.as_ref());
    let dep = dep.expect("mode-dependent");
    assert!(s.fusion.runs_fused > 0 && dep.batch.iter().any(|&b| b > 1));
    let crossing = s.cross_buffers[0];
    // A run whose link is a crossing buffer, in one row only.
    let (mode, run) = (dep.fused.iter().enumerate())
        .find_map(|(mode, lists)| Some((mode, first_run(lists)?)))
        .expect("a mode row fuses");
    let needle = format!(
        "mode {mode}: fused worker {}: fused link `{}` is not the single write",
        run.0,
        subject.name(crossing)
    );
    subject.rejects("a row's fused link leaves its worker", &needle, |t| {
        relink(&mut dependent_mut(t).fused[mode], run, crossing);
        if mode == 0 {
            relink(&mut t.fused_workers, run, crossing);
        }
    });
    // Row 1 executing row 0's lists: compiled against another mode's token
    // flow, they fire the wrong units the wrong number of times.
    let needle = "mode 1: fused worker 0 changes the firing count of unit";
    subject.rejects(
        "a row's fused lists swapped for another row's",
        needle,
        |t| {
            let dep = dependent_mut(t);
            dep.fused[1] = dep.fused[0].clone();
        },
    );
    // A pass of more periods than the rings were sized for.
    let batched = (0..arms)
        .find(|&m| dep.batch[m] > 1)
        .expect("a row batches");
    let needle = format!(
        "mode {batched}: {} periods per pass: ",
        dep.batch[batched] * 2
    );
    subject.rejects("doubled batch", &needle, |t| {
        dependent_mut(t).batch[batched] *= 2
    });
    // A ring below what the fused lists need: every row that writes it
    // rejects it, and so does the seam replay on its own.
    let lowered = |b: RtBufferId| {
        let mut tampered = s.clone();
        tampered.level_max[b] = 0;
        tampered
    };
    let ring = (graph.buffers.indices())
        .find(|&b| lowered(b).validate(graph).is_err())
        .expect("a level bound is load-bearing");
    let needle = format!("overflows buffer `{}`", subject.name(ring));
    subject.rejects("lowered level bound", &needle, |t| t.level_max[ring] = 0);
    match lowered(ring).validate_transitions(graph) {
        Err(ScheduleError::Invalid(message)) => assert!(
            message.starts_with("transition 0->") && message.contains(&needle),
            "{shape}: fused seam below its level bound: `{message}`"
        ),
        other => panic!("{shape}: fused seam below its level bound: {other:?}"),
    }

    // Dropping the per-mode tables altogether claims one period serves
    // every mode; it does not.
    let mut stripped = s.clone();
    stripped.modes.as_mut().expect("modal").dependent = None;
    assert!(
        matches!(admission(graph, &stripped), Err(ScheduleError::Invalid(_))),
        "{shape}: a stripped mode-dependent schedule must not pass as union-advance"
    );
}

// ---------------------------------------------------------------------------
// Fusion differential: the fused execution form is an optimisation, never a
// semantic change.
// ---------------------------------------------------------------------------

#[test]
fn fusion_on_and_off_replay_bit_identical_streams() {
    // A shorter slice of the corpus: two static replays per worker count
    // per scenario.
    let mut fused_runs_total = 0u64;
    for (at, scenario) in programs(64, 16) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        let graph = &exe.graph;
        for w in WORKERS {
            let at = format!("{at} at {w} worker(s)");
            let fused = schedule(&at, graph, w, &fusion(true));
            let plain = schedule(&at, graph, w, &fusion(false));
            // Fusion rewrites the execution form only: the admitted period
            // and the per-worker projections are untouched.
            assert_eq!(fused.period, plain.period, "{at}");
            assert_eq!(fused.workers, plain.workers, "{at}");
            assert_eq!(plain.fusion.runs_fused, 0, "{at}");
            fused_runs_total += fused.fusion.runs_fused as u64;

            let a = replay(graph, &fused, 0.1, None, &static_config());
            let b = replay(graph, &plain, 0.1, None, &static_config());
            assert_identical(&format!("{at}: fusion on vs off"), &a, &b);
            assert_eq!(
                a.tokens, b.tokens,
                "{at}: elided commits must still be counted"
            );
        }
    }
    assert!(
        fused_runs_total > 0,
        "the fusion pass never fired on the whole corpus — the differential \
         would be vacuous"
    );
}

// ---------------------------------------------------------------------------
// PAL case study.
// ---------------------------------------------------------------------------

#[test]
fn pal_fusion_collapses_the_pipelines_without_changing_a_bit() {
    let graph = support::pal(1, &fusion(true)).graph;
    let duration = picos(1e-3);
    for workers in WORKERS {
        let fused = schedule("PAL", &graph, workers, &fusion(true));
        let plain = schedule("PAL", &graph, workers, &fusion(false));
        assert_eq!(plain.fusion.runs_fused, 0);
        if workers == 1 {
            // One worker owns the whole decoder: both the audio and the
            // video pipeline must collapse into fused runs, and at least
            // one interior buffer must lose its ring traffic entirely.
            let stats = &fused.fusion;
            let collapsed = stats.runs_fused >= 2 && stats.fused_chain_len_max >= 3;
            assert!(
                collapsed && stats.rings_elided >= 1,
                "PAL@1w fusion stats: {stats:?}"
            );
        }
        if workers <= 2 {
            // The RF source is one unit per reader, so the audio and the
            // video chain are components of their own, and each runs as
            // one batched whole-component run headed by its source
            // replica: both on one worker, one on each of two, with no
            // buffer crossing.
            assert!(fused.cross_buffers.is_empty(), "{:?}", fused.cross_buffers);
            assert_eq!(fused.components, 2);
            let lists = &fused.fused_workers;
            let placed = lists.iter().all(|items| !items.is_empty());
            assert!(placed && lists.iter().flatten().count() == 2, "{lists:?}");
            for item in lists.iter().flatten() {
                let WorkItem::Fused(run) = item else {
                    panic!("PAL@{workers}w: a plain step {item:?}");
                };
                let head = &fused.units[run.stages[0].unit as usize].kind;
                assert!(run.batch, "PAL@{workers}w: {run:?} is not batched");
                let replica = matches!(
                    head,
                    UnitKind::Source {
                        replica: Some(_),
                        ..
                    }
                );
                assert!(replica, "PAL@{workers}w: {run:?} is headed by {head:?}");
            }
        }
        let config = StaticConfig {
            warmup_samples: 64,
            ..StaticConfig::default()
        };
        let run = |s| execute_staticsched(&graph, s, &KernelLibrary::pal(), duration, &config);
        let (a, b) = (run(&fused), run(&plain));
        let surfaced = a.fusion == fused.fusion;
        assert!(surfaced, "the report surfaces the schedule's fusion stats");
        let at = format!("PAL fusion on vs off at {workers} worker(s)");
        assert_identical(&at, &a, &b);
        assert_eq!(a.tokens, b.tokens, "{at}");
    }
}

/// The replica buffers of every source split into one unit per reader, in
/// unit order (`None` for a source that stayed one unit).
fn replica_units(s: &StaticSchedule) -> Vec<Option<oil::compiler::RtBufferId>> {
    let replica = |kind: &UnitKind| match kind {
        UnitKind::Source { replica, .. } => Some(*replica),
        _ => None,
    };
    s.units.iter().filter_map(|u| replica(&u.kind)).collect()
}

#[test]
fn source_replicas_replay_the_reference_prefix() {
    // A source with several readers is one unit per reader, each
    // regenerating the source's pure sequence for its own buffer. PAL's
    // readers become components of their own; the fan-out program's meet
    // again, so its replicas share one component. Either way every stream
    // must be the reference interpreter's, at one and two workers, fusion
    // on and off.
    let pal = support::pal(1, &fusion(true)).graph;
    let fan_out = fan_out_graph();
    let (pal_lib, synthetic) = (KernelLibrary::pal(), KernelLibrary::new());
    let subjects = [
        ("PAL", &pal, &pal_lib, Rational::new(1, 1000), 2),
        ("fan-out", &fan_out, &synthetic, Rational::new(1, 10), 1),
    ];
    for (label, graph, lib, horizon, components) in &subjects {
        let duration = picos(horizon.to_f64());
        let reference = execute(graph, lib, duration, &RtConfig::default());
        let outputs: Vec<_> = (graph.sources.iter())
            .flat_map(|source| source.outputs.iter().map(move |&b| (source, b)))
            .collect();
        assert!(outputs.len() > graph.sources.len(), "{label}: no fan-out");
        for (workers, fuse) in [(1, true), (1, false), (2, true), (2, false)] {
            let at = format!("{label} at {workers} worker(s), fusion={fuse}");
            let s = schedule(&at, graph, workers, &fusion(fuse));
            s.validate(graph).unwrap_or_else(|e| panic!("{at}: {e}"));
            assert_eq!(s.components, *components, "{at}");
            let replicas: Vec<_> = outputs.iter().map(|&(_, b)| Some(b)).collect();
            assert_eq!(replica_units(&s), replicas, "{at}");

            let config = StaticConfig {
                warmup_samples: 4,
                trace: true,
                ..StaticConfig::default()
            };
            let report = execute_staticsched(graph, &s, lib, duration, &config);
            if let Some(d) = reference.values.prefix_divergence(&report.values) {
                panic!("{at}: a stream diverges from the reference interpreter: {d}");
            }
            for (want, got) in reference.sinks.iter().zip(&report.sinks) {
                let prefix = !want.values.is_empty() && got.values.starts_with(&want.values);
                assert!(prefix, "{at}: sink `{}` is not the reference's", want.name);
            }
            // Every replica covers the budget, so the report's maximum
            // over them does too.
            for (source, (name, generated)) in graph.sources.iter().zip(&report.sources) {
                let budget = (*horizon / source.period).floor() as u64;
                assert!(
                    *generated >= budget,
                    "{at}: `{name}` {generated} < {budget}"
                );
            }
            let trace = report.trace_report.as_ref().expect("traced");
            let labels: Vec<&String> = trace.tracks.iter().flat_map(|t| &t.labels).collect();
            for (source, b) in &outputs {
                let label = format!("{}[{}]", source.name, graph.buffers[*b].name);
                assert!(labels.contains(&&label), "{at}: no `{label}` in {labels:?}");
            }
        }
    }
}

#[test]
fn pal_decoder_static_replay_conforms_to_the_predicted_rates() {
    // As in the self-timed PAL test: the static replays get a longer
    // horizon so the 32 kHz speakers sink clears its 256-sample warmup
    // and the conformance verdict can be a real Pass, never vacuously
    // inconclusive. The self-timed reference stays short — the prefix
    // oracle only needs a prefix.
    let pal = support::pal(1, &env().synthesis);
    let config = SelfTimedConfig {
        threads: 1,
        warmup_samples: 256,
        ..SelfTimedConfig::default()
    };
    let pal_lib = KernelLibrary::pal();
    let reference = execute_selftimed(&pal.graph, &pal.plan, &pal_lib, picos(2e-3), &config);
    assert!(!reference.deadlocked, "self-timed PAL reference");

    for workers in WORKERS {
        let pal = support::pal(workers, &env().synthesis);
        let (graph, schedule) = (&pal.graph, &pal.schedule);
        assert!(
            schedule.period_firings() > 0 && schedule.validate(graph).is_ok(),
            "admitted PAL schedule re-validates"
        );
        if workers == 1 {
            assert!(
                schedule.cross_buffers.is_empty(),
                "a single worker needs no synchronisation"
            );
        }
        let run = || {
            let config = StaticConfig {
                warmup_samples: 256,
                ..StaticConfig::default()
            };
            execute_staticsched(graph, schedule, &pal_lib, picos(12e-3), &config)
        };
        let report = run();
        if let Some(d) = reference.values.prefix_divergence(&report.values) {
            panic!("PAL static replay diverges at {workers} worker(s): {d}");
        }
        let speakers = report.sink_values("speakers").expect("speaker stream");
        assert!(speakers.len() > 32, "collected {} samples", speakers.len());
        assert!(speakers.iter().any(|v| v.abs() > 1e-6));
        // The self-timed PAL test's wall-clock conformance discipline:
        // MS/s-rate sinks against real kernel arithmetic, at the PAL floor.
        let threshold = env().pal_threshold;
        support::assert_conforms(
            &format!("PAL at {workers} worker(s)"),
            threshold,
            report.throughput,
            || run().throughput,
        );
    }
}
