//! Differential verification of CTA against the exact baselines on randomly
//! generated workloads.
//!
//! The paper's claim — polynomial-time CTA analyses agree with the
//! exact-but-exponential dataflow analyses — is checked here on hundreds of
//! seeded random instances per run (`oil-gen` generates them; see its crate
//! docs for the class/oracle pairing):
//!
//! * **rings** — CTA's exact maximal rate `==` the self-timed state-space
//!   period `==` the exact HSDF maximum cycle ratio, bit for bit, and all
//!   three deadlock verdicts coincide;
//! * **multi-rate topologies** — CTA's consistency verdict `==` the balance
//!   equations' solvability, and the accepted rate vectors are exactly
//!   proportional to the repetition vector;
//! * **pairs** — the two exponential baselines (state space, exact HSDF
//!   ratio) agree with each other exactly, including deadlock verdicts;
//! * **programs** — every generated OIL program the compiler accepts
//!   simulates in `oil-sim` with the CTA-sized buffers without a single
//!   deadline miss, buffer overflow or latency violation; deliberately
//!   ill-formed programs are rejected with diagnostics, never panics.
//!
//! Exact baselines that exceed their size budget on an adversarial instance
//! are *skipped and counted*, not failed — the budget guards are themselves
//! under test (they must return `SdfError::BudgetExceeded`, not panic).
//!
//! Every failure message embeds the reproducing seed: rerun with
//! `<Scenario>::generate(seed)` (all generation is a pure function of the
//! seed — same instance on every machine).

mod support;

use oil::cta::consistency::ConsistencyError;
use oil::dataflow::hsdf::{ExactCycleRatio, HsdfGraph};
use oil::dataflow::index::{Idx, PortId};
use oil::dataflow::sdf::SdfError;
use oil::dataflow::statespace::analyze_self_timed_budgeted;
use oil::dataflow::Rational;
use oil::gen::{IllFormedProgram, MultiRateScenario, PairScenario, ProgramScenario, RingScenario};

/// Instance counts per class; the sum (> 300) is the per-run sweep size.
const RING_SEEDS: u64 = 120;
const MULTIRATE_SEEDS: u64 = 100;
const PAIR_SEEDS: u64 = 60;
const PROGRAM_SEEDS: u64 = 24;
const ILLFORMED_SEEDS: u64 = 24;

/// Budgets for the exponential baselines: far beyond anything the generator
/// ranges produce, so a budget hit on these classes would itself be a bug —
/// except where a test deliberately probes adversarial instances.
const MAX_ITERATIONS: u64 = 200_000;
const MAX_STATES: usize = 1_000_000;

#[test]
fn rings_cta_maximal_rates_match_state_space_and_hsdf_exactly() {
    let (mut live, mut dead) = (0u32, 0u32);
    for seed in 0..RING_SEEDS {
        let ring = RingScenario::generate(seed);
        let sdf = ring.sdf();
        let cta = ring.cta();

        match analyze_self_timed_budgeted(&sdf, MAX_ITERATIONS, MAX_STATES) {
            Ok(exact) => {
                live += 1;
                let period = exact.period_exact().unwrap_or_else(|| {
                    panic!("seed {seed}: converged analysis must expose an exact period")
                });

                // 1. The state-space period equals the closed form.
                assert_eq!(
                    Some(period),
                    ring.predicted_period(),
                    "seed {seed}: state-space period {period} differs from closed form {:?}",
                    ring.predicted_period()
                );

                // 2. CTA's exact maximal rate is the reciprocal, bit for bit,
                //    and uniform across the ring (all γ = 1).
                let rates = cta.maximal_rates().unwrap_or_else(|e| {
                    panic!("seed {seed}: exact analysis converged but CTA rejected: {e}")
                });
                for i in 0..ring.len() {
                    assert_eq!(
                        rates[ring.cta_port(i)],
                        period.recip(),
                        "seed {seed}: CTA rate at port {i} disagrees with the exact period"
                    );
                }
                assert!(
                    cta.consistency_at_maximal_rates().is_ok(),
                    "seed {seed}: CTA must accept its own maximal rates"
                );

                // 3. The exact HSDF maximum cycle ratio is the same period.
                let h = HsdfGraph::expand(&sdf)
                    .unwrap_or_else(|e| panic!("seed {seed}: ring expansion failed: {e}"));
                match h.maximum_cycle_ratio_exact() {
                    Some(ExactCycleRatio::Ratio(mcm)) => assert_eq!(
                        mcm, period,
                        "seed {seed}: exact HSDF ratio {mcm} vs state-space period {period}"
                    ),
                    other => {
                        panic!("seed {seed}: ring must have a finite cycle ratio, got {other:?}")
                    }
                }
            }
            Err(SdfError::Deadlock { .. }) => {
                dead += 1;
                assert_eq!(
                    ring.total_tokens(),
                    0,
                    "seed {seed}: only token-free rings may deadlock"
                );
                // CTA agrees: no positive rate satisfies the cycle, and the
                // witness cycle is rate-independent (ε-only).
                match cta.maximal_rates() {
                    Err(ConsistencyError::PositiveCycle { .. }) => {}
                    other => panic!("seed {seed}: CTA verdict {other:?} disagrees with deadlock"),
                }
            }
            Err(other) => panic!("seed {seed}: unexpected baseline failure: {other}"),
        }
    }
    // The generator must cover both classes in every sweep.
    assert!(live >= 80, "only {live} live rings of {RING_SEEDS}");
    assert!(dead >= 5, "only {dead} deadlocked rings of {RING_SEEDS}");
}

#[test]
fn multirate_consistency_verdicts_and_rate_vectors_agree_exactly() {
    const ANCHOR_HZ: u64 = 1000;
    let (mut consistent, mut inconsistent) = (0u32, 0u32);
    for seed in 0..MULTIRATE_SEEDS {
        let scenario = MultiRateScenario::generate(seed);
        let sdf = scenario.sdf();
        let cta = scenario.cta(ANCHOR_HZ);

        match sdf.repetition_vector() {
            Ok(q) => {
                consistent += 1;
                let result = cta.check_consistency().unwrap_or_else(|e| {
                    panic!("seed {seed}: balance equations solvable but CTA rejected: {e}")
                });
                for (i, expected) in MultiRateScenario::expected_rates(&q, ANCHOR_HZ).enumerate() {
                    assert_eq!(
                        result.rates[PortId::new(i)],
                        expected,
                        "seed {seed}: actor {i} rate differs from repetition vector"
                    );
                }
                if scenario.forced_q.is_some() {
                    // Forced instances must land in this arm by construction.
                } else {
                    // Free-form instances that happen to balance are fine too.
                }
            }
            Err(SdfError::Inconsistent { .. }) => {
                inconsistent += 1;
                assert!(
                    scenario.forced_q.is_none(),
                    "seed {seed}: forced-consistent instance judged inconsistent"
                );
                match cta.check_consistency() {
                    Err(ConsistencyError::RateConflict { .. })
                    | Err(ConsistencyError::RequiredRateConflict { .. }) => {}
                    other => panic!("seed {seed}: SDF inconsistent but CTA said {other:?}"),
                }
            }
            Err(other) => panic!("seed {seed}: unexpected verdict {other}"),
        }
    }
    assert!(
        consistent >= 40 && inconsistent >= 10,
        "sweep must cover both verdicts (got {consistent} consistent, {inconsistent} inconsistent)"
    );
}

#[test]
fn pairs_state_space_and_exact_hsdf_baselines_agree_exactly() {
    let (mut live, mut dead) = (0u32, 0u32);
    for seed in 0..PAIR_SEEDS {
        let pair = PairScenario::generate(seed);
        let sdf = pair.sdf(pair.capacity);

        let h = HsdfGraph::expand(&sdf)
            .unwrap_or_else(|e| panic!("seed {seed}: pair expansion failed: {e}"));
        let ratio = h
            .maximum_cycle_ratio_exact()
            .unwrap_or_else(|| panic!("seed {seed}: exact cycle ratio exhausted its budget"));

        match analyze_self_timed_budgeted(&sdf, MAX_ITERATIONS, MAX_STATES) {
            Ok(exact) => {
                live += 1;
                let period = exact.period_exact().unwrap_or_else(|| {
                    panic!("seed {seed}: converged analysis must expose an exact period")
                });
                match ratio {
                    ExactCycleRatio::Ratio(mcm) => assert_eq!(
                        mcm, period,
                        "seed {seed}: exact HSDF ratio {mcm} vs state-space period {period} \
                         (p={}, c={}, capacity={})",
                        pair.p, pair.c, pair.capacity
                    ),
                    other => panic!(
                        "seed {seed}: self-timed execution converged but HSDF says {other:?}"
                    ),
                }
            }
            Err(SdfError::Deadlock { .. }) => {
                dead += 1;
                assert_eq!(
                    ratio,
                    ExactCycleRatio::Infeasible,
                    "seed {seed}: deadlock verdicts disagree (p={}, c={}, capacity={})",
                    pair.p,
                    pair.c,
                    pair.capacity
                );
            }
            Err(other) => panic!("seed {seed}: unexpected baseline failure: {other}"),
        }
    }
    assert!(live >= 30, "only {live} live pairs of {PAIR_SEEDS}");
    assert!(dead >= 5, "only {dead} deadlocked pairs of {PAIR_SEEDS}");
}

#[test]
fn accepted_generated_programs_simulate_cleanly_with_cta_sized_buffers() {
    use oil::sim::{build_simulation_from_graph, picos, SimulationConfig};

    let (mut accepted, mut rejected) = (0u32, 0u32);
    for (at, scenario) in support::programs(PROGRAM_SEEDS, 0) {
        let Some(exe) = support::build_program(&at, &scenario, 1) else {
            // Tight latency bounds are a legitimate reason to reject.
            rejected += 1;
            continue;
        };
        accepted += 1;
        // Determinism: the exact-rational pipeline leaves no room for
        // drift between identical compilations.
        let again = support::build_program(&at, &scenario, 1).expect("rebuilds");
        assert_eq!(
            again.compiled.consistency, exe.compiled.consistency,
            "{at}: consistency result drifted between compilations"
        );

        // The paper's core guarantee: accepted ⇒ executes cleanly with the
        // analysed buffer capacities.
        let config = SimulationConfig {
            cores: 0,
            warmup_ticks: support::warmup_ticks(&scenario),
        };
        let metrics = build_simulation_from_graph(&exe.graph).run(picos(0.25), &config);
        assert!(
            metrics.meets_real_time_constraints(),
            "{at}: accepted program missed deadlines or overflowed:\n{metrics:?}\nsource:\n{}",
            scenario.source
        );
        for (name, cap, occ) in &metrics.buffers {
            assert!(
                occ <= cap,
                "{at}: buffer {name} exceeded its analysed capacity"
            );
        }
        if let Some(ms) = scenario.latency_ms {
            let measured = metrics.sink_max_latency("y").unwrap_or(0.0);
            assert!(
                measured <= ms as f64 * 1e-3 + 1e-9,
                "{at}: measured latency {measured}s exceeds the {ms} ms bound"
            );
        }
    }
    assert!(
        accepted >= PROGRAM_SEEDS as u32 * 3 / 4,
        "most generated programs must be accepted ({accepted} accepted, {rejected} rejected)"
    );
}

#[test]
fn ill_formed_generated_programs_are_rejected_with_diagnostics() {
    use oil::compiler::{compile, CompilerOptions};

    for seed in 0..ILLFORMED_SEEDS {
        let bad = IllFormedProgram::generate(seed);
        let result = compile(&bad.source, &bad.registry(), &CompilerOptions::default());
        assert!(
            result.is_err(),
            "seed {seed}: defect {:?} must be rejected\n{}",
            bad.defect,
            bad.source
        );
    }
}

#[test]
fn adversarial_rates_hit_budget_guards_not_panics() {
    // Direct adversarial probes (beyond the generator's ranges): the exact
    // baselines must fail *gracefully* so sweeps can skip-and-log.
    use oil::dataflow::SdfGraph;

    // Exponential repetition vector: 100^25 overflows every budget.
    let mut chain = SdfGraph::new();
    let us = Rational::new(1, 1_000_000);
    let mut prev = chain.add_actor("a0", us);
    for i in 0..25 {
        let next = chain.add_actor(format!("a{}", i + 1), us);
        chain.add_edge(prev, next, 100, 1, 0);
        prev = next;
    }
    assert!(matches!(
        chain.repetition_vector(),
        Err(SdfError::BudgetExceeded { .. })
    ));
    assert!(matches!(
        HsdfGraph::expand(&chain),
        Err(SdfError::BudgetExceeded { .. })
    ));
    assert!(matches!(
        analyze_self_timed_budgeted(&chain, MAX_ITERATIONS, MAX_STATES),
        Err(SdfError::BudgetExceeded { .. })
    ));

    // A feasible but large-rate cycle: the HSDF node budget refuses the
    // expansion while the (polynomial) repetition vector still succeeds.
    let mut wide = SdfGraph::new();
    let a = wide.add_actor("a", us);
    let b = wide.add_actor("b", us);
    wide.add_edge(a, b, 2_000_000, 1, 0);
    wide.add_edge(b, a, 1, 2_000_000, 4_000_000);
    assert!(wide.repetition_vector().is_ok());
    assert!(matches!(
        HsdfGraph::expand(&wide),
        Err(SdfError::BudgetExceeded { .. })
    ));

    adversarial_denominators_take_the_rational_path_to_the_dense_verdict();
}

// ---------------------------------------------------------------------------
// The shared longest-path kernel of `oil-cta` against the dense loop it
// replaced.
// ---------------------------------------------------------------------------

mod dense {
    //! The reference: the exact-rational Bellman-Ford `oil-cta` ran before
    //! every delay analysis moved onto one kernel. Every connection is
    //! relaxed in every round with its weight recomputed per visit, a cycle
    //! is looked for only after `n` rounds, and each probe starts from zero.
    //! Slow and obviously right; the kernel must reproduce its results
    //! exactly.

    use oil::cta::buffersizing::{BufferSizingError, BufferSizingResult};
    use oil::cta::consistency::{ConsistencyError, DelayCheck};
    use oil::cta::{ConnectionId, CtaModel};
    use oil::dataflow::index::{IndexVec, PortId};
    use oil::dataflow::Rational;

    pub fn check_delays(
        model: &CtaModel,
        rates: &IndexVec<PortId, Rational>,
    ) -> Result<DelayCheck, ConsistencyError> {
        let n = model.ports.len();
        let mut offsets: IndexVec<PortId, Rational> = IndexVec::from_elem(Rational::ZERO, n);
        let mut pred: IndexVec<PortId, Option<(PortId, ConnectionId)>> =
            IndexVec::from_elem(None, n);
        let weight = |cid: ConnectionId| -> Rational {
            let c = &model.connections[cid];
            c.delay_at_rate(rates[c.from])
        };
        let mut updated: Option<PortId> = None;
        for _ in 0..n.max(1) {
            updated = None;
            for (cid, c) in model.connections.iter_enumerated() {
                let w = weight(cid);
                if offsets[c.from] + w > offsets[c.to] {
                    offsets[c.to] = offsets[c.from] + w;
                    pred[c.to] = Some((c.from, cid));
                    updated = Some(c.to);
                }
            }
            if updated.is_none() {
                break;
            }
        }
        if let Some(start) = updated {
            let mut v = start;
            for _ in 0..n {
                v = pred[v].map(|(p, _)| p).unwrap_or(v);
            }
            let mut ports = vec![v];
            let mut connections = Vec::new();
            let mut excess = Rational::ZERO;
            let mut cur = v;
            loop {
                let (p, cid) = pred[cur].expect("cycle nodes have predecessors");
                connections.push(cid);
                excess += weight(cid);
                cur = p;
                if cur == v {
                    break;
                }
                ports.push(cur);
            }
            ports.reverse();
            connections.reverse();
            return Err(ConsistencyError::PositiveCycle {
                ports,
                excess,
                connections,
            });
        }
        let slacks = model
            .connections
            .iter_enumerated()
            .map(|(cid, c)| offsets[c.to] - offsets[c.from] - weight(cid))
            .collect();
        Ok((offsets, slacks))
    }

    /// Longest path from `from` to `to` by dense rounds from a single source.
    pub fn latency(
        model: &CtaModel,
        rates: &IndexVec<PortId, Rational>,
        from: PortId,
        to: PortId,
    ) -> Option<Rational> {
        let n = model.ports.len();
        let mut dist: IndexVec<PortId, Option<Rational>> = IndexVec::from_elem(None, n);
        dist[from] = Some(Rational::ZERO);
        for _ in 0..n {
            let mut changed = false;
            for c in &model.connections {
                let Some(base) = dist[c.from] else { continue };
                let candidate = base + c.delay_at_rate(rates[c.from]);
                if dist[c.to].is_none_or(|d| candidate > d) {
                    dist[c.to] = Some(candidate);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        dist[to]
    }

    /// The sizing loop on the dense probe: find one positive cycle, enlarge
    /// the buffers on it, probe again from zero.
    pub fn size_buffers(model: &CtaModel) -> Result<BufferSizingResult, BufferSizingError> {
        let mut working = model.clone();
        let base = working
            .maximal_rates_unbounded_buffers()
            .map_err(BufferSizingError::Unfixable)?;
        let mut iterations = 0;
        loop {
            match check_delays(&working, &base) {
                Ok(_) => break,
                Err(ConsistencyError::PositiveCycle {
                    ports,
                    excess,
                    connections,
                }) => {
                    iterations += 1;
                    let on_cycle: Vec<ConnectionId> = connections
                        .iter()
                        .copied()
                        .filter(|&cid| working.connections[cid].buffer.is_some())
                        .collect();
                    if on_cycle.is_empty() {
                        return Err(BufferSizingError::Unfixable(
                            ConsistencyError::PositiveCycle {
                                ports,
                                excess,
                                connections,
                            },
                        ));
                    }
                    let share = excess / Rational::from_int(on_cycle.len() as i128);
                    for cid in on_cycle {
                        let rate = base[working.connections[cid].from];
                        let grow_tokens = (share * rate).ceil().max(1);
                        working.connections[cid].phi -= Rational::from_int(grow_tokens);
                    }
                }
                Err(other) => return Err(BufferSizingError::Unfixable(other)),
            }
        }
        let mut capacities = std::collections::BTreeMap::new();
        for c in &working.connections {
            if let Some(name) = &c.buffer {
                let cap = (-c.phi).max(Rational::ZERO).ceil() as u64;
                let entry = capacities.entry(name.clone()).or_insert(0);
                *entry = (*entry).max(cap);
            }
        }
        Ok(BufferSizingResult {
            capacities,
            iterations,
            rates: base,
        })
    }
}

/// Every CTA model the kernel is held to the dense loop on: the derived
/// models of the generated and fixed programs, and the generator's ring,
/// pair and multi-rate topologies.
fn kernel_corpus() -> Vec<(String, oil::cta::CtaModel)> {
    use oil::compiler::derive_cta_model;
    use oil::lang::registry::{FunctionRegistry, FunctionSignature};

    let registry = |functions: &[(&str, f64)]| {
        let mut reg = FunctionRegistry::new();
        for &(name, response) in functions {
            reg.register(FunctionSignature::pure(name, response));
        }
        reg
    };
    let unit = registry(&[("f", 1e-6), ("src", 1e-6), ("snk", 1e-6)]);
    let sdr = r#"
        mod seq Decim(int a, out int b){ loop{ f0(a:8, out b); } while(1); }
        mod seq Demod(int a, out int b){ loop{ f1(a, out b); } while(1); }
        mod seq Resamp(int a, out int b){ loop{ f2(a:2, out b:3); } while(1); }
        mod par Top(){
            fifo int ifs, af;
            source int x = src() @ 512 kHz;
            sink int y = snk() @ 96 kHz;
            Decim(x, out ifs) || Demod(ifs, out af) || Resamp(af, out y)
        }
    "#;
    let wide = {
        let mut s = String::from(
            "mod seq S(int a, out int b){ loop{ heavy(a, out b); } while(1); }\nmod par Top(){\n",
        );
        for i in 0..8 {
            s.push_str(&format!("    source int x{i} = src() @ 4 kHz;\n"));
            s.push_str(&format!("    sink int y{i} = snk() @ 4 kHz;\n"));
        }
        let calls: Vec<String> = (0..8).map(|i| format!("S(x{i}, out y{i})")).collect();
        s + &format!("    {}\n}}\n", calls.join(" || "))
    };
    let mut programs = vec![
        (
            "pal".to_string(),
            oil::pal::PAL_DECODER_OIL.to_string(),
            oil::pal::pal_registry(),
        ),
        (
            "sdr".to_string(),
            sdr.to_string(),
            registry(&[
                ("f0", 1e-5),
                ("f1", 1e-5),
                ("f2", 2e-5),
                ("src", 1e-7),
                ("snk", 1e-7),
            ]),
        ),
        (
            "wide".to_string(),
            wide,
            registry(&[("heavy", 1.875e-4), ("src", 1e-7), ("snk", 1e-7)]),
        ),
    ];
    for k in [4, 8, 16] {
        programs.push((
            format!("pipeline{k}"),
            support::pipeline_source(k),
            unit.clone(),
        ));
    }
    for seed in 0..PROGRAM_SEEDS {
        let s = ProgramScenario::generate(seed);
        programs.push((format!("program seed {seed}"), s.source, s.registry));
        let s = ProgramScenario::generate_sdr(seed);
        programs.push((format!("sdr program seed {seed}"), s.source, s.registry));
    }
    let mut corpus: Vec<(String, oil::cta::CtaModel)> = programs
        .into_iter()
        .map(|(name, source, reg)| {
            let analyzed = oil::lang::frontend(&source, &reg)
                .unwrap_or_else(|e| panic!("{name}: front end rejected: {e:?}"));
            (name, derive_cta_model(&analyzed, &reg).cta)
        })
        .collect();
    for seed in 0..RING_SEEDS {
        corpus.push((
            format!("ring seed {seed}"),
            RingScenario::generate(seed).cta(),
        ));
    }
    for seed in 0..PAIR_SEEDS {
        let pair = PairScenario::generate(seed);
        corpus.push((format!("unsized pair seed {seed}"), pair.cta(None)));
        corpus.push((format!("pair seed {seed}"), pair.cta(Some(pair.capacity))));
    }
    for seed in 0..MULTIRATE_SEEDS {
        let scenario = MultiRateScenario::generate(seed);
        corpus.push((format!("multirate seed {seed}"), scenario.cta(1000)));
    }
    corpus
}

/// A reported positive cycle must be a closed walk over existing connections
/// whose delays at `rates` sum to exactly the reported, positive excess.
fn assert_positive_cycle(
    name: &str,
    model: &oil::cta::CtaModel,
    rates: &oil::dataflow::index::IndexVec<PortId, Rational>,
    error: &ConsistencyError,
) {
    let ConsistencyError::PositiveCycle {
        ports,
        excess,
        connections,
    } = error
    else {
        panic!("{name}: expected a positive cycle, got {error:?}");
    };
    assert!(!connections.is_empty(), "{name}: empty cycle");
    assert_eq!(
        ports.len(),
        connections.len(),
        "{name}: ports vs connections"
    );
    let mut sum = Rational::ZERO;
    for (i, &cid) in connections.iter().enumerate() {
        let c = &model.connections[cid];
        let next = &model.connections[connections[(i + 1) % connections.len()]];
        assert_eq!(c.to, next.from, "{name}: cycle is not closed at {cid}");
        assert_eq!(
            ports[i], c.to,
            "{name}: port list does not follow the cycle"
        );
        sum += c.delay_at_rate(rates[c.from]);
    }
    assert_eq!(sum, *excess, "{name}: excess is not the cycle's delay");
    assert!(
        excess.is_positive(),
        "{name}: excess {excess} is not positive"
    );
}

/// How many models reached each arm of [`assert_kernel_matches_dense`].
#[derive(Default, Debug)]
struct KernelTally {
    feasible: u32,
    cycles: u32,
    sized: u32,
    latencies: u32,
}

/// Hold every delay analysis of `model` to the dense reference: one probe at
/// the rates sizing targets, the sizing loop, and on the sized model the
/// maximal rates with their offsets and slacks and the latencies between its
/// pinned ports.
fn assert_kernel_matches_dense(name: &str, model: &oil::cta::CtaModel, tally: &mut KernelTally) {
    use oil::cta::buffersizing::apply_capacities;
    use oil::cta::{check_delays_at_rates, check_latency_path, size_buffers};

    // The unsized programs fail this probe, the sized topologies pass it.
    if let Ok(rates) = model.maximal_rates_unbounded_buffers() {
        match (
            check_delays_at_rates(model, &rates),
            dense::check_delays(model, &rates),
        ) {
            // The least solution is unique: equality, not tolerance.
            (Ok(kernel), Ok(reference)) => {
                tally.feasible += 1;
                assert_eq!(kernel, reference, "{name}: offsets or slacks differ");
            }
            (Err(kernel), Err(_)) => {
                tally.cycles += 1;
                assert_positive_cycle(name, model, &rates, &kernel);
            }
            (kernel, reference) => {
                panic!("{name}: verdicts differ: kernel {kernel:?}, dense {reference:?}")
            }
        }
    }

    // Sizing: capacities, iterations and rates.
    let result = match (size_buffers(model), dense::size_buffers(model)) {
        (Ok(kernel), Ok(reference)) => {
            assert_eq!(kernel, reference, "{name}: sizing differs");
            kernel
        }
        (Err(kernel), Err(reference)) => {
            assert_eq!(
                std::mem::discriminant(&kernel),
                std::mem::discriminant(&reference),
                "{name}: sizing errors differ: {kernel:?} vs {reference:?}"
            );
            return;
        }
        (kernel, reference) => {
            panic!("{name}: sizing verdicts differ: kernel {kernel:?}, dense {reference:?}")
        }
    };
    tally.sized += 1;

    let mut sized = model.clone();
    apply_capacities(&mut sized, &result.capacities);
    let Ok(consistency) = sized.consistency_at_maximal_rates() else {
        assert!(
            dense::check_delays(&sized, &result.rates).is_err(),
            "{name}: kernel rejects a sized model the dense loop accepts"
        );
        return;
    };
    assert_eq!(
        dense::check_delays(&sized, &consistency.rates),
        Ok((consistency.offsets.clone(), consistency.slacks.clone())),
        "{name}: offsets or slacks at the maximal rates differ"
    );
    assert_eq!(
        sized.maximal_rates().as_ref(),
        Ok(&consistency.rates),
        "{name}: maximal rates differ between the two entry points"
    );
    let pinned: Vec<PortId> = sized
        .ports
        .iter_enumerated()
        .filter(|(_, p)| p.required_rate.is_some())
        .map(|(id, _)| id)
        .take(4)
        .collect();
    for &from in &pinned {
        for &to in &pinned {
            tally.latencies += 1;
            assert_eq!(
                check_latency_path(&sized, &consistency, from, to).map(|r| r.latency),
                dense::latency(&sized, &consistency.rates, from, to),
                "{name}: latency {from} -> {to} differs"
            );
        }
    }
}

#[test]
fn longest_path_kernel_matches_the_dense_reference_exactly() {
    let mut tally = KernelTally::default();
    for (name, model) in kernel_corpus() {
        assert_kernel_matches_dense(&name, &model, &mut tally);
    }
    // The sweep must exercise every arm.
    assert!(
        tally.feasible >= 100 && tally.cycles >= 50 && tally.sized >= 150 && tally.latencies >= 100,
        "thin sweep: {tally:?}"
    );
}

/// The least common multiple of every connection delay's denominator at
/// `rates`, or `None` once it no longer fits `i128`: whether the kernel can
/// clear denominators on this model.
fn common_denominator(
    model: &oil::cta::CtaModel,
    rates: &oil::dataflow::index::IndexVec<PortId, Rational>,
) -> Option<i128> {
    use oil::dataflow::rational::gcd;
    model.connections.iter().try_fold(1i128, |lcm, c| {
        let den = c.delay_at_rate(rates[c.from]).denom();
        (lcm / gcd(lcm as u128, den as u128) as i128).checked_mul(den)
    })
}

/// Disjoint producer/consumer pairs whose rates and response times are
/// distinct primes near 1e9: every pair is easy in rationals, their common
/// denominator is far outside `i128`.
fn coprime_prime_pairs() -> oil::cta::CtaModel {
    const PRIMES: [i128; 12] = [
        1_000_000_007,
        1_000_000_009,
        998_244_353,
        1_000_000_021,
        1_000_000_033,
        1_000_000_087,
        1_000_000_093,
        1_000_000_097,
        1_000_000_103,
        1_000_000_123,
        999_999_937,
        999_999_929,
    ];
    let mut m = oil::cta::CtaModel::new();
    for (i, pair) in PRIMES.chunks(2).enumerate() {
        let (rate, response) = (Rational::from_int(pair[0]), Rational::new(1, pair[1]));
        let prod = m.add_component(format!("prod{i}"), None);
        let cons = m.add_component(format!("cons{i}"), None);
        let p = m.add_port(prod, "out", Some(rate));
        let q = m.add_port(cons, "in", Some(rate));
        m.connect(p, q, response, Rational::ZERO, Rational::ONE);
        let unsized_buffer = Rational::ZERO;
        m.connect_buffer(
            format!("b{i}"),
            q,
            p,
            response,
            unsized_buffer,
            Rational::ONE,
        );
    }
    m
}

/// A 1 kHz source through `depth` rate converters of ratio `num/den` (each
/// with a granularity term and an unsized buffer back): the rates are
/// `1000 · (num/den)^k`, so the delays' common denominator grows like
/// `num^depth`.
fn converter_chain(num: i128, den: i128, depth: u32) -> oil::cta::CtaModel {
    let ratio = Rational::new(num, den);
    let (zero, one) = (Rational::ZERO, Rational::ONE);
    let mut m = oil::cta::CtaModel::new();
    let src = m.add_component("src", None);
    let mut prev = m.add_required_rate_port(src, "out", Rational::from_int(1000));
    for k in 0..depth {
        let conv = m.add_component(format!("conv{k}"), None);
        let input = m.add_port(conv, "in", None);
        let output = m.add_port(conv, "out", None);
        m.connect(prev, input, Rational::new(1, 1000), zero, one);
        m.connect(input, output, zero, Rational::from_int(3), ratio);
        m.connect_buffer(
            format!("{num}:{den} b{k}"),
            output,
            prev,
            zero,
            zero,
            ratio.recip(),
        );
        prev = output;
    }
    m
}

/// The arithmetic edge of denominator clearing (ROADMAP 5(d)): models whose
/// paths are easy in rationals while the common denominator of all their
/// delays leaves `i128`. There the kernel must neither wrap nor panic while
/// scaling: it runs its `Rational` instantiation and returns what the dense
/// loop returns.
fn adversarial_denominators_take_the_rational_path_to_the_dense_verdict() {
    // 441/480 compositions several deep, up and down, and an 11/13-based
    // ratio: each chain alone clears its denominators, all three at once
    // cannot.
    let chains = [(441, 480, 8), (480, 441, 8), (121, 130, 6)].map(|(num, den, depth)| {
        (
            format!("{num}/{den} x{depth}"),
            converter_chain(num, den, depth),
        )
    });
    let mut together = oil::cta::CtaModel::new();
    for (_, chain) in &chains {
        together.merge(chain);
    }
    let models = chains.into_iter().chain([
        ("three chains".to_string(), together),
        ("coprime prime pairs".to_string(), coprime_prime_pairs()),
    ]);
    let mut tally = KernelTally::default();
    let mut left_i128 = Vec::new();
    for (name, model) in models {
        let rates = model
            .maximal_rates_unbounded_buffers()
            .unwrap_or_else(|e| panic!("{name}: no rates: {e}"));
        if common_denominator(&model, &rates).is_none() {
            left_i128.push(name.clone());
        }
        assert_kernel_matches_dense(&name, &model, &mut tally);
    }
    assert_eq!(left_i128, ["three chains", "coprime prime pairs"]);
    assert!(
        tally.cycles == 5 && tally.sized == 5,
        "thin sweep: {tally:?}"
    );
}

/// Long pipelines through the whole analysis half: compile, lower, plan,
/// synthesize at one and two workers, re-validate. CTA sizing of a
/// `k`-stage pipeline is cubic in `k`; before the shared kernel its constant
/// made `k = 128` take about a minute, now about a second. CI's differential
/// sweep runs this in release (`-- --ignored`) so the old curve cannot come
/// back unseen; it is too slow for the debug tier-1 run.
#[test]
#[ignore = "release-only: run by CI's differential sweep"]
fn long_pipelines_compile_and_schedule() {
    use oil::compiler::schedule::SynthesisConfig;

    let registry = support::pure(&["f", "src", "snk"], 1e-6);
    for stages in [64, 128] {
        let started = std::time::Instant::now();
        let at = format!("pipeline{stages}");
        let source = support::pipeline_source(stages);
        let config = SynthesisConfig::default();
        let exe =
            oil::build(&source, &registry, 1, &config).unwrap_or_else(|e| panic!("{at}: {e}"));
        assert_eq!(exe.compiled.buffers.iterations, stages + 1);
        assert_eq!(
            exe.compiled.channel_rate_exact("y"),
            Some(Rational::from_int(1000))
        );
        for workers in [1, 2] {
            let at = format!("{at}@{workers}w");
            let schedule = support::schedule(&at, &exe.graph, workers, &config);
            schedule
                .validate(&exe.graph)
                .unwrap_or_else(|e| panic!("{at}: {e}"));
        }
        println!("pipeline{stages}: {:?}", started.elapsed());
    }
}
