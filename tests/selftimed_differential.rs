//! Rate-conformance and schedule-invariance verification of the self-timed
//! free-running engine.
//!
//! The reference interpreter (`oil-rt::exec`) is pinned to the simulator by
//! bit-identical origin-timestamp traces (`tests/runtime_differential.rs`).
//! The self-timed engine (`oil-rt::selftimed`) has no virtual clock to
//! compare, so its oracles are the *value plane* and the *rate plane*:
//!
//! 1. **Prefix oracle** — for every buffer the plan marks
//!    *schedule-invariant* (not downstream of a contested modal merge; on
//!    KPN-safe graphs that is every buffer), the per-buffer value stream is
//!    a pure function of the graph. The calendar reference stops at the
//!    virtual horizon mid-pipeline, the free run drains to quiescence, so
//!    the reference streams (buffers *and* sink sample streams) must be a
//!    bit-exact **prefix** of the free-running streams, at every thread
//!    count. (Streams downstream of a contested merge resolve by arrival
//!    order — the calendar's virtual arrival order is a timing artifact a
//!    clockless engine cannot and should not replay.)
//! 2. **Invariance oracle** — for *all* streams of *all* graphs (including
//!    serial-clustered modal programs, which are deterministically
//!    serialised), the streams, firing counts and sink streams must be
//!    bit-identical across thread counts and under injected scheduling
//!    perturbations.
//! 3. **Liveness** — CTA-sized buffers must reach quiescence with zero
//!    deadlocks at 1/2/4 threads.
//! 4. **Rate conformance** — measured steady-state sink throughput must
//!    reach a configurable fraction (`OIL_RT_CONFORMANCE`, see
//!    `oil::rt::measure::conformance_threshold`) of the CTA-predicted
//!    rate: the paper's temporal guarantee as an empirical property.
//!
//! Every failure message quotes the reproducing seed
//! (`ProgramScenario::generate(seed)`).

use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::gen::ProgramScenario;
use oil::rt::{
    execute, execute_selftimed, measure, ConformanceVerdict, KernelLibrary, RtConfig,
    SelfTimedConfig, SelfTimedReport,
};
use oil::sim::picos;

/// Generated programs per sweep (stress widens it, as in the calendar
/// harness).
fn program_seeds() -> u64 {
    if stress() {
        300
    } else {
        200
    }
}

fn stress() -> bool {
    std::env::var_os("OIL_RT_STRESS").is_some()
}

/// Virtual horizon per program for the prefix/invariance sweep.
fn duration_s() -> f64 {
    if stress() {
        1.0
    } else {
        0.2
    }
}

/// Thread counts under test: 1, 2 and N (`OIL_RT_THREADS` or the machine).
fn thread_counts() -> Vec<usize> {
    let n = oil::rt::env_threads()
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
    let mut counts = vec![1, 2, n.max(1)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

fn compile_scenario(scenario: &ProgramScenario) -> Option<oil::compiler::CompiledProgram> {
    match compile(
        &scenario.source,
        &scenario.registry,
        &CompilerOptions::default(),
    ) {
        Ok(compiled) => Some(compiled),
        Err(CompileError::Temporal(_)) => None,
        Err(CompileError::Frontend(diags)) => panic!(
            "seed {}: generated program must be front-end valid, got {diags:?}\n{}",
            scenario.seed, scenario.source
        ),
    }
}

fn free_run(
    graph: &rtgraph::RtGraph,
    plan: &rtgraph::RtPlan,
    threads: usize,
    duration_seconds: f64,
    chaos: Option<u64>,
) -> SelfTimedReport {
    execute_selftimed(
        graph,
        plan,
        &KernelLibrary::new(),
        picos(duration_seconds),
        &SelfTimedConfig {
            threads,
            chaos,
            warmup_samples: 4,
            // OIL_RT_TRACE=1 (the CI traced leg) runs the corpus down the
            // instrumented paths.
            trace: oil::rt::env_trace(),
            ..SelfTimedConfig::default()
        },
    )
}

/// Assert that `base` and `other` observed bit-identical behaviour.
fn assert_invariant(seed: u64, base: &SelfTimedReport, other: &SelfTimedReport, what: &str) {
    if let Some(d) = base.values.first_divergence(&other.values) {
        panic!(
            "seed {seed}: value streams differ between {what}: {d}\n\
             reproduce with ProgramScenario::generate({seed})"
        );
    }
    assert_eq!(
        base.node_firings, other.node_firings,
        "seed {seed}: firing counts differ between {what}"
    );
    for (a, b) in base.sinks.iter().zip(&other.sinks) {
        assert_eq!(
            a.consumed, b.consumed,
            "seed {seed}: sink `{}` {what}",
            a.name
        );
        assert_eq!(a.values, b.values, "seed {seed}: sink `{}` {what}", a.name);
    }
    assert_eq!(
        base.sources, other.sources,
        "seed {seed}: source sample counts differ between {what}"
    );
}

/// Prefix-compare the schedule-invariant buffers of the calendar reference
/// against a free run; returns how many buffers were verified.
fn assert_invariant_prefix(
    seed: u64,
    threads: usize,
    plan: &rtgraph::RtPlan,
    reference: &oil::rt::ValueTrace,
    free: &oil::rt::ValueTrace,
) -> u64 {
    assert_eq!(reference.buffers.len(), free.buffers.len(), "seed {seed}");
    let mut verified = 0;
    for ((cal, run), &invariant) in reference
        .buffers
        .iter()
        .zip(&free.buffers)
        .zip(plan.invariant.iter())
    {
        if !invariant {
            continue;
        }
        if let Some(d) = cal.prefix_divergence(run) {
            panic!(
                "seed {seed}: schedule-invariant stream is not preserved at {threads} \
                 thread(s): {d}\nreproduce with ProgramScenario::generate({seed})"
            );
        }
        verified += 1;
    }
    verified
}

#[test]
fn free_running_streams_match_the_calendar_reference_on_the_corpus() {
    let threads = thread_counts();
    let (mut checked, mut rejected, mut kpn, mut clustered) = (0u32, 0u32, 0u32, 0u32);
    let (mut buffers_total, mut buffers_verified) = (0u64, 0u64);
    for seed in 0..program_seeds() {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        if plan.is_kpn_safe() {
            kpn += 1;
        } else {
            clustered += 1;
        }

        // The calendar reference: deterministic, trace-pinned to the
        // simulator. Accepted programs neither overflow nor miss there, so
        // its value streams are exactly the first L values of the
        // schedule-invariant streams.
        let reference = execute(
            &graph,
            &KernelLibrary::new(),
            picos(duration_s()),
            &RtConfig {
                warmup_ticks: u64::MAX, // miss accounting is not under test
                ..RtConfig::default()
            },
        );
        assert_eq!(
            reference.trace.total_overflows(),
            0,
            "seed {seed}: the prefix oracle requires an overflow-free reference"
        );

        let mut baseline: Option<SelfTimedReport> = None;
        for &t in &threads {
            let report = free_run(&graph, &plan, t, duration_s(), None);
            assert!(
                !report.deadlocked,
                "seed {seed}: self-timed execution deadlocked at {t} thread(s) under \
                 CTA-sized buffers\nsource:\n{}",
                scenario.source
            );
            buffers_verified +=
                assert_invariant_prefix(seed, t, &plan, &reference.values, &report.values);
            buffers_total += graph.buffers.len() as u64;
            for ((cal, free), sink) in reference
                .sinks
                .iter()
                .zip(&report.sinks)
                .zip(graph.sinks.iter())
            {
                if !plan.invariant[sink.input] {
                    continue;
                }
                assert!(
                    free.consumed >= cal.consumed,
                    "seed {seed}: sink `{}` consumed less free-running ({} < {}) at \
                     {t} thread(s)",
                    cal.name,
                    free.consumed,
                    cal.consumed
                );
                let shared = cal.values.len().min(free.values.len());
                assert_eq!(
                    cal.values[..shared],
                    free.values[..shared],
                    "seed {seed}: sink `{}` sample stream diverges at {t} thread(s)",
                    cal.name
                );
            }
            match &baseline {
                None => baseline = Some(report),
                Some(base) => {
                    assert_invariant(
                        seed,
                        base,
                        &report,
                        &format!("{} and {t} threads", base.threads),
                    );
                }
            }
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must compile and be checked \
         ({checked} checked, {rejected} rejected)"
    );
    assert!(
        kpn >= checked / 10,
        "the full-graph prefix oracle must cover a meaningful slice of the corpus \
         ({kpn} KPN vs {clustered} clustered)"
    );
    assert!(
        clustered > 0,
        "the corpus must exercise the serial-cluster path (modal programs)"
    );
    // Roughly a third of all buffer streams sit upstream of (or beside)
    // every modal merge and are pinned cross-engine; the remainder are
    // pinned by the thread-count invariance oracle above. Guard the
    // cross-engine share against silent erosion.
    assert!(
        buffers_verified * 4 >= buffers_total,
        "the cross-engine prefix oracle must pin at least a quarter of all buffer \
         streams ({buffers_verified} of {buffers_total})"
    );
}

#[test]
fn injected_perturbations_do_not_change_the_streams() {
    // KPN determinism under adversarial scheduling: random yields and
    // sleeps inside the workers must not move a single bit in any stream.
    let threads = *thread_counts().last().unwrap();
    for seed in 0..16u64 {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        let calm = free_run(&graph, &plan, threads, 0.05, None);
        for chaos_seed in [1u64, 0xDEAD_BEEF] {
            let stormy = free_run(&graph, &plan, threads, 0.05, Some(chaos_seed));
            assert!(!stormy.deadlocked, "seed {seed}");
            assert_invariant(
                seed,
                &calm,
                &stormy,
                &format!("calm and chaos({chaos_seed:#x}) runs"),
            );
        }
    }
}

#[test]
fn measured_sink_throughput_meets_the_cta_rate_conformance_threshold() {
    // The paper's temporal guarantee, empirically: free-running execution
    // on real hardware sustains at least `threshold ×` the CTA-predicted
    // sink rate. Generated sink rates are a few kHz at most; a free run
    // that cannot beat that fraction on any modern machine is a scheduling
    // regression, not a slow kernel.
    let threshold = measure::conformance_threshold();
    let threads = *thread_counts().last().unwrap();
    let mut measured = 0u32;
    for seed in 0..24u64 {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            continue;
        };
        let graph = rtgraph::lower(&compiled);
        let plan = rtgraph::plan(&graph);
        // A longer horizon than the prefix sweep: throughput needs a
        // steady-state window, and free-running execution pays wall time
        // only per token, not per virtual second. This is a *wall-clock*
        // oracle: a loaded or preempted CI host can depress one
        // measurement, so a violation is only a failure if it reproduces —
        // a real scheduling regression violates every attempt.
        let mut last_violations = Vec::new();
        let mut conformed = false;
        let mut measurable = false;
        for _attempt in 0..3 {
            let report = free_run(&graph, &plan, threads, 2.0, None);
            assert!(!report.deadlocked, "seed {seed}");
            let conformance = report.conformance(threshold);
            measurable |= conformance
                .sinks
                .iter()
                .any(|s| s.conformance_ratio().is_some());
            if conformance.verdict() != ConformanceVerdict::Fail {
                conformed = true;
                break;
            }
            last_violations = conformance.violations();
        }
        if measurable {
            measured += 1;
        }
        assert!(
            conformed,
            "seed {seed}: rate conformance violated in 3 consecutive measurements:\n  {}\n\
             source:\n{}",
            last_violations.join("\n  "),
            scenario.source
        );
    }
    assert!(
        measured >= 12,
        "too few scenarios produced a measurable steady-state window ({measured})"
    );
}

#[test]
fn pal_decoder_free_run_conforms_to_the_predicted_rates() {
    // The case study with real DSP kernels: the PAL graph is a pure KPN,
    // the repetition-vector pass batches the 6.4 MS/s RF front end, the
    // calendar streams are a prefix of the free-running streams, and the
    // display/speaker sinks sustain the CTA-predicted rates scaled by the
    // conformance threshold.
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let plan = rtgraph::plan(&graph);
    assert!(plan.is_kpn_safe(), "the PAL decoder lowers to a pure KPN");
    assert!(
        plan.batch.iter().any(|&b| b > 1) || plan.source_batch.iter().any(|&b| b > 1),
        "the multi-rate PAL graph must get non-trivial batches: {:?}",
        plan.batch
    );

    let duration = picos(2e-3); // 12 800 RF samples, 8 000 display samples
                                // The free runs get a longer horizon: the 32 kHz speakers sink needs
                                // to clear its 256-sample warmup (64 samples at 2 ms would leave the
                                // conformance verdict *inconclusive* forever — the vacuous pass
                                // ConformanceVerdict was introduced to expose). 12 ms gives it 384
                                // samples: warm at 257, a >= 127-sample steady window. The calendar
                                // reference stays short — the prefix oracle only needs a prefix.
    let free_duration = picos(12e-3);
    let reference = execute(
        &graph,
        &KernelLibrary::pal(),
        duration,
        &RtConfig {
            warmup_ticks: 64,
            ..RtConfig::default()
        },
    );
    assert_eq!(
        reference.trace.total_overflows(),
        0,
        "calendar PAL baseline"
    );

    for t in thread_counts() {
        let report = execute_selftimed(
            &graph,
            &plan,
            &KernelLibrary::pal(),
            free_duration,
            &SelfTimedConfig {
                threads: t,
                warmup_samples: 256,
                ..SelfTimedConfig::default()
            },
        );
        assert!(!report.deadlocked, "threads={t}");
        if let Some(d) = reference.values.prefix_divergence(&report.values) {
            panic!("PAL value streams diverge at {t} thread(s): {d}");
        }
        // Real recovered audio reaches the speakers.
        let speakers = report.sink_values("speakers").expect("speaker stream");
        assert!(speakers.len() > 32, "collected {} samples", speakers.len());
        assert!(speakers.iter().any(|v| v.abs() > 1e-6));
        // Rate conformance with the real kernels. The default threshold is
        // calibrated for the corpus's kHz-rate scenarios; the display sink
        // here is predicted at 4 MS/s and its wall rate is bound by real
        // FIR/resampler arithmetic, so the un-overridden floor is 2% in
        // release (an ~80 kS/s sustained display path even on one shared-CI
        // core) and 0.5% in debug (unoptimised kernels measure the build
        // profile, not the engine). Set OIL_RT_CONFORMANCE to enforce more
        // on real hardware.
        let threshold = if std::env::var_os("OIL_RT_CONFORMANCE").is_some() {
            measure::conformance_threshold()
        } else if cfg!(debug_assertions) {
            0.005
        } else {
            0.02
        };
        // Wall-clock oracle, so a preempted host gets re-measured: only a
        // violation in three consecutive runs is a regression.
        let mut conformance = report.conformance(threshold);
        for _retry in 0..2 {
            if conformance.verdict() == ConformanceVerdict::Pass {
                break;
            }
            let again = execute_selftimed(
                &graph,
                &plan,
                &KernelLibrary::pal(),
                free_duration,
                &SelfTimedConfig {
                    threads: t,
                    warmup_samples: 256,
                    ..SelfTimedConfig::default()
                },
            );
            conformance = again.conformance(threshold);
        }
        assert!(
            conformance.verdict() == ConformanceVerdict::Pass,
            "PAL rate conformance {} at {t} thread(s) in 3 consecutive \
             measurements:\n  {}",
            conformance.verdict(),
            conformance
                .violations()
                .into_iter()
                .chain(conformance.inconclusive_sinks())
                .collect::<Vec<_>>()
                .join("\n  ")
        );
    }
}
