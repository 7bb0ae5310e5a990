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
//!    deadlocks at 1/2/N threads.
//! 4. **Rate conformance** — measured steady-state sink throughput must
//!    reach a configurable fraction (`OIL_RT_CONFORMANCE`, see
//!    `oil::rt::measure::conformance_threshold`) of the CTA-predicted
//!    rate: the paper's temporal guarantee as an empirical property.
//!
//! Every failure message quotes the reproducing generator and seed.

mod support;

use oil::rt::{execute, ConformanceVerdict, KernelLibrary, RtConfig, SelfTimedConfig};
use oil::sim::picos;
use support::{
    assert_identical, build_program, duration_s, env, program_seeds, programs, selftimed,
    selftimed_config, thread_counts,
};

#[test]
fn oil_rt_threads_rejects_junk_loudly() {
    // Only the parser, not the environment: tests run concurrently, and
    // mutating the process environment would race.
    assert_eq!(support::parse_threads("3"), 3);
    assert_eq!(support::parse_threads(" 0 "), 0);
    assert!(std::panic::catch_unwind(|| support::parse_threads("three")).is_err());
    assert!(std::panic::catch_unwind(|| support::parse_threads("")).is_err());
}

#[test]
fn free_running_streams_match_the_calendar_reference_on_the_corpus() {
    let threads = thread_counts();
    let (mut checked, mut rejected, mut kpn, mut clustered) = (0u32, 0u32, 0u32, 0u32);
    let (mut buffers_total, mut buffers_verified) = (0u64, 0u64);
    for (at, scenario) in programs(program_seeds(), 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let (graph, plan) = (&exe.graph, &exe.plan);
        if plan.is_kpn_safe() {
            kpn += 1;
        } else {
            clustered += 1;
        }

        // The calendar reference: deterministic, trace-pinned to the
        // simulator. Accepted programs neither overflow nor miss there, so
        // its value streams are exactly the first L values of the
        // schedule-invariant streams.
        let config = RtConfig {
            warmup_ticks: u64::MAX, // miss accounting is not under test
            ..RtConfig::default()
        };
        let reference = execute(graph, &KernelLibrary::new(), picos(duration_s()), &config);
        assert_eq!(
            reference.trace.total_overflows(),
            0,
            "{at}: the prefix oracle requires an overflow-free reference"
        );

        let mut baseline = None;
        for &t in &threads {
            let report = selftimed(graph, plan, duration_s(), None, &selftimed_config(t));
            let at = format!("{at} at {t} thread(s)");
            assert!(
                !report.deadlocked,
                "{at}: self-timed execution deadlocked under CTA-sized buffers\nsource:\n{}",
                scenario.source
            );
            // The prefix oracle, on the schedule-invariant buffers and sinks.
            let buffers = report.values.buffers.len();
            assert_eq!(reference.values.buffers.len(), buffers, "{at}");
            let invariant = plan.invariant.iter();
            for ((cal, run), _) in (reference.values.buffers.iter().zip(&report.values.buffers))
                .zip(invariant)
                .filter(|(_, &invariant)| invariant)
            {
                if let Some(d) = cal.prefix_divergence(run) {
                    panic!("{at}: a schedule-invariant stream is not preserved: {d}");
                }
                buffers_verified += 1;
            }
            buffers_total += graph.buffers.len() as u64;
            let sinks = reference.sinks.iter().zip(&report.sinks).zip(&graph.sinks);
            for ((cal, free), _) in sinks.filter(|(_, sink)| plan.invariant[sink.input]) {
                let (name, less) = (&cal.name, free.consumed < cal.consumed);
                assert!(!less, "{at}: sink `{name}` consumed less free-running");
                let shared = cal.values.len().min(free.values.len());
                assert_eq!(
                    cal.values[..shared],
                    free.values[..shared],
                    "{at}: sink `{name}`"
                );
            }
            match &baseline {
                None => baseline = Some(report),
                Some(base) => assert_identical(&format!("{at} vs {}", base.threads), base, &report),
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
    for (at, scenario) in programs(16, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        let run = |chaos| {
            let config = SelfTimedConfig {
                chaos,
                ..selftimed_config(threads)
            };
            selftimed(&exe.graph, &exe.plan, 0.05, None, &config)
        };
        let calm = run(None);
        for chaos_seed in [1u64, 0xDEAD_BEEF] {
            let stormy = run(Some(chaos_seed));
            assert!(!stormy.deadlocked, "{at}");
            assert_identical(
                &format!("{at}: calm vs chaos({chaos_seed:#x})"),
                &calm,
                &stormy,
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
    let threads = *thread_counts().last().unwrap();
    let mut measured = 0u32;
    for (at, scenario) in programs(24, 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            continue;
        };
        // A longer horizon than the prefix sweep: throughput needs a
        // steady-state window, and free-running execution pays wall time
        // only per token, not per virtual second. This is a *wall-clock*
        // oracle: a loaded or preempted CI host can depress one
        // measurement, so a violation is only a failure if it reproduces —
        // a real scheduling regression violates every attempt.
        let mut last_violations = Vec::new();
        let (mut conformed, mut measurable) = (false, false);
        for _attempt in 0..3 {
            let report = selftimed(&exe.graph, &exe.plan, 2.0, None, &selftimed_config(threads));
            assert!(!report.deadlocked, "{at}");
            let conformance = report.conformance(env().corpus_threshold);
            let sinks = conformance.sinks.iter();
            measurable |= sinks.clone().any(|s| s.conformance_ratio().is_some());
            if conformance.verdict() != ConformanceVerdict::Fail {
                conformed = true;
                break;
            }
            last_violations = conformance.violations();
        }
        measured += measurable as u32;
        assert!(
            conformed,
            "{at}: rate conformance violated in 3 consecutive measurements:\n  {}\n\
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
    let pal = support::pal(1, &env().synthesis);
    let (graph, plan) = (&pal.graph, &pal.plan);
    assert!(plan.is_kpn_safe(), "the PAL decoder lowers to a pure KPN");
    assert!(
        plan.batch.iter().any(|&b| b > 1) || plan.source_batch.iter().any(|&b| b > 1),
        "the multi-rate PAL graph must get non-trivial batches: {:?}",
        plan.batch
    );

    // 2 ms is 12 800 RF samples and 8 000 display samples. The free runs
    // get a longer horizon: the 32 kHz speakers sink needs to clear its
    // 256-sample warmup (64 samples at 2 ms would leave the conformance
    // verdict *inconclusive* forever — the vacuous pass ConformanceVerdict
    // was introduced to expose). 12 ms gives it 384 samples: warm at 257, a
    // >= 127-sample steady window. The calendar reference stays short — the
    // prefix oracle only needs a prefix.
    let config = RtConfig {
        warmup_ticks: 64,
        ..RtConfig::default()
    };
    let reference = execute(graph, &KernelLibrary::pal(), picos(2e-3), &config);
    assert_eq!(
        reference.trace.total_overflows(),
        0,
        "calendar PAL baseline"
    );

    for t in thread_counts() {
        let run = || {
            let config = SelfTimedConfig {
                threads: t,
                warmup_samples: 256,
                ..SelfTimedConfig::default()
            };
            oil::rt::execute_selftimed(graph, plan, &KernelLibrary::pal(), picos(12e-3), &config)
        };
        let report = run();
        assert!(!report.deadlocked, "threads={t}");
        if let Some(d) = reference.values.prefix_divergence(&report.values) {
            panic!("PAL value streams diverge at {t} thread(s): {d}");
        }
        // Real recovered audio reaches the speakers.
        let speakers = report.sink_values("speakers").expect("speaker stream");
        assert!(speakers.len() > 32, "collected {} samples", speakers.len());
        assert!(speakers.iter().any(|v| v.abs() > 1e-6));
        // Rate conformance with the real kernels, at the PAL floor.
        let threshold = env().pal_threshold;
        support::assert_conforms(
            &format!("PAL at {t} thread(s)"),
            report.conformance(threshold),
            || run().conformance(threshold),
        );
    }
}
