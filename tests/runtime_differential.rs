//! The reference interpreter (`oil_rt::exec`): the simulator's one
//! calendar carrying real kernel values.
//!
//! `oil::rt::execute` runs `oil_sim::network`'s event loop with a kernel
//! payload, and `SimNetwork::run_traced` runs it with none. A payload may
//! compute values but must not move an event, so for hundreds of seeded
//! random programs (`oil_gen::ProgramScenario`) and for the PAL decoder case
//! study the two must give **bit-identical** per-buffer token traces,
//! deadline-miss counts and overflow counts: the kernels do not move the
//! trace. Both run the *same* runtime graph of `oil::build`.
//!
//! What guards the calendar's timing itself is a fixed-seed corpus
//! (`tests/data/runtime_corpus.txt`: `seed trace-digest value-digest`
//! lines) that pins the token-trace digest and the interpreter's
//! value-stream digest per seed, PAL's two pinned 2 ms digests, the
//! insertion-order test of `tests/determinism.rs`, and the miss and latency
//! sweep of `tests/differential.rs`. Regenerate the corpus after an
//! intentional semantic change with
//! `OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus`.
//!
//! Every failure message quotes the reproducing generator and seed.

mod support;

use oil::compiler::rtgraph::RtGraph;
use oil::gen::ProgramScenario;
use oil::rt::{execute, Kernel, KernelLibrary, RtConfig, RtReport};
use oil::sim::{build_simulation_from_graph, picos, ExecutionTrace, SimulationConfig};
use support::{build_program, program_seeds, programs, pure, PIPELINE};

/// The value-free trace and the kernel-carrying report of `graph` over
/// `horizon_s` virtual seconds, with `warmup` miss-free ticks.
fn both(
    graph: &RtGraph,
    lib: &KernelLibrary,
    horizon_s: f64,
    warmup: u64,
) -> (ExecutionTrace, RtReport) {
    let mut net = build_simulation_from_graph(graph);
    let sim = SimulationConfig {
        cores: 0,
        warmup_ticks: warmup,
    };
    let (_, trace) = net.run_traced(picos(horizon_s), &sim);
    let config = RtConfig {
        warmup_ticks: warmup,
        ..RtConfig::default()
    };
    (trace, execute(graph, lib, picos(horizon_s), &config))
}

#[test]
fn runtime_traces_match_the_simulator_on_generated_programs() {
    let horizon = support::duration_s();
    let (mut checked, mut rejected) = (0u32, 0u32);
    for (at, scenario) in programs(program_seeds(), 0) {
        let Some(exe) = build_program(&at, &scenario, 1) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let warmup = support::warmup_ticks(&scenario);
        let (sim_trace, report) = both(&exe.graph, &KernelLibrary::new(), horizon, warmup);
        if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
            panic!(
                "{at}: the kernel payload moved the trace: {divergence}\nsource:\n{}",
                scenario.source
            );
        }
        // The paper's guarantee carries over to the value-producing
        // execution: accepted ⇒ no misses, no overflows.
        assert!(
            report.meets_real_time_constraints(),
            "{at}: accepted program missed deadlines or overflowed: {:?}\nsource:\n{}",
            report.trace,
            scenario.source
        );
        for (name, cap, occ) in &report.buffers {
            assert!(occ <= cap, "{at}: buffer {name} exceeded its capacity");
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must compile and be checked \
         ({checked} checked, {rejected} rejected)"
    );
}

/// PAL's 2 ms token-trace digest and value-stream digest (single worker,
/// fusion on, 64 warm-up ticks), pinned like a corpus line.
const PAL_TRACE_DIGEST: &str = "131ce39b299e5f79";
const PAL_VALUE_DIGEST: &str = "93a8bd2465a7dc53";

#[test]
fn pal_decoder_runtime_matches_simulator_with_zero_misses() {
    // The case study of paper Section VI, with the real DSP kernels: they
    // must leave the value-free trace bit for bit as it is, and meet every
    // real-time constraint at CTA-sized buffers. 2 ms is 12 800 RF samples
    // and 8 000 display samples.
    let pal = support::pal(1, &support::fusion(true));
    let (sim_trace, report) = both(&pal.graph, &KernelLibrary::pal(), 2e-3, 64);
    assert_eq!(sim_trace.total_misses(), 0, "simulator PAL baseline");
    assert_eq!(sim_trace.total_overflows(), 0, "simulator PAL baseline");
    if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
        panic!("PAL's kernels moved the trace: {divergence}");
    }
    assert_eq!(report.trace.total_misses(), 0);
    assert_eq!(report.trace.total_overflows(), 0);
    assert_eq!(
        format!("{:016x}", sim_trace.digest()),
        PAL_TRACE_DIGEST,
        "PAL's 2 ms token trace moved"
    );
    assert_eq!(
        format!("{:016x}", report.values.digest()),
        PAL_VALUE_DIGEST,
        "PAL's 2 ms value streams moved"
    );
    // The interpreter executed real DSP kernels: the speaker stream carries
    // the recovered audio tone, not zeros.
    let speakers = report.sink_values("speakers").expect("speaker stream");
    assert!(speakers.len() > 32, "collected {} samples", speakers.len());
    assert!(speakers.iter().any(|v| v.abs() > 1e-6));
}

// ---------------------------------------------------------------------------
// A hand-written pipeline.
// ---------------------------------------------------------------------------

fn pipeline_graph() -> RtGraph {
    let registry = pure(&["f", "g", "init", "src", "snk"], 1e-5);
    let config = support::fusion(true);
    oil::build(PIPELINE, &registry, 1, &config).unwrap().graph
}

#[test]
fn runtime_matches_simulator_trace_on_a_pipeline() {
    let graph = pipeline_graph();
    let mut net = build_simulation_from_graph(&graph);
    let (_, sim_trace) = net.run_traced(picos(0.25), &SimulationConfig::default());

    let report = execute(
        &graph,
        &KernelLibrary::new(),
        picos(0.25),
        &RtConfig::default(),
    );
    assert_eq!(report.trace.first_divergence(&sim_trace), None);
    assert!(report.meets_real_time_constraints(), "{:?}", report.trace);
    // Real sample values reached the sink.
    let values = report.sink_values("y").expect("sink stream");
    assert!(!values.is_empty());
    assert!(values.iter().any(|v| *v != 0.0));
}

#[test]
fn panicking_kernel_fails_loudly_instead_of_hanging() {
    // The interpreter fires kernels inline, so a kernel's own panic must
    // reach the caller of `execute` unchanged.
    let graph = pipeline_graph();
    let mut lib = KernelLibrary::new();
    lib.register(
        "f",
        Box::new(|| Kernel::Custom(Box::new(|_, _| panic!("injected kernel failure")))),
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute(&graph, &lib, picos(0.01), &RtConfig::default())
    }));
    let err = result.expect_err("the kernel panic must propagate");
    let message = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert!(
        message.contains("injected"),
        "unexpected panic message: {message}"
    );
}

// ---------------------------------------------------------------------------
// Fixed-seed digest corpus.
// ---------------------------------------------------------------------------

/// Seeds pinned in the corpus file (a prefix of the sweep's seed range).
const CORPUS_SEEDS: u64 = 48;

/// The pinned pair of a corpus seed — the simulator's token-trace digest and
/// the interpreter's value-stream digest (`RtReport::values`) — or
/// `rejected` when the compiler (legitimately) rejects the scenario
/// temporally. The horizon is fixed (independent of the stress horizon) so
/// pinned digests stay valid in every CI configuration.
fn corpus_digests(seed: &str) -> Vec<String> {
    let scenario = ProgramScenario::generate(seed.parse().expect("corpus seed"));
    let at = format!("ProgramScenario::generate({seed})");
    let Some(exe) = build_program(&at, &scenario, 1) else {
        return vec!["rejected".into()];
    };
    let warmup = support::warmup_ticks(&scenario);
    let (trace, report) = both(&exe.graph, &KernelLibrary::new(), 0.2, warmup);
    vec![
        format!("{:016x}", trace.digest()),
        format!("{:016x}", report.values.digest()),
    ]
}

#[test]
fn corpus_digests_pin_the_observable_behaviour() {
    let pinned = support::golden(
        "tests/data/runtime_corpus.txt",
        "OIL_UPDATE_RUNTIME_CORPUS",
        "# Fixed-seed corpus: `<seed> <trace digest> <value digest>` or `<seed> rejected` per line.\n\
         # Generated by OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus\n",
        (0..CORPUS_SEEDS).map(|seed| seed.to_string()),
        corpus_digests,
        |seed| format!("ProgramScenario::generate({seed})"),
    );
    assert!(pinned >= 32, "corpus too small: {pinned} pinned seeds");
}
