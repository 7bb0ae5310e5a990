//! Trace-equivalence differential verification of the reference
//! interpreter (`oil_rt::exec`) against the discrete-event simulator.
//!
//! The interpreter is the bridge oracle of the runtime: the two engines'
//! value streams are compared against it, so it must itself be pinned. For
//! hundreds of seeded random programs (`oil_gen::ProgramScenario`) and for
//! the PAL decoder case study it must produce **bit-identical** per-buffer
//! token traces, deadline-miss counts and overflow counts as the simulator
//! (`oil-sim`) while computing real sample values. Both execute the *same*
//! `oil_compiler::rtgraph` lowering, so any divergence is a
//! scheduling-semantics bug, not a graph-construction artifact.
//!
//! On top of live equivalence, a fixed-seed corpus
//! (`tests/data/runtime_corpus.txt`: `seed trace-digest value-digest`
//! lines) pins the simulator's token-trace digest and the interpreter's
//! value-stream digest per seed, so a behavioural regression fails with the
//! exact reproducing seed even if both drift together. Regenerate after an
//! intentional semantic change with
//! `OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus`.
//!
//! Every failure message quotes the reproducing seed; re-create the program
//! with `ProgramScenario::generate(seed)`.

use oil::compiler::{compile, rtgraph, CompileError, CompilerOptions};
use oil::gen::ProgramScenario;
use oil::lang::registry::{FunctionRegistry, FunctionSignature};
use oil::rt::{execute, Kernel, KernelLibrary, RtConfig};
use oil::sim::{build_simulation_from_graph, picos, ExecutionTrace, SimulationConfig};

/// Generated programs per sweep (the acceptance bar is ≥ 200; the stress
/// run widens the sweep).
fn program_seeds() -> u64 {
    if stress() {
        300
    } else {
        200
    }
}

/// Virtual time simulated per program, in seconds. Generated rates are
/// ≥ 25 Hz, so 0.2 s reaches a steady state for every stage; the stress run
/// (`OIL_RT_STRESS=1`, CI's release job) extends the horizon 5×.
fn duration_s() -> f64 {
    if stress() {
        1.0
    } else {
        0.2
    }
}

fn stress() -> bool {
    std::env::var_os("OIL_RT_STRESS").is_some()
}

/// Warm-up ticks covering the pipeline fill of a generated scenario (same
/// policy as `tests/differential.rs`).
fn warmup_ticks(scenario: &ProgramScenario) -> u64 {
    let slowest_hz = scenario
        .stages
        .iter()
        .map(|s| s.firing_hz)
        .chain([scenario.source_hz])
        .min()
        .unwrap_or(1);
    4 + scenario.sink_hz.div_ceil(slowest_hz) * 6
}

/// Compile a generated scenario, returning `None` on (legitimate) temporal
/// rejection and panicking on front-end rejection.
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

/// The simulator's trace for a scenario (the oracle side).
fn simulator_trace(
    compiled: &oil::compiler::CompiledProgram,
    warmup: u64,
    duration_seconds: f64,
) -> (ExecutionTrace, rtgraph::RtGraph) {
    let graph = rtgraph::lower(compiled);
    let mut net = build_simulation_from_graph(&graph);
    let (_, trace) = net.run_traced(
        picos(duration_seconds),
        &SimulationConfig {
            cores: 0,
            warmup_ticks: warmup,
        },
    );
    (trace, graph)
}

#[test]
fn runtime_traces_match_the_simulator_on_generated_programs() {
    let (mut checked, mut rejected) = (0u32, 0u32);
    for seed in 0..program_seeds() {
        let scenario = ProgramScenario::generate(seed);
        let Some(compiled) = compile_scenario(&scenario) else {
            rejected += 1;
            continue;
        };
        checked += 1;
        let warmup = warmup_ticks(&scenario);
        let (sim_trace, graph) = simulator_trace(&compiled, warmup, duration_s());

        let report = execute(
            &graph,
            &KernelLibrary::new(),
            picos(duration_s()),
            &RtConfig {
                warmup_ticks: warmup,
                ..RtConfig::default()
            },
        );
        if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
            panic!(
                "seed {seed}: interpreter trace diverges from the simulator: \
                 {divergence}\nreproduce with ProgramScenario::generate({seed})\nsource:\n{}",
                scenario.source
            );
        }
        // The paper's guarantee carries over to the value-producing
        // execution: accepted ⇒ no misses, no overflows.
        assert!(
            report.meets_real_time_constraints(),
            "seed {seed}: accepted program missed deadlines or overflowed: {:?}\nsource:\n{}",
            report.trace,
            scenario.source
        );
        for (name, cap, occ) in &report.buffers {
            assert!(
                occ <= cap,
                "seed {seed}: buffer {name} exceeded its capacity"
            );
        }
    }
    assert!(
        checked >= program_seeds() as u32 * 3 / 4,
        "most generated programs must compile and be checked \
         ({checked} checked, {rejected} rejected)"
    );
}

#[test]
fn pal_decoder_runtime_matches_simulator_with_zero_misses() {
    // The case study of paper Section VI, with the real DSP kernels: the
    // interpreter must reproduce the simulator's trace bit for bit and meet
    // every real-time constraint at CTA-sized buffers.
    let (compiled, _) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let registry = oil::pal::pal_registry();
    let graph = rtgraph::lower_with_registry(&compiled, &registry);
    let mut net = build_simulation_from_graph(&graph);
    let duration = picos(2e-3); // 12 800 RF samples, 8 000 display samples
    let config_warmup = 64;
    let (_, sim_trace) = net.run_traced(
        duration,
        &SimulationConfig {
            cores: 0,
            warmup_ticks: config_warmup,
        },
    );
    assert_eq!(sim_trace.total_misses(), 0, "simulator PAL baseline");
    assert_eq!(sim_trace.total_overflows(), 0, "simulator PAL baseline");

    let report = execute(
        &graph,
        &KernelLibrary::pal(),
        duration,
        &RtConfig {
            warmup_ticks: config_warmup,
            ..RtConfig::default()
        },
    );
    if let Some(divergence) = report.trace.first_divergence(&sim_trace) {
        panic!("PAL decoder diverges from the simulator: {divergence}");
    }
    assert_eq!(report.trace.total_misses(), 0);
    assert_eq!(report.trace.total_overflows(), 0);
    // The interpreter executed real DSP kernels: the speaker stream carries
    // the recovered audio tone, not zeros.
    let speakers = report.sink_values("speakers").expect("speaker stream");
    assert!(speakers.len() > 32, "collected {} samples", speakers.len());
    assert!(speakers.iter().any(|v| v.abs() > 1e-6));
}

// ---------------------------------------------------------------------------
// A hand-written pipeline (moved from `oil-rt`'s unit tests so tier-1 runs
// them).
// ---------------------------------------------------------------------------

fn pipeline_graph() -> rtgraph::RtGraph {
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
    let mut registry = FunctionRegistry::new();
    for f in ["f", "g", "init", "src", "snk"] {
        registry.register(FunctionSignature::pure(f, 1e-5));
    }
    let compiled = compile(PIPELINE, &registry, &CompilerOptions::default()).unwrap();
    rtgraph::lower(&compiled)
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
// Fixed-seed digest corpus (regression pinning, `scenario_sweep` convention).
// ---------------------------------------------------------------------------

/// Seeds pinned in the corpus file (a prefix of the sweep's seed range).
const CORPUS_SEEDS: u64 = 48;
const CORPUS_PATH: &str = "tests/data/runtime_corpus.txt";

/// The pinned pair of a corpus seed — the simulator's token-trace digest and
/// the interpreter's value-stream digest (`RtReport::values`) — or `None`
/// when the compiler (legitimately) rejects the scenario temporally.
fn corpus_digests(seed: u64) -> Option<(u64, u64)> {
    let scenario = ProgramScenario::generate(seed);
    let compiled = compile_scenario(&scenario)?;
    let warmup = warmup_ticks(&scenario);
    // The corpus duration is fixed (independent of the stress horizon) so
    // pinned digests stay valid in every CI configuration.
    let (trace, graph) = simulator_trace(&compiled, warmup, 0.2);
    let report = execute(
        &graph,
        &KernelLibrary::new(),
        picos(0.2),
        &RtConfig {
            warmup_ticks: warmup,
            ..RtConfig::default()
        },
    );
    Some((trace.digest(), report.values.digest()))
}

#[test]
fn corpus_digests_pin_the_observable_behaviour() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(CORPUS_PATH);
    if std::env::var_os("OIL_UPDATE_RUNTIME_CORPUS").is_some() {
        let mut out = String::from(
            "# Fixed-seed corpus: `<seed> <trace digest> <value digest>` or `<seed> rejected` per line.\n\
             # Generated by OIL_UPDATE_RUNTIME_CORPUS=1 cargo test --test runtime_differential corpus\n",
        );
        for seed in 0..CORPUS_SEEDS {
            match corpus_digests(seed) {
                Some((t, v)) => out.push_str(&format!("{seed} {t:016x} {v:016x}\n")),
                None => out.push_str(&format!("{seed} rejected\n")),
            }
        }
        std::fs::write(&path, out).expect("writing the corpus file");
        eprintln!("regenerated {}", path.display());
        return;
    }

    let corpus = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("corpus file {} missing: {e}", path.display()));
    let mut pinned = 0u32;
    for line in corpus.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (seed, expected) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("malformed corpus line `{line}`"));
        let seed: u64 = seed.parse().expect("corpus seed");
        let actual = corpus_digests(seed).map_or("rejected".to_string(), |(t, v)| {
            format!("{t:016x} {v:016x}")
        });
        assert_eq!(
            actual, expected,
            "seed {seed}: token-trace or value-stream digest changed — the observable behaviour \
             of this program regressed (or changed intentionally; then regenerate with \
             OIL_UPDATE_RUNTIME_CORPUS=1). Reproduce with ProgramScenario::generate({seed})."
        );
        pinned += 1;
    }
    assert!(pinned >= 32, "corpus too small: {pinned} pinned seeds");
}
