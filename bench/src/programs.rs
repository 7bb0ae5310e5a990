//! The programs the workloads run, and how `--seed` turns into inputs.
//!
//! The seed picks *data* (source streams, tones, mode scripts, which random
//! programs fill the corpus), never the *size* of the work: a metric must
//! read the same on every seed for the spread check to mean anything.

use oil::compiler::schedule::ModeScript;
use oil::dsp::{CompositeSignal, FirFilter};
use oil::gen::{GenRng, ModeDependentScenario, ProgramScenario};
use oil::lang::registry::{FunctionRegistry, FunctionSignature};
use oil::rt::{Kernel, KernelLibrary, SourceKernel};
use std::fmt::Write as _;

/// One OIL program with the registry that describes its functions.
pub struct Program {
    pub name: String,
    pub source: String,
    pub registry: FunctionRegistry,
    /// Channels whose exact rate (Hz) the program was constructed to hit.
    pub expected_rates: Vec<(&'static str, u64)>,
}

fn registry(functions: &[(&str, f64)]) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for &(name, response) in functions {
        reg.register(FunctionSignature::pure(name, response));
    }
    reg
}

/// Eight independent 4 kHz source → 2047-tap FIR → sink chains: kernel-bound
/// with free cuts (the legacy `runtime_throughput` bench's `wide`).
pub fn wide_program() -> Program {
    const CHAINS: usize = 8;
    let mut src = String::new();
    let _ = writeln!(
        src,
        "mod seq S(int a, out int b){{ loop{{ heavy(a, out b); }} while(1); }}"
    );
    let _ = writeln!(src, "mod par Top(){{");
    for i in 0..CHAINS {
        let _ = writeln!(src, "    source int x{i} = src() @ 4 kHz;");
        let _ = writeln!(src, "    sink int y{i} = snk() @ 4 kHz;");
    }
    let calls: Vec<String> = (0..CHAINS).map(|i| format!("S(x{i}, out y{i})")).collect();
    let _ = writeln!(src, "    {}\n}}", calls.join(" || "));
    Program {
        name: "wide".into(),
        source: src,
        // The declared response (75 % of the period) is the virtual-time
        // budget; the wall-clock kernel costs real microseconds.
        registry: registry(&[("heavy", 1.875e-4), ("src", 1e-7), ("snk", 1e-7)]),
        expected_rates: vec![("x0", 4000), ("y7", 4000)],
    }
}

/// `wide`'s kernels; `seed` keys the eight source streams.
pub fn wide_library(seed: u64) -> KernelLibrary {
    let mut lib = KernelLibrary::new();
    lib.register(
        "heavy",
        Box::new(|| Kernel::Fir(FirFilter::low_pass(200.0, 4_000.0, 2047))),
    );
    seed_source(&mut lib, "src", seed);
    lib
}

/// An FM-receiver-style chain at radio-ish rates (the legacy bench's `sdr`).
pub fn sdr_program() -> Program {
    Program {
        name: "sdr".into(),
        source: r#"
        mod seq Decim(int a, out int b){ loop{ f0(a:8, out b); } while(1); }
        mod seq Demod(int a, out int b){ loop{ f1(a, out b); } while(1); }
        mod seq Resamp(int a, out int b){ loop{ f2(a:2, out b:3); } while(1); }
        mod par Top(){
            fifo int ifs, af;
            source int x = src() @ 512 kHz;
            sink int y = snk() @ 96 kHz;
            Decim(x, out ifs) || Demod(ifs, out af) || Resamp(af, out y)
        }
        "#
        .into(),
        registry: registry(&[
            ("f0", 1e-5),
            ("f1", 1e-5),
            ("f2", 2e-5),
            ("src", 1e-7),
            ("snk", 1e-7),
        ]),
        expected_rates: vec![("x", 512_000), ("y", 96_000)],
    }
}

/// A one-node `p:q` rate converter between sources and sinks at `10p`/`10q` Hz.
fn converter_program(p: u64, q: u64) -> Program {
    Program {
        name: format!("conv{p}_{q}"),
        source: format!(
            "mod seq R(int a, out int b){{ loop{{ f(a:{p}, out b:{q}); }} while(1); }}\n\
             mod par Top(){{\n    source int x = src() @ {} Hz;\n    sink int y = snk() @ {} Hz;\n    \
             R(x, out y)\n}}\n",
            10 * p,
            10 * q
        ),
        registry: registry(&[("f", 1e-3), ("src", 1e-7), ("snk", 1e-7)]),
        expected_rates: vec![("x", 10 * p), ("y", 10 * q)],
    }
}

pub const PIPELINE_STAGES: [usize; 5] = [4, 8, 16, 24, 32];
pub const CONVERTERS: [(u64, u64); 4] = [(3, 2), (16, 10), (147, 160), (441, 480)];
pub const GENERATED_PROGRAMS: u64 = 50;

/// The compile corpus: the fixed programs whose size and rate ratios span
/// what compile cost depends on, plus `GENERATED_PROGRAMS` seeded random
/// ones. `smoke` keeps the small members only.
pub fn compile_corpus(seed: u64, smoke: bool) -> Vec<Program> {
    let bench_reg = || oil_bench::bench_registry(1e-6);
    let mut corpus = vec![
        Program {
            name: "pal".into(),
            source: oil::pal::PAL_DECODER_OIL.into(),
            registry: oil::pal::pal_registry(),
            expected_rates: vec![
                ("rf", 6_400_000),
                ("aud", 256_000),
                ("vid", 4_000_000),
                ("speakers", 32_000),
            ],
        },
        sdr_program(),
        wide_program(),
        Program {
            name: "fig2c".into(),
            source: oil_bench::fig2c_source().into(),
            registry: bench_reg(),
            // No source pins Fig. 2c's rates; `corpus` checks x == y instead.
            expected_rates: vec![],
        },
        Program {
            name: "fig6".into(),
            source: oil_bench::fig6_source().into(),
            registry: bench_reg(),
            expected_rates: vec![("x", 1000), ("y", 1000)],
        },
    ];
    let stages = if smoke {
        &PIPELINE_STAGES[..2]
    } else {
        &PIPELINE_STAGES[..]
    };
    corpus.extend(stages.iter().map(|&k| Program {
        name: format!("pipeline{k}"),
        source: oil_bench::pipeline_source(k, 1000.0),
        registry: bench_reg(),
        expected_rates: vec![("x", 1000), ("y", 1000)],
    }));
    corpus.extend(CONVERTERS.iter().map(|&(p, q)| converter_program(p, q)));
    let generated = if smoke { 8 } else { GENERATED_PROGRAMS };
    corpus.extend((0..generated).map(|i| {
        let s = ProgramScenario::generate(seed.wrapping_mul(1000).wrapping_add(i));
        Program {
            name: format!("gen{}", s.seed),
            expected_rates: vec![("x", s.source_hz), ("y", s.sink_hz)],
            source: s.source,
            registry: s.registry,
        }
    }));
    corpus
}

/// Tones whose exact period at 6.4 MS/s has the same table length as the
/// case study's defaults (1 kHz audio, 50 kHz video), so every seed pays
/// the same per-sample source cost.
const AUDIO_TONES_HZ: [f64; 2] = [1_000.0, 3_000.0];
const VIDEO_TONES_HZ: [f64; 6] = [50e3, 150e3, 350e3, 450e3, 550e3, 650e3];

/// The seeded PAL front-end signal: which audio tone rides the 2 MHz
/// carrier and which video tone sits in the base band.
pub fn pal_signal(seed: u64) -> (CompositeSignal, f64) {
    let mut rng = GenRng::new(seed ^ 0x9A1_51C0);
    let audio = *rng.pick(&AUDIO_TONES_HZ);
    let video = *rng.pick(&VIDEO_TONES_HZ);
    (CompositeSignal::new(6.4e6, video, audio, 2.0e6), audio)
}

/// `KernelLibrary::pal()` with the seeded front-end signal as RF source.
pub fn pal_library(seed: u64) -> KernelLibrary {
    let mut lib = KernelLibrary::pal();
    lib.register_source(
        "receiveRF",
        Box::new(move || SourceKernel::Composite(Box::new(pal_signal(seed).0))),
    );
    lib
}

fn seed_source(lib: &mut KernelLibrary, function: &str, seed: u64) {
    let key = GenRng::new(seed)
        .fork(
            function
                .bytes()
                .fold(0u64, |h, b| h.wrapping_mul(131) ^ b as u64),
        )
        .next_u64();
    lib.register_source(
        function,
        Box::new(move || SourceKernel::Synthetic { key, n: 0 }),
    );
}

/// The modal workload: a generated mode-dependent graph, the script that
/// cycles its arms, and the virtual horizon of one repeat.
pub struct ModalInput {
    pub scenario: ModeDependentScenario,
    pub library: KernelLibrary,
    /// Virtual seconds of one modal firing.
    pub modal_period_s: f64,
}

pub const MODAL_SWITCHES: u64 = 64;

impl ModalInput {
    /// The generator seed of the first scenario from `seed·1000` on of the
    /// one shape the workload is defined on: arms reading 1, 2 and 3 tokens
    /// and writing 2, 3 and 4, a front node per arm, the shared read. The
    /// firing mix — and with it ns/firing, which spans 55–77 ns over
    /// unrestricted scenarios — is then the same on every seed; the seed
    /// still draws the base rate, the mode script's starting arm and all
    /// sample data. (Searching is input generation, not set-up: it is not
    /// part of `setup_s`.)
    pub fn scenario_seed(seed: u64) -> u64 {
        (seed.wrapping_mul(1000)..)
            .find(|&s| {
                let s = ModeDependentScenario::generate(s);
                s.fronted && s.shared_read && s.rates == [1, 2, 3] && s.write_counts == [2, 3, 4]
            })
            .expect("one scenario in 432 has the shape")
    }

    /// The scenario of `scenario_seed` with source streams keyed by `seed`.
    pub fn generate(scenario_seed: u64, seed: u64) -> Self {
        let scenario = ModeDependentScenario::generate(scenario_seed);
        let mut library = KernelLibrary::new();
        for source in scenario.graph.sources.iter() {
            seed_source(&mut library, &source.function, seed);
        }
        ModalInput {
            modal_period_s: 1.0 / scenario.base_hz as f64,
            scenario,
            library,
        }
    }

    /// `MODAL_SWITCHES` switch points cycling the arms from a seeded
    /// starting arm, for a run whose sources are budgeted for `budget`
    /// modal firings each. An arm's private source is drawn on only while
    /// that arm is active, so cycling the arms evenly sustains
    /// `arms × budget` firings; the switches are spread over 90 % of that,
    /// which leaves every arm short of running dry (the engine stops the
    /// run there) until after the last switch.
    pub fn script(&self, seed: u64, budget: u64) -> ModeScript {
        let arms = self.scenario.arms as u64;
        let span = arms * budget * 9 / 10;
        let first = GenRng::new(seed ^ 0x005C_2197).below(arms);
        let switches = (1..=MODAL_SWITCHES)
            .map(|i| (i * span / (MODAL_SWITCHES + 1), ((first + i) % arms) as u32))
            .collect();
        ModeScript::new(first as u32, switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_corpus_has_sixty_four_programs_and_follows_the_seed() {
        let a = compile_corpus(3, false);
        assert_eq!(a.len(), 64);
        let b = compile_corpus(3, false);
        let c = compile_corpus(4, false);
        let sources = |c: &[Program]| c.iter().map(|p| p.source.clone()).collect::<Vec<_>>();
        assert_eq!(sources(&a), sources(&b));
        assert_ne!(sources(&a), sources(&c));
        // The fixed members do not move with the seed.
        assert_eq!(sources(&a)[..14], sources(&c)[..14]);
        assert!(compile_corpus(3, true).len() < 32);
    }

    #[test]
    fn modal_inputs_share_one_shape_and_scripts_stay_in_range() {
        for seed in 0..8 {
            let found = ModalInput::scenario_seed(seed);
            let m = ModalInput::generate(found, seed);
            assert_eq!(found, ModalInput::scenario_seed(seed));
            assert_eq!(
                (m.scenario.arms, &m.scenario.rates[..]),
                (3, &[1, 2, 3][..])
            );
            let script = m.script(seed, 1_000_000);
            assert_eq!(script.switches.len() as u64, MODAL_SWITCHES);
            script.validate_arms(3).unwrap();
            assert!(script.switches.iter().all(|&(at, _)| at < 2_700_000));
        }
    }

    #[test]
    fn seeded_sources_differ_by_seed_and_function() {
        let first = |lib: &KernelLibrary, f: &str| lib.instantiate_source(f).next_sample();
        let (mut a, mut b) = (KernelLibrary::new(), KernelLibrary::new());
        seed_source(&mut a, "src", 1);
        seed_source(&mut a, "src0", 1);
        seed_source(&mut b, "src", 2);
        assert_ne!(first(&a, "src"), first(&b, "src"));
        assert_ne!(first(&a, "src"), first(&a, "src0"));
        assert_eq!(first(&a, "src"), first(&a, "src"));
    }
}
