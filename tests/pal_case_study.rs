//! Integration test for the PAL decoder case study (paper Section VI):
//! analysis, simulation and the native signal path must all agree.

use oil::compiler::{compile, CompileError, CompilerOptions};
use oil::dataflow::Rational;
use oil::dsp::generator::dominant_frequency;
use oil::dsp::CompositeSignal;
use oil::pal::{analyze_pal, simulate_pal, NativePalDecoder, PAL_DECODER_OIL};
use oil::rt::{execute_staticsched, KernelLibrary, StaticConfig};
use oil::sim::picos;

#[test]
fn pal_program_compiles_and_matches_paper_structure() {
    let (compiled, analysis) = analyze_pal().expect("the PAL decoder is schedulable");
    // The application graph has the six leaf instances of Fig. 11 and the
    // seven channels (rf, mas, mvs, vid, aud, screen, speakers).
    assert_eq!(compiled.analyzed.graph.instances.len(), 6);
    assert_eq!(compiled.analyzed.graph.channels.len(), 7);
    // Rate-conversion factors of Fig. 12: gamma = 1/25, 10/16 and 1/8 —
    // exact equalities, straight from the exact-rational analysis.
    assert_eq!(
        analysis.channel_rates["aud"] / analysis.channel_rates["mas"],
        Rational::new(1, 25)
    );
    assert_eq!(
        analysis.channel_rates["vid"] / analysis.channel_rates["mvs"],
        Rational::new(10, 16)
    );
    assert_eq!(
        analysis.channel_rates["speakers"] / analysis.channel_rates["aud"],
        Rational::new(1, 8)
    );
    // Bounded audio/video skew.
    assert!(analysis.av_skew().unwrap() <= Rational::new(1, 1000));
}

#[test]
fn pal_simulation_validates_the_analysis() {
    let report = simulate_pal(2e-3).expect("simulation runs");
    assert!(report.meets_constraints(), "{:?}", report.metrics);
    assert!((report.screen_rate - 4e6).abs() / 4e6 < 0.05);
    assert!((report.speaker_rate - 32e3).abs() / 32e3 < 0.10);
}

#[test]
fn pal_native_path_recovers_the_audio_tone() {
    let mut decoder = NativePalDecoder::default();
    let mut signal = CompositeSignal::pal_default();
    let rf = signal.block(320_000);
    let out = decoder.decode(&rf);
    assert_eq!(out.video.len(), 320_000 * 10 / 16);
    assert_eq!(out.audio.len(), 320_000 / 200);
    let tone = dominant_frequency(&out.audio[out.audio.len() / 2..], 32_000.0);
    assert!((tone - 1000.0).abs() < 100.0, "recovered {tone} Hz");
}

#[test]
fn native_decoder_equals_the_static_engine_bit_for_bit() {
    // The hand-written sequential decoder is the reference the coordinated
    // one is held to: the same kernels, scheduled by hand, must yield the
    // engine's `screen` and `speakers` streams to the last bit.
    let config = oil::compiler::schedule::SynthesisConfig::default();
    let exe = oil::build(PAL_DECODER_OIL, &oil::pal::pal_registry(), 1, &config).expect("builds");
    let lib = KernelLibrary::pal();
    let report = execute_staticsched(
        &exe.graph,
        &exe.schedule,
        &lib,
        picos(10e-3),
        &StaticConfig::default(),
    );
    // 11 ms of RF: more than the engine's sources generate for 10 ms.
    let rf = CompositeSignal::pal_default().block(70_400);
    let native = NativePalDecoder::default().decode(&rf);
    for (sink, stream, at_least) in [
        ("screen", &native.video, 40_000),
        ("speakers", &native.audio, 320),
    ] {
        let engine = report.sink_values(sink).expect("a PAL sink");
        assert!(
            (at_least..=stream.len()).contains(&engine.len()),
            "{sink}: the engine delivered {} samples, the native decoder {}",
            engine.len(),
            stream.len()
        );
        let first_difference = engine
            .iter()
            .zip(stream.iter())
            .position(|(e, n)| e.to_bits() != n.to_bits());
        assert_eq!(
            first_difference, None,
            "{sink}: the first sample that differs"
        );
    }
}

#[test]
fn pal_source_text_is_self_contained() {
    // The program text itself is a deliverable: it must keep parsing and
    // naming the modules the paper names.
    let program = oil::lang::parse_program(PAL_DECODER_OIL).unwrap();
    for name in ["SRC_A", "SRC_V", "Mix_A", "LPF_V", "Splitter"] {
        assert!(program.module(name).is_some(), "module {name} missing");
    }
}

#[test]
fn pal_through_build_schedules_as_the_hand_written_pipeline() {
    // `oil::build` replaces compile → lower → plan → synthesize at every
    // call site; on the case study the two must agree digest for digest.
    use oil::compiler::rtgraph;
    use oil::compiler::schedule::{synthesize, SynthesisConfig};

    let config = SynthesisConfig::default();
    let (compiled, _) = analyze_pal().expect("the PAL decoder is schedulable");
    let graph = rtgraph::lower_with_registry(&compiled, &oil::pal::pal_registry());
    let plan = rtgraph::plan(&graph);
    for workers in [1, 2] {
        let by_hand = synthesize(&graph, &plan, workers, &config).expect("schedulable");
        let registry = oil::pal::pal_registry();
        let exe = oil::build(PAL_DECODER_OIL, &registry, workers, &config).expect("builds");
        assert_eq!(exe.graph, graph, "{workers} worker(s)");
        assert_eq!(exe.plan, plan, "{workers} worker(s)");
        assert_eq!(
            exe.schedule.digest(),
            by_hand.digest(),
            "{workers} worker(s)"
        );
    }
}

/// PAL compiled with one literal replaced.
fn compile_pal_with(from: &str, to: &str) -> Result<oil::compiler::CompiledProgram, CompileError> {
    assert!(PAL_DECODER_OIL.contains(from), "{from}");
    let source = PAL_DECODER_OIL.replace(from, to);
    compile(
        &source,
        &oil::pal::pal_registry(),
        &CompilerOptions::default(),
    )
}

#[test]
fn over_precise_rf_rate_is_analysed_exactly() {
    // One part in 10^20 above 6.4 MHz is not 6.4 MHz: the exact rate reaching
    // the 4 MHz screen through the 10/16 resampler conflicts with it.
    let err = compile_pal_with("@ 6.4 MHz", "@ 6.40000000000000000001 MHz")
        .expect_err("the exact composition misses the screen's 4 MHz");
    let text = err.to_string();
    assert!(
        matches!(err, CompileError::Temporal(_)),
        "expected a rate conflict, got {text}"
    );
    assert!(
        text.contains("640000000000000000001/160000000000000 Hz"),
        "{text}"
    );
}

#[test]
fn sub_picosecond_latency_amounts_compile_or_are_refused_at_the_literal() {
    // `start screen 10^-k ms after speakers` for k = 0..=40: each amount is
    // either carried exactly through the analysis or refused by the parser
    // with a span on the literal, in seconds, the unit the analyses use.
    // None may panic.
    let mut verdicts = Vec::new();
    for k in 0..=40usize {
        let amount = match k {
            0 => "1".to_string(),
            k => format!("0.{}1", "0".repeat(k - 1)),
        };
        let verdict = match compile_pal_with(
            "start screen 0 ms after speakers",
            &format!("start screen {amount} ms after speakers"),
        ) {
            Ok(_) => 'c',
            Err(CompileError::Frontend(diags)) => {
                assert!(
                    diags.iter().any(|d| d.message.contains("exact rational")
                        && d.span.line > 0
                        && d.span.start < d.span.end),
                    "k = {k}: {diags:?}"
                );
                'f'
            }
            Err(other) => panic!("k = {k}: {other}"),
        };
        verdicts.push(verdict);
    }
    // 10^-35 ms is 10^-38 s, the last power of ten an i128 denominator holds.
    let expected: String = (0..=40).map(|k| if k <= 35 { 'c' } else { 'f' }).collect();
    assert_eq!(verdicts.into_iter().collect::<String>(), expected);
}
