//! Integration test for the PAL decoder case study (paper Section VI):
//! analysis, simulation and the native signal path must all agree.

use oil::dataflow::Rational;
use oil::dsp::generator::dominant_frequency;
use oil::dsp::CompositeSignal;
use oil::pal::{analyze_pal, simulate_pal, NativePalDecoder, PAL_DECODER_OIL};

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
