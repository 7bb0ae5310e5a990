//! The function registry describing the DSP kernels to the OIL compiler.
//!
//! Response times correspond to the worst-case execution times of the kernels
//! on the embedded multi-core platform the paper targets; on the simulator
//! they are configuration parameters. The registry also declares the temporal
//! interfaces of the two black-box modules of the PAL decoder (`Video` and
//! `Audio`), which the paper only knows by their rates and delays.

use oil_lang::registry::{BlackBoxInterface, FunctionRegistry, FunctionSignature};

/// Build the registry used by the examples and the PAL case study.
///
/// `scale` multiplies every response time; `1.0` gives the defaults (which
/// comfortably sustain the PAL rates), larger values model slower processors
/// and eventually make the temporal constraints unsatisfiable — useful for
/// the benches that probe where analysis starts rejecting programs.
///
/// Each time is written as `units / per_second` seconds and scaled as
/// `units · scale / per_second`: one IEEE division of an exact product by an
/// exact power of ten, rounded once. For an integer `scale` the registered
/// `f64` is therefore the double nearest the exact scaled time, which the
/// registry reads back as that exact decimal (`dsp_registry(10.0)` gives
/// `LPF` 1/50 000 s); at `scale = 1` it is the double of the literal
/// `units / per_second`.
pub fn dsp_registry(scale: f64) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    let t = |units: f64, per_second: f64| units * scale / per_second;

    // Generic kernels used by the smaller examples.
    for (name, rt) in [
        ("f", t(1.0, 1e7)),
        ("g", t(1.0, 1e7)),
        ("h", t(1.0, 1e7)),
        ("k", t(1.0, 1e7)),
        ("init", t(1.0, 1e8)),
        ("src", t(1.0, 1e8)),
        ("snk", t(1.0, 1e8)),
    ] {
        reg.register(FunctionSignature::pure(name, rt));
    }

    // PAL decoder kernels (Fig. 11 of the paper). The RF front end runs at
    // 6.4 MS/s, so per-sample work must stay well below 156 ns.
    reg.register(FunctionSignature::stateful("receiveRF", t(2.0, 1e8)));
    reg.register(FunctionSignature::stateful("display", t(5.0, 1e8)));
    reg.register(FunctionSignature::stateful("sound", t(5.0, 1e8)));
    reg.register(FunctionSignature::stateful("mix", t(4.0, 1e8)));
    reg.register(FunctionSignature::stateful("Mix", t(4.0, 1e8)));
    reg.register(FunctionSignature::stateful("LPF", t(2.0, 1e6)));
    reg.register(FunctionSignature::stateful("LPF_V", t(8.0, 1e8)));
    reg.register(FunctionSignature::stateful("lpf_v", t(8.0, 1e8)));
    reg.register(FunctionSignature::stateful("resamp", t(15.0, 1e7)));

    // Black-box modules known only by their temporal interface: the Video
    // module processes one sample per firing at 4 MS/s; the Audio module
    // consumes 8 samples and produces 1 (the final downsampling to 32 kS/s).
    reg.register_black_box(BlackBoxInterface::new(
        "Video",
        vec![1],
        vec![1],
        t(12.0, 1e8),
    ));
    reg.register_black_box(BlackBoxInterface::new(
        "Audio",
        vec![8],
        vec![1],
        t(2.0, 1e5),
    ));

    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_dataflow::Rational;

    #[test]
    fn registry_contains_pal_functions() {
        let reg = dsp_registry(1.0);
        for f in [
            "receiveRF",
            "display",
            "sound",
            "LPF",
            "resamp",
            "Mix_A_is_not_a_function",
        ] {
            if f == "Mix_A_is_not_a_function" {
                assert!(!reg.is_known(f));
            } else {
                assert!(reg.is_known(f), "missing {f}");
            }
        }
        assert!(reg.black_box("Video").is_some());
        assert_eq!(reg.black_box("Audio").unwrap().consumption, vec![8]);
    }

    #[test]
    fn response_times_fit_the_rf_rate() {
        let reg = dsp_registry(1.0);
        let rf_period = Rational::new(1, 6_400_000);
        for f in ["receiveRF", "LPF_V", "mix"] {
            assert!(
                reg.response_time(f) < rf_period,
                "{f} too slow for 6.4 MS/s"
            );
        }
    }

    #[test]
    fn scale_multiplies_response_times() {
        let fast = dsp_registry(1.0);
        let slow = dsp_registry(10.0);
        // At scale 1 each time is the double of its decimal literal (no time
        // is zero or NaN, so `==` is bit identity).
        for (name, literal) in [
            ("f", 1e-7),
            ("src", 1e-8),
            ("receiveRF", 2e-8),
            ("display", 5e-8),
            ("mix", 4e-8),
            ("LPF", 2e-6),
            ("lpf_v", 8e-8),
            ("resamp", 1.5e-6),
        ] {
            assert_eq!(
                fast.function(name).unwrap().response_time,
                literal,
                "{name}"
            );
        }
        for (name, literal) in [("Video", 1.2e-7), ("Audio", 2e-5)] {
            assert_eq!(
                fast.black_box(name).unwrap().response_time,
                literal,
                "{name}"
            );
        }
        assert_eq!(slow.response_time("LPF"), Rational::new(1, 50_000));
        for f in fast.functions() {
            let ratio = slow.response_time(&f.name) / fast.response_time(&f.name);
            assert_eq!(ratio, Rational::from_int(10), "{}", f.name);
        }
        for b in fast.black_boxes() {
            let ratio =
                slow.black_box_response_time(&b.name) / fast.black_box_response_time(&b.name);
            assert_eq!(ratio, Rational::from_int(10), "{}", b.name);
        }
    }

    #[test]
    fn kernels_are_side_effect_free() {
        let reg = dsp_registry(1.0);
        for f in reg.functions() {
            assert!(f.side_effect_free, "{} must be side-effect free", f.name);
        }
    }
}
