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
pub fn dsp_registry(scale: f64) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    let t = |seconds: f64| seconds * scale;

    // Generic kernels used by the smaller examples.
    for (name, rt) in [
        ("f", 1e-7),
        ("g", 1e-7),
        ("h", 1e-7),
        ("k", 1e-7),
        ("init", 1e-8),
        ("src", 1e-8),
        ("snk", 1e-8),
    ] {
        reg.register(FunctionSignature::pure(name, t(rt)));
    }

    // PAL decoder kernels (Fig. 11 of the paper). The RF front end runs at
    // 6.4 MS/s, so per-sample work must stay well below 156 ns.
    reg.register(FunctionSignature::stateful("receiveRF", t(2e-8)));
    reg.register(FunctionSignature::stateful("display", t(5e-8)));
    reg.register(FunctionSignature::stateful("sound", t(5e-8)));
    reg.register(FunctionSignature::stateful("mix", t(4e-8)));
    reg.register(FunctionSignature::stateful("Mix", t(4e-8)));
    reg.register(FunctionSignature::stateful("LPF", t(2e-6)));
    reg.register(FunctionSignature::stateful("LPF_V", t(8e-8)));
    reg.register(FunctionSignature::stateful("lpf_v", t(8e-8)));
    reg.register(FunctionSignature::stateful("resamp", t(1.5e-6)));

    // Black-box modules known only by their temporal interface: the Video
    // module processes one sample per firing at 4 MS/s; the Audio module
    // consumes 8 samples and produces 1 (the final downsampling to 32 kS/s).
    reg.register_black_box(BlackBoxInterface::new("Video", vec![1], vec![1], t(1.2e-7)));
    reg.register_black_box(BlackBoxInterface::new("Audio", vec![8], vec![1], t(2e-5)));

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
        // `scale` multiplies in f64 before the registry converts, so the
        // scaled time is the double nearest 20 µs, not 20 µs exactly.
        let ratio = slow.response_time("LPF") / fast.response_time("LPF");
        assert!((ratio.to_f64() - 10.0).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn kernels_are_side_effect_free() {
        let reg = dsp_registry(1.0);
        for f in reg.functions() {
            assert!(f.side_effect_free, "{} must be side-effect free", f.name);
        }
    }
}
