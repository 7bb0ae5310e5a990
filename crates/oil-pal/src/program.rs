//! The OIL source of the PAL decoder (paper Fig. 11) and its function
//! registry.

use oil_lang::FunctionRegistry;

/// The PAL decoder as a hierarchical OIL program, following the paper's
/// Fig. 11: a `Splitter` parallel module containing the two rate-conversion
/// chains, the black-box `Video` and `Audio` modules, the 6.4 MS/s RF source,
/// the 4 MS/s display sink and the 32 kS/s speaker sink, and the zero
/// audio/video skew constraint expressed as a pair of latency constraints.
pub const PAL_DECODER_OIL: &str = r#"
// Audio sample-rate converter: low-pass + decimate by 25 (6.4 MS/s -> 256 kS/s).
mod seq SRC_A(sample si, out sample so){
    loop{
        LPF(si:25, out so);
    } while(1);
}

// Video resampler: 16 input samples become 10 output samples (6.4 MS/s -> 4 MS/s).
mod seq SRC_V(sample si, out sample so){
    loop{
        resamp(si:16, out so:10);
    } while(1);
}

// Mixes the audio carrier down to zero.
mod seq Mix_A(sample rf, out sample mas){
    loop{
        mix(rf, out mas);
    } while(1);
}

// Removes the audio band from the video signal.
mod seq LPF_V(sample rf, out sample mvs){
    loop{
        lpf_v(rf, out mvs);
    } while(1);
}

// The splitter: both rate-conversion chains execute concurrently.
mod par Splitter(sample rf, out sample v, out sample a){
    fifo sample mas, mvs;
    Mix_A(rf, out mas) || SRC_A(mas, out a) ||
    LPF_V(rf, out mvs) || SRC_V(mvs, out v)
}

// Top level: RF front end, display and speaker sinks, black-box Video and
// Audio modules, and the zero audio/video skew requirement.
mod par {
    fifo sample vid, aud;
    source sample rf = receiveRF() @ 6.4 MHz;
    sink sample screen = display() @ 4 MHz;
    sink sample speakers = sound() @ 32 kHz;
    start screen 0 ms after speakers;
    start screen 0 ms before speakers;
    Splitter(rf, out vid, out aud) ||
    Video(vid, out screen) || Audio(aud, out speakers)
}
"#;

/// The registry describing the decoder's kernels and the black-box `Video`
/// and `Audio` interfaces to the compiler (re-exported from `oil-dsp`).
pub fn pal_registry() -> FunctionRegistry {
    oil_dsp::dsp_registry(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_lang::ast::ModuleKind;

    #[test]
    fn pal_program_parses() {
        let p = oil_lang::parse_program(PAL_DECODER_OIL).unwrap();
        assert_eq!(p.modules.len(), 6);
        assert_eq!(p.module("Splitter").unwrap().kind, ModuleKind::Par);
        assert!(p.top_module().unwrap().name.is_none());
    }

    #[test]
    fn pal_program_passes_semantic_analysis() {
        let analyzed = oil_lang::frontend(PAL_DECODER_OIL, &pal_registry()).unwrap();
        // Leaf instances: Mix_A, SRC_A, LPF_V, SRC_V, Video, Audio.
        assert_eq!(analyzed.graph.instances.len(), 6);
        // Channels: mas, mvs, vid, aud, rf, screen, speakers.
        assert_eq!(analyzed.graph.channels.len(), 7);
        assert_eq!(analyzed.graph.sources().count(), 1);
        assert_eq!(analyzed.graph.sinks().count(), 2);
        assert_eq!(analyzed.graph.latencies.len(), 2);
        // The two black boxes are recognised from the registry.
        let bb: Vec<&str> = analyzed
            .graph
            .instances
            .iter()
            .filter(|i| i.black_box)
            .map(|i| i.module_name.as_str())
            .collect();
        assert_eq!(bb, vec!["Video", "Audio"]);
    }

    #[test]
    fn rf_source_rate_is_6_4_mhz() {
        let analyzed = oil_lang::frontend(PAL_DECODER_OIL, &pal_registry()).unwrap();
        let (_, rf) = analyzed.graph.channel_named("rf").unwrap();
        let hz = |n| Some(oil_dataflow::Rational::from_int(n));
        assert_eq!(rf.kind.rate_hz(), hz(6_400_000));
        let (_, screen) = analyzed.graph.channel_named("screen").unwrap();
        assert_eq!(screen.kind.rate_hz(), hz(4_000_000));
        let (_, speakers) = analyzed.graph.channel_named("speakers").unwrap();
        assert_eq!(speakers.kind.rate_hz(), hz(32_000));
    }
}
