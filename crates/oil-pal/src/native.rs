//! Functional reference implementation of the PAL decoder signal path.
//!
//! The OIL program coordinates the DSP kernels; this module wires the same
//! kernels together directly (single-threaded, no coordination layer) so the
//! functional behaviour of the decoder — audio tone recovery and the exact
//! output rates — can be checked independently of the temporal analysis.

use oil_dsp::{Decimator, FirFilter, Mixer, RationalResampler, Sample};

/// Output of running the native decoder over a block of RF samples.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeDecodeOutput {
    /// Video samples at 4 MS/s.
    pub video: Vec<Sample>,
    /// Audio samples at 32 kS/s.
    pub audio: Vec<Sample>,
}

/// The reference decoder: splitter (mixer + filters), the 1/25 and 10/16
/// sample-rate converters and the black-box stand-ins (video pass-through at
/// 4 MS/s, audio decimation by 8 with a mute control).
#[derive(Debug, Clone)]
pub struct NativePalDecoder {
    mix_a: Mixer,
    src_a: Decimator,
    lpf_v: FirFilter,
    src_v: RationalResampler,
    audio_final: Decimator,
    /// When true the Audio module outputs silence (the paper mentions the
    /// black-box Audio module mutes its output on bad reception — the modal
    /// behaviour hidden inside the black box).
    pub mute: bool,
}

impl Default for NativePalDecoder {
    fn default() -> Self {
        Self::new(2.0e6)
    }
}

impl NativePalDecoder {
    /// Create a decoder whose audio carrier sits at `audio_carrier_hz`.
    pub fn new(audio_carrier_hz: f64) -> Self {
        NativePalDecoder {
            mix_a: Mixer::new(audio_carrier_hz, 6.4e6),
            src_a: Decimator::new(25, 6.4e6, 63),
            lpf_v: FirFilter::low_pass(1.0e6, 6.4e6, 63),
            src_v: RationalResampler::new(10, 16, 6.4e6, 63),
            audio_final: Decimator::new(8, 256_000.0, 63),
            mute: false,
        }
    }

    /// Decode a block of RF samples (sampled at 6.4 MS/s).
    pub fn decode(&mut self, rf: &[Sample]) -> NativeDecodeOutput {
        // Audio path: mix the carrier to zero, low-pass + decimate by 25,
        // then the Audio black box decimates by 8 (and may mute).
        let mixed = self.mix_a.process(rf);
        let audio_256k = self.src_a.process(&mixed);
        let mut audio = self.audio_final.process(&audio_256k);
        if self.mute {
            audio.iter_mut().for_each(|s| *s = 0.0);
        }
        // Video path: remove the audio band, resample by 10/16; the Video
        // black box consumes the 4 MS/s stream unchanged.
        let video_band = self.lpf_v.process(rf);
        let video = self.src_v.process(&video_band);
        NativeDecodeOutput { video, audio }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_dsp::generator::{dominant_frequency, rms};
    use oil_dsp::CompositeSignal;

    #[test]
    fn output_rates_are_4mhz_and_32khz() {
        let mut decoder = NativePalDecoder::default();
        let mut signal = CompositeSignal::pal_default();
        // 10 ms of RF at 6.4 MS/s.
        let rf = signal.block(64_000);
        let out = decoder.decode(&rf);
        assert_eq!(out.video.len(), 64_000 * 10 / 16);
        assert_eq!(out.audio.len(), 64_000 / 25 / 8);
    }

    #[test]
    fn audio_tone_is_recovered() {
        let mut decoder = NativePalDecoder::new(2.0e6);
        let mut signal = CompositeSignal::new(6.4e6, 50_000.0, 1_000.0, 2.0e6);
        // 50 ms of RF so the 1 kHz tone completes many periods at 32 kS/s.
        let rf = signal.block(320_000);
        let out = decoder.decode(&rf);
        let audio_tail = &out.audio[out.audio.len() / 2..];
        let freq = dominant_frequency(audio_tail, 32_000.0);
        assert!((freq - 1_000.0).abs() < 100.0, "recovered {freq} Hz");
        assert!(rms(audio_tail) > 0.05);
    }

    #[test]
    fn video_band_survives_and_audio_carrier_is_removed() {
        let mut decoder = NativePalDecoder::default();
        let mut signal = CompositeSignal::pal_default();
        let rf = signal.block(128_000);
        let out = decoder.decode(&rf);
        let video_tail = &out.video[out.video.len() / 2..];
        // The 50 kHz video content is preserved in the 4 MS/s stream.
        let freq = dominant_frequency(video_tail, 4.0e6);
        assert!(
            (freq - 50_000.0).abs() < 10_000.0,
            "video content at {freq} Hz"
        );
    }

    #[test]
    fn mute_silences_audio_only() {
        let mut decoder = NativePalDecoder {
            mute: true,
            ..Default::default()
        };
        let mut signal = CompositeSignal::pal_default();
        let rf = signal.block(64_000);
        let out = decoder.decode(&rf);
        assert!(out.audio.iter().all(|&s| s == 0.0));
        assert!(rms(&out.video) > 0.0);
    }
}
