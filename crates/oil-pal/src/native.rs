//! The hand-written sequential PAL decoder: the reference the coordinated
//! one is held to.
//!
//! The OIL program coordinates `oil_dsp::pal`'s kernels; this module runs
//! the same kernels in a loop written by hand, single-threaded, with the
//! multi-rate schedule spelled out: the paper's sequential program. Its
//! passes have the static engine's shapes — the batch rule of
//! `oil_compiler::schedule` gives PAL's video chain passes of 1024 RF
//! samples and its audio chain passes of 4000 — and its streams equal the
//! engine's `screen` and `speakers` sinks bit for bit
//! (`tests/pal_case_study.rs`).

use oil_compiler::schedule::{FUSED_BATCH_MAX, FUSED_BATCH_TOKENS};
use oil_dsp::{pal, Decimator, FirFilter, Mixer, RationalResampler, Sample};

/// RF samples per pass of a chain whose period reads `period` of them (its
/// widest stage): the static engine's batch rule, `FUSED_BATCH_TOKENS`
/// through the widest stage, at most `FUSED_BATCH_MAX` periods.
const fn pass(period: u64) -> usize {
    let by = FUSED_BATCH_TOKENS / period;
    let by = if by > FUSED_BATCH_MAX {
        FUSED_BATCH_MAX
    } else {
        by
    };
    (by * period) as usize
}

/// `lpf_v → resamp → Video`: 16 RF samples a period, 64 periods a pass.
const VIDEO_PASS: usize = pass(16);
/// `mix → LPF → Audio`: 200 RF samples a period, 20 periods a pass.
const AUDIO_PASS: usize = pass(200);

/// Output of running the native decoder over a block of RF samples.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeDecodeOutput {
    /// Video samples at 4 MS/s.
    pub video: Vec<Sample>,
    /// Audio samples at 32 kS/s.
    pub audio: Vec<Sample>,
}

/// The reference decoder: the splitter's two chains (mixer and `LPF`;
/// `lpf_v` and the 10/16 resampler) and the black boxes (the one-tap
/// `Video` filter at 4 MS/s, the `Audio` decimation by 8 with a mute
/// control).
#[derive(Debug, Clone)]
pub struct NativePalDecoder {
    mix: Mixer,
    lpf: Decimator,
    audio: Decimator,
    lpf_v: FirFilter,
    resamp: RationalResampler,
    video: FirFilter,
    /// One pass's first and second stage outputs, reused by every pass.
    scratch: [Vec<Sample>; 2],
    /// When true the Audio module outputs silence (the paper mentions the
    /// black-box Audio module mutes its output on bad reception — the modal
    /// behaviour hidden inside the black box).
    pub mute: bool,
}

impl Default for NativePalDecoder {
    fn default() -> Self {
        Self::new(pal::AUDIO_CARRIER_HZ)
    }
}

impl NativePalDecoder {
    /// Create a decoder whose audio carrier sits at `audio_carrier_hz`.
    pub fn new(audio_carrier_hz: f64) -> Self {
        NativePalDecoder {
            mix: pal::mix(audio_carrier_hz),
            lpf: pal::lpf(),
            audio: pal::audio(),
            lpf_v: pal::lpf_v(),
            resamp: pal::resamp(),
            video: pal::video(),
            scratch: [
                Vec::with_capacity(AUDIO_PASS),
                Vec::with_capacity(VIDEO_PASS),
            ],
            mute: false,
        }
    }

    /// Decode a block of RF samples (sampled at 6.4 MS/s), continuing the
    /// stream of the previous call: `decode(a)` then `decode(b)` yields
    /// what `decode(a ++ b)` would.
    ///
    /// The RF goes through each chain in passes of the engine's size, each
    /// stage writing into a pass-sized scratch buffer the next pass reuses,
    /// and the last stage appending to the returned streams, which are
    /// sized once. Nothing proportional to `rf` is allocated but the
    /// output.
    pub fn decode(&mut self, rf: &[Sample]) -> NativeDecodeOutput {
        let (up, down) = (self.resamp.up, self.resamp.down);
        let at_256k = rf.len().div_ceil(self.lpf.factor);
        let mut out = NativeDecodeOutput {
            video: Vec::with_capacity((rf.len() * up).div_ceil(down)),
            audio: Vec::with_capacity(at_256k.div_ceil(self.audio.factor)),
        };
        let [first, second] = &mut self.scratch;
        for pass in rf.chunks(VIDEO_PASS) {
            first.clear();
            second.clear();
            self.lpf_v.process_block_into(pass, first);
            self.resamp.process_into(first, second);
            self.video.process_block_into(second, &mut out.video);
        }
        for pass in rf.chunks(AUDIO_PASS) {
            first.clear();
            second.clear();
            self.mix.process_into(pass, first);
            self.lpf.process_into(first, second);
            self.audio.process_into(second, &mut out.audio);
        }
        if self.mute {
            out.audio.fill(0.0);
        }
        out
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
    fn passes_have_the_static_engines_shapes() {
        assert_eq!((VIDEO_PASS, AUDIO_PASS), (1024, 4000));
    }

    fn bits(out: &NativeDecodeOutput) -> (Vec<u64>, Vec<u64>) {
        let bits = |s: &[Sample]| s.iter().map(|x| x.to_bits()).collect();
        (bits(&out.video), bits(&out.audio))
    }

    #[test]
    fn decode_is_chunk_invariant() {
        // Three passes of each chain and a ragged tail.
        let rf = CompositeSignal::pal_default().block(3 * AUDIO_PASS + 777);
        let whole = NativePalDecoder::default().decode(&rf);
        // Pass boundaries, one sample either side of them, and 5 001: a
        // multiple of neither pass size.
        for split in [
            0,
            1,
            VIDEO_PASS - 1,
            VIDEO_PASS,
            AUDIO_PASS + 1,
            5_001,
            rf.len(),
        ] {
            let mut decoder = NativePalDecoder::default();
            let (a, b) = (decoder.decode(&rf[..split]), decoder.decode(&rf[split..]));
            let joined = NativeDecodeOutput {
                video: [a.video, b.video].concat(),
                audio: [a.audio, b.audio].concat(),
            };
            assert_eq!(bits(&joined), bits(&whole), "split at {split}");
        }
        // Muted, in three calls: silent audio, the same video.
        let mut muted = NativePalDecoder {
            mute: true,
            ..Default::default()
        };
        let (mut video, mut audio) = (Vec::new(), Vec::new());
        for part in [&rf[..5_001], &rf[5_001..9_999], &rf[9_999..]] {
            let out = muted.decode(part);
            video.extend(out.video);
            audio.extend(out.audio);
        }
        assert_eq!(audio.len(), whole.audio.len());
        assert!(audio.iter().all(|s| s.to_bits() == 0));
        let video = NativeDecodeOutput {
            video,
            audio: whole.audio.clone(),
        };
        assert_eq!(bits(&video), bits(&whole));
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
