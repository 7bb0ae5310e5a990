//! Synthetic test-signal generators.
//!
//! The paper's PAL decoder receives a broadcast RF signal from an analog
//! front end sampled at 6.4 MS/s. That hardware is not available, so the
//! case study uses a synthetic composite signal with the same structure: a
//! low-frequency "video" band plus an "audio" tone modulated onto a carrier,
//! which exercises the same splitter / mixer / filter / resampler code path
//! (see DESIGN.md, substitutions table).

use crate::kept::Kept;
use crate::simd::extend_wide;
use crate::Sample;
use std::f64::consts::PI;
use std::sync::Arc;

/// Upper bound on a precomputed one-period sine table.
const MAX_TONE_TABLE: u64 = 1 << 16;

/// Shortest table kept: a shorter period is repeated a whole number of
/// times, so a block fill meets a table wrap every thousand samples, not
/// every sixteen (the PAL carrier's period).
const MIN_TONE_TABLE: usize = 1 << 10;

/// The smallest sample count `P ≤ MAX_TONE_TABLE` after which the tone
/// repeats exactly (`freq · P / rate` is a whole number of cycles), if any.
fn exact_period(freq_hz: f64, sample_rate_hz: f64) -> Option<usize> {
    if !freq_hz.is_finite() || freq_hz < 0.0 {
        return None;
    }
    (1..=MAX_TONE_TABLE)
        .find(|&p| (freq_hz * p as f64 / sample_rate_hz).fract() == 0.0)
        .map(|p| p as usize)
}

/// Oscillator tables kept for reuse, keyed by the exact bit patterns of
/// `(frequency, sample rate, amplitude)`: every engine run instantiates the
/// RF source's three tone generators and the mixer again, and a table is a
/// `sin` per entry after a period search of up to `MAX_TONE_TABLE` steps —
/// which a frequency *without* an exact period pays in full, so its empty
/// table is kept too.
static TABLES: Kept<(u64, u64, u64), Arc<[Sample]>> = Kept::new();

/// Whole exact periods of a sine oscillator of the given amplitude at
/// `freq_hz`/`sample_rate_hz` (empty when the period is not a whole number
/// of samples ≤ the table bound). Shared by [`ToneGenerator`] and the mixer
/// (amplitude 1: `1.0 * v` is `v` exactly).
pub(crate) fn oscillator_table(freq_hz: f64, sample_rate_hz: f64, amplitude: f64) -> Arc<[Sample]> {
    let key = (
        freq_hz.to_bits(),
        sample_rate_hz.to_bits(),
        amplitude.to_bits(),
    );
    TABLES.get_or_make(key, || {
        let Some(p) = exact_period(freq_hz, sample_rate_hz) else {
            return Arc::default();
        };
        let period: Vec<Sample> = (0..p)
            .map(|n| amplitude * (2.0 * PI * freq_hz * n as f64 / sample_rate_hz).sin())
            .collect();
        period.repeat(MIN_TONE_TABLE.div_ceil(p)).into()
    })
}

/// A sine-tone generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ToneGenerator {
    /// Tone frequency in Hz.
    pub freq_hz: f64,
    /// Sample rate in Hz.
    pub sample_rate_hz: f64,
    /// Amplitude.
    pub amplitude: f64,
    n: u64,
    /// Whole exact periods of samples when the tone's period is a whole
    /// (small) number of samples — the PAL front end synthesises tones at
    /// MS/s rates, and a table lookup beats a libm `sin` per sample by an
    /// order of magnitude. Entries are computed with the same closed-form
    /// expression the fallback path uses, at the in-period indices, so the
    /// table is at least as accurate (it avoids the large-argument `sin`).
    table: Arc<[Sample]>,
    /// `n mod table.len()`, maintained incrementally (a u64 modulo per
    /// sample costs more than the table load it indexes).
    idx: usize,
}

impl ToneGenerator {
    /// Create a tone generator.
    pub fn new(freq_hz: f64, sample_rate_hz: f64, amplitude: f64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let table = oscillator_table(freq_hz, sample_rate_hz, amplitude);
        ToneGenerator {
            freq_hz,
            sample_rate_hz,
            amplitude,
            n: 0,
            table,
            idx: 0,
        }
    }

    /// Produce the next sample.
    pub fn next_sample(&mut self) -> Sample {
        if self.table.is_empty() {
            let y = self.amplitude
                * (2.0 * PI * self.freq_hz * self.n as f64 / self.sample_rate_hz).sin();
            self.n += 1;
            return y;
        }
        let y = self.table[self.idx];
        self.idx += 1;
        if self.idx == self.table.len() {
            self.idx = 0;
        }
        self.n += 1;
        y
    }

    /// Produce a block of samples.
    pub fn block(&mut self, len: usize) -> Vec<Sample> {
        (0..len).map(|_| self.next_sample()).collect()
    }

    /// The next table entries up to the wrap, at most `max` of them (none
    /// without a table).
    fn run(&self, max: usize) -> &[Sample] {
        &self.table[self.idx..self.table.len().min(self.idx + max)]
    }

    /// Skip `by` samples, at most up to the table wrap.
    fn advance(&mut self, by: usize) {
        self.n += by as u64;
        self.idx += by;
        if self.idx == self.table.len() {
            self.idx = 0;
        }
    }
}

/// The synthetic stand-in for the PAL composite RF signal: a video band
/// (low-frequency content) plus an audio tone on a carrier.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeSignal {
    video: ToneGenerator,
    audio_baseband: ToneGenerator,
    carrier: ToneGenerator,
    /// Sample rate in Hz (6.4 MS/s for the PAL front end).
    pub sample_rate_hz: f64,
}

impl CompositeSignal {
    /// Create the PAL-like composite: video content at `video_hz`, audio tone
    /// at `audio_hz` modulated onto `carrier_hz`.
    pub fn new(sample_rate_hz: f64, video_hz: f64, audio_hz: f64, carrier_hz: f64) -> Self {
        CompositeSignal {
            video: ToneGenerator::new(video_hz, sample_rate_hz, 1.0),
            audio_baseband: ToneGenerator::new(audio_hz, sample_rate_hz, 0.5),
            carrier: ToneGenerator::new(carrier_hz, sample_rate_hz, 1.0),
            sample_rate_hz,
        }
    }

    /// The default configuration used by the case study: 6.4 MS/s, 50 kHz
    /// video content, 1 kHz audio tone on a 2 MHz carrier.
    pub fn pal_default() -> Self {
        CompositeSignal::new(6.4e6, 50_000.0, 1_000.0, 2.0e6)
    }

    /// Produce the next composite sample.
    pub fn next_sample(&mut self) -> Sample {
        let video = self.video.next_sample();
        let audio = self.audio_baseband.next_sample();
        let carrier = self.carrier.next_sample();
        video + (1.0 + audio) * carrier * 0.5
    }

    /// Produce a block of composite samples.
    pub fn block(&mut self, len: usize) -> Vec<Sample> {
        let mut out = Vec::with_capacity(len);
        self.fill_into(len, &mut out);
        out
    }

    /// Append `len` composite samples to `out` — bit-identical to a
    /// [`Self::next_sample`] loop. Between two table wraps the three
    /// oscillators are plain slices, so the block is filled run by run,
    /// slice to slice, in a loop the compiler vectorises.
    pub fn fill_into(&mut self, len: usize, out: &mut Vec<Sample>) {
        out.reserve(len);
        let mut left = len;
        while left > 0 {
            let video = self.video.run(left);
            let audio = self.audio_baseband.run(left);
            let carrier = self.carrier.run(left);
            let run = video.len().min(audio.len()).min(carrier.len());
            if run == 0 {
                // An oscillator without a table: sample by sample.
                out.extend((0..left).map(|_| self.next_sample()));
                return;
            }
            let tones = video[..run].iter().zip(&audio[..run]).zip(&carrier[..run]);
            extend_wide(
                out,
                tones.map(|((video, audio), carrier)| video + (1.0 + audio) * carrier * 0.5),
            );
            self.video.advance(run);
            self.audio_baseband.advance(run);
            self.carrier.advance(run);
            left -= run;
        }
    }
}

/// Root-mean-square of a signal (helper shared by tests and examples).
pub fn rms(signal: &[Sample]) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    (signal.iter().map(|x| x * x).sum::<f64>() / signal.len() as f64).sqrt()
}

/// Estimate the dominant frequency of `signal` by counting zero crossings.
pub fn dominant_frequency(signal: &[Sample], sample_rate_hz: f64) -> f64 {
    if signal.len() < 2 {
        return 0.0;
    }
    let mean = signal.iter().sum::<f64>() / signal.len() as f64;
    let mut crossings = 0usize;
    for w in signal.windows(2) {
        if (w[0] - mean) <= 0.0 && (w[1] - mean) > 0.0 {
            crossings += 1;
        }
    }
    crossings as f64 * sample_rate_hz / signal.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tone_has_expected_rms_and_frequency() {
        let mut t = ToneGenerator::new(1_000.0, 48_000.0, 1.0);
        let block = t.block(48_000);
        assert!((rms(&block) - (0.5f64).sqrt()).abs() < 1e-3);
        let f = dominant_frequency(&block, 48_000.0);
        assert!((f - 1_000.0).abs() < 20.0, "estimated {f}");
    }

    #[test]
    fn composite_contains_video_and_carrier() {
        let mut c = CompositeSignal::pal_default();
        let block = c.block(64_000);
        assert!(rms(&block) > 0.5);
        assert_eq!(c.sample_rate_hz, 6.4e6);
    }

    #[test]
    fn blocks_continue_the_phase() {
        let mut a = ToneGenerator::new(100.0, 1000.0, 1.0);
        let whole = a.block(20);
        let mut b = ToneGenerator::new(100.0, 1000.0, 1.0);
        let mut parts = b.block(7);
        parts.extend(b.block(13));
        assert_eq!(whole, parts);
    }

    #[test]
    fn rms_and_dominant_frequency_edge_cases() {
        assert_eq!(rms(&[]), 0.0);
        assert_eq!(dominant_frequency(&[1.0], 100.0), 0.0);
    }

    #[test]
    fn composite_fill_is_bit_identical_to_next_sample_across_every_wrap() {
        // Tables of 1024 (16-sample carrier, repeated), 1024 (128-sample
        // video tone, repeated) and 6400 entries: 20 000 samples cross
        // every wrap several times, at every alignment the chunks produce.
        for chunk in [1, 7, 400, 1024, 4096, 20_000] {
            let mut by_sample = CompositeSignal::pal_default();
            let mut by_block = by_sample.clone();
            let want: Vec<u64> = (0..20_000)
                .map(|_| by_sample.next_sample().to_bits())
                .collect();
            let mut got = Vec::new();
            while got.len() < want.len() {
                by_block.fill_into(chunk.min(want.len() - got.len()), &mut got);
            }
            let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
            assert_eq!(got, want, "chunk {chunk}");
            assert_eq!(by_block, by_sample, "chunk {chunk}");
        }
    }

    #[test]
    fn composite_fill_without_a_table_falls_back_to_the_closed_form() {
        // An irrational frequency never repeats exactly: no table.
        let mut by_sample = CompositeSignal::new(6.4e6, 50_000.0, 1_000.0 * PI, 2.0e6);
        assert!(by_sample.audio_baseband.table.is_empty());
        let mut by_block = by_sample.clone();
        let want: Vec<f64> = (0..3000).map(|_| by_sample.next_sample()).collect();
        let mut got = Vec::new();
        by_block.fill_into(1234, &mut got);
        by_block.fill_into(1766, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn oscillator_tables_are_kept_shared_and_whole_periods() {
        let a = ToneGenerator::new(2.0e6, 6.4e6, 1.0);
        let mut b = crate::Mixer::new(2.0e6, 6.4e6);
        assert!(Arc::ptr_eq(&a.table, &oscillator_table(2.0e6, 6.4e6, 1.0)));
        assert_eq!(b.process(&[0.5; 3]), [0.0, a.table[1], a.table[2]]);
        // 5/16 cycles per sample: a 16-sample period, repeated.
        assert_eq!(a.table.len(), MIN_TONE_TABLE);
        for (n, &v) in a.table.iter().enumerate() {
            let in_period = (2.0 * PI * 2.0e6 * (n % 16) as f64 / 6.4e6).sin();
            assert_eq!(v.to_bits(), in_period.to_bits(), "entry {n}");
        }
        // Amplitude and neighbouring bit patterns are different tables.
        let half = ToneGenerator::new(2.0e6, 6.4e6, 0.5);
        assert!(!Arc::ptr_eq(&a.table, &half.table));
        assert_eq!(half.table[1].to_bits(), (0.5 * a.table[1]).to_bits());
        let next = ToneGenerator::new(f64::from_bits(2.0e6f64.to_bits() + 1), 6.4e6, 1.0);
        assert!(next.table.is_empty());
    }
}
