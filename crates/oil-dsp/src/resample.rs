//! Sample-rate converters.
//!
//! The PAL decoder performs three rate conversions: the audio path
//! downsamples by 25 (`SRC_A`) and by 8 (inside the `Audio` black box), and
//! the video path resamples by the rational factor 10/16 (`SRC_V`). Both a
//! plain decimator and a polyphase rational resampler are provided.

use crate::fir::{FirFilter, History, BLOCK};
use crate::simd::{dot_rr4, dot_rr4_strided};
use crate::Sample;

/// An integer-factor decimator with an anti-aliasing low-pass filter.
#[derive(Debug, Clone, PartialEq)]
pub struct Decimator {
    /// Decimation factor.
    pub factor: usize,
    filter: FirFilter,
    phase: usize,
}

impl Decimator {
    /// Create a decimator by `factor` for signals sampled at
    /// `sample_rate_hz`.
    pub fn new(factor: usize, sample_rate_hz: f64, taps: usize) -> Self {
        assert!(factor >= 1, "decimation factor must be at least 1");
        let cutoff = sample_rate_hz / (2.0 * factor as f64) * 0.9;
        Decimator {
            factor,
            filter: FirFilter::low_pass(cutoff, sample_rate_hz, taps),
            phase: 0,
        }
    }

    /// Feed `factor` input samples, produce one output sample.
    pub fn process_block(&mut self, input: &[Sample]) -> Sample {
        assert_eq!(
            input.len(),
            self.factor,
            "block length must equal the factor"
        );
        // Only the last filter output survives; the earlier ones advance
        // the delay line without paying their dot products.
        let (head, last) = input.split_at(self.factor - 1);
        for &x in head {
            self.filter.push_silent(x);
        }
        self.filter.push(last[0])
    }

    /// Stream interface: push one sample, get `Some(output)` every `factor`
    /// samples. Non-emitting samples advance the delay line only — their
    /// filter outputs were always discarded, so skipping the dot product
    /// changes no emitted bit.
    pub fn push(&mut self, x: Sample) -> Option<Sample> {
        self.phase += 1;
        if self.phase == self.factor {
            self.phase = 0;
            Some(self.filter.push(x))
        } else {
            self.filter.push_silent(x);
            None
        }
    }

    /// Process an arbitrary-length input, appending the decimated output to
    /// `out`. Bit-identical to a [`Self::push`] loop: the emitting samples
    /// are every `factor`-th one from wherever the phase stands, so their
    /// windows go through the strided multi-output kernel in one pass.
    pub fn process_into(&mut self, input: &[Sample], out: &mut Vec<Sample>) {
        for block in input.chunks(BLOCK) {
            let first = self.factor - 1 - self.phase;
            self.filter
                .decimate_block_into(block, first, self.factor, out);
            self.phase = (self.phase + block.len()) % self.factor;
        }
    }

    /// Process an arbitrary-length input, returning the decimated output.
    pub fn process(&mut self, input: &[Sample]) -> Vec<Sample> {
        let mut out = Vec::with_capacity(input.len() / self.factor + 1);
        self.process_into(input, &mut out);
        out
    }

    /// True when the next pushed sample starts a fresh decimation window
    /// (block-processing a multiple of `factor` samples from here yields
    /// exactly `len / factor` outputs).
    pub fn aligned(&self) -> bool {
        self.phase == 0
    }
}

/// A rational resampler by `up/down`: zero-stuffing, an anti-imaging/
/// anti-aliasing low-pass and decimation, computed in **polyphase** form —
/// the delay line holds input-rate samples only, and each emitted output
/// evaluates just the tap subset its upsampled position actually overlaps
/// (`⌈taps/up⌉` multiplies instead of `taps`; the structural zeros of the
/// conceptual zero-stuffed stream contribute nothing and are never
/// touched).
#[derive(Debug, Clone, PartialEq)]
pub struct RationalResampler {
    /// Upsampling factor (e.g. 10 for the PAL video path).
    pub up: usize,
    /// Downsampling factor (e.g. 16 for the PAL video path).
    pub down: usize,
    /// Prototype low-pass taps on the upsampled grid.
    taps: Vec<f64>,
    /// Per-phase tap subsets, each **reversed** so it pairs with an
    /// ascending-time window slice: `ptaps[k][i] = taps[k + (c-1-i)·up]`
    /// where `c` is phase `k`'s tap count.
    ptaps: Vec<Vec<f64>>,
    /// Input-rate history (samples pre-scaled by `up`): the `hist_len - 1`
    /// inputs before the current one, `hist_len` being the longest phase.
    line: History,
    hist_len: usize,
    /// Phase accumulator over the upsampled grid.
    phase: usize,
    /// Outputs per phase cycle, `up / gcd(up, down)`: outputs this far
    /// apart use the same tap subset…
    cycle: usize,
    /// …on windows `down / gcd(up, down)` inputs apart.
    step: usize,
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

impl RationalResampler {
    /// Create a resampler by `up/down` for input sampled at
    /// `sample_rate_hz`.
    pub fn new(up: usize, down: usize, sample_rate_hz: f64, taps: usize) -> Self {
        assert!(
            up >= 1 && down >= 1,
            "resampling factors must be at least 1"
        );
        let upsampled = sample_rate_hz * up as f64;
        let cutoff =
            (sample_rate_hz / 2.0).min(sample_rate_hz * up as f64 / (2.0 * down as f64)) * 0.9;
        let taps = FirFilter::low_pass(cutoff, upsampled, taps).taps().to_vec();
        let hist_len = taps.len().div_ceil(up);
        let ptaps = (0..up)
            .map(|k| {
                let mut p: Vec<f64> = taps.iter().skip(k).step_by(up).copied().collect();
                p.reverse();
                p
            })
            .collect();
        let g = gcd(up, down);
        RationalResampler {
            up,
            down,
            taps,
            ptaps,
            line: History::new(hist_len - 1),
            hist_len,
            phase: 0,
            cycle: up / g,
            step: down / g,
        }
    }

    /// Push one input sample, handing each produced output to `emit`.
    ///
    /// The output at upsampled position `t = i·up + k` is
    /// `Σ_j taps[j] · U[t−j]` over the zero-stuffed stream `U`; only the
    /// taps with `j ≡ k (mod up)` meet a non-structural-zero sample, and
    /// those samples are the plain input history `x[i], x[i−1], …` (scaled
    /// by `up`): phase `k`'s inner product is a contiguous dot of its
    /// reversed tap subset against the tail of the ascending window.
    pub fn push_each(&mut self, x: Sample, mut emit: impl FnMut(Sample)) {
        let window = self.line.stage([x * self.up as f64]);
        // The phase accumulator walks the upsampled grid `phase, phase+1,
        // …, phase+up-1 (mod down)` and an output fires wherever it hits
        // zero — at `k ≡ -phase (mod down)` — so iterate the emitting
        // positions directly instead of stepping through every grid point.
        let mut k = (self.down - self.phase) % self.down;
        while k < self.up {
            let pt = &self.ptaps[k];
            emit(dot_rr4(&window[self.hist_len - pt.len()..], pt));
            k += self.down;
        }
        self.phase = (self.phase + self.up) % self.down;
    }

    /// Push one input sample; returns zero or more output samples.
    pub fn push(&mut self, x: Sample) -> Vec<Sample> {
        let mut out = Vec::new();
        self.push_each(x, |y| out.push(y));
        out
    }

    /// Process a block of input samples, appending the outputs to `out`.
    ///
    /// Bit-identical to a [`Self::push_each`] loop. On the upsampled grid
    /// the block's outputs sit at `first, first + down, first + 2·down, …`;
    /// the output at grid position `t` belongs to input `t / up` and phase
    /// `t % up`. Outputs `cycle` apart therefore share a phase and read
    /// windows `step` inputs apart, so each of the first `cycle` outputs
    /// heads one pass of the strided multi-output kernel over the staged
    /// `history ++ up·input` window, writing every `cycle`-th output.
    pub fn process_into(&mut self, input: &[Sample], out: &mut Vec<Sample>) {
        let (up, down) = (self.up, self.down);
        let scale = up as f64;
        for block in input.chunks(BLOCK) {
            let first = (down - self.phase) % down;
            let grid = block.len() * up;
            let window = self.line.stage(block.iter().map(|&x| x * scale));
            let start = out.len();
            out.resize(start + grid.saturating_sub(first).div_ceil(down), 0.0);
            for (r, head) in (start..out.len()).take(self.cycle).enumerate() {
                let t = first + r * down;
                let pt = &self.ptaps[t % up];
                // Input `i`'s `c`-tap window is `window[hist_len - c + i..][..c]`.
                let from = self.hist_len - pt.len() + t / up;
                dot_rr4_strided(&window[from..], self.step, pt, &mut out[head..], self.cycle);
            }
            self.phase = (self.phase + grid) % down;
        }
    }

    /// Process a block of input samples.
    pub fn process(&mut self, input: &[Sample]) -> Vec<Sample> {
        let mut out = Vec::with_capacity(input.len() * self.up / self.down + 1);
        self.process_into(input, &mut out);
        out
    }

    /// Exact output/input rate ratio.
    pub fn ratio(&self) -> f64 {
        self.up as f64 / self.down as f64
    }

    /// True when the phase accumulator is at the start of its cycle
    /// (block-processing `k` inputs with `k·up` divisible by `down` from
    /// here yields exactly `k·up/down` outputs and returns to alignment).
    pub fn aligned(&self) -> bool {
        self.phase == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn decimator_output_length() {
        let mut d = Decimator::new(25, 6.4e6, 63);
        let input = vec![1.0; 6400];
        let out = d.process(&input);
        assert_eq!(out.len(), 6400 / 25);
    }

    #[test]
    fn decimator_preserves_dc() {
        let mut d = Decimator::new(8, 256_000.0, 63);
        let out = d.process(&vec![1.0; 4096]);
        assert!((out.last().unwrap() - 1.0).abs() < 1e-2);
    }

    #[test]
    fn decimator_block_interface() {
        let mut d = Decimator::new(4, 32_000.0, 31);
        let y = d.process_block(&[1.0, 1.0, 1.0, 1.0]);
        assert!(y.is_finite());
    }

    #[test]
    #[should_panic(expected = "block length")]
    fn wrong_block_length_panics() {
        let mut d = Decimator::new(4, 32_000.0, 31);
        let _ = d.process_block(&[1.0, 1.0]);
    }

    #[test]
    fn resampler_ratio_10_over_16() {
        let mut r = RationalResampler::new(10, 16, 6.4e6, 161);
        assert!((r.ratio() - 0.625).abs() < 1e-12);
        let out = r.process(&vec![1.0; 1600]);
        // 1600 * 10 / 16 = 1000 output samples.
        assert_eq!(out.len(), 1000);
    }

    #[test]
    fn resampler_preserves_dc_level() {
        let mut r = RationalResampler::new(10, 16, 6.4e6, 161);
        let out = r.process(&vec![1.0; 4000]);
        let tail = &out[out.len() - 200..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn resampler_preserves_low_frequency_tone() {
        let sr = 64_000.0;
        let mut r = RationalResampler::new(1, 2, sr, 101);
        let tone: Vec<f64> = (0..4000)
            .map(|n| (2.0 * PI * 1000.0 * n as f64 / sr).sin())
            .collect();
        let out = r.process(&tone);
        assert_eq!(out.len(), 2000);
        let tail = &out[500..];
        let rms: f64 = (tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64).sqrt();
        assert!((rms - (0.5f64).sqrt()).abs() < 0.1, "rms {rms}");
    }

    #[test]
    fn decimator_process_into_bit_identical_to_push_loop() {
        let input: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.13).sin()).collect();
        for factor in [1, 2, 4, 8, 25] {
            for chunk in [1, 3, 16, 37, 400] {
                let mut by_push = Decimator::new(factor, 6.4e6, 63);
                let mut by_block = by_push.clone();
                let push_out: Vec<f64> = input.iter().filter_map(|&x| by_push.push(x)).collect();
                let mut block_out = Vec::new();
                for c in input.chunks(chunk) {
                    by_block.process_into(c, &mut block_out);
                }
                assert_eq!(push_out.len(), block_out.len(), "factor {factor}");
                for (i, (a, b)) in push_out.iter().zip(&block_out).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "factor {factor} chunk {chunk} sample {i}"
                    );
                }
                assert_eq!(by_push.aligned(), by_block.aligned());
                // The states converged: the next `factor` samples through
                // each emit the same bits.
                for x in [0.5; 25] {
                    assert_eq!(
                        by_push.push(x).map(f64::to_bits),
                        by_block.push(x).map(f64::to_bits)
                    );
                }
            }
        }
    }

    #[test]
    fn resampler_process_into_bit_identical_to_push_each_loop() {
        let input: Vec<f64> = (0..1200).map(|i| (i as f64 * 0.29).sin()).collect();
        // 10/16 is the PAL video path (6–7 taps per phase), 1/2 a plain
        // decimating FIR (one 101-tap phase), 3/2 emits more than it takes,
        // 147/160 has more phases than a block has outputs — some of them
        // without a single tap.
        for (up, down, taps) in [(10, 16, 63), (1, 2, 101), (3, 2, 31), (147, 160, 63)] {
            for lead in [0, 1, 5] {
                for chunk in [1, 3, 16, 37, 400] {
                    let mut by_push = RationalResampler::new(up, down, 6.4e6, taps);
                    for &x in &input[..lead] {
                        by_push.push_each(x, |_| ());
                    }
                    let mut by_block = by_push.clone();
                    let mut push_out = Vec::new();
                    for &x in &input[lead..] {
                        by_push.push_each(x, |y| push_out.push(y));
                    }
                    let mut block_out = Vec::new();
                    for c in input[lead..].chunks(chunk) {
                        by_block.process_into(c, &mut block_out);
                    }
                    let what = format!("{up}/{down} lead {lead} chunk {chunk}");
                    assert_eq!(push_out.len(), block_out.len(), "{what}");
                    for (i, (a, b)) in push_out.iter().zip(&block_out).enumerate() {
                        assert_eq!(a.to_bits(), b.to_bits(), "{what} sample {i}");
                    }
                    assert_eq!(by_push.aligned(), by_block.aligned(), "{what}");
                    assert_eq!(by_push, by_block, "{what}");
                    let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                    assert_eq!(bits(by_push.push(0.5)), bits(by_block.push(0.5)), "{what}");
                }
            }
        }
    }

    #[test]
    fn long_inputs_are_staged_in_pieces() {
        let input: Vec<f64> = (0..3 * BLOCK + 17)
            .map(|i| (i as f64 * 0.07).sin())
            .collect();
        let mut whole = RationalResampler::new(10, 16, 6.4e6, 63);
        let mut pieces = whole.clone();
        let expect: Vec<f64> = input.chunks(1000).flat_map(|c| pieces.process(c)).collect();
        assert_eq!(whole.process(&input), expect);
        let mut whole = Decimator::new(25, 6.4e6, 63);
        let mut pieces = whole.clone();
        let expect: Vec<f64> = input.chunks(1000).flat_map(|c| pieces.process(c)).collect();
        assert_eq!(whole.process(&input), expect);
    }

    #[test]
    fn pal_audio_chain_rate() {
        // 6.4 MS/s -> /25 -> 256 kS/s -> /8 -> 32 kS/s.
        let mut src_a = Decimator::new(25, 6.4e6, 63);
        let mut audio = Decimator::new(8, 256_000.0, 63);
        let input = vec![0.5; 64_000];
        let mid = src_a.process(&input);
        assert_eq!(mid.len(), 2560);
        let out = audio.process(&mid);
        assert_eq!(out.len(), 320);
    }
}
