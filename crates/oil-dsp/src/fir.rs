//! Finite impulse response (FIR) filters.
//!
//! The PAL decoder uses low-pass filters to separate the video band from the
//! audio band (modules `LPF_V` and the filter inside `SRC_A`/`LPF_A`). The
//! implementation is a direct-form FIR with a windowed-sinc design; it keeps
//! internal state (the delay line) but is side-effect free, exactly the class
//! of functions OIL may coordinate.

use crate::kept::Kept;
use crate::simd::{dot_rr4, dot_rr4_strided, fir_block_rr4};
use crate::Sample;
use std::f64::consts::PI;
use std::sync::Arc;

/// Designed coefficient sets, as `(taps, taps reversed)`.
type Design = (Arc<[f64]>, Arc<[f64]>);

/// Low-pass designs kept for reuse, keyed by the exact bit patterns of
/// `(cutoff, sample rate)` and the tap count (eight identical 2047-tap ones
/// for eight parallel chains).
static DESIGNS: Kept<(u64, u64, usize), Design> = Kept::new();

/// Longest block staged at once: longer inputs are processed in pieces of
/// this many samples, so a staged window stays cache-sized however long the
/// caller's slice is (the bits do not depend on the chunking).
pub(crate) const BLOCK: usize = 4096;

/// The most recent `keep` samples of a stream, always followed directly in
/// memory by whatever arrives next — the one staging routine behind every
/// block kernel: appending a block *is* building the contiguous
/// `history ++ input` window its outputs read, so there is no delay-line
/// copy before the kernel and none after it. Consumed samples are dropped
/// from the front only when the buffer is full, so with room for two
/// histories that is at most one moved sample per sample received.
#[derive(Debug, Clone)]
pub(crate) struct History {
    buf: Vec<Sample>,
    keep: usize,
}

impl History {
    /// A history of `keep` zeros.
    pub(crate) fn new(keep: usize) -> Self {
        let mut buf = Vec::with_capacity(2 * keep + 64);
        buf.resize(keep, 0.0);
        History { buf, keep }
    }

    /// Append `input` and return `history ++ input`: the `keep` samples
    /// before it and the block itself, contiguous and in time order. The
    /// last `keep` of them are the history of the next call.
    pub(crate) fn stage(&mut self, input: impl IntoIterator<Item = Sample>) -> &[Sample] {
        let input = input.into_iter();
        if self.buf.len() + input.size_hint().0 > self.buf.capacity() {
            self.buf.drain(..self.buf.len() - self.keep);
        }
        let start = self.buf.len() - self.keep;
        self.buf.extend(input);
        &self.buf[start..]
    }

    fn reset(&mut self) {
        self.buf.clear();
        self.buf.resize(self.keep, 0.0);
    }
}

/// Two histories are equal when they remember the same samples, however
/// many consumed ones still sit in front of them.
impl PartialEq for History {
    fn eq(&self, other: &Self) -> bool {
        self.buf[self.buf.len() - self.keep..] == other.buf[other.buf.len() - other.keep..]
    }
}

/// A direct-form FIR filter with an internal delay line.
///
/// The delay line is a `History` of the last `n - 1` inputs, so the
/// window of every output of a block is one contiguous ascending slice and
/// the dot products run over it with pre-reversed taps and four round-robin
/// partial sums — no wraparound arithmetic per tap and an add chain the CPU
/// can pipeline. The 4-way reassociation moves results only at the last-ulp
/// level, inside the tolerance the golden vectors pin; every engine shares
/// this code, so cross-engine value oracles stay bit-exact.
#[derive(Debug, Clone, PartialEq)]
pub struct FirFilter {
    taps: Arc<[f64]>,
    /// `taps` reversed: `rtaps[i] = taps[n-1-i]`, paired with the
    /// ascending-time window.
    rtaps: Arc<[f64]>,
    line: History,
}

impl FirFilter {
    /// Create a filter from explicit tap coefficients.
    pub fn from_taps(taps: Vec<f64>) -> Self {
        assert!(!taps.is_empty(), "a FIR filter needs at least one tap");
        let rtaps = taps.iter().rev().copied().collect();
        FirFilter::from_design((taps.into(), rtaps))
    }

    fn from_design((taps, rtaps): Design) -> Self {
        let line = History::new(taps.len() - 1);
        FirFilter { taps, rtaps, line }
    }

    /// Design a low-pass filter with the windowed-sinc method.
    ///
    /// * `cutoff_hz` — the -6 dB cutoff frequency,
    /// * `sample_rate_hz` — the input sample rate,
    /// * `taps` — number of coefficients (an odd count gives a symmetric,
    ///   linear-phase filter).
    pub fn low_pass(cutoff_hz: f64, sample_rate_hz: f64, taps: usize) -> Self {
        assert!(taps >= 1, "need at least one tap");
        assert!(
            cutoff_hz > 0.0 && cutoff_hz < sample_rate_hz / 2.0,
            "cutoff must be below Nyquist"
        );
        let key = (cutoff_hz.to_bits(), sample_rate_hz.to_bits(), taps);
        FirFilter::from_design(DESIGNS.get_or_make(key, || {
            let fc = cutoff_hz / sample_rate_hz;
            let m = (taps - 1) as f64;
            let mut coeffs = Vec::with_capacity(taps);
            for i in 0..taps {
                let x = i as f64 - m / 2.0;
                let sinc = if x.abs() < 1e-12 {
                    2.0 * fc
                } else {
                    (2.0 * PI * fc * x).sin() / (PI * x)
                };
                // Hamming window.
                let w = 0.54 - 0.46 * (2.0 * PI * i as f64 / m.max(1.0)).cos();
                coeffs.push(sinc * w);
            }
            // Normalise DC gain to one.
            let sum: f64 = coeffs.iter().sum();
            for c in &mut coeffs {
                *c /= sum;
            }
            let rtaps = coeffs.iter().rev().copied().collect();
            (coeffs.into(), rtaps)
        }))
    }

    /// Number of taps.
    pub fn len(&self) -> usize {
        self.taps.len()
    }

    /// The tap coefficients.
    pub fn taps(&self) -> &[f64] {
        &self.taps
    }

    /// True if the filter has no taps (never constructed this way).
    pub fn is_empty(&self) -> bool {
        self.taps.is_empty()
    }

    /// Process one input sample and return one output sample.
    pub fn push(&mut self, x: Sample) -> Sample {
        // Ascending-time window [x_{t-n+1} … x_t].
        dot_rr4(self.line.stage([x]), &self.rtaps)
    }

    /// Advance the delay line by one sample *without* computing the output
    /// — bit-exact state-wise with [`Self::push`] when the caller discards
    /// the result. Decimators and rational resamplers only emit a fraction
    /// of their filter outputs; skipping the dead dot products is most of
    /// their throughput.
    pub fn push_silent(&mut self, x: Sample) {
        self.line.stage([x]);
    }

    /// Process a block of samples, appending the outputs to `out`.
    ///
    /// Bit-identical to a [`Self::push`] loop: each output's window and
    /// reduction order are the canonical ones. The win is structural — the
    /// windows of the whole block overlap in one contiguous stretch, so the
    /// dot products run through the multi-output SIMD kernel with shared
    /// tap loads instead of one call per sample.
    pub fn process_block_into(&mut self, input: &[Sample], out: &mut Vec<Sample>) {
        out.reserve(input.len());
        if let [t] = self.rtaps[..] {
            // One tap has no history to stage, and one pass over the input
            // is a third of the kernel's three (stage, zero-fill, compute).
            // The trailing `+ 0.0 + 0.0` additions replay the round-robin
            // reduction `(l0+l1)+(l2+l3)` with three empty lanes, keeping
            // the result bit-identical even for signed zeros.
            out.extend(input.iter().map(|&x| (x * t + 0.0) + 0.0));
            return;
        }
        for block in input.chunks(BLOCK) {
            let start = out.len();
            out.resize(start + block.len(), 0.0);
            let window = self.line.stage(block.iter().copied());
            fir_block_rr4(window, &self.rtaps, &mut out[start..]);
        }
    }

    /// Process a block of at most [`BLOCK`] samples keeping only every
    /// `factor`-th output, the first being the response to `input[first]` —
    /// what a decimator emits. The delay line advances by the whole block.
    pub(crate) fn decimate_block_into(
        &mut self,
        input: &[Sample],
        first: usize,
        factor: usize,
        out: &mut Vec<Sample>,
    ) {
        let window = self.line.stage(input.iter().copied());
        if first >= input.len() {
            return;
        }
        let start = out.len();
        out.resize(start + (input.len() - first).div_ceil(factor), 0.0);
        // The response to `input[i]` reads `window[i..i + n]`.
        dot_rr4_strided(&window[first..], factor, &self.rtaps, &mut out[start..], 1);
    }

    /// Process a block of samples.
    pub fn process(&mut self, input: &[Sample]) -> Vec<Sample> {
        let mut out = Vec::with_capacity(input.len());
        self.process_block_into(input, &mut out);
        out
    }

    /// Reset the delay line to zero.
    pub fn reset(&mut self) {
        self.line.reset();
    }

    /// The filter's magnitude response at `freq_hz` for a given sample rate
    /// (used by tests to check the pass/stop-band behaviour).
    pub fn magnitude_at(&self, freq_hz: f64, sample_rate_hz: f64) -> f64 {
        let omega = 2.0 * PI * freq_hz / sample_rate_hz;
        let (mut re, mut im) = (0.0, 0.0);
        for (k, tap) in self.taps.iter().enumerate() {
            re += tap * (omega * k as f64).cos();
            im -= tap * (omega * k as f64).sin();
        }
        (re * re + im * im).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_gain_is_unity() {
        let mut f = FirFilter::low_pass(1000.0, 48_000.0, 63);
        let out = f.process(&vec![1.0; 500]);
        assert!((out.last().unwrap() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn passband_and_stopband() {
        let f = FirFilter::low_pass(100_000.0, 6_400_000.0, 101);
        assert!(f.magnitude_at(10_000.0, 6.4e6) > 0.95);
        assert!(f.magnitude_at(1_000_000.0, 6.4e6) < 0.05);
    }

    #[test]
    fn attenuates_out_of_band_tone() {
        let sr = 48_000.0;
        let mut f = FirFilter::low_pass(2_000.0, sr, 101);
        let tone: Vec<f64> = (0..2000)
            .map(|n| (2.0 * PI * 12_000.0 * n as f64 / sr).sin())
            .collect();
        let out = f.process(&tone);
        let rms_in: f64 = (tone.iter().map(|x| x * x).sum::<f64>() / tone.len() as f64).sqrt();
        let tail = &out[500..];
        let rms_out: f64 = (tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64).sqrt();
        assert!(
            rms_out < 0.05 * rms_in,
            "rms_out {rms_out} vs rms_in {rms_in}"
        );
    }

    #[test]
    fn preserves_in_band_tone() {
        let sr = 48_000.0;
        let mut f = FirFilter::low_pass(6_000.0, sr, 101);
        let tone: Vec<f64> = (0..2000)
            .map(|n| (2.0 * PI * 1_000.0 * n as f64 / sr).sin())
            .collect();
        let out = f.process(&tone);
        let tail = &out[500..];
        let rms_out: f64 = (tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64).sqrt();
        assert!((rms_out - (0.5f64).sqrt()).abs() < 0.05);
    }

    #[test]
    fn reset_clears_state() {
        let mut f = FirFilter::low_pass(1000.0, 48_000.0, 31);
        f.process(&[1.0; 64]);
        f.reset();
        let out = f.push(0.0);
        assert_eq!(out, 0.0);
        assert_eq!(f.len(), 31);
        assert!(!f.is_empty());
    }

    #[test]
    #[should_panic(expected = "below Nyquist")]
    fn cutoff_above_nyquist_panics() {
        let _ = FirFilter::low_pass(30_000.0, 48_000.0, 31);
    }

    #[test]
    fn repeated_designs_share_bit_identical_taps() {
        let a = FirFilter::low_pass(1234.5, 48_000.0, 33);
        let b = FirFilter::low_pass(1234.5, 48_000.0, 33);
        assert!(Arc::ptr_eq(&a.taps, &b.taps) && Arc::ptr_eq(&a.rtaps, &b.rtaps));
        // The kept design is the one a fresh computation gives, and a
        // neighbouring key is a different design.
        let fresh = FirFilter::from_taps(a.taps().to_vec());
        assert_eq!(a, fresh);
        assert!(a.rtaps.iter().eq(a.taps.iter().rev()));
        let c = FirFilter::low_pass(1234.5, 48_000.0, 35);
        let d = FirFilter::low_pass(f64::from_bits(1234.5f64.to_bits() + 1), 48_000.0, 33);
        assert!(c.len() == 35 && !Arc::ptr_eq(&a.taps, &d.taps));
        // State stays per instance.
        let (mut a, mut b) = (a, b);
        a.push(1.0);
        assert_ne!(a, b);
        assert_eq!(b.push(0.0), 0.0);
    }

    #[test]
    fn explicit_taps_identity() {
        let mut f = FirFilter::from_taps(vec![1.0]);
        assert_eq!(f.push(3.5), 3.5);
        assert_eq!(f.push(-1.0), -1.0);
    }

    #[test]
    fn block_path_bit_identical_to_push_loop() {
        let input: Vec<f64> = (0..257).map(|i| (i as f64 * 0.31).sin()).collect();
        for taps in [1, 2, 3, 7, 31, 63] {
            for chunk in [1, 3, 8, 64, 100, 257] {
                let mut by_push = FirFilter::low_pass(1000.0, 48_000.0, taps);
                let mut by_block = by_push.clone();
                let mut block_out = Vec::new();
                for c in input.chunks(chunk) {
                    by_block.process_block_into(c, &mut block_out);
                }
                let push_out: Vec<f64> = input.iter().map(|&x| by_push.push(x)).collect();
                assert_eq!(push_out.len(), block_out.len());
                for (i, (a, b)) in push_out.iter().zip(&block_out).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "taps {taps} chunk {chunk} sample {i}"
                    );
                }
                // Delay-line state converged identically, however many
                // consumed samples each still holds: equal, and one more
                // sample through each must agree bit for bit.
                assert_eq!(by_push, by_block, "taps {taps} chunk {chunk}");
                assert_eq!(
                    by_push.push(0.123).to_bits(),
                    by_block.push(0.123).to_bits(),
                    "taps {taps} chunk {chunk} post-block state"
                );
            }
        }
    }
}
