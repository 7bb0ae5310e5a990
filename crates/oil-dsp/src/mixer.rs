//! Mixers (frequency shifters).
//!
//! The PAL decoder's `Mix_A` module shifts the audio carrier down to zero
//! before the low-pass filter and downsampler extract the audio band. A mixer
//! multiplies the input by a local oscillator; like the filters it keeps
//! state (the oscillator phase) but has no side effects.

use crate::Sample;
use std::f64::consts::PI;
use std::sync::Arc;

/// A real mixer: multiplies the input by a sine local oscillator.
///
/// The oscillator phase is the closed form `2π·lo·n/rate` (an accumulated
/// phase drifts by one rounding per sample and costs the same `sin`); when
/// the oscillator period is a whole number of samples the sine values are
/// precomputed for one period — at the PAL front end's 6.4 MS/s that
/// replaces a libm `sin` per sample with a table load.
#[derive(Debug, Clone, PartialEq)]
pub struct Mixer {
    /// Oscillator frequency in Hz.
    pub lo_freq_hz: f64,
    /// Input sample rate in Hz.
    pub sample_rate_hz: f64,
    n: u64,
    table: Arc<[Sample]>,
    /// `n mod table.len()`, maintained incrementally (a u64 modulo per
    /// sample costs more than the table load it indexes).
    idx: usize,
}

impl Mixer {
    /// Create a mixer with the given local-oscillator frequency.
    pub fn new(lo_freq_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        let table = crate::generator::oscillator_table(lo_freq_hz, sample_rate_hz, 1.0);
        Mixer {
            lo_freq_hz,
            sample_rate_hz,
            n: 0,
            table,
            idx: 0,
        }
    }

    /// Mix one sample.
    pub fn push(&mut self, x: Sample) -> Sample {
        let lo = if self.table.is_empty() {
            let v = (2.0 * PI * self.lo_freq_hz * self.n as f64 / self.sample_rate_hz).sin();
            self.n += 1;
            return x * v * 2.0;
        } else {
            let v = self.table[self.idx];
            self.idx += 1;
            if self.idx == self.table.len() {
                self.idx = 0;
            }
            v
        };
        self.n += 1;
        x * lo * 2.0
    }

    /// Mix a block of samples.
    pub fn process(&mut self, input: &[Sample]) -> Vec<Sample> {
        input.iter().map(|&x| self.push(x)).collect()
    }

    /// Reset the oscillator phase.
    pub fn reset(&mut self) {
        self.n = 0;
        self.idx = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fir::FirFilter;

    /// Mixing a tone at the LO frequency produces a DC component (plus a
    /// double-frequency term a low-pass filter removes).
    #[test]
    fn mixing_recovers_baseband() {
        let sr = 100_000.0;
        let carrier = 20_000.0;
        let mut mixer = Mixer::new(carrier, sr);
        let mut lpf = FirFilter::low_pass(2_000.0, sr, 101);
        let signal: Vec<f64> = (0..5000)
            .map(|n| (2.0 * PI * carrier * n as f64 / sr).sin())
            .collect();
        let mixed = mixer.process(&signal);
        let filtered = lpf.process(&mixed);
        let tail = &filtered[1000..];
        let mean: f64 = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn zero_lo_gives_zero_output() {
        // A zero-frequency sine oscillator stays at zero phase.
        let mut m = Mixer::new(0.0, 48_000.0);
        assert!(m.push(0.5).abs() < 1e-12);
    }

    #[test]
    fn reset_restores_phase() {
        let mut m = Mixer::new(1_000.0, 48_000.0);
        let a = m.push(1.0);
        m.push(1.0);
        m.reset();
        let b = m.push(1.0);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sample_rate_panics() {
        let _ = Mixer::new(1000.0, 0.0);
    }
}
