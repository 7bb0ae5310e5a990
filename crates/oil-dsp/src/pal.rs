//! The PAL decoder's kernels (paper Fig. 11), defined once.
//!
//! The coordinated decoder (`oil_rt::KernelLibrary::pal`) and the
//! hand-written sequential one (`oil_pal::NativePalDecoder`) build their
//! kernels from these constructors, so the two run the same filters at the
//! same rates and their streams can be compared bit for bit. Each
//! constructor is named after the OIL function it implements.

use crate::{Decimator, FirFilter, Mixer, RationalResampler};

/// The RF front end's sample rate: 6.4 MS/s.
pub const RF_RATE_HZ: f64 = 6.4e6;

/// The audio carrier of the case study's signal: 2 MHz.
pub const AUDIO_CARRIER_HZ: f64 = 2.0e6;

/// Taps of every low-pass filter in the decoder.
const TAPS: usize = 63;

/// `SRC_A`'s decimation factor: 6.4 MS/s → 256 kS/s.
const AUDIO_DECIMATION: usize = 25;

/// `mix`: shifts the audio carrier at `carrier_hz` to baseband.
pub fn mix(carrier_hz: f64) -> Mixer {
    Mixer::new(carrier_hz, RF_RATE_HZ)
}

/// `LPF`: low-pass and decimate by 25 to 256 kS/s.
pub fn lpf() -> Decimator {
    Decimator::new(AUDIO_DECIMATION, RF_RATE_HZ, TAPS)
}

/// `lpf_v`: removes the audio band from the video signal (1 MHz cut-off).
pub fn lpf_v() -> FirFilter {
    FirFilter::low_pass(1.0e6, RF_RATE_HZ, TAPS)
}

/// `resamp`: converts 16 video samples into 10 (6.4 → 4 MS/s).
pub fn resamp() -> RationalResampler {
    RationalResampler::new(10, 16, RF_RATE_HZ, TAPS)
}

/// The `Audio` black box: decimates by 8 to the speakers' 32 kS/s.
pub fn audio() -> Decimator {
    Decimator::new(8, RF_RATE_HZ / AUDIO_DECIMATION as f64, TAPS)
}

/// The `Video` black box: passes samples to the display through a one-tap
/// filter, `(x·1 + 0) + 0`, which turns a `-0.0` into `+0.0`.
pub fn video() -> FirFilter {
    FirFilter::from_taps(vec![1.0])
}
