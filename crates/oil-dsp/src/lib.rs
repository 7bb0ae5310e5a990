//! Signal-processing kernels for OIL programs.
//!
//! OIL is a coordination language: the actual computation lives in
//! side-effect-free functions (C/C++ in the paper, Rust here). This crate
//! provides the kernels the examples and the PAL decoder case study
//! coordinate — FIR low-pass filters, mixers, polyphase rational resamplers
//! and synthetic signal generators, with the PAL decoder's kernels built
//! from them in one place ([`pal`]) — together with a pre-populated
//! [`FunctionRegistry`](oil_lang::FunctionRegistry) describing their temporal
//! properties to the compiler.

pub mod fir;
pub mod generator;
mod kept;
pub mod mixer;
pub mod pal;
pub mod registry;
pub mod resample;
pub mod simd;

pub use fir::FirFilter;
pub use generator::{CompositeSignal, ToneGenerator};
pub use mixer::Mixer;
pub use registry::dsp_registry;
pub use resample::{Decimator, RationalResampler};

/// The sample type flowing through all kernels.
pub type Sample = f64;
