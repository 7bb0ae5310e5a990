//! Kernel bindings: the actual computation a node firing performs.
//!
//! OIL is a coordination language — the values flowing through the buffers
//! are produced by side-effect-free functions. The simulator only tracks
//! token *origins*; the runtime additionally executes a kernel per firing so
//! its outputs are real sample streams. A [`KernelLibrary`] maps the
//! coordinated function names of a program to kernel factories; unmapped
//! functions get a deterministic synthetic kernel, so every program —
//! including the randomly generated ones — executes with real values.
//!
//! Kernel state (FIR delay lines, oscillator phases, …) is per node and
//! owned by whichever single thread fires the node: the reference
//! interpreter's one thread, or the engine worker the node is assigned to.
//! A node's firings therefore run in order on every engine, and its value
//! streams are identical at every thread count.

use oil_dsp::{CompositeSignal, Decimator, FirFilter, Mixer, RationalResampler, ToneGenerator};
use std::collections::BTreeMap;

/// The computation performed by one node, with its cross-firing state.
pub enum Kernel {
    /// Deterministic synthetic mixing: a keyed arithmetic hash of the input
    /// values and the firing counter. The default for functions without a
    /// registered DSP implementation.
    Synthetic {
        /// Mixing key (derived from the function name).
        key: u64,
        /// Firings so far.
        n: u64,
    },
    /// A FIR filter applied samplewise (1 output per input; the last input's
    /// response when the firing consumes a burst).
    Fir(FirFilter),
    /// An integer decimator: a burst of `factor` inputs becomes one output.
    Decimate(Decimator),
    /// A polyphase rational resampler (e.g. the PAL video path's 16 → 10).
    Resample(RationalResampler),
    /// A mixer (frequency shifter), samplewise.
    Mix(Mixer),
    /// A user-provided kernel: `(inputs, out_len) -> outputs`. Must be
    /// deterministic for the runtime's thread-count invariance to hold.
    Custom(CustomKernel),
}

/// The boxed signature of a [`Kernel::Custom`] implementation.
pub type CustomKernel = Box<dyn FnMut(&[f64], usize) -> Vec<f64> + Send>;

impl Kernel {
    /// Execute one firing: consume `inputs` (all reads, flattened in read
    /// order) and produce `out_len` output values. Kernels that naturally
    /// produce fewer values are padded with their last value (or silence);
    /// longer outputs are truncated — the coordination layer, not the
    /// kernel, owns the rates.
    pub fn fire(&mut self, inputs: &[f64], out_len: usize) -> Vec<f64> {
        let mut out = Vec::with_capacity(out_len);
        self.fire_extend(inputs, out_len, &mut out);
        out
    }

    /// As [`Self::fire`], appending the firing's `out_len` values onto a
    /// caller-provided buffer instead of allocating a fresh `Vec`. The
    /// pad/truncate rate discipline applies to the appended region only, so
    /// a replay loop can stack many firings into one allocation.
    pub fn fire_extend(&mut self, inputs: &[f64], out_len: usize, out: &mut Vec<f64>) {
        let start = out.len();
        match self {
            Kernel::Synthetic { key, n } => {
                let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ *key;
                for &x in inputs {
                    acc = acc
                        .rotate_left(17)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                        .wrapping_add(x.to_bits());
                }
                let base = *n;
                *n += 1;
                out.extend((0..out_len).map(|k| {
                    let h = acc
                        .wrapping_add((base << 8) | k as u64)
                        .wrapping_mul(0x94D0_49BB_1331_11EB);
                    // Map to [-1, 1) so synthetic streams look like audio.
                    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                }));
            }
            Kernel::Fir(f) => f.process_block_into(inputs, out),
            Kernel::Decimate(d) => d.process_into(inputs, out),
            Kernel::Resample(r) => r.process_into(inputs, out),
            Kernel::Mix(m) => m.process_into(inputs, out),
            Kernel::Custom(f) => out.extend(f(inputs, out_len)),
        }
        match (out.len() - start).cmp(&out_len) {
            std::cmp::Ordering::Greater => out.truncate(start + out_len),
            std::cmp::Ordering::Less => {
                // Pad with the last value *this firing* emitted (or silence).
                let pad = if out.len() > start {
                    out[out.len() - 1]
                } else {
                    0.0
                };
                out.resize(start + out_len, pad);
            }
            std::cmp::Ordering::Equal => {}
        }
    }

    /// Execute `firings` consecutive firings in one call: firing `j`
    /// consumes `inputs[j·in_len .. (j+1)·in_len]` and contributes
    /// `out_len` values at `result[j·out_len ..]`. **Bit-identical** to
    /// `firings` separate [`Self::fire`] calls — the fast paths below only
    /// apply where the kernel's natural block processing is the same
    /// per-sample state march (samplewise filters, phase-aligned
    /// decimators/resamplers whose chunk output counts match `out_len`
    /// exactly); everything else falls back to the per-firing loop. The
    /// static-order engine uses this to amortise the per-firing call and
    /// allocation cost over a scheduled run — its schedule proves the run's
    /// tokens exist up front, which a dynamic engine must re-check per
    /// firing.
    pub fn fire_block(
        &mut self,
        inputs: &[f64],
        firings: usize,
        in_len: usize,
        out_len: usize,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(firings * out_len);
        self.fire_block_into(inputs, firings, in_len, out_len, &mut out);
        out
    }

    /// As [`Self::fire_block`], appending into a caller-provided buffer so
    /// a replay loop can reuse one allocation across runs.
    pub fn fire_block_into(
        &mut self,
        inputs: &[f64],
        firings: usize,
        in_len: usize,
        out_len: usize,
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(inputs.len(), firings * in_len);
        out.reserve(firings * out_len);
        match self {
            // Samplewise kernels: block processing is the identical state
            // march, one output per input. The FIR block path additionally
            // runs the whole window sweep through the multi-output SIMD
            // kernel (bit-identical to the push loop).
            Kernel::Fir(f) if in_len == out_len => {
                f.process_block_into(inputs, out);
            }
            Kernel::Mix(m) if in_len == out_len => m.process_into(inputs, out),
            // An aligned decimator consuming whole windows per firing emits
            // exactly `out_len` per chunk, so the concatenation is the
            // per-firing result; the block path runs every window of the run
            // through one strided kernel pass.
            Kernel::Decimate(d) if d.aligned() && d.factor > 0 && in_len == out_len * d.factor => {
                d.process_into(inputs, out);
            }
            // An aligned rational resampler whose per-firing phase cycle is
            // whole (`in·up` divisible by `down`) emits exactly
            // `in·up/down = out_len` per chunk.
            Kernel::Resample(r)
                if r.aligned()
                    && r.down > 0
                    && (in_len * r.up).is_multiple_of(r.down)
                    && in_len * r.up == out_len * r.down =>
            {
                r.process_into(inputs, out);
            }
            // The synthetic kernel is defined per firing; loop it without a
            // per-firing allocation.
            Kernel::Synthetic { key, n } => {
                for j in 0..firings {
                    let chunk = &inputs[j * in_len..(j + 1) * in_len];
                    let mut acc = 0x9E37_79B9_7F4A_7C15u64 ^ *key;
                    for &x in chunk {
                        acc = acc
                            .rotate_left(17)
                            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                            .wrapping_add(x.to_bits());
                    }
                    let base = *n;
                    *n += 1;
                    out.extend((0..out_len).map(|k| {
                        let h = acc
                            .wrapping_add((base << 8) | k as u64)
                            .wrapping_mul(0x94D0_49BB_1331_11EB);
                        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                    }));
                }
            }
            // Everything else (custom kernels, unaligned or padded shapes):
            // the per-firing semantics, verbatim, but appended in place so
            // the generic path allocates nothing per firing either.
            _ => {
                for j in 0..firings {
                    self.fire_extend(&inputs[j * in_len..(j + 1) * in_len], out_len, out);
                }
            }
        }
    }
}

/// A time-triggered source's sample generator. Pure sequences: sample `n` is
/// a function of `n` alone, so an engine may generate whole bursts ahead of
/// their consumers without changing the stream.
pub enum SourceKernel {
    /// The synthetic PAL composite RF signal.
    Composite(Box<CompositeSignal>),
    /// A sine tone.
    Tone(ToneGenerator),
    /// A deterministic keyed pseudo-random stream in `[-1, 1)`.
    Synthetic {
        /// Mixing key (derived from the function name).
        key: u64,
        /// Samples produced so far.
        n: u64,
    },
}

impl SourceKernel {
    /// Produce the next sample.
    pub fn next_sample(&mut self) -> f64 {
        match self {
            SourceKernel::Composite(c) => c.next_sample(),
            SourceKernel::Tone(t) => t.next_sample(),
            SourceKernel::Synthetic { key, n } => {
                let h = (*key ^ *n)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(23)
                    .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                *n += 1;
                (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            }
        }
    }

    /// Append the next `len` samples to `out` — bit-identical to a
    /// [`Self::next_sample`] loop, with the kernel dispatch hoisted out of
    /// the per-sample path (the static engine generates whole scheduled
    /// bursts at once).
    pub fn fill_into(&mut self, len: usize, out: &mut Vec<f64>) {
        match self {
            SourceKernel::Composite(c) => c.fill_into(len, out),
            SourceKernel::Tone(t) => {
                out.reserve(len);
                out.extend((0..len).map(|_| t.next_sample()));
            }
            SourceKernel::Synthetic { key, n } => {
                out.reserve(len);
                let k = *key;
                let mut i = *n;
                out.extend((0..len).map(|_| {
                    let h = (k ^ i)
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .rotate_left(23)
                        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    i += 1;
                    (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
                }));
                *n = i;
            }
        }
    }
}

/// A stable hash deriving synthetic kernel keys from function names (the
/// same FNV-1a the trace digests use).
fn name_key(name: &str) -> u64 {
    let mut h = oil_sim::trace::Fnv1a::new();
    h.write_str(name);
    h.finish()
}

type KernelFactory = Box<dyn Fn() -> Kernel + Send + Sync>;
type SourceFactory = Box<dyn Fn() -> SourceKernel + Send + Sync>;

/// Maps coordinated function names to kernel factories. Functions without a
/// mapping execute synthetically (deterministic, name-keyed).
#[derive(Default)]
pub struct KernelLibrary {
    kernels: BTreeMap<String, KernelFactory>,
    sources: BTreeMap<String, SourceFactory>,
}

impl KernelLibrary {
    /// An empty library: every function synthetic.
    pub fn new() -> Self {
        KernelLibrary::default()
    }

    /// Register a node-kernel factory for `function`.
    pub fn register(&mut self, function: impl Into<String>, factory: KernelFactory) {
        self.kernels.insert(function.into(), factory);
    }

    /// Register a source-kernel factory for `function`.
    pub fn register_source(&mut self, function: impl Into<String>, factory: SourceFactory) {
        self.sources.insert(function.into(), factory);
    }

    /// A fresh kernel instance for `function`.
    pub fn instantiate(&self, function: &str) -> Kernel {
        match self.kernels.get(function) {
            Some(f) => f(),
            None => Kernel::Synthetic {
                key: name_key(function),
                n: 0,
            },
        }
    }

    /// A fresh source kernel for `function`.
    pub fn instantiate_source(&self, function: &str) -> SourceKernel {
        match self.sources.get(function) {
            Some(f) => f(),
            None => SourceKernel::Synthetic {
                key: name_key(function),
                n: 0,
            },
        }
    }

    /// The PAL decoder's kernel bindings (paper Fig. 11): the RF front end
    /// produces the synthetic composite signal; `mix` shifts the audio
    /// carrier to baseband; `LPF` low-passes and decimates by 25; `lpf_v`
    /// removes the audio band; `resamp` converts 16 video samples into 10;
    /// the `Audio` black box decimates by 8 to the speaker rate; the `Video`
    /// black box passes samples to the display. The kernels are
    /// `oil_dsp::pal`'s, which `oil_pal::NativePalDecoder` runs too.
    pub fn pal() -> Self {
        use oil_dsp::pal;
        let mut lib = KernelLibrary::new();
        lib.register_source(
            "receiveRF",
            Box::new(|| SourceKernel::Composite(Box::new(CompositeSignal::pal_default()))),
        );
        lib.register(
            "mix",
            Box::new(|| Kernel::Mix(pal::mix(pal::AUDIO_CARRIER_HZ))),
        );
        lib.register("LPF", Box::new(|| Kernel::Decimate(pal::lpf())));
        lib.register("lpf_v", Box::new(|| Kernel::Fir(pal::lpf_v())));
        lib.register("resamp", Box::new(|| Kernel::Resample(pal::resamp())));
        lib.register("Audio", Box::new(|| Kernel::Decimate(pal::audio())));
        lib.register("Video", Box::new(|| Kernel::Fir(pal::video())));
        lib
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_kernels_are_deterministic_and_shaped() {
        let mut a = KernelLibrary::new().instantiate("f0");
        let mut b = KernelLibrary::new().instantiate("f0");
        let out_a = a.fire(&[0.5, -0.25], 3);
        let out_b = b.fire(&[0.5, -0.25], 3);
        assert_eq!(out_a, out_b, "same function, same firing, same values");
        assert_eq!(out_a.len(), 3);
        assert!(out_a.iter().all(|v| (-1.0..1.0).contains(v)));
        // The firing counter advances the stream.
        let out_a2 = a.fire(&[0.5, -0.25], 3);
        assert_ne!(out_a, out_a2);
        // Different functions get different keys.
        let mut c = KernelLibrary::new().instantiate("g0");
        assert_ne!(c.fire(&[0.5, -0.25], 3), out_b);
    }

    #[test]
    fn dsp_kernels_respect_the_declared_rates() {
        let lib = KernelLibrary::pal();
        let mut lpf = lib.instantiate("LPF");
        assert_eq!(lpf.fire(&[0.1; 25], 1).len(), 1);
        let mut resamp = lib.instantiate("resamp");
        assert_eq!(resamp.fire(&[0.1; 16], 10).len(), 10);
        let mut mix = lib.instantiate("mix");
        assert_eq!(mix.fire(&[0.1], 1).len(), 1);
    }

    #[test]
    fn source_kernels_are_pure_sequences() {
        let lib = KernelLibrary::pal();
        let mut a = lib.instantiate_source("receiveRF");
        let mut b = lib.instantiate_source("receiveRF");
        for _ in 0..100 {
            assert_eq!(a.next_sample(), b.next_sample());
        }
        let mut s = lib.instantiate_source("src");
        let first: Vec<f64> = (0..8).map(|_| s.next_sample()).collect();
        let mut s2 = lib.instantiate_source("src");
        let again: Vec<f64> = (0..8).map(|_| s2.next_sample()).collect();
        assert_eq!(first, again);
    }

    #[test]
    fn block_firing_is_bit_identical_to_per_firing_on_the_dsp_arms() {
        let lib = KernelLibrary::pal();
        // The `wide` program's 2047-tap filter, beside PAL's kernels.
        let make = |function: &str| match function {
            "wide" => Kernel::Fir(FirFilter::low_pass(200.0, 4_000.0, 2047)),
            _ => lib.instantiate(function),
        };
        let signal: Vec<f64> = (0..2100).map(|i| (i as f64 * 0.23).sin()).collect();
        // (function, inputs per firing, outputs per firing): the PAL shapes,
        // wide's, then shapes the block arms must decline (padded or
        // truncated outputs fall back to the per-firing loop).
        for (function, in_len, out_len) in [
            ("mix", 1, 1),
            ("lpf_v", 1, 1),
            ("Video", 1, 1),
            ("LPF", 25, 1),
            ("Audio", 8, 1),
            ("resamp", 16, 10),
            ("wide", 1, 1),
            ("resamp", 8, 5),
            ("LPF", 25, 2),
            ("resamp", 16, 7),
            ("resamp", 5, 4),
            ("lpf_v", 3, 2),
        ] {
            for lead in [0, 1] {
                let firings = (signal.len() - lead) / in_len;
                let mut one_by_one = make(function);
                // Start the decimators and the resampler off their phase.
                one_by_one.fire(&signal[..lead], 0);
                let inputs = &signal[lead..lead + firings * in_len];
                let want: Vec<u64> = inputs
                    .chunks(in_len)
                    .flat_map(|chunk| one_by_one.fire(chunk, out_len))
                    .map(f64::to_bits)
                    .collect();
                // Ragged runs of 37 firings, and 64: PAL's video pass is 64
                // iterations of 16 samples, and wide's fused pass is 64
                // firings.
                for per_run in [37, 64] {
                    let mut blocked = make(function);
                    blocked.fire(&signal[..lead], 0);
                    let mut got = Vec::new();
                    for run in inputs.chunks(per_run * in_len) {
                        got.extend(blocked.fire_block(run, run.len() / in_len, in_len, out_len));
                    }
                    let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
                    assert_eq!(
                        got, want,
                        "{function} {in_len}->{out_len} lead {lead} runs of {per_run}"
                    );
                }
            }
        }
    }
}
