//! Explicit SIMD inner products for the hot filter loops.
//!
//! Every engine in the workspace must produce *bit-identical* value streams
//! (the runtime differential oracles compare raw `f64` bits), so a SIMD
//! path is only admissible if it reproduces the scalar reduction order
//! exactly. The canonical reduction — [`dot_rr4_scalar`], shared by every
//! filter in this crate — is **four round-robin partial sums**: product `i`
//! is accumulated into lane `i & 3` in ascending `i`, and the final
//! reduction is `(l0 + l1) + (l2 + l3)`. Multiply and add stay separate
//! instructions, *never* FMA: fusing changes the rounding of every product.
//!
//! Three vector bodies reproduce that order, and which one runs depends on
//! how the outputs' windows lie in memory:
//!
//! * **Sliding window, lane = output** ([`fir_block_rr4`]). Consecutive
//!   outputs read windows one sample apart, so one broadcast tap times one
//!   unaligned window load is the tap-`i` product of a whole vector of
//!   outputs. A block holds `V = 4` vectors of outputs and walks its taps
//!   **residue-major**: it finishes round-robin lane `r` of all of them —
//!   taps `r, r + 4, r + 8, …`, ascending — before it starts lane `r + 1`,
//!   and `(l0+l1)+(l2+l3)` is then three vector adds yielding finished
//!   outputs, with no tap tail and no horizontal step. Within lane `r`,
//!   output vector `v`'s window at the lane's tap `a` is the vector at
//!   `r + 4(a + v·N/4)` (`N` lanes per vector), so the `V` vectors one tap
//!   needs are `R = V·N/4` consecutive ones four samples apart. They live in
//!   a register ring, and each tap costs one broadcast and **one** new window
//!   load: 2 loads per tap, where a tap-major walk (tap `i` against all `V`
//!   vectors, all four lanes' accumulators live) costs `V + 1`, most of them
//!   split across cache lines. The up to `V − 1` single vectors after the
//!   last block walk tap-major: one vector loads one window per tap either
//!   way, and tap-major keeps four add chains in flight where residue-major
//!   would keep one. A block length that is not a whole number of vectors
//!   recomputes the last vector's worth of outputs (same windows, same bits)
//!   instead of masking.
//! * **Polyphase, lane = output** (`PolyphaseLanes`, AVX-512F). A rational
//!   resampler's consecutive outputs belong to different phases: each has
//!   its own short tap set and its window starts a fraction of an input
//!   after the last. When 8 consecutive outputs' windows all start inside
//!   one 16-sample span, tap `j` of all 8 is two unaligned loads, one
//!   two-source permute picking each lane's sample, a multiply by the
//!   lanes' tap-`j` vector and an add into accumulator `j & 3` — *masked*
//!   to the lanes whose phase has a tap `j`, so a 6-tap phase beside a
//!   7-tap one keeps its lane untouched, exactly as its scalar reduction
//!   does. The permute indices, tap vectors and masks repeat with the
//!   phase of the group's first output, so they are built once per
//!   resampler, one table entry per phase.
//! * **Strided windows, lane = tap mod 4** ([`dot_rr4_strided`]). A
//!   decimator's or a polyphase resampler's outputs read windows `stride`
//!   samples apart, so the vector holds one output's four partial sums and
//!   four windows are in flight sharing each tap load. A tap count that is
//!   not a multiple of four ends in a masked load and a *blended* add:
//!   lanes past the end are never read and keep their sum untouched (adding
//!   a padded `+0.0` would turn a `-0.0` lane into `+0.0`, and `0·∞` would
//!   make it NaN). [`dot_rr4`] is this body with one window.
//!
//! **Safe code.** The sliding walk is written once, in safe code, over
//! `Lanes<N>`: an `[f64; N]` whose operations go lane by lane and whose
//! loads and stores are slice indexes. A `#[target_feature]` entry
//! instantiates it for `ymm` (AVX, `Lanes<4>`, a ring of 4) and `zmm`
//! (AVX-512F, `Lanes<8>`, a ring of 8); the tests also run both
//! instances compiled for no feature, so every host checks the `zmm` walk.
//! Each block gets exactly its window, and each group of `R` taps is one
//! bounds check: a ring load past the window panics in any build. The
//! polyphase and strided bodies stay intrinsics, because a walk over
//! `Lanes` measured ×4.45 (polyphase, an 8-lane gather per tap instead of
//! the permute) and ×1.95–2.34 (strided, split into 128-bit halves by the
//! compiler) of their time at PAL's 10/16 × 1024; they are safe
//! `#[target_feature]` functions over slices, loading through
//! bounds-checked slices. `unsafe` is left on each entry's one call after
//! feature detection, and on two pointer intrinsics: the polyphase group's
//! store, and the strided tail's masked load (with a lane-by-lane tail the
//! strided body read ×1.46 of the raw-pointer body's time at 10/16, with
//! the masked load ×1.29, before its outputs were sliced once per group).
//!
//! **Which width.** The sliding body's width is a pure function of the
//! block's shape and the host (`sliding_width`): `zmm` on hosts that report
//! AVX-512F whenever the block holds at least two `zmm` vectors of outputs,
//! `ymm` with AVX from one `ymm` vector up, and the strided body below that
//! (or on any other architecture, which runs the scalar loop). `zmm` halves
//! the instruction count per output. There is no minimum product count:
//! 512-bit units run slower for a few microseconds after idling, but a
//! floor of 2¹⁶ products kept PAL's 63-tap/1024-output pass (64 512
//! products) on the slower `ymm` body.
//!
//! **Throughput.** Entered directly on the development host (a 2-vCPU
//! Sapphire Rapids, shared; 20 alternating pairs each), the safe walk reads
//! ×1.00 (64 × 2047) and ×1.05 (1024 × 63) of the intrinsic walk's time on
//! `zmm`, and ×1.17 at both shapes on `ymm`, where the compiler spills one
//! accumulator; the strided and polyphase bodies over slices read ×1.01 at
//! PAL's decimators, ×0.97 at its resampler, and ×1.11 on the strided
//! resampler path that only hosts without AVX-512F take. The residue-major
//! walk itself read ×1.32–1.69 and ×1.30–1.45 over the tap-major `V = 2`
//! body it replaced on `zmm`, ×1.22–1.58 and ×1.20–1.33 over tap-major
//! `V = 3` on `ymm`. By operation count (the host exposes no cycle
//! counter), a tap is `V = 4` multiplies and 4 adds on two FP ports, 4
//! cycles, and each accumulator receives one add per tap, which is the add
//! latency: about 8 multiply-adds per cycle on `zmm`, the ceiling for
//! separate multiply and add. FMA would halve the operations per tap
//! but not the chains: 4 chains of 4-cycle FMAs still finish one vector per
//! cycle, so it would pay only with 8 independent chains (`V = 8`, whose
//! ring of 16 does not fit beside its accumulators, or two lanes in flight).
//! The ring size is a power of two and the tap loop is unrolled by it: a
//! ring size that leaves `% R` to run time sends the ring through memory.
//!
//! A *single* dot product cannot go faster than the canonical order lets
//! it: its four lanes are one vector accumulator, each add waits for the
//! previous one, and a wider vector would reassociate the sum. `dot_rr4` is
//! latency-bound at one add per four taps by construction; the block
//! kernels are fast because they have many outputs to overlap.

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// True when the vector paths are available on this host (cached after
/// the first call).
#[cfg(target_arch = "x86_64")]
#[inline]
pub fn simd_available() -> bool {
    use std::sync::OnceLock;
    static AVX: OnceLock<bool> = OnceLock::new();
    *AVX.get_or_init(|| std::arch::is_x86_feature_detected!("avx"))
}

/// Portable fallback: no vector path.
#[cfg(not(target_arch = "x86_64"))]
#[inline]
pub fn simd_available() -> bool {
    false
}

/// Canonical round-robin dot product over the common length of two slices.
///
/// Bit-identical to [`dot_rr4_scalar`] on every input; uses the AVX path
/// when the host supports it.
#[inline]
pub fn dot_rr4(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    // Below two full vectors the feature dispatch and the reduction cost
    // more than the multiplies; both paths produce the same bits, so the
    // cutover is purely a speed choice.
    #[cfg(target_arch = "x86_64")]
    if n >= 8 && simd_available() {
        let mut y = 0.0;
        // SAFETY: `simd_available` proved AVX support.
        unsafe { strided_avx(&a[..n], 0, &b[..n], std::slice::from_mut(&mut y), 1) };
        return y;
    }
    dot_rr4_scalar(&a[..n], &b[..n])
}

/// The canonical scalar reduction: `acc[i & 3] += a[i] * b[i]`, reduced as
/// `(acc0 + acc1) + (acc2 + acc3)`. Hand-unrolled into four named lanes —
/// the indexed-array form keeps the accumulators in memory and every
/// short dot stalls on store-to-load forwarding; the unroll is the same
/// additions in the same per-lane order, so the bits don't move.
#[inline]
pub fn dot_rr4_scalar(a: &[f64], b: &[f64]) -> f64 {
    let n = a.len().min(b.len());
    let (mut l0, mut l1, mut l2, mut l3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut i = 0usize;
    while i + 4 <= n {
        l0 += a[i] * b[i];
        l1 += a[i + 1] * b[i + 1];
        l2 += a[i + 2] * b[i + 2];
        l3 += a[i + 3] * b[i + 3];
        i += 4;
    }
    if i < n {
        l0 += a[i] * b[i];
    }
    if i + 1 < n {
        l1 += a[i + 1] * b[i + 1];
    }
    if i + 2 < n {
        l2 += a[i + 2] * b[i + 2];
    }
    (l0 + l1) + (l2 + l3)
}

/// Strided window block: `out[q·out_stride] = dot_rr4(&window[q·stride..]
/// [..n], rtaps)` for every `q` with `q·out_stride < out.len()`, where
/// `n = rtaps.len()`. Other slots of `out` are left alone. `stride` is a
/// decimation factor, or a resampler phase's input step with `out_stride`
/// the number of phases interleaved in `out`.
///
/// # Panics
/// If `out_stride` is zero or the last window does not fit in `window`.
pub fn dot_rr4_strided(
    window: &[f64],
    stride: usize,
    rtaps: &[f64],
    out: &mut [f64],
    out_stride: usize,
) {
    assert!(out_stride > 0, "output stride must be positive");
    let n = rtaps.len();
    let count = out.len().div_ceil(out_stride);
    if count == 0 {
        return;
    }
    let end = (count - 1)
        .checked_mul(stride)
        .and_then(|start| start.checked_add(n));
    assert!(
        end.is_some_and(|end| end <= window.len()),
        "window of {} samples is too short for {count} outputs of {n} taps at stride {stride}",
        window.len()
    );
    // Under one full vector of taps the masked chunk is all there is and
    // the scalar loop wins; the bits are the same either way.
    #[cfg(target_arch = "x86_64")]
    if n >= 4 && simd_available() {
        // SAFETY: `simd_available` proved AVX support.
        unsafe { strided_avx(window, stride, rtaps, out, out_stride) };
        return;
    }
    for (q, o) in out.iter_mut().step_by(out_stride).enumerate() {
        *o = dot_rr4_scalar(&window[q * stride..][..n], rtaps);
    }
}

/// Sliding-window FIR block: `out[j] = dot_rr4(&window[j..j + n], rtaps)`
/// for every `j`, where `n = rtaps.len()`.
///
/// # Panics
/// If `rtaps` is empty or `window.len() != out.len() + n - 1`.
pub fn fir_block_rr4(window: &[f64], rtaps: &[f64], out: &mut [f64]) {
    let n = rtaps.len();
    assert!(
        n > 0 && window.len() + 1 == out.len() + n,
        "window of {} samples does not hold {} outputs of {n} taps",
        window.len(),
        out.len()
    );
    #[cfg(target_arch = "x86_64")]
    match sliding_width(out.len(), simd_available(), avx512_available()) {
        // SAFETY: AVX-512F detected.
        Width::Zmm => return unsafe { sliding_zmm(window, rtaps, out) },
        // SAFETY: AVX detected.
        Width::Ymm => return unsafe { sliding_ymm(window, rtaps, out) },
        Width::Strided => {}
    }
    // Shorter than one vector of outputs (or no vector unit): the windows
    // are a stride-1 case of the strided kernel.
    dot_rr4_strided(window, 1, rtaps, out, 1);
}

/// `dst.extend(items)`, compiled for AVX-512F where the host has it, so an
/// elementwise map over slices vectorises at that width. Each element is
/// the same IEEE operations in the same order at any width (no FMA is ever
/// formed), so the bits do not depend on the host.
pub(crate) fn extend_wide(dst: &mut Vec<f64>, items: impl Iterator<Item = f64>) {
    #[cfg(target_arch = "x86_64")]
    if avx512_available() {
        #[target_feature(enable = "avx512f")]
        fn wide(dst: &mut Vec<f64>, items: impl Iterator<Item = f64>) {
            dst.extend(items);
        }
        // SAFETY: AVX-512F detected.
        return unsafe { wide(dst, items) };
    }
    dst.extend(items);
}

/// Which body a sliding-window block of `outputs` runs on.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Width {
    /// `sliding_zmm`: AVX-512F, 8 outputs per vector.
    Zmm,
    /// `sliding_ymm`: AVX, 4 outputs per vector.
    Ymm,
    /// [`dot_rr4_strided`] at stride 1.
    Strided,
}

/// The sliding body's width rule (see the module docs): by the number of
/// outputs and the host's vector units alone. The tap count does not enter:
/// every tap is one broadcast shared by all of a block's vectors whichever
/// the width.
#[cfg(target_arch = "x86_64")]
fn sliding_width(outputs: usize, avx: bool, avx512f: bool) -> Width {
    if avx512f && outputs >= 2 * 8 {
        Width::Zmm
    } else if avx && outputs >= 4 {
        Width::Ymm
    } else {
        Width::Strided
    }
}

/// True when the host has AVX-512F (cached after the first call).
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512_available() -> bool {
    use std::sync::OnceLock;
    static AVX512F: OnceLock<bool> = OnceLock::new();
    *AVX512F.get_or_init(|| std::arch::is_x86_feature_detected!("avx512f"))
}

/// One vector of `N` `f64` lanes, in safe code: loads and stores take
/// slices and panic past their end. Every operation is lane by lane, so
/// inside a `#[target_feature]` entry a `Lanes<4>` compiles to one `ymm`
/// and a `Lanes<8>` to one `zmm`, and without one to the same IEEE
/// operations on narrower registers: the bits never depend on the host.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Lanes<const N: usize>([f64; N]);

impl<const N: usize> Lanes<N> {
    const ZERO: Self = Lanes([0.0; N]);

    #[inline(always)]
    fn splat(x: f64) -> Self {
        Lanes([x; N])
    }

    /// The first `N` samples of `s`.
    #[inline(always)]
    fn load(s: &[f64]) -> Self {
        Lanes(*s.first_chunk().expect("a whole vector inside the slice"))
    }

    /// Into the first `N` slots of `s`.
    #[inline(always)]
    fn store(self, s: &mut [f64]) {
        s[..N].copy_from_slice(&self.0);
    }

    // The lane loops index instead of zipping iterators, whose calls
    // dominate the unoptimised test build; optimised, both unroll alike.

    #[inline(always)]
    fn mul(mut self, o: Self) -> Self {
        let mut l = 0;
        while l < N {
            self.0[l] *= o.0[l];
            l += 1;
        }
        self
    }

    #[inline(always)]
    fn add(mut self, o: Self) -> Self {
        let mut l = 0;
        while l < N {
            self.0[l] += o.0[l];
            l += 1;
        }
        self
    }
}

/// The sliding-window body: residue-major blocks of `V` vectors, then
/// single vectors, then one vector recomputing the last `N` outputs when
/// the length is not a whole number of vectors. `R == V·N / 4`.
///
/// # Panics
/// If `out.len() < N` or `window` is shorter than `out.len() +
/// rtaps.len() - 1` samples.
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
#[inline(always)]
fn sliding<const N: usize, const V: usize, const R: usize>(
    window: &[f64],
    rtaps: &[f64],
    out: &mut [f64],
) {
    let (m, n) = (out.len(), rtaps.len());
    let mut j = 0;
    while j + V * N <= m {
        let block = &window[j..j + V * N + n - 1];
        residue_block::<N, V, R>(block, rtaps, &mut out[j..j + V * N]);
        j += V * N;
    }
    while j + N <= m {
        sliding_vector::<N>(&window[j..j + N + n - 1], rtaps, &mut out[j..]);
        j += N;
    }
    if j < m {
        sliding_vector::<N>(&window[m - N..m + n - 1], rtaps, &mut out[m - N..]);
    }
}

/// `V·N` consecutive outputs of the block's window (`V·N + rtaps.len() −
/// 1` samples), walked **residue-major**: round-robin lane `r` of every
/// output — taps `r, r + 4, r + 8, …` in ascending order — is finished
/// before lane `r + 1` starts, and `(l0 + l1) + (l2 + l3)` then finishes
/// the block. Each output's lane sums the same products in the same order
/// as in [`dot_rr4_scalar`], so the bits are the scalar order's.
///
/// Lane `r`'s tap `a` (tap index `r + 4a`) of output vector `v` reads
/// `U_{a + S·v}`, where `U_m` is the vector at `window[r + 4m..]` and
/// `S = N / 4`. So one tap's `V` vectors lie among `R = V·S` consecutive
/// `U`s: they live in a register ring, and each tap loads only the one its
/// last output vector meets for the first time, `U_{a + R − S}`, into the
/// slot of `U_{a − S}`, which no later tap reads. That is one broadcast and
/// one window load per tap, where a tap-major walk loads `V` windows.
#[inline(always)]
fn residue_block<const N: usize, const V: usize, const R: usize>(
    window: &[f64],
    rtaps: &[f64],
    out: &mut [f64],
) {
    let (l0, l1) = (
        residue_lane::<N, V, R>(window, rtaps, 0),
        residue_lane::<N, V, R>(window, rtaps, 1),
    );
    let mut y = [Lanes::ZERO; V];
    for (v, y) in y.iter_mut().enumerate() {
        *y = l0[v].add(l1[v]);
    }
    let (l2, l3) = (
        residue_lane::<N, V, R>(window, rtaps, 2),
        residue_lane::<N, V, R>(window, rtaps, 3),
    );
    for (v, (y, out)) in y.into_iter().zip(out.chunks_exact_mut(N)).enumerate() {
        y.add(l2[v].add(l3[v])).store(out);
    }
}

/// Round-robin lane `r` of `residue_block`'s `V` output vectors.
#[inline(always)]
fn residue_lane<const N: usize, const V: usize, const R: usize>(
    window: &[f64],
    rtaps: &[f64],
    r: usize,
) -> [Lanes<N>; V] {
    const { assert!(N.is_multiple_of(4) && R == V * N / 4) };
    let (n, s) = (rtaps.len(), N / 4);
    let taps = (n + 3 - r) / 4;
    let mut acc = [Lanes::ZERO; V];
    if taps == 0 {
        return acc;
    }
    let mut ring = [Lanes::ZERO; R];
    for (m, u) in ring.iter_mut().enumerate().take(R - s) {
        *u = Lanes::load(&window[r + 4 * m..]);
    }
    // Tap index `i` loads `U_{a + R − S}`, the vector at `i + lead`; the
    // block's last tap `i ≤ n − 1` ends it at the window's last sample.
    let lead = V * N - N;
    // Unrolled by `R`, so every ring slot and accumulator index is a
    // constant (a run-time `% R` would send the ring through memory), and
    // each group of `R` taps is one bounds check on the window and one on
    // the taps.
    let mut a = 0;
    while a + R <= taps {
        let i = r + 4 * a;
        let (w, t) = (
            &window[i + lead..][..4 * R - 4 + N],
            &rtaps[i..][..4 * R - 3],
        );
        for k in 0..R {
            let u = Lanes::load(&w[4 * k..]);
            residue_tap::<N, V, R>(&mut ring, &mut acc, k, u, Lanes::splat(t[4 * k]));
        }
        a += R;
    }
    for k in 0..R {
        if a + k < taps {
            let i = r + 4 * (a + k);
            let u = Lanes::load(&window[i + lead..]);
            residue_tap::<N, V, R>(&mut ring, &mut acc, k, u, Lanes::splat(rtaps[i]));
        }
    }
    acc
}

/// A lane's tap `a ≡ k (mod R)`: `u = U_{a + R − S}` replaces `U_{a − S}`
/// in the ring, then the broadcast tap `t` times each output vector's
/// window is added into its accumulator.
#[inline(always)]
fn residue_tap<const N: usize, const V: usize, const R: usize>(
    ring: &mut [Lanes<N>; R],
    acc: &mut [Lanes<N>; V],
    k: usize,
    u: Lanes<N>,
    t: Lanes<N>,
) {
    let s = N / 4;
    ring[(k + R - s) % R] = u;
    for (v, y) in acc.iter_mut().enumerate() {
        *y = y.add(ring[(k + s * v) % R].mul(t));
    }
}

/// One vector of `N` consecutive outputs of `window` (`N + rtaps.len() −
/// 1` samples) into `out`, walked tap-major: tap `i` is one broadcast times
/// one window load, added into accumulator `i mod 4`. A single vector has
/// one window load per tap in either walk, and tap-major keeps four add
/// chains in flight where residue-major would keep one.
#[inline(always)]
fn sliding_vector<const N: usize>(window: &[f64], rtaps: &[f64], out: &mut [f64]) {
    let n = rtaps.len();
    let mut acc = [Lanes::<N>::ZERO; 4];
    // `r` only ever indexes `acc` as a constant of an unrolled loop: a
    // run-time `acc[i & 3]` would send every accumulator through memory.
    let mut i = 0;
    while i + 4 <= n {
        let (w, t) = (&window[i..][..N + 3], &rtaps[i..][..4]);
        for (r, a) in acc.iter_mut().enumerate() {
            *a = a.add(Lanes::load(&w[r..]).mul(Lanes::splat(t[r])));
        }
        i += 4;
    }
    for (r, a) in acc.iter_mut().enumerate() {
        if i + r < n {
            *a = a.add(Lanes::load(&window[i + r..]).mul(Lanes::splat(rtaps[i + r])));
        }
    }
    let [l0, l1, l2, l3] = acc;
    l0.add(l1).add(l2.add(l3)).store(out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn sliding_ymm(window: &[f64], rtaps: &[f64], out: &mut [f64]) {
    sliding::<4, 4, 4>(window, rtaps, out)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn sliding_zmm(window: &[f64], rtaps: &[f64], out: &mut [f64]) {
    sliding::<8, 4, 8>(window, rtaps, out)
}

/// `TAIL_MASKS[k]` selects the first `k` lanes of a `ymm`.
#[cfg(target_arch = "x86_64")]
const TAIL_MASKS: [[i64; 4]; 4] = [[0; 4], [-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0]];

/// The strided body: `out[q·out_stride]` is window `q`'s dot product, four
/// windows in flight.
///
/// # Panics
/// If a window `[q·stride, q·stride + rtaps.len())` is not inside `window`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn strided_avx(window: &[f64], stride: usize, rtaps: &[f64], out: &mut [f64], out_stride: usize) {
    let count = out.len().div_ceil(out_stride);
    let (n, full) = (rtaps.len(), rtaps.len() / 4 * 4);
    let [m0, m1, m2, m3] = TAIL_MASKS[n - full];
    let mask = _mm256_castsi256_pd(_mm256_setr_epi64x(m0, m1, m2, m3));
    let tail = (ymm_tail(&rtaps[full..]), mask);
    let mut q = 0;
    while q + 4 <= count {
        let y = strided_group::<4>(&window[q * stride..], stride, rtaps, tail);
        let (lo, hi) = (_mm256_castpd256_pd128(y), _mm256_extractf128_pd::<1>(y));
        let out = &mut out[q * out_stride..][..3 * out_stride + 1];
        out[0] = _mm_cvtsd_f64(lo);
        out[out_stride] = _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
        out[2 * out_stride] = _mm_cvtsd_f64(hi);
        out[3 * out_stride] = _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
        q += 4;
    }
    while q < count {
        let y = strided_group::<1>(&window[q * stride..], stride, rtaps, tail);
        out[q * out_stride] = _mm256_cvtsd_f64(y);
        q += 1;
    }
}

/// `G` windows `stride` apart against one tap set; lane `g` of the result
/// is window `g`'s dot product (lanes `G..` repeat the last window).
/// Vector lane `l` of `acc[g]` is the window's round-robin lane `l`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn strided_group<const G: usize>(
    window: &[f64],
    stride: usize,
    rtaps: &[f64],
    (tail, mask): (__m256d, __m256d),
) -> __m256d {
    let n = rtaps.len();
    // Each window sliced once, so the whole vectors below need no check.
    let mut windows: [&[f64]; G] = [&[]; G];
    for (g, w) in windows.iter_mut().enumerate() {
        *w = &window[g * stride..][..n];
    }
    let mut acc = [_mm256_setzero_pd(); G];
    let mut i = 0;
    while i + 4 <= n {
        let t = ymm(&rtaps[i..]);
        for (a, w) in acc.iter_mut().zip(windows) {
            *a = _mm256_add_pd(*a, _mm256_mul_pd(ymm(&w[i..]), t));
        }
        i += 4;
    }
    if i < n {
        // Lanes past the last tap (`tail` and `mask`, the taps' last
        // partial vector) are neither read nor added to.
        for (a, w) in acc.iter_mut().zip(windows) {
            let w = ymm_tail(&w[i..]);
            let sum = _mm256_add_pd(*a, _mm256_mul_pd(w, tail));
            *a = _mm256_blendv_pd(*a, sum, mask);
        }
    }
    // `(l0 + l1) + (l2 + l3)` of four accumulators at once: `hadd` pairs
    // the lanes within each 128-bit half, the permutes line the low and
    // high halves' pair sums up per window.
    let at = |g: usize| acc[g.min(G - 1)];
    let ab = _mm256_hadd_pd(at(0), at(1));
    let cd = _mm256_hadd_pd(at(2), at(3));
    _mm256_add_pd(
        _mm256_permute2f128_pd::<0x20>(ab, cd),
        _mm256_permute2f128_pd::<0x31>(ab, cd),
    )
}

/// The first four samples of `s`: one unaligned load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn ymm(s: &[f64]) -> __m256d {
    let &[a, b, c, d] = s.first_chunk().expect("a whole vector inside the slice");
    _mm256_setr_pd(a, b, c, d)
}

/// The `s.len() < 4` samples of `s`, and `0.0` in the lanes past them,
/// which are not read.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
#[inline]
fn ymm_tail(s: &[f64]) -> __m256d {
    let [m0, m1, m2, m3] = TAIL_MASKS[s.len()];
    // SAFETY: AVX is enabled here, and the mask selects the lanes of `s`.
    unsafe { _mm256_maskload_pd(s.as_ptr(), _mm256_setr_epi64x(m0, m1, m2, m3)) }
}

/// Outputs per group of the polyphase lane body: one `zmm`.
const GROUP: usize = 8;

/// The longest phase the polyphase lane body takes. The strided body pays
/// a masked tail, a blend and a horizontal reduction per output, which
/// dominate its cost only while phases are short (PAL's have 6–7 taps); the
/// lane body pays two loads and a permute per tap of every group. The
/// crossover was not measured: longer phases stay on the strided body.
const GROUP_TAPS: usize = 8;

/// The most table entries (phases per cycle) the lane body keeps: 16 of
/// 640 bytes stay a fifth of the development host's L1 beside the window.
const GROUP_ENTRIES: usize = 16;

/// `GROUP` consecutive resampler outputs whose first output has one given
/// phase: lane `l` is output `l` of the group.
#[derive(Debug, Clone, PartialEq)]
#[repr(C, align(64))]
struct LaneGroup {
    /// `taps[j][l]`: tap `j` of lane `l`'s phase in the phase's reversed
    /// (ascending-time) order, `0.0` past the phase's tap count.
    taps: [[f64; GROUP]; GROUP_TAPS],
    /// Lane `l`'s window starts `idx[l] < 2·GROUP` samples after the
    /// group's load base: the two-source permute's index vector.
    idx: [i64; GROUP],
    /// `adds[j]`: the lanes whose phase has a tap `j`.
    adds: [u8; GROUP_TAPS],
    /// The load base, relative to where the first output's input ends its
    /// window (`origin + i` for input `i`).
    lead: isize,
    /// The entry of the group `GROUP` outputs on…
    next: usize,
    /// …whose first output belongs to an input this many later.
    advance: usize,
}

/// The polyphase lane body's table for one resampler shape: one
/// [`LaneGroup`] per phase a group's first output can have, built once.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PolyphaseLanes {
    /// Entry `k / g` is the group whose first output has phase `k`.
    groups: Vec<LaneGroup>,
    up: usize,
    down: usize,
    /// `gcd(up, down)`: output phases are its multiples.
    g: usize,
    /// The longest phase; every group runs this many tap steps.
    taps: usize,
}

impl PolyphaseLanes {
    /// The table for a resampler by `up/down` with `cycle = up / gcd(up,
    /// down)` and reversed phase taps `ptaps[k]` (`ptaps.len() == up`), or
    /// `None` for a shape the lane body does not take: a phase longer than
    /// `GROUP_TAPS`, more than `GROUP_ENTRIES` phases per cycle, or
    /// `GROUP` consecutive outputs whose windows do not all start within
    /// one `2·GROUP`-sample span.
    pub(crate) fn new(up: usize, down: usize, cycle: usize, ptaps: &[Vec<f64>]) -> Option<Self> {
        let taps = ptaps.iter().map(Vec::len).max()?;
        if !(1..=GROUP_TAPS).contains(&taps) || cycle > GROUP_ENTRIES || ptaps.len() != up {
            return None;
        }
        let g = up / cycle;
        // Grid positions up to `k + GROUP·down` below, `k < up`.
        down.checked_mul(GROUP)?.checked_add(up)?;
        let groups = (0..cycle)
            .map(|e| {
                let k = e * g;
                let mut group = LaneGroup {
                    taps: [[0.0; GROUP]; GROUP_TAPS],
                    idx: [0; GROUP],
                    adds: [0; GROUP_TAPS],
                    lead: 0,
                    next: (k + GROUP * down) % up / g,
                    advance: (k + GROUP * down) / up,
                };
                // Lane `l` sits `k + l·down` grid points into the first
                // output's input: input `pos / up` on, phase `pos % up`. Its
                // `c`-tap window starts `c` samples before that input's end.
                let mut starts = [0isize; GROUP];
                for (l, start) in starts.iter_mut().enumerate() {
                    let pos = k + l * down;
                    let pt = &ptaps[pos % up];
                    // Farther than the span allows whatever the taps.
                    let input = isize::try_from(pos / up)
                        .ok()
                        .filter(|&d| d <= (2 * GROUP + GROUP_TAPS) as isize)?;
                    *start = input - pt.len() as isize;
                    for (j, &t) in pt.iter().enumerate() {
                        group.taps[j][l] = t;
                        group.adds[j] |= 1 << l;
                    }
                }
                group.lead = *starts.iter().min()?;
                for (idx, start) in group.idx.iter_mut().zip(starts) {
                    *idx = (start - group.lead) as i64;
                }
                group
                    .idx
                    .iter()
                    .all(|&i| i < 2 * GROUP as i64)
                    .then_some(group)
            })
            .collect::<Option<_>>()?;
        Some(PolyphaseLanes {
            groups,
            up,
            down,
            g,
            taps,
        })
    }

    /// Runs the lane body over one block, if this host can: `out[q]` is the
    /// output at grid position `first + q·down` of the block, input `i`'s
    /// `c`-tap window being `window[origin + i - c..origin + i]`. Returns
    /// false, writing nothing, without AVX-512F or with fewer than `GROUP`
    /// outputs.
    ///
    /// # Panics
    /// If `origin` is shorter than the longest phase, the last output's
    /// window does not end inside `window`, or `first` is not a multiple of
    /// `gcd(up, down)` (no output of the stream sits there).
    pub(crate) fn run(&self, window: &[f64], origin: usize, first: usize, out: &mut [f64]) -> bool {
        let m = out.len();
        if m < GROUP {
            return false;
        }
        let end = (m - 1)
            .checked_mul(self.down)
            .and_then(|t| t.checked_add(first))
            .and_then(|t| (t / self.up).checked_add(origin));
        assert!(
            origin >= self.taps && end.is_some_and(|end| end <= window.len()),
            "window of {} samples does not hold {m} outputs from grid position {first}",
            window.len()
        );
        assert!(
            first.is_multiple_of(self.g),
            "grid position {first} is no output's: outputs sit on multiples of {}",
            self.g
        );
        #[cfg(target_arch = "x86_64")]
        if avx512_available() {
            // SAFETY: AVX-512F detected.
            unsafe { self.polyphase_zmm(window, origin, first, out) };
            return true;
        }
        false
    }

    /// One instance of the loop per tap count, so each group's tap steps
    /// unroll completely.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    fn polyphase_zmm(&self, window: &[f64], origin: usize, first: usize, out: &mut [f64]) {
        match self.taps {
            1 => self.groups::<1>(window, origin, first, out),
            2 => self.groups::<2>(window, origin, first, out),
            3 => self.groups::<3>(window, origin, first, out),
            4 => self.groups::<4>(window, origin, first, out),
            5 => self.groups::<5>(window, origin, first, out),
            6 => self.groups::<6>(window, origin, first, out),
            7 => self.groups::<7>(window, origin, first, out),
            // `new` keeps `taps` in `1..=GROUP_TAPS`.
            _ => self.groups::<GROUP_TAPS>(window, origin, first, out),
        }
    }

    /// Groups of `GROUP` outputs, then one group recomputing the last
    /// `GROUP` when the block is not a whole number of groups; `T ==
    /// self.taps`. A group loads its samples as whole vectors where all
    /// `T - 1 + 2·GROUP` of them lie inside `window`, lane by lane (reading
    /// nothing past its end) at the edge.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f")]
    #[inline]
    fn groups<const T: usize>(&self, window: &[f64], origin: usize, first: usize, out: &mut [f64]) {
        let m = out.len();
        // Group `e` whose first output's input ends its window at
        // `window[end]`, for the output at grid position `t`.
        let at = |t: usize| (origin + t / self.up, t % self.up / self.g);
        let ((mut end, mut e), mut q) = (at(first), 0);
        while q < m {
            if q + GROUP > m {
                q = m - GROUP;
                (end, e) = at(first + q * self.down);
            }
            let g = &self.groups[e];
            let w = &window[end.wrapping_add_signed(g.lead)..];
            let y = match w.get(..T - 1 + 2 * GROUP) {
                Some(w) => lane_group::<T, false>(g, w),
                None => lane_group::<T, true>(g, w),
            };
            let out = &mut out[q..q + GROUP];
            // SAFETY: AVX-512F is enabled here, and `out` holds `GROUP` slots.
            unsafe { _mm512_storeu_pd(out.as_mut_ptr(), y) };
            (q, end, e) = (q + GROUP, end + g.advance, g.next);
        }
    }
}

/// One group's `T` tap steps, each into accumulator `j & 3`. Lane `l` of
/// the result is the lane's `(l0+l1)+(l2+l3)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn lane_group<const T: usize, const EDGE: bool>(g: &LaneGroup, w: &[f64]) -> __m512d {
    let [i0, i1, i2, i3, i4, i5, i6, i7] = g.idx;
    let idx = _mm512_setr_epi64(i0, i1, i2, i3, i4, i5, i6, i7);
    let mut acc = [_mm512_setzero_pd(); 4];
    // As in `sliding_vector`: accumulators indexed by constants only.
    let mut j = 0;
    while j + 4 <= T {
        for (r, a) in acc.iter_mut().enumerate() {
            *a = tap_step::<EDGE>(*a, g, idx, w, j + r);
        }
        j += 4;
    }
    for (r, a) in acc.iter_mut().enumerate() {
        if j + r < T {
            *a = tap_step::<EDGE>(*a, g, idx, w, j + r);
        }
    }
    let [l0, l1, l2, l3] = acc;
    _mm512_add_pd(_mm512_add_pd(l0, l1), _mm512_add_pd(l2, l3))
}

/// Tap step `j`: lane `l`'s sample `j` permuted out of the `2·GROUP`
/// samples from `w[j]`, times the lane's tap `j`, added into `acc` in the
/// lanes that have a tap `j`. At the edge, samples past the end of `w` are
/// `0.0`: only lanes without a tap at this step would pick them.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn tap_step<const EDGE: bool>(
    acc: __m512d,
    g: &LaneGroup,
    idx: __m512i,
    w: &[f64],
    j: usize,
) -> __m512d {
    let x = _mm512_permutex2var_pd(load::<EDGE>(w, j), idx, load::<EDGE>(w, j + GROUP));
    let p = _mm512_mul_pd(x, zmm(&g.taps[j]));
    _mm512_mask_add_pd(acc, g.adds[j], acc, p)
}

/// `GROUP` samples from `w[from]`; at the edge, `0.0` past the end of `w`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn load<const EDGE: bool>(w: &[f64], from: usize) -> __m512d {
    if EDGE {
        zmm_tail(w.get(from..).unwrap_or_default())
    } else {
        zmm(&w[from..])
    }
}

/// The first eight samples of `s`: one unaligned load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn zmm(s: &[f64]) -> __m512d {
    let &[a, b, c, d, e, f, g, h] = s.first_chunk().expect("a whole vector inside the slice");
    _mm512_setr_pd(a, b, c, d, e, f, g, h)
}

/// Up to eight samples of `s`, `0.0` past its end.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn zmm_tail(s: &[f64]) -> __m512d {
    if s.len() >= GROUP {
        return zmm(s);
    }
    let at = |l: usize| s.get(l).copied().unwrap_or(0.0);
    _mm512_setr_pd(at(0), at(1), at(2), at(3), at(4), at(5), at(6), at(7))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn ramp(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * seed + 0.37).sin()).collect()
    }

    /// `ramp` with every special class of `f64` sprinkled in.
    pub(crate) fn hostile(n: usize, seed: f64) -> Vec<f64> {
        const SPECIALS: [f64; 8] = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::MIN_POSITIVE / 1024.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MAX,
        ];
        let mut v = ramp(n, seed);
        for (i, x) in v.iter_mut().enumerate() {
            // Mostly zeros of both signs and subnormals, so many sums stay
            // finite; an occasional ∞/NaN so some do not.
            match i % 5 {
                0 => *x = SPECIALS[(i / 5) % 4],
                3 if i % 35 == 3 => *x = SPECIALS[4 + (i / 35) % 4],
                _ => {}
            }
        }
        v
    }

    /// `len` samples copied to start `offset` doubles past a 64-byte line.
    fn at_offset(src: &[f64], offset: usize) -> (Vec<f64>, usize) {
        let mut buf = vec![0.0; src.len() + 16];
        let to_line = (64 - buf.as_ptr() as usize % 64) % 64 / 8;
        let start = to_line + offset;
        buf[start..start + src.len()].copy_from_slice(src);
        (buf, start)
    }

    /// Same bits, or both NaN: which NaN comes out of an `∞ − ∞` or a
    /// `NaN + NaN` is the one thing the canonical order does not fix (the
    /// compiler may commute the scalar operands).
    pub(crate) fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    type Body = fn(&[f64], usize, &[f64], &mut [f64], usize) -> bool;

    /// Every kernel body at every ISA level this host supports, entered
    /// directly — the dispatchers only ever reach the widest — next to the
    /// dispatchers themselves and the generic walks compiled with no target
    /// feature, so every host runs the `zmm` walk's ring slots, remainders
    /// and recomputed last vectors. Each computes `out[q·out_stride] =
    /// dot(window[q·stride..][..n], rtaps)`, or returns false for a shape it
    /// does not take.
    fn bodies() -> Vec<(&'static str, Body)> {
        let mut bodies: Vec<(&'static str, Body)> = vec![
            ("dot_rr4_strided", |w, stride, t, out, os| {
                dot_rr4_strided(w, stride, t, out, os);
                true
            }),
            ("fir_block_rr4", |w, stride, t, out, os| {
                let takes = stride == 1 && os == 1;
                if takes {
                    fir_block_rr4(&w[..out.len() + t.len() - 1], t, out);
                }
                takes
            }),
            ("dot_rr4", |w, stride, t, out, os| {
                for (q, o) in out.iter_mut().step_by(os).enumerate() {
                    *o = dot_rr4(&w[q * stride..][..t.len()], t);
                }
                true
            }),
            ("sliding::<4>", |w, stride, t, out, os| {
                let takes = stride == 1 && os == 1 && out.len() >= 4;
                if takes {
                    sliding::<4, 4, 4>(w, t, out);
                }
                takes
            }),
            ("sliding::<8>", |w, stride, t, out, os| {
                let takes = stride == 1 && os == 1 && out.len() >= 8;
                if takes {
                    sliding::<8, 4, 8>(w, t, out);
                }
                takes
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                bodies.push(("strided_avx", |w, stride, t, out, os| {
                    // SAFETY: AVX detected.
                    unsafe { strided_avx(w, stride, t, out, os) };
                    true
                }));
                bodies.push(("sliding_ymm", |w, stride, t, out, os| {
                    let takes = stride == 1 && os == 1 && out.len() >= 4;
                    if takes {
                        // SAFETY: AVX detected.
                        unsafe { sliding_ymm(w, t, out) };
                    }
                    takes
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(("sliding_zmm", |w, stride, t, out, os| {
                    let takes = stride == 1 && os == 1 && out.len() >= 8;
                    if takes {
                        // SAFETY: AVX-512F detected.
                        unsafe { sliding_zmm(w, t, out) };
                    }
                    takes
                }));
            }
        }
        bodies
    }

    /// Runs every body over `outputs × strides` for one `(window, rtaps)`
    /// placement and compares with `dot_rr4_scalar` bit for bit.
    fn check(signal: &[f64], rtaps: &[f64], offset: usize, outputs: &[usize], strides: &[usize]) {
        let n = rtaps.len();
        let (buf, start) = at_offset(signal, offset);
        let window = &buf[start..start + signal.len()];
        for &stride in strides {
            let fits = (window.len() - n) / stride + 1;
            let want: Vec<f64> = (0..fits)
                .map(|q| dot_rr4_scalar(&window[q * stride..][..n], rtaps))
                .collect();
            for &m in outputs.iter().filter(|&&m| m <= fits) {
                for out_stride in [1, 3] {
                    for (name, body) in bodies() {
                        // Untouched slots must stay untouched.
                        let mut out = vec![-7.25; (m - 1) * out_stride + 1];
                        if !body(window, stride, rtaps, &mut out, out_stride) {
                            continue;
                        }
                        for (j, &got) in out.iter().enumerate() {
                            let expect = if j % out_stride == 0 {
                                want[j / out_stride]
                            } else {
                                -7.25
                            };
                            assert!(
                                same(got, expect),
                                "{name}: taps {n} outputs {m} stride {stride}/{out_stride} \
                                 offset {offset} slot {j}: {got:e} vs {expect:e}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Tap counts: every tail length, lanes of unequal lengths (29, 30, 33,
    /// 35, 63, 127 taps), and lanes shorter than, equal to and longer than
    /// the residue-major `zmm` ring of 8 vectors (29–35 taps).
    const TAPS: [usize; 19] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 29, 30, 31, 32, 33, 35, 63, 64, 127, 2047,
    ];

    /// Output counts: every count up to four `ymm` vectors, and counts
    /// around the 32-output `zmm` block (31, 32, 33, 40, 63, 64, 65).
    fn outputs() -> Vec<usize> {
        (1..=33).chain([40, 63, 64, 65, 100, 400, 1024]).collect()
    }

    #[test]
    fn every_body_matches_the_scalar_order_bit_for_bit() {
        let outputs = outputs();
        for n in TAPS {
            let rtaps = ramp(n, 1.7);
            let signal = ramp(1024 + n - 1, 0.9);
            for offset in 0..8 {
                // The long filter at two placements, not eight: its window
                // spans 250 cache lines whichever one it starts in.
                if n == 2047 && offset % 4 != 1 {
                    continue;
                }
                check(&signal, &rtaps, offset, &outputs, &[1]);
            }
        }
    }

    #[test]
    fn every_lane_length_matches_the_scalar_order_bit_for_bit() {
        // 1–72 taps give each round-robin lane 0–18 taps: every remainder
        // of the residue-major ring at both widths (4 and 8 vectors), in the
        // first pass round the ring and in later ones.
        for n in 1..=72 {
            let rtaps = hostile(n, 0.3);
            let signal = hostile(64 + n - 1, 0.9);
            check(&signal, &rtaps, 3, &[16, 32, 40, 64], &[1]);
        }
    }

    #[test]
    fn strided_bodies_match_the_scalar_order_bit_for_bit() {
        for n in TAPS.into_iter().filter(|&n| n <= 64) {
            let rtaps = ramp(n, 1.3);
            let signal = ramp(33 * 25 + n, 0.7);
            for offset in [0, 3, 7] {
                check(&signal, &rtaps, offset, &outputs(), &[2, 8, 25]);
            }
        }
    }

    #[test]
    fn special_values_survive_masked_and_recomputed_lanes() {
        let outputs: Vec<usize> = (1..=33).chain([64, 1024]).collect();
        for n in TAPS.into_iter().filter(|&n| n <= 64) {
            let signal = hostile(1024 * 3 + n, 0.9);
            for rtaps in [ramp(n, 1.7), hostile(n, 0.3)] {
                for offset in [0, 5] {
                    check(&signal, &rtaps, offset, &outputs, &[1, 3]);
                }
            }
        }
    }

    /// A resampler by `up` with prototype `taps`: phase `k`'s taps
    /// `taps[k], taps[k + up], …`, reversed, and the cycle `up / gcd`.
    fn phases(up: usize, down: usize, taps: &[f64]) -> (Vec<Vec<f64>>, usize) {
        let ptaps = (0..up)
            .map(|k| taps.iter().skip(k).step_by(up).rev().copied().collect())
            .collect();
        let cycle = (1..=up).find(|c| (c * down).is_multiple_of(up)).unwrap();
        (ptaps, cycle)
    }

    /// Shapes the polyphase lane body takes: PAL's 10/16 (6–7 taps per
    /// phase), 8 taps in every phase, a 2/3 and a 4/5 with ragged phases,
    /// an upsampling 5/4, one phase of 8 taps, and a 5/6 whose phases have
    /// one tap or none.
    const LANE_SHAPES: [(usize, usize, usize); 7] = [
        (10, 16, 63),
        (10, 16, 80),
        (2, 3, 15),
        (4, 5, 21),
        (5, 4, 37),
        (1, 1, 8),
        (5, 6, 3),
    ];

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn polyphase_lanes_match_the_scalar_order_bit_for_bit() {
        let avx512 = std::arch::is_x86_feature_detected!("avx512f");
        let outputs: Vec<usize> = (1..=33).chain([64, 400, 1024]).collect();
        for (up, down, n) in LANE_SHAPES {
            for taps in [ramp(n, 1.7), hostile(n, 0.3)] {
                let (ptaps, cycle) = phases(up, down, &taps);
                let lanes = PolyphaseLanes::new(up, down, cycle, &ptaps)
                    .unwrap_or_else(|| panic!("{up}/{down} with {n} taps is a lane shape"));
                let origin = n.div_ceil(up);
                for &m in &outputs {
                    for first in (0..down).step_by(up / cycle) {
                        let last = origin + (first + (m - 1) * down) / up;
                        // Ending at the last window, which sends the final
                        // groups through the edge's lane-by-lane loads, and
                        // 24 samples past it, which does not.
                        for (slack, offset) in [(0, 0), (0, 5), (24, 3)] {
                            let signal = hostile(last + slack, 0.9);
                            let (buf, start) = at_offset(&signal, offset);
                            let window = &buf[start..start + signal.len()];
                            let mut out = vec![-7.25; m];
                            let ran = lanes.run(window, origin, first, &mut out);
                            assert_eq!(ran, avx512 && m >= GROUP, "{up}/{down} m {m}");
                            if !ran {
                                assert!(out.iter().all(|&y| y == -7.25));
                                continue;
                            }
                            for (q, &got) in out.iter().enumerate() {
                                let t = first + q * down;
                                let pt = &ptaps[t % up];
                                let i = origin + t / up;
                                let want = dot_rr4_scalar(&window[i - pt.len()..i], pt);
                                assert!(
                                    same(got, want),
                                    "{up}/{down}/{n} m {m} first {first} slack {slack} \
                                     offset {offset} output {q}: {got:e} vs {want:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn polyphase_lanes_decline_long_phases_long_cycles_and_wide_spans() {
        for (up, down, n, why) in [
            (1, 2, 101, "101 taps in its one phase"),
            (3, 2, 31, "11 taps in a phase"),
            (147, 160, 63, "147 phases per cycle"),
            (1, 3, 8, "8 outputs spanning 21 inputs"),
        ] {
            let (ptaps, cycle) = phases(up, down, &ramp(n, 1.7));
            assert!(
                PolyphaseLanes::new(up, down, cycle, &ptaps).is_none(),
                "{why}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn polyphase_lanes_reject_a_short_window() {
        let (ptaps, cycle) = phases(10, 16, &ramp(63, 1.7));
        let lanes = PolyphaseLanes::new(10, 16, cycle, &ptaps).unwrap();
        // 16 outputs from grid position 0 end their last window at input
        // `7 + 15·16 / 10 = 31`.
        lanes.run(&ramp(30, 0.9), 7, 0, &mut [0.0; 16]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_sliding_width_is_zmm_from_two_vectors_on_avx512() {
        // PAL's video pass (1024 outputs of 63 taps) and wide's (64 of
        // 2047) both run on `zmm`, whatever their product count.
        assert_eq!(sliding_width(1024, true, true), Width::Zmm);
        assert_eq!(sliding_width(64, true, true), Width::Zmm);
        assert_eq!(sliding_width(16, true, true), Width::Zmm);
        // Under two `zmm` vectors: `ymm`, and under one `ymm` the strided
        // body.
        assert_eq!(sliding_width(15, true, true), Width::Ymm);
        assert_eq!(sliding_width(4, true, true), Width::Ymm);
        assert_eq!(sliding_width(3, true, true), Width::Strided);
        // Without AVX-512F, `ymm` at any length; without AVX, strided.
        assert_eq!(sliding_width(1024, true, false), Width::Ymm);
        assert_eq!(sliding_width(1024, false, false), Width::Strided);
    }

    #[test]
    fn dot_dispatch_matches_scalar_exactly() {
        for n in [0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 100, 2047] {
            let a = ramp(n, 1.3);
            let b = ramp(n, 0.7);
            let fast = dot_rr4(&a, &b);
            let slow = dot_rr4_scalar(&a, &b);
            assert_eq!(fast.to_bits(), slow.to_bits(), "n = {n}");
        }
    }

    #[test]
    fn mismatched_dot_lengths_use_the_common_prefix() {
        let (a, b) = (ramp(40, 1.3), ramp(17, 0.7));
        let want = dot_rr4_scalar(&a[..17], &b);
        assert_eq!(dot_rr4(&a, &b).to_bits(), want.to_bits());
        assert_eq!(dot_rr4(&b, &a).to_bits(), dot_rr4_scalar(&b, &a).to_bits());
        assert_eq!(dot_rr4(&a, &[]), 0.0);
    }

    #[test]
    fn empty_blocks_are_no_ops() {
        let window = ramp(62, 0.9);
        fir_block_rr4(&window, &ramp(63, 1.7), &mut []);
        dot_rr4_strided(&[], 25, &ramp(63, 1.7), &mut [], 1);
        // No taps: every window is empty and every output the empty sum.
        let mut out = [1.0; 3];
        dot_rr4_strided(&window, 31, &[], &mut out, 1);
        assert_eq!(out, [0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "a whole vector inside the slice")]
    fn a_ring_load_past_the_block_window_panics() {
        // 32 outputs of 9 taps need 40 samples; lane 0's last tap loads the
        // vector ending at the 40th.
        residue_block::<8, 4, 8>(&ramp(39, 0.9), &ramp(9, 1.7), &mut [0.0; 32]);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn fir_block_rejects_a_short_window() {
        fir_block_rr4(&ramp(70, 0.9), &ramp(63, 1.7), &mut [0.0; 16]);
    }

    #[test]
    #[should_panic(expected = "does not hold")]
    fn fir_block_rejects_empty_taps() {
        fir_block_rr4(&[], &[], &mut []);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn strided_block_rejects_a_short_window() {
        // Four outputs at stride 25 need 75 + 63 samples.
        dot_rr4_strided(&ramp(137, 0.9), 25, &ramp(63, 1.7), &mut [0.0; 4], 1);
    }

    #[test]
    #[should_panic(expected = "too short")]
    fn strided_block_rejects_an_overflowing_extent() {
        dot_rr4_strided(&ramp(64, 0.9), usize::MAX, &ramp(8, 1.7), &mut [0.0; 3], 1);
    }

    #[test]
    #[should_panic(expected = "stride must be positive")]
    fn strided_block_rejects_a_zero_output_stride() {
        dot_rr4_strided(&ramp(64, 0.9), 1, &ramp(8, 1.7), &mut [0.0; 3], 0);
    }
}
