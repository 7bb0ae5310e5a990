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
//! Two vector bodies reproduce that order, and which one runs depends on
//! how the outputs' windows lie in memory:
//!
//! * **Sliding window, lane = output** ([`fir_block_rr4`]). Consecutive
//!   outputs read windows one sample apart, so one broadcast tap times one
//!   unaligned window load is the tap-`i` product of a whole vector of
//!   outputs. A block keeps `V` vectors × 4 accumulators in registers
//!   (accumulator `r` of an output is its round-robin lane `r`), so every
//!   tap broadcast is shared by `V` vectors of outputs, there is no tap
//!   tail and no horizontal step: `(l0+l1)+(l2+l3)` is three vector adds
//!   yielding finished outputs. The body is written once over `Lanes`
//!   and instantiated for `ymm` (AVX, 4 outputs per vector) and `zmm`
//!   (AVX-512F, 8 per vector). A block length that is not a whole number
//!   of vectors recomputes the last vector's worth of outputs (same
//!   windows, same bits) instead of masking.
//! * **Strided windows, lane = tap mod 4** ([`dot_rr4_strided`]). A
//!   decimator's or a polyphase resampler's outputs read windows `stride`
//!   samples apart, so the vector holds one output's four partial sums and
//!   four windows are in flight sharing each tap load. A tap count that is
//!   not a multiple of four ends in a masked load and a *blended* add:
//!   lanes past the end are never read and keep their sum untouched (adding
//!   a padded `+0.0` would turn a `-0.0` lane into `+0.0`, and `0·∞` would
//!   make it NaN). [`dot_rr4`] is this body with one window.
//!
//! **Which width.** `zmm` halves the instruction count per output (on the
//! development host the 2047-tap/64-output block reads 140 ns per output
//! against 155–165 on `ymm`, the 63-tap/400-output block 4.0 against 5.3),
//! but the first 512-bit instructions after a stretch without any run at
//! reduced throughput while the core powers the upper lanes, so a short
//! burst between other kernels gains nothing: inside the PAL decoder's
//! period the 63-tap filter reads the same on either width. The rule is by
//! shape alone — at least `ZMM_MIN_PRODUCTS` multiply-adds in the block
//! (a few microseconds of work) and two `zmm` vectors of outputs — on hosts
//! that report AVX-512F; everything else with AVX takes `ymm`, and every
//! other architecture the scalar loop.
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
        // SAFETY: `simd_available` proved AVX support; one window of `n`
        // samples at `a` is in bounds because `n <= a.len()`, the taps are
        // exactly `b[..n]`, and `y` is the single output slot.
        unsafe { strided_avx(a.as_ptr(), 0, &b[..n], &mut y, 1, 1) };
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
        // SAFETY: `simd_available` proved AVX support; the assert above
        // bounds every window `[q·stride, q·stride + n)` for `q < count`
        // inside `window`, and `(count - 1)·out_stride < out.len()` by the
        // definition of `count`.
        unsafe {
            strided_avx(
                window.as_ptr(),
                stride,
                rtaps,
                out.as_mut_ptr(),
                out_stride,
                count,
            )
        };
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
    if simd_available() {
        let m = out.len();
        if m >= 2 * <__m512d as Lanes>::N
            && m.saturating_mul(n) >= ZMM_MIN_PRODUCTS
            && std::arch::is_x86_feature_detected!("avx512f")
        {
            // SAFETY: AVX-512F was just detected; the assert above gives
            // every output `j < m` its window `[j, j + n)` inside `window`,
            // and `m` is at least one vector.
            unsafe { sliding_zmm(window.as_ptr(), rtaps, out) };
            return;
        }
        if m >= <__m256d as Lanes>::N {
            // SAFETY: as above, with AVX proved by `simd_available`.
            unsafe { sliding_ymm(window.as_ptr(), rtaps, out) };
            return;
        }
    }
    // Shorter than one vector of outputs (or no vector unit): the windows
    // are a stride-1 case of the strided kernel.
    dot_rr4_strided(window, 1, rtaps, out, 1);
}

/// Multiply-adds (`outputs × taps`) a block must hold before the 512-bit
/// body is worth its warm-up; see the module docs.
#[cfg(target_arch = "x86_64")]
const ZMM_MIN_PRODUCTS: usize = 1 << 16;

/// One vector of `f64` lanes — the operations the sliding-window body
/// needs, so it is written once for every width.
///
/// # Safety
/// Every method requires the CPU feature of the implementing width (checked
/// by whoever enters the `#[target_feature]` function these inline into);
/// `load`/`store` additionally require `N` readable / writable `f64`s at
/// `p` (no alignment).
#[cfg(target_arch = "x86_64")]
trait Lanes: Copy {
    /// Lanes per vector.
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(x: f64) -> Self;
    unsafe fn load(p: *const f64) -> Self;
    unsafe fn store(self, p: *mut f64);
    unsafe fn mul(self, o: Self) -> Self;
    unsafe fn add(self, o: Self) -> Self;
}

#[cfg(target_arch = "x86_64")]
macro_rules! impl_lanes {
    ($vec:ty, $n:expr, $zero:ident, $splat:ident, $load:ident, $store:ident, $mul:ident, $add:ident) => {
        impl Lanes for $vec {
            const N: usize = $n;
            #[inline(always)]
            unsafe fn zero() -> Self {
                $zero()
            }
            #[inline(always)]
            unsafe fn splat(x: f64) -> Self {
                $splat(x)
            }
            #[inline(always)]
            unsafe fn load(p: *const f64) -> Self {
                $load(p)
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut f64) {
                $store(p, self)
            }
            #[inline(always)]
            unsafe fn mul(self, o: Self) -> Self {
                $mul(self, o)
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                $add(self, o)
            }
        }
    };
}

#[cfg(target_arch = "x86_64")]
impl_lanes!(
    __m256d,
    4,
    _mm256_setzero_pd,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_mul_pd,
    _mm256_add_pd
);
#[cfg(target_arch = "x86_64")]
impl_lanes!(
    __m512d,
    8,
    _mm512_setzero_pd,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_mul_pd,
    _mm512_add_pd
);

/// `V·L::N` consecutive outputs: lane `k` of vector `v` is output
/// `v·L::N + k`, and `acc[r][v]` collects the products of the taps with
/// index `≡ r (mod 4)` in ascending tap order — exactly lane `r` of each
/// output's round-robin reduction.
///
/// # Safety
/// `L`'s CPU feature; `base` readable for `V·L::N + rtaps.len() - 1`
/// samples; `out` writable for `V·L::N`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn sliding_block<L: Lanes, const V: usize>(base: *const f64, rtaps: &[f64], out: *mut f64) {
    let (n, tp) = (rtaps.len(), rtaps.as_ptr());
    let mut acc = [[L::zero(); V]; 4];
    // One tap: its broadcast times `V` window vectors, into lane `r`.
    let step = |lane: &mut [L; V], i: usize| {
        let t = L::splat(*tp.add(i));
        for (v, a) in lane.iter_mut().enumerate() {
            *a = a.add(L::load(base.add(i + v * L::N)).mul(t));
        }
    };
    // `r` only ever indexes `acc` as a constant of an unrolled loop: a
    // run-time `acc[i & 3]` would send every accumulator through memory.
    let mut i = 0;
    while i + 4 <= n {
        for (r, lane) in acc.iter_mut().enumerate() {
            step(lane, i + r);
        }
        i += 4;
    }
    for (r, lane) in acc.iter_mut().enumerate() {
        if i + r < n {
            step(lane, i + r);
        }
    }
    let [l0, l1, l2, l3] = acc;
    for (v, l0) in l0.into_iter().enumerate() {
        let y = l0.add(l1[v]).add(l2[v].add(l3[v]));
        y.store(out.add(v * L::N));
    }
}

/// The sliding-window body: blocks of `V` vectors, then single vectors,
/// then one vector recomputing the last `L::N` outputs when the length is
/// not a whole number of vectors.
///
/// # Safety
/// `L`'s CPU feature; `out.len() >= L::N`; `window` readable for
/// `out.len() + rtaps.len() - 1` samples.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn sliding<L: Lanes, const V: usize>(window: *const f64, rtaps: &[f64], out: &mut [f64]) {
    let (m, o) = (out.len(), out.as_mut_ptr());
    let mut j = 0;
    while j + V * L::N <= m {
        sliding_block::<L, V>(window.add(j), rtaps, o.add(j));
        j += V * L::N;
    }
    while j + L::N <= m {
        sliding_block::<L, 1>(window.add(j), rtaps, o.add(j));
        j += L::N;
    }
    if j < m {
        sliding_block::<L, 1>(window.add(m - L::N), rtaps, o.add(m - L::N));
    }
}

/// # Safety
/// AVX; otherwise as [`sliding`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn sliding_ymm(window: *const f64, rtaps: &[f64], out: &mut [f64]) {
    sliding::<__m256d, 3>(window, rtaps, out)
}

/// # Safety
/// AVX-512F; otherwise as [`sliding`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sliding_zmm(window: *const f64, rtaps: &[f64], out: &mut [f64]) {
    sliding::<__m512d, 2>(window, rtaps, out)
}

/// `TAIL_MASKS[k]` selects the first `k` lanes of a `ymm`.
#[cfg(target_arch = "x86_64")]
static TAIL_MASKS: [[i64; 4]; 4] = [[0; 4], [-1, 0, 0, 0], [-1, -1, 0, 0], [-1, -1, -1, 0]];

/// `count` strided windows, four in flight.
///
/// # Safety
/// AVX; `window` readable for `(count - 1)·stride + rtaps.len()` samples;
/// `out` writable at `q·out_stride` for every `q < count`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn strided_avx(
    window: *const f64,
    stride: usize,
    rtaps: &[f64],
    out: *mut f64,
    out_stride: usize,
    count: usize,
) {
    let mut q = 0;
    while q + 4 <= count {
        let y = strided_group::<4>(window.add(q * stride), stride, rtaps);
        let (lo, hi) = (_mm256_castpd256_pd128(y), _mm256_extractf128_pd(y, 1));
        let o = out.add(q * out_stride);
        _mm_storel_pd(o, lo);
        _mm_storeh_pd(o.add(out_stride), lo);
        _mm_storel_pd(o.add(2 * out_stride), hi);
        _mm_storeh_pd(o.add(3 * out_stride), hi);
        q += 4;
    }
    while q < count {
        let y = strided_group::<1>(window.add(q * stride), stride, rtaps);
        *out.add(q * out_stride) = _mm256_cvtsd_f64(y);
        q += 1;
    }
}

/// `G` windows `stride` apart against one tap set; lane `g` of the result
/// is window `g`'s dot product (lanes `G..` repeat the last window).
/// Vector lane `l` of `acc[g]` is the window's round-robin lane `l`.
///
/// # Safety
/// AVX; `window` readable for `(G - 1)·stride + rtaps.len()` samples.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn strided_group<const G: usize>(
    window: *const f64,
    stride: usize,
    rtaps: &[f64],
) -> __m256d {
    let (n, tp) = (rtaps.len(), rtaps.as_ptr());
    let mut acc = [_mm256_setzero_pd(); G];
    let mut i = 0;
    while i + 4 <= n {
        let t = _mm256_loadu_pd(tp.add(i));
        for (g, a) in acc.iter_mut().enumerate() {
            let w = _mm256_loadu_pd(window.add(g * stride + i));
            *a = _mm256_add_pd(*a, _mm256_mul_pd(w, t));
        }
        i += 4;
    }
    if i < n {
        // Lanes past the last tap are neither read nor added to.
        let mask = _mm256_loadu_si256(TAIL_MASKS[n - i].as_ptr().cast());
        let t = _mm256_maskload_pd(tp.add(i), mask);
        for (g, a) in acc.iter_mut().enumerate() {
            let w = _mm256_maskload_pd(window.add(g * stride + i), mask);
            let sum = _mm256_add_pd(*a, _mm256_mul_pd(w, t));
            *a = _mm256_blendv_pd(*a, sum, _mm256_castsi256_pd(mask));
        }
    }
    // `(l0 + l1) + (l2 + l3)` of four accumulators at once: `hadd` pairs
    // the lanes within each 128-bit half, the permutes line the low and
    // high halves' pair sums up per window.
    let at = |g: usize| acc[g.min(G - 1)];
    let ab = _mm256_hadd_pd(at(0), at(1));
    let cd = _mm256_hadd_pd(at(2), at(3));
    _mm256_add_pd(
        _mm256_permute2f128_pd(ab, cd, 0x20),
        _mm256_permute2f128_pd(ab, cd, 0x31),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize, seed: f64) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * seed + 0.37).sin()).collect()
    }

    /// `ramp` with every special class of `f64` sprinkled in.
    fn hostile(n: usize, seed: f64) -> Vec<f64> {
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
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    type Body = fn(&[f64], usize, &[f64], &mut [f64], usize) -> bool;

    /// Every kernel body at every ISA level this host supports, entered
    /// directly — the dispatchers only ever reach the widest — next to the
    /// dispatchers themselves. Each computes `out[q·out_stride] =
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
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx") {
                bodies.push(("strided_avx", |w, stride, t, out, os| {
                    let count = out.len().div_ceil(os);
                    assert!((count - 1) * stride + t.len() <= w.len());
                    // SAFETY: AVX detected; windows and outputs bounded by
                    // the assert and the definition of `count`.
                    unsafe { strided_avx(w.as_ptr(), stride, t, out.as_mut_ptr(), os, count) };
                    true
                }));
                bodies.push(("sliding_ymm", |w, stride, t, out, os| {
                    let takes = stride == 1 && os == 1 && out.len() >= 4;
                    if takes {
                        assert!(out.len() + t.len() - 1 <= w.len());
                        // SAFETY: AVX detected; a vector of outputs, and
                        // the window holds them all.
                        unsafe { sliding_ymm(w.as_ptr(), t, out) };
                    }
                    takes
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                bodies.push(("sliding_zmm", |w, stride, t, out, os| {
                    let takes = stride == 1 && os == 1 && out.len() >= 8;
                    if takes {
                        assert!(out.len() + t.len() - 1 <= w.len());
                        // SAFETY: as for `ymm`, AVX-512F detected.
                        unsafe { sliding_zmm(w.as_ptr(), t, out) };
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

    const TAPS: [usize; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 63, 64, 2047];

    fn outputs() -> Vec<usize> {
        (1..=33).chain([64, 100, 400]).collect()
    }

    #[test]
    fn every_body_matches_the_scalar_order_bit_for_bit() {
        let outputs = outputs();
        for n in TAPS {
            let rtaps = ramp(n, 1.7);
            let signal = ramp(400 + n - 1, 0.9);
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
        let outputs: Vec<usize> = (1..=33).collect();
        for n in TAPS.into_iter().filter(|&n| n <= 64) {
            let signal = hostile(40 * 3 + n, 0.9);
            for rtaps in [ramp(n, 1.7), hostile(n, 0.3)] {
                for offset in [0, 5] {
                    check(&signal, &rtaps, offset, &outputs, &[1, 3]);
                }
            }
        }
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
