//! Kernel cost calibration: measure ns/firing per coordinated function.
//!
//! [`profile_graph`] runs each kernel of a graph at a representative burst
//! size (the same [`Kernel::fire_block_into`] path the static-order engine
//! replays) and estimates its per-firing cost with a **deterministic robust
//! estimator**: the timed repeats are sorted, the fastest and slowest few
//! are dropped, and the median of the rest is taken — no randomness, no
//! mean that one preempted run can poison. Timings are still timings: two
//! calibrations of the same binary give *similar*, not identical, tables.
//! The table is an observation of the host, read by benchmarks that split
//! a run's time into kernel work and coordination; the partitioner never
//! sees it (it balances on declared CTA response times).

use crate::kernel::{Kernel, KernelLibrary};
use oil_compiler::rtgraph::RtGraph;
use std::collections::BTreeMap;
use std::time::Instant;

/// Firings per timed repeat. Bursts amortise the clock reads and match the
/// static engine's block replay granularity.
const BURST: usize = 64;
/// Timed repeats per kernel (the estimator's sample count).
const REPEATS: usize = 9;
/// Repeats dropped from *each* end of the sorted durations before the
/// median.
const TRIM: usize = 2;
/// Untimed warmup repeats (cache/branch-predictor settling).
const WARMUP: usize = 2;

/// How [`profile_graph`] calibrates. It has no settings: every kernel is
/// measured 9 × 64 firings (after 2 warmup repeats), trimming the 2 fastest
/// and 2 slowest repeats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileConfig;

/// Calibrated ns/firing per coordinated function, as [`profile_graph`]
/// measured it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelCosts(BTreeMap<String, f64>);

impl KernelCosts {
    /// Measured ns/firing for `function`, `None` if it was not calibrated.
    pub fn ns_per_firing(&self, function: &str) -> Option<f64> {
        self.0.get(function).copied()
    }
}

/// Calibrate every distinct node function of `graph` against `lib`. Each
/// function is measured at the input/output shape its first node declares
/// — per-firing rates are a property of the function in OIL, so any node
/// of the function gives the representative shape.
pub fn profile_graph(graph: &RtGraph, lib: &KernelLibrary, _config: &ProfileConfig) -> KernelCosts {
    let mut shapes: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for node in graph.nodes.iter() {
        let in_len: usize = node.reads.iter().map(|&(_, c)| c).sum();
        let out_len: usize = node.writes.iter().map(|&(_, c)| c).max().unwrap_or(0);
        shapes.entry(&node.function).or_insert((in_len, out_len));
    }
    KernelCosts(
        shapes
            .into_iter()
            .map(|(function, (in_len, out_len))| {
                let mut kernel = lib.instantiate(function);
                let ns = profile_kernel(&mut kernel, in_len, out_len);
                (function.to_string(), ns)
            })
            .collect(),
    )
}

/// Measure one kernel's ns/firing at the given per-firing shape: `WARMUP`
/// untimed bursts, `REPEATS` timed bursts of `BURST` firings through
/// [`Kernel::fire_block_into`], then the trimmed median over the repeat
/// durations divided by the burst size.
fn profile_kernel(kernel: &mut Kernel, in_len: usize, out_len: usize) -> f64 {
    let inputs = calibration_signal(BURST * in_len);
    let mut out: Vec<f64> = Vec::with_capacity(BURST * out_len);
    let mut run = |timed: bool| -> u64 {
        out.clear();
        let t0 = Instant::now();
        kernel.fire_block_into(&inputs, BURST, in_len, out_len, &mut out);
        if timed {
            t0.elapsed().as_nanos() as u64
        } else {
            0
        }
    };
    for _ in 0..WARMUP {
        run(false);
    }
    let mut durations: Vec<u64> = (0..REPEATS).map(|_| run(true)).collect();
    trimmed_median_ns(&mut durations, TRIM) / BURST as f64
}

/// The trimmed-median estimator over raw burst durations: sort, drop
/// `trim` from each end (clamped to leave at least one sample), take the
/// median of the survivors (midpoint average for even counts).
/// Deterministic in its inputs — the only nondeterminism in calibration is
/// the clock itself.
fn trimmed_median_ns(durations: &mut [u64], trim: usize) -> f64 {
    assert!(!durations.is_empty(), "no samples to estimate from");
    durations.sort_unstable();
    let trim = trim.min((durations.len() - 1) / 2);
    let kept = &durations[trim..durations.len() - trim];
    let mid = kept.len() / 2;
    if kept.len() % 2 == 1 {
        kept[mid] as f64
    } else {
        (kept[mid - 1] as f64 + kept[mid] as f64) / 2.0
    }
}

/// A deterministic pseudo-random calibration input in `[-1, 1)` (the same
/// keyed mix the synthetic kernels use), so calibrations are reproducible
/// modulo the clock.
fn calibration_signal(len: usize) -> Vec<f64> {
    (0..len as u64)
        .map(|i| {
            let h = (0x5851_F42D_4C95_7F2D ^ i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23)
                .wrapping_mul(0xBF58_476D_1CE4_E5B9);
            (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trimmed_median_is_robust_to_outliers() {
        // One preempted (huge) repeat must not move the estimate.
        let mut clean = vec![100, 101, 102, 103, 104, 105, 106, 107, 108];
        let mut spiked = vec![100, 101, 102, 103, 104, 105, 106, 107, 1_000_000];
        assert_eq!(trimmed_median_ns(&mut clean, 2), 104.0);
        assert_eq!(trimmed_median_ns(&mut spiked, 2), 104.0);
    }

    #[test]
    fn trim_clamps_to_keep_a_sample() {
        let mut one = vec![42];
        assert_eq!(trimmed_median_ns(&mut one, 5), 42.0);
        let mut two = vec![10, 20];
        assert_eq!(trimmed_median_ns(&mut two, 5), 15.0);
    }

    #[test]
    fn profiling_a_kernel_yields_a_positive_finite_cost() {
        let lib = KernelLibrary::pal();
        let mut mix = lib.instantiate("mix");
        let ns = profile_kernel(&mut mix, 1, 1);
        assert!(ns.is_finite() && ns >= 0.0, "got {ns}");
        // A 63-tap FIR over a 25-sample burst costs measurably more than a
        // single mixer multiply.
        let mut lpf = lib.instantiate("LPF");
        let lpf_ns = profile_kernel(&mut lpf, 25, 1);
        assert!(lpf_ns > 0.0);

        // The whole graph, as benchmarks calibrate it: every node function
        // gets a cost, and a function outside the graph gets none.
        let exe = oil_compiler::build(
            oil_pal::PAL_DECODER_OIL,
            &oil_pal::pal_registry(),
            1,
            &Default::default(),
        )
        .expect("PAL builds");
        let costs = profile_graph(&exe.graph, &lib, &ProfileConfig);
        for node in exe.graph.nodes.iter() {
            let ns = costs.ns_per_firing(&node.function);
            assert!(
                ns.is_some_and(|ns| ns.is_finite() && ns >= 0.0),
                "{}: got {ns:?}",
                node.function
            );
        }
        assert_eq!(costs.ns_per_firing("not_in_pal"), None);
    }

    #[test]
    fn calibration_signal_is_deterministic_and_bounded() {
        let a = calibration_signal(64);
        let b = calibration_signal(64);
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
