//! Single-layer microbenchmarks: each times one public function of one
//! crate in isolation, so a traced run can say what a layer costs per unit
//! of work next to what the whole engine achieved.

use crate::metrics::Measured;
use crate::spans::Recorder;
use crate::stats;
use oil::dataflow::hsdf::HsdfGraph;
use oil::dataflow::statespace::analyze_self_timed;
use oil::dsp::simd::{dot_rr4, dot_rr4_scalar, simd_available};
use oil::dsp::{Decimator, FirFilter, Mixer, RationalResampler};
use oil::rt::ring::{spsc, WaitStats};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How long each microbenchmark samples.
#[derive(Clone, Copy)]
pub struct Budget(pub Duration);

impl Budget {
    pub fn new(smoke: bool) -> Self {
        Budget(Duration::from_millis(if smoke { 5 } else { 60 }))
    }

    /// Median ns per unit over calls of `f` (each doing `units` units): one
    /// untimed call, then at least five timed ones until the budget is used.
    fn ns_per_unit(self, units: usize, mut f: impl FnMut()) -> f64 {
        f();
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < 5 || started.elapsed() < self.0 {
            let t0 = Instant::now();
            f();
            samples.push(t0.elapsed().as_nanos() as f64 / units as f64);
        }
        stats::median(&samples)
    }
}

/// A deterministic full-scale test signal.
fn signal(len: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * 37 % 101) as f64 - 50.0) / 50.0)
        .collect()
}

/// oil-dsp: the kernels as the PAL and wide workloads configure them, the
/// dot product both ways, and a block copy as the memory roofline.
pub fn dsp(rec: &mut Recorder, budget: Budget, m: &mut Measured) {
    rec.span("layers.dsp", |_| {
        const BLOCK: usize = 1 << 16;
        const TAPS: usize = 2047;
        let input = signal(BLOCK);
        let mut out = Vec::with_capacity(BLOCK);

        let mut fir63 = FirFilter::low_pass(1.0e6, 6.4e6, 63);
        let ns = budget.ns_per_unit(BLOCK, || {
            out.clear();
            fir63.process_block_into(black_box(&input), &mut out);
        });
        m.set("dsp.fir63_ns_per_sample", ns);

        let mut fir2047 = FirFilter::low_pass(200.0, 4_000.0, TAPS);
        let short = &input[..BLOCK / 16];
        let ns = budget.ns_per_unit(short.len(), || {
            out.clear();
            fir2047.process_block_into(black_box(short), &mut out);
        });
        m.set("dsp.fir2047_ns_per_sample", ns);

        let mut decimate = Decimator::new(25, 6.4e6, 63);
        let whole = &input[..BLOCK / 25 * 25];
        let ns = budget.ns_per_unit(whole.len(), || {
            out.clear();
            decimate.process_into(black_box(whole), &mut out);
        });
        m.set("dsp.decimate_ns_per_sample", ns);

        let mut resample = RationalResampler::new(10, 16, 6.4e6, 63);
        let ns = budget.ns_per_unit(BLOCK, || {
            black_box(resample.process(black_box(&input)));
        });
        m.set("dsp.resample_ns_per_sample", ns);

        let mut mix = Mixer::new(2.0e6, 6.4e6);
        let ns = budget.ns_per_unit(BLOCK, || {
            black_box(mix.process(black_box(&input)));
        });
        m.set("dsp.mix_ns_per_sample", ns);

        const DOTS: usize = 64;
        let (a, b) = (&input[..TAPS], &input[TAPS..2 * TAPS]);
        let ns = budget.ns_per_unit(DOTS * TAPS, || {
            for _ in 0..DOTS {
                black_box(dot_rr4(black_box(a), black_box(b)));
            }
        });
        m.set("dsp.dot_simd_ns_per_tap", ns);
        let ns = budget.ns_per_unit(DOTS * TAPS, || {
            for _ in 0..DOTS {
                black_box(dot_rr4_scalar(black_box(a), black_box(b)));
            }
        });
        m.set("dsp.dot_scalar_ns_per_tap", ns);
        m.set("dsp.simd_available", f64::from(u8::from(simd_available())));

        let ns = budget.ns_per_unit(BLOCK, || {
            out.clear();
            out.extend_from_slice(black_box(&input));
            black_box(&out);
        });
        m.set("dsp.copy_ns_per_sample", ns);
    });
}

/// oil-rt::ring: one SPSC ring of capacity 64, driven from one thread and
/// (when the host has two cores) across two.
pub fn ring(rec: &mut Recorder, budget: Budget, nproc: usize, m: &mut Measured) {
    const CAPACITY: usize = 64;
    rec.span("layers.ring", |_| {
        let (mut tx, mut rx) = spsc::<f64>(CAPACITY);
        let ns = budget.ns_per_unit(CAPACITY * 64, || {
            for _ in 0..64 {
                for i in 0..CAPACITY {
                    tx.push(i as f64).expect("the ring was drained");
                }
                for _ in 0..CAPACITY {
                    black_box(rx.pop().expect("the ring was filled"));
                }
            }
        });
        m.set("rt.ring.same_thread_ns_per_token", ns);

        if nproc < 2 {
            return;
        }
        let tokens = (budget.0.as_micros() as usize * 16).max(1 << 12);
        let (mut tx, mut rx) = spsc::<f64>(CAPACITY);
        let started = Instant::now();
        let (pushed, popped) = std::thread::scope(|s| {
            let producer = s.spawn(move || {
                let mut stats = WaitStats::default();
                for i in 0..tokens {
                    tx.push_wait_observed(i as f64, || false, Some(&mut stats))
                        .expect("the consumer pops every token");
                }
                stats
            });
            let mut stats = WaitStats::default();
            for _ in 0..tokens {
                black_box(rx.pop_wait_observed(|| false, Some(&mut stats)));
            }
            (producer.join().expect("producer thread"), stats)
        });
        let wall = started.elapsed();
        m.set(
            "rt.ring.cross_thread_ns_per_token",
            wall.as_nanos() as f64 / tokens as f64,
        );
        m.set(
            "rt.ring.cross_thread_parks",
            (pushed.parks + popped.parks) as f64,
        );
        m.set(
            "rt.ring.cross_thread_wait_ns",
            (pushed.wait_ns + popped.wait_ns) as f64,
        );
    });
}

/// oil-dataflow vs oil-cta on one 81:64 multi-rate cycle: the exponential
/// exact analyses next to the polynomial consistency check (reference only).
pub fn dataflow(rec: &mut Recorder, budget: Budget, m: &mut Measured) {
    const P: u64 = 81;
    const Q: u64 = 64;
    rec.span("layers.dataflow", |_| {
        let sdf = oil_bench::multirate_cycle(P, Q, 2 * P);
        let cta = oil_bench::multirate_cycle_cta(P, Q, 2 * P);
        let ns = budget.ns_per_unit(1, || {
            black_box(analyze_self_timed(black_box(&sdf), 100_000).expect("the cycle is live"));
        });
        m.set("dataflow.statespace_us", ns / 1e3);
        let ns = budget.ns_per_unit(1, || {
            let hsdf = HsdfGraph::expand(black_box(&sdf)).expect("the cycle is consistent");
            black_box(hsdf.maximum_cycle_mean());
        });
        m.set("dataflow.hsdf_mcm_us", ns / 1e3);
        let ns = budget.ns_per_unit(1, || {
            black_box(
                cta.consistency_at_maximal_rates()
                    .expect("the cycle is consistent"),
            );
        });
        m.set("cta.cycle_consistency_us", ns / 1e3);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_microbenchmark_reports_a_positive_cost() {
        let budget = Budget(Duration::from_millis(1));
        let mut rec = Recorder::new(true);
        let mut m = Measured::default();
        dsp(&mut rec, budget, &mut m);
        ring(&mut rec, budget, 2, &mut m);
        dataflow(&mut rec, budget, &mut m);
        for name in [
            "dsp.fir63_ns_per_sample",
            "dsp.fir2047_ns_per_sample",
            "dsp.decimate_ns_per_sample",
            "dsp.resample_ns_per_sample",
            "dsp.mix_ns_per_sample",
            "dsp.dot_simd_ns_per_tap",
            "dsp.dot_scalar_ns_per_tap",
            "dsp.copy_ns_per_sample",
            "rt.ring.same_thread_ns_per_token",
            "rt.ring.cross_thread_ns_per_token",
            "dataflow.statespace_us",
            "dataflow.hsdf_mcm_us",
            "cta.cycle_consistency_us",
        ] {
            assert!(m.get(name).unwrap() > 0.0, "{name}");
        }
        assert_eq!(rec.spans().len(), 3);
    }
}
