//! Run metrics: per-worker counters and histograms folded at teardown, and
//! the CTA drift verdict of every sink.
//!
//! Tracing (`crate::trace`) keeps the events of a run; metrics keep only
//! their sums, cheap enough to leave on for a whole soak run. Both are read
//! from the same place: each worker of an engine owns one probe
//! (`trace::Probe`), whose plain counters (work items, busy
//! ns, a log₂ histogram, parks and ring waits) take every value from one
//! read of one clock. The engine hands the probes back at join and folds
//! them into a [`MetricsReport`] and, when tracing, a
//! [`TraceReport`](crate::trace::TraceReport) — so the two views of one
//! run agree exactly (`tests/metrics_differential.rs`). Off, each
//! instrumentation site is one predictable branch on the probe's `Option`.
//!
//! The drift detector is the paper's polynomial-time analysis used as a
//! **live oracle**: the CTA predicts each sink's steady throughput
//! (`1/period`); the sink's [`SinkMonitor`] closes fixed-size windows of
//! its consumption and the judge compares each window's observed rate with
//! the prediction. A window below the predicted rate is
//! [`RateVerdict::Violated`] — within one window of the slowdown, not at
//! end-of-run; a sustained monotone decline is [`RateVerdict::Degrading`]
//! while the rate is still above the floor.

use crate::measure::{RateVerdict, SinkMonitor};
use crate::trace::Probe;

/// Log2-ns histogram buckets (bucket `i` holds durations in
/// `[2^i, 2^(i+1))` ns, the last bucket everything longer) — the same
/// shape `trace::unit_stats` uses.
pub const HIST_BUCKETS: usize = 32;

/// Metrics knobs. Engines receive `Option<MetricsConfig>` — `None` is off
/// (zero overhead beyond one branch per site).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Sink samples per drift window. Smaller windows detect drift sooner;
    /// a window closes at a clock stamp the sink takes anyway, so its size
    /// costs no clock read.
    pub window: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { window: 1 << 16 }
    }
}

/// The metrics of one run: the workers' probes and the sinks' drift
/// verdicts, folded at teardown.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Which engine recorded.
    pub engine: &'static str,
    /// Worker probes merged into the totals.
    pub workers: usize,
    /// Work items recorded (steps and fused super-steps on the static-order
    /// engine, productive unit passes on the self-timed one): the number of
    /// `Firing` + `SuperStep` spans of a traced run.
    pub firings: u64,
    /// Total ns across recorded work items.
    pub firing_ns: u64,
    /// Log2-ns histogram of work-item durations.
    pub firing_hist: [u64; HIST_BUCKETS],
    /// Parks: condvar parks of the self-timed idle protocol plus parks on a
    /// blocked ring wait — `TraceReport::park_count`.
    pub parks: u64,
    /// Total ns workers spent blocked in ring waits (cross-worker rings of
    /// the static-order engine; the self-timed engine never blocks on a
    /// ring, and its parks are not backpressure) —
    /// `TraceReport::backpressure_wait_ns`.
    pub backpressure_ns: u64,
    /// Samples consumed by all sinks.
    pub sink_samples: u64,
    /// Per-worker busy ns across recorded work items (index = worker):
    /// the measured side of predicted-vs-measured utilization.
    pub worker_firing_ns: Vec<u64>,
    /// The worst drift verdict of the run's sinks.
    pub verdict: RateVerdict,
}

impl MetricsReport {
    /// Fold the workers' probes, in worker order, and the run's sinks.
    pub(crate) fn fold<'a>(
        engine: &'static str,
        probes: impl IntoIterator<Item = &'a Probe>,
        sinks: &[SinkMonitor],
    ) -> Self {
        let mut report = MetricsReport {
            engine,
            workers: 0,
            firings: 0,
            firing_ns: 0,
            firing_hist: [0; HIST_BUCKETS],
            parks: 0,
            backpressure_ns: 0,
            sink_samples: sinks.iter().map(|s| s.samples).sum(),
            worker_firing_ns: Vec::new(),
            verdict: (sinks.iter()).fold(RateVerdict::Pass, |v, s| v.max(s.drift())),
        };
        for p in probes {
            report.workers += 1;
            report.firings += p.items;
            report.firing_ns += p.busy_ns;
            for (total, n) in report.firing_hist.iter_mut().zip(&p.hist) {
                *total += n;
            }
            report.parks += p.park_count();
            report.backpressure_ns += p.wait.wait_ns;
            report.worker_firing_ns.push(p.busy_ns);
        }
        report
    }

    /// The `q`-quantile (0..=1) of work-item duration, as the upper bound
    /// of the log2 bucket the quantile falls in (ns). 0 when nothing was
    /// recorded.
    pub fn firing_quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.firing_hist.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &n) in self.firing_hist.iter().enumerate() {
            cum += n;
            if cum >= target {
                return 1u64 << (i + 1).min(63);
            }
        }
        1u64 << 63
    }

    /// Per-worker measured utilization over a run that took `wall_ns`:
    /// each worker's busy ns divided by the wall time. The measured
    /// counterpart of a static schedule's predicted per-worker
    /// utilization.
    pub fn measured_utilization(&self, wall_ns: u64) -> Vec<f64> {
        let wall = wall_ns.max(1) as f64;
        self.worker_firing_ns
            .iter()
            .map(|&ns| ns as f64 / wall)
            .collect()
    }

    /// One human line per run: the health summary.
    pub fn summary_line(&self) -> String {
        format!(
            "metrics[{}x{}]: {} items p50={}ns p99={}ns parks={} backpressure={}ns drift={}",
            self.engine,
            self.workers,
            self.firings,
            self.firing_quantile_ns(0.50),
            self.firing_quantile_ns(0.99),
            self.parks,
            self.backpressure_ns,
            self.verdict
        )
    }
}

/// Read the `OIL_RT_METRICS` toggle from the environment, with the one
/// toggle parser `OIL_RT_TRACE` uses (unset or empty = off, loud on
/// junk). Engines never read the environment themselves; callers thread
/// the resulting config through
/// [`crate::SelfTimedConfig`]/[`crate::StaticConfig`].
pub fn env_metrics() -> Option<MetricsConfig> {
    crate::trace::env_toggle("OIL_RT_METRICS").then(MetricsConfig::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::{judge, WindowObs};
    use std::time::Instant;

    fn cfg(window: u64) -> Option<MetricsConfig> {
        Some(MetricsConfig { window })
    }

    #[test]
    fn probes_fold_into_one_metrics_report() {
        let epoch = Instant::now();
        let probe = |durations: &[u64]| {
            let mut p = Probe::new(epoch, 0, false);
            for &dur in durations {
                p.items += 1;
                p.busy_ns += dur;
                p.hist[crate::trace::log2_bucket(dur)] += 1;
            }
            p
        };
        let (a, mut b) = (probe(&[100, 1000]), probe(&[10]));
        b.parks = 1;
        b.wait.parks = 2;
        b.wait.wait_ns = 77;
        let mut sink = SinkMonitor::new("sink", 1.0, 0, None);
        sink.record(5);
        let r = MetricsReport::fold("test", [&a, &b], &[sink]);
        assert_eq!((r.workers, r.firings, r.firing_ns), (2, 3, 1110));
        assert_eq!(r.worker_firing_ns, [1100, 10]);
        assert_eq!(
            r.parks, 3,
            "condvar and ring parks, as the trace counts them"
        );
        assert_eq!(r.backpressure_ns, 77);
        assert_eq!(r.sink_samples, 5);
        // One stamp, no window: no evidence of drift is not a pass.
        assert_eq!(r.verdict, RateVerdict::Inconclusive);
        assert!(r.firing_quantile_ns(0.99) >= 1024);
        assert!(r.summary_line().contains("parks=3"), "{}", r.summary_line());
    }

    #[test]
    fn windows_close_on_sample_count_and_carry_rates() {
        let mut mon = SinkMonitor::new("sink", 1.0, 0, cfg(128));
        for _ in 0..321 {
            mon.record(1);
        }
        mon.finish();
        // Origin at sample 1, then 128 + 128 + a 64-sample tail up to the
        // last stamp (sample 321); nothing after it was timed.
        let samples: Vec<u64> = mon.windows.iter().map(|w| w.samples).collect();
        assert_eq!(samples, [128, 128, 64]);
        assert!(mon.windows.iter().all(|w| w.observed_hz > 0.0));
        assert_eq!(mon.steady().map(|w| w.samples), Some(320));
    }

    #[test]
    fn block_records_merge_windows_instead_of_splitting() {
        let mut mon = SinkMonitor::new("sink", 1.0, 0, cfg(100));
        mon.record(1);
        std::thread::sleep(std::time::Duration::from_micros(10));
        mon.record(1000);
        mon.finish();
        assert_eq!(mon.windows.len(), 1);
        assert_eq!(mon.windows[0].samples, 1000);
    }

    #[test]
    fn drift_verdict_flags_a_slow_window_immediately() {
        let fast = WindowObs {
            samples: 100,
            dur_ns: 100,
            observed_hz: 1e9,
        };
        let slow = WindowObs {
            samples: 100,
            dur_ns: 1_000_000_000,
            observed_hz: 100.0,
        };
        assert_eq!(judge(&[fast], 1000.0, 1.0), RateVerdict::Pass);
        match judge(&[fast, slow], 1000.0, 1.0) {
            RateVerdict::Violated {
                window,
                observed_hz,
                predicted_hz,
            } => {
                assert_eq!(window, 1);
                assert_eq!(observed_hz, 100.0);
                assert_eq!(predicted_hz, 1000.0);
            }
            other => panic!("expected Violated, got {other:?}"),
        }
    }

    #[test]
    fn drift_verdict_reports_sustained_decline_as_degrading() {
        let w = |hz: f64| WindowObs {
            samples: 100,
            dur_ns: 100,
            observed_hz: hz,
        };
        // Declining but still above predicted: Degrading, not Violated.
        let windows = [w(4000.0), w(3000.0), w(2000.0)];
        match judge(&windows, 1000.0, 1.0) {
            RateVerdict::Degrading { rates_hz } => assert_eq!(rates_hz.len(), 3),
            other => panic!("expected Degrading, got {other:?}"),
        }
        // Flat tail, or too short a history to decline: Pass.
        let flat = [w(4000.0), w(4000.0), w(4000.0)];
        assert_eq!(judge(&flat, 1000.0, 1.0), RateVerdict::Pass);
        assert_eq!(judge(&windows[1..], 1000.0, 1.0), RateVerdict::Pass);
    }

    #[test]
    fn parse_metrics_accepts_the_documented_forms() {
        crate::trace::tests::assert_toggle_forms("OIL_RT_METRICS");
    }

    #[test]
    #[should_panic(expected = "OIL_RT_METRICS")]
    fn parse_metrics_rejects_junk_loudly() {
        crate::trace::parse_toggle("OIL_RT_METRICS", "maybe");
    }
}
