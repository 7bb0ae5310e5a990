//! Always-on runtime metrics: lock-free per-worker cells, windowed sink
//! throughput, and live CTA-drift detection.
//!
//! Tracing (`crate::trace`) answers *what happened* after the fact, with a
//! bounded one-shot buffer. Metrics answer *how is it going* while it goes:
//! cheap enough to leave enabled for a whole soak run, readable while the
//! engines are still executing. The discipline matches the tracer's — each
//! engine holds an `Option<…>` hook and pays **one predictable branch**
//! per instrumented site when metrics are off; when on, every hot-path
//! write lands in the worker's own [`MetricCell`] (`Relaxed` atomics, no
//! sharing, no locks), and only the once-per-window sink bookkeeping takes
//! a mutex (cold by construction).
//!
//! The drift detector is the paper's polynomial-time analysis used as a
//! **live oracle**: the CTA predicts each sink's steady throughput
//! (`1/period`); the registry buckets sink consumption into fixed-size
//! windows and compares each window's observed rate against the
//! prediction. A window below the predicted rate raises
//! [`DriftVerdict::Violated`] immediately — within one window of the
//! slowdown, not at end-of-run; a sustained monotone decline raises
//! [`DriftVerdict::Degrading`] while the rate is still above the floor.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Log2-ns histogram buckets (bucket `i` holds durations in
/// `[2^i, 2^(i+1))` ns, the last bucket everything longer) — the same
/// shape `trace::unit_stats` uses.
pub const HIST_BUCKETS: usize = 32;

/// Metrics knobs. Engines receive `Option<MetricsConfig>` — `None` is off
/// (the historical behaviour, zero overhead beyond one branch per site).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricsConfig {
    /// Sink samples per drift window. Smaller windows detect drift sooner
    /// and cost one clock read per closure; the default keeps window
    /// closures far off the hot path.
    pub window: u64,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig { window: 1 << 16 }
    }
}

/// Relative decline between consecutive windows below which the
/// degradation streak resets (noise floor).
pub const DEGRADE_EPSILON: f64 = 0.01;

/// Consecutive strictly-declining windows (by more than [`DEGRADE_EPSILON`]
/// relative) that raise [`DriftVerdict::Degrading`].
const DEGRADING_WINDOWS: usize = 3;

/// One worker's metric cell. Written by its owning worker with `Relaxed`
/// atomics (single writer, so the counts are exact); readable from any
/// thread at any time.
#[derive(Debug, Default)]
pub struct MetricCell {
    firings: AtomicU64,
    firing_ns: AtomicU64,
    firing_hist: [AtomicU64; HIST_BUCKETS],
    parks: AtomicU64,
    backpressure_ns: AtomicU64,
    sink_samples: AtomicU64,
}

impl MetricCell {
    /// Record one firing (or one fused work item) of `dur_ns`.
    #[inline]
    pub fn record_firing(&self, dur_ns: u64) {
        self.firings.fetch_add(1, Ordering::Relaxed);
        self.firing_ns.fetch_add(dur_ns, Ordering::Relaxed);
        let bucket = (64 - dur_ns.leading_zeros() as usize)
            .saturating_sub(1)
            .min(HIST_BUCKETS - 1);
        self.firing_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Record one park (worker went to sleep waiting for tokens/space).
    #[inline]
    pub fn record_park(&self) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }

    /// Record `ns` spent blocked on a cross-worker buffer.
    #[inline]
    pub fn record_backpressure(&self, ns: u64) {
        self.backpressure_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Record `n` samples consumed by a sink on this worker.
    #[inline]
    pub fn record_sink(&self, n: u64) {
        self.sink_samples.fetch_add(n, Ordering::Relaxed);
    }
}

/// One closed drift window of a sink.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObs {
    /// Samples the window covers.
    pub samples: u64,
    /// Wall time the window took, ns.
    pub dur_ns: u64,
    /// `samples / dur_ns`, in Hz.
    pub observed_hz: f64,
}

/// The drift oracle's answer for one sink (or the whole run: the worst
/// sink). Ordered by severity: `Ok < Degrading < Violated`.
#[derive(Debug, Clone, PartialEq)]
pub enum DriftVerdict {
    /// Every window met the CTA-predicted rate.
    Ok,
    /// No violation yet, but the observed rate declined monotonically over
    /// the last three windows.
    Degrading {
        /// The declining per-window rates (Hz), oldest first.
        rates_hz: Vec<f64>,
    },
    /// A window fell below `predicted_hz`.
    Violated {
        /// Index of the first violating window.
        window: usize,
        /// That window's observed rate, Hz.
        observed_hz: f64,
        /// The CTA-predicted rate it missed, Hz.
        predicted_hz: f64,
    },
}

impl DriftVerdict {
    fn severity(&self) -> u8 {
        match self {
            DriftVerdict::Ok => 0,
            DriftVerdict::Degrading { .. } => 1,
            DriftVerdict::Violated { .. } => 2,
        }
    }

    /// The worse of two verdicts.
    pub fn max(self, other: DriftVerdict) -> DriftVerdict {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

/// Judge one sink's window history against its predicted rate: the CTA
/// rate is demanded exactly. An empty history is `Ok` — no evidence is not
/// drift.
pub fn drift_verdict(windows: &[WindowObs], predicted_hz: f64) -> DriftVerdict {
    for (i, w) in windows.iter().enumerate() {
        if w.observed_hz < predicted_hz {
            return DriftVerdict::Violated {
                window: i,
                observed_hz: w.observed_hz,
                predicted_hz,
            };
        }
    }
    if windows.len() >= DEGRADING_WINDOWS {
        let tail = &windows[windows.len() - DEGRADING_WINDOWS..];
        let declining = tail
            .windows(2)
            .all(|p| p[1].observed_hz < p[0].observed_hz * (1.0 - DEGRADE_EPSILON));
        if declining {
            return DriftVerdict::Degrading {
                rates_hz: tail.iter().map(|w| w.observed_hz).collect(),
            };
        }
    }
    DriftVerdict::Ok
}

struct SinkState {
    name: String,
    predicted_hz: f64,
    windows: Vec<WindowObs>,
}

/// The shared registry: one cell per worker plus the per-sink window
/// histories. Engines hold it in an `Arc`; the caller keeps a clone and
/// can [`Self::snapshot`] at any time — including mid-run.
pub struct MetricsHub {
    engine: &'static str,
    config: MetricsConfig,
    epoch: Instant,
    cells: Vec<MetricCell>,
    sinks: Mutex<Vec<SinkState>>,
}

impl MetricsHub {
    /// A hub for `workers` workers of `engine`.
    pub fn new(engine: &'static str, workers: usize, config: MetricsConfig) -> Arc<MetricsHub> {
        Arc::new(MetricsHub {
            engine,
            config,
            epoch: Instant::now(),
            cells: (0..workers.max(1)).map(|_| MetricCell::default()).collect(),
            sinks: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the hub's epoch.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The metrics configuration the hub was built with.
    pub fn config(&self) -> &MetricsConfig {
        &self.config
    }

    /// Worker `w`'s cell (clamped into range so a late-registered helper
    /// thread can still record somewhere).
    #[inline]
    pub fn cell(&self, worker: usize) -> &MetricCell {
        &self.cells[worker.min(self.cells.len() - 1)]
    }

    /// Register a sink and get its windowing monitor (called by the worker
    /// that owns the sink, before its run loop).
    pub fn sink_monitor(
        self: &Arc<Self>,
        name: impl Into<String>,
        predicted_hz: f64,
    ) -> SinkMonitor {
        let mut sinks = self.sinks.lock().unwrap();
        let index = sinks.len();
        sinks.push(SinkState {
            name: name.into(),
            predicted_hz,
            windows: Vec::new(),
        });
        drop(sinks);
        SinkMonitor {
            hub: Arc::clone(self),
            index,
            window: self.config.window.max(1),
            since: 0,
            last_close_ns: self.now_ns(),
        }
    }

    fn push_window(&self, index: usize, obs: WindowObs) {
        let mut sinks = self.sinks.lock().unwrap();
        if let Some(s) = sinks.get_mut(index) {
            s.windows.push(obs);
        }
    }

    /// A consistent-enough snapshot of everything recorded so far: exact
    /// per-cell counts (single-writer `Relaxed` cells), the closed windows,
    /// and the drift verdicts they imply. Callable mid-run or at teardown.
    pub fn snapshot(&self) -> MetricsReport {
        let mut firings = 0u64;
        let mut firing_ns = 0u64;
        let mut firing_hist = [0u64; HIST_BUCKETS];
        let mut parks = 0u64;
        let mut backpressure_ns = 0u64;
        let mut sink_samples = 0u64;
        let mut worker_firing_ns = Vec::with_capacity(self.cells.len());
        for c in &self.cells {
            worker_firing_ns.push(c.firing_ns.load(Ordering::Relaxed));
            firings += c.firings.load(Ordering::Relaxed);
            firing_ns += c.firing_ns.load(Ordering::Relaxed);
            for (i, b) in c.firing_hist.iter().enumerate() {
                firing_hist[i] += b.load(Ordering::Relaxed);
            }
            parks += c.parks.load(Ordering::Relaxed);
            backpressure_ns += c.backpressure_ns.load(Ordering::Relaxed);
            sink_samples += c.sink_samples.load(Ordering::Relaxed);
        }
        let sinks = self.sinks.lock().unwrap();
        let mut verdict = DriftVerdict::Ok;
        let sink_reports: Vec<SinkMetrics> = sinks
            .iter()
            .map(|s| {
                let v = drift_verdict(&s.windows, s.predicted_hz);
                verdict = verdict.clone().max(v.clone());
                SinkMetrics {
                    sink: s.name.clone(),
                    predicted_hz: s.predicted_hz,
                    windows: s.windows.clone(),
                    verdict: v,
                }
            })
            .collect();
        MetricsReport {
            engine: self.engine,
            workers: self.cells.len(),
            firings,
            firing_ns,
            firing_hist,
            parks,
            backpressure_ns,
            sink_samples,
            worker_firing_ns,
            sinks: sink_reports,
            verdict,
        }
    }
}

/// Per-sink window bookkeeping, owned by the worker running the sink. The
/// per-sample cost is one add and one compare; a clock is read only when a
/// window closes.
pub struct SinkMonitor {
    hub: Arc<MetricsHub>,
    index: usize,
    window: u64,
    since: u64,
    last_close_ns: u64,
}

impl SinkMonitor {
    /// Record one consumed sample.
    #[inline]
    pub fn record(&mut self) {
        self.since += 1;
        if self.since >= self.window {
            self.close();
        }
    }

    /// Record `n` consumed samples at once (fused block replay). A block
    /// spanning several windows closes one merged window — the rate over
    /// the merged span is what was actually observed.
    #[inline]
    pub fn record_block(&mut self, n: u64) {
        self.since += n;
        if self.since >= self.window {
            self.close();
        }
    }

    #[cold]
    fn close(&mut self) {
        let now = self.hub.now_ns();
        let dur_ns = now.saturating_sub(self.last_close_ns).max(1);
        let obs = WindowObs {
            samples: self.since,
            dur_ns,
            observed_hz: self.since as f64 * 1e9 / dur_ns as f64,
        };
        self.hub.push_window(self.index, obs);
        self.last_close_ns = now;
        self.since = 0;
    }

    /// Flush a final partial window at teardown (only if it carries at
    /// least one sample — an empty tail is no evidence).
    pub fn finish(mut self) {
        if self.since > 0 {
            self.close();
        }
    }
}

/// A sink's windowed observations plus its drift verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkMetrics {
    /// Sink name.
    pub sink: String,
    /// CTA-predicted steady rate (`1/period`), Hz.
    pub predicted_hz: f64,
    /// Closed windows, oldest first.
    pub windows: Vec<WindowObs>,
    /// The oracle's answer for this sink.
    pub verdict: DriftVerdict,
}

/// Snapshot of the whole registry (see [`MetricsHub::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Which engine recorded.
    pub engine: &'static str,
    /// Worker cells merged into the totals.
    pub workers: usize,
    /// Work items recorded (firings, scan passes, or super-steps —
    /// whatever the engine's hot-path unit of work is).
    pub firings: u64,
    /// Total ns across recorded work items.
    pub firing_ns: u64,
    /// Log2-ns histogram of work-item durations.
    pub firing_hist: [u64; HIST_BUCKETS],
    /// Worker park events.
    pub parks: u64,
    /// Total ns workers spent blocked on cross-worker buffers.
    pub backpressure_ns: u64,
    /// Sink samples recorded into cells.
    pub sink_samples: u64,
    /// Per-worker busy ns across recorded work items (index = worker):
    /// the measured side of predicted-vs-measured utilization.
    pub worker_firing_ns: Vec<u64>,
    /// Per-sink windows and verdicts.
    pub sinks: Vec<SinkMetrics>,
    /// The worst per-sink verdict.
    pub verdict: DriftVerdict,
}

impl MetricsReport {
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

    /// One human line per run: the always-on health summary.
    pub fn summary_line(&self) -> String {
        let verdict = match &self.verdict {
            DriftVerdict::Ok => "ok".to_string(),
            DriftVerdict::Degrading { rates_hz } => {
                format!("DEGRADING({} windows)", rates_hz.len())
            }
            DriftVerdict::Violated {
                window,
                observed_hz,
                predicted_hz,
            } => format!(
                "VIOLATED(window {window}: {observed_hz:.0} Hz < predicted {predicted_hz:.0} Hz)"
            ),
        };
        format!(
            "metrics[{}x{}]: {} items p50={}ns p99={}ns parks={} backpressure={}ns drift={}",
            self.engine,
            self.workers,
            self.firings,
            self.firing_quantile_ns(0.50),
            self.firing_quantile_ns(0.99),
            self.parks,
            self.backpressure_ns,
            verdict
        )
    }

    /// The snapshot as a hand-rolled JSON document, for artifact upload and
    /// offline comparison.
    pub fn summary_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"engine\": \"{}\",\n  \"workers\": {},\n  \"firings\": {},\n  \
             \"firing_ns\": {},\n  \"firing_p50_ns\": {},\n  \"firing_p90_ns\": {},\n  \
             \"firing_p99_ns\": {},\n  \"parks\": {},\n  \"backpressure_ns\": {},\n  \
             \"sink_samples\": {},\n",
            crate::trace::json_escape(self.engine),
            self.workers,
            self.firings,
            self.firing_ns,
            self.firing_quantile_ns(0.50),
            self.firing_quantile_ns(0.90),
            self.firing_quantile_ns(0.99),
            self.parks,
            self.backpressure_ns,
            self.sink_samples,
        ));
        out.push_str(&format!(
            "  \"verdict\": \"{}\",\n  \"sinks\": [\n",
            verdict_tag(&self.verdict)
        ));
        for (i, s) in self.sinks.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "    {{\"sink\": \"{}\", \"predicted_hz\": {:.3}, \"verdict\": \"{}\", \
                 \"windows\": [",
                crate::trace::json_escape(&s.sink),
                s.predicted_hz,
                verdict_tag(&s.verdict)
            ));
            for (j, w) in s.windows.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"samples\": {}, \"dur_ns\": {}, \"observed_hz\": {:.3}}}",
                    w.samples, w.dur_ns, w.observed_hz
                ));
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn verdict_tag(v: &DriftVerdict) -> &'static str {
    match v {
        DriftVerdict::Ok => "ok",
        DriftVerdict::Degrading { .. } => "degrading",
        DriftVerdict::Violated { .. } => "violated",
    }
}

/// Read the `OIL_RT_METRICS` toggle from the environment (unset = off; the
/// same `1/0/true/false/on/off` forms — and the same loudness on junk — as
/// `OIL_RT_TRACE`). Engines never read the environment themselves; callers
/// thread the resulting config through
/// [`crate::SelfTimedConfig`]/[`crate::StaticConfig`].
pub fn env_metrics() -> Option<MetricsConfig> {
    match std::env::var("OIL_RT_METRICS") {
        Ok(v) => parse_metrics(&v),
        Err(_) => None,
    }
}

/// Parse an `OIL_RT_METRICS` value (loud on junk, like
/// `trace::parse_trace`).
pub fn parse_metrics(raw: &str) -> Option<MetricsConfig> {
    match raw.trim() {
        "1" | "true" | "on" => Some(MetricsConfig::default()),
        "0" | "false" | "off" | "" => None,
        other => panic!("OIL_RT_METRICS must be one of 1/0/true/false/on/off, got `{other}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(window: u64) -> MetricsConfig {
        MetricsConfig { window }
    }

    #[test]
    fn cells_accumulate_and_snapshot_merges() {
        let hub = MetricsHub::new("test", 2, cfg(1024));
        hub.cell(0).record_firing(100);
        hub.cell(0).record_firing(1000);
        hub.cell(1).record_firing(10);
        hub.cell(1).record_park();
        hub.cell(1).record_backpressure(77);
        hub.cell(0).record_sink(5);
        let r = hub.snapshot();
        assert_eq!(r.firings, 3);
        assert_eq!(r.firing_ns, 1110);
        assert_eq!(r.parks, 1);
        assert_eq!(r.backpressure_ns, 77);
        assert_eq!(r.sink_samples, 5);
        assert_eq!(r.verdict, DriftVerdict::Ok);
        assert!(r.firing_quantile_ns(0.99) >= 1024);
    }

    #[test]
    fn windows_close_on_sample_count_and_carry_rates() {
        let hub = MetricsHub::new("test", 1, cfg(100));
        let mut mon = hub.sink_monitor("sink", 1.0);
        for _ in 0..250 {
            mon.record();
        }
        mon.finish();
        let r = hub.snapshot();
        assert_eq!(r.sinks.len(), 1);
        // 100 + 100 + 50 (flushed tail).
        let windows = &r.sinks[0].windows;
        assert_eq!(windows.len(), 3);
        assert_eq!(windows[0].samples, 100);
        assert_eq!(windows[2].samples, 50);
        assert!(windows.iter().all(|w| w.observed_hz > 0.0));
    }

    #[test]
    fn block_records_merge_windows_instead_of_splitting() {
        let hub = MetricsHub::new("test", 1, cfg(100));
        let mut mon = hub.sink_monitor("sink", 1.0);
        mon.record_block(1000);
        mon.finish();
        let r = hub.snapshot();
        assert_eq!(r.sinks[0].windows.len(), 1);
        assert_eq!(r.sinks[0].windows[0].samples, 1000);
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
        assert_eq!(drift_verdict(&[], 1000.0), DriftVerdict::Ok);
        assert_eq!(drift_verdict(&[fast], 1000.0), DriftVerdict::Ok);
        match drift_verdict(&[fast, slow], 1000.0) {
            DriftVerdict::Violated {
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
        match drift_verdict(&windows, 1000.0) {
            DriftVerdict::Degrading { rates_hz } => assert_eq!(rates_hz.len(), 3),
            other => panic!("expected Degrading, got {other:?}"),
        }
        // Flat tail: Ok.
        let flat = [w(4000.0), w(4000.0), w(4000.0)];
        assert_eq!(drift_verdict(&flat, 1000.0), DriftVerdict::Ok);
    }

    #[test]
    fn summary_json_is_emitted_and_tagged() {
        let hub = MetricsHub::new("test", 1, cfg(10));
        let mut mon = hub.sink_monitor("s0", 42.0);
        mon.record_block(10);
        mon.finish();
        let json = hub.snapshot().summary_json();
        assert!(json.contains("\"engine\": \"test\""));
        assert!(json.contains("\"sink\": \"s0\""));
        assert!(json.contains("\"verdict\": \"ok\""));
    }

    #[test]
    fn parse_metrics_accepts_the_documented_forms() {
        assert!(parse_metrics("1").is_some());
        assert!(parse_metrics(" on ").is_some());
        assert!(parse_metrics("0").is_none());
        assert!(parse_metrics("off").is_none());
    }

    #[test]
    #[should_panic(expected = "OIL_RT_METRICS")]
    fn parse_metrics_rejects_junk_loudly() {
        parse_metrics("maybe");
    }
}
