//! Throughput accounting and value-stream traces.
//!
//! Two measurement planes back the self-timed engine's verification story:
//!
//! * [`ValueTrace`] — the per-buffer *value* streams (every `f64` ever
//!   pushed, bit-exact). For Kahn-process-network graphs these streams are
//!   schedule-invariant, so the reference interpreter's trace must
//!   be a **prefix** of any free-running execution's trace — the value-plane
//!   analogue of `oil_sim::trace::ExecutionTrace`'s origin-timestamp
//!   equality, checked by `tests/selftimed_differential.rs`.
//! * [`SinkMonitor`] — one per sink: wall-clock sink throughput against
//!   the CTA-predicted rate. The paper guarantees an accepted program *can*
//!   sustain its declared sink rates; a free-running engine turns that into
//!   an empirical property. The monitor reads the clock once per
//!   [`METER_STRIDE`] samples; one judge (`judge`) over its windows
//!   returns one [`RateVerdict`] for both questions asked of it:
//!   end-of-run *conformance* is the steady window (warm-up boundary to
//!   last stamp) at a configurable fraction of the predicted rate, and
//!   *drift* (`crate::metrics`) is each window of a metered run at the
//!   predicted rate itself.

use crate::metrics::MetricsConfig;
use oil_sim::trace::Fnv1a;
use std::time::Instant;

/// Upper bound on recorded values per buffer (counters keep counting).
pub const VALUE_TRACE_CAP: usize = 1 << 16;

/// The value stream of one buffer: the bit patterns of every pushed `f64`,
/// in push order (initial tokens first), capped at [`VALUE_TRACE_CAP`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BufferValues {
    /// Buffer name (same naming as the origin-timestamp trace).
    pub name: String,
    /// Bit patterns (`f64::to_bits`) of pushed values, in push order.
    pub bits: Vec<u64>,
    /// True count of pushes (may exceed `bits.len()`).
    pub total: u64,
}

impl BufferValues {
    /// Record one pushed value.
    pub fn record(&mut self, value: f64) {
        self.total += 1;
        if self.bits.len() < VALUE_TRACE_CAP {
            self.bits.push(value.to_bits());
        }
    }

    /// Check that `self` (a shorter, reference stream) is a bit-exact
    /// prefix of `other` (the same buffer in a longer execution). Only the
    /// *recorded* prefixes are compared: beyond [`VALUE_TRACE_CAP`] values
    /// a stream is pinned by its running total alone.
    pub fn prefix_divergence(&self, other: &BufferValues) -> Option<String> {
        if other.total < self.total {
            return Some(format!(
                "buffer `{}` carried fewer values: {} vs the reference's {}",
                self.name, other.total, self.total
            ));
        }
        let compare = self.bits.len().min(other.bits.len());
        if self.bits[..compare] != other.bits[..compare] {
            let at = (0..compare)
                .find(|&i| self.bits[i] != other.bits[i])
                .unwrap();
            return Some(format!(
                "buffer `{}` diverges at value #{at}: {:?} vs {:?}",
                self.name,
                f64::from_bits(self.bits[at]),
                f64::from_bits(other.bits[at]),
            ));
        }
        None
    }
}

/// Per-buffer value streams of one execution, in buffer-id order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueTrace {
    /// One entry per buffer.
    pub buffers: Vec<BufferValues>,
}

impl ValueTrace {
    /// A stable FNV-1a digest over names and recorded bit patterns.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for b in &self.buffers {
            h.write_str(&b.name);
            h.write_u64(b.total);
            h.write_u64(b.bits.len() as u64);
            for &v in &b.bits {
                h.write_u64(v);
            }
        }
        h.finish()
    }

    /// Check that `self` (a shorter, reference execution) is a bit-exact
    /// prefix of `other` (a longer, free-running execution), buffer by
    /// buffer. Returns a human-readable description of the first violation.
    ///
    /// Only the *recorded* prefixes are compared: beyond
    /// [`VALUE_TRACE_CAP`] values, a buffer's stream is pinned by its
    /// running total alone.
    pub fn prefix_divergence(&self, other: &ValueTrace) -> Option<String> {
        if self.buffers.len() != other.buffers.len() {
            return Some(format!(
                "buffer count differs: {} vs {}",
                self.buffers.len(),
                other.buffers.len()
            ));
        }
        for (a, b) in self.buffers.iter().zip(&other.buffers) {
            if a.name != b.name {
                return Some(format!("buffer name differs: `{}` vs `{}`", a.name, b.name));
            }
            if let Some(d) = a.prefix_divergence(b) {
                return Some(d);
            }
        }
        None
    }

    /// As [`Self::prefix_divergence`] with equal lengths required: the two
    /// executions must have produced bit-identical streams *and* counts.
    pub fn first_divergence(&self, other: &ValueTrace) -> Option<String> {
        if let Some(d) = self.prefix_divergence(other) {
            return Some(d);
        }
        for (a, b) in self.buffers.iter().zip(&other.buffers) {
            if a.total != b.total {
                return Some(format!(
                    "buffer `{}` push counts differ: {} vs {}",
                    a.name, a.total, b.total
                ));
            }
        }
        None
    }
}

/// Clock-read stride of a [`SinkMonitor`]: one `Instant::now()` per this
/// many recorded samples, so monitoring a multi-MS/s sink does not bake its
/// own measurement overhead into the measured rate.
pub const METER_STRIDE: u64 = 16;

/// Relative decline between consecutive windows below which the
/// degradation streak resets (noise floor).
pub const DEGRADE_EPSILON: f64 = 0.01;

/// Consecutive strictly-declining windows (by more than [`DEGRADE_EPSILON`]
/// relative) that raise [`RateVerdict::Degrading`].
const DEGRADING_WINDOWS: usize = 3;

/// A clock stamp of a sink: samples recorded so far, and when.
type Stamp = (u64, Instant);

/// One stretch of a sink's consumption between two clock stamps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowObs {
    /// Samples the window covers.
    pub samples: u64,
    /// Wall time the window took, ns.
    pub dur_ns: u64,
    /// `samples / dur_ns`, in Hz.
    pub observed_hz: f64,
}

impl WindowObs {
    /// The window from stamp `from` to stamp `to`; `None` when it holds no
    /// sample or no measurable time.
    fn between(from: Stamp, to: Stamp) -> Option<WindowObs> {
        let samples = to.0.saturating_sub(from.0);
        let dur_ns = to.1.duration_since(from.1).as_nanos() as u64;
        (samples > 0 && dur_ns > 0).then(|| WindowObs {
            samples,
            dur_ns,
            observed_hz: samples as f64 * 1e9 / dur_ns as f64,
        })
    }
}

/// The one verdict on a sink's rate, for end-of-run conformance and for
/// drift alike. Ordered by severity: `Pass < Inconclusive < Degrading <
/// Violated` ([`Self::max`]).
#[derive(Debug, Clone, PartialEq)]
pub enum RateVerdict {
    /// Every judged window reached the required rate.
    Pass,
    /// No window fell short, but the last three declined monotonically.
    Degrading {
        /// The declining per-window rates (Hz), oldest first.
        rates_hz: Vec<f64>,
    },
    /// A window fell below the required rate.
    Violated {
        /// Index of the first violating window.
        window: usize,
        /// That window's observed rate, Hz.
        observed_hz: f64,
        /// The CTA-predicted rate of the sink, Hz.
        predicted_hz: f64,
    },
    /// Nothing was measured: the run never got past the warm-up plus one
    /// clock stride, so the check proved nothing. Never a pass.
    Inconclusive,
}

impl RateVerdict {
    fn severity(&self) -> u8 {
        match self {
            RateVerdict::Pass => 0,
            RateVerdict::Inconclusive => 1,
            RateVerdict::Degrading { .. } => 2,
            RateVerdict::Violated { .. } => 3,
        }
    }

    /// The worse of two verdicts.
    pub fn max(self, other: RateVerdict) -> RateVerdict {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl std::fmt::Display for RateVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateVerdict::Pass => f.write_str("pass"),
            RateVerdict::Inconclusive => f.write_str("inconclusive"),
            RateVerdict::Degrading { rates_hz } => {
                write!(f, "degrading ({} windows)", rates_hz.len())
            }
            RateVerdict::Violated {
                window,
                observed_hz,
                predicted_hz,
            } => write!(
                f,
                "violated (window {window}: {observed_hz:.0} Hz vs predicted {predicted_hz:.0} Hz)"
            ),
        }
    }
}

/// Judge a sink's windows against `threshold × predicted_hz`: the first
/// window below it is [`RateVerdict::Violated`]; with none below, a
/// monotone decline over the last three is [`RateVerdict::Degrading`]; no
/// window at all is [`RateVerdict::Inconclusive`]. Reads no clock.
pub(crate) fn judge(windows: &[WindowObs], predicted_hz: f64, threshold: f64) -> RateVerdict {
    if windows.is_empty() {
        return RateVerdict::Inconclusive;
    }
    let required_hz = threshold * predicted_hz;
    if let Some(window) = windows.iter().position(|w| w.observed_hz < required_hz) {
        return RateVerdict::Violated {
            window,
            observed_hz: windows[window].observed_hz,
            predicted_hz,
        };
    }
    let tail = &windows[windows.len().saturating_sub(DEGRADING_WINDOWS)..];
    let declining = |p: &[WindowObs]| p[1].observed_hz < p[0].observed_hz * (1.0 - DEGRADE_EPSILON);
    if tail.len() == DEGRADING_WINDOWS && tail.windows(2).all(declining) {
        return RateVerdict::Degrading {
            rates_hz: tail.iter().map(|w| w.observed_hz).collect(),
        };
    }
    RateVerdict::Pass
}

/// One sink's rate monitor, owned by the worker that runs the sink.
///
/// The first `warmup` samples are excluded — they measure pipeline fill,
/// not the sustained rate. From the warm-up boundary on, the clock is read
/// once per [`METER_STRIDE`] samples and never otherwise. The *steady
/// window* runs from the boundary to the last stamp; with metrics on, the
/// stamps also close drift windows of at least `MetricsConfig::window`
/// samples, kept in [`Self::windows`] (a block spanning several windows
/// closes one merged window — the rate over the merged span is what was
/// observed). End-of-run conformance is the steady window judged at a
/// threshold ([`Self::conformance`]); drift is each window judged at the
/// CTA rate ([`Self::drift`]).
#[derive(Debug, Clone)]
pub struct SinkMonitor {
    /// Sink name.
    pub name: String,
    /// The CTA-predicted (declared and analysis-validated) rate in Hz.
    pub predicted_hz: f64,
    /// Samples consumed.
    pub samples: u64,
    /// Closed drift windows, oldest first: empty unless metrics were on.
    pub windows: Vec<WindowObs>,
    /// Samples per drift window; 0 keeps none.
    window: u64,
    /// Sample count at which the next clock stamp is due.
    due: u64,
    /// The warm-up boundary: the first stamp.
    origin: Option<Stamp>,
    /// Where the open drift window started.
    open: Option<Stamp>,
    /// The most recent stamp after the origin.
    last: Option<Stamp>,
}

impl SinkMonitor {
    /// A monitor excluding the first `warmup` samples, keeping drift
    /// windows when `metrics` is on.
    pub(crate) fn new(
        name: impl Into<String>,
        predicted_hz: f64,
        warmup: u64,
        metrics: Option<MetricsConfig>,
    ) -> Self {
        SinkMonitor {
            name: name.into(),
            predicted_hz,
            samples: 0,
            windows: Vec::new(),
            window: metrics.map_or(0, |m| m.window.max(1)),
            due: warmup + 1,
            origin: None,
            open: None,
            last: None,
        }
    }

    /// Record `n` consumed samples (one, or a fused stage's block).
    #[inline]
    pub(crate) fn record(&mut self, n: u64) {
        self.samples += n;
        if self.samples >= self.due {
            self.stamp();
        }
    }

    #[cold]
    fn stamp(&mut self) {
        let now = (self.samples, Instant::now());
        self.due = self.samples + METER_STRIDE;
        let Some(open) = self.open else {
            (self.origin, self.open) = (Some(now), Some(now));
            return;
        };
        self.last = Some(now);
        if self.window > 0 && now.0 - open.0 >= self.window {
            self.windows.extend(WindowObs::between(open, now));
            self.open = Some(now);
        }
    }

    /// Close the partial drift window up to the last stamp (no clock
    /// read: samples after it were never timed). Called once, at teardown.
    pub(crate) fn finish(&mut self) {
        if let (Some(open), Some(last), true) = (self.open, self.last, self.window > 0) {
            self.windows.extend(WindowObs::between(open, last));
        }
    }

    /// The steady window, from the warm-up boundary to the last stamp
    /// (`None` when the run never got one stride past the boundary).
    pub fn steady(&self) -> Option<WindowObs> {
        WindowObs::between(self.origin?, self.last?)
    }

    /// End-of-run conformance: the steady window judged at `threshold ×`
    /// the predicted rate.
    pub fn conformance(&self, threshold: f64) -> RateVerdict {
        judge(self.steady().as_slice(), self.predicted_hz, threshold)
    }

    /// Drift: every closed window judged at the predicted rate itself.
    pub fn drift(&self) -> RateVerdict {
        judge(&self.windows, self.predicted_hz, 1.0)
    }
}

/// The conformance verdict of a run: the worst of its sinks' verdicts at
/// `threshold` (see [`conformance_threshold`] for its override). A run
/// with no sinks passes — there is nothing to conform.
pub fn conformance(sinks: &[SinkMonitor], threshold: f64) -> RateVerdict {
    (sinks.iter()).fold(RateVerdict::Pass, |v, s| v.max(s.conformance(threshold)))
}

/// The conformance threshold of a run: the `OIL_RT_CONFORMANCE` override
/// when it is set, else the caller's `default`. An override must be a
/// finite number > 0; anything else panics, as junk in `OIL_RT_THREADS`,
/// `OIL_RT_FUSION` or `OIL_RT_TRACE` does: a typo silently replaced by a
/// default enforces a threshold nobody asked for, and a NaN or negative
/// one would turn every `observed < threshold × predicted` check into a
/// no-op.
pub fn conformance_threshold(default: f64) -> f64 {
    match std::env::var("OIL_RT_CONFORMANCE") {
        Ok(raw) => parse_conformance(&raw),
        Err(_) => default,
    }
}

/// Parse an `OIL_RT_CONFORMANCE` override — see [`conformance_threshold`].
fn parse_conformance(raw: &str) -> f64 {
    match raw.trim().parse::<f64>() {
        Ok(t) if t.is_finite() && t > 0.0 => t,
        _ => panic!("OIL_RT_CONFORMANCE must be a finite threshold > 0, got `{raw}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn trace(streams: &[(&str, &[f64], u64)]) -> ValueTrace {
        ValueTrace {
            buffers: streams
                .iter()
                .map(|(name, values, extra)| {
                    let mut b = BufferValues {
                        name: name.to_string(),
                        ..Default::default()
                    };
                    for &v in *values {
                        b.record(v);
                    }
                    b.total += extra;
                    b
                })
                .collect(),
        }
    }

    #[test]
    fn prefix_accepts_longer_streams_and_rejects_divergence() {
        let reference = trace(&[("x", &[1.0, 2.0], 0)]);
        let longer = trace(&[("x", &[1.0, 2.0, 3.0], 0)]);
        assert_eq!(reference.prefix_divergence(&longer), None);
        assert!(longer.prefix_divergence(&reference).is_some(), "shorter");
        let diverged = trace(&[("x", &[1.0, 2.5, 3.0], 0)]);
        let d = reference.prefix_divergence(&diverged).unwrap();
        assert!(d.contains("value #1"), "{d}");
        // Full equality is stricter than prefix.
        assert_eq!(longer.first_divergence(&longer.clone()), None);
        assert!(reference.first_divergence(&longer).is_some());
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let a = trace(&[("x", &[1.0, 2.0], 0)]);
        assert_eq!(a.digest(), a.clone().digest());
        let b = trace(&[("x", &[1.0, 2.0 + 1e-12], 0)]);
        assert_ne!(a.digest(), b.digest(), "bit-level sensitivity");
    }

    #[test]
    fn meter_measures_a_paced_stream() {
        let mut m = SinkMonitor::new("paced", 1000.0, 2, None);
        for _ in 0..20 {
            m.record(1);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.samples, 20);
        // Warm boundary at sample 3, one stamp at sample 3 + METER_STRIDE.
        let steady = m.steady().expect("measurable");
        assert_eq!(steady.samples, METER_STRIDE);
        // 1 ms pacing → ~1 kHz; wide tolerance for scheduler noise.
        assert!((50.0..20_000.0).contains(&steady.observed_hz), "{steady:?}");
        assert!(
            m.windows.is_empty(),
            "windows are kept only with metrics on"
        );
        // Too few post-warm-up samples for a single stride → unmeasurable.
        let mut short = SinkMonitor::new("short", 1000.0, 2, None);
        short.record(2 + METER_STRIDE);
        assert!(short.steady().is_none());
        assert_eq!(short.conformance(0.5), RateVerdict::Inconclusive);
    }

    #[test]
    fn conformance_override_rejects_degenerate_values() {
        assert_eq!(parse_conformance("0.25"), 0.25);
        assert_eq!(parse_conformance(" 1.5 "), 1.5);
        // A junk override is a loud error, never the caller's default.
        for bad in ["0", "-1", "NaN", "-NaN", "inf", "-inf", "abc", "", "0,5"] {
            let parsed = std::panic::catch_unwind(|| parse_conformance(bad));
            assert!(parsed.is_err(), "`{bad}` must be rejected");
        }
    }

    /// A sink whose steady window holds `samples` over 1 ms.
    fn measured(name: &str, samples: u64) -> SinkMonitor {
        let t0 = Instant::now();
        SinkMonitor {
            origin: Some((1, t0)),
            last: Some((1 + samples, t0 + Duration::from_millis(1))),
            ..SinkMonitor::new(name, 1000.0, 0, None)
        }
    }

    #[test]
    fn conformance_flags_slow_sinks_only() {
        // 900 and 100 samples in 1 ms: 900 kHz and 100 kHz.
        let (fast, slow) = (measured("fast", 900), measured("slow", 100));
        assert_eq!(fast.conformance(0.5), RateVerdict::Pass);
        match slow.conformance(500.0) {
            RateVerdict::Violated {
                window,
                observed_hz,
                predicted_hz,
            } => {
                assert_eq!(window, 0, "the steady window is the only one");
                assert!((observed_hz - 1e5).abs() < 1e-6, "{observed_hz}");
                assert_eq!(predicted_hz, 1000.0);
            }
            other => panic!("expected Violated, got {other:?}"),
        }
        // The run's verdict is its worst sink's: a violation outranks an
        // unmeasured sink, which outranks a pass.
        let unmeasured = SinkMonitor::new("unmeasured", 1000.0, 0, None);
        let sinks = [fast.clone(), slow, unmeasured.clone()];
        assert!(matches!(
            conformance(&sinks, 500.0),
            RateVerdict::Violated { .. }
        ));
        let sinks = [fast.clone(), unmeasured];
        assert_eq!(conformance(&sinks, 500.0), RateVerdict::Inconclusive);
        assert_eq!(conformance(&[fast], 500.0), RateVerdict::Pass);
    }

    #[test]
    fn unmeasured_sinks_are_inconclusive_not_a_pass() {
        // The silent no-op this guards against: warmup never completed, so
        // no sink has a measurement and no window can fall short — the
        // verdict must say so. No clock is read here.
        assert_eq!(judge(&[], 1000.0, 0.5), RateVerdict::Inconclusive);
        let mut never_warm = SinkMonitor::new("a", 1000.0, 64, None);
        never_warm.record(64);
        assert_eq!(never_warm.steady(), None);
        assert_eq!(never_warm.conformance(0.5), RateVerdict::Inconclusive);
        let sinks = [never_warm.clone(), never_warm];
        assert_eq!(conformance(&sinks, 0.5), RateVerdict::Inconclusive);
        // No sinks at all: nothing to conform, a genuine pass.
        assert_eq!(conformance(&[], 0.5), RateVerdict::Pass);
        assert_eq!(RateVerdict::Inconclusive.to_string(), "inconclusive");
    }
}
