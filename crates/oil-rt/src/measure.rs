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
//! * [`ThroughputMeter`] / [`RateConformance`] — wall-clock sink throughput
//!   against the CTA-predicted rate. The paper guarantees an accepted
//!   program *can* sustain its declared sink rates; a free-running engine
//!   turns that into an empirical property: steady-state samples/second on
//!   real hardware must reach a configurable fraction of the predicted
//!   rate.

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

/// Clock-read stride of a [`ThroughputMeter`]: one `Instant::now()` per
/// this many recorded samples, so metering a multi-MS/s sink does not bake
/// its own measurement overhead into the measured rate.
pub const METER_STRIDE: u64 = 16;

/// Steady-state wall-clock throughput of one sink.
///
/// The first `warmup` samples are excluded — they measure pipeline fill,
/// not the sustained rate — and the rate is taken over the wall-clock span
/// between the warm-up boundary and the last clock-stamped sample (the
/// clock is read every [`METER_STRIDE`] samples, keeping the hot sink path
/// nearly free of timer calls).
#[derive(Debug, Clone)]
pub struct ThroughputMeter {
    warmup: u64,
    samples: u64,
    /// Sample index and time of the warm-up boundary.
    warm: Option<(u64, Instant)>,
    /// Sample index and time of the most recent clock stamp.
    last: Option<(u64, Instant)>,
}

impl ThroughputMeter {
    /// A meter excluding the first `warmup` samples from the steady-state
    /// window.
    pub fn new(warmup: u64) -> Self {
        ThroughputMeter {
            warmup,
            samples: 0,
            warm: None,
            last: None,
        }
    }

    /// Record one consumed sample.
    pub fn record(&mut self) {
        self.samples += 1;
        if self.samples <= self.warmup {
            return;
        }
        match self.warm {
            None => self.warm = Some((self.samples, Instant::now())),
            Some((warm_idx, _)) => {
                if (self.samples - warm_idx).is_multiple_of(METER_STRIDE) {
                    self.last = Some((self.samples, Instant::now()));
                }
            }
        }
    }

    /// Record `n` consumed samples delivered as one block (a fused sink
    /// stage). Equivalent to `n` [`Self::record`] calls for the sample
    /// count and warm-up accounting, but takes at most one clock stamp —
    /// block consumption is only observable at block granularity anyway.
    pub fn record_block(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.samples += n;
        if self.samples <= self.warmup {
            return;
        }
        match self.warm {
            None => self.warm = Some((self.samples, Instant::now())),
            Some((warm_idx, _)) => {
                if self.samples - warm_idx >= METER_STRIDE {
                    self.last = Some((self.samples, Instant::now()));
                }
            }
        }
    }

    /// Samples recorded so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Steady-state samples per wall-clock second, or `None` when the run
    /// produced fewer than [`METER_STRIDE`] post-warm-up samples (no
    /// measurable span).
    pub fn steady_rate_hz(&self) -> Option<f64> {
        let ((warm_idx, warm_at), (last_idx, last_at)) = (self.warm?, self.last?);
        let span = last_at.duration_since(warm_at);
        if span.is_zero() || last_idx <= warm_idx {
            return None;
        }
        Some((last_idx - warm_idx) as f64 / span.as_secs_f64())
    }
}

/// One sink's measured throughput against its CTA-predicted rate.
#[derive(Debug, Clone)]
pub struct SinkThroughput {
    /// Sink name.
    pub name: String,
    /// Samples consumed.
    pub samples: u64,
    /// The CTA-predicted (declared and analysis-validated) rate in Hz.
    pub predicted_hz: f64,
    /// Measured steady-state samples per wall second (`None` when the run
    /// was too short to measure).
    pub measured_hz: Option<f64>,
}

impl SinkThroughput {
    /// `measured / predicted`, or `None` when unmeasurable.
    pub fn conformance_ratio(&self) -> Option<f64> {
        Some(self.measured_hz? / self.predicted_hz)
    }
}

/// The rate-conformance verdict of one execution: every sink's measured
/// steady-state throughput must reach `threshold × predicted`.
#[derive(Debug, Clone)]
pub struct RateConformance {
    /// Required fraction of the predicted rate.
    pub threshold: f64,
    /// Per-sink measurements.
    pub sinks: Vec<SinkThroughput>,
}

/// The three-way outcome of a rate-conformance check. `satisfied()` alone
/// is a trap: a run whose warmup never completed has *no* measurable sink,
/// zero violations, and would silently pass. The verdict makes that state
/// explicit so callers must decide what an inconclusive measurement means
/// for them (retry with a longer horizon, usually).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConformanceVerdict {
    /// Every sink was measured and every sink reached the threshold.
    Pass,
    /// At least one measured sink fell short of the threshold.
    Fail,
    /// No violation, but at least one sink never produced a steady-state
    /// measurement (run too short / warmup never completed) — the check
    /// proved nothing about that sink.
    Inconclusive,
}

impl std::fmt::Display for ConformanceVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ConformanceVerdict::Pass => "pass",
            ConformanceVerdict::Fail => "fail",
            ConformanceVerdict::Inconclusive => "inconclusive",
        })
    }
}

impl RateConformance {
    /// True when every measurable sink reaches the threshold. Vacuously
    /// true when nothing was measurable — use [`Self::verdict`] to tell a
    /// real pass from an inconclusive run.
    pub fn satisfied(&self) -> bool {
        self.violations().is_empty()
    }

    /// The three-way outcome: [`ConformanceVerdict::Fail`] on any
    /// violation, else [`ConformanceVerdict::Inconclusive`] when any sink
    /// went unmeasured, else [`ConformanceVerdict::Pass`]. A graph with no
    /// sinks at all passes — there is nothing to conform.
    pub fn verdict(&self) -> ConformanceVerdict {
        if !self.violations().is_empty() {
            ConformanceVerdict::Fail
        } else if self.sinks.iter().any(|s| s.measured_hz.is_none()) {
            ConformanceVerdict::Inconclusive
        } else {
            ConformanceVerdict::Pass
        }
    }

    /// The sinks the run never measured, rendered for failure messages.
    pub fn inconclusive_sinks(&self) -> Vec<String> {
        self.sinks
            .iter()
            .filter(|s| s.measured_hz.is_none())
            .map(|s| {
                format!(
                    "sink `{}`: predicted {:.0} Hz, but the run was too short to \
                     measure a steady-state rate",
                    s.name, s.predicted_hz
                )
            })
            .collect()
    }

    /// The sinks that fell short, rendered for failure messages.
    pub fn violations(&self) -> Vec<String> {
        self.sinks
            .iter()
            .filter_map(|s| {
                let ratio = s.conformance_ratio()?;
                if ratio < self.threshold {
                    Some(format!(
                        "sink `{}`: measured {:.0} Hz is {:.3}× the predicted {:.0} Hz \
                         (threshold {:.3})",
                        s.name,
                        s.measured_hz.unwrap_or(0.0),
                        ratio,
                        s.predicted_hz,
                        self.threshold
                    ))
                } else {
                    None
                }
            })
            .collect()
    }
}

/// The default conformance threshold: the `OIL_RT_CONFORMANCE` environment
/// variable when set to a finite value > 0, else 0.5 in release builds and
/// a smoke value in debug builds (unoptimised kernels measure the build
/// profile, not the engine). Degenerate overrides (zero, negative, NaN,
/// infinite, unparseable) fall back to the built-in default — a NaN or
/// negative threshold would silently turn every `ratio < threshold` check
/// into a no-op.
pub fn conformance_threshold() -> f64 {
    if let Some(t) = std::env::var("OIL_RT_CONFORMANCE")
        .ok()
        .as_deref()
        .and_then(parse_conformance)
    {
        return t;
    }
    if cfg!(debug_assertions) {
        0.01
    } else {
        0.5
    }
}

/// Parse an `OIL_RT_CONFORMANCE` override; `None` unless finite and > 0.
fn parse_conformance(raw: &str) -> Option<f64> {
    let t = raw.trim().parse::<f64>().ok()?;
    (t.is_finite() && t > 0.0).then_some(t)
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
        let mut m = ThroughputMeter::new(2);
        for _ in 0..20 {
            m.record();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(m.samples(), 20);
        // Warm boundary at sample 3, one stamp at sample 3 + METER_STRIDE.
        let hz = m.steady_rate_hz().expect("measurable");
        // 1 ms pacing → ~1 kHz; wide tolerance for scheduler noise.
        assert!((50.0..20_000.0).contains(&hz), "{hz}");
        // Too few post-warm-up samples for a single stride → unmeasurable.
        let mut short = ThroughputMeter::new(2);
        for _ in 0..(2 + METER_STRIDE) {
            short.record();
        }
        assert!(short.steady_rate_hz().is_none());
    }

    #[test]
    fn conformance_override_rejects_degenerate_values() {
        assert_eq!(parse_conformance("0.25"), Some(0.25));
        assert_eq!(parse_conformance(" 1.5 "), Some(1.5));
        for bad in ["0", "-1", "NaN", "-NaN", "inf", "-inf", "abc", ""] {
            assert_eq!(parse_conformance(bad), None, "`{bad}` must be rejected");
        }
    }

    #[test]
    fn conformance_flags_slow_sinks_only() {
        let conf = RateConformance {
            threshold: 0.5,
            sinks: vec![
                SinkThroughput {
                    name: "fast".into(),
                    samples: 100,
                    predicted_hz: 1000.0,
                    measured_hz: Some(900.0),
                },
                SinkThroughput {
                    name: "slow".into(),
                    samples: 100,
                    predicted_hz: 1000.0,
                    measured_hz: Some(100.0),
                },
                SinkThroughput {
                    name: "unmeasured".into(),
                    samples: 1,
                    predicted_hz: 1000.0,
                    measured_hz: None,
                },
            ],
        };
        assert!(!conf.satisfied());
        let v = conf.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("slow"), "{v:?}");
        assert_eq!(conf.verdict(), ConformanceVerdict::Fail);
        let inc = conf.inconclusive_sinks();
        assert_eq!(inc.len(), 1);
        assert!(inc[0].contains("unmeasured"), "{inc:?}");
    }

    #[test]
    fn unmeasured_sinks_are_inconclusive_not_a_pass() {
        // The silent no-op this guards against: warmup never completed, so
        // no sink has a measurement, `violations()` is empty, and
        // `satisfied()` is vacuously true — the verdict must say so.
        let sink = |name: &str, measured_hz: Option<f64>| SinkThroughput {
            name: name.into(),
            samples: 1,
            predicted_hz: 1000.0,
            measured_hz,
        };
        let unmeasured = RateConformance {
            threshold: 0.5,
            sinks: vec![sink("a", None), sink("b", None)],
        };
        assert!(unmeasured.satisfied(), "vacuous by construction");
        assert_eq!(unmeasured.verdict(), ConformanceVerdict::Inconclusive);
        assert_eq!(unmeasured.inconclusive_sinks().len(), 2);

        let measured = RateConformance {
            threshold: 0.5,
            sinks: vec![sink("a", Some(900.0))],
        };
        assert_eq!(measured.verdict(), ConformanceVerdict::Pass);
        assert!(measured.inconclusive_sinks().is_empty());

        // No sinks at all: nothing to conform, a genuine pass.
        let empty = RateConformance {
            threshold: 0.5,
            sinks: Vec::new(),
        };
        assert_eq!(empty.verdict(), ConformanceVerdict::Pass);
        assert_eq!(
            format!("{}", ConformanceVerdict::Inconclusive),
            "inconclusive"
        );
    }
}
