//! Latency constraints between sources and sinks.
//!
//! OIL expresses end-to-end latency requirements with
//! `start x n ms after y;` / `start x n ms before y;` between sources and
//! sinks (paper Section IV-B). In the CTA model each constraint becomes a
//! single connection between the two corresponding components whose delay is
//! (the negation of) the constraint amount, so the ordinary consistency check
//! verifies it (Section V-C, Fig. 10). This module adds the constraint
//! connections and reports the actually achievable end-to-end latencies —
//! exactly, as rationals; [`LatencyReport::seconds`] converts at the API
//! boundary.

use crate::component::CtaModel;
use crate::consistency::ConsistencyResult;
use crate::longest_path::Kernel;
use oil_dataflow::index::{Idx, PortId};
use oil_dataflow::Rational;

/// A report about the latency between two ports of a consistent model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyReport {
    /// The upstream (source-side) port.
    pub from: PortId,
    /// The downstream (sink-side) port.
    pub to: PortId,
    /// Minimum feasible start-time difference `θ(to) − θ(from)` in seconds as
    /// implied by the model's delay constraints (the end-to-end latency along
    /// the critical path). Exact.
    pub latency: Rational,
}

impl LatencyReport {
    /// The latency in seconds as `f64` — conversion at the API boundary.
    pub fn seconds(&self) -> f64 {
        self.latency.to_f64()
    }
}

/// Add a `start subject .. before reference` constraint: the `subject`
/// (typically the sink) must start within `bound_seconds` after the
/// `reference` (typically the source) started. Modelled as a connection from
/// the subject back to the reference with constant delay `-bound_seconds`, so
/// any forward path longer than the bound creates a positive cycle.
pub fn add_before_constraint(
    model: &mut CtaModel,
    subject: PortId,
    reference: PortId,
    bound_seconds: Rational,
) {
    model.connect_constraint(subject, reference, -bound_seconds);
}

/// Add a `start subject .. after reference` constraint: the subject must
/// start at least `bound_seconds` after the reference. Modelled as a forward
/// connection with constant delay `bound_seconds`.
pub fn add_after_constraint(
    model: &mut CtaModel,
    subject: PortId,
    reference: PortId,
    bound_seconds: Rational,
) {
    model.connect_constraint(reference, subject, bound_seconds);
}

/// Compute the critical-path latency from `from` to `to` implied by a
/// consistent model: the longest total delay over all connection paths,
/// evaluated exactly at the rates of `result` by a single-source probe of
/// the crate's longest-path kernel. Returns `None` if `to` is not reachable
/// from `from` (or, on an inconsistent model, a positive cycle is).
pub fn check_latency_path(
    model: &CtaModel,
    result: &ConsistencyResult,
    from: PortId,
    to: PortId,
) -> Option<LatencyReport> {
    let mut kernel = Kernel::default();
    kernel.load(model, &result.rates, false);
    if kernel.probe(Some(from)).is_some() {
        return None;
    }
    let latency = kernel.offset(to.index())?;
    Some(LatencyReport { from, to, latency })
}

/// A seam-latency bound violation: the worst-case source-to-sink latency
/// across a mode-switch seam exceeds the program's latency constraint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeamLatencyExceeded {
    /// The actual critical-path latency across the seam, exact.
    pub latency: Rational,
    /// The bound it violates.
    pub bound: Rational,
}

/// Bound the worst-case source-to-sink latency across a mode-switch seam.
///
/// A quasi-static mode switch serializes three phases: drain the outgoing
/// mode's in-flight period, run the transition program, fill the incoming
/// mode's first period. Each phase is one `(name, work)` stage — `work` is the
/// exact total execution time of its firings. The stages become a chain of
/// CTA components (each stage's output is delayed by its work relative to its
/// input), the chain is checked by the ordinary consistency machinery, and
/// the end-to-end latency is the critical path from the first stage's input
/// to the last stage's output. When `bound` is given, it is added as a
/// `before` constraint, so a violation surfaces as an inconsistent model —
/// exact rational arithmetic, no tolerance — and is reported with the actual
/// latency. Empty `stages` are a caller error.
pub fn check_seam_latency(
    stages: &[(&str, Rational)],
    bound: Option<Rational>,
) -> Result<LatencyReport, SeamLatencyExceeded> {
    assert!(!stages.is_empty(), "seam latency needs at least one stage");
    let mut m = CtaModel::new();
    let mut first: Option<PortId> = None;
    let mut prev: Option<PortId> = None;
    for (name, work) in stages {
        let comp = m.add_component(*name, None);
        // Anchor the chain at 1 Hz: the seam is a one-shot event sequence,
        // so the rate is arbitrary and only the constant delays matter.
        let input = m.add_required_rate_port(comp, "in", Rational::ONE);
        let output = m.add_port(comp, "out", None);
        m.connect(input, output, *work, Rational::ZERO, Rational::ONE);
        if let Some(p) = prev {
            m.connect(p, input, Rational::ZERO, Rational::ZERO, Rational::ONE);
        }
        first.get_or_insert(input);
        prev = Some(output);
    }
    let (first, last) = (first.unwrap(), prev.unwrap());
    let result = m
        .check_consistency()
        .expect("an acyclic stage chain is always consistent");
    let report = check_latency_path(&m, &result, first, last)
        .expect("the last stage is reachable from the first by construction");
    if let Some(bound) = bound {
        add_before_constraint(&mut m, last, first, bound);
        if m.check_consistency().is_err() {
            return Err(SeamLatencyExceeded {
                latency: report.latency,
                bound,
            });
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(n: i128) -> Rational {
        Rational::from_int(n)
    }

    fn ms(n: i128) -> Rational {
        Rational::new(n, 1000)
    }

    /// src --(d1)--> mid --(d2)--> snk, all at 1 kHz.
    fn pipeline(d1: Rational, d2: Rational) -> (CtaModel, PortId, PortId) {
        let mut m = CtaModel::new();
        let src = m.add_component("src", None);
        let mid = m.add_component("mid", None);
        let snk = m.add_component("snk", None);
        let s = m.add_required_rate_port(src, "out", int(1000));
        let a = m.add_port(mid, "in", None);
        let b = m.add_port(mid, "out", None);
        let k = m.add_required_rate_port(snk, "in", int(1000));
        m.connect(s, a, d1, Rational::ZERO, Rational::ONE);
        m.connect(a, b, Rational::ZERO, Rational::ZERO, Rational::ONE);
        m.connect(b, k, d2, Rational::ZERO, Rational::ONE);
        (m, s, k)
    }

    #[test]
    fn latency_path_is_exactly_the_sum_of_delays() {
        let (m, s, k) = pipeline(ms(2), ms(3));
        let r = m.check_consistency().unwrap();
        let report = check_latency_path(&m, &r, s, k).unwrap();
        assert_eq!(report.latency, ms(5));
        assert_eq!(report.seconds(), 0.005);
    }

    #[test]
    fn latency_takes_longest_path() {
        let (mut m, s, k) = pipeline(ms(2), ms(3));
        // Add a faster parallel path; the report must still use the slow one.
        m.connect(s, k, ms(1), Rational::ZERO, Rational::ONE);
        let r = m.check_consistency().unwrap();
        let report = check_latency_path(&m, &r, s, k).unwrap();
        assert_eq!(report.latency, ms(5));
    }

    #[test]
    fn before_constraint_satisfied_and_violated() {
        let (mut ok, s, k) = pipeline(ms(2), ms(1));
        add_before_constraint(&mut ok, k, s, ms(5));
        assert!(ok.check_consistency().is_ok());

        let (mut bad, s, k) = pipeline(ms(4), ms(3));
        add_before_constraint(&mut bad, k, s, ms(5));
        assert!(bad.check_consistency().is_err());

        // A bound exactly equal to the path delay is feasible: exact
        // arithmetic accepts the boundary case without any tolerance.
        let (mut tight, s, k) = pipeline(ms(2), ms(3));
        add_before_constraint(&mut tight, k, s, ms(5));
        assert!(tight.check_consistency().is_ok());
    }

    #[test]
    fn after_constraint_shifts_offsets() {
        let (mut m, s, k) = pipeline(ms(1), ms(1));
        add_after_constraint(&mut m, k, s, ms(10));
        let r = m.check_consistency().unwrap();
        assert!(r.offsets[k] - r.offsets[s] >= ms(10));
    }

    #[test]
    fn zero_skew_pair_forces_equal_start() {
        // The PAL decoder's `start screen 0 ms after speakers` plus
        // `start screen 0 ms before speakers` force both sinks to start at
        // exactly the same time (a cycle with zero total delay).
        let mut m = CtaModel::new();
        let a = m.add_component("screen", None);
        let b = m.add_component("speakers", None);
        let pa = m.add_required_rate_port(a, "in", int(4_000_000));
        let pb = m.add_required_rate_port(b, "in", int(32_000));
        add_after_constraint(&mut m, pa, pb, Rational::ZERO);
        add_before_constraint(&mut m, pa, pb, Rational::ZERO);
        let r = m.check_consistency().unwrap();
        assert_eq!(r.offsets[pa], r.offsets[pb]);
    }

    #[test]
    fn seam_latency_sums_the_stage_chain() {
        let stages = [("drain", ms(2)), ("transition", ms(1)), ("fill", ms(3))];
        let report = check_seam_latency(&stages, None).unwrap();
        assert_eq!(report.latency, ms(6));
    }

    #[test]
    fn seam_latency_bound_is_exact() {
        let stages = [("drain", ms(2)), ("fill", ms(3))];
        // A bound exactly equal to the seam work is feasible.
        assert!(check_seam_latency(&stages, Some(ms(5))).is_ok());
        // One millisecond tighter is a violation reporting the true latency.
        let err = check_seam_latency(&stages, Some(ms(4))).unwrap_err();
        assert_eq!(err.latency, ms(5));
        assert_eq!(err.bound, ms(4));
    }

    #[test]
    fn unreachable_ports_return_none() {
        let (m, s, k) = pipeline(ms(1), ms(1));
        let r = m.check_consistency().unwrap();
        // Port s is not reachable from the sink (no backward connections).
        assert!(check_latency_path(&m, &r, k, s).is_none());
    }
}
