//! The polynomial-time consistency algorithm for CTA models.
//!
//! A composition of CTA components is **consistent** (paper Section V-A) when
//!
//! 1. every port's actual transfer rate is at most its maximum rate
//!    (`r(p) ≤ r̂(p)`), with the actual rates related through the transfer
//!    rate ratios `γ` of the connections, and
//! 2. data arrives in time on every port: the delay constraints
//!    `θ(q) ≥ θ(p) + Δ(c)` admit a solution, which is the case exactly when
//!    no cycle of connections has a positive total delay.
//!
//! Both checks are polynomial: rate propagation is a breadth-first traversal
//! with exact rational coefficients, and the delay check is one probe of the
//! crate's longest-path kernel (`longest_path.rs`, `O(P · C)` at worst, says
//! why its short cuts are exact). The algorithm also returns the maximal
//! achievable rates, used for rate-only interfaces of black-box components.
//!
//! Everything here is computed in **exact rational arithmetic**: rates,
//! offsets and slacks are [`Rational`]s, comparisons are exact, and there are
//! no tolerance constants anywhere. In particular, the maximal achievable
//! rates are found *exactly*: when a positive-delay cycle forces the free
//! rate groups below their rate-only maximum, the binding cycle's weight
//! `E + P/f` (constant part `E`, rate-dependent part `P/f` in the scale
//! factor `f`) is solved for the factor that makes it exactly zero, instead
//! of binary-searching to a tolerance.

use crate::component::{ConnectionId, CtaModel};
use crate::longest_path::{Cycle, Kernel};
use oil_dataflow::index::{GroupId, Idx, IndexVec, PortId};
use oil_dataflow::Rational;
use serde::{Deserialize, Serialize};

/// The result of a successful consistency check. All values are exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConsistencyResult {
    /// Actual transfer rate per port, in events per second.
    pub rates: IndexVec<PortId, Rational>,
    /// A feasible start-time (offset) per port, in seconds. Offsets satisfy
    /// every connection's delay constraint and are the earliest such times
    /// relative to the chosen time origin.
    pub offsets: IndexVec<PortId, Rational>,
    /// Rate-propagation group of each port; ports in the same group have
    /// rates related by the `γ` ratios along connections.
    pub rate_groups: IndexVec<PortId, GroupId>,
    /// Per connection: slack of the delay constraint at the computed offsets,
    /// `θ(to) − θ(from) − Δ(c) ≥ 0`.
    pub slacks: IndexVec<ConnectionId, Rational>,
}

impl ConsistencyResult {
    /// The minimum slack over all connections (how close the composition is
    /// to violating a delay constraint), or `None` for a model without
    /// connections.
    pub fn min_slack(&self) -> Option<Rational> {
        self.slacks.iter().copied().reduce(Rational::min)
    }

    /// A port's rate in Hz as `f64` — conversion at the API boundary, after
    /// all exact computation has finished.
    pub fn rate_hz(&self, port: PortId) -> f64 {
        self.rates[port].to_f64()
    }

    /// A port's start offset in seconds as `f64` — conversion at the API
    /// boundary, after all exact computation has finished.
    pub fn offset_seconds(&self, port: PortId) -> f64 {
        self.offsets[port].to_f64()
    }
}

/// Why a CTA composition is inconsistent.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConsistencyError {
    /// Following two different connection paths to the same port implies two
    /// different rates: the `γ` ratios around some cycle do not multiply to 1.
    RateConflict {
        /// The port with conflicting implied rates.
        port: PortId,
    },
    /// Two ports with fixed (source/sink) rates in the same rate group imply
    /// incompatible scales.
    RequiredRateConflict {
        /// The second port whose required rate conflicts with the group.
        port: PortId,
        /// Rate implied by the rest of the group (events/s).
        implied: Rational,
        /// Rate required at this port (events/s).
        required: Rational,
    },
    /// The rate required at some port exceeds the maximum rate of another
    /// port in its group.
    MaxRateExceeded {
        /// Port whose maximum rate is exceeded.
        port: PortId,
        /// Rate the composition would need at that port (events/s).
        needed: Rational,
        /// The port's maximum rate (events/s).
        max: Rational,
    },
    /// A cycle of connections has positive total delay: data arrives too late
    /// on the cycle's ports at the computed rates.
    PositiveCycle {
        /// Ports on the offending cycle.
        ports: Vec<PortId>,
        /// Total delay of the cycle (seconds); positive.
        excess: Rational,
        /// Connections on the cycle.
        connections: Vec<ConnectionId>,
    },
}

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::RateConflict { port } => {
                write!(
                    f,
                    "rate ratios around a cycle through port {port} do not multiply to one"
                )
            }
            ConsistencyError::RequiredRateConflict {
                port,
                implied,
                required,
            } => write!(
                f,
                "port {port} requires rate {required} Hz but the composition implies {implied} Hz"
            ),
            ConsistencyError::MaxRateExceeded { port, needed, max } => {
                write!(
                    f,
                    "port {port} would need rate {needed} Hz, exceeding its maximum {max} Hz"
                )
            }
            ConsistencyError::PositiveCycle { excess, ports, .. } => write!(
                f,
                "a cycle through {} ports has positive delay {excess} s: data arrives too late",
                ports.len()
            ),
        }
    }
}

impl std::error::Error for ConsistencyError {}

impl From<Cycle> for ConsistencyError {
    fn from((ports, connections, excess): Cycle) -> Self {
        ConsistencyError::PositiveCycle {
            ports,
            excess,
            connections,
        }
    }
}

/// Internal: rate groups and per-port rational coefficients.
pub(crate) struct RateStructure {
    /// Group id per port.
    pub(crate) group: IndexVec<PortId, GroupId>,
    /// Coefficient per port: `rate(port) = scale(group) * coeff(port)`.
    pub(crate) coeff: IndexVec<PortId, Rational>,
    /// Number of groups.
    pub(crate) groups: usize,
}

pub(crate) fn propagate_rate_structure(
    model: &CtaModel,
) -> Result<RateStructure, ConsistencyError> {
    let n = model.ports.len();
    let mut group: IndexVec<PortId, Option<GroupId>> = IndexVec::from_elem(None, n);
    let mut coeff: IndexVec<PortId, Rational> = IndexVec::from_elem(Rational::ONE, n);
    // Undirected adjacency: (neighbour, factor) with rate(nb) = factor * rate(this).
    let mut adj: IndexVec<PortId, Vec<(PortId, Rational)>> = IndexVec::from_elem(Vec::new(), n);
    for c in &model.connections {
        if !c.couples_rates {
            continue;
        }
        adj[c.from].push((c.to, c.gamma));
        adj[c.to].push((c.from, c.gamma.recip()));
    }

    let mut groups = 0usize;
    for start in model.ports.indices() {
        if group[start].is_some() {
            continue;
        }
        let gid = GroupId::new(groups);
        groups += 1;
        group[start] = Some(gid);
        coeff[start] = Rational::ONE;
        let mut queue = vec![start];
        while let Some(p) = queue.pop() {
            let cp = coeff[p];
            for &(q, factor) in &adj[p] {
                let expected = cp * factor;
                if group[q].is_none() {
                    group[q] = Some(gid);
                    coeff[q] = expected;
                    queue.push(q);
                } else if coeff[q] != expected {
                    return Err(ConsistencyError::RateConflict { port: q });
                }
            }
        }
    }
    let group = group
        .into_raw()
        .into_iter()
        .map(|g| g.expect("all ports grouped"))
        .collect();
    Ok(RateStructure {
        group,
        coeff,
        groups,
    })
}

/// Determine the scale of every rate group: fixed by required (source/sink)
/// rates when present, otherwise the maximum allowed by the ports' maximum
/// rates. Returns `(scales, rates)`.
fn resolve_rates(
    model: &CtaModel,
    rs: &RateStructure,
) -> Result<(Vec<Rational>, IndexVec<PortId, Rational>), ConsistencyError> {
    let mut scale: Vec<Option<Rational>> = vec![None; rs.groups];
    // Pass 1: required rates fix the scale; conflicts are exact inequalities.
    for (p, port) in model.ports.iter_enumerated() {
        if let Some(req) = port.required_rate {
            let implied_scale = req / rs.coeff[p];
            match scale[rs.group[p].index()] {
                None => scale[rs.group[p].index()] = Some(implied_scale),
                Some(s) => {
                    if s != implied_scale {
                        return Err(ConsistencyError::RequiredRateConflict {
                            port: p,
                            implied: s * rs.coeff[p],
                            required: req,
                        });
                    }
                }
            }
        }
    }
    // Pass 2: groups without a required rate run at the maximum rate allowed
    // by their ports (the "maximal achievable transfer rates" of the paper).
    let mut max_scale: Vec<Option<Rational>> = vec![None; rs.groups];
    for (p, port) in model.ports.iter_enumerated() {
        if let Some(max_rate) = port.max_rate {
            let bound = max_rate / rs.coeff[p];
            let g = rs.group[p].index();
            max_scale[g] = Some(match max_scale[g] {
                None => bound,
                Some(existing) => existing.min(bound),
            });
        }
    }
    let mut scales = Vec::with_capacity(rs.groups);
    for g in 0..rs.groups {
        let s = match scale[g] {
            Some(s) => s,
            // Completely unconstrained group (all max rates unbounded): pick
            // unit scale; delays with phi terms then use rate coeff(p).
            None => max_scale[g].unwrap_or(Rational::ONE),
        };
        scales.push(s);
    }
    // Pass 3: every port's rate must respect its maximum rate — exactly.
    let mut rates: IndexVec<PortId, Rational> = IndexVec::with_capacity(model.ports.len());
    for (p, port) in model.ports.iter_enumerated() {
        let r = scales[rs.group[p].index()] * rs.coeff[p];
        if let Some(max_rate) = port.max_rate {
            if r > max_rate {
                return Err(ConsistencyError::MaxRateExceeded {
                    port: p,
                    needed: r,
                    max: max_rate,
                });
            }
        }
        rates.push(r);
    }
    Ok((scales, rates))
}

/// Offsets per port and slacks per connection, as produced by the delay
/// feasibility check.
pub type DelayCheck = (IndexVec<PortId, Rational>, IndexVec<ConnectionId, Rational>);

/// Check the delay constraints at the given rates: no cycle of connections
/// may have positive total delay. Returns the least feasible offsets (every
/// port may start at zero) on success or a witness cycle on failure. One
/// probe of the longest-path kernel: exact, `O(P · C)` at worst.
pub fn check_delays_at_rates(
    model: &CtaModel,
    rates: &IndexVec<PortId, Rational>,
) -> Result<DelayCheck, ConsistencyError> {
    let mut kernel = Kernel::default();
    kernel.load(model, rates, false);
    match kernel.probe(None) {
        None => Ok(kernel.delay_check()),
        Some(cycle) => Err(cycle.into()),
    }
}

impl CtaModel {
    /// Run the full consistency check: rate propagation, maximum-rate checks
    /// and delay feasibility. Polynomial time in the size of the model; all
    /// results are exact rationals.
    pub fn check_consistency(&self) -> Result<ConsistencyResult, ConsistencyError> {
        let rs = propagate_rate_structure(self)?;
        let (_scales, rates) = resolve_rates(self, &rs)?;
        let (offsets, slacks) = check_delays_at_rates(self, &rates)?;
        Ok(ConsistencyResult {
            rates,
            offsets,
            rate_groups: rs.group,
            slacks,
        })
    }

    /// The maximal achievable transfer rates: for rate groups without a
    /// source/sink-imposed rate, the largest uniform scale (as a fraction of
    /// the rate-only maximum) at which the delay constraints are still
    /// satisfiable. Groups containing a required rate keep it.
    ///
    /// The scale is computed **exactly**: every binding positive cycle has
    /// weight `E + P/f` in the scale factor `f` (with `E` the constant part
    /// and `P` the rate-dependent part over the free groups), so the factor
    /// at which the cycle becomes tight is exactly `f = −P / E`. The factor
    /// is lowered cycle by cycle until the delay check passes.
    ///
    /// Returns the per-port rates, or the error that makes even arbitrarily
    /// low rates infeasible.
    pub fn maximal_rates(&self) -> Result<IndexVec<PortId, Rational>, ConsistencyError> {
        Ok(self.maximal_rates_impl(false)?.0)
    }

    /// As [`Self::maximal_rates`], but with buffer-capacity connections
    /// treated as unbounded. These are the rates the model could reach if
    /// buffer sizing were free to enlarge every capacity — the target rates
    /// of [`crate::buffersizing::size_buffers`].
    pub fn maximal_rates_unbounded_buffers(
        &self,
    ) -> Result<IndexVec<PortId, Rational>, ConsistencyError> {
        Ok(self.maximal_rates_impl(true)?.0)
    }

    /// The maximal rates, their structure and the kernel that accepted them.
    fn maximal_rates_impl(
        &self,
        ignore_buffers: bool,
    ) -> Result<(IndexVec<PortId, Rational>, RateStructure, Kernel), ConsistencyError> {
        let rs = propagate_rate_structure(self)?;
        let (_scales, base) = resolve_rates(self, &rs)?;
        // Which groups are pinned by a source or sink?
        let mut fixed = vec![false; rs.groups];
        for (p, port) in self.ports.iter_enumerated() {
            if port.required_rate.is_some() {
                fixed[rs.group[p].index()] = true;
            }
        }
        // Scale factors are solved per *connected component* of the
        // constraint graph (ports connected by any connection, rate-coupling
        // or not). Components are fully independent — no delay cycle can
        // span two of them — so scaling them jointly would let one
        // component's binding cycle needlessly slow another's maximal rates,
        // breaking the compositionality property that merging two unrelated
        // models preserves each one's analysis results.
        let comp = self.port_constraint_components();
        let n_comps = comp.iter().map(|&c| c + 1).max().unwrap_or(0);
        let mut factor: Vec<Rational> = vec![Rational::ONE; n_comps];
        let rates_at = |factor: &[Rational]| -> IndexVec<PortId, Rational> {
            base.iter_enumerated()
                .map(|(p, &r)| {
                    if fixed[rs.group[p].index()] {
                        r
                    } else {
                        r * factor[comp[p.index()]]
                    }
                })
                .collect()
        };

        // Each round either succeeds or permanently retires the witness
        // cycle, so the simple-cycle count bounds the rounds; the cap only
        // guards against pathological models.
        let max_rounds = self.connections.len() * self.connections.len() + 8;
        let mut last_error = None;
        let mut kernel = Kernel::default();
        for _ in 0..=max_rounds {
            let rates = rates_at(&factor);
            kernel.load(self, &rates, ignore_buffers);
            let Some(cycle) = kernel.probe(None) else {
                return Ok((rates, rs, kernel));
            };
            // The cycle lies within one constraint component; split its
            // weight into E + P/factor there: epsilon terms and fixed-group
            // phi terms are constant, free-group phi terms scale with
            // 1/factor.
            let connections = &cycle.1;
            let cycle_comp = comp[self.connections[connections[0]].from.index()];
            let mut e_sum = Rational::ZERO;
            let mut p_sum = Rational::ZERO;
            for &cid in connections {
                let c = &self.connections[cid];
                debug_assert_eq!(comp[c.from.index()], cycle_comp);
                e_sum += c.epsilon;
                if !c.phi.is_zero() {
                    let term = c.phi / base[c.from];
                    if fixed[rs.group[c.from].index()] {
                        e_sum += term;
                    } else {
                        p_sum += term;
                    }
                }
            }
            if !p_sum.is_negative() {
                // The cycle's delay does not shrink at lower rates: no
                // positive factor is feasible.
                return Err(cycle.into());
            }
            // weight(f) = E + P/f with P < 0 is increasing in f and positive
            // at the current factor, so E > 0 and the unique zero crossing
            // -P/E lies strictly below.
            let threshold = -p_sum / e_sum;
            debug_assert!(threshold.is_positive() && threshold < factor[cycle_comp]);
            factor[cycle_comp] = threshold;
            last_error = Some(cycle.into());
        }
        Err(last_error.expect("rounds exhausted only after at least one cycle"))
    }

    /// Connected components of the constraint graph: ports joined by *any*
    /// connection (rate-coupling or pure timing constraint). Returns a
    /// component index per port (dense, 0-based).
    fn port_constraint_components(&self) -> Vec<usize> {
        let n = self.ports.len();
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for c in &self.connections {
            let (a, b) = (
                find(&mut parent, c.from.index()),
                find(&mut parent, c.to.index()),
            );
            if a != b {
                parent[a] = b;
            }
        }
        // Densify root ids to 0..k.
        let mut dense: Vec<Option<usize>> = vec![None; n];
        let mut next = 0usize;
        (0..n)
            .map(|p| {
                let root = find(&mut parent, p);
                *dense[root].get_or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect()
    }

    /// Like [`Self::check_consistency`], but instead of failing when the
    /// maximal rates violate a delay constraint, scale the rate groups that
    /// are not pinned by a source or sink down to their maximal *feasible*
    /// rates (the paper's "maximal achievable transfer rates"), computed
    /// exactly. Fails only when no positive rate satisfies the constraints,
    /// e.g. an unattainable latency bound.
    pub fn consistency_at_maximal_rates(&self) -> Result<ConsistencyResult, ConsistencyError> {
        let (rates, rs, mut kernel) = self.maximal_rates_impl(false)?;
        let (offsets, slacks) = kernel.delay_check();
        Ok(ConsistencyResult {
            rates,
            offsets,
            rate_groups: rs.group,
            slacks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::CtaModel;

    fn int(n: i128) -> Rational {
        Rational::from_int(n)
    }

    /// Producer -> consumer with a buffer back-edge of capacity `cap`.
    fn producer_consumer(
        prod_rate: Rational,
        cons_rate: Rational,
        response: Rational,
        cap: Rational,
    ) -> CtaModel {
        let mut m = CtaModel::new();
        let prod = m.add_component("prod", None);
        let cons = m.add_component("cons", None);
        let p = m.add_port(prod, "out", Some(prod_rate));
        let q = m.add_port(cons, "in", Some(cons_rate));
        m.connect(p, q, response, Rational::ZERO, Rational::ONE);
        m.connect_buffer("b", q, p, response, -cap, Rational::ONE);
        m
    }

    /// 0.1 ms as an exact rational (seconds).
    fn response() -> Rational {
        Rational::new(1, 10_000)
    }

    #[test]
    fn simple_pair_is_consistent() {
        let m = producer_consumer(int(1000), int(1500), response(), int(4));
        let r = m.check_consistency().unwrap();
        // Both ports in one rate group, running at exactly the slower max rate.
        let (p, q) = (PortId::new(0), PortId::new(1));
        assert_eq!(r.rate_groups[p], r.rate_groups[q]);
        assert_eq!(r.rates[p], int(1000));
        assert_eq!(r.rates[q], int(1000));
        assert!(r.min_slack().unwrap() >= Rational::ZERO);
        // The f64 boundary conversion is lossless for these values.
        assert_eq!(r.rate_hz(p), 1000.0);
    }

    #[test]
    fn too_small_buffer_gives_positive_cycle() {
        // Round trip delay 2 * 1e-4 s; at 1000 Hz the buffer delay is
        // -cap/1000. cap = 1/10 gives cycle weight 2e-4 - 1e-4 > 0.
        let m = producer_consumer(int(1000), int(1000), response(), Rational::new(1, 10));
        match m.check_consistency() {
            Err(ConsistencyError::PositiveCycle {
                excess,
                connections,
                ..
            }) => {
                // Exactly 2/10000 - (1/10)/1000 = 1/10000 seconds of excess.
                assert_eq!(excess, Rational::new(1, 10_000));
                assert_eq!(connections.len(), 2);
            }
            other => panic!("expected positive cycle, got {other:?}"),
        }
    }

    #[test]
    fn buffer_of_exactly_round_trip_is_feasible() {
        // Cycle: eps 2e-4, phi -cap at rate 1000 -> need cap >= 1/5; with
        // cap = 1/5 the cycle weight is exactly zero — accepted without any
        // tolerance.
        let m = producer_consumer(int(1000), int(1000), response(), Rational::new(1, 5));
        let r = m.check_consistency().unwrap();
        assert_eq!(r.min_slack(), Some(Rational::ZERO));
    }

    #[test]
    fn required_rate_fixes_group_rate() {
        let mut m = producer_consumer(int(10_000), int(10_000), Rational::new(1, 100_000), int(4));
        // Add a source port wired to the producer that fixes 2 kHz.
        let src = m.add_component("src", None);
        let s = m.add_required_rate_port(src, "out", int(2000));
        m.connect(
            s,
            PortId::new(0),
            Rational::ZERO,
            Rational::ZERO,
            Rational::ONE,
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[PortId::new(0)], int(2000));
        assert_eq!(r.rates[PortId::new(1)], int(2000));
    }

    #[test]
    fn conflicting_required_rates_detected() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_required_rate_port(a, "p", int(1000));
        let q = m.add_required_rate_port(a, "q", int(1500));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::ONE);
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::RequiredRateConflict { .. })
        ));
    }

    #[test]
    fn required_rate_exceeding_max_rate_detected() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_required_rate_port(a, "p", int(1000));
        let q = m.add_port(a, "q", Some(int(400)));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::ONE);
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::MaxRateExceeded { .. })
        ));
    }

    #[test]
    fn gamma_cycle_product_must_be_one() {
        let mut m = CtaModel::new();
        let a = m.add_component("a", None);
        let p = m.add_port(a, "p", Some(int(1000)));
        let q = m.add_port(a, "q", Some(int(1000)));
        m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::new(2, 1));
        m.connect(q, p, Rational::ZERO, Rational::ZERO, Rational::new(1, 1));
        assert!(matches!(
            m.check_consistency(),
            Err(ConsistencyError::RateConflict { .. })
        ));
    }

    #[test]
    fn multi_rate_gamma_propagates_rates_exactly() {
        // Splitter: input at 6.4 MHz, video output gamma 10/16, audio output
        // gamma 1/25.
        let mut m = CtaModel::new();
        let w = m.add_component("splitter", None);
        let rf = m.add_required_rate_port(w, "rf", int(6_400_000));
        let vid = m.add_port(w, "vid", None);
        let aud = m.add_port(w, "aud", None);
        m.connect(
            rf,
            vid,
            Rational::ZERO,
            Rational::ZERO,
            Rational::new(10, 16),
        );
        m.connect(
            rf,
            aud,
            Rational::ZERO,
            Rational::ZERO,
            Rational::new(1, 25),
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[vid], int(4_000_000));
        assert_eq!(r.rates[aud], int(256_000));
    }

    #[test]
    fn fig8c_rate_dependent_delay_values() {
        // The connection (p0, p2) of Fig. 8 has phi = psi - psi/pi = 4 - 4/2 = 2
        // and gamma = 2/4. At rate r the delay is rho_g + 2/r.
        let rho = Rational::new(1, 1_000_000);
        let psi = int(4);
        let pi = int(2);
        let phi = psi - psi / pi;
        let mut m = CtaModel::new();
        let w = m.add_component("wg", None);
        let p0 = m.add_port(w, "p0", Some(int(1_000_000)));
        let p2 = m.add_port(w, "p2", Some(int(1_000_000)));
        let c = m.connect(p0, p2, rho, phi, Rational::new(2, 4));
        assert_eq!(
            m.connections[c].delay_at_rate(int(1_000_000)),
            rho + Rational::new(2, 1_000_000)
        );
        let r = m.check_consistency().unwrap();
        assert_eq!(r.rates[p2] / r.rates[p0], Rational::new(1, 2));
    }

    #[test]
    fn offsets_respect_connection_delays() {
        let m = producer_consumer(int(1000), int(1000), Rational::new(1, 5000), int(1));
        let r = m.check_consistency().unwrap();
        for (cid, c) in m.connections.iter_enumerated() {
            let d = c.delay_at_rate(r.rates[c.from]);
            assert!(
                r.offsets[c.to] >= r.offsets[c.from] + d,
                "connection {cid} violated"
            );
        }
    }

    #[test]
    fn maximal_rates_scale_down_to_the_exact_feasible_rate() {
        // Buffer too small for the max rate but fine at a lower rate:
        // cycle eps 2e-4 s, capacity 1 token -> feasible iff rate <= 5000 Hz.
        // The exact algorithm finds *exactly* 5000 Hz, not an approximation.
        let m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        assert!(m.check_consistency().is_err());
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(5000));
        assert_eq!(rates[PortId::new(1)], int(5000));
    }

    #[test]
    fn maximal_rates_keep_required_rates_fixed() {
        let mut m = producer_consumer(int(10_000), int(10_000), Rational::new(1, 100_000), int(8));
        let src = m.add_component("src", None);
        let s = m.add_required_rate_port(src, "out", int(1000));
        m.connect(
            s,
            PortId::new(0),
            Rational::ZERO,
            Rational::ZERO,
            Rational::ONE,
        );
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(1000));
    }

    #[test]
    fn maximal_rates_are_solved_per_connected_component() {
        // Two disconnected producer/consumer pairs: one with a binding
        // buffer (max 5 kHz achievable), one unconstrained (20 kHz). The
        // factors are per component, so the unconstrained pair keeps its
        // full rate instead of being dragged down to the other's.
        let mut m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        let free = producer_consumer(int(20_000), int(20_000), response(), int(64));
        let off = m.merge(&free);
        let rates = m.maximal_rates().unwrap();
        assert_eq!(rates[PortId::new(0)], int(5000));
        assert_eq!(rates[off.port(PortId::new(0))], int(20_000));
    }

    #[test]
    fn maximal_rates_with_unbounded_buffers_ignore_capacity() {
        // At the max rate the capacity-1 buffer is binding, but with
        // unbounded buffers the full 20 kHz is achievable.
        let m = producer_consumer(int(20_000), int(20_000), response(), int(1));
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        assert_eq!(rates[PortId::new(0)], int(20_000));
    }

    #[test]
    fn latency_style_negative_epsilon_cycle() {
        // src -> snk forward delay 3 ms, latency constraint 5 ms modelled as
        // a -5 ms back connection: consistent. With a 2 ms constraint:
        // inconsistent (and no rate reduction can help: the cycle has no
        // rate-dependent term).
        let build = |bound_ms: i128| {
            let mut m = CtaModel::new();
            let src = m.add_component("src", None);
            let snk = m.add_component("snk", None);
            let s = m.add_required_rate_port(src, "out", int(1000));
            let k = m.add_required_rate_port(snk, "in", int(1000));
            m.connect(s, k, Rational::new(3, 1000), Rational::ZERO, Rational::ONE);
            m.connect(
                k,
                s,
                Rational::new(-bound_ms, 1000),
                Rational::ZERO,
                Rational::ONE,
            );
            m
        };
        assert!(build(5).check_consistency().is_ok());
        assert!(matches!(
            build(2).check_consistency(),
            Err(ConsistencyError::PositiveCycle { .. })
        ));
        assert!(matches!(
            build(2).maximal_rates(),
            Err(ConsistencyError::PositiveCycle { .. })
        ));
    }

    #[test]
    fn empty_model_is_consistent() {
        let m = CtaModel::new();
        let r = m.check_consistency().unwrap();
        assert!(r.rates.is_empty());
        assert_eq!(r.min_slack(), None);
    }

    #[test]
    fn consistency_is_deterministic() {
        // Exact arithmetic makes repeated analyses bit-identical.
        let m = producer_consumer(int(48_000), int(44_100), Rational::new(1, 96_000), int(3));
        let first = m.check_consistency().unwrap();
        for _ in 0..10 {
            assert_eq!(m.check_consistency().unwrap(), first);
        }
    }
}
