//! The one longest-path relaxation behind every delay analysis of the crate.
//!
//! Delay feasibility, buffer sizing and critical-path latency all ask for the
//! least offsets with `θ(to) ≥ θ(from) + Δ(c)` on every connection, or for
//! the cycle that makes them unbounded. A [`Kernel`] answers with rounds of
//! Bellman-Ford over the connections in index order, cheapened four ways:
//!
//! * **Weights once.** `Δ(c) = ε + φ/r(from)` is computed when a probe is
//!   loaded; an enlargement rewrites only the weights it grew.
//! * **Cleared denominators.** Let `D` be the least common multiple of every
//!   weight's denominator and of the numerator of `r(from)` on every buffer
//!   connection. Each weight, also after enlargements by whole tokens
//!   `k/r(from)`, is an integer multiple of `1/D`, and scaling by `D` keeps
//!   every sum and comparison: the rounds run on plain `i128`. When `D`, a
//!   scaled weight or the offset bound below would leave `i128`, the same
//!   generic code runs on [`Rational`], as it does once more to confirm a
//!   final verdict and report its numbers ([`Kernel::confirm`]).
//! * **No-op elision.** A connection is skipped unless its source rose since
//!   the connection's last turn: that turn left `θ(to) ≥ θ(from) + Δ` and
//!   `θ(to)` only rises, so offsets evolve exactly as in a dense loop.
//! * **Early cycle detection.** The predecessor graph is searched for a
//!   cycle once per `P` raises, not after `P` rounds. Such a cycle is always
//!   positive: a predecessor edge was set with `θ(v) = θ(u) + Δ` and `θ(u)`
//!   only rises, so `θ(v) ≤ θ(u) + Δ` around the cycle, strictly on the
//!   edge that closed it; the sum leaves `ΣΔ > 0`.
//!
//! The offset bound: after a search that found no cycle an offset is at most
//! its predecessor path, under `P` connections; under `P + C` raises, one
//! more connection each, precede the next search; first finite offsets form
//! a tree. So `|θ| < (2P + C) · max|Δ|`. The growth order of sizing is as
//! before: probes restart from zero and offsets climb a chain hop by hop,
//! about `0.04 · iterations · P · C` relaxations (cubic in pipeline length).

use crate::component::{ConnectionId, CtaModel};
use crate::consistency::DelayCheck;
use oil_dataflow::index::{Idx, IndexVec, PortId};
use oil_dataflow::rational::gcd;
use oil_dataflow::Rational;
use std::ops::Add;

#[cfg(test)]
thread_local! {
    /// Relaxations performed on this thread (elided no-ops not counted).
    pub(crate) static RELAXATIONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A positive cycle: ports, the connections arriving at them, total delay.
pub(crate) type Cycle = (Vec<PortId>, Vec<ConnectionId>, Rational);

/// Weights, offsets and scratch for repeated probes of one model's graph.
#[derive(Default)]
pub(crate) struct Kernel {
    graph: Graph,
    /// `Δ(c)` at the loaded rates; while `den` is `Some(D)`, `scaled` holds
    /// `Δ(c) · D` and probes fill `scaled_offsets`.
    weights: Vec<Rational>,
    offsets: Vec<Option<Rational>>,
    scaled: Vec<i128>,
    scaled_offsets: Vec<Option<i128>>,
    den: Option<i128>,
    /// Largest `|Δ · D|` for which offsets provably stay inside `i128`.
    limit: u128,
}

#[derive(Default)]
struct Graph {
    /// Per connection: `(from, to)`, and whether the probe leaves it out.
    ends: Vec<(usize, usize)>,
    dead: Vec<bool>,
    /// Per port: last raising connection, its tick, last search walk across.
    pred: Vec<Option<usize>>,
    raised: Vec<usize>,
    mark: Vec<usize>,
}

/// `w · den` (`den` a multiple of `w`'s denominator) if within `limit`.
fn scale(w: Rational, den: i128, limit: u128) -> Option<i128> {
    let s = w.numer().checked_mul(den / w.denom())?;
    (s.unsigned_abs() <= limit).then_some(s)
}

impl Kernel {
    /// Load `model`'s connections and their weights at `rates`, scaled if that
    /// provably fits; `ignore_buffers` leaves buffer connections out of probes.
    pub(crate) fn load(
        &mut self,
        model: &CtaModel,
        rates: &IndexVec<PortId, Rational>,
        ignore_buffers: bool,
    ) {
        let (n, m, graph) = (model.ports.len(), model.connections.len(), &mut self.graph);
        graph.pred.resize(n, None);
        graph.ends.clear();
        graph.dead.clear();
        self.weights.clear();
        self.limit = i128::MAX as u128 / (4 * (n + m) + 1) as u128;
        // `None` outside `i128`, or for a caller's non-positive rate `b`.
        let lcm = |a: i128, b: i128| {
            let l = (a / gcd(a as u128, b.unsigned_abs()) as i128).checked_mul(b)?;
            (l > 0).then_some(l)
        };
        let mut den = Some(1i128);
        for c in &model.connections {
            let w = c.delay_at_rate(rates[c.from]);
            self.weights.push(w);
            graph.ends.push((c.from.index(), c.to.index()));
            graph.dead.push(ignore_buffers && c.buffer.is_some());
            den = den.and_then(|d| lcm(d, w.denom()));
            if c.buffer.is_some() {
                den = den.and_then(|d| lcm(d, rates[c.from].numer()));
            }
        }
        self.scaled.clear();
        self.den = den.filter(|&d| {
            let scaled = self.weights.iter().map_while(|&w| scale(w, d, self.limit));
            self.scaled.extend(scaled);
            self.scaled.len() == m
        });
    }

    /// Lower `c`'s weight by `by`: whole tokens over a buffer's rate (`k/D`).
    pub(crate) fn lower(&mut self, c: ConnectionId, by: Rational) {
        let c = c.index();
        self.weights[c] -= by;
        match self.den.and_then(|d| scale(self.weights[c], d, self.limit)) {
            Some(s) => self.scaled[c] = s,
            None => self.den = None,
        }
    }

    /// Relax to the least offsets with `source` (`None`: every port) at zero,
    /// kept in place, or to the positive cycle that makes them unbounded.
    pub(crate) fn probe(&mut self, source: Option<PortId>) -> Option<Cycle> {
        let (graph, source) = (&mut self.graph, source.map(Idx::index));
        let (cycle, excess) = match self.den {
            Some(den) => {
                let found = graph.relax(&self.scaled, &mut self.scaled_offsets, source, 0);
                found.map(|(cycle, excess)| (cycle, Rational::new(excess, den)))?
            }
            None => graph.relax(&self.weights, &mut self.offsets, source, Rational::ZERO)?,
        };
        let ports = cycle.iter().map(|&c| PortId::new(graph.ends[c].1));
        let connections = cycle.iter().map(|&c| ConnectionId::new(c));
        Some((ports.collect(), connections.collect(), excess))
    }

    /// Port `p`'s offset after a feasible probe; `None` is −∞ (unreachable).
    pub(crate) fn offset(&self, p: usize) -> Option<Rational> {
        match self.den {
            Some(den) => self.scaled_offsets[p].map(|x| Rational::new(x, den)),
            None => self.offsets[p],
        }
    }

    /// Replay an accepted all-zero probe of the scaled instantiation on the
    /// `Rational` one: the reference arithmetic has the last word and the
    /// offsets that leave the crate never pass through the scaling.
    pub(crate) fn confirm(&mut self) {
        if self.den.take().is_some() {
            assert!(self.probe(None).is_none(), "both instantiations accept");
        }
    }

    /// All offsets and slacks after a feasible probe from every port at zero.
    pub(crate) fn delay_check(&mut self) -> DelayCheck {
        self.confirm();
        let at = |p: usize| self.offsets[p].expect("every port starts at zero");
        let offsets: Vec<Rational> = (0..self.graph.pred.len()).map(at).collect();
        let slacks = self.graph.ends.iter().zip(&self.weights);
        let slacks = slacks.map(|(&(from, to), &w)| offsets[to] - offsets[from] - w);
        let slacks = slacks.collect();
        (IndexVec::from_raw(offsets), slacks)
    }
}

impl Graph {
    /// Relax `offsets` (reset to `zero` at `source`, or everywhere) to their
    /// fixpoint, or to a predecessor cycle: its connections and their sum.
    fn relax<W: Copy + Ord + Add<Output = W>>(
        &mut self,
        weights: &[W],
        offsets: &mut Vec<Option<W>>,
        source: Option<usize>,
        zero: W,
    ) -> Option<(Vec<usize>, W)> {
        let (n, m) = (self.pred.len(), self.ends.len());
        offsets.clear();
        offsets.resize(n, source.is_none().then_some(zero));
        if let Some(p) = source {
            offsets[p] = Some(zero);
        }
        self.pred.fill(None);
        self.mark.clear();
        self.mark.resize(n, 0);
        // Connection `c`'s turn in round `k ≥ 1` is tick `k · m + c + 1`;
        // ports start as if raised just before the first round.
        self.raised.clear();
        self.raised.resize(n, m);
        let (mut round, mut walk, mut unsearched, mut path) = (0, 0, 0, Vec::new());
        loop {
            round += m;
            let before = unsearched;
            for (c, &(from, to)) in self.ends.iter().enumerate() {
                // Skip unless the source rose since this connection's last turn.
                let Some(base) = offsets[from] else { continue };
                if self.raised[from] <= round + c - m || self.dead[c] {
                    continue;
                }
                #[cfg(test)]
                RELAXATIONS.set(RELAXATIONS.get() + 1);
                if offsets[to].is_none_or(|d| base + weights[c] > d) {
                    offsets[to] = Some(base + weights[c]);
                    (self.pred[to], self.raised[to]) = (Some(c), round + c + 1);
                    unsearched += 1;
                }
            }
            if unsearched == before {
                return None;
            } else if unsearched < n {
                continue;
            }
            // Walk predecessors from every port. Marks above `fresh` belong
            // to this search; a walk that meets its own mark closed a cycle.
            unsearched = 0;
            let fresh = walk;
            for start in 0..n {
                walk += 1;
                path.clear();
                let mut v = start;
                while self.mark[v] <= fresh {
                    self.mark[v] = walk;
                    let Some(c) = self.pred[v] else { break };
                    path.push(c);
                    v = self.ends[c].0;
                }
                let closes = |&c: &usize| self.mark[v] == walk && self.ends[c].1 == v;
                if let Some(at) = path.iter().position(closes) {
                    let cycle: Vec<usize> = path[at..].iter().rev().copied().collect();
                    let sum = |e: W, &c: &usize| e + weights[c];
                    let excess = cycle[1..].iter().fold(weights[cycle[0]], sum);
                    assert!(excess > zero, "a predecessor cycle is a positive cycle");
                    return Some((cycle, excess));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffersizing::size_buffers;

    /// The CTA model `derive_cta_model` produces for the compile corpus's
    /// `pipeline_source(k)`: `k` one-task modules between a 1 kHz source and
    /// sink, every channel an unsized buffer.
    fn pipeline_model(k: usize) -> CtaModel {
        let us = Rational::new(1, 1_000_000);
        let (zero, one) = (Rational::ZERO, Rational::ONE);
        let mut m = CtaModel::new();
        // Per stage: the module's `[a_in, a_out, b_in, b_out]`.
        let mut stages: Vec<[PortId; 4]> = Vec::new();
        for i in 0..k {
            let module = m.add_component(format!("W#{i}"), None);
            let looped = m.add_component(format!("W#{i}_loop"), Some(module));
            let task = m.add_component(format!("W#{i}_f"), Some(looped));
            let t_in = m.add_port(task, "in", Some(us.recip()));
            let t_out = m.add_port(task, "out", Some(us.recip()));
            m.connect(t_in, t_out, us, zero, one);
            let mut outer = Vec::new();
            for var in ["a", "b"] {
                let m_in = m.add_port(module, format!("{var}_in"), None);
                let m_out = m.add_port(module, format!("{var}_out"), None);
                let l_in = m.add_port(looped, format!("{var}_in"), None);
                let l_out = m.add_port(looped, format!("{var}_out"), None);
                m.connect(l_in, t_in, zero, zero, one);
                m.connect(t_out, l_out, zero, zero, one);
                m.connect(l_out, l_in, -us, -one, one);
                m.connect(m_in, l_in, zero, zero, one);
                m.connect(l_out, m_out, zero, zero, one);
                m.connect(m_out, m_in, -us, zero, one);
                outer.extend([m_in, m_out]);
            }
            stages.push([outer[0], outer[1], outer[2], outer[3]]);
        }
        let khz = Rational::from_int(1000);
        let src = m.add_component("src", None);
        let src_data = m.add_required_rate_port(src, "data", khz);
        let src_space = m.add_port(src, "space", None);
        m.connect(src_space, src_data, zero, zero, one);
        let snk = m.add_component("snk", None);
        let snk_data = m.add_required_rate_port(snk, "data", khz);
        let snk_space = m.add_port(snk, "space", None);
        m.connect(snk_data, snk_space, khz.recip(), zero, one);
        for i in 1..k {
            let ([_, _, b_in, b_out], [a_in, a_out, _, _]) = (stages[i - 1], stages[i]);
            m.connect(b_out, a_in, zero, zero, one);
            m.connect_buffer(format!("m{}", i - 1), a_out, b_in, zero, zero, one);
        }
        let ([first_in, first_out, _, _], [_, _, last_in, last_out]) = (stages[0], stages[k - 1]);
        m.connect(src_data, first_in, zero, zero, one);
        m.connect_buffer("x", first_out, src_space, zero, zero, one);
        m.connect(last_out, snk_data, zero, zero, one);
        m.connect_buffer("y", snk_space, last_in, zero, zero, one);
        m
    }

    #[test]
    fn sizing_a_32_stage_pipeline_relaxes_a_fraction_of_the_dense_loop() {
        let m = pipeline_model(32);
        let (n, c) = (m.ports.len(), m.connections.len());
        assert_eq!((n, c, m.buffer_connections().len()), (324, 484, 33));
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        RELAXATIONS.set(0);
        let sizing = size_buffers(&m).unwrap();
        let relaxations = RELAXATIONS.get();
        assert_eq!(sizing.iterations, 33);
        assert_eq!(sizing.rates, rates);
        // The dense loop runs all n rounds over all c connections on each of
        // the failing probes.
        let dense = (sizing.iterations * n * c) as u64;
        assert!(
            relaxations * 10 < dense,
            "{relaxations} relaxations vs {dense} dense"
        );
    }

    /// Run the sizing loop on two kernels in lockstep, the second held to
    /// the `Rational` instantiation, comparing every probe, the final
    /// offsets and slacks, and single-source offsets. Returns the
    /// iterations and whether the first kernel stayed on scaled integers.
    fn lockstep(model: &CtaModel) -> (usize, bool) {
        let rates = model.maximal_rates_unbounded_buffers().unwrap();
        let (mut scaled, mut exact) = (Kernel::default(), Kernel::default());
        scaled.load(model, &rates, false);
        exact.load(model, &rates, false);
        exact.den = None;
        let mut iterations = 0;
        loop {
            let found = scaled.probe(None);
            assert_eq!(found, exact.probe(None));
            let Some((_, connections, excess)) = found else {
                break;
            };
            iterations += 1;
            for cid in connections {
                let c = &model.connections[cid];
                if c.buffer.is_some() {
                    let by = Rational::from_int((excess * rates[c.from]).ceil().max(1));
                    scaled.lower(cid, by / rates[c.from]);
                    exact.lower(cid, by / rates[c.from]);
                    assert_eq!(exact.den, None);
                }
            }
        }
        for source in [None, Some(0), Some(model.ports.len() / 2)] {
            let source = source.map(PortId::new);
            assert_eq!(scaled.probe(source), exact.probe(source));
            for p in 0..model.ports.len() {
                assert_eq!(scaled.offset(p), exact.offset(p));
            }
        }
        let still_scaled = scaled.den.is_some();
        assert_eq!((scaled.probe(None), exact.probe(None)), (None, None));
        assert_eq!(scaled.delay_check(), exact.delay_check());
        assert_eq!(scaled.den, None, "reported numbers come off the rationals");
        (iterations, still_scaled)
    }

    #[test]
    fn both_instantiations_agree_on_every_output() {
        let m = pipeline_model(6);
        let (iterations, still_scaled) = lockstep(&m);
        assert!(still_scaled, "a 1 kHz pipeline fits i128");
        assert_eq!(iterations, 7);
        assert_eq!(size_buffers(&m).unwrap().iterations, iterations);
    }

    #[test]
    fn an_enlargement_past_the_bound_moves_the_probe_to_rationals() {
        let m = pipeline_model(6);
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        let (mut tight, mut exact) = (Kernel::default(), Kernel::default());
        tight.load(&m, &rates, false);
        exact.load(&m, &rates, false);
        exact.den = None;
        // Pin the bound at the largest weight loaded (the sink's period);
        // five tokens at 1 kHz on an empty buffer are five periods.
        tight.limit = tight.scaled.iter().map(|s| s.unsigned_abs()).max().unwrap();
        let buffer = m.buffer_connections()[0].1;
        let by = Rational::from_int(5) / rates[m.connections[buffer].from];
        assert!(tight.den.is_some());
        tight.lower(buffer, by);
        exact.lower(buffer, by);
        assert_eq!(tight.den, None, "a weight past the bound must leave i128");
        let found = tight.probe(None);
        assert!(found.is_some());
        assert_eq!(found, exact.probe(None));
    }

    #[test]
    fn denominators_that_leave_i128_take_the_rational_instantiation() {
        // Three disjoint producer/consumer pairs whose rates and response
        // times are distinct primes near 1e9: each pair is easy, their
        // common denominator is near 1e54. (`tests/differential.rs` holds
        // such models to the dense reference.)
        const PRIMES: [i128; 6] = [
            1_000_000_007,
            1_000_000_009,
            998_244_353,
            1_000_000_021,
            1_000_000_033,
            999_999_937,
        ];
        let mut m = CtaModel::new();
        for pair in PRIMES.chunks(2) {
            let (rate, response) = (Rational::from_int(pair[0]), Rational::new(1, pair[1]));
            let prod = m.add_component("prod", None);
            let cons = m.add_component("cons", None);
            let p = m.add_port(prod, "out", Some(rate));
            let q = m.add_port(cons, "in", Some(rate));
            m.connect(p, q, response, Rational::ZERO, Rational::ONE);
            m.connect_buffer("b", q, p, response, Rational::ZERO, Rational::ONE);
        }
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        let mut kernel = Kernel::default();
        kernel.load(&m, &rates, false);
        assert_eq!(kernel.den, None);
        let sizing = size_buffers(&m).unwrap();
        assert!(sizing.capacities["b"] >= 2);
        let mut sized = m.clone();
        crate::buffersizing::apply_capacities(&mut sized, &sizing.capacities);
        assert!(sized.check_consistency().is_ok());
    }

    #[test]
    fn a_non_positive_rate_is_never_a_denominator() {
        // An unsized buffer's delay does not read its rate, so a caller may
        // pass any; the scaling step must not divide by it.
        let m = pipeline_model(2);
        let mut rates = m.maximal_rates_unbounded_buffers().unwrap();
        let expected = crate::check_delays_at_rates(&m, &rates).unwrap_err();
        let buffer = m.buffer_connections()[0].1;
        for rate in [Rational::ZERO, Rational::from_int(-1000)] {
            rates[m.connections[buffer].from] = rate;
            let mut kernel = Kernel::default();
            kernel.load(&m, &rates, false);
            assert_eq!(kernel.den, None);
            assert_eq!(kernel.probe(None).map(Into::into), Some(expected.clone()));
        }
    }
}
