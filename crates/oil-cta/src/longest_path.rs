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
//!   generic code runs on [`Rational`]. A final verdict is not replayed but
//!   certified on [`Rational`] in `O(P + C)` ([`Kernel::delay_check`]): the
//!   offsets `s / D` satisfy every connection, and tight, acyclic
//!   predecessors from ports at zero make them the least such offsets.
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

    /// Certify an accepted all-zero probe (see [`Self::delay_check`]).
    pub(crate) fn confirm(&mut self) {
        self.delay_check();
    }

    /// All offsets and slacks after a feasible probe from every port at
    /// zero, certified in the reference arithmetic instead of replayed: each
    /// offset is read exactly (`s / D` on the scaled instantiation), every
    /// live connection's slack `θ(to) − θ(from) − Δ` is non-negative and
    /// every offset too (feasible), and every port is at zero without a
    /// predecessor or on a tight live one, with no predecessor cycle, so
    /// each offset is a path's delay from a port at zero (least). Panics,
    /// naming the connection or port, if the probe's numbers fail.
    pub(crate) fn delay_check(&mut self) -> DelayCheck {
        let read = |p: usize| {
            let offset = self.offset(p).expect("every port starts at zero");
            assert!(
                !offset.is_negative(),
                "port p{p} starts below zero at {offset}"
            );
            let root = self.graph.pred[p].is_none();
            assert!(
                !root || offset.is_zero(),
                "port p{p} has no predecessor yet sits at {offset}"
            );
            offset
        };
        let offsets: Vec<Rational> = (0..self.graph.pred.len()).map(read).collect();
        let graph = &mut self.graph;
        let mut slacks = Vec::with_capacity(graph.ends.len());
        for (c, (&(from, to), &w)) in graph.ends.iter().zip(&self.weights).enumerate() {
            let slack = offsets[to] - offsets[from] - w;
            assert!(
                graph.dead[c] || !slack.is_negative(),
                "connection c{c} (p{from} -> p{to}) is violated by {}",
                -slack
            );
            slacks.push(slack);
        }
        for (p, &pred) in graph.pred.iter().enumerate() {
            if let Some(c) = pred {
                let tight = graph.ends[c].1 == p && !graph.dead[c] && slacks[c].is_zero();
                assert!(tight, "port p{p}'s predecessor c{c} is not tight");
            }
        }
        if let Some(p) = graph.pred_cycle() {
            panic!("port p{p} lies on a predecessor cycle");
        }
        (IndexVec::from_raw(offsets), IndexVec::from_raw(slacks))
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

    /// A port on a cycle of predecessors, if there is one. Each walk follows
    /// predecessors from its start, marking, until a root or an earlier
    /// walk's port; meeting its own mark closes a cycle.
    fn pred_cycle(&mut self) -> Option<usize> {
        self.mark.clear();
        self.mark.resize(self.pred.len(), 0);
        for start in 0..self.pred.len() {
            let (walk, mut v) = (start + 1, start);
            while self.mark[v] == 0 {
                self.mark[v] = walk;
                let Some(c) = self.pred[v] else { break };
                v = self.ends[c].0;
            }
            if self.mark[v] == walk && self.pred[v].is_some() {
                return Some(v);
            }
        }
        None
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
    /// the `Rational` instantiation, comparing every probe, single-source
    /// offsets, and the final offsets and slacks, certified on the first
    /// and relaxed on the second. Returns the
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
        (iterations, still_scaled)
    }

    #[test]
    fn both_instantiations_agree_on_every_output() {
        for (k, expected) in [(6, 7), (32, 33)] {
            let m = pipeline_model(k);
            let (iterations, still_scaled) = lockstep(&m);
            assert!(still_scaled, "a 1 kHz pipeline fits i128");
            assert_eq!(iterations, expected);
            assert_eq!(size_buffers(&m).unwrap().iterations, iterations);
        }
    }

    /// A 1 kHz source through `depth` rate converters of ratio `num/den`,
    /// each with a granularity term and an unsized buffer back (the shape
    /// `tests/differential.rs` sweeps): rates `1000 · (num/den)^k`.
    fn converter_chain(num: i128, den: i128, depth: u32) -> CtaModel {
        let ratio = Rational::new(num, den);
        let (zero, one) = (Rational::ZERO, Rational::ONE);
        let mut m = CtaModel::new();
        let src = m.add_component("src", None);
        let mut prev = m.add_required_rate_port(src, "out", Rational::from_int(1000));
        for k in 0..depth {
            let conv = m.add_component(format!("conv{k}"), None);
            let input = m.add_port(conv, "in", None);
            let output = m.add_port(conv, "out", None);
            m.connect(prev, input, Rational::new(1, 1000), zero, one);
            m.connect(input, output, zero, Rational::from_int(3), ratio);
            m.connect_buffer(format!("b{k}"), output, prev, zero, zero, ratio.recip());
            prev = output;
        }
        m
    }

    /// `model` sized, and a kernel holding its accepted scaled probe.
    fn accepted(model: &CtaModel) -> (CtaModel, Kernel) {
        let sizing = size_buffers(model).unwrap();
        let mut sized = model.clone();
        crate::buffersizing::apply_capacities(&mut sized, &sizing.capacities);
        let mut kernel = Kernel::default();
        kernel.load(&sized, &sizing.rates, false);
        assert_eq!(kernel.probe(None), None);
        assert!(kernel.den.is_some(), "the probe ran on scaled integers");
        (sized, kernel)
    }

    #[test]
    fn both_instantiations_agree_where_scaled_offsets_reduce() {
        let m = converter_chain(147, 160, 3);
        let (iterations, still_scaled) = lockstep(&m);
        assert!(still_scaled && iterations > 0);
        // The certificate reads `s / D` through a reduction: some offset's
        // denominator is neither 1 nor `D`.
        let (_, mut kernel) = accepted(&m);
        let den = kernel.den.unwrap();
        let (offsets, _) = kernel.delay_check();
        assert!(
            offsets.iter().any(|o| o.denom() != 1 && o.denom() != den),
            "no offset reduced: {offsets:?} over {den}"
        );
    }

    #[test]
    fn certifying_a_scaled_probe_relaxes_nothing() {
        let (sized, mut kernel) = accepted(&pipeline_model(32));
        let before = RELAXATIONS.get();
        kernel.confirm();
        let check = kernel.delay_check();
        assert_eq!(RELAXATIONS.get(), before);
        let reported = sized.consistency_at_maximal_rates().unwrap();
        assert_eq!((reported.offsets, reported.slacks), check);
    }

    /// The message a tampered certificate is refused with.
    fn refusal(kernel: &mut Kernel) -> String {
        let confirm = std::panic::AssertUnwindSafe(|| kernel.confirm());
        let refused = std::panic::catch_unwind(confirm).expect_err("tampering must be refused");
        refused
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }

    /// An accepted probe of the sized 6-stage pipeline and its slacks
    /// scaled by `D`.
    fn tamperable() -> (Kernel, Vec<i128>) {
        let (_, kernel) = accepted(&pipeline_model(6));
        let s = &kernel.scaled_offsets;
        let slacks = kernel.graph.ends.iter().zip(&kernel.scaled);
        let slacks = slacks.map(|(&(from, to), w)| s[to].unwrap() - s[from].unwrap() - w);
        let slacks = slacks.collect();
        (kernel, slacks)
    }

    /// The first port with a predecessor whose outgoing connections all
    /// have slack to spare, so raising it one unit breaks none of them.
    fn loose_port(kernel: &Kernel, slacks: &[i128]) -> usize {
        let ends = &kernel.graph.ends;
        let loose = |&p: &usize| (0..ends.len()).all(|c| ends[c].0 != p || slacks[c] > 0);
        let mut raised = (0..kernel.graph.pred.len()).filter(|&p| kernel.graph.pred[p].is_some());
        raised.find(loose).expect("a port to tamper with")
    }

    #[test]
    fn a_lowered_offset_violates_a_connection() {
        let (mut kernel, slacks) = tamperable();
        let p = kernel.graph.pred.iter().position(Option::is_some).unwrap();
        *kernel.scaled_offsets[p].as_mut().unwrap() -= 1;
        // The first zero-slack connection into `p` now falls short.
        let ends = &kernel.graph.ends;
        let c = (0..ends.len())
            .find(|&c| ends[c].1 == p && slacks[c] == 0)
            .unwrap();
        let message = refusal(&mut kernel);
        assert!(
            message.starts_with(&format!("connection c{c} ")),
            "{message}"
        );
    }

    #[test]
    fn a_raised_offset_leaves_its_predecessor_loose() {
        let (mut kernel, slacks) = tamperable();
        let p = loose_port(&kernel, &slacks);
        *kernel.scaled_offsets[p].as_mut().unwrap() += 1;
        let c = kernel.graph.pred[p].unwrap();
        let message = refusal(&mut kernel);
        assert_eq!(
            message,
            format!("port p{p}'s predecessor c{c} is not tight")
        );
    }

    #[test]
    fn a_root_off_zero_is_refused() {
        let (mut kernel, _) = tamperable();
        let p = kernel.graph.pred.iter().position(Option::is_none).unwrap();
        kernel.scaled_offsets[p] = Some(1);
        let message = refusal(&mut kernel);
        assert!(
            message.starts_with(&format!("port p{p} has no predecessor")),
            "{message}"
        );
    }

    #[test]
    fn an_offset_below_zero_is_refused() {
        // A root whose one incoming connection is negative enough to end
        // below zero, hung on it: its predecessor chain runs tight from a
        // root at zero, its outgoing connections only gain slack, and no
        // port hangs on it, so only the sign of its offset is wrong.
        let (mut kernel, _) = tamperable();
        let (ends, pred, s) = (
            &kernel.graph.ends,
            &kernel.graph.pred,
            &kernel.scaled_offsets,
        );
        let below = |c: usize| s[ends[c].0].unwrap() + kernel.scaled[c];
        let only_into = |c: usize| {
            let p = ends[c].1;
            (0..ends.len()).all(|d| ends[d].1 != p || d == c)
                && pred.iter().flatten().all(|&d| ends[d].0 != p)
        };
        let c = (0..ends.len())
            .find(|&c| pred[ends[c].1].is_none() && below(c) < 0 && only_into(c))
            .expect("a root to hang below zero");
        let p = ends[c].1;
        (kernel.scaled_offsets[p], kernel.graph.pred[p]) = (Some(below(c)), Some(c));
        let message = refusal(&mut kernel);
        assert!(
            message.starts_with(&format!("port p{p} starts below zero")),
            "{message}"
        );
    }

    #[test]
    fn predecessors_pointing_at_each_other_are_refused() {
        // Two ports joined both ways by zero delays: all-zero is the least
        // solution, and the two connections are tight either way, so only
        // the acyclicity check can refuse a predecessor cycle between them.
        let mut m = CtaModel::new();
        let (a, b) = (m.add_component("a", None), m.add_component("b", None));
        let (p, q) = (m.add_port(a, "out", None), m.add_port(b, "in", None));
        let there = m.connect(p, q, Rational::ZERO, Rational::ZERO, Rational::ONE);
        let back = m.connect(q, p, Rational::ZERO, Rational::ZERO, Rational::ONE);
        let rates = m.maximal_rates_unbounded_buffers().unwrap();
        let mut kernel = Kernel::default();
        kernel.load(&m, &rates, false);
        assert_eq!(kernel.probe(None), None);
        assert!(kernel.den.is_some());
        kernel.confirm();
        (kernel.graph.pred[p.index()], kernel.graph.pred[q.index()]) =
            (Some(back.index()), Some(there.index()));
        let message = refusal(&mut kernel);
        assert_eq!(message, "port p0 lies on a predecessor cycle");
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
