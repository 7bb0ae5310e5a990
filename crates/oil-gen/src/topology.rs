//! Random dataflow/CTA scenario generation (the "level (a)" generator).
//!
//! Three scenario classes, each a pure function of a `u64` seed, each paired
//! with the *oracle relation* the differential harness checks:
//!
//! * [`RingScenario`] — single-rate rings of tasks with initial tokens. For
//!   this class the CTA model is **exact**, so the harness demands bit-for-bit
//!   agreement: CTA's maximal achievable rate must equal the reciprocal of
//!   the self-timed state-space period *and* of the exact HSDF maximum cycle
//!   ratio, and the deadlock verdicts must coincide.
//! * [`MultiRateScenario`] — arbitrary (possibly rate-inconsistent)
//!   multi-rate topologies. Here the oracle is the **consistency verdict and
//!   the exact rate vector**: CTA rate propagation must accept exactly the
//!   graphs whose balance equations have a solution, with per-actor rates
//!   proportional to the repetition vector, exactly.
//! * [`PairScenario`] — Fig. 2a-style two-actor multi-rate cycles with a
//!   sizable buffer. The CTA abstraction is *conservative* for this class
//!   (the `ψ − ψ/π` granularity term over-approximates), so the oracle is
//!   one-sided: CTA acceptance implies deadlock freedom, the CTA-sized
//!   capacity must make the graph deadlock-free, and the CTA rate must never
//!   exceed the exact self-timed rate.

use crate::rng::GenRng;
use oil_cta::{CtaModel, Rational};
use oil_dataflow::index::{ActorId, Idx, IndexVec, PortId};
use oil_dataflow::SdfGraph;

/// A single-rate ring of `n` tasks: task `i` feeds task `i+1 mod n`, with
/// `tokens[i]` initial tokens on that edge and an explicit self-edge per task
/// (one firing in flight at a time, like the paper's task graphs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingScenario {
    /// The generating seed — quoted in every failure message.
    pub seed: u64,
    /// Firing duration of each task in integer microseconds (1..=500).
    pub durations_us: Vec<u64>,
    /// Initial tokens on the edge leaving each task (0..=3).
    pub tokens: Vec<u64>,
}

impl RingScenario {
    /// Generate the ring for `seed`. Roughly one in eight instances is a
    /// deliberate deadlock (all token counts zero).
    pub fn generate(seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let n = rng.range(2, 5) as usize;
        let durations_us: Vec<u64> = (0..n).map(|_| rng.range(1, 500)).collect();
        let tokens: Vec<u64> = if rng.chance(1, 8) {
            vec![0; n]
        } else {
            // At least one token somewhere, so most instances are live.
            let mut t: Vec<u64> = (0..n).map(|_| rng.range(0, 3)).collect();
            if t.iter().all(|&x| x == 0) {
                let i = rng.below(n as u64) as usize;
                t[i] = rng.range(1, 3);
            }
            t
        };
        RingScenario {
            seed,
            durations_us,
            tokens,
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.durations_us.len()
    }

    /// True if the ring has no tasks (never produced by [`Self::generate`]).
    pub fn is_empty(&self) -> bool {
        self.durations_us.is_empty()
    }

    /// Total initial tokens on the ring.
    pub fn total_tokens(&self) -> u64 {
        self.tokens.iter().sum()
    }

    /// The exact firing duration of task `i` in seconds.
    pub fn duration_exact(&self, i: usize) -> Rational {
        Rational::new(self.durations_us[i] as i128, 1_000_000)
    }

    /// The SDF view: ring edges plus one self-edge (1 token) per task, with
    /// the exact durations.
    pub fn sdf(&self) -> SdfGraph {
        let n = self.len();
        let mut g = SdfGraph::new();
        let actors: Vec<ActorId> = (0..n)
            .map(|i| g.add_actor(format!("t{i}"), self.duration_exact(i)))
            .collect();
        for (i, &a) in actors.iter().enumerate() {
            g.add_named_edge(format!("self{i}"), a, a, 1, 1, 1);
            let next = actors[(i + 1) % n];
            g.add_named_edge(format!("ring{i}"), a, next, 1, 1, self.tokens[i]);
        }
        g
    }

    /// The CTA view: one port per task bounded by its reciprocal duration,
    /// one connection per ring edge with `ε = ρ_i` and `φ = −tokens[i]`.
    pub fn cta(&self) -> CtaModel {
        let n = self.len();
        let mut m = CtaModel::new();
        let mut ports = Vec::with_capacity(n);
        for i in 0..n {
            let w = m.add_component(format!("t{i}"), None);
            ports.push(m.add_port(w, "p", Some(self.duration_exact(i).recip())));
        }
        for i in 0..n {
            m.connect(
                ports[i],
                ports[(i + 1) % n],
                self.duration_exact(i),
                -Rational::from_int(self.tokens[i] as i128),
                Rational::ONE,
            );
        }
        m
    }

    /// The closed-form exact self-timed period: `max(Σρ / D, max ρ)` with
    /// `D` total tokens, or `None` when the ring deadlocks (`D = 0`).
    pub fn predicted_period(&self) -> Option<Rational> {
        let d = self.total_tokens();
        if d == 0 {
            return None;
        }
        let sum: Rational = (0..self.len())
            .map(|i| self.duration_exact(i))
            .fold(Rational::ZERO, |a, b| a + b);
        let max = (0..self.len())
            .map(|i| self.duration_exact(i))
            .fold(Rational::ZERO, Rational::max);
        Some((sum / Rational::from_int(d as i128)).max(max))
    }

    /// The port of task `i` in the model returned by [`Self::cta`].
    pub fn cta_port(&self, i: usize) -> PortId {
        PortId::new(i)
    }
}

/// An arbitrary multi-rate topology: a connected random graph with rates and
/// initial tokens, either *forced consistent* (rates derived from a chosen
/// repetition vector) or free-form (usually inconsistent when it has cycles).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiRateScenario {
    /// The generating seed — quoted in every failure message.
    pub seed: u64,
    /// Number of actors.
    pub actors: usize,
    /// Edges `(src, dst, production, consumption, initial_tokens)`.
    pub edges: Vec<(usize, usize, u64, u64, u64)>,
    /// The repetition vector the rates were derived from, when the instance
    /// was forced consistent.
    pub forced_q: Option<Vec<u64>>,
}

impl MultiRateScenario {
    /// Generate the topology for `seed`. Half the instances are forced
    /// consistent; the rest draw independent rates (inconsistent whenever a
    /// cycle's rate product differs from one).
    pub fn generate(seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let n = rng.range(2, 6) as usize;
        let forced = rng.chance(1, 2);
        let q: Vec<u64> = (0..n).map(|_| rng.range(1, 4)).collect();

        let mut edges = Vec::new();
        let push_edge = |rng: &mut GenRng, u: usize, v: usize, edges: &mut Vec<_>| {
            let tokens = rng.range(0, 8);
            if forced {
                // p·q[u] = c·q[v] by construction: both sides carry
                // t = lcm(q[u], q[v]) · s tokens per iteration.
                let l = oil_dataflow::rational::lcm(q[u] as u128, q[v] as u128) as u64;
                let t = l * rng.range(1, 2);
                edges.push((u, v, t / q[u], t / q[v], tokens));
            } else {
                edges.push((u, v, rng.range(1, 6), rng.range(1, 6), tokens));
            }
        };
        // Spanning tree keeps the graph connected, extra edges add cycles.
        for v in 1..n {
            let u = rng.below(v as u64) as usize;
            if rng.chance(1, 2) {
                push_edge(&mut rng, u, v, &mut edges);
            } else {
                push_edge(&mut rng, v, u, &mut edges);
            }
        }
        for _ in 0..rng.range(0, 3) {
            let u = rng.below(n as u64) as usize;
            let v = rng.below(n as u64) as usize;
            if u != v {
                push_edge(&mut rng, u, v, &mut edges);
            }
        }
        MultiRateScenario {
            seed,
            actors: n,
            edges,
            forced_q: forced.then_some(q),
        }
    }

    /// The SDF view (unit durations; this class only exercises rates).
    pub fn sdf(&self) -> SdfGraph {
        let mut g = SdfGraph::new();
        let ids: Vec<ActorId> = (0..self.actors)
            .map(|i| g.add_actor(format!("a{i}"), Rational::new(1, 1_000_000)))
            .collect();
        for &(u, v, p, c, d) in &self.edges {
            g.add_edge(ids[u], ids[v], p, c, d);
        }
        g
    }

    /// The CTA rate-structure view: one port per actor, one rate-coupling
    /// connection per edge with `γ = p/c`, and the rate of actor 0 pinned to
    /// `anchor_hz` so the whole group is grounded. Delays are zero — this
    /// class cross-checks *rate propagation* only.
    pub fn cta(&self, anchor_hz: u64) -> CtaModel {
        let mut m = CtaModel::new();
        let mut ports = Vec::with_capacity(self.actors);
        for i in 0..self.actors {
            let w = m.add_component(format!("a{i}"), None);
            if i == 0 {
                ports.push(m.add_required_rate_port(w, "p", Rational::from_int(anchor_hz as i128)));
            } else {
                ports.push(m.add_port(w, "p", None));
            }
        }
        for &(u, v, p, c, _) in &self.edges {
            m.connect(
                ports[u],
                ports[v],
                Rational::ZERO,
                Rational::ZERO,
                Rational::new(p as i128, c as i128),
            );
        }
        m
    }

    /// Expected per-actor rate when the balance equations hold: actor `i`
    /// runs `q[i]/q[0]` times as fast as the anchored actor 0.
    pub fn expected_rates(
        q: &IndexVec<ActorId, u64>,
        anchor_hz: u64,
    ) -> impl Iterator<Item = Rational> + '_ {
        let q0 = q[ActorId::new(0)];
        q.iter().map(move |&qi| {
            Rational::from_int(anchor_hz as i128) * Rational::new(qi as i128, q0 as i128)
        })
    }
}

/// A Fig. 2a-style two-actor multi-rate cycle: `f` produces `p` tokens that
/// `g` consumes `c` at a time, with `capacity` tokens on the back edge. This
/// class cross-checks the two *exact* baselines against each other — the
/// state-space period and the exact HSDF cycle ratio must agree bit-for-bit,
/// and their deadlock verdicts must coincide. (The hand-built CTA view below
/// is the paper's *conservative* abstraction and is exercised for timing by
/// the scenario-sweep bench, not for exact agreement.)
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairScenario {
    /// The generating seed — quoted in every failure message.
    pub seed: u64,
    /// Tokens produced per firing of `f` / consumed per firing of `g`.
    pub p: u64,
    /// Tokens consumed per firing of `f` / produced per firing of `g`.
    pub c: u64,
    /// Firing duration of `f` in integer microseconds.
    pub rho_f_us: u64,
    /// Firing duration of `g` in integer microseconds.
    pub rho_g_us: u64,
    /// Initial tokens on the back edge (the buffer capacity). Spans both
    /// deadlocking (`capacity < p`) and live instances.
    pub capacity: u64,
}

impl PairScenario {
    /// Generate the pair for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let p = rng.range(1, 6);
        let c = rng.range(1, 6);
        PairScenario {
            seed,
            p,
            c,
            rho_f_us: rng.range(1, 200),
            rho_g_us: rng.range(1, 200),
            capacity: rng.range(0, 2 * (p + c)),
        }
    }

    /// Exact firing durations in seconds.
    pub fn rho_f(&self) -> Rational {
        Rational::new(self.rho_f_us as i128, 1_000_000)
    }

    /// Exact firing duration of `g` in seconds.
    pub fn rho_g(&self) -> Rational {
        Rational::new(self.rho_g_us as i128, 1_000_000)
    }

    /// The SDF view with `capacity` tokens on the back (buffer) edge and
    /// explicit self-edges.
    pub fn sdf(&self, capacity: u64) -> SdfGraph {
        let mut g = SdfGraph::new();
        let f = g.add_actor("f", self.rho_f());
        let gg = g.add_actor("g", self.rho_g());
        g.add_named_edge("self_f", f, f, 1, 1, 1);
        g.add_named_edge("self_g", gg, gg, 1, 1, 1);
        g.add_named_edge("bx", f, gg, self.p, self.c, 0);
        g.add_named_edge("by", gg, f, self.c, self.p, capacity);
        g
    }

    /// The CTA view (paper Fig. 8): data connection with the `ψ − ψ/π`
    /// granularity term, buffer back-connection of capacity `capacity`
    /// (`None` = unsized, `φ = 0`, the input to buffer sizing).
    pub fn cta(&self, capacity: Option<u64>) -> CtaModel {
        let mut m = CtaModel::new();
        let f = m.add_component("f", None);
        let g = m.add_component("g", None);
        let f_out = m.add_port(f, "out", Some(self.rho_f().recip()));
        let g_in = m.add_port(g, "in", Some(self.rho_g().recip()));
        let granularity =
            Rational::from_int(self.c as i128) - Rational::new(self.c as i128, self.p as i128);
        m.connect(
            f_out,
            g_in,
            self.rho_f(),
            granularity,
            Rational::new(self.p as i128, self.c as i128),
        );
        m.connect_buffer(
            "by",
            g_in,
            f_out,
            self.rho_g(),
            -Rational::from_int(capacity.unwrap_or(0) as i128),
            Rational::new(self.c as i128, self.p as i128),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in 0..32 {
            assert_eq!(RingScenario::generate(seed), RingScenario::generate(seed));
            assert_eq!(
                MultiRateScenario::generate(seed),
                MultiRateScenario::generate(seed)
            );
            assert_eq!(PairScenario::generate(seed), PairScenario::generate(seed));
        }
    }

    #[test]
    fn ring_views_are_structurally_consistent() {
        for seed in 0..64 {
            let ring = RingScenario::generate(seed);
            let sdf = ring.sdf();
            assert_eq!(sdf.actor_count(), ring.len());
            assert_eq!(sdf.edge_count(), 2 * ring.len());
            assert!(sdf.is_consistent(), "single-rate rings always balance");
            let cta = ring.cta();
            assert_eq!(cta.port_count(), ring.len());
            assert_eq!(cta.connection_count(), ring.len());
        }
    }

    #[test]
    fn ring_deadlock_iff_no_tokens() {
        let mut live = 0;
        let mut dead = 0;
        for seed in 0..128 {
            let ring = RingScenario::generate(seed);
            let sdf_verdict = ring.sdf().check_deadlock_free().is_ok();
            assert_eq!(
                sdf_verdict,
                ring.total_tokens() > 0,
                "seed {seed}: deadlock verdict must match token count"
            );
            if sdf_verdict {
                live += 1;
            } else {
                dead += 1;
            }
        }
        assert!(live > 0 && dead > 0, "both classes must be generated");
    }

    #[test]
    fn forced_consistent_instances_really_are() {
        let mut forced = 0;
        for seed in 0..128 {
            let s = MultiRateScenario::generate(seed);
            if let Some(q) = &s.forced_q {
                forced += 1;
                let rv = s.sdf().repetition_vector().unwrap_or_else(|e| {
                    panic!("seed {seed}: forced-consistent instance rejected: {e}")
                });
                // The derived vector is proportional to the chosen one.
                for (i, &(u, v, p, c, _)) in s.edges.iter().enumerate() {
                    assert_eq!(p * q[u], c * q[v], "seed {seed} edge {i}");
                    assert_eq!(
                        p * rv[ActorId::new(u)],
                        c * rv[ActorId::new(v)],
                        "seed {seed} edge {i}"
                    );
                }
            }
        }
        assert!(forced > 30, "about half the instances are forced");
    }

    #[test]
    fn pair_cta_capacity_none_is_unsized() {
        let pair = PairScenario::generate(3);
        let unsized_model = pair.cta(None);
        let caps: Vec<_> = unsized_model
            .buffer_connections()
            .into_iter()
            .map(|(_, cid)| unsized_model.connections[cid].capacity().unwrap())
            .collect();
        assert_eq!(caps, vec![Rational::ZERO]);
    }
}
