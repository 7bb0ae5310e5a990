//! Synchronous Dataflow (SDF) graphs.
//!
//! SDF (Lee & Messerschmitt) is the model underlying StreamIt and the
//! intermediate abstraction the OIL compiler uses between tasks and CTA
//! components (paper Section V-B1): every task becomes an actor — with the
//! same [`ActorId`] — and every buffer a pair of oppositely directed edges
//! carrying data and free space.
//!
//! Provided analyses:
//!
//! * repetition vector / rate consistency (balance equations, exact rational
//!   arithmetic),
//! * deadlock detection by symbolic execution of one graph iteration,
//! * conversion helpers used by [`crate::hsdf`] and [`crate::statespace`].

use crate::define_index_type;
use crate::index::{ActorId, Idx, IndexVec};
use crate::rational::Rational;
use std::collections::BTreeMap;
use std::fmt;

define_index_type! {
    /// An edge of an [`SdfGraph`].
    pub struct EdgeId = "e";
}

/// An SDF actor.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfActor {
    /// Human-readable name (task or function name).
    pub name: String,
    /// Firing duration (response time of the corresponding task) in seconds.
    pub firing_duration: Rational,
}

/// An SDF edge: a FIFO with fixed production/consumption rates.
#[derive(Debug, Clone, PartialEq)]
pub struct SdfEdge {
    /// Producing actor.
    pub src: ActorId,
    /// Consuming actor.
    pub dst: ActorId,
    /// Tokens produced per firing of `src`.
    pub production: u64,
    /// Tokens consumed per firing of `dst`.
    pub consumption: u64,
    /// Tokens present before execution starts.
    pub initial_tokens: u64,
    /// Optional name (buffer name) for reporting.
    pub name: String,
}

/// A Synchronous Dataflow graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SdfGraph {
    /// The actors.
    pub actors: IndexVec<ActorId, SdfActor>,
    /// The edges.
    pub edges: IndexVec<EdgeId, SdfEdge>,
}

/// Why an SDF graph cannot execute indefinitely in bounded memory.
#[derive(Debug, Clone, PartialEq)]
pub enum SdfError {
    /// The balance equations only admit the all-zero solution.
    Inconsistent {
        /// An edge witnessing the inconsistency.
        edge: EdgeId,
    },
    /// The graph is consistent but deadlocks: no actor can fire although the
    /// iteration is incomplete.
    Deadlock {
        /// Remaining firings per actor when execution stalled.
        remaining: IndexVec<ActorId, u64>,
    },
    /// The graph has no actors.
    Empty,
    /// An analysis exceeded its size/overflow budget (e.g. adversarial rate
    /// ratios blow up the repetition vector, the HSDF expansion or the
    /// explored state space). The analysis is *skipped*, not wrong: callers
    /// such as the differential harness log and move on instead of aborting.
    BudgetExceeded {
        /// Which analysis/quantity exceeded the budget.
        what: String,
    },
}

impl fmt::Display for SdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdfError::Inconsistent { edge } => {
                write!(
                    f,
                    "SDF graph is rate-inconsistent (witnessed by edge {edge})"
                )
            }
            SdfError::Deadlock { .. } => write!(f, "SDF graph deadlocks within one iteration"),
            SdfError::Empty => write!(f, "SDF graph has no actors"),
            SdfError::BudgetExceeded { what } => {
                write!(f, "exact analysis exceeded its budget: {what}")
            }
        }
    }
}

impl std::error::Error for SdfError {}

impl SdfGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an actor, returning its id.
    pub fn add_actor(&mut self, name: impl Into<String>, firing_duration: Rational) -> ActorId {
        self.actors.push(SdfActor {
            name: name.into(),
            firing_duration,
        })
    }

    /// Add an edge, returning its id.
    pub fn add_edge(
        &mut self,
        src: ActorId,
        dst: ActorId,
        production: u64,
        consumption: u64,
        initial_tokens: u64,
    ) -> EdgeId {
        let name = format!("e{}_{}", src.index(), dst.index());
        self.add_named_edge(name, src, dst, production, consumption, initial_tokens)
    }

    /// Add an edge with an explicit name, returning its id.
    pub fn add_named_edge(
        &mut self,
        name: impl Into<String>,
        src: ActorId,
        dst: ActorId,
        production: u64,
        consumption: u64,
        initial_tokens: u64,
    ) -> EdgeId {
        assert!(
            src.index() < self.actors.len() && dst.index() < self.actors.len(),
            "edge endpoints must exist"
        );
        assert!(
            production > 0 && consumption > 0,
            "SDF rates must be positive"
        );
        self.edges.push(SdfEdge {
            src,
            dst,
            production,
            consumption,
            initial_tokens,
            name: name.into(),
        })
    }

    /// Number of actors.
    pub fn actor_count(&self) -> usize {
        self.actors.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Compute the repetition vector: the smallest positive integer vector
    /// `q` such that for every edge `production * q[src] == consumption *
    /// q[dst]`. Returns [`SdfError::Inconsistent`] if only the zero vector
    /// satisfies the balance equations.
    pub fn repetition_vector(&self) -> Result<IndexVec<ActorId, u64>, SdfError> {
        if self.actors.is_empty() {
            return Err(SdfError::Empty);
        }
        // Rational firing ratios per connected component, propagated by BFS.
        let mut ratio: IndexVec<ActorId, Option<Rational>> =
            IndexVec::from_elem(None, self.actors.len());
        let mut adj: IndexVec<ActorId, Vec<(ActorId, Rational, EdgeId)>> =
            IndexVec::from_elem(Vec::new(), self.actors.len());
        for (eid, e) in self.edges.iter_enumerated() {
            // q[dst] = q[src] * production / consumption
            let f = Rational::new(e.production as i128, e.consumption as i128);
            adj[e.src].push((e.dst, f, eid));
            adj[e.dst].push((e.src, f.recip(), eid));
        }

        let mut q: IndexVec<ActorId, u64> = IndexVec::from_elem(0, self.actors.len());
        for start in self.actors.indices() {
            if ratio[start].is_some() {
                continue;
            }
            // Breadth-first propagation of firing ratios within this
            // connected component.
            ratio[start] = Some(Rational::ONE);
            let mut component = vec![start];
            let mut queue = vec![start];
            while let Some(v) = queue.pop() {
                let rv = ratio[v].unwrap();
                for &(w, f, eid) in &adj[v] {
                    let expected = rv.checked_mul(f).ok_or_else(|| SdfError::BudgetExceeded {
                        what: "firing-ratio propagation overflowed i128 \
                                       (adversarial rate ratios)"
                            .into(),
                    })?;
                    match ratio[w] {
                        None => {
                            ratio[w] = Some(expected);
                            component.push(w);
                            queue.push(w);
                        }
                        Some(existing) => {
                            if existing != expected {
                                return Err(SdfError::Inconsistent { edge: eid });
                            }
                        }
                    }
                }
            }

            // Scale this component's ratios to its smallest integer vector,
            // with every step checked: adversarial rate ratios (long chains of
            // multiplicative factors) can push the entries past `u64`, which
            // must surface as a budget error, not silent truncation.
            let budget = |what: &str| SdfError::BudgetExceeded { what: what.into() };
            let mut denom_lcm: u128 = 1;
            for &v in &component {
                let den = ratio[v].unwrap().denom() as u128;
                let g = crate::rational::gcd(denom_lcm, den).max(1);
                denom_lcm = (denom_lcm / g)
                    .checked_mul(den)
                    .ok_or_else(|| budget("repetition-vector denominator LCM overflowed u128"))?;
            }
            let mut g: u128 = 0;
            let mut scaled_entries: Vec<(ActorId, u128)> = Vec::with_capacity(component.len());
            for &v in &component {
                let r = ratio[v].unwrap();
                let scaled = (r.numer() as u128)
                    .checked_mul(denom_lcm / r.denom() as u128)
                    .ok_or_else(|| budget("repetition-vector entry overflowed u128"))?;
                scaled_entries.push((v, scaled));
                g = crate::rational::gcd(g, scaled);
            }
            let g = g.max(1);
            for (v, scaled) in scaled_entries {
                q[v] = u64::try_from(scaled / g)
                    .map_err(|_| budget("repetition-vector entry exceeds u64"))?;
            }
        }
        Ok(q)
    }

    /// True if the balance equations admit a non-trivial solution.
    pub fn is_consistent(&self) -> bool {
        self.repetition_vector().is_ok()
    }

    /// Default firing budget for [`Self::check_deadlock_free`]: one symbolic
    /// iteration of any reasonable graph fits comfortably; adversarial rate
    /// ratios (repetition vectors in the millions) exceed it and are reported
    /// as [`SdfError::BudgetExceeded`] instead of hanging the caller.
    pub const DEFAULT_FIRING_BUDGET: u64 = 10_000_000;

    /// Check for deadlock freedom by symbolically executing one iteration
    /// (every actor `a` fires `q[a]` times) in data-driven order. Returns the
    /// repetition vector on success.
    pub fn check_deadlock_free(&self) -> Result<IndexVec<ActorId, u64>, SdfError> {
        self.check_deadlock_free_budgeted(Self::DEFAULT_FIRING_BUDGET)
    }

    /// As [`Self::check_deadlock_free`], but refusing to execute more than
    /// `max_firings` symbolic firings: graphs whose iteration length exceeds
    /// the budget yield [`SdfError::BudgetExceeded`] instead of running (or
    /// overflowing token counters) for an unbounded amount of time.
    pub fn check_deadlock_free_budgeted(
        &self,
        max_firings: u64,
    ) -> Result<IndexVec<ActorId, u64>, SdfError> {
        let q = self.repetition_vector()?;
        let mut remaining = q.clone();
        let mut tokens: IndexVec<EdgeId, u64> =
            self.edges.iter().map(|e| e.initial_tokens).collect();
        let mut incoming: IndexVec<ActorId, Vec<EdgeId>> =
            IndexVec::from_elem(Vec::new(), self.actors.len());
        let mut outgoing: IndexVec<ActorId, Vec<EdgeId>> =
            IndexVec::from_elem(Vec::new(), self.actors.len());
        for (eid, e) in self.edges.iter_enumerated() {
            incoming[e.dst].push(eid);
            outgoing[e.src].push(eid);
        }

        let total: u64 = q
            .iter()
            .try_fold(0u64, |acc, &n| acc.checked_add(n))
            .filter(|&t| t <= max_firings)
            .ok_or_else(|| SdfError::BudgetExceeded {
                what: format!("iteration length exceeds the firing budget {max_firings}"),
            })?;
        let mut fired: u64 = 0;
        loop {
            let mut progressed = false;
            for a in self.actors.indices() {
                while remaining[a] > 0
                    && incoming[a]
                        .iter()
                        .all(|&e| tokens[e] >= self.edges[e].consumption)
                {
                    for &e in &incoming[a] {
                        tokens[e] -= self.edges[e].consumption;
                    }
                    for &e in &outgoing[a] {
                        tokens[e] =
                            tokens[e]
                                .checked_add(self.edges[e].production)
                                .ok_or_else(|| SdfError::BudgetExceeded {
                                    what: "token count overflowed u64 during symbolic execution"
                                        .into(),
                                })?;
                    }
                    remaining[a] -= 1;
                    fired += 1;
                    progressed = true;
                }
            }
            if fired == total {
                return Ok(q);
            }
            if !progressed {
                return Err(SdfError::Deadlock { remaining });
            }
        }
    }

    /// Find an actor id by name.
    pub fn actor_by_name(&self, name: &str) -> Option<ActorId> {
        self.actors.position(|a| a.name == name)
    }

    /// Group edges by (src, dst) pair; useful for reporting.
    pub fn edges_between(&self, src: ActorId, dst: ActorId) -> Vec<EdgeId> {
        self.edges
            .iter_enumerated()
            .filter(|(_, e)| e.src == src && e.dst == dst)
            .map(|(i, _)| i)
            .collect()
    }

    /// Build the "Fig. 2a" style cyclic two-actor rate converter used
    /// throughout the paper and this crate's tests: actor `f` produces
    /// `p_f`/consumes `c_f` tokens, actor `g` produces `p_g`/consumes `c_g`
    /// tokens, with `delta` initial tokens on the edge feeding `f`.
    pub fn rate_converter(
        p_f: u64,
        c_f: u64,
        p_g: u64,
        c_g: u64,
        delta: u64,
        firing_duration: Rational,
    ) -> SdfGraph {
        let mut g = SdfGraph::new();
        let f = g.add_actor("f", firing_duration);
        let gg = g.add_actor("g", firing_duration);
        g.add_named_edge("bx", f, gg, p_f, c_g, 0);
        g.add_named_edge("by", gg, f, p_g, c_f, delta);
        g
    }

    /// Summary of the graph as a map from actor name to repetition count.
    pub fn repetition_map(&self) -> Result<BTreeMap<String, u64>, SdfError> {
        let q = self.repetition_vector()?;
        Ok(self
            .actors
            .iter()
            .zip(q)
            .map(|(a, n)| (a.name.clone(), n))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One microsecond.
    fn us() -> Rational {
        Rational::new(1, 1_000_000)
    }

    /// The task graph of the paper's Figure 2a: f reads 3 / writes 3, g reads
    /// 2 / writes 2, four initial tokens on by.
    fn fig2a() -> SdfGraph {
        SdfGraph::rate_converter(3, 3, 2, 2, 4, us())
    }

    #[test]
    fn fig2a_repetition_vector() {
        let g = fig2a();
        let q = g.repetition_vector().unwrap();
        // g must execute 3/2 as often as f -> smallest integer vector (2, 3).
        assert_eq!(q.as_slice(), &[2, 3]);
    }

    #[test]
    fn fig2a_is_deadlock_free_with_four_initial_tokens() {
        let g = fig2a();
        assert!(g.check_deadlock_free().is_ok());
    }

    #[test]
    fn fig2a_deadlocks_without_enough_initial_tokens() {
        let g = SdfGraph::rate_converter(3, 3, 2, 2, 2, us());
        match g.check_deadlock_free() {
            Err(SdfError::Deadlock { remaining }) => {
                assert!(remaining.iter().sum::<u64>() > 0);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn inconsistent_graph_detected() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Rational::ONE);
        let b = g.add_actor("b", Rational::ONE);
        g.add_edge(a, b, 2, 3, 0);
        g.add_edge(b, a, 1, 1, 10);
        assert!(!g.is_consistent());
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::Inconsistent { .. })
        ));
    }

    #[test]
    fn empty_graph_is_error() {
        assert!(matches!(
            SdfGraph::new().repetition_vector(),
            Err(SdfError::Empty)
        ));
    }

    #[test]
    fn chain_repetition_vector() {
        // a -2-> -1- b -3-> -1- c : q = (1, 2, 6)
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Rational::ONE);
        let b = g.add_actor("b", Rational::ONE);
        let c = g.add_actor("c", Rational::ONE);
        g.add_edge(a, b, 2, 1, 0);
        g.add_edge(b, c, 3, 1, 0);
        assert_eq!(g.repetition_vector().unwrap().as_slice(), &[1, 2, 6]);
        assert!(g.check_deadlock_free().is_ok());
    }

    #[test]
    fn disconnected_components_each_get_smallest_vector() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Rational::ONE);
        let b = g.add_actor("b", Rational::ONE);
        let c = g.add_actor("c", Rational::ONE);
        let d = g.add_actor("d", Rational::ONE);
        g.add_edge(a, b, 1, 2, 0);
        g.add_edge(c, d, 5, 1, 0);
        let q = g.repetition_vector().unwrap();
        assert_eq!(q.as_slice(), &[2, 1, 1, 5]);
    }

    #[test]
    fn pal_conversion_chain_rates() {
        // RF (6.4 MS/s) -> SRC_A (25:1) -> Audio (8:1) -> speakers.
        let mut g = SdfGraph::new();
        let rf = g.add_actor("rf", Rational::ZERO);
        let src_a = g.add_actor("src_a", us());
        let audio = g.add_actor("audio", us());
        let spk = g.add_actor("speakers", Rational::ZERO);
        g.add_edge(rf, src_a, 1, 25, 0);
        g.add_edge(src_a, audio, 1, 8, 0);
        g.add_edge(audio, spk, 1, 1, 0);
        let q = g.repetition_map().unwrap();
        assert_eq!(q["rf"], 200);
        assert_eq!(q["src_a"], 8);
        assert_eq!(q["audio"], 1);
        assert_eq!(q["speakers"], 1);
    }

    #[test]
    fn edges_between_and_lookup() {
        let g = fig2a();
        let f = g.actor_by_name("f").unwrap();
        let gg = g.actor_by_name("g").unwrap();
        assert_eq!(g.edges_between(f, gg).len(), 1);
        assert_eq!(g.edges_between(gg, f).len(), 1);
        assert!(g.actor_by_name("zzz").is_none());
        assert_eq!(g.actor_count(), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "rates must be positive")]
    fn zero_rate_edge_panics() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", Rational::ONE);
        let b = g.add_actor("b", Rational::ONE);
        g.add_edge(a, b, 0, 1, 0);
    }

    #[test]
    fn adversarial_rate_chain_reports_budget_not_truncation() {
        // A chain multiplying the firing ratio by 100 per hop: after ~10 hops
        // the repetition-vector entries exceed u64 and after ~19 they exceed
        // i128 inside the ratio propagation. Both must surface as
        // BudgetExceeded, never as a silently truncated vector.
        let mut g = SdfGraph::new();
        let mut prev = g.add_actor("a0", us());
        for i in 0..25 {
            let next = g.add_actor(format!("a{}", i + 1), us());
            g.add_edge(prev, next, 100, 1, 0);
            prev = next;
        }
        assert!(matches!(
            g.repetition_vector(),
            Err(SdfError::BudgetExceeded { .. })
        ));
        // The graph is *rate-consistent* in the mathematical sense, but the
        // budget guard refuses it — is_consistent reflects analysability.
        assert!(!g.is_consistent());
    }

    #[test]
    fn deadlock_check_respects_firing_budget() {
        // q = (1, 10_000): the symbolic iteration needs 10_001 firings.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", us());
        let b = g.add_actor("b", us());
        g.add_edge(a, b, 10_000, 1, 0);
        assert!(g.check_deadlock_free().is_ok());
        assert!(matches!(
            g.check_deadlock_free_budgeted(100),
            Err(SdfError::BudgetExceeded { .. })
        ));
    }

    /// The repetition vector satisfies the balance equations, for every
    /// rate triple in 1…7.
    #[test]
    fn prop_repetition_vector_balances() {
        let mut cases = 0;
        for (p1, c1, p2) in
            (1..8u64).flat_map(|p1| (1..8).flat_map(move |c1| (1..8).map(move |p2| (p1, c1, p2))))
        {
            // Only graphs whose cycle ratio is 1 are consistent; build a
            // 2-cycle whose product of rate ratios is forced to 1 by reusing
            // the rates crosswise.
            let mut g = SdfGraph::new();
            let a = g.add_actor("a", Rational::ONE);
            let b = g.add_actor("b", Rational::ONE);
            g.add_edge(a, b, p1, c1, 0);
            g.add_edge(b, a, c1 * p2, p1 * p2, 100);
            let q = g.repetition_vector().unwrap();
            for e in &g.edges {
                assert_eq!(
                    e.production * q[e.src],
                    e.consumption * q[e.dst],
                    "{p1}, {c1}, {p2}"
                );
            }
            // Smallest vector: gcd of entries is 1.
            let g0 = crate::rational::gcd(q[a] as u128, q[b] as u128);
            assert_eq!(g0, 1, "{p1}, {c1}, {p2}");
            cases += 1;
        }
        assert_eq!(cases, 343);
    }

    /// Acyclic graphs never deadlock: every chain of 1…3 hops at rates
    /// 1…5, and the 4- and 5-hop chains whose every hop is 1:5 or 5:1 (the
    /// longest chains and steepest rate products of the range once
    /// sampled).
    #[test]
    fn prop_acyclic_graphs_deadlock_free() {
        let all: Vec<(u64, u64)> = (1..=5).flat_map(|p| (1..=5).map(move |c| (p, c))).collect();
        let steep = [(1, 5), (5, 1)];
        // Every sequence of `hops` rate pairs drawn from `rates`.
        let chains = |rates: &[(u64, u64)], hops: u32| -> Vec<Vec<(u64, u64)>> {
            (0..rates.len().pow(hops))
                .map(|mut i| {
                    (0..hops)
                        .map(|_| {
                            let r = rates[i % rates.len()];
                            i /= rates.len();
                            r
                        })
                        .collect()
                })
                .collect()
        };
        let mut cases = 0;
        for rates in (1..=3)
            .flat_map(|hops| chains(&all, hops))
            .chain((4..=5).flat_map(|hops| chains(&steep, hops)))
        {
            let mut g = SdfGraph::new();
            let mut prev = g.add_actor("a0", Rational::ONE);
            for (i, (p, c)) in rates.iter().enumerate() {
                let next = g.add_actor(format!("a{}", i + 1), Rational::ONE);
                g.add_edge(prev, next, *p, *c, 0);
                prev = next;
            }
            assert!(g.check_deadlock_free().is_ok(), "{rates:?}");
            cases += 1;
        }
        assert_eq!(cases, 25 + 25 * 25 + 25 * 25 * 25 + 16 + 32);
    }
}
