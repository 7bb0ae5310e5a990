//! Homogeneous SDF (HSDF) expansion and Maximum Cycle Mean throughput.
//!
//! Exact throughput analysis of an SDF graph classically proceeds by
//! expanding it to its homogeneous equivalent (one node per firing of each
//! actor within an iteration) and computing the Maximum Cycle Mean of the
//! result. The expansion is **exponential in the rates** (the repetition
//! vector entries), which is exactly the cost the paper's CTA approach
//! avoids. The benchmark's `dataflow.hsdf_mcm_us` row measures this cost,
//! and `oil_bench`'s tests pin the node counts per rate ratio.

use crate::index::{ActorId, IndexVec};
use crate::mcr::{CycleRatio, RatioGraph};
use crate::rational::Rational;
use crate::sdf::{SdfError, SdfGraph};

/// The exact maximum cycle ratio of an HSDF graph (see
/// [`HsdfGraph::maximum_cycle_ratio_exact`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExactCycleRatio {
    /// The graph has no cycle: throughput is unconstrained by dependencies.
    Acyclic,
    /// Some cycle has positive total duration but zero tokens: no schedule
    /// exists (the graph deadlocks).
    Infeasible,
    /// The exact maximum over all cycles of `Σ duration / Σ tokens`, i.e. the
    /// minimum achievable iteration period in seconds.
    Ratio(Rational),
}

/// A node of the homogeneous expansion: firing `k` of actor `actor`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Firing {
    /// The actor in the original SDF graph.
    pub actor: ActorId,
    /// Firing index within one iteration, `0 .. q[actor]`.
    pub index: u64,
}

/// An edge of the homogeneous expansion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HsdfEdge {
    /// Producing firing (node index).
    pub src: usize,
    /// Consuming firing (node index).
    pub dst: usize,
    /// Number of iteration boundaries crossed (initial tokens of the
    /// homogeneous edge).
    pub tokens: u64,
}

/// The homogeneous (single-rate) expansion of an SDF graph.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HsdfGraph {
    /// One node per firing.
    pub firings: Vec<Firing>,
    /// Firing duration per node (copied from the original actor).
    pub durations: Vec<f64>,
    /// Precedence edges.
    pub edges: Vec<HsdfEdge>,
}

impl HsdfGraph {
    /// Default node budget for [`Self::expand`]. The expansion is exponential
    /// in the rates, so adversarial rate ratios must be refused, not OOMed on.
    pub const DEFAULT_NODE_BUDGET: u64 = 1_000_000;

    /// Expand `graph` into its homogeneous equivalent.
    ///
    /// For every SDF edge and every consuming firing, a dependency edge is
    /// added from the producing firing that supplies the last token that
    /// firing needs, following the standard token-counting construction.
    pub fn expand(graph: &SdfGraph) -> Result<Self, SdfError> {
        Self::expand_with_budget(graph, Self::DEFAULT_NODE_BUDGET)
    }

    /// As [`Self::expand`], refusing graphs whose expansion would exceed
    /// `max_nodes` firing nodes with [`SdfError::BudgetExceeded`]. The node
    /// count is computed from the repetition vector *before* any allocation,
    /// so an over-budget graph costs O(|actors|), not O(expansion).
    pub fn expand_with_budget(graph: &SdfGraph, max_nodes: u64) -> Result<Self, SdfError> {
        let q = graph.repetition_vector()?;
        let nodes: Option<u64> = q.iter().try_fold(0u64, |acc, &n| acc.checked_add(n));
        match nodes {
            Some(n) if n <= max_nodes => {}
            _ => {
                return Err(SdfError::BudgetExceeded {
                    what: format!("HSDF expansion would exceed the node budget {max_nodes}"),
                })
            }
        }
        let mut firings = Vec::new();
        let mut durations = Vec::new();
        let mut first_node: IndexVec<ActorId, usize> = IndexVec::from_elem(0, graph.actors.len());
        for (a, actor) in graph.actors.iter_enumerated() {
            first_node[a] = firings.len();
            for k in 0..q[a] {
                firings.push(Firing { actor: a, index: k });
                durations.push(actor.firing_duration);
            }
        }

        let mut edges = Vec::new();
        for e in &graph.edges {
            let p = e.production;
            let c = e.consumption;
            let d = e.initial_tokens;
            // Consuming firing j (0-based) of dst needs tokens
            // (j*c+1 ..= (j+1)*c). The token numbered t (1-based, counting
            // initial tokens first) is produced by firing ceil((t-d)/p) of
            // src (1-based) when t > d, possibly in an earlier iteration.
            // In steady state, consumer firing j (0-based) of dst in
            // iteration n needs the first n*q[dst]*c + (j+1)*c tokens on the
            // edge, of which d are initial. The last of those is produced by
            // global producer firing ceil((need)/p) (1-based, possibly in an
            // earlier iteration, possibly non-positive when the initial
            // tokens cover it for iteration 0 — the dependency then points
            // `iterations_back` iterations into the past, which becomes the
            // token count of the homogeneous edge). Dependencies on earlier
            // producer firings follow transitively from the producer's own
            // firing order, so one edge per consumer firing suffices.
            for j in 0..q[e.dst] {
                let need = ((j + 1) * c) as i128 - d as i128;
                // 1-based producer firing index relative to the consumer's
                // iteration; may be zero or negative.
                let prod_firing_1 = -((-need).div_euclid(p as i128));
                let k0 = prod_firing_1 - 1; // 0-based, may be negative
                let qsrc = q[e.src] as i128;
                let within = k0.rem_euclid(qsrc);
                let iterations_back = (within - k0) / qsrc;
                let src_node = first_node[e.src] + within as usize;
                let dst_node = first_node[e.dst] + j as usize;
                edges.push(HsdfEdge {
                    src: src_node,
                    dst: dst_node,
                    tokens: iterations_back as u64,
                });
            }
        }

        Ok(HsdfGraph {
            firings,
            durations,
            edges,
        })
    }

    /// Number of firings (nodes).
    pub fn node_count(&self) -> usize {
        self.firings.len()
    }

    /// Number of precedence edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Maximum cycle mean of the expansion: the minimum achievable iteration
    /// period of the original SDF graph under self-timed execution with
    /// unbounded buffers. Returns `None` for acyclic graphs (throughput is
    /// then bounded only by the source).
    pub fn maximum_cycle_mean(&self) -> Option<f64> {
        let mut g = RatioGraph::new(self.node_count());
        for e in &self.edges {
            // Cost: the firing duration of the source firing (time from the
            // start of src to the start of dst); transit: tokens.
            g.add_edge(e.src, e.dst, self.durations[e.src], e.tokens as f64);
        }
        match g.maximum_cycle_mean(1e-12) {
            CycleRatio::Ratio(r) => Some(r),
            CycleRatio::Acyclic => None,
            CycleRatio::Infeasible => Some(f64::INFINITY),
        }
    }

    /// Exact throughput in iterations per second implied by the MCM, or
    /// `None` if the graph is acyclic (unbounded by dependencies).
    pub fn throughput(&self) -> Option<f64> {
        self.maximum_cycle_mean()
            .map(|mcm| if mcm <= 0.0 { f64::INFINITY } else { 1.0 / mcm })
    }

    /// The **exact** maximum cycle ratio `max_cycles Σ duration / Σ tokens`
    /// in rational arithmetic — the baseline the differential harness compares
    /// bit-for-bit against CTA's exact maximal rates (the float
    /// [`Self::maximum_cycle_mean`] carries a tolerance; this does not).
    ///
    /// Works by parametric search: starting from `λ = 0`, run a longest-path
    /// Bellman-Ford with edge weights `duration(src) − λ·tokens`; every
    /// witness positive cycle raises `λ` to that cycle's exact ratio, and the
    /// loop ends when no positive cycle remains. Each round permanently
    /// retires its witness cycle, so the number of rounds is bounded by the
    /// number of simple cycles (`max_rounds` guards pathological graphs).
    ///
    /// Returns `None` when a firing duration has no lossless rational
    /// representation or the round budget is exhausted.
    pub fn maximum_cycle_ratio_exact(&self) -> Option<ExactCycleRatio> {
        let durations: Vec<Rational> = self
            .durations
            .iter()
            .map(|&d| Rational::from_f64_lossless(d))
            .collect::<Option<_>>()?;
        self.maximum_cycle_ratio_exact_with(&durations)
    }

    /// As [`Self::maximum_cycle_ratio_exact`], with the per-node durations
    /// supplied as exact rationals. Generators that know the *intended*
    /// rational duration (e.g. an integer number of microseconds, whose `f64`
    /// image is only approximate) use this to keep the whole comparison chain
    /// in one arithmetic.
    ///
    /// # Panics
    /// Panics if `durations.len()` differs from the node count.
    pub fn maximum_cycle_ratio_exact_with(
        &self,
        durations: &[Rational],
    ) -> Option<ExactCycleRatio> {
        let n = self.node_count();
        assert_eq!(durations.len(), n, "one duration per firing node");
        if self.edges.is_empty() || n == 0 {
            return Some(ExactCycleRatio::Acyclic);
        }

        let mut lambda = Rational::ZERO;
        let mut found_cycle = false;
        let max_rounds = self.edges.len() * self.edges.len() + 8;
        for _ in 0..=max_rounds {
            // Longest-path relaxation from an implicit source at every node.
            // λ is constant for the round, so each edge's rational weight is
            // computed once (the relaxation passes over edges n times).
            let mut dist: Vec<Rational> = vec![Rational::ZERO; n];
            let mut pred: Vec<Option<usize>> = vec![None; n];
            let weights: Vec<Rational> = self
                .edges
                .iter()
                .map(|e| durations[e.src] - lambda * Rational::from_int(e.tokens as i128))
                .collect();
            let mut updated: Option<usize> = None;
            for _ in 0..n {
                updated = None;
                for (ei, e) in self.edges.iter().enumerate() {
                    let nd = dist[e.src] + weights[ei];
                    if nd > dist[e.dst] {
                        dist[e.dst] = nd;
                        pred[e.dst] = Some(ei);
                        updated = Some(e.dst);
                    }
                }
                if updated.is_none() {
                    break;
                }
            }
            let Some(start) = updated else {
                // No positive cycle at this lambda: done. `lambda` is the
                // exact MCM if any witness cycle was seen; otherwise every
                // cycle has ratio <= 0, i.e. zero-duration cycles only (all
                // durations are non-negative) — or no cycle at all.
                return Some(if found_cycle {
                    ExactCycleRatio::Ratio(lambda)
                } else if self.has_cycle() {
                    ExactCycleRatio::Ratio(Rational::ZERO)
                } else {
                    ExactCycleRatio::Acyclic
                });
            };
            // Walk predecessors n steps to land inside the cycle, extract it.
            let mut v = start;
            for _ in 0..n {
                v = self.edges[pred[v].expect("relaxed nodes have predecessors")].src;
            }
            let (mut cost, mut tokens) = (Rational::ZERO, 0u64);
            let mut cur = v;
            loop {
                let e = &self.edges[pred[cur].expect("cycle nodes have predecessors")];
                cost += durations[e.src];
                tokens += e.tokens;
                cur = e.src;
                if cur == v {
                    break;
                }
            }
            if tokens == 0 {
                return Some(ExactCycleRatio::Infeasible);
            }
            let ratio = cost / Rational::from_int(tokens as i128);
            if ratio <= lambda {
                // Predecessor extraction landed on an already-retired cycle
                // (possible when relaxations interleave); give up gracefully
                // rather than loop — callers treat `None` as budget-exceeded.
                return None;
            }
            lambda = ratio;
            found_cycle = true;
        }
        None
    }

    /// True if the expansion contains any cycle (ignoring token counts).
    fn has_cycle(&self) -> bool {
        // Kahn's algorithm: a topological order exists iff the graph is
        // acyclic.
        let n = self.node_count();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            indegree[e.dst] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = queue.pop() {
            seen += 1;
            for e in &self.edges {
                if e.src == v {
                    indegree[e.dst] -= 1;
                    if indegree[e.dst] == 0 {
                        queue.push(e.dst);
                    }
                }
            }
        }
        seen < n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Idx;

    #[test]
    fn homogeneous_graph_expands_to_itself() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 2.0);
        g.add_edge(a, b, 1, 1, 0);
        g.add_edge(b, a, 1, 1, 1);
        let h = HsdfGraph::expand(&g).unwrap();
        assert_eq!(h.node_count(), 2);
        assert_eq!(h.edge_count(), 2);
        // Cycle: duration 1 + 2 over 1 token -> MCM 3.
        let mcm = h.maximum_cycle_mean().unwrap();
        assert!((mcm - 3.0).abs() < 1e-9, "{mcm}");
        assert!((h.throughput().unwrap() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn fig2a_expansion_counts() {
        // q = (2, 3): 5 firings.
        let g = SdfGraph::rate_converter(3, 3, 2, 2, 4, 1.0);
        let h = HsdfGraph::expand(&g).unwrap();
        assert_eq!(h.node_count(), 5);
        assert!(h.edge_count() >= 5);
        let mcm = h.maximum_cycle_mean().unwrap();
        assert!(mcm.is_finite());
        assert!(mcm > 0.0);
    }

    #[test]
    fn expansion_size_grows_with_rates() {
        // a -n-> -1- b : q = (1, n); node count 1 + n.
        for n in [2u64, 8, 64] {
            let mut g = SdfGraph::new();
            let a = g.add_actor("a", 1.0);
            let b = g.add_actor("b", 1.0);
            g.add_edge(a, b, n, 1, 0);
            let h = HsdfGraph::expand(&g).unwrap();
            assert_eq!(h.node_count(), (1 + n) as usize);
        }
    }

    #[test]
    fn exact_cycle_ratio_matches_float_mcm() {
        // Two-actor cycle: durations 1 and 2 (exactly representable), one
        // token: MCM exactly 3.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 2.0);
        g.add_edge(a, b, 1, 1, 0);
        g.add_edge(b, a, 1, 1, 1);
        let h = HsdfGraph::expand(&g).unwrap();
        assert_eq!(
            h.maximum_cycle_ratio_exact(),
            Some(ExactCycleRatio::Ratio(Rational::from_int(3)))
        );

        // Multi-token cycle: ratio 3/2, a value the float MCM only
        // approximates but the exact one nails.
        let mut g2 = SdfGraph::new();
        let a = g2.add_actor("a", 1.0);
        let b = g2.add_actor("b", 2.0);
        g2.add_edge(a, b, 1, 1, 1);
        g2.add_edge(b, a, 1, 1, 1);
        let h2 = HsdfGraph::expand(&g2).unwrap();
        let exact = h2.maximum_cycle_ratio_exact().unwrap();
        assert_eq!(exact, ExactCycleRatio::Ratio(Rational::new(3, 2)));
        let float = h2.maximum_cycle_mean().unwrap();
        assert!((float - 1.5).abs() < 1e-9);
    }

    #[test]
    fn exact_cycle_ratio_classifies_acyclic_and_infeasible() {
        let mut acyclic = SdfGraph::new();
        let a = acyclic.add_actor("a", 1.0);
        let b = acyclic.add_actor("b", 1.0);
        acyclic.add_edge(a, b, 1, 1, 0);
        let h = HsdfGraph::expand(&acyclic).unwrap();
        assert_eq!(
            h.maximum_cycle_ratio_exact(),
            Some(ExactCycleRatio::Acyclic)
        );

        // A token-free cycle with positive duration can never execute. The
        // deadlock guard in `expand` callers normally filters these, so build
        // the HSDF graph directly.
        let infeasible = HsdfGraph {
            firings: vec![
                Firing {
                    actor: ActorId::new(0),
                    index: 0,
                },
                Firing {
                    actor: ActorId::new(1),
                    index: 0,
                },
            ],
            durations: vec![1.0, 1.0],
            edges: vec![
                HsdfEdge {
                    src: 0,
                    dst: 1,
                    tokens: 0,
                },
                HsdfEdge {
                    src: 1,
                    dst: 0,
                    tokens: 0,
                },
            ],
        };
        assert_eq!(
            infeasible.maximum_cycle_ratio_exact(),
            Some(ExactCycleRatio::Infeasible)
        );
    }

    #[test]
    fn expansion_budget_refuses_adversarial_rates() {
        // q = (1, 1_000_000): two actors, a million-node expansion.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 1.0);
        g.add_edge(a, b, 1_000_000, 1, 0);
        assert!(matches!(
            HsdfGraph::expand_with_budget(&g, 1000),
            Err(crate::sdf::SdfError::BudgetExceeded { .. })
        ));
        // The default budget still admits it (1e6 + 1 > budget? exactly at
        // the boundary: 1_000_001 nodes exceeds DEFAULT_NODE_BUDGET).
        assert!(HsdfGraph::expand(&g).is_err());
    }

    #[test]
    fn acyclic_graph_has_no_mcm() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1.0);
        let b = g.add_actor("b", 1.0);
        g.add_edge(a, b, 2, 1, 0);
        let h = HsdfGraph::expand(&g).unwrap();
        assert_eq!(h.maximum_cycle_mean(), None);
        assert_eq!(h.throughput(), None);
    }

    #[test]
    fn self_loop_actor_period() {
        // An actor with a self-loop and one token fires strictly sequentially.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 0.5);
        g.add_edge(a, a, 1, 1, 1);
        let h = HsdfGraph::expand(&g).unwrap();
        let mcm = h.maximum_cycle_mean().unwrap();
        assert!((mcm - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multi_rate_cycle_mcm_matches_hand_computation() {
        // f (dur 1) produces 2 to g (dur 1) which produces 1 back to f which
        // consumes 1; 2 initial tokens on the back edge.
        // q = (1, 2). Per iteration f fires once, g twice.
        let mut g = SdfGraph::new();
        let f = g.add_actor("f", 1.0);
        let gg = g.add_actor("g", 1.0);
        g.add_edge(f, gg, 2, 1, 0);
        g.add_edge(gg, f, 1, 2, 2);
        let h = HsdfGraph::expand(&g).unwrap();
        let mcm = h.maximum_cycle_mean().unwrap();
        // The critical cycle: f -> g(last firing) -> f with 1 iteration of
        // tokens: (1 + 1)/1 = 2... the exact value depends on token
        // placement; assert it is at least the bottleneck bound (2 time units
        // of g work per iteration) and finite.
        assert!(mcm >= 2.0 - 1e-9, "{mcm}");
        assert!(mcm.is_finite());
    }
}
