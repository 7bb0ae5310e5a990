//! Maximum cycle ratio and maximum cycle mean analysis.
//!
//! Both the HSDF throughput analysis and the CTA consistency algorithm reduce
//! to questions about cycles in a weighted directed graph:
//!
//! * the **maximum cycle mean** (MCM) of an HSDF graph — the largest
//!   `total delay / total tokens` over all cycles — is the inverse of the
//!   graph's maximum throughput;
//! * the **maximum cycle ratio** (MCR) generalises this to per-edge pairs of
//!   cost and "transit" weights and is what the CTA model's rate feasibility
//!   computation needs.
//!
//! The implementation uses Lawler's parametric binary search: a ratio `λ` is
//! feasible iff the graph re-weighted with `cost - λ·transit` has no positive
//! cycle, which Bellman-Ford detects in `O(V·E)`. The binary search adds a
//! logarithmic factor, keeping the whole analysis polynomial — the complexity
//! claim of the paper for CTA-style analyses.

/// An edge of a cost/transit weighted graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioEdge {
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Cost accumulated along the edge (e.g. delay in seconds).
    pub cost: f64,
    /// Transit weight (e.g. number of initial tokens); must be non-negative.
    pub transit: f64,
}

/// A weighted graph for cycle-ratio analysis.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RatioGraph {
    /// Number of nodes.
    pub nodes: usize,
    /// Edges.
    pub edges: Vec<RatioEdge>,
}

/// Result of a cycle-ratio analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CycleRatio {
    /// The graph has no cycles: every ratio is feasible.
    Acyclic,
    /// The maximum ratio over all cycles.
    Ratio(f64),
    /// Some cycle has positive cost but zero transit: no finite ratio is
    /// feasible (the constraints cannot be met at any rate).
    Infeasible,
}

impl RatioGraph {
    /// Create a graph with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        RatioGraph {
            nodes,
            edges: Vec::new(),
        }
    }

    /// Add an edge.
    pub fn add_edge(&mut self, src: usize, dst: usize, cost: f64, transit: f64) {
        assert!(
            src < self.nodes && dst < self.nodes,
            "edge endpoints must exist"
        );
        assert!(transit >= 0.0, "transit weights must be non-negative");
        self.edges.push(RatioEdge {
            src,
            dst,
            cost,
            transit,
        });
    }

    /// Does the graph, re-weighted with `cost - lambda * transit`, contain a
    /// cycle of strictly positive weight? Uses Bellman-Ford from a virtual
    /// super-source (longest-path formulation).
    pub fn has_positive_cycle(&self, lambda: f64) -> bool {
        self.positive_cycle_witness(lambda).is_some()
    }

    /// As [`Self::has_positive_cycle`], but returns the nodes of one positive
    /// cycle (in arbitrary rotation) when one exists.
    pub fn positive_cycle_witness(&self, lambda: f64) -> Option<Vec<usize>> {
        const EPS: f64 = 1e-12;
        let n = self.nodes;
        if n == 0 {
            return None;
        }
        // Longest-path Bellman-Ford: dist initialised to 0 everywhere is
        // equivalent to a super-source with zero-weight edges to all nodes.
        let mut dist = vec![0.0f64; n];
        let mut pred: Vec<Option<usize>> = vec![None; n];
        let mut updated_node = None;
        for _ in 0..n {
            updated_node = None;
            for e in &self.edges {
                let w = e.cost - lambda * e.transit;
                if dist[e.src] + w > dist[e.dst] + EPS {
                    dist[e.dst] = dist[e.src] + w;
                    pred[e.dst] = Some(e.src);
                    updated_node = Some(e.dst);
                }
            }
            updated_node?;
        }
        // Still relaxing after n passes: a positive cycle is reachable.
        let mut v = updated_node?;
        // Walk back n steps to land on the cycle itself.
        for _ in 0..n {
            v = pred[v]?;
        }
        let start = v;
        let mut cycle = vec![start];
        let mut cur = pred[start]?;
        while cur != start {
            cycle.push(cur);
            cur = pred[cur]?;
        }
        cycle.reverse();
        Some(cycle)
    }

    /// Compute the maximum cycle ratio `max_cycles (Σ cost / Σ transit)` by
    /// parametric binary search to absolute precision `tol`.
    pub fn maximum_cycle_ratio(&self, tol: f64) -> CycleRatio {
        // Quick acyclicity test: lambda large enough to dominate any cost.
        let max_abs_cost: f64 = self.edges.iter().map(|e| e.cost.abs()).fold(0.0, f64::max);
        let total_cost: f64 = self.edges.iter().map(|e| e.cost.abs()).sum::<f64>() + 1.0;
        let min_pos_transit = self
            .edges
            .iter()
            .filter(|e| e.transit > 0.0)
            .map(|e| e.transit)
            .fold(f64::INFINITY, f64::min);

        if self.edges.is_empty() {
            return CycleRatio::Acyclic;
        }

        // A cycle with zero total transit and positive total cost is
        // infeasible at any ratio: test with a huge lambda. If a positive
        // cycle persists there, its transit must be (numerically) zero.
        let huge = if min_pos_transit.is_finite() {
            total_cost / min_pos_transit + max_abs_cost + 1.0
        } else {
            total_cost + 1.0
        };
        if self.has_positive_cycle(huge) {
            return CycleRatio::Infeasible;
        }

        // If even lambda slightly below the most negative possible ratio has
        // no positive cycle, there is no cycle at all (acyclic graph).
        let mut lo = -huge;
        if !self.has_positive_cycle(lo) {
            return CycleRatio::Acyclic;
        }
        let mut hi = huge;
        // Invariant: positive cycle at `lo`, none at `hi`.
        while hi - lo > tol {
            let mid = 0.5 * (lo + hi);
            if self.has_positive_cycle(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        CycleRatio::Ratio(0.5 * (lo + hi))
    }

    /// The maximum cycle mean: maximum cycle ratio with transit interpreted as
    /// "number of edges" set to 1 is *not* what we want here; instead the
    /// caller supplies delay as cost and tokens as transit, so this is simply
    /// an alias with a conventional name for HSDF-style graphs.
    pub fn maximum_cycle_mean(&self, tol: f64) -> CycleRatio {
        self.maximum_cycle_ratio(tol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_self_loop_ratio() {
        // One node, self loop with cost 3, transit 2 -> ratio 1.5.
        let mut g = RatioGraph::new(1);
        g.add_edge(0, 0, 3.0, 2.0);
        match g.maximum_cycle_ratio(1e-9) {
            CycleRatio::Ratio(r) => assert!((r - 1.5).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn two_cycles_takes_maximum() {
        // Cycle A: 0->1->0 cost 2+2=4, transit 1+1=2 (ratio 2).
        // Cycle B: 2->2 cost 9, transit 2 (ratio 4.5).
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 2.0, 1.0);
        g.add_edge(1, 0, 2.0, 1.0);
        g.add_edge(2, 2, 9.0, 2.0);
        match g.maximum_cycle_ratio(1e-9) {
            CycleRatio::Ratio(r) => assert!((r - 4.5).abs() < 1e-6, "{r}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn acyclic_graph() {
        let mut g = RatioGraph::new(3);
        g.add_edge(0, 1, 5.0, 1.0);
        g.add_edge(1, 2, 5.0, 1.0);
        assert_eq!(g.maximum_cycle_ratio(1e-9), CycleRatio::Acyclic);
    }

    #[test]
    fn zero_transit_cycle_is_infeasible() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 0.0);
        g.add_edge(1, 0, 1.0, 0.0);
        assert_eq!(g.maximum_cycle_ratio(1e-9), CycleRatio::Infeasible);
    }

    #[test]
    fn zero_cost_zero_transit_cycle_is_not_positive() {
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 0.0, 0.0);
        g.add_edge(1, 0, 0.0, 0.0);
        // No positive cycle at lambda 0: ratio is effectively unconstrained.
        assert!(!g.has_positive_cycle(0.0));
    }

    #[test]
    fn negative_cost_cycles_allowed() {
        // A cycle with negative total cost has a negative ratio.
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, -3.0, 1.0);
        g.add_edge(1, 0, 1.0, 1.0);
        match g.maximum_cycle_ratio(1e-9) {
            CycleRatio::Ratio(r) => assert!((r - (-1.0)).abs() < 1e-6, "{r}"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn positive_cycle_witness_nodes_form_cycle() {
        let mut g = RatioGraph::new(4);
        g.add_edge(0, 1, 1.0, 0.0);
        g.add_edge(1, 2, 1.0, 0.0);
        g.add_edge(2, 0, 1.0, 0.0);
        g.add_edge(3, 0, 1.0, 0.0);
        let cyc = g
            .positive_cycle_witness(0.0)
            .expect("positive cycle exists");
        assert!(cyc.len() == 3, "{cyc:?}");
        assert!(!cyc.contains(&3));
    }

    #[test]
    fn hsdf_style_mcm() {
        // Two actors with execution time 1 and 2 in a cycle with 1 token:
        // period = 3 per token -> MCM 3.
        let mut g = RatioGraph::new(2);
        g.add_edge(0, 1, 1.0, 0.0); // a finishes, then b
        g.add_edge(1, 0, 2.0, 1.0); // b finishes, token back to a
        match g.maximum_cycle_mean(1e-9) {
            CycleRatio::Ratio(r) => assert!((r - 3.0).abs() < 1e-6),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = RatioGraph::new(0);
        assert_eq!(g.maximum_cycle_ratio(1e-9), CycleRatio::Acyclic);
        let g2 = RatioGraph::new(5);
        assert_eq!(g2.maximum_cycle_ratio(1e-9), CycleRatio::Acyclic);
    }
}
