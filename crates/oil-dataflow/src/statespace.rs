//! Exact self-timed state-space throughput analysis.
//!
//! This is the *exponential-time* exact analysis the paper contrasts CTA
//! against (Section II: "exact analysis algorithms to verify the satisfaction
//! of temporal constraints have an exponential time complexity"). The SDF
//! graph is executed self-timed (every actor fires as soon as it has enough
//! tokens); because the graph is consistent and deterministic, the execution
//! eventually revisits a token/actor state at an iteration boundary and the
//! steady-state period is the time between the two visits.
//!
//! The state space can be exponential in the repetition vector and in the
//! number of initial tokens. The benchmark's `dataflow.statespace_us` row
//! times it next to CTA's `cta.cycle_consistency_us` on the same cycle, and
//! `oil_bench`'s tests pin the states it explores per rate ratio.

use crate::index::{ActorId, IndexVec};
use crate::rational::Rational;
use crate::sdf::{EdgeId, SdfError, SdfGraph};
use std::collections::HashMap;

/// Result of an exact self-timed execution analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfTimedAnalysis {
    /// The steady-state iteration period in seconds.
    pub period: f64,
    /// Number of transient iterations before the periodic phase is entered.
    pub transient_iterations: u64,
    /// Number of iterations in one steady-state cycle of the state space.
    pub cycle_iterations: u64,
    /// Duration of one steady-state cycle in integer picoseconds: the exact
    /// time between the two visits of the repeated boundary state. Together
    /// with [`Self::cycle_iterations`] this gives the period as an exact
    /// rational (see [`Self::period_exact`]); `0` when the analysis did not
    /// converge within its iteration bound.
    pub cycle_picos: u64,
    /// Number of distinct iteration-boundary states explored.
    pub states_explored: usize,
    /// Maximum number of tokens simultaneously present on each edge during
    /// the steady state (a lower bound on the needed buffer capacity).
    pub max_tokens_per_edge: IndexVec<EdgeId, u64>,
}

impl SelfTimedAnalysis {
    /// Steady-state throughput in graph iterations per second.
    pub fn throughput(&self) -> f64 {
        if self.period <= 0.0 {
            f64::INFINITY
        } else {
            1.0 / self.period
        }
    }

    /// The steady-state iteration period in seconds as an **exact rational**:
    /// `cycle_picos / (cycle_iterations · 10¹²)`. This is the value the
    /// differential harness compares bit-for-bit against CTA's exact maximal
    /// rates. `None` when the analysis did not converge (no repeated state
    /// within the iteration bound).
    pub fn period_exact(&self) -> Option<Rational> {
        if self.cycle_iterations == 0 {
            return None;
        }
        Some(Rational::new(
            self.cycle_picos as i128,
            self.cycle_iterations as i128 * 1_000_000_000_000,
        ))
    }
}

/// Fixed-point time in picoseconds used to make states hashable and the
/// simulation exactly repeatable.
type Picos = u64;

fn to_picos(seconds: f64) -> Picos {
    (seconds * 1e12).round() as Picos
}

/// One iteration-boundary state: the token distribution, the remaining busy
/// time of every in-flight actor and how many firings each actor has run
/// ahead of the completed iteration count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct BoundaryState {
    tokens: Vec<u64>,
    busy_offsets: Vec<Picos>,
    ahead: Vec<u64>,
}

/// How many iterations an actor may run ahead of the slowest actor. This
/// keeps the explored state space finite (token counts stay bounded even on
/// acyclic paths) while still allowing pipelined, overlapped execution across
/// iteration boundaries, so pipeline throughput is dominated by the
/// bottleneck actor as under true self-timed execution.
const LOOKAHEAD_ITERATIONS: u64 = 4;

/// Execute `graph` self-timed with unbounded buffers until an
/// iteration-boundary state repeats, and return the steady-state period.
///
/// `max_iterations` bounds the exploration so pathological graphs cannot run
/// away; analysis of a well-formed graph converges far earlier. When the
/// bound is hit the average period so far is reported as an estimate (useful
/// for benchmarking); use [`analyze_self_timed_budgeted`] to get a hard
/// [`SdfError::BudgetExceeded`] instead.
pub fn analyze_self_timed(
    graph: &SdfGraph,
    max_iterations: u64,
) -> Result<SelfTimedAnalysis, SdfError> {
    analyze_impl(graph, max_iterations, usize::MAX, false)
}

/// As [`analyze_self_timed`], but *strict*: the exploration refuses to keep
/// more than `max_states` distinct boundary states, refuses graphs with
/// non-finite or out-of-range firing durations, and reports hitting any
/// budget (including `max_iterations` without convergence) as
/// [`SdfError::BudgetExceeded`]. This is the entry point for harnesses that
/// feed *generated* (possibly adversarial) graphs and must skip-and-log
/// rather than OOM or accept an estimate as exact.
pub fn analyze_self_timed_budgeted(
    graph: &SdfGraph,
    max_iterations: u64,
    max_states: usize,
) -> Result<SelfTimedAnalysis, SdfError> {
    analyze_impl(graph, max_iterations, max_states, true)
}

fn analyze_impl(
    graph: &SdfGraph,
    max_iterations: u64,
    max_states: usize,
    strict: bool,
) -> Result<SelfTimedAnalysis, SdfError> {
    if strict {
        // ~1.8e7 seconds is the largest duration whose picosecond count fits
        // a u64; anything near it is an adversarial input, not a workload.
        for a in &graph.actors {
            let d = a.firing_duration;
            if !d.is_finite() || d < 0.0 || d * 1e12 >= u64::MAX as f64 {
                return Err(SdfError::BudgetExceeded {
                    what: format!("firing duration {d} is outside the picosecond time base"),
                });
            }
        }
    }
    let q = graph.check_deadlock_free()?;
    let n = graph.actors.len();
    let durations: IndexVec<ActorId, Picos> = graph
        .actors
        .iter()
        .map(|a| to_picos(a.firing_duration))
        .collect();

    let mut incoming: IndexVec<ActorId, Vec<EdgeId>> = IndexVec::from_elem(Vec::new(), n);
    let mut outgoing: IndexVec<ActorId, Vec<EdgeId>> = IndexVec::from_elem(Vec::new(), n);
    for (eid, e) in graph.edges.iter_enumerated() {
        incoming[e.dst].push(eid);
        outgoing[e.src].push(eid);
    }

    let mut tokens: IndexVec<EdgeId, u64> = graph.edges.iter().map(|e| e.initial_tokens).collect();
    let mut max_tokens = tokens.clone();
    // At most one firing of an actor is in flight at a time, modelling the
    // implicit self-edge every task has in the paper's task graphs.
    let mut busy: IndexVec<ActorId, Option<Picos>> = IndexVec::from_elem(None, n);
    let mut now: Picos = 0;
    // Cumulative completed firings per actor.
    let mut total_fired: IndexVec<ActorId, u64> = IndexVec::from_elem(0, n);
    let mut iteration: u64 = 0;

    let mut seen: HashMap<BoundaryState, (u64, Picos)> = HashMap::new();
    seen.insert(
        BoundaryState {
            tokens: tokens.as_slice().to_vec(),
            busy_offsets: vec![0; n],
            ahead: vec![0; n],
        },
        (0, 0),
    );

    while iteration < max_iterations {
        // Start every firing that can start now (consumption is atomic at
        // start, production occurs at completion). Actors may run up to
        // LOOKAHEAD_ITERATIONS iterations ahead of the completed iteration.
        loop {
            let mut progressed = false;
            for a in graph.actors.indices() {
                if busy[a].is_some() {
                    continue;
                }
                let started = total_fired[a];
                if started >= (iteration + LOOKAHEAD_ITERATIONS) * q[a] {
                    continue;
                }
                let ready = incoming[a]
                    .iter()
                    .all(|&e| tokens[e] >= graph.edges[e].consumption);
                if ready {
                    for &e in &incoming[a] {
                        tokens[e] -= graph.edges[e].consumption;
                    }
                    busy[a] = Some(now + durations[a]);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // Advance time to the next completion.
        let next = busy.iter().flatten().copied().min();
        let mut idle = false;
        match next {
            Some(t) => {
                now = t;
                for a in graph.actors.indices() {
                    if busy[a] == Some(t) {
                        busy[a] = None;
                        total_fired[a] += 1;
                        for &e in &outgoing[a] {
                            tokens[e] = tokens[e]
                                .checked_add(graph.edges[e].production)
                                .ok_or_else(|| SdfError::BudgetExceeded {
                                    what: "token count overflowed u64 during state-space \
                                           exploration"
                                        .into(),
                                })?;
                            max_tokens[e] = max_tokens[e].max(tokens[e]);
                        }
                    }
                }
            }
            None => idle = true,
        }

        // Iteration boundary: every actor has completed the firings of the
        // current iteration (it may already be busy with later ones).
        let boundary_reached = total_fired
            .iter()
            .zip(&q)
            .all(|(f, qq)| *f >= (iteration + 1) * qq);
        if idle && !boundary_reached {
            // Stuck mid-iteration: cannot happen for graphs that passed the
            // deadlock check, but guard against an infinite loop regardless.
            break;
        }
        if boundary_reached {
            iteration += 1;
            let state = BoundaryState {
                tokens: tokens.as_slice().to_vec(),
                busy_offsets: busy
                    .iter()
                    .map(|b| b.map(|t| t.saturating_sub(now)).unwrap_or(0))
                    .collect(),
                ahead: total_fired
                    .iter()
                    .zip(&q)
                    .map(|(f, qq)| f.saturating_sub(iteration * qq))
                    .collect(),
            };
            if let Some(&(prev_iter, prev_time)) = seen.get(&state) {
                let cycle_iterations = iteration - prev_iter;
                let cycle_picos = now - prev_time;
                let period_picos = cycle_picos as f64 / cycle_iterations as f64;
                return Ok(SelfTimedAnalysis {
                    period: period_picos / 1e12,
                    transient_iterations: prev_iter,
                    cycle_iterations,
                    cycle_picos,
                    states_explored: seen.len(),
                    max_tokens_per_edge: max_tokens,
                });
            }
            if seen.len() >= max_states {
                return Err(SdfError::BudgetExceeded {
                    what: format!("state-space exploration exceeded {max_states} boundary states"),
                });
            }
            seen.insert(state, (iteration, now));
        }
    }

    if strict {
        return Err(SdfError::BudgetExceeded {
            what: format!("no repeated boundary state within {max_iterations} iterations"),
        });
    }
    // Did not converge within the bound; report the average period so far as
    // an estimate (still useful for benchmarking the cost of exploration).
    Ok(SelfTimedAnalysis {
        period: if iteration > 0 {
            now as f64 / 1e12 / iteration as f64
        } else {
            f64::INFINITY
        },
        transient_iterations: iteration,
        cycle_iterations: 0,
        cycle_picos: 0,
        states_explored: seen.len(),
        max_tokens_per_edge: max_tokens,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hsdf::HsdfGraph;

    #[test]
    fn two_actor_cycle_period() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1e-3);
        let b = g.add_actor("b", 2e-3);
        g.add_edge(a, b, 1, 1, 0);
        g.add_edge(b, a, 1, 1, 1);
        let res = analyze_self_timed(&g, 1000).unwrap();
        assert!((res.period - 3e-3).abs() < 1e-9, "{}", res.period);
        assert!(res.cycle_iterations >= 1);
    }

    #[test]
    fn fig2a_self_timed_period_positive_and_finite() {
        let g = SdfGraph::rate_converter(3, 3, 2, 2, 4, 1e-3);
        let res = analyze_self_timed(&g, 1000).unwrap();
        assert!(res.period.is_finite());
        assert!(res.period > 0.0);
        // One iteration requires 2 firings of f and 3 of g; with a single
        // implicit processor per actor the period is at least the per-actor
        // work: max(2, 3) * 1 ms.
        assert!(res.period >= 3e-3 - 1e-9, "{}", res.period);
    }

    #[test]
    fn deadlocking_graph_reported() {
        let g = SdfGraph::rate_converter(3, 3, 2, 2, 1, 1e-3);
        assert!(analyze_self_timed(&g, 100).is_err());
    }

    #[test]
    fn pipeline_with_enough_tokens_matches_bottleneck() {
        // a -> b -> c, all single-rate, cycle back c -> a with plenty of
        // tokens: the bottleneck actor dominates.
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1e-3);
        let b = g.add_actor("b", 4e-3);
        let c = g.add_actor("c", 2e-3);
        g.add_edge(a, b, 1, 1, 0);
        g.add_edge(b, c, 1, 1, 0);
        g.add_edge(c, a, 1, 1, 8);
        let res = analyze_self_timed(&g, 1000).unwrap();
        assert!((res.period - 4e-3).abs() < 1e-9, "{}", res.period);
    }

    #[test]
    fn self_timed_period_matches_hsdf_mcm_for_single_rate_cycles() {
        for (da, db, tokens) in [(1e-3, 2e-3, 1u64), (5e-4, 5e-4, 2), (3e-3, 1e-3, 1)] {
            let mut g = SdfGraph::new();
            let a = g.add_actor("a", da);
            let b = g.add_actor("b", db);
            g.add_edge(a, b, 1, 1, 0);
            g.add_edge(b, a, 1, 1, tokens);
            let exact = analyze_self_timed(&g, 1000).unwrap();
            let h = HsdfGraph::expand(&g).unwrap();
            let mcm = h.maximum_cycle_mean().unwrap();
            // With one initial token the period equals the MCM; with more
            // tokens the actors' own sequential behaviour (implicit
            // self-edge) can dominate, so the self-timed period is at least
            // the MCM divided by the token count and at least the largest
            // firing duration.
            assert!(
                exact.period + 1e-12 >= mcm / tokens as f64,
                "{} vs {}",
                exact.period,
                mcm
            );
            assert!(exact.period + 1e-12 >= da.max(db));
        }
    }

    #[test]
    fn max_tokens_tracks_buffer_usage() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1e-3);
        let b = g.add_actor("b", 3e-3);
        let forward = g.add_edge(a, b, 1, 1, 0);
        let back = g.add_edge(b, a, 1, 1, 3);
        let res = analyze_self_timed(&g, 1000).unwrap();
        // Edge a->b can accumulate tokens while b is busy.
        assert!(res.max_tokens_per_edge[forward] >= 1);
        assert!(res.max_tokens_per_edge[back] <= 3);
    }

    #[test]
    fn exact_period_matches_float_period() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1e-3);
        let b = g.add_actor("b", 2e-3);
        g.add_edge(a, b, 1, 1, 0);
        g.add_edge(b, a, 1, 1, 1);
        let res = analyze_self_timed(&g, 1000).unwrap();
        // 3 ms per iteration, exactly.
        assert_eq!(
            res.period_exact(),
            Some(crate::rational::Rational::new(3, 1000))
        );
        assert!((res.period - res.period_exact().unwrap().to_f64()).abs() < 1e-15);
    }

    #[test]
    fn budgeted_analysis_reports_budget_errors() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", 1e-3);
        let b = g.add_actor("b", 7e-4);
        g.add_edge(a, b, 2, 3, 0);
        g.add_edge(b, a, 3, 2, 12);
        // A one-state budget cannot hold the transient.
        assert!(matches!(
            analyze_self_timed_budgeted(&g, 10_000, 1),
            Err(SdfError::BudgetExceeded { .. })
        ));
        // A one-iteration bound cannot reach a repeated state: strict mode
        // refuses instead of returning an estimate.
        assert!(matches!(
            analyze_self_timed_budgeted(&g, 1, 1_000_000),
            Err(SdfError::BudgetExceeded { .. })
        ));
        // Generous budgets converge and agree with the unbudgeted analysis.
        let strict = analyze_self_timed_budgeted(&g, 10_000, 1_000_000).unwrap();
        let loose = analyze_self_timed(&g, 10_000).unwrap();
        assert_eq!(strict, loose);
    }

    #[test]
    fn non_finite_durations_rejected_in_strict_mode() {
        let mut g = SdfGraph::new();
        let a = g.add_actor("a", f64::INFINITY);
        g.add_edge(a, a, 1, 1, 1);
        assert!(matches!(
            analyze_self_timed_budgeted(&g, 100, 1000),
            Err(SdfError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn states_explored_grows_with_initial_tokens() {
        let count_states = |tokens: u64| {
            let mut g = SdfGraph::new();
            let a = g.add_actor("a", 1e-3);
            let b = g.add_actor("b", 7e-4);
            g.add_edge(a, b, 2, 3, 0);
            g.add_edge(b, a, 3, 2, tokens);
            analyze_self_timed(&g, 10_000).unwrap().states_explored
        };
        // More initial tokens means a longer transient and at least as many
        // distinct boundary states.
        assert!(count_states(12) >= count_states(6));
    }
}
