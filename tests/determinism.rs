//! Determinism regression tests for the exact-rational analysis core.
//!
//! The CTA algorithms compute rates, offsets, slacks and buffer capacities in
//! exact rational arithmetic, so repeated runs on the same program must be
//! **bit-identical** — not merely close. These tests pin that property on the
//! paper's two flagship programs (Fig. 6 and Fig. 2c) across the full
//! pipeline: derivation, consistency, buffer sizing and the reported
//! channel rates/latencies.

mod support;

use oil::compiler::{compile, derive_cta_model, CompilerOptions};
use oil::cta::size_buffers;
use oil::dataflow::Rational;
use oil::lang::registry::FunctionRegistry;

fn registry() -> FunctionRegistry {
    support::pure(&["f", "g", "init", "src", "snk"], 1e-6)
}

const FIG6: &str = r#"
    mod seq B(int a, out int z){ loop{ f(a, out z); } while(1); }
    mod seq C(int a, int z, out int b){ loop{ g(a, z, out b); } while(1); }
    mod par A(int a, out int b){ fifo int z; B(a, out z) || C(a, z, out b) }
    mod par D(){
        source int x = src() @ 1 kHz;
        sink int y = snk() @ 1 kHz;
        start x 5 ms before y;
        A(x, out y)
    }
"#;

const FIG2C: &str = r#"
    mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
    mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
    mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
"#;

/// Compile the program several times and require every analysis artifact to
/// be identical across runs — exact arithmetic leaves no room for drift.
fn assert_deterministic(src: &str) {
    let reg = registry();
    let opts = CompilerOptions::default();
    let first = compile(src, &reg, &opts).unwrap();
    for run in 0..5 {
        let again = compile(src, &reg, &opts).unwrap();
        assert_eq!(
            again.consistency, first.consistency,
            "consistency drifted on run {run}"
        );
        assert_eq!(
            again.buffers, first.buffers,
            "buffer plan drifted on run {run}"
        );
        assert_eq!(
            again.sized_model, first.sized_model,
            "sized model drifted on run {run}"
        );
    }
}

#[test]
fn fig6_compilation_is_bit_identical_across_runs() {
    assert_deterministic(FIG6);
}

#[test]
fn fig2c_compilation_is_bit_identical_across_runs() {
    assert_deterministic(FIG2C);
}

#[test]
fn fig6_consistency_and_sizing_are_bit_identical_on_the_raw_model() {
    // Below the pipeline: derive the CTA model once and re-run the two core
    // algorithms directly.
    let reg = registry();
    let analyzed = oil::lang::frontend(FIG6, &reg).unwrap();
    let derived = derive_cta_model(&analyzed, &reg);

    let sizing_first = size_buffers(&derived.cta).unwrap();
    for _ in 0..5 {
        assert_eq!(size_buffers(&derived.cta).unwrap(), sizing_first);
    }

    let mut sized = derived.cta.clone();
    oil::cta::buffersizing::apply_capacities(&mut sized, &sizing_first.capacities);
    let consistency_first = sized.check_consistency().unwrap();
    for _ in 0..5 {
        assert_eq!(sized.check_consistency().unwrap(), consistency_first);
    }
}

#[test]
fn pipeline32_sizing_is_bit_identical_across_runs() {
    // The largest program of the compile corpus: 324 ports, 484 connections,
    // 33 buffers, one enlargement each. Its sizing runs on scaled integers,
    // skips no-op relaxations and stops at the first predecessor cycle;
    // none of that may make a result depend on anything but the model.
    let src = support::pipeline_source(32);
    let reg = registry();
    let analyzed = oil::lang::frontend(&src, &reg).unwrap();
    let derived = derive_cta_model(&analyzed, &reg);
    assert_eq!(derived.cta.ports.len(), 324);
    assert_eq!(derived.cta.connections.len(), 484);
    let first = size_buffers(&derived.cta).unwrap();
    assert_eq!(first.iterations, 33);
    assert_eq!(first.capacities.len(), 33);
    for _ in 0..3 {
        assert_eq!(size_buffers(&derived.cta).unwrap(), first);
    }
    assert_deterministic(&src);
}

#[test]
fn fig6_reported_rates_and_latency_are_exact() {
    let compiled = compile(FIG6, &registry(), &CompilerOptions::default()).unwrap();
    // Source and sink rates are exactly the declared 1 kHz.
    assert_eq!(
        compiled.channel_rate_exact("x"),
        Some(Rational::from_int(1000))
    );
    assert_eq!(
        compiled.channel_rate_exact("y"),
        Some(Rational::from_int(1000))
    );
    // The latency bound is an exact rational within the declared 5 ms.
    let latency = compiled.latency_between_exact("x", "y").unwrap();
    assert!(latency <= Rational::new(5, 1000));
    // And the f64 accessors are derived from the exact values.
    assert_eq!(compiled.channel_rate("x"), Some(1000.0));
    assert_eq!(compiled.latency_between("x", "y"), Some(latency.to_f64()));
}

#[test]
fn fig2c_channel_rates_are_exactly_equal() {
    let compiled = compile(FIG2C, &registry(), &CompilerOptions::default()).unwrap();
    let rx = compiled.channel_rate_exact("x").unwrap();
    let ry = compiled.channel_rate_exact("y").unwrap();
    assert!(rx.is_positive());
    assert_eq!(rx, ry);
}

// ---------------------------------------------------------------------------
// Simulator determinism hardening: the event tie-breaking rule is structural.
// ---------------------------------------------------------------------------

/// Simultaneous events are ordered by `(time, kind, id)` — sources deliver,
/// completing nodes commit, sinks consume; lower ids first — never by the
/// order events were inserted into the ready queue. This property test pins
/// that documented rule: populating the initial event queue in reversed or
/// seeded-shuffled order must produce bit-identical traces on randomly
/// generated programs.
#[test]
fn sim_traces_are_insensitive_to_event_insertion_order() {
    use oil::gen::GenRng;
    use oil::sim::{build_simulation_from_graph, picos, SimulationConfig};

    let mut checked = 0;
    for (at, scenario) in support::programs(24, 0) {
        let Some(exe) = support::build_program(&at, &scenario, 1) else {
            continue; // temporal rejection is legitimate; see differential.rs
        };
        checked += 1;
        let config = SimulationConfig {
            cores: 0,
            warmup_ticks: 64,
        };
        let duration = picos(0.1);

        let net = build_simulation_from_graph(&exe.graph);
        let ticks = net.sources.len() + net.sinks.len();
        let (_, reference) = net.clone().run_traced(duration, &config);

        // Identity, reversed, and three seeded Fisher-Yates shuffles.
        let identity: Vec<usize> = (0..ticks).collect();
        let reversed: Vec<usize> = (0..ticks).rev().collect();
        let mut orders = vec![identity, reversed];
        let mut rng = GenRng::new(scenario.seed ^ 0x5EED);
        for _ in 0..3 {
            let mut p: Vec<usize> = (0..ticks).collect();
            for i in (1..p.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                p.swap(i, j);
            }
            orders.push(p);
        }
        for order in orders {
            let (_, permuted) = net
                .clone()
                .run_traced_with_tick_order(duration, &config, &order);
            assert_eq!(
                permuted.first_divergence(&reference),
                None,
                "{at}: trace depends on event insertion order {order:?}"
            );
        }
    }
    assert!(checked >= 18, "only {checked} scenarios compiled");
}
