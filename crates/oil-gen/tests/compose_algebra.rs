//! Property tests for the CTA composition algebra (paper §V-C) on generated
//! components: composition is associative, composition preserves the
//! analyses of its parts, and hiding internal ports preserves the externally
//! observable rates and latencies — all checked with exact equality.

use oil_cta::{check_latency_path, hide_component, CtaModel, Rational};
use oil_dataflow::index::PortId;
use oil_gen::{GenRng, RingScenario};

/// The cases each property runs.
const CASES: usize = 256;

/// A random library component: an outer component with `in`/`out` interface
/// ports and a chain of hidden internal ports with random exact delays and
/// rate ratios, wired to an environment source and sink. Returns the model
/// and the environment's port ids.
fn random_chain_component(seed: u64) -> (CtaModel, PortId, PortId) {
    let mut rng = GenRng::new(seed ^ 0xC0117);
    let max = Some(Rational::from_int(rng.range(100, 100_000) as i128));
    let mut m = CtaModel::new();
    let outer = m.add_component("lib", None);
    let inner = m.add_component("stage", Some(outer));
    let input = m.add_port(outer, "in", max);
    let internals: Vec<PortId> = (0..rng.range(1, 4))
        .map(|i| m.add_port(inner, format!("i{i}"), max))
        .collect();
    let output = m.add_port(outer, "out", max);
    let env = m.add_component("env", None);
    let src = m.add_port(env, "src", max);
    let snk = m.add_port(env, "snk", max);

    let delay = |rng: &mut GenRng| Rational::new(rng.range(0, 900) as i128, 1_000_000);
    let gamma = |rng: &mut GenRng| Rational::new(rng.range(1, 4) as i128, rng.range(1, 4) as i128);
    m.connect(src, input, Rational::ZERO, Rational::ZERO, Rational::ONE);
    let mut prev = input;
    for &p in &internals {
        let (d, g) = (delay(&mut rng), gamma(&mut rng));
        m.connect(prev, p, d, Rational::ZERO, g);
        prev = p;
    }
    let (d, g) = (delay(&mut rng), gamma(&mut rng));
    m.connect(prev, output, d, Rational::ZERO, g);
    m.connect(output, snk, Rational::ZERO, Rational::ZERO, Rational::ONE);
    (m, src, snk)
}

/// Merging models is associative: `(a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)`,
/// structurally and bit for bit, for rings of seeds in 0…9 999.
#[test]
fn prop_compose_is_associative() {
    let mut rng = GenRng::new(0xA550C);
    let mut cases = 0;
    for _ in 0..CASES {
        let (sa, sb, sc) = (rng.below(10_000), rng.below(10_000), rng.below(10_000));
        let a = RingScenario::generate(sa).cta();
        let b = RingScenario::generate(sb).cta();
        let c = RingScenario::generate(sc).cta();

        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);

        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);

        assert_eq!(left, right, "seeds {sa}/{sb}/{sc}");
        cases += 1;
    }
    assert_eq!(cases, CASES);
}

/// Composing with an unrelated component does not disturb the first
/// component's analysis: its ports keep exactly their rates. Only live
/// rings are kept as the first component, since deadlocked ones have no
/// rates; the drawn seeds the filter rejects are counted.
#[test]
fn prop_compose_preserves_component_analyses() {
    let mut rng = GenRng::new(0xC0A1E);
    let (mut cases, mut dead) = (0, 0);
    while cases < CASES {
        let (sa, sb) = (rng.below(10_000), rng.below(10_000));
        let ring = RingScenario::generate(sa);
        if ring.total_tokens() == 0 {
            dead += 1;
            continue;
        }
        let alone = ring
            .cta()
            .maximal_rates()
            .unwrap_or_else(|e| panic!("seed {sa}: live ring must be feasible: {e}"));

        let mut composed = ring.cta();
        composed.merge(&RingScenario::generate(sb).cta());
        match composed.maximal_rates() {
            Ok(rates) => {
                for i in 0..ring.len() {
                    assert_eq!(
                        rates[ring.cta_port(i)],
                        alone[ring.cta_port(i)],
                        "seeds {sa}/{sb}: rate of port {i} changed under composition"
                    );
                }
            }
            // The merged partner may itself be infeasible (deadlocked ring);
            // that is a property of the partner, not of composition.
            Err(_) => {
                assert_eq!(
                    RingScenario::generate(sb).total_tokens(),
                    0,
                    "seeds {sa}/{sb}: composition with a live partner must stay feasible"
                );
            }
        }
        cases += 1;
    }
    assert_eq!((cases, dead), (CASES, 38));
}

/// Hiding the internal ports of a generated library component (seeds
/// 0…9 999) preserves the externally observable rates and the end-to-end
/// latency exactly (paper §V-C: a black-box interface is as good as the
/// white box).
#[test]
fn prop_hiding_preserves_observable_rates_and_latency() {
    let mut rng = GenRng::new(0x41DE);
    let mut cases = 0;
    for _ in 0..CASES {
        let seed = rng.below(10_000);
        let (m, src, snk) = random_chain_component(seed);
        let full = m
            .check_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: chain components are consistent: {e}"));
        let full_latency = check_latency_path(&m, &full, src, snk)
            .unwrap_or_else(|| panic!("seed {seed}: sink unreachable"))
            .latency;

        let lib = m.component_by_name("lib").expect("lib exists");
        let hidden =
            hide_component(&m, lib).unwrap_or_else(|e| panic!("seed {seed}: hiding failed: {e}"));
        let res = hidden
            .check_consistency()
            .unwrap_or_else(|e| panic!("seed {seed}: hidden model stays consistent: {e}"));

        let env = hidden.component_by_name("env").expect("env survives");
        let src_h = hidden.port_by_name(env, "src").expect("src survives");
        let snk_h = hidden.port_by_name(env, "snk").expect("snk survives");

        // Exact rate preservation at the interface.
        assert_eq!(
            res.rates[src_h], full.rates[src],
            "seed {seed}: source rate changed under hiding"
        );
        assert_eq!(
            res.rates[snk_h], full.rates[snk],
            "seed {seed}: sink rate changed under hiding"
        );

        // Exact latency preservation along the summarised path.
        let hidden_latency = check_latency_path(&hidden, &res, src_h, snk_h)
            .unwrap_or_else(|| panic!("seed {seed}: sink unreachable after hiding"))
            .latency;
        assert_eq!(
            hidden_latency, full_latency,
            "seed {seed}: end-to-end latency changed under hiding"
        );
        cases += 1;
    }
    assert_eq!(cases, CASES);
}

/// Merge offsets translate every id space consistently: spot-check that the
/// merged copy of a generated ring is bit-identical to the original under
/// the offset translation.
#[test]
fn merge_offsets_translate_generated_components_faithfully() {
    for seed in 0..64u64 {
        let a = RingScenario::generate(seed).cta();
        let b = RingScenario::generate(seed + 1000).cta();
        let mut merged = a.clone();
        let off = merged.merge(&b);
        for (pid, port) in b.ports.iter_enumerated() {
            let t = &merged.ports[off.port(pid)];
            assert_eq!(t.name, port.name, "seed {seed}");
            assert_eq!(t.max_rate, port.max_rate, "seed {seed}");
            assert_eq!(t.component, off.component(port.component), "seed {seed}");
        }
        for (cid, conn) in b.connections.iter_enumerated() {
            let t = &merged.connections[off.connection(cid)];
            assert_eq!(t.from, off.port(conn.from), "seed {seed}");
            assert_eq!(t.to, off.port(conn.to), "seed {seed}");
            assert_eq!(t.epsilon, conn.epsilon, "seed {seed}");
            assert_eq!(t.phi, conn.phi, "seed {seed}");
            assert_eq!(t.gamma, conn.gamma, "seed {seed}");
        }
    }
}
