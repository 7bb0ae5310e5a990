//! Program and graph generators shared by the repository benchmark
//! (`bench/`) and the figure tests below.
//!
//! The generators build parameterised OIL programs and dataflow graphs so a
//! benchmark can sweep problem sizes. The tests pin the numbers of the
//! paper's complexity claim (E9), of the buffer-sizing ablation and of the
//! Fig. 10 latency-bound sweep.

use oil_dataflow::SdfGraph;
use oil_lang::registry::{FunctionRegistry, FunctionSignature};

/// A registry with the generic single-letter kernels used by the synthetic
/// workloads, each with `response_time` seconds of work.
pub fn bench_registry(response_time: f64) -> FunctionRegistry {
    let mut reg = FunctionRegistry::new();
    for f in ["f", "g", "h", "k", "init", "src", "snk"] {
        reg.register(FunctionSignature::pure(f, response_time));
    }
    reg
}

/// The paper's Fig. 2c rate-conversion program.
pub fn fig2c_source() -> &'static str {
    r#"
    mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
    mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
    mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
    "#
}

/// The paper's Fig. 6 program (source, sink, nested module, 5 ms latency).
pub fn fig6_source() -> &'static str {
    r#"
    mod seq B(int a, out int z){ loop{ f(a, out z); } while(1); }
    mod seq C(int a, int z, out int b){ loop{ g(a, z, out b); } while(1); }
    mod par A(int a, out int b){ fifo int z; B(a, out z) || C(a, z, out b) }
    mod par D(){
        source int x = src() @ 1 kHz;
        sink int y = snk() @ 1 kHz;
        start x 5 ms before y;
        A(x, out y)
    }
    "#
}

/// Generate an OIL pipeline of `stages` single-rate modules between a source
/// and a sink running at `rate_hz`.
pub fn pipeline_source(stages: usize, rate_hz: f64) -> String {
    let mut s = String::new();
    s.push_str("mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }\n");
    s.push_str("mod par Top(){\n");
    for i in 0..stages.saturating_sub(1) {
        s.push_str(&format!("    fifo int m{i};\n"));
    }
    s.push_str(&format!("    source int x = src() @ {rate_hz} Hz;\n"));
    s.push_str(&format!("    sink int y = snk() @ {rate_hz} Hz;\n"));
    if stages == 1 {
        s.push_str("    W(x, out y)\n");
    } else {
        s.push_str("    W(x, out m0)");
        for i in 1..stages {
            let input = format!("m{}", i - 1);
            let output = if i == stages - 1 {
                "out y".to_string()
            } else {
                format!("out m{i}")
            };
            s.push_str(&format!(" || W({input}, {output})"));
        }
        s.push('\n');
    }
    s.push_str("}\n");
    s
}

/// A two-actor multi-rate cycle with the given production/consumption rates
/// and initial tokens, the exact side of the polynomial-vs-exponential
/// comparison. Larger `p`/`c` values blow up the HSDF expansion while the CTA
/// model size stays constant. With `2·max(p, c)` initial tokens the
/// self-timed state space reads two states at every ratio the tests pin.
pub fn multirate_cycle(p: u64, c: u64, initial: u64) -> SdfGraph {
    SdfGraph::rate_converter(p, p, c, c, initial, 1e-6)
}

/// The equivalent CTA model of [`multirate_cycle`]: two components whose
/// ports are related by gamma = p/c, with the initial tokens as a negative
/// rate-dependent delay. Its size does not depend on `p` and `c`.
pub fn multirate_cycle_cta(p: u64, c: u64, initial: u64) -> oil_cta::CtaModel {
    use oil_cta::{CtaModel, Rational};
    let mut m = CtaModel::new();
    let f = m.add_component("f", None);
    let g = m.add_component("g", None);
    let rho = Rational::new(1, 1_000_000);
    let f_out = m.add_port(f, "out", Some(rho.recip()));
    let g_in = m.add_port(g, "in", Some(rho.recip()));
    let granularity = Rational::from_int(c as i128) - Rational::new(c as i128, p as i128);
    m.connect(
        f_out,
        g_in,
        rho,
        granularity,
        Rational::new(p as i128, c as i128),
    );
    m.connect_buffer(
        "by",
        g_in,
        f_out,
        rho,
        Rational::from_int(-(initial as i128)),
        Rational::new(c as i128, p as i128),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_compiler::{compile, CompilerOptions};
    use oil_dataflow::hsdf::HsdfGraph;
    use oil_dataflow::statespace::analyze_self_timed;

    #[test]
    fn generated_pipeline_compiles() {
        for stages in [1, 2, 5] {
            let src = pipeline_source(stages, 1000.0);
            let compiled = compile(&src, &bench_registry(1e-6), &CompilerOptions::default())
                .unwrap_or_else(|e| panic!("pipeline with {stages} stages failed: {e}"));
            assert_eq!(compiled.analyzed.graph.instances.len(), stages);
        }
    }

    #[test]
    fn fig_sources_compile() {
        let reg = bench_registry(1e-6);
        assert!(compile(fig2c_source(), &reg, &CompilerOptions::default()).is_ok());
        assert!(compile(fig6_source(), &reg, &CompilerOptions::default()).is_ok());

        // Fig. 10 / E7: the 1 kHz three-task pipeline with 10 us tasks has a
        // 0.020 ms latency bound, so a 0.01 ms constraint is the one rejected.
        let reg = bench_registry(1e-5);
        for (bound_ms, accepted) in [("0.01", false), ("0.05", true), ("0.5", true), ("5", true)] {
            let src = fig6_source().replace("5 ms", &format!("{bound_ms} ms"));
            let verdict = compile(&src, &reg, &CompilerOptions::default()).is_ok();
            assert_eq!(verdict, accepted, "latency bound {bound_ms} ms");
        }
    }

    /// E9, the paper's polynomial-vs-exponential claim: with 2·max(p, q)
    /// initial tokens the HSDF expansion grows with the rates while the CTA
    /// model keeps two ports. Then the buffer-sizing ablation: CTA's
    /// sufficient capacity never undercuts the exact state-space maximum
    /// (at these rates it equals it).
    #[test]
    fn multirate_cycle_models_agree_on_feasibility() {
        let sdf = multirate_cycle(3, 2, 4);
        assert!(sdf.check_deadlock_free().is_ok());
        let cta = multirate_cycle_cta(3, 2, 4);
        assert!(cta.consistency_at_maximal_rates().is_ok());

        // (p, q, HSDF nodes, states explored, CTA ports)
        for (p, q, nodes, states, ports) in [
            (3, 2, 5, 2, 2),
            (9, 8, 17, 2, 2),
            (27, 16, 43, 2, 2),
            (81, 64, 145, 2, 2),
        ] {
            let tokens = 2 * u64::max(p, q);
            let sdf = multirate_cycle(p, q, tokens);
            let hsdf = HsdfGraph::expand(&sdf).unwrap();
            let exact = analyze_self_timed(&sdf, 100_000).unwrap();
            let cta = multirate_cycle_cta(p, q, tokens);
            assert_eq!(
                (hsdf.node_count(), exact.states_explored, cta.port_count()),
                (nodes, states, ports),
                "{p}:{q}"
            );
        }

        // (p, q, exact max tokens per edge, CTA capacity)
        for (p, q, exact_max, cta_capacity) in [(3, 2, 6, 6), (5, 4, 10, 10), (10, 16, 32, 32)] {
            let tokens = 2 * u64::max(p, q);
            let exact = analyze_self_timed(&multirate_cycle(p, q, tokens), 100_000).unwrap();
            let sized = oil_cta::size_buffers(&multirate_cycle_cta(p, q, tokens)).unwrap();
            let exact_tokens = *exact.max_tokens_per_edge.iter().max().unwrap();
            assert_eq!(
                (exact_tokens, sized.capacities["by"]),
                (exact_max, cta_capacity),
                "{p}:{q}"
            );
            assert!(sized.capacities["by"] >= exact_tokens, "{p}:{q}");
        }
    }
}
