//! Property tests for the OIL front end on generated programs: the pretty
//! printer and parser are mutually inverse (modulo spans), and ill-formed
//! programs are rejected with diagnostics, never panics.

use oil_gen::{gen_ast, Defect, GenRng, IllFormedProgram, ProgramScenario};
use oil_lang::pretty::print_program;
use oil_lang::{analyze, parse_program};

/// The cases each property runs.
const CASES: usize = 256;

/// `parse(pretty(ast))` reproduces the AST: spans aside, printing the
/// re-parsed program yields the identical canonical text, with the same
/// module structure. Each case concatenates the programs of a *pair* of
/// related seeds (`sa` in 0…49 999, `sb` in `sa`…`sa + 3`), so the
/// concatenation of two generated programs round-trips too.
#[test]
fn prop_parse_pretty_roundtrip() {
    let mut rng = GenRng::new(0x9A25E);
    let mut cases = 0;
    for _ in 0..CASES {
        let sa = rng.below(50_000);
        let sb = rng.range(sa, sa + 3);
        let mut ast = gen_ast(sa);
        ast.modules.extend(gen_ast(sb).modules);

        let printed = print_program(&ast);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| {
            panic!("seeds {sa}/{sb}: canonical text must parse: {e}\n{printed}")
        });
        assert_eq!(
            reparsed.modules.len(),
            ast.modules.len(),
            "seeds {sa}/{sb}: module count changed"
        );
        assert_eq!(
            print_program(&reparsed),
            printed,
            "seeds {sa}/{sb}: canonical form is not a fixed point"
        );
        cases += 1;
    }
    assert_eq!(cases, CASES);
}

/// Fully generated pipeline programs (seeds 0…4 999) round-trip through the
/// printer and re-analyse to the same application graph.
#[test]
fn prop_generated_programs_roundtrip_and_reanalyse() {
    let mut rng = GenRng::new(0x2EA7A);
    let mut cases = 0;
    for _ in 0..CASES {
        let seed = rng.below(5_000);
        let scenario = ProgramScenario::generate(seed);
        let ast = parse_program(&scenario.source)
            .unwrap_or_else(|e| panic!("seed {seed}: generated source must parse: {e}"));
        let printed = print_program(&ast);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| {
            panic!("seed {seed}: printed source must re-parse: {e}\n{printed}")
        });
        assert_eq!(print_program(&reparsed), printed, "seed {seed}");

        // Both forms pass semantic analysis with identical channel counts.
        let a = analyze(&ast, &scenario.registry)
            .unwrap_or_else(|e| panic!("seed {seed}: original must analyse: {:?}", e.diagnostics));
        let b = analyze(&reparsed, &scenario.registry).unwrap_or_else(|e| {
            panic!("seed {seed}: round-trip must analyse: {:?}", e.diagnostics)
        });
        assert_eq!(
            a.graph.channels.len(),
            b.graph.channels.len(),
            "seed {seed}"
        );
        assert_eq!(
            a.graph.instances.len(),
            b.graph.instances.len(),
            "seed {seed}"
        );
        cases += 1;
    }
    assert_eq!(cases, CASES);
}

/// Ill-formed generated programs (seeds 0…4 999) are rejected with at least
/// one error diagnostic whose message names the defect — and nothing
/// panics.
#[test]
fn prop_ill_formed_programs_get_diagnostics() {
    let mut rng = GenRng::new(0x111F0);
    // Cases refused by the parser, accepted by the front end, diagnosed.
    let (mut refused, mut accepted, mut diagnosed) = (0, 0, 0);
    for _ in 0..CASES {
        let seed = rng.below(5_000);
        let bad = IllFormedProgram::generate(seed);
        let parsed = match parse_program(&bad.source) {
            Ok(p) => p,
            // Literals are converted to exact rationals as they are read, so
            // an unrepresentable one is the only defect the parser refuses.
            Err(d) => {
                assert_eq!(
                    bad.defect,
                    Defect::NonRationalLiteral,
                    "seed {seed}: unexpected parse failure: {d}"
                );
                assert!(d.message.contains("exact rational"), "seed {seed}: {d}");
                refused += 1;
                continue;
            }
        };
        let diags = match analyze(&parsed, &bad.registry()) {
            Ok(_) => {
                // Rate mismatches surface later, in temporal analysis — the
                // front end legitimately accepts them; everything else must
                // be caught here.
                assert_eq!(
                    bad.defect,
                    Defect::RateMismatch,
                    "seed {seed}: defect {:?} must be caught by the front end",
                    bad.defect
                );
                accepted += 1;
                continue;
            }
            Err(e) => e.diagnostics,
        };
        assert!(!diags.is_empty(), "seed {seed}");
        let text: String = diags
            .iter()
            .map(|d| d.message.clone())
            .collect::<Vec<_>>()
            .join("\n");
        let expected = match bad.defect {
            Defect::ModuleRecursion => "recursi",
            Defect::UnwrittenOutput => "never written",
            Defect::NonRationalLiteral => "exact rational",
            Defect::RateMismatch => "", // may or may not reach the front end
        };
        assert!(
            text.contains(expected),
            "seed {seed}: diagnostics for {:?} should mention `{expected}`, got:\n{text}",
            bad.defect
        );
        diagnosed += 1;
    }
    assert_eq!((refused, accepted, diagnosed), (74, 62, 120));
}

/// Rate and latency literals survive `parse ∘ pretty` as the same exact
/// rationals: PAL's literals, a rate a double cannot scale (4.1 MHz), 21 and
/// 22 significant digits, and amounts far below a picosecond.
#[test]
fn exact_decimal_literals_roundtrip() {
    use oil_dataflow::Rational;
    use oil_lang::ast::{BufferDecl, ModuleBody};
    let int = Rational::from_int;
    for (rate, hz, amount, seconds) in [
        ("6.4 MHz", int(6_400_000), "0 ms", Rational::ZERO),
        ("4 MHz", int(4_000_000), "1 ms", Rational::new(1, 1000)),
        ("32 kHz", int(32_000), "0.5 s", Rational::new(1, 2)),
        ("4.1 MHz", int(4_100_000), "25 us", Rational::new(1, 40_000)),
        (
            "6.40000000000000000001 MHz",
            Rational::new(640_000_000_000_000_000_001, 100_000_000_000_000),
            "0.0000000000000000001 ms",
            Rational::new(1, 10i128.pow(22)),
        ),
        (
            "0.3333333333333333333333 MHz",
            Rational::new(3_333_333_333_333_333_333_333, 10i128.pow(16)),
            "0.00000000000000000000000000000000001 ms",
            Rational::new(1, 10i128.pow(38)),
        ),
    ] {
        let source = format!(
            "mod par D(){{ source int x = src() @ {rate}; sink int y = snk() @ 1 Hz; \
             start x {amount} before y; W(x, out y) }}"
        );
        let exact = |text: &str| {
            let program = parse_program(text).unwrap_or_else(|e| panic!("{rate}: {e}\n{text}"));
            let ModuleBody::Par(body) = &program.modules[0].body else {
                panic!("{rate}: parallel body expected");
            };
            let BufferDecl::Source { rate, .. } = &body.buffers[0] else {
                panic!("{rate}: source expected");
            };
            (rate.hz, body.latencies[0].amount_s, print_program(&program))
        };
        let (parsed_hz, parsed_s, printed) = exact(&source);
        assert_eq!((parsed_hz, parsed_s), (hz, seconds), "{rate}, {amount}");
        let (hz_again, s_again, printed_again) = exact(&printed);
        assert_eq!(
            (hz_again, s_again),
            (hz, seconds),
            "{rate}, {amount}:\n{printed}"
        );
        assert_eq!(printed_again, printed, "{rate}, {amount}");
    }
}

/// The lexer/parser never panic on mutated program text: random byte-level
/// mutations of valid programs produce either a parse or a diagnostic.
#[test]
fn mutated_sources_never_panic_the_parser() {
    for seed in 0..200u64 {
        let scenario = ProgramScenario::generate(seed % 40);
        let mut rng = GenRng::new(seed ^ 0xF00D);
        let mut bytes = scenario.source.into_bytes();
        // Apply a few random printable-byte mutations.
        for _ in 0..rng.range(1, 5) {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] = b' ' + (rng.below(94)) as u8;
        }
        if let Ok(mutated) = String::from_utf8(bytes) {
            // Must not panic; either verdict is acceptable.
            let _ = parse_program(&mutated);
        }
    }
}
