//! Random OIL program generation (the "level (b)" generator).
//!
//! Two kinds of output:
//!
//! * [`ProgramScenario`] — *valid* OIL programs: a chain of sequential
//!   modules (optionally wrapped in a nested `mod par`, optionally modal
//!   `if`/`switch` bodies, optionally an `init` prologue) between a
//!   time-triggered source and sink whose rates are constructed to satisfy
//!   the chain's rate conversions exactly. These drive the full
//!   `oil-lang → oil-compiler → oil-cta` pipeline; the oracle is the paper's
//!   core guarantee: *accepted ⇒ the simulated execution with CTA-sized
//!   buffers misses no deadline and overflows no buffer*.
//! * [`IllFormedProgram`] — *deliberately invalid* programs (module
//!   recursion, never-written outputs, rate mismatches, literals with no
//!   exact rational): the oracle is that the front end rejects them with
//!   diagnostics instead of panicking.
//!
//! A third generator, [`gen_ast`], produces random ASTs directly (deeper
//! statement nesting than the compile-safe subset) for the
//! `parse(pretty(ast))` round-trip property.

use crate::rng::GenRng;
use oil_lang::ast::{
    Access, Arg, BinOp, BufferDecl, CallArg, Case, Expr, Frequency, Ident, LatencyConstraint,
    LatencyRelation, Module, ModuleBody, ModuleCall, ModuleKind, ParBody, Program, SeqBody, Stmt,
    StreamParam, VarDecl,
};
use oil_lang::registry::{FunctionRegistry, FunctionSignature};
use oil_lang::span::Span;

/// The body shape of one generated sequential module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageShape {
    /// `loop{ f(a:n, out b:m); } while(1);`
    Plain,
    /// `loop{ if(...){ t = g(a:n); } else { t = h(a:n); } k(t, out b:m); } while(1);`
    Modal,
    /// As [`StageShape::Modal`] but with a `switch` over an opaque value.
    Switch,
}

/// One stage of a generated pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// Tokens consumed from the input stream per loop iteration.
    pub consume: u64,
    /// Tokens produced on the output stream per loop iteration.
    pub produce: u64,
    /// Which body the module has.
    pub shape: StageShape,
    /// Initial tokens written by an `init` prologue, if any.
    pub init_tokens: Option<u64>,
    /// Firing rate of this stage in Hz (iterations per second), implied by
    /// the source rate and the upstream conversions. Always an integer by
    /// construction.
    pub firing_hz: u64,
}

/// A generated, well-formed OIL program plus everything needed to compile
/// and simulate it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramScenario {
    /// The generating seed — quoted in every failure message.
    pub seed: u64,
    /// OIL source text.
    pub source: String,
    /// Registry with the response times of every coordinated function.
    pub registry: FunctionRegistry,
    /// The pipeline stages, upstream first.
    pub stages: Vec<Stage>,
    /// Source sampling rate in Hz.
    pub source_hz: u64,
    /// Sink consumption rate in Hz.
    pub sink_hz: u64,
    /// End-to-end latency bound in ms, when one was emitted.
    pub latency_ms: Option<u64>,
    /// True when two stages were wrapped in a nested `mod par` module.
    pub nested: bool,
}

impl ProgramScenario {
    /// Generate the program for `seed`.
    pub fn generate(seed: u64) -> Self {
        let mut rng = GenRng::new(seed);
        let n_stages = rng.range(1, 3) as usize;
        let consumes: Vec<u64> = (0..n_stages).map(|_| rng.range(1, 3)).collect();
        let produces: Vec<u64> = (0..n_stages).map(|_| rng.range(1, 3)).collect();

        // Source rate `base · Π consume_i` makes every intermediate rate and
        // every firing rate an integer: stage i fires at
        // base · Π_{j<i} produce_j · Π_{j>i} consume_j. The floor of 25 Hz
        // keeps even the slowest stage ticking often enough that a fraction
        // of a second of simulated time exercises the steady state.
        let base = rng.range(25, 100);
        let source_hz = base * consumes.iter().product::<u64>();
        let mut rate = source_hz;
        let mut stages = Vec::with_capacity(n_stages);
        for i in 0..n_stages {
            let firing_hz = rate / consumes[i];
            rate = firing_hz * produces[i];
            let shape = match rng.below(3) {
                0 => StageShape::Plain,
                1 => StageShape::Modal,
                _ => StageShape::Switch,
            };
            let init_tokens = rng.chance(1, 3).then(|| rng.range(1, 4));
            stages.push(Stage {
                consume: consumes[i],
                produce: produces[i],
                shape,
                init_tokens,
                firing_hz,
            });
        }
        let sink_hz = rate;

        // A generous latency bound: tight bounds are a *valid* reason for the
        // compiler to reject, but most generated instances should compile so
        // the accepted⇒simulates-cleanly oracle gets coverage.
        let slowest_period_ms = stages
            .iter()
            .map(|s| 1000.0 / s.firing_hz as f64)
            .fold(1000.0 / source_hz as f64, f64::max);
        let latency_ms = rng
            .chance(1, 2)
            .then(|| 50 + (slowest_period_ms * 64.0).ceil() as u64);

        let nested = n_stages >= 2 && rng.chance(1, 3);

        // Response times: a quarter of each stage's firing period keeps every
        // instance schedulable on one processor per task.
        let mut registry = FunctionRegistry::new();
        for (i, s) in stages.iter().enumerate() {
            let rho = 0.25 / s.firing_hz as f64;
            for prefix in ["f", "g", "h", "k"] {
                registry.register(FunctionSignature::pure(format!("{prefix}{i}"), rho));
            }
            registry.register(FunctionSignature::pure(format!("init{i}"), 1e-6));
        }
        registry.register(FunctionSignature::pure("src", 1e-7));
        registry.register(FunctionSignature::pure("snk", 1e-7));

        let source = render_program(&stages, source_hz, sink_hz, latency_ms, nested);
        ProgramScenario {
            seed,
            source,
            registry,
            stages,
            source_hz,
            sink_hz,
            latency_ms,
            nested,
        }
    }
}

impl ProgramScenario {
    /// Generate an **SDR-flavoured** scenario: an FM-receiver-style chain
    /// `wideband source → decimator → demod → audio resampler → sink`,
    /// seeded like [`ProgramScenario::generate`] but with the rate
    /// structure of a software-defined-radio front end (a fast wideband
    /// source feeding a high-ratio decimation, a samplewise demodulator,
    /// and a small-ratio audio resampler) instead of the generic chain
    /// shapes. Widens the differential corpus beyond PAL and the synthetic
    /// wide/chain graphs; `bench/src/programs.rs`'s `sdr_program` has the
    /// same topology with real DSP kernels.
    pub fn generate_sdr(seed: u64) -> Self {
        let mut rng = GenRng::new(seed ^ 0x5D12_AD10);
        // Audio base rate and the conversion factors, kept small enough
        // that a fraction of a second of virtual time reaches steady state.
        let base = rng.range(20, 60) * 10; // 200..=600 Hz audio grain
        let decim = *rng.pick(&[4, 8, 16]); // wideband → IF decimation
        let (res_up, res_down) = *rng.pick(&[(1u64, 1u64), (3, 2), (2, 3), (5, 4)]);
        // Anchoring the demod rate at `base·res_up` keeps every stage's
        // firing rate an integer: the resampler consumes `res_up` per
        // firing and fires at exactly `base`.
        let demod_hz = base * res_up; // demod/decimator-output rate
        let source_hz = demod_hz * decim;
        let sink_hz = base * res_down;
        let stages = vec![
            Stage {
                consume: decim,
                produce: 1,
                shape: StageShape::Plain,
                init_tokens: None,
                firing_hz: demod_hz,
            },
            Stage {
                consume: 1,
                produce: 1,
                shape: StageShape::Plain,
                init_tokens: None,
                firing_hz: demod_hz,
            },
            Stage {
                consume: res_up,
                produce: res_down,
                shape: StageShape::Plain,
                init_tokens: None,
                firing_hz: base,
            },
        ];
        let mut registry = FunctionRegistry::new();
        for (i, s) in stages.iter().enumerate() {
            let rho = 0.25 / s.firing_hz as f64;
            for prefix in ["f", "g", "h", "k"] {
                registry.register(FunctionSignature::pure(format!("{prefix}{i}"), rho));
            }
            registry.register(FunctionSignature::pure(format!("init{i}"), 1e-6));
        }
        registry.register(FunctionSignature::pure("src", 1e-7));
        registry.register(FunctionSignature::pure("snk", 1e-7));
        let source = render_program(&stages, source_hz, sink_hz, None, false);
        ProgramScenario {
            seed,
            source,
            registry,
            stages,
            source_hz,
            sink_hz,
            latency_ms: None,
            nested: false,
        }
    }
}

fn render_stage_module(i: usize, stage: &Stage) -> String {
    let mut body = String::new();
    if let Some(tokens) = stage.init_tokens {
        body.push_str(&format!("    init{i}(out b:{tokens});\n"));
    }
    let (consume, produce) = (stage.consume, stage.produce);
    let call = match stage.shape {
        StageShape::Plain => format!("f{i}(a:{consume}, out b:{produce});"),
        StageShape::Modal => format!(
            "if(...){{ t = g{i}(a:{consume}); }} else {{ t = h{i}(a:{consume}); }} \
             k{i}(t, out b:{produce});"
        ),
        StageShape::Switch => format!(
            "switch(...) case 0 {{ t = g{i}(a:{consume}); }} default {{ t = h{i}(a:{consume}); }} \
             k{i}(t, out b:{produce});"
        ),
    };
    let decl = match stage.shape {
        StageShape::Plain => String::new(),
        _ => "    int t;\n".to_string(),
    };
    format!("mod seq S{i}(int a, out int b){{\n{decl}{body}    loop{{ {call} }} while(1);\n}}\n")
}

fn render_program(
    stages: &[Stage],
    source_hz: u64,
    sink_hz: u64,
    latency_ms: Option<u64>,
    nested: bool,
) -> String {
    let mut out = String::new();
    for (i, s) in stages.iter().enumerate() {
        out.push_str(&render_stage_module(i, s));
    }
    // Optionally wrap the first two stages in a nested par module.
    let calls_nested = nested && stages.len() >= 2;
    if calls_nested {
        out.push_str(
            "mod par P(int a, out int b){\n    fifo int z;\n    S0(a, out z) || S1(z, out b)\n}\n",
        );
    }
    out.push_str("mod par Top(){\n");
    let chain_len = stages.len();
    // Intermediate fifos between top-level instantiations.
    let n_units = if calls_nested {
        chain_len - 1
    } else {
        chain_len
    };
    for i in 0..n_units.saturating_sub(1) {
        out.push_str(&format!("    fifo int m{i};\n"));
    }
    out.push_str(&format!("    source int x = src() @ {source_hz} Hz;\n"));
    out.push_str(&format!("    sink int y = snk() @ {sink_hz} Hz;\n"));
    if let Some(ms) = latency_ms {
        out.push_str(&format!("    start x {ms} ms before y;\n"));
    }
    // The instantiation chain: nested P replaces S0 and S1.
    let mut units: Vec<String> = Vec::new();
    if calls_nested {
        units.push("P".to_string());
        for i in 2..chain_len {
            units.push(format!("S{i}"));
        }
    } else {
        for i in 0..chain_len {
            units.push(format!("S{i}"));
        }
    }
    let mut calls = Vec::new();
    for (i, unit) in units.iter().enumerate() {
        let input = if i == 0 {
            "x".to_string()
        } else {
            format!("m{}", i - 1)
        };
        let output = if i == units.len() - 1 {
            "y".to_string()
        } else {
            format!("m{i}")
        };
        calls.push(format!("{unit}({input}, out {output})"));
    }
    out.push_str(&format!("    {}\n}}\n", calls.join(" || ")));
    out
}

/// The kind of defect an [`IllFormedProgram`] carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defect {
    /// Two `mod par` modules instantiating each other.
    ModuleRecursion,
    /// A declared output stream that no statement writes.
    UnwrittenOutput,
    /// Source and sink rates incompatible with the chain's conversion ratio.
    RateMismatch,
    /// A frequency literal too large for any exact `i128` rational.
    NonRationalLiteral,
}

/// A deliberately ill-formed program and the defect it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IllFormedProgram {
    /// The generating seed.
    pub seed: u64,
    /// OIL source text.
    pub source: String,
    /// Which rule the program violates.
    pub defect: Defect,
}

impl IllFormedProgram {
    /// Generate an ill-formed program for `seed`, cycling through the defect
    /// kinds.
    pub fn generate(seed: u64) -> Self {
        let mut rng = GenRng::new(seed ^ 0xD1FF);
        let defect = *rng.pick(&[
            Defect::ModuleRecursion,
            Defect::UnwrittenOutput,
            Defect::RateMismatch,
            Defect::NonRationalLiteral,
        ]);
        let rate = rng.range(1, 50) * 100;
        let source = match defect {
            Defect::ModuleRecursion => format!(
                "mod par A(int x, out int y){{ B(x, out y) }}\n\
                 mod par B(int x, out int y){{ A(x, out y) }}\n\
                 mod par Top(){{\n    source int x = src() @ {rate} Hz;\n    \
                 sink int y = snk() @ {rate} Hz;\n    A(x, out y)\n}}\n"
            ),
            Defect::UnwrittenOutput => format!(
                "mod seq W(int a, out int b){{ loop{{ f0(a); }} while(1); }}\n\
                 mod par Top(){{\n    source int x = src() @ {rate} Hz;\n    \
                 sink int y = snk() @ {rate} Hz;\n    W(x, out y)\n}}\n"
            ),
            Defect::RateMismatch => {
                let k = rng.range(2, 5);
                format!(
                    "mod seq W(int a, out int b){{ loop{{ f0(a:{k}, out b); }} while(1); }}\n\
                     mod par Top(){{\n    source int x = src() @ {rate} Hz;\n    \
                     sink int y = snk() @ {rate} Hz;\n    W(x, out y)\n}}\n"
                )
            }
            Defect::NonRationalLiteral => format!(
                "mod seq W(int a, out int b){{ loop{{ f0(a, out b); }} while(1); }}\n\
                 mod par Top(){{\n    source int x = src() @ \
                 9{}.0 Hz;\n    sink int y = snk() @ {rate} Hz;\n    W(x, out y)\n}}\n",
                "9".repeat(44)
            ),
        };
        IllFormedProgram {
            seed,
            source,
            defect,
        }
    }

    /// A registry accepting this program's functions (the defect is in the
    /// coordination structure, not in unknown functions).
    pub fn registry(&self) -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        for f in ["f0", "src", "snk"] {
            reg.register(FunctionSignature::pure(f, 1e-6));
        }
        reg
    }
}

// ---------------------------------------------------------------------------
// Random AST generation for the pretty-printer round trip.
// ---------------------------------------------------------------------------

fn ident(name: impl Into<String>) -> Ident {
    Ident::synthetic(name)
}

fn sp() -> Span {
    Span::synthetic()
}

fn gen_expr(rng: &mut GenRng, depth: u32) -> Expr {
    if depth == 0 {
        return match rng.below(4) {
            0 => Expr::Int(rng.range(0, 99) as i64, sp()),
            1 => Expr::Var(Access::simple(ident(format!("v{}", rng.below(4)))), sp()),
            2 => Expr::Opaque(sp()),
            _ => Expr::Float((rng.range(1, 8) as f64) / 4.0, sp()),
        };
    }
    match rng.below(7) {
        0 => Expr::Int(rng.range(0, 99) as i64, sp()),
        1 => Expr::Var(
            Access {
                name: ident(format!("v{}", rng.below(4))),
                rate: rng.chance(1, 3).then(|| rng.range(2, 4)),
                slice: None,
            },
            sp(),
        ),
        2 => Expr::Opaque(sp()),
        3 => Expr::Not(Box::new(gen_expr(rng, depth - 1)), sp()),
        4 => Expr::Call {
            func: ident(format!("fn{}", rng.below(3))),
            args: (0..rng.below(3))
                .map(|_| gen_expr(rng, depth - 1))
                .collect(),
            span: sp(),
        },
        _ => {
            let op = *rng.pick(&[
                BinOp::Mul,
                BinOp::Div,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::And,
            ]);
            Expr::Binary {
                op,
                lhs: Box::new(gen_expr(rng, depth - 1)),
                rhs: Box::new(gen_expr(rng, depth - 1)),
                span: sp(),
            }
        }
    }
}

fn gen_access(rng: &mut GenRng) -> Access {
    let name = ident(format!("v{}", rng.below(4)));
    match rng.below(3) {
        0 => Access::simple(name),
        1 => Access {
            name,
            rate: Some(rng.range(2, 5)),
            slice: None,
        },
        _ => {
            let lo = rng.range(0, 3);
            Access {
                name,
                rate: None,
                slice: Some((lo, lo + rng.range(0, 3))),
            }
        }
    }
}

fn gen_stmt(rng: &mut GenRng, depth: u32) -> Stmt {
    let leaf = depth == 0;
    match if leaf { rng.below(2) } else { rng.below(5) } {
        0 => Stmt::Assign {
            target: gen_access(rng),
            value: gen_expr(rng, 2),
            span: sp(),
        },
        1 => Stmt::Call {
            func: ident(format!("fn{}", rng.below(3))),
            args: (0..rng.range(1, 3))
                .map(|_| {
                    if rng.chance(1, 2) {
                        Arg::Out(gen_access(rng))
                    } else {
                        Arg::In(gen_expr(rng, 1))
                    }
                })
                .collect(),
            span: sp(),
        },
        2 => Stmt::If {
            cond: gen_expr(rng, 2),
            then_branch: gen_block(rng, depth - 1),
            else_branch: if rng.chance(1, 2) {
                gen_block(rng, depth - 1)
            } else {
                Vec::new()
            },
            span: sp(),
        },
        3 => Stmt::Switch {
            scrutinee: gen_expr(rng, 1),
            cases: (0..rng.range(1, 3))
                .map(|v| Case {
                    value: v as i64,
                    body: gen_block(rng, depth - 1),
                    span: sp(),
                })
                .collect(),
            default: gen_block(rng, depth - 1),
            span: sp(),
        },
        _ => Stmt::LoopWhile {
            body: gen_block(rng, depth - 1),
            cond: if rng.chance(1, 2) {
                Expr::Int(1, sp())
            } else {
                Expr::Opaque(sp())
            },
            span: sp(),
        },
    }
}

fn gen_block(rng: &mut GenRng, depth: u32) -> Vec<Stmt> {
    (0..rng.range(1, 3)).map(|_| gen_stmt(rng, depth)).collect()
}

/// Generate a random (syntactically well-formed, semantically arbitrary) OIL
/// AST for the `parse(pretty(ast))` round-trip property: modules with
/// parameters, buffer declarations, latency constraints, nested control
/// statements, multi-rate and sliced accesses.
pub fn gen_ast(seed: u64) -> Program {
    let mut rng = GenRng::new(seed ^ 0xA57);
    let mut modules = Vec::new();
    for mi in 0..rng.range(1, 3) {
        let seq = rng.chance(2, 3);
        if seq {
            let vars = (0..rng.below(3))
                .map(|vi| VarDecl {
                    ty: ident("int"),
                    name: ident(format!("v{vi}")),
                    array_len: rng.chance(1, 3).then(|| rng.range(2, 8)),
                    span: sp(),
                })
                .collect();
            modules.push(Module {
                name: Some(ident(format!("M{mi}"))),
                kind: ModuleKind::Seq,
                params: vec![
                    StreamParam {
                        out: false,
                        ty: ident("int"),
                        name: ident("a"),
                    },
                    StreamParam {
                        out: true,
                        ty: ident("int"),
                        name: ident("b"),
                    },
                ],
                body: ModuleBody::Seq(SeqBody {
                    vars,
                    stmts: gen_block(&mut rng, 2),
                }),
                span: sp(),
            });
        } else {
            let buffers = vec![
                BufferDecl::Fifo {
                    ty: ident("int"),
                    names: vec![ident("q0"), ident("q1")],
                    span: sp(),
                },
                BufferDecl::Source {
                    ty: ident("int"),
                    name: ident("sx"),
                    func: ident("src"),
                    rate: Frequency::from_hz(rng.range(1, 100) as f64 * 100.0),
                    span: sp(),
                },
                BufferDecl::Sink {
                    ty: ident("int"),
                    name: ident("sy"),
                    func: ident("snk"),
                    rate: Frequency::from_hz(rng.range(1, 100) as f64 * 100.0),
                    span: sp(),
                },
            ];
            let latencies = if rng.chance(1, 2) {
                vec![LatencyConstraint {
                    subject: ident("sx"),
                    amount_ms: rng.range(1, 50) as f64,
                    relation: if rng.chance(1, 2) {
                        LatencyRelation::Before
                    } else {
                        LatencyRelation::After
                    },
                    reference: ident("sy"),
                    span: sp(),
                }]
            } else {
                Vec::new()
            };
            let calls = vec![ModuleCall {
                module: ident(format!("M{mi}")),
                args: vec![
                    CallArg {
                        out: false,
                        name: ident("sx"),
                    },
                    CallArg {
                        out: true,
                        name: ident("sy"),
                    },
                ],
                span: sp(),
            }];
            modules.push(Module {
                name: Some(ident(format!("P{mi}"))),
                kind: ModuleKind::Par,
                params: Vec::new(),
                body: ModuleBody::Par(ParBody {
                    buffers,
                    latencies,
                    calls,
                }),
                span: sp(),
            });
        }
    }
    Program { modules }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_compiler::{compile, CompileError, CompilerOptions};

    #[test]
    fn generated_programs_are_deterministic() {
        for seed in 0..16 {
            assert_eq!(
                ProgramScenario::generate(seed),
                ProgramScenario::generate(seed)
            );
            assert_eq!(
                IllFormedProgram::generate(seed),
                IllFormedProgram::generate(seed)
            );
        }
    }

    #[test]
    fn generated_programs_compile() {
        let mut compiled_ok = 0;
        for seed in 0..48 {
            let s = ProgramScenario::generate(seed);
            match compile(&s.source, &s.registry, &CompilerOptions::default()) {
                Ok(_) => compiled_ok += 1,
                Err(CompileError::Frontend(diags)) => panic!(
                    "seed {seed}: generated program must be front-end valid, got {diags:?}\n{}",
                    s.source
                ),
                // Temporal rejections are legitimate (e.g. a tight latency
                // bound), but must stay the exception.
                Err(CompileError::Temporal(_)) => {}
            }
        }
        assert!(
            compiled_ok >= 40,
            "most generated programs must compile ({compiled_ok}/48)"
        );
    }

    #[test]
    fn sdr_scenarios_compile_and_have_radio_shaped_rates() {
        let mut compiled_ok = 0;
        for seed in 0..24 {
            let s = ProgramScenario::generate_sdr(seed);
            assert_eq!(s, ProgramScenario::generate_sdr(seed), "deterministic");
            assert_eq!(s.stages.len(), 3, "decimate → demod → resample");
            // The wideband source outpaces the audio sink by the decimation
            // ratio (scaled by the resampler).
            assert!(s.source_hz >= 4 * s.sink_hz / 2, "{}", s.source);
            let decim = &s.stages[0];
            assert!(decim.consume >= 4 && decim.produce == 1);
            // Rates multiply through the chain exactly.
            let mut rate = s.source_hz;
            for stage in &s.stages {
                assert_eq!(rate % stage.consume, 0, "seed {seed}");
                rate = (rate / stage.consume) * stage.produce;
            }
            assert_eq!(rate, s.sink_hz, "seed {seed}");
            if compile(&s.source, &s.registry, &CompilerOptions::default()).is_ok() {
                compiled_ok += 1;
            }
        }
        assert!(
            compiled_ok >= 20,
            "most SDR programs compile ({compiled_ok}/24)"
        );
    }

    #[test]
    fn stage_rates_multiply_through_the_chain() {
        for seed in 0..32 {
            let s = ProgramScenario::generate(seed);
            let mut rate = s.source_hz;
            for stage in &s.stages {
                assert_eq!(rate % stage.consume, 0, "seed {seed}");
                assert_eq!(stage.firing_hz, rate / stage.consume, "seed {seed}");
                rate = stage.firing_hz * stage.produce;
            }
            assert_eq!(rate, s.sink_hz, "seed {seed}");
        }
    }

    #[test]
    fn ill_formed_programs_are_rejected_without_panic() {
        for seed in 0..48 {
            let bad = IllFormedProgram::generate(seed);
            let result = compile(&bad.source, &bad.registry(), &CompilerOptions::default());
            assert!(
                result.is_err(),
                "seed {seed}: defect {:?} must be rejected\n{}",
                bad.defect,
                bad.source
            );
            if matches!(
                bad.defect,
                Defect::ModuleRecursion | Defect::UnwrittenOutput | Defect::NonRationalLiteral
            ) {
                assert!(
                    matches!(result, Err(CompileError::Frontend(ref d)) if !d.is_empty()),
                    "seed {seed}: defect {:?} must carry front-end diagnostics",
                    bad.defect
                );
            }
        }
    }

    #[test]
    fn ast_round_trip_through_pretty_printer() {
        use oil_lang::parse_program;
        use oil_lang::pretty::print_program;
        for seed in 0..64 {
            let ast = gen_ast(seed);
            let printed = print_program(&ast);
            let reparsed = parse_program(&printed).unwrap_or_else(|e| {
                panic!("seed {seed}: printed program must parse: {e}\n{printed}")
            });
            assert_eq!(
                print_program(&reparsed),
                printed,
                "seed {seed}: pretty-print normal form must be a fixed point"
            );
            assert_eq!(reparsed.modules.len(), ast.modules.len(), "seed {seed}");
        }
    }
}
