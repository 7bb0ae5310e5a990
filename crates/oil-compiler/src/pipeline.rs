//! The end-to-end compilation pipeline.
//!
//! [`compile`] runs the whole flow of the paper on one OIL source text:
//! front end → task-graph extraction → CTA derivation → consistency check →
//! buffer sizing → code generation, and returns everything the examples,
//! benches and the simulator need in one [`CompiledProgram`].

use crate::buffers::{plan_buffers, BufferPlan};
use crate::codegen::{generate_module_code, GeneratedCode};
use crate::derive::{derive_cta_model, DerivedModel};
use oil_cta::{BufferSizingError, ConsistencyResult, CtaModel, Rational};
use oil_lang::registry::FunctionRegistry;
use oil_lang::sema::AnalyzedProgram;
use oil_lang::Diagnostic;

/// Options controlling compilation. Every stage always runs, so there is
/// nothing to set; the type keeps [`compile`]'s signature stable.
#[derive(Debug, Clone, Default)]
pub struct CompilerOptions {}

/// A fully compiled OIL program.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// The analysed program (AST + flattened application graph).
    pub analyzed: AnalyzedProgram,
    /// The derived CTA model and its lookup tables.
    pub derived: DerivedModel,
    /// The CTA model with sized buffer capacities applied.
    pub sized_model: CtaModel,
    /// The consistency result of the sized model (rates and offsets).
    pub consistency: ConsistencyResult,
    /// Buffer capacities for channels and local variables.
    pub buffers: BufferPlan,
    /// Generated task code per non-black-box instance.
    pub generated: Vec<GeneratedCode>,
}

impl CompiledProgram {
    /// The exact rate (events/s) at which a channel's data port transfers
    /// data, looked up by channel name suffix.
    pub fn channel_rate_exact(&self, name: &str) -> Option<Rational> {
        let (ci, _) = self.analyzed.graph.channel_named(name)?;
        let ports = &self.derived.channel_ports[ci];
        let port = ports
            .data_out
            .or_else(|| ports.reader_in.first().copied())?;
        Some(self.consistency.rates[port])
    }

    /// As [`Self::channel_rate_exact`], converted to `f64` at the API
    /// boundary (lossless by construction for rates that fit a double).
    pub fn channel_rate(&self, name: &str) -> Option<f64> {
        self.channel_rate_exact(name).map(|r| r.to_f64())
    }

    /// Exact end-to-end latency bound (seconds) from a source channel to a
    /// sink channel along the critical path of the sized model.
    pub fn latency_between_exact(&self, source: &str, sink: &str) -> Option<Rational> {
        let (si, _) = self.analyzed.graph.channel_named(source)?;
        let (ki, _) = self.analyzed.graph.channel_named(sink)?;
        let from = self.derived.channel_ports[si].data_out?;
        let to = *self.derived.channel_ports[ki].reader_in.first()?;
        oil_cta::check_latency_path(&self.sized_model, &self.consistency, from, to)
            .map(|r| r.latency)
    }

    /// As [`Self::latency_between_exact`], converted to `f64` at the API
    /// boundary.
    pub fn latency_between(&self, source: &str, sink: &str) -> Option<f64> {
        self.latency_between_exact(source, sink).map(|r| r.to_f64())
    }
}

/// Why compilation failed.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// Parse or semantic errors.
    Frontend(Vec<Diagnostic>),
    /// The temporal constraints cannot be satisfied (rate conflicts,
    /// unattainable source/sink rates or latency bounds).
    Temporal(BufferSizingError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Frontend(diags) => {
                writeln!(f, "front-end errors:")?;
                for d in diags {
                    writeln!(f, "  {d}")?;
                }
                Ok(())
            }
            CompileError::Temporal(e) => write!(f, "temporal analysis failed: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile an OIL program from source text.
pub fn compile(
    source: &str,
    registry: &FunctionRegistry,
    _options: &CompilerOptions,
) -> Result<CompiledProgram, CompileError> {
    let analyzed = oil_lang::frontend(source, registry).map_err(CompileError::Frontend)?;
    let derived = derive_cta_model(&analyzed, registry);
    let (buffers, sized_model) =
        plan_buffers(&analyzed, &derived).map_err(CompileError::Temporal)?;

    // Rates not pinned by a source or sink settle at their maximal achievable
    // value (the paper's consistency algorithm reports exactly these, and the
    // exact-rational implementation computes them without any tolerance).
    let consistency = sized_model
        .consistency_at_maximal_rates()
        .map_err(|e| CompileError::Temporal(BufferSizingError::Unfixable(e)))?;

    let generated = derived
        .task_graphs
        .iter()
        .zip(&analyzed.graph.instances)
        .filter_map(|(tg, inst)| tg.as_ref().map(|tg| generate_module_code(&inst.path, tg)))
        .collect();

    Ok(CompiledProgram {
        analyzed,
        derived,
        sized_model,
        consistency,
        buffers,
        generated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use oil_lang::registry::FunctionSignature;

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "h", "k", "init", "src", "snk"] {
            r.register(FunctionSignature::pure(f, 1e-6));
        }
        r
    }

    const FIG6: &str = r#"
        mod seq B(int a, out int z){ loop{ f(a, out z); } while(1); }
        mod seq C(int a, int z, out int b){ loop{ g(a, z, out b); } while(1); }
        mod par A(int a, out int b){
            fifo int z;
            B(a, out z) || C(a, z, out b)
        }
        mod par D(){
            source int x = src() @ 1 kHz;
            sink int y = snk() @ 1 kHz;
            start x 5 ms before y;
            A(x, out y)
        }
    "#;

    #[test]
    fn compile_fig6_end_to_end() {
        let compiled = compile(FIG6, &registry(), &CompilerOptions::default()).unwrap();
        // Channels: x (source), y (sink), z (fifo) all sized.
        assert_eq!(compiled.buffers.channels.len(), 3);
        // Source and sink run at exactly 1 kHz — exact rate equality, no
        // epsilon comparisons.
        assert_eq!(
            compiled.channel_rate_exact("x"),
            Some(Rational::from_int(1000))
        );
        assert_eq!(
            compiled.channel_rate_exact("y"),
            Some(Rational::from_int(1000))
        );
        assert_eq!(compiled.channel_rate("x"), Some(1000.0));
        assert_eq!(compiled.channel_rate("y"), Some(1000.0));
        // The end-to-end latency respects the 5 ms constraint, exactly.
        let latency = compiled.latency_between_exact("x", "y").unwrap();
        assert!(latency <= Rational::new(5, 1000), "latency {latency}");
        // Two generated modules (B and C).
        assert_eq!(compiled.generated.len(), 2);
    }

    #[test]
    fn compile_rejects_frontend_errors() {
        let err = compile(
            "mod seq A(out int a){ f(out a) }",
            &registry(),
            &CompilerOptions::default(),
        );
        assert!(matches!(err, Err(CompileError::Frontend(_))));
        let err2 = compile(
            "mod seq A(int a, out int b){ loop{ f(a); } while(1); }",
            &registry(),
            &CompilerOptions::default(),
        );
        assert!(matches!(err2, Err(CompileError::Frontend(_))));
    }

    #[test]
    fn compile_rejects_unattainable_latency() {
        let mut reg = registry();
        reg.register(FunctionSignature::pure("slow", 50e-3));
        let src = r#"
            mod seq W(int a, out int b){ loop{ slow(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 10 Hz;
                sink int y = snk() @ 10 Hz;
                start x 5 ms before y;
                W(x, out y)
            }
        "#;
        assert!(matches!(
            compile(src, &reg, &CompilerOptions::default()),
            Err(CompileError::Temporal(_))
        ));
    }

    #[test]
    fn fig2c_rates_follow_colon_notation() {
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let compiled = compile(src, &registry(), &CompilerOptions::default()).unwrap();
        // Channel x is written 3-at-a-time by A and read 2-at-a-time by B;
        // both see *exactly* the same token rate.
        let rx = compiled.channel_rate_exact("x").unwrap();
        let ry = compiled.channel_rate_exact("y").unwrap();
        assert!(rx.is_positive() && ry.is_positive());
        assert_eq!(rx, ry, "token rates must match exactly, got {rx} vs {ry}");
    }

    #[test]
    fn compilation_is_deterministic() {
        // Exact arithmetic end to end: recompiling yields bit-identical
        // consistency results and buffer plans.
        let first = compile(FIG6, &registry(), &CompilerOptions::default()).unwrap();
        for _ in 0..3 {
            let again = compile(FIG6, &registry(), &CompilerOptions::default()).unwrap();
            assert_eq!(again.consistency, first.consistency);
            assert_eq!(again.buffers, first.buffers);
        }
    }
}
