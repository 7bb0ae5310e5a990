//! Semantic analysis of OIL programs.
//!
//! Analysis proceeds in three phases:
//!
//! 1. **Restriction checks** (`restrict`): the rules that keep OIL
//!    analysable — unique module names, no (mutual) recursion between modules,
//!    no instantiation of modules from sequential code, matching instantiation
//!    arities/directions and side-effect-free coordinated functions.
//! 2. **Stream-access checks** (`streams`): the rules of Section IV-A of the
//!    paper — output streams must be written every loop iteration, streams of
//!    a sequential module should be accessed in every top-level while-loop so
//!    that sources and sinks can remain strictly periodic.
//! 3. **Flattening** (`flatten`): the hierarchy of `mod par` instantiations
//!    is expanded into a flat application graph of leaf instances (sequential
//!    modules and black boxes) connected by channels (FIFOs, sources, sinks),
//!    which is the structure the compiler derives task graphs and CTA models
//!    from.

mod flatten;
mod restrict;
mod streams;

pub use flatten::{
    AppGraph, Binding, Channel, ChannelKind, InstanceId, LatencySpec, ModuleInstance,
};
pub use streams::written_streams;

use crate::ast::Program;
use crate::registry::FunctionRegistry;
use crate::span::Diagnostic;

/// The result of successful semantic analysis.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The analysed program.
    pub program: Program,
    /// Non-fatal diagnostics (warnings) produced during analysis.
    pub warnings: Vec<Diagnostic>,
    /// The flattened application graph rooted at the top module.
    pub graph: AppGraph,
}

/// Semantic analysis failure: one or more error diagnostics.
#[derive(Debug, Clone)]
pub struct SemaError {
    /// All diagnostics, errors and warnings alike.
    pub diagnostics: Vec<Diagnostic>,
}

impl std::fmt::Display for SemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SemaError {}

/// Run all semantic checks on `program` and flatten its module hierarchy.
pub fn analyze(
    program: &Program,
    registry: &FunctionRegistry,
) -> Result<AnalyzedProgram, SemaError> {
    let mut diagnostics = Vec::new();

    restrict::check(program, registry, &mut diagnostics);
    streams::check(program, &mut diagnostics);

    if diagnostics.iter().any(Diagnostic::is_error) {
        return Err(SemaError { diagnostics });
    }

    let graph = flatten::flatten(program, registry, &mut diagnostics);
    if diagnostics.iter().any(Diagnostic::is_error) {
        return Err(SemaError { diagnostics });
    }
    let graph = graph.expect("flatten returns a graph when no errors were emitted");

    let warnings = diagnostics;
    Ok(AnalyzedProgram {
        program: program.clone(),
        warnings,
        graph,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::registry::{BlackBoxInterface, FunctionRegistry, FunctionSignature};

    fn registry() -> FunctionRegistry {
        let mut reg = FunctionRegistry::new();
        for f in [
            "f", "g", "h", "k", "init", "src", "snk", "LPF", "resamp", "mix",
        ] {
            reg.register(FunctionSignature::pure(f, 1e-6));
        }
        reg
    }

    #[test]
    fn analyze_rate_conversion_program() {
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let analyzed = analyze(&parse_program(src).unwrap(), &registry()).unwrap();
        assert_eq!(analyzed.graph.instances.len(), 2);
        assert_eq!(analyzed.graph.channels.len(), 2);
        // Both channels have exactly one writer and one reader.
        for ch in &analyzed.graph.channels {
            assert!(ch.writer.is_some());
            assert_eq!(ch.readers.len(), 1);
        }
    }

    #[test]
    fn analyze_nested_hierarchy_with_sources() {
        let src = r#"
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
        let analyzed = analyze(&parse_program(src).unwrap(), &registry()).unwrap();
        // Two leaf instances: D.A.B and D.A.C.
        assert_eq!(analyzed.graph.instances.len(), 2);
        let paths: Vec<&str> = analyzed
            .graph
            .instances
            .iter()
            .map(|i| i.path.as_str())
            .collect();
        assert!(paths.iter().any(|p| p.ends_with("B")));
        assert!(paths.iter().any(|p| p.ends_with("C")));
        // Channels: x (source), y (sink), z (fifo).
        assert_eq!(analyzed.graph.channels.len(), 3);
        assert_eq!(
            analyzed
                .graph
                .channels
                .iter()
                .filter(|c| matches!(c.kind, ChannelKind::Source { .. }))
                .count(),
            1
        );
        assert_eq!(analyzed.graph.latencies.len(), 1);
        // Source channel x is read by both B and C (same data, multiple readers).
        let x = analyzed
            .graph
            .channels
            .iter()
            .find(|c| matches!(c.kind, ChannelKind::Source { .. }))
            .unwrap();
        assert_eq!(x.readers.len(), 2);
        assert!(x.writer.is_none());
    }

    #[test]
    fn black_box_modules_are_leaf_instances() {
        let src = r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par Top(){
                fifo int m;
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                W(x, out m) || Video(m, out y)
            }
        "#;
        let mut reg = registry();
        reg.register_black_box(BlackBoxInterface::new("Video", vec![1], vec![1], 1e-6));
        let analyzed = analyze(&parse_program(src).unwrap(), &reg).unwrap();
        assert_eq!(analyzed.graph.instances.len(), 2);
        let video = analyzed
            .graph
            .instances
            .iter()
            .find(|i| i.module_name == "Video")
            .unwrap();
        assert!(video.black_box);
    }

    #[test]
    fn unknown_instantiated_module_without_interface_is_warning() {
        let src = r#"
            mod par Top(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                Mystery(x, out y)
            }
        "#;
        let analyzed = analyze(&parse_program(src).unwrap(), &registry()).unwrap();
        assert!(analyzed
            .warnings
            .iter()
            .any(|w| w.message.contains("Mystery") && w.message.contains("black box")));
    }

    #[test]
    fn recursion_between_modules_is_rejected() {
        let src = r#"
            mod par A(int x, out int y){ B(x, out y) }
            mod par B(int x, out int y){ A(x, out y) }
        "#;
        let err = analyze(&parse_program(src).unwrap(), &registry()).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("recursi")));
    }

    #[test]
    fn fifo_with_two_writers_is_rejected() {
        let src = r#"
            mod seq P(out int o){ loop{ f(out o); } while(1); }
            mod seq Q(int i){ loop{ g(i); } while(1); }
            mod par Top(){
                fifo int c;
                P(out c) || P(out c) || Q(c)
            }
        "#;
        let err = analyze(&parse_program(src).unwrap(), &registry()).unwrap_err();
        assert!(err.diagnostics.iter().any(|d| d.message.contains("writer")));
    }

    #[test]
    fn impure_function_is_rejected() {
        let src = r#"mod seq A(out int a){ loop{ log_to_disk(out a); } while(1); }"#;
        let mut reg = registry();
        reg.register(FunctionSignature::impure("log_to_disk", 1e-6));
        let err = analyze(&parse_program(src).unwrap(), &reg).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("side-effect")));
    }

    #[test]
    fn output_stream_never_written_is_rejected() {
        let src = r#"mod seq A(int a, out int b){ loop{ f(a); } while(1); }"#;
        let err = analyze(&parse_program(src).unwrap(), &registry()).unwrap_err();
        assert!(err
            .diagnostics
            .iter()
            .any(|d| d.message.contains("never written")));
    }
}
