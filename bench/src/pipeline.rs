//! One compile op — OIL source text → `compile` → `lower` → `plan` →
//! `synthesize` — driven through the toolchain's public functions.
//!
//! Untraced, the front half is the one-call `compile`. Traced, the same
//! public stages `compile` strings together are called one by one with a
//! span around each, so every layer's share of the op is measured from
//! outside; the caller holds the two to the same verdict.

use crate::metrics::Measured;
use crate::programs::Program;
use crate::spans::Recorder;
use oil::compiler::buffers::plan_buffers;
use oil::compiler::codegen::generate_module_code;
use oil::compiler::rtgraph::{self, RtGraph, RtPlan};
use oil::compiler::schedule::{synthesize, StaticSchedule, SynthesisConfig};
use oil::compiler::{
    compile, derive_cta_model, CompileError, CompiledProgram, CompilerOptions, ScheduleError,
};
use oil::cta::{BufferSizingError, Rational};
use oil::lang::{analyze, Parser};
use std::fmt::Write as _;

/// What one op produced.
pub struct Op {
    pub compiled: Result<CompiledProgram, CompileError>,
    /// `Some` iff the program compiled.
    pub graph: Option<RtGraph>,
    pub plan: Option<RtPlan>,
    /// One entry per requested worker count (empty when rejected).
    pub schedules: Vec<Result<StaticSchedule, ScheduleError>>,
}

/// `oil_compiler::compile`, stage by stage, a span around each stage.
fn compile_staged(rec: &mut Recorder, p: &Program) -> Result<CompiledProgram, CompileError> {
    let mut parser = rec
        .span("lang.lex", |_| Parser::new(&p.source))
        .map_err(|d| CompileError::Frontend(vec![d]))?;
    let program = rec
        .span("lang.parse", |_| parser.parse())
        .map_err(|d| CompileError::Frontend(vec![d]))?;
    let analyzed = rec
        .span("lang.sema", |_| analyze(&program, &p.registry))
        .map_err(|e| CompileError::Frontend(e.diagnostics))?;
    let derived = rec.span("compiler.derive", |_| {
        derive_cta_model(&analyzed, &p.registry)
    });
    let (buffers, sized_model) = rec
        .span("cta.sizing", |_| plan_buffers(&analyzed, &derived))
        .map_err(CompileError::Temporal)?;
    let consistency = rec
        .span("cta.consistency", |_| {
            sized_model.consistency_at_maximal_rates()
        })
        .map_err(|e| CompileError::Temporal(BufferSizingError::Unfixable(e)))?;
    let generated = rec.span("compiler.codegen", |_| {
        derived
            .task_graphs
            .iter()
            .zip(&analyzed.graph.instances)
            .filter_map(|(tg, inst)| tg.as_ref().map(|tg| generate_module_code(&inst.path, tg)))
            .collect()
    });
    Ok(CompiledProgram {
        analyzed,
        derived,
        sized_model,
        consistency,
        buffers,
        generated,
    })
}

const SYNTH_SPANS: [&str; 2] = ["compiler.synthesize_1w", "compiler.synthesize_2w"];

/// Run one op under a root span `op`; `workers` ⊆ {1, 2}.
pub fn run_op(rec: &mut Recorder, p: &Program, workers: &[usize]) -> Op {
    rec.span("op", |rec| {
        let compiled = if rec.enabled() {
            compile_staged(rec, p)
        } else {
            compile(&p.source, &p.registry, &CompilerOptions::default())
        };
        let Ok(program) = &compiled else {
            return Op {
                compiled,
                graph: None,
                plan: None,
                schedules: Vec::new(),
            };
        };
        let graph = rec.span("compiler.lower", |_| {
            rtgraph::lower_with_registry(program, &p.registry)
        });
        let plan = rec.span("compiler.plan", |_| rtgraph::plan(&graph));
        let config = SynthesisConfig::default();
        let schedules = workers
            .iter()
            .map(|&w| {
                rec.span(SYNTH_SPANS[w - 1], |_| {
                    synthesize(&graph, &plan, w, &config)
                })
            })
            .collect();
        Op {
            compiled,
            graph: Some(graph),
            plan: Some(plan),
            schedules,
        }
    })
}

impl Op {
    /// Everything about the result that must repeat bit-for-bit: the
    /// accept/reject verdict, the exact channel rates, the buffer plan and
    /// the digest of every schedule.
    pub fn verdict(&self) -> String {
        let program = match &self.compiled {
            Ok(program) => program,
            Err(e) => return format!("rejected: {e}"),
        };
        let mut v = String::from("accepted");
        for c in &program.analyzed.graph.channels {
            if let Some(rate) = program.channel_rate_exact(&c.name) {
                let _ = write!(v, " {}={rate}", c.name);
            }
        }
        let _ = write!(
            v,
            " buffers={}/{}",
            program.buffers.total_tokens(),
            program.buffers.iterations
        );
        for s in &self.schedules {
            match s {
                Ok(s) => {
                    let _ = write!(v, " sched{}={:016x}", s.worker_count(), s.digest());
                }
                Err(e) => {
                    let _ = write!(v, " unschedulable({e})");
                }
            }
        }
        v
    }

    /// The op's own correctness: an accepted program hits the rates it was
    /// constructed for exactly, and every schedule re-validates.
    pub fn check(&self, p: &Program) -> Result<(), String> {
        let program = match &self.compiled {
            Ok(program) => program,
            // The generator may emit a program the analysis rightly rejects
            // (a tight latency bound); a fixed program must compile.
            Err(_) if p.name.starts_with("gen") => return Ok(()),
            Err(e) => return Err(format!("{}: rejected: {e}", p.name)),
        };
        for &(channel, hz) in &p.expected_rates {
            let rate = program.channel_rate_exact(channel);
            if rate != Some(Rational::from_int(hz as i128)) {
                return Err(format!(
                    "{}: channel `{channel}` runs at {rate:?}, constructed for {hz} Hz",
                    p.name
                ));
            }
        }
        if p.name == "fig2c" {
            let (x, y) = (
                program.channel_rate_exact("x"),
                program.channel_rate_exact("y"),
            );
            if x.is_none() || x != y {
                return Err(format!("fig2c: rates of x and y differ: {x:?} vs {y:?}"));
            }
        }
        let graph = self.graph.as_ref().expect("accepted programs are lowered");
        for s in self.schedules.iter().flatten() {
            s.validate(graph)
                .map_err(|e| format!("{}: schedule does not re-validate: {e}", p.name))?;
        }
        Ok(())
    }
}

/// Span name → (metric, ns per metric unit), for the layers an op crosses.
const SPAN_METRICS: [(&str, &str, f64); 11] = [
    ("lang.lex", "lang.lex_us", 1e3),
    ("lang.parse", "lang.parse_us", 1e3),
    ("lang.sema", "lang.sema_us", 1e3),
    ("compiler.derive", "compiler.derive_us", 1e3),
    ("cta.sizing", "cta.sizing_ms", 1e6),
    ("cta.consistency", "cta.consistency_us", 1e3),
    ("compiler.codegen", "compiler.codegen_us", 1e3),
    ("compiler.lower", "compiler.lower_us", 1e3),
    ("compiler.plan", "compiler.plan_us", 1e3),
    ("compiler.synthesize_1w", "compiler.synthesize_1w_us", 1e3),
    ("compiler.synthesize_2w", "compiler.synthesize_2w_us", 1e3),
];

/// Per-layer time metrics of every op recorded so far (summed), plus the
/// latency checks recorded beside them.
pub fn span_metrics(rec: &Recorder, m: &mut Measured) {
    for (span, metric, scale) in SPAN_METRICS {
        m.set(metric, rec.total_ns(span) as f64 / scale);
    }
    m.set("cta.latency_us", rec.total_ns("cta.latency") as f64 / 1e3);
    let op = rec.total_ns("op");
    if op > 0 {
        m.set(
            "cta.sizing_share",
            rec.total_ns("cta.sizing") as f64 / op as f64,
        );
    }
    m.set(
        "compile.span_residual_max",
        crate::spans::worst_residual(rec.spans(), "op"),
    );
}

/// The exact counts of one op (added onto `m`, so a corpus sums them) and
/// the synthesis phase timers its schedules carry.
pub fn count_metrics(p: &Program, op: &Op, m: &mut Measured) {
    m.add("lang.source_bytes", p.source.len() as f64);
    m.add(
        "lang.tokens",
        oil::lang::lexer::tokenize(&p.source).map_or(0, |t| t.len()) as f64,
    );
    let Ok(program) = &op.compiled else { return };
    m.add(
        "compiler.cta_components",
        program.derived.cta.component_count() as f64,
    );
    m.add(
        "compiler.cta_connections",
        program.derived.cta.connection_count() as f64,
    );
    m.add("cta.sizing_iterations", program.buffers.iterations as f64);
    if let Some(graph) = &op.graph {
        m.add("compiler.rt_nodes", graph.nodes.len() as f64);
    }
    for s in op.schedules.iter().flatten() {
        schedule_metrics(s, m);
    }
}

/// Counts, predicted utilization and phase timers of one schedule, folded
/// into `m` (sums, and min/max where the name says so).
pub fn schedule_metrics(s: &StaticSchedule, m: &mut Measured) {
    m.add("compiler.period_firings", s.period_firings() as f64);
    m.add("compiler.cross_buffers", s.cross_buffers.len() as f64);
    m.add("compiler.runs_fused", f64::from(s.fusion.runs_fused));
    m.add("compiler.rings_elided", f64::from(s.fusion.rings_elided));
    let chain = f64::from(s.fusion.fused_chain_len_max);
    let longest = m.get("compiler.fused_chain_len_max").unwrap_or(0.0);
    m.set("compiler.fused_chain_len_max", longest.max(chain));
    for &u in &s.predicted_utilization {
        let lo = m.get("compiler.predicted_utilization_min").unwrap_or(u);
        let hi = m.get("compiler.predicted_utilization_max").unwrap_or(u);
        m.set("compiler.predicted_utilization_min", lo.min(u));
        m.set("compiler.predicted_utilization_max", hi.max(u));
    }
    for phase in &s.phases {
        m.add(
            &format!("compiler.synth_phase.{}_us", phase.name),
            phase.dur_ns as f64 / 1e3,
        );
    }
}

/// Time `check_latency_path` from every source to every sink of an
/// accepted program, in spans beside (not inside) the op.
pub fn latency_checks(rec: &mut Recorder, op: &Op) {
    let Ok(program) = &op.compiled else { return };
    let graph = &program.analyzed.graph;
    for (_, source) in graph.sources() {
        for (_, sink) in graph.sinks() {
            rec.span("cta.latency", |_| {
                std::hint::black_box(program.latency_between_exact(&source.name, &sink.name))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs::compile_corpus;

    #[test]
    fn staged_and_one_call_compiles_reach_the_same_verdict() {
        let corpus = compile_corpus(1, true);
        let mut traced = Recorder::new(true);
        let mut plain = Recorder::new(false);
        let mut m = Measured::default();
        for p in &corpus {
            let a = run_op(&mut traced, p, &[1, 2]);
            let b = run_op(&mut plain, p, &[1, 2]);
            assert_eq!(a.verdict(), b.verdict(), "{}", p.name);
            a.check(p).unwrap();
            count_metrics(p, &a, &mut m);
            latency_checks(&mut traced, &a);
        }
        span_metrics(&traced, &mut m);
        assert!(plain.spans().is_empty());
        assert!(m.get("cta.sizing_ms").unwrap() > 0.0);
        assert!(m.get("cta.latency_us").unwrap() > 0.0);
        assert!(m.get("lang.tokens").unwrap() > 100.0);
        assert!(m.get("compiler.period_firings").unwrap() > 0.0);
        assert!(m.get("compiler.synth_phase.firing_order_us").unwrap() > 0.0);
        // Every name these helpers produce is in the per-layer table.
        m.to_json(crate::metrics::PER_LAYER);
    }

    #[test]
    fn a_missed_rate_fails_the_check() {
        let mut p = crate::programs::sdr_program();
        let op = run_op(&mut Recorder::new(false), &p, &[1]);
        op.check(&p).unwrap();
        p.expected_rates = vec![("y", 96_001)];
        assert!(op.check(&p).unwrap_err().contains("96001"));
    }
}
