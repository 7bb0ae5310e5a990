//! Flattening of the module hierarchy into an application graph.
//!
//! The parallel specification of an OIL program is a hierarchy of `mod par`
//! instantiations whose leaves are sequential modules and black-box modules.
//! For task-graph extraction and CTA derivation the compiler needs the
//! *flattened* view: every leaf instance, every channel (FIFO, source, sink)
//! and which instances write and read each channel. The hierarchy itself is
//! preserved in the instance paths (`Splitter.SRC_A`) so the derived CTA model
//! can mirror the nesting, as the paper's Figure 12 does.

use crate::ast::*;
use crate::registry::FunctionRegistry;
use crate::span::{Diagnostic, Span};
use oil_dataflow::define_index_type;
use oil_dataflow::index::{ChannelId, IndexVec};
use std::collections::BTreeMap;

define_index_type! {
    /// A leaf instance of the flattened application graph.
    pub struct InstanceId = "i";
}

/// How a channel transports data.
#[derive(Debug, Clone, PartialEq)]
pub enum ChannelKind {
    /// A FIFO buffer between modules.
    Fifo,
    /// A time-triggered source producing samples at a fixed rate.
    Source {
        /// Function implementing the environment communication.
        func: String,
        /// Sampling frequency in Hz.
        rate_hz: f64,
    },
    /// A time-triggered sink consuming samples at a fixed rate.
    Sink {
        /// Function implementing the environment communication.
        func: String,
        /// Consumption frequency in Hz.
        rate_hz: f64,
    },
}

impl ChannelKind {
    /// The fixed environment rate, if this is a source or sink.
    pub fn rate_hz(&self) -> Option<f64> {
        match self {
            ChannelKind::Fifo => None,
            ChannelKind::Source { rate_hz, .. } | ChannelKind::Sink { rate_hz, .. } => {
                Some(*rate_hz)
            }
        }
    }

    /// True for source channels.
    pub fn is_source(&self) -> bool {
        matches!(self, ChannelKind::Source { .. })
    }

    /// True for sink channels.
    pub fn is_sink(&self) -> bool {
        matches!(self, ChannelKind::Sink { .. })
    }
}

/// A channel of the flattened application graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Hierarchical name, e.g. `C.x` or `<top>.vid`.
    pub name: String,
    /// Element type name (opaque to OIL).
    pub ty: String,
    /// FIFO, source or sink.
    pub kind: ChannelKind,
    /// The leaf instance writing this channel (`None` for sources, which are
    /// written by the environment).
    pub writer: Option<InstanceId>,
    /// The leaf instances reading this channel. All readers observe the same
    /// values (FIFOs in OIL may have multiple readers).
    pub readers: Vec<InstanceId>,
}

/// A binding of a leaf instance's stream parameter to a channel.
#[derive(Debug, Clone, PartialEq)]
pub struct Binding {
    /// Parameter name inside the instantiated module.
    pub param: String,
    /// True if the instance writes the channel through this parameter.
    pub out: bool,
    /// The bound channel.
    pub channel: ChannelId,
}

/// A leaf instance of the flattened application: a sequential module or a
/// black-box module.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInstance {
    /// Hierarchical instance path, e.g. `Splitter.SRC_A`.
    pub path: String,
    /// The instantiated module's name.
    pub module_name: String,
    /// Index of the module definition in [`Program::modules`], or `None` for
    /// black boxes.
    pub module_index: Option<usize>,
    /// True if this instance is a black box known only by its interface.
    pub black_box: bool,
    /// Stream parameter bindings in parameter order.
    pub bindings: Vec<Binding>,
}

/// A latency constraint between two source/sink channels, resolved to channel
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySpec {
    /// Channel of the constrained source/sink (`start <subject> ..`).
    pub subject: ChannelId,
    /// Constraint amount in milliseconds.
    pub amount_ms: f64,
    /// Whether the subject starts after or before the reference.
    pub relation: LatencyRelation,
    /// Channel of the reference source/sink.
    pub reference: ChannelId,
}

/// The flattened application graph.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AppGraph {
    /// All leaf instances.
    pub instances: IndexVec<InstanceId, ModuleInstance>,
    /// All channels.
    pub channels: IndexVec<ChannelId, Channel>,
    /// All latency constraints.
    pub latencies: Vec<LatencySpec>,
}

impl AppGraph {
    /// Find a channel by its hierarchical name suffix (e.g. `"vid"` matches
    /// `<top>.vid`).
    pub fn channel_named(&self, suffix: &str) -> Option<(ChannelId, &Channel)> {
        self.channels
            .iter_enumerated()
            .find(|(_, c)| c.name == suffix || c.name.ends_with(&format!(".{suffix}")))
    }

    /// Find an instance by the final component of its path.
    pub fn instance_named(&self, name: &str) -> Option<(InstanceId, &ModuleInstance)> {
        self.instances
            .iter_enumerated()
            .find(|(_, i)| i.path == name || i.path.ends_with(&format!(".{name}")))
    }

    /// All source channels.
    pub fn sources(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter_enumerated()
            .filter(|(_, c)| c.kind.is_source())
    }

    /// All sink channels.
    pub fn sinks(&self) -> impl Iterator<Item = (ChannelId, &Channel)> {
        self.channels
            .iter_enumerated()
            .filter(|(_, c)| c.kind.is_sink())
    }
}

struct Flattener<'a> {
    program: &'a Program,
    registry: &'a FunctionRegistry,
    graph: AppGraph,
    diags: &'a mut Vec<Diagnostic>,
}

/// Flatten `program`'s top module into an [`AppGraph`]. Errors are appended to
/// `diags`; `None` is returned only when a fatal structural error was found.
pub fn flatten(
    program: &Program,
    registry: &FunctionRegistry,
    diags: &mut Vec<Diagnostic>,
) -> Option<AppGraph> {
    let top = match program.top_module() {
        Some(t) => t,
        None => {
            diags.push(Diagnostic::error(
                "program has no modules",
                Span::synthetic(),
            ));
            return None;
        }
    };

    let mut fl = Flattener {
        program,
        registry,
        graph: AppGraph::default(),
        diags,
    };

    match &top.body {
        ModuleBody::Par(_) => {
            let top_name = top.display_name().to_string();
            // Top-level stream parameters (unusual but allowed) become
            // unconnected FIFO channels.
            let mut bindings = BTreeMap::new();
            for p in &top.params {
                let idx = fl.add_channel(
                    format!("{top_name}.{}", p.name.name),
                    p.ty.name.clone(),
                    ChannelKind::Fifo,
                );
                bindings.insert(p.name.name.clone(), idx);
            }
            fl.expand_par(top, &top_name, &bindings);
        }
        ModuleBody::Seq(_) => {
            // A program whose top module is sequential: analyse it standalone
            // with one synthetic channel per stream parameter.
            let top_name = top.display_name().to_string();
            let module_index = program
                .modules
                .iter()
                .position(|m| std::ptr::eq(m, top))
                .unwrap_or(program.modules.len() - 1);
            let mut inst_bindings = Vec::new();
            for p in &top.params {
                let idx = fl.add_channel(
                    format!("{top_name}.{}", p.name.name),
                    p.ty.name.clone(),
                    ChannelKind::Fifo,
                );
                inst_bindings.push(Binding {
                    param: p.name.name.clone(),
                    out: p.out,
                    channel: idx,
                });
            }
            fl.add_instance(ModuleInstance {
                path: top_name.clone(),
                module_name: top_name,
                module_index: Some(module_index),
                black_box: false,
                bindings: inst_bindings,
            });
        }
    }

    fl.check_channel_connectivity();
    Some(fl.graph)
}

impl<'a> Flattener<'a> {
    fn add_channel(&mut self, name: String, ty: String, kind: ChannelKind) -> ChannelId {
        self.graph.channels.push(Channel {
            name,
            ty,
            kind,
            writer: None,
            readers: Vec::new(),
        })
    }

    fn add_instance(&mut self, instance: ModuleInstance) -> InstanceId {
        let idx = self.graph.instances.next_index();
        // Register reader/writer relationships on the channels.
        for b in &instance.bindings {
            if b.out {
                let ch = &mut self.graph.channels[b.channel];
                if ch.kind.is_source() {
                    self.diags.push(Diagnostic::error(
                        format!(
                            "instance `{}` writes source `{}`; sources are written by the environment only",
                            instance.path, ch.name
                        ),
                        Span::synthetic(),
                    ));
                } else if let Some(other) = ch.writer {
                    let other_path = self.graph.instances[other].path.clone();
                    self.diags.push(Diagnostic::error(
                        format!(
                            "FIFO `{}` has more than one writer: `{}` and `{}`",
                            ch.name, other_path, instance.path
                        ),
                        Span::synthetic(),
                    ));
                } else {
                    ch.writer = Some(idx);
                }
            } else {
                self.graph.channels[b.channel].readers.push(idx);
            }
        }
        self.graph.instances.push(instance);
        idx
    }

    /// Source/sink frequencies must convert losslessly into the exact
    /// rationals the temporal analyses compute with; a literal too extreme
    /// for `i128` is a front-end error, not a panic deep in the compiler.
    fn check_exact_rate(&mut self, name: &str, rate_hz: f64, span: Span) {
        if oil_dataflow::Rational::from_f64_lossless(rate_hz).is_none() {
            self.diags.push(Diagnostic::error(
                format!("rate {rate_hz} Hz of `{name}` has no exact rational representation"),
                span,
            ));
        }
    }

    fn expand_par(&mut self, module: &Module, path: &str, outer: &BTreeMap<String, ChannelId>) {
        let ModuleBody::Par(body) = &module.body else {
            return;
        };

        // Channels visible in this body: the outer bindings plus local
        // declarations.
        let mut visible = outer.clone();
        for b in &body.buffers {
            match b {
                BufferDecl::Fifo { ty, names, .. } => {
                    for n in names {
                        let idx = self.add_channel(
                            format!("{path}.{}", n.name),
                            ty.name.clone(),
                            ChannelKind::Fifo,
                        );
                        visible.insert(n.name.clone(), idx);
                    }
                }
                BufferDecl::Source {
                    ty,
                    name,
                    func,
                    rate,
                    span,
                } => {
                    self.check_exact_rate(&name.name, rate.hz, *span);
                    let idx = self.add_channel(
                        format!("{path}.{}", name.name),
                        ty.name.clone(),
                        ChannelKind::Source {
                            func: func.name.clone(),
                            rate_hz: rate.hz,
                        },
                    );
                    visible.insert(name.name.clone(), idx);
                }
                BufferDecl::Sink {
                    ty,
                    name,
                    func,
                    rate,
                    span,
                } => {
                    self.check_exact_rate(&name.name, rate.hz, *span);
                    let idx = self.add_channel(
                        format!("{path}.{}", name.name),
                        ty.name.clone(),
                        ChannelKind::Sink {
                            func: func.name.clone(),
                            rate_hz: rate.hz,
                        },
                    );
                    visible.insert(name.name.clone(), idx);
                }
            }
        }

        // Latency constraints of this body.
        for l in &body.latencies {
            if oil_dataflow::Rational::from_f64_lossless(l.amount_ms).is_none() {
                self.diags.push(Diagnostic::error(
                    format!(
                        "latency amount {} ms has no exact rational representation",
                        l.amount_ms
                    ),
                    l.span,
                ));
                continue;
            }
            let subject = visible.get(&l.subject.name).copied();
            let reference = visible.get(&l.reference.name).copied();
            if let (Some(subject), Some(reference)) = (subject, reference) {
                self.graph.latencies.push(LatencySpec {
                    subject,
                    amount_ms: l.amount_ms,
                    relation: l.relation,
                    reference,
                });
            }
            // Unresolvable endpoints were already reported by the restriction
            // checks.
        }

        // Instantiations.
        for (call_idx, call) in body.calls.iter().enumerate() {
            let child_path = format!("{path}.{}", call.module.name);
            // Disambiguate multiple instantiations of the same module.
            let child_path = if body
                .calls
                .iter()
                .filter(|c| c.module.name == call.module.name)
                .count()
                > 1
            {
                format!("{child_path}#{call_idx}")
            } else {
                child_path
            };

            let arg_channels: Vec<(bool, Option<ChannelId>)> = call
                .args
                .iter()
                .map(|a| (a.out, visible.get(&a.name.name).copied()))
                .collect();
            if arg_channels.iter().any(|(_, c)| c.is_none()) {
                // Already reported by restriction checks.
                continue;
            }

            match self.program.module(&call.module.name) {
                Some(callee) if callee.kind == ModuleKind::Par => {
                    let mut child_bindings = BTreeMap::new();
                    for (param, (_, ch)) in callee.params.iter().zip(&arg_channels) {
                        child_bindings.insert(param.name.name.clone(), ch.unwrap());
                    }
                    self.expand_par(callee, &child_path, &child_bindings);
                }
                Some(callee) => {
                    // A sequential leaf module.
                    let module_index = self
                        .program
                        .modules
                        .iter()
                        .position(|m| std::ptr::eq(m, callee));
                    let bindings = callee
                        .params
                        .iter()
                        .zip(&arg_channels)
                        .map(|(param, (_, ch))| Binding {
                            param: param.name.name.clone(),
                            out: param.out,
                            channel: ch.unwrap(),
                        })
                        .collect();
                    self.add_instance(ModuleInstance {
                        path: child_path,
                        module_name: call.module.name.clone(),
                        module_index,
                        black_box: false,
                        bindings,
                    });
                }
                None => {
                    // A black-box module, known only by its interface.
                    if self.registry.black_box(&call.module.name).is_none() {
                        self.diags.push(Diagnostic::warning(
                            format!(
                                "module `{}` is not defined and has no registered interface; \
                                 treating it as a single-rate black box",
                                call.module.name
                            ),
                            call.span,
                        ));
                    }
                    let bindings = arg_channels
                        .iter()
                        .enumerate()
                        .map(|(i, (out, ch))| Binding {
                            param: format!("p{i}"),
                            out: *out,
                            channel: ch.unwrap(),
                        })
                        .collect();
                    self.add_instance(ModuleInstance {
                        path: child_path,
                        module_name: call.module.name.clone(),
                        module_index: None,
                        black_box: true,
                        bindings,
                    });
                }
            }
        }
    }

    fn check_channel_connectivity(&mut self) {
        for ch in &self.graph.channels {
            match &ch.kind {
                ChannelKind::Fifo => {
                    if ch.writer.is_none() && !ch.readers.is_empty() {
                        self.diags.push(Diagnostic::error(
                            format!("FIFO `{}` is read but never written", ch.name),
                            Span::synthetic(),
                        ));
                    }
                    if ch.readers.is_empty() {
                        let unread = match ch.writer {
                            Some(_) => "written but never read",
                            None => "never used",
                        };
                        self.diags.push(Diagnostic::warning(
                            format!("FIFO `{}` is {unread}", ch.name),
                            Span::synthetic(),
                        ));
                    }
                }
                ChannelKind::Source { .. } => {
                    if ch.readers.is_empty() {
                        self.diags.push(Diagnostic::warning(
                            format!("source `{}` is never read", ch.name),
                            Span::synthetic(),
                        ));
                    }
                }
                ChannelKind::Sink { .. } => {
                    if ch.writer.is_none() {
                        self.diags.push(Diagnostic::error(
                            format!("sink `{}` is never written", ch.name),
                            Span::synthetic(),
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::registry::{BlackBoxInterface, FunctionRegistry};

    fn flatten_src(src: &str) -> (AppGraph, Vec<Diagnostic>) {
        let program = parse_program(src).unwrap();
        let registry = FunctionRegistry::new();
        let mut diags = Vec::new();
        let g = flatten(&program, &registry, &mut diags).unwrap();
        (g, diags)
    }

    #[test]
    fn flatten_two_level_hierarchy() {
        let (g, diags) = flatten_src(
            r#"
            mod seq B(int a, out int z){ loop{ f(a, out z); } while(1); }
            mod seq C(int a, int z, out int b){ loop{ g(a, z, out b); } while(1); }
            mod par A(int a, out int b){ fifo int z; B(a, out z) || C(a, z, out b) }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                A(x, out y)
            }
            "#,
        );
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
        assert_eq!(g.instances.len(), 2);
        assert_eq!(g.channels.len(), 3);
        let (_, z) = g.channel_named("z").unwrap();
        assert_eq!(z.kind, ChannelKind::Fifo);
        assert!(z.name.starts_with("D.A."));
        let (bi, _) = g.instance_named("B").unwrap();
        assert_eq!(z.writer, Some(bi));
        let (_, x) = g.channel_named("x").unwrap();
        assert!(x.kind.is_source());
        assert_eq!(x.readers.len(), 2);
    }

    #[test]
    fn flatten_standalone_seq_module() {
        let (g, _) = flatten_src("mod seq M(out int x){ k(y, out x:2); }");
        assert_eq!(g.instances.len(), 1);
        assert_eq!(g.channels.len(), 1);
        let (mi, _) = g.instance_named("M").unwrap();
        let (_, x) = g.channel_named("x").unwrap();
        assert_eq!(x.writer, Some(mi));
    }

    #[test]
    fn duplicate_instantiations_get_distinct_paths() {
        let (g, diags) = flatten_src(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par T(){
                source int s = src() @ 1 kHz;
                sink int k1 = snk() @ 1 kHz;
                sink int k2 = snk() @ 1 kHz;
                W(s, out k1) || W(s, out k2)
            }
            "#,
        );
        assert!(diags.iter().all(|d| !d.is_error()), "{diags:?}");
        assert_eq!(g.instances.len(), 2);
        let paths: Vec<&str> = g.instances.iter().map(|i| i.path.as_str()).collect();
        assert_ne!(paths[0], paths[1]);
    }

    #[test]
    fn black_box_with_registered_interface_no_warning() {
        let program = parse_program(
            r#"
            mod par T(){
                source int s = src() @ 1 kHz;
                sink int k = snk() @ 1 kHz;
                Video(s, out k)
            }
            "#,
        )
        .unwrap();
        let mut registry = FunctionRegistry::new();
        registry.register_black_box(BlackBoxInterface::new("Video", vec![1], vec![1], 1e-6));
        let mut diags = Vec::new();
        let g = flatten(&program, &registry, &mut diags).unwrap();
        assert!(
            diags.iter().all(|d| !d.message.contains("black box")),
            "{diags:?}"
        );
        assert!(g.instances.iter().all(|i| i.black_box));
    }

    #[test]
    fn sink_without_writer_is_error() {
        let (_, diags) = flatten_src(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par T(){
                fifo int unused;
                source int s = src() @ 1 kHz;
                sink int k = snk() @ 1 kHz;
                W(s, out unused)
            }
            "#,
        );
        assert!(diags
            .iter()
            .any(|d| d.is_error() && d.message.contains("never written")));
    }

    #[test]
    fn latencies_resolved_to_channels() {
        let (g, _) = flatten_src(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par T(){
                source int s = src() @ 1 kHz;
                sink int k = snk() @ 1 kHz;
                start s 5 ms before k;
                W(s, out k)
            }
            "#,
        );
        assert_eq!(g.latencies.len(), 1);
        let l = &g.latencies[0];
        assert!(g.channels[l.subject].kind.is_source());
        assert!(g.channels[l.reference].kind.is_sink());
        assert_eq!(l.amount_ms, 5.0);
    }

    #[test]
    fn sources_and_sinks_iterators() {
        let (g, _) = flatten_src(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par T(){
                source int s = src() @ 2 kHz;
                sink int k = snk() @ 2 kHz;
                W(s, out k)
            }
            "#,
        );
        assert_eq!(g.sources().count(), 1);
        assert_eq!(g.sinks().count(), 1);
        assert_eq!(g.sources().next().unwrap().1.kind.rate_hz(), Some(2000.0));
    }
}
