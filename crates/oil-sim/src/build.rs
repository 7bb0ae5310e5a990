//! Building a simulation from a compiled OIL program.
//!
//! All graph construction lives in `oil_compiler::rtgraph`: the compiler
//! lowers the program into an engine-agnostic [`RtGraph`] (one node per
//! runnable task, one buffer per channel **per reader**, CTA capacities,
//! exact rational times), and this module merely maps that graph onto the
//! simulator's structures, quantising the rational times onto the picosecond
//! clock through the checked conversions of [`crate::time`]. The reference
//! interpreter (`oil_rt::exec`) builds its network here too, and the
//! engines of `oil-rt` consume the *same* graph, so comparing them is a
//! statement about scheduling semantics rather than graph construction.

use crate::network::SimNetwork;
use crate::time::picos_nearest;
use oil_compiler::rtgraph::{self, RtGraph};
use oil_compiler::CompiledProgram;

/// Build a [`SimNetwork`] from a compiled program, using `registry` to obtain
/// the consumption/production rates and response times of black-box modules
/// (e.g. the PAL decoder's `Video` and `Audio` modules).
pub fn build_simulation_with_registry(
    compiled: &CompiledProgram,
    registry: &oil_lang::FunctionRegistry,
) -> SimNetwork {
    build_simulation_from_graph(&rtgraph::lower_with_registry(compiled, registry))
}

/// Build a [`SimNetwork`] from an already-lowered runtime graph.
///
/// # Panics
/// Panics if a response time or period cannot be placed on the picosecond
/// clock (negative or overflowing — impossible for compiler-produced
/// graphs).
pub fn build_simulation_from_graph(graph: &RtGraph) -> SimNetwork {
    let mut net = SimNetwork::default();
    let buffer_ids: Vec<_> = graph
        .buffers
        .iter()
        .map(|b| net.add_buffer(b.name.clone(), b.capacity, b.initial_tokens))
        .collect();
    let sim_buffer = |id: oil_compiler::RtBufferId| buffer_ids[oil_dataflow::index::Idx::index(id)];

    for n in &graph.nodes {
        let response = picos_nearest(n.response)
            .unwrap_or_else(|e| panic!("response time of `{}`: {e}", n.name));
        let reads = n.reads.iter().map(|&(b, c)| (sim_buffer(b), c)).collect();
        let writes = n.writes.iter().map(|&(b, c)| (sim_buffer(b), c)).collect();
        net.add_node(n.name.clone(), response, reads, writes);
    }
    for s in &graph.sources {
        let period =
            picos_nearest(s.period).unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name));
        let outputs = s.outputs.iter().map(|&b| sim_buffer(b)).collect();
        net.add_source_fanout(s.name.clone(), outputs, period);
    }
    for s in &graph.sinks {
        let period =
            picos_nearest(s.period).unwrap_or_else(|e| panic!("period of `{}`: {e}", s.name));
        net.add_sink(s.name.clone(), sim_buffer(s.input), period);
    }
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::SimulationConfig;
    use crate::picos;
    use oil_compiler::schedule::SynthesisConfig;
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};

    /// The simulation of `src`'s runtime graph, built through the front door.
    fn network(src: &str) -> SimNetwork {
        let mut registry = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            registry.register(FunctionSignature::pure(f, 1e-5));
        }
        let exe = oil_compiler::build(src, &registry, 1, &SynthesisConfig::default()).unwrap();
        build_simulation_from_graph(&exe.graph)
    }

    #[test]
    fn compiled_chain_simulates_without_misses() {
        let src = r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                start x 5 ms before y;
                W(x, out y)
            }
        "#;
        let mut net = network(src);
        assert_eq!(net.sources.len(), 1);
        assert_eq!(net.sinks.len(), 1);
        assert_eq!(net.nodes.len(), 1);
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        let thr = metrics.sink_throughput("y").unwrap();
        assert!((thr - 1000.0).abs() < 30.0, "throughput {thr}");
        // The measured latency respects the analysed 5 ms bound.
        assert!(metrics.sink_max_latency("y").unwrap() <= 5e-3 + 1e-9);
    }

    #[test]
    fn two_stage_pipeline_with_fifo() {
        let src = r#"
            mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
            mod seq Q(int m, out int b){ loop{ g(m, out b); } while(1); }
            mod par D(){
                fifo int mid;
                source int x = src() @ 2 kHz;
                sink int y = snk() @ 2 kHz;
                P(x, out mid) || Q(mid, out y)
            }
        "#;
        let mut net = network(src);
        assert_eq!(net.nodes.len(), 2);
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        // Buffer occupancy never exceeds the sized capacity.
        for (name, cap, max_occ) in &metrics.buffers {
            assert!(max_occ <= cap, "buffer {name} overflowed its capacity");
        }
    }

    #[test]
    fn multi_rate_program_produces_downsampled_output() {
        let src = r#"
            mod seq Down(int a, out int b){ loop{ f(a:4, out b); } while(1); }
            mod par D(){
                source int x = src() @ 8 kHz;
                sink int y = snk() @ 2 kHz;
                Down(x, out y)
            }
        "#;
        let mut net = network(src);
        let metrics = net.run(picos(1.0), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        let thr = metrics.sink_throughput("y").unwrap();
        assert!((thr - 2000.0).abs() < 60.0, "throughput {thr}");
    }

    #[test]
    fn initial_tokens_reach_the_channel_buffer() {
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let net = network(src);
        let y = net.buffers.iter().find(|b| b.name.ends_with(".y")).unwrap();
        assert!(y.max_occupancy >= 4, "initial tokens missing: {y:?}");
    }

    #[test]
    fn multi_reader_source_broadcasts_to_every_reader() {
        // One source read by two chains: each sink must see the full rate
        // (the readers must not compete for tokens).
        let src = r#"
            mod seq P(int a, out int m){ loop{ f(a, out m); } while(1); }
            mod seq Q(int a, out int n){ loop{ g(a, out n); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                sink int z = snk() @ 1 kHz;
                P(x, out y) || Q(x, out z)
            }
        "#;
        let mut net = network(src);
        let metrics = net.run(picos(0.5), &SimulationConfig::default());
        assert!(metrics.meets_real_time_constraints(), "{metrics:?}");
        for sink in ["y", "z"] {
            let thr = metrics.sink_throughput(sink).unwrap();
            assert!((thr - 1000.0).abs() < 30.0, "sink {sink} throughput {thr}");
        }
    }
}
