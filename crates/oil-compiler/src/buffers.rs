//! Buffer sizing for compiled OIL programs.
//!
//! Buffer sizing runs on the derived CTA model (see [`oil_cta::size_buffers`])
//! and this module maps the resulting capacities back onto the program's own
//! structure: the FIFO channels declared in `mod par` bodies and the circular
//! buffers created for variables inside sequential modules. These are the
//! capacities the runtime (or the simulator) allocates.

use crate::derive::DerivedModel;
use oil_cta::{buffersizing, BufferSizingError, CtaModel};
use oil_lang::sema::AnalyzedProgram;
use std::collections::{BTreeMap, BTreeSet};

/// Sized buffers of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferPlan {
    /// Capacity (in values) of each FIFO / source / sink channel, keyed by
    /// the channel's hierarchical name (e.g. `<top>.vid`).
    pub channels: BTreeMap<String, u64>,
    /// Capacity of each local variable buffer, keyed by
    /// `<instance path>.<variable>` (e.g. `C.B.y`).
    pub locals: BTreeMap<String, u64>,
    /// Number of sizing iterations the CTA algorithm needed.
    pub iterations: usize,
}

impl BufferPlan {
    /// Total number of buffered values across channels and locals.
    pub fn total_tokens(&self) -> u64 {
        self.channels.values().sum::<u64>() + self.locals.values().sum::<u64>()
    }

    /// Capacity of a channel by (suffix of) its name.
    pub fn channel(&self, name: &str) -> Option<u64> {
        let qualifies = |prefix: &str| prefix.is_empty() || prefix.ends_with('.');
        self.channels
            .iter()
            .find(|(k, _)| k.strip_suffix(name).is_some_and(qualifies))
            .map(|(_, &v)| v)
    }
}

/// Run CTA buffer sizing on a derived model and split the capacities into
/// channel buffers and local variable buffers. Also returns the sized model
/// (with capacities applied) so later analyses can use it directly.
pub fn plan_buffers(
    analyzed: &AnalyzedProgram,
    derived: &DerivedModel,
) -> Result<(BufferPlan, CtaModel), BufferSizingError> {
    let sizing = oil_cta::size_buffers(&derived.cta)?;
    let mut sized = derived.cta.clone();
    buffersizing::apply_capacities(&mut sized, &sizing.capacities);

    let channel_names: BTreeSet<&str> = analyzed
        .graph
        .channels
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    let mut channels = BTreeMap::new();
    let mut locals = BTreeMap::new();
    for (name, cap) in &sizing.capacities {
        // A minimum of one value per buffer: even a fully synchronous
        // producer/consumer pair needs one location to exchange data.
        let cap = (*cap).max(1);
        if channel_names.contains(name.as_str()) {
            channels.insert(name.clone(), cap);
        } else {
            locals.insert(name.clone(), cap);
        }
    }
    // Channels that never needed enlargement still need at least one slot.
    for c in &analyzed.graph.channels {
        channels.entry(c.name.clone()).or_insert(1);
    }

    Ok((
        BufferPlan {
            channels,
            locals,
            iterations: sizing.iterations,
        },
        sized,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derive::derive_cta_model;
    use oil_lang::registry::{FunctionRegistry, FunctionSignature};
    use oil_lang::{analyze, parse_program};

    fn registry() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        for f in ["f", "g", "init", "src", "snk"] {
            r.register(FunctionSignature::pure(f, 1e-6));
        }
        r
    }

    fn plan(src: &str) -> (BufferPlan, AnalyzedProgram) {
        let reg = registry();
        let analyzed = analyze(&parse_program(src).unwrap(), &reg).unwrap();
        let derived = derive_cta_model(&analyzed, &reg);
        let (plan, sized) = plan_buffers(&analyzed, &derived).unwrap();
        assert!(sized.check_consistency().is_ok());
        (plan, analyzed)
    }

    #[test]
    fn every_channel_gets_a_capacity() {
        let (plan, analyzed) = plan(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                fifo int m;
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                W(x, out m) || W(m, out y)
            }
            "#,
        );
        assert_eq!(plan.channels.len(), analyzed.graph.channels.len());
        assert!(plan.channels.values().all(|&c| c >= 1));
        assert!(plan.channel("m").is_some());
        assert!(plan.channel("nonexistent").is_none());
        assert!(plan.total_tokens() >= 3);
    }

    #[test]
    fn local_variable_buffers_are_separated_from_channels() {
        let (plan, _) = plan(
            r#"
            mod seq W(int a, out int b){ loop{ y = f(a); g(y, out b); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int z = snk() @ 1 kHz;
                W(x, out z)
            }
            "#,
        );
        assert!(
            plan.locals.keys().any(|k| k.ends_with(".y")),
            "{:?}",
            plan.locals
        );
        assert!(!plan.channels.keys().any(|k| k.ends_with(".y")));
    }

    #[test]
    fn a_buffer_sized_to_no_tokens_still_gets_one_slot() {
        // Fig. 2c: `B`'s `init` puts four tokens on `y` before `A` reads
        // any, and sizing asks `y` for no room at all.
        let src = r#"
            mod seq A(out int a, int b){ loop{ f(out a:3, b:3); } while(1); }
            mod seq B(out int c, int d){ init(out c:4); loop{ g(out c:2, d:2); } while(1); }
            mod par C(){ fifo int x, y; A(out x, y) || B(out y, x) }
        "#;
        let reg = registry();
        let analyzed = analyze(&parse_program(src).unwrap(), &reg).unwrap();
        let derived = derive_cta_model(&analyzed, &reg);
        let sizing = oil_cta::size_buffers(&derived.cta).unwrap();
        assert_eq!(sizing.capacities.get("C.y"), Some(&0));
        let (plan, _) = plan_buffers(&analyzed, &derived).unwrap();
        assert_eq!(plan.channel("y"), Some(1));
    }

    #[test]
    fn faster_rates_do_not_shrink_buffers() {
        let slow = plan(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 1 kHz;
                sink int y = snk() @ 1 kHz;
                W(x, out y)
            }
            "#,
        )
        .0;
        let fast = plan(
            r#"
            mod seq W(int a, out int b){ loop{ f(a, out b); } while(1); }
            mod par D(){
                source int x = src() @ 100 kHz;
                sink int y = snk() @ 100 kHz;
                W(x, out y)
            }
            "#,
        )
        .0;
        assert!(fast.total_tokens() >= slow.total_tokens());
    }
}
