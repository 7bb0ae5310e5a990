//! Registries describing the computation that OIL coordinates.
//!
//! OIL is a *coordination* language: the actual computation is performed by
//! side-effect-free functions (implemented in C/C++ in the paper, in Rust in
//! this reproduction) and by *black-box modules* whose internals are unknown
//! but whose temporal interface (token rates and response time) is specified.
//!
//! The compiler needs two pieces of information about each coordinated
//! function to build a temporal analysis model:
//!
//! * whether it is **side-effect free** (a requirement of the language; state
//!   is allowed, global side effects are not), and
//! * its **worst-case response time**, which becomes the firing duration of
//!   the corresponding dataflow actor / CTA component. Response times are
//!   given in seconds as `f64`, the registry's one floating-point edge; the
//!   compiler reads them only through [`FunctionRegistry::response_time`]
//!   and [`FunctionRegistry::black_box_response_time`], which return the
//!   exact rational.

use oil_dataflow::Rational;
use std::collections::BTreeMap;

/// Temporal and semantic information about one coordinated function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSignature {
    /// Function name as it appears in OIL source.
    pub name: String,
    /// Worst-case response time in seconds (execution plus worst-case
    /// interference on its processor).
    pub response_time: f64,
    /// True if the function keeps internal state between invocations
    /// (allowed by OIL).
    pub has_state: bool,
    /// True if the function is side-effect free (required by OIL). The
    /// registry lets tools model the outcome of external side-effect
    /// analyses; functions marked `false` are rejected by semantic analysis.
    pub side_effect_free: bool,
}

impl FunctionSignature {
    /// A side-effect-free, stateless function with the given response time
    /// in seconds.
    pub fn pure(name: impl Into<String>, response_time: f64) -> Self {
        FunctionSignature {
            name: name.into(),
            response_time,
            has_state: false,
            side_effect_free: true,
        }
    }

    /// A side-effect-free function that keeps internal state (e.g. a filter
    /// with a delay line).
    pub fn stateful(name: impl Into<String>, response_time: f64) -> Self {
        FunctionSignature {
            has_state: true,
            ..FunctionSignature::pure(name, response_time)
        }
    }

    /// A function with observable side effects; OIL rejects programs calling
    /// such functions.
    pub fn impure(name: impl Into<String>, response_time: f64) -> Self {
        FunctionSignature {
            has_state: true,
            side_effect_free: false,
            ..FunctionSignature::pure(name, response_time)
        }
    }
}

/// The temporal interface of a black-box module (Section V-C of the paper):
/// a module only known by the maximum rates and delays of its interface, such
/// as the `Video` and `Audio` modules of the PAL decoder.
#[derive(Debug, Clone, PartialEq)]
pub struct BlackBoxInterface {
    /// Module name as instantiated in OIL source.
    pub name: String,
    /// Number of tokens consumed from each input stream parameter per firing,
    /// in parameter order (inputs only).
    pub consumption: Vec<u64>,
    /// Number of tokens produced on each output stream parameter per firing,
    /// in parameter order (outputs only).
    pub production: Vec<u64>,
    /// Worst-case response time of one firing, in seconds.
    pub response_time: f64,
}

impl BlackBoxInterface {
    /// Construct a black-box interface.
    pub fn new(
        name: impl Into<String>,
        consumption: Vec<u64>,
        production: Vec<u64>,
        response_time: f64,
    ) -> Self {
        BlackBoxInterface {
            name: name.into(),
            consumption,
            production,
            response_time,
        }
    }
}

/// Registry of coordinated functions and black-box module interfaces.
///
/// Unknown functions are treated as side-effect free with a configurable
/// default response time so that programs can be analysed before all
/// implementations exist; a warning is emitted by semantic analysis for each
/// unknown function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionRegistry {
    functions: BTreeMap<String, FunctionSignature>,
    black_boxes: BTreeMap<String, BlackBoxInterface>,
    /// Response time assumed for functions and black boxes that are not
    /// registered, in seconds.
    pub default_response_time: f64,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        FunctionRegistry {
            functions: BTreeMap::new(),
            black_boxes: BTreeMap::new(),
            default_response_time: 1e-6,
        }
    }
}

impl FunctionRegistry {
    /// An empty registry with a 1 µs default response time.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a function signature.
    pub fn register(&mut self, sig: FunctionSignature) -> &mut Self {
        self.functions.insert(sig.name.clone(), sig);
        self
    }

    /// Register (or replace) a black-box module interface.
    pub fn register_black_box(&mut self, bb: BlackBoxInterface) -> &mut Self {
        self.black_boxes.insert(bb.name.clone(), bb);
        self
    }

    /// Look up a function by name.
    pub fn function(&self, name: &str) -> Option<&FunctionSignature> {
        self.functions.get(name)
    }

    /// Look up a black-box module interface by name.
    pub fn black_box(&self, name: &str) -> Option<&BlackBoxInterface> {
        self.black_boxes.get(name)
    }

    /// True if the function is known to the registry.
    pub fn is_known(&self, name: &str) -> bool {
        self.functions.contains_key(name)
    }

    /// The response time to assume for `name`: the registered worst case, or
    /// the default for unknown functions.
    /// It is exact: the decimal that rounds to the registered double (`1e-6`
    /// is `1/10^6`), through [`Rational::from_f64`].
    pub fn response_time(&self, name: &str) -> Rational {
        Rational::from_f64(
            self.functions
                .get(name)
                .map_or(self.default_response_time, |f| f.response_time),
        )
    }

    /// The response time to assume for one firing of black box `name`: its
    /// registered interface's, or the default for unknown modules.
    pub fn black_box_response_time(&self, name: &str) -> Rational {
        Rational::from_f64(
            self.black_boxes
                .get(name)
                .map_or(self.default_response_time, |b| b.response_time),
        )
    }

    /// True if the function may be coordinated by OIL (side-effect free or
    /// unknown).
    pub fn is_side_effect_free(&self, name: &str) -> bool {
        self.functions
            .get(name)
            .map(|f| f.side_effect_free)
            .unwrap_or(true)
    }

    /// Iterate over all registered functions.
    pub fn functions(&self) -> impl Iterator<Item = &FunctionSignature> {
        self.functions.values()
    }

    /// Iterate over all registered black-box interfaces.
    pub fn black_boxes(&self) -> impl Iterator<Item = &BlackBoxInterface> {
        self.black_boxes.values()
    }

    /// Number of registered functions.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if no functions are registered.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lookup_and_defaults() {
        let mut reg = FunctionRegistry::new();
        assert!(reg.is_empty());
        reg.register(FunctionSignature::pure("f", 2e-6));
        reg.register(FunctionSignature::stateful("lpf", 5e-6));
        reg.register(FunctionSignature::impure("printf", 1e-6));

        assert_eq!(reg.len(), 3);
        assert!(reg.is_known("f"));
        assert!(!reg.is_known("unknown"));
        assert_eq!(reg.response_time("f"), Rational::new(2, 1_000_000));
        assert_eq!(reg.response_time("unknown"), Rational::new(1, 1_000_000));
        assert!(reg.is_side_effect_free("f"));
        assert!(reg.is_side_effect_free("unknown"));
        assert!(!reg.is_side_effect_free("printf"));
        assert!(reg.function("lpf").unwrap().has_state);
    }

    #[test]
    fn black_box_interfaces() {
        let mut reg = FunctionRegistry::new();
        reg.register_black_box(BlackBoxInterface::new("Audio", vec![8], vec![1], 1e-6));
        assert_eq!(
            reg.black_box_response_time("Audio"),
            Rational::new(1, 1_000_000)
        );
        let bb = reg.black_box("Audio").unwrap();
        assert_eq!(bb.consumption, vec![8]);
        assert_eq!(bb.production, vec![1]);
        assert!(reg.black_box("Video").is_none());
        assert_eq!(reg.black_boxes().count(), 1);
    }

    #[test]
    fn register_replaces_existing() {
        let mut reg = FunctionRegistry::new();
        reg.register(FunctionSignature::pure("f", 1e-6));
        reg.register(FunctionSignature::pure("f", 9e-6));
        assert_eq!(reg.response_time("f"), Rational::new(9, 1_000_000));
        assert_eq!(reg.len(), 1);
    }
}
