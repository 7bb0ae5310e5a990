//! The Compositional Temporal Analysis (CTA) model.
//!
//! The CTA model (Hausmans et al., EMSOFT 2012) is the temporal analysis
//! model the OIL compiler derives from every program (paper Section V). A
//! model is a graph of **components** with **ports** and directed
//! **connections**; data is transferred periodically over connections, each
//! of which can scale the transfer rate (ratio `γ`) and delay the stream by a
//! constant amount (`ε`) plus a rate-dependent amount (`φ / r`).
//!
//! The distinguishing property — and the reason the paper derives CTA models
//! instead of plain dataflow graphs — is that all analyses are **polynomial
//! time**:
//!
//! * [`consistency`] — rate propagation, feasibility of the delay constraints
//!   (no positive-delay cycle) and the maximal achievable rates;
//! * [`buffersizing`] — sufficient buffer capacities for a required rate;
//! * [`latency`] — verification of `start .. before/after ..` latency
//!   constraints between sources and sinks;
//! * [`compose`] — composition of independently analysed components and
//!   *hiding* of internal ports, enabling black-box library components.
//!
//! Every algorithm works in **exact rational arithmetic**
//! ([`Rational`]) over **typed indices** ([`PortId`], [`ComponentId`],
//! [`ConnectionId`], [`GroupId`]): results are bit-exact, deterministic and
//! free of tolerance constants; `f64` only appears in the `*_hz` /
//! `*_seconds` accessors at the API boundary.
//!
//! # Example: a producer/consumer pair with a bounded buffer
//!
//! ```
//! use oil_cta::{CtaModel, Rational};
//!
//! let mut m = CtaModel::new();
//! let prod = m.add_component("producer", None);
//! let cons = m.add_component("consumer", None);
//! // at most 1 kHz / 1.5 kHz:
//! let p_out = m.add_port(prod, "out", Some(Rational::from_int(1000)));
//! let c_in = m.add_port(cons, "in", Some(Rational::from_int(1500)));
//! // Data connection: one-to-one rate, one transfer of latency.
//! m.connect(p_out, c_in, Rational::ZERO, Rational::ONE, Rational::ONE);
//! // Space connection modelling a buffer of capacity 4 (delay -4 / r).
//! m.connect_buffer("b", c_in, p_out, Rational::ZERO, Rational::from_int(-4), Rational::ONE);
//! let result = m.check_consistency().expect("consistent");
//! // The pair settles at exactly the slower port's maximum rate.
//! assert_eq!(result.rates[p_out], Rational::from_int(1000));
//! assert_eq!(result.rate_hz(p_out), 1000.0); // lossless f64 boundary
//! ```

pub mod buffersizing;
pub mod component;
pub mod compose;
pub mod consistency;
pub mod latency;
mod longest_path;
pub mod periodic;

pub use buffersizing::{size_buffers, BufferSizingError, BufferSizingResult};
pub use component::{Component, ComponentId, Connection, ConnectionId, CtaModel, Port};
pub use compose::hide_component;
pub use consistency::{check_delays_at_rates, ConsistencyError, ConsistencyResult};
pub use latency::{check_latency_path, LatencyReport};
pub use oil_dataflow::index::{GroupId, PortId};
pub use oil_dataflow::Rational;
pub use periodic::PeriodicSequence;
