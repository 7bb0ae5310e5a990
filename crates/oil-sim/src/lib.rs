//! Discrete-event simulation substrate for compiled OIL programs.
//!
//! The paper evaluates OIL on an embedded multi-core system with a
//! guaranteed-throughput ring interconnect; that hardware is replaced here by
//! a discrete-event simulator (see DESIGN.md, substitutions table). The
//! simulator executes the task graphs produced by the compiler:
//!
//! * every task is a node that fires data-driven — when enough values are
//!   available in its input buffers and enough space in its output buffers —
//!   and occupies its processor for its response time;
//! * circular buffers have the finite capacities computed by CTA buffer
//!   sizing;
//! * sources and sinks are time-triggered at their declared frequencies; the
//!   simulator records every deadline miss (a sink firing with no data) and
//!   every overflow (a source firing with no space), which are exactly the
//!   violations the CTA analysis promises cannot happen;
//! * tokens carry the timestamp of the source sample they originate from, so
//!   end-to-end latencies can be measured and compared against the
//!   `start .. before ..` constraints.
//!
//! [`network`] is the one calendar. A token may also carry a [`Payload`]
//! value; the reference interpreter (`oil_rt::exec`) is this loop with
//! kernel-computed samples. The timing is guarded by the pinned digest
//! corpus (`tests/data/runtime_corpus.txt`), the insertion-order test of
//! `tests/determinism.rs` and the miss and latency sweep of
//! `tests/differential.rs`.
//!
//! [`build::build_simulation_from_graph`] constructs a simulation from the
//! runtime graph of an `oil_compiler::build` executable, and
//! [`build::build_simulation_with_registry`] from a
//! [`CompiledProgram`](oil_compiler::CompiledProgram) and its registry.

pub mod build;
pub mod network;
pub mod time;
pub mod trace;

pub use build::{build_simulation_from_graph, build_simulation_with_registry};
pub use network::{
    Payload, Picos, SimBufferId, SimMetrics, SimNetwork, SimNode, SimNodeId, SimSinkId,
    SimSourceId, SimulationConfig,
};
pub use time::{picos_exact, picos_nearest, seconds_exact, TimeError};
pub use trace::{BufferTrace, ExecutionTrace, Fnv1a};

use oil_dataflow::Rational;

/// Convert seconds to the simulator's picosecond time base.
///
/// Convenience wrapper over the exact rational path
/// ([`time::picos_nearest`]): the `f64` is converted to the exactly equal
/// rational first, so the only rounding is the final quantisation onto the
/// picosecond grid.
///
/// # Panics
/// Panics on NaN/infinite input, negative seconds or picosecond overflow;
/// use [`time::picos_nearest`] for the fallible version.
pub fn picos(seconds: f64) -> Picos {
    time::picos_nearest(Rational::from_f64(seconds))
        .unwrap_or_else(|e| panic!("{seconds} s cannot be placed on the picosecond clock: {e}"))
}

/// Convert the simulator's picosecond time base back to seconds (the closest
/// `f64` to the exact value).
pub fn seconds(p: Picos) -> f64 {
    time::seconds_exact(p).to_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_conversions_round_trip() {
        assert_eq!(picos(1e-3), 1_000_000_000);
        assert_eq!(picos(1.0 / 6.4e6), 156_250);
        assert!((seconds(picos(2.5e-6)) - 2.5e-6).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "picosecond clock")]
    fn negative_seconds_panic() {
        let _ = picos(-1.0);
    }
}
