//! Simulation of the compiled PAL decoder.
//!
//! The analysed buffer capacities and rates are only useful if an execution
//! honouring them actually meets the real-time constraints. This module runs
//! the compiled decoder on the discrete-event simulator and checks that
//!
//! * neither sink ever misses a deadline and the RF source never overflows,
//! * the measured sink throughputs match 4 MS/s and 32 kS/s,
//! * no buffer exceeds its sized capacity.

use crate::analysis::analyze_pal;
use crate::program::pal_registry;
use oil_compiler::CompileError;
use oil_sim::{build_simulation_with_registry, picos, SimMetrics, SimulationConfig};

/// Summary of a PAL decoder simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PalSimulationReport {
    /// Raw simulator metrics.
    pub metrics: SimMetrics,
    /// Measured display throughput in samples per second.
    pub screen_rate: f64,
    /// Measured speaker throughput in samples per second.
    pub speaker_rate: f64,
    /// Worst observed end-to-end latency RF sample -> display, in seconds.
    pub screen_latency: f64,
    /// Worst observed end-to-end latency RF sample -> speakers, in seconds.
    pub speaker_latency: f64,
}

impl PalSimulationReport {
    /// True if the simulated execution met every real-time constraint.
    pub fn meets_constraints(&self) -> bool {
        self.metrics.meets_real_time_constraints()
    }
}

/// Compile, analyse and simulate the PAL decoder for `duration_seconds` of
/// simulated time.
pub fn simulate_pal(duration_seconds: f64) -> Result<PalSimulationReport, CompileError> {
    let (compiled, _analysis) = analyze_pal()?;
    let registry = pal_registry();
    let mut net = build_simulation_with_registry(&compiled, &registry);
    let metrics = net.run(
        picos(duration_seconds),
        &SimulationConfig {
            cores: 0,
            warmup_ticks: 64,
        },
    );
    let screen_rate = metrics.sink_throughput("screen").unwrap_or(0.0);
    let speaker_rate = metrics.sink_throughput("speakers").unwrap_or(0.0);
    let screen_latency = metrics.sink_max_latency("screen").unwrap_or(f64::NAN);
    let speaker_latency = metrics.sink_max_latency("speakers").unwrap_or(f64::NAN);
    Ok(PalSimulationReport {
        metrics,
        screen_rate,
        speaker_rate,
        screen_latency,
        speaker_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_decoder_meets_real_time_constraints() {
        // 2 ms of simulated time is 12 800 RF samples, 8 000 display samples
        // and 64 speaker samples: enough to reach steady state.
        let report = simulate_pal(2e-3).unwrap();
        assert!(
            report.meets_constraints(),
            "misses={} overflows={}",
            report.metrics.total_misses(),
            report.metrics.total_overflows()
        );
    }

    #[test]
    fn simulated_throughputs_match_declared_rates() {
        let report = simulate_pal(2e-3).unwrap();
        assert!(
            (report.screen_rate - 4.0e6).abs() / 4.0e6 < 0.05,
            "screen rate {}",
            report.screen_rate
        );
        assert!(
            (report.speaker_rate - 32e3).abs() / 32e3 < 0.10,
            "speaker rate {}",
            report.speaker_rate
        );
    }

    #[test]
    fn buffers_stay_within_sized_capacities() {
        let report = simulate_pal(1e-3).unwrap();
        for (name, cap, max_occ) in &report.metrics.buffers {
            assert!(max_occ <= cap, "buffer {name} exceeded its sized capacity");
        }
    }

    /// Worst calendar latency into the display and the speakers, in
    /// picoseconds: the oldest input origin of the consumed token to its
    /// consumption (DESIGN.md, "Known limitations", on how this differs
    /// from the analysed rf→sink latency).
    const SCREEN_LATENCY_PS: u64 = 6_343_750;
    const SPEAKER_LATENCY_PS: u64 = 62_343_750;

    #[test]
    fn latencies_are_bounded() {
        // The calendar is data-independent and periodic: the worst latency
        // is reached in the first few audio periods and a ten times longer
        // run reads the same picosecond.
        for horizon in [2e-3, 20e-3] {
            let report = simulate_pal(horizon).unwrap();
            let at = format!("{horizon} s horizon");
            assert_eq!(picos(report.screen_latency), SCREEN_LATENCY_PS, "{at}");
            assert_eq!(picos(report.speaker_latency), SPEAKER_LATENCY_PS, "{at}");
        }
    }
}
