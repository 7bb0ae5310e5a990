//! Traced PAL decoder: one Perfetto-loadable trace per engine.
//!
//! Compiles the paper's PAL decoder (Fig. 11), runs it with tracing
//! enabled on both engines — the free-running self-timed engine and the
//! compiled static-order engine — and writes each run's Chrome trace-event
//! JSON next to the workspace root:
//!
//! ```text
//! pal_selftimed.trace.json
//! pal_staticsched.trace.json
//! ```
//!
//! Load any of them at <https://ui.perfetto.dev> (or `chrome://tracing`):
//! one track per worker, firing spans labelled with the kernel/unit name,
//! park/backpressure/seam events in place. The printed summary shows the
//! telemetry the CTA lets us check at runtime — ring high-water marks
//! against proven capacities and measured sink rates against predicted
//! rates.
//!
//! Run with `OIL_RT_TRACE=1 cargo run --release --example trace_pal`
//! (tracing is forced on here regardless, so the variable is optional —
//! it exists for binaries that default to untraced runs).

use oil::compiler::schedule::SynthesisConfig;
use oil::rt::{
    execute_selftimed, execute_staticsched, measure, ConformanceVerdict, KernelLibrary,
    RateConformance, SelfTimedConfig, StaticConfig, TraceReport,
};
use oil::sim::picos;

/// Write the Perfetto trace, print the one-line telemetry summary and the
/// conformance verdict.
fn report_engine(engine: &str, tr: &TraceReport, conformance: &RateConformance) {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("pal_{engine}.trace.json"));
    match std::fs::write(&path, tr.chrome_trace_json()) {
        Ok(()) => println!("  wrote {}", path.display()),
        Err(e) => eprintln!("  could not write {}: {e}", path.display()),
    }
    println!(
        "  telemetry: parks={} ring_highwater_max={} backpressure_wait_ns={} \
         seam_latency_observed_ns={} rings_within_capacity={}",
        tr.park_count(),
        tr.ring_highwater_max(),
        tr.backpressure_wait_ns(),
        tr.seam_latency_observed_ns(),
        tr.rings_within_capacity()
    );
    println!("  conformance: {}", conformance.verdict());
    let lines = match conformance.verdict() {
        ConformanceVerdict::Pass => Vec::new(),
        ConformanceVerdict::Fail => conformance.violations(),
        ConformanceVerdict::Inconclusive => conformance.inconclusive_sinks(),
    };
    for l in lines {
        println!("    {l}");
    }
}

fn main() {
    let (_, analysis) = oil::pal::analyze_pal().expect("the PAL decoder is schedulable");
    let threads = 2;
    let registry = oil::pal::pal_registry();
    let synth = SynthesisConfig::from_env();
    let oil::Executable {
        graph,
        plan,
        schedule,
        ..
    } = oil::build(oil::pal::PAL_DECODER_OIL, &registry, threads, &synth)
        .expect("the PAL decoder builds");
    let duration = picos(10e-3);
    // The PAL floor of the differential suites: its display sink is bound
    // by real FIR and resampler arithmetic. `OIL_RT_CONFORMANCE` overrides.
    let threshold =
        measure::conformance_threshold(if cfg!(debug_assertions) { 0.005 } else { 0.02 });

    println!("PAL decoder, traced on both engines ({threads} workers, 10 ms virtual)");
    for (channel, rate) in ["screen", "speakers"]
        .iter()
        .filter_map(|c| analysis.channel_rates.get(*c).map(|r| (c, r)))
    {
        println!(
            "  CTA: channel `{channel}` predicted at {} Hz",
            rate.to_f64()
        );
    }

    println!("\nselftimed:");
    let report = execute_selftimed(
        &graph,
        &plan,
        &KernelLibrary::pal(),
        duration,
        &SelfTimedConfig {
            threads,
            record_values: false,
            warmup_samples: 256,
            trace: true,
            ..SelfTimedConfig::default()
        },
    );
    let conformance = report.conformance(threshold);
    let tr = report.trace_report.as_ref().expect("tracing was enabled");
    report_engine("selftimed", tr, &conformance);

    println!("\nstaticsched:");
    let report = execute_staticsched(
        &graph,
        &schedule,
        &KernelLibrary::pal(),
        duration,
        &StaticConfig {
            record_values: false,
            warmup_samples: 256,
            trace: true,
            ..StaticConfig::default()
        },
    );
    let conformance = report.conformance(threshold);
    let tr = report.trace_report.as_ref().expect("tracing was enabled");
    report_engine("staticsched", tr, &conformance);

    // The machine-readable summary of the static-order run — the same
    // content as the Perfetto trace, aggregated (firing histograms, ring
    // high-water vs capacity, compile phases, conformance verdict).
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("pal_staticsched.summary.json");
    match std::fs::write(&path, tr.summary_json(Some(&conformance))) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\ncould not write {}: {e}", path.display()),
    }
}
