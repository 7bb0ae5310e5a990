//! Profile-guided scheduling, end to end, on the PAL decoder:
//!
//! 1. **Calibrate** — measure every PAL kernel's ns/firing on this host
//!    (`oil::rt::profile`, trimmed-median estimator) and write the
//!    host-fingerprinted `KernelCostModel` artifact to
//!    `pal_cost_model.json`.
//! 2. **Steer** — synthesize the static-order schedule twice, on declared
//!    CTA response times and on the measured costs, and print the
//!    predicted per-worker utilization of each.
//! 3. **Verify** — run the measured-cost schedule with the always-on
//!    metrics registry and print its health line (firing percentiles,
//!    parks, drift verdict): observations steer placement, the replay
//!    proof and the live drift oracle keep it honest.
//!
//! Point a later run at the artifact with `OIL_COST_MODEL=pal_cost_model.json`
//! — `SynthesisConfig::from_env()` picks it up everywhere.

use oil::compiler::schedule::SynthesisConfig;
use oil::rt::{
    execute_staticsched, profile_graph, KernelLibrary, MetricsConfig, ProfileConfig, StaticConfig,
};
use oil::sim::picos;

fn main() {
    // The PAL decoder built for two workers on its declared costs.
    let workers = 2usize;
    let registry = oil::pal::pal_registry();
    let build = |config: &SynthesisConfig| {
        oil::build(oil::pal::PAL_DECODER_OIL, &registry, workers, config)
            .expect("the PAL decoder builds")
    };
    let oil::Executable {
        graph,
        schedule: declared,
        ..
    } = build(&SynthesisConfig::default());
    let lib = KernelLibrary::pal();

    // 1. Calibrate.
    println!("calibrating {} PAL kernels…", graph.nodes.len());
    let model = profile_graph(&graph, &lib, &ProfileConfig::default());
    for (function, cost) in &model.entries {
        println!(
            "  {function:<12} {:>10.1} ns/firing  (burst {}, {} repeats)",
            cost.ns_per_firing, cost.burst, cost.samples
        );
    }
    let path = "pal_cost_model.json";
    std::fs::write(path, model.to_json()).expect("write cost model");
    println!(
        "wrote {path} (host {}, fingerprint {:016x})",
        model.host,
        model.fingerprint()
    );

    // 2. Steer the partition with the measurements.
    let measured = build(&SynthesisConfig {
        cost_model: Some(model),
        ..SynthesisConfig::default()
    })
    .schedule;
    let pct = |u: &[f64]| -> String {
        u.iter()
            .map(|x| format!("{:.1}%", x * 100.0))
            .collect::<Vec<_>>()
            .join(" / ")
    };
    println!("\npredicted per-worker utilization at {workers} workers:");
    println!("  declared costs: {}", pct(&declared.predicted_utilization));
    println!("  measured costs: {}", pct(&measured.predicted_utilization));

    // 3. Run the measured-cost schedule with metrics on.
    let report = execute_staticsched(
        &graph,
        &measured,
        &lib,
        picos(5e-3),
        &StaticConfig {
            record_values: false,
            warmup_samples: 256,
            metrics: Some(MetricsConfig::default()),
            ..StaticConfig::default()
        },
    );
    let m = report.metrics.as_ref().expect("metrics were enabled");
    println!("\n{}", m.summary_line());
    println!(
        "measured per-worker utilization: {}",
        pct(&m.measured_utilization(report.wall.as_nanos() as u64))
    );
    let snapshot = "pal_metrics.summary.json";
    std::fs::write(snapshot, m.summary_json()).expect("write metrics snapshot");
    println!("wrote {snapshot}");
}
