//! The metric and workload tables: the one place a name, unit, direction or
//! bound is written down. `BENCHMARK.json` is printed from here
//! (`oil-benchmark manifest`) and a unit test holds the committed file to it.

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// A count that must repeat bit-for-bit between runs of one commit.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

const fn exact(name: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit: "count",
        better: Better::Lower,
        bound: 0.0,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the toolchain sees. Every workload reports every one of
/// them (the contract's `--trace 0` output), so each is defined on an
/// *item*: a sink sample (`pal_*`, `wide_2w`), a kernel firing
/// (`modal_switch`) or a compiled program (`compile_corpus`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("items_per_s", "1/s", Higher, 0.25),
    e2e("cpu_ns_per_item", "ns", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics (the contract's `--trace 1` output). A workload
/// that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // oil-lang
    layer("lang.lex_us", "us", Lower),
    layer("lang.parse_us", "us", Lower),
    layer("lang.sema_us", "us", Lower),
    exact("lang.tokens"),
    exact("lang.source_bytes"),
    // oil-compiler::derive / codegen / rtgraph
    layer("compiler.derive_us", "us", Lower),
    layer("compiler.codegen_us", "us", Lower),
    layer("compiler.lower_us", "us", Lower),
    layer("compiler.plan_us", "us", Lower),
    exact("compiler.cta_components"),
    exact("compiler.cta_connections"),
    exact("compiler.rt_nodes"),
    // oil-cta
    layer("cta.sizing_ms", "ms", Lower),
    exact("cta.sizing_iterations"),
    layer("cta.consistency_us", "us", Lower),
    layer("cta.latency_us", "us", Lower),
    layer("cta.sizing_share", "ratio", Lower),
    // the compile op as a whole
    layer("compile.op_ms_p50", "ms", Lower),
    layer("compile.op_ms_p99", "ms", Lower),
    layer("compile.span_residual_max", "ratio", Lower),
    // oil-dataflow: the exponential baselines next to the polynomial check
    layer("dataflow.statespace_us", "us", Lower),
    layer("dataflow.hsdf_mcm_us", "us", Lower),
    layer("cta.cycle_consistency_us", "us", Lower),
    // oil-compiler::schedule
    layer("compiler.synthesize_1w_us", "us", Lower),
    layer("compiler.synthesize_2w_us", "us", Lower),
    layer("compiler.synth_phase.modal_admission_us", "us", Lower),
    layer("compiler.synth_phase.repetition_vector_us", "us", Lower),
    layer("compiler.synth_phase.firing_order_us", "us", Lower),
    layer("compiler.synth_phase.partition_us", "us", Lower),
    layer("compiler.synth_phase.fusion_us", "us", Lower),
    layer("compiler.synth_phase.admission_proof_us", "us", Lower),
    layer("compiler.synth_phase.per_mode_synthesis_us", "us", Lower),
    layer("compiler.synth_phase.transition_synthesis_us", "us", Lower),
    layer("compiler.synth_phase.seam_latency_proof_us", "us", Lower),
    exact("compiler.period_firings"),
    exact("compiler.cross_buffers"),
    exact("compiler.runs_fused"),
    exact("compiler.rings_elided"),
    exact("compiler.fused_chain_len_max"),
    layer("compiler.predicted_utilization_min", "ratio", Higher),
    layer("compiler.predicted_utilization_max", "ratio", Higher),
    // oil-dsp
    layer("dsp.fir63_ns_per_sample", "ns", Lower),
    layer("dsp.fir2047_ns_per_sample", "ns", Lower),
    layer("dsp.decimate_ns_per_sample", "ns", Lower),
    layer("dsp.resample_ns_per_sample", "ns", Lower),
    layer("dsp.mix_ns_per_sample", "ns", Lower),
    layer("dsp.dot_simd_ns_per_tap", "ns", Lower),
    layer("dsp.dot_scalar_ns_per_tap", "ns", Lower),
    layer("dsp.simd_available", "count", Higher),
    layer("dsp.copy_ns_per_sample", "ns", Lower),
    // oil-rt::kernel (one per coordinated function of the runtime workloads)
    layer("rt.kernel.ns_per_firing.mix", "ns", Lower),
    layer("rt.kernel.ns_per_firing.LPF", "ns", Lower),
    layer("rt.kernel.ns_per_firing.lpf_v", "ns", Lower),
    layer("rt.kernel.ns_per_firing.resamp", "ns", Lower),
    layer("rt.kernel.ns_per_firing.Audio", "ns", Lower),
    layer("rt.kernel.ns_per_firing.Video", "ns", Lower),
    layer("rt.kernel.ns_per_firing.heavy", "ns", Lower),
    layer("rt.kernel.ns_per_firing.arm0", "ns", Lower),
    layer("rt.kernel.ns_per_firing.arm1", "ns", Lower),
    layer("rt.kernel.ns_per_firing.arm2", "ns", Lower),
    layer("rt.kernel.ns_per_firing.front0", "ns", Lower),
    layer("rt.kernel.ns_per_firing.front1", "ns", Lower),
    layer("rt.kernel.ns_per_firing.front2", "ns", Lower),
    layer("rt.kernel.ns_per_firing.post", "ns", Lower),
    layer("rt.kernel_share", "ratio", Higher),
    // oil-rt::ring
    layer("rt.ring.same_thread_ns_per_token", "ns", Lower),
    layer("rt.ring.cross_thread_ns_per_token", "ns", Lower),
    layer("rt.ring.cross_thread_parks", "count", Lower),
    layer("rt.ring.cross_thread_wait_ns", "ns", Lower),
    // oil-rt::staticsched (from the traced repeat's reports)
    layer("rt.static.ns_per_firing", "ns", Lower),
    exact("rt.static.tokens"),
    exact("rt.static.iterations"),
    exact("rt.static.firings"),
    layer("rt.static.park_count", "count", Lower),
    layer("rt.static.backpressure_wait_ns", "ns", Lower),
    layer("rt.static.ring_highwater_max", "count", Lower),
    layer("rt.static.seam_latency_observed_ns", "ns", Lower),
    exact("rt.static.mode_switches"),
    exact("rt.static.transition_firings"),
    layer("rt.static.firing_p50_ns", "ns", Lower),
    layer("rt.static.firing_p99_ns", "ns", Lower),
    layer("rt.static.worker_busy_share_min", "ratio", Higher),
    layer("rt.static.worker_busy_share_max", "ratio", Higher),
    layer("rt.static.wait_share", "ratio", Lower),
    layer("rt.static.coord_share", "ratio", Lower),
    // oil-rt::trace / metrics
    layer("rt.trace.overhead_pct", "%", Lower),
    layer("rt.metrics.overhead_pct", "%", Lower),
    layer("rt.trace.dropped", "count", Lower),
    // oil-rt::selftimed (fallback engine, one thread, short horizon)
    layer("rt.selftimed.sink_samples_per_s", "1/s", Higher),
    layer("rt.selftimed.ns_per_firing", "ns", Lower),
    layer("rt.selftimed.parks", "count", Lower),
    // references and floors
    layer("rt.calendar.ref_ms", "ms", Lower),
    layer("sim.tokens_per_s", "1/s", Higher),
    layer("pal.native_samples_per_s", "1/s", Higher),
    layer("pal.native_ratio", "ratio", Lower),
    layer("gen.corpus_ms", "ms", Lower),
];

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "pal_1w",
        why: "PAL decoder, 1 worker: fused super-steps, rings elided; kernel and \
              engine-loop bound, so dsp/fusion gains show and ring/partition work must not \
              (item = sink sample)",
    },
    WorkloadDef {
        name: "pal_2w",
        why: "same graph, 2 workers: cross-worker rings, backpressure and parks dominate \
              (~1/11 of pal_1w); partitioner, ring and handoff gains show only here \
              (item = sink sample)",
    },
    WorkloadDef {
        name: "wide_2w",
        why: "8 independent 2047-tap FIR chains, 2 workers: kernel-bound with free cuts, \
              guards a partitioner that never splits; SIMD/FIR gains show, coordination \
              gains must not (item = sink sample)",
    },
    WorkloadDef {
        name: "modal_switch",
        why: "generated mode-dependent graph, synthetic kernels, 64 scripted mode switches, \
              1 worker: the only coordination-bound run (ns/firing); kernel gains must not \
              move it (item = kernel firing)",
    },
    WorkloadDef {
        name: "compile_corpus",
        why: "64 programs, source text to schedules at 1 and 2 workers: the analysis half; \
              bypasses oil-rt and oil-dsp, so runtime changes predict no change \
              (item = program compiled)",
    },
];

/// Seconds one run measures (`run_seconds`; the driver passes it back as
/// `--seconds`).
pub const RUN_SECONDS: u64 = 15;

/// A run's measured values, keyed by metric name.
#[derive(Debug, Default)]
pub struct Measured(Vec<(String, f64)>);

impl Measured {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn add(&mut self, name: &str, value: f64) {
        let current = self.get(name).unwrap_or(0.0);
        self.set(name, current + value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The contract's `metrics` object: every metric of `table`, in table
    /// order; a metric the workload never set reads 0.
    ///
    /// # Panics
    /// Panics on a measured name missing from `table` — a typo would
    /// otherwise vanish from the output without a trace.
    pub fn to_json(&self, table: &[MetricDef]) -> Value {
        for (name, _) in &self.0 {
            assert!(
                table.iter().any(|d| d.name == name),
                "metric `{name}` is not in the table"
            );
        }
        Value::Obj(
            table
                .iter()
                .map(|d| {
                    let value = self.get(d.name).unwrap_or(0.0);
                    (
                        d.name.to_string(),
                        Value::object([
                            ("value", Value::from(value)),
                            ("unit", Value::from(d.unit)),
                        ]),
                    )
                })
                .collect(),
        )
    }
}

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// `BENCHMARK.json`, in the shape the builder's contract prescribes.
pub fn manifest() -> Value {
    let def = |d: &MetricDef, with_bound: bool| {
        let mut fields = vec![
            ("name", Value::from(d.name)),
            ("unit", Value::from(d.unit)),
            ("better", Value::from(better_str(d.better))),
        ];
        if with_bound {
            fields.push(("bound", Value::from(d.bound)));
        }
        Value::object(fields)
    };
    Value::object([
        (
            "command",
            Value::Arr(vec![Value::from("bash"), Value::from("bench/run.sh")]),
        ),
        ("paths", Value::Arr(vec![Value::from("bench")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::object([("name", Value::from(w.name)), ("why", Value::from(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(END_TO_END.iter().map(|d| def(d, true)).collect()),
        ),
        (
            "per_layer",
            Value::Arr(PER_LAYER.iter().map(|d| def(d, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|d| d.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.unit.len() <= 16 && !d.unit.is_empty(), "{}", d.name);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        let setup = END_TO_END.iter().find(|d| d.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        assert!(manifest().to_string().len() < 64 * 1024);
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: {} chars", w.name, w.why.len());
            assert!(!w.why.contains('\n') && !w.why.contains("  "), "{}", w.name);
        }
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            crate::json::parse(&text).unwrap(),
            manifest(),
            "regenerate with `oil-benchmark manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn unset_metrics_read_zero_and_unknown_names_panic() {
        let mut m = Measured::default();
        m.set("setup_s", 0.5);
        m.add("setup_s", 0.25);
        let json = m.to_json(END_TO_END);
        let value = |name: &str| json.get(name)?.get("value")?.as_f64();
        assert_eq!(value("setup_s"), Some(0.75));
        assert_eq!(value("items_per_s"), Some(0.0));
        assert_eq!(json.as_object().unwrap().len(), END_TO_END.len());
        m.set("no_such_metric", 1.0);
        assert!(std::panic::catch_unwind(|| m.to_json(END_TO_END)).is_err());
    }
}
