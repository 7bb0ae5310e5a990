//! `oil-rt` — the execution runtime: two engines and a reference interpreter.
//!
//! The paper's thesis is that OIL's restrictions make every program
//! *automatically parallelizable* while staying temporally analysable. The
//! discrete-event simulator (`oil-sim`) validates the analysis; this crate
//! validates the **parallelization**: it executes a compiled program's task
//! graph with actual `oil-dsp` kernels computing actual sample streams, on
//! real OS threads in the two engines, and holds every execution to one
//! sequential reference.
//!
//! Architecture (see the module docs for detail):
//!
//! * [`exec`] — the **reference interpreter**: the simulator's one calendar
//!   (`oil_sim::network`) with a kernel payload, kernels fired inline. Its
//!   timing is the simulator's by construction, guarded by the pinned
//!   digest corpus, the insertion-order test and the miss and latency sweep
//!   of `tests/differential.rs`; the engines' value streams are compared
//!   against it;
//! * [`selftimed`] — the **free-running engine**: no clock, tasks fire as
//!   soon as tokens and space allow, batched by the repetition-vector plan
//!   (`oil_compiler::rtgraph::plan`), verified against the interpreter
//!   through the value plane (`tests/selftimed_differential.rs`);
//! * [`staticsched`] — the **compiled static-order engine**: each worker
//!   replays a periodic firing list synthesised and validated at compile
//!   time (`oil_compiler::schedule`), with zero readiness scanning and
//!   synchronisation only on cross-worker buffers
//!   (`tests/staticsched_differential.rs`);
//! * [`ring`] — lock-free bounded SPSC ring buffers with bounded-spin →
//!   yield → park/unpark blocking wait paths; one per cross-worker buffer
//!   of the two engines (capacity from CTA buffer sizing);
//! * [`kernel`] — DSP-backed and synthetic kernels, mapped from coordinated
//!   function names by a [`KernelLibrary`];
//! * [`measure`] — per-buffer value-stream traces, and one rate monitor
//!   per sink ([`SinkMonitor`]) whose one judge returns one
//!   [`RateVerdict`]: end-of-run conformance to the CTA-predicted rate
//!   (the steady window at a threshold) and drift (each window of a
//!   metered run at the predicted rate);
//! * [`trace`] — low-overhead per-worker event tracing of the two engines:
//!   firing/seam spans, park/backpressure counters and ring high-water
//!   marks, exported as a stable JSON summary or a Perfetto-loadable Chrome
//!   trace. Off by default; enabling it never changes value streams;
//! * [`metrics`] — the same workers' counters without the events: work
//!   items, busy time, a log₂ firing histogram, parks and ring waits, plus
//!   the worst sink drift verdict. Each worker owns one probe that feeds
//!   both [`trace`] and [`metrics`] from one clock, folded at join; off,
//!   each instrumentation site is one branch;
//! * [`profile`] — kernel cost calibration: measures ns/firing per
//!   coordinated function (trimmed-median estimator), the table benchmarks
//!   use to split a run's time into kernel work and coordination.
//!
//! All three consume the same [`oil_compiler::rtgraph::RtGraph`] lowering
//! as the simulator, so differential testing compares *scheduling
//! semantics*, not graph construction.

pub mod exec;
pub mod kernel;
pub mod measure;
pub mod metrics;
pub mod profile;
pub mod ring;
pub mod selftimed;
pub mod staticsched;
pub mod trace;

pub use exec::{execute, RtConfig, RtReport, SinkStream};
pub use kernel::{Kernel, KernelLibrary, SourceKernel};
pub use measure::{RateVerdict, SinkMonitor, ValueTrace, WindowObs};
pub use metrics::{MetricsConfig, MetricsReport};
pub use profile::{profile_graph, KernelCosts, ProfileConfig};
pub use selftimed::{
    execute_selftimed, execute_selftimed_scripted, SelfTimedConfig, SelfTimedReport,
};
pub use staticsched::{
    execute_staticsched, execute_staticsched_scripted, StaticConfig, StaticReport,
};
pub use trace::{env_trace, TraceReport};
