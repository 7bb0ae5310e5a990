//! The OIL multiprocessor compiler.
//!
//! This crate implements the compilation flow of the paper (Sections IV–V):
//!
//! 1. the front end of [`oil_lang`] parses and analyses the program;
//! 2. [`parallelize`] extracts a **task graph** from every sequential module —
//!    one task per function call / assignment, one circular buffer per
//!    variable, with guarded statements becoming unconditionally executing
//!    tasks (Fig. 4);
//! 3. [`derive`](mod@derive) builds the **CTA model**: a component per task, per
//!    while-loop, per module, per source/sink and per FIFO, with transfer
//!    rate ratios `γ`, constant delays `ε` and rate-dependent delays `φ`
//!    following Figs. 7–10;
//! 4. [`buffers`] runs the polynomial-time CTA buffer sizing and maps the
//!    resulting capacities back onto OIL buffers and FIFOs;
//! 5. [`codegen`] emits a sequential code fragment per task plus the runtime
//!    glue (the paper generates C++; this reproduction generates Rust);
//! 6. [`rtgraph`] lowers the compiled program into the flat, engine-agnostic
//!    runtime graph the execution engines (`oil-sim`, `oil-rt`) consume;
//! 7. [`schedule`] synthesises **periodic static-order schedules** from the
//!    runtime graph's repetition vector — one validated firing list per
//!    worker, replayed by `oil-rt`'s static-order engine with zero runtime
//!    scheduling.
//!
//! The front door is [`build`]: source text to a proven [`Executable`]
//! (compiled program, runtime graph, plan and static-order schedule).
//! [`compile`] stops after the analysis.

pub mod buffers;
pub mod codegen;
pub mod costmodel;
pub mod derive;
pub mod parallelize;
pub mod pipeline;
pub mod rtgraph;
pub mod schedule;

pub use buffers::BufferPlan;
pub use codegen::GeneratedCode;
pub use costmodel::{KernelCost, KernelCostModel};
pub use derive::{derive_cta_model, DerivedModel};
pub use parallelize::{extract_task_graph, runnable_tasks};
pub use pipeline::{
    build, compile, BuildError, CompileError, CompiledProgram, CompilerOptions, Executable,
};
pub use rtgraph::{
    RtBuffer, RtBufferId, RtGraph, RtNode, RtNodeId, RtSink, RtSinkId, RtSource, RtSourceId,
};
pub use schedule::{
    collapse_modal, modal_admission, synthesize, ModalClusterInfo, ModalSchedule, ModeScript,
    PhaseSpan, ScheduleError, StaticSchedule, SynthesisConfig,
};
