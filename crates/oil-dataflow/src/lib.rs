//! Dataflow models and baseline temporal analyses for the OIL toolchain.
//!
//! The OIL compiler extracts a **task graph** from every sequential module
//! (one task per function call or assignment, one circular buffer per
//! variable, method of Geuns et al. LCTES'13), abstracts each task as a
//! **dataflow actor** and finally derives a CTA component from it. This crate
//! provides those intermediate models plus the *exact* dataflow analyses the
//! paper compares against:
//!
//! * [`index`] — typed graph indices ([`PortId`], [`ActorId`], [`ChannelId`],
//!   [`GroupId`]) and index-keyed vectors ([`IndexVec`]) shared by every
//!   layer, so cross-indexing mistakes are type errors.
//! * [`rational`] — exact rational arithmetic used by repetition vectors,
//!   rate computations and (since the exact-rational refactor) every CTA
//!   analysis result.
//! * [`taskgraph`] — tasks, guards and circular buffers with multiple
//!   producers/consumers.
//! * [`sdf`] — Synchronous Dataflow graphs, repetition vectors, consistency
//!   and deadlock analysis.
//! * [`hsdf`] — expansion of an SDF graph to its homogeneous equivalent and
//!   its exact Maximum Cycle Mean (a parametric maximum cycle ratio search
//!   in rational arithmetic).
//! * [`statespace`] — exact self-timed state-space throughput analysis, the
//!   exponential-time baseline referred to in the paper's related work.
//! * [`fnv`] — the one stable FNV-1a hasher behind every golden digest.

pub mod fnv;
pub mod hsdf;
pub mod index;
pub mod rational;
pub mod sdf;
pub mod statespace;
pub mod taskgraph;
pub mod unionfind;

pub use hsdf::{ExactCycleRatio, HsdfGraph};
pub use index::{ActorId, ChannelId, GroupId, Idx, IndexVec, PortId};
pub use rational::Rational;
pub use sdf::{EdgeId, SdfActor, SdfEdge, SdfGraph};
pub use statespace::SelfTimedAnalysis;
pub use taskgraph::{BufferId, LoopId, Task, TaskBuffer, TaskGraph};
