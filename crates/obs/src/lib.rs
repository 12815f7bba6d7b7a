#![warn(missing_docs)]

//! # swsimd-obs
//!
//! End-to-end observability for the swsimd serving stack, designed so
//! the paper's offline measurement discipline (GCUPS, utilization
//! accounting, per-kernel instrumentation — §IV) survives contact with
//! a live server:
//!
//! * [`trace`] — a structured-event tracer with RAII spans
//!   (`query → dispatch → kernel → traceback`). Events carry typed
//!   attributes (engine/ISA, precision, lane utilization, fault and
//!   retry causes) and flow to one process-wide [`Sink`]. With the
//!   `trace` feature disabled the [`span!`]/[`event!`] macros compile
//!   to a constant-false branch and cost nothing; with it enabled but
//!   no sink installed, the cost is one relaxed atomic load.
//! * [`hist`] — lock-free HDR-style log-linear histograms
//!   (`AtomicU64` buckets, ~3% relative error) for latency and GCUPS
//!   percentiles (p50/p95/p99/max) without locks on the record path.
//! * [`registry`] — named counter/gauge/histogram families keyed by
//!   label sets (scenario, kernel variant), with a process-global
//!   default registry.
//! * [`expo`] — Prometheus text format and JSON snapshot rendering.
//! * [`flight`] — a per-query flight recorder: bounded ring of
//!   completed-request audit records (trace id, stage breakdown,
//!   engine, retries/hedges, cancel reason) with a slow-query log.
//!
//! Cross-process stitching: [`trace::TraceCtx`] carries a 64-bit trace
//! id plus a parent span id across the wire; [`trace::adopt`] parents
//! a remote process's (or thread's) spans under it,
//! [`trace::Handoff`] carries a caller's context into the worker
//! threads that do part of its work, and span ids are
//! offset by a per-process nonce so two processes in one stitched tree
//! cannot reuse each other's ids.
//!
//! This crate is dependency-free and sits below `swsimd-core`, so the
//! kernels can emit spans without a dependency cycle.

pub mod expo;
pub mod flight;
pub mod hist;
pub mod registry;
pub mod trace;

pub use flight::{AuditRecord, FlightRecorder, ShardTiming, Stage, StageTiming};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{global, Counter, Gauge, Registry};
pub use trace::{
    adopt, current_trace, handoff, mint_id, set_sink, AdoptGuard, Event, EventKind, Handoff,
    Recorder, RecorderHandle, Sink, Span, StderrSink, TraceCtx, Value,
};
