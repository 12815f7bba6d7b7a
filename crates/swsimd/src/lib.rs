#![warn(missing_docs)]

//! # swsimd
//!
//! Umbrella crate for the swsimd workspace — a from-scratch Rust
//! reproduction of *"Further Optimizations and Analysis of
//! Smith-Waterman with Vector Extensions"* (IPPS 2024).
//!
//! The headline API is [`Aligner`]:
//!
//! ```
//! use swsimd::{Aligner, GapPenalties};
//! use swsimd::matrices::blosum62;
//!
//! let mut aligner = Aligner::builder()
//!     .matrix(blosum62())
//!     .gaps(GapPenalties::new(11, 1))
//!     .traceback(true)
//!     .build();
//! let result = aligner.align_ascii(b"MKVLAADTWGHK", b"MKVLADTWGHKRR");
//! println!("score {} cigar {}", result.score, result.alignment.unwrap().cigar());
//! ```
//!
//! Sub-crates, re-exported as modules:
//!
//! * [`simd`] — SIMD engines (scalar / SSE4.1 / AVX2 / AVX-512);
//! * [`matrices`] — BLOSUM/PAM data, reorganized layout, profiles;
//! * [`seq`] — FASTA, databases, transposed batches, synthetic data;
//! * [`core`] — the diagonal and batch kernels, traceback, adaptive
//!   precision, the [`Aligner`] API;
//! * [`baselines`] — Parasail-style striped / scan / diag comparators;
//! * [`perf`] — architecture profiles, frequency and top-down models;
//! * [`tune`] — the genetic-algorithm hyperparameter tuner;
//! * [`runner`] — threading, usage scenarios, the batch server;
//! * [`net`] — the networked sharded serving tier: CRC-framed wire
//!   protocol, shard workers, scatter-gather gateway with circuit
//!   breakers, hedging, and graceful degradation;
//! * [`obs`] — tracing spans, latency/GCUPS histograms, Prometheus and
//!   JSON exposition for the serving layer.

pub use swsimd_baselines as baselines;
pub use swsimd_core as core;
pub use swsimd_matrices as matrices;
pub use swsimd_net as net;
pub use swsimd_obs as obs;
pub use swsimd_perf as perf;
pub use swsimd_runner as runner;
pub use swsimd_seq as seq;
pub use swsimd_simd as simd;
pub use swsimd_tune as tune;

pub use swsimd_core::{run_battery, SelftestReport, TrustLadder, TrustState};
pub use swsimd_core::{
    validate_encoded, AlignError, AlignMode, AlignResult, Aligner, AlignerBuilder, Alignment,
    GapModel, GapPenalties, Hit, KernelStats, Op, Precision, Scoring,
};
pub use swsimd_runner::{
    checkpointed_search, durable_search, read_journal, read_journal_file, resume_search, FaultPlan,
    FaultStats, FaultyWriter, Journal, JournalError, JournalWriter, ResumeStats, ServeError,
};
pub use swsimd_runner::{OnMismatch, ShadowConfig, ShadowVerifier};
pub use swsimd_seq::{
    read_database_streaming_with, Database, IngestError, IngestOptions, IngestPolicy, IngestQuota,
    IngestReport, PersistError, SeqRecord,
};
pub use swsimd_simd::EngineKind;
