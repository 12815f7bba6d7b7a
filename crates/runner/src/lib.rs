#![allow(clippy::needless_range_loop)] // kernel loops index several parallel arrays by design
#![warn(missing_docs)]

//! # swsimd-runner
//!
//! Deployment layer: residue-balanced database partitioning across
//! scoped threads, the paper's three usage scenarios (§II-C, §IV-G),
//! the centralized batch server (§VI), and GCUPS metrics.
//!
//! Every layer records into the [`swsimd_obs`] observability crate:
//! scenarios and the server feed latency/GCUPS histograms in the
//! process-global registry (scraped via
//! [`BatchServer::prometheus_text`] / [`BatchServer::json_snapshot`]),
//! and pool/server degradation decisions emit structured trace events
//! when a sink is installed.

pub mod fault;
pub mod journal;
pub mod metrics;
pub mod msa;
pub mod pool;
pub mod qos;
pub mod scenarios;
pub mod server;
pub mod shadow;

pub use fault::{FaultPlan, FaultStats, FaultyWriter, ReplyFault};
pub use journal::{
    checkpointed_search, durable_search, read_journal, read_journal_file, resume_search, Journal,
    JournalEntry, JournalError, JournalMeta, JournalSink, JournalWriter, ResumeStats,
};
pub use metrics::{query_latency, scenario_gcups, CellTimer, Throughput};
pub use msa::{pairwise_scores, upgma, GuideTree, ScoreMatrix};
pub use pool::{parallel_pairs, parallel_search, try_parallel_search, PoolConfig, SearchOutput};
pub use qos::{
    clamp_tenant, tenant_label, Brownout, BrownoutConfig, Fidelity, QosConfig, RateConfig,
    TenantPolicy, TokenBucket, MAX_TENANT_LEN,
};
pub use scenarios::{scenario1, scenario2, scenario3, ScenarioReport};
pub use server::{
    rank_hits, BatchServer, PendingQuery, QueryOutcome, Request, ServeError, ServerClient,
    ServerConfig, ServerStats,
};
pub use shadow::{OnMismatch, Sampler, ShadowConfig, ShadowOutcome, ShadowVerifier};
