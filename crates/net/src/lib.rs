//! Networked sharded serving tier for swsimd.
//!
//! Std-only (no async runtime, no serde on the wire): a
//! length-prefixed, CRC32-framed binary protocol over TCP connects
//! three roles:
//!
//! - **Shard workers** ([`ShardServer`]) each own one deterministic
//!   slice of the database ([`swsimd_seq::Database::partition`]) and
//!   answer queries for it through the in-process batch server, with
//!   optional journaled durability and client-drop cancellation.
//! - **The gateway** ([`Gateway`], [`GatewayServer`]) scatter-gathers
//!   across shard groups with bounded retries ([`RetryPolicy`]),
//!   per-replica circuit breakers ([`ShardBreaker`]), p99-based
//!   request hedging, and graceful degradation: a dead shard yields a
//!   partial result marked `degraded` with the missing slice listed,
//!   not a failed query.
//! - **Clients** ([`NetClient`]) speak the same frames to either.
//!
//! Every failure mode is driven deterministically in tests through
//! [`swsimd_runner::FaultPlan`] network faults — refused connects,
//! torn and bit-flipped reply frames, delayed shards — so the retry /
//! hedge / degrade machinery is exercised without sleeps-and-hope.
//! See `DESIGN.md` §13 for the wire format and state machines.

pub mod backoff;
pub mod breaker;
pub mod chaos;
pub mod client;
mod conn;
pub mod front;
pub mod gateway;
pub mod listen;
pub mod metrics;
pub mod shard;
pub mod supervisor;
pub mod wire;

pub use backoff::RetryPolicy;
pub use breaker::{BreakerState, ShardBreaker};
pub use chaos::{seed_from_env, ChaosEvent, ChaosFault, ChaosSchedule};
pub use client::{FinReply, HitsReply, NetClient, NetError, PongReply, StreamEvent, StreamHandle};
pub use front::{GatewayServer, GATEWAY_SHARD_ID};
pub use gateway::{
    Gateway, GatewayConfig, GatewayQos, GatewayResponse, GatewayStream, ProberHandle, StreamItem,
};
pub use listen::{apply_socket_opts, bind_reuse};
pub use metrics::{
    socket_opt_failures, AbandonReason, GatewayMetrics, NetCancelled, ReplicaMetrics,
    StreamMetrics, SupervisorMetrics, TenantEdgeMetrics,
};
pub use shard::{ShardConfig, ShardServer};
pub use supervisor::{ChildSpec, ChildState, Supervisor, SupervisorConfig};
pub use wire::{
    ranking_digest, read_msg, write_msg, Msg, RemoteError, StreamToken, WireError, MAX_FRAME,
};
