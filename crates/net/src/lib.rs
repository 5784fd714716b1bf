//! `pmr-net` — sharded multi-node query service for partial match
//! retrieval, built on the Kim & Pramanik FX-declustered storage layer.
//!
//! The single-process [`pmr_storage::exec::Executor`] already runs one
//! resident worker per device; this crate stretches that picture across
//! node boundaries. A [`Frontend`] plans each query **once** (the same
//! fast-path-vs-scan cost decision as `pmr-storage::exec`), scatters the
//! plans to N [`node`]s — each a resident executor over a contiguous
//! device subrange (see [`partition`]) — over a length-prefixed binary
//! [`wire`] protocol, and gathers the raw per-device yields back into
//! per-query [`pmr_storage::exec::ExecutionReport`]s. Under FX the
//! scatter is targeted: a node is sent only the queries whose
//! closed-form device set ([`pmr_core::FxDistribution::device_set`])
//! meets its range.
//!
//! Two invariants anchor the design:
//!
//! - **Bit equality.** The frontend merges yields with the same
//!   device-ordered assembly as a single-process
//!   [`execute_batch`](pmr_storage::exec::Executor::execute_batch), so a
//!   healthy cluster's reports — records, response times, f64 folds —
//!   are bit-for-bit identical to running everything in one process.
//! - **Degrade, don't fail.** A node that misses the gather deadline
//!   (crashed, killed, or a seeded [`chaos::NetFaultPlan`] drop) costs
//!   coverage on exactly its devices that hold qualified buckets — the
//!   frontend synthesizes `Lost` yields for them, per query — and
//!   repeated misses trip a circuit breaker. Queries keep answering from
//!   the surviving nodes; a query that touches no dead node is
//!   unaffected.
//!
//! Transport is in-memory channels by default ([`transport::mem_pair`])
//! and loopback TCP behind the `tcp` feature — both speak the identical
//! frame format, and nothing outside `std` is used anywhere.
//!
//! [`loadgen`] closes the loop: seeded query mixes, a closed-loop
//! multi-threaded driver, wall/simulated latency percentiles, and an
//! order-independent report checksum for cross-checking a cluster
//! against a single-process run. The `pmr` CLI exposes all of it as
//! `serve` and `loadgen`.
//!
//! Protocol revision v1.1 adds cluster-wide telemetry: scatters carry an
//! optional [`wire::TraceContext`], responses an optional
//! [`wire::Telemetry`] block of mergeable counter/histogram deltas the
//! frontend folds beside its metric table under `node{N}.` names, and every
//! gather feeds a per-node critical-path [attribution
//! table](frontend::Frontend::attribution) (`loadgen --watch` streams it
//! live). See the [`wire`] module docs for the compatibility story.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod chaos;
pub mod cluster;
pub mod frontend;
pub mod loadgen;
pub mod node;
pub mod partition;
pub mod transport;
pub mod wire;

pub use chaos::NetFaultPlan;
pub use cluster::{Cluster, ClusterConfig};
pub use frontend::{Frontend, FrontendConfig, NodeAttribution, NodeStats, RECENT_WINDOW};
pub use loadgen::{KillSpec, LoadgenOpts, LoadgenSummary};
pub use wire::{Telemetry, TraceContext, WireError};
