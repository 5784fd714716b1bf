//! # pmr-storage — simulated parallel-device storage
//!
//! The paper evaluates distribution methods on a hypothetical symmetric
//! parallel system: "all parallel devices have the same characteristics,
//! and the interconnection network topology is symmetric … the response
//! time for a partial match query is determined by the device which has
//! the largest number of qualified buckets" (§5.2.1). This crate builds
//! that testbed:
//!
//! * [`cost`] — a parametric device cost model (seek + per-bucket
//!   transfer + per-address CPU), with presets for disk-like and
//!   main-memory-like devices.
//! * [`encode`] — compact record encoding for bucket pages: records
//!   append to a plain `Vec<u8>` through [`pmr_rt::buf::BufMut`] and
//!   decode from borrowed slices.
//! * [`device`] — a simulated device: bucket-addressed store plus access
//!   accounting, guarded by a [`pmr_rt::sync`] lock for parallel workers.
//! * [`cache`] — the per-device decoded-page cache: `Arc`-shared hot
//!   reads, kept coherent by the device's store lock, with CLOCK
//!   eviction.
//! * [`mod@file`] — [`DeclusteredFile`]: schema + multi-key hash + distribution
//!   method + `M` devices; insertion and querying.
//! * [`exec`] — the parallel query executor (one [`pmr_rt::pool`] worker
//!   per device) producing an [`exec::ExecutionReport`] with per-device
//!   response sizes and simulated response time.
//! * [`mirror`] — buddy-device mirroring (`d ⊕ M/2`): the failover copy
//!   placement behind degraded execution.
//! * [`parity`] — erasure-coded redundancy ([`parity::ParityStore`]):
//!   `k + r` Reed–Solomon stripes over bucket pages on XOR-coset device
//!   groups, surviving any `r` simultaneous outages at `~r/k` overhead.
//! * [`index`] — device-local inverted bucket indexes (the two-stage
//!   model's data-construction stage).
//! * [`metrics`] — balance metrics over response histograms.
//! * [`persist`] — snapshot save/load of declustered files.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod cost;
pub mod device;
pub mod encode;
pub mod exec;
pub mod file;
pub mod index;
pub mod metrics;
pub mod mirror;
pub mod parity;
pub mod persist;

pub use cost::CostModel;
pub use device::{BucketRead, Device, ReadFault};
pub use exec::{
    DeviceOutcome, DeviceReport, DeviceYield, ExecPolicy, ExecutionReport, Executor, PlannedQuery,
    Redundancy,
};
pub use file::DeclusteredFile;
