//! # pmr-rt — hermetic runtime for the pmr workspace
//!
//! The workspace's entire runtime substrate, with zero external
//! dependencies, so the whole reproduction builds and tests offline:
//!
//! * [`rng`] — seedable xoshiro256++ PRNG (SplitMix64-seeded) with ranges,
//!   shuffling, byte filling, and reproducible stream-splitting. Every
//!   experiment seed in the workspace flows through this generator, which
//!   is what makes the paper-table regenerators byte-for-byte replayable.
//! * [`pool`] — resident pinned workers ([`pool::resident`]) with
//!   per-worker mailboxes and panic hand-back, which carry the batch
//!   query executor's device chunks beyond the calling thread's.
//! * [`buf`] — the little-endian append trait [`buf::BufMut`], implemented
//!   for `Vec<u8>`: the bucket-page and wire formats write plain byte
//!   vectors and read borrowed slices.
//! * [`check`] — a property-testing harness: seeded case generation,
//!   shrinking by halving, failure-seed replay. See
//!   [`rt_proptest!`].
//! * [`bench`](mod@bench) — micro-benchmark harness (warmup, timed
//!   iterations, median/p95, JSON-lines output, checksums for run-to-run
//!   comparability).
//! * [`sync`] — poison-free one-word aliases over `std::sync` locks.
//! * [`ec`] — GF(2^8) Reed–Solomon erasure coding (const-built log/exp
//!   tables, systematic Vandermonde encode, per-shard CRC framing, any
//!   `k`-of-`k+r` decode) backing the storage layer's parity redundancy
//!   tier.
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) and
//!   retry policy ([`fault::RetryPolicy`]): seeded per-(device, bucket,
//!   attempt) decisions and capped exponential backoff in *simulated*
//!   microseconds, so chaos experiments replay bit-for-bit.
//! * [`obs`] — observability: structured spans ([`span!`]), one static
//!   metric table (counters + fixed-bucket histograms), mergeable snapshots
//!   ([`obs::snapshot`]) for cluster telemetry, a periodic JSON-lines
//!   emitter ([`obs::emit`]), and JSON-lines / in-memory trace sinks
//!   selected via `PMR_TRACE`. Branch-cheap when disabled, so
//!   instrumentation stays on permanently.
//! * [`stats`] — the one shared percentile implementation (sample
//!   interpolation and fixed-bucket histogram readout) used by the bench
//!   harness, the net load generator, and attribution tables.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod bench;
pub mod buf;
pub mod check;
pub mod ec;
pub mod fault;
pub mod obs;
pub mod pool;
pub mod rng;
pub mod stats;
pub mod sync;

pub use rng::{seed_from_env_or, Rng};
