//! # pmr — FX declustering for partial match retrieval
//!
//! Umbrella crate re-exporting the whole workspace, which implements
//! **Kim & Pramanik, "Optimal File Distribution For Partial Match
//! Retrieval" (SIGMOD 1988)** end to end:
//!
//! * [`core`] — the paper's contribution: the FX (fieldwise XOR)
//!   distribution method, its `I`/`U`/`IU1`/`IU2` field transformations,
//!   the optimality theory (ground-truth checkers, sufficient
//!   conditions, machine-checked theorems), fast inverse mapping, and
//!   the generalized-table extension.
//! * [`baselines`] — Disk Modulo, GDM (with automated parameter search),
//!   random allocation, spanning-path and binary-CPF heuristics.
//! * [`mkh`] — the multi-key hashing substrate: schemas, records,
//!   per-field hashers, dynamic directories, field-size design.
//! * [`storage`] — the simulated parallel testbed: devices with a cost
//!   model, declustered files, parallel executors, persistence.
//! * [`analysis`] — the experiment engine regenerating every table and
//!   figure of the paper's evaluation, plus the annealing optimizer.
//! * [`rt`] — the hermetic runtime: seedable PRNG, resident worker pool,
//!   zero-copy buffers, property-test and micro-benchmark harnesses. The
//!   workspace has **zero external dependencies**; everything that would
//!   otherwise come from a registry crate lives here.
//!
//! ## End-to-end example
//!
//! ```
//! use pmr::core::{FxDistribution, method::DistributionMethod, optimality};
//! use pmr::mkh::{FieldType, Record, Schema, Value};
//! use pmr::storage::{exec::execute_parallel, CostModel, DeclusteredFile};
//!
//! // Schema with power-of-two hash-class counts, over 8 devices.
//! let schema = Schema::builder()
//!     .field("author", FieldType::Str, 8)
//!     .field("year", FieldType::Int, 8)
//!     .field("subject", FieldType::Str, 4)
//!     .devices(8)
//!     .build()
//!     .unwrap();
//!
//! // FX with Theorem-9 transforms: perfect optimal here (≤ 3 small fields).
//! let fx = FxDistribution::auto(schema.system().clone()).unwrap();
//! assert!(optimality::is_perfect_optimal(&fx, schema.system()));
//!
//! // Fill, query, and retrieve in parallel.
//! let mut file = DeclusteredFile::new(schema, fx, 42).unwrap();
//! for i in 0..100 {
//!     file.insert(Record::new(vec![
//!         format!("author{}", i % 5).into(),
//!         Value::Int(1970 + i % 30),
//!         "databases".into(),
//!     ]))
//!     .unwrap();
//! }
//! let q = file.query(&[("author", "author3".into())]).unwrap();
//! let report = execute_parallel(&file, &q, &CostModel::main_memory()).unwrap();
//! assert_eq!(
//!     report.histogram().iter().sum::<u64>(),
//!     q.qualified_count_in(file.system())
//! );
//! ```
//!
//! See `README.md` for the architecture map, `docs/TUTORIAL.md` for a
//! guided walkthrough, `DESIGN.md` for the paper-to-module index, and
//! `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pmr_analysis as analysis;
pub use pmr_baselines as baselines;
pub use pmr_core as core;
pub use pmr_mkh as mkh;
pub use pmr_rt as rt;
pub use pmr_storage as storage;
