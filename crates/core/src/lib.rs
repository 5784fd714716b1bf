//! # pmr-core — FX declustering for partial match retrieval
//!
//! This crate implements the data-distribution theory of **Kim & Pramanik,
//! "Optimal File Distribution For Partial Match Retrieval" (SIGMOD 1988)**:
//! given a multi-key-hashed file whose buckets are tuples
//! `<J_1, …, J_n>` with `J_i ∈ {0, …, F_i − 1}` and `M` parallel devices
//! (all sizes powers of two), decide which device stores each bucket so that
//! every *partial match query* — some fields specified, some not — spreads
//! its qualified buckets as evenly as possible across devices.
//!
//! The paper's method, **FX (Fieldwise eXclusive-or) distribution**, sends
//! bucket `<J_1, …, J_n>` to device `T_M(X_1(J_1) ⊕ … ⊕ X_n(J_n))`, where
//! `T_M` keeps the low `log2 M` bits and each `X_i` is a per-field
//! *transformation function* ([`transform`]). Fields at least as large as
//! `M` use the identity; smaller fields choose among `I`, `U`, `IU1`, `IU2`
//! to maximise the class of queries with provably optimal spread.
//!
//! ## Crate map
//!
//! * [`bits`] — the XOR set algebra (Lemmas 1.1 and 4.1) and `T_M`.
//! * [`system`] — validated bucket spaces ([`SystemConfig`]).
//! * [`query`] — partial match queries and specification [`Pattern`]s.
//! * [`transform`] — the four field transformation families.
//! * [`assign`] — strategies that pick a transform per field (including the
//!   Theorem 9 construction that is perfect optimal whenever at most three
//!   fields are smaller than `M`).
//! * [`fx`] — the [`FxDistribution`] method itself.
//! * [`general`] — generalized FX with arbitrary per-field tables (the
//!   paper's stated future-work direction; searchable via
//!   `pmr-analysis`'s optimizer).
//! * [`method`] — the [`DistributionMethod`] abstraction shared with the
//!   baselines crate.
//! * [`inverse`] — inverse mapping: per-device enumeration of qualified
//!   buckets (generic scan + FX-specific residue-indexed fast path).
//! * [`optimality`] — ground-truth response histograms and
//!   strict/k/perfect-optimality checkers.
//! * [`conditions`] — the paper's *sufficient* optimality conditions
//!   (Theorems 1–9, Corollaries 6.1 and 9.1, §4.2 summary) as predicates.
//! * [`report`] — whole-system optimality reports (per-k certified vs
//!   measured, clause histograms).
//! * [`theory`] — the theorems as machine-checkable claims, with a
//!   grid-sweep falsification harness (`pmr verify --max-fields 4
//!   --max-buckets 1024`).
//!
//! ## Quick start
//!
//! ```
//! use pmr_core::{FxDistribution, PartialMatchQuery, SystemConfig};
//! use pmr_core::method::DistributionMethod;
//!
//! // Example 1 from the paper: two fields of sizes 2 and 8, four devices.
//! let sys = SystemConfig::new(&[2, 8], 4).unwrap();
//! let fx = FxDistribution::basic(sys.clone()).unwrap();
//!
//! // Bucket <(001)_B, (011)_B> lands on device T_4(1 ⊕ 3) = 2.
//! assert_eq!(fx.device_of(&[1, 3]), 2);
//!
//! // The distribution is strict optimal for the query <1, *>: eight
//! // qualified buckets, two per device.
//! let q = PartialMatchQuery::new(&sys, &[Some(1), None]).unwrap();
//! let hist = pmr_core::optimality::response_histogram(&fx, &sys, &q);
//! assert_eq!(hist, vec![2, 2, 2, 2]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod assign;
pub mod bits;
pub mod conditions;
pub mod device_set;
pub mod error;
pub mod fx;
pub mod general;
pub mod inverse;
pub mod method;
pub mod optimality;
pub mod query;
pub mod report;
pub mod system;
pub mod theory;
pub mod transform;

pub use assign::{Assignment, AssignmentStrategy};
pub use device_set::DeviceSet;
pub use error::{Error, Result};
pub use fx::FxDistribution;
pub use general::GeneralFxDistribution;
pub use method::DistributionMethod;
pub use query::{PartialMatchQuery, Pattern, QualifiedBuckets};
pub use system::SystemConfig;
pub use transform::{Transform, TransformKind};
