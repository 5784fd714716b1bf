//! # pmr-analysis — experiment engine for the SIGMOD 1988 evaluation
//!
//! Regenerates every table and figure of Kim & Pramanik's evaluation
//! section:
//!
//! * [`response`] — average largest response sizes (Tables 7–9): for each
//!   number of unspecified fields `k`, the per-pattern largest response
//!   size averaged over all `C(n, k)` specification patterns, for Modulo,
//!   GDM1–3, FX, and the analytic optimum.
//! * [`probability`] — probability of strict optimality (Figures 1–4):
//!   the fraction of query patterns each method's published *sufficient
//!   conditions* certify, plus (beyond the paper) the empirically measured
//!   fraction on scaled-down systems.
//! * [`tables`] — plain-text rendering of distribution tables (Tables 1–6)
//!   and result matrices, in the paper's layout.
//! * [`crossover`] — per-k winner tables and crossover localisation (the
//!   Tables 8–9 first-row phenomenon).
//! * [`paper`] — the published Tables 7–9 embedded cell by cell (with OCR
//!   legibility flags) and automated paper-vs-measured diffing.
//! * [`optimize`] — a seeded search over linear FX maps (the paper's
//!   future-work direction), scored by rank, beating the closed-form
//!   assignments on systems with four or more small fields.
//! * [`experiments`] — one driver per table/figure, used by the
//!   `pmr-bench` regenerator binaries and the integration tests.
//!
//! The engine exploits a symmetry all three method families share
//! (declared via [`pmr_core::DistributionMethod::histogram_shift_invariant`]
//! and cross-checked by property tests): within one specification pattern,
//! changing the specified *values* only permutes the response histogram,
//! so one histogram per pattern suffices for exact averages.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod crossover;
pub mod experiments;
pub mod optimize;
pub mod paper;
pub mod probability;
pub mod response;
pub mod tables;

pub use experiments::{figure, table_response, Experiment};
pub use probability::{FigureConfig, FigureCurves};
pub use response::{average_largest_response, optimal_average, ResponseTable};
