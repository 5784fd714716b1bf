//! What remains of the decoded-page cache: one constant, kept only for
//! `perfbench/`, which reads it. Every read now decodes (or copies) the
//! stored page bytes; nothing is cached. Remove this module when the
//! benchmark is next rebuilt (ROADMAP item 1).

/// The former per-device cache capacity, in pages. Read by nothing but
/// `perfbench/`; [`crate::DeclusteredFile::set_cache_capacity`] ignores
/// any capacity it is given.
pub const DEFAULT_CAPACITY: usize = 1024;
