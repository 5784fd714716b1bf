//! Worker threads for the query executor: [`resident::ResidentPool`],
//! long-lived pinned workers with per-worker mailboxes, which carry a
//! batch's device chunks beyond the caller's own (see the submodule docs).

pub mod resident;
