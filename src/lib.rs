//! Workspace umbrella crate.
//!
//! Exists so the repository-level `tests/` and `examples/` directories
//! have a package to attach to; re-exports the public engine crate,
//! whose surface is the one handle [`Db`] — plain or sharded. Start
//! with the repo-root `README.md` (crate map, quickstart) and
//! `ARCHITECTURE.md` (API layer, read path, GC pipeline, throttling,
//! shard layer).

#![forbid(unsafe_code)]

pub use scavenger::*;
