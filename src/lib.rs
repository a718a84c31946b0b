//! Workspace umbrella crate.
//!
//! Exists so the repository-level `tests/` and `examples/` directories
//! have a package to attach to; re-exports the public engine crate —
//! including the unified trait surface ([`KvRead`] / [`KvWrite`] /
//! [`Maintenance`], umbrella [`Engine`]) that [`Db`] — plain or
//! sharded — implements. Start with the repo-root `README.md` (crate
//! map, quickstart) and `ARCHITECTURE.md` (API layer, read path, GC
//! pipeline, throttling, shard layer).

pub use scavenger::*;
