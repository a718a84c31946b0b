//! Workload generators for the Scavenger experiments.
//!
//! Reproduces the paper's workload matrix (§IV-A):
//!
//! * **Value sizes** — fixed (256 B…32 KB), *Mixed-8K* (1:1 small uniform
//!   100–512 B : large 16 KB, ByteDance's OLTP pattern), and *Pareto-1K*
//!   (generalized Pareto, ≈1 KB mean).
//! * **Key distributions** — uniform and Zipfian (YCSB's scrambled
//!   zipfian; constants 0.5–0.99).
//! * **Keys** — constant 24 B.
//! * **YCSB** core workloads A–F.
//!
//! The [`runner`] drives any store implementing [`KvStore`] and tracks the
//! logical dataset size (the denominator of space amplification) exactly.

pub mod crash;
pub mod dist;
pub mod follower;
pub mod keys;
pub mod ops;
pub mod runner;
pub mod values;
pub mod ycsb;

use scavenger_util::Result;

/// Minimal store interface the workloads drive. The bench crate's
/// `DbKvStore` adapter implements it for a scavenger `Db` of any size.
pub trait KvStore {
    /// Insert or overwrite.
    fn put(&self, key: &[u8], value: &[u8]) -> Result<()>;
    /// Point lookup.
    fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>>;
    /// Delete.
    fn delete(&self, key: &[u8]) -> Result<()>;
    /// Scan from `start`, returning up to `limit` `(key, value)` pairs.
    fn scan(&self, start: &[u8], limit: usize) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;
}
