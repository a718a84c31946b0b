//! Hooks connecting the index LSM-tree to the value store above it.
//!
//! The KV-separated engine (the `scavenger` crate) plugs into flush and
//! compaction through a [`ValueHook`]. For every output job the hook opens
//! a [`ValueSession`] which:
//!
//! * transforms entries about to be written (separating large values into
//!   value SSTs at flush, relocating blob values during compaction in
//!   BlobDB mode);
//! * observes every entry **dropped** by the merge — this is the paper's
//!   central coupling: a dropped `ValueRef` converts *hidden garbage* into
//!   *exposed garbage* (§II-D), and a dropped key is a hotness signal for
//!   the DropCache (§III-B3);
//! * returns a [`ValueEditBundle`] folded into the job's version edit, so
//!   value-store state changes commit atomically with the index change.
//!
//! The store learns every committed value edit, the MANIFEST's replayed
//! history included, through one call: [`ValueHook::on_committed`].

use crate::version::FileNumbers;
use bytes::Bytes;
use scavenger_table::Tail;
use scavenger_util::ikey::{SeqNo, ValueType};
use scavenger_util::Result;

/// Why the merge dropped an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// A newer version of the same user key exists.
    Shadowed,
    /// A newer tombstone covers this entry.
    Tombstoned,
    /// A tombstone that reached the bottommost level with nothing beneath.
    ObsoleteTombstone,
}

/// What kind of output job a session serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Memtable flush (L0 table creation).
    Flush,
    /// Compaction into `output_level`.
    Compaction {
        /// Level the outputs are written to.
        output_level: usize,
        /// True if `output_level` is the bottommost populated level.
        bottommost: bool,
    },
}

/// A value file created by a session (registered in the version edit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewValueFile {
    /// File number (taken from the store's [`FileNumbers`]).
    pub file: u64,
    /// On-disk size in bytes.
    pub size: u64,
    /// Number of records.
    pub entries: u64,
    /// Total value bytes stored.
    pub value_bytes: u64,
    /// True if this file holds hot-classified data (paper §III-B3).
    pub hot: bool,
    /// Format tag (mirrors `scavenger_table::props::TableType`).
    pub format: u8,
}

/// The born tails of a job's new files, by number: their readers, built
/// without a read once the edit commits (a blob log needs none).
pub type BornTails = Vec<(u64, Tail)>;

/// Value-store state changes produced by one job, committed atomically
/// with the index version edit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValueEditBundle {
    /// Value files created.
    pub new_files: Vec<NewValueFile>,
    /// Value files to delete.
    pub deleted_files: Vec<u64>,
    /// Inheritance edges `old → new` (TerarkDB-style GC, paper §II-B).
    pub inherits: Vec<(u64, u64)>,
    /// Exposed-garbage increments: `(file, bytes, entries)`.
    pub garbage: Vec<(u64, u64, u64)>,
}

impl ValueEditBundle {
    /// True if the bundle carries no changes.
    pub fn is_empty(&self) -> bool {
        self.new_files.is_empty()
            && self.deleted_files.is_empty()
            && self.inherits.is_empty()
            && self.garbage.is_empty()
    }
}

/// Per-job session; see module docs.
pub trait ValueSession: Send {
    /// Transform an entry about to be written to the output table.
    /// Entries arrive in key order. Returns the `(type, value)` actually
    /// written to the key SST.
    fn entry(
        &mut self,
        user_key: &[u8],
        seq: SeqNo,
        vtype: ValueType,
        value: Bytes,
    ) -> Result<(ValueType, Bytes)>;

    /// Observe an entry dropped by the merge.
    fn drop_entry(
        &mut self,
        user_key: &[u8],
        seq: SeqNo,
        vtype: ValueType,
        value: &[u8],
        cause: DropCause,
    );

    /// Close any open value files and return the state changes, with the
    /// born tails of the new value files.
    fn finish(&mut self) -> Result<(ValueEditBundle, BornTails)>;
}

/// Factory for [`ValueSession`]s.
pub trait ValueHook: Send + Sync {
    /// Open a session for one flush/compaction job. Any value file the
    /// session creates takes its number from `numbers`.
    fn session(&self, kind: JobKind, numbers: FileNumbers) -> Result<Box<dyn ValueSession>>;

    /// The one way the value store learns a committed value edit: it
    /// applies `bundle`, may delete now-unreferenced value files, and
    /// keeps the readers `born` makes for the new ones. A committed edit
    /// calls it twice — with the bundle's `new_files` and their tails
    /// before readers can see the edit, then with the rest — and open
    /// once per bundle the MANIFEST replays, before WAL recovery.
    fn on_committed(&self, bundle: &ValueEditBundle, born: BornTails);
}

/// A session that writes entries through unchanged and reports nothing —
/// the behaviour of a vanilla (non-separated) LSM-tree.
pub struct PassthroughSession;

impl ValueSession for PassthroughSession {
    fn entry(
        &mut self,
        _user_key: &[u8],
        _seq: SeqNo,
        vtype: ValueType,
        value: Bytes,
    ) -> Result<(ValueType, Bytes)> {
        Ok((vtype, value))
    }

    fn drop_entry(
        &mut self,
        _user_key: &[u8],
        _seq: SeqNo,
        _vtype: ValueType,
        _value: &[u8],
        _cause: DropCause,
    ) {
    }

    fn finish(&mut self) -> Result<(ValueEditBundle, BornTails)> {
        Ok((ValueEditBundle::default(), BornTails::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_session_is_identity() {
        let mut s = PassthroughSession;
        let (t, v) = s
            .entry(b"k", 1, ValueType::Value, Bytes::from_static(b"v"))
            .unwrap();
        assert_eq!(t, ValueType::Value);
        assert_eq!(&v[..], b"v");
        let (out, born) = s.finish().unwrap();
        assert!(out.is_empty() && born.is_empty());
    }
}
