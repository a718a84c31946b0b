//! Internal iterators: memtable/vector iterators, per-level concatenation,
//! N-way merging, the user-facing visibility iterator and the GC-Lookup
//! sweep.
//!
//! They implement [`InternalIterator`], the trait `scavenger-table`'s
//! own iterators implement, so a key SST's iterator ([`KTable::iter`] /
//! [`index_iter`](KTable::index_iter)) is a merge child as it is, with
//! no adapter between the two crates.

use crate::tcache::TableCache;
use crate::version::{FileMetaData, Version};
use bytes::Bytes;
use scavenger_table::btable::KTable;
use scavenger_table::InternalIterator;
use scavenger_util::ikey::{
    cmp_internal, lookup_key, make_internal_key, parse_internal_key, SeqNo, ValueRef, ValueType,
};
use scavenger_util::{Error, Result};
use std::cmp::Ordering;
use std::sync::Arc;

/// Iterator over an owned, sorted vector of entries (memtable snapshots).
pub struct VecIter {
    entries: Arc<Vec<(Vec<u8>, Bytes)>>,
    pos: usize,
}

impl VecIter {
    /// Wrap a sorted entry vector.
    pub fn new(entries: Vec<(Vec<u8>, Bytes)>) -> Self {
        VecIter {
            entries: Arc::new(entries),
            pos: usize::MAX,
        }
    }

    /// Wrap an already-shared sorted entry vector.
    pub fn from_shared(entries: Arc<Vec<(Vec<u8>, Bytes)>>) -> Self {
        VecIter {
            entries,
            pos: usize::MAX,
        }
    }
}

impl InternalIterator for VecIter {
    fn valid(&self) -> bool {
        self.pos < self.entries.len()
    }

    fn seek_to_first(&mut self) {
        self.pos = 0;
    }

    fn seek(&mut self, target: &[u8]) {
        self.pos = self
            .entries
            .partition_point(|(k, _)| cmp_internal(k, target) == Ordering::Less);
    }

    fn next(&mut self) {
        if self.valid() {
            self.pos += 1;
        }
    }

    fn key(&self) -> &[u8] {
        &self.entries[self.pos].0
    }

    fn value(&self) -> Bytes {
        self.entries[self.pos].1.clone()
    }

    fn status(&self) -> Result<()> {
        Ok(())
    }
}

/// Concatenating iterator over the (disjoint, sorted) files of one level.
pub struct LevelIter {
    files: Vec<Arc<FileMetaData>>,
    tcache: Arc<TableCache>,
    /// Which of a file's iterators the level shows: [`KTable::iter`], or
    /// [`KTable::index_iter`] for the GC-Lookup sweep.
    open: fn(&KTable) -> Box<dyn InternalIterator>,
    file_idx: usize,
    cur: Option<Box<dyn InternalIterator>>,
    error: Option<Error>,
}

impl LevelIter {
    /// Iterate over `files`, which must be sorted by smallest key and
    /// non-overlapping (levels ≥ 1), each shown through `open`.
    pub fn new(
        files: Vec<Arc<FileMetaData>>,
        tcache: Arc<TableCache>,
        open: fn(&KTable) -> Box<dyn InternalIterator>,
    ) -> Self {
        LevelIter {
            files,
            tcache,
            open,
            file_idx: 0,
            cur: None,
            error: None,
        }
    }

    fn open_file(&mut self, idx: usize) {
        self.cur = None;
        self.file_idx = idx;
        if idx >= self.files.len() {
            return;
        }
        match self.tcache.get(self.files[idx].file_number) {
            Ok(t) => self.cur = Some((self.open)(&t)),
            Err(e) => self.error = Some(e),
        }
    }

    /// Move on to the next file while the current one is exhausted. A
    /// file that stopped on an error is not exhausted: the error ends the
    /// walk, so the files after it are never read past it.
    fn skip_exhausted(&mut self) {
        while self.error.is_none() {
            match &self.cur {
                Some(c) if c.valid() => return,
                Some(c) if c.status().is_err() => self.error = c.status().err(),
                _ => {
                    if self.file_idx + 1 >= self.files.len() {
                        self.cur = None;
                        return;
                    }
                    let next = self.file_idx + 1;
                    self.open_file(next);
                    if let Some(c) = self.cur.as_mut() {
                        c.seek_to_first();
                    }
                }
            }
        }
        self.cur = None;
    }
}

impl InternalIterator for LevelIter {
    fn valid(&self) -> bool {
        self.cur.as_ref().map(|c| c.valid()).unwrap_or(false)
    }

    fn seek_to_first(&mut self) {
        if self.files.is_empty() {
            self.cur = None;
            return;
        }
        self.open_file(0);
        if let Some(c) = self.cur.as_mut() {
            c.seek_to_first();
        }
        self.skip_exhausted();
    }

    fn seek(&mut self, target: &[u8]) {
        // Find the first file whose largest key is >= target.
        let idx = self
            .files
            .partition_point(|f| cmp_internal(&f.largest, target) == Ordering::Less);
        if idx >= self.files.len() {
            self.cur = None;
            self.file_idx = self.files.len();
            return;
        }
        self.open_file(idx);
        if let Some(c) = self.cur.as_mut() {
            c.seek(target);
        }
        self.skip_exhausted();
    }

    fn next(&mut self) {
        if let Some(c) = self.cur.as_mut() {
            c.next();
        }
        self.skip_exhausted();
    }

    fn key(&self) -> &[u8] {
        self.cur.as_ref().unwrap().key()
    }

    fn value(&self) -> Bytes {
        self.cur.as_ref().unwrap().value()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some(c) = &self.cur {
            c.status()?;
        }
        Ok(())
    }
}

/// N-way merge of internal iterators. With the small fan-in of an LSM read
/// (memtables + L0 files + one iterator per level), a linear minimum scan
/// beats heap bookkeeping.
///
/// A child that turns invalid with an error stops the merge there: the
/// merged iterator turns invalid and [`status`](InternalIterator::status)
/// reports the error from then on. Merging on without that child would
/// surface the older versions it was shadowing as the visible ones.
pub struct MergingIter {
    children: Vec<Box<dyn InternalIterator>>,
    current: Option<usize>,
    error: Option<Error>,
}

impl MergingIter {
    /// Merge `children` (each yielding internal-key order).
    pub fn new(children: Vec<Box<dyn InternalIterator>>) -> Self {
        MergingIter {
            children,
            current: None,
            error: None,
        }
    }

    /// Index (in construction order) of the child the merged iterator is
    /// positioned on — among equal keys, the earliest child.
    pub(crate) fn current_child(&self) -> Option<usize> {
        self.current
    }

    /// Latch the error of child `i` if it turned invalid with one.
    fn check_child(&mut self, i: usize) {
        let c = &self.children[i];
        if self.error.is_none() && !c.valid() {
            self.error = c.status().err();
        }
    }

    fn find_smallest(&mut self) {
        if self.error.is_some() {
            self.current = None;
            return;
        }
        let mut best: Option<usize> = None;
        for (i, c) in self.children.iter().enumerate() {
            if !c.valid() {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    // Ties broken by child order: earlier children are
                    // newer sources (memtable before L0 before levels).
                    if cmp_internal(c.key(), self.children[b].key()) == Ordering::Less {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        self.current = best;
    }
}

impl InternalIterator for MergingIter {
    fn valid(&self) -> bool {
        self.current.is_some()
    }

    fn seek_to_first(&mut self) {
        for i in 0..self.children.len() {
            self.children[i].seek_to_first();
            self.check_child(i);
        }
        self.find_smallest();
    }

    fn seek(&mut self, target: &[u8]) {
        for i in 0..self.children.len() {
            self.children[i].seek(target);
            self.check_child(i);
        }
        self.find_smallest();
    }

    fn next(&mut self) {
        if let Some(i) = self.current {
            self.children[i].next();
            self.check_child(i);
            self.find_smallest();
        }
    }

    fn key(&self) -> &[u8] {
        self.children[self.current.unwrap()].key()
    }

    fn value(&self) -> Bytes {
        self.children[self.current.unwrap()].value()
    }

    fn status(&self) -> Result<()> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        for c in &self.children {
            c.status()?;
        }
        Ok(())
    }
}

/// A user-visible entry produced by [`DbIter`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UserEntry {
    /// The user key.
    pub user_key: Vec<u8>,
    /// Sequence of the visible version.
    pub seq: SeqNo,
    /// `Value` or `ValueRef` (tombstones are skipped).
    pub vtype: ValueType,
    /// Value payload (encoded [`scavenger_util::ikey::ValueRef`] for refs).
    pub value: Bytes,
}

/// Applies snapshot visibility and tombstone suppression over a merged
/// internal iterator, yielding at most one entry per user key.
pub struct DbIter {
    inner: MergingIter,
    read_seq: SeqNo,
}

impl DbIter {
    /// Wrap a merged iterator; only versions with `seq <= read_seq` are
    /// visible.
    pub fn new(inner: MergingIter, read_seq: SeqNo) -> Self {
        DbIter { inner, read_seq }
    }

    /// Position at the first visible entry with `user_key >= target`.
    pub fn seek(&mut self, target_user_key: &[u8]) {
        self.inner.seek(&make_internal_key(
            target_user_key,
            self.read_seq,
            ValueType::ValueRef,
        ));
    }

    /// Position at the first visible entry overall.
    pub fn seek_to_first(&mut self) {
        self.inner.seek_to_first();
    }

    /// Produce the next visible user entry, advancing past shadowed
    /// versions and tombstones.
    pub fn next_entry(&mut self) -> Result<Option<UserEntry>> {
        while self.inner.valid() {
            let parsed = parse_internal_key(self.inner.key())?;
            if parsed.seq > self.read_seq {
                // Not visible at this snapshot; try an older version.
                self.inner.next();
                continue;
            }
            let ukey = parsed.user_key.to_vec();
            let vtype = parsed.vtype;
            let seq = parsed.seq;
            let value = self.inner.value();
            // Skip all remaining (older) versions of this user key.
            self.skip_user_key(&ukey)?;
            match vtype {
                ValueType::Deletion => continue,
                t => {
                    return Ok(Some(UserEntry {
                        user_key: ukey,
                        seq,
                        vtype: t,
                        value,
                    }));
                }
            }
        }
        self.inner.status()?;
        Ok(None)
    }

    fn skip_user_key(&mut self, ukey: &[u8]) -> Result<()> {
        while self.inner.valid() {
            let parsed = parse_internal_key(self.inner.key())?;
            if parsed.user_key != ukey {
                break;
            }
            self.inner.next();
        }
        Ok(())
    }
}

/// Per-sweep iterator statistics, merged into the caller's GC counters.
#[derive(Debug, Default, Clone, Copy)]
pub struct SweepStats {
    /// Forward `next()` advances taken instead of re-seeks.
    pub steps: u64,
    /// Full merged re-seeks (every child repositioned).
    pub seeks: u64,
}

/// The part of a pinned tree no older than one [`BatchSweep`] child: the
/// newest `l0_files` L0 files and the levels `1..=level`. A memtable's
/// horizon is empty, an L0 file's ends at itself, and a deeper level's
/// holds all of L0 and every level down to its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Horizon {
    pub(crate) l0_files: usize,
    pub(crate) level: usize,
}

/// How many forward `next()` steps a sweep takes toward the next target
/// before falling back to a full merged seek. A step moves one child over
/// one index entry — in a DTable a KF entry out of a cached KF block — and
/// a seek repositions every child, so the limit only trades CPU: sparse
/// batches degrade to seek cost, dense batches (the GC validating a whole
/// value file) walk the index sequentially.
const SWEEP_STEP_LIMIT: usize = 16;

/// One co-sequential GC-Lookup sweep over the **index entries** of a
/// pinned tree at a fixed read point (paper Fig. 10, batched; §III-B2).
///
/// The merged iterator holds the memtables complete and, per key SST,
/// only what [`KTable::index_iter`]
/// shows: a DTable contributes its KF stream (references and tombstones),
/// so the sweep never pages inline small values through the block cache.
/// It therefore does **not** answer "what does `get_at` return"; it
/// answers the one question GC asks, [`is_live`](BatchSweep::is_live),
/// by this rule:
///
/// > a record `(ukey, seq)` is live at read point `pt` ⇔ the newest index
/// > entry `<= pt` is a reference that passes the caller's identity check,
/// > **and** no inline version of `ukey` with `found_seq < s <= pt` exists
/// > in any KV stream of the pinned version.
///
/// The second half is asked only after the first passed, and only of the
/// files no older than the reference's source (its `Horizon`): none when
/// the reference came from a memtable (the sweep sees memtables whole),
/// the L0 files up to and including its own when it came from L0, and
/// all of L0 plus the levels down to its own when it came from a deeper
/// level. A file older than the source holds only older versions of the
/// key — the order a point lookup relies on when it stops at the first
/// file that has one — so no `s > found_seq` can sit there. Per file left
/// whose user-key range covers `ukey`, the check is one bloom-guarded
/// point search of the KV stream
/// ([`KTable::get_inline`]).
///
/// Callers present user keys in **ascending order**; the sweep advances
/// forward only, stepping when the next target is near and seeking when
/// it is far, so an entire batch is resolved in one logical pass.
pub struct BatchSweep {
    iter: MergingIter,
    /// Per child of `iter`, the part of the tree no older than it.
    horizons: Vec<Horizon>,
    /// The pinned file layout and its readers, for the inline check.
    version: Arc<Version>,
    tcache: Arc<TableCache>,
    read_seq: SeqNo,
    started: bool,
    stats: SweepStats,
    #[cfg(debug_assertions)]
    last_key: Vec<u8>,
}

impl BatchSweep {
    /// Sweep `children` — the memtables and the index entries of every
    /// file of `version`, newest source first, each with its horizon —
    /// capped at `read_seq`.
    pub(crate) fn new(
        children: Vec<(Box<dyn InternalIterator>, Horizon)>,
        version: Arc<Version>,
        tcache: Arc<TableCache>,
        read_seq: SeqNo,
    ) -> Self {
        let (children, horizons) = children.into_iter().unzip();
        BatchSweep {
            iter: MergingIter::new(children),
            horizons,
            version,
            tcache,
            read_seq,
            started: false,
            stats: SweepStats::default(),
            #[cfg(debug_assertions)]
            last_key: Vec::new(),
        }
    }

    /// Is the version of `ukey` visible at this sweep's read point a
    /// reference that `is_record(seq, ref)` accepts — the verdict a point
    /// `get_at(ukey, read_seq)` followed by the same check would reach?
    ///
    /// Any read or corruption error is returned: a failed KV-stream read
    /// never reads as "not shadowed".
    ///
    /// `ukey` must be `>=` every key previously passed to this sweep.
    pub fn is_live(
        &mut self,
        ukey: &[u8],
        is_record: &dyn Fn(SeqNo, &ValueRef) -> bool,
    ) -> Result<bool> {
        #[cfg(debug_assertions)]
        {
            debug_assert!(
                self.last_key.as_slice() <= ukey,
                "BatchSweep keys must be ascending"
            );
            self.last_key = ukey.to_vec();
        }
        let target = lookup_key(ukey, self.read_seq, ValueType::ValueRef);
        self.advance_to(&target);
        // An errored child reports !valid and the merge silently skips it,
        // which could surface a stale older version from another source as
        // the visible one. Propagate errors before trusting the position —
        // a GC acting on a stale verdict would delete live data.
        self.iter.status()?;
        if !self.iter.valid() {
            return Ok(false);
        }
        let found = parse_internal_key(self.iter.key())?;
        if found.user_key != ukey || found.vtype != ValueType::ValueRef {
            return Ok(false);
        }
        if !is_record(found.seq, &ValueRef::decode(&self.iter.value())?) {
            return Ok(false);
        }
        // The found entry's seq, not the record's: under address identity
        // (Titan) a written-back entry carries a fresh one.
        let above = found.seq;
        let child = self
            .iter
            .current_child()
            .expect("a valid merge has a child");
        let horizon = self.horizons[child];
        for f in self
            .version
            .files_covering_within(ukey, horizon.l0_files, horizon.level)
        {
            let table = self.tcache.get(f.file_number)?;
            if let Some(entry) = table.get_inline(&target)? {
                let inline = parse_internal_key(entry.key())?;
                if inline.user_key == ukey && inline.seq > above {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Move the merged iterator forward to the first entry `>= target`.
    fn advance_to(&mut self, target: &[u8]) {
        if !self.started {
            self.iter.seek(target);
            self.started = true;
            self.stats.seeks += 1;
            return;
        }
        let mut stepped = 0usize;
        // Forward-only: once exhausted, nothing at or after `target`
        // exists in the pinned view.
        while self.iter.valid() && cmp_internal(self.iter.key(), target) == Ordering::Less {
            if stepped >= SWEEP_STEP_LIMIT {
                self.iter.seek(target);
                self.stats.seeks += 1;
                break;
            }
            self.iter.next();
            stepped += 1;
        }
        self.stats.steps += stepped as u64;
    }

    /// Iterator statistics accumulated so far.
    pub fn stats(&self) -> SweepStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_util::ikey::extract_user_key;

    fn e(k: &str, seq: SeqNo, t: ValueType, v: &str) -> (Vec<u8>, Bytes) {
        (
            make_internal_key(k.as_bytes(), seq, t),
            Bytes::copy_from_slice(v.as_bytes()),
        )
    }

    #[test]
    fn vec_iter_seek_and_walk() {
        let entries = vec![
            e("a", 5, ValueType::Value, "va"),
            e("b", 9, ValueType::Value, "vb9"),
            e("b", 2, ValueType::Value, "vb2"),
            e("c", 1, ValueType::Value, "vc"),
        ];
        let mut it = VecIter::new(entries);
        it.seek_to_first();
        assert!(it.valid());
        assert_eq!(extract_user_key(it.key()), b"a");
        it.seek(&make_internal_key(b"b", 100, ValueType::ValueRef));
        assert_eq!(parse_internal_key(it.key()).unwrap().seq, 9);
        it.seek(&make_internal_key(b"b", 5, ValueType::ValueRef));
        assert_eq!(parse_internal_key(it.key()).unwrap().seq, 2);
        it.seek(&make_internal_key(b"zz", 1, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn merging_iter_interleaves_and_orders_versions() {
        let newer = VecIter::new(vec![
            e("a", 10, ValueType::Value, "a10"),
            e("c", 12, ValueType::Value, "c12"),
        ]);
        let older = VecIter::new(vec![
            e("a", 3, ValueType::Value, "a3"),
            e("b", 4, ValueType::Value, "b4"),
        ]);
        let mut m = MergingIter::new(vec![Box::new(newer), Box::new(older)]);
        m.seek_to_first();
        let mut seen = Vec::new();
        while m.valid() {
            let p = parse_internal_key(m.key()).unwrap();
            seen.push((p.user_key.to_vec(), p.seq));
            m.next();
        }
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), 10),
                (b"a".to_vec(), 3),
                (b"b".to_vec(), 4),
                (b"c".to_vec(), 12)
            ]
        );
    }

    #[test]
    fn db_iter_visibility_and_tombstones() {
        let data = VecIter::new(vec![
            e("a", 10, ValueType::Deletion, ""),
            e("a", 5, ValueType::Value, "a5"),
            e("b", 7, ValueType::Value, "b7"),
            e("c", 20, ValueType::Value, "c20"),
            e("c", 2, ValueType::Value, "c2"),
        ]);
        // Latest view: a deleted, b=b7, c=c20.
        let mut it = DbIter::new(MergingIter::new(vec![Box::new(data)]), 1000);
        it.seek_to_first();
        let x = it.next_entry().unwrap().unwrap();
        assert_eq!(x.user_key, b"b");
        assert_eq!(&x.value[..], b"b7");
        let x = it.next_entry().unwrap().unwrap();
        assert_eq!(x.user_key, b"c");
        assert_eq!(x.seq, 20);
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn db_iter_snapshot_reads_past() {
        let data = VecIter::new(vec![
            e("a", 10, ValueType::Deletion, ""),
            e("a", 5, ValueType::Value, "a5"),
            e("c", 20, ValueType::Value, "c20"),
            e("c", 2, ValueType::Value, "c2"),
        ]);
        // Snapshot at seq 6: tombstone a@10 invisible -> a5 visible; c2 visible.
        let mut it = DbIter::new(MergingIter::new(vec![Box::new(data)]), 6);
        it.seek_to_first();
        let x = it.next_entry().unwrap().unwrap();
        assert_eq!(x.user_key, b"a");
        assert_eq!(&x.value[..], b"a5");
        let x = it.next_entry().unwrap().unwrap();
        assert_eq!(x.user_key, b"c");
        assert_eq!(x.seq, 2);
        assert!(it.next_entry().unwrap().is_none());
    }

    #[test]
    fn db_iter_seek_bounds() {
        let data = VecIter::new(vec![
            e("apple", 1, ValueType::Value, "1"),
            e("banana", 2, ValueType::Value, "2"),
            e("cherry", 3, ValueType::Value, "3"),
        ]);
        let mut it = DbIter::new(MergingIter::new(vec![Box::new(data)]), 1000);
        it.seek(b"b");
        let x = it.next_entry().unwrap().unwrap();
        assert_eq!(x.user_key, b"banana");
    }

    #[test]
    fn ties_prefer_earlier_children() {
        // Same internal key in two children (shouldn't normally happen,
        // but newest-source-wins is the safe behaviour).
        let c1 = VecIter::new(vec![e("k", 5, ValueType::Value, "from-new")]);
        let c2 = VecIter::new(vec![e("k", 5, ValueType::Value, "from-old")]);
        let mut m = MergingIter::new(vec![Box::new(c1), Box::new(c2)]);
        m.seek_to_first();
        assert_eq!(&m.value()[..], b"from-new");
    }
}
