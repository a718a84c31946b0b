//! IndexDecoupledTable (DTable) — the Scavenger key SST (paper §III-B2).
//!
//! Baseline key SSTs (BTable) interleave two very different entry classes
//! in the same data blocks: **KF entries** (`key → value-file reference`,
//! tiny) and **KV records** (small inline values, bulky). A GC-Lookup only
//! needs KF entries, yet every block it touches is mostly small-value
//! payload — wasting I/O and cache space (the paper measured a 22% cache
//! hit-ratio drop under Mixed-8K).
//!
//! The DTable splits the BTable's one stream in two, each with its own
//! index and bloom filter:
//!
//! ```text
//! [kv block | kf block]*  [filter.kv] [filter.kf] [props] [kf index]
//!                         [metaindex] [kv index] [footer]
//! ```
//!
//! Both are one table type, [`KTable`](crate::btable::KTable), built by
//! [`KTableBuilder`](crate::btable::KTableBuilder). KF blocks are fetched
//! with **high cache priority** so validation traffic stays resident.
//! Tombstones travel in the KF stream (they are index-only entries). A
//! point lookup consults both streams (bloom-guarded) and returns the
//! smaller candidate under the internal-key order, so lookups remain exact
//! even when a key alternates between inline and separated values; a walk
//! merges the two streams with [`DTableIter`].

use crate::btable::TwoLevelIter;
use crate::InternalIterator;
use bytes::Bytes;
use scavenger_util::ikey::cmp_internal;
use scavenger_util::{Error, Result};
use std::cmp::Ordering;

/// Merged iterator over a DTable's KF and KV streams.
///
/// The first error either stream meets stops the merge: the iterator
/// turns invalid and [`status`](InternalIterator::status) reports it.
/// Going on with the other stream alone would serve the entries after a
/// lost reference or tombstone as if it were not there.
pub struct DTableIter {
    kf: TwoLevelIter,
    kv: TwoLevelIter,
    on_kf: bool,
    error: Option<Error>,
}

impl DTableIter {
    /// Merge a DTable's KF and KV stream iterators; position it with a
    /// seek before use.
    pub(crate) fn new(kf: TwoLevelIter, kv: TwoLevelIter) -> Self {
        DTableIter {
            kf,
            kv,
            on_kf: true,
            error: None,
        }
    }

    fn pick(&mut self) {
        if self.error.is_none() {
            self.error = self.kf.status().and(self.kv.status()).err();
        }
        self.on_kf = match (self.kf.valid(), self.kv.valid()) {
            (true, true) => cmp_internal(self.kf.key(), self.kv.key()) != Ordering::Greater,
            (true, false) => true,
            _ => false,
        };
    }
}

impl InternalIterator for DTableIter {
    fn valid(&self) -> bool {
        self.error.is_none() && (self.kf.valid() || self.kv.valid())
    }

    fn seek_to_first(&mut self) {
        self.kf.seek_to_first();
        self.kv.seek_to_first();
        self.pick();
    }

    fn seek(&mut self, target: &[u8]) {
        self.kf.seek(target);
        self.kv.seek(target);
        self.pick();
    }

    fn next(&mut self) {
        if self.on_kf {
            self.kf.next();
        } else {
            self.kv.next();
        }
        self.pick();
    }

    fn key(&self) -> &[u8] {
        if self.on_kf {
            self.kf.key()
        } else {
            self.kv.key()
        }
    }

    fn value(&self) -> Bytes {
        if self.on_kf {
            self.kf.value()
        } else {
            self.kv.value()
        }
    }

    fn status(&self) -> Result<()> {
        match &self.error {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockEntry;
    use crate::btable::{BlockCache, BuiltTable, KTable, KTableBuilder, KTableFormat};
    use crate::props::TableType;
    use scavenger_env::{Env, IoClass, MemEnv};
    use scavenger_util::ikey::{make_internal_key, parse_internal_key, ValueRef, ValueType};
    use std::sync::Arc;

    fn kv(e: BlockEntry) -> (Vec<u8>, Bytes) {
        (e.key().to_vec(), e.value())
    }

    /// A DTable builder with 512-byte data blocks.
    fn builder(env: &MemEnv, path: &str) -> KTableBuilder {
        let f = env.new_writable(path, IoClass::Flush).unwrap();
        KTableBuilder::new(f, KTableFormat::DTable, 512)
    }

    /// Build a table mixing inline small values and refs, like a
    /// KV-separated index LSM under the paper's Mixed workload.
    fn mixed_entries(n: usize) -> Vec<(Vec<u8>, Vec<u8>, ValueType)> {
        (0..n)
            .map(|i| {
                let key = format!("key{i:05}");
                if i % 2 == 0 {
                    // Small inline value.
                    (
                        make_internal_key(key.as_bytes(), 100 + i as u64, ValueType::Value),
                        vec![b'v'; 100 + (i % 100)],
                        ValueType::Value,
                    )
                } else {
                    let r = ValueRef {
                        file: 3,
                        size: 16384,
                        offset: (i * 16384) as u64,
                    };
                    (
                        make_internal_key(key.as_bytes(), 100 + i as u64, ValueType::ValueRef),
                        r.encode(),
                        ValueType::ValueRef,
                    )
                }
            })
            .collect()
    }

    fn build(env: &MemEnv, path: &str, es: &[(Vec<u8>, Vec<u8>, ValueType)]) -> BuiltTable {
        let mut b = builder(env, path);
        for (k, v, _) in es {
            b.add(k, v).unwrap();
        }
        b.finish().unwrap()
    }

    fn open(env: &MemEnv, path: &str, cache: Option<Arc<BlockCache>>) -> KTable {
        let file = env.open_random_access(path, IoClass::FgIndexRead).unwrap();
        KTable::open(file, 5, cache).unwrap()
    }

    #[test]
    fn build_and_get_both_streams() {
        let env = MemEnv::new();
        let es = mixed_entries(400);
        let built = build(&env, "d.sst", &es);
        assert_eq!(built.props.table_type, TableType::DTable);
        assert_eq!(built.props.num_refs, 200);
        assert_eq!(built.props.num_inline, 200);

        let r = open(&env, "d.sst", None);
        for (k, v, _) in &es {
            let (fk, fv) = r.get(k).unwrap().map(kv).expect("entry");
            assert_eq!(&fk, k);
            assert_eq!(&fv[..], v.as_slice());
        }
    }

    #[test]
    fn lookup_of_ref_keys_avoids_kv_blocks() {
        let env = MemEnv::new();
        let es = mixed_entries(2000);
        build(&env, "d.sst", &es);
        let cache = Arc::new(BlockCache::with_capacity(4 << 20));
        let r = open(&env, "d.sst", Some(cache));

        // Warm nothing; look up only ref keys and count read bytes.
        let before = env.io_stats().snapshot();
        for (k, _, _t) in es
            .iter()
            .filter(|(_, _, t)| *t == ValueType::ValueRef)
            .take(200)
        {
            r.get(k).unwrap().unwrap();
        }
        let d = env.io_stats().snapshot().delta(&before);
        let ref_lookup_bytes = d.class(IoClass::FgIndexRead).read_bytes;

        // Compare against an equivalent BTable where streams interleave.
        let f = env.new_writable("b.sst", IoClass::Flush).unwrap();
        let mut bb = KTableBuilder::new(f, KTableFormat::BTable, 512);
        for (k, v, _) in &es {
            bb.add(k, v).unwrap();
        }
        bb.finish().unwrap();
        let bfile = env
            .open_random_access("b.sst", IoClass::FgIndexRead)
            .unwrap();
        let cache2 = Arc::new(BlockCache::with_capacity(4 << 20));
        let br = KTable::open(bfile, 6, Some(cache2)).unwrap();
        let before = env.io_stats().snapshot();
        for (k, _, _t) in es
            .iter()
            .filter(|(_, _, t)| *t == ValueType::ValueRef)
            .take(200)
        {
            br.get(k).unwrap().unwrap();
        }
        let d = env.io_stats().snapshot().delta(&before);
        let btable_bytes = d.class(IoClass::FgIndexRead).read_bytes;

        assert!(
            ref_lookup_bytes * 2 < btable_bytes,
            "DTable ref lookups should read far less: dtable={ref_lookup_bytes} btable={btable_bytes}"
        );
    }

    #[test]
    fn tombstones_live_in_kf_stream_and_are_found() {
        let env = MemEnv::new();
        let mut b = builder(&env, "d.sst");
        b.add(&make_internal_key(b"a", 5, ValueType::Deletion), b"")
            .unwrap();
        b.add(&make_internal_key(b"b", 4, ValueType::Value), b"small")
            .unwrap();
        let built = b.finish().unwrap();
        assert_eq!(built.props.num_deletions, 1);

        let r = open(&env, "d.sst", None);
        let t = make_internal_key(b"a", 100, ValueType::ValueRef);
        let (k, _) = r.get(&t).unwrap().map(kv).unwrap();
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.user_key, b"a");
        assert_eq!(p.vtype, ValueType::Deletion);
    }

    #[test]
    fn newest_version_wins_across_streams() {
        // Key flip-flops: old separated value (seq 5), newer inline (seq 9).
        let env = MemEnv::new();
        let mut b = builder(&env, "d.sst");
        let r9 = make_internal_key(b"k", 9, ValueType::Value);
        let r5 = make_internal_key(b"k", 5, ValueType::ValueRef);
        b.add(&r9, b"new-inline").unwrap();
        b.add(
            &r5,
            &ValueRef {
                file: 1,
                size: 100,
                offset: 0,
            }
            .encode(),
        )
        .unwrap();
        b.finish().unwrap();

        let r = open(&env, "d.sst", None);
        let t = make_internal_key(b"k", 100, ValueType::ValueRef);
        let (k, v) = r.get(&t).unwrap().map(kv).unwrap();
        let p = parse_internal_key(&k).unwrap();
        assert_eq!(p.seq, 9);
        assert_eq!(p.vtype, ValueType::Value);
        assert_eq!(&v[..], b"new-inline");

        // At snapshot seq 6, the ref version is visible instead.
        let t = make_internal_key(b"k", 6, ValueType::ValueRef);
        let (k, _) = r.get(&t).unwrap().map(kv).unwrap();
        assert_eq!(parse_internal_key(&k).unwrap().seq, 5);
    }

    #[test]
    fn merged_iterator_yields_global_order() {
        let env = MemEnv::new();
        let es = mixed_entries(500);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut it = r.iter();
        it.seek_to_first();
        for (k, v, _) in &es {
            assert!(it.valid());
            assert_eq!(it.key(), k.as_slice());
            assert_eq!(&it.value()[..], v.as_slice());
            it.next();
        }
        assert!(!it.valid());
        it.status().unwrap();
    }

    /// A flipped byte in the second KF block stops the merged iterator
    /// there with `Corruption`: no KV entry after the block is served as
    /// if the references and tombstones it held were not there.
    #[test]
    fn a_corrupt_kf_block_stops_the_merged_iterator() {
        let env = MemEnv::new();
        let es = mixed_entries(400);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut blocks = r.kf.as_ref().unwrap().index.iter();
        blocks.seek_to_first();
        let first_block_last = blocks.key().to_vec();
        blocks.next();
        let second = crate::handle::BlockHandle::decode_exact(&blocks.value()).unwrap();
        env.corrupt_byte("d.sst", second.offset + 1).unwrap();
        let is_corruption =
            |it: &dyn InternalIterator| matches!(it.status(), Err(Error::Corruption(_)));

        let mut it = r.iter();
        it.seek_to_first();
        let mut served = 0;
        while it.valid() {
            assert!(
                cmp_internal(it.key(), &first_block_last) != Ordering::Greater,
                "entry {served} comes after the corrupt KF block"
            );
            served += 1;
            it.next();
        }
        assert!(
            served > 0 && is_corruption(it.as_ref()),
            "{:?}",
            it.status()
        );

        // A seek into the broken block stops there too.
        let mut it = r.iter();
        let past = es
            .iter()
            .find(|(k, _, _)| cmp_internal(k, &first_block_last) == Ordering::Greater);
        it.seek(&past.unwrap().0);
        assert!(
            !it.valid() && is_corruption(it.as_ref()),
            "{:?}",
            it.status()
        );
    }

    #[test]
    fn merged_iterator_seek() {
        let env = MemEnv::new();
        let es = mixed_entries(100);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let mut it = r.iter();
        it.seek(&es[37].0);
        assert!(it.valid());
        assert_eq!(it.key(), es[37].0.as_slice());
        // Seek past everything.
        it.seek(&make_internal_key(b"zzzz", 0, ValueType::Value));
        assert!(!it.valid());
    }

    #[test]
    fn all_ref_table_degenerates_gracefully() {
        // A DTable holding only refs (pure large-value workload) behaves
        // like a compact KF-only table.
        let env = MemEnv::new();
        let mut b = builder(&env, "d.sst");
        let mut keys = Vec::new();
        for i in 0..100 {
            let k = make_internal_key(format!("k{i:03}").as_bytes(), i, ValueType::ValueRef);
            b.add(
                &k,
                &ValueRef {
                    file: 2,
                    size: 1 << 14,
                    offset: 0,
                }
                .encode(),
            )
            .unwrap();
            keys.push(k);
        }
        b.finish().unwrap();
        let r = open(&env, "d.sst", None);
        for k in &keys {
            assert!(r.get(k).unwrap().is_some());
        }
        let mut it = r.iter();
        it.seek_to_first();
        let mut n = 0;
        while it.valid() {
            n += 1;
            it.next();
        }
        assert_eq!(n, 100);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(16))]
        #[test]
        fn prop_dtable_roundtrip_mixed_routing(
            kinds in proptest::collection::vec(0u8..3, 1..80),
        ) {
            let env = MemEnv::new();
            let entries: Vec<(Vec<u8>, Vec<u8>)> = kinds
                .iter()
                .enumerate()
                .map(|(i, kind)| {
                    let ukey = format!("user{i:06}");
                    match kind {
                        0 => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::Value),
                            vec![b'v'; 50 + i % 200],
                        ),
                        1 => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::ValueRef),
                            ValueRef { file: 3, size: 1 << 14, offset: i as u64 }.encode(),
                        ),
                        _ => (
                            make_internal_key(ukey.as_bytes(), i as u64 + 1, ValueType::Deletion),
                            Vec::new(),
                        ),
                    }
                })
                .collect();
            let mut b = builder(&env, "p.sst");
            for (k, v) in &entries {
                b.add(k, v).unwrap();
            }
            b.finish().unwrap();
            let file = env.open_random_access("p.sst", IoClass::FgIndexRead).unwrap();
            let r = KTable::open(file, 1, None).unwrap();
            // Exact point lookups across all three entry kinds.
            for (k, v) in &entries {
                let (fk, fv) = r.get(k).unwrap().map(kv).unwrap();
                proptest::prop_assert_eq!(&fk, k);
                proptest::prop_assert_eq!(&fv[..], v.as_slice());
            }
            // Merged iteration yields global internal-key order.
            let mut it = r.iter();
            it.seek_to_first();
            for (k, _) in &entries {
                proptest::prop_assert!(it.valid());
                proptest::prop_assert_eq!(it.key(), k.as_slice());
                it.next();
            }
            proptest::prop_assert!(!it.valid());
        }
    }

    #[test]
    fn bloom_rejects_absent_user_keys() {
        let env = MemEnv::new();
        let es = mixed_entries(1000);
        build(&env, "d.sst", &es);
        let r = open(&env, "d.sst", None);
        let before = env.io_stats().snapshot();
        for i in 0..100 {
            let t = make_internal_key(format!("absent{i}").as_bytes(), 1, ValueType::Value);
            assert!(!r
                .get(&t)
                .unwrap()
                .map(kv)
                .map(|(k, _)| {
                    parse_internal_key(&k)
                        .unwrap()
                        .user_key
                        .starts_with(b"absent")
                })
                .unwrap_or(false));
        }
        let d = env.io_stats().snapshot().delta(&before);
        assert!(
            d.class(IoClass::FgIndexRead).read_ops <= 25,
            "bloom should stop most absent lookups, got {} reads",
            d.class(IoClass::FgIndexRead).read_ops
        );
    }
}
