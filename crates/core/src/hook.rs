//! The engine's [`ValueHook`]: KV separation at flush, hot/cold routing,
//! garbage exposure from compaction drops, and BlobDB-style relocation.
//!
//! One hook serves every separated mode; feature flags select behaviour:
//!
//! * **Flush sessions** move values ≥ [`SEP_THRESHOLD`] into value files
//!   (vSSTs or blob logs), replacing them with references. With hotness
//!   enabled (§III-B3), keys found in the DropCache go to *hot* files,
//!   everything else to *cold* files.
//! * **Drop observation** (every session): a dropped `ValueRef` means its
//!   value just became *exposed garbage* (§II-D) — the session accumulates
//!   the charge; a dropped key is recorded in the DropCache as a hot-write
//!   signal.
//! * **Compaction sessions** in BlobDB mode relocate values whose blob
//!   file falls in the oldest [`BLOBDB_AGE_CUTOFF`] fraction — BlobDB's
//!   compaction-coupled GC (§II-C), which is exactly what delays space
//!   reclamation in that baseline.

use crate::dropcache::DropCache;
use crate::options::{Features, GcScheme};
use crate::stats::GcStats;
use crate::vstore::route::{Route, RouteWriters};
use crate::vstore::vtable::ValueAt;
use crate::vstore::ValueStore;
use bytes::Bytes;
use scavenger_env::{reads_charged_to, IoClass};
use scavenger_lsm::{
    BornTails, DropCause, FileNumbers, JobKind, ValueEditBundle, ValueHook, ValueSession,
};
use scavenger_util::ikey::{make_internal_key, SeqNo, ValueRef, ValueType};
use scavenger_util::Result;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fraction of oldest blob files eligible for relocation during
/// compaction (RocksDB BlobDB's `blob_garbage_collection_age_cutoff`).
pub const BLOBDB_AGE_CUTOFF: f64 = 0.25;

/// Of the eligible entries, the fraction actually relocated per
/// compaction pass. At production scale a compaction covers only a slice
/// of each blob file's key range; this sampling reproduces that partial
/// draining at laptop scale (a file needs several compaction passes
/// before it exhausts — the delayed reclamation of paper §II-C).
pub const BLOBDB_RELOCATION_SAMPLE: u64 = 4;

fn mix64(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51afd7ed558ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ceb9fe1a85ec53);
    x ^ (x >> 33)
}

/// KV-separation threshold in bytes: values at least this large leave
/// the index tree at flush (paper §IV-A: 512 B). A constant, not an
/// option — the experiments vary the value-size *mix* around it, never
/// the threshold.
pub const SEP_THRESHOLD: usize = 512;

/// Shared configuration for hook sessions.
pub struct HookConfig {
    /// Feature set.
    pub features: Features,
    /// Target value-file size.
    pub vsst_target: u64,
}

/// The engine hook (see module docs).
pub struct EngineHook {
    cfg: HookConfig,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    gc_stats: Arc<GcStats>,
    /// Rotating salt so each compaction session relocates a different
    /// sample of eligible blob entries.
    session_counter: AtomicU64,
}

impl EngineHook {
    /// Create a hook over `vstore`.
    pub fn new(
        cfg: HookConfig,
        vstore: Arc<ValueStore>,
        dropcache: Arc<DropCache>,
        gc_stats: Arc<GcStats>,
    ) -> Self {
        EngineHook {
            cfg,
            vstore,
            dropcache,
            gc_stats,
            session_counter: AtomicU64::new(0),
        }
    }
}

impl ValueHook for EngineHook {
    fn session(&self, kind: JobKind, numbers: FileNumbers) -> Result<Box<dyn ValueSession>> {
        // BlobDB relocation targets: the oldest 25% of live blob files,
        // frozen at session start.
        let relocation_targets = if self.cfg.features.gc == GcScheme::CompactionTriggered
            && matches!(kind, JobKind::Compaction { .. })
        {
            let mut files = self.vstore.live_file_numbers();
            files.sort_unstable();
            let n = ((files.len() as f64) * BLOBDB_AGE_CUTOFF).ceil() as usize;
            files.into_iter().take(n).collect()
        } else {
            HashSet::new()
        };
        let salt = self.session_counter.fetch_add(1, Ordering::Relaxed);
        let class = match kind {
            JobKind::Flush => IoClass::Flush,
            JobKind::Compaction { .. } => IoClass::GcWrite,
        };
        Ok(Box::new(SeparationSession {
            relocation_salt: salt,
            features: self.cfg.features,
            kind,
            out: RouteWriters::new(
                &self.vstore,
                self.cfg.features,
                self.cfg.vsst_target,
                class,
                numbers,
                &self.dropcache,
            ),
            vstore: self.vstore.clone(),
            dropcache: self.dropcache.clone(),
            gc_stats: self.gc_stats.clone(),
            garbage: HashMap::new(),
            relocation_targets,
        }))
    }

    fn on_committed(&self, bundle: &ValueEditBundle, born: BornTails) {
        self.vstore.apply_bundle(bundle);
        self.vstore.adopt(born);
    }
}

struct SeparationSession {
    relocation_salt: u64,
    features: Features,
    kind: JobKind,
    /// The job's value files (flush separation, BlobDB relocation).
    out: RouteWriters,
    vstore: Arc<ValueStore>,
    dropcache: Arc<DropCache>,
    gc_stats: Arc<GcStats>,
    /// file → (bytes, entries) exposed by drops in this job.
    garbage: HashMap<u64, (u64, u64)>,
    relocation_targets: HashSet<u64>,
}

impl SeparationSession {
    fn charge_garbage(&mut self, vref: &ValueRef) {
        // Attribute to the live holder if resolvable now; the apply-side
        // fallback re-resolves if this file dies before commit.
        let target = if self.vstore.meta(vref.file).is_some() {
            vref.file
        } else {
            self.vstore
                .resolve_leaves(vref.file)
                .iter()
                .copied()
                .find(|f| self.vstore.meta(*f).is_some())
                .unwrap_or(vref.file)
        };
        let e = self.garbage.entry(target).or_insert((0, 0));
        e.0 += u64::from(vref.size);
        e.1 += 1;
    }
}

impl ValueSession for SeparationSession {
    fn entry(
        &mut self,
        user_key: &[u8],
        seq: SeqNo,
        vtype: ValueType,
        value: Bytes,
    ) -> Result<(ValueType, Bytes)> {
        match vtype {
            ValueType::Value
                if self.features.separate
                    && self.kind == JobKind::Flush
                    && value.len() >= SEP_THRESHOLD =>
            {
                let (file, rec) = self.out.add(Route::ByHotness, user_key, seq, &value)?;
                let vref = ValueRef {
                    file,
                    size: rec.size,
                    offset: rec.offset,
                };
                Ok((ValueType::ValueRef, Bytes::from(vref.encode())))
            }
            ValueType::ValueRef
                if self.features.gc == GcScheme::CompactionTriggered
                    && matches!(self.kind, JobKind::Compaction { .. }) =>
            {
                let old = ValueRef::decode(&value)?;
                if !self.relocation_targets.contains(&old.file)
                    || self.vstore.meta(old.file).is_none()
                {
                    return Ok((vtype, value));
                }
                // Partial draining: relocate only this session's sample.
                let h = mix64(
                    scavenger_table::filter::bloom_hash(user_key) as u64
                        ^ self.relocation_salt.wrapping_mul(0x9e3779b97f4a7c15),
                );
                if !h.is_multiple_of(BLOBDB_RELOCATION_SAMPLE) {
                    return Ok((vtype, value));
                }
                // Relocate: read the old value (GC read), append to a new
                // blob (GC write), expose the old slot as garbage.
                let t0 = Instant::now();
                let at = ValueAt::blob(user_key, &old)?;
                let ikey = make_internal_key(user_key, seq, ValueType::Value);
                let old_value = reads_charged_to(IoClass::GcRead, || {
                    self.vstore.reader(old.file)?.fetch(&[(&at, &ikey)])
                })?
                .swap_remove(0);
                let read_ns = t0.elapsed().as_nanos() as u64;
                let t1 = Instant::now();
                let (file, rec) = self.out.add(Route::Cold, user_key, seq, &old_value)?;
                let write_ns = t1.elapsed().as_nanos() as u64;
                self.gc_stats.add(|g| {
                    g.read_ns += read_ns;
                    g.write_ns += write_ns;
                });
                self.charge_garbage(&old);
                let vref = ValueRef {
                    file,
                    size: rec.size,
                    offset: rec.offset,
                };
                Ok((ValueType::ValueRef, Bytes::from(vref.encode())))
            }
            _ => Ok((vtype, value)),
        }
    }

    fn drop_entry(
        &mut self,
        user_key: &[u8],
        _seq: SeqNo,
        vtype: ValueType,
        value: &[u8],
        cause: DropCause,
    ) {
        if matches!(cause, DropCause::Shadowed | DropCause::Tombstoned) && self.features.hotness {
            self.dropcache.insert(user_key);
        }
        if vtype == ValueType::ValueRef {
            if let Ok(vref) = ValueRef::decode(value) {
                self.charge_garbage(&vref);
            }
        }
    }

    fn finish(&mut self) -> Result<(ValueEditBundle, BornTails)> {
        let (new_files, born) = self.out.finish()?;
        // Deterministic bundle: `HashMap` drain order would reshuffle the
        // manifest record (and every downstream charge order) per run.
        let mut garbage: Vec<(u64, u64, u64)> = self
            .garbage
            .drain()
            .map(|(file, (bytes, entries))| (file, bytes, entries))
            .collect();
        garbage.sort_unstable_by_key(|(file, _, _)| *file);
        let bundle = ValueEditBundle {
            new_files,
            deleted_files: Vec::new(),
            inherits: Vec::new(),
            garbage,
        };
        Ok((bundle, born))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scavenger_env::{EnvRef, MemEnv};
    use scavenger_table::btable::BlockCache;
    use scavenger_table::cache::StoreCache;

    fn cache(bytes: usize) -> StoreCache {
        StoreCache::new(Arc::new(BlockCache::with_capacity(bytes)), false)
    }

    fn setup(features: Features) -> (EngineHook, Arc<ValueStore>, Arc<DropCache>) {
        let env: EnvRef = MemEnv::shared();
        let vstore = Arc::new(ValueStore::new(env.clone(), "db", cache(1 << 20)));
        let dropcache = Arc::new(DropCache::new(1024));
        let hook = EngineHook::new(
            HookConfig {
                features,
                vsst_target: 1 << 20,
            },
            vstore.clone(),
            dropcache.clone(),
            Arc::new(GcStats::default()),
        );
        (hook, vstore, dropcache)
    }

    fn scavenger_features() -> Features {
        Features::for_mode(crate::options::EngineMode::Scavenger)
    }

    #[test]
    fn flush_session_separates_large_values_only() {
        let (hook, _, _) = setup(scavenger_features());
        let numbers = FileNumbers::new(100);
        let mut s = hook.session(JobKind::Flush, numbers).unwrap();

        let (t, v) = s
            .entry(b"small", 1, ValueType::Value, Bytes::from(vec![1u8; 100]))
            .unwrap();
        assert_eq!(t, ValueType::Value, "below threshold stays inline");
        assert_eq!(v.len(), 100);

        let (t, v) = s
            .entry(b"large", 2, ValueType::Value, Bytes::from(vec![2u8; 4096]))
            .unwrap();
        assert_eq!(t, ValueType::ValueRef);
        let r = ValueRef::decode(&v).unwrap();
        assert_eq!(r.size, 4096);
        assert_eq!(r.file, 100);

        let (bundle, _) = s.finish().unwrap();
        assert_eq!(bundle.new_files.len(), 1);
        assert_eq!(bundle.new_files[0].entries, 1);
        assert_eq!(bundle.new_files[0].value_bytes, 4096);
        assert!(!bundle.new_files[0].hot);
    }

    #[test]
    fn hot_keys_route_to_hot_files() {
        let (hook, _, dropcache) = setup(scavenger_features());
        dropcache.insert(b"hotkey");
        let numbers = FileNumbers::new(10);
        let mut s = hook.session(JobKind::Flush, numbers).unwrap();
        s.entry(
            b"coldkey",
            1,
            ValueType::Value,
            Bytes::from(vec![0u8; 2048]),
        )
        .unwrap();
        s.entry(b"hotkey", 2, ValueType::Value, Bytes::from(vec![1u8; 2048]))
            .unwrap();
        let (bundle, _) = s.finish().unwrap();
        assert_eq!(bundle.new_files.len(), 2, "hot and cold outputs");
        let hot: Vec<bool> = bundle.new_files.iter().map(|f| f.hot).collect();
        assert!(hot.contains(&true) && hot.contains(&false));
    }

    #[test]
    fn hotness_disabled_uses_single_route() {
        let (hook, _, dropcache) = setup(Features::for_mode(crate::options::EngineMode::Terark));
        dropcache.insert(b"hotkey"); // present but unused
        let numbers = FileNumbers::new(10);
        let mut s = hook.session(JobKind::Flush, numbers).unwrap();
        s.entry(
            b"coldkey",
            1,
            ValueType::Value,
            Bytes::from(vec![0u8; 2048]),
        )
        .unwrap();
        s.entry(b"hotkey", 2, ValueType::Value, Bytes::from(vec![1u8; 2048]))
            .unwrap();
        let (bundle, _) = s.finish().unwrap();
        assert_eq!(bundle.new_files.len(), 1);
    }

    #[test]
    fn dropped_refs_become_exposed_garbage() {
        let (hook, vstore, dropcache) = setup(scavenger_features());
        // Register a value file the drops refer to.
        vstore.apply_bundle(&ValueEditBundle {
            new_files: vec![scavenger_lsm::NewValueFile {
                file: 7,
                size: 10_000,
                entries: 10,
                value_bytes: 9_000,
                hot: false,
                format: scavenger_table::props::TableType::RTable as u8,
            }],
            ..Default::default()
        });
        let numbers = FileNumbers::new(50);
        let mut s = hook.session(JobKind::Flush, numbers).unwrap();
        let vref = ValueRef {
            file: 7,
            size: 900,
            offset: 0,
        };
        s.drop_entry(
            b"k1",
            3,
            ValueType::ValueRef,
            &vref.encode(),
            DropCause::Shadowed,
        );
        s.drop_entry(
            b"k2",
            4,
            ValueType::ValueRef,
            &vref.encode(),
            DropCause::Tombstoned,
        );
        let (bundle, _) = s.finish().unwrap();
        assert_eq!(bundle.garbage, vec![(7, 1800, 2)]);
        // Hot-write keys recorded.
        assert!(dropcache.contains(b"k1"));
        assert!(dropcache.contains(b"k2"));
        // Commit-side application updates the meta.
        hook.on_committed(&bundle, BornTails::new());
        assert!((vstore.meta(7).unwrap().garbage_ratio() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn rolls_files_at_target_size() {
        let (hook, _, _) = setup(scavenger_features());
        let numbers = FileNumbers::new(1);
        let mut s = hook.session(JobKind::Flush, numbers).unwrap();
        // vsst_target is 1 MiB; write ~3 MiB of values.
        for i in 0..300 {
            let key = format!("key{i:04}");
            s.entry(
                key.as_bytes(),
                i,
                ValueType::Value,
                Bytes::from(vec![7u8; 10_240]),
            )
            .unwrap();
        }
        let (bundle, _) = s.finish().unwrap();
        assert!(
            bundle.new_files.len() >= 3,
            "expected multiple rolled files, got {}",
            bundle.new_files.len()
        );
        let total: u64 = bundle.new_files.iter().map(|f| f.entries).sum();
        assert_eq!(total, 300);
    }

    #[test]
    fn blobdb_compaction_relocates_sampled_entries() {
        let features = Features::for_mode(crate::options::EngineMode::BlobDb);
        let (hook, vstore, _) = setup(features);
        let numbers = FileNumbers::new(100);

        // Create a real blob file with many entries via a flush session.
        let mut s = hook.session(JobKind::Flush, numbers.clone()).unwrap();
        let mut refs = Vec::new();
        for i in 0..32u64 {
            let key = format!("key{i:02}");
            let (t, enc) = s
                .entry(
                    key.as_bytes(),
                    i,
                    ValueType::Value,
                    Bytes::from(vec![3u8; 2000]),
                )
                .unwrap();
            assert_eq!(t, ValueType::ValueRef);
            refs.push((key, i, ValueRef::decode(&enc).unwrap()));
        }
        let old_file = refs[0].2.file;
        let (bundle, _) = s.finish().unwrap();
        hook.on_committed(&bundle, BornTails::new());
        assert!(vstore.meta(old_file).is_some());

        // Compaction session: the only blob file is in the oldest 25%, but
        // only a per-session sample of its entries relocates (partial
        // draining; see BLOBDB_RELOCATION_SAMPLE).
        let mut s = hook
            .session(
                JobKind::Compaction {
                    output_level: 6,
                    bottommost: true,
                },
                numbers,
            )
            .unwrap();
        let mut relocated = 0;
        for (key, seq, old_ref) in &refs {
            let (t, enc2) = s
                .entry(
                    key.as_bytes(),
                    *seq,
                    ValueType::ValueRef,
                    Bytes::from(old_ref.encode()),
                )
                .unwrap();
            assert_eq!(t, ValueType::ValueRef);
            if ValueRef::decode(&enc2).unwrap().file != old_ref.file {
                relocated += 1;
            }
        }
        assert!(relocated > 0, "some entries must relocate");
        assert!(relocated < refs.len(), "but not all in one pass (sampled)");
        let (bundle, _) = s.finish().unwrap();
        assert_eq!(bundle.new_files.len(), 1);
        // Relocated slots exposed as garbage on the old file.
        let g = bundle
            .garbage
            .iter()
            .find(|(f, _, _)| *f == old_file)
            .unwrap();
        assert_eq!(g.1, relocated as u64 * 2000);
        hook.on_committed(&bundle, BornTails::new());
        assert!(!vstore.meta(old_file).unwrap().is_exhausted());
    }
}
