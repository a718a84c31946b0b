//! The one writer of value files: flush-time separation, BlobDB
//! relocation and both GC schemes (Fig. 8 step ④) all append through a
//! [`RouteWriters`], which creates, routes, rolls and finishes the files.

use super::vtable::{vfile_path, VWriter, WrittenRecord};
use super::{new_value_file_record, BornTails, ValueStore};
use crate::dropcache::DropCache;
use crate::options::{Features, VFormat};
use scavenger_env::{EnvRef, IoClass};
use scavenger_lsm::{FileNumbers, NewValueFile};
use scavenger_util::ikey::SeqNo;
use scavenger_util::Result;
use std::sync::Arc;

/// Which file a record goes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Route {
    /// Hot if hotness-aware writing is on and the DropCache holds the
    /// key (paper §III-B3), cold otherwise.
    ByHotness,
    /// Cold whatever the key: relocated and written-back blob values.
    Cold,
}

const COLD: usize = 0;
const HOT: usize = 1;

/// A `[cold, hot]` pair of value-file writers for one job.
///
/// A writer — and its file number — is created only when a record is
/// about to be appended, and rolls to a fresh file once its size reaches
/// the target, so the files a job emits depend on the record stream
/// alone; a file holding no record is deleted, never surfaced.
///
/// Until [`finish`](Self::finish) hands the files over to the caller's
/// manifest edit nothing else knows they exist, so dropping the writer
/// first (a failed or retried job) removes every file it created.
pub(crate) struct RouteWriters {
    env: EnvRef,
    dir: String,
    format: VFormat,
    target: u64,
    class: IoClass,
    numbers: FileNumbers,
    /// `Some` when hotness-aware writing is on.
    dropcache: Option<Arc<DropCache>>,
    /// Open writers: `[cold, hot]`.
    writers: [Option<(u64, VWriter)>; 2],
    outputs: Vec<NewValueFile>,
    /// The born tails of the finished table files.
    born: BornTails,
    /// Files created and not yet handed over.
    created: Vec<u64>,
}

impl RouteWriters {
    /// A writer into `vstore`'s directory, charging its I/O to `class`.
    pub(crate) fn new(
        vstore: &ValueStore,
        features: Features,
        target: u64,
        class: IoClass,
        numbers: FileNumbers,
        dropcache: &Arc<DropCache>,
    ) -> Self {
        RouteWriters {
            env: vstore.env().clone(),
            dir: vstore.dir().to_string(),
            format: features.vformat,
            target: target.max(1),
            class,
            numbers,
            dropcache: features.hotness.then(|| dropcache.clone()),
            writers: [None, None],
            outputs: Vec::new(),
            born: Vec::new(),
            created: Vec::new(),
        }
    }

    /// Append one record, returning the file it went to and its address
    /// there. For a keyed format (RTable, BTable) the records of one
    /// route must arrive in internal-key order; a blob log takes them in
    /// any order (write-back GC appends in scan order).
    pub(crate) fn add(
        &mut self,
        route: Route,
        user_key: &[u8],
        seq: SeqNo,
        value: &[u8],
    ) -> Result<(u64, WrittenRecord)> {
        let hot = route == Route::ByHotness
            && matches!(&self.dropcache, Some(dropcache) if dropcache.contains(user_key));
        let slot = if hot { HOT } else { COLD };
        if self.writers[slot].is_none() {
            let file = self.numbers.next();
            self.created.push(file);
            let w = VWriter::create(&self.env, &self.dir, file, self.format, self.class)?;
            self.writers[slot] = Some((file, w));
        }
        let (file, w) = self.writers[slot].as_mut().expect("writer just ensured");
        let file = *file;
        let rec = w.add(user_key, seq, value)?;
        if w.estimated_size() >= self.target {
            self.roll(slot)?;
        }
        Ok((file, rec))
    }

    /// Close the slot's writer: its file joins the outputs, or is deleted
    /// if it holds no record (an empty `NewValueFile` must never reach
    /// the manifest).
    fn roll(&mut self, slot: usize) -> Result<()> {
        let Some((file, w)) = self.writers[slot].take() else {
            return Ok(());
        };
        if w.num_entries() == 0 {
            drop(w);
            self.remove(file);
            return Ok(());
        }
        let (info, tail) = w.finish()?;
        self.outputs
            .push(new_value_file_record(file, info, slot == HOT, self.format));
        self.born.extend(tail.map(|tail| (file, tail)));
        Ok(())
    }

    /// Finish both writers and hand every file over, in write order, with
    /// the born tails of the table files: from here on the files belong
    /// to the caller's manifest edit, and the tails to
    /// [`ValueStore::adopt`] once that edit has committed.
    pub(crate) fn finish(&mut self) -> Result<(Vec<NewValueFile>, BornTails)> {
        self.roll(COLD)?;
        self.roll(HOT)?;
        self.created.clear();
        Ok((
            std::mem::take(&mut self.outputs),
            std::mem::take(&mut self.born),
        ))
    }

    fn remove(&self, file: u64) {
        let _ = self
            .env
            .remove_file(&vfile_path(&self.dir, file, self.format));
    }
}

impl Drop for RouteWriters {
    /// Remove what was never handed over. Errors are ignored: after a
    /// crash the env refuses, and recovery's `delete_orphans` cleans up.
    fn drop(&mut self) {
        self.writers = [None, None];
        for &file in &self.created {
            self.remove(file);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::EngineMode;
    use scavenger_env::MemEnv;
    use scavenger_table::btable::BlockCache;
    use scavenger_table::cache::StoreCache;

    struct Fixture {
        env: EnvRef,
        numbers: FileNumbers,
        dropcache: Arc<DropCache>,
        vstore: ValueStore,
    }

    impl Fixture {
        fn new() -> Self {
            let env: EnvRef = MemEnv::shared();
            Fixture {
                vstore: ValueStore::new(
                    env.clone(),
                    "db",
                    StoreCache::new(Arc::new(BlockCache::with_capacity(1024)), false),
                ),
                env,
                numbers: FileNumbers::new(1),
                dropcache: Arc::new(DropCache::new(64)),
            }
        }

        fn writers(&self, target: u64) -> RouteWriters {
            RouteWriters::new(
                &self.vstore,
                Features::for_mode(EngineMode::Scavenger),
                target,
                IoClass::GcWrite,
                self.numbers.clone(),
                &self.dropcache,
            )
        }

        /// File numbers handed out so far (taking one more to tell).
        fn allocated(&self) -> u64 {
            self.numbers.next() - 1
        }
    }

    #[test]
    fn route_writers_allocate_nothing_without_records() {
        let fx = Fixture::new();
        let (outputs, _) = fx.writers(1 << 20).finish().unwrap();
        assert!(outputs.is_empty());
        assert_eq!(
            fx.allocated(),
            0,
            "no file number may be allocated before a record exists"
        );
        assert!(fx.env.list_prefix("db/").unwrap().is_empty());
    }

    #[test]
    fn route_writers_roll_over_and_never_emit_empty_files() {
        let fx = Fixture::new();
        let mut rw = fx.writers(4 * 1024);
        let written: Vec<(u64, WrittenRecord)> = (0..40u64)
            .map(|i| {
                let key = format!("k{i:04}");
                rw.add(Route::ByHotness, key.as_bytes(), i + 1, &[3u8; 512])
                    .unwrap()
            })
            .collect();
        let (outputs, _) = rw.finish().unwrap();
        assert!(outputs.len() > 1, "rollover must split the records");
        assert!(
            outputs.iter().all(|f| f.entries > 0),
            "no empty NewValueFile"
        );
        assert_eq!(outputs.iter().map(|f| f.entries).sum::<u64>(), 40);
        // Every allocated file number surfaced as an output: the rollover
        // path never allocates a number it then abandons.
        assert_eq!(fx.allocated() as usize, outputs.len());
        // Addresses returned per record point into the file that actually
        // holds the record.
        for (file, _) in &written {
            assert!(outputs.iter().any(|f| f.file == *file));
        }
        // Handed over: dropping the finished writer removed nothing.
        assert_eq!(fx.env.list_prefix("db/").unwrap().len(), outputs.len());
    }

    #[test]
    fn route_writers_keep_routes_independent() {
        let fx = Fixture::new();
        fx.dropcache.insert(b"hot");
        let mut rw = fx.writers(1 << 20);
        rw.add(Route::ByHotness, b"cold", 1, &[1u8; 64]).unwrap();
        rw.add(Route::ByHotness, b"hot", 2, &[2u8; 64]).unwrap();
        let (outputs, _) = rw.finish().unwrap();
        assert_eq!(outputs.len(), 2);
        assert!(!outputs[0].hot && outputs[1].hot);
        assert!(outputs.iter().all(|f| f.entries == 1));
    }

    /// Relocated and written-back values stay cold whatever the
    /// DropCache says about their keys.
    #[test]
    fn route_writers_cold_route_ignores_hot_keys() {
        let fx = Fixture::new();
        fx.dropcache.insert(b"hot");
        let mut rw = fx.writers(1 << 20);
        rw.add(Route::Cold, b"hot", 1, &[1u8; 64]).unwrap();
        let (outputs, _) = rw.finish().unwrap();
        assert_eq!(outputs.len(), 1);
        assert!(!outputs[0].hot);
    }

    #[test]
    fn route_writers_dropped_unfinished_remove_their_files() {
        let fx = Fixture::new();
        let mut rw = fx.writers(4 * 1024);
        for i in 0..20u64 {
            let key = format!("k{i:04}");
            rw.add(Route::Cold, key.as_bytes(), i + 1, &[3u8; 512])
                .unwrap();
        }
        assert!(fx.env.list_prefix("db/").unwrap().len() > 1);
        drop(rw);
        assert!(fx.env.list_prefix("db/").unwrap().is_empty());
    }
}
