//! The frozen bytes of every file the value-file writers produce.
//!
//! One seeded op sequence per separated engine mode, on `MemEnv` with
//! inline background work, renders one line per `.vsst` / `.blob` /
//! `.sst` file the run ever shows (name, size, CRC32C of its bytes), the
//! live file set at each checkpoint, and every `GcOutcome` — and must
//! equal `tests/fixtures/value_files_v1.txt`, which was generated from
//! the code as it stood before flush, relocation and both GC schemes
//! were moved onto one routed roll-over writer. Key SSTs carry the
//! `(file, offset, size)` of every separated value, so their checksums
//! pin record addresses and file numbers as well as the value files'
//! own bytes.
//!
//! A mismatch prints the first differing line and, between the
//! `BEGIN` / `END` markers, everything the current code renders. A
//! changed line is an on-disk change, not a test to update.

use scavenger::gc::GC_THRESHOLD;
use scavenger::{Db, EngineMode, IoClass, MemEnv, Options};
use scavenger_env::EnvRef;
use scavenger_util::crc32c;
use std::collections::BTreeSet;
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/value_files_v1.txt");

const KEYS: u64 = 2400;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Small files everywhere: a flush of one memtable rolls through a dozen
/// value files, and one GC job may pick up every candidate there is, so
/// its pending set spans several pipeline batches.
fn opts(env: EnvRef, mode: EngineMode) -> Options {
    let mut o = Options::new(env, "db", mode);
    o.memtable_size = 256 * 1024;
    o.vsst_target_size = 16 * 1024;
    o.ksst_target_size = 32 * 1024;
    o.base_level_bytes = 128 * 1024;
    o.gc_batch_files = 256;
    o.auto_gc = false;
    o
}

/// Mixed sizes around the 512-byte separation threshold: roughly a
/// third stay inline, the rest leave the index at flush.
fn put(db: &Db, rng: &mut u64, key: u64) {
    let r = splitmix64(rng);
    let len = 64 + (r % 1500) as usize;
    let mut value = vec![(r >> 32) as u8; len];
    value[..8].copy_from_slice(&r.to_le_bytes());
    db.put(format!("key{key:05}"), value).unwrap();
}

struct Render {
    mode: &'static str,
    env: EnvRef,
    seen: BTreeSet<String>,
    out: String,
}

impl Render {
    /// One line per file not shown yet, then the live set: its size and
    /// the checksum of its sorted names (so deletions are pinned too).
    fn checkpoint(&mut self, label: &str) {
        let mut names: Vec<String> = self
            .env
            .list_prefix("db/")
            .unwrap()
            .into_iter()
            .filter(|p| [".vsst", ".blob", ".sst"].iter().any(|s| p.ends_with(s)))
            .collect();
        names.sort();
        for path in &names {
            if self.seen.insert(path.clone()) {
                let f = self.env.open_random_access(path, IoClass::GcRead).unwrap();
                let bytes = f.read_at(0, f.len() as usize).unwrap();
                let crc = crc32c::value(&bytes);
                let name = path.strip_prefix("db/").unwrap();
                writeln!(self.out, "{} file {name} {} {crc:08x}", self.mode, f.len()).unwrap();
            }
        }
        let set = crc32c::value(names.join("\n").as_bytes());
        writeln!(
            self.out,
            "{} live {label} {} {set:08x}",
            self.mode,
            names.len()
        )
        .unwrap();
    }

    /// `run_gc_until_clean`, spelled out so each outcome is rendered.
    fn gc_until_clean(&mut self, db: &Db) -> usize {
        let mut jobs = 0;
        while let Some(o) = db.shard(0).run_gc_at(GC_THRESHOLD).unwrap() {
            jobs += 1;
            assert!(jobs < 1024, "{}: runaway GC", self.mode);
            writeln!(
                self.out,
                "{} gc {} {} {}",
                self.mode, o.files_collected, o.records_rewritten, o.bytes_reclaimed
            )
            .unwrap();
        }
        jobs
    }
}

fn render(mode: EngineMode) -> String {
    let env: EnvRef = MemEnv::shared();
    let db = Db::open(opts(env.clone(), mode)).unwrap();
    let mut r = Render {
        mode: mode.label(),
        env,
        seen: BTreeSet::new(),
        out: String::new(),
    };
    let mut rng = 0x5ca7_e9e4 ^ mode.label().len() as u64;

    // Load, in three flushed slices (the small memtable flushes more
    // often on its own).
    for slice in 0..3 {
        for key in (slice * KEYS / 3)..((slice + 1) * KEYS / 3) {
            put(&db, &mut rng, key);
        }
        db.flush().unwrap();
    }
    // Overwrite about half the keys once, and a small set again and
    // again: every drop of an old version marks its key hot.
    for key in 0..KEYS {
        if splitmix64(&mut rng).is_multiple_of(2) {
            put(&db, &mut rng, key);
        }
    }
    for _round in 0..4 {
        for key in (0..KEYS).step_by(16) {
            put(&db, &mut rng, key);
        }
        db.flush().unwrap();
    }
    db.compact_all().unwrap();
    r.checkpoint("loaded");

    let before = db.stats().gc;
    let jobs = r.gc_until_clean(&db);
    let gc = db.stats().gc.delta(&before);
    match mode {
        // BlobDB relocates inside compaction and has no standalone GC.
        EngineMode::BlobDb => assert_eq!(jobs, 0),
        EngineMode::Titan => assert!(gc.records_scanned > 1024, "{gc:?}"),
        _ => assert!(gc.pipeline_jobs >= 1, "a job must span batches: {gc:?}"),
    }
    r.checkpoint("collected");

    // A second wave: the hot set lands in hot files, GC runs over files
    // that are themselves GC output, compaction relocates again.
    for _round in 0..3 {
        for key in (0..KEYS).step_by(5) {
            put(&db, &mut rng, key);
        }
        db.flush().unwrap();
    }
    for key in (0..KEYS).step_by(7) {
        db.delete(format!("key{key:05}")).unwrap();
    }
    db.flush().unwrap();
    db.compact_all().unwrap();
    r.gc_until_clean(&db);
    r.checkpoint("final");
    if db.options().features.hotness {
        let files = db.shard(0).value_store().all_files();
        assert!(files.iter().any(|m| m.hot) && files.iter().any(|m| !m.hot));
    }
    r.out
}

#[test]
fn value_file_bytes_are_frozen() {
    let rendered: String = [
        EngineMode::Scavenger,
        EngineMode::Terark,
        EngineMode::Titan,
        EngineMode::BlobDb,
    ]
    .into_iter()
    .map(render)
    .collect();
    let want: Vec<&str> = FIXTURE.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = rendered.lines().collect();
    let first_diff = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .or((want.len() != got.len()).then_some(want.len().min(got.len())));
    if let Some(i) = first_diff {
        panic!(
            "value files diverge from tests/fixtures/value_files_v1.txt at line {i}:\n  \
             fixture: {:?}\n  current: {:?}\nBEGIN\n{rendered}END",
            want.get(i),
            got.get(i)
        );
    }
}
