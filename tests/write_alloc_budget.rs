//! Heap bytes of the write path: a value is copied once on its way in.
//!
//! A `put` hands its value to the store as a `Bytes` that adopts the
//! caller's buffer, the batch is encoded into its one WAL record (the
//! value's one copy), and the memtable keeps the adopted buffer. A value
//! file's record is built in one buffer with room for its checksum
//! trailer, which `write_block` seals in place before its one `append`.
//! Each case counts the bytes allocated on this thread (a thread-local
//! counter, so tests running in parallel do not bleed in) by one write of
//! a 16 KiB value, after warming writes of the same size.
//!
//! Shared structures grow now and then, amortized over many writes: the
//! memtable's tree splits a node, an RTable's index partition doubles its
//! buffer. A case therefore takes the least of several consecutive
//! writes, which is what every write pays.
//!
//! The memtable is charged by a value's length, so what a put leaves held
//! (live bytes, not bytes allocated) is counted too: an adopted buffer
//! must not bring spare capacity the charge does not see.

use scavenger::{Db, EngineMode, FsEnv, Options, WriteOptions};
use scavenger_env::WritableFile;
use scavenger_table::blockio::BLOCK_TRAILER_LEN;
use scavenger_table::rtable::RTableBuilder;
use scavenger_util::coding::varint64_len;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Bytes allocated; a realloc adds what it grows by.
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    live(bytes as i64);
}

fn live(delta: i64) {
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    /// A realloc counts the bytes it grows by as allocated; a shrink
    /// counts nothing there, and gives its bytes back to the live count.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        live(-(layout.size().saturating_sub(new_size) as i64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const VALUE: usize = 16 * 1024;
/// Warming writes before the measured ones.
const WARM: usize = 16;
/// Measured writes; each case asserts on the least of them.
const MEASURED: usize = 8;

/// Bytes allocated on this thread by `f`.
fn allocated(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// Bytes `f` left allocated on this thread.
fn held(f: impl FnOnce()) -> i64 {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
}

fn value(i: usize) -> Vec<u8> {
    let mut v = vec![(i % 251) as u8; VALUE];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// A directory under the system temp dir, removed on drop (a failed
/// assertion included).
struct ScratchDir(std::path::PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A Scavenger store on `FsEnv` in a fresh directory under the system
/// temp dir, with a memtable no test here fills and no GC. Bind it as
/// `(_dir, db)`: the store, bound last, is dropped before its directory.
fn open(name: &str) -> (ScratchDir, Db) {
    let dir = std::env::temp_dir().join(format!("scavenger-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir = ScratchDir(dir);
    let env = Arc::new(FsEnv::new(&dir.0).unwrap());
    let mut o = Options::new(env, "db", EngineMode::Scavenger);
    o.memtable_size = 64 << 20; // no flush while measuring
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    (dir, db)
}

#[test]
fn a_warm_put_copies_its_value_once() {
    let (_dir, db) = open("write-budget");
    let nosync = WriteOptions::with_sync(false);
    let key = |i: usize| format!("user{i:06}");
    for i in 0..WARM {
        db.put_with(&nosync, key(i), value(i)).unwrap();
    }
    let least = (WARM..WARM + MEASURED)
        .map(|i| {
            let (k, v) = (key(i), value(i));
            allocated(|| {
                db.put_with(&nosync, k, v).unwrap();
            })
        })
        .min()
        .unwrap();
    let budget = (VALUE + 1024) as u64;
    assert!(
        least <= budget,
        "a warm {VALUE} B put allocated {least} B (budget {budget}: one copy of the value + 1 KiB)"
    );
    for i in 0..WARM + MEASURED {
        assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i), "key {i}");
    }
}

#[test]
fn a_put_holds_no_spare_capacity() {
    // Values built in buffers far larger than they are: what the memtable
    // keeps must be the value, as its charge (the value's length) says.
    const CAPACITY: usize = 1 << 20;
    let (_dir, db) = open("write-held");
    let nosync = WriteOptions::with_sync(false);
    let key = |i: usize| format!("user{i:06}");
    let roomy = |i: usize| {
        let mut v = Vec::with_capacity(CAPACITY);
        v.extend_from_slice(&value(i));
        v
    };
    for i in 0..WARM {
        db.put_with(&nosync, key(i), roomy(i)).unwrap();
    }
    let least = (WARM..WARM + MEASURED)
        .map(|i| {
            let k = key(i);
            held(|| {
                db.put_with(&nosync, k, roomy(i)).unwrap();
            })
        })
        .min()
        .unwrap();
    let budget = (VALUE + 1024) as i64;
    assert!(
        least <= budget,
        "a put of a {VALUE} B value in a {CAPACITY} B buffer left {least} B held (budget {budget}: the value + 1 KiB)"
    );
    for i in 0..WARM + MEASURED {
        assert_eq!(db.get(key(i)).unwrap().unwrap(), value(i), "key {i}");
    }
}

/// A file that keeps nothing, so the count is the RTable builder's own
/// allocations, not a buffer in an `Env`.
struct Sink(u64);

impl WritableFile for Sink {
    fn append(&mut self, data: &[u8]) -> scavenger::Result<()> {
        self.0 += data.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> scavenger::Result<()> {
        Ok(())
    }

    fn len(&self) -> u64 {
        self.0
    }
}

#[test]
fn an_rtable_record_is_sealed_in_its_own_buffer() {
    let mut b = RTableBuilder::new(Box::new(Sink(0)));
    // Internal keys: user key ++ 8-byte trailer, increasing.
    let ikey = |i: usize| {
        let mut k = format!("user{i:06}").into_bytes();
        k.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        k
    };
    for i in 0..WARM {
        b.add(&ikey(i), &value(i)).unwrap();
    }
    let mut record = 0;
    let least = (WARM..WARM + MEASURED)
        .map(|i| {
            let (k, v) = (ikey(i), value(i));
            record = varint64_len(k.len() as u64) + k.len() + varint64_len(VALUE as u64) + VALUE;
            allocated(|| {
                b.add(&k, &v).unwrap();
            })
        })
        .min()
        .unwrap();
    let budget = (record + BLOCK_TRAILER_LEN) as u64;
    assert!(
        least <= budget,
        "a {VALUE} B value's RTable add allocated {least} B (budget {budget}: the record and its trailer)"
    );
}
