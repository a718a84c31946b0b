//! Heap allocations of a warm point read.
//!
//! Once the block cache holds a key's index partition, KF block and value
//! record, a Scavenger-mode `Db::get` costs CPU only, and that CPU should
//! not go to the heap: cached blocks are searched in place, the lookup
//! key is built on the stack, and the inheritance forest is walked
//! without a set. Each case warms the read, then counts the allocations
//! of one more `get` of the same key on this thread (a thread-local
//! counter, so tests running in parallel do not bleed in) — at the
//! latest state through `Db::get`, and at a pinned one through a
//! view and a snapshot (both a `ReadView`), which share the budget.
//!
//! Three reads: an inline value, a separated value in a live RTable, and
//! a separated value whose reference names a value file that GC has
//! since collected, so the read resolves it through the forest.

use scavenger::{Bytes, Db, EngineMode, MemEnv, Options, Result};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// At most this many allocations per warm `get`.
const BUDGET: u64 = 4;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 64;
/// Below the separation threshold: stored inline in the key SST.
const SMALL: usize = 100;
/// Above it: a record in an RTable value file.
const LARGE: usize = 2000;

fn key(i: usize) -> Vec<u8> {
    format!("user{i:06}").into_bytes()
}

fn value(i: usize, len: usize, version: u8) -> Vec<u8> {
    let mut v = vec![version; len];
    v[..8].copy_from_slice(&(i as u64).to_le_bytes());
    v
}

/// Even keys hold inline values, odd keys separated ones; everything is
/// flushed, so every read goes past the (empty) memtable to the SSTs.
fn store() -> Db {
    let mut o = Options::new(MemEnv::shared(), "budget", EngineMode::Scavenger);
    o.memtable_size = 64 << 20; // flush only when asked
    o.vsst_target_size = 8 << 20; // one value file per flush
    o.block_cache_bytes = 8 << 20;
    o.auto_gc = false;
    let db = Db::open(o).unwrap();
    for i in 0..N {
        let len = if i % 2 == 0 { SMALL } else { LARGE };
        db.put(key(i), value(i, len, 1)).unwrap();
    }
    db.flush().unwrap();
    db
}

/// A point read at some read point.
type Get<'a> = &'a dyn Fn(&[u8]) -> Result<Option<Bytes>>;

/// Assert that one `get` of `key(i)` after two warming reads allocates
/// at most [`BUDGET`] times, through the handle, a view and a snapshot;
/// the value read is checked against `want`.
fn assert_warm_gets_within_budget(db: &Db, i: usize, want: &[u8]) {
    let view = db.view();
    let snap = db.snapshot();
    let reads: [(&str, Get<'_>); 3] = [
        ("Db::get", &|k| db.get(k)),
        ("ReadView::get", &|k| view.get(k)),
        ("Db::snapshot get", &|k| snap.get(k)),
    ];
    let k = key(i);
    for (what, get) in reads {
        for _ in 0..2 {
            assert_eq!(get(&k).unwrap().unwrap(), want, "{what} key {i}");
        }
        let before = ALLOCS.with(Cell::get);
        let got = get(&k);
        let allocs = ALLOCS.with(Cell::get) - before;
        assert_eq!(got.unwrap().unwrap(), want, "{what} key {i}");
        assert!(
            allocs <= BUDGET,
            "{what}: {allocs} allocations (budget {BUDGET})"
        );
    }
}

#[test]
fn a_warm_get_of_an_inline_value_stays_within_budget() {
    let db = store();
    assert_warm_gets_within_budget(&db, 10, &value(10, SMALL, 1));
}

#[test]
fn a_warm_get_of_a_separated_value_stays_within_budget() {
    let db = store();
    assert_warm_gets_within_budget(&db, 11, &value(11, LARGE, 1));
}

#[test]
fn a_warm_get_through_the_inheritance_forest_stays_within_budget() {
    let db = store();
    let vstore = db.shard(0).value_store();
    let file = vstore.all_files()[0].file;
    // Overwrite a quarter of the separated keys until GC has moved every
    // survivor out of the first value file.
    for round in 2..64u8 {
        if vstore.meta(file).is_none() {
            break;
        }
        for i in (1..N).step_by(4) {
            db.put(key(i), value(i, LARGE, round)).unwrap();
        }
        db.flush().unwrap();
        db.compact_all().unwrap();
        db.run_gc_until_clean().unwrap();
    }
    assert!(
        vstore.meta(file).is_none(),
        "value file {file} never collected"
    );
    let heirs = vstore.resolve_leaves(file);
    assert!(!heirs.is_empty() && !heirs.contains(&file), "{heirs:?}");
    // Key 3 was never overwritten: its reference still names `file`.
    assert_warm_gets_within_budget(&db, 3, &value(3, LARGE, 1));
}
