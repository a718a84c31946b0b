//! Span recorder for the traced run, kept entirely on the benchmark's side
//! of the engine's public API.
//!
//! An *op span* wraps one public engine or client call; *env spans* are the
//! `Env`/file calls [`TraceEnv`](crate::env::TraceEnv) times underneath.
//! On the calling thread they nest, so an op's self time is its duration
//! minus the env time inside it. Env calls made by other threads (server
//! connections, background flush/compaction, GC workers) have no parent and
//! are summed per thread role. Every 256th op keeps all its spans for the
//! trace file; the rest only feed the aggregates.

use scavenger_env::IoClass;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ops whose id is a multiple of this keep their full span tree.
pub const SAMPLE_EVERY: u64 = 256;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static THREADS: Mutex<Vec<Arc<Mutex<ThreadBuf>>>> = Mutex::new(Vec::new());

/// Tracing is switched per slice of a traced run (see `measure`), so the
/// same run yields the untraced rate the overhead is taken against.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op_id: u64,
    pub layer: &'static str,
    pub name: String,
    pub t0_ns: u64,
    pub t1_ns: u64,
    pub thread: usize,
}

#[derive(Default, Clone, Copy, Debug, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub ns: u64,
}

struct OpenOp {
    op_id: u64,
    span_id: u64,
    t0_ns: u64,
    child_ns: u64,
    sampled: bool,
}

#[derive(Default)]
struct ThreadBuf {
    index: usize,
    role: String,
    open: Option<OpenOp>,
    spans: Vec<Span>,
    /// `layer.name` of op spans → totals.
    ops: BTreeMap<(&'static str, &'static str), Agg>,
    /// Env calls with no op span open on this thread, by call kind.
    orphan_env: BTreeMap<&'static str, Agg>,
}

thread_local! {
    static LOCAL: RefCell<Option<Arc<Mutex<ThreadBuf>>>> = const { RefCell::new(None) };
}

/// Role of the current thread, from the names the product gives its threads.
fn thread_role() -> String {
    match std::thread::current().name() {
        Some(n) if n.starts_with("scv-conn") => "server-conn".into(),
        Some(n) if n.starts_with("scavenger-bg") => "lsm-background".into(),
        Some(n) if n.starts_with("bench-client") => "client".into(),
        Some("main") => "main".into(),
        _ => "worker".into(),
    }
}

fn with_local<T>(f: impl FnOnce(&mut ThreadBuf) -> T) -> T {
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let mut all = THREADS.lock().expect("trace registry poisoned");
            let buf = Arc::new(Mutex::new(ThreadBuf {
                index: all.len(),
                role: thread_role(),
                ..ThreadBuf::default()
            }));
            all.push(buf.clone());
            buf
        });
        let mut guard = buf.lock().expect("trace buffer poisoned");
        f(&mut guard)
    })
}

/// Open the op span of operation `op_id` on this thread.
pub fn op_begin(op_id: u64) {
    let t0_ns = now_ns();
    with_local(|l| {
        l.open = Some(OpenOp {
            op_id,
            span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
            t0_ns,
            child_ns: 0,
            sampled: op_id.is_multiple_of(SAMPLE_EVERY),
        });
    });
}

/// Close it; returns `(duration, self time)` in ns.
pub fn op_end(layer: &'static str, name: &'static str) -> (u64, u64) {
    let t1_ns = now_ns();
    with_local(|l| {
        let op = l.open.take().expect("op_end without op_begin");
        let dur = t1_ns - op.t0_ns;
        let agg = l.ops.entry((layer, name)).or_default();
        agg.count += 1;
        agg.ns += dur;
        if op.sampled {
            let thread = l.index;
            l.spans.push(Span {
                id: op.span_id,
                parent: 0,
                op_id: op.op_id,
                layer,
                name: name.to_string(),
                t0_ns: op.t0_ns,
                t1_ns,
                thread,
            });
        }
        (dur, dur.saturating_sub(op.child_ns))
    })
}

/// Record one timed `Env` call made on this thread.
pub fn env_span(kind: &'static str, class: IoClass, t0_ns: u64, t1_ns: u64) {
    with_local(|l| {
        let dur = t1_ns - t0_ns;
        let thread = l.index;
        match l.open.as_mut() {
            Some(op) => {
                op.child_ns += dur;
                if op.sampled {
                    let (parent, op_id) = (op.span_id, op.op_id);
                    l.spans.push(Span {
                        id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
                        parent,
                        op_id,
                        layer: "env",
                        name: format!("{kind}.{}", class.label()),
                        t0_ns,
                        t1_ns,
                        thread,
                    });
                }
            }
            None => {
                let agg = l.orphan_env.entry(kind).or_default();
                agg.count += 1;
                agg.ns += dur;
            }
        }
    });
}

/// Everything recorded since the last `drain`.
#[derive(Default)]
pub struct Recording {
    pub spans: Vec<Span>,
    /// `(layer, name)` → totals over all op spans, sampled or not.
    pub ops: BTreeMap<(&'static str, &'static str), Agg>,
    /// `(thread role, env call kind)` → totals of parentless env calls.
    pub orphan_env: BTreeMap<(String, &'static str), Agg>,
}

pub fn drain() -> Recording {
    let mut rec = Recording::default();
    for buf in THREADS.lock().expect("trace registry poisoned").iter() {
        let mut b = buf.lock().expect("trace buffer poisoned");
        rec.spans.append(&mut b.spans);
        for (k, a) in std::mem::take(&mut b.ops) {
            let t = rec.ops.entry(k).or_default();
            t.count += a.count;
            t.ns += a.ns;
        }
        for (kind, a) in std::mem::take(&mut b.orphan_env) {
            let t = rec.orphan_env.entry((b.role.clone(), kind)).or_default();
            t.count += a.count;
            t.ns += a.ns;
        }
    }
    rec.spans.sort_by_key(|s| (s.t0_ns, s.id));
    rec
}

impl Recording {
    /// The trace file: sampled spans in full, aggregates for the rest.
    pub fn to_json(&self, workload: &str) -> String {
        use crate::json::quote;
        let mut out = format!(
            "{{\"workload\": {}, \"sample_every\": {SAMPLE_EVERY},\n \"aggregates\": {{\"ops\": [",
            quote(workload)
        );
        let ops: Vec<String> = self
            .ops
            .iter()
            .map(|((layer, name), a)| {
                format!(
                    "{{\"layer\": {}, \"name\": {}, \"count\": {}, \"ns\": {}}}",
                    quote(layer),
                    quote(name),
                    a.count,
                    a.ns
                )
            })
            .collect();
        out.push_str(&ops.join(", "));
        out.push_str("], \"env_without_parent\": [");
        let orphans: Vec<String> = self
            .orphan_env
            .iter()
            .map(|((role, kind), a)| {
                format!(
                    "{{\"thread_role\": {}, \"name\": {}, \"count\": {}, \"ns\": {}}}",
                    quote(role),
                    quote(kind),
                    a.count,
                    a.ns
                )
            })
            .collect();
        out.push_str(&orphans.join(", "));
        out.push_str("]},\n \"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "  {{\"id\": {}, \"parent\": {}, \"op_id\": {}, \"layer\": {}, \"name\": {}, \"t0_ns\": {}, \"t1_ns\": {}, \"thread\": {}}}",
                    s.id, s.parent, s.op_id, quote(s.layer), quote(&s.name), s.t0_ns, s.t1_ns, s.thread
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n ]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_spans_nest_under_the_open_op_and_give_self_time() {
        // Own thread: the recorder is per-thread and tests run in parallel.
        std::thread::spawn(|| {
            op_begin(SAMPLE_EVERY * 3);
            let t = now_ns();
            env_span("append", IoClass::Wal, t, t + 700);
            env_span("sync", IoClass::Wal, t + 700, t + 1000);
            std::thread::sleep(std::time::Duration::from_millis(2));
            let (dur, self_ns) = op_end("core", "put");
            assert!(dur >= 2_000_000);
            assert_eq!(dur - self_ns, 1000);

            op_begin(SAMPLE_EVERY * 3 + 1);
            let (_, _) = op_end("core", "put");
            env_span("read", IoClass::Compaction, 5, 9);

            let idx = with_local(|l| l.index);
            let (spans, ops, orphan) =
                with_local(|l| (l.spans.clone(), l.ops.clone(), l.orphan_env.clone()));
            assert_eq!(spans.len(), 3, "only the sampled op keeps spans");
            let op = spans.iter().find(|s| s.parent == 0).unwrap();
            assert!(spans
                .iter()
                .filter(|s| s.parent == op.id)
                .all(|s| s.layer == "env" && s.thread == idx));
            assert_eq!(ops[&("core", "put")].count, 2);
            assert_eq!(orphan["read"], Agg { count: 1, ns: 4 });
        })
        .join()
        .unwrap();
    }
}
