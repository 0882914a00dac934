//! In-memory span recorder for the traced run.
//!
//! Spans are opened only in this benchmark's own code, around calls into
//! the crates' public functions; nothing inside the program is
//! instrumented. Every span records its name, start, end, parent and the
//! op and pass it belongs to, plus the allocations its thread made while
//! it was open. Spans stay in memory until [`write_jsonl`] at the end.

use crate::alloc;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Name of the root span wrapped around every op; its self time is the
/// part of an op that no layer span claims.
pub const OP: &str = "op";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub pass: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Allocations and bytes requested on this thread while open
    /// (inclusive of children).
    pub allocs: u64,
    pub bytes: u64,
}

struct Open {
    name: &'static str,
    id: u32,
    parent: Option<u32>,
    start_ns: u64,
    allocs: u64,
    bytes: u64,
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<Open>,
    pass: u32,
    op: u32,
}

static ON: AtomicBool = AtomicBool::new(false);
/// Spans handed over by threads that have finished recording.
static FINISHED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_OP: AtomicU32 = AtomicU32::new(1);

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        spans: Vec::with_capacity(1 << 16),
        ..Recorder::default()
    });
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording spans and counting allocations. Until then [`op`]
/// and [`span`] only run their closure, so untraced runs share set-up
/// code with traced ones at no cost.
pub fn enable() {
    alloc::enable();
    ON.store(true, Ordering::Relaxed);
}

/// Tag the spans this thread records from now on with `pass`.
pub fn set_pass(pass: u32) {
    REC.with(|r| r.borrow_mut().pass = pass);
}

/// Run `f` as one op: a fresh op id and an [`OP`] root span around it.
pub fn op<R>(f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_OP.fetch_add(1, Ordering::Relaxed);
    let prev = REC.with(|r| std::mem::replace(&mut r.borrow_mut().op, id));
    let out = span(OP, f);
    REC.with(|r| r.borrow_mut().op = prev);
    out
}

/// Run `f` inside a span named `name` (nested under the open span).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ON.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().map(|o| o.id);
        let (allocs, bytes) = alloc::thread_counts();
        r.open.push(Open {
            name,
            id,
            parent,
            start_ns: now_ns(),
            allocs,
            bytes,
        });
    });
    let out = f();
    let end_ns = now_ns();
    let (allocs, bytes) = alloc::thread_counts();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let o = r.open.pop().expect("span closed without being opened");
        debug_assert_eq!(o.id, id);
        let (op, pass) = (r.op, r.pass);
        r.spans.push(Span {
            name: o.name,
            id: o.id,
            parent: o.parent,
            op,
            pass,
            start_ns: o.start_ns,
            end_ns,
            allocs: allocs - o.allocs,
            bytes: bytes - o.bytes,
        });
    });
    out
}

/// Hand this thread's closed spans over to [`take`]; a thread that
/// records spans calls this before it ends.
pub fn hand_over() {
    let mine = REC.with(|r| std::mem::take(&mut r.borrow_mut().spans));
    FINISHED
        .lock()
        .expect("a thread panicked while handing over spans")
        .extend(mine);
}

/// Take every span this thread has closed and every span handed over.
pub fn take() -> Vec<Span> {
    hand_over();
    std::mem::take(
        &mut *FINISHED
            .lock()
            .expect("a thread panicked while handing over spans"),
    )
}

/// Per-name totals of one pass: self time, self allocations and bytes,
/// and the number of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Totals {
    pub self_ns: u64,
    pub allocs: u64,
    pub bytes: u64,
    pub calls: u64,
}

/// One pass folded: per-name self totals, and each op's wall time.
#[derive(Debug, Default)]
pub struct PassAgg {
    pub by_name: BTreeMap<&'static str, Totals>,
    pub op_ns: Vec<u64>,
}

impl PassAgg {
    pub fn ops(&self) -> usize {
        self.op_ns.len()
    }

    pub fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// Fold spans into per-pass totals. A span's self time (and self
/// allocation count) is its own minus the part its children cover.
pub fn aggregate(spans: &[Span]) -> BTreeMap<u32, PassAgg> {
    let mut child: BTreeMap<u32, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            let c = child.entry(p).or_default();
            c.0 += s.end_ns - s.start_ns;
            c.1 += s.allocs;
            c.2 += s.bytes;
        }
    }
    let mut out: BTreeMap<u32, PassAgg> = BTreeMap::new();
    for s in spans {
        let (cn, ca, cb) = child.get(&s.id).copied().unwrap_or_default();
        let agg = out.entry(s.pass).or_default();
        let t = agg.by_name.entry(s.name).or_default();
        t.self_ns += (s.end_ns - s.start_ns).saturating_sub(cn);
        t.allocs += s.allocs.saturating_sub(ca);
        t.bytes += s.bytes.saturating_sub(cb);
        t.calls += 1;
        if s.name == OP {
            agg.op_ns.push(s.end_ns - s.start_ns);
        }
    }
    out
}

/// Write every span as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"name\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"pass\": {}, \
             \"start_ns\": {}, \"end_ns\": {}, \"allocs\": {}, \"bytes\": {}}}",
            s.name, s.id, parent, s.op, s.pass, s.start_ns, s.end_ns, s.allocs, s.bytes
        )?;
    }
    w.flush()
}
