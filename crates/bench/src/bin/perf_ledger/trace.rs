//! Span recorder for the traced run.
//!
//! Every rank thread records spans at the layer boundaries the benchmark can
//! see from outside (the `Traced*` wrappers in `wrappers.rs` and the solve
//! bracket in `workloads.rs`) into its own preallocated buffer. The buffer
//! is flushed to a process-wide sink when the rank's [`Attached`] guard
//! drops, which also happens while a killed rank unwinds, so its spans
//! survive. A layer's *self time* is its spans' duration minus the time
//! their child spans cover; the per-layer table and the Chrome trace are
//! two views of the same spans.
//!
//! When no guard is attached (every untraced run) [`span`] is a no-op.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries spans are recorded at. The dotted metric prefix of
/// each layer is the module path it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole solve (the root span; its self time is what no wrapper
    /// sees: recurrence bookkeeping, ghost assembly, allocation).
    Solve,
    Spmv,
    Spmm,
    Dot,
    Update,
    PrecondApply,
    Factor,
    Allreduce,
    IallreducePost,
    Wait,
    HaloSend,
    HaloRecv,
    Barrier,
    Persist,
    Restore,
    Rendezvous,
    PolicyHook,
}

pub const N_LAYERS: usize = Layer::PolicyHook as usize + 1;

impl Layer {
    pub const ALL: [Layer; N_LAYERS] = [
        Layer::Solve,
        Layer::Spmv,
        Layer::Spmm,
        Layer::Dot,
        Layer::Update,
        Layer::PrecondApply,
        Layer::Factor,
        Layer::Allreduce,
        Layer::IallreducePost,
        Layer::Wait,
        Layer::HaloSend,
        Layer::HaloRecv,
        Layer::Barrier,
        Layer::Persist,
        Layer::Restore,
        Layer::Rendezvous,
        Layer::PolicyHook,
    ];

    /// Span name in the Chrome trace and the per-configuration table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Solve => "core.kernel.solve",
            Layer::Spmv => "linalg.ops.spmv",
            Layer::Spmm => "linalg.ops.spmm",
            Layer::Dot => "linalg.ops.dot",
            Layer::Update => "linalg.ops.update",
            Layer::PrecondApply => "core.kernel.precond.apply",
            Layer::Factor => "linalg.dense.factor",
            Layer::Allreduce => "runtime.threads.allreduce",
            Layer::IallreducePost => "runtime.threads.iallreduce_post",
            Layer::Wait => "runtime.threads.wait",
            Layer::HaloSend => "runtime.threads.halo_send",
            Layer::HaloRecv => "runtime.threads.halo_recv",
            Layer::Barrier => "runtime.threads.barrier",
            Layer::Persist => "runtime.threads.persist",
            Layer::Restore => "runtime.threads.restore",
            Layer::Rendezvous => "runtime.threads.rendezvous",
            Layer::PolicyHook => "core.kernel.policy.hook",
        }
    }

    /// Node-local arithmetic: muted inside a preconditioner apply, whose
    /// span then owns that time (see [`mute_ops`]).
    fn is_local_op(self) -> bool {
        matches!(self, Layer::Spmv | Layer::Spmm | Layer::Dot | Layer::Update)
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One recorded interval. `parent` indexes the slice the span is stored in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub layer: Layer,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub rank: u16,
    /// Which configuration of the repetition the span belongs to.
    pub solve: u16,
    /// Bytes the call moved, *computed* from its operand sizes.
    pub bytes: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans per rank thread. The largest traced repetition (`block_rhs8`: eight
/// sequential solves of ~500 iterations) records about 60 000.
const RANK_CAPACITY: usize = 1 << 18;

struct RankTracer {
    rank: u16,
    solve: u16,
    spans: Vec<Span>,
    open: Vec<u32>,
    muted: u32,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<RankTracer>> = const { RefCell::new(None) };
}

#[derive(Default)]
struct Sink {
    spans: Vec<Span>,
    dropped: u64,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(Mutex::default)
}

/// Tests that record spans share the one sink; they take this lock.
#[cfg(test)]
pub static SINK_TEST_LOCK: Mutex<()> = Mutex::new(());

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Guard of one rank thread's recording; dropping it flushes to the sink.
pub struct Attached(());

/// Start recording on the calling thread as `rank`, configuration `solve`.
pub fn attach(rank: usize, solve: usize) -> Attached {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(RankTracer {
            rank: rank as u16,
            solve: solve as u16,
            spans: Vec::with_capacity(RANK_CAPACITY),
            open: Vec::with_capacity(16),
            muted: 0,
            dropped: 0,
        });
    });
    Attached(())
}

impl Drop for Attached {
    fn drop(&mut self) {
        let Some(tracer) = TRACER.with(|t| t.borrow_mut().take()) else {
            return;
        };
        // A poisoned sink only means another rank panicked while flushing;
        // the spans are plain data, so keep collecting.
        let mut sink = sink().lock().unwrap_or_else(|e| e.into_inner());
        let base = sink.spans.len() as u32;
        sink.dropped += tracer.dropped;
        sink.spans.extend(tracer.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }
}

/// Switch the configuration id subsequent spans on this thread carry.
pub fn set_solve(solve: usize) {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.solve = solve as u16;
        }
    });
}

/// Take everything flushed so far: `(spans, spans dropped for lack of room)`.
pub fn drain() -> (Vec<Span>, u64) {
    let mut sink = sink().lock().unwrap_or_else(|e| e.into_inner());
    let dropped = std::mem::take(&mut sink.dropped);
    (std::mem::take(&mut sink.spans), dropped)
}

/// An open span; closes when dropped (also during a rank-death unwind).
pub struct SpanGuard(u32);

/// Open a span on the calling thread.
pub fn span(layer: Layer, bytes: u64) -> SpanGuard {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let Some(t) = t.as_mut() else {
            return SpanGuard(NO_PARENT);
        };
        if t.muted > 0 && layer.is_local_op() {
            return SpanGuard(NO_PARENT);
        }
        if t.spans.len() == t.spans.capacity() {
            t.dropped += 1;
            return SpanGuard(NO_PARENT);
        }
        let idx = t.spans.len() as u32;
        t.spans.push(Span {
            layer,
            start_ns: now_ns(),
            end_ns: 0,
            parent: t.open.last().copied().unwrap_or(NO_PARENT),
            rank: t.rank,
            solve: t.solve,
            bytes,
        });
        t.open.push(idx);
        SpanGuard(idx)
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.0 == NO_PARENT {
            return;
        }
        let end = now_ns();
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.spans[self.0 as usize].end_ns = end;
                t.open.pop();
            }
        });
    }
}

/// While alive, node-local op spans are not recorded on this thread: a
/// block-Jacobi apply issues one `axpy` per row, and recording thousands of
/// sub-microsecond children would cost more than they measure. The apply
/// span keeps that time as its own.
pub struct Muted(());

pub fn mute_ops() -> Muted {
    TRACER.with(|t| {
        if let Some(t) = t.borrow_mut().as_mut() {
            t.muted += 1;
        }
    });
    Muted(())
}

impl Drop for Muted {
    fn drop(&mut self) {
        TRACER.with(|t| {
            if let Some(t) = t.borrow_mut().as_mut() {
                t.muted -= 1;
            }
        });
    }
}

/// Self time of every span: its duration minus its direct children's. Spans
/// of one rank thread nest strictly, so children never overlap each other.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-layer totals of one configuration: self seconds and byte counts are
/// summed over ranks and divided by the ranks that ran it; calls likewise,
/// so a count reads "per rank".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTotals {
    pub self_s: [f64; N_LAYERS],
    pub calls: [f64; N_LAYERS],
    pub bytes: [f64; N_LAYERS],
}

impl LayerTotals {
    pub fn add(&mut self, other: &LayerTotals) {
        for i in 0..N_LAYERS {
            self.self_s[i] += other.self_s[i];
            self.calls[i] += other.calls[i];
            self.bytes[i] += other.bytes[i];
        }
    }

    pub fn self_s(&self, layer: Layer) -> f64 {
        self.self_s[layer as usize]
    }
    pub fn calls(&self, layer: Layer) -> f64 {
        self.calls[layer as usize]
    }
    pub fn bytes(&self, layer: Layer) -> f64 {
        self.bytes[layer as usize]
    }

    /// Computed bytes over self time, in GB/s (0 when the layer never ran).
    pub fn gbps(&self, layers: &[Layer]) -> f64 {
        let bytes: f64 = layers.iter().map(|&l| self.bytes(l)).sum();
        let secs: f64 = layers.iter().map(|&l| self.self_s(l)).sum();
        if secs > 0.0 {
            bytes / secs / 1e9
        } else {
            0.0
        }
    }
}

/// Aggregate the spans by configuration (`0..configs`).
pub fn totals_by_config(spans: &[Span], configs: usize) -> Vec<LayerTotals> {
    let own = self_times_ns(spans);
    let mut totals = vec![LayerTotals::default(); configs];
    let mut ranks: Vec<Vec<u16>> = vec![Vec::new(); configs];
    for (s, own_ns) in spans.iter().zip(own) {
        let Some(t) = totals.get_mut(s.solve as usize) else {
            continue;
        };
        let seen = &mut ranks[s.solve as usize];
        if !seen.contains(&s.rank) {
            seen.push(s.rank);
        }
        let l = s.layer as usize;
        t.self_s[l] += own_ns as f64 * 1e-9;
        t.calls[l] += 1.0;
        t.bytes[l] += s.bytes as f64;
    }
    for (t, seen) in totals.iter_mut().zip(&ranks) {
        let n = seen.len().max(1) as f64;
        for l in 0..N_LAYERS {
            t.self_s[l] /= n;
            t.calls[l] /= n;
            t.bytes[l] /= n;
        }
    }
    totals
}

/// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto): one
/// track per rank, one complete event per span.
pub fn chrome_trace_json(spans: &[Span], config_names: &[&str]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let config = config_names.get(s.solve as usize).copied().unwrap_or("?");
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"bytes_computed\":{}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.layer.name(),
            config,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.rank,
            s.bytes,
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(layer: Layer, start: u64, end: u64, parent: u32, rank: u16, solve: u16) -> Span {
        Span {
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            rank,
            solve,
            bytes: 8,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // solve [0,100] > spmv [10,40] > halo_send [15,20]; solve > dot [50,70].
        let spans = [
            sp(Layer::Solve, 0, 100, NO_PARENT, 0, 0),
            sp(Layer::Spmv, 10, 40, 0, 0, 0),
            sp(Layer::HaloSend, 15, 20, 1, 0, 0),
            sp(Layer::Dot, 50, 70, 0, 0, 0),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 25, 5, 20]);
        // Self times partition the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn totals_average_over_the_ranks_that_ran_the_configuration() {
        let spans = [
            sp(Layer::Solve, 0, 100, NO_PARENT, 0, 0),
            sp(Layer::Spmv, 0, 30, 0, 0, 0),
            sp(Layer::Solve, 0, 100, NO_PARENT, 1, 0),
            sp(Layer::Spmv, 0, 50, 2, 1, 0),
            // A single-rank configuration must not be halved.
            sp(Layer::Solve, 200, 300, NO_PARENT, 0, 1),
            sp(Layer::Spmv, 200, 260, 4, 0, 1),
        ];
        let [two, one] = &totals_by_config(&spans, 2)[..] else {
            panic!("one total per configuration");
        };
        assert!((two.self_s(Layer::Spmv) - 40e-9).abs() < 1e-15);
        assert!((two.self_s(Layer::Solve) - 60e-9).abs() < 1e-15);
        assert_eq!(two.calls(Layer::Spmv), 1.0);
        assert!((one.self_s(Layer::Spmv) - 60e-9).abs() < 1e-15);
        assert_eq!(one.bytes(Layer::Spmv), 8.0);
    }

    #[test]
    fn recording_nests_mutes_and_survives_an_unwind() {
        let _sink = SINK_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let killed = std::thread::spawn(|| {
            let _attached = attach(1, 0);
            let _solve = span(Layer::Solve, 0);
            let _spmv = span(Layer::Spmv, 24);
            panic!("rank death");
        })
        .join();
        assert!(killed.is_err());
        {
            let _attached = attach(0, 2);
            let _solve = span(Layer::Solve, 0);
            {
                let _apply = span(Layer::PrecondApply, 0);
                let _muted = mute_ops();
                let _hidden = span(Layer::Update, 0);
                let _kept = span(Layer::HaloSend, 0);
            }
            set_solve(3);
            let _dot = span(Layer::Dot, 16);
        }
        let (spans, dropped) = drain();
        assert_eq!(dropped, 0);
        let layers: Vec<Layer> = spans.iter().map(|s| s.layer).collect();
        assert_eq!(
            layers,
            [
                Layer::Solve,
                Layer::Spmv,
                Layer::Solve,
                Layer::PrecondApply,
                Layer::HaloSend,
                Layer::Dot
            ]
        );
        // The dead rank's spans were closed by the unwind and keep their
        // nesting; the second flush was rebased behind them.
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[4].parent, 3);
        assert_eq!(spans[5].parent, 2);
        assert_eq!((spans[4].solve, spans[5].solve), (2, 3));
        let json = chrome_trace_json(&spans, &["a", "b", "c", "d"]);
        assert!(json.contains("\"name\":\"linalg.ops.dot\",\"cat\":\"d\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), spans.len());
    }
}
