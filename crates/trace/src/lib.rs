//! Unified tracing and metrics for the MERLIN workspace.
//!
//! Every crate in the hot path (curves → core → flows → resilience →
//! supervisor → CLI) reports into this collector instead of growing its own
//! ad-hoc stats structs. The design constraints, in order:
//!
//! 1. **Unmeasurable when off.** Collection is disabled by default; every
//!    public hook starts with a single load of a `const`-initialised
//!    thread-local [`Cell<bool>`] and an early return. No allocation, no
//!    clock read, no atomic — the disabled fast path compiles down to one
//!    TLS load and a predictable branch, which is why a 50-net batch shows
//!    no wall-clock difference with the hooks in place.
//! 2. **Zero dependencies.** The crate sits below `merlin-curves` in the
//!    dependency graph, so it can only use `std`.
//! 3. **Thread-local, merge-later.** Each thread collects into its own
//!    buffers with no synchronisation; the supervisor drains worker
//!    collectors at join time and merges the streams by worker id into a
//!    [`TraceSet`].
//!
//! # Vocabulary
//!
//! - A **span** is a named region of wall-clock time, opened by the
//!   [`span!`] macro (an RAII [`SpanGuard`]) and closed on drop. Spans nest;
//!   the collector tracks both *total* time and *self* time (total minus
//!   time spent in child spans).
//! - A **counter** is a named saturating `u64` tally ([`counter`]).
//! - A **histogram** is a named log2-bucketed distribution ([`observe`]).
//!
//! # Sinks
//!
//! - [`report::AggregateReport`] — per-span call-count/total/self table plus
//!   the counter catalog, rendered as text (`--stats`).
//! - [`export::jsonl`] — one JSON object per event, newline-delimited.
//! - [`export::chrome_trace`] — Chrome trace-event JSON loadable by
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! See `docs/OBSERVABILITY.md` for span naming conventions and the counter
//! catalog.
//!
//! # Example
//!
//! ```
//! merlin_trace::enable();
//! {
//!     let _outer = merlin_trace::span!("example.outer");
//!     let _inner = merlin_trace::span!("example.inner", 7);
//!     merlin_trace::counter("example.items", 3);
//!     merlin_trace::observe("example.sizes", 17);
//! }
//! let trace = merlin_trace::drain();
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.counters, vec![("example.items", 3)]);
//! merlin_trace::disable();
//! ```

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

pub mod export;
pub mod registry;
pub mod report;
pub mod wire;

/// A closed span: one timed region recorded by a [`SpanGuard`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Dotted span name (see `docs/OBSERVABILITY.md` for the convention).
    pub name: &'static str,
    /// Optional numeric argument (level index, net index, …).
    pub arg: Option<u64>,
    /// Nanoseconds since the process-wide trace epoch at span open.
    pub start_ns: u64,
    /// Total wall-clock nanoseconds between open and close.
    pub dur_ns: u64,
    /// [`SpanEvent::dur_ns`] minus time attributed to child spans.
    pub self_ns: u64,
    /// Nesting depth at open time (0 = top of this thread's stack).
    pub depth: u16,
}

/// Number of buckets in a [`Hist`]: one for zero plus one per power of two.
pub const HIST_BUCKETS: usize = 65;

/// A log2-bucketed histogram of `u64` observations.
///
/// Bucket 0 holds exact zeros; bucket `k >= 1` holds values in
/// `[2^(k-1), 2^k)`. All tallies saturate instead of wrapping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hist {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (meaningless when `count == 0`).
    pub min: u64,
    /// Largest observed value (meaningless when `count == 0`).
    pub max: u64,
    /// Per-bucket observation counts; see [`Hist::bucket_of`].
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Hist {
    /// The bucket index a value falls into: 0 for 0, else
    /// `floor(log2(v)) + 1`.
    pub fn bucket_of(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The smallest value that lands in bucket `idx` (inverse of
    /// [`Hist::bucket_of`]).
    pub fn bucket_floor(idx: usize) -> u64 {
        if idx == 0 {
            0
        } else {
            1u64 << (idx - 1)
        }
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        let b = Self::bucket_of(value);
        self.buckets[b] = self.buckets[b].saturating_add(1);
    }

    /// Fold another histogram into this one (used when merging streams).
    pub fn merge(&mut self, other: &Hist) {
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the log2 buckets.
    ///
    /// Uses the nearest-rank definition (`rank = ceil(q * count)`), walks
    /// the buckets to the one containing that rank, and interpolates
    /// linearly inside it. The bucket's value range is clamped to the
    /// observed `[min, max]`, so a histogram whose observations all share
    /// one bucket (or one value) reports exactly. Returns 0 on an empty
    /// histogram. `q` is clamped into `[0.0, 1.0]` (NaN counts as 0.0),
    /// so degenerate requests report the extreme quantiles instead of a
    /// garbage rank.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Guard before the cast: NaN casts to 0 and then masquerades as
        // rank 1, and q > 1.0 over-ranks straight into the rank clamp.
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        #[expect(
            clippy::cast_possible_truncation,
            reason = "q is clamped to [0, 1] above, so the rank lies in [0, count]"
        )]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut before = 0u64;
        for (idx, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if before.saturating_add(c) >= rank {
                let lo = Self::bucket_floor(idx).max(self.min);
                let hi_raw = if idx >= HIST_BUCKETS - 1 {
                    u64::MAX
                } else {
                    Self::bucket_floor(idx + 1).saturating_sub(1)
                };
                let hi = hi_raw.min(self.max).max(lo);
                let pos = rank - before; // 1 ..= c
                let span = (hi - lo) as u128;
                #[expect(
                    clippy::cast_possible_truncation,
                    reason = "pos <= c, so the quotient is at most span, a u64 difference"
                )]
                return lo + (span * u128::from(pos) / u128::from(c)) as u64;
            }
            before = before.saturating_add(c);
        }
        self.max
    }

    /// `(bucket_index, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
            .collect()
    }
}

/// Everything one thread collected, moved out by [`drain`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Trace {
    /// Closed spans in close order.
    pub spans: Vec<SpanEvent>,
    /// Counter totals, sorted by name.
    pub counters: Vec<(&'static str, u64)>,
    /// Histograms, sorted by name.
    pub hists: Vec<(&'static str, Hist)>,
}

impl Trace {
    /// True when no spans, counters, or histograms were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.hists.is_empty()
    }

    /// Look up a counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// One thread's [`Trace`] tagged with a stable stream id and label.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Stream {
    /// Stream id; becomes `tid` in the Chrome export. The supervisor uses
    /// `worker id + 1` so stream ids are stable across runs (0 is the
    /// supervising thread).
    pub tid: u32,
    /// Human-readable stream name (`"main"`, `"supervisor"`, `"worker-3"`).
    pub label: String,
    /// The drained events.
    pub trace: Trace,
}

/// A set of per-thread streams merged into one logical trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceSet {
    /// Streams sorted by `tid` (callers push in order).
    pub streams: Vec<Stream>,
}

impl TraceSet {
    /// A set holding a single stream with `tid` 0.
    pub fn single(label: &str, trace: Trace) -> Self {
        TraceSet {
            streams: vec![Stream {
                tid: 0,
                label: label.to_owned(),
                trace,
            }],
        }
    }

    /// Append a stream with an explicit id.
    pub fn push(&mut self, tid: u32, label: &str, trace: Trace) {
        self.streams.push(Stream {
            tid,
            label: label.to_owned(),
            trace,
        });
    }

    /// Counter totals saturating-summed across all streams, sorted by name.
    pub fn merged_counters(&self) -> Vec<(&'static str, u64)> {
        let mut merged: HashMap<&'static str, u64> = HashMap::new();
        for stream in &self.streams {
            for &(name, value) in &stream.trace.counters {
                let slot = merged.entry(name).or_insert(0);
                *slot = slot.saturating_add(value);
            }
        }
        let mut out: Vec<_> = merged.into_iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Histograms merged across all streams, sorted by name.
    pub fn merged_hists(&self) -> Vec<(&'static str, Hist)> {
        let mut merged: HashMap<&'static str, Hist> = HashMap::new();
        for stream in &self.streams {
            for (name, hist) in &stream.trace.hists {
                merged.entry(name).or_default().merge(hist);
            }
        }
        let mut out: Vec<_> = merged.into_iter().collect();
        out.sort_unstable_by(|a, b| a.0.cmp(b.0));
        out
    }

    /// Total number of span events across all streams.
    pub fn total_spans(&self) -> usize {
        self.streams.iter().map(|s| s.trace.spans.len()).sum()
    }

    /// Merged-counter lookup by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.streams
            .iter()
            .map(|s| s.trace.counter(name))
            .fold(0u64, u64::saturating_add)
    }
}

struct OpenSpan {
    name: &'static str,
    arg: Option<u64>,
    start_ns: u64,
    child_ns: u64,
    token: u64,
}

#[derive(Default)]
struct Collector {
    spans: Vec<SpanEvent>,
    stack: Vec<OpenSpan>,
    counters: HashMap<&'static str, u64>,
    hists: HashMap<&'static str, Hist>,
}

thread_local! {
    // The whole disabled fast path: one load of this Cell. It is
    // const-initialised so there is no lazy-init branch.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static COLLECTOR: RefCell<Collector> = RefCell::new(Collector::default());
}

/// Process-wide epoch so timestamps from different threads share one axis.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Globally unique span tokens so a guard can never close a span it did not
/// open (e.g. after a mid-span [`drain`] or a cross-thread drop).
static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Count of threads that have called [`enable`] without a matching
/// [`disable`]. The [`is_enabled`] fast path loads this *before* touching
/// thread-local storage: in a process that never enables tracing, the
/// whole check is one relaxed load of a shared read-mostly cacheline and
/// a predicted branch — measurably cheaper in the DP hot loops than the
/// TLS access. A thread that exits while enabled leaves the count high,
/// which only costs other threads the TLS fallback check, never
/// correctness.
static ENABLED_THREADS: AtomicU32 = AtomicU32::new(0);

#[expect(
    clippy::cast_possible_truncation,
    reason = "a u64 of nanoseconds covers ~584 years of process uptime"
)]
fn now_ns() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    epoch.elapsed().as_nanos() as u64
}

/// Turn collection on for the **current thread**. Idempotent. Also pins the
/// process-wide epoch so later [`enable`] calls on other threads share it.
pub fn enable() {
    let _ = EPOCH.get_or_init(Instant::now);
    ENABLED.with(|e| {
        if !e.get() {
            e.set(true);
            ENABLED_THREADS.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Turn collection off for the current thread. Already-recorded events stay
/// buffered until [`drain`].
pub fn disable() {
    ENABLED.with(|e| {
        if e.get() {
            e.set(false);
            ENABLED_THREADS.fetch_sub(1, Ordering::Relaxed);
        }
    });
}

/// Whether collection is on for the current thread. Instrumentation sites
/// that need extra work to *compute* a metric should gate on this so the
/// disabled path stays free.
#[inline]
pub fn is_enabled() -> bool {
    // Global gate first — see ENABLED_THREADS. The TLS read only happens
    // once some thread has actually turned tracing on.
    ENABLED_THREADS.load(Ordering::Relaxed) != 0 && ENABLED.try_with(Cell::get).unwrap_or(false)
}

/// Add `delta` to the named counter (saturating). No-op when disabled.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if !is_enabled() {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        if let Ok(mut c) = c.try_borrow_mut() {
            let slot = c.counters.entry(name).or_insert(0);
            *slot = slot.saturating_add(delta);
        }
    });
}

/// Record one value into the named histogram. No-op when disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if !is_enabled() {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        if let Ok(mut c) = c.try_borrow_mut() {
            c.hists.entry(name).or_default().record(value);
        }
    });
}

/// Move the current thread's collected events out, resetting the collector.
///
/// Open spans are discarded (their guards become inert no-ops thanks to the
/// token check in [`SpanGuard::drop`]); the enabled flag is left unchanged.
pub fn drain() -> Trace {
    COLLECTOR
        .try_with(|c| {
            let Ok(mut c) = c.try_borrow_mut() else {
                return Trace::default();
            };
            c.stack.clear();
            let spans = std::mem::take(&mut c.spans);
            let mut counters: Vec<_> = c.counters.drain().collect();
            counters.sort_unstable_by(|a, b| a.0.cmp(b.0));
            let mut hists: Vec<_> = c.hists.drain().collect();
            hists.sort_unstable_by(|a, b| a.0.cmp(b.0));
            Trace {
                spans,
                counters,
                hists,
            }
        })
        .unwrap_or_default()
}

/// Fold a drained [`Trace`] from another thread into the **current**
/// thread's collector, as if its events had been recorded here.
///
/// This is how the level-sharded parallel DP reports: each scoped worker
/// enables collection, drains at exit, and the coordinating thread absorbs
/// the worker traces in deterministic shard order. Spans keep their
/// original timestamps (every thread shares the process-wide epoch, so the
/// time axes line up) and are appended in recorded close order; counters
/// and histograms merge saturating. No-op when collection is disabled on
/// the absorbing thread.
pub fn absorb(trace: Trace) {
    if !is_enabled() {
        return;
    }
    let _ = COLLECTOR.try_with(|c| {
        if let Ok(mut c) = c.try_borrow_mut() {
            c.spans.extend(trace.spans);
            for (name, value) in trace.counters {
                let slot = c.counters.entry(name).or_insert(0);
                *slot = slot.saturating_add(value);
            }
            for (name, hist) in trace.hists {
                c.hists.entry(name).or_default().merge(&hist);
            }
        }
    });
}

/// RAII guard for a timed region; created by the [`span!`] macro.
///
/// A guard created while collection is disabled is inert forever (token 0).
/// A live guard closes its span on drop **only** if that span is still the
/// innermost open span on the dropping thread — after a mid-span [`drain`]
/// or a cross-thread move the token cannot match and the drop is a safe
/// no-op, never a panic.
#[must_use = "a span guard records its span when dropped"]
pub struct SpanGuard {
    token: u64,
}

impl SpanGuard {
    /// Open a span. Prefer the [`span!`] macro at call sites.
    #[inline]
    pub fn enter(name: &'static str, arg: Option<u64>) -> Self {
        if !is_enabled() {
            return SpanGuard { token: 0 };
        }
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let start_ns = now_ns();
        let _ = COLLECTOR.try_with(|c| {
            if let Ok(mut c) = c.try_borrow_mut() {
                c.stack.push(OpenSpan {
                    name,
                    arg,
                    start_ns,
                    child_ns: 0,
                    token,
                });
            }
        });
        SpanGuard { token }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.token == 0 {
            return;
        }
        // Drop must never panic: TLS access and the RefCell borrow both use
        // their fallible forms and bail out quietly on failure.
        let token = self.token;
        let _ = COLLECTOR.try_with(|c| {
            let Ok(mut c) = c.try_borrow_mut() else {
                return;
            };
            if c.stack.last().is_none_or(|s| s.token != token) {
                return;
            }
            let Some(open) = c.stack.pop() else {
                return;
            };
            let dur_ns = now_ns().saturating_sub(open.start_ns);
            let self_ns = dur_ns.saturating_sub(open.child_ns);
            if let Some(parent) = c.stack.last_mut() {
                parent.child_ns = parent.child_ns.saturating_add(dur_ns);
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "clamped to u16::MAX in the same expression"
            )]
            let depth = c.stack.len().min(usize::from(u16::MAX)) as u16;
            c.spans.push(SpanEvent {
                name: open.name,
                arg: open.arg,
                start_ns: open.start_ns,
                dur_ns,
                self_ns,
                depth,
            });
        });
    }
}

/// Open a named span for the enclosing scope.
///
/// ```
/// merlin_trace::enable();
/// let _g = merlin_trace::span!("docs.example");
/// let _h = merlin_trace::span!("docs.example.level", 3u64);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name, None)
    };
    ($name:expr, $arg:expr) => {
        $crate::SpanGuard::enter($name, Some(($arg) as u64))
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_account_self_time_exactly() {
        enable();
        let _ = drain();
        {
            let _outer = span!("t.outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = span!("t.inner", 5u64);
                std::thread::sleep(Duration::from_millis(2));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let trace = drain();
        disable();
        assert_eq!(trace.spans.len(), 2);
        let inner = &trace.spans[0];
        let outer = &trace.spans[1];
        assert_eq!(inner.name, "t.inner");
        assert_eq!(inner.arg, Some(5));
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.self_ns, inner.dur_ns);
        assert_eq!(outer.name, "t.outer");
        assert_eq!(outer.depth, 0);
        // Self time is *exactly* total minus the one child's total.
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(outer.dur_ns >= inner.dur_ns);
        assert!(inner.dur_ns >= 1_000_000, "inner slept 2ms: {inner:?}");
    }

    #[test]
    fn sequential_children_sum_into_parent_child_time() {
        enable();
        let _ = drain();
        {
            let _p = span!("t.parent");
            let _ = span!("t.c1");
            let _ = span!("t.c2");
        }
        let trace = drain();
        disable();
        assert_eq!(trace.spans.len(), 3);
        let parent = &trace.spans[2];
        let kids: u64 = trace.spans[..2].iter().map(|s| s.dur_ns).sum();
        assert_eq!(parent.self_ns, parent.dur_ns.saturating_sub(kids));
    }

    #[test]
    fn absorb_folds_a_worker_trace_into_the_current_thread() {
        // The parallel-DP merge path: a worker collects into its own
        // thread-local trace, drains it, and the coordinator absorbs it.
        enable();
        let _ = drain();
        counter("t.absorb.count", 10);
        observe("t.absorb.hist", 4);
        let worker = std::thread::spawn(|| {
            enable();
            let _ = drain();
            {
                let _s = span!("t.absorb.worker");
                counter("t.absorb.count", 32);
                observe("t.absorb.hist", 4);
            }
            let t = drain();
            disable();
            t
        })
        .join()
        .expect("worker ran");
        absorb(worker);
        let merged = drain();
        disable();
        assert_eq!(merged.counter("t.absorb.count"), 42);
        assert_eq!(merged.spans.len(), 1);
        assert_eq!(merged.spans[0].name, "t.absorb.worker");
        let hist = merged
            .hists
            .iter()
            .find(|(name, _)| *name == "t.absorb.hist")
            .map(|(_, h)| h)
            .expect("merged histogram present");
        assert_eq!(hist.count, 2);
        // Absorbing into a disabled thread is a silent no-op, never a
        // panic (the worker may outlive the coordinator's collection).
        absorb(Trace::default());
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        enable();
        let _ = drain();
        counter("t.sat", u64::MAX - 1);
        counter("t.sat", 5);
        counter("t.sat", u64::MAX);
        let trace = drain();
        disable();
        assert_eq!(trace.counter("t.sat"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_and_summary_stats() {
        assert_eq!(Hist::bucket_of(0), 0);
        assert_eq!(Hist::bucket_of(1), 1);
        assert_eq!(Hist::bucket_of(2), 2);
        assert_eq!(Hist::bucket_of(3), 2);
        assert_eq!(Hist::bucket_of(4), 3);
        assert_eq!(Hist::bucket_of(u64::MAX), 64);
        assert_eq!(Hist::bucket_floor(0), 0);
        assert_eq!(Hist::bucket_floor(1), 1);
        assert_eq!(Hist::bucket_floor(5), 16);
        enable();
        let _ = drain();
        for v in [0u64, 1, 3, 3, 9] {
            observe("t.hist", v);
        }
        let trace = drain();
        disable();
        assert_eq!(trace.hists.len(), 1);
        let (name, h) = &trace.hists[0];
        assert_eq!(*name, "t.hist");
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 16);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 9);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (2, 2), (4, 1)]);
    }

    #[test]
    fn quantile_is_exact_on_known_distributions() {
        // Point mass: every quantile is the single observed value.
        let mut mass = Hist::default();
        for _ in 0..1000 {
            mass.record(42);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(mass.quantile(q), 42);
        }
        // Two adjacent log2 buckets, exact nearest-rank answers.
        let mut small = Hist::default();
        for v in [4u64, 5, 6, 7, 8, 9, 10, 15] {
            small.record(v);
        }
        assert_eq!(small.quantile(0.5), 7);
        assert_eq!(small.quantile(0.9), 15);
        assert_eq!(small.quantile(0.99), 15);
        // Uniform 1..=1024: interpolation inside a full bucket recovers
        // the exact nearest-rank value.
        let mut uniform = Hist::default();
        for v in 1..=1024u64 {
            uniform.record(v);
        }
        assert_eq!(uniform.quantile(0.5), 512);
        assert_eq!(uniform.quantile(0.99), 1014);
        assert_eq!(uniform.quantile(1.0), 1024);
        // Monotone in q, clamped to [min, max].
        let mut prev = 0;
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = uniform.quantile(q);
            assert!(v >= prev, "quantiles are monotone");
            assert!((uniform.min..=uniform.max).contains(&v));
            prev = v;
        }
        assert_eq!(Hist::default().quantile(0.5), 0);
        // Degenerate q: NaN and negatives report the minimum quantile,
        // q > 1.0 reports the maximum — never a garbage rank.
        assert_eq!(uniform.quantile(f64::NAN), uniform.quantile(0.0));
        assert_eq!(uniform.quantile(-0.5), uniform.quantile(0.0));
        assert_eq!(uniform.quantile(f64::NEG_INFINITY), uniform.quantile(0.0));
        assert_eq!(uniform.quantile(1.5), 1024);
        assert_eq!(uniform.quantile(f64::INFINITY), 1024);
        assert_eq!(mass.quantile(f64::NAN), 42);
    }

    #[test]
    fn disabled_collector_records_nothing() {
        disable();
        let _ = drain();
        {
            let _g = span!("t.off");
            counter("t.off", 1);
            observe("t.off", 1);
        }
        assert!(drain().is_empty());
    }

    #[test]
    fn drain_mid_span_leaves_guard_inert() {
        enable();
        let _ = drain();
        let g = span!("t.orphan");
        let first = drain();
        assert!(first.spans.is_empty(), "span still open at drain");
        drop(g); // must not panic or record anything
        assert!(drain().spans.is_empty());
        disable();
    }
}
