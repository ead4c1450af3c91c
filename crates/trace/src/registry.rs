//! Process-wide metrics registry: sharded atomics threads publish into
//! without draining.
//!
//! The thread-local tracer ([`crate::counter`] / [`crate::observe`]) is
//! built for *batch* observability: collect per thread, drain at join,
//! merge into a [`crate::TraceSet`]. A long-running daemon needs the
//! opposite shape — metrics that any thread can bump at any time and that
//! an observer can snapshot at any time, without stopping the world or
//! stealing the values out of the hot path. This module provides that
//! plane and leaves the span/drain path completely untouched.
//!
//! # Design
//!
//! - **One load when dormant.** Every publish method starts with a single
//!   relaxed load of a process-global [`AtomicBool`] and returns if no
//!   exporter has called [`set_active`]. A binary that never activates the
//!   registry (the batch CLI, for example) pays one predictable branch per
//!   call site, mirroring the tracer's `ENABLED_THREADS` fast path.
//! - **Sharded counters.** Counter and histogram tallies are split across
//!   [`SHARDS`] cache-line-padded atomics; each thread is assigned a shard
//!   round-robin on first use, so concurrent workers do not bounce one hot
//!   cacheline. Snapshots sum the shards (saturating).
//! - **Register-or-get handles.** [`counter`] / [`gauge`] / [`histogram`]
//!   intern the metric under its `&'static str` name behind a mutex (cold
//!   path, startup only) and hand back a cheap `Arc` handle for the hot
//!   path.
//! - **Lock-free snapshots.** [`snapshot`] reads every cell with relaxed
//!   loads. Under concurrent publishing a histogram's bucket total may
//!   momentarily trail its count; the exposition encoder pins the `+Inf`
//!   bucket to the count so the cumulative series stays consistent.
//!
//! Values are exposed in Prometheus-style text format by [`expose`]:
//! dotted merlin names are mangled (`server.metrics.queue` →
//! `merlin_server_metrics_queue`), each metric gets a `# TYPE` line, and
//! histogram buckets are emitted as the cumulative `le` series derived
//! from the log2 bins. Output is deterministically sorted.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{Hist, HIST_BUCKETS};

/// Number of per-metric tally shards. Snapshot cost is `O(SHARDS)` per
/// metric, so this stays small; eight distinct cachelines is already
/// enough to keep a handful of worker threads from colliding.
pub const SHARDS: usize = 8;

/// Process-global activation flag; see [`set_active`].
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Round-robin shard assignment for threads (first publish picks one).
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Turn the registry on or off process-wide. Off (the default) makes every
/// publish a single relaxed load and an early return; nothing is recorded.
/// The server flips this on before accepting connections.
pub fn set_active(on: bool) {
    ACTIVE.store(on, Ordering::Relaxed);
}

/// Whether some exporter has activated the registry.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

#[inline]
fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
            s.set(v);
            v
        }
    })
}

/// One `u64` tally on its own cacheline so shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

struct CounterCell {
    shards: [PaddedU64; SHARDS],
}

impl CounterCell {
    fn new() -> Self {
        CounterCell {
            shards: Default::default(),
        }
    }

    fn add(&self, delta: u64) {
        self.shards[shard_index()]
            .0
            .fetch_add(delta, Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.shards.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.0.load(Ordering::Relaxed))
        })
    }
}

struct HistCell {
    counts: [PaddedU64; SHARDS],
    sums: [PaddedU64; SHARDS],
    /// Initialised to `u64::MAX`, like [`Hist::min`] on an empty hist.
    min: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            counts: Default::default(),
            sums: Default::default(),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    fn record(&self, value: u64) {
        let shard = shard_index();
        self.counts[shard].0.fetch_add(1, Ordering::Relaxed);
        self.sums[shard].0.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[Hist::bucket_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    fn read(&self) -> Hist {
        let mut h = Hist::default();
        for shard in 0..SHARDS {
            h.count = h
                .count
                .saturating_add(self.counts[shard].0.load(Ordering::Relaxed));
            h.sum = h
                .sum
                .saturating_add(self.sums[shard].0.load(Ordering::Relaxed));
        }
        if h.count > 0 {
            h.min = self.min.load(Ordering::Relaxed);
            h.max = self.max.load(Ordering::Relaxed);
        }
        for (slot, bucket) in h.buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        h
    }
}

/// Handle to a registered counter; cheap to clone, safe to share.
#[derive(Clone)]
pub struct Counter(Arc<CounterCell>);

impl Counter {
    /// Add `delta`. One relaxed load and a return when the registry is
    /// dormant.
    #[inline]
    pub fn add(&self, delta: u64) {
        if !is_active() {
            return;
        }
        self.0.add(delta);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across shards (reads even when dormant).
    pub fn total(&self) -> u64 {
        self.0.total()
    }
}

/// Handle to a registered gauge: a single last-writer-wins value.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Set the gauge. One relaxed load and a return when dormant.
    #[inline]
    pub fn set(&self, value: u64) {
        if !is_active() {
            return;
        }
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Handle to a registered log2 histogram.
#[derive(Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Record one observation. One relaxed load and a return when dormant.
    #[inline]
    pub fn observe(&self, value: u64) {
        if !is_active() {
            return;
        }
        self.0.record(value);
    }

    /// Snapshot this histogram alone.
    pub fn read(&self) -> Hist {
        self.0.read()
    }
}

#[derive(Default)]
struct Maps {
    counters: BTreeMap<&'static str, Arc<CounterCell>>,
    gauges: BTreeMap<&'static str, Arc<AtomicU64>>,
    hists: BTreeMap<&'static str, Arc<HistCell>>,
}

fn maps() -> &'static Mutex<Maps> {
    static MAPS: OnceLock<Mutex<Maps>> = OnceLock::new();
    MAPS.get_or_init(|| Mutex::new(Maps::default()))
}

fn lock_maps() -> std::sync::MutexGuard<'static, Maps> {
    match maps().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Register (or fetch) the counter with this name. Cold path: takes the
/// registry mutex. Call once at startup and keep the handle.
pub fn counter(name: &'static str) -> Counter {
    let mut m = lock_maps();
    let cell = m
        .counters
        .entry(name)
        .or_insert_with(|| Arc::new(CounterCell::new()));
    Counter(Arc::clone(cell))
}

/// Register (or fetch) the gauge with this name.
pub fn gauge(name: &'static str) -> Gauge {
    let mut m = lock_maps();
    let cell = m
        .gauges
        .entry(name)
        .or_insert_with(|| Arc::new(AtomicU64::new(0)));
    Gauge(Arc::clone(cell))
}

/// Register (or fetch) the histogram with this name.
pub fn histogram(name: &'static str) -> Histogram {
    let mut m = lock_maps();
    let cell = m
        .hists
        .entry(name)
        .or_insert_with(|| Arc::new(HistCell::new()));
    Histogram(Arc::clone(cell))
}

/// A point-in-time copy of every registered metric, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, total)` pairs, ascending by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, ascending by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, hist)` pairs, ascending by name.
    pub hists: Vec<(String, Hist)>,
}

impl MetricsSnapshot {
    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Gauge value by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Histogram by name.
    pub fn hist(&self, name: &str) -> Option<&Hist> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }
}

/// Snapshot every registered metric. Cells are read with relaxed loads;
/// the caller sees a value no older than the call.
pub fn snapshot() -> MetricsSnapshot {
    let m = lock_maps();
    MetricsSnapshot {
        counters: m
            .counters
            .iter()
            .map(|(name, cell)| ((*name).to_owned(), cell.total()))
            .collect(),
        gauges: m
            .gauges
            .iter()
            .map(|(name, cell)| ((*name).to_owned(), cell.load(Ordering::Relaxed)))
            .collect(),
        hists: m
            .hists
            .iter()
            .map(|(name, cell)| ((*name).to_owned(), cell.read()))
            .collect(),
    }
}

/// Mangle a dotted merlin metric name into a Prometheus-compatible one:
/// `server.metrics.queue` → `merlin_server_metrics_queue`.
pub fn mangle(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("merlin_");
    for ch in name.chars() {
        out.push(if ch == '.' { '_' } else { ch });
    }
    out
}

/// Inclusive upper bound of log2 bucket `idx`, as the `le` label value.
fn bucket_le(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

/// Render a snapshot as Prometheus-style text exposition.
///
/// Counters and gauges are one sample line each under a `# TYPE` header.
/// Histograms expand the log2 bins into a cumulative `le` series (bucket
/// `k` ≥ 1 covers `[2^(k-1), 2^k)`, so its upper bound is `2^k - 1`),
/// emitted up to the highest non-empty bin, followed by the `+Inf` bucket
/// (pinned to the count so the series is consistent even if a snapshot
/// raced a publish), `_sum`, and `_count`. Output order is: counters,
/// gauges, histograms, each sorted by name.
pub fn expose(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snap.counters {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, value) in &snap.gauges {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, hist) in &snap.hists {
        let m = mangle(name);
        let _ = writeln!(out, "# TYPE {m} histogram");
        let highest = hist
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
            .min(HIST_BUCKETS);
        let mut cumulative = 0u64;
        for idx in 0..highest {
            cumulative = cumulative.saturating_add(hist.buckets[idx]);
            let le = bucket_le(idx);
            let _ = writeln!(out, "{m}_bucket{{le=\"{le}\"}} {cumulative}");
        }
        let _ = writeln!(out, "{m}_bucket{{le=\"+Inf\"}} {}", hist.count);
        let _ = writeln!(out, "{m}_sum {}", hist.sum);
        let _ = writeln!(out, "{m}_count {}", hist.count);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Registry activation is process-global; tests that toggle it or
    /// assert on dormant behaviour serialise here so the parallel test
    /// harness cannot interleave them.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        match GATE.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    #[test]
    fn dormant_registry_records_nothing() {
        let _g = guard();
        set_active(false);
        let c = counter("t.registry.dormant");
        let h = histogram("t.registry.dormant.hist");
        let g = gauge("t.registry.dormant.gauge");
        c.add(5);
        h.observe(7);
        g.set(9);
        assert_eq!(c.total(), 0);
        assert_eq!(h.read().count, 0);
        assert_eq!(g.get(), 0);
        set_active(true);
        c.inc();
        g.set(3);
        assert_eq!(c.total(), 1);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn concurrent_publishers_sum_across_shards() {
        let _g = guard();
        set_active(true);
        let c = counter("t.registry.conc.count");
        let h = histogram("t.registry.conc.hist");
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for v in 0..100u64 {
                        c.inc();
                        h.observe(v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("publisher thread");
        }
        assert_eq!(c.total(), 800);
        let hist = h.read();
        assert_eq!(hist.count, 800);
        assert_eq!(hist.min, 0);
        assert_eq!(hist.max, 99);
        assert_eq!(hist.sum, 8 * (99 * 100 / 2));
        assert_eq!(hist.buckets.iter().sum::<u64>(), 800);
        // Registering the same name again returns the same cell.
        assert_eq!(counter("t.registry.conc.count").total(), 800);
    }

    #[test]
    fn snapshot_is_sorted_and_indexed() {
        let _g = guard();
        set_active(true);
        counter("t.registry.snap.b").add(2);
        counter("t.registry.snap.a").add(1);
        gauge("t.registry.snap.g").set(7);
        histogram("t.registry.snap.h").observe(12);
        let snap = snapshot();
        let names: Vec<_> = snap.counters.iter().map(|(n, _)| n.clone()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        assert!(snap.counter("t.registry.snap.a") >= 1);
        assert!(snap.counter("t.registry.snap.b") >= 2);
        assert_eq!(snap.counter("t.registry.snap.missing"), 0);
        assert_eq!(snap.gauge("t.registry.snap.g"), 7);
        let h = snap.hist("t.registry.snap.h").expect("hist present");
        assert!(h.count >= 1);
    }

    #[test]
    fn exposition_format_is_pinned() {
        let mut h = Hist::default();
        for v in [0u64, 1, 3, 3, 9] {
            h.record(v);
        }
        let snap = MetricsSnapshot {
            counters: vec![("server.events.done".to_owned(), 30)],
            gauges: vec![("server.metrics.queue.depth".to_owned(), 4)],
            hists: vec![("server.metrics.queue".to_owned(), h)],
        };
        let text = expose(&snap);
        let expected = "\
# TYPE merlin_server_events_done counter
merlin_server_events_done 30
# TYPE merlin_server_metrics_queue_depth gauge
merlin_server_metrics_queue_depth 4
# TYPE merlin_server_metrics_queue histogram
merlin_server_metrics_queue_bucket{le=\"0\"} 1
merlin_server_metrics_queue_bucket{le=\"1\"} 2
merlin_server_metrics_queue_bucket{le=\"3\"} 4
merlin_server_metrics_queue_bucket{le=\"7\"} 4
merlin_server_metrics_queue_bucket{le=\"15\"} 5
merlin_server_metrics_queue_bucket{le=\"+Inf\"} 5
merlin_server_metrics_queue_sum 16
merlin_server_metrics_queue_count 5
";
        assert_eq!(text, expected);
    }

    #[test]
    fn empty_histogram_exposes_consistent_series() {
        let snap = MetricsSnapshot {
            counters: vec![],
            gauges: vec![],
            hists: vec![("server.metrics.service_ms".to_owned(), Hist::default())],
        };
        let text = expose(&snap);
        assert!(text.contains("merlin_server_metrics_service_ms_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("merlin_server_metrics_service_ms_count 0"));
        assert!(text.contains("merlin_server_metrics_service_ms_sum 0"));
    }

    #[test]
    fn bucket_le_matches_bucket_of_ranges() {
        for idx in 1..64usize {
            let le = bucket_le(idx);
            assert_eq!(Hist::bucket_of(le), idx, "upper bound stays in bucket");
            assert_eq!(Hist::bucket_of(le + 1), idx + 1, "next value leaves it");
        }
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(64), u64::MAX);
    }
}
