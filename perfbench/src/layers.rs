//! The traced run's bookkeeping: the benchmark's own spans around calls
//! into each crate, and the `merlin-trace` counters the program already
//! collects.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Counter totals by name.
pub type Counters = BTreeMap<String, u64>;

/// Span totals (time and call count) by layer name, plus counters.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    spans: BTreeMap<&'static str, (Duration, u64)>,
    pub counters: Counters,
}

impl Layers {
    /// Runs `f` inside the span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(name, start.elapsed());
        out
    }

    /// Records one call of `name` that took `took`.
    pub fn add(&mut self, name: &'static str, took: Duration) {
        let slot = self.spans.entry(name).or_default();
        slot.0 += took;
        slot.1 += 1;
    }

    /// Total milliseconds spent in `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Mean milliseconds per call of `name` (0 when never called).
    pub fn mean_ms(&self, name: &str) -> f64 {
        match self.spans.get(name) {
            Some((d, calls)) if *calls > 0 => d.as_secs_f64() * 1e3 / *calls as f64,
            _ => 0.0,
        }
    }

    /// Adds counter totals.
    pub fn add_counters<'a>(&mut self, counters: impl IntoIterator<Item = (&'a str, u64)>) {
        for (name, value) in counters {
            *self.counters.entry(name.to_owned()).or_default() += value;
        }
    }

    /// Folds another thread's spans and counters into this one.
    pub fn merge(&mut self, other: Layers) {
        for (name, (d, calls)) in other.spans {
            let slot = self.spans.entry(name).or_default();
            slot.0 += d;
            slot.1 += calls;
        }
        self.add_counters(other.counters.iter().map(|(k, v)| (k.as_str(), *v)));
    }

    /// The span table, one `name calls total_ms mean_ms` row per layer.
    pub fn render_spans(&self) -> String {
        let mut out = String::new();
        for (name, (d, calls)) in &self.spans {
            let total = d.as_secs_f64() * 1e3;
            out.push_str(&format!(
                "  {name:<24} calls {calls:>6}  total {total:>10.1} ms  mean {:>9.3} ms\n",
                total / (*calls).max(1) as f64
            ));
        }
        out
    }
}

/// Drains the calling thread's `merlin-trace` collector into counter
/// totals. Tracing must be enabled on this thread for anything to show.
pub fn drain_counters() -> Counters {
    merlin_trace::drain()
        .counters
        .into_iter()
        .map(|(name, value)| (name.to_owned(), value))
        .collect()
}

/// Keeps only the counters whose name starts with one of `prefixes`.
pub fn only(counters: &Counters, prefixes: &[&str]) -> Counters {
    counters
        .iter()
        .filter(|(k, _)| prefixes.iter().any(|p| k.starts_with(p)))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// The counter self-check: every name whose total differs between two
/// traced runs of the same inputs, as `name: a != b` lines. Counters
/// count work, so identical inputs must give identical totals.
pub fn counter_diff(a: &Counters, b: &Counters) -> Vec<String> {
    let mut names: Vec<&String> = a.keys().chain(b.keys()).collect();
    names.sort();
    names.dedup();
    names
        .into_iter()
        .filter_map(|name| {
            let (x, y) = (a.get(name).copied(), b.get(name).copied());
            (x != y).then(|| {
                let show = |v: Option<u64>| v.map_or("absent".to_owned(), |v| v.to_string());
                format!("{name}: {} != {}", show(x), show(y))
            })
        })
        .collect()
}

fn get(c: &Counters, name: &str) -> f64 {
    c.get(name).copied().unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics derived from the counters of `nets` solves.
pub fn counter_metrics(c: &Counters, nets: usize) -> Vec<(&'static str, f64)> {
    let hit = get(c, "core.cache.hit");
    let miss = get(c, "core.cache.miss");
    let prune_in = get(c, "curves.prune.in");
    let pruned = get(c, "curves.pruned");
    let predictive: u64 = c
        .iter()
        .filter(|(k, _)| k.starts_with("curves.prune.predictive."))
        .map(|(_, v)| *v)
        .sum();
    vec![
        ("core.cache.hit", hit),
        ("core.cache.miss", miss),
        ("core.cache.hit_ratio", ratio(hit, hit + miss)),
        ("core.gamma.points", get(c, "core.gamma.points")),
        ("curves.arena.steps", get(c, "curves.arena.steps")),
        (
            "core.parallel.steps.rebased",
            get(c, "core.parallel.steps.rebased"),
        ),
        ("curves.prune.calls", get(c, "curves.prune.calls")),
        ("curves.prune.in", prune_in),
        ("curves.pruned", pruned),
        (
            "curves.prune.keep_ratio",
            ratio(prune_in - pruned, prune_in),
        ),
        ("curves.prune.predictive", predictive as f64),
        (
            "core.merlin.loops",
            ratio(get(c, "core.merlin.iterations"), nets as f64),
        ),
        (
            "core.merlin.wasted_share",
            ratio(
                get(c, "core.merlin.rejected"),
                get(c, "core.merlin.iterations"),
            ),
        ),
        ("supervisor.attempts", get(c, "supervisor.attempts")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counters(pairs: &[(&str, u64)]) -> Counters {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn identical_counters_pass_the_self_check() {
        let a = counters(&[("curves.prune.in", 10), ("core.cache.hit", 3)]);
        assert!(counter_diff(&a, &a.clone()).is_empty());
    }

    #[test]
    fn changed_missing_and_extra_counters_are_all_reported() {
        let a = counters(&[("curves.prune.in", 10), ("core.cache.hit", 3)]);
        let b = counters(&[("curves.prune.in", 11), ("core.cache.miss", 1)]);
        assert_eq!(
            counter_diff(&a, &b),
            vec![
                "core.cache.hit: 3 != absent".to_owned(),
                "core.cache.miss: absent != 1".to_owned(),
                "curves.prune.in: 10 != 11".to_owned(),
            ]
        );
    }

    #[test]
    fn prefix_filter_keeps_solver_counters_only() {
        let c = counters(&[
            ("curves.pruned", 1),
            ("supervisor.attempts", 2),
            ("core.cache.hit", 3),
        ]);
        assert_eq!(
            only(&c, &["core.", "curves."]),
            counters(&[("core.cache.hit", 3), ("curves.pruned", 1)])
        );
    }

    #[test]
    fn derived_ratios_follow_their_definitions() {
        let c = counters(&[
            ("core.cache.hit", 3),
            ("core.cache.miss", 1),
            ("curves.prune.in", 10),
            ("curves.pruned", 4),
            ("curves.prune.predictive.merge", 2),
            ("curves.prune.predictive.extend", 5),
            ("core.merlin.iterations", 4),
            ("core.merlin.rejected", 1),
        ]);
        let m: BTreeMap<_, _> = counter_metrics(&c, 2).into_iter().collect();
        assert_eq!(m["core.cache.hit_ratio"], 0.75);
        assert_eq!(m["curves.prune.keep_ratio"], 0.6);
        assert_eq!(m["curves.prune.predictive"], 7.0);
        assert_eq!(m["core.merlin.loops"], 2.0);
        assert_eq!(m["core.merlin.wasted_share"], 0.25);
        assert_eq!(
            counter_metrics(&Counters::new(), 0)[2],
            ("core.cache.hit_ratio", 0.0)
        );
    }

    #[test]
    fn spans_accumulate_calls_and_time() {
        let mut l = Layers::default();
        l.add("x", Duration::from_millis(2));
        l.add("x", Duration::from_millis(4));
        assert_eq!(l.total_ms("x"), 6.0);
        assert_eq!(l.mean_ms("x"), 3.0);
        assert_eq!(l.mean_ms("y"), 0.0);
        let mut other = Layers::default();
        other.add("x", Duration::from_millis(6));
        l.merge(other);
        assert_eq!(l.mean_ms("x"), 4.0);
    }
}
