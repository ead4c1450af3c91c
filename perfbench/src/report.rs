//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! line.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("nets_per_s", "1/s"),
    ("solve_ms_p50", "ms"),
    ("proc_nets_per_s", "1/s"),
    ("submit_ms_p50", "ms"),
    ("merlin_share", "share"),
    ("req_ps_mean", "ps"),
    ("buffer_area_mean", "lambda2"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.gen_ms", "ms"),
    ("netlist.io_ms", "ms"),
    ("order.tsp_ms", "ms"),
    ("core.construct_ms", "ms"),
    ("core.merlin_ms", "ms"),
    ("core.merlin.loops", "count"),
    ("core.merlin.wasted_share", "share"),
    ("core.extract_ms", "ms"),
    ("tech.evaluate_ms", "ms"),
    ("core.cache.hit", "count"),
    ("core.cache.miss", "count"),
    ("core.cache.hit_ratio", "share"),
    ("core.gamma.points", "count"),
    ("curves.arena.steps", "count"),
    ("core.parallel.steps.rebased", "count"),
    ("core.par2.solve_ms", "ms"),
    ("core.par2.speedup", "ratio"),
    ("core.par2.cache.hit_ratio", "share"),
    ("core.par2.prune.in", "count"),
    ("curves.prune.calls", "count"),
    ("curves.prune.in", "count"),
    ("curves.pruned", "count"),
    ("curves.prune.keep_ratio", "share"),
    ("curves.prune.predictive", "count"),
    ("resilience.solve_ms", "ms"),
    ("supervisor.attempts", "count"),
    ("supervisor.journal_ms", "ms"),
    ("supervisor.overhead_share", "share"),
    ("supervisor.proc_overhead_ms", "ms"),
    ("server.submit_ms_p80", "ms"),
    ("server.admit_ms_p50", "ms"),
    ("server.queue_wait_ms_p50", "ms"),
    ("server.queue_wait_ms_p80", "ms"),
    ("server.service_ms_p50", "ms"),
    ("server.service_ms_p80", "ms"),
    ("server.shed", "count"),
    ("server.rejected", "count"),
    ("gen.lag_ms_max", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
];

/// What one run measured and whether its outputs checked out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (net solves, jobs) attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed the output check.
    pub failed: u64,
    /// Every failed check, one line each. Non-empty means `correct:
    /// false` and a non-zero exit.
    pub problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records several metric values.
    pub fn set_all(&mut self, values: impl IntoIterator<Item = (&'static str, f64)>) {
        self.values.extend(values);
    }

    /// Sets every per-layer metric the workload left unset to 0: the
    /// layer did no work in this workload.
    pub fn zero_unexercised(&mut self) {
        for &(name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// `name value unit` rows for a catalogue, for the human-readable
    /// tables.
    pub fn render(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for &(name, unit) in catalogue {
            if let Some(v) = self.values.get(name) {
                out.push_str(&format!("  {name:<30} {v:>16.6} {unit}\n"));
            }
        }
        out
    }

    /// Records a failed check.
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records a per-operation check: counts the operation and, on
    /// failure, the failure and why.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            self.problems.push(why);
        }
    }

    /// Renders the result line for the traced (`per_layer`) or untraced
    /// (`end_to_end`) catalogue and says whether the run is correct. A
    /// catalogue metric the workload did not set, or a value that is not
    /// finite, is itself a failed check.
    pub fn finish(&mut self, traced: bool) -> (String, bool) {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems
                        .push(format!("metric {name} is not finite ({v})"));
                    0.0
                }
                None => {
                    self.problems
                        .push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        let correct = self.problems.is_empty();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        (line, correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
    /// plain string scanning (the file is small and regular).
    fn section(json: &str, key: &str, next: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let end = json[start..]
            .find(&format!("\"{next}\""))
            .map_or(json.len(), |e| start + e);
        let body = &json[start..end];
        let field = |entry: &str, name: &str| {
            let at = entry
                .find(&format!("\"{name}\": \""))
                .expect("field present")
                + name.len()
                + 5;
            entry[at..at + entry[at..].find('"').expect("closing quote")].to_owned()
        };
        body.split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn pairs(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        assert_eq!(section(&json, "end_to_end", "per_layer"), pairs(END_TO_END));
        assert_eq!(section(&json, "per_layer", "\u{0}"), pairs(PER_LAYER));
    }

    #[test]
    fn result_line_lists_the_whole_catalogue_or_fails() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.check(Ok(()));
        let (line, correct) = out.finish(false);
        assert!(correct);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));

        let mut partial = Outcome::default();
        partial.set("setup_s", f64::INFINITY);
        partial.check(Err("bad tree".to_owned()));
        let (line, correct) = partial.finish(false);
        assert_eq!(partial.problems.len(), 1 + END_TO_END.len());
        assert!(!correct);
        assert!(line.contains("\"failed\": 1"));
    }
}
