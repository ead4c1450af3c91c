//! The trace file sinks write valid JSON: every `export::jsonl` line and
//! the whole `export::chrome_trace` document parse with the workspace's
//! JSON parser, `merlin_server::json`.

use merlin_server::json::{parse, Json};
use merlin_trace::{export, Hist, SpanEvent, Trace, TraceSet};

/// Two streams covering every record type: spans with and without an
/// argument, a counter, a histogram, and a label that needs escaping.
fn sample_set() -> TraceSet {
    let mut hist = Hist::default();
    hist.record(3);
    hist.record(300);
    let span = |name, arg, start_ns, depth| SpanEvent {
        name,
        arg,
        start_ns,
        dur_ns: 2_000,
        self_ns: 1_000,
        depth,
    };
    let mut set = TraceSet::single(
        "main \"quoted\"\n",
        Trace {
            spans: vec![span("a.b", Some(4), 1_500, 0), span("a.c", None, 0, 1)],
            counters: vec![("k.hits", 7)],
            hists: vec![("k.sizes", hist)],
        },
    );
    set.push(3, "worker-2", Trace::default());
    set
}

#[test]
fn every_jsonl_line_parses() {
    let out = export::jsonl(&sample_set());
    let types: Vec<String> = out
        .lines()
        .map(|line| {
            let value = parse(line).unwrap_or_else(|e| panic!("invalid JSONL line {line}: {e}"));
            value
                .get("type")
                .and_then(Json::as_str)
                .expect("every record names its type")
                .to_owned()
        })
        .collect();
    assert_eq!(
        types,
        ["stream", "span", "span", "counter", "hist", "stream"]
    );
}

#[test]
fn chrome_trace_parses_with_the_required_fields_on_every_event() {
    let out = export::chrome_trace(&sample_set());
    let doc = parse(&out).unwrap_or_else(|e| panic!("invalid chrome trace: {e}\n{out}"));
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("no traceEvents array in {out}");
    };
    for event in events {
        for field in ["name", "ph", "ts", "pid", "tid"] {
            assert!(
                event.get(field).is_some(),
                "event without `{field}`: {event:?}"
            );
        }
    }
    let label = events
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
        .find_map(|e| e.get("args")?.get("name")?.as_str());
    assert_eq!(label, Some("main \"quoted\"\n"), "labels survive escaping");
}
