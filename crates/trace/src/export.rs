//! The two file sinks: newline-delimited JSON events and Chrome
//! trace-event JSON.
//!
//! Both are written with a small hand-rolled emitter (the workspace is
//! dependency-free); the root package's `trace_export_json` test parses
//! both with the workspace's JSON parser (`merlin_server::json`).
//!
//! The Chrome format is the [trace-event format] consumed by
//! `chrome://tracing` and <https://ui.perfetto.dev>: a top-level
//! `{"traceEvents": [...]}` object whose entries carry `name`, `ph`
//! (phase), `ts` (microseconds), `pid`, and `tid`. Spans are emitted as
//! complete events (`"ph":"X"` with `dur`), counters as counter events
//! (`"ph":"C"`), and stream labels as metadata events (`"ph":"M"`).
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::fmt::Write as _;

use crate::TraceSet;

/// Escape a string for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

/// Fixed-point nanoseconds → microseconds with 3 decimal places (the
/// trace-event `ts`/`dur` unit), avoiding float formatting entirely.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render a [`TraceSet`] as one JSON object per line.
///
/// Event shapes:
///
/// ```text
/// {"type":"span","tid":0,"name":...,"ts_ns":...,"dur_ns":...,"self_ns":...,"depth":...[,"arg":...]}
/// {"type":"counter","tid":0,"name":...,"value":...}
/// {"type":"hist","tid":0,"name":...,"count":...,"sum":...,"min":...,"max":...,"buckets":[[idx,count],...]}
/// ```
pub fn jsonl(set: &TraceSet) -> String {
    let mut out = String::new();
    for stream in &set.streams {
        let tid = stream.tid;
        let _ = writeln!(
            out,
            "{{\"type\":\"stream\",\"tid\":{tid},\"label\":\"{}\"}}",
            escape_json(&stream.label)
        );
        for span in &stream.trace.spans {
            let _ = write!(
                out,
                "{{\"type\":\"span\",\"tid\":{tid},\"name\":\"{}\",\"ts_ns\":{},\"dur_ns\":{},\"self_ns\":{},\"depth\":{}",
                escape_json(span.name),
                span.start_ns,
                span.dur_ns,
                span.self_ns,
                span.depth
            );
            if let Some(arg) = span.arg {
                let _ = write!(out, ",\"arg\":{arg}");
            }
            out.push_str("}\n");
        }
        for &(name, value) in &stream.trace.counters {
            let _ = writeln!(
                out,
                "{{\"type\":\"counter\",\"tid\":{tid},\"name\":\"{}\",\"value\":{value}}}",
                escape_json(name)
            );
        }
        for (name, h) in &stream.trace.hists {
            let buckets: Vec<String> = h
                .nonzero_buckets()
                .into_iter()
                .map(|(i, c)| format!("[{i},{c}]"))
                .collect();
            let _ = writeln!(
                out,
                "{{\"type\":\"hist\",\"tid\":{tid},\"name\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
                escape_json(name),
                h.count,
                h.sum,
                if h.count == 0 { 0 } else { h.min },
                h.max,
                buckets.join(",")
            );
        }
    }
    out
}

/// Render a [`TraceSet`] as Chrome trace-event JSON.
///
/// The output loads directly in `chrome://tracing` or Perfetto: each stream
/// becomes a named thread (`pid` is always 1), each span a `"ph":"X"`
/// complete event, and each counter one `"ph":"C"` sample holding the
/// stream's final total.
pub fn chrome_trace(set: &TraceSet) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":0,\
         \"args\":{\"name\":\"merlin\"}}"
            .to_owned(),
    );
    for stream in &set.streams {
        let tid = stream.tid;
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            escape_json(&stream.label)
        ));
        let mut last_ts = 0u64;
        for span in &stream.trace.spans {
            last_ts = last_ts.max(span.start_ns.saturating_add(span.dur_ns));
            let mut ev = format!(
                "{{\"name\":\"{}\",\"cat\":\"merlin\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{tid}",
                escape_json(span.name),
                fmt_us(span.start_ns),
                fmt_us(span.dur_ns)
            );
            if let Some(arg) = span.arg {
                let _ = write!(ev, ",\"args\":{{\"arg\":{arg}}}");
            }
            ev.push('}');
            events.push(ev);
        }
        for &(name, value) in &stream.trace.counters {
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"merlin\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"tid\":{tid},\"args\":{{\"value\":{value}}}}}",
                escape_json(name),
                fmt_us(last_ts)
            ));
        }
    }
    let mut out = String::from("{\"traceEvents\":[\n");
    out.push_str(&events.join(",\n"));
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Hist, SpanEvent, Trace};

    fn sample_set() -> TraceSet {
        let mut h = Hist::default();
        h.record(3);
        h.record(300);
        let mut set = TraceSet::single(
            "main \"quoted\"",
            Trace {
                spans: vec![
                    SpanEvent {
                        name: "a.b",
                        arg: Some(4),
                        start_ns: 1_500,
                        dur_ns: 2_000,
                        self_ns: 1_000,
                        depth: 0,
                    },
                    SpanEvent {
                        name: "a.c",
                        arg: None,
                        start_ns: 2_000,
                        dur_ns: 500,
                        self_ns: 500,
                        depth: 1,
                    },
                ],
                counters: vec![("k.hits", 7)],
                hists: vec![("k.sizes", h)],
            },
        );
        set.push(3, "worker-2", Trace::default());
        set
    }

    #[test]
    fn jsonl_has_one_line_per_record() {
        let out = jsonl(&sample_set());
        assert_eq!(out.lines().count(), 6);
        assert!(out.contains("\"type\":\"span\""));
        assert!(out.contains("\"arg\":4"));
        assert!(out.contains("\"buckets\":[[2,1],[9,1]]"), "{out}");
    }

    #[test]
    fn chrome_export_has_required_fields() {
        let out = chrome_trace(&sample_set());
        // Required trace-event fields on every event line.
        for line in out.lines().filter(|l| l.contains("\"name\"")) {
            assert!(line.contains("\"ph\":"), "missing ph: {line}");
            assert!(line.contains("\"ts\":"), "missing ts: {line}");
            assert!(line.contains("\"pid\":"), "missing pid: {line}");
            assert!(line.contains("\"tid\":"), "missing tid: {line}");
        }
        // Spans are complete events with µs fixed-point timestamps.
        assert!(
            out.contains("\"ph\":\"X\",\"ts\":1.500,\"dur\":2.000"),
            "{out}"
        );
        // Counters ride along as counter events.
        assert!(out.contains("\"ph\":\"C\""));
        // Stream labels with quotes survive escaping.
        assert!(out.contains("main \\\"quoted\\\""));
    }
}
