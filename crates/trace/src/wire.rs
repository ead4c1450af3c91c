//! A text wire format for shipping a [`Trace`] between processes.
//!
//! The process-isolated batch supervisor runs each shard in a worker
//! subprocess; a worker's collector lives in its own address space, so
//! the in-process merge path ([`crate::absorb`], [`crate::TraceSet`])
//! cannot see it. Instead a worker [`encode`]s its drained trace into a
//! small line-oriented file next to its journal segment, and the parent
//! [`decode`]s and merges the streams by shard id.
//!
//! The format is versioned, line-oriented UTF-8 — the same durability
//! conventions as the batch journal (a torn tail damages one line, not
//! the file):
//!
//! ```text
//! #merlin-trace-wire v1
//! counter supervisor.attempts 12
//! hist supervisor.backoff.ms count=3 sum=350 min=50 max=200 buckets=6:1,7:1,8:1
//! span supervisor.net arg=4 start=91042 dur=18773 self=18773 depth=0
//! ```
//!
//! Span timestamps are nanoseconds since the *emitting process's* trace
//! epoch; processes do not share an epoch, so decoded spans from
//! different workers line up only approximately. Counters and histograms
//! are exact.
//!
//! Event names decode as `&'static str` (the collector's key type) via a
//! process-wide intern table; the table grows by the set of *distinct*
//! names ever decoded, which is bounded by the workspace's trace-name
//! registry.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use crate::{Hist, SpanEvent, Trace, HIST_BUCKETS};

/// First line of every wire file; readers must refuse unknown versions.
pub const WIRE_HEADER: &str = "#merlin-trace-wire v1";

/// Why a wire file failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDecodeError {
    /// 1-based line number of the offending line (0 for file-level
    /// problems such as a missing header).
    pub line: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for WireDecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad trace wire line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for WireDecodeError {}

fn bad(line: usize, reason: impl Into<String>) -> WireDecodeError {
    WireDecodeError {
        line,
        reason: reason.into(),
    }
}

/// Interns a decoded name, returning the collector's `&'static str` key
/// type. Names are deduplicated process-wide; each distinct name leaks
/// one small allocation, bounded by the trace-name registry.
fn intern(name: &str) -> &'static str {
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = match table.lock() {
        Ok(guard) => guard,
        // The critical section cannot panic, but stay poison-tolerant:
        // the set is only ever grown, so inheriting it is safe.
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(&existing) = guard.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    guard.insert(leaked);
    leaked
}

/// Encodes a trace as wire text (header line included, trailing newline).
///
/// Event names must be whitespace-free — the workspace convention
/// (dotted identifiers, enforced by the trace-name registry audit); a
/// name with whitespace would not survive the round trip.
pub fn encode(trace: &Trace) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{WIRE_HEADER}");
    for (name, value) in &trace.counters {
        let _ = writeln!(s, "counter {name} {value}");
    }
    for (name, hist) in &trace.hists {
        let _ = write!(
            s,
            "hist {name} count={} sum={} min={} max={} buckets=",
            hist.count, hist.sum, hist.min, hist.max
        );
        let nonzero = hist.nonzero_buckets();
        if nonzero.is_empty() {
            s.push('-');
        } else {
            for (i, (bucket, count)) in nonzero.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{bucket}:{count}");
            }
        }
        s.push('\n');
    }
    for span in &trace.spans {
        let _ = write!(s, "span {} arg=", span.name);
        match span.arg {
            Some(arg) => {
                let _ = write!(s, "{arg}");
            }
            None => s.push('-'),
        }
        let _ = writeln!(
            s,
            " start={} dur={} self={} depth={}",
            span.start_ns, span.dur_ns, span.self_ns, span.depth
        );
    }
    s
}

fn kv<'a>(tok: Option<&'a str>, key: &str, line: usize) -> Result<&'a str, WireDecodeError> {
    let tok = tok.ok_or_else(|| bad(line, format!("missing field `{key}`")))?;
    tok.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| bad(line, format!("expected `{key}=...`, found `{tok}`")))
}

fn parse_u64(tok: &str, what: &str, line: usize) -> Result<u64, WireDecodeError> {
    tok.parse::<u64>()
        .map_err(|_| bad(line, format!("malformed {what} `{tok}`")))
}

fn decode_hist(
    fields: &mut std::str::SplitWhitespace<'_>,
    line: usize,
) -> Result<Hist, WireDecodeError> {
    let count = parse_u64(kv(fields.next(), "count", line)?, "count", line)?;
    let sum = parse_u64(kv(fields.next(), "sum", line)?, "sum", line)?;
    let min = parse_u64(kv(fields.next(), "min", line)?, "min", line)?;
    let max = parse_u64(kv(fields.next(), "max", line)?, "max", line)?;
    let buckets_tok = kv(fields.next(), "buckets", line)?;
    let mut buckets = [0u64; HIST_BUCKETS];
    if buckets_tok != "-" {
        for pair in buckets_tok.split(',') {
            let (idx_tok, count_tok) = pair
                .split_once(':')
                .ok_or_else(|| bad(line, format!("malformed bucket `{pair}`")))?;
            let idx = idx_tok
                .parse::<usize>()
                .ok()
                .filter(|&i| i < HIST_BUCKETS)
                .ok_or_else(|| bad(line, format!("bucket index `{idx_tok}` out of range")))?;
            buckets[idx] = parse_u64(count_tok, "bucket count", line)?;
        }
    }
    Ok(Hist {
        count,
        sum,
        min,
        max,
        buckets,
    })
}

/// Decodes wire text produced by [`encode`].
///
/// # Errors
///
/// A [`WireDecodeError`] naming the first malformed line. Unlike the
/// batch journal there is no torn-tail healing here: the file is written
/// in one shot at worker exit, so any damage means the whole capture is
/// suspect and the caller should drop the stream.
pub fn decode(text: &str) -> Result<Trace, WireDecodeError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, first)) if first == WIRE_HEADER => {}
        Some((_, first)) => {
            return Err(bad(1, format!("unknown header `{first}`")));
        }
        None => return Err(bad(0, "empty file")),
    }
    let mut trace = Trace::default();
    for (i, line) in lines {
        let lineno = i.saturating_add(1);
        let mut fields = line.split_whitespace();
        let Some(kind) = fields.next() else {
            continue; // blank line
        };
        match kind {
            "counter" => {
                let name = fields
                    .next()
                    .ok_or_else(|| bad(lineno, "counter missing name"))?;
                let value_tok = fields
                    .next()
                    .ok_or_else(|| bad(lineno, "counter missing value"))?;
                let value = parse_u64(value_tok, "counter value", lineno)?;
                trace.counters.push((intern(name), value));
            }
            "hist" => {
                let name = fields
                    .next()
                    .ok_or_else(|| bad(lineno, "hist missing name"))?;
                let hist = decode_hist(&mut fields, lineno)?;
                trace.hists.push((intern(name), hist));
            }
            "span" => {
                let name = fields
                    .next()
                    .ok_or_else(|| bad(lineno, "span missing name"))?;
                let arg_tok = kv(fields.next(), "arg", lineno)?;
                let arg = if arg_tok == "-" {
                    None
                } else {
                    Some(parse_u64(arg_tok, "arg", lineno)?)
                };
                let start_ns = parse_u64(kv(fields.next(), "start", lineno)?, "start", lineno)?;
                let dur_ns = parse_u64(kv(fields.next(), "dur", lineno)?, "dur", lineno)?;
                let self_ns = parse_u64(kv(fields.next(), "self", lineno)?, "self", lineno)?;
                let depth_tok = kv(fields.next(), "depth", lineno)?;
                let depth = depth_tok
                    .parse::<u16>()
                    .map_err(|_| bad(lineno, format!("malformed depth `{depth_tok}`")))?;
                trace.spans.push(SpanEvent {
                    name: intern(name),
                    arg,
                    start_ns,
                    dur_ns,
                    self_ns,
                    depth,
                });
            }
            other => return Err(bad(lineno, format!("unknown record kind `{other}`"))),
        }
        if let Some(extra) = fields.next() {
            return Err(bad(lineno, format!("trailing token `{extra}`")));
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        let mut hist = Hist::default();
        hist.record(0);
        hist.record(3);
        hist.record(200);
        Trace {
            spans: vec![
                SpanEvent {
                    name: "t.wire.span",
                    arg: Some(7),
                    start_ns: 1000,
                    dur_ns: 500,
                    self_ns: 400,
                    depth: 1,
                },
                SpanEvent {
                    name: "t.wire.root",
                    arg: None,
                    start_ns: 900,
                    dur_ns: 700,
                    self_ns: 200,
                    depth: 0,
                },
            ],
            counters: vec![("t.wire.count", 42), ("t.wire.other", u64::MAX)],
            hists: vec![("t.wire.hist", hist)],
        }
    }

    #[test]
    fn trace_round_trips() {
        let trace = sample();
        let decoded = decode(&encode(&trace)).expect("wire text decodes");
        assert_eq!(decoded, trace);
    }

    #[test]
    fn empty_trace_round_trips() {
        let decoded = decode(&encode(&Trace::default())).expect("header-only decodes");
        assert!(decoded.is_empty());
    }

    #[test]
    fn empty_histogram_round_trips() {
        let trace = Trace {
            hists: vec![("t.wire.empty", Hist::default())],
            ..Trace::default()
        };
        let decoded = decode(&encode(&trace)).expect("empty hist decodes");
        assert_eq!(decoded, trace);
    }

    #[test]
    fn interned_names_are_deduplicated() {
        let text = format!("{WIRE_HEADER}\ncounter t.wire.dedup 1\ncounter t.wire.dedup 2\n");
        let decoded = decode(&text).expect("decodes");
        assert_eq!(decoded.counters.len(), 2);
        assert!(std::ptr::eq(
            decoded.counters[0].0.as_ptr(),
            decoded.counters[1].0.as_ptr()
        ));
    }

    #[test]
    fn damage_is_rejected_not_healed() {
        assert!(decode("").is_err(), "empty file");
        assert!(decode("#wrong-header\n").is_err(), "unknown header");
        for line in [
            "counter",
            "counter name",
            "counter name x",
            "counter name 1 extra",
            "hist h count=1 sum=1 min=1 max=1 buckets=999:1",
            "hist h count=1 sum=1 min=1 max=1 buckets=0",
            "span s arg=- start=1 dur=1 self=1",
            "mystery record",
        ] {
            let text = format!("{WIRE_HEADER}\n{line}\n");
            assert!(decode(&text).is_err(), "`{line}` must not decode");
        }
    }

    #[test]
    fn torn_tail_is_an_error() {
        let full = encode(&sample());
        let cut = full.len() - 5;
        assert!(decode(&full[..cut]).is_err(), "torn tail must be rejected");
    }
}
