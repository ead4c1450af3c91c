//! Property tests for the trace wire codec in `merlin_trace::wire`.
//!
//! The wire format exists to carry collected traces across the worker
//! *process* boundary (subprocess shards), so the property that matters
//! is lossless round-tripping:
//! whatever a worker encodes, the parent must decode back bit-for-bit.
//! Histograms are the risky record (65 sparse buckets, saturating
//! tallies, sentinel min on empty), so they get the heaviest generation.
//!
//! The vendored proptest shim supports int-range strategies, tuples,
//! `Just` and `collection::vec` only — no `option::of`, no filters.

use merlin_trace::wire::{decode, encode};
use merlin_trace::{Hist, Trace};
use proptest::prelude::*;

fn hist_from(values: &[u64]) -> Hist {
    let mut h = Hist::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    #[test]
    fn histograms_round_trip_through_trace_wire(
        raw in prop::collection::vec(0u64..1_000_000, 1..40),
        shifts in prop::collection::vec(0u64..64, 1..10),
    ) {
        // `raw` exercises the low buckets densely; `shifts` plants one
        // observation in an arbitrary power-of-two bucket so the whole
        // 65-bucket range (including bucket 64) is reachable.
        let mut values = raw.clone();
        values.extend(shifts.iter().map(|&s| 1u64 << s));
        let trace = Trace {
            spans: vec![],
            counters: vec![("t.wireprop.count", values.len() as u64)],
            hists: vec![("t.wireprop.hist", hist_from(&values))],
        };
        let text = encode(&trace);
        let decoded = decode(&text).expect("encoded trace decodes");
        prop_assert_eq!(decoded, trace);
    }

    #[test]
    fn empty_and_zero_heavy_histograms_round_trip(
        zeros in 0usize..20,
        tail in prop::collection::vec(0u64..8, 1..10),
    ) {
        // Bucket 0 (exact zeros) plus tiny values straddling the first
        // few buckets — the region where `min` sentinel handling and the
        // `-` empty-bucket marker interact.
        let mut values = vec![0u64; zeros];
        values.extend(&tail);
        let trace = Trace {
            spans: vec![],
            counters: vec![],
            hists: vec![("t.wireprop.zeros", hist_from(&values))],
        };
        let decoded = decode(&encode(&trace)).expect("decodes");
        prop_assert_eq!(decoded, trace);
    }
}
