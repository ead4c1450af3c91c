//! Cross-thread behaviour of the collector: disabled threads record
//! nothing, guards moved between threads never panic, and worker streams
//! merge into a single trace set.

use merlin_trace::{drain, enable, span, TraceSet};

#[test]
fn disabled_threads_record_zero_events_everywhere() {
    // Nothing calls enable(): spawn workers that emit spans/counters and a
    // guard that crosses threads; every drain must come back empty and no
    // drop may panic.
    let guard_from_main = span!("cross.main");
    let handle = std::thread::spawn(move || {
        {
            let _g = span!("cross.worker");
            merlin_trace::counter("cross.counter", 1);
            merlin_trace::observe("cross.hist", 42);
        }
        drop(guard_from_main); // orphaned guard from another thread
        drain()
    });
    let worker_trace = handle.join().expect("worker thread panicked");
    assert!(worker_trace.is_empty(), "{worker_trace:?}");
    assert!(drain().is_empty());
}

#[test]
fn live_guard_dropped_on_another_thread_is_a_no_op() {
    enable();
    let _ = drain();
    let guard = span!("orphan.live");
    let handle = std::thread::spawn(move || {
        drop(guard); // token can't match this thread's (empty) stack
        drain()
    });
    let other = handle.join().expect("worker thread panicked");
    assert!(other.is_empty(), "{other:?}");
    // The span never closed on the owning thread either.
    assert!(drain().spans.is_empty());
    merlin_trace::disable();
}

#[test]
fn worker_streams_merge_by_id_with_shared_epoch() {
    enable(); // pins the epoch before workers start
    let _ = drain();
    let mut handles = Vec::new();
    for w in 0..3u32 {
        handles.push(std::thread::spawn(move || {
            enable();
            {
                let _g = span!("merge.work", w);
                merlin_trace::counter("merge.jobs", 1);
            }
            drain()
        }));
    }
    let mut set = TraceSet::single("supervisor", drain());
    for (w, h) in handles.into_iter().enumerate() {
        let trace = h.join().expect("worker thread panicked");
        assert_eq!(trace.spans.len(), 1);
        #[expect(clippy::cast_possible_truncation, reason = "three workers")]
        set.push(w as u32 + 1, &format!("worker-{w}"), trace);
    }
    assert_eq!(set.streams.len(), 4);
    assert_eq!(set.counter("merge.jobs"), 3);
    assert_eq!(set.total_spans(), 3);
    merlin_trace::disable();
}
