#!/usr/bin/env bash
# Tier-1 verification gate: formatting, clippy, the workspace invariant
# auditor, and the test suite with the runtime DP invariant checkers
# compiled in. CI and pre-merge runs should call exactly this script.
#
# Usage: scripts/check.sh [--fix] [--stage <name>] [--list]
#   --fix           apply rustfmt instead of checking
#   --stage <name>  run a single stage (repeatable); see --list
#   --list          print the stage names in run order and exit
#
# Each stage builds what it needs, so `--stage parallel` works from a
# cold target/ directory — at the cost of a cargo no-op check when the
# artifacts are already fresh.
set -euo pipefail
cd "$(dirname "$0")/.."

STAGES="fmt clippy audit tests release-tests chaos supervisor-chaos proc-chaos trace parallel perfbench server-chaos telemetry"

FIX=0
ONLY=()
while [ $# -gt 0 ]; do
  case "$1" in
    --fix) FIX=1 ;;
    --list)
      for s in $STAGES; do echo "$s"; done
      exit 0
      ;;
    --stage)
      shift
      STAGE_ARG="${1:-}"
      case " $STAGES " in
        *" $STAGE_ARG "*) ONLY+=("$STAGE_ARG") ;;
        *)
          echo "check.sh: unknown stage '$STAGE_ARG' (try --list)" >&2
          exit 2
          ;;
      esac
      ;;
    *)
      echo "check.sh: unknown argument '$1'" >&2
      echo "usage: scripts/check.sh [--fix] [--stage <name>] [--list]" >&2
      exit 2
      ;;
  esac
  shift
done

SUPTMP="$(mktemp -d)"
trap 'rm -rf "$SUPTMP"' EXIT

stage_fmt() {
  if [ "$FIX" -eq 1 ]; then
    cargo fmt --all
  else
    echo "== rustfmt =="
    cargo fmt --all -- --check
  fi
}

stage_clippy() {
  echo "== clippy =="
  # Every warning is denied: the default lints, the DP crates'
  # [workspace.lints] (unwrap, panic, lossy casts, missing docs) and the
  # root clippy.toml's disallowed methods and types. A sanctioned site
  # carries #[expect(<lint>, reason = "...")]. --all-features also checks
  # the fault-inject and invariant-checks code.
  cargo clippy --workspace --all-targets --all-features -- -D warnings
}

stage_audit() {
  echo "== merlin-audit (rule tests, workspace scan) =="
  # The auditor's own suite first (lexer proptests + seeded-violation
  # corpus), then the real scan with a runtime budget: the token engine
  # scans the workspace in well under a second, so blowing 10 s means
  # something is catastrophically wrong with it.
  cargo test -q -p merlin-audit
  cargo run -q -p merlin-audit -- --max-runtime-ms 10000
}

stage_tests() {
  echo "== tests (debug: invariant checkers on via debug_assertions) =="
  cargo test --workspace -q
}

stage_release_tests() {
  echo "== tests (release + --features invariant-checks) =="
  cargo test --release --features invariant-checks -q
}

stage_chaos() {
  echo "== chaos tests (fault-injection sites armed) =="
  cargo test -q --features fault-inject -p merlin-resilience
  cargo test -q --features fault-inject -p merlin-supervisor
}

stage_supervisor_chaos() {
  echo "== supervisor-chaos (batch + kill + resume, zero lost nets) =="
  # A 200-net batch under fault injection, aborted mid-run by the
  # crash-after chaos hook (a real std::process::abort after the Nth
  # fsync'd journal commit), then resumed. The resumed report must account
  # for every net: the grep for "lost: 0" is the gate, and "served: 200"
  # holds because injected panics degrade down the ladder instead of
  # failing nets outright.
  cargo build -q --features fault-inject --bin merlin_cli
  set +e
  target/debug/merlin_cli batch --gen 200 --sinks 4 --seed 7 --jobs 2 \
    --work-limit 200000 --chaos flows.flow3.run:panic:3 --crash-after 60 \
    --journal "$SUPTMP/run.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/report.txt" 2>/dev/null
  CRASH_STATUS=$?
  set -e
  if [ "$CRASH_STATUS" -eq 0 ]; then
    echo "supervisor-chaos: expected the crash-after abort, got a clean exit" >&2
    exit 1
  fi
  target/debug/merlin_cli resume --gen 200 --sinks 4 --seed 7 --jobs 2 \
    --work-limit 200000 --chaos flows.flow3.run:panic:3 \
    --journal "$SUPTMP/run.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/report.txt"
  grep -q "^nets: 200 served: 200 .* lost: 0$" "$SUPTMP/report.txt" || {
    echo "supervisor-chaos: resumed report lost nets:" >&2
    head -3 "$SUPTMP/report.txt" >&2
    exit 1
  }
}

stage_proc_chaos() {
  echo "== proc-chaos (sharded workers + SIGKILL + parent crash + reshard resume) =="
  # The process-isolation gauntlet. Reference first: the same 200-net
  # population, uninterrupted, single-process thread mode. Then the chaotic
  # run: 4 worker subprocesses where every worker incarnation tears its
  # 20th journal commit mid-fsync and aborts (supervisor.proc.commit chaos),
  # one worker generation is SIGKILL'd from outside mid-batch, and the
  # *parent* aborts after observing 120 commits (--crash-after). Resuming
  # under a different shard count must account for every net exactly once
  # and render byte-identically to the reference.
  cargo build -q --features fault-inject --bin merlin_cli
  target/debug/merlin_cli batch --gen 200 --sinks 4 --seed 7 --jobs 2 \
    --work-limit 200000 \
    --journal "$SUPTMP/proc-ref.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/proc-ref.txt" 2>/dev/null
  set +e
  target/debug/merlin_cli batch --gen 200 --sinks 4 --seed 7 \
    --work-limit 200000 --isolation process --shards 4 \
    --chaos supervisor.proc.commit:empty:20 --crash-after 120 \
    --journal "$SUPTMP/proc.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/proc.txt" 2>/dev/null &
  PROC_PID=$!
  sleep 5
  # The bracket keeps the pattern from matching any shell whose argv
  # happens to contain this script's text (pkill -f matches full argv).
  pkill -9 -f 'merlin_cl[i] worker' 2>/dev/null
  wait "$PROC_PID"
  PROC_STATUS=$?
  set -e
  if [ "$PROC_STATUS" -eq 0 ]; then
    echo "proc-chaos: expected the crash-after parent abort, got a clean exit" >&2
    exit 1
  fi
  # Orphaned workers drain on stdin EOF; give their sealed segments a beat.
  sleep 2
  target/debug/merlin_cli resume --gen 200 --sinks 4 --seed 7 \
    --work-limit 200000 --isolation process --shards 2 \
    --journal "$SUPTMP/proc.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/proc.txt" 2>/dev/null
  grep -q "^nets: 200 served: 200 .* lost: 0$" "$SUPTMP/proc.txt" || {
    echo "proc-chaos: resumed report lost nets:" >&2
    head -3 "$SUPTMP/proc.txt" >&2
    exit 1
  }
  cmp -s "$SUPTMP/proc-ref.txt" "$SUPTMP/proc.txt" || {
    echo "proc-chaos: resumed process-mode report diverged from the reference:" >&2
    diff "$SUPTMP/proc-ref.txt" "$SUPTMP/proc.txt" | head -10 >&2
    exit 1
  }
  # Poison-net quarantine: every solve panics its worker on first touch, so
  # with --poison-k 2 each net must be quarantined as failed-crash after two
  # worker deaths instead of crash-looping the shard forever.
  target/debug/merlin_cli batch --gen 6 --sinks 4 --seed 7 \
    --isolation process --shards 1 --poison-k 2 \
    --chaos supervisor.proc.solve:panic:1 \
    --journal "$SUPTMP/poison.journal" --artifacts "$SUPTMP/artifacts" \
    --report "$SUPTMP/poison.txt" 2>/dev/null
  grep -q "failed-crash: 6 lost: 0$" "$SUPTMP/poison.txt" || {
    echo "proc-chaos: poison nets were not all quarantined:" >&2
    head -3 "$SUPTMP/poison.txt" >&2
    exit 1
  }
  QUARANTINE_REPROS=$(ls "$SUPTMP"/artifacts/*.repro 2>/dev/null | wc -l)
  if [ "$QUARANTINE_REPROS" -lt 6 ]; then
    echo "proc-chaos: expected >= 6 quarantine .repro artifacts, found $QUARANTINE_REPROS" >&2
    exit 1
  fi
}

stage_trace() {
  echo "== trace (solve --trace: valid JSON, hot-path counters nonzero; traced process-mode batch) =="
  # Solve one net with tracing on: the chrome trace file must parse as
  # JSON, and the instrumentation must actually have fired — the prune and
  # StarCache counters are the canaries for the curves/core layers.
  cargo build -q --release --bin merlin_cli
  cat > "$SUPTMP/trace-demo.net" <<'EOF'
net trace-demo
source 0 0 4.0
sink 400 300 12.0 900.0
sink -250 500 9.5 800.0
sink 600 -150 15.0 1000.0
sink -400 -350 7.0 850.0
EOF
  target/release/merlin_cli solve "$SUPTMP/trace-demo.net" \
    --trace "$SUPTMP/trace.json" --stats > "$SUPTMP/trace-stats.txt"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SUPTMP/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))["traceEvents"]
assert events, "empty traceEvents"
assert all("ph" in e and "pid" in e and "tid" in e for e in events)
EOF
  else
    # No python3: at least require the chrome-trace envelope and one
    # complete ("X") span event.
    grep -q '"traceEvents"' "$SUPTMP/trace.json"
    grep -q '"ph":"X"' "$SUPTMP/trace.json"
  fi
  # Stats counter names are width-padded; match `counter <name> ... = <nonzero>`.
  grep -Eq 'counter curves\.pruned += [1-9]' "$SUPTMP/trace-stats.txt" || {
    echo "trace: curves.pruned counter missing or zero:" >&2
    grep "curves.pruned" "$SUPTMP/trace-stats.txt" >&2 || true
    exit 1
  }
  grep -Eq 'counter core\.cache\.hit += [1-9]' "$SUPTMP/trace-stats.txt" || {
    echo "trace: core.cache.hit counter missing or zero:" >&2
    grep "core.cache.hit" "$SUPTMP/trace-stats.txt" >&2 || true
    exit 1
  }
  # A process-mode batch traces too: each worker writes its trace next to
  # its journal segment (`<journal>.seg<N>.trace`) and the parent merges
  # them. Only the workers solve, so a nonzero curves.pruned proves their
  # traces arrived; tracing must not change the report.
  target/release/merlin_cli batch --gen 8 --sinks 4 --isolation process --shards 2 \
    --journal "$SUPTMP/trace-proc.journal" --report "$SUPTMP/trace-proc.txt" \
    --stats > "$SUPTMP/trace-proc-stats.txt"
  target/release/merlin_cli batch --gen 8 --sinks 4 --isolation process --shards 2 \
    --journal "$SUPTMP/trace-proc-ref.journal" --report "$SUPTMP/trace-proc-ref.txt" \
    > /dev/null
  grep -Eq 'counter curves\.pruned += [1-9]' "$SUPTMP/trace-proc-stats.txt" || {
    echo "trace: process-mode batch reported no worker curves.pruned:" >&2
    grep "curves.pruned" "$SUPTMP/trace-proc-stats.txt" >&2 || true
    exit 1
  }
  cmp -s "$SUPTMP/trace-proc-ref.txt" "$SUPTMP/trace-proc.txt" || {
    echo "trace: --stats changed the process-mode batch report:" >&2
    diff "$SUPTMP/trace-proc-ref.txt" "$SUPTMP/trace-proc.txt" | head -10 >&2
    exit 1
  }
}

stage_parallel() {
  echo "== parallel (sequential vs --threads 4: byte-identical output) =="
  # The level-sharded parallel BUBBLE_CONSTRUCT promises results identical
  # to the sequential engine at any thread count. Solve the same net at
  # --threads 1, 2 and 4 and byte-diff the rendered reports and SVG trees.
  # No --stats here on purpose: cache hit/miss tallies and arena layout are
  # internal and legitimately differ across thread counts.
  cargo build -q --release --bin merlin_cli
  cat > "$SUPTMP/parallel-demo.net" <<'EOF'
net parallel-demo
source 0 0 4.0
sink 400 300 12.0 900.0
sink -250 500 9.5 800.0
sink 600 -150 15.0 1000.0
sink -400 -350 7.0 850.0
sink 150 650 11.0 950.0
sink -550 120 8.5 780.0
EOF
  for t in 1 2 4; do
    target/release/merlin_cli solve "$SUPTMP/parallel-demo.net" --threads "$t" \
      --svg "$SUPTMP/parallel-$t.svg" \
      | grep -v '^runtime\|^svg written' > "$SUPTMP/parallel-$t.txt"
  done
  for t in 2 4; do
    diff -u "$SUPTMP/parallel-1.txt" "$SUPTMP/parallel-$t.txt" || {
      echo "parallel: --threads $t report diverged from sequential" >&2
      exit 1
    }
    cmp -s "$SUPTMP/parallel-1.svg" "$SUPTMP/parallel-$t.svg" || {
      echo "parallel: --threads $t rendered tree diverged from sequential" >&2
      exit 1
    }
  done
}

stage_perfbench() {
  echo "== perfbench (benchmark suite + short solve-seq, batch-4sink and daemon-open runs) =="
  # perfbench is its own cargo workspace on the library crates' public
  # API, so nothing else here builds it: run its tests, then one short
  # seeded run of each workload. Their output checks make them exit
  # non-zero if any solve is wrong; batch-4sink also puts its nets
  # through run_batch and `merlin_cli batch --isolation process` and
  # byte-compares the two reports, and daemon-open, the one workload that
  # runs the engine inside `merlin_cli serve`, hashes every job's tree
  # against a verified re-solve.
  cargo test --release --offline -q --manifest-path perfbench/Cargo.toml
  for workload in solve-seq batch-4sink daemon-open; do
    cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
      --workload "$workload" --seed 1 --seconds 4 --trace 0 > "$SUPTMP/perfbench.txt" || {
      echo "perfbench: $workload run failed:" >&2
      cat "$SUPTMP/perfbench.txt" >&2
      exit 1
    }
    tail -n 1 "$SUPTMP/perfbench.txt" | grep -q '"correct": true' || {
      echo "perfbench: $workload reported a wrong result:" >&2
      tail -n 1 "$SUPTMP/perfbench.txt" >&2
      exit 1
    }
  done
}

stage_server_chaos() {
  echo "== server-chaos (SIGKILL + restart recovery, typed shedding) =="
  cargo build -q --release --bin merlin_cli
  cargo build -q --features fault-inject --bin merlin_cli
  # Reference first: an uninterrupted daemon serving a 100-net stream in
  # wait mode. Its report is the byte-compare target.
  SRVREF="$SUPTMP/srv-ref"
  target/release/merlin_cli serve --data-dir "$SRVREF" --capacity 128 --jobs 2 &
  SRV_PID=$!
  for _ in $(seq 1 100); do [ -f "$SRVREF/server.addr" ] && break; sleep 0.1; done
  target/release/merlin_cli submit --gen 100 --sinks 4 --seed 7 \
    --data-dir "$SRVREF" > /dev/null
  target/release/merlin_cli status --data-dir "$SRVREF" \
    --report "$SUPTMP/srv-ref.txt"
  target/release/merlin_cli status --data-dir "$SRVREF" --drain > /dev/null
  wait "$SRV_PID"

  # Chaos run: the first 60 nets of the same stream fire-and-forget, then
  # SIGKILL the daemon mid-stream and restart it over the same data dir.
  # Startup recovery must re-solve every acked-but-unfinished job (intake
  # minus outcomes) before the listener binds; submitting the full 100-net
  # stream afterwards replays the journaled prefix instead of re-solving
  # it and solves only the 40-net remainder, and the final report must be
  # byte-identical to the uninterrupted reference. (--gen N generates net
  # i from seed+i, so --gen 60 is a strict prefix of --gen 100.)
  SRVDIR="$SUPTMP/srv-chaos"
  target/release/merlin_cli serve --data-dir "$SRVDIR" --capacity 128 --jobs 2 &
  SRV_PID=$!
  for _ in $(seq 1 100); do [ -f "$SRVDIR/server.addr" ] && break; sleep 0.1; done
  target/release/merlin_cli submit --gen 60 --sinks 4 --seed 7 \
    --data-dir "$SRVDIR" --no-wait > /dev/null
  kill -9 "$SRV_PID"
  set +e
  wait "$SRV_PID" 2>/dev/null
  set -e
  # kill -9 skipped cleanup: drop the stale address file so the poll below
  # only sees the restarted daemon's freshly bound address.
  rm -f "$SRVDIR/server.addr"
  target/release/merlin_cli serve --data-dir "$SRVDIR" --capacity 128 --jobs 2 &
  SRV_PID=$!
  for _ in $(seq 1 1200); do [ -f "$SRVDIR/server.addr" ] && break; sleep 0.1; done
  if target/release/merlin_cli status --data-dir "$SRVDIR" --stats \
      | grep -q '"recovered":0'; then
    echo "server-chaos: SIGKILL landed after every job finished; recovery untested" >&2
    exit 1
  fi
  target/release/merlin_cli submit --gen 100 --sinks 4 --seed 7 \
    --data-dir "$SRVDIR" --connect-timeout-ms 300000 > /dev/null
  target/release/merlin_cli status --data-dir "$SRVDIR" \
    --report "$SUPTMP/srv-chaos.txt"
  target/release/merlin_cli status --data-dir "$SRVDIR" --drain > /dev/null
  wait "$SRV_PID"
  cmp -s "$SUPTMP/srv-ref.txt" "$SUPTMP/srv-chaos.txt" || {
    echo "server-chaos: recovered report diverged from the reference:" >&2
    diff "$SUPTMP/srv-ref.txt" "$SUPTMP/srv-chaos.txt" | head -10 >&2
    exit 1
  }

  # Typed load shedding: a daemon with the server.queue fault armed rejects
  # every submit with the typed `overloaded` response (retry_after_ms hint
  # included) without the queue ever filling, and the client maps the
  # rejections to a nonzero exit.
  SRVOVL="$SUPTMP/srv-ovl"
  target/debug/merlin_cli serve --data-dir "$SRVOVL" --capacity 64 --jobs 1 \
    --chaos server.queue:empty:1 &
  SRV_PID=$!
  for _ in $(seq 1 100); do [ -f "$SRVOVL/server.addr" ] && break; sleep 0.1; done
  set +e
  OVL_OUT=$(target/debug/merlin_cli submit --gen 2 --sinks 4 --seed 7 \
    --data-dir "$SRVOVL" 2>&1)
  OVL_STATUS=$?
  set -e
  if [ "$OVL_STATUS" -eq 0 ]; then
    echo "server-chaos: shed submissions exited 0" >&2
    exit 1
  fi
  echo "$OVL_OUT" | grep -q "overloaded (retry after" || {
    echo "server-chaos: expected typed overloaded rejections, got:" >&2
    echo "$OVL_OUT" | head -5 >&2
    exit 1
  }
  target/debug/merlin_cli status --data-dir "$SRVOVL" --drain > /dev/null
  wait "$SRV_PID"
}

stage_telemetry() {
  echo "== telemetry (metrics exposition, watch stream, trace retrieval, slow subscriber) =="
  cargo build -q --release --bin merlin_cli
  cargo build -q --features fault-inject --bin merlin_cli
  # Part 1: a fresh release daemon (so registry totals are exact) serving
  # 30 nets with a concurrent watch client attached before the first
  # submit. The watcher must see exactly 30 `done` events with strictly
  # increasing seq; the exposition must be internally consistent
  # (cumulative buckets, +Inf == count) and agree on the 30; a completed
  # job's captured trace must come back as JSONL.
  SRVTEL="$SUPTMP/srv-tel"
  target/release/merlin_cli serve --data-dir "$SRVTEL" --capacity 128 --jobs 2 \
    --capture-traces 4 &
  SRV_PID=$!
  for _ in $(seq 1 100); do [ -f "$SRVTEL/server.addr" ] && break; sleep 0.1; done
  target/release/merlin_cli watch --data-dir "$SRVTEL" \
    > "$SUPTMP/watch.out" 2> "$SUPTMP/watch.err" &
  WATCH_PID=$!
  # Only submit once the subscriber is acked, or early events are legal
  # to miss.
  for _ in $(seq 1 100); do
    grep -q "streaming events" "$SUPTMP/watch.err" 2>/dev/null && break
    sleep 0.1
  done
  target/release/merlin_cli submit --gen 30 --sinks 4 --seed 7 \
    --data-dir "$SRVTEL" > /dev/null
  target/release/merlin_cli metrics --data-dir "$SRVTEL" > "$SUPTMP/metrics.txt"
  target/release/merlin_cli status --data-dir "$SRVTEL" \
    --trace-id 29 "$SUPTMP/job29.jsonl" > /dev/null
  if ! [ -s "$SUPTMP/job29.jsonl" ] || ! grep -q '"name"' "$SUPTMP/job29.jsonl"; then
    echo "telemetry: captured trace for job 29 is empty or malformed" >&2
    exit 1
  fi
  target/release/merlin_cli status --data-dir "$SRVTEL" --drain > /dev/null
  wait "$SRV_PID"
  wait "$WATCH_PID" || {
    echo "telemetry: watch client did not exit cleanly on drain" >&2
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SUPTMP/watch.out" "$SUPTMP/metrics.txt" <<'EOF'
import json, sys

# Watch stream: every line parses; seq strictly increases; exactly 30
# done events, each with a service time and the final tier.
events = []
for line in open(sys.argv[1]):
    line = line.strip()
    if not line:
        continue
    obj = json.loads(line)
    if obj.get("type") == "event":
        events.append(obj)
seqs = [e["seq"] for e in events]
assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs), \
    f"seq not strictly increasing: {seqs[:10]}..."
done = [e for e in events if e["event"] == "done"]
assert len(done) == 30, f"expected 30 done events, saw {len(done)}"
assert all("service_ms" in e and "tier" in e for e in done)
assert len([e for e in events if e["event"] == "queued"]) == 30
assert len([e for e in events if e["event"] == "started"]) == 30

# Exposition: counters parse; histogram bucket series are cumulative
# with +Inf pinned to _count; the done counter agrees with the stream.
samples = {}
hist_buckets = {}
for line in open(sys.argv[2]):
    line = line.strip()
    if not line or line.startswith("#"):
        continue
    name, value = line.rsplit(" ", 1)
    value = int(value)
    if "_bucket{le=" in name:
        base = name.split("_bucket{", 1)[0]
        hist_buckets.setdefault(base, []).append((name, value))
    else:
        samples[name] = value
assert samples["merlin_server_events_done"] == 30, samples
assert samples["merlin_server_events_rejected"] == 0, samples
assert samples["merlin_server_metrics_service_ms_count"] == 30, samples
assert hist_buckets, "no histogram bucket series exposed"
for base, buckets in hist_buckets.items():
    counts = [v for (_, v) in buckets]
    assert counts == sorted(counts), f"{base} buckets not cumulative: {counts}"
    assert buckets[-1][0].endswith('le="+Inf"}'), f"{base} missing +Inf"
    assert buckets[-1][1] == samples[base + "_count"], \
        f"{base}: +Inf {buckets[-1][1]} != count {samples[base + '_count']}"
    assert base + "_sum" in samples, f"{base} missing _sum"
served = [v for (k, v) in samples.items()
          if k.startswith("merlin_server_metrics_served_")]
assert sum(served) == 30, f"per-tier served counts do not sum to 30: {served}"
EOF
  else
    [ "$(grep -c '"event":"done"' "$SUPTMP/watch.out")" -eq 30 ] || {
      echo "telemetry: expected 30 done events in the watch stream" >&2
      exit 1
    }
    grep -q '^merlin_server_events_done 30$' "$SUPTMP/metrics.txt" || {
      echo "telemetry: events.done counter is not 30:" >&2
      grep "events_done" "$SUPTMP/metrics.txt" >&2 || true
      exit 1
    }
  fi

  # Part 2: a deliberately stalled subscriber must never block the solve
  # path. The debug fault-inject build arms server.watch:stall (the watch
  # writer sleeps 20 s right after its ack) with a 4-event buffer; a raw
  # client that never reads attaches, then 8 wait-mode submits must still
  # complete, and the drops must be accounted in server.events.dropped.
  SRVSTALL="$SUPTMP/srv-stall"
  target/debug/merlin_cli serve --data-dir "$SRVSTALL" --capacity 64 --jobs 1 \
    --watch-buffer 4 --chaos server.watch:stall:1:20000 &
  SRV_PID=$!
  for _ in $(seq 1 100); do [ -f "$SRVSTALL/server.addr" ] && break; sleep 0.1; done
  STALL_ADDR=$(cat "$SRVSTALL/server.addr")
  exec 9<>"/dev/tcp/${STALL_ADDR%:*}/${STALL_ADDR##*:}"
  printf '{"cmd": "watch"}\n' >&9
  # Never read fd 9: the subscriber is now as slow as a subscriber gets.
  target/debug/merlin_cli submit --gen 8 --sinks 4 --seed 7 \
    --data-dir "$SRVSTALL" > /dev/null || {
    echo "telemetry: submits blocked behind a stalled watch subscriber" >&2
    exit 1
  }
  target/debug/merlin_cli metrics --data-dir "$SRVSTALL" > "$SUPTMP/metrics-stall.txt"
  grep -Eq '^merlin_server_events_dropped [1-9][0-9]*$' "$SUPTMP/metrics-stall.txt" || {
    echo "telemetry: stalled subscriber produced no drop accounting:" >&2
    grep "events_dropped" "$SUPTMP/metrics-stall.txt" >&2 || true
    exit 1
  }
  target/debug/merlin_cli status --data-dir "$SRVSTALL" --drain > /dev/null
  wait "$SRV_PID"
  exec 9<&- 9>&-
}

run_stage() {
  case "$1" in
    fmt) stage_fmt ;;
    clippy) stage_clippy ;;
    audit) stage_audit ;;
    tests) stage_tests ;;
    release-tests) stage_release_tests ;;
    chaos) stage_chaos ;;
    supervisor-chaos) stage_supervisor_chaos ;;
    proc-chaos) stage_proc_chaos ;;
    trace) stage_trace ;;
    parallel) stage_parallel ;;
    perfbench) stage_perfbench ;;
    server-chaos) stage_server_chaos ;;
    telemetry) stage_telemetry ;;
    *)
      echo "check.sh: unknown stage '$1'" >&2
      exit 2
      ;;
  esac
}

if [ "${#ONLY[@]}" -gt 0 ]; then
  for s in "${ONLY[@]}"; do run_stage "$s"; done
  echo "selected stages passed"
else
  for s in $STAGES; do run_stage "$s"; done
  echo "all checks passed"
fi
