//! `merlin_cli` — the command-line frontend of the MERLIN reproduction.
//!
//! ```text
//! merlin_cli solve <file.net> [--flow 1|2|3] [--svg out.svg]
//!                  [--area-budget λ²] [--req-target ps]
//! merlin_cli batch [<file.net>...] [--gen N] [batch options]
//! merlin_cli resume [<file.net>...] [--gen N] [batch options]
//! merlin_cli repro <file.repro> [--minimize]
//! ```
//!
//! ```text
//! merlin_cli serve [--addr HOST:PORT] [--data-dir DIR] [server options]
//! merlin_cli submit [<file.net>...] [--gen N] [submit options]
//! merlin_cli status [--id N | --report | --drain | --stats | --trace-id N PATH]
//! merlin_cli metrics [--interval SECS]
//! merlin_cli watch
//! ```
//!
//! `solve` optimizes one net (flow 3, MERLIN, by default) — invoking the
//! binary with a `.net` file as the first argument is shorthand for it.
//! `batch` drives the resilient solver across a net population under the
//! `merlin-supervisor` worker pool (watchdog, retries, checkpoint/resume
//! journal, failure artifacts); `resume` is `batch` that insists the
//! journal already exists. `repro` replays a captured `.repro` failure
//! artifact. `serve` runs the crash-recoverable solve daemon
//! (`merlin-server`, see docs/SERVICE.md); `submit`, `status`, `metrics`
//! and `watch` are its clients — `metrics` fetches the Prometheus-style
//! exposition (optionally refreshing top-style with `--interval`) and
//! `watch` streams job-lifecycle events as NDJSON until the daemon
//! drains. Run `merlin_cli help` for every flag and its default.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use merlin::Constraint;
use merlin_flows::{flow1, flow2, flow3, FlowsConfig};
use merlin_netlist::bench_nets::random_net;
use merlin_netlist::{io, Net};
use merlin_resilience::ServingTier;
use merlin_supervisor::{
    arm_chaos_spec, parse_repro, replay, run_batch, run_batch_proc, run_worker, BatchConfig,
    ProcConfig, WorkerOptions,
};
use merlin_tech::{svg, Technology};

const USAGE: &str = "\
usage: merlin_cli <command> [args]

commands:
  solve <file.net>     optimize one net and print its metrics (the default
                       command: a leading <file.net> argument implies it)
  batch                solve a net population under batch supervision
  resume               like `batch`, but refuses to start a fresh journal
                       (with no nets listed: replay the journal into a
                       report without solving anything)
  repro <file.repro>   replay a captured failure artifact
  serve                run the crash-recoverable solve daemon
  submit               submit nets to a running daemon
  status               query a running daemon (job state, report, stats)
  metrics              fetch the daemon's metrics exposition
  watch                stream job-lifecycle events from the daemon
  help                 this text

solve flags:
  --flow 1|2|3         flow to run (default 3 = MERLIN)
  --svg out.svg        also render the buffered routing tree
  --area-budget λ²     MERLIN variant I: max required time within area
  --req-target ps      MERLIN variant II: min area meeting required time
  --threads N          intra-net DP worker threads for BUBBLE_CONSTRUCT
                       (0 = one per core; default 1 = sequential); the
                       result is identical at any thread count, but on
                       small nets the extra threads cost more than they
                       save
  --load-quant Q       post-prune load-quantization dial: curve points in
                       the same Q-wide load bucket compete as equals
                       (1 = exact, the default; larger = faster, coarser)

trace flags (solve, batch and resume):
  --trace out.json     capture a trace of the run and write it here
  --trace-format F     trace file format: chrome (load in chrome://tracing
                       or Perfetto) or jsonl (default chrome)
  --stats              print the aggregate span/counter report to stdout

batch/resume flags (defaults in parentheses):
  <file.net>...        nets to solve, in batch order
  --gen N              append N synthetic benchmark nets (0)
  --sinks S            sinks per generated net (8)
  --seed K             base seed for generated nets (1)
  --jobs J             worker threads (available CPU parallelism)
  --budget-ms MS       cooperative per-net wall-clock budget (none)
  --work-limit W       cooperative per-net DP work limit (none)
  --max-retries R      retries after each net's first attempt (2)
  --accept-tier T      weakest acceptable serving tier, one of merlin,
                       single-pass, ptree+vg, lttree+ptree, direct (direct)
  --watchdog-ms MS     non-cooperative per-attempt wall slice enforced by
                       the watchdog thread (off)
  --journal PATH       checkpoint/resume journal (.merlin-journal)
  --artifacts DIR      failure artifact directory (artifacts)
  --no-minimize        keep captured artifacts verbatim (minimize)
  --chaos SPEC         arm site:kind:nth[:stall_ms] fault injection on every
                       worker; repeatable (fault-inject builds only)
  --crash-after N      abort the process after N journal commits; 0 aborts
                       before the first commit (chaos testing; resume
                       afterwards with `resume`)
  --report PATH        write the deterministic batch report here (stdout)

process-isolation flags (batch and resume):
  --isolation MODE     thread (default) or process: process re-execs this
                       binary as one worker subprocess per shard, each
                       writing its own journal segment; a worker crash
                       costs one in-flight net, not the batch
  --shards N           worker subprocess count (2; implies
                       --isolation process)
  --worker-net-ms MS   wall-clock limit per in-flight net before the
                       parent escalates SIGTERM then SIGKILL (120000)
  --poison-k K         crashes attributed to one net before it is
                       quarantined as failed-crash with a .repro (3)
  resume merges any set of segments regardless of the original shard
  count, so `batch --shards 8` can resume with `--shards 2`; SIGINT
  drains gracefully (workers finish their in-flight net and seal)

repro flags:
  --minimize           greedily re-minimize and write <file>.min

serve flags (defaults in parentheses):
  --addr HOST:PORT     listen address; port 0 picks a free port
                       (127.0.0.1:0). The bound address is printed and
                       written to <data-dir>/server.addr
  --data-dir DIR       intake + outcome journals and the address file
                       (merlin-server-data); restarting over the same
                       directory recovers unfinished jobs before the
                       listener opens
  --capacity N         job-queue admission bound (64); a full queue
                       rejects submits with a typed `overloaded` response
  --jobs J             solver worker threads (1)
  --budget-ms MS       per-net wall-clock budget; request deadlines can
                       only tighten it, never loosen it (none)
  --work-limit W       cooperative per-net DP work limit (none)
  --max-retries R      retries after each net's first attempt (2)
  --accept-tier T      weakest acceptable serving tier (direct)
  --artifacts DIR      failure artifact directory (artifacts)
  --capture-traces N   keep the solve traces of the last N completed jobs
                       in memory for `status --trace-id` retrieval
                       (0 = capture nothing); traces are per-incarnation
                       and never journaled
  --watch-buffer N     per-watch-subscriber event buffer; a subscriber
                       that falls further behind loses its oldest events,
                       counted in server.events.dropped (256)
  --chaos SPEC         arm site:kind:nth[:stall_ms] fault injection
                       (fault-inject builds only); daemon sites are
                       server.accept, server.queue, server.drain,
                       server.watch
  SIGTERM or SIGINT drains gracefully (stop admitting, finish in-flight
  nets, seal the journal); a second signal aborts immediately

submit flags:
  <file.net>...        nets to submit, in id order
  --gen N              append N synthetic benchmark nets (0)
  --sinks S            sinks per generated net (8)
  --seed K             base seed for generated nets (1)
  --addr HOST:PORT     daemon address (read from <data-dir>/server.addr)
  --data-dir DIR       where to find server.addr (merlin-server-data)
  --start-id N         id of the first submitted net; ids are the dedup
                       key across retries and server restarts (0)
  --deadline-ms MS     per-job end-to-end deadline; queue wait counts
                       against it (none)
  --no-wait            fire-and-forget: print the admission response and
                       move on instead of waiting for the terminal state
  --connect-timeout-ms retry connecting this long, e.g. across a server
                       restart's recovery window (30000)

status flags:
  --addr / --data-dir  as for submit
  --id N               print one job's state or terminal record
  --report [PATH]      fetch the batch report (stdout, or write to PATH)
  --svg-id N PATH      fetch a served job's SVG into PATH
  --trace-id N PATH    fetch a completed job's captured solve trace as
                       JSONL into PATH (needs `serve --capture-traces`)
  --stats              print server stats (the default query)
  --drain              ask the daemon to drain gracefully
  --connect-timeout-ms retry connecting this long (30000)

metrics flags:
  --addr / --data-dir  as for submit
  --interval SECS      refresh top-style every SECS seconds instead of
                       printing one snapshot and exiting
  --connect-timeout-ms retry connecting this long (5000)

watch flags:
  --addr / --data-dir  as for submit
  --connect-timeout-ms retry connecting this long (5000)
  prints one NDJSON event per line until the daemon drains; if this
  client falls behind the daemon drops its oldest events rather than
  blocking submits, and reports the count in a watch-dropped line

exit status: `repro` exits 0 when the failure reproduces, 1 when it does
not; `submit` exits 0 when every job reached a terminal state or was
accepted, 1 when any was rejected (overloaded, deadline-exceeded,
draining); `status`, `metrics` and `watch` exit 2 when no daemon is
reachable (missing address file or refused connection); everything else
exits 0 on success.";

fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("merlin_cli: {msg}");
    ExitCode::FAILURE
}

/// Serialisation format for `--trace` output files.
#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
}

impl TraceFormat {
    fn parse(v: &str) -> Option<TraceFormat> {
        match v {
            "chrome" => Some(TraceFormat::Chrome),
            "jsonl" => Some(TraceFormat::Jsonl),
            _ => None,
        }
    }
}

/// The `--trace`/`--trace-format`/`--stats` option group shared by the
/// solve and batch commands.
#[derive(Default)]
struct TraceOpts {
    trace_path: Option<PathBuf>,
    format: Option<TraceFormat>,
    stats: bool,
}

impl TraceOpts {
    /// Consumes a trace flag from the cursor. Returns `None` when `arg`
    /// is not a trace flag (so the caller falls through to its own).
    fn consume(&mut self, arg: &str, args: &mut Args) -> Option<Result<(), String>> {
        match arg {
            "--trace" => Some(
                args.value_for("--trace")
                    .map(|v| self.trace_path = Some(v.into())),
            ),
            "--trace-format" => Some(args.value_for("--trace-format").and_then(|v| {
                TraceFormat::parse(&v)
                    .map(|f| self.format = Some(f))
                    .ok_or_else(|| format!("unknown trace format `{v}` (expected chrome or jsonl)"))
            })),
            "--stats" => {
                self.stats = true;
                Some(Ok(()))
            }
            _ => None,
        }
    }

    /// Whether the run needs the collector switched on at all.
    fn active(&self) -> bool {
        self.trace_path.is_some() || self.stats
    }

    /// Writes the trace file and/or prints the aggregate report, per the
    /// parsed flags.
    fn finish(&self, set: &merlin_trace::TraceSet) -> Result<(), String> {
        if let Some(path) = &self.trace_path {
            let body = match self.format.unwrap_or(TraceFormat::Chrome) {
                TraceFormat::Chrome => merlin_trace::export::chrome_trace(set),
                TraceFormat::Jsonl => merlin_trace::export::jsonl(set),
            };
            std::fs::write(path, body)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        if self.stats {
            print!(
                "{}",
                merlin_trace::report::AggregateReport::from_set(set).render()
            );
        }
        Ok(())
    }
}

/// The solve-policy flags that `batch`/`resume`, `worker` and `serve`
/// share, parsed onto a [`BatchConfig`]. A process-mode parent writes
/// them back onto its workers' argv, so every worker solves under the
/// parent's policy.
#[derive(Default)]
struct PolicyOpts {
    /// The raw `--chaos` specs, re-encoded verbatim onto worker argv.
    chaos: Vec<String>,
}

impl PolicyOpts {
    /// Consumes a policy flag from the cursor into `cfg`. Returns `None`
    /// when `arg` is not a policy flag (so the caller falls through to
    /// its own).
    fn consume(
        &mut self,
        arg: &str,
        args: &mut Args,
        cfg: &mut BatchConfig,
    ) -> Option<Result<(), String>> {
        let parsed = match arg {
            "--budget-ms" => args.parsed(arg).map(|v| cfg.budget_ms = Some(v)),
            "--work-limit" => args.parsed(arg).map(|v| cfg.work_limit = Some(v)),
            "--max-retries" => args
                .parsed(arg)
                .map(|v: u32| cfg.retry.max_attempts = v.saturating_add(1)),
            "--accept-tier" => args.value_for(arg).and_then(|v| {
                ServingTier::parse(&v)
                    .map(|t| cfg.accept_tier = t)
                    .ok_or_else(|| format!("unknown tier `{v}`"))
            }),
            "--artifacts" => args
                .value_for(arg)
                .map(|v| cfg.artifacts_dir = Some(v.into())),
            "--chaos" => {
                args.value_for(arg)
                    .and_then(|v| match arm_chaos_spec(&mut cfg.fault, &v) {
                        Ok(true) => {
                            self.chaos.push(v);
                            Ok(())
                        }
                        Ok(false) => Err("this build has no fault-injection support; rebuild \
                                      with `--features fault-inject` to use --chaos"
                            .to_owned()),
                        Err(e) => Err(e.to_string()),
                    })
            }
            _ => return None,
        };
        Some(parsed)
    }

    /// Writes the policy in `cfg` onto a worker's argv.
    fn push_args(&self, cfg: &BatchConfig, argv: &mut Vec<String>) {
        let mut push = |flag: &str, value: String| {
            argv.push(flag.to_owned());
            argv.push(value);
        };
        if let Some(ms) = cfg.budget_ms {
            push("--budget-ms", ms.to_string());
        }
        if let Some(w) = cfg.work_limit {
            push("--work-limit", w.to_string());
        }
        push(
            "--max-retries",
            cfg.retry.max_attempts.saturating_sub(1).to_string(),
        );
        push("--accept-tier", cfg.accept_tier.to_string());
        if let Some(dir) = &cfg.artifacts_dir {
            push("--artifacts", dir.display().to_string());
        }
        for spec in &self.chaos {
            push("--chaos", spec.clone());
        }
    }
}

/// A tiny flag cursor over the argument list.
struct Args {
    args: Vec<String>,
    pos: usize,
}

impl Args {
    fn next(&mut self) -> Option<String> {
        let arg = self.args.get(self.pos).cloned();
        if arg.is_some() {
            self.pos += 1;
        }
        arg
    }

    fn value_for(&mut self, flag: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} needs a value"))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value_for(flag)?;
        v.parse::<T>()
            .map_err(|_| format!("malformed value `{v}` for {flag}"))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { args: argv, pos: 0 };
    match args.next().as_deref() {
        None | Some("help") | Some("--help") | Some("-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some("solve") => cmd_solve(args),
        Some("batch") => cmd_batch(args, false),
        Some("resume") => cmd_batch(args, true),
        // Hidden: the re-exec target for `batch --isolation process`. One
        // invocation per shard; speaks the heartbeat protocol on stdout
        // and takes the drain command on stdin. Not part of the CLI
        // surface, so not in USAGE.
        Some("worker") => cmd_worker(args),
        Some("repro") => cmd_repro(args),
        Some("serve") => cmd_serve(args),
        Some("submit") => cmd_submit(args),
        Some("status") => cmd_status(args),
        Some("metrics") => cmd_metrics(args),
        Some("watch") => cmd_watch(args),
        Some(first) if !first.starts_with('-') => {
            // Legacy shorthand: `merlin_cli file.net [flags]`.
            args.pos -= 1;
            cmd_solve(args)
        }
        Some(other) => fail(format!("unknown command `{other}` (try `merlin_cli help`)")),
    }
}

fn cmd_solve(mut args: Args) -> ExitCode {
    let mut file = None;
    let mut flow = "3".to_owned();
    let mut svg_out = None;
    let mut area_budget = None;
    let mut req_target = None;
    let mut threads = None;
    let mut load_quant = None;
    let mut trace_opts = TraceOpts::default();
    while let Some(arg) = args.next() {
        if let Some(result) = trace_opts.consume(&arg, &mut args) {
            if let Err(e) = result {
                return fail(e);
            }
            continue;
        }
        let parsed: Result<(), String> = match arg.as_str() {
            "--flow" => args.value_for("--flow").map(|v| flow = v),
            "--svg" => args.value_for("--svg").map(|v| svg_out = Some(v)),
            "--area-budget" => args.parsed("--area-budget").map(|v| area_budget = Some(v)),
            "--req-target" => args.parsed("--req-target").map(|v| req_target = Some(v)),
            "--threads" => args.parsed("--threads").map(|v: usize| threads = Some(v)),
            "--load-quant" => args
                .parsed("--load-quant")
                .map(|v: u32| load_quant = Some(v)),
            other if !other.starts_with("--") => {
                file = Some(other.to_owned());
                Ok(())
            }
            other => Err(format!("unknown solve flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    let Some(file) = file else {
        return fail("solve needs a <file.net> argument");
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot read {file}: {e}")),
    };
    let net = match io::parse_net(&text) {
        Ok(n) => n,
        Err(e) => return fail(format!("{file}: {e}")),
    };

    let tech = Technology::synthetic_035();
    let mut cfg = FlowsConfig::for_net_size(net.num_sinks());
    if let Some(budget) = area_budget {
        cfg.merlin.constraint = Constraint::MaxReqWithinArea(budget);
    }
    if let Some(target) = req_target {
        cfg.merlin.constraint = Constraint::MinAreaWithReq(target);
    }
    if let Some(n) = threads {
        cfg.merlin.threads = n;
    }
    if let Some(q) = load_quant {
        cfg.merlin.load_quant = q;
    }

    if trace_opts.active() {
        merlin_trace::enable();
    }
    let result = {
        let _solve_span = merlin_trace::span!("cli.solve");
        match flow.as_str() {
            "1" => flow1::run(&net, &tech, &cfg),
            "2" => flow2::run(&net, &tech, &cfg),
            "3" => flow3::run(&net, &tech, &cfg),
            other => return fail(format!("unknown flow `{other}` (expected 1, 2 or 3)")),
        }
    };
    if trace_opts.active() {
        let set = merlin_trace::TraceSet::single("main", merlin_trace::drain());
        if let Err(e) = trace_opts.finish(&set) {
            return fail(e);
        }
    }

    println!("net            : {} ({} sinks)", net.name, net.num_sinks());
    println!("flow           : {flow}");
    println!("req @ driver   : {:.1} ps", result.eval.root_required_ps);
    println!("delay          : {:.1} ps", result.eval.delay_ps);
    println!("buffers        : {}", result.eval.num_buffers);
    println!("buffer area    : {} λ²", result.eval.buffer_area);
    println!("wirelength     : {} λ", result.eval.wirelength);
    println!("runtime        : {:.3} s", result.runtime_s);
    if result.loops > 0 {
        println!("MERLIN loops   : {}", result.loops);
    }

    if let Some(path) = svg_out {
        if let Err(e) = std::fs::write(&path, svg::render(&result.tree)) {
            return fail(format!("cannot write {path}: {e}"));
        }
        println!("svg written to : {path}");
    }
    ExitCode::SUCCESS
}

/// Parses the listed `.net` files and appends `gen` synthetic nets — the
/// shared population recipe of `batch`, `resume` and `worker`, which must
/// agree byte-for-byte for the journal population hash to match.
fn build_nets(
    files: &[String],
    gen: usize,
    sinks: usize,
    seed: u64,
    tech: &Technology,
) -> Result<Vec<Net>, String> {
    let mut nets: Vec<Net> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        nets.push(io::parse_net(&text).map_err(|e| format!("{file}: {e}"))?);
    }
    for i in 0..gen {
        nets.push(random_net(
            &format!("gen{i}"),
            sinks,
            seed.wrapping_add(i as u64),
            tech,
        ));
    }
    if nets.is_empty() {
        return Err("batch has no nets: pass <file.net> arguments and/or --gen N".to_owned());
    }
    Ok(nets)
}

fn cmd_batch(mut args: Args, require_journal: bool) -> ExitCode {
    let tech = Technology::synthetic_035();
    let mut files: Vec<String> = Vec::new();
    let mut gen = 0usize;
    let mut sinks = 8usize;
    let mut seed = 1u64;
    let mut journal = PathBuf::from(".merlin-journal");
    let mut report_path: Option<PathBuf> = None;
    let mut cfg = BatchConfig {
        artifacts_dir: Some(PathBuf::from("artifacts")),
        ..BatchConfig::default()
    };
    let mut trace_opts = TraceOpts::default();
    let mut policy = PolicyOpts::default();
    // Process-isolation state.
    let mut process_mode = false;
    let mut shards = 2u32;
    let mut worker_net_ms: Option<u64> = None;
    let mut poison_k: Option<u32> = None;
    while let Some(arg) = args.next() {
        if let Some(result) = trace_opts
            .consume(&arg, &mut args)
            .or_else(|| policy.consume(&arg, &mut args, &mut cfg))
        {
            if let Err(e) = result {
                return fail(e);
            }
            continue;
        }
        let parsed: Result<(), String> = match arg.as_str() {
            "--gen" => args.parsed("--gen").map(|v| gen = v),
            "--sinks" => args.parsed("--sinks").map(|v| sinks = v),
            "--seed" => args.parsed("--seed").map(|v| seed = v),
            "--jobs" => args.parsed("--jobs").map(|v: usize| cfg.jobs = v.max(1)),
            "--watchdog-ms" => args
                .parsed("--watchdog-ms")
                .map(|v: u64| cfg.watchdog_limit = Some(Duration::from_millis(v))),
            "--journal" => args.value_for("--journal").map(|v| journal = v.into()),
            "--no-minimize" => {
                cfg.minimize = false;
                Ok(())
            }
            "--crash-after" => args
                .parsed("--crash-after")
                .map(|v| cfg.crash_after = Some(v)),
            "--report" => args
                .value_for("--report")
                .map(|v| report_path = Some(v.into())),
            "--isolation" => args
                .value_for("--isolation")
                .and_then(|v| match v.as_str() {
                    "thread" => {
                        process_mode = false;
                        Ok(())
                    }
                    "process" => {
                        process_mode = true;
                        Ok(())
                    }
                    other => Err(format!(
                        "unknown isolation `{other}` (expected thread or process)"
                    )),
                }),
            "--shards" => args.parsed("--shards").map(|v: u32| {
                shards = v.max(1);
                process_mode = true;
            }),
            "--worker-net-ms" => args
                .parsed("--worker-net-ms")
                .map(|v: u64| worker_net_ms = Some(v)),
            "--poison-k" => args
                .parsed("--poison-k")
                .map(|v: u32| poison_k = Some(v.max(1))),
            other if !other.starts_with("--") => {
                files.push(other.to_owned());
                Ok(())
            }
            other => Err(format!("unknown batch flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }

    // A resume may follow a process-mode batch whose parent died before
    // it ever wrote the merged base journal: segments alone are a valid
    // resume point, and their presence implies process mode.
    let has_segments = merlin_supervisor::segment_paths(&journal)
        .map(|paths| paths.iter().any(|p| p.as_path() != journal.as_path()))
        .unwrap_or(false);
    if require_journal && has_segments {
        process_mode = true;
    }
    if require_journal && !journal.exists() && !has_segments {
        return fail(format!(
            "resume requires an existing journal at {} (run `batch` first)",
            journal.display()
        ));
    }

    // Replay-only resume: with no population given, render whatever the
    // journal (or its segments) holds — including a header-only journal
    // from a batch killed before its first commit, which replays to an
    // empty report rather than an error.
    if require_journal && files.is_empty() && gen == 0 {
        let report = match merlin_supervisor::replay_batch(&journal) {
            Ok(report) => report,
            Err(e) => return fail(e),
        };
        eprintln!(
            "resume: replayed {} record(s) from {} without solving",
            report.replayed,
            journal.display()
        );
        for warning in &report.warnings {
            eprintln!("warning: {warning}");
        }
        match report_path {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, report.render()) {
                    return fail(format!("cannot write {}: {e}", path.display()));
                }
            }
            None => print!("{}", report.render()),
        }
        return ExitCode::SUCCESS;
    }

    let nets = match build_nets(&files, gen, sinks, seed, &tech) {
        Ok(nets) => nets,
        Err(e) => return fail(e),
    };

    cfg.capture_trace = trace_opts.active();
    let run = if process_mode {
        // Re-encode the population and solve parameters onto worker argv.
        // Parent-only knobs stay off it: --crash-after (the parent is the
        // crash site), --watchdog-ms (a wedged worker is the *parent's*
        // SIGTERM/SIGKILL ladder, not an abandoned thread), --jobs (each
        // worker solves its shard sequentially).
        let mut worker_args: Vec<String> = files.clone();
        let population = [
            ("--gen", gen.to_string()),
            ("--sinks", sinks.to_string()),
            ("--seed", seed.to_string()),
        ];
        for (flag, value) in population {
            worker_args.push(flag.to_owned());
            worker_args.push(value);
        }
        policy.push_args(&cfg, &mut worker_args);
        if !cfg.minimize {
            worker_args.push("--no-minimize".to_owned());
        }
        if trace_opts.active() {
            worker_args.push("--trace-wire".to_owned());
        }
        let mut pcfg = ProcConfig {
            shards,
            worker_args,
            ..ProcConfig::default()
        };
        if let Some(ms) = worker_net_ms {
            pcfg.net_limit = Duration::from_millis(ms);
        }
        if let Some(k) = poison_k {
            pcfg.poison_k = k;
        }
        merlin_supervisor::install_sigint_drain();
        run_batch_proc(nets, &tech, &cfg, &pcfg, &journal)
    } else {
        run_batch(nets, &tech, &cfg, &journal)
    };
    let report = match run {
        Ok(report) => report,
        Err(e) => return fail(e),
    };
    if let Some(set) = &report.trace {
        if let Err(e) = trace_opts.finish(set) {
            return fail(e);
        }
    }
    // Run diagnostics (scheduling-dependent) go to stderr; the
    // deterministic report goes wherever --report points.
    eprintln!(
        "batch: {} nets in {:.2}s ({} replayed from journal, {} solved, {} lost)",
        report.expected,
        report.wall_s,
        report.replayed,
        report.solved,
        report.lost()
    );
    for warning in &report.warnings {
        eprintln!("warning: {warning}");
    }
    match report_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, report.render()) {
                return fail(format!("cannot write {}: {e}", path.display()));
            }
        }
        None => print!("{}", report.render()),
    }
    ExitCode::SUCCESS
}

/// The re-exec target of `batch --isolation process`: solves one shard of
/// the population (`idx % shards == shard`) into its own journal segment,
/// emitting heartbeats on stdout and obeying the drain command on stdin.
/// stdin EOF means the parent is gone — the worker drains and, if the
/// solve loop has not wound down within the orphan grace period,
/// hard-exits so it cannot race a subsequent resume forever.
fn cmd_worker(mut args: Args) -> ExitCode {
    use std::io::BufRead;
    use std::sync::atomic::{AtomicBool, Ordering};

    static DRAIN: AtomicBool = AtomicBool::new(false);
    const ORPHAN_GRACE: Duration = Duration::from_secs(60);

    // A worker without a supervising parent is an operator mistake: it
    // would fight the real batch over journal segments and artifacts.
    // The parent stamps every spawn with the handshake env var; refuse
    // to run without it.
    let stamp = std::env::var(merlin_supervisor::WORKER_HANDSHAKE_ENV).ok();
    if !merlin_supervisor::worker_handshake_ok(stamp.as_deref()) {
        return fail(format!(
            "usage error: `worker` is the internal re-exec target of `batch --isolation \
             process` and cannot be invoked directly (missing or malformed {} supervision \
             handshake); run `merlin_cli batch --isolation process` instead",
            merlin_supervisor::WORKER_HANDSHAKE_ENV
        ));
    }

    let tech = Technology::synthetic_035();
    let mut files: Vec<String> = Vec::new();
    let mut gen = 0usize;
    let mut sinks = 8usize;
    let mut seed = 1u64;
    let mut journal = PathBuf::from(".merlin-journal");
    let mut shard = 0u32;
    let mut shards = 1u32;
    let mut trace_wire = false;
    let mut ignore_term = false;
    let mut cfg = BatchConfig {
        artifacts_dir: Some(PathBuf::from("artifacts")),
        ..BatchConfig::default()
    };
    let mut policy = PolicyOpts::default();
    while let Some(arg) = args.next() {
        if let Some(result) = policy.consume(&arg, &mut args, &mut cfg) {
            if let Err(e) = result {
                return fail(e);
            }
            continue;
        }
        let parsed: Result<(), String> = match arg.as_str() {
            "--gen" => args.parsed("--gen").map(|v| gen = v),
            "--sinks" => args.parsed("--sinks").map(|v| sinks = v),
            "--seed" => args.parsed("--seed").map(|v| seed = v),
            "--journal" => args.value_for("--journal").map(|v| journal = v.into()),
            "--no-minimize" => {
                cfg.minimize = false;
                Ok(())
            }
            "--shard" => args.parsed("--shard").map(|v: u32| shard = v),
            "--shards" => args.parsed("--shards").map(|v: u32| shards = v.max(1)),
            "--trace-wire" => {
                trace_wire = true;
                Ok(())
            }
            // Test hook for the parent's escalation ladder: a worker that
            // shrugs off SIGTERM must still die to SIGKILL.
            "--ignore-term" => {
                ignore_term = true;
                Ok(())
            }
            other if !other.starts_with("--") => {
                files.push(other.to_owned());
                Ok(())
            }
            other => Err(format!("unknown worker flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }

    // Ctrl-C goes to the whole foreground process group; the *parent*
    // turns it into a drain command, so workers must not die to it.
    merlin_supervisor::ignore_sigint();
    if ignore_term {
        merlin_supervisor::ignore_sigterm();
    }

    let nets = match build_nets(&files, gen, sinks, seed, &tech) {
        Ok(nets) => nets,
        Err(e) => return fail(e),
    };
    cfg.capture_trace = trace_wire;

    std::thread::spawn(|| {
        let mut input = std::io::stdin().lock();
        let mut line = String::new();
        loop {
            line.clear();
            match input.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {
                    if line.trim() == merlin_supervisor::DRAIN_COMMAND {
                        DRAIN.store(true, Ordering::SeqCst);
                    }
                }
            }
        }
        DRAIN.store(true, Ordering::SeqCst);
        std::thread::sleep(ORPHAN_GRACE);
        merlin_supervisor::worker_exit(merlin_supervisor::EXIT_ORPHANED);
    });

    let opts = WorkerOptions {
        shard,
        shards,
        journal,
        trace_wire,
    };
    let mut out = std::io::stdout();
    match run_worker(&nets, &tech, &cfg, &opts, &mut out, &DRAIN) {
        Ok(summary) => {
            eprintln!(
                "worker {shard}/{shards}: {} solved{}",
                summary.solved,
                if summary.drained { " (drained)" } else { "" }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(format!("worker {shard}/{shards}: {e}")),
    }
}

fn cmd_repro(mut args: Args) -> ExitCode {
    let mut file = None;
    let mut do_minimize = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--minimize" => do_minimize = true,
            other if !other.starts_with("--") => file = Some(other.to_owned()),
            other => return fail(format!("unknown repro flag {other}")),
        }
    }
    let Some(file) = file else {
        return fail("repro needs a <file.repro> argument");
    };
    let text = match std::fs::read_to_string(&file) {
        Ok(t) => t,
        Err(e) => return fail(format!("cannot read {file}: {e}")),
    };
    let repro = match parse_repro(&text) {
        Ok(r) => r,
        Err(e) => return fail(format!("{file}: {e}")),
    };
    let tech = Technology::synthetic_035();
    println!(
        "repro          : {} ({} sinks, cause {})",
        repro.net.name,
        repro.net.num_sinks(),
        repro.cause
    );
    println!("accept tier    : {}", repro.accept_tier);
    let outcome = replay(&repro, &tech);
    for (i, (tier, secs)) in outcome.attempts.iter().enumerate() {
        println!("attempt {i}      : served {tier} in {secs:.3}s");
    }
    println!(
        "verdict        : {}",
        if outcome.failed {
            "failure reproduces"
        } else {
            "failure does NOT reproduce (scheduling-dependent or fixed)"
        }
    );
    if do_minimize {
        let min = merlin_supervisor::minimize(&repro, &tech);
        let out = format!("{file}.min");
        if let Err(e) = std::fs::write(&out, merlin_supervisor::write_repro(&min)) {
            return fail(format!("cannot write {out}: {e}"));
        }
        println!(
            "minimized      : {} sinks -> {} sinks, written to {out}",
            repro.net.num_sinks(),
            min.net.num_sinks()
        );
    }
    if outcome.failed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolves the daemon address: an explicit `--addr` wins; otherwise the
/// address file the daemon published into its data directory.
fn resolve_addr(addr: Option<String>, data_dir: &std::path::Path) -> Result<String, String> {
    if let Some(addr) = addr {
        return Ok(addr);
    }
    let path = data_dir.join(merlin_server::ADDR_FILE);
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "cannot read {} ({e}); is the daemon running? pass --addr to override",
            path.display()
        )
    })?;
    let addr = text.trim().to_string();
    if addr.is_empty() {
        return Err(format!("{} is empty", path.display()));
    }
    Ok(addr)
}

/// Exit code of the observer commands (`status`, `metrics`, `watch`)
/// when no daemon is reachable. Distinct from the generic failure code
/// so health probes and scripts can tell "the daemon is down" apart
/// from "the query failed".
const EXIT_UNREACHABLE: u8 = 2;

fn fail_unreachable(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("merlin_cli: {msg}");
    eprintln!(
        "merlin_cli: no daemon is reachable; start one with `merlin_cli serve`, or point at a \
         running one with --addr / --data-dir"
    );
    ExitCode::from(EXIT_UNREACHABLE)
}

/// Resolves and connects for an observer command. These are exactly the
/// commands an operator reaches for when the daemon looks unhealthy, so
/// an unreachable daemon answers with [`EXIT_UNREACHABLE`] and a hint
/// instead of the generic failure path.
fn observer_connect(
    addr: Option<String>,
    data_dir: &std::path::Path,
    timeout: Duration,
) -> Result<(String, merlin_server::Client), ExitCode> {
    let addr = match resolve_addr(addr, data_dir) {
        Ok(a) => a,
        Err(e) => return Err(fail_unreachable(e)),
    };
    match merlin_server::Client::connect(&addr, timeout) {
        Ok(client) => Ok((addr, client)),
        Err(e) => Err(fail_unreachable(format!("cannot connect to {addr}: {e}"))),
    }
}

fn cmd_serve(mut args: Args) -> ExitCode {
    let tech = Technology::synthetic_035();
    let mut cfg = merlin_server::ServerConfig {
        batch: BatchConfig {
            artifacts_dir: Some(PathBuf::from("artifacts")),
            jobs: 1,
            // The daemon has no post-batch minimization pass.
            minimize: false,
            ..BatchConfig::default()
        },
        ..merlin_server::ServerConfig::default()
    };
    let mut policy = PolicyOpts::default();
    while let Some(arg) = args.next() {
        if let Some(result) = policy.consume(&arg, &mut args, &mut cfg.batch) {
            if let Err(e) = result {
                return fail(e);
            }
            continue;
        }
        let parsed: Result<(), String> = match arg.as_str() {
            "--addr" => args.value_for("--addr").map(|v| cfg.addr = v),
            "--data-dir" => args
                .value_for("--data-dir")
                .map(|v| cfg.data_dir = v.into()),
            "--capacity" => args.parsed("--capacity").map(|v| cfg.capacity = v),
            "--jobs" => args
                .parsed("--jobs")
                .map(|v: usize| cfg.batch.jobs = v.max(1)),
            "--capture-traces" => args
                .parsed("--capture-traces")
                .map(|v| cfg.capture_traces = v),
            "--watch-buffer" => args
                .parsed("--watch-buffer")
                .map(|v: usize| cfg.watch_buffer = v.max(1)),
            other => Err(format!("unknown serve flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    match merlin_server::run_server(cfg, &tech) {
        Ok(summary) => {
            eprintln!(
                "serve: drained after {} admitted, {} completed, {} recovered{}",
                summary.admitted,
                summary.completed,
                summary.recovered,
                if summary.sealed {
                    " (journal sealed)"
                } else {
                    ""
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(e),
    }
}

fn cmd_submit(mut args: Args) -> ExitCode {
    let tech = Technology::synthetic_035();
    let mut files: Vec<String> = Vec::new();
    let mut gen = 0usize;
    let mut sinks = 8usize;
    let mut seed = 1u64;
    let mut addr: Option<String> = None;
    let mut data_dir = PathBuf::from("merlin-server-data");
    let mut start_id = 0u64;
    let mut deadline_ms: Option<u64> = None;
    let mut wait = true;
    let mut connect_timeout = Duration::from_millis(30_000);
    while let Some(arg) = args.next() {
        let parsed: Result<(), String> = match arg.as_str() {
            "--gen" => args.parsed("--gen").map(|v| gen = v),
            "--sinks" => args.parsed("--sinks").map(|v| sinks = v),
            "--seed" => args.parsed("--seed").map(|v| seed = v),
            "--addr" => args.value_for("--addr").map(|v| addr = Some(v)),
            "--data-dir" => args.value_for("--data-dir").map(|v| data_dir = v.into()),
            "--start-id" => args.parsed("--start-id").map(|v| start_id = v),
            "--deadline-ms" => args.parsed("--deadline-ms").map(|v| deadline_ms = Some(v)),
            "--no-wait" => {
                wait = false;
                Ok(())
            }
            "--connect-timeout-ms" => args
                .parsed("--connect-timeout-ms")
                .map(|v: u64| connect_timeout = Duration::from_millis(v)),
            other if !other.starts_with("--") => {
                files.push(other.to_owned());
                Ok(())
            }
            other => Err(format!("unknown submit flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    let nets = match build_nets(&files, gen, sinks, seed, &tech) {
        Ok(nets) => nets,
        Err(e) => return fail(e),
    };
    let addr = match resolve_addr(addr, &data_dir) {
        Ok(a) => a,
        Err(e) => return fail(e),
    };
    let mut client = match merlin_server::Client::connect(&addr, connect_timeout) {
        Ok(c) => c,
        Err(e) => return fail(format!("cannot connect to {addr}: {e}")),
    };
    let mut terminal = 0usize;
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for (i, net) in nets.iter().enumerate() {
        let id = start_id + i as u64;
        let line = merlin_server::client::submit_line(id, &io::write_net(net), deadline_ms, wait);
        let sent = std::time::Instant::now();
        let raw = match client.request(&line) {
            Ok(r) => r,
            Err(e) => return fail(format!("job {id}: {e}")),
        };
        let elapsed_ms = u64::try_from(sent.elapsed().as_millis()).unwrap_or(u64::MAX);
        let response = match merlin_server::json::parse(&raw) {
            Ok(v) => v,
            Err(e) => return fail(format!("job {id}: unparseable response `{raw}`: {e}")),
        };
        let kind = response
            .get("type")
            .and_then(merlin_server::json::Json::as_str)
            .unwrap_or("?");
        match kind {
            "done" => {
                terminal += 1;
                let (status, tier) = response
                    .get("record")
                    .map(|r| {
                        (
                            r.get("status")
                                .and_then(merlin_server::json::Json::as_str)
                                .unwrap_or("?")
                                .to_owned(),
                            r.get("tier")
                                .and_then(merlin_server::json::Json::as_str)
                                .unwrap_or("?")
                                .to_owned(),
                        )
                    })
                    .unwrap_or_else(|| ("?".to_owned(), "?".to_owned()));
                println!("job {id}: done {status} ({tier}) in {elapsed_ms} ms");
            }
            "accepted" => {
                accepted += 1;
                println!("job {id}: accepted");
            }
            "overloaded" => {
                rejected += 1;
                let hint = response
                    .get("retry_after_ms")
                    .and_then(merlin_server::json::Json::as_u64)
                    .unwrap_or(0);
                println!("job {id}: overloaded (retry after {hint} ms)");
            }
            "deadline-exceeded" => {
                rejected += 1;
                terminal += 1;
                println!("job {id}: deadline-exceeded");
            }
            other => {
                rejected += 1;
                println!("job {id}: {other}: {raw}");
            }
        }
    }
    eprintln!(
        "submit: {} jobs, {terminal} terminal, {accepted} accepted, {rejected} rejected",
        nets.len()
    );
    if rejected == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_status(mut args: Args) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut data_dir = PathBuf::from("merlin-server-data");
    let mut id: Option<u64> = None;
    let mut want_report = false;
    let mut report_path: Option<PathBuf> = None;
    let mut svg_id: Option<u64> = None;
    let mut svg_out: Option<PathBuf> = None;
    let mut trace_id: Option<u64> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut want_stats = false;
    let mut want_drain = false;
    let mut connect_timeout = Duration::from_millis(30_000);
    while let Some(arg) = args.next() {
        let parsed: Result<(), String> = match arg.as_str() {
            "--addr" => args.value_for("--addr").map(|v| addr = Some(v)),
            "--data-dir" => args.value_for("--data-dir").map(|v| data_dir = v.into()),
            "--id" => args.parsed("--id").map(|v| id = Some(v)),
            "--report" => {
                want_report = true;
                // Optional value: a following non-flag token is the path.
                if let Some(next) = args.args.get(args.pos) {
                    if !next.starts_with("--") {
                        report_path = Some(next.clone().into());
                        args.pos += 1;
                    }
                }
                Ok(())
            }
            "--svg-id" => args.parsed("--svg-id").and_then(|v| {
                svg_id = Some(v);
                args.value_for("--svg-id PATH")
                    .map(|p| svg_out = Some(p.into()))
            }),
            "--trace-id" => args.parsed("--trace-id").and_then(|v| {
                trace_id = Some(v);
                args.value_for("--trace-id PATH")
                    .map(|p| trace_out = Some(p.into()))
            }),
            "--stats" => {
                want_stats = true;
                Ok(())
            }
            "--drain" => {
                want_drain = true;
                Ok(())
            }
            "--connect-timeout-ms" => args
                .parsed("--connect-timeout-ms")
                .map(|v: u64| connect_timeout = Duration::from_millis(v)),
            other => Err(format!("unknown status flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    let (_addr, mut client) = match observer_connect(addr, &data_dir, connect_timeout) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let mut run = |line: String| -> Result<merlin_server::json::Json, String> {
        let raw = client.request(&line).map_err(|e| e.to_string())?;
        merlin_server::json::parse(&raw).map_err(|e| format!("unparseable response `{raw}`: {e}"))
    };
    if let Some(id) = id {
        match run(merlin_server::client::status_line(id)) {
            Ok(v) => println!("{}", v.render()),
            Err(e) => return fail(e),
        }
    }
    if want_report {
        let report = match run(merlin_server::client::report_line()) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let Some(text) = report
            .get("text")
            .and_then(merlin_server::json::Json::as_str)
        else {
            return fail(format!("report request failed: {}", report.render()));
        };
        match &report_path {
            Some(path) => {
                if let Err(e) = std::fs::write(path, text) {
                    return fail(format!("cannot write {}: {e}", path.display()));
                }
            }
            None => print!("{text}"),
        }
    }
    if let Some(svg_id) = svg_id {
        let Some(out) = svg_out else {
            return fail("--svg-id needs an output PATH");
        };
        let svg = match run(merlin_server::client::svg_line(svg_id)) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let Some(body) = svg.get("svg").and_then(merlin_server::json::Json::as_str) else {
            return fail(format!("svg request failed: {}", svg.render()));
        };
        if let Err(e) = std::fs::write(&out, body) {
            return fail(format!("cannot write {}: {e}", out.display()));
        }
        println!("svg written to {}", out.display());
    }
    if let Some(trace_id) = trace_id {
        let Some(out) = trace_out else {
            return fail("--trace-id needs an output PATH");
        };
        let trace = match run(merlin_server::client::trace_line(trace_id)) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };
        let Some(jsonl) = trace
            .get("jsonl")
            .and_then(merlin_server::json::Json::as_str)
        else {
            return fail(format!("trace request failed: {}", trace.render()));
        };
        if let Err(e) = std::fs::write(&out, jsonl) {
            return fail(format!("cannot write {}: {e}", out.display()));
        }
        println!("trace written to {}", out.display());
    }
    if want_drain {
        match run(merlin_server::client::drain_line()) {
            Ok(v) => println!("{}", v.render()),
            Err(e) => return fail(e),
        }
    }
    if want_stats
        || (id.is_none() && !want_report && svg_id.is_none() && trace_id.is_none() && !want_drain)
    {
        match run(merlin_server::client::stats_line()) {
            Ok(v) => println!("{}", v.render()),
            Err(e) => return fail(e),
        }
    }
    ExitCode::SUCCESS
}

fn cmd_metrics(mut args: Args) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut data_dir = PathBuf::from("merlin-server-data");
    let mut interval: Option<u64> = None;
    let mut connect_timeout = Duration::from_millis(5_000);
    while let Some(arg) = args.next() {
        let parsed: Result<(), String> = match arg.as_str() {
            "--addr" => args.value_for("--addr").map(|v| addr = Some(v)),
            "--data-dir" => args.value_for("--data-dir").map(|v| data_dir = v.into()),
            "--interval" => args.parsed("--interval").map(|v: u64| {
                interval = Some(v.max(1));
            }),
            "--connect-timeout-ms" => args
                .parsed("--connect-timeout-ms")
                .map(|v: u64| connect_timeout = Duration::from_millis(v)),
            other => Err(format!("unknown metrics flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    let (addr, mut client) = match observer_connect(addr, &data_dir, connect_timeout) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    loop {
        let raw = match client.request(&merlin_server::client::metrics_line()) {
            Ok(r) => r,
            // Mid-refresh loss of the daemon (it drained, say) is the
            // same condition as never reaching it.
            Err(e) => return fail_unreachable(format!("lost connection to {addr}: {e}")),
        };
        let response = match merlin_server::json::parse(&raw) {
            Ok(v) => v,
            Err(e) => return fail(format!("unparseable response `{raw}`: {e}")),
        };
        let Some(text) = response
            .get("text")
            .and_then(merlin_server::json::Json::as_str)
        else {
            return fail(format!("metrics request failed: {}", response.render()));
        };
        let Some(secs) = interval else {
            print!("{text}");
            return ExitCode::SUCCESS;
        };
        // Top-style refresh: clear, home, header, snapshot.
        print!("\x1b[2J\x1b[H");
        println!("merlin metrics @ {addr} (refreshing every {secs}s, ctrl-c to quit)");
        print!("{text}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(Duration::from_secs(secs));
    }
}

fn cmd_watch(mut args: Args) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut data_dir = PathBuf::from("merlin-server-data");
    let mut connect_timeout = Duration::from_millis(5_000);
    while let Some(arg) = args.next() {
        let parsed: Result<(), String> = match arg.as_str() {
            "--addr" => args.value_for("--addr").map(|v| addr = Some(v)),
            "--data-dir" => args.value_for("--data-dir").map(|v| data_dir = v.into()),
            "--connect-timeout-ms" => args
                .parsed("--connect-timeout-ms")
                .map(|v: u64| connect_timeout = Duration::from_millis(v)),
            other => Err(format!("unknown watch flag {other}")),
        };
        if let Err(e) = parsed {
            return fail(e);
        }
    }
    let (addr, mut client) = match observer_connect(addr, &data_dir, connect_timeout) {
        Ok(pair) => pair,
        Err(code) => return code,
    };
    let raw = match client.request(&merlin_server::client::watch_line()) {
        Ok(r) => r,
        Err(e) => return fail_unreachable(format!("lost connection to {addr}: {e}")),
    };
    let ack = match merlin_server::json::parse(&raw) {
        Ok(v) => v,
        Err(e) => return fail(format!("unparseable response `{raw}`: {e}")),
    };
    if ack.get("type").and_then(merlin_server::json::Json::as_str) != Some("watch") {
        return fail(format!("watch request failed: {}", ack.render()));
    }
    let buffer = ack
        .get("buffer")
        .and_then(merlin_server::json::Json::as_u64)
        .unwrap_or(0);
    // Diagnostics on stderr; the event stream alone owns stdout so it
    // can be piped into `jq` or a file.
    eprintln!("watch: streaming events from {addr} (buffer {buffer}); ctrl-c to stop");
    loop {
        match client.read_line() {
            Ok(Some(line)) => println!("{line}"),
            Ok(None) => {
                eprintln!("watch: the daemon drained; stream closed");
                return ExitCode::SUCCESS;
            }
            Err(e) => return fail_unreachable(format!("lost connection to {addr}: {e}")),
        }
    }
}
