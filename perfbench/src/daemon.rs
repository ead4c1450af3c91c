//! `daemon-open`: a fresh `merlin_cli serve --jobs 1` on an empty data
//! directory under open-loop load. One process, two connections: one
//! sends `submit` with `wait:false` on a seeded Poisson schedule at a
//! fixed absolute rate, the other is a `watch` event stream.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use merlin_resilience::journal::{JournalRecord, RecordStatus};
use merlin_server::client::{drain_line, report_line, submit_line, watch_line};
use merlin_server::json::{parse, Json};
use merlin_server::Client;
use merlin_supervisor::JournalWriter;

use crate::inputs::{arrivals, set_up, Input, Setup};
use crate::layers::{counter_diff, counter_metrics};
use crate::report::Outcome;
use crate::solver::{compare_hashes, verify_all};
use crate::stats::{mean, median, nearest_rank, sorted, Digest};
use crate::{sys, Run};

/// Offered load in jobs per second: it keeps the solver worker about
/// 35 % busy (see README).
const RATE_PER_S: f64 = 1.5;
/// Jobs per run, at least: the load then runs 33 s, and p80, the highest
/// percentile with ten samples beyond it, is the per-layer tail.
const MIN_JOBS: usize = 50;
/// Sinks per job's net. A few 5-sink jobs made the p90 and the daemon's
/// peak RSS depend on where they fell in the schedule (see README).
const SINKS: usize = 4;
/// Timed daemon spawns per set-up (after one untimed warm-up);
/// `setup_s` is their median.
const SPAWNS: usize = 5;
/// Every this-many-th job is re-solved to check the served outcome.
const VERIFY_EVERY: usize = 1;
/// The run is invalid when the generator sends a job later than this
/// share of the mean interarrival time.
const MAX_LAG_SHARE: f64 = 0.5;
/// Solver workers in the daemon. One leaves the host's second vCPU to the
/// daemon's other threads and the load generator; with two, the workers
/// slowed each other whenever their jobs overlapped, and the median
/// service time spread by 0.30 between seeds.
const WORKERS: usize = 1;
/// Threads for the (untimed) verification re-solves.
const VERIFY_THREADS: usize = 2;

/// A running daemon; killed if dropped without a clean drain.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

impl Daemon {
    /// Spawns `serve` on a fresh data directory and returns once it has
    /// published its address, with the time that took.
    fn spawn(cli: &Path, data: &Path) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let child = Command::new(cli)
            .args([
                "serve",
                "--jobs",
                &WORKERS.to_string(),
                "--addr",
                "127.0.0.1:0",
                "--data-dir",
            ])
            .arg(data)
            .arg("--artifacts")
            .arg(data.join("artifacts"))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", cli.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let addr_file = data.join("server.addr");
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_owned();
                    return Ok((daemon, start.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status})"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not publish its address within 30 s".to_owned());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Drains the daemon and waits for it to exit; a non-zero exit is an
    /// error.
    fn drain(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.addr, Duration::from_secs(5))
            .map_err(|e| format!("cannot connect to drain: {e}"))?;
        client
            .request(&drain_line())
            .map_err(|e| format!("drain request failed: {e}"))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status} after drain")),
                Ok(None) if start.elapsed() > Duration::from_secs(60) => {
                    return Err("daemon did not exit within 60 s of drain".to_owned())
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
    }
}

/// What the load generator saw of one job.
#[derive(Clone, Debug, Default)]
struct Job {
    sent: Option<Instant>,
    /// When the submit response arrived, and whether it was `accepted`.
    ack: Option<(Instant, bool)>,
    queued: Option<Instant>,
    started: Option<Instant>,
    done: Option<Instant>,
    served_merlin: bool,
    served: bool,
    retried: bool,
    rejected: bool,
    service_ms: Option<f64>,
}

impl Job {
    fn terminal(&self) -> bool {
        self.done.is_some() || self.rejected || self.ack.is_some_and(|(_, ok)| !ok)
    }
}

enum Msg {
    Sent(usize, Instant),
    Ack(usize, Instant, bool),
    Event(Instant, Json),
    Closed,
}

fn lines(stream: TcpStream) -> impl Iterator<Item = String> {
    BufReader::new(stream).lines().map_while(Result::ok)
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))
}

struct Load {
    jobs: Vec<Job>,
    start: Instant,
    due: Vec<f64>,
}

/// Runs the open loop: sends every job at its due time and collects the
/// submit responses and watch events until every job is terminal.
fn drive(addr: &str, inputs: &[Input], due: Vec<f64>) -> Result<Load, String> {
    let mut watch = connect(addr)?;
    watch
        .write_all(format!("{}\n", watch_line()).as_bytes())
        .map_err(|e| format!("watch request failed: {e}"))?;
    let mut watch_lines = lines(watch.try_clone().map_err(|e| e.to_string())?);
    watch_lines.next().ok_or("watch was not acknowledged")?;
    let submit = connect(addr)?;
    let submit_reader = submit.try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let count = inputs.len();
    let mut jobs = vec![Job::default(); count];
    std::thread::scope(|scope| -> Result<(), String> {
        let events = tx.clone();
        scope.spawn(move || {
            for line in watch_lines {
                if let Ok(json) = parse(&line) {
                    let _ = events.send(Msg::Event(Instant::now(), json));
                }
            }
            let _ = events.send(Msg::Closed);
        });
        let acks = tx.clone();
        scope.spawn(move || {
            for (k, line) in lines(submit_reader).enumerate() {
                let ok = parse(&line)
                    .ok()
                    .and_then(|j| {
                        j.get("type")
                            .and_then(Json::as_str)
                            .map(|t| t == "accepted")
                    })
                    .unwrap_or(false);
                let _ = acks.send(Msg::Ack(k, Instant::now(), ok));
            }
        });
        let sends = tx;
        let due_ref = &due;
        let mut writer = submit.try_clone().map_err(|e| e.to_string())?;
        scope.spawn(move || {
            for (k, input) in inputs.iter().enumerate() {
                let at = start + Duration::from_secs_f64(due_ref[k]);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let line = format!("{}\n", submit_line(k as u64, &input.text, None, false));
                let sent = Instant::now();
                if writer.write_all(line.as_bytes()).is_err() {
                    break;
                }
                let _ = sends.send(Msg::Sent(k, sent));
            }
        });
        let deadline = start + Duration::from_secs_f64(due.last().copied().unwrap_or(0.0) + 120.0);
        let mut open = count;
        while open > 0 {
            let left = deadline.saturating_duration_since(Instant::now());
            let msg = match rx.recv_timeout(left) {
                Ok(msg) => msg,
                Err(_) => break,
            };
            let k = match &msg {
                Msg::Sent(k, _) | Msg::Ack(k, _, _) => *k,
                Msg::Event(_, json) => {
                    json.get("id").and_then(Json::as_u64).unwrap_or(u64::MAX) as usize
                }
                Msg::Closed => break,
            };
            let Some(job) = jobs.get_mut(k) else { continue };
            let was_terminal = job.terminal();
            match msg {
                Msg::Sent(_, at) => job.sent = Some(at),
                Msg::Ack(_, at, ok) => job.ack = Some((at, ok)),
                Msg::Event(at, json) => {
                    let field = |name: &str| {
                        json.get(name)
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned()
                    };
                    match field("event").as_str() {
                        "queued" => job.queued = Some(at),
                        "started" => job.started = Some(at),
                        "retried" => job.retried = true,
                        "rejected" => job.rejected = true,
                        "done" => {
                            job.done = Some(at);
                            job.served = field("status") == RecordStatus::Served.label();
                            job.served_merlin = job.served && field("tier") == "merlin";
                            job.service_ms = json
                                .get("service_ms")
                                .and_then(Json::as_u64)
                                .map(|v| v as f64);
                        }
                        _ => {}
                    }
                }
                Msg::Closed => {}
            }
            if !was_terminal && job.terminal() {
                open -= 1;
            }
        }
        // Unblock the reader threads so the scope can end.
        let _ = submit.shutdown(Shutdown::Both);
        let _ = watch.shutdown(Shutdown::Both);
        Ok(())
    })?;
    Ok(Load { jobs, start, due })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon's records by job id, from its `report` response.
fn recorded_hashes(
    addr: &str,
    count: usize,
) -> Result<(Vec<Option<u64>>, String, Vec<JournalRecord>), String> {
    let mut client = Client::connect(addr, Duration::from_secs(5)).map_err(|e| e.to_string())?;
    let response = client.request(&report_line()).map_err(|e| e.to_string())?;
    let text = parse(&response)?
        .get("text")
        .and_then(Json::as_str)
        .ok_or("report response has no text")?
        .to_owned();
    let records: Vec<JournalRecord> = text
        .lines()
        .filter_map(|l| JournalRecord::decode(l).ok())
        .collect();
    let mut hashes = vec![None; count];
    for r in &records {
        if let Some(slot) = hashes.get_mut(r.idx as usize) {
            *slot = (r.status == RecordStatus::Served).then_some(r.hash);
        }
    }
    Ok((hashes, text, records))
}

pub fn run(run: &Run, out: &mut Outcome) -> Result<(), String> {
    let cli = crate::merlin_cli()?;
    let count = MIN_JOBS.max((RATE_PER_S * run.seconds.as_secs_f64()).ceil() as usize);
    let sinks = vec![SINKS; count];

    // Set-up: inputs plus a daemon on a fresh data directory, once to
    // warm up and then SPAWNS timed times; the last daemon serves the
    // run, the others drain and must exit 0.
    let mut setups: Vec<f64> = Vec::new();
    let mut kept: Option<(Setup, Daemon)> = None;
    for i in 0..=SPAWNS {
        let setup = set_up(run.seed, "d", &sinks);
        let data: PathBuf = run.work.join(format!("data-{i}"));
        let (daemon, took) = Daemon::spawn(&cli, &data)?;
        if i > 0 {
            setups.push(setup.total_s + took);
        }
        if let Some((_, previous)) = kept.replace((setup, daemon)) {
            previous.drain()?;
        }
    }
    out.set("setup_s", median(&setups));
    let (setup, daemon) = kept.ok_or("no daemon was started")?;
    let pid = daemon.child.id();

    let due = arrivals(run.seed, count, RATE_PER_S);
    let load = drive(&daemon.addr, &setup.inputs, due)?;
    let cpu_s = sys::cpu_seconds(Some(pid));
    let peak = sys::peak_rss_mb(Some(pid));
    let (hashes, report_text, records) = recorded_hashes(&daemon.addr, count)?;
    daemon.drain()?;

    // Open-loop honesty: how late the generator ran.
    let lag_ms = load
        .jobs
        .iter()
        .zip(&load.due)
        .filter_map(|(j, &d)| j.sent.map(|s| ms(s - load.start) - d * 1e3))
        .fold(0.0f64, f64::max);
    let limit_ms = MAX_LAG_SHARE * 1e3 / RATE_PER_S;
    if lag_ms > limit_ms {
        out.problem(format!(
            "run invalid: the generator ran {lag_ms:.1} ms late (limit {limit_ms:.1} ms)"
        ));
    }

    // Output check on every VERIFY_EVERY-th job.
    let sample: Vec<usize> = (0..count).step_by(VERIFY_EVERY).collect();
    let sample_inputs: Vec<&Input> = sample.iter().map(|&k| &setup.inputs[k]).collect();
    let (verified, mut layers) =
        verify_all(&sample_inputs, &setup.tech, VERIFY_THREADS, run.traced);
    let names: Vec<&str> = sample_inputs.iter().map(|i| i.net.name.as_str()).collect();
    let sample_hashes: Vec<Option<u64>> = sample.iter().map(|&k| hashes[k]).collect();
    let mut verdict: HashMap<usize, Result<(), String>> = sample
        .iter()
        .copied()
        .zip(compare_hashes(&verified, &sample_hashes, &names))
        .collect();
    for (k, job) in load.jobs.iter().enumerate() {
        let served = if job.served {
            Ok(())
        } else if job.terminal() {
            Err(format!("job {k} was refused or failed"))
        } else {
            Err(format!("job {k} never finished"))
        };
        out.check(served.and_then(|()| verdict.remove(&k).unwrap_or(Ok(()))));
    }
    let mut digest = Digest::default();
    for v in verified.iter().flatten() {
        digest.net(v.req_ps, v.area, v.tier.label());
    }
    digest.bytes(report_text.as_bytes());

    let latency: Vec<f64> = load
        .jobs
        .iter()
        .zip(&load.due)
        .map(|(j, &d)| match j.done {
            Some(done) if j.served => ms(done - load.start) - d * 1e3,
            _ => f64::INFINITY,
        })
        .collect();
    let done: Vec<&Job> = load.jobs.iter().filter(|j| j.done.is_some()).collect();
    let last_done = done
        .iter()
        .filter_map(|j| j.done)
        .max()
        .unwrap_or(load.start);
    println!(
        "daemon: {count} jobs at {RATE_PER_S}/s, {} done; generator lag max {lag_ms:.2} ms (limit {limit_ms:.1} ms); \
         daemon CPU {:.2} s",
        done.len(),
        cpu_s.unwrap_or(0.0)
    );
    println!(
        "digest: {:016x} over {} verified jobs and the daemon's report",
        digest.value(),
        sample.len()
    );

    if !run.traced {
        let lat = sorted(&latency);
        let ok: Vec<_> = verified.iter().flatten().collect();
        let service: Vec<f64> = done.iter().filter_map(|j| j.service_ms).collect();
        out.set_all([
            (
                "nets_per_s",
                done.len() as f64 / (last_done - load.start).as_secs_f64(),
            ),
            ("solve_ms_p50", median(&service)),
            (
                "proc_nets_per_s",
                done.len() as f64 / cpu_s.unwrap_or(0.0).max(1e-3),
            ),
            ("submit_ms_p50", nearest_rank(&lat, 50.0)),
            (
                "merlin_share",
                load.jobs.iter().filter(|j| j.served_merlin).count() as f64 / count as f64,
            ),
            (
                "req_ps_mean",
                mean(&ok.iter().map(|v| v.req_ps).collect::<Vec<_>>()),
            ),
            (
                "buffer_area_mean",
                mean(&ok.iter().map(|v| v.area as f64).collect::<Vec<_>>()),
            ),
            ("peak_rss_mb", peak.unwrap_or(0.0)),
        ]);
        return Ok(());
    }

    // Counter self-check: the first sampled net, traced twice alone.
    let first = [sample_inputs[0]];
    let a = verify_all(&first, &setup.tech, 1, true).1.counters;
    let b = verify_all(&first, &setup.tech, 1, true).1.counters;
    for line in counter_diff(&a, &b) {
        out.problem(format!("counter self-check: {line}"));
    }
    let mut writer = JournalWriter::create(&run.work.join("replay.journal"))
        .map_err(|e| format!("cannot create the replay journal: {e}"))?;
    for record in &records {
        let start = Instant::now();
        writer
            .append(record)
            .map_err(|e| format!("journal replay failed: {e}"))?;
        layers.add("supervisor.journal_ms", start.elapsed());
    }
    let span = |from: fn(&Job) -> Option<Instant>, to: fn(&Job) -> Option<Instant>| {
        sorted(
            &load
                .jobs
                .iter()
                .filter_map(|j| Some(ms(to(j)?.checked_duration_since(from(j)?)?)))
                .collect::<Vec<_>>(),
        )
    };
    let admit = span(|j| j.sent, |j| j.ack.filter(|a| a.1).map(|a| a.0));
    let queue = span(|j| j.queued, |j| j.started);
    let service = sorted(
        &load
            .jobs
            .iter()
            .filter_map(|j| j.service_ms)
            .collect::<Vec<_>>(),
    );
    let finished: Vec<f64> = latency.iter().copied().filter(|l| l.is_finite()).collect();
    let n = count as f64;
    out.set_all(counter_metrics(&layers.counters, sample.len()));
    out.set_all([
        ("netlist.gen_ms", setup.gen_s * 1e3 / n),
        ("netlist.io_ms", setup.io_s * 1e3 / n),
        ("resilience.solve_ms", layers.mean_ms("resilience.solve_ms")),
        (
            "supervisor.journal_ms",
            layers.mean_ms("supervisor.journal_ms"),
        ),
        (
            "supervisor.attempts",
            records.iter().map(|r| f64::from(r.attempts)).sum(),
        ),
        (
            "server.submit_ms_p80",
            nearest_rank(&sorted(&latency), 80.0),
        ),
        ("server.admit_ms_p50", nearest_rank(&admit, 50.0)),
        ("server.queue_wait_ms_p50", nearest_rank(&queue, 50.0)),
        ("server.queue_wait_ms_p80", nearest_rank(&queue, 80.0)),
        ("server.service_ms_p50", nearest_rank(&service, 50.0)),
        ("server.service_ms_p80", nearest_rank(&service, 80.0)),
        (
            "server.shed",
            load.jobs
                .iter()
                .filter(|j| j.served && !j.served_merlin && !j.retried)
                .count() as f64,
        ),
        (
            "server.rejected",
            load.jobs
                .iter()
                .filter(|j| j.rejected || j.ack.is_some_and(|a| !a.1))
                .count() as f64,
        ),
        ("gen.lag_ms_max", lag_ms),
        // The daemon is never traced; its layers are observed from the
        // client side.
        ("trace.overhead_share", 0.0),
        (
            "trace.coverage_share",
            (queue.iter().sum::<f64>() + service.iter().sum::<f64>())
                / finished.iter().sum::<f64>(),
        ),
    ]);
    crate::write_layer_table(run, &layers, out);
    Ok(())
}
