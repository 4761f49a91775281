//! `serve-routed`: an open loop of annealing jobs over loopback TCP into
//! `Cluster::serve` (k = 1, journal on), routed over `TcpLink` to two
//! `Frontend::serve` backends with one worker each.
//!
//! Each job is one SAIM iteration shipped over the wire: the Table I
//! penalty QUBO of a QKP instance shifted by a λ taken from a real SAIM
//! trajectory, solved by a 1- or 4-replica ensemble. The frame limits stay
//! at their defaults (1 MiB), which is why no QKP-300 frame is sent: it
//! does not fit (see `frame_limit` in the report).

use crate::common::{self, Args, Case, SetupSampler};
use crate::report::{obj, text, Report, Value};
use crate::saim::solve_metrics;
use crate::stats::{self, JobTimes, Rung};
use crate::trace::{LinkLog, SolveSpan, TimedLink, TimedSolver};
use saim_core::{presets, ConstrainedProblem, SaimRunner};
use saim_knapsack::{generate, QkpEncoded};
use saim_machine::cluster::{BackendLink, Cluster, ClusterConfig, ClusterReport, TcpLink};
use saim_machine::frontend::{Frontend, FrontendConfig, Request, Response};
use saim_machine::service::{JobOutcome, JobSpec, SolverSpec};
use saim_machine::{derive_seed, new_rng, EnsembleAnnealer, PbitMachine};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Instances per size: mostly n = 100, a minority of n = 200.
const SIZES: [(usize, usize); 2] = [(100, 6), (200, 2)];
/// λ points (SAIM iterations) served per instance of each size.
const POINTS: [usize; 2] = [4, 2];
/// SAIM iterations run in set-up to obtain each instance's λ trajectory.
const TRAJECTORY: usize = 24;
/// The offered rate the latency metrics are read at, jobs/s: the first
/// rungs of the ladder, well below the routed fleet's capacity.
pub const REFERENCE_RATE: f64 = 20.0;
/// The reference rate is sent in this many back-to-back segments. The
/// tail rule reads the slowest ten jobs, and a host stall of a second or
/// two delays more than ten, so one stall would set the tail of a single
/// long rung; the median of the segments' tails skips a stall in one.
const REFERENCE_SEGMENTS: usize = 3;
/// Share of `--seconds` each reference segment sends for; its tail needs
/// the samples.
const SEGMENT_SHARE: f64 = 0.4;
/// The rungs above the reference, jobs/s, about 12 % apart. On a 2-core
/// host the routed fleet saturates near 45–80 jobs/s, so the climb
/// crosses it in the middle of the ladder, and goodput follows capacity
/// in steps of one rung. The climb stops after two failing rungs in a row
/// (`stats::climb_over`).
pub const CLIMB: [f64; 12] = [
    34.0, 38.0, 42.0, 47.0, 53.0, 59.0, 66.0, 74.0, 83.0, 93.0, 104.0, 116.0,
];
/// Jobs each climbing rung sends, so every rung is judged on as many
/// samples whatever its rate. Near capacity the queue wanders like a
/// random walk, and its backlog slope over N jobs scatters by about
/// sqrt(2/N): 72 jobs keep that near 0.17, against 0.2 at 48.
const CLIMB_JOBS: f64 = 72.0;
/// The tail-latency limit a ladder rung must meet, ms. `BENCHMARK.json`
/// states it in the workload's `why`.
pub const P99_LIMIT_MS: f64 = 250.0;
/// Consecutive missed 25 ms health probes before the router's breaker
/// trips a backend `Down`. At the default, 3, CPU contention from outside
/// the process can starve a healthy backend's probe replies for 75 ms; the
/// router then re-routes its jobs and drops their late outcomes as
/// duplicates, which fails the run's checks. 40 rides out stalls up to
/// about a second, so the workload times serving rather than the host's
/// scheduler. The finding is recorded in the report (`breaker`).
const DOWN_AFTER_MISSES: u32 = 40;
/// Longest wait for a rung's stragglers after its last send.
const DRAIN: Duration = Duration::from_secs(30);
/// A job id that cannot occur, marking where each pre-encoded Submit
/// line takes its real id.
const SENTINEL: u64 = 987_654_321_987_654_321;

/// A served job template: its spec, its pre-encoded Submit line split
/// around the job id, and the oracle outcome.
struct Template {
    instance: usize,
    spec: JobSpec,
    head: Vec<u8>,
    tail: Vec<u8>,
    oracle: JobOutcome,
}

impl Template {
    /// The whole Submit line for `job`, newline included.
    fn line(&self, job: u64) -> Vec<u8> {
        let mut v = self.head.clone();
        v.extend_from_slice(job.to_string().as_bytes());
        v.extend_from_slice(&self.tail);
        v
    }
}

/// Everything the set-up produces.
struct Pool {
    cases: Vec<Case<QkpEncoded>>,
    templates: Vec<Template>,
}

/// The served pool: instances, λ points, job seeds and oracles all come from
/// the fixed QKP family; `--seed` drives the arrival schedule and the order
/// jobs are dealt in.
fn build_pool(report: &mut Report) -> Pool {
    let seed = common::QKP_FAMILY;
    let preset = presets::qkp();
    let mut cases = Vec::new();
    let mut templates = Vec::new();
    for (&(n, count), &points) in SIZES.iter().zip(&POINTS) {
        for _ in 0..count {
            let i = cases.len();
            let instance =
                generate::qkp(n, common::QKP_DENSITY, derive_seed(seed, 3000 + i as u64))
                    .expect("valid generator parameters");
            let (reference, ok) = common::qkp_reference(&instance);
            report.check(ok && reference > 0, || "QKP reference infeasible".into());
            let enc = instance.encode().expect("generated instances encode");
            let mut config = preset.config_for(&enc, 1.0, derive_seed(seed, 3100 + i as u64));
            config.iterations = TRAJECTORY;
            let trajectory = SaimRunner::new(config)
                .run(&enc, preset.solver(derive_seed(config.seed, 1)))
                .records;
            for p in 0..points {
                // the later half of the trajectory, where λ has moved
                let k = TRAJECTORY - 1 - p * (TRAJECTORY / 2) / points;
                let model = common::lagrangian_qubo(&enc, config.penalty, &trajectory[k].lambda);
                let replicas = if p == 3 { 4 } else { 1 };
                let job_seed = derive_seed(seed, 3200 + templates.len() as u64);
                let spec = common::qkp_job(SENTINEL, model, replicas, job_seed);
                let line = common::submit_line(&spec);
                let mark = format!("\"job\":{SENTINEL}");
                let at = line.find(&mark).expect("the spec carries its job id");
                report.check(line.matches(&mark).count() == 1, || {
                    "job id appears more than once in a Submit line".into()
                });
                let cut = at + "\"job\":".len();
                let oracle = JobSpec {
                    job: 0,
                    ..spec.clone()
                }
                .run()
                .canonical();
                let mut tail = line.as_bytes()[cut + SENTINEL.to_string().len()..].to_vec();
                tail.push(b'\n');
                templates.push(Template {
                    instance: i,
                    spec,
                    head: line.as_bytes()[..cut].to_vec(),
                    tail,
                    oracle,
                });
            }
            cases.push(Case {
                label: instance.label().to_string(),
                problem: enc,
                reference,
            });
        }
    }
    // the split lines must reassemble into the spec with its real id
    for t in &templates {
        let line = t.line(42);
        let parsed = Request::from_line(std::str::from_utf8(&line[..line.len() - 1]).unwrap_or(""));
        let ok = matches!(parsed, Ok(Request::Submit { ref spec, .. })
            if *spec == JobSpec { job: 42, ..t.spec.clone() });
        report.check(ok, || {
            "a pre-encoded Submit line does not reassemble".into()
        });
    }
    Pool { cases, templates }
}

/// Two single-worker backends behind a journaled router, all on loopback.
struct Stack {
    frontends: Vec<(Frontend, JoinHandle<()>)>,
    cluster: Cluster,
    router_accept: JoinHandle<()>,
    addr: String,
    journal: PathBuf,
    dir: PathBuf,
}

fn listener() -> (TcpListener, String) {
    let l = TcpListener::bind("127.0.0.1:0").expect("loopback port");
    let addr = l.local_addr().expect("bound listener").to_string();
    (l, addr)
}

fn boot(dir: &Path, log: Option<&Arc<Mutex<LinkLog>>>) -> Stack {
    std::fs::create_dir_all(dir).expect("scratch directory");
    let mut frontends = Vec::new();
    let mut links: Vec<Box<dyn BackendLink>> = Vec::new();
    for b in 0..2 {
        let frontend = Frontend::start(FrontendConfig {
            workers: 1,
            ..FrontendConfig::default()
        });
        let (l, addr) = listener();
        let accept = frontend.serve(l);
        let link: Box<dyn BackendLink> =
            Box::new(TcpLink::connect(&addr).expect("backend accepts on loopback"));
        links.push(match log {
            Some(log) => Box::new(TimedLink::new(link, b, Arc::clone(log))),
            None => link,
        });
        frontends.push((frontend, accept));
    }
    let journal = dir.join("journal.ndjson");
    let (cluster, _recovery) = Cluster::start(
        ClusterConfig {
            journal: Some(journal.clone()),
            down_after_misses: DOWN_AFTER_MISSES,
            ..ClusterConfig::default()
        },
        links,
    )
    .expect("a fresh journal opens");
    let (l, addr) = listener();
    let router_accept = cluster.serve(l);
    Stack {
        frontends,
        cluster,
        router_accept,
        addr,
        journal,
        dir: dir.to_path_buf(),
    }
}

/// Backend counters gathered at teardown.
struct Teardown {
    cluster: ClusterReport,
    backend_rejected: u64,
    journal_bytes: u64,
}

fn teardown(stack: Stack) -> Teardown {
    let journal_bytes = std::fs::metadata(&stack.journal).map_or(0, |m| m.len());
    let cluster = stack.cluster.shutdown();
    let _ = stack.router_accept.join();
    let mut backend_rejected = 0;
    for (b, (frontend, accept)) in stack.frontends.into_iter().enumerate() {
        backend_rejected += frontend.fleet_stats().rejected;
        let _ = frontend.shutdown_to(&stack.dir.join(format!("drain-{b}")));
        let _ = accept.join();
    }
    let _ = std::fs::remove_dir_all(&stack.dir);
    Teardown {
        cluster,
        backend_rejected,
        journal_bytes,
    }
}

/// One scheduled job of the open loop.
#[derive(Clone, Copy)]
struct Planned {
    job: u64,
    template: usize,
    /// Seconds after the rung's start.
    offset: f64,
}

fn plan(seed: u64, rung: usize, rate: f64, span: f64, first_job: u64, pool: usize) -> Vec<Planned> {
    let rung_seed = derive_seed(seed, 4000 + rung as u64);
    // templates are dealt from seeded shuffles of the whole pool, so every
    // rung carries the same mix of sizes and replica counts
    let mut deck: Vec<usize> = Vec::new();
    stats::poisson_offsets(rate, span, rung_seed)
        .into_iter()
        .enumerate()
        .map(|(i, offset)| {
            if deck.is_empty() {
                deck = (0..pool).collect();
                let round = derive_seed(rung_seed, 1 + i as u64);
                deck.sort_by_key(|&t| derive_seed(round, t as u64));
            }
            Planned {
                job: first_job + i as u64,
                template: deck.pop().expect("refilled above"),
                offset,
            }
        })
        .collect()
}

/// Frames as the client received them, with their arrival times.
type Frames = Arc<Mutex<Vec<(Instant, String)>>>;

/// The client: one connection, one sender and one receiver thread.
struct Client {
    writer: TcpStream,
    receiver: JoinHandle<()>,
    frames: Frames,
    terminal: Arc<AtomicUsize>,
}

const TERMINAL_FRAMES: [&str; 4] = [
    "\"frame\":\"outcome\"",
    "\"frame\":\"failure\"",
    "\"frame\":\"overloaded\"",
    "\"frame\":\"rejected\"",
];

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("router accepts on loopback");
        stream.set_nodelay(true).expect("socket option");
        let reader = stream.try_clone().expect("socket clone");
        let terminal = Arc::new(AtomicUsize::new(0));
        let frames = Frames::default();
        let (seen, lines) = (Arc::clone(&terminal), Arc::clone(&frames));
        let receiver = std::thread::spawn(move || {
            let mut reader = BufReader::new(reader);
            loop {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        let at = Instant::now();
                        let terminal = TERMINAL_FRAMES.iter().any(|f| line.contains(f));
                        lines.lock().expect("frame log lock").push((at, line));
                        if terminal {
                            seen.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            }
        });
        Client {
            writer: stream,
            receiver,
            frames,
            terminal,
        }
    }

    /// Sends `plan` on its schedule from a sender thread, then waits for
    /// the rung's terminal frames (or the drain limit). Returns the rung's
    /// start, each job's due and send times, and whether it drained.
    fn rung(&mut self, plan: &[Planned], templates: &[Template]) -> (Instant, Vec<JobTimes>, bool) {
        let before = self.terminal.load(Ordering::SeqCst);
        let mut writer = self.writer.try_clone().expect("socket clone");
        let start = Instant::now();
        let sent: Vec<f64> = std::thread::scope(|s| {
            s.spawn(|| {
                plan.iter()
                    .map(|p| {
                        let due = start + Duration::from_secs_f64(p.offset);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let t = &templates[p.template];
                        let _ = writer
                            .write_all(&t.head)
                            .and_then(|()| writer.write_all(p.job.to_string().as_bytes()))
                            .and_then(|()| writer.write_all(&t.tail));
                        start.elapsed().as_secs_f64()
                    })
                    .collect()
            })
            .join()
            .expect("sender thread")
        });
        let deadline = Instant::now() + DRAIN;
        let mut drained = true;
        while self.terminal.load(Ordering::SeqCst) < before + plan.len() {
            if Instant::now() > deadline {
                drained = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let times = plan
            .iter()
            .zip(sent)
            .map(|(p, sent)| JobTimes {
                due: p.offset,
                sent,
                done: None,
            })
            .collect();
        (start, times, drained)
    }

    /// Every frame received so far.
    fn seen(&self) -> Seen {
        parse_frames(self.frames.lock().expect("frame log lock").clone())
    }

    fn close(self) -> Seen {
        let _ = self.writer.shutdown(Shutdown::Both);
        self.receiver.join().expect("receiver thread");
        parse_frames(std::mem::take(
            &mut *self.frames.lock().expect("frame log lock"),
        ))
    }
}

/// What the client saw for each job, by client job id.
#[derive(Default)]
struct Seen {
    accepted: HashMap<u64, Instant>,
    /// Terminal frames per job: arrival and the outcome (`None` for a
    /// `failure` frame).
    terminal: HashMap<u64, Vec<(Instant, Option<JobOutcome>)>>,
    /// `overloaded` and `rejected` frames, which carry no job id.
    anonymous: Vec<(Instant, String)>,
    unparsed: usize,
}

fn parse_frames(lines: Vec<(Instant, String)>) -> Seen {
    let mut seen = Seen::default();
    for (at, line) in lines {
        match Response::from_line(line.trim_end()) {
            Ok(Response::Accepted { job }) => {
                seen.accepted.insert(job, at);
            }
            Ok(Response::Outcome { outcome }) => {
                seen.terminal
                    .entry(outcome.job)
                    .or_default()
                    .push((at, Some(outcome)));
            }
            Ok(Response::Failure { job, .. }) => {
                seen.terminal.entry(job).or_default().push((at, None));
            }
            Ok(Response::Overloaded { .. }) => seen.anonymous.push((at, "overloaded".into())),
            Ok(Response::Rejected { code, .. }) => seen.anonymous.push((at, code)),
            Ok(Response::Stats { .. }) => {}
            Err(_) => seen.unparsed += 1,
        }
    }
    seen
}

/// One rung as sent: its plan, start, per-job times and drain status.
struct Sent {
    offered: f64,
    plan: Vec<Planned>,
    start: Instant,
    times: Vec<JobTimes>,
    drained: bool,
}

/// Judges every job of a rung against its oracle and fills in its
/// completion time. Returns the measured rung and its failure count.
fn judge(sent: &mut Sent, seen: &Seen, pool: &Pool, report: &mut Report) -> Rung {
    let mut failed = 0u64;
    for (p, t) in sent.plan.iter().zip(sent.times.iter_mut()) {
        let template = &pool.templates[p.template];
        let frames = seen.terminal.get(&p.job).map_or(&[][..], Vec::as_slice);
        let ok = match frames {
            [(at, Some(outcome))] => {
                let expected = JobOutcome {
                    job: p.job,
                    ..template.oracle.clone()
                };
                let right = outcome.canonical() == expected;
                if right {
                    t.done = Some((*at - sent.start).as_secs_f64());
                }
                right
            }
            _ => false,
        };
        report.check(ok, || {
            format!(
                "job {}: {} terminal frame(s){}",
                p.job,
                frames.len(),
                if frames.len() == 1 {
                    ", outcome differs from its oracle"
                } else {
                    ""
                }
            )
        });
        failed += u64::from(!ok);
    }
    let end = sent.start + Duration::from_secs_f64(sent.plan.last().map_or(0.0, |p| p.offset));
    let anonymous = seen
        .anonymous
        .iter()
        .filter(|(at, _)| *at >= sent.start && *at <= end + DRAIN)
        .count() as u64;
    report.count(anonymous, anonymous);
    let latencies: Vec<f64> = sent
        .times
        .iter()
        .filter_map(JobTimes::latency)
        .map(|s| s * 1e3)
        .collect();
    let waits: Vec<(f64, f64)> = sent
        .times
        .iter()
        .filter_map(|t| t.latency().map(|l| (t.due, l)))
        .collect();
    let first = sent.times.first().map_or(0.0, |t| t.due);
    let last = sent
        .times
        .iter()
        .filter_map(|t| t.done)
        .fold(first, f64::max);
    Rung {
        offered: sent.offered,
        achieved: latencies.len() as f64 / (last - first).max(1e-9),
        tail_ms: stats::tail(&latencies, 99.0).map(|t| t.value),
        failed: failed + anonymous + u64::from(!sent.drained),
        backlog_slope: stats::backlog_slope(&waits),
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    PathBuf::from(".perfbench_scratch").join(format!("serve-{}-{tag}", std::process::id()))
}

/// Builds the pool and boots a stack, with the CPU seconds both took.
fn setup(tag: &str) -> (Pool, Report, Stack, f64) {
    let start = crate::cpu::process_seconds();
    let mut report = Report::default();
    let pool = build_pool(&mut report);
    let stack = boot(&scratch_dir(tag), None);
    let secs = crate::cpu::process_seconds() - start;
    (pool, report, stack, secs)
}

/// Set-up seconds of one more pool and stack, torn down after the timing.
fn resetup(tag: &str) -> f64 {
    let (_, _, stack, secs) = setup(tag);
    teardown(stack);
    secs
}

pub fn run(args: &Args) -> Report {
    if args.trace {
        return traced(args);
    }
    let (pool, mut report, stack, setup_s) = setup("u");
    describe(&mut report, &pool);
    // one set-up repetition after every other climbing rung; a serving
    // set-up takes about a second, so the rungs space them out. None runs
    // among the reference segments, which go back to back
    let mut repetition = 0;
    let mut sampler = SetupSampler::new(setup_s, 2, || {
        repetition += 1;
        resetup(&format!("s{repetition}"))
    });
    let mut client = Client::connect(&stack.addr);
    let traffic = Instant::now();
    let traffic_cpu = crate::cpu::process_seconds();
    let mut rungs_sent = Vec::new();
    let mut rungs = Vec::new();
    let mut next_job = 1;
    let mut reference_rss_mb = 0.0;
    let ladder = std::iter::repeat_n(
        (REFERENCE_RATE, SEGMENT_SHARE * args.seconds),
        REFERENCE_SEGMENTS,
    )
    .chain(CLIMB.iter().map(|&rate| (rate, CLIMB_JOBS / rate)));
    for (r, (rate, span)) in ladder.enumerate() {
        let plan = plan(args.seed, r, rate, span, next_job, pool.templates.len());
        next_job += plan.len() as u64;
        let (start, times, drained) = client.rung(&plan, &pool.templates);
        let mut sent = Sent {
            offered: rate,
            plan,
            start,
            times,
            drained,
        };
        // each rung is judged as soon as it drains, so the climb can stop
        // once it is over
        let rung = judge(&mut sent, &client.seen(), &pool, &mut report);
        rungs_sent.push(sent);
        rungs.push(rung);
        if r == 0 {
            reference_rss_mb = common::peak_rss_mb();
        }
        if stats::climb_over(&rungs, P99_LIMIT_MS) {
            break;
        }
        if r >= REFERENCE_SEGMENTS {
            sampler.tick();
        }
    }
    let (traffic_end, traffic_cpu_end) = (Instant::now(), crate::cpu::process_seconds());
    let traffic_s =
        (traffic_end - traffic).as_secs_f64() - sampler.wall_within(traffic, traffic_end);
    let traffic_cpu =
        traffic_cpu_end - traffic_cpu - sampler.cpu_within(traffic_cpu, traffic_cpu_end);
    let setup_s = sampler.finish(&mut report);
    let seen = client.close();
    let down = teardown(stack);
    report.check(seen.unparsed == 0, || {
        format!("{} unparseable frames", seen.unparsed)
    });
    cluster_checks(&down, &mut report);

    let segments: Vec<Vec<f64>> = rungs_sent
        .iter()
        .take(REFERENCE_SEGMENTS)
        .map(latencies_ms)
        .collect();
    let latencies = segments.concat();
    // jobs that failed their check carry no latency; with too few left for
    // the tail rule the slowest one stands in, and `failed` says why
    let tails: Vec<(f64, f64)> = segments
        .iter()
        .map(|l| {
            stats::tail(l, 99.0).map_or_else(
                || (stats::quantile(l, 1.0), 100.0),
                |t| (t.value, t.percentile),
            )
        })
        .collect();
    let goodput = stats::goodput_rung(&rungs, P99_LIMIT_MS);
    let late: Vec<f64> = rungs_sent
        .iter()
        .flat_map(|s| s.times.iter().map(|t| t.lateness() * 1e3))
        .collect();
    let (mcs, accuracy, feasible) = quality(&rungs_sent, &seen, &pool);
    // sweeps per CPU second of the whole stack (client, router, backends):
    // how much of the serving work is annealing rather than framing
    report.set("mcs_per_s", mcs / traffic_cpu);
    report.set("accuracy_pct", accuracy);
    report.set("feasible_pct", feasible);
    report.set("latency_p50_ms", stats::median(&latencies));
    let tail_values: Vec<f64> = tails.iter().map(|t| t.0).collect();
    let tail_pcts: Vec<f64> = tails.iter().map(|t| t.1).collect();
    report.set("latency_p99_ms", stats::median(&tail_values));
    report.set("latency_tail_pct", stats::median(&tail_pcts));
    report.set("latency_samples", latencies.len() as f64);
    report.set("goodput_jobs_per_s", goodput.map_or(0.0, |r| r.achieved));
    report.set(
        "bench.gen_late_p99_ms",
        stats::tail(&late, 99.0).map_or(0.0, |t| t.value),
    );
    common::finish(&mut report, setup_s);
    // the router keeps every routed spec, so memory grows with the jobs
    // sent, and the climb sends more the further it gets: the high-water
    // mark after the first reference segment is the figure that compares
    let end_rss_mb = common::peak_rss_mb();
    report.set("peak_rss_mb", reference_rss_mb);
    report.info(
        "ladder",
        Value::Array(
            rungs
                .iter()
                .map(|r| {
                    obj(vec![
                        ("offered_jobs_per_s", Value::Float(r.offered)),
                        ("achieved_jobs_per_s", Value::Float(r.achieved)),
                        (
                            "tail_ms",
                            r.tail_ms.map_or(text("too few samples"), Value::Float),
                        ),
                        ("failed", Value::UInt(r.failed)),
                        ("backlog_slope", Value::Float(r.backlog_slope)),
                        ("passes", Value::Bool(r.passes(P99_LIMIT_MS))),
                    ])
                })
                .collect(),
        ),
    );
    report.info(
        "measured",
        obj(vec![
            ("traffic_s", Value::Float(traffic_s)),
            ("traffic_cpu_s", Value::Float(traffic_cpu)),
            ("jobs_sent", Value::UInt(next_job - 1)),
            (
                "peak_rss_is",
                text("process high-water mark after the first reference segment"),
            ),
            ("peak_rss_end_mb", Value::Float(end_rss_mb)),
            ("journal_bytes", Value::UInt(down.journal_bytes)),
            ("p99_limit_ms", Value::Float(P99_LIMIT_MS)),
            (
                "latency_is",
                text("scheduled send time to the Outcome frame, at the reference rate; p50 over all segments, p99 the median of the segments' tails"),
            ),
        ]),
    );
    report
}

/// Served MCS, mean best-feasible accuracy per instance, and the share of
/// served samples (`last`) that are feasible.
fn quality(rungs: &[Sent], seen: &Seen, pool: &Pool) -> (f64, f64, f64) {
    let mut mcs = 0.0;
    let mut best = vec![0u64; pool.cases.len()];
    let (mut feasible, mut samples) = (0usize, 0usize);
    for s in rungs {
        for p in &s.plan {
            let Some([(_, Some(outcome))]) = seen.terminal.get(&p.job).map(Vec::as_slice) else {
                continue;
            };
            let i = pool.templates[p.template].instance;
            mcs += outcome.mcs as f64;
            let e = pool.cases[i].problem.evaluate(&outcome.last.to_binary());
            samples += 1;
            if e.feasible {
                feasible += 1;
                best[i] = best[i].max((-e.cost) as u64);
            }
        }
    }
    let accuracy = pool
        .cases
        .iter()
        .zip(&best)
        .map(|(c, &b)| b as f64 / c.reference as f64)
        .sum::<f64>()
        / pool.cases.len() as f64;
    (
        mcs,
        100.0 * accuracy,
        100.0 * feasible as f64 / samples.max(1) as f64,
    )
}

/// A healthy fleet neither reroutes, duplicates, hedges nor diverges.
fn cluster_checks(down: &Teardown, report: &mut Report) {
    let c = &down.cluster;
    report.check(c.outcome_mismatches == 0, || {
        format!("{} outcome mismatches", c.outcome_mismatches)
    });
    report.check(c.duplicates_dropped == 0, || {
        format!("{} duplicate terminal frames", c.duplicates_dropped)
    });
    report.check(c.unsettled == 0, || {
        format!("{} jobs unsettled", c.unsettled)
    });
    report.info(
        "cluster",
        obj(vec![
            ("reroutes", Value::UInt(c.reroutes)),
            ("duplicates_dropped", Value::UInt(c.duplicates_dropped)),
            ("unsettled", Value::UInt(c.unsettled)),
            ("outcome_mismatches", Value::UInt(c.outcome_mismatches)),
            ("hedges_fired", Value::UInt(c.hedges.fired)),
        ]),
    );
}

fn describe(report: &mut Report, pool: &Pool) {
    common::qkp_reference_info(report);
    report.info(
        "workload",
        obj(vec![
            ("name", text("serve-routed")),
            ("backends", Value::UInt(2)),
            ("workers_per_backend", Value::UInt(1)),
            ("replication_k", Value::UInt(1)),
            (
                "breaker",
                obj(vec![
                    (
                        "probe_interval_ms",
                        Value::UInt(ClusterConfig::default().probe_interval.as_millis() as u64),
                    ),
                    ("down_after_misses", Value::UInt(u64::from(DOWN_AFTER_MISSES))),
                    (
                        "default_down_after_misses",
                        Value::UInt(u64::from(ClusterConfig::default().down_after_misses)),
                    ),
                    (
                        "finding",
                        text("at the default, outside CPU contention tripped a healthy backend Down: its jobs were re-routed and their late outcomes dropped as duplicates"),
                    ),
                ]),
            ),
            ("journal", Value::Bool(true)),
            (
                "max_frame_bytes",
                Value::UInt(FrontendConfig::default().max_frame_bytes as u64),
            ),
            ("arrivals", text("open loop, seeded Poisson")),
            (
                "ladder_jobs_per_s",
                Value::Array(
                    std::iter::once(REFERENCE_RATE)
                        .chain(CLIMB)
                        .map(Value::Float)
                        .collect(),
                ),
            ),
            ("reference_rate_jobs_per_s", Value::Float(REFERENCE_RATE)),
            ("reference_segments", Value::UInt(REFERENCE_SEGMENTS as u64)),
            ("segment_share_of_seconds", Value::Float(SEGMENT_SHARE)),
            ("jobs_per_climbing_rung", Value::Float(CLIMB_JOBS)),
            ("p99_limit_ms", Value::Float(P99_LIMIT_MS)),
            (
                "templates",
                Value::Array(
                    pool.templates
                        .iter()
                        .map(|t| {
                            let replicas = match &t.spec.solver {
                                SolverSpec::Ensemble(c) => c.replicas,
                                _ => 0,
                            };
                            obj(vec![
                                ("spins", Value::UInt(t.spec.model.len() as u64)),
                                ("replicas", Value::UInt(replicas as u64)),
                                (
                                    "frame_bytes",
                                    Value::UInt((t.head.len() + t.tail.len()) as u64),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
}

/// Latencies of a rung's correctly served jobs, ms.
fn latencies_ms(sent: &Sent) -> Vec<f64> {
    sent.times
        .iter()
        .filter_map(JobTimes::latency)
        .map(|s| s * 1e3)
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn p50_p99(values: &[f64]) -> (f64, f64) {
    (
        stats::median(values),
        stats::tail(values, 99.0).map_or_else(|| stats::quantile(values, 1.0), |t| t.value),
    )
}

/// The traced run: one reference segment untraced, then again on a fresh
/// stack whose backend links are timing wrappers (outcomes must match),
/// then replays of single layers on the served specs.
fn traced(args: &Args) -> Report {
    let (pool, mut report, plain_stack, _) = setup("p");
    describe(&mut report, &pool);
    let plan = plan(
        args.seed,
        0,
        REFERENCE_RATE,
        SEGMENT_SHARE * args.seconds,
        1,
        pool.templates.len(),
    );

    let (mut plain, plain_seen, _) = replay_reference(plain_stack, &plan, &pool);
    judge(&mut plain, &plain_seen, &pool, &mut report);

    let log = Arc::new(Mutex::new(LinkLog::default()));
    let stack = boot(&scratch_dir("t"), Some(&log));
    let (mut sent, seen, down) = replay_reference(stack, &plan, &pool);
    judge(&mut sent, &seen, &pool, &mut report);
    cluster_checks(&down, &mut report);
    for p in &plan {
        let outcome = |s: &Seen| {
            first_terminal(s, p.job).and_then(|f| f.1.as_ref().map(JobOutcome::canonical))
        };
        let a = outcome(&plain_seen);
        report.check(a.is_some() && a == outcome(&seen), || {
            format!(
                "job {}: traced outcome differs from the untraced one",
                p.job
            )
        });
    }
    let (plain_p50, traced_p50) = (
        stats::median(&latencies_ms(&plain)),
        stats::median(&latencies_ms(&sent)),
    );
    report.set(
        "trace_overhead_pct",
        100.0 * (traced_p50 - plain_p50) / plain_p50,
    );

    // router ↔ backend split from the link wrappers; the router hands out
    // ids from 1 in arrival order on a fresh journal, so a healthy run's
    // router id equals the client id, which the spec seed confirms
    let log = log.lock().expect("link log lock");
    let mut per_backend = [0u64; 2];
    let mut submitted: HashMap<u64, Instant> = HashMap::new();
    for &(b, gid, seed, at) in &log.submits {
        let expected = plan
            .iter()
            .find(|p| p.job == gid)
            .map(|p| pool.templates[p.template].spec.seed);
        report.check(expected == Some(seed), || {
            format!("router id {gid} is not client job {gid}")
        });
        per_backend[b] += 1;
        submitted.insert(gid, at);
    }
    let accepted: HashMap<u64, Instant> = log.accepted.iter().map(|&(_, g, at)| (g, at)).collect();
    let mut settle = Vec::new();
    let mut queue_wait = Vec::new();
    let mut hop = Vec::new();
    let run_us = service_run_us(&pool);
    for &(_, gid, at) in &log.outcomes {
        let Some(p) = plan.iter().find(|p| p.job == gid) else {
            continue;
        };
        let i = (gid - 1) as usize;
        if let Some(acc) = accepted.get(&gid) {
            settle.push(ms(at - *acc));
            queue_wait.push(ms(at - *acc) - run_us[p.template] / 1e3);
        }
        if let (Some(sub), Some((done, _))) = (submitted.get(&gid), first_terminal(&seen, gid)) {
            let client_ms = ms(*done - (sent.start + Duration::from_secs_f64(sent.times[i].sent)));
            hop.push(client_ms - ms(at - *sub));
        }
    }
    let accept: Vec<f64> = plan
        .iter()
        .zip(&sent.times)
        .filter_map(|(p, t)| {
            seen.accepted
                .get(&p.job)
                .map(|at| ms(*at - sent.start) - t.sent * 1e3)
        })
        .collect();
    let (a50, a99) = p50_p99(&accept);
    let (s50, s99) = p50_p99(&settle);
    let (h50, h99) = p50_p99(&hop);
    report.set("frontend.accept_ms.p50", a50);
    report.set("frontend.accept_ms.p99", a99);
    report.set("frontend.backend_settle_ms.p50", s50);
    report.set("frontend.backend_settle_ms.p99", s99);
    report.set("frontend.queue_wait_ms.p50", stats::median(&queue_wait));
    report.set("cluster.hop_ms.p50", h50);
    report.set("cluster.hop_ms.p99", h99);
    report.set(
        "frontend.shed",
        (seen
            .anonymous
            .iter()
            .filter(|(_, k)| k == "overloaded")
            .count() as u64
            + down.backend_rejected) as f64,
    );
    let settled = down.cluster.fleet.completed.max(1);
    report.set(
        "cluster.journal_kb_per_job",
        down.journal_bytes as f64 / 1000.0 / settled as f64,
    );
    let total = (per_backend[0] + per_backend[1]).max(1);
    report.set(
        "cluster.max_backend_share_pct",
        100.0 * per_backend[0].max(per_backend[1]) as f64 / total as f64,
    );
    report.set("cluster.reroutes", down.cluster.reroutes as f64);
    report.set(
        "cluster.duplicates_dropped",
        down.cluster.duplicates_dropped as f64,
    );
    report.set("cluster.hedges_fired", down.cluster.hedges.fired as f64);
    report.set(
        "cluster.outcome_mismatches",
        down.cluster.outcome_mismatches as f64,
    );
    let late: Vec<f64> = sent.times.iter().map(|t| t.lateness() * 1e3).collect();
    report.set(
        "bench.gen_late_p99_ms",
        stats::tail(&late, 99.0).map_or(0.0, |t| t.value),
    );
    drop(log);

    // single-layer replays on the served specs, after the traffic
    let by = |r: usize| -> Vec<f64> {
        pool.templates
            .iter()
            .zip(&run_us)
            .filter(|(t, _)| matches!(&t.spec.solver, SolverSpec::Ensemble(c) if c.replicas == r))
            .map(|(_, us)| *us)
            .collect()
    };
    report.set("service.run_us.p50.ensemble_r1", stats::median(&by(1)));
    report.set("service.run_us.p50.ensemble_r4", stats::median(&by(4)));
    let mut to_ising = Vec::new();
    let mut init = Vec::new();
    let mut ensemble_ms = Vec::new();
    let solves = Rc::new(RefCell::new(Vec::<SolveSpan>::new()));
    for (k, t) in pool.templates.iter().enumerate() {
        to_ising.push(common::median_us(3, || {
            std::hint::black_box(t.spec.model.to_ising());
        }));
        let model = t.spec.model.to_ising();
        let mut rng = new_rng(derive_seed(args.seed, 9000 + k as u64));
        init.push(common::median_us(5, || {
            std::hint::black_box(PbitMachine::new(&model, &mut rng));
        }));
        if let SolverSpec::Ensemble(config) = &t.spec.solver {
            let mut solver = TimedSolver::new(
                EnsembleAnnealer::new(*config, t.spec.seed),
                Rc::clone(&solves),
            );
            let out = saim_machine::IsingSolver::solve(&mut solver, &model);
            report.check(
                out.best == t.oracle.best && out.last == t.oracle.last,
                || "replayed ensemble solve differs from the served outcome".into(),
            );
            let (_, secs) = common::timed(|| {
                EnsembleAnnealer::new(*config, t.spec.seed).solve_runs(&model, config.replicas)
            });
            ensemble_ms.push(secs * 1e3);
        }
    }
    report.set("ising.to_ising_us", stats::median(&to_ising));
    report.set("machine.init_us", stats::median(&init));
    report.set("machine.ensemble_solve_ms", stats::median(&ensemble_ms));
    solve_metrics(&solves.borrow(), &mut report);
    let specs: Vec<JobSpec> = pool.templates.iter().map(|t| t.spec.clone()).collect();
    common::codec_replay(&specs, 1, &mut report);
    common::frame_sizes(args.seed, &mut report);
    common::idle(
        &mut report,
        &[
            "core.setup_us",
            "core.evaluate_us.p50",
            "core.ascend_us.p50",
            "core.share_pct",
            "machine.pt_solve_ms",
            "machine.thread_speedup",
        ],
    );
    report.info(
        "traced",
        obj(vec![
            ("untraced_latency_p50_ms", Value::Float(plain_p50)),
            ("traced_latency_p50_ms", Value::Float(traced_p50)),
            ("trace_overhead_is", text("change in reference-rate p50 latency")),
            ("queue_wait_is", text("derived: backend_settle_ms minus the replayed service.run_us of the job's spec")),
            ("backend_jobs", Value::Array(per_backend.iter().map(|&c| Value::UInt(c)).collect())),
        ]),
    );
    report
}

/// Job `job`'s first terminal frame as the client saw it.
fn first_terminal(seen: &Seen, job: u64) -> Option<&(Instant, Option<JobOutcome>)> {
    seen.terminal.get(&job).and_then(|f| f.first())
}

/// Sends one reference segment through `stack`, then tears it down.
fn replay_reference(stack: Stack, plan: &[Planned], pool: &Pool) -> (Sent, Seen, Teardown) {
    let mut client = Client::connect(&stack.addr);
    let (start, times, drained) = client.rung(plan, &pool.templates);
    let seen = client.close();
    let down = teardown(stack);
    let sent = Sent {
        offered: REFERENCE_RATE,
        plan: plan.to_vec(),
        start,
        times,
        drained,
    };
    (sent, seen, down)
}

/// `JobSpec::run` wall time of each template, µs (median of three).
fn service_run_us(pool: &Pool) -> Vec<f64> {
    pool.templates
        .iter()
        .map(|t| {
            common::median_us(3, || {
                std::hint::black_box(t.spec.run());
            })
        })
        .collect()
}
