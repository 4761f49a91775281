//! Pieces every workload shares: arguments, instances and their quality
//! references, set-up timing, memory, and the frame-codec replay.

use crate::report::{obj, text, Report, Value};
use crate::stats;
use saim_core::{penalty_qubo, presets, ConstrainedProblem};
use saim_exact::bb::{self, BbLimits};
use saim_heuristics::{greedy, local};
use saim_knapsack::{generate, MkpEncoded, QkpEncoded, QkpInstance};
use saim_machine::derive_seed;
use saim_machine::frontend::{Request, Response};
use saim_machine::service::{JobSpec, SolverSpec};
use std::time::{Duration, Instant};

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// QKP item count of the paper's headline instances.
pub const QKP_N: usize = 300;
/// Pair density of the generated QKP instances.
pub const QKP_DENSITY: f64 = 0.25;
/// Capacity strata per run (see [`stratified_qkp`]).
pub const QKP_STRATA: usize = 8;
/// Generator seed of the QKP instance family every run uses. `--seed`
/// drives the solver streams and arrival schedules, not the instances:
/// SAIM's speed and quality at the paper's budget swing with each
/// instance's capacity ratio, so seed-drawn instances would make every
/// bound wider than the changes it should catch.
pub const QKP_FAMILY: u64 = 0;
/// Chu–Beasley-shaped MKP: items, constraints, tightness, max weight.
pub const MKP_SHAPE: (usize, usize, f64, u32) = (100, 5, 0.5, 100);
/// Node limit of the MKP reference branch and bound (never time-limited).
pub const MKP_BB_NODES: u64 = 200_000;

/// A problem with its deterministic quality reference.
pub struct Case<P> {
    pub problem: P,
    /// Reference profit the accuracy is a share of.
    pub reference: u64,
    pub label: String,
}

/// Nominal seconds one round of a closed-loop workload (every case once)
/// takes on a 2-core x86-64 host.
pub const ROUND_S: f64 = 7.5;

/// Whole rounds of work a closed-loop run does: `--seconds` at
/// [`ROUND_S`] per round, at least one. The work is fixed by the arguments,
/// not by the host's speed, so quality figures never depend on how fast the
/// host is.
pub fn rounds(args: &Args) -> usize {
    ((args.seconds / ROUND_S).round() as usize).max(1)
}

/// Wall seconds of `f`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up repetitions a run takes for `setup_s`, spread through its
/// measured phase (see [`SetupSampler`]).
pub const SETUP_SAMPLES: usize = 16;

/// One set-up repetition, on both clocks, so the measured phase can leave
/// it out.
struct SetupRun {
    cpu: (f64, f64),
    wall: (Instant, Instant),
}

/// Set-up repetitions spread through a run's measured phase.
///
/// The host's speed drifts in spells of a few seconds: a memory-heavy
/// set-up runs up to 1.5× slower in one spell than in the next, while
/// repetitions inside one spell agree to a few per cent. Repetitions taken
/// back to back would all land in one spell, and `setup_s` would read the
/// spell. Taken between measured units, their median follows the run as a
/// whole. Each repetition is timed on the process CPU clock, and its time
/// on both clocks is left out of the measured phase.
pub struct SetupSampler<'a> {
    setup: Box<dyn FnMut() -> f64 + 'a>,
    /// A repetition every `every` ticks.
    every: usize,
    ticks: usize,
    /// Set-up seconds of the run's own set-up and of every repetition.
    seconds: Vec<f64>,
    runs: Vec<SetupRun>,
}

impl<'a> SetupSampler<'a> {
    /// `first` is the set-up seconds of the run's own set-up; `setup` does
    /// one more and returns its set-up seconds.
    pub fn new(first: f64, every: usize, setup: impl FnMut() -> f64 + 'a) -> Self {
        SetupSampler {
            setup: Box::new(setup),
            every: every.max(1),
            ticks: 0,
            seconds: vec![first],
            runs: Vec::new(),
        }
    }

    /// Counts one measured unit, taking a repetition every `every` ticks.
    pub fn tick(&mut self) {
        self.ticks += 1;
        if self.ticks.is_multiple_of(self.every) {
            let wall = Instant::now();
            let cpu = crate::cpu::process_seconds();
            let secs = (self.setup)();
            self.seconds.push(secs);
            self.runs.push(SetupRun {
                cpu: (cpu, crate::cpu::process_seconds()),
                wall: (wall, Instant::now()),
            });
        }
    }

    /// CPU seconds the repetitions took between CPU clock readings `a` and
    /// `b`.
    pub fn cpu_within(&self, a: f64, b: f64) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.cpu.0 >= a && r.cpu.1 <= b)
            .map(|r| r.cpu.1 - r.cpu.0)
            .sum()
    }

    /// Wall seconds the repetitions took between `a` and `b`.
    pub fn wall_within(&self, a: Instant, b: Instant) -> f64 {
        self.runs
            .iter()
            .filter(|r| r.wall.0 >= a && r.wall.1 <= b)
            .map(|r| (r.wall.1 - r.wall.0).as_secs_f64())
            .sum()
    }

    /// `setup_s`: the median set-up seconds. The samples go in the report.
    pub fn finish(&self, report: &mut Report) -> f64 {
        report.info(
            "setup",
            obj(vec![
                ("clock", text("process CPU time")),
                (
                    "samples_s",
                    Value::Array(self.seconds.iter().map(|&s| Value::Float(s)).collect()),
                ),
            ]),
        );
        stats::median(&self.seconds)
    }
}

/// Greedy fill improved by local search: the QKP quality reference. It is
/// deterministic and has no time limit, unlike the default branch and
/// bound limits, whose incumbent depends on the host's speed.
pub fn qkp_reference(instance: &QkpInstance) -> (u64, bool) {
    let mut selection = greedy::qkp(instance);
    local::improve_qkp(instance, &mut selection);
    (
        instance.profit(&selection),
        instance.is_feasible(&selection),
    )
}

/// Records how the QKP accuracy reference is obtained.
pub fn qkp_reference_info(report: &mut Report) {
    report.info(
        "reference",
        obj(vec![(
            "method",
            text("greedy fill improved by local::improve_qkp (deterministic, no time limit)"),
        )]),
    );
}

/// QKP-300 instances from `generate::qkp`, one per capacity stratum, drawn
/// from generator seeds derived from `seed`.
///
/// The generator draws the capacity uniformly between 50 and the total
/// weight, and SAIM's behaviour (and speed) at the paper's budget depends
/// on that ratio: tight knapsacks turn feasible within a few hundred
/// iterations, loose ones may not at all. Drawing instances from the seed
/// until each of `QKP_STRATA` equal ratio bands holds one keeps that mix
/// fixed. Nothing is filtered out: the loosest band is always present.
pub fn stratified_qkp(seed: u64, report: &mut Report) -> Vec<Case<QkpEncoded>> {
    let mut slots: Vec<Option<QkpInstance>> = (0..QKP_STRATA).map(|_| None).collect();
    let mut draws = 0u64;
    while slots.iter().any(Option::is_none) {
        assert!(draws < 10_000, "capacity strata never filled");
        let instance = generate::qkp(QKP_N, QKP_DENSITY, derive_seed(seed, draws))
            .expect("valid generator parameters");
        draws += 1;
        let total: u64 = instance.weights().iter().map(|&w| u64::from(w)).sum();
        let ratio = instance.capacity() as f64 / total as f64;
        let band = ((ratio * QKP_STRATA as f64) as usize).min(QKP_STRATA - 1);
        if slots[band].is_none() {
            slots[band] = Some(instance);
        }
    }
    slots
        .into_iter()
        .map(|slot| {
            let instance = slot.expect("every stratum filled");
            let (reference, ok) = qkp_reference(&instance);
            report.check(ok && reference > 0, || {
                format!("QKP reference infeasible on {}", instance.label())
            });
            Case {
                label: instance.label().to_string(),
                problem: instance.encode().expect("generated instances encode"),
                reference,
            }
        })
        .collect()
}

/// Generator seed of the MKP instance every run uses, fixed for the same
/// reason as [`QKP_FAMILY`]: the iteration-time tail follows the instance's
/// λ ramp.
pub const MKP_FAMILY: u64 = 0;

/// One Chu–Beasley-shaped MKP instance with a node-limited branch and bound
/// reference (floored by greedy + local search).
pub fn mkp_case(seed: u64, report: &mut Report) -> (Case<MkpEncoded>, bool) {
    let (n, m, tightness, max_weight) = MKP_SHAPE;
    let instance = generate::mkp_with_max_weight(n, m, tightness, max_weight, derive_seed(seed, 0))
        .expect("valid generator parameters");
    let bnb = bb::solve_mkp(
        &instance,
        BbLimits {
            max_nodes: MKP_BB_NODES,
            time_limit: Duration::from_secs(1 << 30),
        },
    );
    let mut selection = greedy::mkp(&instance);
    local::improve_mkp(&instance, &mut selection);
    let reference = bnb.profit.max(instance.profit(&selection));
    report.check(
        instance.is_feasible(&bnb.selection) && instance.is_feasible(&selection),
        || format!("MKP reference infeasible on {}", instance.label()),
    );
    (
        Case {
            label: instance.label().to_string(),
            problem: instance.encode().expect("generated instances encode"),
            reference,
        },
        bnb.proven_optimal,
    )
}

/// The process's peak resident set, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The Table I penalty QUBO of `problem`, shifted by `lambda · g`: what one
/// SAIM iteration ships when it is served as a job. λ moves only linear
/// terms, so every iteration of one instance has the same frame shape.
pub fn lagrangian_qubo<P: ConstrainedProblem>(
    problem: &P,
    penalty: f64,
    lambda: &[f64],
) -> saim_ising::Qubo {
    let base = penalty_qubo(problem, penalty).expect("encoded problems are consistent");
    let mut b = saim_ising::QuboBuilder::new(base.len());
    for (i, j, q) in base.pairs().iter_pairs() {
        b.add_pair(i, j, q).expect("indices in range");
    }
    for (i, &c) in base.linear().iter().enumerate() {
        b.add_linear(i, c).expect("index in range");
    }
    b.add_offset(base.offset());
    for (c, &l) in problem.constraints().iter().zip(lambda) {
        b.add_weighted_linear(c.coeffs(), c.offset(), l)
            .expect("constraint sized to the objective");
    }
    b.build()
}

/// An ensemble job on the paper's QKP schedule, as the serving workload
/// sends it.
pub fn qkp_job(job: u64, model: saim_ising::Qubo, replicas: usize, seed: u64) -> JobSpec {
    let mut config = presets::qkp().ensemble_config(replicas);
    config.threads = 1;
    JobSpec::new(job, model, SolverSpec::Ensemble(config), seed)
}

/// The Submit line of `spec` (no trailing newline).
pub fn submit_line(spec: &JobSpec) -> String {
    Request::Submit {
        spec: spec.clone(),
        priority: 0,
        deadline_ms: None,
    }
    .to_line()
}

fn us_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e6
}

/// Replays the frame codec on `specs`: Submit encode and decode, and the
/// encode of each spec's Outcome frame. Decoding must give the spec back.
pub fn codec_replay(specs: &[JobSpec], reps: usize, report: &mut Report) {
    let mut encode = Vec::new();
    let mut decode = Vec::new();
    let mut outcome = Vec::new();
    for spec in specs {
        let request = Request::Submit {
            spec: spec.clone(),
            priority: 0,
            deadline_ms: None,
        };
        let solved = spec.run();
        for _ in 0..reps {
            let t = Instant::now();
            let line = std::hint::black_box(request.to_line());
            encode.push(us_since(t));
            let t = Instant::now();
            let back = std::hint::black_box(Request::from_line(&line));
            decode.push(us_since(t));
            report.check(back.as_ref().ok() == Some(&request), || {
                "Submit frame did not decode to its request".into()
            });
            let response = Response::Outcome {
                outcome: solved.clone(),
            };
            let t = Instant::now();
            std::hint::black_box(response.to_line());
            outcome.push(us_since(t));
        }
    }
    let sizes: Vec<f64> = specs
        .iter()
        .map(|s| submit_line(s).len() as f64 / 1000.0)
        .collect();
    report.set("frontend.frame_kb", stats::median(&sizes));
    report.set("frontend.encode_us.p50", stats::median(&encode));
    report.set("frontend.decode_us.p50", stats::median(&decode));
    report.set("frontend.outcome_encode_us.p50", stats::median(&outcome));
}

/// Submit-frame sizes of the Table I penalty QUBO of QKP instances with
/// n = 100, 200 and 300 items, against the default 1 MiB frame limit.
pub fn frame_sizes(seed: u64, report: &mut Report) {
    let limit = saim_machine::frontend::FrontendConfig::default().max_frame_bytes;
    let mut rows = Vec::new();
    for (n, name) in [
        (100, "frontend.frame_kb.n100"),
        (200, "frontend.frame_kb.n200"),
        (300, "frontend.frame_kb.n300"),
    ] {
        let instance = generate::qkp(n, QKP_DENSITY, derive_seed(seed, 7000 + n as u64))
            .expect("valid generator parameters");
        let enc = instance.encode().expect("generated instances encode");
        let penalty = enc.penalty_for_alpha(presets::qkp().alpha);
        let lambda = vec![0.0; enc.constraints().len()];
        let spec = qkp_job(1, lagrangian_qubo(&enc, penalty, &lambda), 1, 1);
        let bytes = submit_line(&spec).len() + 1;
        report.set(name, bytes as f64 / 1000.0);
        rows.push(obj(vec![
            ("n", Value::UInt(n as u64)),
            ("frame_bytes", Value::UInt(bytes as u64)),
            ("fits_default_limit", Value::Bool(bytes <= limit)),
        ]));
    }
    report.info(
        "frame_limit",
        obj(vec![
            ("max_frame_bytes", Value::UInt(limit as u64)),
            ("qkp_submit_frames", Value::Array(rows)),
        ]),
    );
}

/// Median µs of `reps` calls of `f`.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us_since(t)
        })
        .collect();
    stats::median(&times)
}

/// What a closed-loop workload measured, timed on the workload's clock
/// (see [`crate::cpu`]).
pub struct ClosedLoop {
    /// Sweeps completed, summed over replicas.
    pub mcs: u64,
    /// Annealed samples read out, and how many of them were feasible.
    pub samples: usize,
    pub feasible: f64,
    /// Best-feasible accuracy of each measured run (0 when none was).
    pub accuracy: Vec<f64>,
    /// Latency samples, ms.
    pub latency_ms: Vec<f64>,
    /// Seconds the measured phase took.
    pub busy_s: f64,
}

/// Sets the end-to-end metrics of a closed-loop workload.
pub fn report_closed_loop(report: &mut Report, m: &ClosedLoop, setup_s: f64) {
    let tail = stats::tail(&m.latency_ms, 99.0);
    report.set("mcs_per_s", m.mcs as f64 / m.busy_s);
    report.set(
        "accuracy_pct",
        100.0 * m.accuracy.iter().sum::<f64>() / m.accuracy.len() as f64,
    );
    report.set("feasible_pct", 100.0 * m.feasible / m.samples as f64);
    report.set("latency_p50_ms", stats::median(&m.latency_ms));
    report.set(
        "latency_p99_ms",
        tail.map_or_else(|| stats::quantile(&m.latency_ms, 1.0), |t| t.value),
    );
    report.set("latency_tail_pct", tail.map_or(100.0, |t| t.percentile));
    report.set("latency_samples", m.latency_ms.len() as f64);
    report.set("goodput_jobs_per_s", m.samples as f64 / m.busy_s);
    finish(report, setup_s);
}

/// Sets `setup_s`, `failed_pct` and `peak_rss_mb`, which every workload
/// reports the same way.
pub fn finish(report: &mut Report, setup_s: f64) {
    report.set("setup_s", setup_s);
    report.set(
        "failed_pct",
        100.0 * report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss_mb());
}

/// Sets every listed metric to zero: the layer does no work on this
/// workload. The names are listed in the report.
pub fn idle(report: &mut Report, names: &[&'static str]) {
    for &name in names {
        report.set(name, 0.0);
    }
    report.info(
        "idle_layers",
        Value::Array(names.iter().map(|n| text(*n)).collect()),
    );
}
