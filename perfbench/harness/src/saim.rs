//! `saim-qkp` and `saim-mkp`: the paper's SAIM loop (`SaimRunner::run` on
//! the Table I preset's serial SA solver) timed end to end, and split by
//! layer in the traced run.

use crate::common::{self, Args, Case, SetupSampler};
use crate::report::{obj, text, Report, Value};
use crate::stats;
use crate::trace::{SaimSplit, SolveSpan, TimedProblem, TimedSolver};
use saim_core::{
    penalty_qubo, presets::ExperimentPreset, ConstrainedProblem, LagrangianSystem, SaimOutcome,
    SaimRunner,
};
use saim_ising::IsingModel;
use saim_knapsack::{MkpEncoded, QkpEncoded};
use saim_machine::{
    derive_seed, new_rng, IsingSolver, PbitMachine, SimulatedAnnealing, SolveOutcome,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// SAIM iterations per run of one QKP instance (the paper runs 2000).
pub const QKP_ITERATIONS: usize = 300;
/// SAIM iterations per run of one MKP instance (the paper runs 5000). At
/// η = 0.05 the first feasible sample arrives after about 1000–1150.
pub const MKP_ITERATIONS: usize = 1500;

/// One SAIM run: a case, its iteration budget and its seed.
struct Unit<'a, P> {
    case: &'a Case<P>,
    iterations: usize,
    seed: u64,
}

impl<P: ConstrainedProblem> Unit<'_, P> {
    fn config(&self, preset: &ExperimentPreset) -> saim_core::SaimConfig {
        let mut config = preset.config_for(&self.case.problem, 1.0, self.seed);
        config.iterations = self.iterations;
        config
    }

    fn solver(&self, preset: &ExperimentPreset) -> SimulatedAnnealing {
        preset.solver(derive_seed(self.seed, 1))
    }
}

/// What one measured SAIM run left behind.
struct Done {
    outcome: SaimOutcome,
    /// CPU seconds from run entry (or the previous sample) to each sample.
    sample_s: Vec<f64>,
}

/// A solver that ticks a [`SetupSampler`] before every solve, so set-up
/// repetitions are spread through the SAIM runs.
struct Sampling<'s, 'a, S> {
    inner: S,
    sampler: &'s RefCell<SetupSampler<'a>>,
}

impl<S: IsingSolver> IsingSolver for Sampling<'_, '_, S> {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.sampler.borrow_mut().tick();
        self.inner.solve(model)
    }

    fn mcs_per_solve(&self, n: usize) -> u64 {
        self.inner.mcs_per_solve(n)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

fn run_unit<P: ConstrainedProblem>(
    unit: &Unit<P>,
    preset: &ExperimentPreset,
    sampler: &RefCell<SetupSampler>,
) -> Done {
    let stamps = Rc::new(RefCell::new(Vec::<SolveSpan>::new()));
    let solver = Sampling {
        inner: TimedSolver::new(unit.solver(preset), Rc::clone(&stamps)),
        sampler,
    };
    let runner = SaimRunner::new(unit.config(preset));
    let mut last = crate::cpu::process_seconds();
    let outcome = runner.run(&unit.case.problem, solver);
    let sampler = sampler.borrow();
    let sample_s = stamps
        .borrow()
        .iter()
        .map(|s| {
            let gap = s.cpu_end - last - sampler.cpu_within(last, s.cpu_end);
            last = s.cpu_end;
            gap
        })
        .collect();
    Done { outcome, sample_s }
}

/// The best feasible sample must re-evaluate to its reported cost.
fn check_outcome<P: ConstrainedProblem>(case: &Case<P>, out: &SaimOutcome, report: &mut Report) {
    if let Some(best) = &out.best {
        let e = case.problem.evaluate(&best.state);
        report.check(e.feasible && e.cost == best.cost, || {
            format!(
                "{}: best sample re-evaluates to ({}, {}), reported ({}, true)",
                case.label, e.cost, e.feasible, best.cost
            )
        });
    } else {
        report.check(true, String::new);
    }
}

fn accuracy<P>(case: &Case<P>, out: &SaimOutcome) -> f64 {
    out.best
        .as_ref()
        .map_or(0.0, |b| -b.cost / case.reference as f64)
}

fn qkp_setup(report: &mut Report) -> Vec<Case<QkpEncoded>> {
    common::stratified_qkp(common::QKP_FAMILY, report)
}

fn mkp_setup(report: &mut Report) -> (Case<MkpEncoded>, bool) {
    common::mkp_case(common::MKP_FAMILY, report)
}

pub fn run_qkp(args: &Args) -> Report {
    let mut report = Report::default();
    let (cases, setup_s) = crate::cpu::timed(|| qkp_setup(&mut report));
    describe(
        &mut report,
        "saim-qkp",
        &saim_core::presets::qkp(),
        QKP_ITERATIONS,
        &cases,
    );
    common::qkp_reference_info(&mut report);
    let rounds = common::rounds(args);
    let resetup = || crate::cpu::timed(|| qkp_setup(&mut Report::default())).1;
    run(
        args,
        &saim_core::presets::qkp(),
        QKP_ITERATIONS,
        rounds,
        &cases,
        (setup_s, &resetup),
        report,
    )
}

pub fn run_mkp(args: &Args) -> Report {
    let mut report = Report::default();
    let ((case, proven), setup_s) = crate::cpu::timed(|| mkp_setup(&mut report));
    let cases = vec![case];
    describe(
        &mut report,
        "saim-mkp",
        &saim_core::presets::mkp(),
        MKP_ITERATIONS,
        &cases,
    );
    report.info(
        "reference",
        obj(vec![
            (
                "method",
                text(format!(
                    "branch and bound limited to {} nodes (no time limit), floored by greedy + local search",
                    common::MKP_BB_NODES
                )),
            ),
            ("proven_optimal", Value::Bool(proven)),
        ]),
    );
    let rounds = common::rounds(args);
    let resetup = || crate::cpu::timed(|| mkp_setup(&mut Report::default())).1;
    run(
        args,
        &saim_core::presets::mkp(),
        MKP_ITERATIONS,
        rounds,
        &cases,
        (setup_s, &resetup),
        report,
    )
}

fn describe<P: ConstrainedProblem>(
    report: &mut Report,
    name: &str,
    preset: &ExperimentPreset,
    iterations: usize,
    cases: &[Case<P>],
) {
    report.info(
        "workload",
        obj(vec![
            ("name", text(name)),
            ("preset", text(preset.name)),
            ("beta_max", Value::Float(preset.beta_max)),
            ("eta", Value::Float(preset.eta)),
            ("penalty_alpha", Value::Float(preset.alpha)),
            ("mcs_per_run", Value::UInt(preset.mcs_per_run as u64)),
            ("saim_iterations", Value::UInt(iterations as u64)),
            ("threads", Value::UInt(1)),
            (
                "instances",
                Value::Array(
                    cases
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("label", text(c.label.as_str())),
                                ("spins", Value::UInt(c.problem.num_vars() as u64)),
                                ("reference_profit", Value::UInt(c.reference)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );
}

fn run<P: ConstrainedProblem>(
    args: &Args,
    preset: &ExperimentPreset,
    iterations: usize,
    rounds: usize,
    cases: &[Case<P>],
    (setup_s, resetup): (f64, &dyn Fn() -> f64),
    mut report: Report,
) -> Report {
    let unit = |round: usize, c: usize| Unit {
        case: &cases[c],
        iterations,
        seed: derive_seed(args.seed, 1000 + (round * cases.len() + c) as u64),
    };
    if args.trace {
        traced(args, preset, cases, &unit, &mut report);
        return report;
    }
    // one set-up repetition per SETUP_SAMPLES-th of the solves
    let every = rounds * cases.len() * iterations / common::SETUP_SAMPLES;
    let sampler = RefCell::new(SetupSampler::new(setup_s, every, resetup));
    // whole rounds over every case, so each run weighs the cases equally
    let steal = crate::cpu::Steal::start();
    let start = Instant::now();
    let cpu_start = crate::cpu::process_seconds();
    let mut done: Vec<(usize, Done)> = Vec::new();
    for round in 0..rounds {
        for c in 0..cases.len() {
            done.push((c, run_unit(&unit(round, c), preset, &sampler)));
        }
    }
    let cpu_end = crate::cpu::process_seconds();
    let sampler = sampler.into_inner();
    let busy = cpu_end - cpu_start - sampler.cpu_within(cpu_start, cpu_end);
    let wall = start.elapsed().as_secs_f64();
    let mut m = common::ClosedLoop {
        mcs: 0,
        samples: 0,
        feasible: 0.0,
        accuracy: Vec::new(),
        latency_ms: Vec::new(),
        busy_s: busy,
    };
    for (c, d) in &done {
        check_outcome(&cases[*c], &d.outcome, &mut report);
        m.mcs += d.outcome.mcs_total;
        m.feasible += d.outcome.feasibility * d.outcome.records.len() as f64;
        m.samples += d.outcome.records.len();
        m.accuracy.push(accuracy(&cases[*c], &d.outcome));
        m.latency_ms.extend(d.sample_s.iter().map(|s| s * 1e3));
    }
    let setup_s = sampler.finish(&mut report);
    common::report_closed_loop(&mut report, &m, setup_s);
    report.info(
        "measured",
        obj(vec![
            ("rounds", Value::UInt(rounds as u64)),
            ("saim_runs", Value::UInt(done.len() as u64)),
            ("wall_s", Value::Float(wall)),
            ("cpu_s", Value::Float(busy)),
            (
                "timing_clock",
                text("process CPU time (excludes hypervisor steal)"),
            ),
            ("steal_pct", steal.pct().map_or(Value::Null, Value::Float)),
            (
                "latency_is",
                text(
                    "CPU time per SAIM iteration: one annealed sample plus its evaluate and λ step",
                ),
            ),
            (
                "goodput_is",
                text("SAIM iterations (annealed samples) per CPU second"),
            ),
        ]),
    );
    report
}

/// The traced run: the first round untraced, then the same round through
/// the timing wrappers (outcomes must match bit for bit), then replays of
/// single layers on this workload's models.
fn traced<'a, P: ConstrainedProblem>(
    args: &Args,
    preset: &ExperimentPreset,
    cases: &'a [Case<P>],
    unit: &dyn Fn(usize, usize) -> Unit<'a, P>,
    report: &mut Report,
) {
    let mut plain = Vec::new();
    let (_, plain_s) = crate::cpu::timed(|| {
        for c in 0..cases.len() {
            let u = unit(0, c);
            plain.push(SaimRunner::new(u.config(preset)).run(&u.case.problem, u.solver(preset)));
        }
    });
    let mut splits = Vec::new();
    let mut solves = Vec::new();
    let (_, traced_s) = crate::cpu::timed(|| {
        for (c, expected) in plain.iter().enumerate() {
            let u = unit(0, c);
            let log = Rc::new(RefCell::new(Vec::new()));
            let problem = TimedProblem::new(&u.case.problem);
            let solver = TimedSolver::new(u.solver(preset), Rc::clone(&log));
            let runner = SaimRunner::new(u.config(preset));
            let entry = Instant::now();
            let out = runner.run(&problem, solver);
            let exit = Instant::now();
            report.check(&out == expected, || {
                format!(
                    "{}: traced SAIM outcome differs from the untraced one",
                    u.case.label
                )
            });
            check_outcome(u.case, &out, report);
            let log = log.borrow();
            splits.push(SaimSplit::of(entry, exit, &log, &problem.spans()));
            solves.extend(log.iter().copied());
        }
    });
    report.set("trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    let evaluate: Vec<f64> = splits.iter().flat_map(|s| s.evaluate_us.clone()).collect();
    let ascend: Vec<f64> = splits.iter().flat_map(|s| s.ascend_us.clone()).collect();
    let setup: Vec<f64> = splits.iter().map(|s| s.setup_us).collect();
    let wall: f64 = splits.iter().map(|s| s.wall_s).sum();
    let in_solve: f64 = splits.iter().map(|s| s.solve_s).sum();
    report.set("core.setup_us", stats::median(&setup));
    report.set("core.evaluate_us.p50", stats::median(&evaluate));
    report.set("core.ascend_us.p50", stats::median(&ascend));
    report.set("core.share_pct", 100.0 * (wall - in_solve) / wall);
    solve_metrics(&solves, report);

    // single-layer replays on this workload's models
    let models: Vec<_> = cases
        .iter()
        .map(|c| {
            let penalty = c.problem.penalty_for_alpha(preset.alpha);
            (c, penalty)
        })
        .collect();
    let mut init = Vec::new();
    let mut to_ising = Vec::new();
    let mut specs = Vec::new();
    for (i, (c, penalty)) in models.iter().enumerate() {
        let system = LagrangianSystem::new(&c.problem, *penalty).expect("consistent model");
        let mut rng = new_rng(derive_seed(args.seed, 9000 + i as u64));
        init.push(common::median_us(20, || {
            std::hint::black_box(PbitMachine::new(system.model(), &mut rng));
        }));
        let qubo = penalty_qubo(&c.problem, *penalty).expect("consistent model");
        to_ising.push(common::median_us(5, || {
            std::hint::black_box(qubo.to_ising());
        }));
        let lambda = vec![0.0; c.problem.constraints().len()];
        specs.push(common::qkp_job(
            1 + i as u64,
            common::lagrangian_qubo(&c.problem, *penalty, &lambda),
            1,
            derive_seed(args.seed, 9100 + i as u64),
        ));
    }
    report.set("machine.init_us", stats::median(&init));
    report.set("ising.to_ising_us", stats::median(&to_ising));
    specs.truncate(2);
    common::codec_replay(&specs, 3, report);
    common::frame_sizes(args.seed, report);
    common::idle(
        report,
        &[
            "machine.ensemble_solve_ms",
            "machine.pt_solve_ms",
            "machine.thread_speedup",
            "service.run_us.p50.ensemble_r1",
            "service.run_us.p50.ensemble_r4",
            "frontend.accept_ms.p50",
            "frontend.accept_ms.p99",
            "frontend.backend_settle_ms.p50",
            "frontend.backend_settle_ms.p99",
            "frontend.queue_wait_ms.p50",
            "frontend.shed",
            "cluster.hop_ms.p50",
            "cluster.hop_ms.p99",
            "cluster.journal_kb_per_job",
            "cluster.max_backend_share_pct",
            "cluster.reroutes",
            "cluster.duplicates_dropped",
            "cluster.hedges_fired",
            "cluster.outcome_mismatches",
            "bench.gen_late_p99_ms",
        ],
    );
    report.info(
        "traced",
        obj(vec![
            ("untraced_s", Value::Float(plain_s)),
            ("traced_s", Value::Float(traced_s)),
            ("saim_runs", Value::UInt(cases.len() as u64)),
        ]),
    );
}

/// `machine.solve_us` and `machine.mupd_per_s` from wrapped solve spans.
pub fn solve_metrics(solves: &[SolveSpan], report: &mut Report) {
    let us: Vec<f64> = solves.iter().map(|s| s.secs() * 1e6).collect();
    report.set("machine.solve_us.p50", stats::median(&us));
    report.set(
        "machine.solve_us.p99",
        stats::tail(&us, 99.0).map_or_else(|| stats::quantile(&us, 1.0), |t| t.value),
    );
    let updates: f64 = solves.iter().map(|s| s.n as f64 * s.mcs as f64).sum();
    let busy: f64 = solves.iter().map(SolveSpan::secs).sum();
    report.set("machine.mupd_per_s", updates / busy / 1e6);
}
