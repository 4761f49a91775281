//! `baselines-qkp`: the paper's comparators on the `saim-qkp` instances —
//! same-budget fixed-penalty runs on the replica ensemble and the 26-slot
//! PT-DA ladder, both on two threads.

use crate::common::{self, Args, Case, SetupSampler};
use crate::report::{obj, text, Report, Value};
use crate::saim::solve_metrics;
use crate::stats;
use crate::trace::{SolveSpan, TimedProblem, TimedSolver};
use saim_core::{penalty_qubo, presets, ConstrainedProblem, PenaltyMethod, PenaltyOutcome};
use saim_knapsack::QkpEncoded;
use saim_machine::{
    derive_seed, new_rng, EnsembleAnnealer, EnsembleConfig, IsingSolver, ParallelTempering,
    PbitMachine, PtConfig,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Fixed penalty `P = α·d·N`: the largest value of the paper's tuning range
/// (Table II tunes between 40 and 500 dN). At the Table I `α = 2` the
/// penalty landscape's minimum is infeasible by construction.
pub const ALPHA: f64 = 500.0;
/// Annealed runs per fixed-penalty ensemble call.
pub const ENSEMBLE_RUNS: usize = 32;
/// PT-DA ladder solves per instance.
pub const PT_TRIALS: usize = 4;
/// Worker threads of both engines.
pub const THREADS: usize = 2;

fn ensemble(threads: usize, seed: u64) -> EnsembleAnnealer {
    let config = EnsembleConfig {
        threads,
        ..presets::qkp().ensemble_config(ENSEMBLE_RUNS)
    };
    EnsembleAnnealer::new(config, seed)
}

/// The PT-DA stand-in: 26 replicas on a geometric ladder up to the QKP
/// preset's β_max, 1000 sweeps per solve.
pub fn pt_config(threads: usize) -> PtConfig {
    PtConfig {
        replicas: 26,
        beta_min: 0.05,
        beta_max: presets::qkp().beta_max,
        sweeps: presets::qkp().mcs_per_run,
        swap_interval: 10,
        threads,
    }
}

struct Unit<'a> {
    case: &'a Case<QkpEncoded>,
    seed: u64,
}

impl Unit<'_> {
    fn penalty(&self) -> f64 {
        self.case.problem.penalty_for_alpha(ALPHA)
    }

    fn ensemble_method(&self) -> PenaltyMethod {
        PenaltyMethod::new(self.penalty(), ENSEMBLE_RUNS).expect("valid penalty")
    }

    fn pt_method(&self) -> PenaltyMethod {
        PenaltyMethod::new(self.penalty(), PT_TRIALS).expect("valid penalty")
    }

    fn ensemble_seed(&self) -> u64 {
        derive_seed(self.seed, 1)
    }

    fn pt_seed(&self) -> u64 {
        derive_seed(self.seed, 2)
    }
}

/// Both comparators on one instance.
struct Done {
    ensemble: PenaltyOutcome,
    pt: PenaltyOutcome,
    pt_solves: Vec<SolveSpan>,
}

fn run_unit<P: ConstrainedProblem>(unit: &Unit, problem: &P) -> Done {
    let ensemble = unit
        .ensemble_method()
        .run_parallel(problem, &mut ensemble(THREADS, unit.ensemble_seed()))
        .expect("encoded problems are consistent");
    let log = Rc::new(RefCell::new(Vec::new()));
    let pt = ParallelTempering::new(pt_config(THREADS), unit.pt_seed());
    let pt = unit
        .pt_method()
        .run(problem, TimedSolver::new(pt, Rc::clone(&log)))
        .expect("encoded problems are consistent");
    let pt_solves = log.borrow().clone();
    Done {
        ensemble,
        pt,
        pt_solves,
    }
}

fn check(case: &Case<QkpEncoded>, out: &PenaltyOutcome, report: &mut Report) {
    if let Some((state, cost)) = &out.best {
        let e = case.problem.evaluate(state);
        report.check(e.feasible && e.cost == *cost, || {
            format!(
                "{}: baseline best re-evaluates to ({}, {})",
                case.label, e.cost, e.feasible
            )
        });
    } else {
        report.check(true, String::new);
    }
}

fn accuracy(case: &Case<QkpEncoded>, out: &PenaltyOutcome) -> f64 {
    out.best
        .as_ref()
        .map_or(0.0, |(_, c)| -c / case.reference as f64)
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let (cases, setup_s) =
        crate::cpu::timed(|| common::stratified_qkp(common::QKP_FAMILY, &mut report));
    report.info(
        "workload",
        obj(vec![
            ("name", text("baselines-qkp")),
            ("penalty_alpha", Value::Float(ALPHA)),
            ("ensemble_runs", Value::UInt(ENSEMBLE_RUNS as u64)),
            ("pt_replicas", Value::UInt(26)),
            ("pt_trials", Value::UInt(PT_TRIALS as u64)),
            (
                "mcs_per_run",
                Value::UInt(presets::qkp().mcs_per_run as u64),
            ),
            ("beta_max", Value::Float(presets::qkp().beta_max)),
            ("threads", Value::UInt(THREADS as u64)),
            ("instances", Value::UInt(cases.len() as u64)),
        ]),
    );
    common::qkp_reference_info(&mut report);
    let unit = |round: usize, c: usize| Unit {
        case: &cases[c],
        seed: derive_seed(args.seed, 2000 + (round * cases.len() + c) as u64),
    };
    if args.trace {
        traced(args, &cases, &unit, &mut report);
        return report;
    }
    let rounds = common::rounds(args);
    // two-thread work runs on the wall clock: CPU time summed over threads
    // would read the same if the engines ran serially
    let resetup = || {
        crate::cpu::timed(|| common::stratified_qkp(common::QKP_FAMILY, &mut Report::default())).1
    };
    let units = rounds * cases.len();
    let mut sampler = SetupSampler::new(setup_s, units / common::SETUP_SAMPLES, resetup);
    let steal = crate::cpu::Steal::start();
    let start = Instant::now();
    let mut done = Vec::new();
    for round in 0..rounds {
        for c in 0..cases.len() {
            sampler.tick();
            let u = unit(round, c);
            done.push((c, run_unit(&u, &u.case.problem)));
        }
    }
    let end = Instant::now();
    let wall = (end - start).as_secs_f64() - sampler.wall_within(start, end);
    let mut m = common::ClosedLoop {
        mcs: 0,
        samples: 0,
        feasible: 0.0,
        accuracy: Vec::new(),
        latency_ms: Vec::new(),
        busy_s: wall,
    };
    for (c, d) in &done {
        for (out, runs) in [(&d.ensemble, ENSEMBLE_RUNS), (&d.pt, PT_TRIALS)] {
            check(&cases[*c], out, &mut report);
            m.mcs += out.mcs_total;
            m.feasible += out.feasibility * runs as f64;
            m.samples += runs;
        }
        // the baselines' best feasible sample on the instance, from either
        // comparator: four PT-DA readouts alone swing between feasible and
        // not from seed to seed
        m.accuracy
            .push(accuracy(&cases[*c], &d.ensemble).max(accuracy(&cases[*c], &d.pt)));
        m.latency_ms
            .extend(d.pt_solves.iter().map(|s| s.secs() * 1e3));
    }
    let setup_s = sampler.finish(&mut report);
    common::report_closed_loop(&mut report, &m, setup_s);
    report.info(
        "measured",
        obj(vec![
            ("rounds", Value::UInt(rounds as u64)),
            ("wall_s", Value::Float(wall)),
            ("timing_clock", text("wall clock")),
            ("steal_pct", steal.pct().map_or(Value::Null, Value::Float)),
            (
                "latency_is",
                text("per PT-DA ladder solve (26 replicas x 1000 sweeps)"),
            ),
            (
                "goodput_is",
                text("annealed samples (ensemble runs + PT-DA readouts) per second"),
            ),
        ]),
    );
    report
}

fn traced<'a>(
    args: &Args,
    cases: &'a [Case<QkpEncoded>],
    unit: &dyn Fn(usize, usize) -> Unit<'a>,
    report: &mut Report,
) {
    let (plain, plain_s): (Vec<(PenaltyOutcome, PenaltyOutcome)>, f64) = common::timed(|| {
        (0..cases.len())
            .map(|c| {
                let u = unit(0, c);
                let d = run_unit(&u, &u.case.problem);
                (d.ensemble, d.pt)
            })
            .collect()
    });
    let mut pt_solves = Vec::new();
    let mut evaluate = Vec::new();
    let (_, traced_s) = common::timed(|| {
        for (c, expected) in plain.iter().enumerate() {
            let u = unit(0, c);
            let problem = TimedProblem::new(&u.case.problem);
            let d = run_unit(&u, &problem);
            report.check((&d.ensemble, &d.pt) == (&expected.0, &expected.1), || {
                format!(
                    "{}: traced baseline outcome differs from the untraced one",
                    u.case.label
                )
            });
            check(u.case, &d.ensemble, report);
            check(u.case, &d.pt, report);
            pt_solves.extend(d.pt_solves);
            evaluate.extend(
                problem
                    .spans()
                    .iter()
                    .map(|(a, b)| (*b - *a).as_secs_f64() * 1e6),
            );
        }
    });
    report.set("trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s);
    report.set("core.evaluate_us.p50", stats::median(&evaluate));
    solve_metrics(&pt_solves, report);
    report.set(
        "machine.pt_solve_ms",
        stats::median(&pt_solves.iter().map(|s| s.secs() * 1e3).collect::<Vec<_>>()),
    );

    // replays of single layers on the penalty models, after the traffic:
    // the ensemble and the PT ladder at one thread and at two, which must
    // agree bit for bit
    let mut ensemble_ms = Vec::new();
    let (mut one, mut two) = (0.0, 0.0);
    let mut init = Vec::new();
    let mut to_ising = Vec::new();
    let mut specs = Vec::new();
    for c in 0..cases.len().min(4) {
        let u = unit(0, c);
        let qubo = penalty_qubo(&u.case.problem, u.penalty()).expect("consistent model");
        to_ising.push(common::median_us(5, || {
            std::hint::black_box(qubo.to_ising());
        }));
        let model = qubo.to_ising();
        let mut rng = new_rng(derive_seed(args.seed, 9000 + c as u64));
        init.push(common::median_us(20, || {
            std::hint::black_box(PbitMachine::new(&model, &mut rng));
        }));
        let (runs1, t1) =
            common::timed(|| ensemble(1, u.ensemble_seed()).solve_runs(&model, ENSEMBLE_RUNS));
        let (runs2, t2) = common::timed(|| {
            ensemble(THREADS, u.ensemble_seed()).solve_runs(&model, ENSEMBLE_RUNS)
        });
        report.check(runs1 == runs2, || {
            "ensemble runs depend on the thread count".into()
        });
        ensemble_ms.push(t2 * 1e3);
        let (pt1, s1) =
            common::timed(|| ParallelTempering::new(pt_config(1), u.pt_seed()).solve(&model));
        let (pt2, s2) =
            common::timed(|| ParallelTempering::new(pt_config(THREADS), u.pt_seed()).solve(&model));
        report.check(pt1 == pt2, || "PT solve depends on the thread count".into());
        one += t1 + s1;
        two += t2 + s2;
        specs.push(common::qkp_job(1 + c as u64, qubo, 1, u.seed));
    }
    report.set("machine.ensemble_solve_ms", stats::median(&ensemble_ms));
    report.set("machine.thread_speedup", one / two);
    report.set("machine.init_us", stats::median(&init));
    report.set("ising.to_ising_us", stats::median(&to_ising));
    specs.truncate(2);
    common::codec_replay(&specs, 3, report);
    common::frame_sizes(args.seed, report);
    common::idle(
        report,
        &[
            "core.setup_us",
            "core.ascend_us.p50",
            "core.share_pct",
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
            (
                "thread_speedup_is",
                text("ensemble + PT replays: time at 1 thread / time at 2"),
            ),
        ]),
    );
}
