//! Service determinism: every result streamed through the batched job
//! service must be **bit-identical** to the direct engine / `SaimRunner`
//! call with the same seed — for any worker count, queue depth, or
//! submission interleaving. The service adds scheduling, never randomness.
//!
//! CI runs this suite in the same 1/2/8-thread matrix as
//! `tests/determinism.rs` (`SAIM_DETERMINISM_THREADS` selects the
//! env-matrix leg's worker count).

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_knapsack::generate;
use saim_machine::service::{solver_service, JobOutcome, JobSpec, ServiceConfig, SolverSpec};
use saim_machine::{
    derive_seed, BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, GreedyDescent,
    IsingSolver, ParallelTempering, PtConfig,
};
use std::time::Duration;

/// The three solver kinds the service schedules, deliberately mixing
/// explicit and auto-sized (`threads: 0`) inner threading — worker threads
/// run auto-sized engines inline, the caller's thread fans them out, and
/// both must read identically.
fn solver_kinds() -> [SolverSpec; 3] {
    [
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 3,
            threads: 0,
            schedule: BetaSchedule::linear(9.0),
            mcs_per_run: 80,
            dynamics: Dynamics::Gibbs,
        }),
        SolverSpec::Pt(PtConfig {
            replicas: 4,
            sweeps: 70,
            swap_interval: 10,
            threads: 1,
            ..PtConfig::default()
        }),
        SolverSpec::Descent { max_sweeps: 400 },
    ]
}

/// Nine jobs: three QKP instances × the three solver kinds, each job with
/// its own SplitMix-derived seed and its instance's digest.
fn mixed_specs() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (slot, n) in [18usize, 22, 26].into_iter().enumerate() {
        let inst = generate::qkp(n, 0.5, 40 + slot as u64).expect("valid parameters");
        let enc = inst.encode().expect("encodes");
        let qubo =
            saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
        for (kind, solver) in solver_kinds().into_iter().enumerate() {
            let job = (slot * 3 + kind) as u64;
            specs.push(
                JobSpec::new(job, qubo.clone(), solver, derive_seed(7, job))
                    .with_instance_digest(inst.digest()),
            );
        }
    }
    specs
}

/// Drains a solver service, unwrapping the typed-failure layer — no job in
/// these suites panics.
fn drain_ok(
    service: &mut saim_machine::service::JobService<JobSpec, JobOutcome>,
) -> Vec<JobOutcome> {
    service
        .drain()
        .into_iter()
        .map(|r| r.expect("no solver job panicked"))
        .collect()
}

/// The direct-call oracle: the engine invocation each [`SolverSpec`]
/// variant documents, with no service machinery at all.
fn direct_outcome(spec: &JobSpec) -> JobOutcome {
    let model = spec.model.to_ising();
    let solved = match &spec.solver {
        SolverSpec::Ensemble(config) => EnsembleAnnealer::new(*config, spec.seed).solve(&model),
        SolverSpec::Pt(config) => ParallelTempering::new(*config, spec.seed).solve(&model),
        SolverSpec::Descent { max_sweeps } => GreedyDescent::new(spec.seed)
            .with_max_sweeps(*max_sweeps)
            .solve(&model),
    };
    JobOutcome::new(spec, &solved, Duration::ZERO)
}

#[test]
fn service_outcomes_replay_direct_engine_calls_for_any_worker_count() {
    let specs = mixed_specs();
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    for workers in [1usize, 2, 8] {
        for queue_depth in [1usize, 64] {
            let mut service = solver_service(ServiceConfig {
                workers,
                queue_depth,
            });
            for spec in &specs {
                service.submit(spec.clone());
            }
            let outcomes = drain_ok(&mut service);
            assert_eq!(outcomes.len(), oracle.len());
            for (got, want) in outcomes.iter().zip(&oracle) {
                assert_eq!(
                    got.canonical(),
                    want.canonical(),
                    "workers = {workers}, depth = {queue_depth}, job {}",
                    want.job
                );
                // byte-identical on the wire, too — what a result store
                // would actually compare
                assert_eq!(got.canonical().to_json(), want.canonical().to_json());
            }
        }
    }
}

#[test]
fn submission_interleaving_never_changes_outcomes() {
    let specs = mixed_specs();
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    // two distinct submission orders: reversed, and inside-out interleaved
    let reversed: Vec<usize> = (0..specs.len()).rev().collect();
    let mut interleaved = Vec::new();
    let (mut lo, mut hi) = (0usize, specs.len() - 1);
    while lo < hi {
        interleaved.push(lo);
        interleaved.push(hi);
        lo += 1;
        hi -= 1;
    }
    if lo == hi {
        interleaved.push(lo);
    }
    for order in [reversed, interleaved] {
        let mut service = solver_service(ServiceConfig {
            workers: 4,
            queue_depth: 3,
        });
        for &i in &order {
            service.submit(specs[i].clone());
        }
        // consume in completion order and re-associate through the echoed
        // job id — the streaming path a front-end would use
        let mut seen = 0usize;
        while let Some(result) = service.recv() {
            let result = result.expect("no solver job panicked");
            let got = result.value.canonical();
            let want = oracle[got.job as usize].canonical();
            assert_eq!(got, want, "job {}", got.job);
            assert_eq!(got.to_json(), want.to_json());
            seen += 1;
        }
        assert_eq!(seen, specs.len());
    }
}

/// Hot-regime solver kinds (β ≤ 8 throughout): ensemble and PT runs that
/// never leave the regime the bracket decision kernel accelerates, plus a
/// descent control.
fn hot_solver_kinds() -> [SolverSpec; 3] {
    [
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 3,
            threads: 0,
            schedule: BetaSchedule::constant(4.0),
            mcs_per_run: 70,
            dynamics: Dynamics::Gibbs,
        }),
        SolverSpec::Pt(PtConfig {
            replicas: 4,
            sweeps: 60,
            swap_interval: 10,
            beta_min: 0.5,
            beta_max: 8.0,
            threads: 1,
        }),
        SolverSpec::Descent { max_sweeps: 300 },
    ]
}

#[test]
fn hot_regime_jobs_replay_direct_engine_calls() {
    // the hot-regime leg of the replay contract, in the same env-selected
    // worker matrix as the deep-quench suite: β ∈ {2, 4, 8} jobs streamed
    // through the service must match the direct engine calls bit for bit
    let env_workers: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let mut specs = Vec::new();
    for (slot, beta) in [2.0f64, 4.0, 8.0].into_iter().enumerate() {
        let inst = generate::qkp(20 + 2 * slot, 0.5, 70 + slot as u64).expect("valid parameters");
        let enc = inst.encode().expect("encodes");
        let qubo =
            saim_core::penalty_qubo(&enc, enc.penalty_for_alpha(2.0)).expect("valid penalty");
        for (kind, solver) in hot_solver_kinds().into_iter().enumerate() {
            let solver = match solver {
                SolverSpec::Ensemble(config) => SolverSpec::Ensemble(EnsembleConfig {
                    schedule: BetaSchedule::constant(beta),
                    ..config
                }),
                other => other,
            };
            let job = (slot * 3 + kind) as u64;
            specs.push(
                JobSpec::new(job, qubo.clone(), solver, derive_seed(11, job))
                    .with_instance_digest(inst.digest()),
            );
        }
    }
    let oracle: Vec<JobOutcome> = specs.iter().map(direct_outcome).collect();
    for workers in [1usize, env_workers] {
        let mut service = solver_service(ServiceConfig {
            workers,
            queue_depth: 8,
        });
        for spec in &specs {
            service.submit(spec.clone());
        }
        let outcomes = drain_ok(&mut service);
        assert_eq!(outcomes.len(), oracle.len());
        for (got, want) in outcomes.iter().zip(&oracle) {
            assert_eq!(
                got.canonical(),
                want.canonical(),
                "workers = {workers}, job {}",
                want.job
            );
            assert_eq!(got.canonical().to_json(), want.canonical().to_json());
        }
    }
}

#[test]
fn service_is_invariant_at_env_selected_worker_count() {
    // CI runs this test in a matrix over SAIM_DETERMINISM_THREADS=1/2/8;
    // whatever the leg, the service must reproduce the one-worker stream
    let workers: usize = std::env::var("SAIM_DETERMINISM_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    let specs = mixed_specs();
    let run = |workers: usize| {
        let mut service = solver_service(ServiceConfig {
            workers,
            queue_depth: 4,
        });
        for spec in &specs {
            service.submit(spec.clone());
        }
        drain_ok(&mut service)
            .into_iter()
            .map(|o| o.canonical())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(workers), run(1), "workers = {workers}");
}

/// The SAIM-level jobs of the `run_jobs` facade: per-instance penalties
/// and per-job seeds, exactly like a benchmark grid.
fn saim_jobs() -> Vec<(SaimConfig, saim_knapsack::QkpEncoded)> {
    (0..4u64)
        .map(|i| {
            let inst = generate::qkp(16 + 2 * i as usize, 0.5, 60 + i).expect("valid parameters");
            let enc = inst.encode().expect("encodes");
            let config = SaimConfig {
                penalty: enc.penalty_for_alpha(2.0),
                eta: 20.0,
                iterations: 10,
                seed: derive_seed(9, i),
            };
            (config, enc)
        })
        .collect()
}

#[test]
fn run_jobs_replays_direct_saim_runs_for_any_worker_count() {
    let solver = SolverSpec::Ensemble(EnsembleConfig {
        replicas: 3,
        threads: 1,
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: 90,
        dynamics: Dynamics::Gibbs,
    });
    let oracle: Vec<_> = saim_jobs()
        .into_iter()
        .map(|(config, enc)| SaimRunner::new(config).run_spec(&enc, &solver))
        .collect();
    for workers in [1usize, 2, 8] {
        let outcomes = SaimRunner::run_jobs(
            saim_jobs(),
            &solver,
            ServiceConfig {
                workers,
                queue_depth: 2,
            },
        );
        assert_eq!(outcomes.len(), oracle.len());
        for (i, (got, want)) in outcomes.iter().zip(&oracle).enumerate() {
            assert_eq!(got, want, "workers = {workers}, job {i}");
            // the serialized experiment records match byte for byte
            assert_eq!(
                serde_json::to_string(got).expect("serializes"),
                serde_json::to_string(want).expect("serializes")
            );
        }
    }
}

#[test]
fn run_jobs_is_invariant_under_job_permutations() {
    // run_jobs returns outcomes in job order, so permuting the job list
    // must permute the outcomes and change nothing else
    let solver = SolverSpec::Pt(PtConfig {
        replicas: 4,
        sweeps: 60,
        swap_interval: 10,
        threads: 1,
        ..PtConfig::default()
    });
    let service = ServiceConfig {
        workers: 3,
        queue_depth: 2,
    };
    let forward = SaimRunner::run_jobs(saim_jobs(), &solver, service);
    let mut shuffled_jobs = saim_jobs();
    shuffled_jobs.reverse();
    let backward = SaimRunner::run_jobs(shuffled_jobs, &solver, service);
    assert_eq!(backward, forward.iter().rev().cloned().collect::<Vec<_>>());
}

#[test]
fn zero_and_single_job_streams_through_the_solver_service() {
    let mut empty = solver_service(ServiceConfig {
        workers: 2,
        queue_depth: 1,
    });
    assert!(empty.recv().is_none());
    assert!(empty.drain().is_empty());

    let spec = &mixed_specs()[0];
    let mut single = solver_service(ServiceConfig {
        workers: 2,
        queue_depth: 1,
    });
    assert_eq!(single.submit(spec.clone()), 0);
    let result = single
        .recv()
        .expect("one job outstanding")
        .expect("no solver job panicked");
    assert_eq!(result.submitted, 0);
    assert_eq!(result.value.canonical(), direct_outcome(spec).canonical());
    assert!(single.recv().is_none());
}
