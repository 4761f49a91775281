//! Many QKP instances flowing through the batched job service at once —
//! the "heavy traffic" shape: submit a mixed stream of jobs, consume
//! results as they complete, and still get deterministic answers.
//!
//! ```text
//! cargo run --release --example job_service
//! ```
//!
//! Three layers are shown:
//!
//! 1. the **machine-level** service (`solver_service`): serialized
//!    `JobSpec`s — QUBO payload + solver selection + seed — stream through
//!    a bounded queue onto a persistent worker pool, results coming back
//!    in completion order tagged with submission order;
//! 2. the **SAIM-level** facade (`SaimRunner::run_jobs`): whole
//!    constrained problems with per-instance penalties, each job a full
//!    Algorithm-1 run, bit-identical to calling the runner directly;
//! 3. **cancel and resume** (`ControlledService`): a graceful shutdown
//!    checkpoints in-flight jobs into a directory, and a later resume
//!    finishes them bit-identically to never-interrupted runs.

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_knapsack::generate;
use saim_machine::service::{
    solver_service, ControlledService, JobSpec, ServiceConfig, SolverSpec, SubmitError,
};
use saim_machine::{derive_seed, BetaSchedule, Dynamics, EnsembleConfig, RunController};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    // ---- layer 1: raw solver jobs through the machine-level service ----
    let solver = SolverSpec::Ensemble(EnsembleConfig {
        replicas: 4,
        threads: 1, // jobs are the unit of parallelism here
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: 500,
        dynamics: Dynamics::Gibbs,
    });

    // eight QKP instances of growing size, one job each
    let mut specs = Vec::new();
    for i in 0..8u64 {
        let instance = generate::qkp(30 + 10 * i as usize, 0.5, 100 + i)?;
        let encoded = instance.encode()?;
        let qubo = saim_core::penalty_qubo(&encoded, encoded.penalty_for_alpha(2.0))?;
        specs.push(
            JobSpec::new(i, qubo, solver.clone(), derive_seed(42, i))
                .with_instance_digest(instance.digest()),
        );
    }

    let mut service = solver_service(ServiceConfig {
        workers: 0,     // all cores
        queue_depth: 4, // small on purpose, to show backpressure
    });

    println!("submitting {} jobs (queue depth 4):", specs.len());
    let mut streamed = Vec::new();
    for spec in &specs {
        // non-blocking submission with a recv fallback: when the queue is
        // momentarily full, consume a finished result to make room
        let mut pending = spec.clone();
        loop {
            match service.try_submit(pending) {
                Ok(index) => {
                    println!("  job {:>2} queued (submission #{index})", spec.job);
                    break;
                }
                Err(SubmitError::Full(back)) => {
                    if let Some(result) = service.recv() {
                        let result = result.expect("solver jobs do not panic");
                        println!(
                            "  ... queue full; drained job {} (E = {:+.1}) to make room",
                            result.value.job, result.value.best_energy
                        );
                        streamed.push(result.value);
                    }
                    pending = back;
                }
            }
        }
    }
    // results arrive in completion order; the `job` id re-associates them
    while let Some(result) = service.recv() {
        let result = result.expect("solver jobs do not panic");
        println!(
            "  done: job {:>2} after submission #{:>2}  E = {:+9.1}  ({} sweeps, {:.1} ms)",
            result.value.job,
            result.submitted,
            result.value.best_energy,
            result.value.mcs,
            result.value.elapsed_ns as f64 / 1e6,
        );
        streamed.push(result.value);
    }
    println!("  {} results collected\n", streamed.len());

    // the wire forms round-trip byte-for-byte — what a network front-end
    // would actually ship
    let json = specs[0].to_json();
    assert_eq!(JobSpec::from_json(&json)?.to_json(), json);
    println!("spec 0 on the wire: {} bytes of JSON", json.len());

    // ---- layer 2: whole SAIM runs as jobs ----------------------------
    let jobs: Vec<(SaimConfig, _)> = (0..4u64)
        .map(|i| {
            let instance =
                generate::qkp(25 + 5 * i as usize, 0.5, 200 + i).expect("valid parameters");
            let encoded = instance.encode().expect("instance encodes");
            let config = SaimConfig {
                penalty: encoded.penalty_for_alpha(2.0),
                eta: 20.0,
                iterations: 60,
                seed: derive_seed(7, i),
            };
            (config, encoded)
        })
        .collect();
    let outcomes = SaimRunner::run_jobs(jobs, &solver, ServiceConfig::default());
    println!("\nSAIM jobs (outcomes in job order):");
    for (i, outcome) in outcomes.iter().enumerate() {
        match &outcome.best {
            Some(best) => println!(
                "  instance {i}: best feasible profit {:>6}  ({:.0}% of iterations feasible)",
                -best.cost,
                100.0 * outcome.feasibility
            ),
            None => println!("  instance {i}: no feasible sample"),
        }
    }

    // ---- layer 3: cooperative shutdown, checkpoint, and resume -------
    // a ControlledService runs every job under one shared RunController;
    // shutdown_to() drains the fleet, checkpointing in-flight jobs and
    // persisting still-queued specs into a directory. Here every job stops
    // deterministically after 100 sweeps — standing in for an operator
    // interrupt or a deadline landing mid-run.
    let dir = std::env::temp_dir().join(format!("saim-job-service-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ctrl = RunController::unlimited()
        .with_stop_after(100)
        .with_poll_interval(1);
    let mut controlled = ControlledService::start(
        ServiceConfig {
            workers: 0,
            queue_depth: 8,
        },
        ctrl,
    );
    for spec in &specs {
        controlled.submit(spec.clone());
    }
    let report = controlled.shutdown_to(&dir)?;
    println!(
        "\ngraceful shutdown: {} finished, {} checkpointed mid-run, {} persisted unstarted",
        report.finished.len(),
        report.checkpointed,
        report.pending,
    );

    // ... a process restart later: resume() re-submits everything the
    // directory holds, and each completed job is bit-identical to a run
    // that was never interrupted — same energies, states, and RNG stream
    let mut resumed =
        ControlledService::resume(ServiceConfig::default(), RunController::unlimited(), &dir)?;
    while let Some(result) = resumed.recv() {
        let run = result.expect("solver jobs do not panic").value;
        let uninterrupted = specs[run.outcome.job as usize].run();
        assert_eq!(run.outcome.canonical(), uninterrupted.canonical());
        println!(
            "  resumed job {:>2}: E = {:+9.1} over {} sweeps — bit-identical to uninterrupted",
            run.outcome.job, run.outcome.best_energy, run.outcome.mcs,
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
