//! Batched multi-instance job service: many models × many runs flowing
//! through one scheduler.
//!
//! The engines below this layer parallelize *one* solve — replicas across
//! threads ([`EnsembleAnnealer`]), ladder rounds across threads
//! ([`ParallelTempering`]). A benchmark grid, a tuning sweep, or a network
//! front-end instead has **many independent jobs** of mixed shapes and
//! sizes, and wants them flowing through a fixed worker budget with
//! backpressure. That is this module: a job-queue facade over the
//! [`parallel`](crate::parallel) primitives.
//!
//! # Scheduling layout
//!
//! - A [`JobService`] owns one **persistent worker pool** (spawned once at
//!   [`JobService::start`], joined on drop) and one bounded FIFO job queue
//!   ([`BoundedQueue`]) of depth [`ServiceConfig::queue_depth`].
//! - [`JobService::submit`] blocks while the queue is full;
//!   [`JobService::try_submit`] returns [`SubmitError::Full`] instead —
//!   the two backpressure paths.
//! - Workers pop jobs dynamically (whoever is free takes the oldest job)
//!   and stream results back **in completion order**, each tagged with its
//!   **submission index** ([`JobResult::submitted`]), so callers can either
//!   consume results as they land ([`JobService::recv`]) or fold them back
//!   into submission order ([`JobService::drain`]).
//!
//! # Stream derivation and determinism
//!
//! The service adds **no randomness of its own**: every job carries its own
//! root seed, every solver derives its internal SplitMix64 streams from
//! that seed exactly as it would in a direct call, and no RNG is ever
//! shared between jobs. Scheduling therefore affects only *when* a job
//! runs, never *what* it computes: a job's result is bit-identical to
//! calling the underlying engine directly with the same seed, **for any
//! worker count, queue depth, or submission interleaving**
//! (`tests/service_replay.rs` asserts this across worker counts 1/2/8 and
//! shuffled submission orders).
//!
//! Worker threads are marked as pool workers, so a job whose solver asks
//! for auto-sized threading (`threads: 0`) runs its sweeps inline instead
//! of spawning a nested all-cores pool — with many jobs in flight the
//! parallelism is already at the job level, and results are
//! thread-count-invariant either way.
//!
//! # Fault tolerance
//!
//! Three failure paths are first-class values, never stream teardowns:
//!
//! - **A panicking job** reports as a typed [`JobFailure`] in its own slot
//!   of the result stream ([`JobService::recv`]/[`JobService::drain`]);
//!   every other job's result is still delivered.
//! - **Cancellation and deadlines**: a [`ControlledService`] runs every job
//!   under one shared [`RunController`], so the owner can stop the fleet —
//!   each job returns a well-formed partial [`JobOutcome`] (tagged by
//!   [`JobOutcome::outcome_kind`]) within one poll interval.
//! - **Graceful drain**: [`ControlledService::shutdown_to`] checkpoints
//!   in-flight jobs and persists still-queued specs into a directory;
//!   [`ControlledService::resume`] re-submits them such that every
//!   completed resumed job is **bit-identical** to a never-interrupted run
//!   at any worker count (see [`crate::checkpoint`] for the format and the
//!   capture rules that make this hold).
//!
//! # Wire schema
//!
//! [`JobSpec`] and [`JobOutcome`] are the serialized forms (schema version
//! [`SCHEMA_VERSION`]) a network front-end would speak: a spec carries the
//! QUBO payload, solver selection ([`SolverSpec`]), seed and an instance
//! digest; an outcome echoes the identifiers and reports energies, states,
//! sweep counts and wall-clock timing. Parsing is **strict**:
//! schema-version mismatches and unknown fields (at the envelope, the
//! solver selection, and the model's top-level fields) are rejected with a
//! typed [`SchemaError`], and `serialize → parse → re-serialize` is
//! byte-stable (proptests in `crates/machine/tests/schema_roundtrip.rs`).
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::service::{solver_service, JobSpec, ServiceConfig, SolverSpec};
//! use saim_machine::EnsembleConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = QuboBuilder::new(3);
//! for i in 0..3 { b.add_linear(i, -1.0)?; }
//! let model = b.build();
//!
//! let spec = SolverSpec::Ensemble(EnsembleConfig {
//!     replicas: 2,
//!     mcs_per_run: 50,
//!     ..EnsembleConfig::default()
//! });
//! let mut service = solver_service(ServiceConfig::default());
//! for seed in 0..4u64 {
//!     service.submit(JobSpec::new(seed, model.clone(), spec.clone(), seed));
//! }
//! let outcomes = service.drain(); // submission order
//! assert_eq!(outcomes.len(), 4);
//! let first = outcomes[0].as_ref().expect("the job ran to completion");
//! assert!((first.best_energy - (-3.0)).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

use crate::checkpoint::{Checkpoint, CheckpointError, EngineState, OutcomeKind, RunController};
use crate::descent::GreedyDescent;
use crate::ensemble::{EnsembleAnnealer, EnsembleConfig};
use crate::parallel::{self, BoundedQueue, PushError};
use crate::pt::{ParallelTempering, PtConfig};
use crate::solver::{IsingSolver, SolveOutcome};
use saim_ising::{Qubo, SpinState};
use serde::{Deserialize, Serialize, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Arc};
use std::time::Instant;

// ------------------------------------------------------------- the service

/// Configuration of a [`JobService`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServiceConfig {
    /// Worker threads executing jobs; `0` means all available cores —
    /// except when the service is constructed from inside another pool's
    /// worker, where it means one (no nested all-cores pools, exactly like
    /// the auto-sized fork–join primitives). The worker count affects
    /// wall-clock only, never results.
    pub workers: usize,
    /// Bound on jobs waiting in the queue (excluding jobs already running).
    /// [`JobService::submit`] blocks — and [`JobService::try_submit`]
    /// returns [`SubmitError::Full`] — while this many jobs are waiting.
    pub queue_depth: usize,
}

impl Default for ServiceConfig {
    /// All cores, with a queue deep enough that grid-style submit loops
    /// rarely block.
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_depth: 128,
        }
    }
}

impl ServiceConfig {
    fn validate(&self) {
        assert!(self.queue_depth > 0, "queue depth must be positive");
    }
}

/// Why a [`JobService::try_submit`] was rejected; the job comes back to the
/// caller.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// [`ServiceConfig::queue_depth`] jobs were already waiting. Retry
    /// later, or use the blocking [`JobService::submit`].
    Full(J),
}

/// One finished job, tagged with its submission index.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult<R> {
    /// The index [`JobService::submit`]/[`JobService::try_submit`] returned
    /// for this job (0-based, in submission order).
    pub submitted: u64,
    /// What the executor produced.
    pub value: R,
}

/// The identifying slice of a [`JobSpec`] — job id, instance digest, solver
/// selection — without the model payload. Rides on [`JobFailure`] so a
/// failure can be correlated with what was asked for (by a network client,
/// a result store, a log line) without keeping a side table of submissions.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSummary {
    /// The spec's client-chosen job identifier.
    pub job: u64,
    /// The spec's instance digest (`0` when unknown).
    pub instance_digest: u64,
    /// The spec's solver selection and configuration.
    pub solver: SolverSpec,
}

impl JobSummary {
    /// Extracts the summary from a spec.
    pub fn of(spec: &JobSpec) -> Self {
        JobSummary {
            job: spec.job,
            instance_digest: spec.instance_digest,
            solver: spec.solver.clone(),
        }
    }
}

/// A job whose execution panicked, reported as a **value** in the result
/// stream: one poisoned job must not tear down the service or strand the
/// other jobs' results. (The old behavior — re-raising the payload at the
/// caller's next `recv` — killed the whole stream; a pinning test asserts
/// it is gone.)
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// The failed job's submission index.
    pub submitted: u64,
    /// The panic message, when it was a string (the overwhelmingly common
    /// case); a placeholder otherwise.
    pub message: String,
    /// What the failed job *was* — captured before execution, so it is
    /// present even though the job itself never produced an outcome.
    /// `None` only for generic services whose job type has no spec (see
    /// [`JobService::start`]); [`solver_service`] and [`ControlledService`]
    /// always fill it.
    pub origin: Option<JobSummary>,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.origin {
            Some(origin) => write!(
                f,
                "job {} (id {}, digest {:016x}) panicked: {}",
                self.submitted, origin.job, origin.instance_digest, self.message
            ),
            None => write!(f, "job {} panicked: {}", self.submitted, self.message),
        }
    }
}

impl std::error::Error for JobFailure {}

/// Extracts a printable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else if let Some(text) = payload.downcast_ref::<&'static str>() {
        (*text).to_string()
    } else {
        "job panicked with a non-string payload".to_string()
    }
}

type TaggedResult<R> = (u64, Option<JobSummary>, std::thread::Result<R>);

/// How a worker summarizes a job before running it, so a panic can still
/// report *what* failed (see [`JobFailure::origin`]).
type DescribeFn<J> = dyn Fn(&J) -> Option<JobSummary> + Send + Sync;

/// A persistent worker pool executing independent jobs from a bounded
/// queue, streaming results back in completion order.
///
/// Generic over the job payload `J` and result `R`; the executor closure is
/// fixed at [`JobService::start`]. The solver-level instantiation — specs
/// in, outcomes out — is [`solver_service`]; `SaimRunner::run_jobs` in
/// `saim-core` and the bench harness's instance grids build their own
/// instantiations over the same machinery.
///
/// The handle is single-owner (`&mut self` submission/receive); concurrency
/// lives in the workers. Dropping the service discards jobs still waiting
/// in the queue, lets jobs already running finish, and joins every worker —
/// no threads are leaked and nothing deadlocks, even mid-stream.
pub struct JobService<J, R> {
    queue: Arc<BoundedQueue<(u64, J)>>,
    results: mpsc::Receiver<TaggedResult<R>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    submitted: u64,
    delivered: u64,
    /// Jobs discarded by [`JobService::discard_pending`] before a worker
    /// picked them up; they will never produce a result.
    cancelled: u64,
}

impl<J: Send + 'static, R: Send + 'static> JobService<J, R> {
    /// Spawns the worker pool; every job goes through `run`. Failures carry
    /// no [`JobFailure::origin`] — the generic service cannot know what a
    /// `J` is; use [`JobService::start_described`] to attach one.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`queue_depth == 0`).
    pub fn start<F>(config: ServiceConfig, run: F) -> Self
    where
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        Self::start_described(config, run, |_| None)
    }

    /// Like [`JobService::start`], but workers capture `describe(&job)`
    /// **before** executing it, so a panicking job's [`JobFailure`] still
    /// reports what the job was ([`JobFailure::origin`]).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`queue_depth == 0`).
    pub fn start_described<F, D>(config: ServiceConfig, run: F, describe: D) -> Self
    where
        F: Fn(J) -> R + Send + Sync + 'static,
        D: Fn(&J) -> Option<JobSummary> + Send + Sync + 'static,
    {
        config.validate();
        // `workers: 0` resolves like every auto-sized primitive: all cores,
        // except from inside another pool's worker, where it means one —
        // a service constructed inside a service job must not multiply the
        // machine's thread count
        let worker_count = parallel::resolve_pool_workers(config.workers);
        let queue = Arc::new(BoundedQueue::new(config.queue_depth));
        let (tx, results) = mpsc::channel::<TaggedResult<R>>();
        let run = Arc::new(run);
        let describe: Arc<DescribeFn<J>> = Arc::new(describe);
        let workers = (0..worker_count)
            .map(|_| {
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                let run = Arc::clone(&run);
                let describe = Arc::clone(&describe);
                std::thread::spawn(move || {
                    parallel::mark_pool_worker();
                    while let Some((index, job)) = queue.pop() {
                        // summarized before running: a panicked job can no
                        // longer say what it was, so capture that up front
                        let origin = describe(&job);
                        // a panicking job must not kill the worker or strand
                        // a receiver: ship the payload back, where it becomes
                        // that job's typed JobFailure in the result stream
                        let result = catch_unwind(AssertUnwindSafe(|| run(job)));
                        // the send only fails when the service (and its
                        // receiver) is already being dropped — the result is
                        // unobservable then by construction
                        let _ = tx.send((index, origin, result));
                    }
                })
            })
            .collect();
        JobService {
            queue,
            results,
            workers,
            submitted: 0,
            delivered: 0,
            cancelled: 0,
        }
    }

    /// Enqueues a job, blocking while the queue is full, and returns its
    /// submission index.
    pub fn submit(&mut self, job: J) -> u64 {
        let index = self.submitted;
        self.queue
            .push((index, job))
            .unwrap_or_else(|_| unreachable!("the queue closes only on drop"));
        self.submitted += 1;
        index
    }

    /// Enqueues a job only if a queue slot is free right now.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Full`] — with the job handed back — when
    /// [`ServiceConfig::queue_depth`] jobs are already waiting.
    pub fn try_submit(&mut self, job: J) -> Result<u64, SubmitError<J>> {
        let index = self.submitted;
        match self.queue.try_push((index, job)) {
            Ok(()) => {
                self.submitted += 1;
                Ok(index)
            }
            Err(PushError::Full((_, job))) => Err(SubmitError::Full(job)),
            Err(PushError::Closed(_)) => unreachable!("the queue closes only on drop"),
        }
    }

    /// The next finished job in **completion order**, blocking until one is
    /// ready. Returns `None` when every submitted job's result has already
    /// been delivered.
    ///
    /// A job whose execution panicked reports as `Err(`[`JobFailure`]`)` —
    /// a value, not a re-raise — so the stream keeps flowing and every
    /// other job's result is still delivered.
    pub fn recv(&mut self) -> Option<Result<JobResult<R>, JobFailure>> {
        if self.outstanding() == 0 {
            return None;
        }
        let (submitted, origin, result) = self
            .results
            .recv()
            .expect("workers outlive outstanding jobs");
        self.delivered += 1;
        Some(match result {
            Ok(value) => Ok(JobResult { submitted, value }),
            Err(payload) => Err(JobFailure {
                submitted,
                message: panic_message(payload.as_ref()),
                origin,
            }),
        })
    }

    /// Collects every outstanding result and returns the per-job
    /// `Ok(value)` / `Err(`[`JobFailure`]`)` entries **in submission order**
    /// (results already taken via [`JobService::recv`] are not replayed).
    /// One panicked job costs exactly its own slot, never the stream.
    pub fn drain(&mut self) -> Vec<Result<R, JobFailure>> {
        let mut tagged: Vec<(u64, Result<R, JobFailure>)> =
            Vec::with_capacity(self.outstanding() as usize);
        while let Some(result) = self.recv() {
            tagged.push(match result {
                Ok(ok) => (ok.submitted, Ok(ok.value)),
                Err(failure) => (failure.submitted, Err(failure)),
            });
        }
        tagged.sort_by_key(|(submitted, _)| *submitted);
        tagged.into_iter().map(|(_, value)| value).collect()
    }

    /// Discards every job still waiting in the queue (jobs already picked
    /// up by a worker are unaffected) and returns how many were dropped.
    /// Discarded jobs never produce a result; the stream's bookkeeping is
    /// adjusted so [`JobService::recv`] and [`JobService::drain`] still
    /// terminate exactly when every *surviving* job has reported.
    pub fn discard_pending(&mut self) -> u64 {
        let dropped = self.queue.clear() as u64;
        self.cancelled += dropped;
        dropped
    }

    /// Jobs submitted whose results have not been delivered yet (cancelled
    /// jobs excluded — they will never report).
    pub fn outstanding(&self) -> u64 {
        self.submitted - self.delivered - self.cancelled
    }

    /// Total jobs submitted over the service's lifetime, including any
    /// later discarded by [`JobService::discard_pending`].
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }
}

impl<J, R> Drop for JobService<J, R> {
    /// Discards jobs still waiting in the queue, lets running jobs finish,
    /// and joins every worker thread.
    fn drop(&mut self) {
        self.queue.close_and_clear();
        for handle in self.workers.drain(..) {
            // worker bodies never panic (jobs are caught); a join error here
            // would mean the runtime itself failed, and drop must not panic
            let _ = handle.join();
        }
    }
}

// ------------------------------------------------------------- wire schema

/// Version tag every [`JobSpec`]/[`JobOutcome`] carries. Bump on any field
/// change; parsers reject other versions with
/// [`SchemaError::VersionMismatch`] instead of guessing. Version 2 added
/// [`JobOutcome::outcome_kind`] (partial results from cancelled,
/// deadline-stopped, or checkpointed runs); version 3 added the
/// queue-depth and ETA fields to the front-end's `stats` frame (the spec
/// and outcome shapes are unchanged, but the whole protocol versions as
/// one unit).
pub const SCHEMA_VERSION: u32 = 3;

/// Which solver a job runs, with its full configuration. The seed lives on
/// the [`JobSpec`], not here, so one spec can be fanned out over seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SolverSpec {
    /// A replica-ensemble annealing run ([`EnsembleAnnealer`]); the job is
    /// bit-identical to `EnsembleAnnealer::new(config, seed).solve(&model)`.
    Ensemble(EnsembleConfig),
    /// A parallel-tempering solve ([`ParallelTempering`]); bit-identical to
    /// `ParallelTempering::new(config, seed).solve(&model)`.
    Pt(PtConfig),
    /// Greedy single-flip descent ([`GreedyDescent`]); bit-identical to
    /// `GreedyDescent::new(seed).with_max_sweeps(max_sweeps).solve(&model)`.
    Descent {
        /// Cap on greedy sweeps before giving up (descent usually
        /// terminates much earlier at a 1-flip local optimum).
        max_sweeps: usize,
    },
}

/// A serialized job: everything a worker (local or remote) needs to produce
/// the deterministic [`JobOutcome`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobSpec {
    /// Wire-schema version; always [`SCHEMA_VERSION`] for specs built here.
    pub schema: u32,
    /// Client-chosen job identifier, echoed verbatim in the outcome so
    /// completion-order streams can be re-associated.
    pub job: u64,
    /// Digest of the instance this model encodes (e.g.
    /// `QkpInstance::digest` from `saim-knapsack`); `0` when unknown. Lets
    /// a result store detect payload mix-ups without shipping instances.
    pub instance_digest: u64,
    /// Root seed of the job's RNG streams. Jobs never share streams: two
    /// specs with different seeds are fully independent, and the same spec
    /// replays bit-identically anywhere.
    pub seed: u64,
    /// Solver selection and configuration.
    pub solver: SolverSpec,
    /// The QUBO payload (converted with [`Qubo::to_ising`] at run time,
    /// which is itself deterministic).
    pub model: Qubo,
}

impl JobSpec {
    /// Builds a spec at the current [`SCHEMA_VERSION`] with no instance
    /// digest.
    pub fn new(job: u64, model: Qubo, solver: SolverSpec, seed: u64) -> Self {
        JobSpec {
            schema: SCHEMA_VERSION,
            job,
            instance_digest: 0,
            seed,
            solver,
            model,
        }
    }

    /// Attaches an instance digest (see [`JobSpec::instance_digest`]).
    pub fn with_instance_digest(mut self, digest: u64) -> Self {
        self.instance_digest = digest;
        self
    }

    /// Runs the job to completion on the calling thread — the canonical
    /// executor [`solver_service`] workers invoke. Bit-identical to the
    /// direct engine call each [`SolverSpec`] variant documents.
    ///
    /// # Panics
    ///
    /// Panics if the solver configuration is invalid (the same conditions
    /// as constructing the solver directly). Inside a service the panic
    /// becomes the job's typed [`JobFailure`] in the result stream.
    pub fn run(&self) -> JobOutcome {
        let started = Instant::now();
        let model = self.model.to_ising();
        let solved = match &self.solver {
            SolverSpec::Ensemble(config) => EnsembleAnnealer::new(*config, self.seed).solve(&model),
            SolverSpec::Pt(config) => ParallelTempering::new(*config, self.seed).solve(&model),
            SolverSpec::Descent { max_sweeps } => GreedyDescent::new(self.seed)
                .with_max_sweeps(*max_sweeps)
                .solve(&model),
        };
        JobOutcome::new(self, &solved, started.elapsed())
    }

    /// Like [`JobSpec::run`], but under a [`RunController`]: the run can be
    /// cancelled, timed out, or stopped at a checkpoint, returning a
    /// partial [`JobOutcome`] (tagged via [`JobOutcome::outcome_kind`]) and
    /// — when checkpointed — the resumable [`Checkpoint`]. With an idle
    /// controller the outcome is bit-identical to [`JobSpec::run`].
    pub fn run_controlled(&self, ctrl: &RunController) -> ControlledOutcome {
        let started = Instant::now();
        let model = self.model.to_ising();
        let (solved, status, engine) = match &self.solver {
            SolverSpec::Ensemble(config) => {
                let run = EnsembleAnnealer::new(*config, self.seed).solve_controlled(&model, ctrl);
                (
                    run.outcome,
                    run.status,
                    run.state.map(EngineState::Ensemble),
                )
            }
            SolverSpec::Pt(config) => {
                let run = ParallelTempering::new(*config, self.seed).solve_controlled(&model, ctrl);
                (run.outcome, run.status, run.state.map(EngineState::Pt))
            }
            SolverSpec::Descent { max_sweeps } => {
                let run = GreedyDescent::new(self.seed)
                    .with_max_sweeps(*max_sweeps)
                    .solve_controlled(&model, ctrl);
                (run.outcome, run.status, run.state.map(EngineState::Descent))
            }
        };
        ControlledOutcome {
            outcome: JobOutcome::new(self, &solved, started.elapsed()).with_outcome_kind(status),
            checkpoint: engine.map(|e| Box::new(Checkpoint::new(self.clone(), e))),
        }
    }

    /// Continues this job from a captured [`EngineState`] under a
    /// [`RunController`]. A resumed run that completes is bit-identical —
    /// same energies, states, and consumed RNG words — to one that was
    /// never interrupted; [`JobOutcome::mcs`] then reports the full
    /// schedule, not just the sweeps after the cut.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the engine state's variant does
    /// not match [`JobSpec::solver`] or its image fails the engine's
    /// validation (wrong model size, schedule position out of range, …).
    pub fn resume_controlled(
        &self,
        engine: &EngineState,
        ctrl: &RunController,
    ) -> Result<ControlledOutcome, CheckpointError> {
        let started = Instant::now();
        let model = self.model.to_ising();
        let (solved, status, engine) = match (&self.solver, engine) {
            (SolverSpec::Ensemble(config), EngineState::Ensemble(state)) => {
                let run = EnsembleAnnealer::new(*config, self.seed)
                    .resume_controlled(&model, state, ctrl)?;
                (
                    run.outcome,
                    run.status,
                    run.state.map(EngineState::Ensemble),
                )
            }
            (SolverSpec::Pt(config), EngineState::Pt(state)) => {
                let run = ParallelTempering::new(*config, self.seed)
                    .resume_controlled(&model, state, ctrl)?;
                (run.outcome, run.status, run.state.map(EngineState::Pt))
            }
            (SolverSpec::Descent { max_sweeps }, EngineState::Descent(state)) => {
                let run = GreedyDescent::new(self.seed)
                    .with_max_sweeps(*max_sweeps)
                    .resume_controlled(&model, state, ctrl)?;
                (run.outcome, run.status, run.state.map(EngineState::Descent))
            }
            _ => {
                return Err(CheckpointError::Malformed(
                    "engine state does not match the spec's solver selection".into(),
                ))
            }
        };
        Ok(ControlledOutcome {
            outcome: JobOutcome::new(self, &solved, started.elapsed()).with_outcome_kind(status),
            checkpoint: engine.map(|e| Box::new(Checkpoint::new(self.clone(), e))),
        })
    }

    /// Serializes to compact JSON with a fixed field order, so equal specs
    /// always yield identical bytes.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("spec serialization is infallible")
    }

    /// Strictly parses a spec from JSON.
    ///
    /// Strictness covers the envelope (top-level fields), the solver
    /// selection (variant tag and every solver-config field set), and the
    /// model's top-level fields; trees below that (the coupling matrix,
    /// the β schedule payload) are shape-validated by their deserializers,
    /// which reject missing or mistyped fields and unknown enum variants.
    ///
    /// # Errors
    ///
    /// [`SchemaError::Json`] on malformed JSON,
    /// [`SchemaError::VersionMismatch`] when `schema` ≠ [`SCHEMA_VERSION`]
    /// (checked first, so a future version's new fields read as a version
    /// problem), [`SchemaError::UnknownField`] on any unrecognized field
    /// at the strict depths above, and [`SchemaError::Malformed`] on
    /// missing fields or shape mismatches.
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        Self::from_value_strict(&parse_json(text)?)
    }

    /// [`JobSpec::from_json`] on an already-parsed [`Value`] — the network
    /// front-end embeds specs inside frame envelopes and must apply the
    /// identical strictness to the nested tree.
    pub(crate) fn from_value_strict(value: &Value) -> Result<Self, SchemaError> {
        check_version(value)?;
        check_known_fields(
            value,
            &[
                "schema",
                "job",
                "instance_digest",
                "seed",
                "solver",
                "model",
            ],
        )?;
        check_solver_fields(
            value
                .field("solver")
                .map_err(|e| SchemaError::Malformed(e.to_string()))?,
        )?;
        if let Ok(model) = value.field("model") {
            // Qubo's serde shape; the round-trip tests pin it, so drift in
            // saim-ising surfaces here rather than as silent acceptance
            check_known_fields(model, &["pairs", "linear", "offset"])?;
        }
        Ok(JobSpec {
            schema: SCHEMA_VERSION,
            job: parse_field(value, "job")?,
            instance_digest: parse_field(value, "instance_digest")?,
            seed: parse_field(value, "seed")?,
            solver: parse_field(value, "solver")?,
            model: parse_field(value, "model")?,
        })
    }
}

/// A serialized result: identifiers echoed from the spec plus everything
/// the solve produced.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct JobOutcome {
    /// Wire-schema version; always [`SCHEMA_VERSION`] for outcomes built
    /// here.
    pub schema: u32,
    /// The spec's job identifier, echoed.
    pub job: u64,
    /// The spec's instance digest, echoed.
    pub instance_digest: u64,
    /// How the run ended: [`OutcomeKind::Completed`] for a full solve, or
    /// the stop reason of a partial one (cancelled, past its deadline, or
    /// stopped at a checkpoint). Partial outcomes report the best-so-far
    /// and the in-progress state, with [`JobOutcome::mcs`] counting only
    /// the sweeps actually consumed.
    pub outcome_kind: OutcomeKind,
    /// Energy of the best state observed during the run.
    pub best_energy: f64,
    /// Energy of the final sample (what a hardware IM reads out).
    pub last_energy: f64,
    /// Monte Carlo sweeps consumed, summed over replicas.
    pub mcs: u64,
    /// Wall-clock nanoseconds the solve took on its worker. The **only**
    /// machine-dependent field — compare [`JobOutcome::canonical`] forms
    /// when checking determinism.
    pub elapsed_ns: u64,
    /// The lowest-energy state observed.
    pub best: SpinState,
    /// The final sample.
    pub last: SpinState,
}

impl JobOutcome {
    /// Assembles the outcome for `spec` from a solver's [`SolveOutcome`].
    /// Public so replay tests can build the direct-call oracle through the
    /// exact same constructor the service uses.
    pub fn new(spec: &JobSpec, solved: &SolveOutcome, elapsed: std::time::Duration) -> Self {
        JobOutcome {
            schema: SCHEMA_VERSION,
            job: spec.job,
            instance_digest: spec.instance_digest,
            outcome_kind: OutcomeKind::Completed,
            best_energy: solved.best_energy,
            last_energy: solved.last_energy,
            mcs: solved.mcs,
            elapsed_ns: u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX),
            best: solved.best.clone(),
            last: solved.last.clone(),
        }
    }

    /// The same outcome tagged with how its run actually ended (see
    /// [`JobOutcome::outcome_kind`]).
    pub fn with_outcome_kind(mut self, kind: OutcomeKind) -> Self {
        self.outcome_kind = kind;
        self
    }

    /// The terminal response for a job whose deadline passed **before any
    /// work started** — expired while still queued, shed at dequeue without
    /// spinning up an engine. [`JobOutcome::outcome_kind`] is
    /// [`OutcomeKind::DeadlineExceeded`] and [`JobOutcome::mcs`] is `0` (the
    /// marker distinguishing it from a run the deadline interrupted, which
    /// reports its partial best-so-far and the sweeps it consumed). The
    /// energy and state fields are placeholder zeros/empties — finite, so
    /// the outcome still serializes losslessly through the wire schema.
    pub fn expired(spec: &JobSpec) -> Self {
        JobOutcome {
            schema: SCHEMA_VERSION,
            job: spec.job,
            instance_digest: spec.instance_digest,
            outcome_kind: OutcomeKind::DeadlineExceeded,
            best_energy: 0.0,
            last_energy: 0.0,
            mcs: 0,
            elapsed_ns: 0,
            best: SpinState::from_values(&[]),
            last: SpinState::from_values(&[]),
        }
    }

    /// The outcome with its wall-clock timing zeroed — every remaining
    /// field is a pure function of the spec, so two canonical outcomes of
    /// the same job are equal (and serialize to identical bytes) no matter
    /// where or how they ran.
    pub fn canonical(&self) -> JobOutcome {
        JobOutcome {
            elapsed_ns: 0,
            ..self.clone()
        }
    }

    /// Serializes to compact JSON with a fixed field order.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("outcome serialization is infallible")
    }

    /// Strictly parses an outcome from JSON; same error contract as
    /// [`JobSpec::from_json`].
    ///
    /// # Errors
    ///
    /// See [`JobSpec::from_json`].
    pub fn from_json(text: &str) -> Result<Self, SchemaError> {
        Self::from_value_strict(&parse_json(text)?)
    }

    /// [`JobOutcome::from_json`] on an already-parsed [`Value`]; see
    /// [`JobSpec::from_value_strict`].
    pub(crate) fn from_value_strict(value: &Value) -> Result<Self, SchemaError> {
        check_version(value)?;
        check_known_fields(
            value,
            &[
                "schema",
                "job",
                "instance_digest",
                "outcome_kind",
                "best_energy",
                "last_energy",
                "mcs",
                "elapsed_ns",
                "best",
                "last",
            ],
        )?;
        Ok(JobOutcome {
            schema: SCHEMA_VERSION,
            job: parse_field(value, "job")?,
            instance_digest: parse_field(value, "instance_digest")?,
            outcome_kind: parse_field(value, "outcome_kind")?,
            best_energy: parse_field(value, "best_energy")?,
            last_energy: parse_field(value, "last_energy")?,
            mcs: parse_field(value, "mcs")?,
            elapsed_ns: parse_field(value, "elapsed_ns")?,
            best: parse_field(value, "best")?,
            last: parse_field(value, "last")?,
        })
    }
}

/// Why a [`JobSpec`]/[`JobOutcome`] failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaError {
    /// The input was not valid JSON.
    Json(String),
    /// The `schema` field did not match [`SCHEMA_VERSION`].
    VersionMismatch {
        /// The version the input declared.
        found: u32,
        /// The version this build speaks.
        expected: u32,
    },
    /// The input carried a field this schema version does not define — at
    /// the envelope, the solver selection, or the model's top-level fields
    /// (strict parsing: silently dropping data a client sent is worse than
    /// rejecting the message).
    UnknownField(String),
    /// A required field was missing or had the wrong shape.
    Malformed(String),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Json(message) => write!(f, "invalid JSON: {message}"),
            SchemaError::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "schema version {found} not supported (expected {expected})"
                )
            }
            SchemaError::UnknownField(name) => write!(f, "unknown field `{name}`"),
            SchemaError::Malformed(message) => write!(f, "malformed payload: {message}"),
        }
    }
}

impl std::error::Error for SchemaError {}

pub(crate) fn parse_json(text: &str) -> Result<Value, SchemaError> {
    serde_json::parse_value_str(text).map_err(|e| SchemaError::Json(e.to_string()))
}

/// Reads and checks the `schema` field — before anything else, so inputs
/// from a different schema version surface as [`SchemaError::VersionMismatch`]
/// rather than as unknown-field or shape noise.
fn check_version(value: &Value) -> Result<(), SchemaError> {
    let field = value
        .field("schema")
        .map_err(|e| SchemaError::Malformed(e.to_string()))?;
    let found = u32::from_value(field).map_err(|e| SchemaError::Malformed(e.to_string()))?;
    if found != SCHEMA_VERSION {
        return Err(SchemaError::VersionMismatch {
            found,
            expected: SCHEMA_VERSION,
        });
    }
    Ok(())
}

/// Rejects any top-level field outside `known`.
pub(crate) fn check_known_fields(value: &Value, known: &[&str]) -> Result<(), SchemaError> {
    match value {
        Value::Object(fields) => {
            for (key, _) in fields {
                if !known.contains(&key.as_str()) {
                    return Err(SchemaError::UnknownField(key.clone()));
                }
            }
            Ok(())
        }
        other => Err(SchemaError::Malformed(format!(
            "expected object, found {}",
            other.kind()
        ))),
    }
}

/// Strict field-set check one level into the solver selection: the variant
/// tag must be known and its config payload must carry exactly the fields
/// this crate's solver configs define — a client's typo'd or misplaced
/// config field (say, `swap_interval` inside an `Ensemble` payload) must
/// not be dropped silently.
fn check_solver_fields(value: &Value) -> Result<(), SchemaError> {
    match value {
        Value::Object(fields) if fields.len() == 1 => {
            let (tag, inner) = &fields[0];
            match tag.as_str() {
                // `batch_width` is the lane-group width of older builds'
                // ensembles: accepted so their frames still parse, ignored
                // by the config's deserializer, never re-encoded
                "Ensemble" => check_known_fields(
                    inner,
                    &[
                        "replicas",
                        "threads",
                        "batch_width",
                        "schedule",
                        "mcs_per_run",
                        "dynamics",
                    ],
                ),
                "Pt" => check_known_fields(
                    inner,
                    &[
                        "replicas",
                        "beta_min",
                        "beta_max",
                        "sweeps",
                        "swap_interval",
                        "threads",
                    ],
                ),
                "Descent" => check_known_fields(inner, &["max_sweeps"]),
                other => Err(SchemaError::Malformed(format!(
                    "unknown solver variant `{other}`"
                ))),
            }
        }
        other => Err(SchemaError::Malformed(format!(
            "expected single-variant solver object, found {}",
            other.kind()
        ))),
    }
}

pub(crate) fn parse_field<T: Deserialize>(value: &Value, name: &str) -> Result<T, SchemaError> {
    let field = value
        .field(name)
        .map_err(|e| SchemaError::Malformed(e.to_string()))?;
    T::from_value(field).map_err(|e| SchemaError::Malformed(format!("field `{name}`: {e}")))
}

/// The solver-level service: [`JobSpec`]s in, [`JobOutcome`]s out, executed
/// by [`JobSpec::run`] on the worker pool. Failures carry their
/// [`JobFailure::origin`].
pub fn solver_service(config: ServiceConfig) -> JobService<JobSpec, JobOutcome> {
    JobService::start_described(
        config,
        |spec: JobSpec| spec.run(),
        |spec| Some(JobSummary::of(spec)),
    )
}

// ------------------------------------------- controlled service & drain

/// A controlled execution's result: the (possibly partial) [`JobOutcome`]
/// plus — iff the run stopped at a checkpoint — the image that resumes it.
#[derive(Debug, Clone)]
pub struct ControlledOutcome {
    /// The outcome, tagged with how the run ended via
    /// [`JobOutcome::outcome_kind`].
    pub outcome: JobOutcome,
    /// Present iff the run ended [`OutcomeKind::Checkpointed`]. Boxed:
    /// a full engine image dwarfs the outcome it rides with.
    pub checkpoint: Option<Box<Checkpoint>>,
}

/// What a [`ControlledService`] worker executes: a fresh spec, or a
/// checkpoint being resumed.
#[derive(Debug, Clone)]
pub enum SolverJob {
    /// Run the spec from the beginning of its schedule.
    Fresh(JobSpec),
    /// Continue the embedded spec from its captured engine state.
    Resume(Box<Checkpoint>),
}

impl SolverJob {
    /// The job's spec (for `Resume`, the one embedded in the checkpoint).
    pub fn spec(&self) -> &JobSpec {
        match self {
            SolverJob::Fresh(spec) => spec,
            SolverJob::Resume(checkpoint) => &checkpoint.spec,
        }
    }

    /// Executes the job under `ctrl` — the canonical [`ControlledService`]
    /// worker body.
    ///
    /// # Panics
    ///
    /// Panics when a `Resume` checkpoint's engine state does not fit its
    /// own embedded spec — possible only for hand-built checkpoints, since
    /// [`Checkpoint::load`] and the capture paths keep the pair consistent.
    /// Inside a service the panic becomes that job's typed [`JobFailure`],
    /// never a stream teardown.
    pub fn execute(&self, ctrl: &RunController) -> ControlledOutcome {
        // a job whose deadline already passed while it sat in the queue is
        // shed here, before any engine is constructed: it gets the typed
        // DeadlineExceeded terminal outcome a worker poll would eventually
        // have produced, at none of the spin-up cost
        if ctrl.check(0) == Some(OutcomeKind::DeadlineExceeded) {
            return ControlledOutcome {
                outcome: JobOutcome::expired(self.spec()),
                checkpoint: None,
            };
        }
        match self {
            SolverJob::Fresh(spec) => spec.run_controlled(ctrl),
            SolverJob::Resume(checkpoint) => checkpoint
                .spec
                .resume_controlled(&checkpoint.engine, ctrl)
                .unwrap_or_else(|e| panic!("checkpoint does not fit its embedded spec: {e}")),
        }
    }
}

/// What [`ControlledService::shutdown_to`] drained and persisted.
#[derive(Debug, Clone)]
pub struct ShutdownReport {
    /// Outcomes of jobs that ended without a checkpoint during the drain —
    /// completed, cancelled, or deadline-stopped — in submission order.
    pub finished: Vec<JobOutcome>,
    /// Jobs whose execution panicked, in submission order.
    pub failures: Vec<JobFailure>,
    /// In-flight jobs whose state images were written to the directory.
    pub checkpointed: usize,
    /// Queued jobs persisted as spec files (they had not started; resuming
    /// runs them from scratch, which is the same trajectory).
    pub pending: usize,
}

/// A [`JobService`] of [`SolverJob`]s governed by one [`RunController`]:
/// every worker polls the shared controller, so the owner can cancel the
/// whole fleet, impose a deadline, or drain it through
/// [`ControlledService::shutdown_to`] into a directory of resumable
/// checkpoint/spec files that [`ControlledService::resume`] re-submits.
///
/// Determinism carries through interruption: a job that is checkpointed at
/// shutdown and resumed later — at any worker count — produces the
/// bit-identical [`JobOutcome`] (same energies, states, and consumed RNG
/// words, with [`JobOutcome::mcs`] reporting the full schedule) as a job
/// that was never interrupted.
pub struct ControlledService {
    inner: JobService<SolverJob, ControlledOutcome>,
    ctrl: RunController,
}

impl ControlledService {
    /// Spawns the worker pool; every job runs under a clone of `ctrl`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (`queue_depth == 0`).
    pub fn start(config: ServiceConfig, ctrl: RunController) -> Self {
        let worker_ctrl = ctrl.clone();
        let inner = JobService::start_described(
            config,
            move |job: SolverJob| job.execute(&worker_ctrl),
            |job: &SolverJob| Some(JobSummary::of(job.spec())),
        );
        ControlledService { inner, ctrl }
    }

    /// The controller every worker polls. Raise
    /// [`RunController::request_cancel`] here to stop the fleet with
    /// partial outcomes within one poll interval per job.
    pub fn controller(&self) -> &RunController {
        &self.ctrl
    }

    /// Enqueues a fresh job; see [`JobService::submit`].
    pub fn submit(&mut self, spec: JobSpec) -> u64 {
        self.inner.submit(SolverJob::Fresh(spec))
    }

    /// Enqueues a checkpointed job to be continued from its captured state;
    /// see [`JobService::submit`].
    pub fn submit_resume(&mut self, checkpoint: Checkpoint) -> u64 {
        self.inner.submit(SolverJob::Resume(Box::new(checkpoint)))
    }

    /// The next finished job in completion order; see [`JobService::recv`].
    pub fn recv(&mut self) -> Option<Result<JobResult<ControlledOutcome>, JobFailure>> {
        self.inner.recv()
    }

    /// Every outstanding result in submission order; see
    /// [`JobService::drain`].
    pub fn drain(&mut self) -> Vec<Result<ControlledOutcome, JobFailure>> {
        self.inner.drain()
    }

    /// Jobs submitted whose results have not been delivered yet.
    pub fn outstanding(&self) -> u64 {
        self.inner.outstanding()
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.inner.workers()
    }

    /// Graceful drain: asks every in-flight job to checkpoint, persists the
    /// still-queued jobs as spec files and the captured states as
    /// checkpoint files (both written atomically) under `dir`, collects
    /// what finished anyway, and joins the workers. The directory then
    /// holds everything [`ControlledService::resume`] needs to continue the
    /// interrupted work bit-identically.
    ///
    /// File layout: `job-NNNNNN.ckpt` ([`Checkpoint::save`] format) for
    /// checkpointed in-flight jobs, `job-NNNNNN.spec.json`
    /// ([`JobSpec::to_json`]) for jobs that had not started, where `NNNNNN`
    /// is the zero-padded submission index — so resuming re-submits in the
    /// original submission order.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory or a file cannot be
    /// written; state for jobs persisted before the failure remains on
    /// disk.
    pub fn shutdown_to(mut self, dir: &Path) -> Result<ShutdownReport, CheckpointError> {
        std::fs::create_dir_all(dir).map_err(|e| CheckpointError::Io(e.to_string()))?;
        self.ctrl.request_checkpoint();
        // pull the jobs no worker has started before draining, so the drain
        // below terminates as soon as the in-flight jobs stop
        let queued = self.inner.queue.take_pending();
        self.inner.cancelled += queued.len() as u64;
        let pending = queued.len();
        for (submitted, job) in queued {
            match job {
                SolverJob::Fresh(spec) => write_atomic(
                    &dir.join(format!("job-{submitted:06}.spec.json")),
                    &spec.to_json(),
                )?,
                SolverJob::Resume(checkpoint) => {
                    checkpoint.save(&dir.join(format!("job-{submitted:06}.ckpt")))?;
                }
            }
        }
        let mut results: Vec<(u64, Result<ControlledOutcome, JobFailure>)> = Vec::new();
        while let Some(result) = self.inner.recv() {
            results.push(match result {
                Ok(ok) => (ok.submitted, Ok(ok.value)),
                Err(failure) => (failure.submitted, Err(failure)),
            });
        }
        results.sort_by_key(|(submitted, _)| *submitted);
        let mut report = ShutdownReport {
            finished: Vec::new(),
            failures: Vec::new(),
            checkpointed: 0,
            pending,
        };
        for (submitted, result) in results {
            match result {
                Ok(run) => {
                    if let Some(checkpoint) = run.checkpoint {
                        checkpoint.save(&dir.join(format!("job-{submitted:06}.ckpt")))?;
                        report.checkpointed += 1;
                    } else {
                        report.finished.push(run.outcome);
                    }
                }
                Err(failure) => report.failures.push(failure),
            }
        }
        Ok(report)
    }

    /// Starts a fresh service and re-submits every job a previous
    /// [`ControlledService::shutdown_to`] persisted under `dir`, in the
    /// original submission order: `.ckpt` files continue from their
    /// captured state, `.spec.json` files run from scratch. Completed
    /// resumed jobs are bit-identical to never-interrupted runs at any
    /// worker count.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the directory cannot be read, any
    /// [`Checkpoint::load`] rejection (truncation, checksum, version,
    /// digest, shape) for a corrupt checkpoint file, and
    /// [`CheckpointError::Malformed`] for an unparsable spec file. Nothing
    /// has run yet when an error is returned.
    pub fn resume(
        config: ServiceConfig,
        ctrl: RunController,
        dir: &Path,
    ) -> Result<Self, CheckpointError> {
        let jobs = load_drain_dir(dir)?;
        let mut service = ControlledService::start(config, ctrl);
        for job in jobs {
            service.inner.submit(job);
        }
        Ok(service)
    }
}

/// Reads a [`ControlledService::shutdown_to`] drain directory back into
/// jobs, in the original submission order. Shared with the network
/// front-end, whose restart path resumes the same file layout.
pub(crate) fn load_drain_dir(dir: &Path) -> Result<Vec<SolverJob>, CheckpointError> {
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| CheckpointError::Io(e.to_string()))?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|e| CheckpointError::Io(e.to_string()))?;
    // zero-padded names: lexicographic order == submission order
    names.sort();
    let mut jobs = Vec::new();
    for path in names {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".ckpt") {
            jobs.push(SolverJob::Resume(Box::new(Checkpoint::load(&path)?)));
        } else if name.ends_with(".spec.json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| CheckpointError::Io(e.to_string()))?;
            let spec =
                JobSpec::from_json(&text).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
            jobs.push(SolverJob::Fresh(spec));
        }
    }
    Ok(jobs)
}

/// Stages `text` in a `<path>.tmp` sibling and `rename`s it into place —
/// the same crash-safety contract as [`Checkpoint::save`], for the spec
/// files [`ControlledService::shutdown_to`] persists alongside checkpoints.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), CheckpointError> {
    let mut tmp_name = path.as_os_str().to_os_string();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    std::fs::write(&tmp, text).map_err(|e| CheckpointError::Io(e.to_string()))?;
    std::fs::rename(&tmp, path).map_err(|e| CheckpointError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::BetaSchedule;
    use crate::Dynamics;
    use saim_ising::QuboBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Condvar, Mutex};

    fn toy_model(n: usize) -> Qubo {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_linear(i, -1.0).expect("index in range");
        }
        for i in 1..n {
            b.add_pair(i - 1, i, 0.5).expect("indices in range");
        }
        b.build()
    }

    fn small_ensemble() -> SolverSpec {
        SolverSpec::Ensemble(EnsembleConfig {
            replicas: 2,
            threads: 1,
            schedule: BetaSchedule::linear(6.0),
            mcs_per_run: 40,
            dynamics: Dynamics::Gibbs,
        })
    }

    /// A gate jobs can park on, so tests control exactly when work finishes.
    struct Gate {
        open: Mutex<bool>,
        bell: Condvar,
    }

    impl Gate {
        fn new() -> Arc<Self> {
            Arc::new(Gate {
                open: Mutex::new(false),
                bell: Condvar::new(),
            })
        }

        fn wait(&self) {
            let mut open = self.open.lock().expect("gate lock");
            while !*open {
                open = self.bell.wait(open).expect("gate lock");
            }
        }

        fn open(&self) {
            *self.open.lock().expect("gate lock") = true;
            self.bell.notify_all();
        }
    }

    #[test]
    fn zero_jobs_is_a_clean_stream() {
        let mut service: JobService<u32, u32> = JobService::start(ServiceConfig::default(), |x| x);
        assert!(service.recv().is_none());
        assert!(service.drain().is_empty());
        assert_eq!(service.outstanding(), 0);
    }

    #[test]
    fn single_job_roundtrips_with_its_tag() {
        let mut service = JobService::start(ServiceConfig::default(), |x: u32| x * 2);
        assert_eq!(service.submit(21), 0);
        let result = service
            .recv()
            .expect("one job is outstanding")
            .expect("the job did not panic");
        assert_eq!(result.submitted, 0);
        assert_eq!(result.value, 42);
        assert!(service.recv().is_none());
    }

    #[test]
    fn drain_folds_completion_order_back_into_submission_order() {
        let config = ServiceConfig {
            workers: 4,
            queue_depth: 64,
        };
        let mut service = JobService::start(config, |x: u64| x + 100);
        for x in 0..40u64 {
            assert_eq!(service.submit(x), x);
        }
        let values: Vec<u64> = service
            .drain()
            .into_iter()
            .map(|r| r.expect("no job panicked"))
            .collect();
        assert_eq!(values, (100..140).collect::<Vec<_>>());
        assert_eq!(service.submitted(), 40);
        assert_eq!(service.outstanding(), 0);
    }

    #[test]
    fn try_submit_reports_full_and_blocking_submit_makes_progress() {
        let gate = Gate::new();
        let started = Arc::new(AtomicUsize::new(0));
        let config = ServiceConfig {
            workers: 1,
            queue_depth: 1,
        };
        let mut service = {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            JobService::start(config, move |x: u32| {
                started.fetch_add(1, Ordering::SeqCst);
                gate.wait();
                x
            })
        };
        service.submit(0);
        // wait until the worker holds job 0, so the queue state is exact
        while started.load(Ordering::SeqCst) < 1 {
            std::thread::yield_now();
        }
        service.submit(1); // fills the single queue slot
        match service.try_submit(2) {
            Err(SubmitError::Full(job)) => assert_eq!(job, 2),
            Ok(_) => panic!("queue should be saturated"),
        }
        // free the workers; the blocking path must now make progress
        gate.open();
        service.submit(2);
        let mut values: Vec<u32> = service
            .drain()
            .into_iter()
            .map(|r| r.expect("no job panicked"))
            .collect();
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2]);
    }

    /// A gated 2-worker service holding 6 submitted jobs: the returned
    /// state has both workers parked *inside* jobs 0 and 1 (the gate is
    /// closed) and jobs 2..6 waiting in the queue — an exact, race-free
    /// mid-stream configuration.
    #[allow(clippy::type_complexity)]
    fn gated_mid_stream_service() -> (
        JobService<u32, u32>,
        Arc<Gate>,
        Arc<AtomicUsize>,
        Arc<AtomicUsize>,
    ) {
        let gate = Gate::new();
        let started = Arc::new(AtomicUsize::new(0));
        let finished = Arc::new(AtomicUsize::new(0));
        let config = ServiceConfig {
            workers: 2,
            queue_depth: 4,
        };
        let mut service = {
            let gate = Arc::clone(&gate);
            let started = Arc::clone(&started);
            let finished = Arc::clone(&finished);
            JobService::start(config, move |x: u32| {
                started.fetch_add(1, Ordering::SeqCst);
                gate.wait();
                finished.fetch_add(1, Ordering::SeqCst);
                x
            })
        };
        for x in 0..6u32 {
            service.submit(x);
        }
        while started.load(Ordering::SeqCst) < 2 {
            std::thread::yield_now();
        }
        (service, gate, started, finished)
    }

    #[test]
    fn discard_pending_cancels_exactly_the_queued_jobs() {
        let (mut service, gate, started, finished) = gated_mid_stream_service();
        // deterministic: the queue is cleared while both workers are
        // provably parked, so exactly the four queued jobs are discarded
        assert_eq!(service.discard_pending(), 4);
        assert_eq!(service.outstanding(), 2);
        gate.open();
        let mut survivors: Vec<u32> = service
            .drain()
            .into_iter()
            .map(|r| r.expect("no job panicked"))
            .collect();
        survivors.sort_unstable();
        assert_eq!(survivors, vec![0, 1], "only the in-flight jobs report");
        assert_eq!(started.load(Ordering::SeqCst), 2, "queued jobs never ran");
        assert_eq!(finished.load(Ordering::SeqCst), 2);
        assert_eq!(service.submitted(), 6);
        assert!(service.recv().is_none());
    }

    #[test]
    fn drop_mid_stream_joins_workers_without_deadlock() {
        let (service, gate, started, finished) = gated_mid_stream_service();
        // open the gate from the side while the drop blocks in its join;
        // how many queued jobs sneak in before the queue is cleared is a
        // race (the exact-discard guarantee is proven deterministically
        // above), but drop must terminate and never strand a started job
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(30));
                gate.open();
            })
        };
        drop(service); // must not deadlock
        opener.join().expect("opener finishes");
        let started = started.load(Ordering::SeqCst);
        let finished = finished.load(Ordering::SeqCst);
        assert_eq!(finished, started, "every started job ran to completion");
        assert!((2..=6).contains(&started), "started = {started}");
    }

    /// Pins the fault-isolation contract that replaced the old
    /// re-raise-at-`recv` behavior: a poisoned job costs exactly its own
    /// result slot, and the drain — which used to panic here — delivers
    /// every other job's value.
    #[test]
    fn job_panics_become_typed_failures_not_stream_teardown() {
        let mut service = JobService::start(
            ServiceConfig {
                workers: 1,
                queue_depth: 8,
            },
            |x: u32| {
                if x == 3 {
                    panic!("boom in job 3");
                }
                x
            },
        );
        for x in 0..5u32 {
            service.submit(x);
        }
        let results = service.drain();
        assert_eq!(results.len(), 5, "every job reports, poisoned or not");
        for (i, result) in results.iter().enumerate() {
            match result {
                Ok(value) => {
                    assert_ne!(i, 3);
                    assert_eq!(*value, i as u32);
                }
                Err(failure) => {
                    assert_eq!(i, 3);
                    assert_eq!(failure.submitted, 3);
                    assert!(
                        failure.message.contains("boom in job 3"),
                        "panic text survives: {failure}"
                    );
                }
            }
        }
        assert!(results[3].is_err());
        assert!(service.recv().is_none(), "the stream drained cleanly");
    }

    #[test]
    fn nested_auto_sized_services_collapse_to_one_worker() {
        // a service constructed inside another service's job must not spawn
        // an all-cores pool per worker (cores² threads); explicit counts
        // are still honored
        let mut outer = JobService::start(
            ServiceConfig {
                workers: 1,
                queue_depth: 2,
            },
            |explicit: usize| {
                let inner: JobService<u32, u32> = JobService::start(
                    ServiceConfig {
                        workers: explicit,
                        queue_depth: 1,
                    },
                    |x| x,
                );
                inner.workers()
            },
        );
        outer.submit(0); // auto-sized: must collapse to 1 inside the pool
        outer.submit(3); // explicit: honored as-is
        let mut inner_workers = service_drain_pairs(&mut outer);
        inner_workers.sort_unstable();
        assert_eq!(inner_workers, vec![(0, 1), (1, 3)]);
    }

    /// Drains a service into `(submission, value)` pairs.
    fn service_drain_pairs<J: Send + 'static, R: Send + 'static>(
        service: &mut JobService<J, R>,
    ) -> Vec<(u64, R)> {
        let mut out = Vec::new();
        while let Some(result) = service.recv() {
            let ok = result.expect("no job panicked");
            out.push((ok.submitted, ok.value));
        }
        out
    }

    #[test]
    fn solver_failures_carry_their_origin() {
        // an invalid solver config (zero replicas) panics at engine
        // construction; the typed failure must still say what the job was
        let bad = SolverSpec::Ensemble(EnsembleConfig {
            replicas: 0,
            ..EnsembleConfig::default()
        });
        let mut service = solver_service(ServiceConfig {
            workers: 1,
            queue_depth: 4,
        });
        service.submit(JobSpec::new(77, toy_model(3), bad.clone(), 1).with_instance_digest(42));
        let failure = service
            .recv()
            .expect("one job outstanding")
            .expect_err("zero replicas panics");
        let origin = failure.origin.as_ref().expect("solver services describe");
        assert_eq!(origin.job, 77);
        assert_eq!(origin.instance_digest, 42);
        assert_eq!(origin.solver, bad);
        let shown = failure.to_string();
        assert!(shown.contains("id 77"), "display names the job: {shown}");
    }

    #[test]
    fn queued_jobs_past_deadline_shed_without_engine_spinup() {
        let ctrl = RunController::unlimited()
            .with_deadline(Instant::now() - std::time::Duration::from_secs(1));
        // a spec whose construction would panic: if the dequeue-time shed
        // ever spins the engine up, this test fails as a JobFailure
        let poisoned = JobSpec::new(
            9,
            toy_model(3),
            SolverSpec::Ensemble(EnsembleConfig {
                replicas: 0,
                ..EnsembleConfig::default()
            }),
            1,
        )
        .with_instance_digest(13);
        let mut service = ControlledService::start(
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
            },
            ctrl,
        );
        service.submit(poisoned);
        let run = service
            .recv()
            .expect("one job outstanding")
            .expect("shed at dequeue, not executed");
        assert_eq!(
            run.value.outcome.outcome_kind,
            OutcomeKind::DeadlineExceeded
        );
        assert_eq!(run.value.outcome.job, 9);
        assert_eq!(run.value.outcome.instance_digest, 13);
        assert_eq!(run.value.outcome.mcs, 0, "no sweeps were consumed");
        assert!(run.value.checkpoint.is_none());
        // and the synthesized outcome survives the wire schema losslessly
        let text = run.value.outcome.to_json();
        assert_eq!(
            JobOutcome::from_json(&text).expect("round-trips"),
            run.value.outcome
        );
    }

    #[test]
    #[should_panic(expected = "queue depth must be positive")]
    fn service_rejects_zero_queue_depth() {
        let _: JobService<u32, u32> = JobService::start(
            ServiceConfig {
                workers: 1,
                queue_depth: 0,
            },
            |x| x,
        );
    }

    #[test]
    fn solver_service_matches_direct_engine_calls() {
        let model = toy_model(6);
        let specs: Vec<JobSpec> = (0..6u64)
            .map(|seed| {
                JobSpec::new(seed, model.clone(), small_ensemble(), seed).with_instance_digest(777)
            })
            .collect();
        let mut service = solver_service(ServiceConfig {
            workers: 3,
            queue_depth: 2,
        });
        for spec in &specs {
            service.submit(spec.clone());
        }
        let outcomes: Vec<JobOutcome> = service
            .drain()
            .into_iter()
            .map(|r| r.expect("no job panicked"))
            .collect();
        for (spec, outcome) in specs.iter().zip(&outcomes) {
            let direct = match &spec.solver {
                SolverSpec::Ensemble(config) => {
                    EnsembleAnnealer::new(*config, spec.seed).solve(&spec.model.to_ising())
                }
                _ => unreachable!(),
            };
            let oracle = JobOutcome::new(spec, &direct, std::time::Duration::ZERO);
            assert_eq!(outcome.canonical(), oracle.canonical());
            assert_eq!(outcome.job, spec.job);
            assert_eq!(outcome.instance_digest, 777);
        }
    }

    #[test]
    fn spec_json_roundtrip_is_byte_stable() {
        let spec = JobSpec::new(9, toy_model(4), small_ensemble(), 1234).with_instance_digest(5);
        let json = spec.to_json();
        let back = JobSpec::from_json(&json).expect("round-trips");
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn outcome_json_roundtrip_is_byte_stable() {
        let spec = JobSpec::new(2, toy_model(3), small_ensemble(), 7);
        let outcome = spec.run();
        let json = outcome.to_json();
        let back = JobOutcome::from_json(&json).expect("round-trips");
        assert_eq!(back, outcome);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn parser_rejects_unknown_fields_and_wrong_versions() {
        let spec = JobSpec::new(1, toy_model(2), SolverSpec::Descent { max_sweeps: 10 }, 3);
        let json = spec.to_json();

        let extra = json.replacen('{', "{\"surprise\":1,", 1);
        assert_eq!(
            JobSpec::from_json(&extra),
            Err(SchemaError::UnknownField("surprise".into()))
        );

        let wrong_version = json.replacen("\"schema\":3", "\"schema\":99", 1);
        assert_eq!(
            JobSpec::from_json(&wrong_version),
            Err(SchemaError::VersionMismatch {
                found: 99,
                expected: SCHEMA_VERSION
            })
        );

        // a future version's unknown fields must read as a version problem
        let future = extra.replacen("\"schema\":3", "\"schema\":4", 1);
        assert_eq!(
            JobSpec::from_json(&future),
            Err(SchemaError::VersionMismatch {
                found: 4,
                expected: SCHEMA_VERSION
            })
        );

        assert!(matches!(
            JobSpec::from_json("{\"schema\":3}"),
            Err(SchemaError::Malformed(_))
        ));

        // strictness reaches into the solver config and the model header: a
        // typo'd or misplaced field there must not be dropped silently
        let ens_spec = JobSpec::new(1, toy_model(2), small_ensemble(), 3);
        let ens_json = ens_spec.to_json();
        let misplaced =
            ens_json.replacen("\"Ensemble\":{", "\"Ensemble\":{\"swap_interval\":5,", 1);
        assert_eq!(
            JobSpec::from_json(&misplaced),
            Err(SchemaError::UnknownField("swap_interval".into()))
        );
        let bogus_model = ens_json.replacen("\"model\":{", "\"model\":{\"bogus\":1,", 1);
        assert_eq!(
            JobSpec::from_json(&bogus_model),
            Err(SchemaError::UnknownField("bogus".into()))
        );
        assert!(matches!(
            JobSpec::from_json("not json"),
            Err(SchemaError::Json(_))
        ));
        assert!(matches!(
            JobSpec::from_json("[1,2]"),
            Err(SchemaError::Malformed(_))
        ));
    }

    #[test]
    fn descent_and_pt_specs_run_through_the_service() {
        let model = toy_model(5);
        let specs = vec![
            JobSpec::new(
                0,
                model.clone(),
                SolverSpec::Descent { max_sweeps: 100 },
                11,
            ),
            JobSpec::new(
                1,
                model.clone(),
                SolverSpec::Pt(PtConfig {
                    replicas: 3,
                    sweeps: 50,
                    threads: 1,
                    ..PtConfig::default()
                }),
                12,
            ),
        ];
        let mut service = solver_service(ServiceConfig {
            workers: 2,
            queue_depth: 4,
        });
        for spec in &specs {
            service.submit(spec.clone());
        }
        let outcomes: Vec<JobOutcome> = service
            .drain()
            .into_iter()
            .map(|r| r.expect("no job panicked"))
            .collect();
        let descent_direct = GreedyDescent::new(11)
            .with_max_sweeps(100)
            .solve(&model.to_ising());
        let pt_direct = ParallelTempering::new(
            PtConfig {
                replicas: 3,
                sweeps: 50,
                threads: 1,
                ..PtConfig::default()
            },
            12,
        )
        .solve(&model.to_ising());
        assert_eq!(
            outcomes[0].canonical(),
            JobOutcome::new(&specs[0], &descent_direct, std::time::Duration::ZERO).canonical()
        );
        assert_eq!(
            outcomes[1].canonical(),
            JobOutcome::new(&specs[1], &pt_direct, std::time::Duration::ZERO).canonical()
        );
    }

    /// A unique scratch directory, removed when dropped.
    struct ScratchDir(PathBuf);

    impl ScratchDir {
        fn new(tag: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("saim-service-{tag}-{}", std::process::id()));
            // a leftover from a crashed earlier run must not pollute this one
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("scratch dir is creatable");
            ScratchDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for ScratchDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    /// A mixed-solver job set: ensemble, tempering, and descent specs with
    /// distinct seeds, `job` identifier == index.
    fn mixed_specs(model: &Qubo) -> Vec<JobSpec> {
        vec![
            JobSpec::new(0, model.clone(), small_ensemble(), 100),
            JobSpec::new(
                1,
                model.clone(),
                SolverSpec::Pt(PtConfig {
                    replicas: 3,
                    sweeps: 50,
                    swap_interval: 10,
                    threads: 1,
                    ..PtConfig::default()
                }),
                101,
            ),
            JobSpec::new(
                2,
                model.clone(),
                SolverSpec::Descent { max_sweeps: 60 },
                102,
            ),
            JobSpec::new(3, model.clone(), small_ensemble(), 103),
        ]
    }

    #[test]
    fn controlled_service_with_idle_controller_matches_direct_runs() {
        let model = toy_model(6);
        let specs = mixed_specs(&model);
        let mut service = ControlledService::start(
            ServiceConfig {
                workers: 2,
                queue_depth: 8,
            },
            RunController::unlimited(),
        );
        for spec in &specs {
            service.submit(spec.clone());
        }
        let runs = service.drain();
        assert_eq!(runs.len(), specs.len());
        for (spec, run) in specs.iter().zip(runs) {
            let run = run.expect("no job panicked");
            assert_eq!(run.outcome.outcome_kind, OutcomeKind::Completed);
            assert!(run.checkpoint.is_none());
            assert_eq!(run.outcome.canonical(), spec.run().canonical());
        }
    }

    #[test]
    fn cancelled_jobs_return_well_formed_partial_outcomes() {
        let model = toy_model(6);
        // cancel before anything runs: deterministic — every job stops at
        // its entry check with zero sweeps consumed
        let ctrl = RunController::unlimited();
        ctrl.request_cancel();
        let mut service = ControlledService::start(
            ServiceConfig {
                workers: 2,
                queue_depth: 8,
            },
            ctrl,
        );
        let specs = [
            JobSpec::new(0, model.clone(), small_ensemble(), 100),
            JobSpec::new(
                1,
                model.clone(),
                SolverSpec::Pt(PtConfig {
                    replicas: 3,
                    sweeps: 50,
                    threads: 1,
                    ..PtConfig::default()
                }),
                101,
            ),
        ];
        for spec in &specs {
            service.submit(spec.clone());
        }
        for run in service.drain() {
            let run = run.expect("cancellation is not a failure");
            assert_eq!(run.outcome.outcome_kind, OutcomeKind::Cancelled);
            assert!(run.checkpoint.is_none(), "cancel does not capture state");
            assert_eq!(run.outcome.mcs, 0);
            assert!(run.outcome.best_energy.is_finite());
            assert!(run.outcome.best_energy <= run.outcome.last_energy);
        }
    }

    #[test]
    fn shutdown_and_resume_replay_bit_identically_across_worker_counts() {
        let scratch = ScratchDir::new("shutdown-resume");
        let model = toy_model(6);
        let specs = mixed_specs(&model);
        let oracles: Vec<JobOutcome> = specs.iter().map(|spec| spec.run()).collect();

        // every job deterministically checkpoints once 7 sweeps are done
        // (descent may settle first and finish — both paths are covered)
        let ctrl = RunController::unlimited()
            .with_stop_after(7)
            .with_poll_interval(1);
        let mut service = ControlledService::start(
            ServiceConfig {
                workers: 2,
                queue_depth: 8,
            },
            ctrl,
        );
        for spec in &specs {
            service.submit(spec.clone());
        }
        let report = service.shutdown_to(scratch.path()).expect("drain persists");
        assert!(report.failures.is_empty());
        assert_eq!(
            report.finished.len() + report.checkpointed + report.pending,
            specs.len(),
            "every job is accounted for"
        );
        // the three annealing jobs can never complete under the stop: they
        // are resumable — checkpointed if a worker had picked them up,
        // persisted as pending specs otherwise (the split is a race)
        assert!(
            report.checkpointed + report.pending >= 3,
            "annealing jobs must all be resumable"
        );
        for outcome in &report.finished {
            // finished-before-the-stop jobs are final results already
            let oracle = &oracles[outcome.job as usize];
            assert_eq!(outcome.canonical(), oracle.canonical());
        }

        // the same directory resumes repeatedly, at any worker count, to
        // the bit-identical never-interrupted outcomes
        for workers in [1usize, 2, 8] {
            let mut resumed = ControlledService::resume(
                ServiceConfig {
                    workers,
                    queue_depth: 8,
                },
                RunController::unlimited(),
                scratch.path(),
            )
            .expect("the directory is intact");
            let runs = resumed.drain();
            assert_eq!(runs.len(), report.checkpointed + report.pending);
            for run in runs {
                let run = run.expect("no job panicked");
                assert_eq!(run.outcome.outcome_kind, OutcomeKind::Completed);
                let oracle = &oracles[run.outcome.job as usize];
                assert_eq!(
                    run.outcome.canonical(),
                    oracle.canonical(),
                    "resumed job {} diverged at {workers} workers",
                    run.outcome.job
                );
            }
        }
    }

    #[test]
    fn resume_runs_persisted_spec_files_from_scratch() {
        let scratch = ScratchDir::new("resume-spec");
        let spec = JobSpec::new(7, toy_model(5), small_ensemble(), 21);
        std::fs::write(scratch.path().join("job-000000.spec.json"), spec.to_json())
            .expect("spec file is writable");
        let mut service = ControlledService::resume(
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
            },
            RunController::unlimited(),
            scratch.path(),
        )
        .expect("spec files parse");
        let runs = service.drain();
        assert_eq!(runs.len(), 1);
        let run = runs.into_iter().next().unwrap().expect("no job panicked");
        assert_eq!(run.outcome.canonical(), spec.run().canonical());
    }

    #[test]
    fn resume_rejects_a_corrupt_checkpoint_file() {
        let scratch = ScratchDir::new("resume-corrupt");
        let spec = JobSpec::new(3, toy_model(5), small_ensemble(), 9);
        let cut = spec.run_controlled(
            &RunController::unlimited()
                .with_stop_after(3)
                .with_poll_interval(1),
        );
        let checkpoint = cut.checkpoint.expect("the run checkpointed");
        let path = scratch.path().join("job-000000.ckpt");
        checkpoint.save(&path).expect("checkpoint saves");
        let mut bytes = std::fs::read(&path).expect("checkpoint reads");
        bytes[10] ^= 0x01; // single bit flip in the payload
        std::fs::write(&path, bytes).expect("corruption lands");
        let result = ControlledService::resume(
            ServiceConfig {
                workers: 1,
                queue_depth: 4,
            },
            RunController::unlimited(),
            scratch.path(),
        );
        assert!(matches!(result, Err(CheckpointError::ChecksumMismatch)));
    }

    #[test]
    fn mismatched_resume_checkpoint_becomes_a_typed_failure() {
        let model = toy_model(4);
        let ensemble_spec = JobSpec::new(0, model.clone(), small_ensemble(), 5);
        let cut = ensemble_spec.run_controlled(
            &RunController::unlimited()
                .with_stop_after(3)
                .with_poll_interval(1),
        );
        let checkpoint = cut.checkpoint.expect("the run checkpointed");
        // graft the ensemble state onto a descent spec: the worker panics,
        // which must surface as that job's typed failure — not a teardown
        let descent_spec = JobSpec::new(0, model, SolverSpec::Descent { max_sweeps: 10 }, 5);
        let mismatched = Checkpoint::new(descent_spec, checkpoint.engine.clone());
        let mut service = ControlledService::start(
            ServiceConfig {
                workers: 1,
                queue_depth: 2,
            },
            RunController::unlimited(),
        );
        service.submit_resume(mismatched);
        let runs = service.drain();
        assert_eq!(runs.len(), 1);
        let failure = runs
            .into_iter()
            .next()
            .unwrap()
            .expect_err("the mismatch is a failure value");
        assert!(
            failure.message.contains("does not match the spec's solver"),
            "message: {failure}"
        );
    }
}
