//! Replica-ensemble annealing: R independent annealed runs across threads.
//!
//! The paper's experimental unit is "many independent annealed runs" — e.g.
//! 2000 SA runs of 10³ MCS per instance (Table I). Runs are embarrassingly
//! parallel, but naively sharing one RNG across threads would make results
//! depend on scheduling. The [`EnsembleAnnealer`] instead derives one
//! SplitMix64 stream per replica from a root seed
//! ([`derive_seed`](crate::derive_seed)), runs each replica as its own
//! [`SimulatedAnnealing`] on that seed — an ordered parallel map over
//! [`parallel::parallel_map_indexed`] — and reduces with an **ordered**
//! best-of-ensemble rule (lowest best energy, ties broken by lowest replica
//! index). Every replica is bit-identical to a serial
//! [`SimulatedAnnealing`] of its derived seed, so the outcome is
//! bit-identical for 1, 2 or N threads — asserted by `tests/determinism.rs`.
//!
//! ```
//! use saim_ising::QuboBuilder;
//! use saim_machine::{BetaSchedule, EnsembleAnnealer, EnsembleConfig, IsingSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = QuboBuilder::new(4);
//! for i in 0..4 { b.add_linear(i, -1.0)?; }
//! let model = b.build().to_ising();
//! let config = EnsembleConfig {
//!     replicas: 4,
//!     mcs_per_run: 100,
//!     schedule: BetaSchedule::linear(8.0),
//!     ..EnsembleConfig::default()
//! };
//! let mut ensemble = EnsembleAnnealer::new(config, 7);
//! let out = ensemble.solve(&model);
//! assert!((out.best_energy - (-4.0)).abs() < 1e-9);
//! assert_eq!(out.mcs, 400); // summed over replicas
//! # Ok(())
//! # }
//! ```

use crate::checkpoint::{
    CheckpointError, Controlled, DoneLane, EnsembleState, GroupState, OutcomeKind, RunController,
    SaState,
};
use crate::parallel;
use crate::rng::derive_seed;
use crate::sa::{Dynamics, SimulatedAnnealing};
use crate::schedule::BetaSchedule;
use crate::solver::{IsingSolver, SolveOutcome};
use saim_ising::{IsingModel, SpinState};
use serde::{Deserialize, Serialize};

/// Configuration of a replica ensemble.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnsembleConfig {
    /// Number of independent replicas per [`EnsembleAnnealer::solve`] call.
    pub replicas: usize,
    /// Worker threads; `0` means all available cores. The thread count
    /// affects wall-clock only, never results.
    pub threads: usize,
    /// The annealing schedule every replica follows.
    pub schedule: BetaSchedule,
    /// Monte Carlo sweeps per replica run.
    pub mcs_per_run: usize,
    /// The single-flip update rule (Gibbs is the paper's p-bit hardware).
    pub dynamics: Dynamics,
}

impl Default for EnsembleConfig {
    /// 8 replicas of the paper's QKP run (1000 MCS, linear β to 10) on all
    /// cores.
    fn default() -> Self {
        EnsembleConfig {
            replicas: 8,
            threads: 0,
            schedule: BetaSchedule::default(),
            mcs_per_run: 1000,
            dynamics: Dynamics::Gibbs,
        }
    }
}

impl EnsembleConfig {
    fn validate(&self) {
        assert!(self.replicas > 0, "an ensemble needs at least one replica");
        assert!(self.mcs_per_run > 0, "a run needs at least one sweep");
    }
}

/// One replica's run, tagged with its index and derived seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaOutcome {
    /// Replica index within the ensemble (also the tie-break key).
    pub replica: usize,
    /// The derived seed this replica's stream started from.
    pub seed: u64,
    /// The full annealing outcome of the replica.
    pub outcome: SolveOutcome,
}

/// Everything one ensemble invocation produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnsembleOutcome {
    /// Index of the winning replica (lowest best energy, lowest index on
    /// ties).
    pub best_replica: usize,
    /// Per-replica telemetry, in replica order.
    pub replicas: Vec<ReplicaOutcome>,
    /// Total Monte Carlo sweeps across the ensemble.
    pub mcs_total: u64,
}

impl EnsembleOutcome {
    /// The winning replica's outcome.
    pub fn best(&self) -> &SolveOutcome {
        &self.replicas[self.best_replica].outcome
    }

    /// Collapses the ensemble into a single [`SolveOutcome`]: best/last are
    /// read from the winning replica, sweeps are summed over all replicas.
    pub fn reduce(&self) -> SolveOutcome {
        let winner = self.best();
        SolveOutcome {
            last: winner.last.clone(),
            last_energy: winner.last_energy,
            best: winner.best.clone(),
            best_energy: winner.best_energy,
            mcs: self.mcs_total,
        }
    }
}

/// Runs R independent replicas of one model across threads with
/// deterministic per-replica RNG streams and an ordered reduction.
///
/// The annealer is [`IsingSolver`]-compatible, so anything that drives a
/// [`SimulatedAnnealing`] — the SAIM outer loop in particular — can swap in
/// an ensemble unchanged; each `solve` call then reads the best of R runs
/// instead of one.
#[derive(Debug, Clone)]
pub struct EnsembleAnnealer {
    config: EnsembleConfig,
    root_seed: u64,
    /// Batches issued so far: consecutive `solve` calls use fresh stream
    /// blocks, exactly like consecutive runs of a serial solver.
    batches: u64,
}

impl EnsembleAnnealer {
    /// Creates an ensemble from a configuration and a root seed.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`EnsembleConfig`]).
    pub fn new(config: EnsembleConfig, root_seed: u64) -> Self {
        config.validate();
        EnsembleAnnealer {
            config,
            root_seed,
            batches: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> EnsembleConfig {
        self.config
    }

    /// The root seed replica streams derive from.
    pub fn root_seed(&self) -> u64 {
        self.root_seed
    }

    /// The seed of replica `index` within batch `batch` — SplitMix64-derived
    /// twice, so streams never collide across replicas or batches.
    pub fn replica_seed(&self, batch: u64, index: u64) -> u64 {
        derive_seed(derive_seed(self.root_seed, batch), index)
    }

    /// Runs `count` independent annealed runs of `model` in parallel and
    /// returns their outcomes **in run order** (thread-count invariant).
    ///
    /// Run `i` is a fresh [`SimulatedAnnealing`] on the derived seed
    /// [`EnsembleAnnealer::replica_seed`]`(batch, i)`, so the worker pool
    /// affects wall-clock only. This is the run-level engine behind both
    /// the ensemble reduction and the baselines' "K runs of 10³ MCS"
    /// repetition loops.
    pub fn solve_runs(&mut self, model: &IsingModel, count: usize) -> Vec<SolveOutcome> {
        let batch = self.batches;
        self.batches += 1;
        parallel::parallel_map_indexed(count, self.config.threads, |i| {
            self.annealer(self.replica_seed(batch, i as u64))
                .solve(model)
        })
    }

    /// Runs the configured ensemble once with full per-replica telemetry.
    pub fn solve_ensemble(&mut self, model: &IsingModel) -> EnsembleOutcome {
        let batch = self.batches;
        let outcomes = self.solve_runs(model, self.config.replicas);
        let mut mcs_total = 0u64;
        let mut best_replica = 0usize;
        let mut best_energy = f64::INFINITY;
        let replicas: Vec<ReplicaOutcome> = outcomes
            .into_iter()
            .enumerate()
            .map(|(replica, outcome)| {
                mcs_total += outcome.mcs;
                // ordered reduction: strict < keeps the lowest index on ties
                if outcome.best_energy < best_energy {
                    best_energy = outcome.best_energy;
                    best_replica = replica;
                }
                ReplicaOutcome {
                    replica,
                    seed: self.replica_seed(batch, replica as u64),
                    outcome,
                }
            })
            .collect();
        EnsembleOutcome {
            best_replica,
            replicas,
            mcs_total,
        }
    }

    /// The serial annealer replica `seed` runs on.
    fn annealer(&self, seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing::new(self.config.schedule, self.config.mcs_per_run, seed)
            .with_dynamics(self.config.dynamics)
    }

    /// Like [`IsingSolver::solve`], but every replica polls `ctrl` at its
    /// sweep boundaries. With an idle controller the reduced outcome is
    /// bit-identical to `solve`.
    ///
    /// Replicas are independent until the final reduction, so a stop may
    /// catch them at different steps — the captured [`EnsembleState`]
    /// records each replica at its own boundary (one group per replica) and
    /// [`EnsembleAnnealer::resume_controlled`] finishes each from exactly
    /// there.
    pub fn solve_controlled(
        &mut self,
        model: &IsingModel,
        ctrl: &RunController,
    ) -> Controlled<EnsembleState> {
        let batch = self.batches;
        self.batches += 1;
        let replicas: Vec<Replica> = (0..self.config.replicas)
            .map(|i| Replica::Fresh(self.replica_seed(batch, i as u64)))
            .collect();
        self.run_replicas(model, batch, &replicas, ctrl)
            .expect("a fresh run validates no checkpoint")
    }

    /// Continues a checkpointed ensemble from its [`EnsembleState`]; the
    /// completed reduction is bit-identical to an uninterrupted run at any
    /// worker count (every replica resumes on its own recorded stream, so
    /// the worker pool only changes which thread finishes which replica).
    ///
    /// States written when replicas ran in multi-lane groups still resume:
    /// a [`GroupState::Batch`] lane plus its best and step is exactly a
    /// serial annealer image, and pending or finished groups split into
    /// their replicas.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the recorded replicas do not add
    /// up to this ensemble's replica count or any image fails validation.
    pub fn resume_controlled(
        &mut self,
        model: &IsingModel,
        state: &EnsembleState,
        ctrl: &RunController,
    ) -> Result<Controlled<EnsembleState>, CheckpointError> {
        let mut replicas = Vec::with_capacity(self.config.replicas);
        for group in &state.groups {
            split_group(group, &mut replicas)?;
        }
        if replicas.len() != self.config.replicas {
            return Err(CheckpointError::Malformed(format!(
                "checkpoint holds {} replicas for a {}-replica ensemble",
                replicas.len(),
                self.config.replicas
            )));
        }
        self.run_replicas(model, state.batch_index, &replicas, ctrl)
    }

    /// The ordered parallel map of controlled replica runs, reduced.
    fn run_replicas(
        &self,
        model: &IsingModel,
        batch: u64,
        replicas: &[Replica],
        ctrl: &RunController,
    ) -> Result<Controlled<EnsembleState>, CheckpointError> {
        let runs = parallel::parallel_map_indexed(replicas.len(), self.config.threads, |i| {
            self.run_replica(model, &replicas[i], ctrl)
        });
        let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(assemble(model, batch, runs))
    }

    /// Carries one replica forward: finished replicas re-emit verbatim,
    /// fresh ones check the controller before their first sweep (a stop
    /// there records them [`GroupState::Pending`], consuming no RNG words),
    /// interrupted ones resume from their recorded boundary.
    fn run_replica(
        &self,
        model: &IsingModel,
        replica: &Replica,
        ctrl: &RunController,
    ) -> Result<ReplicaRun, CheckpointError> {
        let (seed, run) = match replica {
            Replica::Done(lane) => {
                return Ok(ReplicaRun {
                    status: OutcomeKind::Completed,
                    state: Some(GroupState::Done {
                        lanes: vec![lane.clone()],
                    }),
                    outcome: Some(lane.rebuild(model.len())?),
                })
            }
            &Replica::Fresh(seed) => {
                if let Some(stop) = ctrl.check(0) {
                    return Ok(ReplicaRun {
                        status: stop,
                        state: Some(GroupState::Pending { seeds: vec![seed] }),
                        outcome: None,
                    });
                }
                (seed, self.annealer(seed).solve_controlled(model, ctrl))
            }
            Replica::Running { seed, sa } => (
                *seed,
                self.annealer(*seed).resume_controlled(model, sa, ctrl)?,
            ),
        };
        let state = match run.status {
            OutcomeKind::Completed => Some(GroupState::Done {
                lanes: vec![DoneLane::capture(&run.outcome)],
            }),
            OutcomeKind::Checkpointed => run.state.map(|sa| GroupState::Serial { seed, sa }),
            _ => None,
        };
        Ok(ReplicaRun {
            status: run.status,
            state,
            outcome: Some(run.outcome),
        })
    }
}

/// One replica's starting point in a controlled run.
enum Replica {
    /// Not started: anneal from the seed.
    Fresh(u64),
    /// Interrupted: resume the annealer image.
    Running {
        /// The replica's seed.
        seed: u64,
        /// The annealer image at the boundary.
        sa: SaState,
    },
    /// Finished: re-emit the recorded outcome.
    Done(DoneLane),
}

/// Splits a recorded group into its replicas, in replica order.
fn split_group(group: &GroupState, out: &mut Vec<Replica>) -> Result<(), CheckpointError> {
    match group {
        GroupState::Pending { seeds } => out.extend(seeds.iter().map(|&s| Replica::Fresh(s))),
        GroupState::Serial { seed, sa } => out.push(Replica::Running {
            seed: *seed,
            sa: sa.clone(),
        }),
        GroupState::Done { lanes } => out.extend(lanes.iter().cloned().map(Replica::Done)),
        GroupState::Batch {
            seeds,
            next_step,
            lanes,
            bests,
        } => {
            if seeds.len() != lanes.len() || seeds.len() != bests.len() {
                return Err(CheckpointError::Malformed(format!(
                    "batch group holds {} seeds, {} lanes, {} bests",
                    seeds.len(),
                    lanes.len(),
                    bests.len()
                )));
            }
            for ((&seed, lane), best) in seeds.iter().zip(lanes).zip(bests) {
                out.push(Replica::Running {
                    seed,
                    sa: SaState {
                        next_step: *next_step,
                        machine: lane.machine.clone(),
                        noise: lane.noise.clone(),
                        best: best.clone(),
                    },
                });
            }
        }
    }
    Ok(())
}

/// One replica's controlled run: its stop status, its resumable image (when
/// one exists), and its outcome if it took at least one sweep.
struct ReplicaRun {
    status: OutcomeKind,
    /// `Some` for completed replicas (a [`GroupState::Done`] image) and
    /// checkpointed ones; `None` when the replica stopped without capture
    /// (cancellation or a missed deadline).
    state: Option<GroupState>,
    /// `None` when the replica stopped before its first sweep.
    outcome: Option<SolveOutcome>,
}

/// Folds per-replica runs into one controlled ensemble result: the ordered
/// strict-`<` reduction over every outcome produced so far, a status
/// merged across replicas, and — when every replica captured an image — the
/// resumable [`EnsembleState`].
///
/// The merge ranks `Cancelled` over `DeadlineExceeded` over `Checkpointed`.
/// Ranking the deadline above the checkpoint — the opposite of the
/// single-run priority — is deliberate: a deadline-stopped replica carries
/// no image, so a mixed deadline/checkpoint race must degrade the whole run
/// to `DeadlineExceeded` rather than claim a resumable state that does not
/// exist.
fn assemble(
    model: &IsingModel,
    batch_index: u64,
    runs: Vec<ReplicaRun>,
) -> Controlled<EnsembleState> {
    fn rank(k: OutcomeKind) -> u8 {
        match k {
            OutcomeKind::Completed => 0,
            OutcomeKind::Checkpointed => 1,
            OutcomeKind::DeadlineExceeded => 2,
            OutcomeKind::Cancelled => 3,
        }
    }
    let status = runs
        .iter()
        .map(|r| r.status)
        .max_by_key(|&k| rank(k))
        .unwrap_or(OutcomeKind::Completed);
    let mut mcs_total = 0u64;
    let mut best_energy = f64::INFINITY;
    let mut winner: Option<&SolveOutcome> = None;
    for outcome in runs.iter().filter_map(|r| r.outcome.as_ref()) {
        mcs_total += outcome.mcs;
        // ordered reduction: strict < keeps the lowest replica on ties
        if outcome.best_energy < best_energy {
            best_energy = outcome.best_energy;
            winner = Some(outcome);
        }
    }
    let outcome = match winner {
        Some(w) => SolveOutcome {
            last: w.last.clone(),
            last_energy: w.last_energy,
            best: w.best.clone(),
            best_energy: w.best_energy,
            mcs: mcs_total,
        },
        // every replica stopped before its first sweep: report the trivial
        // all-up sample so the partial outcome is still well-formed
        None => {
            let state = SpinState::from_values(&vec![1; model.len()]);
            let energy = model.energy(&state);
            SolveOutcome {
                last: state.clone(),
                last_energy: energy,
                best: state,
                best_energy: energy,
                mcs: 0,
            }
        }
    };
    let state = (status == OutcomeKind::Checkpointed).then(|| EnsembleState {
        batch_index,
        groups: runs
            .into_iter()
            .map(|r| {
                r.state
                    .expect("checkpoint-merged replicas all carry an image")
            })
            .collect(),
    });
    Controlled {
        outcome,
        status,
        state,
    }
}

impl IsingSolver for EnsembleAnnealer {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        self.solve_ensemble(model).reduce()
    }

    fn mcs_per_solve(&self, _n: usize) -> u64 {
        (self.config.replicas * self.config.mcs_per_run) as u64
    }

    fn name(&self) -> &'static str {
        "replica-ensemble annealing (p-bit)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sa::SimulatedAnnealing;
    use saim_ising::{BinaryState, QuboBuilder};

    fn planted_model() -> (IsingModel, f64) {
        // E(x) = Σ (x_i - t_i)² with t = 101101: unique ground state at t
        let target = BinaryState::from_bits(&[1, 0, 1, 1, 0, 1]);
        let mut b = QuboBuilder::new(6);
        for i in 0..6 {
            let t = f64::from(target.bit(i));
            b.add_linear(i, 1.0 - 2.0 * t).unwrap();
            b.add_offset(t);
        }
        let q = b.build();
        let opt = q.energy(&target);
        (q.to_ising(), opt)
    }

    fn config(replicas: usize, threads: usize) -> EnsembleConfig {
        EnsembleConfig {
            replicas,
            threads,
            schedule: BetaSchedule::linear(6.0),
            mcs_per_run: 60,
            dynamics: Dynamics::Gibbs,
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let (model, _) = planted_model();
        let reference = EnsembleAnnealer::new(config(6, 1), 42).solve_ensemble(&model);
        for threads in [2, 3, 8] {
            let got = EnsembleAnnealer::new(config(6, threads), 42).solve_ensemble(&model);
            assert_eq!(got, reference, "threads = {threads}");
        }
    }

    #[test]
    fn matches_serial_reference_runs() {
        let (model, _) = planted_model();
        let mut ensemble = EnsembleAnnealer::new(config(5, 0), 9);
        let out = ensemble.solve_ensemble(&model);
        for r in &out.replicas {
            let mut serial = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 60, r.seed);
            assert_eq!(serial.solve(&model), r.outcome, "replica {}", r.replica);
        }
    }

    #[test]
    fn reduction_picks_lowest_energy_then_lowest_index() {
        let (model, _) = planted_model();
        let mut ensemble = EnsembleAnnealer::new(config(8, 0), 3);
        let out = ensemble.solve_ensemble(&model);
        let min = out
            .replicas
            .iter()
            .map(|r| r.outcome.best_energy)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(out.best().best_energy, min);
        let first_at_min = out
            .replicas
            .iter()
            .position(|r| r.outcome.best_energy == min)
            .unwrap();
        assert_eq!(out.best_replica, first_at_min);
    }

    #[test]
    fn ensemble_finds_planted_ground_state() {
        let (model, opt) = planted_model();
        let cfg = EnsembleConfig {
            mcs_per_run: 200,
            ..config(8, 0)
        };
        let out = EnsembleAnnealer::new(cfg, 1).solve(&model);
        assert!((out.best_energy - opt).abs() < 1e-9);
        assert_eq!(out.mcs, 8 * 200);
    }

    #[test]
    fn consecutive_solves_are_distinct_batches() {
        let (model, _) = planted_model();
        let cfg = EnsembleConfig {
            schedule: BetaSchedule::linear(0.1),
            mcs_per_run: 5,
            ..config(4, 0)
        };
        let mut ensemble = EnsembleAnnealer::new(cfg, 5);
        let a = ensemble.solve(&model);
        let b = ensemble.solve(&model);
        // at high temperature two short batches almost surely read differently
        assert_ne!(a.last, b.last);
    }

    #[test]
    fn solver_facade_reports_budget() {
        let ensemble = EnsembleAnnealer::new(config(4, 0), 0);
        assert_eq!(ensemble.mcs_per_solve(10), 240);
        assert_eq!(ensemble.name(), "replica-ensemble annealing (p-bit)");
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn rejects_zero_replicas() {
        let _ = EnsembleAnnealer::new(config(0, 0), 0);
    }

    #[test]
    fn controlled_solve_with_idle_controller_matches_solve() {
        let (model, _) = planted_model();
        let a = EnsembleAnnealer::new(config(6, 0), 42).solve(&model);
        let mut e = EnsembleAnnealer::new(config(6, 0), 42);
        let b = e.solve_controlled(&model, &RunController::unlimited());
        assert_eq!(b.status, OutcomeKind::Completed);
        assert!(b.state.is_none());
        assert_eq!(b.outcome, a);
    }

    #[test]
    fn interrupted_resume_is_bit_identical_across_threads() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(6, 1), 42).solve(&model);
        for stop in [1u64, 7, 29] {
            let ctrl = RunController::unlimited()
                .with_stop_after(stop)
                .with_poll_interval(1);
            let cut = EnsembleAnnealer::new(config(6, 1), 42).solve_controlled(&model, &ctrl);
            assert_eq!(cut.status, OutcomeKind::Checkpointed);
            let state = cut.state.expect("checkpointed runs carry state");
            for threads in [1usize, 2, 8] {
                let mut second = EnsembleAnnealer::new(config(6, threads), 42);
                let resumed = second
                    .resume_controlled(&model, &state, &RunController::unlimited())
                    .expect("state fits the ensemble");
                assert_eq!(resumed.status, OutcomeKind::Completed);
                assert_eq!(resumed.outcome, oracle, "stop={stop} threads={threads}");
            }
        }
    }

    #[test]
    fn multi_lane_batch_groups_resume_as_serial_replicas() {
        // a state from the era of multi-lane groups: every replica's image
        // folded into one `Batch` group must resume to the same outcome
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(4, 1), 23).solve(&model);
        let ctrl = RunController::unlimited()
            .with_stop_after(11)
            .with_poll_interval(1);
        let cut = EnsembleAnnealer::new(config(4, 1), 23).solve_controlled(&model, &ctrl);
        let state = cut.state.expect("checkpointed");
        let mut seeds = Vec::new();
        let mut lanes = Vec::new();
        let mut bests = Vec::new();
        for group in &state.groups {
            let GroupState::Serial { seed, sa } = group else {
                panic!("every replica stopped mid-run: {group:?}");
            };
            assert_eq!(sa.next_step, 11);
            seeds.push(*seed);
            lanes.push(crate::checkpoint::LaneState {
                machine: sa.machine.clone(),
                noise: sa.noise.clone(),
            });
            bests.push(sa.best.clone());
        }
        let legacy = EnsembleState {
            batch_index: state.batch_index,
            groups: vec![GroupState::Batch {
                seeds,
                next_step: 11,
                lanes,
                bests,
            }],
        };
        let resumed = EnsembleAnnealer::new(config(4, 2), 23)
            .resume_controlled(&model, &legacy, &RunController::unlimited())
            .expect("a batch group splits into serial replicas");
        assert_eq!(resumed.status, OutcomeKind::Completed);
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn double_interruption_still_replays_exactly() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(6, 0), 17).solve(&model);
        let first_cut = RunController::unlimited()
            .with_stop_after(3)
            .with_poll_interval(1);
        let cut = EnsembleAnnealer::new(config(6, 0), 17).solve_controlled(&model, &first_cut);
        let state = cut.state.expect("checkpointed");
        let second_cut = RunController::unlimited()
            .with_stop_after(20)
            .with_poll_interval(1);
        let cut2 = EnsembleAnnealer::new(config(6, 0), 17)
            .resume_controlled(&model, &state, &second_cut)
            .expect("state fits");
        assert_eq!(cut2.status, OutcomeKind::Checkpointed);
        let state2 = cut2.state.expect("checkpointed");
        let resumed = EnsembleAnnealer::new(config(6, 0), 17)
            .resume_controlled(&model, &state2, &RunController::unlimited())
            .expect("state fits");
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn cancel_before_the_first_sweep_yields_a_well_formed_partial() {
        let (model, _) = planted_model();
        let mut e = EnsembleAnnealer::new(config(4, 1), 7);
        let ctrl = RunController::unlimited();
        ctrl.request_cancel();
        let cut = e.solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Cancelled);
        assert!(cut.state.is_none());
        assert_eq!(cut.outcome.mcs, 0);
        assert_eq!(cut.outcome.best_energy, model.energy(&cut.outcome.best));
    }

    #[test]
    fn checkpoint_before_the_first_sweep_resumes_to_the_full_run() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(4, 0), 11).solve(&model);
        let mut e = EnsembleAnnealer::new(config(4, 0), 11);
        let ctrl = RunController::unlimited();
        ctrl.request_checkpoint();
        let cut = e.solve_controlled(&model, &ctrl);
        assert_eq!(cut.status, OutcomeKind::Checkpointed);
        let state = cut.state.expect("checkpointed");
        assert!(state
            .groups
            .iter()
            .all(|g| matches!(g, GroupState::Pending { .. })));
        let resumed = EnsembleAnnealer::new(config(4, 0), 11)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("pending groups run fresh");
        assert_eq!(resumed.outcome, oracle);
    }

    #[test]
    fn done_groups_re_emit_verbatim_on_resume() {
        let (model, _) = planted_model();
        let oracle = EnsembleAnnealer::new(config(4, 1), 13).solve_ensemble(&model);
        let groups: Vec<GroupState> = oracle
            .replicas
            .iter()
            .map(|r| GroupState::Done {
                lanes: vec![DoneLane::capture(&r.outcome)],
            })
            .collect();
        let state = EnsembleState {
            batch_index: 0,
            groups,
        };
        let resumed = EnsembleAnnealer::new(config(4, 1), 13)
            .resume_controlled(&model, &state, &RunController::unlimited())
            .expect("well-formed state");
        assert_eq!(resumed.status, OutcomeKind::Completed);
        assert_eq!(resumed.outcome, oracle.reduce());
    }

    #[test]
    fn resume_rejects_a_replica_count_mismatch() {
        let (model, _) = planted_model();
        let ctrl = RunController::unlimited()
            .with_stop_after(1)
            .with_poll_interval(1);
        let state = EnsembleAnnealer::new(config(6, 0), 42)
            .solve_controlled(&model, &ctrl)
            .state
            .expect("checkpointed");
        let mut other = EnsembleAnnealer::new(config(5, 0), 42);
        assert!(matches!(
            other.resume_controlled(&model, &state, &RunController::unlimited()),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
