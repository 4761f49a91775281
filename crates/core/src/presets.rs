//! The paper's Table I parameter sets.
//!
//! | Experiment | Penalty | MCS/run | Runs | β_max | η    |
//! |-----------|---------|---------|------|-------|------|
//! | QKP       | 2·d·N   | 1000    | 2000 | 10    | 20   |
//! | MKP       | 5·d·N   | 1000    | 5000 | 50    | 0.05 |
//!
//! The presets bundle outer-loop and inner-solver parameters so bench
//! targets, tests and examples share a single source of truth. `runs` here
//! is the paper's full budget; the bench harness scales it down by default.

use crate::problem::ConstrainedProblem;
use crate::saim::SaimConfig;
use saim_machine::{BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, SimulatedAnnealing};
use serde::{Deserialize, Serialize};

/// A complete experimental parameter set (one row of Table I).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentPreset {
    /// Human-readable name of the experiment family.
    pub name: &'static str,
    /// Penalty multiplier α in `P = α·d·N`.
    pub alpha: f64,
    /// Monte Carlo sweeps per annealing run.
    pub mcs_per_run: usize,
    /// Number of runs `K` (outer iterations).
    pub runs: usize,
    /// Final inverse temperature of the linear schedule.
    pub beta_max: f64,
    /// Lagrange step size η.
    pub eta: f64,
}

impl ExperimentPreset {
    /// Builds the [`SaimConfig`] for a concrete problem instance, applying
    /// the `P = α·d·N` rule with the instance's density, optionally scaling
    /// the iteration count by `run_scale` (1.0 = the paper's full budget).
    ///
    /// # Panics
    ///
    /// Panics if `run_scale` is not in `(0, 1]`.
    pub fn config_for<P: ConstrainedProblem + ?Sized>(
        &self,
        problem: &P,
        run_scale: f64,
        seed: u64,
    ) -> SaimConfig {
        assert!(
            run_scale > 0.0 && run_scale <= 1.0,
            "run_scale must be in (0, 1]"
        );
        SaimConfig {
            penalty: problem.penalty_for_alpha(self.alpha),
            eta: self.eta,
            iterations: ((self.runs as f64 * run_scale).round() as usize).max(1),
            seed,
        }
    }

    /// Builds the paper's inner solver: p-bit simulated annealing with a
    /// linear β schedule from 0 to `beta_max` over `mcs_per_run` sweeps.
    pub fn solver(&self, seed: u64) -> SimulatedAnnealing {
        SimulatedAnnealing::new(BetaSchedule::linear(self.beta_max), self.mcs_per_run, seed)
    }

    /// The preset's run parameters as a replica-ensemble configuration
    /// (`threads: 0` = all cores; results never depend on the thread count).
    pub fn ensemble_config(&self, replicas: usize) -> EnsembleConfig {
        EnsembleConfig {
            replicas,
            threads: 0,
            schedule: BetaSchedule::linear(self.beta_max),
            mcs_per_run: self.mcs_per_run,
            dynamics: Dynamics::Gibbs,
        }
    }

    /// Builds the parallel run engine for this preset's annealed runs.
    pub fn ensemble(&self, replicas: usize, root_seed: u64) -> EnsembleAnnealer {
        EnsembleAnnealer::new(self.ensemble_config(replicas), root_seed)
    }

    /// Total sweep budget of the full-scale experiment (`runs × mcs_per_run`).
    pub fn total_mcs(&self) -> u64 {
        self.runs as u64 * self.mcs_per_run as u64
    }
}

/// Table I, QKP row: `P = 2dN`, 1000 MCS/run, 2000 runs, β_max = 10, η = 20.
pub fn qkp() -> ExperimentPreset {
    ExperimentPreset {
        name: "QKP",
        alpha: 2.0,
        mcs_per_run: 1000,
        runs: 2000,
        beta_max: 10.0,
        eta: 20.0,
    }
}

/// Table I, MKP row: `P = 5dN`, 1000 MCS/run, 5000 runs, β_max = 50, η = 0.05.
pub fn mkp() -> ExperimentPreset {
    ExperimentPreset {
        name: "MKP",
        alpha: 5.0,
        mcs_per_run: 1000,
        runs: 5000,
        beta_max: 50.0,
        eta: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{BinaryProblem, LinearConstraint};
    use saim_ising::QuboBuilder;
    use saim_machine::IsingSolver;

    #[test]
    fn table1_values() {
        let q = qkp();
        assert_eq!((q.alpha, q.mcs_per_run, q.runs), (2.0, 1000, 2000));
        assert_eq!((q.beta_max, q.eta), (10.0, 20.0));
        let m = mkp();
        assert_eq!((m.alpha, m.mcs_per_run, m.runs), (5.0, 1000, 5000));
        assert_eq!((m.beta_max, m.eta), (50.0, 0.05));
    }

    #[test]
    fn total_budgets_match_paper() {
        assert_eq!(qkp().total_mcs(), 2_000_000); // "2M MCS" of Fig. 4b
        assert_eq!(mkp().total_mcs(), 5_000_000);
    }

    #[test]
    fn config_applies_density_rule() {
        // fully dense 4-variable objective: d = 1, N = 4 → P = 2·1·4 = 8
        let mut f = QuboBuilder::new(4);
        for i in 0..4 {
            for j in (i + 1)..4 {
                f.add_pair(i, j, 1.0).unwrap();
            }
        }
        let p = BinaryProblem::new(f.build(), vec![]).unwrap();
        let cfg = qkp().config_for(&p, 1.0, 0);
        assert!((cfg.penalty - 8.0).abs() < 1e-12);
        assert_eq!(cfg.iterations, 2000);
        let scaled = qkp().config_for(&p, 0.01, 0);
        assert_eq!(scaled.iterations, 20);
    }

    #[test]
    fn solver_matches_schedule() {
        let s = qkp().solver(1);
        assert_eq!(s.mcs_per_solve(10), 1000);
        assert_eq!(s.schedule().beta_final(), 10.0);
    }

    #[test]
    fn config_respects_constraint_dims() {
        let f = QuboBuilder::new(2).build();
        let p = BinaryProblem::new(
            f,
            vec![LinearConstraint::new(vec![1.0, 1.0], -1.0).unwrap()],
        )
        .unwrap();
        let cfg = mkp().config_for(&p, 0.001, 7);
        assert!(cfg.iterations >= 1);
        assert_eq!(cfg.seed, 7);
    }
}
