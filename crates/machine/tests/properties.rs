//! Property-based tests for the p-bit machine.

use proptest::prelude::*;
use saim_ising::{BinaryState, QuboBuilder};
use saim_machine::{
    derive_seed, new_rng, BetaSchedule, Dynamics, IsingSolver, NoiseSource, PbitMachine,
    SimulatedAnnealing,
};

/// A small random Ising model built from a QUBO.
fn arb_model() -> impl Strategy<Value = saim_ising::IsingModel> {
    (3usize..8).prop_flat_map(|n| {
        let pairs = proptest::collection::vec(((0..n, 0..n), -2.0..2.0f64), 0..10);
        let linear = proptest::collection::vec(-2.0..2.0f64, n);
        (pairs, linear).prop_map(move |(pairs, linear)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, v).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, v).expect("index in range");
            }
            b.build().to_ising()
        })
    })
}

/// A small random Ising model that may be empty or a single spin — the
/// degenerate shapes the sweep kernel and its settled list must survive.
fn arb_model_with_edge_sizes() -> impl Strategy<Value = saim_ising::IsingModel> {
    (0usize..6).prop_flat_map(|n| {
        let pairs = if n >= 2 {
            proptest::collection::vec(((0..n, 0..n), -2.0..2.0f64), 0..8).boxed()
        } else {
            Just(Vec::new()).boxed()
        };
        let linear = proptest::collection::vec(-2.0..2.0f64, n);
        (pairs, linear).prop_map(move |(pairs, linear)| {
            let mut b = QuboBuilder::new(n);
            for ((i, j), v) in pairs {
                if i != j {
                    b.add_pair(i, j, v).expect("indices in range");
                }
            }
            for (i, v) in linear.into_iter().enumerate() {
                b.add_linear(i, v).expect("index in range");
            }
            b.build().to_ising()
        })
    })
}

/// A ring QUBO large and sparse enough that `to_ising` stores CSR couplings.
fn arb_csr_model() -> impl Strategy<Value = saim_ising::IsingModel> {
    (64usize..90, proptest::collection::vec(-2.0..2.0f64, 90)).prop_map(|(n, weights)| {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            let w = weights[i % weights.len()];
            if w != 0.0 {
                b.add_pair(i, (i + 1) % n, w).expect("indices in range");
            }
            b.add_linear(i, 0.4 - 0.2 * (i % 3) as f64)
                .expect("index in range");
        }
        b.build().to_ising()
    })
}

/// Oracle replay: for four derived streams, a [`PbitMachine`] and an
/// exact-oracle twin on the same stream track each other sweep by sweep —
/// states, energy bits, flip counts and changed counts — under the
/// schedule `beta_at`. The oracle keeps no settled list, so held-β tails
/// pin the machine's masked sweeps against it.
fn assert_replays_exact_oracle(
    model: &saim_ising::IsingModel,
    seed: u64,
    sweeps: usize,
    beta_at: impl Fn(usize) -> f64,
) {
    let twin = |s: u64| {
        let mut rng = new_rng(s);
        let machine = PbitMachine::new(model, &mut rng);
        (machine, NoiseSource::new(rng))
    };
    for r in 0..4 {
        let s = derive_seed(seed, r);
        let ((mut machine, mut noise), (mut oracle, mut oracle_noise)) = (twin(s), twin(s));
        for sweep in 0..sweeps {
            let beta = beta_at(sweep);
            let changed = machine.sweep_buffered(model, beta, &mut noise);
            let expected = oracle.sweep_exact_oracle_buffered(model, beta, &mut oracle_noise);
            prop_assert_eq!(changed, expected, "stream {} sweep {}", r, sweep);
            prop_assert_eq!(
                machine.state(),
                oracle.state(),
                "stream {} sweep {}",
                r,
                sweep
            );
            prop_assert_eq!(machine.energy().to_bits(), oracle.energy().to_bits());
            prop_assert_eq!(machine.flips(), oracle.flips());
        }
    }
}

/// An anneal ramp into a held deep quench: the held tail keeps β stable so
/// the settled-set list engages.
fn ramp_then_hold(sweep: usize) -> f64 {
    if sweep < 10 {
        0.6 * sweep as f64
    } else {
        40.0
    }
}

proptest! {
    /// Annealing ramps replay the oracle on dense models, including n = 0
    /// and n = 1.
    #[test]
    fn ramps_replay_the_oracle_on_dense_models(
        model in arb_model_with_edge_sizes(),
        seed in 0u64..500,
    ) {
        assert_replays_exact_oracle(&model, seed, 15, |sweep| 0.4 * sweep as f64);
    }

    /// Annealing ramps replay the oracle on CSR-backed models.
    #[test]
    fn ramps_replay_the_oracle_on_csr_models(
        model in arb_csr_model(),
        seed in 0u64..200,
    ) {
        prop_assume!(matches!(model.couplings(), saim_ising::Couplings::Sparse(_)));
        assert_replays_exact_oracle(&model, seed, 8, |sweep| 0.4 * sweep as f64);
    }

    /// Held deep quenches — the settled list's regime — replay the oracle
    /// on dense models, including n = 0 and n = 1.
    #[test]
    fn held_quenches_replay_the_oracle_on_dense_models(
        model in arb_model_with_edge_sizes(),
        seed in 0u64..200,
    ) {
        assert_replays_exact_oracle(&model, seed, 30, ramp_then_hold);
    }

    /// Held deep quenches replay the oracle on CSR-backed models.
    #[test]
    fn held_quenches_replay_the_oracle_on_csr_models(
        model in arb_csr_model(),
        seed in 0u64..100,
    ) {
        prop_assume!(matches!(model.couplings(), saim_ising::Couplings::Sparse(_)));
        assert_replays_exact_oracle(&model, seed, 30, ramp_then_hold);
    }

    /// Metropolis sweeps interleaved into a held Gibbs quench flip spins
    /// without charging the settled list's budget; the machine must drop
    /// the list and keep replaying a twin that takes the same Metropolis
    /// sweeps and exact-oracle Gibbs sweeps.
    #[test]
    fn metropolis_interleaved_into_a_held_quench_replays_the_oracle(
        model in arb_model(),
        seed in 0u64..200,
    ) {
        let mut rng = new_rng(seed);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut noise = NoiseSource::new(rng);
        let mut rng = new_rng(seed);
        let mut oracle = PbitMachine::new(&model, &mut rng);
        let mut oracle_noise = NoiseSource::new(rng);
        for sweep in 0..40 {
            if sweep % 7 == 6 {
                machine.metropolis_sweep_buffered(&model, 0.5, &mut noise);
                oracle.metropolis_sweep_buffered(&model, 0.5, &mut oracle_noise);
            } else {
                machine.sweep_buffered(&model, 12.0, &mut noise);
                oracle.sweep_exact_oracle_buffered(&model, 12.0, &mut oracle_noise);
            }
            prop_assert_eq!(machine.state(), oracle.state(), "sweep {}", sweep);
            prop_assert_eq!(machine.energy().to_bits(), oracle.energy().to_bits());
        }
    }
}

proptest! {
    /// The incremental energy and local-field books never drift from the
    /// model under either dynamics.
    #[test]
    fn books_never_drift(model in arb_model(), seed in 0u64..1000, beta in 0.0..8.0f64) {
        let mut rng = new_rng(seed);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..30 {
            if sweep % 2 == 0 {
                machine.sweep(&model, beta, &mut rng);
            } else {
                machine.metropolis_sweep(&model, beta, &mut rng);
            }
            prop_assert!((machine.energy() - model.energy(machine.state())).abs() < 1e-9);
        }
        for i in 0..model.len() {
            let expected = model.local_field(machine.state(), i);
            prop_assert!((machine.local_field(i) - expected).abs() < 1e-9);
        }
    }

    /// Greedy sweeps are monotone and terminate at a 1-flip local optimum.
    #[test]
    fn greedy_descends_to_local_optimum(model in arb_model(), seed in 0u64..1000) {
        let mut rng = new_rng(seed);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut prev = machine.energy();
        for _ in 0..200 {
            if machine.greedy_sweep(&model) == 0 {
                break;
            }
            prop_assert!(machine.energy() <= prev + 1e-12);
            prev = machine.energy();
        }
        for i in 0..model.len() {
            prop_assert!(model.delta_energy(machine.state(), i) >= -1e-9);
        }
    }

    /// Solver outcomes are internally consistent for both dynamics, and the
    /// annealed best never beats the brute-force ground state.
    #[test]
    fn solve_outcomes_are_sound(
        model in arb_model(),
        seed in 0u64..500,
        metropolis in proptest::bool::ANY,
    ) {
        let ground = (0u64..(1 << model.len()))
            .map(|m| model.energy(&BinaryState::from_mask(m, model.len()).to_spins()))
            .fold(f64::INFINITY, f64::min);
        let dynamics = if metropolis { Dynamics::Metropolis } else { Dynamics::Gibbs };
        let mut sa = SimulatedAnnealing::new(BetaSchedule::linear(6.0), 40, seed)
            .with_dynamics(dynamics);
        let out = sa.solve(&model);
        prop_assert!(out.best_energy >= ground - 1e-9, "below the ground state");
        prop_assert!(out.best_energy <= out.last_energy + 1e-9);
        prop_assert!((model.energy(&out.best) - out.best_energy).abs() < 1e-9);
        prop_assert_eq!(out.mcs, 40);
    }

    /// Every schedule is bounded by its endpoints and total-length invariant.
    #[test]
    fn schedules_are_bounded(
        beta_max in 0.1..50.0f64,
        total in 1usize..500,
        step_frac in 0.0..1.0f64,
    ) {
        let step = ((total - 1) as f64 * step_frac) as usize;
        for schedule in [
            BetaSchedule::linear(beta_max),
            BetaSchedule::geometric(0.05, beta_max.max(0.06)),
            BetaSchedule::constant(beta_max),
        ] {
            let b = schedule.beta_at(step, total);
            prop_assert!(b >= 0.0);
            prop_assert!(b <= schedule.beta_final() + 1e-12);
        }
    }
}
