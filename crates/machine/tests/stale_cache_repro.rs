//! Repro: settled-set cache survives a β excursion whose flips were never
//! slack-charged, so masked sweeps resume against a stale certificate.

use saim_ising::QuboBuilder;
use saim_machine::{derive_seed, new_rng, NoiseSource, PbitMachine};

#[test]
fn hot_excursion_then_requench_replays_the_exact_oracle() {
    // every spin strongly biased: at a held β = 2 the machine fully
    // settles, rebuilds an (empty) settled-set list with a positive slack
    // budget
    let mut b = QuboBuilder::new(16);
    for i in 0..16 {
        b.add_linear(i, -50.0).unwrap();
    }
    let model = b.build().to_ising();
    let twin = |s: u64| {
        let mut rng = new_rng(s);
        let machine = PbitMachine::new(&model, &mut rng);
        (machine, NoiseSource::new(rng))
    };
    let seeds: Vec<u64> = (0..3).map(|r| derive_seed(9, r)).collect();
    let mut machines: Vec<(PbitMachine, NoiseSource)> = seeds.iter().map(|&s| twin(s)).collect();
    // the reference keeps no settled list
    let mut oracles: Vec<(PbitMachine, NoiseSource)> = seeds.iter().map(|&s| twin(s)).collect();
    // hold β=2 (list builds), one β=0 scramble sweep (flips never charged
    // against the slack budget), then back to β=2 (tag matches again)
    let schedule: Vec<f64> = std::iter::repeat_n(2.0, 10)
        .chain(std::iter::once(0.0))
        .chain(std::iter::repeat_n(2.0, 5))
        .collect();
    for (sweep, &beta) in schedule.iter().enumerate() {
        for (r, ((machine, noise), (oracle, oracle_noise))) in
            machines.iter_mut().zip(&mut oracles).enumerate()
        {
            machine.sweep_buffered(&model, beta, noise);
            oracle.sweep_exact_oracle_buffered(&model, beta, oracle_noise);
            assert_eq!(
                machine.state(),
                oracle.state(),
                "sweep {sweep} (beta {beta}) machine {r}"
            );
            assert_eq!(
                machine.flips(),
                oracle.flips(),
                "flips at sweep {sweep} machine {r}"
            );
        }
    }
}
