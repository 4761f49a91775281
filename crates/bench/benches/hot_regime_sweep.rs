//! Criterion bench — hot-regime (β ≤ 8) sweep throughput.
//!
//! In the hot regime the knapsack encoding's weakly-coupled slack bits
//! never saturate, so every sweep pays per-update decision work there; the
//! three-tier bracket kernel attacks exactly that cost. This bench pins
//! the bracket kernel against the retained exact-tanh oracle at
//! β ∈ {2, 4, 8} on the n = 213 QKP-density row — the hot rows
//! `BENCH_sweep.json`'s `hot` section records.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saim_core::{penalty_qubo, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::{new_rng, NoiseSource, PbitMachine};

fn qkp_model(n: usize, density: f64) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, density, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

fn bench_serial_bracket(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_sweep_bracket");
    let model = qkp_model(200, 0.5);
    group.throughput(Throughput::Elements(model.len() as u64));
    for beta in [2.0f64, 4.0, 8.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("beta{beta}")),
            &model,
            |b, model| {
                let mut rng = new_rng(1);
                let mut machine = PbitMachine::new(model, &mut rng);
                let mut noise = NoiseSource::new(rng);
                b.iter(|| machine.sweep_buffered(model, beta, &mut noise));
            },
        );
    }
    group.finish();
}

fn bench_serial_exact_oracle(c: &mut Criterion) {
    let mut group = c.benchmark_group("hot_sweep_exact_oracle");
    let model = qkp_model(200, 0.5);
    group.throughput(Throughput::Elements(model.len() as u64));
    for beta in [2.0f64, 4.0, 8.0] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("beta{beta}")),
            &model,
            |b, model| {
                let mut rng = new_rng(1);
                let mut machine = PbitMachine::new(model, &mut rng);
                let mut noise = NoiseSource::new(rng);
                b.iter(|| machine.sweep_exact_oracle_buffered(model, beta, &mut noise));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serial_bracket, bench_serial_exact_oracle);
criterion_main!(benches);
