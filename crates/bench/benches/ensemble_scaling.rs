//! Criterion bench — replica-ensemble scaling (replicas × problem size).
//!
//! Measures the wall-clock of one ensemble solve as the replica count R and
//! the problem size n grow, on all cores and pinned to one thread. On a
//! multi-core machine the all-cores series should scale sublinearly in R
//! (ideally flat until R exceeds the core count) while the single-thread
//! series grows linearly — that gap is the engine's whole point.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saim_core::{penalty_qubo, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::{BetaSchedule, Dynamics, EnsembleAnnealer, EnsembleConfig, IsingSolver};

fn qkp_model(n: usize) -> saim_ising::IsingModel {
    let inst = generate::qkp(n, 0.5, 7).expect("valid parameters");
    let enc = inst.encode().expect("encodes");
    penalty_qubo(&enc, enc.penalty_for_alpha(2.0))
        .expect("valid penalty")
        .to_ising()
}

fn config(replicas: usize, threads: usize, mcs: usize) -> EnsembleConfig {
    EnsembleConfig {
        replicas,
        threads,
        schedule: BetaSchedule::linear(10.0),
        mcs_per_run: mcs,
        dynamics: Dynamics::Gibbs,
    }
}

fn bench_replica_scaling(c: &mut Criterion) {
    let model = qkp_model(100);
    let mut group = c.benchmark_group("ensemble_replicas_n100");
    group.sample_size(10);
    for replicas in [1usize, 2, 4, 8, 16] {
        group.throughput(Throughput::Elements(replicas as u64));
        group.bench_with_input(
            BenchmarkId::new("all_cores", replicas),
            &model,
            |b, model| {
                b.iter(|| EnsembleAnnealer::new(config(replicas, 0, 50), 1).solve(model));
            },
        );
        group.bench_with_input(
            BenchmarkId::new("one_thread", replicas),
            &model,
            |b, model| {
                b.iter(|| EnsembleAnnealer::new(config(replicas, 1, 50), 1).solve(model));
            },
        );
    }
    group.finish();
}

fn bench_size_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("ensemble_size_r8");
    group.sample_size(10);
    for n in [50usize, 100, 200] {
        let model = qkp_model(n);
        group.throughput(Throughput::Elements(model.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &model, |b, model| {
            b.iter(|| EnsembleAnnealer::new(config(8, 0, 50), 1).solve(model));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replica_scaling, bench_size_scaling);
criterion_main!(benches);
