//! Criterion bench — the NDJSON frame codec on the serving path.
//!
//! Every SAIM iteration served through `saim-router` is one Submit frame
//! carrying a dense QUBO, so the codec runs on the same data the solver
//! does: about 250 kB per frame at QKP n = 100 and 1.8 MB at n = 300. The
//! groups time, per QKP size, the Submit encode (`Request::to_line`), its
//! decode (`Request::from_line`), and the encode of the Outcome frame that
//! answers it. A QKP-300 frame exceeds the default 1 MiB frame limit; the
//! codec itself has no limit, so it is timed all the same.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use saim_core::{penalty_qubo, presets, ConstrainedProblem};
use saim_knapsack::generate;
use saim_machine::frontend::{Request, Response};
use saim_machine::service::{JobSpec, SolverSpec};

const SIZES: [usize; 3] = [100, 200, 300];

/// A Submit of the Table I penalty QUBO of a generated QKP instance, as the
/// serving workload sends it (a one-replica ensemble on the QKP schedule).
fn submit(n: usize) -> Request {
    let instance = generate::qkp(n, 0.25, 7000 + n as u64).expect("valid generator parameters");
    let enc = instance.encode().expect("generated instances encode");
    let preset = presets::qkp();
    let model = penalty_qubo(&enc, enc.penalty_for_alpha(preset.alpha))
        .expect("encoded problems are consistent");
    let mut config = preset.ensemble_config(1);
    config.threads = 1;
    Request::Submit {
        spec: JobSpec::new(1, model, SolverSpec::Ensemble(config), 1),
        priority: 0,
        deadline_ms: None,
    }
}

/// The Outcome frame answering `request`; a short descent gives it the
/// spin vectors of the right length without the full anneal.
fn outcome(request: &Request) -> Response {
    let Request::Submit { spec, .. } = request else {
        unreachable!("benches build Submit frames only")
    };
    let quick = JobSpec {
        solver: SolverSpec::Descent { max_sweeps: 4 },
        ..spec.clone()
    };
    Response::Outcome {
        outcome: quick.run(),
    }
}

fn bench_frame_codec(c: &mut Criterion) {
    let frames: Vec<(usize, Request, String, Response)> = SIZES
        .iter()
        .map(|&n| {
            let request = submit(n);
            let line = request.to_line();
            let response = outcome(&request);
            (n, request, line, response)
        })
        .collect();
    let mut group = c.benchmark_group("frame_codec");
    group.sample_size(20);
    for (n, request, line, response) in &frames {
        group.throughput(Throughput::Bytes(line.len() as u64));
        group.bench_with_input(BenchmarkId::new("submit_encode", n), request, |b, r| {
            b.iter(|| r.to_line())
        });
        group.bench_with_input(BenchmarkId::new("submit_decode", n), line, |b, l| {
            b.iter(|| Request::from_line(l).expect("a Submit line decodes"))
        });
        group.throughput(Throughput::Bytes(response.to_line().len() as u64));
        group.bench_with_input(BenchmarkId::new("outcome_encode", n), response, |b, r| {
            b.iter(|| r.to_line())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frame_codec);
criterion_main!(benches);
