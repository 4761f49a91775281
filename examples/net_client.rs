//! A network client session against the NDJSON job server: connect,
//! submit with deadline and priority, ride out an overloaded fleet with
//! deterministic jittered backoff, and stream the results.
//!
//! ```text
//! cargo run --release --example net_client
//! ```
//!
//! The example is self-contained: it boots the same `Frontend` the
//! `saim-server` binary serves, on an OS-assigned loopback port, then
//! talks to it exclusively through the TCP wire — every line on the
//! socket is a frame you could also type into `saim-server --stdio`.
//! Shown in order:
//!
//! 1. **connect + hello** — open the NDJSON session and declare a
//!    fair-share weight;
//! 2. **submit → stream** — queue a batch of QKP jobs with priorities
//!    and per-job deadlines, then read acceptances and outcomes off the
//!    ordered response stream;
//! 3. **overload + backoff** — against a deliberately tiny admission
//!    budget, `submit_retrying` absorbs the typed `overloaded` sheds with
//!    seeded exponential backoff until the fleet has room;
//! 4. **typed rejection** — a malformed line earns a machine-readable
//!    rejection code instead of a dropped connection.

use saim_core::ConstrainedProblem;
use saim_knapsack::generate;
use saim_machine::frontend::{Backoff, Frontend, FrontendConfig, NdjsonClient, Request, Response};
use saim_machine::service::{JobSpec, SolverSpec};
use saim_machine::{derive_seed, BetaSchedule, Dynamics, EnsembleConfig};
use std::error::Error;
use std::net::TcpListener;

fn main() -> Result<(), Box<dyn Error>> {
    // ---- a server fleet on a loopback port (stands in for saim-server) --
    let frontend = Frontend::start(FrontendConfig {
        workers: 2,
        max_queued: 2, // small on purpose: step 3 overloads it
        ..FrontendConfig::default()
    });
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    frontend.serve(listener);
    println!("server: {} workers on {addr}", frontend.workers());

    // ---- 1. connect + hello --------------------------------------------
    let mut client = NdjsonClient::connect(&addr)?;
    client.send(&Request::Hello { weight: 2 })?;

    // ---- 2. submit a batch with priorities and deadlines ---------------
    let solver = SolverSpec::Ensemble(EnsembleConfig {
        replicas: 3,
        threads: 1,
        schedule: BetaSchedule::linear(8.0),
        mcs_per_run: 300,
        dynamics: Dynamics::Gibbs,
    });
    let mut backoff = Backoff::new(7, 10, 500);
    let jobs = 6u64;
    let mut done = 0u64;
    let print_outcome = |outcome: &saim_machine::service::JobOutcome| {
        println!(
            "job {:>2} done: E = {:>8.2}  ({} MCS)",
            outcome.job, outcome.best_energy, outcome.mcs
        );
    };
    for job in 0..jobs {
        let instance = generate::qkp(24 + 4 * job as usize, 0.5, 60 + job)?;
        let encoded = instance.encode()?;
        let qubo = saim_core::penalty_qubo(&encoded, encoded.penalty_for_alpha(2.0))?;
        let spec = JobSpec::new(job, qubo, solver.clone(), derive_seed(9, job))
            .with_instance_digest(instance.digest());
        // odd jobs are urgent: higher priority band, 30-second deadline
        let (priority, deadline_ms) = if job % 2 == 1 {
            (2, Some(30_000))
        } else {
            (0, None)
        };
        // ---- 3. the admission budget is 2, so the tail of the batch is
        // shed with typed `overloaded` hints; backoff rides them out -----
        // earlier jobs' outcomes owed on the ordered stream may arrive
        // before this submit's acceptance — count them as they pass
        let mut response =
            client.submit_retrying(&spec, priority, deadline_ms, &mut backoff, 64)?;
        loop {
            match response {
                Response::Accepted { job } => {
                    println!("accepted job {job}");
                    break;
                }
                Response::Outcome { ref outcome } => {
                    print_outcome(outcome);
                    done += 1;
                    response = client.recv()?;
                }
                other => {
                    println!("unexpected frame: {other:?}");
                    break;
                }
            }
        }
        backoff.reset(); // next job starts its backoff schedule fresh
    }

    // ---- stream the remaining outcomes ---------------------------------
    while done < jobs {
        if let Response::Outcome { outcome } = client.recv()? {
            print_outcome(&outcome);
            done += 1;
        }
    }

    // ---- 4. malformed frames earn typed rejections ---------------------
    client.send_raw(b"{\"schema\":3,\"frame\":\"teleport\"}\n")?;
    if let Response::Rejected { code, error } = client.recv()? {
        println!("rejected as expected: code={code} ({error})");
    }

    let fleet = frontend.fleet_stats();
    println!(
        "fleet: {} accepted, {} completed, {} shed while overloaded",
        fleet.accepted, fleet.completed, fleet.rejected
    );
    Ok(())
}
