//! Timing wrappers around the library's trait seams. They forward every
//! call unchanged and record when it ran, so a traced run can split wall
//! time by layer from outside the program. Spans stay in memory and are
//! reduced when the run ends.

use saim_core::{ConstrainedProblem, Evaluation, LinearConstraint};
use saim_ising::{BinaryState, IsingModel, Qubo};
use saim_machine::cluster::{BackendLink, LinkError};
use saim_machine::frontend::{Request, Response};
use saim_machine::{IsingSolver, SolveOutcome};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One `IsingSolver::solve` call.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpan {
    pub start: Instant,
    pub end: Instant,
    /// Spins in the model.
    pub n: usize,
    /// Sweeps the call reported, summed over replicas.
    pub mcs: u64,
    /// Process CPU clock at the end of the call (see [`crate::cpu`]).
    pub cpu_end: f64,
}

impl SolveSpan {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// An [`IsingSolver`] that times every `solve` of the solver it wraps.
pub struct TimedSolver<S> {
    inner: S,
    log: Rc<RefCell<Vec<SolveSpan>>>,
}

impl<S: IsingSolver> TimedSolver<S> {
    pub fn new(inner: S, log: Rc<RefCell<Vec<SolveSpan>>>) -> Self {
        TimedSolver { inner, log }
    }
}

impl<S: IsingSolver> IsingSolver for TimedSolver<S> {
    fn solve(&mut self, model: &IsingModel) -> SolveOutcome {
        let start = Instant::now();
        let out = self.inner.solve(model);
        let end = Instant::now();
        self.log.borrow_mut().push(SolveSpan {
            start,
            end,
            n: model.len(),
            mcs: out.mcs,
            cpu_end: crate::cpu::process_seconds(),
        });
        out
    }

    fn mcs_per_solve(&self, n: usize) -> u64 {
        self.inner.mcs_per_solve(n)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A [`ConstrainedProblem`] that times every `evaluate` of the problem it
/// wraps. Every other method forwards, including the density override the
/// knapsack encodings rely on for the penalty rule.
pub struct TimedProblem<'a, P: ?Sized> {
    inner: &'a P,
    log: RefCell<Vec<(Instant, Instant)>>,
}

impl<'a, P: ConstrainedProblem + ?Sized> TimedProblem<'a, P> {
    pub fn new(inner: &'a P) -> Self {
        TimedProblem {
            inner,
            log: RefCell::new(Vec::new()),
        }
    }

    pub fn spans(&self) -> Vec<(Instant, Instant)> {
        self.log.borrow().clone()
    }
}

impl<P: ConstrainedProblem + ?Sized> ConstrainedProblem for TimedProblem<'_, P> {
    fn num_vars(&self) -> usize {
        self.inner.num_vars()
    }

    fn objective(&self) -> &Qubo {
        self.inner.objective()
    }

    fn constraints(&self) -> &[LinearConstraint] {
        self.inner.constraints()
    }

    fn evaluate(&self, x: &BinaryState) -> Evaluation {
        let start = Instant::now();
        let e = self.inner.evaluate(x);
        self.log.borrow_mut().push((start, Instant::now()));
        e
    }

    fn density(&self) -> f64 {
        self.inner.density()
    }

    fn penalty_for_alpha(&self, alpha: f64) -> f64 {
        self.inner.penalty_for_alpha(alpha)
    }
}

/// The per-layer split of one SAIM run, from its solve and evaluate spans.
#[derive(Debug, Default, Clone)]
pub struct SaimSplit {
    /// `SaimRunner::run` entry to the first solve, µs.
    pub setup_us: f64,
    /// Every evaluate call, µs.
    pub evaluate_us: Vec<f64>,
    /// Solve return to the next solve call, minus evaluates, µs.
    pub ascend_us: Vec<f64>,
    /// Wall time of the whole run and the part spent in `solve`, s.
    pub wall_s: f64,
    pub solve_s: f64,
}

impl SaimSplit {
    pub fn of(
        entry: Instant,
        exit: Instant,
        solves: &[SolveSpan],
        evaluates: &[(Instant, Instant)],
    ) -> SaimSplit {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut split = SaimSplit {
            setup_us: solves.first().map_or(0.0, |s| us(s.start - entry)),
            evaluate_us: evaluates.iter().map(|(a, b)| us(*b - *a)).collect(),
            wall_s: (exit - entry).as_secs_f64(),
            solve_s: solves.iter().map(SolveSpan::secs).sum(),
            ..SaimSplit::default()
        };
        for pair in solves.windows(2) {
            let (done, next) = (pair[0].end, pair[1].start);
            let inside: f64 = evaluates
                .iter()
                .filter(|(a, b)| *a >= done && *b <= next)
                .map(|(a, b)| us(*b - *a))
                .sum();
            split.ascend_us.push(us(next - done) - inside);
        }
        split
    }
}

/// Router↔backend frames seen by one [`TimedLink`], by router job id.
#[derive(Debug, Default)]
pub struct LinkLog {
    /// `(backend, gid, spec seed, when the submit finished writing)`.
    pub submits: Vec<(usize, u64, u64, Instant)>,
    /// `(backend, gid, when Accepted arrived)`.
    pub accepted: Vec<(usize, u64, Instant)>,
    /// `(backend, gid, when Outcome arrived)`.
    pub outcomes: Vec<(usize, u64, Instant)>,
}

/// A [`BackendLink`] that timestamps submits and the frames coming back.
pub struct TimedLink {
    inner: Box<dyn BackendLink>,
    backend: usize,
    log: Arc<Mutex<LinkLog>>,
}

impl TimedLink {
    pub fn new(inner: Box<dyn BackendLink>, backend: usize, log: Arc<Mutex<LinkLog>>) -> Self {
        TimedLink {
            inner,
            backend,
            log,
        }
    }
}

impl BackendLink for TimedLink {
    fn send(&mut self, request: &Request) -> Result<(), LinkError> {
        self.inner.send(request)?;
        if let Request::Submit { spec, .. } = request {
            self.log.lock().expect("link log lock").submits.push((
                self.backend,
                spec.job,
                spec.seed,
                Instant::now(),
            ));
        }
        Ok(())
    }

    fn poll(&mut self, timeout: Duration) -> Result<Option<Response>, LinkError> {
        let response = self.inner.poll(timeout)?;
        let now = Instant::now();
        match &response {
            Some(Response::Accepted { job }) => {
                self.log
                    .lock()
                    .expect("link log lock")
                    .accepted
                    .push((self.backend, *job, now));
            }
            Some(Response::Outcome { outcome }) => {
                self.log.lock().expect("link log lock").outcomes.push((
                    self.backend,
                    outcome.job,
                    now,
                ));
            }
            _ => {}
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_charges_gaps_between_solves_to_ascent() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let solves = [
            SolveSpan {
                start: at(100),
                end: at(1100),
                n: 10,
                mcs: 1000,
                cpu_end: 0.0,
            },
            SolveSpan {
                start: at(1300),
                end: at(2300),
                n: 10,
                mcs: 1000,
                cpu_end: 0.0,
            },
        ];
        let evaluates = [(at(1120), at(1170)), (at(2320), at(2370))];
        let split = SaimSplit::of(t0, at(2500), &solves, &evaluates);
        assert!((split.setup_us - 100.0).abs() < 1e-6);
        assert_eq!(split.ascend_us.len(), 1);
        assert!((split.ascend_us[0] - 150.0).abs() < 1e-6);
        assert!((split.solve_s - 0.002).abs() < 1e-9);
        assert!((split.wall_s - 0.0025).abs() < 1e-9);
    }
}
