use crate::bracket::gibbs_decision;
use crate::rng::{NoiseSource, SweepNoise};
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use saim_ising::{Couplings, IsingModel, Spin, SpinState};

/// Beyond this drive, `tanh(x)` rounds to exactly `±1.0` in `f64`
/// (`2e^{-2x} < 2^{-53}` ulp), and `sign(±1 + u)` with `u ∈ [-1, 1)` is the
/// sign of the saturated activation for every drawable `u` — the update is
/// deterministic, so both the tanh and the noise draw are skipped. This is
/// exact, not approximate: cold sweeps (large `β·I`) cost a compare instead
/// of a transcendental plus an RNG advance.
const SATURATION: f64 = 20.0;

/// Relative pad (`1 + 2⁻¹⁶`) on the per-spin saturation classification: a
/// spin counts as *never-saturating* at β only when `β · D_i · CLASS_PAD`
/// stays below [`SATURATION`], where `D_i = |h_i| + Σ_j |J_ij|` bounds the
/// true local field ([`IsingModel::drive_bounds`]).
///
/// The pad is what makes dropping the per-update saturation compares sound:
/// the incrementally-maintained field can exceed the real bound only by
/// accumulated rounding — about one part in 2⁵² per neighbour flip — so the
/// classification would need on the order of 2³⁶ flips *of one spin's
/// neighbours between resyncs* to be breached, far beyond any realizable
/// run. The oracle replay proptests and the determinism suites pin the
/// contract empirically.
const CLASS_PAD: f64 = 1.0 + 1.0 / (1u64 << 16) as f64;

/// Upward pad on the settled-filter thresholds: `field · spin ≥
/// (SATURATION / β) · SETTLE_PAD_UP` *certifies* `β · field · spin ≥
/// SATURATION` despite the rounding of the division and the final multiply
/// (the products themselves are exact — spin is ±1.0) — so a spin passing
/// the settled test provably takes the old kernel's deterministic
/// short-circuit with no flip and no draw, independent of any
/// classification. Division rounding can only make the filter
/// conservative: a settled spin that fails it merely pays the exact
/// compares.
const SETTLE_PAD_UP: f64 = 1.0 + 16.0 * f64::EPSILON;

/// The settled list is kept only while at most `n / ACTIVE_DIV` spins are
/// unsettled — beyond that the masked visit approaches a full scan and the
/// bookkeeping is pure overhead.
const ACTIVE_DIV: usize = 8;

/// Multiplicative pad on the per-flip slack charge `2 · max_j |J_ij|`,
/// covering the (exact-in-theory) product's headroom with margin to spare.
const CHARGE_PAD: f64 = 1.0 + 1e-9;

/// Absolute per-flip pad, in units of the model's global field bound:
/// one field update `f += J · ±2` rounds by at most
/// `ε · (|f| + 2 max|J|) ≈ 2.2e-16 · field_bound`, and the rebuild's margin
/// subtraction rounds once by the same order — `1e-12 · field_bound` per
/// flip dominates both by four orders of magnitude.
const CHARGE_ABS: f64 = 1e-12;

/// Target lifetime, in worst-case flips, of a freshly rebuilt settled list.
///
/// A list of *only* the unsettled spins can be worthless: on quenched
/// knapsack models the binary-weighted slack bits leave a few settled
/// spins barely over threshold, so the budget (the smallest out-of-list
/// margin) dies after one flip and the machine thrashes between masked
/// visits, fallback scans, and rebuilds. The rebuild therefore absorbs
/// near-threshold *settled* spins into the list too, widening the guard
/// band until the out-of-list margin would survive `GUARD_HORIZON`
/// worst-case flips. The band is auto-tuned by trying geometric rungs
/// `L, L/4, L/16, L/64` (with `L = GUARD_HORIZON · c_max`, `c_max` the
/// largest per-flip charge among unsettled spins) and keeping the widest
/// rung whose list still fits `n / ACTIVE_DIV`; typical flips charge far
/// less than `c_max`, so accepted budgets usually last much longer than
/// the nominal horizon.
const GUARD_HORIZON: f64 = 64.0;

/// A settled list must survive this many masked sweeps to pay for its
/// rebuild scan; a list that dies younger puts the machine on rebuild
/// cooldown instead of rebuilding straight away.
const MIN_LIST_AGE: u32 = 8;

/// Full sweeps the machine waits after a short-lived list or an abandoned
/// rebuild before trying another one at the same β. Hot regimes flip
/// spins faster than any slack budget survives; without this back-off
/// they would pay a masked visit, a fallback scan, *and* a rebuild every
/// sweep — slower than never masking at all. A β change ends the back-off:
/// it was earned in another regime.
const REBUILD_COOLDOWN: u32 = 256;

/// The settle threshold of a Gibbs sweep at `beta`: `field · spin ≥
/// settle` certifies saturated *and* aligned (see [`SETTLE_PAD_UP`]);
/// β = 0 maps to +∞ (nothing settles).
fn settle_threshold(beta: f64) -> f64 {
    if beta > 0.0 {
        (SATURATION / beta) * SETTLE_PAD_UP
    } else {
        f64::INFINITY
    }
}

/// Plain-data image of a [`PbitMachine`]'s books — exact field and energy
/// values included — used by the checkpoint layer. The fields must be the
/// *incrementally maintained* values, not a recompute (see
/// [`PbitMachine::from_snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MachineSnapshot {
    /// Spin values (±1) in index order.
    pub spins: Vec<i8>,
    /// Incrementally-maintained local fields, exact.
    pub fields: Vec<f64>,
    /// Incrementally-maintained energy, exact.
    pub energy: f64,
    /// Lifetime flip counter.
    pub flips: u64,
}

/// The settled-set candidate list of a [`PbitMachine`] (see the type docs'
/// settled-set section). Derived data only: it never changes a decision,
/// so it is not part of a [`MachineSnapshot`].
#[derive(Debug, Clone)]
struct SettledList {
    /// Ascending indices of every spin not certified settled by the budget.
    active: Vec<u32>,
    /// The settle threshold the list certifies against; `NaN` marks the
    /// list dead (compared bitwise, so a β change of any size misses).
    settle: f64,
    /// Remaining slack budget: the smallest out-of-list margin at the last
    /// rebuild minus the rounding pad, minus a charge for every flip since.
    slack: f64,
    /// The settle threshold of the previous Gibbs sweep (`NaN` after any
    /// uncharged book change): rebuilds only trigger while β holds across
    /// consecutive sweeps, so annealed schedules never pay the rebuild scan.
    last_settle: f64,
    /// Masked sweeps the current list has survived.
    age: u32,
    /// Full sweeps at `last_settle` left before another rebuild may be
    /// tried.
    cooldown: u32,
    /// Per-spin flip charge `2 · max_j |J_ij| · CHARGE_PAD + pad`; empty
    /// until the first rebuild after a book recompute.
    charges: Vec<f64>,
    /// `CHARGE_ABS · max_i D_i`, the absolute rounding pad of a charge.
    pad: f64,
}

impl SettledList {
    fn new() -> Self {
        SettledList {
            active: Vec::new(),
            settle: f64::NAN,
            slack: 0.0,
            last_settle: f64::NAN,
            age: 0,
            cooldown: 0,
            charges: Vec::new(),
            pad: 0.0,
        }
    }

    /// Drops the list's certificate after a book change its budget did not
    /// charge; the next rebuild waits for two sweeps at one β again.
    fn kill(&mut self) {
        self.settle = f64::NAN;
        self.last_settle = f64::NAN;
    }
}

/// A network of probabilistic bits emulating a p-computer in software.
///
/// Each p-bit holds a spin `m_i = ±1`, reads its input
/// `I_i = Σ_j J_ij m_j + h_i` (paper eq. 9) and updates as
/// `m_i = sign(tanh(β I_i) + U(-1,1))` (paper eq. 10). Sequentially updating
/// every p-bit once — [`PbitMachine::sweep`] — is one Monte Carlo sweep (MCS)
/// of Gibbs sampling for `P(m) ∝ exp(-β H(m))` (paper eq. 11).
///
/// The machine keeps the local-field vector and the model energy current
/// incrementally: a flip of spin `j` shifts every `I_i` by `2 J_ij m_j`,
/// which costs one row scan instead of the full `O(n²)` recompute.
///
/// # The three-tier decision kernel
///
/// Every Gibbs update resolves `m_i = sign(tanh(β I_i) + u)` through three
/// tiers of increasing cost, each bit-identical to the exact rule:
///
/// 1. **Settled scan + per-spin saturation classification.** A blocked
///    scan skips whole runs of spins whose `field · spin` clears the
///    padded `SATURATION / β` threshold — each is certifiably saturated
///    *and* aligned, so the exact rule would keep it with no draw. For the
///    few spins the scan leaves undecided, the per-spin drive bounds
///    `D_i = |h_i| + Σ_j |J_ij|` ([`IsingModel::drive_bounds`], cached
///    with the books) classify on demand whether the spin can reach
///    `|β I_i| ≥ 20` at all: spins that can *never* saturate at this β —
///    the weakly-coupled slack bits that dominate hot-regime knapsack
///    sweeps — skip the saturation compares entirely (see `CLASS_PAD` for
///    why dropping them is sound). The classification is a pure two-multiply
///    test of the precomputed bound, so a β that changes every sweep (any
///    annealing schedule) costs no reclassification pass.
/// 2. **Saturation short-circuit** (maybe-saturating spins only): a drive
///    past `±20` — where `tanh` rounds to exactly `±1.0` — decides without
///    `tanh` or a draw; the deep-quench fast path.
/// 3. **Certified tanh bracket** ([`crate::bracket`]): one `U(-1, 1)` word
///    is drawn, then cheap polynomial/rational bounds `lo ≤ tanh ≤ hi` (no
///    `libm` call) decide the sign whenever `u` falls outside `[-hi, -lo)`;
///    only the residual sliver (well under 1% of hot-regime draws)
///    computes the exact `tanh`.
///
/// **RNG-consumption contract:** tier 3 consumes exactly one `u64` from the
/// stream per update, whether the bracket or the exact `tanh` decides;
/// tiers 1–2 consume nothing, exactly like the pre-bracket kernel. The
/// trajectory is therefore bit-identical to
/// [`PbitMachine::sweep_exact_oracle`] — the retained exact-`tanh`
/// reference kernel — for every seed, schedule and thread count, as the
/// oracle replay proptests and `tests/determinism.rs` assert.
///
/// # The settled-set list
///
/// A machine held at one β — a constant schedule, a parallel-tempering
/// ladder slot, a deep quench — re-certifies nearly every spin every
/// sweep. Once a full scan finds at least `n − n/8` spins settled at the
/// same threshold as the sweep before, the machine rebuilds a *candidate
/// list*: the ascending indices of every spin not provably settled, tagged
/// with the threshold `θ` it certifies and a *slack budget* `b`. While the
/// tag matches and `b > 0`, a sweep visits only the list.
///
/// **Why skipping is exact.** At a rebuild every out-of-list spin `i` has
/// margin `μ_i = I_i s_i − θ` of at least `b + pad`. Out-of-list spins
/// are settled, so they never flip; a flip of a listed spin `j` moves any
/// other field by `|2 J_ij| ≤ 2 max_k |J_jk|`, and the budget is charged
/// `2 max_k |J_jk| · CHARGE_PAD + pad` for it, the pads covering every
/// rounding of the field update and the margin subtraction. So
/// `μ_i − b` never shrinks, every out-of-list margin stays above a
/// positive budget, and each skipped spin would have passed the settled
/// test — a no-draw, no-flip keep in the full scan. The masked visit
/// re-tests each candidate's certificate in ascending order and decides it
/// through the same three tiers, so states, fields, draws and flip counts
/// replay the full scan bit for bit. If a flip exhausts the budget mid
/// sweep, the spins after it lose their certificate: the sweep finishes as
/// a full scan from the next spin and the list dies.
///
/// **Who kills the tag.** A sweep at another β misses the tag, and its
/// full scan flips spins without charging the budget, so it drops the
/// list. Every other book change the budget does not charge drops it too:
/// [`PbitMachine::resync`], [`PbitMachine::randomize`],
/// [`PbitMachine::reset_to`], a snapshot restore, and the Metropolis,
/// greedy and exact-oracle sweeps.
///
/// **What it costs.** The per-spin charges are computed on the first
/// rebuild after a book recompute, so an annealed run — whose β changes
/// every sweep and which therefore never rebuilds — pays one compare per
/// sweep. A rebuild absorbs near-threshold settled spins into the list
/// ([`GUARD_HORIZON`]), and short-lived lists back off for
/// [`REBUILD_COOLDOWN`] sweeps at their β ([`MIN_LIST_AGE`]) so hot
/// regimes do not thrash.
///
/// ```
/// use saim_ising::{QuboBuilder, IsingModel};
/// use saim_machine::{new_rng, PbitMachine};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = QuboBuilder::new(3);
/// b.add_linear(0, -1.0)?;
/// let model = b.build().to_ising();
/// let mut rng = new_rng(1);
/// let mut machine = PbitMachine::new(&model, &mut rng);
/// for _ in 0..50 {
///     machine.sweep(&model, 4.0, &mut rng);
/// }
/// // Strong negative field on x0's spin drives it up at low temperature.
/// assert_eq!(machine.state().value(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PbitMachine {
    state: SpinState,
    /// `±1.0` mirror of `state`: the sweep hot path works on floats so the
    /// local-field updates and dot products never convert `i8 → f64`.
    spins_f: Vec<f64>,
    local_fields: Vec<f64>,
    energy: f64,
    flips: u64,
    /// Per-spin drive bounds `D_i` (tier 1 of the decision kernel),
    /// refreshed lazily after a book recompute so solvers that never take a
    /// Gibbs sweep (greedy descent, Metropolis) don't pay for them. Spin
    /// `i`'s classification at any β is the pure test
    /// `β · D_i · CLASS_PAD ≥ SATURATION`, evaluated on demand for the few
    /// spins the settled scan leaves undecided — so a changing β (every
    /// annealing schedule) costs no per-spin reclassification pass.
    drive_bounds: Vec<f64>,
    /// Whether `drive_bounds` must be recomputed from the model before the
    /// next classification.
    bounds_stale: bool,
    /// The settled-set candidate list (see the type docs).
    settled: SettledList,
}

impl PbitMachine {
    /// Creates a machine with a uniformly random initial state.
    pub fn new(model: &IsingModel, rng: &mut ChaCha8Rng) -> Self {
        let state: SpinState = (0..model.len())
            .map(|_| {
                if rng.gen::<bool>() {
                    Spin::Up
                } else {
                    Spin::Down
                }
            })
            .collect();
        Self::with_state(model, state)
    }

    /// Creates a machine starting from a given spin configuration.
    ///
    /// Initialization performs exactly one field resync (O(n²) dense,
    /// O(nnz) sparse); to re-anneal an existing machine without fresh
    /// allocations use [`PbitMachine::randomize`] or
    /// [`PbitMachine::reset_to`] instead of constructing a new one.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != model.len()`.
    pub fn with_state(model: &IsingModel, state: SpinState) -> Self {
        assert_eq!(state.len(), model.len(), "state length mismatch");
        let spins_f: Vec<f64> = state.values().iter().map(|&v| f64::from(v)).collect();
        let mut machine = PbitMachine {
            state,
            spins_f,
            local_fields: vec![0.0; model.len()],
            energy: 0.0,
            flips: 0,
            drive_bounds: vec![0.0; model.len()],
            bounds_stale: true,
            settled: SettledList::new(),
        };
        machine.recompute_books(model);
        machine
    }

    /// Reuses the machine in `slot` for a fresh uniformly-random run of
    /// `model` — re-randomizing in place when the size matches (no
    /// allocation), constructing anew otherwise — and returns it.
    ///
    /// This is the shared re-anneal entry point of the restart-based
    /// solvers ([`SimulatedAnnealing`](crate::SimulatedAnnealing),
    /// [`GreedyDescent`](crate::GreedyDescent)), so the reuse rule lives in
    /// one place. Either path draws exactly `model.len()` coin flips from
    /// `rng` and performs exactly one field resync.
    pub fn obtain_randomized<'a>(
        slot: &'a mut Option<PbitMachine>,
        model: &IsingModel,
        rng: &mut ChaCha8Rng,
    ) -> &'a mut PbitMachine {
        match slot {
            Some(m) if m.state().len() == model.len() => m.randomize(model, rng),
            _ => *slot = Some(PbitMachine::new(model, rng)),
        }
        slot.as_mut().expect("just set")
    }

    /// Whether the settled list is live — a read-only view for the
    /// engines' unit tests, which cannot see the list itself.
    #[cfg(test)]
    pub(crate) fn settled_list_is_live(&self) -> bool {
        self.settled.settle.is_finite()
    }

    /// Captures the machine's books exactly — spins, incrementally
    /// maintained local fields and energy, and the flip counter — for the
    /// checkpoint layer.
    pub(crate) fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            spins: self.state.values().to_vec(),
            fields: self.local_fields.clone(),
            energy: self.energy,
            flips: self.flips,
        }
    }

    /// Rebuilds a machine from a [`PbitMachine::snapshot`] **without a field
    /// resync**: the stored fields and energy are installed verbatim.
    ///
    /// This is deliberate. [`PbitMachine::with_state`] recomputes the books
    /// from the model, but a recomputed field is summed in a different
    /// association order than the incrementally-maintained one and so is not
    /// bit-identical to it; resuming through a resync would fork the
    /// trajectory from the uninterrupted run. Drive bounds and the settled
    /// list are derived data: the bounds are lazily recomputed on the first
    /// sweep, and the list starts dead.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's length does not match `model.len()` (the
    /// checkpoint loader validates sizes before calling this).
    pub(crate) fn from_snapshot(model: &IsingModel, snap: &MachineSnapshot) -> Self {
        assert_eq!(snap.spins.len(), model.len(), "snapshot length mismatch");
        assert_eq!(snap.fields.len(), model.len(), "snapshot field mismatch");
        let state = SpinState::from_values(&snap.spins);
        let spins_f: Vec<f64> = state.values().iter().map(|&v| f64::from(v)).collect();
        PbitMachine {
            state,
            spins_f,
            local_fields: snap.fields.clone(),
            energy: snap.energy,
            flips: snap.flips,
            drive_bounds: vec![0.0; model.len()],
            bounds_stale: true,
            settled: SettledList::new(),
        }
    }

    /// Re-initializes the machine in place from `state`, reusing every
    /// internal buffer — the re-anneal path: no allocation when the size is
    /// unchanged, and exactly one field resync.
    ///
    /// # Panics
    ///
    /// Panics if `state.len() != model.len()`.
    pub fn reset_to(&mut self, model: &IsingModel, state: &SpinState) {
        assert_eq!(state.len(), model.len(), "state length mismatch");
        if self.state.len() == state.len() {
            self.state.copy_from(state);
        } else {
            self.state = state.clone();
            self.spins_f.resize(state.len(), 0.0);
            self.local_fields.resize(state.len(), 0.0);
            self.drive_bounds.resize(state.len(), 0.0);
        }
        for (s, &v) in self.spins_f.iter_mut().zip(state.values()) {
            *s = f64::from(v);
        }
        self.recompute_books(model);
    }

    /// Rebuilds the local fields (O(N²) on dense models, O(nnz) on sparse
    /// ones) and then the energy in O(N) via
    /// [`PbitMachine::energy_from_fields`].
    ///
    /// Also invalidates the cached drive bounds, the settled list and its
    /// per-spin charges: every book recompute may follow a model change (a
    /// SAIM λ-resync, or machine reuse on a different model of the same
    /// size), and the bounds depend on `|h|` and `|J|`. Invalidation is
    /// O(1); the charges are recomputed only if a list is rebuilt.
    fn recompute_books(&mut self, model: &IsingModel) {
        let couplings = model.couplings();
        for (i, (field, &h)) in self.local_fields.iter_mut().zip(model.fields()).enumerate() {
            *field = couplings.row_dot_f64(i, &self.spins_f) + h;
        }
        self.energy = self.energy_from_fields(model);
        self.bounds_stale = true;
        self.settled.kill();
        self.settled.charges.clear();
    }

    /// Refreshes the per-spin drive bounds (lazily, only after a book
    /// recompute) — tier 1 of the decision kernel. One abs-sum row pass per
    /// spin (O(N²) dense / O(nnz) sparse), the same cost as the field
    /// resync that staled them.
    fn ensure_drive_bounds(&mut self, model: &IsingModel) {
        if self.bounds_stale {
            let couplings = model.couplings();
            for (i, (d, &h)) in self.drive_bounds.iter_mut().zip(model.fields()).enumerate() {
                *d = h.abs() + couplings.row_abs_sum(i);
            }
            self.bounds_stale = false;
        }
    }

    /// The model energy recomputed in O(N) from the incrementally-maintained
    /// local fields:
    ///
    /// ```text
    /// H = offset − ½ Σ_i s_i (I_i + h_i)
    /// ```
    ///
    /// (since `I_i = Σ_j J_ij s_j + h_i`, the pair term is
    /// `½ Σ_i s_i (I_i − h_i)`). This replaces the O(N²) `model.energy`
    /// recompute everywhere the machine already holds current fields — the
    /// SAIM λ-resync path in particular.
    pub fn energy_from_fields(&self, model: &IsingModel) -> f64 {
        let mut acc = 0.0;
        for ((&s, &f), &h) in self
            .spins_f
            .iter()
            .zip(&self.local_fields)
            .zip(model.fields())
        {
            acc += s * (f + h);
        }
        model.offset() - 0.5 * acc
    }

    /// The current spin configuration.
    pub fn state(&self) -> &SpinState {
        &self.state
    }

    /// The current model energy `H(m)`, maintained incrementally.
    pub fn energy(&self) -> f64 {
        self.energy
    }

    /// Total number of spin flips performed so far.
    pub fn flips(&self) -> u64 {
        self.flips
    }

    /// The current local field `I_i` of p-bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn local_field(&self, i: usize) -> f64 {
        self.local_fields[i]
    }

    /// Re-reads fields and energy from the model.
    ///
    /// Call after the model's linear part changed (SAIM's λ update) while
    /// keeping the spin state.
    pub fn resync(&mut self, model: &IsingModel) {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.recompute_books(model);
    }

    /// Re-randomizes the spin state uniformly (the start of a fresh SA run).
    ///
    /// Reuses every internal buffer and performs exactly one field resync —
    /// re-annealing allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn randomize(&mut self, model: &IsingModel, rng: &mut ChaCha8Rng) {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        for i in 0..self.state.len() {
            let spin = if rng.gen::<bool>() {
                Spin::Up
            } else {
                Spin::Down
            };
            self.state.set(i, spin);
            self.spins_f[i] = f64::from(spin.value());
        }
        self.recompute_books(model);
    }

    #[inline]
    fn apply_flip(&mut self, model: &IsingModel, i: usize) {
        let old = self.spins_f[i];
        // ΔH for flipping spin i is 2 s_i I_i
        self.energy += 2.0 * old * self.local_fields[i];
        self.state.flip(i);
        self.spins_f[i] = -old;
        let delta = -2.0 * old; // new - old spin value
        match model.couplings() {
            // a plain zip loop the compiler auto-vectorizes (an A/B against
            // a manually 8-blocked version measured no slower — the pass is
            // memory-bound); elementwise, so bit-identical to any blocking
            Couplings::Dense(m) => {
                for (f, &jij) in self.local_fields.iter_mut().zip(m.row(i)) {
                    *f += jij * delta;
                }
            }
            // sparse fast path: only actual neighbours shift (Qubo::to_ising
            // stores low-density models as CSR for exactly this loop)
            Couplings::Sparse(m) => {
                for (j, jij) in m.row_iter(i) {
                    self.local_fields[j] += jij * delta;
                }
            }
        }
        self.flips += 1;
    }

    /// One Monte Carlo sweep: sequentially updates every p-bit at inverse
    /// temperature `beta` with the stochastic rule of paper eq. 10.
    ///
    /// Noise is drawn per decision from `rng`; the annealers' hot paths use
    /// [`PbitMachine::sweep_buffered`], which consumes the same stream in
    /// blocks and replays this method bit-for-bit (see
    /// [`NoiseSource`](crate::NoiseSource) for the draw-order contract).
    ///
    /// Returns the number of spins that changed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn sweep(&mut self, model: &IsingModel, beta: f64, rng: &mut ChaCha8Rng) -> usize {
        self.sweep_with(model, beta, rng)
    }

    /// [`PbitMachine::sweep`] drawing its noise from a block-buffered
    /// [`NoiseSource`] — one buffer load per undecided spin instead of a
    /// generator round trip. Bit-identical to the per-decision path on the
    /// same stream.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn sweep_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.sweep_with(model, beta, noise)
    }

    /// One Gibbs sweep: the masked visit of the settled list when the list
    /// is live at this β, the full scan otherwise (see the type docs).
    fn sweep_with<N: SweepNoise>(&mut self, model: &IsingModel, beta: f64, noise: &mut N) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.ensure_drive_bounds(model);
        let settle = settle_threshold(beta);
        let changed =
            if self.settled.slack > 0.0 && self.settled.settle.to_bits() == settle.to_bits() {
                self.settled.age = self.settled.age.saturating_add(1);
                self.masked_sweep(model, beta, settle, noise)
            } else {
                // this scan can flip any spin without charging the budget, so a
                // list built under an earlier β is stale the moment it runs
                self.settled.settle = f64::NAN;
                let (changed, settled) = self.scan_from(model, beta, settle, 0, noise);
                let n = self.state.len();
                let list = &mut self.settled;
                if list.last_settle.to_bits() != settle.to_bits() {
                    // a new β is a new regime: a back-off earned at the old
                    // one (say, by a machine an exchange moved here) is void
                    list.cooldown = 0;
                } else if list.cooldown > 0 {
                    list.cooldown -= 1;
                } else if n > 0 && settled >= n - n / ACTIVE_DIV && settle.is_finite() {
                    // quenched and β held for two sweeps: one predicate scan
                    // buys skipping the full scan from the next sweep on
                    self.rebuild_settled(model, settle);
                }
                changed
            };
        self.settled.last_settle = settle;
        changed
    }

    /// The three-tier decision for an unsettled spin `i` with field `f`
    /// (see the type docs): spins whose precomputed drive bound can reach
    /// saturation at this β run the exact compares; never-saturating spins
    /// — the hot regime's majority — go straight to the drawn bracket
    /// decision. Both replay the exact kernel bit-for-bit.
    #[inline(always)]
    fn gibbs_up<N: SweepNoise>(&self, i: usize, beta: f64, f: f64, noise: &mut N) -> bool {
        let drive = beta * f;
        if beta * self.drive_bounds[i] * CLASS_PAD >= SATURATION {
            if drive >= SATURATION {
                return true;
            } else if drive <= -SATURATION {
                return false;
            }
        }
        gibbs_decision(drive, noise.noise_symmetric())
    }

    /// The full Gibbs scan over spins `start..n`. Returns the number of
    /// spins that changed and the number that passed the settled test.
    fn scan_from<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        settle: f64,
        start: usize,
        noise: &mut N,
    ) -> (usize, usize) {
        let n = self.state.len();
        let mut changed = 0;
        let mut settled = 0;
        let mut i = start;
        while i < n {
            // Settled scan: a whole run of settled spins — for each of
            // which the old kernel would decide "keep, no draw" — is
            // skipped with one blocked multiply-compare per spin
            // ([`settled_run`]). Never-saturating spins can never pass the
            // test (their field bound sits below `SATURATION / β`), so
            // they always stop the scan.
            let run = settled_run(&self.local_fields[i..n], &self.spins_f[i..n], settle);
            settled += run;
            i += run;
            // Then a run of *unsettled* spins — the hot knapsack slack bits
            // sit on consecutive indices, so deciding them in one tight
            // loop (one settled re-test per spin, fields re-read after any
            // flip) avoids re-entering the scan per decision.
            while i < n {
                let f = self.local_fields[i];
                if f * self.spins_f[i] >= settle {
                    break;
                }
                if self.gibbs_up(i, beta, f, noise) != (self.spins_f[i] > 0.0) {
                    self.apply_flip(model, i);
                    changed += 1;
                }
                i += 1;
            }
        }
        (changed, settled)
    }

    /// The masked Gibbs visit: only the listed candidates are tested, each
    /// re-testing the exact certificate in ascending order, so it replays
    /// the full scan bit-for-bit (type docs). Every flip charges the slack
    /// budget; if the budget runs out mid-sweep the sweep finishes as a
    /// full scan from the next spin and the list dies — rebuilt at once if
    /// it paid for itself, otherwise after a cooldown.
    fn masked_sweep<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        settle: f64,
        noise: &mut N,
    ) -> usize {
        let mut changed = 0;
        for k in 0..self.settled.active.len() {
            let i = self.settled.active[k] as usize;
            let f = self.local_fields[i];
            if f * self.spins_f[i] >= settle
                || self.gibbs_up(i, beta, f, noise) == (self.spins_f[i] > 0.0)
            {
                continue;
            }
            self.apply_flip(model, i);
            changed += 1;
            self.settled.slack -= self.settled.charges[i];
            if self.settled.slack <= 0.0 {
                self.settled.settle = f64::NAN;
                changed += self.scan_from(model, beta, settle, i + 1, noise).0;
                if self.settled.age >= MIN_LIST_AGE {
                    self.rebuild_settled(model, settle);
                } else {
                    // died young: this regime flips too fast for any budget
                    self.settled.cooldown = REBUILD_COOLDOWN;
                }
                break;
            }
        }
        changed
    }

    /// Rebuilds the settled list against `settle` (type docs).
    ///
    /// Every unsettled spin must join the list, but listing *only* them
    /// seeds the budget with the raw minimum settled margin, which can be
    /// one flip deep (see [`GUARD_HORIZON`]). So the rebuild also pulls
    /// near-threshold settled spins in: it measures every spin's margin
    /// `f·s − settle` (negative ⇔ unsettled), then widens a guard band over
    /// geometric rungs `L, L/4, L/16, L/64` — `L` sized for
    /// [`GUARD_HORIZON`] worst-case flips — keeping the widest band whose
    /// list fits `n / ACTIVE_DIV`. Out-of-list spins all clear the band, so
    /// the budget starts at the first margin *beyond* it. Abandons the list
    /// (and cools down) if the unsettled spins alone overflow the cap or no
    /// budget survives the rounding pad.
    fn rebuild_settled(&mut self, model: &IsingModel, settle: f64) {
        let n = self.state.len();
        let cap = n / ACTIVE_DIV + 1;
        let list = &mut self.settled;
        list.settle = f64::NAN;
        list.cooldown = REBUILD_COOLDOWN;
        if list.charges.len() != n {
            let couplings = model.couplings();
            let field_bound = self.drive_bounds.iter().fold(0.0_f64, |a, &b| a.max(b));
            list.pad = field_bound * CHARGE_ABS;
            list.charges = (0..n)
                .map(|i| 2.0 * couplings.row_max_abs(i) * CHARGE_PAD + list.pad)
                .collect();
        }

        // pass 1: margins for every spin, plus the worst per-flip charge
        // among the unsettled (the only spins guaranteed into the list)
        let mut margins = vec![0.0_f64; n];
        let mut unsettled = 0usize;
        let mut c_max = 0.0_f64;
        for (i, margin) in margins.iter_mut().enumerate() {
            *margin = self.local_fields[i] * self.spins_f[i] - settle;
            if *margin < 0.0 {
                unsettled += 1;
                c_max = c_max.max(list.charges[i]);
            }
        }
        if unsettled > cap {
            return;
        }

        // pass 2: widest guard band whose candidate list fits the cap
        let top = GUARD_HORIZON * c_max;
        for rung in [top, top / 4.0, top / 16.0, top / 64.0] {
            list.active.clear();
            let mut out_min = f64::INFINITY;
            let mut fits = true;
            for (i, &m) in margins.iter().enumerate() {
                if m >= rung {
                    out_min = out_min.min(m);
                } else if list.active.len() < cap {
                    list.active.push(i as u32);
                } else {
                    fits = false;
                    break;
                }
            }
            if fits {
                // lower rungs only shrink out_min, so accept or abandon here
                let slack = out_min - list.pad;
                if slack > 0.0 {
                    list.slack = slack;
                    list.settle = settle;
                    list.age = 0;
                    list.cooldown = 0;
                }
                return;
            }
        }
    }

    /// The pre-bracket reference Gibbs sweep: exact `tanh` plus one noise
    /// draw on every unsaturated spin, one global saturation short-circuit —
    /// the kernel [`PbitMachine::sweep`] replaced and must replay
    /// bit-for-bit. It keeps no settled list.
    ///
    /// Kept as the **oracle** for the bracket-kernel replay proptests and
    /// as the exact-tanh baseline of the hot-regime benches; never called
    /// by production paths.
    #[doc(hidden)]
    pub fn sweep_exact_oracle(
        &mut self,
        model: &IsingModel,
        beta: f64,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        self.sweep_exact_with(model, beta, rng)
    }

    /// [`PbitMachine::sweep_exact_oracle`] drawing from a block-buffered
    /// [`NoiseSource`] — the oracle counterpart of
    /// [`PbitMachine::sweep_buffered`].
    #[doc(hidden)]
    pub fn sweep_exact_oracle_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.sweep_exact_with(model, beta, noise)
    }

    fn sweep_exact_with<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut N,
    ) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.settled.kill();
        let mut changed = 0;
        for i in 0..self.state.len() {
            let drive = beta * self.local_fields[i];
            let new_up = if drive >= SATURATION {
                true
            } else if drive <= -SATURATION {
                false
            } else {
                let activation = drive.tanh();
                let noise: f64 = noise.noise_symmetric();
                activation + noise >= 0.0
            };
            if new_up != (self.spins_f[i] > 0.0) {
                self.apply_flip(model, i);
                changed += 1;
            }
        }
        changed
    }

    /// One Metropolis sweep: sequentially proposes a flip of every spin and
    /// accepts with probability `min(1, exp(-β ΔH))`.
    ///
    /// This is the classic single-flip dynamics of digital annealers (and of
    /// the PT-DA baseline's hardware), provided alongside the p-bit Gibbs
    /// rule of [`PbitMachine::sweep`] so the two chains can be compared on
    /// identical models. Both sample the same Boltzmann distribution
    /// (eq. 11) in equilibrium.
    ///
    /// Returns the number of spins that changed.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn metropolis_sweep(
        &mut self,
        model: &IsingModel,
        beta: f64,
        rng: &mut ChaCha8Rng,
    ) -> usize {
        self.metropolis_sweep_with(model, beta, rng)
    }

    /// [`PbitMachine::metropolis_sweep`] drawing its accept tests from a
    /// block-buffered [`NoiseSource`]. Bit-identical to the per-decision
    /// path on the same stream.
    ///
    /// # Panics
    ///
    /// Panics if the machine was built for a different model size.
    pub fn metropolis_sweep_buffered(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut NoiseSource,
    ) -> usize {
        self.metropolis_sweep_with(model, beta, noise)
    }

    fn metropolis_sweep_with<N: SweepNoise>(
        &mut self,
        model: &IsingModel,
        beta: f64,
        noise: &mut N,
    ) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.settled.kill();
        let mut changed = 0;
        for i in 0..self.state.len() {
            let delta = 2.0 * self.spins_f[i] * self.local_fields[i];
            let accept = delta <= 0.0 || noise.noise_unit() < (-beta * delta).exp();
            if accept {
                self.apply_flip(model, i);
                changed += 1;
            }
        }
        changed
    }

    /// One deterministic greedy sweep: flips each spin whose flip strictly
    /// lowers the energy (the β → ∞ limit without noise).
    ///
    /// Returns the number of spins that changed.
    pub fn greedy_sweep(&mut self, model: &IsingModel) -> usize {
        assert_eq!(self.state.len(), model.len(), "state length mismatch");
        self.settled.kill();
        let mut changed = 0;
        for i in 0..self.state.len() {
            let delta = 2.0 * self.spins_f[i] * self.local_fields[i];
            if delta < 0.0 {
                self.apply_flip(model, i);
                changed += 1;
            }
        }
        changed
    }
}

/// Length of the leading *settled run*: the largest `k` such that
/// `fields[j] · spins[j] ≥ thresh` for every `j < k`.
///
/// The hot loop of the settled scan: whole blocks of 8 spins are tested
/// with a branchless compare-count the compiler keeps in vector registers,
/// and only the breaking block is refined element-wise. Purely a read-only
/// count — the caller decides the first unsettled spin through the full
/// kernel, so blocking can never change a decision or a draw.
#[inline(always)]
fn settled_run(fields: &[f64], spins: &[f64], thresh: f64) -> usize {
    const BLOCK: usize = 8;
    let n = fields.len();
    let mut i = 0;
    while i + BLOCK <= n {
        let f: &[f64; BLOCK] = fields[i..i + BLOCK].try_into().expect("blocked slice");
        let s: &[f64; BLOCK] = spins[i..i + BLOCK].try_into().expect("blocked slice");
        let mut settled = 0u32;
        for lane in 0..BLOCK {
            settled += u32::from(f[lane] * s[lane] >= thresh);
        }
        if settled != BLOCK as u32 {
            break;
        }
        i += BLOCK;
    }
    while i < n && fields[i] * spins[i] >= thresh {
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::new_rng;
    use saim_ising::QuboBuilder;

    fn frustrated_model() -> IsingModel {
        let mut b = QuboBuilder::new(4);
        b.add_pair(0, 1, 2.0).unwrap();
        b.add_pair(1, 2, -1.5).unwrap();
        b.add_pair(2, 3, 1.0).unwrap();
        b.add_linear(0, -1.0).unwrap();
        b.add_linear(3, 0.5).unwrap();
        b.build().to_ising()
    }

    #[test]
    fn incremental_energy_matches_full_recompute() {
        let model = frustrated_model();
        let mut rng = new_rng(9);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..200 {
            machine.sweep(&model, 0.05 * sweep as f64, &mut rng);
            let full = model.energy(machine.state());
            assert!(
                (machine.energy() - full).abs() < 1e-9,
                "drift at sweep {sweep}: {} vs {full}",
                machine.energy()
            );
        }
    }

    #[test]
    fn incremental_fields_match_model() {
        let model = frustrated_model();
        let mut rng = new_rng(11);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..50 {
            machine.sweep(&model, 1.0, &mut rng);
        }
        for i in 0..model.len() {
            let expected = model.local_field(machine.state(), i);
            assert!((machine.local_field(i) - expected).abs() < 1e-9);
        }
    }

    #[test]
    fn beta_zero_is_unbiased_coin() {
        // At β = 0 the activation is 0 and each p-bit is an unbiased coin.
        let model = frustrated_model();
        let mut rng = new_rng(5);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut ups = 0usize;
        let sweeps = 2000;
        for _ in 0..sweeps {
            machine.sweep(&model, 0.0, &mut rng);
            ups += machine.state().count_up();
        }
        let frac = ups as f64 / (sweeps * model.len()) as f64;
        assert!((frac - 0.5).abs() < 0.02, "fraction up = {frac}");
    }

    #[test]
    fn high_beta_finds_ground_state_of_simple_model() {
        // Single strong field: ground state is spin 0 up.
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -2.0).unwrap();
        let model = b.build().to_ising();
        let mut rng = new_rng(3);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..100 {
            machine.sweep(&model, 20.0, &mut rng);
        }
        assert_eq!(machine.state().value(0), 1);
    }

    #[test]
    fn greedy_sweep_never_increases_energy() {
        let model = frustrated_model();
        let mut rng = new_rng(17);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut prev = machine.energy();
        while machine.greedy_sweep(&model) > 0 {
            assert!(machine.energy() <= prev + 1e-12);
            prev = machine.energy();
        }
        // fixed point: no single flip improves
        for i in 0..model.len() {
            assert!(model.delta_energy(machine.state(), i) >= -1e-12);
        }
    }

    /// A ring model big and sparse enough that `to_ising` stores it as CSR.
    fn sparse_ring_model(n: usize) -> IsingModel {
        let mut b = QuboBuilder::new(n);
        for i in 0..n {
            b.add_pair(i, (i + 1) % n, if i % 2 == 0 { 1.0 } else { -1.5 })
                .unwrap();
            b.add_linear(i, 0.3 - 0.1 * (i % 5) as f64).unwrap();
        }
        b.build().to_ising()
    }

    #[test]
    fn low_density_models_sweep_over_csr_and_keep_books() {
        let model = sparse_ring_model(80);
        assert!(
            matches!(model.couplings(), Couplings::Sparse(_)),
            "a large ring model should convert to CSR couplings"
        );
        let mut rng = new_rng(13);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..100 {
            machine.sweep(&model, 0.1 * sweep as f64, &mut rng);
        }
        assert!(
            (machine.energy() - model.energy(machine.state())).abs() < 1e-9,
            "energy drifted on the CSR path"
        );
        for i in 0..model.len() {
            let expected = model.local_field(machine.state(), i);
            assert!(
                (machine.local_field(i) - expected).abs() < 1e-9,
                "field {i}"
            );
        }
    }

    #[test]
    fn small_or_dense_models_stay_on_dense_couplings() {
        let small = sparse_ring_model(8); // below the CSR size cut
        assert!(matches!(small.couplings(), Couplings::Dense(_)));
        let dense = frustrated_model(); // tiny and dense
        assert!(matches!(dense.couplings(), Couplings::Dense(_)));
    }

    #[test]
    fn buffered_sweeps_replay_the_per_decision_path() {
        // the block-buffered noise source must not change a single decision:
        // same stream, same trajectory, bit-identical energies
        let model = frustrated_model();
        let mut rng_a = new_rng(8);
        let mut a = PbitMachine::new(&model, &mut rng_a);
        let mut rng_b = new_rng(8);
        let b_init = PbitMachine::new(&model, &mut rng_b);
        let mut b = b_init;
        let mut noise = NoiseSource::new(rng_b);
        for sweep in 0..150 {
            let beta = 0.05 * sweep as f64;
            if sweep % 3 == 2 {
                a.metropolis_sweep(&model, beta, &mut rng_a);
                b.metropolis_sweep_buffered(&model, beta, &mut noise);
            } else {
                a.sweep(&model, beta, &mut rng_a);
                b.sweep_buffered(&model, beta, &mut noise);
            }
            assert_eq!(a.state(), b.state(), "sweep {sweep}");
            assert_eq!(a.energy().to_bits(), b.energy().to_bits(), "sweep {sweep}");
        }
    }

    #[test]
    fn reset_to_matches_fresh_construction() {
        let model = frustrated_model();
        let mut rng = new_rng(6);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for _ in 0..20 {
            machine.sweep(&model, 1.0, &mut rng);
        }
        let target = SpinState::from_values(&[1, -1, -1, 1]);
        machine.reset_to(&model, &target);
        let fresh = PbitMachine::with_state(&model, target.clone());
        assert_eq!(machine.state(), fresh.state());
        assert_eq!(machine.energy().to_bits(), fresh.energy().to_bits());
        for i in 0..model.len() {
            assert_eq!(
                machine.local_field(i).to_bits(),
                fresh.local_field(i).to_bits()
            );
        }
        // flips survive a reset (they count the machine's lifetime work)
        assert!(machine.flips() > 0);
    }

    #[test]
    fn resync_after_field_change() {
        let mut model = frustrated_model();
        let mut rng = new_rng(21);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        model.fields_mut()[2] += 3.0;
        machine.resync(&model);
        assert!((machine.energy() - model.energy(machine.state())).abs() < 1e-12);
        for i in 0..model.len() {
            assert!((machine.local_field(i) - model.local_field(machine.state(), i)).abs() < 1e-12);
        }
    }

    #[test]
    fn randomize_changes_state_and_keeps_books() {
        let model = frustrated_model();
        let mut rng = new_rng(2);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.randomize(&model, &mut rng);
        assert!((machine.energy() - model.energy(machine.state())).abs() < 1e-12);
    }

    #[test]
    fn metropolis_matches_gibbs_equilibrium_on_one_spin() {
        // both chains must converge to P(up) = (1 + tanh(βh)) / 2
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap();
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 0.9;
        let expected = (beta * h).tanh() / 2.0 + 0.5;
        for use_metropolis in [false, true] {
            let mut rng = new_rng(55);
            let mut machine = PbitMachine::new(&model, &mut rng);
            let mut ups = 0usize;
            let sweeps = 40_000;
            for _ in 0..sweeps {
                if use_metropolis {
                    machine.metropolis_sweep(&model, beta, &mut rng);
                } else {
                    machine.sweep(&model, beta, &mut rng);
                }
                ups += usize::from(machine.state().value(0) == 1);
            }
            let p_up = ups as f64 / sweeps as f64;
            assert!(
                (p_up - expected).abs() < 0.02,
                "metropolis={use_metropolis}: p_up = {p_up}, expected {expected}"
            );
        }
    }

    #[test]
    fn metropolis_keeps_energy_books() {
        let model = frustrated_model();
        let mut rng = new_rng(77);
        let mut machine = PbitMachine::new(&model, &mut rng);
        for sweep in 0..100 {
            machine.metropolis_sweep(&model, 0.1 * sweep as f64, &mut rng);
            assert!(
                (machine.energy() - model.energy(machine.state())).abs() < 1e-9,
                "drift at sweep {sweep}"
            );
        }
    }

    #[test]
    fn metropolis_at_high_beta_descends() {
        let model = frustrated_model();
        let mut rng = new_rng(31);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let start = machine.energy();
        for _ in 0..100 {
            machine.metropolis_sweep(&model, 50.0, &mut rng);
        }
        assert!(machine.energy() <= start + 1e-9);
        // and the endpoint is a local minimum up to rare accepted uphill moves
        let uphill = (0..model.len())
            .filter(|&i| model.delta_energy(machine.state(), i) < -1e-9)
            .count();
        assert_eq!(uphill, 0, "still has strictly improving flips");
    }

    #[test]
    fn bracket_kernel_replays_exact_oracle() {
        // the three-tier kernel must be bit-identical to the pre-bracket
        // exact-tanh kernel across the whole hot regime, dense and CSR
        for model in [frustrated_model(), sparse_ring_model(80)] {
            let mut rng_a = new_rng(14);
            let mut a = PbitMachine::new(&model, &mut rng_a);
            let mut rng_b = new_rng(14);
            let mut b = PbitMachine::new(&model, &mut rng_b);
            for sweep in 0..300 {
                let beta = 0.05 * sweep as f64;
                let ca = a.sweep(&model, beta, &mut rng_a);
                let cb = b.sweep_exact_oracle(&model, beta, &mut rng_b);
                assert_eq!(ca, cb, "changed count at sweep {sweep}");
                assert_eq!(a.state(), b.state(), "sweep {sweep}");
                assert_eq!(a.energy().to_bits(), b.energy().to_bits(), "sweep {sweep}");
                assert_eq!(a.flips(), b.flips(), "sweep {sweep}");
            }
        }
    }

    #[test]
    fn classification_marks_weak_spins_never_saturating() {
        // spin 0 carries a drive bound far past SATURATION at β = 1, spin 1
        // one far below it
        let mut b = QuboBuilder::new(2);
        b.add_linear(0, -100.0).unwrap();
        b.add_linear(1, -0.1).unwrap();
        let model = b.build().to_ising();
        let mut rng = new_rng(1);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        assert_eq!(machine.drive_bounds, model.drive_bounds());
        let class = |beta: f64, i: usize| beta * machine.drive_bounds[i] * CLASS_PAD >= SATURATION;
        assert!(class(1.0, 0), "strong spin must keep the sat tests");
        assert!(!class(1.0, 1), "weak spin can never saturate");
        // β = 0: nothing saturates
        assert!(!class(0.0, 0) && !class(0.0, 1));
    }

    #[test]
    fn resync_refreshes_drive_bounds() {
        let mut model = frustrated_model();
        let mut rng = new_rng(2);
        let mut machine = PbitMachine::new(&model, &mut rng);
        machine.sweep(&model, 1.0, &mut rng);
        model.fields_mut()[2] += 50.0;
        machine.resync(&model);
        machine.sweep(&model, 1.0, &mut rng);
        assert_eq!(machine.drive_bounds, model.drive_bounds());
    }

    #[test]
    fn settled_run_counts_leading_settled_prefix() {
        // blocked and element-wise refinement must agree with the naive
        // definition across block boundaries
        let thresh = 2.0;
        for break_at in [0usize, 1, 7, 8, 9, 15, 16, 20] {
            let n = 21;
            let fields: Vec<f64> = (0..n)
                .map(|i| if i == break_at { 1.0 } else { 3.0 })
                .collect();
            let spins = vec![1.0; n];
            assert_eq!(settled_run(&fields, &spins, thresh), break_at, "{break_at}");
        }
        assert_eq!(settled_run(&[], &[], 1.0), 0);
        assert_eq!(settled_run(&[5.0; 19], &[1.0; 19], 2.0), 19);
    }

    /// A model whose leading `strong` spins carry a drive far past any
    /// realistic `SATURATION / β` threshold, so the settled scan's blocked
    /// prefix skip engages and ends exactly where the strong run ends, and
    /// a held β quenches it into the settled list's regime.
    fn settled_prefix_model(n: usize, strong: usize) -> IsingModel {
        let mut b = QuboBuilder::new(n);
        for i in 0..strong {
            b.add_linear(i, -50.0).unwrap();
        }
        for i in strong..n {
            b.add_linear(i, 0.2 - 0.1 * (i % 3) as f64).unwrap();
        }
        for i in 1..n {
            b.add_pair(i - 1, i, if i % 2 == 0 { 0.4 } else { -0.3 })
                .unwrap();
        }
        b.build().to_ising()
    }

    /// Replays `machine.sweep_buffered` against an exact-oracle twin on the
    /// same stream for every β of `schedule`, then hands both back.
    fn replay_oracle(
        model: &IsingModel,
        seed: u64,
        schedule: impl IntoIterator<Item = f64>,
    ) -> (PbitMachine, PbitMachine) {
        let twin = || {
            let mut rng = new_rng(seed);
            let machine = PbitMachine::new(model, &mut rng);
            (machine, NoiseSource::new(rng))
        };
        let ((mut machine, mut noise), (mut oracle, mut oracle_noise)) = (twin(), twin());
        for (sweep, beta) in schedule.into_iter().enumerate() {
            let changed = machine.sweep_buffered(model, beta, &mut noise);
            let expected = oracle.sweep_exact_oracle_buffered(model, beta, &mut oracle_noise);
            assert_eq!(changed, expected, "changed at sweep {sweep}");
            assert_eq!(machine.state(), oracle.state(), "sweep {sweep}");
            assert_eq!(machine.energy().to_bits(), oracle.energy().to_bits());
            assert_eq!(machine.flips(), oracle.flips(), "sweep {sweep}");
        }
        (machine, oracle)
    }

    #[test]
    fn settled_tile_boundaries_replay_exact_oracle() {
        // saturated prefixes ending exactly at, one short of, and one past
        // the settled scan's 8-spin block boundary, plus deep into the
        // vector — the scan (and the masked visit once the held β builds a
        // list) must hand over to the decision loop at the right spin
        for strong in [7usize, 8, 9, 16, 23, 28] {
            let model = settled_prefix_model(32, strong);
            for r in 0..5 {
                let schedule = (0..40).map(|s| if s < 10 { 0.3 * s as f64 } else { 2.0 });
                let (machine, oracle) = replay_oracle(&model, 100 * strong as u64 + r, schedule);
                for i in 0..model.len() {
                    assert_eq!(
                        machine.local_field(i).to_bits(),
                        oracle.local_field(i).to_bits(),
                        "field {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn slack_exhaustion_mid_masked_sweep_replays_exact_oracle() {
        // a long settled prefix plus four weak coin-flip tail spins: at a
        // held β = 2 the machine goes masked with a finite budget (~40, the
        // strong spins' margin) that the tail flips erode by ~0.8 each, so
        // within this horizon it repeatedly crosses the mid-sweep
        // budget-exhaustion fallback and the post-fallback rebuild
        let model = settled_prefix_model(32, 28);
        for seed in 0..3 {
            let (machine, _) = replay_oracle(&model, seed, std::iter::repeat_n(2.0, 200));
            assert!(machine.settled.settle.is_finite() || machine.settled.cooldown > 0);
        }
    }

    #[test]
    fn flips_that_erode_an_out_of_list_margin_replay_exact_oracle() {
        // three weak list spins share one coupled spin A whose margin sits
        // just outside the narrowest guard band; 44 uncoupled filler spins
        // at margin 2 overflow the wider bands. Two adverse weak flips
        // charge the budget dry, three push A below its settle threshold —
        // only the per-flip charge keeps the masked visit from skipping it
        let beta = 2.0;
        let theta = SATURATION / beta;
        let n = 48;
        let mut couplings = saim_ising::SymmetricMatrix::zeros(n);
        let mut fields = vec![theta + 2.0; n];
        for (w, field) in fields.iter_mut().enumerate().take(3) {
            couplings.set(w, 3, 0.5).unwrap();
            *field = -0.3;
        }
        fields[3] = theta + 1.2;
        let model = IsingModel::new(Couplings::Dense(couplings), fields, 0.0).unwrap();
        for seed in 0..4 {
            let (machine, _) = replay_oracle(&model, seed, std::iter::repeat_n(beta, 3000));
            assert!(machine.flips() > 100, "the weak spins keep flipping");
        }
    }

    #[test]
    fn settled_list_stays_a_valid_certificate_under_held_beta() {
        // after every held-β sweep on a quenched model, a live list must
        // certify every spin it leaves out: settled, with a margin no
        // smaller than the remaining slack budget
        let model = settled_prefix_model(48, 42);
        for beta in [2.0, 8.0, 50.0] {
            let settle = settle_threshold(beta);
            let mut rng = new_rng(3);
            let mut machine = PbitMachine::new(&model, &mut rng);
            let mut noise = NoiseSource::new(rng);
            let mut live = 0;
            for sweep in 0..300 {
                machine.sweep_buffered(&model, beta, &mut noise);
                let list = &machine.settled;
                if list.settle.to_bits() != settle.to_bits() {
                    continue;
                }
                live += 1;
                assert!(list.slack > 0.0, "a live list has budget left");
                assert!(list.active.windows(2).all(|w| w[0] < w[1]), "ascending");
                assert!(list.active.len() <= model.len() / ACTIVE_DIV + 1);
                for i in 0..model.len() {
                    if list.active.binary_search(&(i as u32)).is_ok() {
                        continue;
                    }
                    let margin = machine.local_fields[i] * machine.spins_f[i] - settle;
                    assert!(
                        margin >= list.slack,
                        "beta {beta} sweep {sweep}: spin {i} margin {margin} < slack {}",
                        list.slack
                    );
                }
            }
            assert!(
                live > 250,
                "beta {beta}: the list was live for {live} sweeps"
            );
        }
    }

    #[test]
    fn uncharged_book_changes_kill_the_settled_list() {
        let model = settled_prefix_model(32, 30);
        let live_machine = |rng: &mut ChaCha8Rng| {
            let mut machine = PbitMachine::new(&model, rng);
            for _ in 0..5 {
                machine.sweep(&model, 8.0, rng);
            }
            assert!(machine.settled.settle.is_finite(), "held β builds a list");
            machine
        };
        let mut rng = new_rng(4);
        for change in 0..6 {
            let mut machine = live_machine(&mut rng);
            match change {
                0 => machine.resync(&model),
                1 => machine.randomize(&model, &mut rng),
                2 => machine.reset_to(&model, &machine.state().clone()),
                3 => {
                    machine.metropolis_sweep(&model, 8.0, &mut rng);
                }
                4 => {
                    machine.greedy_sweep(&model);
                }
                _ => {
                    machine.sweep_exact_oracle(&model, 8.0, &mut rng);
                }
            }
            assert!(machine.settled.settle.is_nan(), "book change {change}");
        }
        let restored = PbitMachine::from_snapshot(&model, &live_machine(&mut rng).snapshot());
        assert!(restored.settled.settle.is_nan());
    }

    #[test]
    fn swapped_machines_carry_live_lists_and_keep_replaying() {
        // the parallel-tempering exchange: two machines with live lists at
        // different β trade places; each continues at the other's β and
        // must still replay an oracle twin that took the same swap
        let model = settled_prefix_model(32, 28);
        let twin = |seed: u64| {
            let mut rng = new_rng(seed);
            let machine = PbitMachine::new(&model, &mut rng);
            (machine, NoiseSource::new(rng))
        };
        let betas = [2.0, 50.0];
        let mut machines = [twin(1), twin(2)];
        let mut oracles = [twin(1), twin(2)];
        for round in 0..12 {
            for k in 0..2 {
                for _ in 0..10 {
                    let (m, noise) = &mut machines[k];
                    m.sweep_buffered(&model, betas[k], noise);
                    let (o, noise) = &mut oracles[k];
                    o.sweep_exact_oracle_buffered(&model, betas[k], noise);
                    assert_eq!(m.state(), o.state(), "round {round} slot {k}");
                    assert_eq!(m.energy().to_bits(), o.energy().to_bits());
                }
            }
            assert!(machines.iter().all(|(m, _)| m.settled.settle.is_finite()));
            let [(a, _), (b, _)] = &mut machines;
            std::mem::swap(a, b);
            let [(a, _), (b, _)] = &mut oracles;
            std::mem::swap(a, b);
        }
    }

    #[test]
    fn boltzmann_ratio_on_two_state_system() {
        // One spin, field h: P(up)/P(down) should approach exp(2βh).
        let mut b = QuboBuilder::new(1);
        b.add_linear(0, -1.0).unwrap(); // ising field 0.5 on the spin
        let model = b.build().to_ising();
        let h = model.fields()[0];
        let beta = 1.2;
        let mut rng = new_rng(33);
        let mut machine = PbitMachine::new(&model, &mut rng);
        let mut ups = 0usize;
        let sweeps = 40_000;
        for _ in 0..sweeps {
            machine.sweep(&model, beta, &mut rng);
            if machine.state().value(0) == 1 {
                ups += 1;
            }
        }
        let p_up = ups as f64 / sweeps as f64;
        let expected = (beta * h).tanh() / 2.0 + 0.5;
        assert!(
            (p_up - expected).abs() < 0.02,
            "p_up = {p_up}, expected {expected}"
        );
    }
}
