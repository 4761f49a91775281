//! Certified rational brackets of `tanh` for the p-bit flip decision.
//!
//! The Gibbs update decides `sign(tanh(βI) + u)` with `u ~ U(-1, 1)`. In the
//! hot regime (small `|βI|`) the exact `tanh` — a `libm` call — dominates the
//! sweep cost. This module provides cheap monotone rational bounds
//!
//! ```text
//! lo(x) ≤ tanh(x) ≤ hi(x)        for every f64 x
//! ```
//!
//! over three regimes of `|x|`:
//!
//! - **`|x| ≤ 0.5`** — where the hot regime's weakly-coupled slack bits
//!   live — truncations of the alternating Maclaurin series, a handful of
//!   multiplies and **no division**:
//!
//!   ```text
//!   x − x³/3  ≤  tanh x  ≤  x − x³/3 + 2x⁵/15
//!   ```
//!
//!   (for `0 < x ≤ 0.5` the series terms alternate with strictly
//!   decreasing magnitude, so each truncation bounds from the side of its
//!   last term; the bracket is `2x⁵/15 ≤ 0.5%` wide at the cutoff).
//! - **`0.5 < |x| < 3`** — the 4th (lower) and 5th (upper) convergents of
//!   the continued fraction `tanh x = x/(1 + x²/(3 + x²/(5 + …)))`, whose
//!   truncations alternate around `tanh` for all `x > 0`:
//!
//!   ```text
//!   lo₄(x) = x (105 + 10x²) / (105 + 45x² + x⁴)
//!   hi₅(x) = x (945 + 105x² + x⁴) / (945 + 420x² + 15x⁴)
//!   ```
//! - **`|x| ≥ 3`** — the lower convergent decays there, so the bracket
//!   switches to the constants `[0.995, 1.0]` (tanh is increasing and
//!   `tanh 3 ≈ 0.99505`).
//!
//! All computed bounds are padded by a relative `2⁻⁴⁸` (≈ 32 ulps) so that
//! evaluation rounding, the rounding of the stored series/convergent
//! coefficients, any `libm` error up to a few ulps, and imperfect odd
//! symmetry of the platform `tanh` can never push a bound across the true
//! value; `tests/bracket_cert.rs` certifies the bracket and its
//! monotonicity against the platform `tanh` over dense sampled grids, the
//! regime boundaries, the saturation boundary, subnormals and `x = 0`.
//!
//! # Why the bracket decides the flip *bit-exactly*
//!
//! The exact kernel tests `fl(tanh(x) + u) ≥ 0`. Every f64 is an integer
//! multiple of 2⁻¹⁰⁷⁴, so the *real* sum `tanh(x) + u` is either exactly
//! zero or at least 2⁻¹⁰⁷⁴ in magnitude — it can never land in the
//! half-ulp-of-zero zone where rounding could flip the sign of the
//! comparison. Hence `fl(tanh(x) + u) ≥ 0 ⟺ u ≥ -tanh(x)` as an exact
//! comparison of f64 values, and the bracket resolves the decision whenever
//! `u` falls outside `[-hi(x), -lo(x))`:
//!
//! - `u ≥ -lo(x)` implies `u ≥ -tanh(x)` (flip up),
//! - `u < -hi(x)` implies `u < -tanh(x)` (flip down),
//! - otherwise — a sliver of width `hi - lo`, empirically well under 1% of
//!   hot-regime draws — the exact `tanh` breaks the tie.
//!
//! The noise draw is consumed *before* the bracket test, so the RNG stream
//! advances exactly as in the exact kernel and trajectories replay
//! bit-for-bit for every seed, schedule and thread count.

/// Split point below which the divide-free Maclaurin bracket is used: for
/// `|x| ≤ SERIES_CUT` the alternating series terms decrease strictly (the
/// bound certificate) and the bracket stays under half a percent wide.
pub const SERIES_CUT: f64 = 0.5;

/// Split point between the rational bracket and the constant floor: below
/// `|x| = KNEE` the convergents are tight; above it `tanh` is within
/// `5 × 10⁻³` of 1 and the constant bracket is tighter than the decaying
/// lower convergent.
pub const KNEE: f64 = 3.0;

/// `fl(1/3)` — the rounding of the stored coefficient is absorbed by the
/// relative pads.
const THIRD: f64 = 1.0 / 3.0;

/// `fl(2/15)`.
const TWO_FIFTEENTHS: f64 = 2.0 / 15.0;

/// A lower bound on `tanh(KNEE)` (= 0.995054…) with a comfortable margin:
/// for `|x| ≥ KNEE`, monotonicity gives `tanh(|x|) ≥ tanh(KNEE) > 0.995`.
const KNEE_FLOOR: f64 = 0.995;

/// Downward relative pad (`1 − 2⁻⁴⁸`, exact in f64) applied to the lower
/// bound; covers rational-evaluation rounding (≤ a few ulps), platform
/// `tanh` error and odd-symmetry slack with ~30 ulps to spare.
const PAD_DOWN: f64 = 1.0 - 1.0 / (1u64 << 48) as f64;

/// Upward relative pad (`1 + 2⁻⁴⁸`) applied to the upper bound.
const PAD_UP: f64 = 1.0 + 1.0 / (1u64 << 48) as f64;

/// Certified bracket `(lo, hi)` with `lo ≤ tanh(x) ≤ hi` and
/// `-1 ≤ lo ≤ hi ≤ 1`, monotone non-decreasing in `x`.
///
/// A handful of multiplies and two divides — no `libm` call. See the
/// [module docs](self) for the construction and the certification suite.
#[inline(always)]
pub fn tanh_bracket(x: f64) -> (f64, f64) {
    let a = x.abs();
    let (lo, hi) = if a <= SERIES_CUT {
        // divide-free Maclaurin bracket — the hot-regime fast path
        let x2 = a * a;
        let lo_s = a * (1.0 - x2 * THIRD);
        let hi_s = a * (1.0 - x2 * (THIRD - x2 * TWO_FIFTEENTHS));
        (lo_s * PAD_DOWN, hi_s * PAD_UP)
    } else if a < KNEE {
        let x2 = a * a;
        let lo4 = a * (105.0 + 10.0 * x2) / (105.0 + x2 * (45.0 + x2));
        let hi5 = a * (945.0 + x2 * (105.0 + x2)) / (945.0 + x2 * (420.0 + 15.0 * x2));
        (lo4 * PAD_DOWN, (hi5 * PAD_UP).min(1.0))
    } else {
        (KNEE_FLOOR, 1.0)
    };
    if x >= 0.0 {
        (lo, hi)
    } else {
        (-hi, -lo)
    }
}

/// The Gibbs flip decision `sign(tanh(drive) + u) ≥ 0` for an unsaturated
/// drive, resolved from the bracket when `u` falls outside `[-hi, -lo)` and
/// from the exact `tanh` otherwise.
///
/// Bit-identical to `drive.tanh() + u >= 0.0` for **every** `(drive, u)`
/// pair (see the [module docs](self) for the proof sketch); the caller must
/// have drawn `u` from the decision's noise stream so consumption matches
/// the exact kernel.
#[inline(always)]
pub fn gibbs_decision(drive: f64, u: f64) -> bool {
    let (lo, hi) = tanh_bracket(drive);
    if u >= -lo {
        true
    } else if u < -hi {
        false
    } else {
        drive.tanh() + u >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pads_are_exact_powers_of_two_offsets() {
        assert_eq!(PAD_DOWN, 1.0 - 2f64.powi(-48));
        assert_eq!(PAD_UP, 1.0 + 2f64.powi(-48));
        assert!(KNEE_FLOOR < KNEE.tanh());
    }

    #[test]
    fn bracket_contains_tanh_on_a_coarse_grid() {
        // the exhaustive certification lives in tests/bracket_cert.rs; this
        // is the smoke check for the unit-test suite
        let mut x = -25.0f64;
        while x <= 25.0 {
            let (lo, hi) = tanh_bracket(x);
            let t = x.tanh();
            assert!(lo <= t && t <= hi, "x = {x}: [{lo}, {hi}] misses {t}");
            assert!((-1.0..=1.0).contains(&lo) && (-1.0..=1.0).contains(&hi));
            x += 0.0137;
        }
    }

    #[test]
    fn decision_matches_exact_kernel_on_a_grid() {
        let mut x = -21.0f64;
        while x <= 21.0 {
            let mut u = -1.0f64;
            while u < 1.0 {
                assert_eq!(
                    gibbs_decision(x, u),
                    x.tanh() + u >= 0.0,
                    "drive = {x}, u = {u}"
                );
                u += 0.0613;
            }
            x += 0.217;
        }
    }

    #[test]
    fn zero_and_signed_zero_drives() {
        assert_eq!(tanh_bracket(0.0), (0.0, 0.0));
        let (lo, hi) = tanh_bracket(-0.0);
        assert!(lo <= (-0.0f64).tanh() && (-0.0f64).tanh() <= hi);
        // u = +0.0 ties resolve to "up", exactly like tanh(0) + 0 >= 0
        assert!(gibbs_decision(0.0, 0.0));
        assert!(gibbs_decision(-0.0, 0.0));
        assert!(!gibbs_decision(0.0, -1e-300));
    }
}
