//! Pseudo-utility greedy construction.

use saim_knapsack::{MkpInstance, QkpInstance};

/// The Chu–Beasley pseudo-utility of MKP item `i`:
/// `v_i / Σ_m (a_mi / B_m)` — value per capacity-scaled weight.
pub fn mkp_utility(instance: &MkpInstance, i: usize) -> f64 {
    let scaled: f64 = (0..instance.num_constraints())
        .map(|m| f64::from(instance.weights(m)[i]) / instance.capacities()[m] as f64)
        .sum();
    f64::from(instance.values()[i]) / scaled.max(1e-12)
}

/// Item indices sorted by decreasing MKP pseudo-utility.
pub fn mkp_utility_order(instance: &MkpInstance) -> Vec<usize> {
    let mut order: Vec<usize> = (0..instance.len()).collect();
    order.sort_by(|&a, &b| {
        mkp_utility(instance, b)
            .partial_cmp(&mkp_utility(instance, a))
            .expect("utilities are finite")
    });
    order
}

/// Greedy MKP construction: walk the utility order, packing every item that
/// still fits in all knapsacks. Always returns a feasible selection.
///
/// ```
/// use saim_knapsack::generate;
/// use saim_heuristics::greedy;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let inst = generate::mkp(30, 3, 0.5, 1)?;
/// let sel = greedy::mkp(&inst);
/// assert!(inst.is_feasible(&sel));
/// # Ok(())
/// # }
/// ```
pub fn mkp(instance: &MkpInstance) -> Vec<u8> {
    let n = instance.len();
    let m = instance.num_constraints();
    let mut selection = vec![0u8; n];
    let mut loads = vec![0u64; m];
    for i in mkp_utility_order(instance) {
        let fits =
            (0..m).all(|k| loads[k] + instance.weights(k)[i] as u64 <= instance.capacities()[k]);
        if fits {
            selection[i] = 1;
            for k in 0..m {
                loads[k] += instance.weights(k)[i] as u64;
            }
        }
    }
    selection
}

/// Greedy QKP construction by *incremental* density: repeatedly pack the
/// fitting item with the highest marginal profit (own value + pair profits
/// with already-packed items) per unit weight. Always feasible.
///
/// Each item's marginal profit is kept up to date as items are packed, so
/// a construction costs O(n²) rather than re-summing every packed pair per
/// candidate. The sums are integers far below 2⁵³, so they are exact in
/// `f64` and the selection does not depend on the order they accrue in.
pub fn qkp(instance: &QkpInstance) -> Vec<u8> {
    let n = instance.len();
    let mut selection = vec![0u8; n];
    let mut marginal: Vec<f64> = instance.values().iter().map(|&v| f64::from(v)).collect();
    let mut load = 0u64;
    loop {
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if selection[i] == 1 {
                continue;
            }
            let w = instance.weights()[i] as u64;
            if load + w > instance.capacity() {
                continue;
            }
            let density = marginal[i] / (w as f64).max(1e-12);
            if best.is_none_or(|(_, d)| density > d) {
                best = Some((i, density));
            }
        }
        match best {
            Some((k, d)) if d > 0.0 => {
                selection[k] = 1;
                load += instance.weights()[k] as u64;
                for (i, m) in marginal.iter_mut().enumerate() {
                    if i != k {
                        *m += f64::from(instance.pair_value(i, k));
                    }
                }
            }
            _ => break,
        }
    }
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use saim_knapsack::generate;

    #[test]
    fn mkp_greedy_is_feasible_and_nontrivial() {
        for seed in 0..10 {
            let inst = generate::mkp(50, 5, 0.5, seed).unwrap();
            let sel = mkp(&inst);
            assert!(inst.is_feasible(&sel), "seed {seed}");
            assert!(inst.profit(&sel) > 0, "seed {seed}");
        }
    }

    #[test]
    fn mkp_greedy_is_maximal() {
        // no unpacked item fits anywhere
        let inst = generate::mkp(40, 3, 0.5, 4).unwrap();
        let sel = mkp(&inst);
        for i in 0..inst.len() {
            if sel[i] == 0 {
                let mut with = sel.clone();
                with[i] = 1;
                assert!(!inst.is_feasible(&with), "item {i} was skippable");
            }
        }
    }

    #[test]
    fn qkp_greedy_is_feasible() {
        for seed in 0..10 {
            let inst = generate::qkp(40, 0.5, seed).unwrap();
            let sel = qkp(&inst);
            assert!(inst.is_feasible(&sel));
        }
    }

    #[test]
    fn qkp_greedy_beats_empty_when_items_fit() {
        let inst = generate::qkp(30, 0.75, 3).unwrap();
        let sel = qkp(&inst);
        assert!(inst.profit(&sel) > 0);
    }

    /// The O(n³) construction `qkp` replaced: every candidate re-sums its
    /// pair profits with the packed items.
    fn qkp_resumming(instance: &QkpInstance) -> Vec<u8> {
        let n = instance.len();
        let mut selection = vec![0u8; n];
        let mut load = 0u64;
        loop {
            let mut best: Option<(usize, f64)> = None;
            for i in 0..n {
                if selection[i] == 1 {
                    continue;
                }
                let w = instance.weights()[i] as u64;
                if load + w > instance.capacity() {
                    continue;
                }
                let mut marginal = f64::from(instance.values()[i]);
                for j in 0..n {
                    if selection[j] == 1 {
                        marginal += f64::from(instance.pair_value(i, j));
                    }
                }
                let density = marginal / (w as f64).max(1e-12);
                if best.is_none_or(|(_, d)| density > d) {
                    best = Some((i, density));
                }
            }
            match best {
                Some((i, d)) if d > 0.0 => {
                    selection[i] = 1;
                    load += instance.weights()[i] as u64;
                }
                _ => break,
            }
        }
        selection
    }

    #[test]
    fn qkp_greedy_matches_the_resumming_construction() {
        let mut packed = 0;
        for (k, n) in [2, 5, 17, 50, 100, 150, 300].into_iter().enumerate() {
            for density in [0.25, 0.5, 1.0] {
                let seed = 100 + k as u64;
                let inst = generate::qkp(n, density, seed).unwrap();
                let sel = qkp(&inst);
                assert_eq!(sel, qkp_resumming(&inst), "n {n}, density {density}");
                packed += sel.iter().filter(|&&b| b == 1).count();
            }
        }
        assert!(packed > 100, "the oracle comparison packed almost nothing");
    }

    #[test]
    fn utility_order_is_a_permutation() {
        let inst = generate::mkp(20, 2, 0.5, 0).unwrap();
        let mut order = mkp_utility_order(&inst);
        order.sort_unstable();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn utility_prefers_high_value_light_items() {
        let inst = MkpInstance::new(vec![100, 100], vec![vec![1, 50]], vec![60]).unwrap();
        assert!(mkp_utility(&inst, 0) > mkp_utility(&inst, 1));
        assert_eq!(mkp_utility_order(&inst)[0], 0);
    }

    use saim_knapsack::MkpInstance;
}
