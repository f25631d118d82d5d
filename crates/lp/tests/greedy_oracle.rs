//! Differential suite: the lazy-heap `greedy_cover` against the full
//! scan it replaced, kept here verbatim as the oracle.
//!
//! The two must choose the same items, pick for pick, so every case
//! compares the `chosen` vectors and the cost bits. The problems are
//! built to be hard on the lazy bookkeeping: costs from a tiny set so
//! densities tie constantly, zero-demand rows, items in no row, demand
//! up to the row size, and admission-shaped interval problems on a line.

use acmr_lp::greedy::GreedyResult;
use acmr_lp::{greedy_cover, CoveringProblem};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The full-scan density greedy: every pick recounts every item's
/// coverage and takes the minimum density, the lowest index on ties.
fn oracle_greedy_cover(p: &CoveringProblem) -> Option<GreedyResult> {
    if !p.is_feasible() {
        return None;
    }
    let n = p.num_items();
    let mut chosen = vec![false; n];
    let mut residual = p.residual_demands(&chosen);
    // item → rows it appears in (inverted index, built once).
    let mut rows_of_item: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (r, row) in p.rows.iter().enumerate() {
        for &i in &row.items {
            rows_of_item[i].push(r);
        }
    }
    let mut open: u64 = residual.iter().map(|&d| d as u64).sum();
    while open > 0 {
        // Best density item: min cost / coverage among items with
        // positive residual coverage.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..n {
            if chosen[i] {
                continue;
            }
            let coverage = rows_of_item[i].iter().filter(|&&r| residual[r] > 0).count() as f64;
            if coverage == 0.0 {
                continue;
            }
            let density = p.costs[i] / coverage;
            match best {
                None => best = Some((i, density)),
                Some((_, bd)) if density < bd => best = Some((i, density)),
                _ => {}
            }
        }
        // Feasible instances always have a helping item while demand
        // remains open.
        let (i, _) = best.expect("feasible instance ran out of items");
        chosen[i] = true;
        for &r in &rows_of_item[i] {
            if residual[r] > 0 {
                residual[r] -= 1;
                open -= 1;
            }
        }
    }
    let cost = p.cost_of(&chosen);
    debug_assert!(p.satisfies(&chosen));
    Some(GreedyResult { chosen, cost })
}

/// Assert the lazy greedy reproduces the oracle exactly.
fn assert_same_picks(p: &CoveringProblem) -> Result<(), TestCaseError> {
    let lazy = greedy_cover(p);
    let oracle = oracle_greedy_cover(p);
    match (lazy, oracle) {
        (None, None) => {}
        (Some(l), Some(o)) => {
            prop_assert_eq!(&l.chosen, &o.chosen, "picks differ");
            prop_assert_eq!(l.cost.to_bits(), o.cost.to_bits(), "cost bits differ");
            prop_assert!(p.satisfies(&l.chosen));
        }
        (l, o) => {
            return Err(TestCaseError::fail(format!(
                "feasibility differs: lazy {:?}, oracle {:?}",
                l.is_some(),
                o.is_some()
            )))
        }
    }
    Ok(())
}

/// A random problem from raw draws: `rows` are `(item draws, demand
/// draw)`. Rows only draw from the first `used` items, so the rest sit
/// in no row; the demand draw is folded into `0..=row size`, so some
/// rows demand nothing and some demand every item they hold.
fn tie_heavy_problem(
    costs: Vec<f64>,
    used: usize,
    rows: Vec<(Vec<usize>, u32)>,
) -> CoveringProblem {
    let used = used.clamp(1, costs.len());
    let mut p = CoveringProblem::new(costs);
    for (draws, d) in rows {
        p.push_row(draws.into_iter().map(|i| i % used).collect(), 0);
        let row = p.rows.last_mut().expect("row just pushed");
        row.demand = d % (row.items.len() as u32 + 1);
    }
    p
}

/// Costs drawn from `pool`, indexed by `picks`.
fn costs_from(pool: &[f64], picks: Vec<usize>) -> Vec<f64> {
    picks.into_iter().map(|k| pool[k % pool.len()]).collect()
}

/// An admission-shaped problem: `n` requests are random intervals of
/// 1..=`max_hops` edges on an `m`-edge line of capacity `cap`; the rows
/// are the overloaded edges, each demanding `load − cap` rejections.
fn interval_problem(seed: u64, m: usize, n: usize, cap: usize, max_hops: usize) -> CoveringProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut on_edge: Vec<Vec<usize>> = vec![Vec::new(); m];
    let costs: Vec<f64> = (0..n)
        .map(|i| {
            let hops = rng.gen_range(1..=max_hops.min(m));
            let start = rng.gen_range(0..=m - hops);
            for edge in &mut on_edge[start..start + hops] {
                edge.push(i);
            }
            // Half the seeds draw integral costs (many ties), half
            // fractional ones.
            if seed.is_multiple_of(2) {
                f64::from(rng.gen_range(1..=8u32))
            } else {
                rng.gen_range(0.5..4.0)
            }
        })
        .collect();
    let mut p = CoveringProblem::new(costs);
    for reqs in on_edge {
        if reqs.len() > cap {
            let demand = (reqs.len() - cap) as u32;
            p.push_row(reqs, demand);
        }
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// (a) Random tie-heavy problems: costs from {1, 2, 3}.
    #[test]
    fn lazy_matches_full_scan_on_tie_heavy_problems(
        picks in proptest::collection::vec(0usize..3, 1..40),
        used in 1usize..40,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0usize..1000, 0..12), 0u32..16),
            0..24,
        ),
    ) {
        let p = tie_heavy_problem(costs_from(&[1.0, 2.0, 3.0], picks), used, rows);
        assert_same_picks(&p)?;
    }

    /// (a) The same, with free items and items that may never be
    /// bought at a finite price: an item whose coverage fell to zero
    /// must stay out even when its density stays at ∞.
    #[test]
    fn lazy_matches_full_scan_with_free_and_infinite_costs(
        picks in proptest::collection::vec(0usize..5, 1..30),
        used in 1usize..30,
        rows in proptest::collection::vec(
            (proptest::collection::vec(0usize..1000, 0..10), 0u32..12),
            0..20,
        ),
    ) {
        let pool = [0.0, 1.0, 2.0, 3.0, f64::INFINITY];
        let p = tie_heavy_problem(costs_from(&pool, picks), used, rows);
        assert_same_picks(&p)?;
    }
}

/// (b) Seeded interval-shaped admission problems, from a short hot
/// line to a long lightly overloaded one.
#[test]
fn lazy_matches_full_scan_on_interval_admission_problems() {
    for seed in 0..24u64 {
        for &(m, n, cap, hops) in &[(16, 60, 2, 4), (64, 300, 3, 8), (256, 900, 8, 8)] {
            let p = interval_problem(seed, m, n, cap, hops);
            assert!(!p.rows.is_empty(), "seed {seed}: no overloaded edge");
            if let Err(e) = assert_same_picks(&p) {
                panic!("seed {seed}, m {m}, n {n}: {e:?}");
            }
        }
    }
}

/// (c) Item 1 is picked first and halves item 0's coverage, so item
/// 0's key goes stale at 1.0 while its true density becomes 2.0 —
/// exactly the fresh key of item 2. Refreshed, item 0 ties item 2 and
/// the lower index must win.
#[test]
fn refreshed_stale_item_wins_a_tie_on_its_lower_index() {
    let mut p = CoveringProblem::new(vec![2.0, 0.5, 2.0]);
    p.push_row(vec![0, 1], 1);
    p.push_row(vec![0, 2], 1);
    let g = greedy_cover(&p).unwrap();
    assert_eq!(g.chosen, vec![true, true, false]);
    assert_eq!(g.cost.to_bits(), 2.5f64.to_bits());
    assert_same_picks(&p).unwrap();
}

/// A useless item is never bought, even when its density is ∞ both
/// before and after it lost its last row: item 0 (cost ∞) shares row 0
/// with the cheap item 1, which covers it; row 1 can only be covered by
/// item 2, also at ∞, which must be the pick.
#[test]
fn item_without_coverage_is_never_chosen() {
    let mut p = CoveringProblem::new(vec![f64::INFINITY, 1.0, f64::INFINITY]);
    p.push_row(vec![0, 1], 1);
    p.push_row(vec![2], 1);
    let g = greedy_cover(&p).unwrap();
    assert_eq!(g.chosen, vec![false, true, true]);
    assert_same_picks(&p).unwrap();
}

/// A `-0.0` cost ties a `0.0` one the way `<` does: the lower index wins.
#[test]
fn negative_zero_cost_ties_positive_zero() {
    let mut p = CoveringProblem::new(vec![0.0, -0.0]);
    p.push_row(vec![0, 1], 1);
    let g = greedy_cover(&p).unwrap();
    assert_eq!(g.chosen, vec![true, false]);
    assert_same_picks(&p).unwrap();
}
