//! Greedy multicover approximation.
//!
//! The classic density greedy (Chvátal 1979, cited by the paper as the
//! `Θ(log n)` offline benchmark): repeatedly buy the item with the best
//! cost per unit of *residual* demand it satisfies, the lowest index
//! winning ties. For multicover it keeps the `H = ln(Σ demand) + 1`
//! approximation factor, so its cost serves two ways: as a feasible
//! **upper bound** on OPT (the root incumbent of
//! [`branch_and_bound`](crate::branch_and_bound)) and, divided by `H`,
//! as the scalable **lower bound** `greedy/H` that the harness's
//! `OptBound` falls back to on instances too large for the LP.
//!
//! ## Lazy evaluation
//!
//! An item's coverage is the number of its rows whose residual demand
//! is still positive. Residuals only fall, so coverage never rises and,
//! with costs ≥ 0, an item's density `cost / coverage` never falls. A
//! density computed earlier is therefore a lower bound on the current
//! one. The greedy keeps every item with positive coverage in a
//! min-heap keyed by `(density, index)` — `f64::total_cmp`, then the
//! index — and pops the top: if its recomputed coverage is 0 it is
//! dropped for good; if its recomputed density has the same bits as its
//! key, no other item can beat it (every other key is ≥ it and every
//! true density ≥ its key), so it is chosen; otherwise it goes back with
//! the fresh key. The pick sequence is exactly that of the full scan
//! "minimum density, lowest index on ties".
//!
//! ## Cost
//!
//! An item is re-pushed only after its coverage fell, so it is popped
//! at most `coverage + 1` times: `O(n + Σ row sizes)` pops of
//! `O(log n)` each, every pop recounting the item's rows. A full scan
//! recounting every item on every pick costs `O(picks · n · hops)`,
//! quadratic in the trace.

use crate::covering::CoveringProblem;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Result of [`greedy_cover`].
#[derive(Clone, Debug)]
pub struct GreedyResult {
    /// Chosen items.
    pub chosen: Vec<bool>,
    /// Total cost of the chosen items.
    pub cost: f64,
}

/// A heap entry: an item and the density it had when pushed.
struct Entry {
    density: f64,
    item: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on (density, item): reverse the comparison.
        other
            .density
            .total_cmp(&self.density)
            .then(other.item.cmp(&self.item))
    }
}

/// Run the density greedy. Returns `None` if the instance is infeasible
/// (some row demands more items than exist).
pub fn greedy_cover(p: &CoveringProblem) -> Option<GreedyResult> {
    if !p.is_feasible() {
        return None;
    }
    let n = p.num_items();
    let mut residual: Vec<u32> = p.rows.iter().map(|r| r.demand).collect();
    // item → rows it appears in, as a flat CSR built once: the rows of
    // item `i` are `rows_at[start[i]..start[i + 1]]`, in row order.
    let mut start = vec![0usize; n + 1];
    for row in &p.rows {
        for &i in &row.items {
            start[i + 1] += 1;
        }
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut fill = start[..n].to_vec();
    let mut rows_at = vec![0usize; start[n]];
    for (r, row) in p.rows.iter().enumerate() {
        for &i in &row.items {
            rows_at[fill[i]] = r;
            fill[i] += 1;
        }
    }
    let rows_of = |i: usize| &rows_at[start[i]..start[i + 1]];
    let coverage =
        |i: usize, residual: &[u32]| rows_of(i).iter().filter(|&&r| residual[r] > 0).count();
    // `+ 0.0` turns a `-0.0` density into `0.0`, so `total_cmp` ties
    // exactly where `<` does.
    let density = |i: usize, coverage: usize| p.costs[i] / coverage as f64 + 0.0;

    let mut heap: BinaryHeap<Entry> = (0..n)
        .filter_map(|i| match coverage(i, &residual) {
            0 => None,
            c => Some(Entry {
                density: density(i, c),
                item: i,
            }),
        })
        .collect();
    let mut chosen = vec![false; n];
    let mut open: u64 = residual.iter().map(|&d| u64::from(d)).sum();
    while open > 0 {
        // Feasible instances always have a helping item while demand
        // remains open.
        let top = heap.pop().expect("feasible instance ran out of items");
        let c = coverage(top.item, &residual);
        if c == 0 {
            continue;
        }
        let fresh = density(top.item, c);
        if fresh.to_bits() != top.density.to_bits() {
            heap.push(Entry {
                density: fresh,
                item: top.item,
            });
            continue;
        }
        chosen[top.item] = true;
        for &r in rows_of(top.item) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_simple_instance() {
        let mut p = CoveringProblem::new(vec![1.0, 1.0, 10.0]);
        p.push_row(vec![0, 2], 1);
        p.push_row(vec![1, 2], 1);
        let g = greedy_cover(&p).unwrap();
        assert!(p.satisfies(&g.chosen));
        // Greedy picks the two cheap items (density 1.0 each beats 5.0).
        assert_eq!(g.cost, 2.0);
    }

    #[test]
    fn multicover_demand() {
        let mut p = CoveringProblem::new(vec![1.0; 5]);
        p.push_row(vec![0, 1, 2, 3, 4], 3);
        let g = greedy_cover(&p).unwrap();
        assert!(p.satisfies(&g.chosen));
        assert_eq!(g.cost, 3.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut p = CoveringProblem::new(vec![1.0]);
        p.push_row(vec![0], 2);
        assert!(greedy_cover(&p).is_none());
    }

    #[test]
    fn greedy_never_below_lp() {
        let mut p = CoveringProblem::new(vec![3.0, 2.0, 2.0, 5.0]);
        p.push_row(vec![0, 1, 3], 2);
        p.push_row(vec![1, 2], 1);
        p.push_row(vec![0, 2, 3], 1);
        let g = greedy_cover(&p).unwrap();
        let lb = p.lp_lower_bound().unwrap();
        assert!(g.cost >= lb - 1e-7, "greedy {} < lp {}", g.cost, lb);
    }

    #[test]
    fn empty_problem_costs_nothing() {
        let p = CoveringProblem::new(vec![1.0, 2.0]);
        let g = greedy_cover(&p).unwrap();
        assert_eq!(g.cost, 0.0);
    }

    #[test]
    fn prefers_high_coverage_items() {
        // Item 2 covers both rows at cost 1.5 (density 0.75), beating
        // two singles at density 1.0 each.
        let mut p = CoveringProblem::new(vec![1.0, 1.0, 1.5]);
        p.push_row(vec![0, 2], 1);
        p.push_row(vec![1, 2], 1);
        let g = greedy_cover(&p).unwrap();
        assert_eq!(g.cost, 1.5);
        assert!(g.chosen[2]);
    }
}
