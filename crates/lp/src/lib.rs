//! # acmr-lp
//!
//! From-scratch linear-programming and integer-programming machinery
//! used to compute **offline optima** for the admission-control and
//! set-cover experiments.
//!
//! The paper proves competitiveness against the *fractional* optimum
//! (Theorem 2) and the integral optimum (Theorems 3, 4, 7). To measure
//! empirical competitive ratios we therefore need, per instance:
//!
//! * a **fractional lower bound** — the LP relaxation of the rejection /
//!   multicover covering program, solved by a dense two-phase primal
//!   [`simplex`] (no third-party LP crate is permitted in this
//!   workspace);
//! * an **exact integral optimum** on small instances — best-first
//!   [`bnb`] branch-and-bound on the 0/1 covering program, warm-started
//!   by [`greedy`] and pruned with LP bounds;
//! * the **density [`greedy`]** (`H`-approximate multicover, a lazy
//!   heap making it near-linear): a feasible upper bound, and divided by
//!   `H` a lower bound, for instances too large to solve exactly.
//!
//! The shared problem shape is [`covering::CoveringProblem`]: choose
//! items (requests to reject / sets to buy) minimizing total cost so
//! every row (edge / element) reaches its demand. Both of the paper's
//! problems reduce to it; the harness crate does those translations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnb;
pub mod covering;
pub mod greedy;
pub mod simplex;

pub use bnb::{branch_and_bound, BnbLimits, BnbResult};
pub use covering::{CoverRow, CoveringProblem};
pub use greedy::greedy_cover;
pub use simplex::{solve, Cmp, Constraint, Lp, LpError, LpSolution};
