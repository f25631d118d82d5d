//! # acmr — Admission Control to Minimize Rejections & Online Set Cover with Repetitions
//!
//! A from-scratch Rust reproduction of **Alon, Azar & Gutner,
//! SPAA 2005**: the `O(log²(mc))`-competitive randomized preemptive
//! admission-control algorithm (and its `O(log m log c)` unweighted
//! variant), the reduction from online set cover with repetitions to
//! admission control, and the deterministic `O(log m log n)` bicriteria
//! set-cover algorithm — plus every substrate needed to evaluate them.
//!
//! This facade crate re-exports the workspace so applications can use a
//! single dependency:
//!
//! * [`graph`] — capacitated graphs, paths, generators, load auditing
//! * [`lp`] — simplex LP, branch-and-bound ILP, greedy covering
//! * [`core`] — the paper's algorithms, the algorithm registry, and the
//!   streaming `Session` driver (start here)
//! * [`baselines`] — BKK-style and greedy baselines
//! * [`workloads`] — instance generators and the trace format,
//!   including the chunked `TraceReader`/`TraceWriter` streaming pair
//!   (`docs/TRACE_FORMAT.md` has the grammar)
//! * [`harness`] — the assembled registry, report-producing runners
//!   (in-memory, and streamed with the two-pass OPT bound), sharded
//!   sweeps, the cross-process `ClusterDriver`, experiments E1–E9, E11
//! * [`serve`] — the live serving front end: the `ACMR-SERVE` TCP
//!   protocol (`docs/SERVING.md`), sharded-reactor session server,
//!   matching client (`acmr serve` / `acmr client`), and the
//!   `WorkerPool` behind cluster runs (`acmr run --cluster/--workers`)
//!
//! `docs/ARCHITECTURE.md` maps the crates and the layered engine API
//! (registry → session → batch → stream → reports → shard → cluster →
//! CLI).
//!
//! ## Quickstart
//!
//! Algorithms are addressed by spec string through the registry and
//! driven one arrival at a time through a [`core::Session`], which
//! audits feasibility and accumulates statistics as it goes:
//!
//! ```
//! use acmr::core::{AlgorithmSpec, Request, Session};
//! use acmr::graph::{EdgeId, EdgeSet};
//! use acmr::harness::default_registry;
//!
//! // Two-edge network, capacity 1 each; the paper's weighted algorithm.
//! let registry = default_registry();
//! let spec = AlgorithmSpec::parse("aag-weighted?seed=42").unwrap();
//! let mut session = Session::from_registry(&registry, &spec, &[1, 1], 0).unwrap();
//!
//! let r0 = Request::new(EdgeSet::new(vec![EdgeId(0), EdgeId(1)]), 5.0);
//! let event = session.push(&r0).unwrap();
//! assert!(event.accepted); // plenty of room: the paper's base case
//!
//! let report = session.report(); // serde-backed, CLI-identical schema
//! assert_eq!(report.seed, Some(42));
//! assert_eq!(report.rejected_count, 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;

pub use acmr_baselines as baselines;
pub use acmr_core as core;
pub use acmr_graph as graph;
pub use acmr_harness as harness;
pub use acmr_lp as lp;
pub use acmr_serve as serve;
pub use acmr_workloads as workloads;
