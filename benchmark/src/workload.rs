//! The three workloads: how each trace is generated from the seed,
//! which algorithms run over it, and how far each arm reads into it.
//! Set-up (generation, trace files, the memory map, the server and the
//! worker pool) lives here too, so it can be timed as one step.

use acmr_core::{AcmrError, AdmissionInstance, Request};
use acmr_graph::{EdgeId, EdgeSet};
use acmr_harness::default_registry;
use acmr_serve::{serve, ServeConfig, ServerHandle, WorkerPool};
use acmr_workloads::trace::TraceWriter;
use acmr_workloads::{
    random_path_workload, stochastic_workload, BinMapReader, BinTraceMap, BinTraceWriter,
    CostModel, PathWorkloadSpec, StochasticSpec, Topology, TrafficModel,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::BufWriter;
use std::path::{Path, PathBuf};

/// One workload's shape. Sizes are arrival counts; `None` means the
/// whole trace.
pub struct Workload {
    pub name: &'static str,
    pub default_seed: u64,
    /// In-process algorithm arms: `(spec, arrivals read)`; a limit must
    /// not exceed the trace.
    pub algs: Vec<(&'static str, Option<usize>)>,
    /// The spec the full-report arm runs.
    pub report_spec: &'static str,
    /// The trace the full-report arm reads.
    pub report: ReportTrace,
    /// Arrivals the v2 (pipelined) and v1 (events) replays send, the
    /// trace replayed from the top when it is shorter.
    pub v2_len: Option<usize>,
    pub v1_len: Option<usize>,
    /// Pool arm: arrivals per job, and jobs per round.
    pub job_len: usize,
    pub jobs: usize,
}

/// The report arm's trace. The offline OPT bound grows much faster
/// than linearly in the overload it has to cover, so the line workloads
/// report on a trace of their regime that the bound finishes in well
/// under a second.
pub enum ReportTrace {
    /// The workload's own trace.
    Whole,
    /// Its first `n` arrivals.
    Prefix(usize),
    /// The `line-paper` generator on an `m`-edge line, same seed.
    Line(u32),
}

/// Closed-loop arm: arrivals per batch, and batches per round — enough
/// that a round's p99 has ten samples beyond it.
pub const BATCH: usize = 32;
pub const BATCHES: usize = 1024;

pub const WORKLOADS: &[&str] = &["stoch-offline", "line-paper", "line-dataplane"];

/// Arrivals in the `line-dataplane` trace (the E13 size).
const DATAPLANE_REQUESTS: usize = 1_000_000;
const DATAPLANE_EDGES: u32 = 4096;

pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "stoch-offline" => Workload {
            name: "stoch-offline",
            default_seed: 5,
            algs: vec![
                ("aag-unweighted", None),
                ("aag-weighted", None),
                ("buyback?factor=0.5", None),
                ("credit-sqrt-m", None),
                ("greedy", None),
                ("lcb-greedy", None),
                ("lp-resolve", None),
                ("preempt-cheapest", None),
                ("random-preempt", None),
            ],
            report_spec: "aag-weighted",
            report: ReportTrace::Whole,
            v2_len: Some(200_000),
            v1_len: Some(20_000),
            job_len: 2000,
            jobs: 100,
        },
        "line-paper" => Workload {
            name: "line-paper",
            default_seed: 1,
            algs: vec![
                ("aag-weighted", None),
                ("aag-unweighted", None),
                ("greedy", None),
            ],
            report_spec: "aag-weighted",
            report: ReportTrace::Line(4096),
            v2_len: None,
            v1_len: None,
            job_len: 2000,
            jobs: 100,
        },
        "line-dataplane" => Workload {
            name: "line-dataplane",
            default_seed: 42,
            algs: vec![("greedy", None), ("aag-weighted", Some(16_000))],
            report_spec: "greedy",
            report: ReportTrace::Prefix(12_000),
            v2_len: None,
            v1_len: Some(100_000),
            job_len: 2000,
            jobs: 100,
        },
        _ => return None,
    })
}

/// Everything the arms read: trace files, the mapped binary trace, the
/// in-memory head of the trace, and the live server and pool.
pub struct Setup {
    pub text: PathBuf,
    pub bin: PathBuf,
    pub report: PathBuf,
    pub caps: Vec<u32>,
    pub report_caps: Vec<u32>,
    pub arrivals: usize,
    /// Rewind this for a fresh zero-copy reader over `bin`.
    pub map: BinMapReader,
    /// The first arrivals, materialized for the batch and pool arms.
    pub head: Vec<Request>,
    pub server: ServerHandle,
    pub pool: WorkerPool,
}

impl Setup {
    pub fn shutdown(self) {
        self.pool.shutdown();
        self.server.shutdown();
        for p in [&self.text, &self.bin, &self.report] {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// Generate the workload's trace from `seed` and bring everything up.
pub fn set_up(w: &Workload, seed: u64, dir: &Path) -> Result<Setup, AcmrError> {
    std::fs::create_dir_all(dir)?;
    let text = dir.join(format!("{}-{seed}.trace", w.name));
    let bin = dir.join(format!("{}-{seed}.bin", w.name));
    let report = dir.join(format!("{}-{seed}.report.bin", w.name));
    let caps = match w.name {
        "stoch-offline" => {
            let spec = StochasticSpec {
                topology: Topology::Line { m: 256 },
                capacity: 8,
                model: TrafficModel::Iid,
                arrival_rate: 40.0,
                duration: 120,
                costs: zipf(),
                max_hops: 8,
                session_alpha: 2.5,
                session_max: 8,
                width_alpha: 1.3,
            };
            let inst = stochastic_workload(&spec, &mut StdRng::seed_from_u64(seed)).1;
            write_instance(&inst, &text, &bin)?
        }
        "line-paper" => write_instance(&paper_line(32_768, seed), &text, &bin)?,
        _ => write_dataplane(seed, &text, &bin)?,
    };
    let map = BinTraceMap::open(&bin)?.into_reader();
    let arrivals = acmr_core::RequestSource::declared_requests(&map) as usize;
    let report_caps = match w.report {
        ReportTrace::Whole => write_prefix(&map, &caps, arrivals, &report)?,
        ReportTrace::Prefix(n) => write_prefix(&map, &caps, n.min(arrivals), &report)?,
        ReportTrace::Line(m) => {
            let inst = paper_line(m, seed);
            let n = inst.requests.len();
            write_bin(&inst.capacities, n, inst.requests.into_iter(), &report)?;
            inst.capacities
        }
    };
    let head_len = (BATCH * BATCHES).max(w.job_len).min(arrivals);
    let head = map
        .rewound()
        .take(head_len)
        .collect::<Result<Vec<_>, _>>()?;
    let server = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            reactor_threads: 1,
            ..ServeConfig::default()
        },
    )?;
    let addr = server.local_addr().to_string();
    let pool = WorkerPool::connect(&[addr.clone(), addr])?;
    Ok(Setup {
        text,
        bin,
        report,
        caps,
        report_caps,
        arrivals,
        map,
        head,
        server,
        pool,
    })
}

/// The paper's regime: a weighted line, capacity 8, overload 1.5.
fn paper_line(m: u32, seed: u64) -> AdmissionInstance {
    let spec = PathWorkloadSpec {
        topology: Topology::Line { m },
        capacity: 8,
        overload: 1.5,
        costs: zipf(),
        max_hops: 8,
    };
    random_path_workload(&spec, &mut StdRng::seed_from_u64(seed)).1
}

fn zipf() -> CostModel {
    CostModel::Zipf {
        n_values: 64,
        s: 1.1,
    }
}

/// Write `inst` as both a text (`ACMR-TRACE v1`) and a binary
/// (`ACMR-TRACE v2`) trace; returns the capacities.
fn write_instance(
    inst: &AdmissionInstance,
    text: &Path,
    bin: &Path,
) -> Result<Vec<u32>, AcmrError> {
    write_both(
        &inst.capacities,
        inst.requests.len(),
        inst.requests.iter().cloned(),
        text,
        bin,
    )?;
    Ok(inst.capacities.clone())
}

/// The E13 shape (short intervals on a 4096-edge capacity-8 line, costs
/// 1–4), seeded from the command line and streamed straight to disk so
/// the million arrivals never sit in memory. Seed 42 reproduces the
/// `acmr_bench::e13` trace.
fn write_dataplane(seed: u64, text: &Path, bin: &Path) -> Result<Vec<u32>, AcmrError> {
    let caps = vec![8; DATAPLANE_EDGES as usize];
    let mut rng = StdRng::seed_from_u64(seed);
    let requests = (0..DATAPLANE_REQUESTS).map(|_| {
        let hops = 1 + rng.gen_range(0..4u32);
        let start = rng.gen_range(0..DATAPLANE_EDGES - hops);
        let edges: Vec<EdgeId> = (start..start + hops).map(EdgeId).collect();
        Request::new(EdgeSet::new(edges), 1.0 + f64::from(rng.gen_range(0..4u32)))
    });
    write_both(&caps, DATAPLANE_REQUESTS, requests, text, bin)?;
    Ok(caps)
}

fn write_both(
    caps: &[u32],
    n: usize,
    requests: impl Iterator<Item = Request>,
    text: &Path,
    bin: &Path,
) -> Result<(), AcmrError> {
    let mut t = TraceWriter::new(BufWriter::new(std::fs::File::create(text)?), caps, n)?;
    let mut b = BinTraceWriter::new(BufWriter::new(std::fs::File::create(bin)?), caps, n as u64)?;
    for r in requests {
        t.push(&r)?;
        b.push(&r)?;
    }
    t.finish()?;
    b.finish()?;
    Ok(())
}

/// The first `n` arrivals of `map` as a binary trace at `path`;
/// returns the capacities.
fn write_prefix(
    map: &BinMapReader,
    caps: &[u32],
    n: usize,
    path: &Path,
) -> Result<Vec<u32>, AcmrError> {
    let prefix = map.rewound().take(n).collect::<Result<Vec<_>, _>>()?;
    write_bin(caps, n, prefix.into_iter(), path)?;
    Ok(caps.to_vec())
}

fn write_bin(
    caps: &[u32],
    n: usize,
    requests: impl Iterator<Item = Request>,
    path: &Path,
) -> Result<(), AcmrError> {
    let mut w = BinTraceWriter::new(BufWriter::new(std::fs::File::create(path)?), caps, n as u64)?;
    for r in requests {
        w.push(&r)?;
    }
    w.finish()?;
    Ok(())
}
