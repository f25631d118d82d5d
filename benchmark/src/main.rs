//! # The benchmark of record
//!
//! One process runs one workload. It pins itself to one CPU, sets the
//! workload up seven times (`setup_s` is the median), computes the
//! in-process reference reports, runs one untimed warm-up round, then
//! runs rounds of interleaved arms for `--seconds` and prints every
//! metric by name with its unit, median, quartiles, p10/p90, unscaled
//! median and sample count. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! Every end-to-end timing is scaled to the host's speed at the moment
//! it was taken: a fixed reference kernel (sorting a 1 MiB array, the
//! benchmark's own `std`-only code, see `stats::Reference`) is timed
//! between consecutive arms and around each set-up, and each time is
//! multiplied by the kernel's nominal time over the mean of its timings
//! just before and just after. On the shared host the benchmark was
//! tuned on, the same code runs up to half again slower for seconds to
//! minutes at a time; unscaled medians of whole 35 s runs spread by
//! 15–45% from run to run, scaled ones by well under half that. The
//! unscaled medians are printed beside them. A served arm is followed
//! by a 10 ms pause before the next timing: the server thread may still
//! be closing its session, and that work would otherwise land in the
//! kernel's timing and the next arm's.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload line-paper --seed 1 --seconds 35 --trace 0
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --list
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing code in
//! any arm. `--trace 1` alternates untraced rounds with traced ones and
//! reports the per-layer metrics from the traced rounds, plus
//! `trace.overhead_frac` (traced ÷ untraced wall of the same arms − 1);
//! its spans and per-algorithm detail are written to
//! `$CARGO_TARGET_DIR/acmr-benchmark/spans-<workload>-<seed>.json`
//! (`.bench_build` when the variable is unset).
//!
//! ## Workloads
//!
//! Every workload runs every arm, so every metric has a value on each;
//! what differs is which layer dominates the time.
//!
//! * **`stoch-offline`** — the researcher's offline job on the
//!   re-anchor traffic regime: `acmr gen --topology stochastic --model
//!   iid --m 256 --cap 8 --weighted --arrival-rate 40 --duration 120`
//!   (≈7k arrivals; default seed 5). All nine registry algorithms run
//!   in-process from the memory map (`buyback?factor=0.5` for
//!   `buyback`), and the report arm is `acmr run --stream FILE` with the
//!   default algorithm, `aag-weighted`. Chosen because the preempting
//!   policies' whole-history victim scans and the OPT bound's
//!   `greedy_cover` do nearly all the work. The trace is short so that
//!   their quadratic cost leaves room for twenty-odd rounds; the v2 and
//!   v1 replays send it 29 and 3 times over.
//! * **`line-paper`** — the paper's regime: a lightly overloaded
//!   weighted line (`--topology line --m 32768 --cap 8 --overload 1.5
//!   --weighted`, ≈49k arrivals; default seed 1) under `aag-weighted`
//!   and `aag-unweighted`, with `greedy` alongside as the baseline they
//!   beat. Chosen because the fractional engine dominates and its
//!   history-sized state shows in memory. The report arm runs
//!   `aag-weighted` on the same generator at `--m 4096` (≈6k arrivals):
//!   the OPT bound on the full trace takes tens of seconds.
//! * **`line-dataplane`** — the E13 shape (1M short intervals on a
//!   4096-edge capacity-8 line; default seed 42 reproduces
//!   `acmr_bench::e13`) under `greedy`, so decode, wire and pool layers
//!   dominate. A 16k-arrival `aag-weighted` arm keeps the paper's engine
//!   measured here too. The v1 replay sends 100k arrivals; the report
//!   arm reads the first 12k (the bound grows steeply with overload).
//!
//! Seeds: `--seed` picks the trace (and the base seed of randomized
//! algorithms); the defaults above are used when it is omitted. Seed
//! 1009 is held out: no tuning of this benchmark used it, so a later
//! claim can be confirmed on it.
//!
//! ## Arms (each a timed call into public functions)
//!
//! | arm | calls | end-to-end metric |
//! | --- | --- | --- |
//! | algorithm | `Session::new(alg)` + `run_stream` over `BinMapReader` | `decisions_per_s`, `rejected_cost_frac` |
//! | text | `Session` over a text `TraceReader`, the file read in fresh sessions until 100k arrivals | `text_decisions_per_s` |
//! | report | `run_report_from_path` (run + two-pass OPT bound) | `report_s` |
//! | wire v2 | `serve_trace_v2`, pipelined batch summaries | `wire_v2_decisions_per_s` |
//! | wire v1 | `serve_trace`, per-arrival events | `wire_v1_decisions_per_s` |
//! | batch | one client, `ServeClient::push_batch_summary`, 1024 batches of 32 per round, closed loop | `batch_rtt_p50_us` |
//! | pool | `WorkerPool::run_job` on 2 slots, 100 jobs of 2000 arrivals per round | `pool_jobs_per_s` |
//!
//! The text, wire, batch and pool arms (and the traced machine arm) run
//! `greedy`, a capacity check, so they time their layers rather than an
//! algorithm; the algorithm arms time the algorithms. All served arms
//! share one in-process `serve()` with one reactor thread, driven by one
//! client thread: two busy threads, which the pin keeps on one core so
//! their hand-offs do not depend on cross-CPU wake-ups. Per-round
//! figures are reported as the median round, each arm's time scaled by
//! the reference kernel timed around it; batch latency percentiles are
//! taken per round (1024 samples, so p99 has ten beyond it). The
//! batch p99 is printed by the untraced run but bounded nowhere: on a
//! shared host it follows scheduling noise, so it is the per-layer
//! `serve.batch.rtt_p99_us`. `setup_s` covers generation, writing the
//! text and binary traces, opening the map, starting the server and
//! adopting the pool. `peak_rss_mb` is the process's peak resident
//! memory.
//!
//! Correctness: every arm's `RunReport` (requests, accepted, preemptions,
//! rejected and offered cost) must equal the in-process reference for
//! the same trace slice, spec and seed — served ≡ in-process, text ≡
//! mmap, pooled slice ≡ in-process slice, machine ≡ in-process — and the
//! OPT bound must repeat. Each mismatch or error is a failed operation;
//! a failed arm's time still counts.
//!
//! ## Layer → metric map (traced run)
//!
//! | per-layer metric | should move | workload where it dominates |
//! | --- | --- | --- |
//! | `baselines.busy_s`, `.decision_p99_ns`, `.age_slowdown`, `.preemptions` | `decisions_per_s` | `stoch-offline` |
//! | `harness.opt.scan_s`, `.solve_s`, `.items`, `.rows`, `.demand` | `report_s` | `stoch-offline` |
//! | `core.busy_s`, `.decision_p99_ns`, `.age_slowdown`, `.preempted_per_accept` | `decisions_per_s` | `line-paper` |
//! | `core.session.self_s` (push − on_request), `.live_max`, `.live_frac` | `decisions_per_s`, `peak_rss_mb` | `line-paper`, `line-dataplane` |
//! | `workloads.decode_text_s`, `.decode_bin_stream_s`, `.decode_mmap_s` | `text_decisions_per_s`, `decisions_per_s` | `line-dataplane` |
//! | `serve.machine.v2_s`, `.v1_s` (socket-free `Connection::feed`), `serve.client.encode_v2_s`, `.encode_v1_s` | `wire_v*_decisions_per_s`, `batch_rtt_p50_us` | `line-dataplane` |
//! | `serve.reactor.v2_s`, `.v1_s` (wire wall − machine − encode; the machine includes the algorithm), `serve.server.*`, `serve.batch.rtt_p99_us` | `wire_v*_decisions_per_s`, `batch_rtt_p50_us` | `line-dataplane` |
//! | `serve.pool.job_p50_ms`, `.jobs_per_attempt` | `pool_jobs_per_s` | `line-dataplane` |
//! | `trace.overhead_frac` | — | all |
//!
//! `baselines.*` and `core.*` aggregate the workload's algorithm arms by
//! crate (`aag-*` are core); `age_slowdown` is the largest over those
//! arms of ns/decision in the last quarter of arrivals ÷ the second
//! quarter, and `live_frac` is the largest live set ÷ arrivals. Together
//! they show per-decision cost and state that grow with history inside
//! one run, with no 4n rerun. Per-algorithm figures are printed and
//! written to the spans file.

mod arms;
mod stats;
mod tracing;
mod workload;

use arms::{Arm, ArmRun, Bench};
use stats::{Host, Log2Hist, Reference, Samples};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};
use tracing::{AlgTrace, Spans};
use workload::{set_up, workload, Setup, Workload, BATCH, BATCHES, WORKLOADS};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Pause after a served arm before the next reference timing.
const SETTLE: Duration = Duration::from_millis(10);
/// Fewest untraced rounds a run makes, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Seed no tuning used, kept for confirming later claims.
const HELD_OUT_SEED: u64 = 1009;

/// End-to-end metrics (untraced run): name, unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("text_decisions_per_s", "1/s"),
    ("report_s", "s"),
    ("wire_v2_decisions_per_s", "1/s"),
    ("wire_v1_decisions_per_s", "1/s"),
    ("batch_rtt_p50_us", "us"),
    ("pool_jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("rejected_cost_frac", "ratio"),
];

/// Per-layer metrics (traced run): name, unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.decode_text_s", "s"),
    ("workloads.decode_bin_stream_s", "s"),
    ("workloads.decode_mmap_s", "s"),
    ("core.busy_s", "s"),
    ("core.decision_p99_ns", "ns"),
    ("core.age_slowdown", "ratio"),
    ("core.preempted_per_accept", "ratio"),
    ("core.session.self_s", "s"),
    ("core.session.live_max", "count"),
    ("core.session.live_frac", "ratio"),
    ("baselines.busy_s", "s"),
    ("baselines.decision_p99_ns", "ns"),
    ("baselines.age_slowdown", "ratio"),
    ("baselines.preemptions", "count"),
    ("harness.opt.scan_s", "s"),
    ("harness.opt.solve_s", "s"),
    ("harness.opt.items", "count"),
    ("harness.opt.rows", "count"),
    ("harness.opt.demand", "count"),
    ("serve.machine.v2_s", "s"),
    ("serve.machine.v1_s", "s"),
    ("serve.client.encode_v2_s", "s"),
    ("serve.client.encode_v1_s", "s"),
    ("serve.reactor.v2_s", "s"),
    ("serve.reactor.v1_s", "s"),
    ("serve.server.bytes_in", "bytes"),
    ("serve.server.bytes_out", "bytes"),
    ("serve.server.batches", "count"),
    ("serve.server.errors", "count"),
    ("serve.batch.rtt_p99_us", "us"),
    ("serve.pool.job_p50_ms", "ms"),
    ("serve.pool.jobs_per_attempt", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad(&"must be positive"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn main() {
    if let Err(e) = run() {
        eprintln!("benchmark failed: {e}");
        std::process::exit(2);
    }
}

fn run() -> Result<(), String> {
    let Some(args) = parse_args()? else {
        println!(
            "workloads: {} (held-out seed {HELD_OUT_SEED})",
            WORKLOADS.join(", ")
        );
        for (name, unit) in END_TO_END {
            println!("end-to-end  {name:<32} {unit}");
        }
        for (name, unit) in PER_LAYER {
            println!("per-layer   {name:<32} {unit}");
        }
        return Ok(());
    };
    let w = workload(&args.workload).ok_or(format!(
        "unknown --workload {:?} (expected one of {})",
        args.workload,
        WORKLOADS.join(", ")
    ))?;
    let seed = args.seed.unwrap_or(w.default_seed);
    let host = Host::probe();
    let pinned = stats::pin_to_one_cpu();
    println!(
        "# host nproc={} cpu={:?} rustc={:?} revision={} pinned_cpu={}",
        host.nproc,
        host.cpu,
        host.rustc,
        host.revision,
        pinned.map_or("none".to_string(), |c| c.to_string())
    );
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("acmr-benchmark");

    let reference = Reference::new();
    let (mut setup_s, mut setup_raw) = (Samples::default(), Samples::default());
    let mut setup: Option<Setup> = None;
    let mut before = reference.time();
    for _ in 0..SETUPS {
        if let Some(s) = setup.take() {
            s.shutdown();
        }
        let t = Instant::now();
        setup = Some(set_up(&w, seed, &dir).map_err(|e| format!("set-up: {e}"))?);
        let raw = t.elapsed().as_secs_f64();
        let after = reference.time();
        setup_s.push(raw * stats::scale(before, after));
        setup_raw.push(raw);
        before = after;
    }
    let s = setup.expect("at least one set-up ran");
    let mut bench = Bench::new(&w, &s, seed);
    bench
        .prepare_references()
        .map_err(|e| format!("in-process reference: {e}"))?;
    println!(
        "# workload {} seed {seed} arrivals {} edges {} trace={}",
        w.name,
        s.arrivals,
        s.caps.len(),
        u8::from(args.trace)
    );

    let arms = Arm::all(&w);
    // One untimed round first, so caches, connections and lazy set-up
    // are warm before anything is measured; its checks still count.
    let warm: Vec<ArmRun> = arms.iter().map(|&a| bench.run(a, None)).collect();
    let mut plain: Vec<Vec<ArmRun>> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut spans = Spans::default();
    let mut reference_s = Samples::default();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while plain.len() < MIN_ROUNDS || Instant::now() < deadline {
        plain.push(plain_round(&mut bench, &arms, &reference, &mut reference_s));
        if args.trace {
            traced.push(traced_round(&mut bench, &arms, &mut spans, traced.len()));
        }
    }
    let untraced = plain.iter().flatten().chain(&warm);
    let attempted: u64 = untraced.clone().map(|r| r.attempted).sum::<u64>()
        + traced.iter().map(|t| t.attempted).sum::<u64>();
    let failed: u64 =
        untraced.map(|r| r.failed).sum::<u64>() + traced.iter().map(|t| t.failed).sum::<u64>();

    let metrics = if args.trace {
        let m = per_layer(&bench, &arms, &plain, &traced);
        write_spans(&dir, &w, seed, &host, &spans, &traced)?;
        m
    } else {
        end_to_end(&mut bench, &arms, &plain, [&setup_s, &setup_raw])
    };
    let errors = std::mem::take(&mut bench.errors);
    drop(bench);
    s.shutdown();

    for e in &errors {
        println!("# FAILED {e}");
    }
    println!(
        "# rounds {} untraced, {} traced; attempted {attempted}, failed {failed}",
        plain.len(),
        traced.len()
    );
    println!(
        "# reference kernel: nominal {:.3} ms, median {:.3} ms in this run; value and q1..p90 \
         are scaled to the nominal, raw is the unscaled median",
        stats::REFERENCE_NOMINAL_S * 1e3,
        reference_s.quantile(0.5).unwrap_or(0.0) * 1e3
    );
    println!(
        "# {:<30} {:>14} {:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
        "metric", "value", "unit", "q1", "q3", "p10", "p90", "raw", "n"
    );
    let mut json = String::new();
    for m in &metrics {
        let q = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.6}"));
        println!(
            "{:<32} {:>14.6} {:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>6}",
            m.name,
            m.value,
            m.unit,
            q(m.spread.map(|s| s.q1)),
            q(m.spread.map(|s| s.q3)),
            q(m.spread.map(|s| s.p10)),
            q(m.spread.map(|s| s.p90)),
            q(m.raw),
            m.spread.map_or(1, |s| s.n)
        );
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    let correct = failed == 0 && errors.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(())
}

/// One reported metric, with the spread of the values its median came
/// from when it has one.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    spread: Option<stats::Summary>,
    /// For a scaled timing, the median of the unscaled values.
    raw: Option<f64>,
}

fn metric(table: &'static [(&'static str, &'static str)], name: &str, samples: &Samples) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .expect("metric is declared");
    let spread = samples.summary();
    let value = spread.map_or(0.0, |s| s.median);
    Metric {
        name,
        unit,
        value: if value.is_finite() { value } else { 0.0 },
        spread,
        raw: None,
    }
}

/// A timing metric from its scaled and unscaled samples.
fn timing(
    table: &'static [(&'static str, &'static str)],
    name: &str,
    [scaled, raw]: [&Samples; 2],
) -> Metric {
    Metric {
        raw: raw.quantile(0.5),
        ..metric(table, name, scaled)
    }
}

fn single(table: &'static [(&'static str, &'static str)], name: &str, value: f64) -> Metric {
    Metric {
        spread: None,
        ..metric(table, name, &Samples::from_iter([value]))
    }
}

/// One untraced round: every arm once, with the reference kernel
/// timed between consecutive arms, so each arm has a timing just before
/// and just after it. After a served arm the server may still be
/// closing the session; a short sleep lets that finish before the next
/// timing, so neither the kernel nor the next arm pays for it.
fn plain_round(
    bench: &mut Bench,
    arms: &[Arm],
    reference: &Reference,
    times: &mut Samples,
) -> Vec<ArmRun> {
    let mut before = reference.time();
    times.push(before);
    arms.iter()
        .map(|&a| {
            let mut run = bench.run(a, None);
            if a.served() {
                std::thread::sleep(SETTLE);
            }
            let after = reference.time();
            times.push(after);
            run.scale = stats::scale(before, after);
            before = after;
            run
        })
        .collect()
}

/// Per-round samples over the rounds' runs of the arms `pick` selects:
/// Σ work ÷ Σ wall, or Σ wall when `rate` is false. Each arm's wall is
/// scaled by the reference kernel timed around it; the second set is
/// unscaled.
fn per_round(
    rounds: &[Vec<ArmRun>],
    arms: &[Arm],
    pick: &dyn Fn(Arm) -> bool,
    rate: bool,
) -> [Samples; 2] {
    let mut out = [Samples::default(), Samples::default()];
    for round in rounds {
        let (mut work, mut wall) = (0.0, [0.0, 0.0]);
        for (run, _) in round.iter().zip(arms).filter(|(_, &a)| pick(a)) {
            work += run.work as f64;
            wall[0] += run.wall_s * run.scale;
            wall[1] += run.wall_s;
        }
        for (o, w) in out.iter_mut().zip(wall) {
            o.push(if rate { work / w } else { w });
        }
    }
    out
}

fn end_to_end(
    bench: &mut Bench,
    arms: &[Arm],
    plain: &[Vec<ArmRun>],
    setup_s: [&Samples; 2],
) -> Vec<Metric> {
    let e = END_TO_END;
    let timed = |name: &str, pick: &dyn Fn(Arm) -> bool, rate: bool| {
        let [scaled, raw] = per_round(plain, arms, pick, rate);
        timing(e, name, [&scaled, &raw])
    };
    let is = |want: Arm| move |a: Arm| a == want;
    // Latency percentiles are taken per round (1024 batches each), and
    // the median round is reported.
    let (mut p50, mut p50_raw, mut p99) =
        (Samples::default(), Samples::default(), Samples::default());
    for run in plain.iter().flatten().filter(|r| !r.rtt_us.is_empty()) {
        let rtt: Samples = run.rtt_us.iter().copied().collect();
        let q = |p| rtt.quantile(p).unwrap_or(0.0);
        p50.push(q(0.5) * run.scale);
        p50_raw.push(q(0.5));
        p99.push(q(0.99) * run.scale);
    }
    if let Some(q) = p99.summary() {
        println!(
            "# batch_rtt: {BATCHES} batches of {BATCH} per round; scaled p99 median {:.3} us \
             (q1 {:.3}, q3 {:.3}, {} rounds) — unbounded, see serve.batch.rtt_p99_us",
            q.median, q.q1, q.q3, q.n
        );
    }
    let rejected_cost_frac = bench.rejected_cost_frac().unwrap_or_else(|e| {
        bench.errors.push(format!("rejected_cost_frac: {e}"));
        0.0
    });
    vec![
        timing(e, "setup_s", setup_s),
        timed("decisions_per_s", &|a| matches!(a, Arm::Alg(_)), true),
        timed("text_decisions_per_s", &is(Arm::Text), true),
        timed("report_s", &is(Arm::Report), false),
        timed("wire_v2_decisions_per_s", &is(Arm::WireV2), true),
        timed("wire_v1_decisions_per_s", &is(Arm::WireV1), true),
        timing(e, "batch_rtt_p50_us", [&p50, &p50_raw]),
        timed("pool_jobs_per_s", &is(Arm::Pool), true),
        single(e, "peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0)),
        single(e, "rejected_cost_frac", rejected_cost_frac),
    ]
}

/// One traced round: the common arms with tracing on, then the
/// traced-only layer arms (decode and the socket-free machine).
struct Traced {
    runs: Vec<ArmRun>,
    decode_s: [f64; 3],
    /// `(encode_s, machine_s)` for v2 and v1.
    machine: [(f64, f64); 2],
    server: [u64; 4],
    attempted: u64,
    failed: u64,
}

fn traced_round(bench: &mut Bench, arms: &[Arm], spans: &mut Spans, k: usize) -> Traced {
    let counters = bench.s.server.counters().clone();
    let snap = || {
        [
            &counters.bytes_in,
            &counters.bytes_out,
            &counters.batches,
            &counters.errors,
        ]
        .map(|c| c.load(Ordering::Relaxed))
    };
    let before = snap();
    let round = spans.enter(format!("round {k}"));
    let runs: Vec<ArmRun> = arms
        .iter()
        .map(|&a| {
            let id = spans.enter(format!("{a:?}"));
            let run = bench.run(a, Some(spans));
            spans.exit(id);
            run
        })
        .collect();
    let after = snap();
    let (decode_s, decode_failed) = bench.decode_arms(spans);
    let (e2, m2, ok2) = bench.machine_arm(true, spans);
    let (e1, m1, ok1) = bench.machine_arm(false, spans);
    spans.exit(round);
    Traced {
        attempted: runs.iter().map(|r| r.attempted).sum::<u64>() + 3 + 2,
        failed: runs.iter().map(|r| r.failed).sum::<u64>()
            + decode_failed
            + u64::from(!ok2)
            + u64::from(!ok1),
        runs,
        decode_s,
        machine: [(e2, m2), (e1, m1)],
        server: std::array::from_fn(|i| after[i] - before[i]),
    }
}

/// Aggregate algorithm-arm traces of one layer in one round.
#[derive(Default)]
struct LayerRound {
    busy_ns: u64,
    hist: Log2Hist,
    age: f64,
    accepts: u64,
    preempted: u64,
}

fn per_layer(bench: &Bench, arms: &[Arm], plain: &[Vec<ArmRun>], traced: &[Traced]) -> Vec<Metric> {
    let p = PER_LAYER;
    let w = bench.w;
    let mut s: std::collections::BTreeMap<&str, Samples> = Default::default();
    let mut push = |name: &'static str, v: f64| s.entry(name).or_default().push(v);
    for (k, t) in traced.iter().enumerate() {
        push("workloads.decode_text_s", t.decode_s[0]);
        push("workloads.decode_bin_stream_s", t.decode_s[1]);
        push("workloads.decode_mmap_s", t.decode_s[2]);
        let mut core = LayerRound::default();
        let mut base = LayerRound::default();
        let (mut self_ns, mut live, mut live_frac) = (0u64, 0usize, 0.0);
        for (run, arm) in t.runs.iter().zip(arms) {
            let (Arm::Alg(i), Some(tr)) = (arm, &run.alg_trace) else {
                continue;
            };
            let layer = if w.algs[*i].0.starts_with("aag-") {
                &mut core
            } else {
                &mut base
            };
            layer.busy_ns += tr.decide_ns;
            layer.hist.merge(&tr.decide);
            layer.age = layer.age.max(tr.age_slowdown());
            layer.accepts += tr.accepts;
            layer.preempted += tr.preempted;
            self_ns += tr.push_ns.saturating_sub(tr.decide_ns);
            if tr.live_max >= live {
                live = tr.live_max;
                live_frac = tr.live_max as f64 / tr.arrivals.max(1) as f64;
            }
        }
        push("core.busy_s", core.busy_ns as f64 * 1e-9);
        push(
            "core.decision_p99_ns",
            core.hist.quantile(0.99).unwrap_or(0.0),
        );
        push("core.age_slowdown", core.age);
        push(
            "core.preempted_per_accept",
            core.preempted as f64 / core.accepts.max(1) as f64,
        );
        push("core.session.self_s", self_ns as f64 * 1e-9);
        push("core.session.live_max", live as f64);
        push("core.session.live_frac", live_frac);
        push("baselines.busy_s", base.busy_ns as f64 * 1e-9);
        push(
            "baselines.decision_p99_ns",
            base.hist.quantile(0.99).unwrap_or(0.0),
        );
        push("baselines.age_slowdown", base.age);
        push("baselines.preemptions", base.preempted as f64);
        let wall = |want: Arm| {
            t.runs
                .iter()
                .zip(arms)
                .find(|(_, &a)| a == want)
                .map_or(0.0, |(r, _)| r.wall_s)
        };
        for (run, &arm) in t.runs.iter().zip(arms) {
            if let (Arm::Report, Some((scan, solve))) = (arm, run.opt_s) {
                push("harness.opt.scan_s", scan);
                push("harness.opt.solve_s", solve);
            }
            if arm == Arm::Batch {
                let rtt: Samples = run.rtt_us.iter().copied().collect();
                push("serve.batch.rtt_p99_us", rtt.quantile(0.99).unwrap_or(0.0));
            }
            if arm == Arm::Pool {
                let jobs: Samples = run.job_ms.iter().copied().collect();
                push("serve.pool.job_p50_ms", jobs.quantile(0.5).unwrap_or(0.0));
                push(
                    "serve.pool.jobs_per_attempt",
                    run.work as f64 / run.sessions.max(1) as f64,
                );
            }
        }
        let [(e2, m2), (e1, m1)] = t.machine;
        push("serve.machine.v2_s", m2);
        push("serve.machine.v1_s", m1);
        push("serve.client.encode_v2_s", e2);
        push("serve.client.encode_v1_s", e1);
        push("serve.reactor.v2_s", wall(Arm::WireV2) - m2 - e2);
        push("serve.reactor.v1_s", wall(Arm::WireV1) - m1 - e1);
        push("serve.server.bytes_in", t.server[0] as f64);
        push("serve.server.bytes_out", t.server[1] as f64);
        push("serve.server.batches", t.server[2] as f64);
        push("serve.server.errors", t.server[3] as f64);
        // Overhead pairs each traced round with the untraced round run
        // just before it, over the arms both ran.
        let common = |runs: &[ArmRun]| runs.iter().map(|r| r.wall_s).sum::<f64>();
        push(
            "trace.overhead_frac",
            common(&t.runs) / common(&plain[k]) - 1.0,
        );
    }
    // How much of an untraced round the algorithms and the OPT solve
    // account for (the rest is decode, referee, wire and pool).
    let med = |n: &str| s.get(n).and_then(|v| v.quantile(0.5)).unwrap_or(0.0);
    let round_s: Samples = plain
        .iter()
        .map(|r| r.iter().map(|a| a.wall_s).sum())
        .collect();
    let explained = med("harness.opt.solve_s") + med("baselines.busy_s") + med("core.busy_s");
    println!(
        "# algorithms + OPT solve: {explained:.4} s of a {:.4} s untraced round ({:.1}%)",
        round_s.quantile(0.5).unwrap_or(0.0),
        100.0 * explained / round_s.quantile(0.5).unwrap_or(f64::INFINITY)
    );
    let (items, rows, demand) = opt_size(bench);
    let mut out: Vec<Metric> = p
        .iter()
        .filter(|(n, _)| n.starts_with("harness.opt.") && !n.ends_with("_s"))
        .map(|&(n, _)| {
            single(
                p,
                n,
                match n {
                    "harness.opt.items" => items,
                    "harness.opt.rows" => rows,
                    _ => demand,
                },
            )
        })
        .collect();
    out.extend(s.iter().map(|(n, v)| metric(p, n, v)));
    out.sort_by_key(|m| p.iter().position(|(n, _)| *n == m.name));
    out
}

/// Size of the covering program behind the report arm's OPT bound:
/// items (requests), rows (over-subscribed edges) and total demand.
fn opt_size(bench: &Bench) -> (f64, f64, f64) {
    let caps = &bench.s.report_caps;
    let mut load = vec![0u64; caps.len()];
    let mut items = 0;
    if let Ok(reader) = acmr_workloads::open_trace(&bench.s.report) {
        for r in reader.flatten() {
            items += 1;
            for e in r.footprint.iter() {
                load[e.index()] += 1;
            }
        }
    }
    let over = load.iter().zip(caps).filter(|(&l, &c)| l > u64::from(c));
    let (rows, demand) = over.fold((0u64, 0u64), |(r, d), (&l, &c)| {
        (r + 1, d + l - u64::from(c))
    });
    (items as f64, rows as f64, demand as f64)
}

/// Write the traced run's spans and per-algorithm detail.
fn write_spans(
    dir: &std::path::Path,
    w: &Workload,
    seed: u64,
    host: &Host,
    spans: &Spans,
    traced: &[Traced],
) -> Result<(), String> {
    let mut algs = String::new();
    for (k, t) in traced.iter().enumerate() {
        for (run, &(spec, _)) in t.runs.iter().zip(&w.algs) {
            let Some(tr) = &run.alg_trace else { continue };
            print_alg(k, spec, tr);
            if !algs.is_empty() {
                algs.push(',');
            }
            let _ = write!(
                algs,
                "\n{{\"round\":{k},\"spec\":{spec:?},\"arrivals\":{},\"busy_s\":{},\"push_s\":{},\
                 \"decision_p50_ns\":{},\"decision_p99_ns\":{},\"age_slowdown\":{},\"accepts\":{},\
                 \"preempted\":{},\"live_max\":{},\"decide_hist\":{:?},\"push_hist\":{:?}}}",
                tr.arrivals,
                tr.decide_ns as f64 * 1e-9,
                tr.push_ns as f64 * 1e-9,
                tr.decide.quantile(0.5).unwrap_or(0.0),
                tr.decide.quantile(0.99).unwrap_or(0.0),
                tr.age_slowdown(),
                tr.accepts,
                tr.preempted,
                tr.live_max,
                tr.decide.buckets().collect::<Vec<_>>(),
                tr.push.buckets().collect::<Vec<_>>()
            );
        }
    }
    let json = format!(
        "{{\"workload\":{:?},\"seed\":{seed},\"host\":{{\"nproc\":{},\"cpu\":{:?},\"rustc\":{:?},\
         \"revision\":{:?}}},\"algorithms\":[{algs}\n],\"spans\":{}}}\n",
        w.name,
        host.nproc,
        host.cpu,
        host.rustc,
        host.revision,
        spans.to_json()
    );
    let path = dir.join(format!("spans-{}-{seed}.json", w.name));
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

fn print_alg(round: usize, spec: &str, tr: &AlgTrace) {
    println!(
        "# round {round} {spec:<20} busy {:.4} s  p99 {:.0} ns  age_slowdown {:.2}  preempted {}  live_max {} of {}",
        tr.decide_ns as f64 * 1e-9,
        tr.decide.quantile(0.99).unwrap_or(0.0),
        tr.age_slowdown(),
        tr.preempted,
        tr.live_max,
        tr.arrivals
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
        );
    }
}
