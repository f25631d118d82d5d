//! The arms: each one times calls into one layer's public functions
//! from outside, over the workload's trace, and returns the
//! `RunReport` it produced so the caller can check it against the
//! in-process reference.

use crate::tracing::{AlgTrace, Spans, Timed};
use crate::workload::{Setup, Workload, BATCH, BATCHES};
use acmr_core::{
    AcmrError, AlgorithmSpec, BuildCtx, Registry, Request, RequestSource, RunReport, Session,
};
use acmr_harness::{
    opt_summary, run_report_from_path, scan_trace, streamed_admission_opt, BoundBudget,
};
use acmr_serve::protocol::{write_frame, FRAME_BATCH, FRAME_END, FRAME_ERR, FRAME_REPORT};
use acmr_serve::{serve_trace, serve_trace_v2, Connection, MachineConfig, ServeClient};
use acmr_workloads::binfmt::encode_record_into;
use acmr_workloads::trace::{write_request_line, TraceReader};
use acmr_workloads::BinTraceReader;
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the text, wire, batch, pool and machine arms run: the
/// capacity check, so those arms time their layers and not an
/// algorithm (the algorithm arms time those).
pub const SERVE_SPEC: &str = "greedy";

/// Arrivals per `BATCH` frame in the replay and machine arms.
const WIRE_BATCH: usize = 512;
/// Bytes per `Connection::feed` call in the machine arms.
const FEED_CHUNK: usize = 64 * 1024;
/// Fewest arrivals the text arm decodes per round: a short trace is
/// read again in fresh sessions, so the arm takes long enough to time.
const TEXT_MIN: usize = 100_000;

/// The arms both the untraced and the traced rounds run, in round order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Arm {
    Alg(usize),
    Text,
    Report,
    WireV2,
    WireV1,
    Batch,
    Pool,
}

impl Arm {
    /// Whether the arm goes through a socket to the server, whose
    /// threads may still be finishing its work when it returns.
    pub fn served(self) -> bool {
        matches!(self, Arm::WireV2 | Arm::WireV1 | Arm::Batch | Arm::Pool)
    }

    pub fn all(w: &Workload) -> Vec<Arm> {
        let mut arms: Vec<Arm> = (0..w.algs.len()).map(Arm::Alg).collect();
        arms.extend([
            Arm::Text,
            Arm::Report,
            Arm::WireV2,
            Arm::WireV1,
            Arm::Batch,
            Arm::Pool,
        ]);
        arms
    }
}

/// The outcome-defining part of a `RunReport`: what every arm over the
/// same trace slice, spec and seed must reproduce exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Tally {
    pub requests: usize,
    pub accepted: usize,
    pub preemptions: usize,
    pub rejected_cost: f64,
    pub offered_cost: f64,
}

impl Tally {
    pub fn of(r: &RunReport) -> Tally {
        Tally {
            requests: r.requests,
            accepted: r.accepted_count,
            preemptions: r.preemptions,
            rejected_cost: r.rejected_cost,
            offered_cost: r.offered_cost,
        }
    }
}

/// What one execution of an arm measured.
#[derive(Default)]
pub struct ArmRun {
    pub wall_s: f64,
    /// In an untraced round, what scales `wall_s` to the reference
    /// kernel's nominal speed (see [`crate::stats::scale`]).
    pub scale: f64,
    /// Arrivals decided (or jobs, for the pool arm).
    pub work: usize,
    /// Operations attempted and failed (a mismatch counts as a failure).
    pub attempted: u64,
    pub failed: u64,
    /// Closed-loop per-batch acknowledgement times, µs.
    pub rtt_us: Vec<f64>,
    /// Per-job wall times, ms.
    pub job_ms: Vec<f64>,
    /// Algorithm arms in a traced round: the per-call record.
    pub alg_trace: Option<AlgTrace>,
    /// Report arm in a traced round: OPT scan and solve seconds.
    pub opt_s: Option<(f64, f64)>,
    /// Pool arm: sessions the server opened for its jobs.
    pub sessions: u64,
}

/// Shared state for running arms: the workload, its set-up, the
/// registry, and the memoized in-process references.
pub struct Bench<'a> {
    pub w: &'a Workload,
    pub s: &'a Setup,
    pub seed: u64,
    pub registry: Registry,
    refs: HashMap<(String, usize, usize), Tally>,
    /// The report spec's in-process outcome on the report arm's trace.
    report_ref: Option<Tally>,
    /// The OPT value the first report arm produced; later runs must
    /// reproduce it.
    opt_value: Option<f64>,
    pub errors: Vec<String>,
}

impl<'a> Bench<'a> {
    pub fn new(w: &'a Workload, s: &'a Setup, seed: u64) -> Self {
        Bench {
            w,
            s,
            seed,
            registry: acmr_harness::default_registry(),
            refs: HashMap::new(),
            report_ref: None,
            opt_value: None,
            errors: Vec::new(),
        }
    }

    fn len(&self, limit: Option<usize>) -> usize {
        limit.unwrap_or(self.s.arrivals)
    }

    /// Arrivals `start..start+len` of the mapped trace, replayed from
    /// the top as often as `len` needs: a short trace still gives the
    /// served arms enough work per timed call.
    fn arrivals(
        &self,
        start: usize,
        len: usize,
    ) -> impl Iterator<Item = Result<Request, AcmrError>> + '_ {
        std::iter::repeat_with(|| self.s.map.rewound())
            .flatten()
            .skip(start)
            .take(len)
    }

    fn pool_slices(&self) -> usize {
        (self.s.head.len() / self.w.job_len).max(1)
    }

    /// The in-process reference for `spec` over arrivals
    /// `start..start+len`: a registry-built session fed from the map.
    pub fn reference(&mut self, spec: &str, start: usize, len: usize) -> Result<Tally, AcmrError> {
        let key = (spec.to_string(), start, len);
        if let Some(o) = self.refs.get(&key) {
            return Ok(o.clone());
        }
        let parsed = AlgorithmSpec::parse(spec)?;
        let mut session = Session::from_registry(&self.registry, &parsed, &self.s.caps, self.seed)?;
        let report = session.run_stream(self.arrivals(start, len))?;
        let o = Tally::of(&report);
        self.refs.insert(key, o.clone());
        Ok(o)
    }

    /// Σ rejected cost ÷ Σ offered cost of the in-process algorithm
    /// arms: the workload's decision quality.
    pub fn rejected_cost_frac(&mut self) -> Result<f64, AcmrError> {
        let (mut rejected, mut offered) = (0.0, 0.0);
        for &(spec, limit) in &self.w.algs {
            let t = self.reference(spec, 0, self.len(limit))?;
            rejected += t.rejected_cost;
            offered += t.offered_cost;
        }
        Ok(rejected / offered)
    }

    /// Compute every reference the arms will check against.
    pub fn prepare_references(&mut self) -> Result<(), AcmrError> {
        let w = self.w;
        for &(spec, limit) in &w.algs {
            self.reference(spec, 0, self.len(limit))?;
        }
        let h = SERVE_SPEC;
        for limit in [None, w.v2_len, w.v1_len, Some(self.s.head.len())] {
            self.reference(h, 0, self.len(limit))?;
        }
        let parsed = AlgorithmSpec::parse(w.report_spec)?;
        let mut session =
            Session::from_registry(&self.registry, &parsed, &self.s.report_caps, self.seed)?;
        let report = session.run_stream(acmr_workloads::open_trace(&self.s.report)?)?;
        self.report_ref = Some(Tally::of(&report));
        for k in 0..self.pool_slices() {
            self.reference(h, k * w.job_len, w.job_len)?;
        }
        Ok(())
    }

    /// Check `report` against the reference; record a failure on
    /// mismatch. Returns whether it matched.
    fn check(
        &mut self,
        what: &str,
        spec: &str,
        start: usize,
        len: usize,
        report: &RunReport,
    ) -> bool {
        match self.reference(spec, start, len) {
            Ok(want) if want == Tally::of(report) => true,
            Ok(want) => {
                self.errors.push(format!(
                    "{what}: {spec} over {start}..+{len} gave {:?}, in-process gave {want:?}",
                    Tally::of(report)
                ));
                false
            }
            Err(e) => {
                self.errors.push(format!("{what}: reference failed: {e}"));
                false
            }
        }
    }

    /// Run one arm; `spans` is `Some` in a traced round. Errors and
    /// mismatches are counted as failed operations, never dropped: the
    /// wall time of a failed arm is still returned.
    pub fn run(&mut self, arm: Arm, spans: Option<&mut Spans>) -> ArmRun {
        let t = Instant::now();
        let mut out = ArmRun {
            attempted: 1,
            ..ArmRun::default()
        };
        let result = match arm {
            Arm::Alg(i) => self.alg_arm(i, spans.is_some(), &mut out),
            Arm::Text => self.text_arm(&mut out),
            Arm::Report => self.report_arm(spans, &mut out),
            Arm::WireV2 => self.wire_arm(true, &mut out),
            Arm::WireV1 => self.wire_arm(false, &mut out),
            Arm::Batch => self.batch_arm(&mut out),
            Arm::Pool => self.pool_arm(&mut out),
        };
        out.wall_s = t.elapsed().as_secs_f64();
        match result {
            Ok(true) => {}
            Ok(false) => out.failed = out.failed.max(1),
            Err(e) => {
                self.errors.push(format!("{arm:?}: {e}"));
                out.failed = out.failed.max(1);
            }
        }
        out
    }

    fn alg_arm(&mut self, i: usize, traced: bool, out: &mut ArmRun) -> Result<bool, AcmrError> {
        let (spec, limit) = self.w.algs[i];
        let len = self.len(limit);
        let ctx = BuildCtx::new(&self.s.caps).with_seed(self.seed);
        let alg = self
            .registry
            .build_spec(&AlgorithmSpec::parse(spec)?, &ctx)?;
        let arrivals = self.arrivals(0, len);
        let report = if traced {
            let mut tr = AlgTrace::default();
            let timed = Timed {
                alg,
                trace: &mut tr,
                expected: len,
            };
            let mut session = Session::new(timed, &self.s.caps);
            let mut push = crate::stats::Log2Hist::default();
            let mut push_ns = 0u64;
            let mut live_max = 0usize;
            for r in arrivals {
                let r = r?;
                let t0 = Instant::now();
                session.push(&r)?;
                let ns = t0.elapsed().as_nanos() as u64;
                push.record(ns);
                push_ns += ns;
                live_max = live_max.max(session.stats().currently_accepted);
            }
            let report = session.report();
            drop(session);
            tr.push = push;
            tr.push_ns = push_ns;
            tr.live_max = live_max;
            tr.arrivals = report.requests;
            out.alg_trace = Some(tr);
            report
        } else {
            let mut session = Session::new(alg, &self.s.caps);
            session.run_stream(arrivals)?
        };
        out.work = report.requests;
        Ok(self.check("in-process mmap", spec, 0, len, &report))
    }

    fn text_arm(&mut self, out: &mut ArmRun) -> Result<bool, AcmrError> {
        let h = SERVE_SPEC;
        let parsed = AlgorithmSpec::parse(h)?;
        out.attempted = 0;
        for _ in 0..TEXT_MIN.div_ceil(self.s.arrivals.max(1)) {
            let mut session =
                Session::from_registry(&self.registry, &parsed, &self.s.caps, self.seed)?;
            let report = session.run_stream(TraceReader::open(&self.s.text)?)?;
            out.work += report.requests;
            out.attempted += 1;
            out.failed += u64::from(!self.check("text ≡ mmap", h, 0, self.s.arrivals, &report));
        }
        Ok(out.failed == 0)
    }

    /// `acmr run --stream FILE`: one run plus the two-pass OPT bound.
    /// Traced, the same work is split at the harness's public seams so
    /// the OPT scan and solve can be timed apart.
    fn report_arm(
        &mut self,
        spans: Option<&mut Spans>,
        out: &mut ArmRun,
    ) -> Result<bool, AcmrError> {
        let h = self.w.report_spec;
        let path = &self.s.report;
        let budget = BoundBudget::default();
        let report = match spans {
            None => run_report_from_path(&self.registry, h, path, self.seed, budget, None)?,
            Some(spans) => {
                let open = || acmr_workloads::open_trace(path);
                let parsed = AlgorithmSpec::parse(h)?;
                let (report, _) = spans.time("report.run", |_| {
                    let caps = &self.s.report_caps;
                    let mut session =
                        Session::from_registry(&self.registry, &parsed, caps, self.seed)?;
                    session.run_stream(open()?)
                });
                let mut report = report?;
                let (scan, scan_s) = spans.time("harness.opt.scan", |_| scan_trace(open()?));
                let scan = scan?;
                let (bound, solve_s) = spans.time("harness.opt.solve", |_| {
                    streamed_admission_opt(open()?, &scan, budget)
                });
                let bound = bound?;
                out.opt_s = Some((scan_s, solve_s));
                report.opt = Some(opt_summary(&bound, report.rejected_cost));
                report
            }
        };
        out.work = report.requests;
        let mut ok = self.report_ref.as_ref() == Some(&Tally::of(&report));
        if !ok {
            self.errors.push(format!(
                "full report: {h} gave {:?}, in-process gave {:?}",
                Tally::of(&report),
                self.report_ref
            ));
        }
        let value = report.opt.as_ref().map_or(f64::NAN, |o| o.value);
        if *self.opt_value.get_or_insert(value) != value {
            self.errors
                .push(format!("OPT bound changed between runs: {value}"));
            ok = false;
        }
        Ok(ok)
    }

    fn wire_arm(&mut self, v2: bool, out: &mut ArmRun) -> Result<bool, AcmrError> {
        let h = SERVE_SPEC;
        let len = self.len(if v2 { self.w.v2_len } else { self.w.v1_len });
        let addr = self.s.server.local_addr();
        let arrivals = self.arrivals(0, len);
        let seed = Some(self.seed);
        let report = if v2 {
            serve_trace_v2(
                addr,
                h,
                seed,
                &self.s.caps,
                arrivals,
                Some(WIRE_BATCH),
                false,
                |_| {},
            )?
        } else {
            serve_trace(
                addr,
                h,
                seed,
                &self.s.caps,
                arrivals,
                Some(WIRE_BATCH),
                |_| {},
            )?
        };
        out.work = report.requests;
        let what = if v2 {
            "served v2 ≡ in-process"
        } else {
            "served v1 ≡ in-process"
        };
        Ok(self.check(what, h, 0, len, &report))
    }

    /// One client in a closed loop: each batch is sent only after the
    /// previous one is acknowledged. A trace shorter than `BATCHES`
    /// batches is replayed again after a `RESET`, each session checked.
    fn batch_arm(&mut self, out: &mut ArmRun) -> Result<bool, AcmrError> {
        let h = SERVE_SPEC;
        let s = self.s;
        let mut client =
            ServeClient::connect_v2(s.server.local_addr(), h, Some(self.seed), &s.caps, false)?;
        let (mut sent, mut ok) = (0, true);
        loop {
            let mut len = 0;
            for chunk in s.head.chunks(BATCH).take(BATCHES - sent) {
                let t = Instant::now();
                client.push_batch_summary(chunk)?;
                out.rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
                len += chunk.len();
                sent += 1;
            }
            out.work += len;
            let report = client.end_session()?;
            ok &= self.check("closed-loop batches ≡ in-process", h, 0, len, &report);
            if sent == BATCHES {
                return Ok(ok);
            }
            client.reset(h, Some(self.seed), &[])?;
        }
    }

    fn pool_arm(&mut self, out: &mut ArmRun) -> Result<bool, AcmrError> {
        let h = SERVE_SPEC;
        let n = self.w.job_len;
        let slices = self.pool_slices();
        let counters = self.s.server.counters().clone();
        let opened = || {
            counters
                .sessions_opened
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let before = opened();
        out.attempted = 0;
        for j in 0..self.w.jobs {
            let start = (j % slices) * n;
            let slice = &self.s.head[start..(start + n).min(self.s.head.len())];
            let t = Instant::now();
            let job = self
                .s
                .pool
                .run_job(j, h, Some(self.seed), Some(WIRE_BATCH), || {
                    Ok((self.s.caps.clone(), slice.iter().cloned().map(Ok)))
                });
            out.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.attempted += 1;
            let ok = match job {
                Ok(report) => self.check(
                    "pooled slice ≡ in-process slice",
                    h,
                    start,
                    slice.len(),
                    &report,
                ),
                Err(e) => {
                    self.errors.push(format!("pool job {j}: {e}"));
                    false
                }
            };
            out.failed += u64::from(!ok);
        }
        out.sessions = opened() - before;
        out.work = self.w.jobs;
        Ok(out.failed == 0)
    }

    /// Decode the whole trace without running anything: text, buffered
    /// binary, and the memory map. Returns seconds per format and how
    /// many of the three failed.
    pub fn decode_arms(&mut self, spans: &mut Spans) -> ([f64; 3], u64) {
        let s = self.s;
        let (text, text_s) = spans.time("workloads.decode_text", |_| {
            drain(TraceReader::open(&s.text))
        });
        let (bin, bin_s) = spans.time("workloads.decode_bin_stream", |_| {
            drain(BinTraceReader::open(&s.bin))
        });
        let (map, map_s) = spans.time("workloads.decode_mmap", |_| drain(Ok(s.map.rewound())));
        let mut failed = 0;
        for (name, n) in [("text", text), ("binary", bin), ("mmap", map)] {
            let error = match n {
                Ok(n) if n == s.arrivals => continue,
                Ok(n) => format!("{name} decode: {n} of {} arrivals", s.arrivals),
                Err(e) => format!("{name} decode: {e}"),
            };
            self.errors.push(error);
            failed += 1;
        }
        ([text_s, bin_s, map_s], failed)
    }

    /// The socket-free machine arm for one dialect: encode the session's
    /// client bytes batch by batch from the public helpers (the `OPEN`
    /// handshake of `docs/SERVING.md`, `BATCH` frames or lines, `END`),
    /// and feed them to a fresh `Connection` in fixed chunks. Encoding
    /// and `feed` are timed apart inside one span, so the reactor is what
    /// the wire arm's wall time has beyond both. Returns `(encode_s,
    /// machine_s, ok)`.
    pub fn machine_arm(&mut self, v2: bool, spans: &mut Spans) -> (f64, f64, bool) {
        let len = self.len(if v2 { self.w.v2_len } else { self.w.v1_len });
        let tag = if v2 { "v2" } else { "v1" };
        let (session, _) = spans.time(format!("serve.machine_arm.{tag}"), |_| {
            self.machine_session(v2, len)
        });
        match session.map_err(|e| e.to_string()).and_then(|m| {
            let report = final_report(&m.reply, v2)?;
            Ok((m, report))
        }) {
            Ok((m, report)) => {
                let ok = self.check(
                    &format!("machine {tag} ≡ in-process"),
                    SERVE_SPEC,
                    0,
                    len,
                    &report,
                );
                (m.encode.as_secs_f64(), m.feed.as_secs_f64(), ok)
            }
            Err(e) => {
                self.errors.push(format!("machine {tag}: {e}"));
                (0.0, 0.0, false)
            }
        }
    }

    fn machine_session(&self, v2: bool, len: usize) -> Result<Machine, AcmrError> {
        let caps = &self.s.caps;
        let registry = Arc::new(acmr_harness::default_registry());
        let mut m = Machine {
            conn: Connection::new(registry, MachineConfig::default()),
            pending: Vec::new(),
            reply: Vec::new(),
            encode: Duration::ZERO,
            feed: Duration::ZERO,
        };
        let t = Instant::now();
        write!(m.pending, "OPEN {SERVE_SPEC} seed={}", self.seed)?;
        if v2 {
            write!(m.pending, " proto=v2")?;
        }
        write!(m.pending, "\nedges {}\ncaps", caps.len())?;
        for c in caps {
            write!(m.pending, " {c}")?;
        }
        writeln!(m.pending)?;
        m.encode += t.elapsed();
        let mut batch: Vec<Request> = Vec::with_capacity(WIRE_BATCH);
        let mut payload = Vec::new();
        let mut arrivals = self.arrivals(0, len).peekable();
        while arrivals.peek().is_some() {
            let t = Instant::now();
            batch.clear();
            for r in arrivals.by_ref().take(WIRE_BATCH) {
                batch.push(r?);
            }
            if v2 {
                payload.clear();
                payload.extend_from_slice(&(batch.len() as u32).to_le_bytes());
                for r in &batch {
                    encode_record_into(&mut payload, r, caps.len() as u32)?;
                }
                write_frame(&mut m.pending, FRAME_BATCH, &payload)?;
            } else {
                writeln!(m.pending, "BATCH {}", batch.len())?;
                for r in &batch {
                    write_request_line(&mut m.pending, r)?;
                }
            }
            m.encode += t.elapsed();
            m.feed_chunks(false);
        }
        let t = Instant::now();
        if v2 {
            write_frame(&mut m.pending, FRAME_END, &[])?;
        } else {
            writeln!(m.pending, "END")?;
        }
        m.encode += t.elapsed();
        m.feed_chunks(true);
        Ok(m)
    }
}

/// A protocol machine being fed a session's client bytes.
struct Machine {
    conn: Connection,
    /// Encoded client bytes not yet fed.
    pending: Vec<u8>,
    /// Everything the machine replied.
    reply: Vec<u8>,
    encode: Duration,
    /// Time inside `Connection::feed` / `feed_eof` only.
    feed: Duration,
}

impl Machine {
    /// Feed every whole `FEED_CHUNK` of pending bytes (and, at the end,
    /// the remainder and EOF), collecting the replies untimed.
    fn feed_chunks(&mut self, end: bool) {
        let whole = self.pending.len() / FEED_CHUNK * FEED_CHUNK;
        for at in (0..whole).step_by(FEED_CHUNK) {
            let t = Instant::now();
            self.conn.feed(&self.pending[at..at + FEED_CHUNK]);
            self.feed += t.elapsed();
            self.collect();
        }
        self.pending.drain(..whole);
        if end {
            let t = Instant::now();
            self.conn.feed(&self.pending);
            self.conn.feed_eof();
            self.feed += t.elapsed();
            self.pending.clear();
            self.collect();
        }
    }

    fn collect(&mut self) {
        let n = self.conn.pending_output().len();
        self.reply.extend_from_slice(self.conn.pending_output());
        self.conn.consume_output(n);
    }
}

/// The `RunReport` a machine's complete output ends with: a `REPORT`
/// line (v1), or a `REPORT` frame after the upgrading `OK` line (v2).
/// Any `ERR` is an error.
fn final_report(out: &[u8], v2: bool) -> Result<RunReport, String> {
    let bad = |m: String| Err(m);
    if !v2 {
        let text = std::str::from_utf8(out).map_err(|e| e.to_string())?;
        if let Some(err) = text.lines().find(|l| l.starts_with("ERR ")) {
            return bad(err.to_string());
        }
        let json = text
            .lines()
            .rev()
            .find_map(|l| l.strip_prefix("REPORT "))
            .ok_or("no REPORT line")?;
        return serde_json::from_str(json).map_err(|e| e.to_string());
    }
    // Greeting and `OK … proto=v2` are lines; frames follow.
    let mut rest = out;
    for _ in 0..2 {
        let nl = rest
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing handshake line")?;
        let line = String::from_utf8_lossy(&rest[..nl]);
        if line.starts_with("ERR ") {
            return bad(line.into_owned());
        }
        rest = &rest[nl + 1..];
    }
    let mut report = None;
    while rest.len() >= 5 {
        let ty = rest[0];
        let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
        let payload = rest.get(5..5 + len).ok_or("truncated frame")?;
        match ty {
            FRAME_ERR => return bad(String::from_utf8_lossy(payload).into_owned()),
            FRAME_REPORT => report = Some(payload),
            _ => {}
        }
        rest = &rest[5 + len..];
    }
    let json = std::str::from_utf8(report.ok_or("no REPORT frame")?).map_err(|e| e.to_string())?;
    serde_json::from_str(json).map_err(|e| e.to_string())
}

/// Decode every arrival of `src`, keeping none; returns the count.
fn drain<S: RequestSource>(src: Result<S, AcmrError>) -> Result<usize, AcmrError> {
    let mut n = 0;
    for r in src? {
        std::hint::black_box(r?);
        n += 1;
    }
    Ok(n)
}
