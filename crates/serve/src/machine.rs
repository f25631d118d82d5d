//! The sans-I/O protocol core: one [`Connection`] is the complete
//! per-connection `ACMR-SERVE` state machine — greeting, handshake,
//! both wire dialects (v1 lines, v2 binary frames), `STATS`, typed
//! `ERR` replies — expressed purely as *bytes in → bytes out*.
//!
//! It is one session core behind two codecs. The **line codec** turns
//! v1 lines into messages: it skips blank lines between messages,
//! parses the three handshake lines, collects the body of a `BATCH n`
//! and numbers everything by wire line. The **frame codec** does the
//! same for v2 frames: it decodes arrival records, batches and
//! `RESET` payloads, and numbers everything by frame. Both yield the
//! same messages — open, arrival, batch, `END`, `STATS`, hangup — and
//! one `apply` runs them against the session. Replies go back through
//! one writer that emits `KEYWORD payload` lines or typed frames; the
//! payload bytes are the same in both dialects.
//!
//! There are no sockets, no threads, no clocks and no blocking in
//! here (the module imports neither `std::net` nor `std::io`): the
//! caller feeds whatever bytes arrived via [`Connection::feed`],
//! signals hangup via [`Connection::feed_eof`], and ships whatever
//! [`Connection::pending_output`] holds. That inversion is what the
//! reactor in [`crate::server`] is built on — a nonblocking event
//! loop just moves bytes between sockets and machines — and what
//! makes the wire logic exhaustively testable: the fuzz suite drives
//! a `Connection` byte-at-a-time with zero processes, and the
//! differential suite replays the golden corpus through it with zero
//! sockets, pinning machine ≡ served ≡ in-memory.
//!
//! Determinism contract: a `Connection`'s output depends only on the
//! *consumed input bytes* — never on how they were chunked across
//! `feed` calls. (The one deliberate exception is the `bytes_in`
//! counter inside a `STATS` reply, which counts bytes *received*, so
//! a probe observes real transport progress.)

use crate::protocol::{
    decode_reset, encode_ok, encode_summary, error_reply_body, summarize_events, write_message,
    ConnStats, Inbox, ProtoVersion, Reply, ServerStats, StatsReport, EVENTS_TOKEN, FRAME_BATCH,
    FRAME_END, FRAME_REQ, FRAME_RESET, FRAME_STATS, GREETING, MAX_BATCH, PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, AlgorithmSpec, ArrivalEvent, Registry, Request, Session};
use acmr_workloads::binfmt::decode_record;
use acmr_workloads::trace::{parse_caps_line, parse_edges_line, parse_request_line};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Server-wide atomic counters, shared by every [`Connection`] of one
/// server (and by the reactor driving them). The machine maintains
/// the protocol-level counts (sessions, arrivals, batches, bytes,
/// errors); the driver maintains the transport-level ones
/// (connections, busy rejections, uptime).
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Milliseconds since the server started listening — refreshed by
    /// the driver (the machine has no clock; it stays `0` when a
    /// `Connection` is driven in-process, keeping test output
    /// deterministic).
    pub uptime_ms: AtomicU64,
    /// Connections accepted since start (busy-rejected ones included).
    pub connections_opened: AtomicU64,
    /// Connections currently open.
    pub connections_active: AtomicU64,
    /// Sessions opened since start (`OPEN` handshakes plus `RESET`s).
    pub sessions_opened: AtomicU64,
    /// Sessions currently live.
    pub sessions_active: AtomicU64,
    /// Arrival requests received (single `REQ`s plus batch contents).
    pub arrivals: AtomicU64,
    /// `BATCH` frames processed.
    pub batches: AtomicU64,
    /// Bytes received from clients.
    pub bytes_in: AtomicU64,
    /// Bytes produced for clients (greetings included).
    pub bytes_out: AtomicU64,
    /// Typed `ERR` replies emitted.
    pub errors: AtomicU64,
    /// Connections refused with `ERR busy` by the overload policy.
    pub busy_rejections: AtomicU64,
}

impl ServerCounters {
    /// A consistent-enough snapshot for a `STATS` reply (each counter
    /// is read atomically; the set is not a transaction — these are
    /// monitoring numbers, not ledger entries).
    pub fn snapshot(&self) -> ServerStats {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerStats {
            uptime_ms: load(&self.uptime_ms),
            connections_opened: load(&self.connections_opened),
            connections_active: load(&self.connections_active),
            sessions_opened: load(&self.sessions_opened),
            sessions_active: load(&self.sessions_active),
            arrivals: load(&self.arrivals),
            batches: load(&self.batches),
            bytes_in: load(&self.bytes_in),
            bytes_out: load(&self.bytes_out),
            errors: load(&self.errors),
            busy_rejections: load(&self.busy_rejections),
        }
    }
}

/// What a [`Connection`] shares with its server: protocol ceiling,
/// the server-wide counters, and the session id allocator. The
/// [`Default`] value (fresh counters, ids from 0, v2 allowed) is what
/// in-process tests use; the reactor hands every machine the same
/// two `Arc`s.
#[derive(Clone)]
pub struct MachineConfig {
    /// Highest protocol version to negotiate (same meaning as
    /// [`crate::ServeConfig::max_proto`]).
    pub max_proto: ProtoVersion,
    /// Server-wide counters this connection contributes to.
    pub server: Arc<ServerCounters>,
    /// Session id allocator shared across the server, so ids stay
    /// unique no matter which shard's machine opens the session.
    pub ids: Arc<AtomicU64>,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            max_proto: ProtoVersion::V2,
            server: Arc::new(ServerCounters::default()),
            ids: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// A session (re)opening, whichever dialect carried it: the v1
/// handshake's three lines, or a v2 `RESET` frame.
struct Open {
    spec: AlgorithmSpec,
    base_seed: u64,
    capacities: Vec<u32>,
    /// Acknowledge every arrival of a batch with an `EVENT` (v1, and
    /// v2 with `events=on`) instead of one `SUMMARY` per batch.
    events: bool,
    /// `proto=v2`: switch both directions to frames after the `OK`
    /// line.
    upgrade: bool,
}

/// One client message, as either codec decodes it.
enum Msg {
    Open(Open),
    Req(Request),
    /// A whole batch, decoded into the connection's reusable `batch`.
    Batch,
    End,
    Stats,
    /// The peer hung up between messages.
    Eof,
}

/// Where the line codec stands in the v1 grammar.
enum LineState {
    /// Before `OPEN`; a sessionless `STATS` probe is allowed here.
    AwaitOpen,
    AwaitEdges(Open),
    AwaitCaps(Open, usize),
    /// In a session; `Some(n)` while the body of a `BATCH n` arrives.
    Session(Option<usize>),
}

/// The live session, whichever codec feeds it.
struct Live {
    session: Session,
    capacities: Vec<u32>,
    /// Per-arrival `EVENT` acknowledgements rather than `SUMMARY`s.
    events: bool,
    /// `END` was answered: only `RESET`, `STATS` or a hangup may
    /// follow (v2; a v1 connection closes instead).
    ended: bool,
}

/// The pure per-connection protocol state machine. See the module
/// docs for the contract; see [`crate::server`] for the reactor that
/// drives one of these per socket.
///
/// ```
/// use acmr_core::{register_core, Registry};
/// use acmr_serve::machine::{Connection, MachineConfig};
/// use std::sync::Arc;
///
/// let mut registry = Registry::new();
/// register_core(&mut registry);
/// let mut conn = Connection::new(Arc::new(registry), MachineConfig::default());
/// conn.feed(b"OPEN aag-unweighted\nedges 2\ncaps 1 1\n");
/// let reply = String::from_utf8(conn.drain_output()).unwrap();
/// assert_eq!(reply, "ACMR-SERVE v1\nOK 0 aag-unweighted\n");
/// assert!(!conn.is_done());
/// ```
pub struct Connection {
    registry: Arc<Registry>,
    max_proto: ProtoVersion,
    server: Arc<ServerCounters>,
    ids: Arc<AtomicU64>,
    /// Received bytes, and the dialect both directions speak now.
    inbox: Inbox,
    lines: LineState,
    live: Option<Live>,
    /// Terminal: the reply stream is complete; the driver flushes
    /// [`Connection::pending_output`] and closes the transport.
    done: bool,
    out: Vec<u8>,
    stats: ConnStats,
    /// `(id, canonical spec)` of the live session, for the driver to
    /// mirror into the [`crate::SessionManager`].
    session_meta: Option<(u64, String)>,
    // Scratch buffers, reused across messages so the steady-state v2
    // batch path allocates nothing.
    payload: Vec<u8>,
    batch: Vec<Request>,
    events: Vec<ArrivalEvent>,
    reply: Vec<u8>,
}

impl Connection {
    /// A freshly accepted connection: the greeting is already queued
    /// in [`Connection::pending_output`].
    pub fn new(registry: Arc<Registry>, config: MachineConfig) -> Self {
        let mut conn = Connection {
            registry,
            max_proto: config.max_proto,
            server: config.server,
            ids: config.ids,
            inbox: Inbox::new(),
            lines: LineState::AwaitOpen,
            live: None,
            done: false,
            out: format!("{GREETING}\n").into_bytes(),
            stats: ConnStats::default(),
            session_meta: None,
            payload: Vec::new(),
            batch: Vec::new(),
            events: Vec::new(),
            reply: Vec::new(),
        };
        conn.count_out(0);
        conn
    }

    /// Feed bytes read from the transport and run the machine as far
    /// as they allow. Replies accumulate in
    /// [`Connection::pending_output`].
    pub fn feed(&mut self, bytes: &[u8]) {
        self.stats.bytes_in += bytes.len() as u64;
        self.server
            .bytes_in
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inbox.feed(bytes);
        self.pump();
    }

    /// Signal that the peer hung up (EOF). A hangup at a message
    /// boundary is a clean close; mid-message it is the typed
    /// truncation `ERR`.
    pub fn feed_eof(&mut self) {
        self.inbox.set_eof();
        self.pump();
    }

    /// Driver-injected failure (overload at accept, idle timeout):
    /// emits the terminal typed `ERR` in the connection's current
    /// dialect and finishes the machine. The driver should flush the
    /// output and close the transport, as after any other error.
    pub fn fail(&mut self, e: &AcmrError) {
        if self.done {
            return;
        }
        let before = self.out.len();
        self.emit_error(e);
        self.count_out(before);
    }

    /// Bytes queued for the peer; ship some and acknowledge with
    /// [`Connection::consume_output`].
    pub fn pending_output(&self) -> &[u8] {
        &self.out
    }

    /// Drop the first `n` queued output bytes (they were written to
    /// the transport).
    pub fn consume_output(&mut self, n: usize) {
        self.out.drain(..n);
    }

    /// Take all queued output at once — the in-process driving mode
    /// tests use.
    pub fn drain_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.out)
    }

    /// Terminal: every reply is queued; once
    /// [`Connection::pending_output`] is shipped the transport should
    /// be closed (with the usual drain-before-close courtesy).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// This connection's own counters.
    pub fn stats(&self) -> &ConnStats {
        &self.stats
    }

    /// `(id, canonical spec)` of the live session, if a handshake (or
    /// `RESET`) has completed — what the driver mirrors into the
    /// session table.
    pub fn session(&self) -> Option<(u64, &str)> {
        self.session_meta
            .as_ref()
            .map(|(id, spec)| (*id, spec.as_str()))
    }

    /// The `STATS` reply this connection would send right now.
    pub fn stats_report(&self) -> StatsReport {
        StatsReport {
            server: self.server.snapshot(),
            connection: self.stats.clone(),
        }
    }

    // -- internals ---------------------------------------------------------

    /// Add everything appended to `out` since `before` to the byte
    /// counters. Called at the public entry points, so internal steps
    /// can append freely.
    fn count_out(&mut self, before: usize) {
        let delta = (self.out.len() - before) as u64;
        self.stats.bytes_out += delta;
        self.server.bytes_out.fetch_add(delta, Ordering::Relaxed);
    }

    fn count_arrivals(&mut self, n: usize) {
        self.stats.arrivals += n as u64;
        self.server.arrivals.fetch_add(n as u64, Ordering::Relaxed);
    }

    fn alloc_session(&mut self, canonical: String) -> u64 {
        self.release_session();
        let id = self.ids.fetch_add(1, Ordering::Relaxed);
        self.stats.sessions += 1;
        self.server.sessions_opened.fetch_add(1, Ordering::Relaxed);
        self.server.sessions_active.fetch_add(1, Ordering::Relaxed);
        self.session_meta = Some((id, canonical));
        id
    }

    /// Idempotent: drop the live-session gauge contribution (on
    /// `RESET` replacement, on finish, and on drop).
    fn release_session(&mut self) {
        if self.session_meta.take().is_some() {
            self.server.sessions_active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Emit the terminal typed `ERR` in the current dialect and
    /// finish.
    fn emit_error(&mut self, e: &AcmrError) {
        self.stats.errors += 1;
        self.server.errors.fetch_add(1, Ordering::Relaxed);
        // The body is tiny, so the only write error (an oversized
        // frame) cannot happen; swallow rather than recurse.
        let _ = self.reply(Reply::Err, error_reply_body(e).as_bytes());
        self.finish();
    }

    fn finish(&mut self) {
        self.release_session();
        self.live = None;
        self.done = true;
    }

    /// Decode and apply messages until the machine needs more input
    /// (or finished).
    fn pump(&mut self) {
        let before = self.out.len();
        while !self.done {
            let step = match self.decode() {
                Ok(Some((at, msg))) => self.apply(at, msg),
                Ok(None) => break,
                Err(e) => Err(e),
            };
            if let Err(e) = step {
                self.emit_error(&e);
            }
        }
        self.count_out(before);
    }

    /// The next complete message and its wire number (line or frame),
    /// or `None` until more input arrives.
    fn decode(&mut self) -> Result<Option<(usize, Msg)>, AcmrError> {
        match self.inbox.proto {
            ProtoVersion::V1 => self.decode_line(),
            ProtoVersion::V2 => self.decode_frame(),
        }
    }

    /// The line codec.
    fn decode_line(&mut self) -> Result<Option<(usize, Msg)>, AcmrError> {
        let num_edges = self.live.as_ref().map_or(0, |live| live.capacities.len());
        loop {
            let Some((ln, line)) = self.inbox.lines.next_line()? else {
                if !self.inbox.lines.is_eof() {
                    return Ok(None);
                }
                // A missing line is reported at the number it would
                // have had.
                let next = self.inbox.lines.line_number() + 1;
                let closed = |what: String| AcmrError::TraceParse {
                    line: next,
                    message: format!("connection closed {what}"),
                };
                return match &self.lines {
                    LineState::AwaitEdges(_) => Err(closed("before `edges`".into())),
                    LineState::AwaitCaps(..) => Err(closed("before `caps`".into())),
                    LineState::Session(Some(n)) => Err(closed(format!(
                        "mid-batch ({} of {n} requests)",
                        self.batch.len()
                    ))),
                    _ => Ok(Some((next, Msg::Eof))),
                };
            };
            let parse_err = |message: String| AcmrError::TraceParse { line: ln, message };
            // An error ends the connection, so the state taken here
            // only needs putting back on success.
            let (state, msg) = match (
                std::mem::replace(&mut self.lines, LineState::AwaitOpen),
                line,
            ) {
                // Inside a batch every line is a request line — blanks
                // are data here, not separators.
                (LineState::Session(Some(n)), line) => {
                    self.batch.push(parse_request_line(ln, line, num_edges)?);
                    if self.batch.len() < n {
                        (LineState::Session(Some(n)), None)
                    } else {
                        (LineState::Session(None), Some(Msg::Batch))
                    }
                }
                (state, "") => (state, None),
                (state @ (LineState::AwaitOpen | LineState::Session(None)), "STATS") => {
                    (state, Some(Msg::Stats))
                }
                (LineState::AwaitOpen, line) => (
                    LineState::AwaitEdges(parse_open(ln, line, self.max_proto)?),
                    None,
                ),
                (LineState::AwaitEdges(open), line) => (
                    LineState::AwaitCaps(open, parse_edges_line(ln, line)?),
                    None,
                ),
                (LineState::AwaitCaps(mut open, m), line) => {
                    open.capacities = parse_caps_line(ln, line, m)?;
                    (LineState::Session(None), Some(Msg::Open(open)))
                }
                (state, "END") => (state, Some(Msg::End)),
                (state, line) => match line.strip_prefix("BATCH") {
                    Some(count) => {
                        let n: usize = count.trim().parse().map_err(|_| {
                            parse_err(format!("expected `BATCH <n>`, got {line:?}"))
                        })?;
                        if n > MAX_BATCH {
                            return Err(parse_err(format!(
                                "BATCH {n} exceeds the {MAX_BATCH}-request frame cap"
                            )));
                        }
                        self.batch.clear();
                        // An empty batch applies nothing and replies
                        // nothing.
                        (LineState::Session((n > 0).then_some(n)), None)
                    }
                    None => (
                        state,
                        Some(Msg::Req(parse_request_line(ln, line, num_edges)?)),
                    ),
                },
            };
            self.lines = state;
            if let Some(msg) = msg {
                return Ok(Some((ln, msg)));
            }
        }
    }

    /// The frame codec.
    fn decode_frame(&mut self) -> Result<Option<(usize, Msg)>, AcmrError> {
        let frames = &mut self.inbox.frames;
        let Some(ty) = frames.next_frame(&mut self.payload)? else {
            // Hangup at a frame boundary: clean close.
            return Ok(frames.is_eof().then_some((frames.frame_number(), Msg::Eof)));
        };
        let fno = frames.frame_number();
        let frame_err = |message: String| AcmrError::TraceParse { line: fno, message };
        let live = self.live.as_ref().expect("frames follow a v2 handshake");
        let num_edges = live.capacities.len() as u32;
        let payload = &self.payload[..];
        let msg = match ty {
            FRAME_REQ | FRAME_BATCH | FRAME_END if live.ended => {
                return Err(frame_err(
                    "session already ended: only RESET (or hangup) may follow END".into(),
                ));
            }
            FRAME_REQ => {
                let (request, end) = decode_record(payload, 0, fno, num_edges)?;
                if end != payload.len() {
                    return Err(frame_err(format!(
                        "{} trailing bytes after the REQ record",
                        payload.len() - end
                    )));
                }
                Msg::Req(request)
            }
            FRAME_BATCH => {
                decode_batch_into(payload, fno, num_edges, &mut self.batch)?;
                Msg::Batch
            }
            FRAME_END | FRAME_STATS if !payload.is_empty() => {
                let what = if ty == FRAME_END { "END" } else { "STATS" };
                return Err(frame_err(format!("{what} frame carries a payload")));
            }
            FRAME_END => Msg::End,
            FRAME_STATS => Msg::Stats,
            FRAME_RESET => {
                let reset = decode_reset(payload).map_err(|e| match e {
                    AcmrError::TraceParse { message, .. } => frame_err(message),
                    other => other,
                })?;
                // Empty capacities keep the current edge universe.
                let capacities = if reset.capacities.is_empty() {
                    live.capacities.clone()
                } else {
                    reset.capacities
                };
                Msg::Open(Open {
                    spec: AlgorithmSpec::parse(&reset.spec)?,
                    base_seed: reset.base_seed.unwrap_or(0),
                    capacities,
                    events: live.events,
                    upgrade: false,
                })
            }
            other => return Err(frame_err(format!("unexpected frame type 0x{other:02x}"))),
        };
        Ok(Some((fno, msg)))
    }

    /// Run one message against the session core; `at` is its wire
    /// number.
    fn apply(&mut self, at: usize, msg: Msg) -> Result<(), AcmrError> {
        match msg {
            Msg::Eof => self.finish(),
            Msg::Stats => {
                let report = self.stats_report();
                self.reply_json(Reply::Stats, &report)?;
            }
            Msg::Open(open) => self.open(at, open)?,
            Msg::Req(request) => {
                self.count_arrivals(1);
                let event = self.live_mut().session.push(&request)?;
                self.reply_json(Reply::Event, &event)?;
            }
            Msg::Batch => self.apply_batch()?,
            Msg::End => {
                let live = self.live_mut();
                live.ended = true;
                let report = live.session.report();
                self.reply_json(Reply::Report, &report)?;
                // v1 has no RESET: its session ends with the
                // connection.
                if self.inbox.proto == ProtoVersion::V1 {
                    self.finish();
                }
            }
        }
        Ok(())
    }

    fn live_mut(&mut self) -> &mut Live {
        self.live
            .as_mut()
            .expect("the codecs yield arrivals and END only in a session")
    }

    /// Open a session — `OPEN` and `RESET` alike — and acknowledge it
    /// with `OK`. A `proto=v2` handshake switches the connection to
    /// frames right after the `OK` line, carrying over any frame bytes
    /// a pipelining client already sent.
    fn open(&mut self, at: usize, open: Open) -> Result<(), AcmrError> {
        if open.capacities.contains(&0) {
            return Err(AcmrError::TraceParse {
                line: at,
                message: "capacities must be positive".into(),
            });
        }
        let session =
            Session::from_registry(&self.registry, &open.spec, &open.capacities, open.base_seed)?;
        let canonical = open.spec.canonical();
        let id = self.alloc_session(canonical.clone());
        self.live = Some(Live {
            session,
            capacities: open.capacities,
            events: open.events,
            ended: false,
        });
        let proto = self.inbox.proto;
        self.reply_with(Reply::Ok, |buf| match proto {
            ProtoVersion::V1 => {
                buf.extend_from_slice(format!("{id} {canonical}").as_bytes());
                if open.upgrade {
                    buf.extend_from_slice(format!(" {PROTO_V2_TOKEN}").as_bytes());
                }
            }
            ProtoVersion::V2 => encode_ok(buf, id, &canonical),
        })?;
        if open.upgrade {
            self.inbox.upgrade();
        }
        Ok(())
    }

    /// Apply the decoded batch. A mid-batch contract violation still
    /// acknowledges the arrivals applied before it (events, or a
    /// summary whose `n` counts only that prefix), then raises the
    /// `ERR`.
    fn apply_batch(&mut self) -> Result<(), AcmrError> {
        self.stats.batches += 1;
        self.server.batches.fetch_add(1, Ordering::Relaxed);
        self.count_arrivals(self.batch.len());
        let live = self
            .live
            .as_mut()
            .expect("batches arrive only in a session");
        let per_event = live.events;
        let applied = live.session.push_batch_into(&self.batch, &mut self.events);
        let events = std::mem::take(&mut self.events);
        let acked = if per_event {
            events
                .iter()
                .try_for_each(|event| self.reply_json(Reply::Event, event))
        } else {
            self.reply_with(Reply::Summary, |buf| {
                encode_summary(buf, &summarize_events(&events))
            })
        };
        self.events = events;
        acked.and(applied)
    }

    /// Queue one reply in the connection's current dialect.
    fn reply(&mut self, kind: Reply, payload: &[u8]) -> Result<(), AcmrError> {
        write_message(
            &mut self.out,
            self.inbox.proto,
            kind.keyword(),
            kind.frame(),
            payload,
        )
    }

    fn reply_json(&mut self, kind: Reply, value: &impl Serialize) -> Result<(), AcmrError> {
        let json = serde_json::to_string(value).map_err(|e| AcmrError::Io {
            message: format!("cannot serialize {}: {e}", kind.keyword().to_lowercase()),
        })?;
        self.reply(kind, json.as_bytes())
    }

    /// [`Connection::reply`] with a payload encoded into the reused
    /// scratch buffer.
    fn reply_with(
        &mut self,
        kind: Reply,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), AcmrError> {
        let mut payload = std::mem::take(&mut self.reply);
        payload.clear();
        encode(&mut payload);
        let wrote = self.reply(kind, &payload);
        self.reply = payload;
        wrote
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A connection torn down mid-session (reactor shutdown) must
        // not leave the server-wide live-session gauge elevated.
        self.release_session();
    }
}

/// Parse `OPEN <spec> [seed=<S>] [proto=v2 [events=on]]` — the exact
/// grammar (and error wording) of the serving spec.
fn parse_open(ln: usize, line: &str, max_proto: ProtoVersion) -> Result<Open, AcmrError> {
    let proto_err = |message: String| AcmrError::TraceParse { line: ln, message };
    let mut toks = line.split_whitespace();
    if toks.next() != Some("OPEN") {
        return Err(proto_err(format!(
            "expected `OPEN <spec> [seed=<S>]`, got {line:?}"
        )));
    }
    let spec_str = toks
        .next()
        .ok_or_else(|| proto_err("OPEN is missing an algorithm spec".into()))?;
    let mut open = Open {
        spec: AlgorithmSpec::parse(spec_str)?,
        base_seed: 0,
        capacities: Vec::new(),
        events: false,
        upgrade: false,
    };
    for tok in toks {
        if let Some(seed) = tok.strip_prefix("seed=").and_then(|s| s.parse().ok()) {
            open.base_seed = seed;
            continue;
        }
        // A v1-capped server answers `proto=v2` with this same typed
        // parse error — the deterministic downgrade signal the v2
        // client turns into "use --proto v1 against this fleet".
        if max_proto == ProtoVersion::V2 && tok == PROTO_V2_TOKEN {
            open.upgrade = true;
            continue;
        }
        if max_proto == ProtoVersion::V2 && tok == EVENTS_TOKEN {
            open.events = true;
            continue;
        }
        let allowed = match max_proto {
            ProtoVersion::V1 => "only seed=<S> is allowed",
            ProtoVersion::V2 => "seed=<S>, proto=v2 and events=on are allowed",
        };
        return Err(proto_err(format!(
            "unexpected OPEN argument {tok:?} ({allowed})"
        )));
    }
    if open.events && !open.upgrade {
        return Err(proto_err(
            "events=on requires proto=v2 (v1 always streams events)".into(),
        ));
    }
    // v1 always streams events.
    open.events |= !open.upgrade;
    Ok(open)
}

/// Decode a `BATCH` frame payload (`u32le` count, then that many
/// ACMR-TRACE v2 records back to back) into `batch`; returns the
/// declared count. Shares the byte-level record decoder with the
/// binary trace file reader.
pub(crate) fn decode_batch_into(
    payload: &[u8],
    frame: usize,
    num_edges: u32,
    batch: &mut Vec<Request>,
) -> Result<usize, AcmrError> {
    let frame_err = |message: String| AcmrError::TraceParse {
        line: frame,
        message,
    };
    let count = payload
        .get(..4)
        .ok_or_else(|| frame_err("BATCH frame shorter than its 4-byte count".into()))?;
    let n = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
    if n > MAX_BATCH {
        return Err(frame_err(format!(
            "BATCH {n} exceeds the {MAX_BATCH}-request frame cap"
        )));
    }
    batch.clear();
    let mut at = 4;
    for i in 0..n {
        let (request, next) = decode_record(payload, at, i, num_edges).map_err(|e| match e {
            AcmrError::TraceParse { message, .. } => {
                frame_err(format!("batch record {i}: {message}"))
            }
            other => other,
        })?;
        batch.push(request);
        at = next;
    }
    if at != payload.len() {
        return Err(frame_err(format!(
            "{} trailing bytes after {n} batch records",
            payload.len() - at
        )));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{encode_reset, write_frame, FRAME_ERR, FRAME_OK, FRAME_REPORT};
    use acmr_harness::default_registry;

    fn conn() -> Connection {
        Connection::new(Arc::new(default_registry()), MachineConfig::default())
    }

    fn text(conn: &mut Connection) -> String {
        String::from_utf8(conn.drain_output()).unwrap()
    }

    #[test]
    fn v1_session_runs_to_report() {
        let mut c = conn();
        c.feed(b"OPEN greedy\nedges 2\ncaps 1 1\n");
        let reply = text(&mut c);
        assert_eq!(reply, "ACMR-SERVE v1\nOK 0 greedy\n");
        c.feed(b"2 0\nEND\n");
        let reply = text(&mut c);
        assert!(reply.starts_with("EVENT {"), "{reply}");
        assert!(reply.contains("REPORT {"), "{reply}");
        assert!(c.is_done());
        assert_eq!(c.stats().arrivals, 1);
        assert_eq!(c.stats().sessions, 1);
    }

    #[test]
    fn hangup_before_open_is_clean_but_mid_handshake_is_typed() {
        let mut c = conn();
        c.feed_eof();
        assert!(c.is_done());
        assert_eq!(text(&mut c), "ACMR-SERVE v1\n"); // no ERR

        let mut c = conn();
        c.feed(b"OPEN greedy\n");
        c.feed_eof();
        let reply = text(&mut c);
        assert!(reply.contains("ERR parse"), "{reply}");
        assert!(
            reply.contains("connection closed before `edges`"),
            "{reply}"
        );
    }

    #[test]
    fn driver_injected_busy_is_a_typed_line_error() {
        let mut c = conn();
        c.fail(&AcmrError::Busy {
            message: "accept queue full (1024 connections)".into(),
        });
        assert!(c.is_done());
        let reply = text(&mut c);
        assert!(reply.contains("ERR busy"), "{reply}");
        assert_eq!(c.stats().errors, 1);
    }

    #[test]
    fn stats_probe_needs_no_session() {
        let mut c = conn();
        c.feed(b"STATS\n");
        let reply = text(&mut c);
        let json = reply
            .lines()
            .find_map(|l| l.strip_prefix("STATS "))
            .expect("stats line");
        let report: StatsReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.server.uptime_ms, 0);
        assert_eq!(report.connection.sessions, 0);
        assert!(report.connection.bytes_in >= "STATS\n".len() as u64);
        assert!(!c.is_done()); // probe may still OPEN afterwards
    }

    #[test]
    fn output_is_chunking_invariant() {
        let script =
            b"OPEN greedy seed=7\nedges 3\ncaps 2 1 2\n1.5 0 1\nBATCH 2\n2 1\n3 0 2\nEND\n";
        let mut whole = conn();
        whole.feed(script);
        whole.feed_eof();
        let expected = whole.drain_output();
        for chunk in [1usize, 2, 3, 5] {
            let mut c = conn();
            for piece in script.chunks(chunk) {
                c.feed(piece);
            }
            c.feed_eof();
            assert_eq!(c.drain_output(), expected, "chunk size {chunk}");
        }
        assert!(whole.is_done());
    }

    #[test]
    fn v2_upgrade_switches_to_frames_and_resets_reopen() {
        let mut c = conn();
        c.feed(b"OPEN greedy proto=v2\nedges 2\ncaps 1 1\n");
        let reply = text(&mut c);
        assert!(reply.ends_with("OK 0 greedy proto=v2\n"), "{reply}");
        assert_eq!(c.session().map(|(id, _)| id), Some(0));
        // END → REPORT frame; RESET → OK frame with a fresh id.
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        let mut reset = Vec::new();
        encode_reset(&mut reset, "greedy", None, &[]);
        write_frame(&mut wire, FRAME_RESET, &reset).unwrap();
        c.feed(&wire);
        let reply = c.drain_output();
        assert_eq!(reply[0], FRAME_REPORT);
        let report_len = u32::from_le_bytes(reply[1..5].try_into().unwrap()) as usize;
        assert_eq!(reply[5 + report_len], FRAME_OK);
        assert_eq!(c.session().map(|(id, _)| id), Some(1));
        assert_eq!(c.stats().sessions, 2);
        c.feed_eof();
        assert!(c.is_done());
    }

    #[test]
    fn reset_refuses_zero_capacities_like_the_handshake() {
        let mut v1 = conn();
        v1.feed(b"OPEN greedy\nedges 2\ncaps 0 1\n");
        let line = text(&mut v1);
        let line_err = line.lines().last().unwrap().strip_prefix("ERR ").unwrap();

        let mut v2 = conn();
        v2.feed(b"OPEN greedy proto=v2\nedges 2\ncaps 1 1\n");
        v2.drain_output();
        let mut wire = Vec::new();
        let mut reset = Vec::new();
        encode_reset(&mut reset, "greedy", None, &[0, 1]);
        write_frame(&mut wire, FRAME_RESET, &reset).unwrap();
        v2.feed(&wire);
        let reply = v2.drain_output();
        assert_eq!(reply[0], FRAME_ERR, "RESET with capacity 0 must be refused");
        let frame_err = std::str::from_utf8(&reply[5..]).unwrap();
        assert!(v2.is_done());
        // Same typed error, numbered by the caps line and the frame.
        assert!(line_err.starts_with("parse "), "{line_err}");
        assert_eq!(
            frame_err.replace("line 1:", "line 3:"),
            line_err,
            "RESET and caps disagree"
        );
    }
}
