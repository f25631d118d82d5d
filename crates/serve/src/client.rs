//! The matching client: a typed handle over one `ACMR-SERVE` session
//! (v1 lines or v2 binary frames), plus the trace-replay conveniences
//! `acmr client` uses.
//!
//! The client mirrors the [`acmr_core::Session`] surface on purpose —
//! [`ServeClient::push`] and [`ServeClient::push_batch`] return the
//! same audited [`ArrivalEvent`]s the in-process session would, so
//! swapping a local session for a remote one is a one-line change and
//! the differential suite can pin *served ≡ streamed ≡ in-memory*
//! event for event.
//!
//! Protocol v2 ([`ServeClient::connect_v2`]) keeps that surface but
//! changes the wire: arrivals travel as ACMR-TRACE v2 record bytes in
//! length-prefixed frames, batches acknowledge with one
//! [`BatchSummary`] unless the session opted into per-arrival events,
//! and [`ServeClient::reset`] reuses the connection for a fresh
//! session — the persistent-session mechanism
//! [`crate::pool::WorkerPool`] builds on.
//!
//! Both dialects share one path: each call writes its request in the
//! session's codec, then reads the one reply kind it expects through
//! the same push-fed line and frame buffers the server's machine uses
//! (filled from the socket in large reads), so the switch to frames
//! after a `proto=v2` handshake happens in one place.

use crate::protocol::{
    decode_error_reply, decode_ok, decode_summary, encode_reset, write_frame, write_message,
    BatchSummary, Inbox, ProtoVersion, Reply, StatsReport, EVENTS_TOKEN, FRAME_BATCH, FRAME_END,
    FRAME_ERR, FRAME_REQ, FRAME_RESET, FRAME_STATS, GREETING, MAX_BATCH, PROTO_V2_TOKEN,
};
use acmr_core::{AcmrError, ArrivalEvent, Request, RunReport};
use acmr_workloads::binfmt::encode_record_into;
use acmr_workloads::trace::{write_request_line, CHUNK_SIZE};
use serde::Deserialize;
use std::io::{BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One live session against an `acmr serve` endpoint.
///
/// ```no_run
/// use acmr_core::Request;
/// use acmr_graph::{EdgeId, EdgeSet};
/// use acmr_serve::ServeClient;
///
/// // A server is listening (e.g. `acmr serve --addr 127.0.0.1:4790`).
/// let mut client = ServeClient::connect(
///     "127.0.0.1:4790",
///     "aag-weighted?seed=7",
///     None,       // base seed (spec seed wins anyway)
///     &[1, 1],    // edge capacities, exactly as for a local Session
/// )?;
/// let event = client.push(&Request::unit(EdgeSet::singleton(EdgeId(0))))?;
/// assert!(event.accepted);
/// let report = client.finish()?; // END → final RunReport
/// assert_eq!(report.requests, 1);
/// # Ok::<(), acmr_core::AcmrError>(())
/// ```
pub struct ServeClient {
    /// The read half; replies land in `inbox` in large reads.
    stream: TcpStream,
    /// Received bytes, and the dialect the session speaks.
    inbox: Inbox,
    chunk: Vec<u8>,
    writer: BufWriter<TcpStream>,
    session_id: u64,
    spec: String,
    /// Batches are acknowledged per arrival (v1, and v2 with
    /// `events=on`) rather than by one `SUMMARY`.
    events: bool,
    /// Edge-universe size, needed to encode v2 arrival records.
    num_edges: u32,
    /// Reusable reply-payload buffer (v2 frames).
    scratch: Vec<u8>,
    /// Reusable outgoing-payload buffer (v2 frames).
    out: Vec<u8>,
}

impl ServeClient {
    /// Connect to `addr` and open a v1 (line-protocol) session running
    /// `spec` over the given edge capacities. `base_seed` feeds
    /// randomized algorithms unless the spec carries its own `seed=`
    /// (exactly like [`acmr_core::Session::from_registry`]).
    pub fn connect(
        addr: impl ToSocketAddrs,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<Self, AcmrError> {
        let stream = connect_stream(addr)?;
        ServeClient::open(stream, spec, base_seed, capacities, ProtoVersion::V1, false)
    }

    /// [`ServeClient::connect`] negotiating protocol v2: binary
    /// frames, record-byte arrivals, batch-summary acknowledgements
    /// (per-arrival events with `events: true`), and
    /// [`ServeClient::reset`] for session reuse. A v1-only server
    /// answers the negotiation with its typed `ERR parse` reply —
    /// surfaced here as that error, never a hang.
    pub fn connect_v2(
        addr: impl ToSocketAddrs,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
        events: bool,
    ) -> Result<Self, AcmrError> {
        let stream = connect_stream(addr)?;
        ServeClient::open(
            stream,
            spec,
            base_seed,
            capacities,
            ProtoVersion::V2,
            events,
        )
    }

    /// The one handshake, over an already-established TCP stream:
    /// greeting, `OPEN` (with the v2 negotiation tokens when asked),
    /// `edges`/`caps`, `OK` — then, for v2, the switch to frames.
    /// [`crate::pool::WorkerPool`] calls it directly so it can tell
    /// *connection* failures (the worker process is gone — quarantine
    /// the slot) from handshake and session failures (maybe transient
    /// — retry elsewhere) by owning the `TcpStream::connect` step.
    pub(crate) fn open(
        stream: TcpStream,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
        proto: ProtoVersion,
        events: bool,
    ) -> Result<Self, AcmrError> {
        let mut client = ServeClient::greet(stream)?;
        let w = &mut client.writer;
        write!(w, "OPEN {spec}")?;
        if let Some(seed) = base_seed {
            write!(w, " seed={seed}")?;
        }
        if proto == ProtoVersion::V2 {
            write!(w, " {PROTO_V2_TOKEN}")?;
            if events {
                write!(w, " {EVENTS_TOKEN}")?;
            }
        }
        writeln!(w)?;
        writeln!(w, "edges {}", capacities.len())?;
        write!(w, "caps")?;
        for c in capacities {
            write!(w, " {c}")?;
        }
        writeln!(w)?;
        w.flush()?;

        let ok = std::str::from_utf8(client.read_reply(Reply::Ok)?)
            .map_err(|e| proto_error(format!("malformed OK reply: {e}")))?;
        let mut toks = ok.split_whitespace();
        let session_id = toks
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| proto_error(format!("malformed OK reply {ok:?}")))?;
        let echoed = toks.next().unwrap_or(spec).to_string();
        if proto == ProtoVersion::V2 {
            if !toks.any(|t| t == PROTO_V2_TOKEN) {
                return Err(proto_error(format!(
                    "server accepted the session but did not acknowledge {PROTO_V2_TOKEN} \
                     (reply {ok:?})"
                )));
            }
            client.inbox.upgrade();
        }
        client.session_id = session_id;
        client.spec = echoed;
        client.events = proto == ProtoVersion::V1 || events;
        client.num_edges = capacities.len() as u32;
        Ok(client)
    }

    /// Wrap an established stream and read the server's greeting.
    fn greet(stream: TcpStream) -> Result<Self, AcmrError> {
        // Frames are small and latency-bound; Nagle would trade the
        // per-decision round trip for nothing.
        let _ = stream.set_nodelay(true);
        let write_half = stream.try_clone().map_err(|e| AcmrError::Io {
            message: format!("cannot clone socket: {e}"),
        })?;
        let mut client = ServeClient {
            stream,
            inbox: Inbox::new(),
            chunk: vec![0; CHUNK_SIZE],
            writer: BufWriter::new(write_half),
            session_id: 0,
            spec: String::new(),
            events: true,
            num_edges: 0,
            scratch: Vec::new(),
            out: Vec::new(),
        };
        let greeting = client.next_line()?;
        if greeting != GREETING {
            return Err(proto_error(format!(
                "unexpected greeting {greeting:?} (expected {GREETING:?})"
            )));
        }
        Ok(client)
    }

    /// The server-assigned session id (updated by
    /// [`ServeClient::reset`]).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// The canonical spec the server echoed in its `OK` reply.
    pub fn spec(&self) -> &str {
        &self.spec
    }

    /// Which protocol this session negotiated.
    pub fn proto(&self) -> ProtoVersion {
        self.inbox.proto
    }

    /// Send one arrival and wait for its audited decision — the remote
    /// twin of [`acmr_core::Session::push`]. Single arrivals stream an
    /// `EVENT` in both protocols and both v2 acknowledgement modes.
    pub fn push(&mut self, request: &Request) -> Result<ArrivalEvent, AcmrError> {
        match self.inbox.proto {
            ProtoVersion::V1 => write_request_line(&mut self.writer, request)?,
            ProtoVersion::V2 => {
                self.out.clear();
                encode_record_into(&mut self.out, request, self.num_edges)
                    .map_err(invalid_request)?;
                write_frame(&mut self.writer, FRAME_REQ, &self.out)?;
            }
        }
        self.writer.flush()?;
        self.read_json(Reply::Event)
    }

    /// Send a `BATCH n` frame and wait for its `n` decisions — the
    /// remote twin of [`acmr_core::Session::push_batch`]. On a
    /// mid-batch error the events the server delivered before the
    /// `ERR` are dropped with the buffer; use
    /// [`ServeClient::push_batch_into`] to keep them (mirroring the
    /// core `push_batch` / `push_batch_into` pair). `batch` must not
    /// exceed [`crate::protocol::MAX_BATCH`] — callers that chunk an
    /// unbounded stream should clamp to it, as [`serve_trace`] does.
    pub fn push_batch(&mut self, batch: &[Request]) -> Result<Vec<ArrivalEvent>, AcmrError> {
        let mut events = Vec::with_capacity(batch.len());
        self.push_batch_into(batch, &mut events)?;
        Ok(events)
    }

    /// [`ServeClient::push_batch`] writing into a caller-owned buffer.
    /// `events` is cleared first; on success it holds one event per
    /// request, and on a mid-batch failure it holds the events the
    /// server delivered before its terminal `ERR` — the wire keeps the
    /// protocol's promise (`docs/SERVING.md`) that arrivals applied
    /// before a violation are still reported, and this method keeps it
    /// for the caller.
    ///
    /// Requires per-arrival events: v1 always streams them; a v2
    /// session must have negotiated `events=on` ([`ServeClient::
    /// connect_v2`] with `events: true`) — a summary-mode session gets
    /// a typed error pointing at [`ServeClient::push_batch_summary`].
    pub fn push_batch_into(
        &mut self,
        batch: &[Request],
        events: &mut Vec<ArrivalEvent>,
    ) -> Result<(), AcmrError> {
        events.clear();
        if !self.events {
            return Err(proto_error(
                "this v2 session negotiated summary acknowledgements; \
                 use push_batch_summary (or connect with events=on)"
                    .into(),
            ));
        }
        self.write_batch(batch)?;
        self.writer.flush()?;
        events.reserve(batch.len());
        for _ in 0..batch.len() {
            events.push(self.read_json(Reply::Event)?);
        }
        Ok(())
    }

    /// v2, summary mode: send one `BATCH` frame and wait for its
    /// single [`BatchSummary`] acknowledgement — the cheap ack that
    /// makes batched replay one reply frame per batch instead of one
    /// per arrival. On a mid-batch violation the summary covers the
    /// applied prefix and the terminal `ERR` follows as the returned
    /// error on the *next* call (the server answers prefix-summary
    /// then `ERR`; this method surfaces whichever frame arrives
    /// first). Typed error on sessions that stream events (v1, and v2
    /// with `events=on`).
    pub fn push_batch_summary(&mut self, batch: &[Request]) -> Result<BatchSummary, AcmrError> {
        if self.events {
            return Err(proto_error(
                "this session streams per-arrival events (v1, or v2 with events=on); \
                 use push_batch_into"
                    .into(),
            ));
        }
        self.write_batch(batch)?;
        self.writer.flush()?;
        self.read_batch_summary()
    }

    /// v2 only: start a fresh session on the same connection — new
    /// algorithm `spec`, new seed, new capacities (empty `capacities`
    /// keeps the current edge universe). The previous session must
    /// have ended (a `RESET` is also accepted mid-session, aborting
    /// it). Returns the new server-assigned session id; the canonical
    /// spec is re-read from the server's `OK` frame. This is what lets
    /// a [`crate::pool::WorkerPool`] slot serve many jobs over one
    /// connection instead of paying a TCP + handshake round trip per
    /// job.
    pub fn reset(
        &mut self,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<u64, AcmrError> {
        self.write_reset(spec, base_seed, capacities)?;
        self.writer.flush()?;
        self.read_reset_ok()
    }

    /// Ask the server for its counters: one [`StatsReport`] pairing
    /// the server-wide totals with this connection's own tallies.
    /// Works mid-session in both protocols (v1 sends the `STATS`
    /// line, v2 the `STATS` frame) and never perturbs the session —
    /// for a sessionless probe of a remote server, see [`fetch_stats`].
    pub fn stats(&mut self) -> Result<StatsReport, AcmrError> {
        self.write_bare("STATS", FRAME_STATS)?;
        self.writer.flush()?;
        self.read_json(Reply::Stats)
    }

    /// End the session: the server replies with the final
    /// [`RunReport`] (no offline-optimum context — a live session
    /// cannot see the future; replay the saved trace through `acmr
    /// run` for bounds) and the connection closes with the client.
    pub fn finish(mut self) -> Result<RunReport, AcmrError> {
        self.end_session()
    }

    /// [`ServeClient::finish`] without closing the connection — the
    /// session ends and its report comes back, but the client stays
    /// usable: a v2 session can start the next job on the same
    /// connection via [`ServeClient::reset`] (a v1 server closes its
    /// side after the report regardless, so v1 callers should prefer
    /// [`ServeClient::finish`]).
    pub fn end_session(&mut self) -> Result<RunReport, AcmrError> {
        self.write_bare("END", FRAME_END)?;
        self.writer.flush()?;
        self.read_json(Reply::Report)
    }

    // ---- write half (buffered; pipelined callers flush once) ----

    /// Queue one batch: `BATCH n` and n request lines, or one `BATCH`
    /// frame (`u32le` count + that many ACMR-TRACE v2 records). A
    /// batch over [`MAX_BATCH`] is refused before a byte is written.
    /// Buffered — does not flush.
    pub(crate) fn write_batch(&mut self, batch: &[Request]) -> Result<(), AcmrError> {
        if batch.len() > MAX_BATCH {
            return Err(AcmrError::InvalidRequest {
                reason: format!(
                    "BATCH {} exceeds the {MAX_BATCH}-request frame cap",
                    batch.len()
                ),
            });
        }
        match self.inbox.proto {
            ProtoVersion::V1 => {
                writeln!(self.writer, "BATCH {}", batch.len())?;
                for request in batch {
                    write_request_line(&mut self.writer, request)?;
                }
                Ok(())
            }
            ProtoVersion::V2 => {
                self.out.clear();
                self.out
                    .extend_from_slice(&(batch.len() as u32).to_le_bytes());
                for request in batch {
                    encode_record_into(&mut self.out, request, self.num_edges)
                        .map_err(invalid_request)?;
                }
                write_frame(&mut self.writer, FRAME_BATCH, &self.out)
            }
        }
    }

    /// Queue a payload-free `END` or `STATS`. Buffered — does not
    /// flush.
    pub(crate) fn write_bare(&mut self, keyword: &str, ty: u8) -> Result<(), AcmrError> {
        write_message(&mut self.writer, self.inbox.proto, keyword, ty, &[])
    }

    /// Queue a `RESET` frame (see [`ServeClient::reset`]). Buffered —
    /// does not flush; the matching `OK` is read by
    /// [`ServeClient::read_reset_ok`], so a pipelined caller can queue
    /// the whole next job behind the reset.
    pub(crate) fn write_reset(
        &mut self,
        spec: &str,
        base_seed: Option<u64>,
        capacities: &[u32],
    ) -> Result<(), AcmrError> {
        if self.inbox.proto != ProtoVersion::V2 {
            return Err(proto_error("RESET needs a proto=v2 session".into()));
        }
        self.out.clear();
        encode_reset(&mut self.out, spec, base_seed, capacities);
        write_frame(&mut self.writer, FRAME_RESET, &self.out)?;
        if !capacities.is_empty() {
            self.num_edges = capacities.len() as u32;
        }
        Ok(())
    }

    /// Flush everything queued so far to the socket.
    pub(crate) fn flush_writes(&mut self) -> Result<(), AcmrError> {
        self.writer.flush()?;
        Ok(())
    }

    // ---- read half ----

    /// Read the `OK` frame answering a `RESET`; updates (and returns)
    /// the session id and re-reads the canonical spec.
    pub(crate) fn read_reset_ok(&mut self) -> Result<u64, AcmrError> {
        let (id, spec) = decode_ok(self.read_reply(Reply::Ok)?)
            .map_err(|e| proto_error(format!("malformed OK frame: {e}")))?;
        self.session_id = id;
        self.spec = spec;
        Ok(id)
    }

    /// Read one `SUMMARY` frame (summary-mode batch acknowledgement).
    pub(crate) fn read_batch_summary(&mut self) -> Result<BatchSummary, AcmrError> {
        decode_summary(self.read_reply(Reply::Summary)?)
            .map_err(|e| proto_error(format!("malformed SUMMARY: {e}")))
    }

    /// Read one reply carrying JSON (`EVENT`, `REPORT`, `STATS`).
    pub(crate) fn read_json<T: Deserialize>(&mut self, kind: Reply) -> Result<T, AcmrError> {
        let malformed = |e: String| proto_error(format!("malformed {} reply: {e}", kind.keyword()));
        let json =
            std::str::from_utf8(self.read_reply(kind)?).map_err(|e| malformed(e.to_string()))?;
        serde_json::from_str(json).map_err(|e| malformed(e.to_string()))
    }

    /// After a failed *write*: try to read one frame, hoping for the
    /// server's terminal `ERR` (a server that rejects a frame stops
    /// reading, which is what made our write fail). `Some` only for a
    /// typed remote answer; `None` means the connection is just gone
    /// and the caller's transport error stands.
    pub(crate) fn pending_error(&mut self) -> Option<AcmrError> {
        match self.next_frame() {
            Ok(FRAME_ERR) => Some(self.frame_error()),
            Err(e @ AcmrError::Remote { .. }) => Some(e),
            _ => None,
        }
    }

    /// Read the next reply, which must be `kind`, and return its
    /// payload; an `ERR` reply decodes to the server's typed error.
    fn read_reply(&mut self, kind: Reply) -> Result<&[u8], AcmrError> {
        if self.inbox.proto == ProtoVersion::V2 {
            let ty = self.next_frame()?;
            if ty == FRAME_ERR {
                return Err(self.frame_error());
            }
            if ty != kind.frame() {
                return Err(proto_error(format!(
                    "expected a {} frame, got type 0x{ty:02x}",
                    kind.keyword()
                )));
            }
            return Ok(&self.scratch);
        }
        let line = self.next_line()?;
        if let Some(rest) = line.strip_prefix("ERR ") {
            return Err(decode_error_reply(rest));
        }
        line.strip_prefix(kind.keyword())
            .map(|payload| payload.trim_start().as_bytes())
            .ok_or_else(|| {
                proto_error(format!("expected a {} reply, got {line:?}", kind.keyword()))
            })
    }

    /// The next reply line. EOF and framing violations are client-side
    /// *transport* errors (`Remote{code:"proto"}` — the server
    /// vanished or spoke garbage), so the pool's retry classification
    /// stays exact.
    fn next_line(&mut self) -> Result<&str, AcmrError> {
        while !self.inbox.lines.poll().map_err(malformed_reply)? {
            self.fill()?;
        }
        match self.inbox.lines.next_line().map_err(malformed_reply)? {
            Some((_, line)) => Ok(line),
            None => Err(closed_without_reply()),
        }
    }

    /// The next reply frame into `self.scratch`, returning its type;
    /// errors classified as for [`ServeClient::next_line`].
    fn next_frame(&mut self) -> Result<u8, AcmrError> {
        loop {
            match self
                .inbox
                .frames
                .next_frame(&mut self.scratch)
                .map_err(malformed_reply)?
            {
                Some(ty) => return Ok(ty),
                None if self.inbox.frames.is_eof() => return Err(closed_without_reply()),
                None => self.fill()?,
            }
        }
    }

    /// The server's typed error from the `ERR` frame in `self.scratch`.
    fn frame_error(&self) -> AcmrError {
        decode_error_reply(&String::from_utf8_lossy(&self.scratch))
    }

    /// One large read from the socket into the inbox; a zero-byte read
    /// is the server hanging up.
    fn fill(&mut self) -> Result<(), AcmrError> {
        let n = loop {
            match self.stream.read(&mut self.chunk) {
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    return Err(AcmrError::Io {
                        message: format!("reply read failed: {e}"),
                    })
                }
            }
        };
        if n == 0 {
            self.inbox.set_eof();
        } else {
            self.inbox.feed(&self.chunk[..n]);
        }
        Ok(())
    }
}

/// Probe a serving endpoint for its counters without opening a
/// session: connect, read the greeting, send one `STATS` line, decode
/// the [`StatsReport`] reply — what `acmr stats --addr` (and `acmr
/// client --stats`) runs. The connection carries nothing else, so the
/// `connection` half of the report reflects only the probe itself;
/// the `server` half is the interesting part.
pub fn fetch_stats(addr: impl ToSocketAddrs) -> Result<StatsReport, AcmrError> {
    ServeClient::greet(connect_stream(addr)?)?.stats()
}

fn connect_stream(addr: impl ToSocketAddrs) -> Result<TcpStream, AcmrError> {
    TcpStream::connect(addr).map_err(|e| AcmrError::Io {
        message: format!("cannot connect to acmr serve: {e}"),
    })
}

fn proto_error(message: String) -> AcmrError {
    AcmrError::Remote {
        code: "proto".into(),
        message,
    }
}

fn malformed_reply(e: AcmrError) -> AcmrError {
    match e {
        AcmrError::TraceParse { message, .. } => proto_error(format!("malformed reply: {message}")),
        other => other,
    }
}

fn closed_without_reply() -> AcmrError {
    proto_error("server closed the connection without a reply".into())
}

fn invalid_request(e: std::io::Error) -> AcmrError {
    AcmrError::InvalidRequest {
        reason: e.to_string(),
    }
}

/// Validate a replay's batch size once, at the entry point: `Some(0)`
/// is refused before any connection is made, and larger sizes are
/// clamped to the server's [`MAX_BATCH`] frame cap, so any `--batch`
/// value that `acmr run` accepts works over the wire too.
pub(crate) fn check_batch(batch: Option<usize>) -> Result<Option<usize>, AcmrError> {
    match batch {
        Some(0) => Err(AcmrError::InvalidRequest {
            reason: "batch size must be at least 1".to_string(),
        }),
        _ => Ok(batch.map(|n| n.min(MAX_BATCH))),
    }
}

/// Replay a whole arrival stream through a serving endpoint — the
/// remote twin of [`acmr_core::Session::run_stream`], and what `acmr
/// client --stream` dispatches to. Arrivals are taken from any
/// fallible request iterator (e.g. a chunked
/// `acmr_workloads::trace::TraceReader`); with `batch: Some(n)` they
/// travel as `BATCH` frames of at most `min(n, MAX_BATCH)` requests —
/// so any `--batch` value that `acmr run` accepts works here too. `on_event` sees every
/// audited decision in arrival order (the events preceding a
/// mid-batch failure included); the final report is returned.
pub fn serve_trace<I>(
    addr: impl ToSocketAddrs,
    spec: &str,
    base_seed: Option<u64>,
    capacities: &[u32],
    arrivals: I,
    batch: Option<usize>,
    mut on_event: impl FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    let batch = check_batch(batch)?;
    let client = ServeClient::connect(addr, spec, base_seed, capacities)?;
    replay_session(client, arrivals, batch, &mut on_event)
}

/// [`serve_trace`] over protocol v2. With `events: true` the replay
/// is synchronous and `on_event` sees every audited decision, exactly
/// like v1 (just on a cheaper wire). With `events: false` the replay
/// is **pipelined**: the whole trace streams out in `BATCH` frames
/// before any acknowledgement is read, each batch answers with one
/// [`BatchSummary`], and `on_event` is never called — the mode built
/// for throughput, where only the final report matters.
#[allow(clippy::too_many_arguments)]
pub fn serve_trace_v2<I>(
    addr: impl ToSocketAddrs,
    spec: &str,
    base_seed: Option<u64>,
    capacities: &[u32],
    arrivals: I,
    batch: Option<usize>,
    events: bool,
    mut on_event: impl FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    let batch = check_batch(batch)?;
    let mut client = ServeClient::connect_v2(addr, spec, base_seed, capacities, events)?;
    if events {
        return replay_session(client, arrivals, batch, &mut on_event);
    }
    run_job_v2(&mut client, arrivals, batch, false)
}

/// Drive an already-open session through a full arrival stream — the
/// replay half of [`serve_trace`], shared with the
/// [`crate::pool::WorkerPool`] v1 retry path (which must reconnect
/// and replay from the top, so connecting and replaying are separate
/// steps there). Works on any session that streams per-arrival
/// events: v1, or v2 with `events=on`.
pub(crate) fn replay_session<I>(
    mut client: ServeClient,
    arrivals: I,
    batch: Option<usize>,
    on_event: &mut dyn FnMut(&ArrivalEvent),
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    match batch {
        None => {
            for request in arrivals {
                on_event(&client.push(&request?)?);
            }
        }
        Some(n) => {
            let mut chunk = Vec::with_capacity(n);
            let mut events = Vec::new();
            let mut flush =
                |client: &mut ServeClient, chunk: &mut Vec<Request>| -> Result<(), AcmrError> {
                    let result = client.push_batch_into(chunk, &mut events);
                    for event in &events {
                        on_event(event);
                    }
                    chunk.clear();
                    result
                };
            for request in arrivals {
                chunk.push(request?);
                if chunk.len() == n {
                    flush(&mut client, &mut chunk)?;
                }
            }
            if !chunk.is_empty() {
                flush(&mut client, &mut chunk)?;
            }
        }
    }
    client.finish()
}

/// Default batch size for the pipelined v2 replay when the caller did
/// not pick one: big enough to amortize frame headers, small enough
/// to keep summary frames (and the server's working set) reasonable.
const PIPELINE_BATCH: usize = 512;

/// Where a pipelined replay failed: at the arrival *source* (the
/// caller's error, surfaced raw) or on the *wire* (worth checking for
/// a pending server `ERR` before reporting).
enum StreamFail {
    Source(AcmrError),
    Wire(AcmrError),
}

/// Replay a whole job over an open v2 summary-mode session in **one
/// round trip**: stream every arrival as `BATCH` frames plus the
/// terminal `END` (all buffered, one flush), then read the
/// acknowledgements — the `RESET`'s `OK` first when `expect_reset_ok`
/// (the pool's persistent-session path queues the job behind a
/// [`ServeClient::write_reset`]), then one [`BatchSummary`] per
/// batch, then the final `REPORT`.
///
/// On any error the session is desynchronized and must be dropped,
/// not reused — the pool's whole-trace-retry contract already
/// guarantees a fresh session per attempt. A write failure usually
/// means the server already sent its terminal `ERR` and stopped
/// reading; that typed answer is preferred over the raw broken pipe.
pub(crate) fn run_job_v2<I>(
    client: &mut ServeClient,
    arrivals: I,
    batch: Option<usize>,
    expect_reset_ok: bool,
) -> Result<RunReport, AcmrError>
where
    I: IntoIterator<Item = Result<Request, AcmrError>>,
{
    let n = batch.unwrap_or(PIPELINE_BATCH);
    let mut batches = 0usize;
    let stream_all = |client: &mut ServeClient| -> Result<(), StreamFail> {
        let mut chunk = Vec::with_capacity(n);
        for request in arrivals {
            chunk.push(request.map_err(StreamFail::Source)?);
            if chunk.len() == n {
                client.write_batch(&chunk).map_err(StreamFail::Wire)?;
                batches += 1;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            client.write_batch(&chunk).map_err(StreamFail::Wire)?;
            batches += 1;
        }
        client
            .write_bare("END", FRAME_END)
            .map_err(StreamFail::Wire)?;
        client.flush_writes().map_err(StreamFail::Wire)
    };
    match stream_all(client) {
        Ok(()) => {}
        Err(StreamFail::Source(e)) => return Err(e),
        Err(StreamFail::Wire(e)) => {
            if crate::pool::is_transport_error(&e) {
                if let Some(answer) = client.pending_error() {
                    return Err(answer);
                }
            }
            return Err(e);
        }
    }
    if expect_reset_ok {
        client.read_reset_ok()?;
    }
    for _ in 0..batches {
        client.read_batch_summary()?;
    }
    client.read_json(Reply::Report)
}
