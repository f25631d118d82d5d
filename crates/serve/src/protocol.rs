//! The `ACMR-SERVE` wire protocol: constants, the error-reply
//! encoding, the `v2` binary frame codec, and the two halves both ends
//! share — `write_message`, which writes one message in either
//! dialect, and the push-fed input buffers behind `Inbox`, where the
//! line→frame upgrade happens.
//!
//! The **v1** protocol is line-based on purpose — it is the trace
//! grammar of `docs/TRACE_FORMAT.md` lifted onto a socket (request
//! frames *are* trace request lines, parsed by the same
//! [`acmr_workloads::trace::parse_request_line`] the file reader
//! uses), so `nc` is a usable client and every framing rule is
//! specified in one place: `docs/SERVING.md`.
//!
//! ## v1 frame summary
//!
//! ```text
//! server → client   ACMR-SERVE v1              greeting, on accept
//! client → server   OPEN <spec> [seed=<S>]     handshake line 1
//!                   edges <m>                  handshake line 2
//!                   caps <c1> … <cm>           handshake line 3
//! server → client   OK <session-id> <canonical-spec>
//! client → server   <cost> <edge>…             one arrival (trace grammar)
//!                   BATCH <n>                  then exactly n request lines
//!                   END                        finish the session
//! server → client   EVENT <json>               one per arrival, in order
//!                   REPORT <json>              reply to END, then close
//! server → client   ERR <code> <message>       terminal: connection closes
//! ```
//!
//! ## v2: binary frames, negotiated at `OPEN`
//!
//! The **v2** mode keeps the line-based bootstrap (greeting and the
//! three handshake lines are unchanged) and is negotiated with an
//! extra `OPEN` argument: `OPEN <spec> [seed=<S>] proto=v2
//! [events=on]`. A v2-capable server replies `OK <id> <spec>
//! proto=v2` and **both directions switch to length-prefixed binary
//! frames** after their respective handshake line:
//!
//! ```text
//! frame := type:u8  len:u32le  payload[len]
//! ```
//!
//! Arrival payloads are *exactly* the `ACMR-TRACE v2` record bytes of
//! `docs/TRACE_FORMAT.md` ([`acmr_workloads::encode_record_into`] /
//! [`acmr_workloads::decode_record`] are the codec, shared with the
//! trace file writer/reader — file ≡ socket by construction). A
//! `BATCH` frame is acknowledged with **one** [`BatchSummary`] frame
//! unless the client opted into per-event replies with `events=on`;
//! a `RESET` frame tears the session down and opens a fresh one on
//! the same connection — the persistent-session mode cluster sweeps
//! use. Error replies carry the same typed codes as v1, as the
//! payload of an [`FRAME_ERR`] frame. Full spec: `docs/SERVING.md`.

use acmr_core::{AcmrError, ArrivalEvent};
use acmr_workloads::trace::LineBuffer;
use serde::{Deserialize, Serialize};
use std::io::Write;

/// The greeting the server writes on accept — the version of the
/// line-based *bootstrap* grammar (`v2` sessions are negotiated per
/// connection at `OPEN`, so the greeting never changes with them; a
/// greeting bump would mean the bootstrap lines themselves changed).
pub const GREETING: &str = "ACMR-SERVE v1";

/// The `OPEN` (and `OK`) argument that negotiates binary-frame mode.
pub const PROTO_V2_TOKEN: &str = "proto=v2";

/// The `OPEN` argument that opts a v2 session into per-event `BATCH`
/// replies (v1 behavior); without it a `BATCH` frame is acknowledged
/// by one [`BatchSummary`] frame.
pub const EVENTS_TOKEN: &str = "events=on";

/// Which protocol a serving endpoint (or client) speaks after `OPEN`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoVersion {
    /// The line protocol: JSON `EVENT` per arrival, text frames.
    V1,
    /// Binary frames: trace-record arrivals, batch-summary acks,
    /// `RESET` persistent sessions.
    V2,
}

impl ProtoVersion {
    /// Parse a `--proto` flag value (`"v1"` / `"v2"`).
    pub fn parse(s: &str) -> Option<ProtoVersion> {
        match s {
            "v1" => Some(ProtoVersion::V1),
            "v2" => Some(ProtoVersion::V2),
            _ => None,
        }
    }

    /// The flag spelling (`"v1"` / `"v2"`).
    pub fn label(self) -> &'static str {
        match self {
            ProtoVersion::V1 => "v1",
            ProtoVersion::V2 => "v2",
        }
    }
}

/// Longest wire line either end accepts — **equal to the trace
/// reader's [`acmr_workloads::trace::MAX_LINE_BYTES`]**, so the socket
/// accepts exactly the lines the file reader accepts (a trace that
/// streams through `acmr run --stream` always replays through `acmr
/// client`) while an adversarial newline-free stream still cannot
/// balloon a connection thread's memory past this cap.
pub const MAX_FRAME_BYTES: usize = acmr_workloads::trace::MAX_LINE_BYTES;

/// Largest `BATCH <n>` a server accepts: bounds the per-connection
/// request buffer the same way [`MAX_FRAME_BYTES`] bounds lines.
pub const MAX_BATCH: usize = 1 << 16;

/// Where the protocol is specified — echoed in every `ERR` reply so an
/// operator staring at a raw socket log knows where to look.
pub const SPEC_POINTER: &str = "protocol spec: docs/SERVING.md";

/// The stable wire code an [`AcmrError`] maps onto in `ERR` replies.
///
/// Codes are part of the protocol surface (scripts may dispatch on
/// them), so they are spelled out in `docs/SERVING.md` and must not
/// change meaning within `v1`.
pub fn error_code(e: &AcmrError) -> &'static str {
    match e {
        AcmrError::SpecParse { .. } => "spec",
        AcmrError::UnknownAlgorithm { .. } => "unknown-algorithm",
        AcmrError::BadParam { .. } => "bad-param",
        AcmrError::ContractViolation { .. } => "violation",
        AcmrError::SessionPoisoned => "poisoned",
        AcmrError::InvalidRequest { .. } => "invalid",
        AcmrError::TraceParse { .. } => "parse",
        AcmrError::Io { .. } => "io",
        AcmrError::Busy { .. } => "busy",
        AcmrError::Remote { .. } => "proto",
    }
}

/// The `ERR` reply without its `ERR ` keyword: `<code> <message>
/// (<spec pointer>)` — what follows the keyword in a v1 line and the
/// **entire payload** of a v2 [`FRAME_ERR`] frame, so both protocols
/// share one error grammar and one decoder ([`decode_error_reply`]).
pub fn error_reply_body(e: &AcmrError) -> String {
    // Error displays are single-line by construction; the replace is
    // belt-and-braces so a future message can never break the framing.
    let message = e.to_string().replace('\n', " ");
    format!("{} {message} ({SPEC_POINTER})", error_code(e))
}

/// Decode an `ERR <code> <message>` line (without the `ERR ` prefix
/// already stripped) into the typed [`AcmrError::Remote`] the client
/// surfaces.
pub fn decode_error_reply(rest: &str) -> AcmrError {
    let mut parts = rest.splitn(2, ' ');
    let code = parts.next().unwrap_or("proto").to_string();
    let message = parts.next().unwrap_or("").to_string();
    AcmrError::Remote { code, message }
}

// ---------------------------------------------------------------------------
// v2 binary frames
// ---------------------------------------------------------------------------

/// v2 frame type: one arrival; payload is exactly one `ACMR-TRACE v2`
/// record (client → server).
pub const FRAME_REQ: u8 = 0x01;
/// v2 frame type: a batch of arrivals; payload is a `u32le` count
/// followed by that many records back-to-back (client → server).
pub const FRAME_BATCH: u8 = 0x02;
/// v2 frame type: finish the session; empty payload (client → server).
pub const FRAME_END: u8 = 0x03;
/// v2 frame type: abandon the current session and open a fresh one on
/// the same connection; payload per [`encode_reset`] (client → server).
pub const FRAME_RESET: u8 = 0x04;
/// v2 frame type: request the server's counters; empty payload
/// (client → server). Answered with one [`FRAME_STATS_REPLY`] frame.
/// Valid at any frame boundary — mid-session, or after `END` while
/// the connection waits for a `RESET`. The v1 twin is the bare
/// `STATS` request line, answered by a `STATS <json>` line with the
/// same payload (also accepted *instead of* `OPEN`, so a monitoring
/// probe needs no session).
pub const FRAME_STATS: u8 = 0x05;
/// v2 frame type: session opened (reply to `RESET`); payload is the
/// `u64le` session id followed by the canonical spec in UTF-8.
pub const FRAME_OK: u8 = 0x80;
/// v2 frame type: one audited decision; payload is the same JSON
/// document a v1 `EVENT` line carries.
pub const FRAME_EVENT: u8 = 0x81;
/// v2 frame type: one [`BatchSummary`] acknowledging a whole `BATCH`
/// frame (unless the session opted into per-event replies).
pub const FRAME_SUMMARY: u8 = 0x82;
/// v2 frame type: the final report (reply to `END`); payload is the
/// same JSON document a v1 `REPORT` line carries.
pub const FRAME_REPORT: u8 = 0x83;
/// v2 frame type: terminal error; payload is the UTF-8
/// [`error_reply_body`] text — same codes, same grammar as v1.
pub const FRAME_ERR: u8 = 0x84;
/// v2 frame type: reply to [`FRAME_STATS`]; payload is the UTF-8 JSON
/// serialization of one [`StatsReport`] — byte-identical to what
/// follows `STATS ` in the v1 reply line.
pub const FRAME_STATS_REPLY: u8 = 0x85;

/// The pure, push-fed core of the v2 binary framing: bytes go in via
/// [`FrameBuffer::feed`], whole frames come out of
/// [`FrameBuffer::next_frame`] — no reader, no I/O, no blocking. This
/// is what both the sans-I/O [`crate::machine::Connection`] and the
/// client carve frames with: `type:u8 len:u32le payload[len]`,
/// payloads capped at [`MAX_FRAME_BYTES`], truncation and oversize
/// typed by 1-based frame number.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
    frames: usize,
    eof: bool,
}

impl FrameBuffer {
    /// An empty frame buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Append input bytes (compacting the consumed prefix first).
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Signal end of input: a partial frame still buffered becomes a
    /// typed truncation error on the next [`FrameBuffer::next_frame`];
    /// an empty buffer is a clean end at a frame boundary.
    pub fn set_eof(&mut self) {
        self.eof = true;
    }

    /// Whether end of input was signalled.
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Frames yielded so far.
    pub fn frame_number(&self) -> usize {
        self.frames
    }

    /// Carve the next complete frame into `payload` (cleared first),
    /// returning its type byte. `Ok(None)` means *no complete frame
    /// buffered*: feed more input — unless [`FrameBuffer::is_eof`], in
    /// which case the stream ended cleanly at a frame boundary (EOF
    /// mid-frame is the typed truncation error instead). An oversized
    /// declared length is refused from the 5 header bytes alone,
    /// before any payload arrives.
    pub fn next_frame(&mut self, payload: &mut Vec<u8>) -> Result<Option<u8>, AcmrError> {
        let pending = self.buf.len() - self.start;
        if pending == 0 {
            return Ok(None);
        }
        let frame = self.frames + 1;
        if pending < 5 {
            return if self.eof {
                Err(truncated(frame))
            } else {
                Ok(None)
            };
        }
        let head = &self.buf[self.start..];
        let ty = head[0];
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(AcmrError::TraceParse {
                line: frame,
                message: format!("frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}"),
            });
        }
        if pending < 5 + len {
            return if self.eof {
                Err(truncated(frame))
            } else {
                Ok(None)
            };
        }
        payload.clear();
        payload.extend_from_slice(&self.buf[self.start + 5..self.start + 5 + len]);
        self.start += 5 + len;
        self.frames = frame;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(ty))
    }
}

/// Server-wide counters in a `STATS` reply: the lifetime totals of
/// the whole process, across every connection and shard. All counts
/// are monotonic except the two `*_active` gauges.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServerStats {
    /// Milliseconds since the server started listening (0 when the
    /// machine is driven without a clock, e.g. in-process tests).
    pub uptime_ms: u64,
    /// Connections accepted since start (including busy-rejected ones).
    pub connections_opened: u64,
    /// Connections currently open.
    pub connections_active: u64,
    /// Sessions opened since start (`OPEN` handshakes plus `RESET`s).
    pub sessions_opened: u64,
    /// Sessions currently live (opened, not yet ended or torn down).
    pub sessions_active: u64,
    /// Arrival requests admitted to a session (single or in batches).
    pub arrivals: u64,
    /// `BATCH` frames processed.
    pub batches: u64,
    /// Payload bytes read from clients.
    pub bytes_in: u64,
    /// Reply bytes written to clients (greetings included).
    pub bytes_out: u64,
    /// Typed `ERR` replies emitted.
    pub errors: u64,
    /// Connections refused with `ERR busy` by the overload policy.
    pub busy_rejections: u64,
}

/// Per-connection counters in a `STATS` reply: what *this* connection
/// has done since it was accepted.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConnStats {
    /// Sessions opened on this connection (`OPEN` plus `RESET`s).
    pub sessions: u64,
    /// Arrival requests processed on this connection.
    pub arrivals: u64,
    /// `BATCH` frames processed on this connection.
    pub batches: u64,
    /// Bytes received on this connection.
    pub bytes_in: u64,
    /// Bytes sent on this connection.
    pub bytes_out: u64,
    /// Typed `ERR` replies emitted on this connection.
    pub errors: u64,
}

/// The payload of a `STATS` reply — one JSON object on the wire,
/// byte-identical between the v1 `STATS <json>` line and the v2
/// [`FRAME_STATS_REPLY`] frame.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsReport {
    /// Server-wide totals.
    pub server: ServerStats,
    /// The asking connection's own counters.
    pub connection: ConnStats,
}

fn truncated(frame: usize) -> AcmrError {
    AcmrError::TraceParse {
        line: frame,
        message: "connection closed mid-frame".into(),
    }
}

/// Write one frame: `type`, `u32le` length, payload. The caller
/// flushes; payloads above [`MAX_FRAME_BYTES`] are refused (the
/// receiver would reject them anyway).
pub fn write_frame<W: std::io::Write>(w: &mut W, ty: u8, payload: &[u8]) -> Result<(), AcmrError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(AcmrError::InvalidRequest {
            reason: format!(
                "frame payload of {} bytes exceeds {MAX_FRAME_BYTES}",
                payload.len()
            ),
        });
    }
    w.write_all(&[ty])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// A server reply. The dialect decides how it travels: a `KEYWORD
/// payload` line in v1, a frame of the matching type in v2. The
/// payload is the same bytes either way — the JSON of an `EVENT`,
/// `REPORT` or `STATS`, the [`error_reply_body`] of an `ERR` — except
/// for `OK` and `SUMMARY`, whose v2 payloads are binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Reply {
    Ok,
    Event,
    Summary,
    Report,
    Stats,
    Err,
}

impl Reply {
    /// The v1 line keyword.
    pub(crate) fn keyword(self) -> &'static str {
        match self {
            Reply::Ok => "OK",
            Reply::Event => "EVENT",
            Reply::Summary => "SUMMARY",
            Reply::Report => "REPORT",
            Reply::Stats => "STATS",
            Reply::Err => "ERR",
        }
    }

    /// The v2 frame type.
    pub(crate) fn frame(self) -> u8 {
        match self {
            Reply::Ok => FRAME_OK,
            Reply::Event => FRAME_EVENT,
            Reply::Summary => FRAME_SUMMARY,
            Reply::Report => FRAME_REPORT,
            Reply::Stats => FRAME_STATS_REPLY,
            Reply::Err => FRAME_ERR,
        }
    }
}

/// Write one message in `proto`'s dialect: the line `keyword
/// payload` (just `keyword` when the payload is empty) in v1, one `ty`
/// frame in v2. The server writes its replies through this and the
/// client its bare `END` and `STATS` requests.
pub(crate) fn write_message<W: Write>(
    w: &mut W,
    proto: ProtoVersion,
    keyword: &str,
    ty: u8,
    payload: &[u8],
) -> Result<(), AcmrError> {
    match proto {
        ProtoVersion::V1 => {
            w.write_all(keyword.as_bytes())?;
            if !payload.is_empty() {
                w.write_all(b" ")?;
                w.write_all(payload)?;
            }
            w.write_all(b"\n")?;
            Ok(())
        }
        ProtoVersion::V2 => write_frame(w, ty, payload),
    }
}

/// The receiving half of either end of a connection: a push-fed
/// [`LineBuffer`] until a `proto=v2` handshake completes, a
/// [`FrameBuffer`] after. The machine feeds it nonblocking socket
/// reads and the client blocking ones, so [`Inbox::upgrade`] is the
/// one place the line→frame switch happens.
pub(crate) struct Inbox {
    /// The dialect input is carved in right now.
    pub(crate) proto: ProtoVersion,
    pub(crate) lines: LineBuffer,
    pub(crate) frames: FrameBuffer,
}

impl Inbox {
    pub(crate) fn new() -> Self {
        Inbox {
            proto: ProtoVersion::V1,
            lines: LineBuffer::new(MAX_FRAME_BYTES),
            frames: FrameBuffer::new(),
        }
    }

    /// Append received bytes to the active buffer.
    pub(crate) fn feed(&mut self, bytes: &[u8]) {
        match self.proto {
            ProtoVersion::V1 => self.lines.feed(bytes),
            ProtoVersion::V2 => self.frames.feed(bytes),
        }
    }

    /// The peer hung up.
    pub(crate) fn set_eof(&mut self) {
        self.lines.set_eof();
        self.frames.set_eof();
    }

    /// Switch to frames after the handshake's last line: whatever a
    /// pipelining peer sent past that line is already frame bytes.
    pub(crate) fn upgrade(&mut self) {
        let rest = self.lines.take_rest();
        self.frames.feed(&rest);
        self.proto = ProtoVersion::V2;
    }
}

/// One [`FRAME_SUMMARY`] payload: what a whole `BATCH` collapsed to.
/// Everything a driver that discards per-arrival events still needs —
/// progress accounting and the running objective — in 28 fixed bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BatchSummary {
    /// Arrivals the batch carried (echoed so the client can verify
    /// the server consumed exactly the frame it sent).
    pub n: u32,
    /// How many of them ended the batch still accepted.
    pub accepted: u32,
    /// Preemptions the batch performed.
    pub preemptions: u32,
    /// Rejected cost the batch added to the objective.
    pub rejected_cost_delta: f64,
    /// Running total rejected cost after the batch — the paper's
    /// objective so far.
    pub total_rejected_cost: f64,
}

/// Collapse a batch's audited events into its [`BatchSummary`].
pub fn summarize_events(events: &[ArrivalEvent]) -> BatchSummary {
    BatchSummary {
        n: events.len() as u32,
        accepted: events.iter().filter(|e| e.accepted).count() as u32,
        preemptions: events.iter().map(|e| e.preempted.len() as u32).sum(),
        rejected_cost_delta: events.iter().map(|e| e.rejected_cost_delta).sum(),
        total_rejected_cost: events.last().map_or(0.0, |e| e.total_rejected_cost),
    }
}

/// Encode a [`BatchSummary`] as a [`FRAME_SUMMARY`] payload (little
/// endian, fields in declaration order).
pub fn encode_summary(buf: &mut Vec<u8>, s: &BatchSummary) {
    buf.extend_from_slice(&s.n.to_le_bytes());
    buf.extend_from_slice(&s.accepted.to_le_bytes());
    buf.extend_from_slice(&s.preemptions.to_le_bytes());
    buf.extend_from_slice(&s.rejected_cost_delta.to_le_bytes());
    buf.extend_from_slice(&s.total_rejected_cost.to_le_bytes());
}

/// Decode a [`FRAME_SUMMARY`] payload.
pub fn decode_summary(payload: &[u8]) -> Result<BatchSummary, AcmrError> {
    let bytes: &[u8; 28] = payload.try_into().map_err(|_| AcmrError::Remote {
        code: "proto".into(),
        message: format!("summary frame must be 28 bytes, got {}", payload.len()),
    })?;
    let u32at = |i: usize| u32::from_le_bytes(bytes[i..i + 4].try_into().expect("4 bytes"));
    let f64at = |i: usize| f64::from_le_bytes(bytes[i..i + 8].try_into().expect("8 bytes"));
    Ok(BatchSummary {
        n: u32at(0),
        accepted: u32at(4),
        preemptions: u32at(8),
        rejected_cost_delta: f64at(12),
        total_rejected_cost: f64at(20),
    })
}

/// Decoded [`FRAME_RESET`] payload: everything the v1 handshake
/// carries, in one binary frame — so a persistent connection can hop
/// to a new `(spec, seed, capacities)` session without reconnecting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResetFrame {
    /// Algorithm spec for the fresh session (the `OPEN <spec>` slot).
    pub spec: String,
    /// Base seed, when given (the `seed=<S>` slot).
    pub base_seed: Option<u64>,
    /// Edge capacities of the fresh session (the `edges`/`caps`
    /// lines).
    pub capacities: Vec<u32>,
}

/// Encode a [`FRAME_RESET`] payload: `u32le` spec length, spec UTF-8,
/// `u8` seed flag, `u64le` seed (zero when absent), `u32le` edge
/// count, then one `u32le` capacity per edge.
pub fn encode_reset(buf: &mut Vec<u8>, spec: &str, base_seed: Option<u64>, capacities: &[u32]) {
    buf.extend_from_slice(&(spec.len() as u32).to_le_bytes());
    buf.extend_from_slice(spec.as_bytes());
    buf.push(base_seed.is_some() as u8);
    buf.extend_from_slice(&base_seed.unwrap_or(0).to_le_bytes());
    buf.extend_from_slice(&(capacities.len() as u32).to_le_bytes());
    for &c in capacities {
        buf.extend_from_slice(&c.to_le_bytes());
    }
}

/// Decode a [`FRAME_RESET`] payload. Every violation — truncation,
/// non-UTF-8 spec, trailing bytes — is a typed error naming the
/// malformed field.
pub fn decode_reset(payload: &[u8]) -> Result<ResetFrame, AcmrError> {
    let bad = |what: &str| AcmrError::TraceParse {
        line: 0,
        message: format!("malformed RESET frame: {what}"),
    };
    let take = |at: &mut usize, n: usize| -> Result<&[u8], AcmrError> {
        let slice = payload.get(*at..*at + n).ok_or_else(|| bad("truncated"))?;
        *at += n;
        Ok(slice)
    };
    let mut at = 0;
    let spec_len = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
    if spec_len > MAX_FRAME_BYTES {
        return Err(bad("spec length overflows the frame"));
    }
    let spec = std::str::from_utf8(take(&mut at, spec_len)?)
        .map_err(|_| bad("spec is not valid UTF-8"))?
        .to_string();
    let seed_flag = take(&mut at, 1)?[0];
    let seed = u64::from_le_bytes(take(&mut at, 8)?.try_into().expect("8 bytes"));
    let base_seed = match seed_flag {
        0 => None,
        1 => Some(seed),
        other => return Err(bad(&format!("seed flag must be 0 or 1, got {other}"))),
    };
    let m = u32::from_le_bytes(take(&mut at, 4)?.try_into().expect("4 bytes")) as usize;
    let mut capacities = Vec::with_capacity(m.min(1 << 20));
    for _ in 0..m {
        capacities.push(u32::from_le_bytes(
            take(&mut at, 4)?.try_into().expect("4 bytes"),
        ));
    }
    if at != payload.len() {
        return Err(bad("trailing bytes"));
    }
    Ok(ResetFrame {
        spec,
        base_seed,
        capacities,
    })
}

/// Encode a [`FRAME_OK`] payload: `u64le` session id + canonical spec.
pub fn encode_ok(buf: &mut Vec<u8>, id: u64, spec: &str) {
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(spec.as_bytes());
}

/// Decode a [`FRAME_OK`] payload into `(session id, canonical spec)`.
pub fn decode_ok(payload: &[u8]) -> Result<(u64, String), AcmrError> {
    let bad = |what: &str| AcmrError::Remote {
        code: "proto".into(),
        message: format!("malformed OK frame: {what}"),
    };
    let id_bytes = payload.get(..8).ok_or_else(|| bad("truncated"))?;
    let id = u64::from_le_bytes(id_bytes.try_into().expect("8 bytes"));
    let spec = std::str::from_utf8(&payload[8..])
        .map_err(|_| bad("spec is not valid UTF-8"))?
        .to_string();
    Ok((id, spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_lines_are_trimmed_and_numbered_across_blanks() {
        // Blank and whitespace-only lines are skipped *between* frames
        // but still numbered on the wire, so the number of a missing
        // frame is line_number() + 1, the line that never came.
        let mut inbox = Inbox::new();
        inbox.feed(b"  OPEN greedy  \n\n   \t \nedges 2\n\nEND");
        let mut next = || {
            inbox
                .lines
                .next_line()
                .unwrap()
                .map(|(n, l)| (n, l.to_string()))
        };
        assert_eq!(next(), Some((1, "OPEN greedy".into())));
        assert_eq!(next(), Some((2, String::new())));
        assert_eq!(next(), Some((3, String::new())));
        assert_eq!(next(), Some((4, "edges 2".into())));
        assert_eq!(next(), Some((5, String::new())));
        // The final line waits for its newline until the peer hangs up.
        assert_eq!(next(), None);
        inbox.set_eof();
        assert_eq!(inbox.lines.next_line().unwrap(), Some((6, "END")));
        assert_eq!(inbox.lines.next_line().unwrap(), None);
        assert_eq!(inbox.lines.line_number(), 6);
    }

    #[test]
    fn inbox_lines_are_capped_and_must_be_utf8() {
        let mut inbox = Inbox::new();
        inbox.feed(&vec![b'a'; MAX_FRAME_BYTES + 1]);
        let err = inbox.lines.next_line().unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("exceeds")),
            "{err}"
        );
        let mut inbox = Inbox::new();
        inbox.feed(&[0xff, 0xfe, b'\n']);
        let err = inbox.lines.next_line().unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 1, .. }),
            "{err}"
        );
    }

    #[test]
    fn inbox_upgrade_hands_pipelined_bytes_to_the_frame_buffer() {
        let mut wire = b"OK 0 greedy proto=v2\n".to_vec();
        write_frame(&mut wire, FRAME_EVENT, b"{}").unwrap();
        let (head, tail) = wire.split_at(wire.len() - 1);
        let mut inbox = Inbox::new();
        inbox.feed(head);
        assert_eq!(
            inbox.lines.next_line().unwrap(),
            Some((1, "OK 0 greedy proto=v2"))
        );
        inbox.upgrade();
        assert_eq!(inbox.proto, ProtoVersion::V2);
        let mut payload = Vec::new();
        assert_eq!(inbox.frames.next_frame(&mut payload).unwrap(), None);
        inbox.feed(tail);
        inbox.set_eof();
        assert_eq!(
            inbox.frames.next_frame(&mut payload).unwrap(),
            Some(FRAME_EVENT)
        );
        assert_eq!(payload, b"{}");
        assert_eq!(inbox.frames.next_frame(&mut payload).unwrap(), None); // clean end
    }

    #[test]
    fn messages_are_keyword_lines_in_v1_and_frames_in_v2() {
        let mut line = Vec::new();
        write_message(&mut line, ProtoVersion::V1, "EVENT", FRAME_EVENT, b"{}").unwrap();
        write_message(&mut line, ProtoVersion::V1, "END", FRAME_END, &[]).unwrap();
        assert_eq!(line, b"EVENT {}\nEND\n");
        let mut frames = Vec::new();
        write_message(&mut frames, ProtoVersion::V2, "EVENT", FRAME_EVENT, b"{}").unwrap();
        assert_eq!(frames, [FRAME_EVENT, 2, 0, 0, 0, b'{', b'}']);
        // The frame writer refuses a payload the receiver would reject.
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let err = write_frame(&mut Vec::new(), FRAME_REQ, &huge).unwrap_err();
        assert!(matches!(err, AcmrError::InvalidRequest { .. }), "{err}");
    }

    #[test]
    fn error_replies_round_trip_through_the_wire_form() {
        let e = AcmrError::TraceParse {
            line: 7,
            message: "bad cost nan".into(),
        };
        let body = error_reply_body(&e);
        assert!(body.starts_with("parse "), "{body}");
        assert!(body.contains(SPEC_POINTER), "{body}");
        match decode_error_reply(&body) {
            AcmrError::Remote { code, message } => {
                assert_eq!(code, "parse");
                assert!(message.contains("bad cost nan"));
            }
            other => panic!("expected Remote, got {other:?}"),
        }
    }

    #[test]
    fn reset_frames_round_trip() {
        for (spec, seed, caps) in [
            ("greedy", None, vec![1u32, 2, 3]),
            ("aag-weighted?seed=7", Some(42), vec![5; 100]),
            ("x", Some(0), vec![]),
        ] {
            let mut buf = Vec::new();
            encode_reset(&mut buf, spec, seed, &caps);
            let decoded = decode_reset(&buf).unwrap();
            assert_eq!(decoded.spec, spec);
            assert_eq!(decoded.base_seed, seed);
            assert_eq!(decoded.capacities, caps);
            // Any truncation is a typed error, never a panic.
            for cut in 0..buf.len() {
                let err = decode_reset(&buf[..cut]).unwrap_err();
                assert!(matches!(err, AcmrError::TraceParse { .. }), "{err}");
            }
            // Trailing bytes are refused too.
            let mut long = buf.clone();
            long.push(0);
            assert!(decode_reset(&long).is_err());
        }
    }

    #[test]
    fn summaries_round_trip_and_summarize_events() {
        let events = vec![
            ArrivalEvent {
                id: acmr_core::RequestId(0),
                accepted: true,
                preempted: vec![],
                cost: 2.0,
                rejected_cost_delta: 0.0,
                total_rejected_cost: 0.0,
            },
            ArrivalEvent {
                id: acmr_core::RequestId(1),
                accepted: true,
                preempted: vec![acmr_core::RequestId(0)],
                cost: 4.0,
                rejected_cost_delta: 2.0,
                total_rejected_cost: 2.0,
            },
        ];
        let s = summarize_events(&events);
        assert_eq!(s.n, 2);
        assert_eq!(s.accepted, 2);
        assert_eq!(s.preemptions, 1);
        assert_eq!(s.rejected_cost_delta, 2.0);
        assert_eq!(s.total_rejected_cost, 2.0);
        let mut buf = Vec::new();
        encode_summary(&mut buf, &s);
        assert_eq!(buf.len(), 28);
        assert_eq!(decode_summary(&buf).unwrap(), s);
        assert!(decode_summary(&buf[..27]).is_err());
        assert_eq!(summarize_events(&[]), BatchSummary::default());
    }

    #[test]
    fn ok_frames_round_trip() {
        let mut buf = Vec::new();
        encode_ok(&mut buf, 17, "aag-weighted?seed=7");
        assert_eq!(decode_ok(&buf).unwrap(), (17, "aag-weighted?seed=7".into()));
        assert!(decode_ok(&buf[..5]).is_err());
    }

    #[test]
    fn proto_version_parses_flag_values() {
        assert_eq!(ProtoVersion::parse("v1"), Some(ProtoVersion::V1));
        assert_eq!(ProtoVersion::parse("v2"), Some(ProtoVersion::V2));
        assert_eq!(ProtoVersion::parse("v3"), None);
        assert_eq!(ProtoVersion::V2.label(), "v2");
    }

    #[test]
    fn every_error_variant_has_a_stable_code() {
        assert_eq!(error_code(&AcmrError::SessionPoisoned), "poisoned");
        assert_eq!(
            error_code(&AcmrError::ContractViolation {
                algorithm: "x".into(),
                detail: "y".into()
            }),
            "violation"
        );
        assert_eq!(
            error_code(&AcmrError::Remote {
                code: "spec".into(),
                message: String::new()
            }),
            "proto"
        );
    }

    #[test]
    fn frame_buffer_carves_the_same_frames_under_any_chunking() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[1, 2, 3]).unwrap();
        write_frame(&mut wire, FRAME_BATCH, &[0; 17]).unwrap();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        write_frame(&mut wire, FRAME_STATS, &[]).unwrap();
        for chunk in [1, 2, 3, 5, 7, wire.len()] {
            let mut fb = FrameBuffer::new();
            let mut payload = Vec::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                fb.feed(piece);
                while let Some(ty) = fb.next_frame(&mut payload).unwrap() {
                    got.push((ty, payload.clone()));
                }
            }
            fb.set_eof();
            assert_eq!(fb.next_frame(&mut payload).unwrap(), None); // clean end
            assert_eq!(fb.frame_number(), 4);
            assert_eq!(
                got,
                vec![
                    (FRAME_REQ, vec![1, 2, 3]),
                    (FRAME_BATCH, vec![0; 17]),
                    (FRAME_END, vec![]),
                    (FRAME_STATS, vec![]),
                ]
            );
        }
    }

    #[test]
    fn frame_buffer_types_truncation_and_oversize() {
        // EOF mid-payload.
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQ, &[9; 10]).unwrap();
        let mut fb = FrameBuffer::new();
        let mut payload = Vec::new();
        fb.feed(&wire[..wire.len() - 3]);
        assert_eq!(fb.next_frame(&mut payload).unwrap(), None); // just needs more
        fb.set_eof();
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("mid-frame")),
            "{err}"
        );
        // EOF inside the 5-byte header.
        let mut fb = FrameBuffer::new();
        fb.feed(&[FRAME_REQ, 0xff]);
        fb.set_eof();
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 1, .. }),
            "{err}"
        );
        // An oversized declared length is refused from the header
        // alone, before any payload bytes arrive or EOF is known.
        let mut fb = FrameBuffer::new();
        let mut head = vec![FRAME_REQ];
        head.extend_from_slice(&u32::MAX.to_le_bytes());
        fb.feed(&head);
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(&err, AcmrError::TraceParse { line: 1, message } if message.contains("exceeds")),
            "{err}"
        );
        // Frame numbers keep counting across carves: frame 2 truncated.
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_END, &[]).unwrap();
        wire.extend_from_slice(&[FRAME_REQ, 4, 0]);
        fb.feed(&wire);
        fb.set_eof();
        assert_eq!(fb.next_frame(&mut payload).unwrap(), Some(FRAME_END));
        let err = fb.next_frame(&mut payload).unwrap_err();
        assert!(
            matches!(err, AcmrError::TraceParse { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn stats_reports_round_trip_as_json() {
        let report = StatsReport {
            server: ServerStats {
                uptime_ms: 1234,
                connections_opened: 9,
                connections_active: 3,
                sessions_opened: 7,
                sessions_active: 2,
                arrivals: 100,
                batches: 4,
                bytes_in: 2048,
                bytes_out: 4096,
                errors: 1,
                busy_rejections: 5,
            },
            connection: ConnStats {
                sessions: 2,
                arrivals: 40,
                batches: 1,
                bytes_in: 512,
                bytes_out: 768,
                errors: 0,
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: StatsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
