//! Wire transcript oracle: the exact bytes the protocol machine writes.
//!
//! The differential and fuzz suites parse replies semantically; this
//! suite pins the reply *bytes*. Each script below drives a fresh
//! in-process [`Connection`] and the concatenated, escaped outputs
//! must equal `tests/data/wire_transcript.txt` byte for byte. The
//! scripts cover both dialects' happy paths and every framing edge
//! the serving spec promises: blank-line skipping, `BATCH 0`,
//! sessionless `STATS`, the "connection closed before …" line
//! numbers, mid-batch violations, post-`END` v2 framing, and the
//! driver-injected `ERR busy`. Every script also replays one byte at
//! a time and must produce the same output, except where a `STATS`
//! reply reports the bytes received so far.
//!
//! A last loopback test pins the client half: an over-cap batch is
//! refused locally in both dialects.

use acmr_core::{AcmrError, OnlineAdmission, Outcome, Registry, Request, RequestId};
use acmr_harness::default_registry;
use acmr_serve::protocol::{
    encode_reset, write_frame, ProtoVersion, FRAME_BATCH, FRAME_END, FRAME_REQ, FRAME_RESET,
    FRAME_STATS, MAX_BATCH,
};
use acmr_serve::{serve, Connection, MachineConfig, ServeClient, ServeConfig};
use acmr_workloads::binfmt::encode_record_into;
use std::fmt::Write as _;
use std::sync::Arc;

/// Admits every arrival regardless of load — the referee's capacity
/// audit turns its second arrival on a full edge into a contract
/// violation, which is how the scripts reach the mid-batch `ERR`.
struct AcceptAll;

impl OnlineAdmission for AcceptAll {
    fn name(&self) -> &'static str {
        "accept-all"
    }

    fn on_request(&mut self, _id: RequestId, _request: &Request) -> Outcome {
        Outcome::accept()
    }
}

fn registry() -> Arc<Registry> {
    let mut registry = default_registry();
    registry.register(
        "accept-all",
        "admits everything (test-only contract violator)",
        Box::new(|_, _| Ok(Box::new(AcceptAll))),
    );
    Arc::new(registry)
}

/// One scripted connection: the bytes the peer sends, whether it then
/// hangs up, and an optional driver-injected failure before any input.
struct Script {
    name: &'static str,
    max_proto: ProtoVersion,
    input: Vec<u8>,
    eof: bool,
    fail: Option<AcmrError>,
}

fn script(name: &'static str, input: impl Into<Vec<u8>>) -> Script {
    Script {
        name,
        max_proto: ProtoVersion::V2,
        input: input.into(),
        eof: true,
        fail: None,
    }
}

fn request(cost: f64, edges: &[u32]) -> Request {
    let edges = edges.iter().map(|&e| acmr_graph::EdgeId(e)).collect();
    Request::new(acmr_graph::EdgeSet::new(edges), cost)
}

fn frame(wire: &mut Vec<u8>, ty: u8, payload: &[u8]) {
    write_frame(wire, ty, payload).unwrap();
}

fn req_frame(wire: &mut Vec<u8>, r: &Request, m: u32) {
    let mut payload = Vec::new();
    encode_record_into(&mut payload, r, m).unwrap();
    frame(wire, FRAME_REQ, &payload);
}

fn batch_frame(wire: &mut Vec<u8>, batch: &[Request], m: u32) {
    let mut payload = (batch.len() as u32).to_le_bytes().to_vec();
    for r in batch {
        encode_record_into(&mut payload, r, m).unwrap();
    }
    frame(wire, FRAME_BATCH, &payload);
}

fn reset_frame(wire: &mut Vec<u8>, spec: &str, seed: Option<u64>, caps: &[u32]) {
    let mut payload = Vec::new();
    encode_reset(&mut payload, spec, seed, caps);
    frame(wire, FRAME_RESET, &payload);
}

/// A v2 handshake followed by `frames`.
fn v2(open: &str, frames: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut wire = format!("{open}\nedges 2\ncaps 1 2\n").into_bytes();
    frames(&mut wire);
    wire
}

fn scripts() -> Vec<Script> {
    let busy = || AcmrError::Busy {
        message: "accept queue full (1024 connections)".into(),
    };
    let hot = [
        request(1.0, &[0]),
        request(2.0, &[0, 1]),
        request(3.0, &[0]),
    ];
    vec![
        script(
            "v1 happy path: blanks, single request, BATCH 3, BATCH 0, STATS before OPEN and mid-session, END",
            "\nSTATS\n\nOPEN preempt-cheapest seed=7\n\nedges 3\n  \t \ncaps 1 1 2\n\n\
             1.5 0 1\nBATCH 3\n2 1\n3 0 2\n1 2\n\nBATCH 0\n\nSTATS\n2.5 0 1 2\nEND\n1 0\n",
        ),
        script(
            "v1 randomized session echoes the spec seed",
            "OPEN aag-weighted?seed=9\nedges 2\ncaps 1 1\n1 0\n2 0 1\n3 1\nEND\n",
        ),
        script("v1 hangup before OPEN", ""),
        script("v1 EOF before edges", "OPEN greedy\n\n"),
        script("v1 EOF before caps", "OPEN greedy\nedges 2\n\n\n"),
        script(
            "v1 EOF mid-batch",
            "OPEN greedy\nedges 2\ncaps 1 1\nBATCH 3\n1 0\n",
        ),
        script(
            "v1 EOF between frames is a clean close",
            "OPEN greedy\nedges 2\ncaps 1 1\n1 0\n\n",
        ),
        script(
            "v1 blank inside a BATCH body is data",
            "OPEN greedy\nedges 2\ncaps 1 1\nBATCH 2\n1 0\n\n",
        ),
        script(
            "v1 BATCH x",
            "OPEN greedy\nedges 2\ncaps 1 1\nBATCH x\n",
        ),
        script(
            "v1 BATCH 65537",
            "OPEN greedy\nedges 2\ncaps 1 1\nBATCH 65537\n",
        ),
        script(
            "v1 out-of-range edge",
            "OPEN greedy\nedges 2\ncaps 1 1\n1 0\n1 5\n",
        ),
        script("v1 zero capacity", "OPEN greedy\nedges 2\ncaps 0 1\n"),
        script("v1 unknown algorithm", "OPEN nope\nedges 1\ncaps 1\n"),
        script("v1 bad OPEN argument", "OPEN greedy colour=blue\n"),
        script(
            "v1 mid-batch violation acknowledges the prefix",
            "OPEN accept-all\nedges 1\ncaps 1\nBATCH 3\n1 0\n2 0\n3 0\n",
        ),
        Script {
            max_proto: ProtoVersion::V1,
            ..script(
                "proto=v2 against a max_proto v1 machine",
                "OPEN greedy proto=v2\nedges 1\ncaps 1\n",
            )
        },
        script(
            "v2 events mode: REQ, BATCH, END, REPORT",
            v2("OPEN preempt-cheapest proto=v2 events=on", |w| {
                req_frame(w, &hot[0], 2);
                batch_frame(w, &hot[1..], 2);
                frame(w, FRAME_END, &[]);
            }),
        ),
        script(
            "v2 summary mode: BATCH, empty BATCH, STATS mid-session, END, STATS after END",
            v2("OPEN preempt-cheapest seed=3 proto=v2", |w| {
                batch_frame(w, &hot, 2);
                batch_frame(w, &[], 2);
                frame(w, FRAME_STATS, &[]);
                req_frame(w, &hot[0], 2);
                frame(w, FRAME_END, &[]);
                frame(w, FRAME_STATS, &[]);
            }),
        ),
        script(
            "v2 RESET with and without capacities",
            v2("OPEN greedy proto=v2", |w| {
                req_frame(w, &hot[1], 2);
                frame(w, FRAME_END, &[]);
                reset_frame(w, "preempt-cheapest", Some(5), &[1, 1, 1]);
                batch_frame(w, &[request(1.0, &[2]), request(2.0, &[2])], 3);
                frame(w, FRAME_END, &[]);
                reset_frame(w, "aag-unweighted?seed=4", None, &[]);
                batch_frame(w, &[request(1.0, &[0, 1, 2]), request(1.0, &[2])], 3);
                frame(w, FRAME_END, &[]);
            }),
        ),
        script(
            "v2 REQ after END",
            v2("OPEN greedy proto=v2", |w| {
                frame(w, FRAME_END, &[]);
                req_frame(w, &hot[0], 2);
            }),
        ),
        script(
            "v2 END with a payload",
            v2("OPEN greedy proto=v2", |w| frame(w, FRAME_END, &[0])),
        ),
        script(
            "v2 STATS with a payload",
            v2("OPEN greedy proto=v2", |w| frame(w, FRAME_STATS, &[1, 2])),
        ),
        script(
            "v2 unknown frame type 0x7f",
            v2("OPEN greedy proto=v2", |w| frame(w, 0x7f, &[])),
        ),
        script(
            "v2 truncated frame",
            v2("OPEN greedy proto=v2", |w| {
                req_frame(w, &hot[0], 2);
                w.extend_from_slice(&[FRAME_REQ, 9, 0, 0, 0, 1]);
            }),
        ),
        script(
            "v2 mid-batch violation, summary mode",
            v2("OPEN accept-all proto=v2", |w| {
                batch_frame(w, &hot, 2);
            }),
        ),
        script(
            "v2 mid-batch violation, events mode",
            v2("OPEN accept-all proto=v2 events=on", |w| {
                batch_frame(w, &hot, 2);
            }),
        ),
        Script {
            fail: Some(busy()),
            ..script("fail(Busy) before OPEN, line dialect", "")
        },
        Script {
            fail: Some(busy()),
            eof: false,
            ..script(
                "fail(Busy) mid-session, frame dialect",
                v2("OPEN greedy proto=v2", |w| req_frame(w, &hot[0], 2)),
            )
        },
    ]
}

/// Run one script, feeding `input` in `chunk`-byte pieces. A scripted
/// failure is injected before the input when the script has none,
/// otherwise after it.
fn run(script: &Script, chunk: usize) -> Vec<u8> {
    let config = MachineConfig {
        max_proto: script.max_proto,
        ..MachineConfig::default()
    };
    let mut conn = Connection::new(registry(), config);
    for piece in script.input.chunks(chunk) {
        conn.feed(piece);
    }
    if let Some(e) = &script.fail {
        conn.fail(e);
    }
    if script.eof {
        conn.feed_eof();
    }
    conn.drain_output()
}

/// Escape output bytes for the fixture: printable ASCII stays, every
/// other byte is `\xNN` (or `\n`, `\t`, …), and each escaped newline
/// is followed by a real one so line replies stay one per row.
fn render(out: &mut String, name: &str, bytes: &[u8]) {
    writeln!(out, "== {name}").unwrap();
    for line in bytes.split_inclusive(|&b| b == b'\n') {
        writeln!(out, "{}", line.escape_ascii()).unwrap();
    }
}

#[test]
fn machine_output_matches_the_transcript_byte_for_byte() {
    let mut transcript = String::new();
    for s in scripts() {
        let whole = run(&s, s.input.len().max(1));
        render(&mut transcript, s.name, &whole);
        // STATS replies count the bytes received so far, the one
        // documented exception to chunking invariance.
        if !String::from_utf8_lossy(&whole).contains("\"bytes_in\"") {
            assert_eq!(
                run(&s, 1),
                whole,
                "{}: byte-at-a-time output differs",
                s.name
            );
        }
    }
    let expected = include_str!("data/wire_transcript.txt");
    for (i, (got, want)) in transcript.lines().zip(expected.lines()).enumerate() {
        assert_eq!(got, want, "transcript line {} differs", i + 1);
    }
    assert_eq!(transcript, expected);
}

#[test]
fn an_over_cap_batch_is_refused_locally_in_both_dialects() {
    let server = serve(
        default_registry(),
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .expect("bind loopback server");
    let batch = vec![request(1.0, &[0]); MAX_BATCH + 1];
    let mut v1 = ServeClient::connect(server.local_addr(), "greedy", None, &[1]).unwrap();
    let err = v1.push_batch(&batch).unwrap_err();
    assert!(matches!(err, AcmrError::InvalidRequest { .. }), "v1: {err}");
    let mut v2 = ServeClient::connect_v2(server.local_addr(), "greedy", None, &[1], true).unwrap();
    let err = v2.push_batch(&batch).unwrap_err();
    assert!(matches!(err, AcmrError::InvalidRequest { .. }), "v2: {err}");
    // Both sessions are still usable: nothing reached the wire.
    assert_eq!(v1.push(&batch[0]).unwrap().id, RequestId(0));
    assert_eq!(v2.push(&batch[0]).unwrap().id, RequestId(0));
    assert_eq!(v1.finish().unwrap().requests, 1);
    assert_eq!(v2.finish().unwrap().requests, 1);
    server.shutdown();
}
