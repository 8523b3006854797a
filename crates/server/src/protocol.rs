//! The wire protocol: length-prefixed, CRC-framed binary messages.
//!
//! Every message travels as one *frame*:
//!
//! ```text
//! +----------------+----------------+=====================+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes) |
//! +----------------+----------------+=====================+
//! ```
//!
//! `crc` is CRC-32 (ISO-HDLC, the journal's polynomial) over the
//! payload bytes. The payload is `[tag: u8][body]` with the body in
//! [`Encoder`](sq_store::Encoder) wire format — the same codec the
//! journal events use, so a patch is encoded identically whether it is
//! crossing the socket or landing in the WAL.
//!
//! The framing discipline mirrors [`ShipBatch`](sq_store::ShipBatch)
//! and the journal: a frame arrives *exactly* as framed or is refused
//! whole. A length beyond the cap, a CRC mismatch, an unknown tag, or
//! trailing bytes after the body all reject the frame (and the server
//! closes the connection — once framing is untrusted there is no
//! resync point). Truncation is indistinguishable from "more bytes in
//! flight" until the peer hangs up, at which point the partial frame is
//! refused as torn.

use sq_core::durable::{
    decode_commit, decode_patch, decode_ticket_state, encode_commit, encode_patch,
    encode_ticket_state,
};
use sq_core::{TicketId, TicketState};
use sq_store::checksum::crc32;
use sq_store::{CodecError, Decoder, Encoder, StoreError};
use sq_vcs::{CommitId, Patch};
use std::io::{self, Read, Write};

/// Frame header size: `len` + `crc`.
pub const FRAME_HEADER_BYTES: usize = 8;

/// Default cap on a single frame's payload. Patches are whole files,
/// so frames are allowed to be large — but a flipped bit in the length
/// field must not make the server try to buffer gigabytes.
pub const MAX_FRAME_BYTES: u32 = 8 << 20;

/// Why a frame (not a message) was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length field exceeds the negotiated cap.
    TooLarge {
        /// Claimed payload length.
        len: u32,
        /// The cap it exceeded.
        max: u32,
    },
    /// The frame is structurally broken (CRC mismatch, torn tail).
    Corrupt {
        /// What was wrong.
        what: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds cap of {max}")
            }
            FrameError::Corrupt { what } => write!(f, "corrupt frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Frame `payload` for the wire: header (length + CRC) then payload.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("frame payload fits in u32");
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Try to decode one frame from the front of `buf`.
///
/// Returns `Ok(Some((payload, consumed)))` for a complete, checksummed
/// frame; `Ok(None)` when `buf` holds only a prefix (read more);
/// `Err` when the bytes can never become a valid frame. Pipelined
/// frames decode one at a time: callers drain `consumed` bytes and call
/// again, and frame boundaries are preserved exactly — a decoder never
/// reads past `consumed` into the next frame.
pub fn decode_frame(buf: &[u8], max: u32) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    if buf.len() < FRAME_HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes"));
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let total = FRAME_HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[FRAME_HEADER_BYTES..total];
    if crc32(payload) != crc {
        return Err(FrameError::Corrupt {
            what: "payload checksum mismatch",
        });
    }
    Ok(Some((payload.to_vec(), total)))
}

/// One poll step of a [`FrameReader`].
#[derive(Debug)]
pub enum FramePoll {
    /// A complete frame's payload.
    Frame(Vec<u8>),
    /// The peer closed cleanly on a frame boundary.
    Eof,
}

/// A frame-read failure: the connection is beyond recovery.
#[derive(Debug)]
pub enum FrameReadError {
    /// The byte stream violated framing.
    Frame(FrameError),
    /// The transport failed.
    Io(io::Error),
}

impl From<FrameError> for FrameReadError {
    fn from(e: FrameError) -> Self {
        FrameReadError::Frame(e)
    }
}

impl std::fmt::Display for FrameReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameReadError::Frame(e) => write!(f, "{e}"),
            FrameReadError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

/// Incremental frame reader over any blocking `Read`.
///
/// Buffers partial frames across reads, so it works with slow peers
/// that send a frame in pieces and with pipelined peers that pack many
/// frames into one TCP segment.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    max: u32,
}

impl FrameReader {
    /// A reader enforcing the `max` payload cap.
    pub fn new(max: u32) -> Self {
        FrameReader {
            buf: Vec::new(),
            max,
        }
    }

    /// Read until one complete frame, EOF, or an error.
    pub fn poll(&mut self, r: &mut impl Read) -> Result<FramePoll, FrameReadError> {
        loop {
            if let Some((payload, consumed)) = decode_frame(&self.buf, self.max)? {
                self.buf.drain(..consumed);
                return Ok(FramePoll::Frame(payload));
            }
            let mut chunk = [0u8; 4096];
            match r.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(FramePoll::Eof)
                    } else {
                        Err(FrameError::Corrupt {
                            what: "connection closed mid-frame (torn tail)",
                        }
                        .into())
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(FrameReadError::Io(e)),
            }
        }
    }
}

/// Frame and write `payload` to `w` in one syscall-friendly buffer.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&encode_frame(payload))
}

/// Why a well-framed payload was refused as a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The body violated the codec (short read, bad UTF-8, bad path).
    Codec {
        /// What the codec refused.
        what: &'static str,
    },
    /// The leading tag byte names no known message.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// Bytes remained after the message body: the frame was not
    /// exactly one message, so it is refused whole.
    TrailingBytes {
        /// How many bytes trailed.
        count: usize,
    },
}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        WireError::Codec { what: e.what }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Codec { what } => write!(f, "malformed message body: {what}"),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag}"),
            WireError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after message body")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A client-to-server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a change; acked only after the enqueue is journaled (and
    /// quorum-shipped when replication is configured).
    Enqueue {
        /// Submitting developer.
        author: String,
        /// Change description.
        description: String,
        /// Mainline commit the patch was authored against.
        base: CommitId,
        /// The change itself.
        patch: Patch,
    },
    /// Point-in-time state of a ticket.
    Status {
        /// The ticket to look up.
        ticket: u64,
    },
    /// Long-poll until the ticket reaches a terminal state, the
    /// timeout elapses, or the server drains.
    SubscribeVerdict {
        /// The ticket to watch.
        ticket: u64,
        /// Max wait in milliseconds; 0 waits until drain.
        timeout_ms: u32,
    },
    /// The server's metrics registry as sorted-key JSON.
    Stats,
    /// Current mainline HEAD (what new patches should be based on).
    Head,
}

const REQ_ENQUEUE: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_SUBSCRIBE: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_HEAD: u8 = 5;

impl Request {
    /// Encode as a frame payload (`[tag][body]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Request::Enqueue {
                author,
                description,
                base,
                patch,
            } => {
                enc.put_u8(REQ_ENQUEUE);
                enc.put_str(author);
                enc.put_str(description);
                encode_commit(&mut enc, *base);
                encode_patch(&mut enc, patch);
            }
            Request::Status { ticket } => {
                enc.put_u8(REQ_STATUS);
                enc.put_u64(*ticket);
            }
            Request::SubscribeVerdict { ticket, timeout_ms } => {
                enc.put_u8(REQ_SUBSCRIBE);
                enc.put_u64(*ticket);
                enc.put_u32(*timeout_ms);
            }
            Request::Stats => enc.put_u8(REQ_STATS),
            Request::Head => enc.put_u8(REQ_HEAD),
        }
        enc.finish()
    }

    /// Decode a frame payload; refuses unknown tags and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        let mut dec = Decoder::new(payload);
        let req = match dec.u8()? {
            REQ_ENQUEUE => Request::Enqueue {
                author: dec.str()?.to_string(),
                description: dec.str()?.to_string(),
                base: decode_commit(&mut dec)?,
                patch: decode_patch(&mut dec)?,
            },
            REQ_STATUS => Request::Status { ticket: dec.u64()? },
            REQ_SUBSCRIBE => Request::SubscribeVerdict {
                ticket: dec.u64()?,
                timeout_ms: dec.u32()?,
            },
            REQ_STATS => Request::Stats,
            REQ_HEAD => Request::Head,
            tag => return Err(WireError::UnknownTag { tag }),
        };
        if !dec.is_empty() {
            return Err(WireError::TrailingBytes {
                count: dec.remaining(),
            });
        }
        Ok(req)
    }
}

/// Protocol-level error classes, mirroring [`StoreError`] semantics so
/// a client can tell a refused frame from a dying store from a fenced
/// stale leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame or message was refused whole (framing/codec).
    Malformed,
    /// The frame exceeded the size cap.
    TooLarge,
    /// The durable store failed the operation (journal/storage).
    Store,
    /// This server was fenced by a higher-epoch leader; clients must
    /// rediscover the current leader.
    Fenced,
    /// The server is draining for shutdown and accepts no new work.
    Draining,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::TooLarge => 2,
            ErrorCode::Store => 3,
            ErrorCode::Fenced => 4,
            ErrorCode::Draining => 5,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            1 => ErrorCode::Malformed,
            2 => ErrorCode::TooLarge,
            3 => ErrorCode::Store,
            4 => ErrorCode::Fenced,
            5 => ErrorCode::Draining,
            tag => return Err(WireError::UnknownTag { tag }),
        })
    }

    /// Classify a store failure for the wire.
    pub fn for_store_error(e: &StoreError) -> ErrorCode {
        match e {
            StoreError::Fenced { .. } => ErrorCode::Fenced,
            _ => ErrorCode::Store,
        }
    }
}

/// A server-to-client reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The enqueue is durable; this ticket is the ack.
    Enqueued {
        /// The assigned ticket.
        ticket: u64,
    },
    /// Answer to `Status`; `None` when the ticket is unknown.
    StatusIs {
        /// The state, if the ticket exists.
        state: Option<TicketState>,
    },
    /// Answer to `SubscribeVerdict`: the ticket reached this state.
    Verdict {
        /// The watched ticket.
        ticket: u64,
        /// Its (typically terminal) state.
        state: TicketState,
    },
    /// Answer to `SubscribeVerdict`: the wait timed out first.
    VerdictTimeout {
        /// The watched ticket.
        ticket: u64,
    },
    /// Answer to `Stats`: the registry export.
    StatsJson {
        /// Sorted-key JSON document.
        json: String,
    },
    /// Answer to `Head`.
    HeadIs {
        /// Current mainline HEAD.
        commit: CommitId,
    },
    /// Backpressure: the in-flight window is full; retry later.
    Busy {
        /// Queue depth observed when the request was refused.
        queue_depth: u64,
    },
    /// The request failed; see the code for the class.
    Error {
        /// Failure class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

const RESP_ENQUEUED: u8 = 1;
const RESP_STATUS_IS: u8 = 2;
const RESP_VERDICT: u8 = 3;
const RESP_VERDICT_TIMEOUT: u8 = 4;
const RESP_STATS_JSON: u8 = 5;
const RESP_HEAD_IS: u8 = 6;
const RESP_BUSY: u8 = 7;
const RESP_ERROR: u8 = 8;

impl Response {
    /// Encode as a frame payload (`[tag][body]`).
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Response::Enqueued { ticket } => {
                enc.put_u8(RESP_ENQUEUED);
                enc.put_u64(*ticket);
            }
            Response::StatusIs { state } => {
                enc.put_u8(RESP_STATUS_IS);
                match state {
                    None => enc.put_u8(0),
                    Some(s) => {
                        enc.put_u8(1);
                        encode_ticket_state(&mut enc, s);
                    }
                }
            }
            Response::Verdict { ticket, state } => {
                enc.put_u8(RESP_VERDICT);
                enc.put_u64(*ticket);
                encode_ticket_state(&mut enc, state);
            }
            Response::VerdictTimeout { ticket } => {
                enc.put_u8(RESP_VERDICT_TIMEOUT);
                enc.put_u64(*ticket);
            }
            Response::StatsJson { json } => {
                enc.put_u8(RESP_STATS_JSON);
                enc.put_str(json);
            }
            Response::HeadIs { commit } => {
                enc.put_u8(RESP_HEAD_IS);
                encode_commit(&mut enc, *commit);
            }
            Response::Busy { queue_depth } => {
                enc.put_u8(RESP_BUSY);
                enc.put_u64(*queue_depth);
            }
            Response::Error { code, detail } => {
                enc.put_u8(RESP_ERROR);
                enc.put_u8(code.to_u8());
                enc.put_str(detail);
            }
        }
        enc.finish()
    }

    /// Decode a frame payload; refuses unknown tags and trailing bytes.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut dec = Decoder::new(payload);
        let resp = match dec.u8()? {
            RESP_ENQUEUED => Response::Enqueued { ticket: dec.u64()? },
            RESP_STATUS_IS => Response::StatusIs {
                state: match dec.u8()? {
                    0 => None,
                    1 => Some(decode_ticket_state(&mut dec)?),
                    tag => return Err(WireError::UnknownTag { tag }),
                },
            },
            RESP_VERDICT => Response::Verdict {
                ticket: dec.u64()?,
                state: decode_ticket_state(&mut dec)?,
            },
            RESP_VERDICT_TIMEOUT => Response::VerdictTimeout { ticket: dec.u64()? },
            RESP_STATS_JSON => Response::StatsJson {
                json: dec.str()?.to_string(),
            },
            RESP_HEAD_IS => Response::HeadIs {
                commit: decode_commit(&mut dec)?,
            },
            RESP_BUSY => Response::Busy {
                queue_depth: dec.u64()?,
            },
            RESP_ERROR => Response::Error {
                code: ErrorCode::from_u8(dec.u8()?)?,
                detail: dec.str()?.to_string(),
            },
            tag => return Err(WireError::UnknownTag { tag }),
        };
        if !dec.is_empty() {
            return Err(WireError::TrailingBytes {
                count: dec.remaining(),
            });
        }
        Ok(resp)
    }
}

/// Convenience: an enqueue ack for `ticket`.
pub fn enqueued(ticket: TicketId) -> Response {
    Response::Enqueued { ticket: ticket.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sq_vcs::{ObjectId, RepoPath};

    fn commit(b: u8) -> CommitId {
        CommitId(ObjectId::from_raw([b; 32]))
    }

    fn sample_patch() -> Patch {
        Patch::write(RepoPath::new("lib/l.rs").unwrap(), "pub fn l() {}")
    }

    #[test]
    fn frame_roundtrip_and_pipelining() {
        let a = encode_frame(b"alpha");
        let b = encode_frame(b"");
        let c = encode_frame(&[0xFF; 300]);
        let mut wire = Vec::new();
        wire.extend_from_slice(&a);
        wire.extend_from_slice(&b);
        wire.extend_from_slice(&c);
        let (p1, n1) = decode_frame(&wire, MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(p1, b"alpha");
        let (p2, n2) = decode_frame(&wire[n1..], MAX_FRAME_BYTES).unwrap().unwrap();
        assert_eq!(p2, b"");
        let (p3, n3) = decode_frame(&wire[n1 + n2..], MAX_FRAME_BYTES)
            .unwrap()
            .unwrap();
        assert_eq!(p3, vec![0xFF; 300]);
        assert_eq!(n1 + n2 + n3, wire.len());
    }

    #[test]
    fn truncated_frame_is_incomplete_not_corrupt() {
        let f = encode_frame(b"payload");
        for cut in 0..f.len() {
            assert_eq!(decode_frame(&f[..cut], MAX_FRAME_BYTES).unwrap(), None);
        }
    }

    #[test]
    fn oversized_length_is_refused() {
        let mut f = encode_frame(b"x");
        f[0..4].copy_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            decode_frame(&f, MAX_FRAME_BYTES),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn payload_corruption_is_refused() {
        let mut f = encode_frame(b"payload");
        let last = f.len() - 1;
        f[last] ^= 0x01;
        assert!(matches!(
            decode_frame(&f, MAX_FRAME_BYTES),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn all_requests_roundtrip() {
        let reqs = [
            Request::Enqueue {
                author: "alice".into(),
                description: "v1".into(),
                base: commit(7),
                patch: sample_patch(),
            },
            Request::Status { ticket: 42 },
            Request::SubscribeVerdict {
                ticket: 42,
                timeout_ms: 1500,
            },
            Request::Stats,
            Request::Head,
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn all_responses_roundtrip() {
        let resps = [
            Response::Enqueued { ticket: 9 },
            Response::StatusIs { state: None },
            Response::StatusIs {
                state: Some(TicketState::Queued),
            },
            Response::Verdict {
                ticket: 9,
                state: TicketState::Landed(commit(3)),
            },
            Response::Verdict {
                ticket: 9,
                state: TicketState::Rejected("merge conflict".into()),
            },
            Response::VerdictTimeout { ticket: 9 },
            Response::StatsJson {
                json: "{\"counters\":{}}".into(),
            },
            Response::HeadIs { commit: commit(1) },
            Response::Busy { queue_depth: 128 },
            Response::Error {
                code: ErrorCode::Fenced,
                detail: "epoch 3 fenced this leader".into(),
            },
        ];
        for resp in resps {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_are_refused_whole() {
        let mut p = Request::Status { ticket: 1 }.encode();
        p.push(0);
        assert!(matches!(
            Request::decode(&p),
            Err(WireError::TrailingBytes { count: 1 })
        ));
        let mut p = Response::Enqueued { ticket: 1 }.encode();
        p.push(9);
        assert!(matches!(
            Response::decode(&p),
            Err(WireError::TrailingBytes { count: 1 })
        ));
    }

    #[test]
    fn unknown_tags_are_refused() {
        assert!(matches!(
            Request::decode(&[200]),
            Err(WireError::UnknownTag { tag: 200 })
        ));
        assert!(matches!(
            Response::decode(&[0]),
            Err(WireError::UnknownTag { tag: 0 })
        ));
    }

    /// The ticket-state bytes inside `StatusIs` and `Verdict`, pinned:
    /// tag 0 queued, 1 landed (a 32-byte length-prefixed commit id),
    /// 2 rejected (a length-prefixed reason).
    #[test]
    fn ticket_state_payloads_are_pinned() {
        let hex = |b: Vec<u8>| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let landed = format!("01{}{}", "20000000", "03".repeat(32));
        let rejected = "02020000006e6f";
        let states = [
            (TicketState::Queued, "00".to_string()),
            (TicketState::Landed(commit(3)), landed),
            (TicketState::Rejected("no".into()), rejected.to_string()),
        ];
        for (state, body) in states {
            let status = Response::StatusIs {
                state: Some(state.clone()),
            };
            assert_eq!(hex(status.encode()), format!("0201{body}"));
            let verdict = Response::Verdict { ticket: 9, state };
            assert_eq!(hex(verdict.encode()), format!("030900000000000000{body}"));
        }
    }
}
