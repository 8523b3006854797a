//! Property tests for the wire protocol, mirroring the store's
//! `replicate_props`: every message type round-trips bit-exactly, any
//! truncation yields "incomplete" (never a wrong frame), any single
//! bit flip is refused whole, and pipelined frame boundaries are
//! preserved exactly through both the pure decoder and the incremental
//! `FrameReader` under arbitrary read fragmentation.

use proptest::prelude::*;
use sq_core::TicketState;
use sq_server::protocol::{
    decode_frame, encode_frame, FramePoll, FrameReader, Request, Response, MAX_FRAME_BYTES,
};
use sq_vcs::{CommitId, FileOp, ObjectId, Patch, RepoPath};
use std::io::Read;

fn commit_from(bytes: Vec<u8>) -> CommitId {
    let mut raw = [0u8; 32];
    for (i, b) in bytes.iter().take(32).enumerate() {
        raw[i] = *b;
    }
    CommitId(ObjectId::from_raw(raw))
}

fn arb_commit() -> impl Strategy<Value = CommitId> {
    proptest::collection::vec(any::<u8>(), 32..33).prop_map(commit_from)
}

/// Arbitrary unicode strings (the codec length-prefixes, so content is
/// unconstrained).
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(any::<char>(), 0..16).prop_map(|cs| cs.into_iter().collect())
}

/// Patches over generated-but-valid repo paths with arbitrary file
/// content (write) or deletes.
fn arb_patch() -> impl Strategy<Value = Patch> {
    proptest::collection::vec((any::<u8>(), any::<u8>(), arb_string()), 0..5).prop_map(|ops| {
        let mut patch = Patch::new();
        for (tag, path_seed, content) in ops {
            let path = RepoPath::new(format!("pkg{}/f{}.rs", path_seed % 7, path_seed))
                .expect("generated path is valid");
            if tag % 2 == 0 {
                patch.push(FileOp::Write { path, content });
            } else {
                patch.push(FileOp::Delete { path });
            }
        }
        patch
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (arb_string(), arb_string(), arb_commit(), arb_patch()).prop_map(
            |(author, description, base, patch)| Request::Enqueue {
                author,
                description,
                base,
                patch,
            }
        ),
        any::<u64>().prop_map(|ticket| Request::Status { ticket }),
        (any::<u64>(), any::<u32>())
            .prop_map(|(ticket, timeout_ms)| { Request::SubscribeVerdict { ticket, timeout_ms } }),
        Just(Request::Stats),
        Just(Request::Head),
    ]
}

fn arb_state() -> impl Strategy<Value = TicketState> {
    prop_oneof![
        Just(TicketState::Queued),
        arb_commit().prop_map(TicketState::Landed),
        arb_string().prop_map(TicketState::Rejected),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u64>().prop_map(|ticket| Response::Enqueued { ticket }),
        prop_oneof![Just(None), arb_state().prop_map(Some)]
            .prop_map(|state| Response::StatusIs { state }),
        (any::<u64>(), arb_state()).prop_map(|(ticket, state)| Response::Verdict { ticket, state }),
        any::<u64>().prop_map(|ticket| Response::VerdictTimeout { ticket }),
        arb_string().prop_map(|json| Response::StatsJson { json }),
        arb_commit().prop_map(|commit| Response::HeadIs { commit }),
        any::<u64>().prop_map(|queue_depth| Response::Busy { queue_depth }),
    ]
}

/// A reader that hands out at most `chunk` bytes per read call,
/// exercising arbitrary fragmentation of the byte stream.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf
            .len()
            .min(self.chunk.max(1))
            .min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Encode/decode round-trip for every request type.
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let payload = req.encode();
        prop_assert_eq!(Request::decode(&payload).unwrap(), req);
    }

    /// Encode/decode round-trip for every response type.
    #[test]
    fn responses_roundtrip(resp in arb_response()) {
        let payload = resp.encode();
        prop_assert_eq!(Response::decode(&payload).unwrap(), resp);
    }

    /// A strict prefix of a frame never decodes to anything: it is
    /// "incomplete", not a smaller frame and not garbage.
    #[test]
    fn any_truncation_is_incomplete(req in arb_request(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&req.encode());
        let cut = (cut_seed as usize) % frame.len();
        prop_assert_eq!(decode_frame(&frame[..cut], MAX_FRAME_BYTES).unwrap(), None);
    }

    /// Any single bit flip anywhere in a frame is refused whole: the
    /// decoder never yields a payload from a damaged frame. (A flip in
    /// the length field may also read as "incomplete" — what it can
    /// never do is produce a frame.)
    #[test]
    fn any_single_bit_flip_is_refused(req in arb_request(), flip_seed in any::<u64>()) {
        let mut frame = encode_frame(&req.encode());
        let bit = (flip_seed as usize) % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            !matches!(decode_frame(&frame, MAX_FRAME_BYTES), Ok(Some(_))),
            "bit flip {bit} yielded a frame"
        );
    }

    /// Pipelined frames decode one at a time with boundaries preserved
    /// exactly, via the pure decoder.
    #[test]
    fn pipelined_boundaries_are_preserved(reqs in proptest::collection::vec(arb_request(), 1..6)) {
        let mut wire = Vec::new();
        for r in &reqs {
            wire.extend_from_slice(&encode_frame(&r.encode()));
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while offset < wire.len() {
            let (payload, consumed) = decode_frame(&wire[offset..], MAX_FRAME_BYTES)
                .unwrap()
                .expect("complete frame");
            decoded.push(Request::decode(&payload).unwrap());
            offset += consumed;
        }
        prop_assert_eq!(offset, wire.len());
        prop_assert_eq!(decoded, reqs);
    }

    /// The incremental reader reassembles the same frames regardless of
    /// how the transport fragments its reads.
    #[test]
    fn frame_reader_survives_arbitrary_fragmentation(
        reqs in proptest::collection::vec(arb_request(), 1..6),
        chunk in 1usize..17,
    ) {
        let mut wire = Vec::new();
        for r in &reqs {
            wire.extend_from_slice(&encode_frame(&r.encode()));
        }
        let mut rd = ChunkedReader { data: wire, pos: 0, chunk };
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        let mut decoded = Vec::new();
        while let FramePoll::Frame(payload) = reader.poll(&mut rd).expect("clean stream") {
            decoded.push(Request::decode(&payload).unwrap());
        }
        prop_assert_eq!(decoded, reqs);
    }

    /// A stream cut mid-frame is refused as torn when the peer hangs
    /// up, mirroring the journal's torn-tail discipline.
    #[test]
    fn torn_stream_tail_is_refused(req in arb_request(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&req.encode());
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let mut rd = ChunkedReader { data: frame[..cut].to_vec(), pos: 0, chunk: 7 };
        let mut reader = FrameReader::new(MAX_FRAME_BYTES);
        match reader.poll(&mut rd) {
            Err(_) => {}
            Ok(p) => prop_assert!(
                matches!(p, FramePoll::Eof) && cut == 0,
                "torn tail must error, got {p:?}"
            ),
        }
    }
}
