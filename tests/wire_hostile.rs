//! Hostile bytes through both wire decoders: seeded random payloads,
//! every truncation of every valid frame, frame lengths out of bounds,
//! unknown opcodes, element counts larger than their frame, trailing
//! bytes. The contract (`minoan_server::protocol` module docs): every
//! such input is an error or a clean end of stream, never a panic, and
//! no count sizes a `Vec` past what its frame holds. Over a live server a
//! malformed frame costs only its own connection.

mod common;

use common::{assert_pairs_bit_identical, SplitMix};
use minoan::blocking::ErMode;
use minoan::datagen::{generate, profiles};
use minoan::metablocking::{IncrementalSession, Pruning, WeightingScheme};
use minoan::rdf::EntityId;
use minoan_server::protocol::{self, MAX_FRAME};
use minoan_server::{
    Client, IngestReply, Request, ResolveReply, ResolveService, Response, Server, StatsReply,
};
use proptest::prelude::*;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};

/// What the decoders answer when a count cannot fit in its frame.
const COUNT_ERROR: &str = "element count exceeds the frame body";

const OP_INGEST: u8 = 0x02;
const OP_RESOLVED: u8 = 0x81;

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut wire = (payload.len() as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(payload);
    wire
}

fn valid_requests() -> Vec<Vec<u8>> {
    let requests = [
        Request::Resolve(42),
        Request::Ingest(vec![]),
        Request::Ingest(vec![7, 1, 9]),
        Request::Stats,
        Request::Shutdown,
    ];
    requests
        .iter()
        .map(|req| {
            let mut wire = Vec::new();
            protocol::write_request(&mut wire, req).expect("encode");
            wire
        })
        .collect()
}

fn valid_responses() -> Vec<Vec<u8>> {
    let responses = [
        Response::Resolved(ResolveReply {
            version: 3,
            entity: 5,
            pairs: vec![(1, 5, 0.25f64.to_bits()), (5, 9, f64::MAX.to_bits())],
        }),
        Response::Resolved(ResolveReply {
            version: 1,
            entity: 0,
            pairs: vec![],
        }),
        Response::Ingested(IngestReply {
            version: 9,
            arrived: 16,
            swept: 4,
            invalidated: 2,
            delta: true,
        }),
        Response::Stats(StatsReply::default()),
        Response::Bye,
        Response::Err("entity id out of range".into()),
    ];
    responses
        .iter()
        .map(|resp| {
            let mut wire = Vec::new();
            protocol::write_response(&mut wire, resp).expect("encode");
            wire
        })
        .collect()
}

fn request_error(wire: &[u8]) -> String {
    match protocol::read_request(&mut &*wire) {
        Err(e) => e.to_string(),
        Ok(got) => panic!("{wire:?} decoded as a request: {got:?}"),
    }
}

fn response_error(wire: &[u8]) -> String {
    match protocol::read_response(&mut &*wire) {
        Err(e) => e.to_string(),
        Ok(got) => panic!("{wire:?} decoded as a response: {got:?}"),
    }
}

/// Both decoders over `wire`. Neither may panic; a request the server
/// would act on must be exactly what the bytes it consumed encode.
fn decode_both(wire: &[u8]) {
    let mut rest = wire;
    if let Ok(Some(req)) = protocol::read_request(&mut rest) {
        let mut again = Vec::new();
        protocol::write_request(&mut again, &req).expect("encode");
        assert_eq!(again, wire[..wire.len() - rest.len()], "{req:?}");
    }
    let _ = protocol::read_response(&mut &*wire);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random bytes, and random payloads behind a length prefix that
    /// matches them, so the opcode and body decoders see them too.
    #[test]
    fn random_payloads_never_panic(seed in 0u64..u64::MAX, len in 1usize..80) {
        let mut rng = SplitMix(seed);
        let mut payload: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        decode_both(&payload);
        payload[0] = rng.pick(&[0x01, 0x02, 0x03, 0x04, 0x81, 0x82, 0x83, 0x84, 0xFF]);
        decode_both(&frame(&payload));
    }
}

#[test]
fn every_truncation_of_a_valid_frame_is_an_error() {
    for wire in valid_requests() {
        assert_eq!(protocol::read_request(&mut &wire[..0]).expect("EOF"), None);
        for cut in 1..wire.len() {
            request_error(&wire[..cut]);
        }
    }
    for wire in valid_responses() {
        for cut in 0..wire.len() {
            response_error(&wire[..cut]);
        }
    }
}

#[test]
fn frame_lengths_out_of_bounds_are_errors() {
    for len in [0, MAX_FRAME as u32 + 1, u32::MAX] {
        let wire = len.to_le_bytes();
        assert_eq!(request_error(&wire), "frame length out of bounds");
        assert_eq!(response_error(&wire), "frame length out of bounds");
    }
}

/// Serves its bytes, then end of stream, and keeps the largest buffer it
/// was asked to fill.
struct Trickle<'a> {
    bytes: &'a [u8],
    largest: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.largest = self.largest.max(buf.len());
        self.bytes.read(buf)
    }
}

/// A header announcing `MAX_FRAME` bytes, then 10 of them: both decoders
/// fail, and neither hands the reader a buffer past 64 KiB.
#[test]
fn a_frame_body_is_read_only_as_far_as_it_arrives() {
    let mut wire = (MAX_FRAME as u32).to_le_bytes().to_vec();
    wire.extend([OP_INGEST; 10]);
    let mut reader = Trickle {
        bytes: &wire,
        largest: 0,
    };
    assert!(protocol::read_request(&mut reader).is_err());
    assert!(reader.largest <= 64 << 10, "{} bytes", reader.largest);
    let mut reader = Trickle {
        bytes: &wire,
        largest: 0,
    };
    assert!(protocol::read_response(&mut reader).is_err());
    assert!(reader.largest <= 64 << 10, "{} bytes", reader.largest);
}

#[test]
fn unknown_opcodes_are_errors() {
    for op in 0..=u8::MAX {
        if !matches!(op, 0x01..=0x04) {
            assert_eq!(request_error(&frame(&[op])), "unknown request opcode");
        }
        if !matches!(op, 0x81..=0x84 | 0xFF) {
            assert_eq!(response_error(&frame(&[op])), "unknown response opcode");
        }
    }
}

/// The 9-byte INGEST frame claiming 4 194 304 ids, and counts one past
/// what the body holds, fail on the count itself: nothing is sized by it.
#[test]
fn counts_larger_than_the_body_fail_before_allocating() {
    for (count, ids) in [(4_194_304u32, 0u32), (1, 0), (3, 2), (u32::MAX, 1)] {
        let mut payload = vec![OP_INGEST];
        payload.extend_from_slice(&count.to_le_bytes());
        for id in 0..ids {
            payload.extend_from_slice(&id.to_le_bytes());
        }
        assert_eq!(request_error(&frame(&payload)), COUNT_ERROR, "{count}");
    }
    for (count, pairs) in [(1_048_576u32, 0usize), (1, 0), (2, 1), (u32::MAX, 1)] {
        let mut payload = vec![OP_RESOLVED];
        payload.extend_from_slice(&7u64.to_le_bytes());
        payload.extend_from_slice(&5u32.to_le_bytes());
        payload.extend_from_slice(&count.to_le_bytes());
        payload.extend_from_slice(&vec![0; 16 * pairs]);
        assert_eq!(response_error(&frame(&payload)), COUNT_ERROR, "{count}");
    }
}

#[test]
fn trailing_bytes_are_errors() {
    for wire in valid_requests() {
        let mut payload = wire[4..].to_vec();
        payload.push(0);
        assert_eq!(
            request_error(&frame(&payload)),
            "trailing bytes after message body"
        );
    }
    // ERR's body is the rest of the frame, so it has no trailing bytes.
    for wire in valid_responses().iter().filter(|w| w[4] != 0xFF) {
        let mut payload = wire[4..].to_vec();
        payload.push(0);
        assert_eq!(
            response_error(&frame(&payload)),
            "trailing bytes after message body"
        );
    }
}

/// Each malformed frame on its own connection gets `ERR` and then the
/// server closes that connection; a healthy connection afterwards is
/// answered bit-identically to a reference session.
#[test]
fn a_live_server_answers_err_and_keeps_serving() {
    let g = generate(&profiles::center_dense(60, 3));
    let (scheme, pruning) = (WeightingScheme::Js, Pruning::Wnp { reciprocal: false });
    let service = ResolveService::new(&g.dataset, ErMode::CleanClean, scheme, pruning, 16);
    let ids: Vec<u32> = (0..40).collect();
    service.ingest(&ids).expect("valid batch");
    let server = Server::bind("127.0.0.1:0", service, 2).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");

    let mut count_frame = vec![OP_INGEST];
    count_frame.extend_from_slice(&4_194_304u32.to_le_bytes());
    let hostile: Vec<Vec<u8>> = vec![
        frame(&count_frame),
        frame(&[0x7E]),
        0u32.to_le_bytes().to_vec(),
        (MAX_FRAME as u32 + 1).to_le_bytes().to_vec(),
        frame(&[0x03, 0]),
        // Truncated: the write half closes mid-frame.
        valid_requests()[2][..9].to_vec(),
    ];
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let _stop = server.stop_on_drop();
        for wire in &hostile {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream.write_all(wire).expect("send");
            stream.shutdown(Shutdown::Write).expect("half-close");
            let reply = protocol::read_response(&mut stream).expect("an answer");
            assert_eq!(reply, Response::Err("malformed request".into()), "{wire:?}");
            let closed = protocol::read_response(&mut stream);
            assert!(
                closed.is_err(),
                "{wire:?}: the server closed the connection"
            );
        }

        let mut client = Client::connect(addr).expect("connect");
        let mut reference = IncrementalSession::new(&g.dataset, ErMode::CleanClean);
        reference.scheme(scheme).pruning(pruning);
        reference.ingest(&ids.iter().map(|&e| EntityId(e)).collect::<Vec<_>>());
        for e in [3u32, 17, 39] {
            let reply = client.resolve(e).expect("in range");
            let want = reference.resolve_entity(EntityId(e)).matches;
            assert_pairs_bit_identical(&reply.weighted_pairs(), &want, &format!("e={e}"));
        }
        client.shutdown().expect("clean shutdown");
        running
            .join()
            .expect("server thread exits")
            .expect("run returns ok");
    });
}
