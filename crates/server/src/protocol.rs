//! The wire format: length-prefixed binary frames.
//!
//! Every message is one frame: a little-endian `u32` payload length,
//! then the payload — one opcode byte followed by the body. All
//! integers are little-endian; f64 weights travel as their raw bit
//! pattern ([`f64::to_bits`]), so the bit-identity contract survives
//! serialisation exactly.
//!
//! | opcode | message | body |
//! |--------|---------|------|
//! | `0x01` | `RESOLVE`  | `u32` entity |
//! | `0x02` | `INGEST`   | `u32` count, count × `u32` entity |
//! | `0x03` | `STATS`    | — |
//! | `0x04` | `SHUTDOWN` | — |
//! | `0x81` | `RESOLVED` | `u64` version, `u32` entity, `u32` n, n × (`u32` a, `u32` b, `u64` weight bits) |
//! | `0x82` | `INGESTED` | `u64` version, `u32` arrived, `u32` swept, `u32` invalidated, `u8` delta |
//! | `0x83` | `STATS`    | 7 × `u64` (resolves, coalesced = 0, cache hits, cache misses, ingests, arrived, version) |
//! | `0x84` | `BYE`      | — |
//! | `0xFF` | `ERR`      | UTF-8 message |
//!
//! Frames above [`MAX_FRAME`] bytes (and zero-length payloads) are
//! rejected as malformed before any allocation happens — a garbage
//! length prefix must not become a multi-gigabyte `Vec`, and a body is
//! read only as far as its bytes arrive, 64 KiB at first. Likewise an
//! element count is checked against the bytes left in its frame before
//! it sizes a `Vec`, so a decoder allocates only what the frame holds.

use minoan_metablocking::WeightedPair;
use minoan_rdf::EntityId;
use std::io::{self, Read, Write};

/// Upper bound on one frame's payload (16 MiB). Generous: the largest
/// real payload is a `RESOLVED` body at 16 bytes per kept pair.
pub const MAX_FRAME: usize = 16 << 20;

/// What a frame body's buffer holds before any of it has arrived.
const READ_CHUNK: usize = 64 << 10;

const OP_RESOLVE: u8 = 0x01;
const OP_INGEST: u8 = 0x02;
const OP_STATS: u8 = 0x03;
const OP_SHUTDOWN: u8 = 0x04;
const OP_RESOLVED: u8 = 0x81;
const OP_INGESTED: u8 = 0x82;
const OP_STATS_REPLY: u8 = 0x83;
const OP_BYE: u8 = 0x84;
const OP_ERR: u8 = 0xFF;

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Resolve one entity at the current corpus version.
    Resolve(u32),
    /// Ingest a batch of not-yet-arrived entities.
    Ingest(Vec<u32>),
    /// Read the service counters.
    Stats,
    /// Stop the server (the connection gets a `BYE` first).
    Shutdown,
}

/// The answer to a [`Request::Resolve`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResolveReply {
    /// Corpus version the answer was computed at: read under the
    /// service's state lock, with the sweep or cache probe it stamps
    /// (the admission point).
    pub version: u64,
    /// The queried entity.
    pub entity: u32,
    /// Kept pairs as `(a, b, weight bits)` in presentation order.
    pub pairs: Vec<(u32, u32, u64)>,
}

impl ResolveReply {
    /// The kept pairs decoded back into [`WeightedPair`]s — bit-exact,
    /// since weights travel as raw bits.
    pub fn weighted_pairs(&self) -> Vec<WeightedPair> {
        self.pairs
            .iter()
            .map(|&(a, b, bits)| WeightedPair {
                a: EntityId(a),
                b: EntityId(b),
                weight: f64::from_bits(bits),
            })
            .collect()
    }
}

/// The answer to a [`Request::Ingest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IngestReply {
    /// Corpus version after the batch (one ingest = one bump).
    pub version: u64,
    /// Entities in the batch.
    pub arrived: u32,
    /// Entities the delta-sweep re-swept.
    pub swept: u32,
    /// Hot-neighbourhood cache entries this ingest dropped.
    pub invalidated: u32,
    /// Whether the delta path ran (vs. a full re-sweep fallback).
    pub delta: bool,
}

/// The answer to a [`Request::Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsReply {
    /// RESOLVE requests answered.
    pub resolves: u64,
    /// Always 0 (resolves are not coalesced); kept so the body stays
    /// seven `u64`s for existing clients.
    pub coalesced: u64,
    /// Resolves answered from the hot-neighbourhood cache.
    pub cache_hits: u64,
    /// Resolves that had to run a sweep.
    pub cache_misses: u64,
    /// INGEST batches applied.
    pub ingests: u64,
    /// Entities arrived so far.
    pub num_arrived: u64,
    /// Current corpus version.
    pub version: u64,
}

/// A server → client message.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Answer to `RESOLVE`.
    Resolved(ResolveReply),
    /// Answer to `INGEST`.
    Ingested(IngestReply),
    /// Answer to `STATS`.
    Stats(StatsReply),
    /// Acknowledges `SHUTDOWN`; the server stops accepting.
    Bye,
    /// The request was rejected; the connection stays usable.
    Err(String),
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn bad(msg: &'static str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A bounds-checked reader over one frame payload.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| bad("frame offset overflow"))?;
        if end > self.buf.len() {
            return Err(bad("frame body truncated"));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `u32` element count, checked against what is left of the frame
    /// for elements of `size` bytes, so a forged count cannot size an
    /// allocation past the frame.
    fn count(&mut self, size: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / size {
            return Err(bad("element count exceeds the frame body"));
        }
        Ok(n)
    }

    fn rest(&mut self) -> &'a [u8] {
        let s = &self.buf[self.pos..];
        self.pos = self.buf.len();
        s
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after message body"))
        }
    }
}

fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(!payload.is_empty() && payload.len() <= MAX_FRAME);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame payload; `Ok(None)` on a clean EOF *before* any
/// header byte (the peer closed between messages).
fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        let n = r.read(&mut header[got..])?;
        if n == 0 {
            if got == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "truncated frame header",
            ));
        }
        got += n;
    }
    let len = u32::from_le_bytes(header) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(bad("frame length out of bounds"));
    }
    let mut payload = Vec::with_capacity(len.min(READ_CHUNK));
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated frame body",
        ));
    }
    Ok(Some(payload))
}

/// Serialises one request as a frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> io::Result<()> {
    let mut p = Vec::new();
    match req {
        Request::Resolve(e) => {
            p.push(OP_RESOLVE);
            put_u32(&mut p, *e);
        }
        Request::Ingest(ids) => {
            p.push(OP_INGEST);
            put_u32(&mut p, ids.len() as u32);
            for &e in ids {
                put_u32(&mut p, e);
            }
        }
        Request::Stats => p.push(OP_STATS),
        Request::Shutdown => p.push(OP_SHUTDOWN),
    }
    write_frame(w, &p)
}

/// Reads one request; `Ok(None)` when the peer closed cleanly.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<Request>> {
    let Some(payload) = read_frame(r)? else {
        return Ok(None);
    };
    let mut c = Cursor::new(&payload);
    let req = match c.u8()? {
        OP_RESOLVE => Request::Resolve(c.u32()?),
        OP_INGEST => {
            let n = c.count(4)?;
            let mut ids = Vec::with_capacity(n);
            for _ in 0..n {
                ids.push(c.u32()?);
            }
            Request::Ingest(ids)
        }
        OP_STATS => Request::Stats,
        OP_SHUTDOWN => Request::Shutdown,
        _ => return Err(bad("unknown request opcode")),
    };
    c.finish()?;
    Ok(Some(req))
}

/// Serialises one response as a frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut p = Vec::new();
    match resp {
        Response::Resolved(m) => {
            p.push(OP_RESOLVED);
            put_u64(&mut p, m.version);
            put_u32(&mut p, m.entity);
            put_u32(&mut p, m.pairs.len() as u32);
            for &(a, b, bits) in &m.pairs {
                put_u32(&mut p, a);
                put_u32(&mut p, b);
                put_u64(&mut p, bits);
            }
        }
        Response::Ingested(m) => {
            p.push(OP_INGESTED);
            put_u64(&mut p, m.version);
            put_u32(&mut p, m.arrived);
            put_u32(&mut p, m.swept);
            put_u32(&mut p, m.invalidated);
            p.push(m.delta as u8);
        }
        Response::Stats(m) => {
            p.push(OP_STATS_REPLY);
            for v in [
                m.resolves,
                m.coalesced,
                m.cache_hits,
                m.cache_misses,
                m.ingests,
                m.num_arrived,
                m.version,
            ] {
                put_u64(&mut p, v);
            }
        }
        Response::Bye => p.push(OP_BYE),
        Response::Err(msg) => {
            p.push(OP_ERR);
            p.extend_from_slice(msg.as_bytes());
        }
    }
    write_frame(w, &p)
}

/// Reads one response; the peer closing mid-conversation is an error
/// (a client always expects an answer to its request).
pub fn read_response(r: &mut impl Read) -> io::Result<Response> {
    let payload = read_frame(r)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
    })?;
    let mut c = Cursor::new(&payload);
    let resp = match c.u8()? {
        OP_RESOLVED => {
            let version = c.u64()?;
            let entity = c.u32()?;
            let n = c.count(16)?;
            let mut pairs = Vec::with_capacity(n);
            for _ in 0..n {
                let a = c.u32()?;
                let b = c.u32()?;
                let bits = c.u64()?;
                pairs.push((a, b, bits));
            }
            Response::Resolved(ResolveReply {
                version,
                entity,
                pairs,
            })
        }
        OP_INGESTED => Response::Ingested(IngestReply {
            version: c.u64()?,
            arrived: c.u32()?,
            swept: c.u32()?,
            invalidated: c.u32()?,
            delta: c.u8()? != 0,
        }),
        OP_STATS_REPLY => Response::Stats(StatsReply {
            resolves: c.u64()?,
            coalesced: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            ingests: c.u64()?,
            num_arrived: c.u64()?,
            version: c.u64()?,
        }),
        OP_BYE => Response::Bye,
        OP_ERR => {
            let msg = String::from_utf8(c.rest().to_vec())
                .map_err(|_| bad("error message is not UTF-8"))?;
            Response::Err(msg)
        }
        _ => return Err(bad("unknown response opcode")),
    };
    c.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let mut wire = Vec::new();
        write_request(&mut wire, &req).expect("write");
        let got = read_request(&mut wire.as_slice()).expect("read");
        assert_eq!(got, Some(req));
    }

    fn roundtrip_response(resp: Response) {
        let mut wire = Vec::new();
        write_response(&mut wire, &resp).expect("write");
        let got = read_response(&mut wire.as_slice()).expect("read");
        assert_eq!(got, resp);
    }

    #[test]
    fn requests_round_trip() {
        roundtrip_request(Request::Resolve(42));
        roundtrip_request(Request::Ingest(vec![]));
        roundtrip_request(Request::Ingest(vec![7, 1, 9]));
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        roundtrip_response(Response::Resolved(ResolveReply {
            version: 3,
            entity: 5,
            pairs: vec![(1, 5, 0.25f64.to_bits()), (5, 9, f64::MAX.to_bits())],
        }));
        roundtrip_response(Response::Ingested(IngestReply {
            version: 9,
            arrived: 16,
            swept: 4,
            invalidated: 2,
            delta: true,
        }));
        roundtrip_response(Response::Stats(StatsReply {
            resolves: 1,
            coalesced: 2,
            cache_hits: 3,
            cache_misses: 4,
            ingests: 5,
            num_arrived: 6,
            version: 7,
        }));
        roundtrip_response(Response::Bye);
        roundtrip_response(Response::Err("entity id out of range".to_string()));
    }

    #[test]
    fn weight_bits_survive_the_wire() {
        let w = 0.1f64 + 0.2f64; // a value with an awkward mantissa
        let reply = ResolveReply {
            version: 1,
            entity: 0,
            pairs: vec![(0, 1, w.to_bits())],
        };
        let decoded = reply.weighted_pairs();
        assert_eq!(decoded[0].weight.to_bits(), w.to_bits());
    }

    #[test]
    fn eof_between_messages_is_clean() {
        let empty: &[u8] = &[];
        assert_eq!(read_request(&mut &*empty).expect("clean EOF"), None);
    }
}
