//! Wire-size model, bandwidth accounting, and the versioned frame codec.
//!
//! The paper's bandwidth numbers (Table 3) are computed from a byte model
//! given in footnote 4: each routing-state item (finger or successor) is
//! 10 bytes, signatures are 40-byte ECDSA with a 4-byte timestamp,
//! certificates are 50 bytes, and onion encryption is AES-128 (16-byte
//! blocks). We adopt exactly those constants so our bandwidth estimates
//! are comparable with the paper's, independent of our toy crypto's real
//! sizes.
//!
//! The frame codec ([`encode_frame`] / [`decode_frame`]) is the *real*
//! byte format the UDP transport ships: a length-prefixed frame carrying
//! magic, schema version, a checksum, the [`FrameHeader`] (sender and
//! destination overlay addresses) and a [`WireCodec`]-encoded payload.
//! Malformed input of any kind is rejected with a [`FrameError`] — the
//! decoder never panics, no matter the bytes. The simulator serializes
//! nothing: its delivery lanes carry each message and its `from`/`to`
//! in memory.
//!
//! A datagram carries one or more whole frames back to back, all with
//! one sender and one destination; each keeps its own magic, version,
//! length and checksum, so a one-frame datagram is exactly
//! [`encode_frame`]'s bytes. [`append_frame`] adds a frame to a
//! datagram and [`decode_datagram`] takes every frame out of one,
//! accepting the datagram whole or not at all. A receiver built before
//! datagrams carried more than one frame reads a multi-frame datagram
//! as one frame whose length prefix disagrees with the datagram's size,
//! and rejects it as [`FrameError::BadLength`]: every process of a
//! deployment runs one build. [`SCHEMA_VERSION`] stays 1, because no
//! frame's bytes changed.
//!
//! Encoding is one pass: [`append_frame`] writes the header with its
//! length and checksum left open, lets the payload codec append straight
//! behind it, and fills the two in. The only buffer is the caller's,
//! which a host that sends many frames hands in again; [`encode_frame`]
//! is the same call on a fresh buffer.
//!
//! [`BandwidthLedger`] is the *report* of the byte accounting, not its
//! running state: the world counts a datagram's bytes in the slab slot
//! of the node it is already dispatching (sender at routing, receiver at
//! delivery) and builds a ledger, ordered by address, when asked.

use std::collections::BTreeMap;

use octopus_id::NodeId;

/// Byte-size constants from paper footnote 4.
pub mod sizes {
    /// One routing-state item (a finger or successor entry): id + address.
    pub const ROUTING_ITEM: u32 = 10;
    /// An ECDSA signature.
    pub const SIGNATURE: u32 = 40;
    /// Timestamp attached to signed routing tables.
    pub const TIMESTAMP: u32 = 4;
    /// An identity certificate (IP 6 + pubkey 20 + expiry 4 + CA sig 20).
    pub const CERTIFICATE: u32 = 50;
    /// AES block size used for onion layers.
    pub const AES_BLOCK: u32 = 16;
    /// UDP/IP header overhead per datagram.
    pub const UDP_HEADER: u32 = 28;
    /// A bare request (opcode + request id + key/target).
    pub const REQUEST: u32 = 24;

    /// A signed routing table of `items` entries: items + signature +
    /// timestamp + the owner's certificate.
    #[must_use]
    pub const fn signed_table(items: u32) -> u32 {
        items * ROUTING_ITEM + SIGNATURE + TIMESTAMP + CERTIFICATE
    }

    /// One onion layer of overhead on a payload (per-hop header rounded
    /// to AES blocks).
    #[must_use]
    pub const fn onion_layer(payload: u32) -> u32 {
        // next-hop item + padding to the next AES block boundary
        let raw = payload + ROUTING_ITEM;
        raw.div_ceil(AES_BLOCK) * AES_BLOCK
    }
}

/// Messages that know their size on the wire.
pub trait WireMsg {
    /// Bytes this message occupies on the wire (excluding UDP headers,
    /// which the ledger adds per datagram).
    fn wire_bytes(&self) -> u32;
}

/// Frame magic: the first four bytes of every Octopus datagram.
pub const FRAME_MAGIC: [u8; 4] = *b"OCT0";

/// Schema version carried in every frame. Bump on any incompatible
/// payload-encoding change; decoders reject mismatches outright rather
/// than guessing.
pub const SCHEMA_VERSION: u16 = 1;

/// Hard ceiling on a frame's payload length. Anything larger than a
/// UDP datagram can carry is rejected before allocation, so a forged
/// length field cannot make the decoder reserve memory.
pub const MAX_PAYLOAD: usize = 64 * 1024;

/// Bytes of frame overhead before the payload: magic (4) + version (2)
/// + payload length (4) + checksum (4) + from (8) + to (8).
pub const FRAME_OVERHEAD: usize = 30;

/// The longest datagram UDP carries over IPv4 (65 535 bytes less the
/// IP and UDP headers). A sender packs frames into one datagram only up
/// to this size; a frame longer than this alone goes alone.
pub const MAX_DATAGRAM: usize = 65_507;

/// What [`encode_frame`] reserves before the payload's size is known:
/// room for any frame around one signed routing table of the default
/// Chord configuration (the largest, an omission report, is 371 bytes),
/// so that the common frame is allocated once and never moved.
const TYPICAL_FRAME: usize = 512;

/// Offset of the first checksummed byte: the sender address. Everything
/// from here to the end of the frame (from, to, payload) is covered.
const CHECKSUM_COVERS: usize = 14;

/// The addressing header every frame carries: sender and destination,
/// the two addresses a simulated delivery holds too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// Sender overlay address.
    pub from: NodeId,
    /// Destination overlay address.
    pub to: NodeId,
}

/// Why a payload failed to decode. Carried inside
/// [`FrameError::BadPayload`]; payload decoders return it instead of
/// panicking on adversarial bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before a field was complete.
    Truncated,
    /// An enum discriminant byte had no meaning.
    BadTag(u8),
    /// A length prefix was inconsistent with the bytes that remain.
    BadLength,
    /// Recursive payloads nested deeper than any honest encoder emits.
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "payload truncated mid-field"),
            DecodeError::BadTag(t) => write!(f, "unknown discriminant {t}"),
            DecodeError::BadLength => write!(f, "length prefix exceeds remaining bytes"),
            DecodeError::TooDeep => write!(f, "nested payload exceeds depth bound"),
        }
    }
}

/// Why a frame was rejected. Every malformed input maps to one of
/// these; none of them panics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than the fixed frame overhead.
    Truncated {
        /// Bytes required.
        need: usize,
        /// Bytes present.
        have: usize,
    },
    /// The first four bytes were not [`FRAME_MAGIC`].
    BadMagic([u8; 4]),
    /// The schema version did not match [`SCHEMA_VERSION`].
    BadVersion(u16),
    /// The length prefix disagreed with the datagram size or exceeded
    /// [`MAX_PAYLOAD`].
    BadLength {
        /// Payload length the prefix claimed.
        claimed: usize,
        /// Payload bytes actually present.
        have: usize,
    },
    /// The checksum over header addresses + payload did not verify.
    BadChecksum {
        /// Checksum carried by the frame.
        got: u32,
        /// Checksum recomputed from the bytes.
        want: u32,
    },
    /// The payload failed structural decoding.
    BadPayload(DecodeError),
    /// The payload decoded but left unconsumed trailing bytes.
    TrailingBytes(usize),
    /// A datagram's frames named more than one sender or destination.
    MixedHeaders,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { need, have } => {
                write!(f, "frame truncated: need {need} bytes, have {have}")
            }
            FrameError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            FrameError::BadVersion(v) => {
                write!(f, "schema version {v} (this build speaks {SCHEMA_VERSION})")
            }
            FrameError::BadLength { claimed, have } => {
                write!(
                    f,
                    "length prefix claims {claimed} payload bytes, have {have}"
                )
            }
            FrameError::BadChecksum { got, want } => {
                write!(f, "checksum {got:#010x}, recomputed {want:#010x}")
            }
            FrameError::BadPayload(e) => write!(f, "payload: {e}"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
            FrameError::MixedHeaders => {
                write!(
                    f,
                    "frames of one datagram name different senders or destinations"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Bounds-checked cursor over a payload slice. Every read returns
/// `Err(DecodeError::Truncated)` past the end instead of panicking.
pub struct PayloadReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> PayloadReader<'a> {
    /// A reader over `buf`, positioned at the start.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        PayloadReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a big-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Read a `u32` element count and sanity-check it against the bytes
    /// that remain (each element occupies at least `min_elem_bytes`),
    /// so a forged count cannot drive allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(DecodeError::BadLength);
        }
        Ok(n)
    }
}

/// Payload encoding: the schema-versioned byte representation framed by
/// [`encode_frame`] / [`decode_frame`]. Implemented by the protocol
/// message enum in `octopus-core`; any change to an implementation is a
/// [`SCHEMA_VERSION`] bump.
pub trait WireCodec: Sized {
    /// Append this value's canonical bytes to `out`.
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader. Must consume exactly the bytes
    /// [`WireCodec::encode_payload`] produced and reject (never panic
    /// on) anything else.
    fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError>;
}

/// FNV-1a over the checksum-covered region (addresses + payload, which
/// are contiguous in a frame).
/// Detects corruption, not tampering — authenticity comes from the
/// protocol's signatures, not the frame.
fn fnv1a(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Append one frame to the datagram in `out`, behind the frames it
/// holds: `magic ∥ version ∥ payload_len ∥ checksum ∥ from ∥ to ∥
/// payload`.
///
/// The payload is encoded once, straight behind the header; its length
/// and the checksum are patched into the header afterwards, so a frame
/// costs no buffer besides `out` — which a caller that sends many
/// frames keeps and hands in again.
///
/// # Errors
///
/// `Err(len)` if the encoded payload is `len` > [`MAX_PAYLOAD`] bytes;
/// `out` is left as it was.
pub fn append_frame<M: WireCodec>(
    header: FrameHeader,
    msg: &M,
    out: &mut Vec<u8>,
) -> Result<(), usize> {
    let start = out.len();
    out.extend_from_slice(&FRAME_MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_be_bytes());
    out.extend_from_slice(&[0; 8]); // payload length and checksum, patched below
    out.extend_from_slice(&header.from.0.to_be_bytes());
    out.extend_from_slice(&header.to.0.to_be_bytes());
    msg.encode_payload(out);
    let frame = &mut out[start..];
    let len = frame.len() - FRAME_OVERHEAD;
    if len > MAX_PAYLOAD {
        out.truncate(start);
        return Err(len);
    }
    // the checksum covers from ∥ to ∥ payload, which lie back to back
    let checksum = fnv1a(&frame[CHECKSUM_COVERS..]);
    frame[6..10].copy_from_slice(&(len as u32).to_be_bytes());
    frame[10..14].copy_from_slice(&checksum.to_be_bytes());
    Ok(())
}

/// Encode one frame into a fresh buffer: a one-frame datagram.
///
/// # Panics
///
/// If the encoded payload exceeds [`MAX_PAYLOAD`] — honest encoders
/// never produce such a message, so this is a programming error, not an
/// input error.
#[must_use]
pub fn encode_frame<M: WireCodec>(header: FrameHeader, msg: &M) -> Vec<u8> {
    let mut out = Vec::with_capacity(TYPICAL_FRAME);
    if let Err(len) = append_frame(header, msg, &mut out) {
        panic!("frame payload {len} exceeds MAX_PAYLOAD");
    }
    out
}

/// Check the fixed fields of the frame that starts `bytes` — magic,
/// version and a length prefix that fits both [`MAX_PAYLOAD`] and the
/// bytes present — and return the frame's whole length.
fn frame_len(bytes: &[u8]) -> Result<usize, FrameError> {
    if bytes.len() < FRAME_OVERHEAD {
        return Err(FrameError::Truncated {
            need: FRAME_OVERHEAD,
            have: bytes.len(),
        });
    }
    let magic: [u8; 4] = bytes[0..4].try_into().expect("4-byte slice");
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let version = u16::from_be_bytes([bytes[4], bytes[5]]);
    if version != SCHEMA_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let claimed = u32::from_be_bytes(bytes[6..10].try_into().expect("4-byte slice")) as usize;
    let have = bytes.len() - FRAME_OVERHEAD;
    if claimed > have || claimed > MAX_PAYLOAD {
        return Err(FrameError::BadLength { claimed, have });
    }
    Ok(FRAME_OVERHEAD + claimed)
}

/// Decode the frame that is exactly `frame`, whose fixed fields
/// [`frame_len`] has checked: checksum, addresses and payload.
fn decode_checked<M: WireCodec>(frame: &[u8]) -> Result<(FrameHeader, M), FrameError> {
    let got = u32::from_be_bytes(frame[10..14].try_into().expect("4-byte slice"));
    let want = fnv1a(&frame[CHECKSUM_COVERS..]);
    if got != want {
        return Err(FrameError::BadChecksum { got, want });
    }
    let address = |at: usize| {
        NodeId(u64::from_be_bytes(
            frame[at..at + 8].try_into().expect("8-byte slice"),
        ))
    };
    let header = FrameHeader {
        from: address(14),
        to: address(22),
    };
    let mut r = PayloadReader::new(&frame[FRAME_OVERHEAD..]);
    let msg = M::decode_payload(&mut r).map_err(FrameError::BadPayload)?;
    if r.remaining() != 0 {
        return Err(FrameError::TrailingBytes(r.remaining()));
    }
    Ok((header, msg))
}

/// Decode one frame produced by [`encode_frame`]. Rejects — never
/// panics on — truncation, bad magic, version skew, length lies,
/// checksum mismatches, undecodable payloads and trailing garbage. A
/// datagram of several frames is a length lie here; [`decode_datagram`]
/// reads those.
pub fn decode_frame<M: WireCodec>(bytes: &[u8]) -> Result<(FrameHeader, M), FrameError> {
    let len = frame_len(bytes)?;
    if len != bytes.len() {
        return Err(FrameError::BadLength {
            claimed: len - FRAME_OVERHEAD,
            have: bytes.len() - FRAME_OVERHEAD,
        });
    }
    decode_checked(bytes)
}

/// Decode every frame of one datagram, appending their messages to
/// `msgs` in datagram order, and return the header they share.
///
/// The datagram is accepted whole or not at all: every frame must pass
/// [`decode_frame`]'s checks, the last must end where the datagram
/// ends, and all must name one sender and one destination
/// ([`FrameError::MixedHeaders`] otherwise). On any error `msgs` is
/// left as it was. An empty datagram is [`FrameError::Truncated`].
pub fn decode_datagram<M: WireCodec>(
    bytes: &[u8],
    msgs: &mut Vec<M>,
) -> Result<FrameHeader, FrameError> {
    let before = msgs.len();
    let result = decode_frames(bytes, msgs);
    if result.is_err() {
        msgs.truncate(before);
    }
    result
}

/// [`decode_datagram`]'s walk, which leaves what it appended on error.
fn decode_frames<M: WireCodec>(
    mut bytes: &[u8],
    msgs: &mut Vec<M>,
) -> Result<FrameHeader, FrameError> {
    let mut shared = None;
    loop {
        let len = frame_len(bytes)?;
        let (header, msg) = decode_checked(&bytes[..len])?;
        if *shared.get_or_insert(header) != header {
            return Err(FrameError::MixedHeaders);
        }
        msgs.push(msg);
        bytes = &bytes[len..];
        if bytes.is_empty() {
            return Ok(header);
        }
    }
}

/// A datagram's weight on the ledger: the message's wire size plus the
/// UDP/IP header the byte model charges per datagram.
#[must_use]
pub(crate) fn datagram_bytes<M: WireMsg>(msg: &M) -> u64 {
    u64::from(msg.wire_bytes()) + u64::from(sizes::UDP_HEADER)
}

/// A snapshot of per-node sent/received byte counters, in address
/// order.
///
/// The running counters are not kept here: a [`World`](crate::World)
/// counts bytes in the slab slot of the node that sends or receives
/// them, and [`World::ledger`](crate::World::ledger) copies them into
/// one of these for reporting.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BandwidthLedger {
    /// `(sent, received)` per node.
    nodes: BTreeMap<NodeId, (u64, u64)>,
    total: u64,
}

impl BandwidthLedger {
    /// Add `sent` and `received` bytes to `node`'s counters. Sent bytes
    /// also count toward [`BandwidthLedger::total_bytes`].
    pub(crate) fn credit(&mut self, node: NodeId, sent: u64, received: u64) {
        let entry = self.nodes.entry(node).or_default();
        entry.0 += sent;
        entry.1 += received;
        self.total += sent;
    }

    /// Bytes sent by `node`.
    #[must_use]
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.nodes.get(&node).map_or(0, |&(sent, _)| sent)
    }

    /// Bytes delivered to `node` while a world hosted it. A datagram
    /// whose destination had left the overlay is received by nobody; it
    /// shows in [`World::dropped_to_dead`](crate::World::dropped_to_dead)
    /// (and in its sender's [`BandwidthLedger::sent_by`]) instead.
    #[must_use]
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.nodes.get(&node).map_or(0, |&(_, received)| received)
    }

    /// Total bytes sent into the network.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// Average per-node consumed bandwidth in kbps over `secs` seconds,
    /// counting each node's sent + received bytes (the "bandwidth
    /// consumption" of Table 3).
    #[must_use]
    pub fn mean_node_kbps(&self, n_nodes: usize, secs: f64) -> f64 {
        if n_nodes == 0 || secs <= 0.0 {
            return 0.0;
        }
        // every byte is counted once as sent and once as received
        let per_node_bytes = (2.0 * self.total as f64) / n_nodes as f64;
        per_node_bytes * 8.0 / 1000.0 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_table_size_matches_model() {
        // 12 fingers + 6 successors = 18 items → 180 + 40 + 4 + 50
        assert_eq!(sizes::signed_table(18), 274);
    }

    #[test]
    fn onion_layer_rounds_to_block() {
        assert_eq!(sizes::onion_layer(1) % sizes::AES_BLOCK, 0);
        assert!(sizes::onion_layer(10) >= 10 + sizes::ROUTING_ITEM);
        assert_eq!(sizes::onion_layer(6), 16);
        assert_eq!(sizes::onion_layer(22), 32);
    }

    #[test]
    fn ledger_accounts_both_ends() {
        let mut l = BandwidthLedger::default();
        l.credit(NodeId(1), 128, 0);
        l.credit(NodeId(2), 0, 128);
        l.credit(NodeId(1), 10, 5);
        assert_eq!(l.sent_by(NodeId(1)), 138);
        assert_eq!(l.received_by(NodeId(1)), 5);
        assert_eq!(l.received_by(NodeId(2)), 128);
        assert_eq!(l.sent_by(NodeId(2)), 0);
        assert_eq!(l.sent_by(NodeId(3)), 0);
        assert_eq!(l.total_bytes(), 138, "total counts bytes sent");
    }

    #[test]
    fn kbps_computation() {
        let mut l = BandwidthLedger::default();
        // 2 nodes, one 1000-byte datagram over 10 s
        l.credit(NodeId(1), 1000, 0);
        l.credit(NodeId(2), 0, 1000);
        // per-node bytes = 2*1000/2 = 1000 → 8000 bits / 10 s = 0.8 kbps
        let kbps = l.mean_node_kbps(2, 10.0);
        assert!((kbps - 0.8).abs() < 1e-9, "got {kbps}");
    }

    #[test]
    fn kbps_degenerate() {
        let l = BandwidthLedger::default();
        assert_eq!(l.mean_node_kbps(0, 10.0), 0.0);
        assert_eq!(l.mean_node_kbps(10, 0.0), 0.0);
    }

    /// Minimal payload codec for exercising the framing layer alone.
    #[derive(Debug, PartialEq, Eq)]
    struct Ping(u64);

    impl WireCodec for Ping {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0.to_be_bytes());
        }
        fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
            Ok(Ping(r.u64()?))
        }
    }

    fn header() -> FrameHeader {
        FrameHeader {
            from: NodeId(3),
            to: NodeId(u64::MAX),
        }
    }

    #[test]
    fn frame_roundtrip() {
        let frame = encode_frame(header(), &Ping(0xdead_beef));
        assert_eq!(frame.len(), FRAME_OVERHEAD + 8);
        let (h, msg) = decode_frame::<Ping>(&frame).expect("roundtrip");
        assert_eq!(h, header());
        assert_eq!(msg, Ping(0xdead_beef));
    }

    /// A payload of the given number of zero bytes.
    struct Blob(usize);

    impl WireCodec for Blob {
        fn encode_payload(&self, out: &mut Vec<u8>) {
            out.resize(out.len() + self.0, 0);
        }
        fn decode_payload(r: &mut PayloadReader<'_>) -> Result<Self, DecodeError> {
            let n = r.remaining();
            r.take(n)?;
            Ok(Blob(n))
        }
    }

    #[test]
    fn append_frame_keeps_the_datagram_and_bounds_the_payload() {
        let first = encode_frame(header(), &Ping(7));
        let mut buf = first.clone();
        append_frame(header(), &Ping(8), &mut buf).expect("fits");
        assert_eq!(buf[..first.len()], first[..], "the first frame stays");
        assert_eq!(buf[first.len()..], encode_frame(header(), &Ping(8))[..]);
        // the largest payload is a frame; one byte more is refused and
        // leaves the datagram as it was, so nothing half-written is sent
        let mut big = Vec::new();
        append_frame(header(), &Blob(MAX_PAYLOAD), &mut big).expect("fits");
        assert_eq!(big.len(), FRAME_OVERHEAD + MAX_PAYLOAD);
        let (_, Blob(n)) = decode_frame(&big).expect("roundtrip");
        assert_eq!(n, MAX_PAYLOAD);
        let held = buf.clone();
        assert_eq!(
            append_frame(header(), &Blob(MAX_PAYLOAD + 1), &mut buf),
            Err(MAX_PAYLOAD + 1)
        );
        assert_eq!(buf, held);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_PAYLOAD")]
    fn encode_frame_panics_past_max_payload() {
        let _ = encode_frame(header(), &Blob(MAX_PAYLOAD + 1));
    }

    #[test]
    fn frame_rejects_every_truncation() {
        let frame = encode_frame(header(), &Ping(7));
        for cut in 0..frame.len() {
            let r = decode_frame::<Ping>(&frame[..cut]);
            assert!(r.is_err(), "accepted a {cut}-byte prefix");
        }
    }

    #[test]
    fn frame_rejects_bad_magic() {
        let mut frame = encode_frame(header(), &Ping(7));
        frame[0] ^= 0xff;
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadMagic(_))
        ));
    }

    #[test]
    fn frame_rejects_version_skew() {
        let mut frame = encode_frame(header(), &Ping(7));
        frame[5] = frame[5].wrapping_add(1);
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadVersion(_))
        ));
    }

    #[test]
    fn frame_rejects_flipped_checksum_and_payload_corruption() {
        let mut frame = encode_frame(header(), &Ping(7));
        frame[10] ^= 0x01; // checksum field itself
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadChecksum { .. })
        ));
        let mut frame = encode_frame(header(), &Ping(7));
        let last = frame.len() - 1;
        frame[last] ^= 0x80; // payload byte: checksum must catch it
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadChecksum { .. })
        ));
        let mut frame = encode_frame(header(), &Ping(7));
        frame[20] ^= 0x04; // header address byte: also covered
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadChecksum { .. })
        ));
    }

    #[test]
    fn frame_rejects_length_lies_and_trailing_bytes() {
        let mut frame = encode_frame(header(), &Ping(7));
        frame[9] = frame[9].wrapping_add(1); // length prefix no longer matches
        assert!(matches!(
            decode_frame::<Ping>(&frame),
            Err(FrameError::BadLength { .. })
        ));
        // a frame whose payload is longer than the codec consumes
        let inner = encode_frame(header(), &Ping(7));
        let mut padded = inner[..FRAME_OVERHEAD].to_vec();
        let mut payload = inner[FRAME_OVERHEAD..].to_vec();
        payload.push(0xaa);
        padded[6..10].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        padded.extend_from_slice(&payload);
        let sum = fnv1a(&padded[CHECKSUM_COVERS..]);
        padded[10..14].copy_from_slice(&sum.to_be_bytes());
        assert_eq!(
            decode_frame::<Ping>(&padded),
            Err(FrameError::TrailingBytes(1))
        );
    }

    /// `pings` packed into one datagram from `header()`.
    fn datagram(pings: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        for &p in pings {
            append_frame(header(), &Ping(p), &mut out).expect("fits");
        }
        out
    }

    /// What `decode_datagram` appends to a list already holding one
    /// message, or the error; on error the list must be as it was.
    fn decode_after_one(bytes: &[u8]) -> Result<Vec<Ping>, FrameError> {
        let mut msgs = vec![Ping(0)];
        match decode_datagram(bytes, &mut msgs) {
            Ok(h) => {
                assert_eq!(h, header());
                Ok(msgs.split_off(1))
            }
            Err(e) => {
                assert_eq!(msgs, [Ping(0)], "a rejected datagram delivered {e:?}");
                Err(e)
            }
        }
    }

    #[test]
    fn a_datagram_of_frames_decodes_in_order() {
        let pings = [5, 1, 1 << 40];
        assert_eq!(
            decode_after_one(&datagram(&pings)),
            Ok(Vec::from(pings.map(Ping)))
        );
        // one frame is `encode_frame`'s bytes, and decodes both ways
        assert_eq!(datagram(&[9]), encode_frame(header(), &Ping(9)));
        assert_eq!(decode_after_one(&datagram(&[9])), Ok(vec![Ping(9)]));
        assert!(matches!(
            decode_after_one(&[]),
            Err(FrameError::Truncated { need: 30, have: 0 })
        ));
    }

    #[test]
    fn a_frame_decoder_reads_two_frames_as_a_length_lie() {
        // what a receiver built before multi-frame datagrams sees
        let two = datagram(&[1, 2]);
        assert_eq!(
            decode_frame::<Ping>(&two),
            Err(FrameError::BadLength {
                claimed: 8,
                have: two.len() - FRAME_OVERHEAD
            })
        );
    }

    #[test]
    fn a_bad_frame_rejects_its_whole_datagram() {
        let good = datagram(&[1, 2, 3]);
        // a cut between two frames leaves a datagram of fewer frames,
        // which is what a sender that packed fewer would have sent
        let frame = FRAME_OVERHEAD + 8;
        for cut in 0..good.len() {
            let got = decode_after_one(&good[..cut]);
            if cut > 0 && cut % frame == 0 {
                let sent = (1..=(cut / frame) as u64).map(Ping).collect();
                assert_eq!(got, Ok(sent), "cut at {cut}");
            } else {
                assert!(got.is_err(), "accepted a {cut}-byte prefix");
            }
        }
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x01;
            assert!(decode_after_one(&bad).is_err(), "flip at byte {i} accepted");
        }
        for tail in [&[0u8][..], b"OCT0", &[0; FRAME_OVERHEAD]] {
            let mut bad = good.clone();
            bad.extend_from_slice(tail);
            assert!(decode_after_one(&bad).is_err(), "{tail:?} after the end");
        }
        // the last frame's length prefix points one byte past the end
        let mut bad = good.clone();
        bad[2 * frame + 9] += 1;
        assert_eq!(
            decode_after_one(&bad),
            Err(FrameError::BadLength {
                claimed: 9,
                have: 8
            })
        );
    }

    #[test]
    fn a_datagram_names_one_sender_and_one_destination() {
        for other in [
            FrameHeader {
                from: NodeId(4),
                ..header()
            },
            FrameHeader {
                to: NodeId(4),
                ..header()
            },
        ] {
            let mut bad = datagram(&[1]);
            append_frame(other, &Ping(2), &mut bad).expect("fits");
            append_frame(header(), &Ping(3), &mut bad).expect("fits");
            assert_eq!(decode_after_one(&bad), Err(FrameError::MixedHeaders));
        }
    }

    #[test]
    fn seq_len_guards_allocation() {
        let bytes = [0xff, 0xff, 0xff, 0xff, 0, 0];
        let mut r = PayloadReader::new(&bytes);
        assert_eq!(r.seq_len(8), Err(DecodeError::BadLength));
    }
}
