//! Length-prefixed wire format for the live swarm protocol.
//!
//! Every frame is `[u32 BE payload length][u8 tag][payload]`. The length
//! covers the tag byte and the payload, so a reader can skip unknown
//! frames wholesale. Integers are big-endian; rates/volumes travel as
//! IEEE-754 bit patterns (`f64::to_bits`), so encode → decode is
//! bit-identical even for non-round values. Bitfields are bit-packed
//! MSB-first, mainline style, with the trailing pad bits required to be
//! zero.
//!
//! Decoding is total: any byte sequence either yields a message or a
//! typed [`WireError`] — never a panic, never an allocation proportional
//! to an attacker-chosen length beyond [`MAX_FRAME`].

use swarm_bt::Bitfield;

/// Upper bound on the declared payload length (tag + body) of one frame.
/// Generous for this protocol (the largest legitimate frame is a
/// bitfield of a few thousand pieces) while keeping a hostile length
/// prefix from driving an allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// Announce event codes (mainline's `event=` query values).
pub const EVENT_NONE: u8 = 0;
pub const EVENT_STARTED: u8 = 1;
pub const EVENT_COMPLETED: u8 = 2;
pub const EVENT_STOPPED: u8 = 3;

/// A decoded protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Connection opener: the sender's endpoint id and the piece count it
    /// believes the torrent has (validated against local config).
    Handshake {
        peer: u64,
        pieces: u32,
    },
    /// Full bitmap of held pieces, sent right after the handshake.
    Bitfield(Bitfield),
    /// The sender now holds `piece`.
    Have {
        piece: u32,
    },
    Interested,
    NotInterested,
    Choke,
    Unchoke,
    /// Request data from `piece` (block offsets are abstracted away: the
    /// engine's transfer model moves fractional-piece volumes per tick).
    Request {
        piece: u32,
    },
    /// `bytes` kB of `piece` (the model world measures volume, not
    /// payload bytes — the f64 travels as its exact bit pattern).
    Piece {
        piece: u32,
        bytes: f64,
    },
    /// Withdraw an earlier request for `piece`.
    Cancel {
        piece: u32,
    },
    /// Tracker announce: who, how much is left, and a mainline event code
    /// (`EVENT_STARTED` / `EVENT_COMPLETED` / `EVENT_STOPPED` / none).
    Announce {
        peer: u64,
        left: f64,
        event: u8,
    },
    /// Tracker response: endpoint ids of up to `tracker_response` swarm
    /// members.
    AnnounceResponse {
        peers: Vec<u64>,
    },
    /// Tracker scrape request.
    Scrape,
    /// Tracker scrape response: current seeder/leecher counts.
    ScrapeResponse {
        seeders: u32,
        leechers: u32,
    },
    /// PEX: ask a neighbor for its peer list.
    PexRequest,
    /// PEX: share up to `PEX_SHARE` neighbor endpoint ids.
    PexPeers {
        peers: Vec<u64>,
    },
    /// The sender is leaving for good: the receiver drops the
    /// connection (a TCP FIN, in socket terms).
    Close,
}

const TAG_HANDSHAKE: u8 = 0;
const TAG_BITFIELD: u8 = 1;
const TAG_HAVE: u8 = 2;
const TAG_INTERESTED: u8 = 3;
const TAG_NOT_INTERESTED: u8 = 4;
const TAG_CHOKE: u8 = 5;
const TAG_UNCHOKE: u8 = 6;
const TAG_REQUEST: u8 = 7;
const TAG_PIECE: u8 = 8;
const TAG_CANCEL: u8 = 9;
const TAG_ANNOUNCE: u8 = 10;
const TAG_ANNOUNCE_RESPONSE: u8 = 11;
const TAG_SCRAPE: u8 = 12;
const TAG_SCRAPE_RESPONSE: u8 = 13;
const TAG_PEX_REQUEST: u8 = 14;
const TAG_PEX_PEERS: u8 = 15;
const TAG_CLOSE: u8 = 16;

/// Typed decode failure. Every variant is a clean error return — the
/// decoder never panics on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ends before the declared frame does (also covers a
    /// buffer shorter than the 4-byte length prefix). Retry with more
    /// bytes.
    Truncated,
    /// The length prefix declares a payload larger than [`MAX_FRAME`].
    Oversized { declared: usize },
    /// A frame must carry at least its tag byte.
    EmptyFrame,
    /// The tag byte names no known message type.
    UnknownTag(u8),
    /// The payload is malformed for its tag (wrong size, bad counts,
    /// nonzero bitfield padding, …).
    BadPayload(&'static str),
    /// Well-formed payload followed by extra bytes inside the frame.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Oversized { declared } => {
                write!(
                    f,
                    "declared payload of {declared} bytes exceeds {MAX_FRAME}"
                )
            }
            WireError::EmptyFrame => write!(f, "zero-length frame (missing tag)"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::BadPayload(what) => write!(f, "bad payload: {what}"),
            WireError::Trailing => write!(f, "trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::BadPayload("payload shorter than its fields"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

fn put_peer_list(out: &mut Vec<u8>, peers: &[u64]) {
    put_u32(out, peers.len() as u32);
    for &p in peers {
        put_u64(out, p);
    }
}

fn get_peer_list(r: &mut Reader<'_>) -> Result<Vec<u64>, WireError> {
    let n = r.u32()? as usize;
    // A count the remaining payload cannot possibly hold is malformed;
    // checking before the reserve keeps hostile counts allocation-free.
    if r.buf.len() - r.pos < n * 8 {
        return Err(WireError::BadPayload("peer count exceeds payload"));
    }
    let mut peers = Vec::with_capacity(n);
    for _ in 0..n {
        peers.push(r.u64()?);
    }
    Ok(peers)
}

/// Encode one message as a complete frame (length prefix included).
pub fn encode(msg: &Message) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    encode_into(&mut out, msg);
    out
}

/// Append one message to `out` as a complete frame (length prefix
/// included), after whatever `out` already holds.
pub fn encode_into(out: &mut Vec<u8>, msg: &Message) {
    let start = out.len();
    out.extend_from_slice(&[0, 0, 0, 0]); // length backpatched below
    match msg {
        Message::Handshake { peer, pieces } => {
            out.push(TAG_HANDSHAKE);
            put_u64(out, *peer);
            put_u32(out, *pieces);
        }
        Message::Bitfield(bf) => {
            out.push(TAG_BITFIELD);
            put_u32(out, bf.len() as u32);
            // Bit-packed MSB-first, mainline style; pad bits are zero.
            let mut byte = 0u8;
            for p in 0..bf.len() {
                if bf.has(p) {
                    byte |= 0x80 >> (p % 8);
                }
                if p % 8 == 7 {
                    out.push(byte);
                    byte = 0;
                }
            }
            if bf.len() % 8 != 0 {
                out.push(byte);
            }
        }
        Message::Have { piece } => {
            out.push(TAG_HAVE);
            put_u32(out, *piece);
        }
        Message::Interested => out.push(TAG_INTERESTED),
        Message::NotInterested => out.push(TAG_NOT_INTERESTED),
        Message::Choke => out.push(TAG_CHOKE),
        Message::Unchoke => out.push(TAG_UNCHOKE),
        Message::Request { piece } => {
            out.push(TAG_REQUEST);
            put_u32(out, *piece);
        }
        Message::Piece { piece, bytes } => {
            out.push(TAG_PIECE);
            put_u32(out, *piece);
            put_f64(out, *bytes);
        }
        Message::Cancel { piece } => {
            out.push(TAG_CANCEL);
            put_u32(out, *piece);
        }
        Message::Announce { peer, left, event } => {
            out.push(TAG_ANNOUNCE);
            put_u64(out, *peer);
            put_f64(out, *left);
            out.push(*event);
        }
        Message::AnnounceResponse { peers } => {
            out.push(TAG_ANNOUNCE_RESPONSE);
            put_peer_list(out, peers);
        }
        Message::Scrape => out.push(TAG_SCRAPE),
        Message::ScrapeResponse { seeders, leechers } => {
            out.push(TAG_SCRAPE_RESPONSE);
            put_u32(out, *seeders);
            put_u32(out, *leechers);
        }
        Message::PexRequest => out.push(TAG_PEX_REQUEST),
        Message::PexPeers { peers } => {
            out.push(TAG_PEX_PEERS);
            put_peer_list(out, peers);
        }
        Message::Close => out.push(TAG_CLOSE),
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
}

/// Decode one frame from the front of `buf`.
///
/// Returns the message and the total number of bytes consumed (prefix
/// included). [`WireError::Truncated`] means `buf` holds only part of a
/// frame; every other error is fatal for the frame.
pub fn decode(buf: &[u8]) -> Result<(Message, usize), WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated);
    }
    let declared = u32::from_be_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
    if declared > MAX_FRAME {
        return Err(WireError::Oversized { declared });
    }
    if declared == 0 {
        return Err(WireError::EmptyFrame);
    }
    if buf.len() < 4 + declared {
        return Err(WireError::Truncated);
    }
    let frame = &buf[4..4 + declared];
    let tag = frame[0];
    let mut r = Reader::new(&frame[1..]);
    let msg = match tag {
        TAG_HANDSHAKE => Message::Handshake {
            peer: r.u64()?,
            pieces: r.u32()?,
        },
        TAG_BITFIELD => {
            let n = r.u32()? as usize;
            // A torrent has at least one piece, and a `Bitfield` of none
            // cannot be built.
            if n == 0 {
                return Err(WireError::BadPayload("empty bitfield"));
            }
            let nbytes = n.div_ceil(8);
            let bits = r.take(nbytes)?;
            let mut bf = Bitfield::new(n);
            for p in 0..n {
                if bits[p / 8] & (0x80 >> (p % 8)) != 0 {
                    bf.set(p);
                }
            }
            // Pad bits past the piece count must be zero (mainline drops
            // peers that set them; we reject the frame).
            if !n.is_multiple_of(8) {
                let pad = bits[nbytes - 1] & (0xFFu8 >> (n % 8)) != 0;
                if pad {
                    return Err(WireError::BadPayload("nonzero bitfield padding"));
                }
            }
            Message::Bitfield(bf)
        }
        TAG_HAVE => Message::Have { piece: r.u32()? },
        TAG_INTERESTED => Message::Interested,
        TAG_NOT_INTERESTED => Message::NotInterested,
        TAG_CHOKE => Message::Choke,
        TAG_UNCHOKE => Message::Unchoke,
        TAG_REQUEST => Message::Request { piece: r.u32()? },
        TAG_PIECE => Message::Piece {
            piece: r.u32()?,
            bytes: r.f64()?,
        },
        TAG_CANCEL => Message::Cancel { piece: r.u32()? },
        TAG_ANNOUNCE => Message::Announce {
            peer: r.u64()?,
            left: r.f64()?,
            event: {
                let e = r.u8()?;
                if e > EVENT_STOPPED {
                    return Err(WireError::BadPayload("unknown announce event"));
                }
                e
            },
        },
        TAG_ANNOUNCE_RESPONSE => Message::AnnounceResponse {
            peers: get_peer_list(&mut r)?,
        },
        TAG_SCRAPE => Message::Scrape,
        TAG_SCRAPE_RESPONSE => Message::ScrapeResponse {
            seeders: r.u32()?,
            leechers: r.u32()?,
        },
        TAG_PEX_REQUEST => Message::PexRequest,
        TAG_PEX_PEERS => Message::PexPeers {
            peers: get_peer_list(&mut r)?,
        },
        TAG_CLOSE => Message::Close,
        t => return Err(WireError::UnknownTag(t)),
    };
    r.finish()?;
    Ok((msg, 4 + declared))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: &Message) {
        let frame = encode(msg);
        let (back, n) = decode(&frame).expect("decode");
        assert_eq!(&back, msg);
        assert_eq!(n, frame.len(), "whole frame consumed");
    }

    #[test]
    fn fixed_messages_round_trip() {
        let mut bf = Bitfield::new(13);
        bf.set(0);
        bf.set(7);
        bf.set(12);
        for msg in [
            Message::Handshake {
                peer: 7,
                pieces: 64,
            },
            Message::Bitfield(bf),
            Message::Have { piece: 3 },
            Message::Interested,
            Message::NotInterested,
            Message::Choke,
            Message::Unchoke,
            Message::Request { piece: 9 },
            Message::Piece {
                piece: 2,
                bytes: 33.333333333333336,
            },
            Message::Cancel { piece: 1 },
            Message::Announce {
                peer: 42,
                left: 1234.5,
                event: EVENT_STARTED,
            },
            Message::AnnounceResponse {
                peers: vec![1, 2, 3, u64::MAX],
            },
            Message::Scrape,
            Message::ScrapeResponse {
                seeders: 2,
                leechers: 3,
            },
            Message::PexRequest,
            Message::PexPeers { peers: vec![] },
            Message::Close,
        ] {
            roundtrip(&msg);
        }
    }

    #[test]
    fn encode_into_appends_the_frame_encode_returns() {
        let msgs = [
            Message::Have { piece: 5 },
            Message::PexPeers { peers: vec![2, 9] },
            Message::Choke,
        ];
        let mut buf = vec![0xAB];
        for msg in &msgs {
            encode_into(&mut buf, msg);
        }
        let want: Vec<u8> = std::iter::once(0xAB)
            .chain(msgs.iter().flat_map(encode))
            .collect();
        assert_eq!(buf, want);
    }

    #[test]
    fn truncated_frames_ask_for_more() {
        let frame = encode(&Message::Have { piece: 5 });
        for cut in 0..frame.len() {
            assert_eq!(
                decode(&frame[..cut]).unwrap_err(),
                WireError::Truncated,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn oversized_length_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&((MAX_FRAME as u32) + 1).to_be_bytes());
        buf.push(TAG_HAVE);
        assert_eq!(
            decode(&buf).unwrap_err(),
            WireError::Oversized {
                declared: MAX_FRAME + 1
            }
        );
    }

    #[test]
    fn unknown_tag_and_empty_frame_are_typed_errors() {
        let mut buf = vec![0, 0, 0, 1, 200];
        assert_eq!(decode(&buf).unwrap_err(), WireError::UnknownTag(200));
        buf = vec![0, 0, 0, 0];
        assert_eq!(decode(&buf).unwrap_err(), WireError::EmptyFrame);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode(&Message::Choke);
        frame.push(0xAB);
        let len = (frame.len() - 4) as u32;
        frame[..4].copy_from_slice(&len.to_be_bytes());
        assert_eq!(decode(&frame).unwrap_err(), WireError::Trailing);
    }

    #[test]
    fn hostile_peer_count_is_rejected() {
        // Declares 2^28 peers in a 12-byte payload.
        let mut buf = Vec::new();
        buf.extend_from_slice(&13u32.to_be_bytes());
        buf.push(TAG_ANNOUNCE_RESPONSE);
        buf.extend_from_slice(&(1u32 << 28).to_be_bytes());
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode(&buf).unwrap_err(),
            WireError::BadPayload(_)
        ));
    }

    #[test]
    fn empty_bitfield_is_rejected() {
        let frame = [0, 0, 0, 5, TAG_BITFIELD, 0, 0, 0, 0];
        assert_eq!(
            decode(&frame).unwrap_err(),
            WireError::BadPayload("empty bitfield")
        );
    }

    #[test]
    fn nonzero_bitfield_padding_is_rejected() {
        let mut bf = Bitfield::new(4);
        bf.set(0);
        let mut frame = encode(&Message::Bitfield(bf));
        // Set a pad bit (bit 5 of the single bitmap byte).
        let last = frame.len() - 1;
        frame[last] |= 0x04;
        assert_eq!(
            decode(&frame).unwrap_err(),
            WireError::BadPayload("nonzero bitfield padding")
        );
    }
}
