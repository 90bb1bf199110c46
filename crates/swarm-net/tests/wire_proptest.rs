//! Property tests for the wire codec: every message round-trips
//! bit-identically, and corrupted frames come back as typed errors —
//! never panics.

use proptest::prelude::*;
use swarm_bt::Bitfield;
use swarm_net::wire::{decode, encode, Message, WireError, MAX_FRAME};

/// Build one message from flat random draws: `tag` picks the variant,
/// the remaining fields parameterize it. Every payload-carrying field is
/// drawn from its full legitimate range (piece counts are bounded only
/// by what a sane torrent carries, and a torrent has at least one
/// piece; the f64s are arbitrary finite reals, checked bit-for-bit after
/// the trip).
#[allow(clippy::too_many_arguments)]
fn build_message(
    tag: u8,
    peer: u64,
    piece: u32,
    volume: f64,
    event: u8,
    peers: Vec<u64>,
    bits: Vec<bool>,
    counts: (u32, u32),
) -> Message {
    match tag {
        0 => Message::Handshake {
            peer,
            pieces: piece,
        },
        1 => {
            let mut bf = Bitfield::new(bits.len());
            for (i, &b) in bits.iter().enumerate() {
                if b {
                    bf.set(i);
                }
            }
            Message::Bitfield(bf)
        }
        2 => Message::Have { piece },
        3 => Message::Interested,
        4 => Message::NotInterested,
        5 => Message::Choke,
        6 => Message::Unchoke,
        7 => Message::Request { piece },
        8 => Message::Piece {
            piece,
            bytes: volume,
        },
        9 => Message::Cancel { piece },
        10 => Message::Announce {
            peer,
            left: volume,
            event,
        },
        11 => Message::AnnounceResponse { peers },
        12 => Message::Scrape,
        13 => Message::ScrapeResponse {
            seeders: counts.0,
            leechers: counts.1,
        },
        14 => Message::PexRequest,
        15 => Message::PexPeers { peers },
        _ => Message::Close,
    }
}

proptest! {
    #[test]
    fn every_message_round_trips_bit_identically(
        tag in 0u8..17,
        peer in 0u64..u64::MAX,
        piece in 0u32..1_000_000,
        volume in 0.0f64..1e12,
        event in 0u8..4,
        peers in prop::collection::vec(0u64..u64::MAX, 0..40),
        bits in prop::collection::vec(prop::bool::ANY, 1..200),
        counts in (0u32..10_000, 0u32..10_000),
    ) {
        let msg = build_message(tag, peer, piece, volume, event, peers, bits, counts);
        let frame = encode(&msg);
        let (back, consumed) = decode(&frame).expect("well-formed frame must decode");
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(consumed, frame.len());
        // A second encode of the decoded message is byte-identical: the
        // codec has one canonical form per message.
        prop_assert_eq!(encode(&back), frame);
    }

    #[test]
    fn truncation_never_panics_and_is_always_typed(
        tag in 0u8..17,
        peer in 0u64..u64::MAX,
        piece in 0u32..1_000_000,
        volume in 0.0f64..1e12,
        event in 0u8..4,
        peers in prop::collection::vec(0u64..u64::MAX, 0..40),
        bits in prop::collection::vec(prop::bool::ANY, 1..200),
        counts in (0u32..10_000, 0u32..10_000),
        cut_frac in 0.0f64..1.0,
    ) {
        let msg = build_message(tag, peer, piece, volume, event, peers, bits, counts);
        let frame = encode(&msg);
        let cut = ((frame.len() as f64) * cut_frac) as usize;
        // Any strict prefix must request more bytes, never misparse.
        prop_assert_eq!(
            decode(&frame[..cut.min(frame.len() - 1)]).unwrap_err(),
            WireError::Truncated
        );
    }
}

#[test]
fn random_byte_soup_never_panics() {
    // Deterministic fuzz-ish sweep: feed the decoder pseudo-random byte
    // soup of many lengths. Every outcome must be a clean Ok/Err.
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for len in 0..256usize {
        let mut buf = vec![0u8; len];
        for b in buf.iter_mut() {
            *b = (next() & 0xFF) as u8;
        }
        let _ = decode(&buf); // must not panic
    }
    // And byte soup dressed with a plausible length prefix.
    for payload_len in 0..64usize {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(payload_len as u32).to_be_bytes());
        for _ in 0..payload_len {
            buf.push((next() & 0xFF) as u8);
        }
        let _ = decode(&buf);
    }
}

#[test]
fn oversized_prefix_is_rejected_for_any_tail() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(MAX_FRAME as u32 + 7).to_be_bytes());
    buf.extend_from_slice(&[1, 2, 3]);
    assert!(matches!(
        decode(&buf).unwrap_err(),
        WireError::Oversized { .. }
    ));
}
