//! Property tests for the wire codec: every message round-trips
//! bit-identically, and corrupted frames come back as typed errors —
//! never panics. A peer core fed hostile but well-formed frame
//! sequences never panics either, and never outgrows its neighbor cap.

use proptest::prelude::*;
use swarm_bt::Bitfield;
use swarm_net::wire::{decode, encode, Message, WireError, MAX_FRAME};
use swarm_net::{peer_stream, PeerCore, PeerParams, PUBLISHER};

/// Pieces of the content the hostile-sequence cores share.
const PIECES: u32 = 4;
/// Neighbor cap of the hostile-sequence cores: small, so tables fill.
const MAX_NEIGHBORS: usize = 3;

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

/// One inbound frame from a small range of senders: pieces up to twice
/// [`PIECES`], and half the handshakes carrying the cores' own piece
/// count, so they are accepted and fill the neighbor tables.
fn hostile_frame() -> impl Strategy<Value = (usize, Message)> {
    (
        (
            0usize..8,
            0u8..17,
            0u64..8,
            0u32..2 * PIECES,
            prop::bool::ANY,
        ),
        (
            0.0f64..300.0,
            0u8..4,
            prop::collection::vec(0u64..8, 0..6),
            prop::collection::vec(prop::bool::ANY, 1..2 * PIECES as usize),
            (0u32..10, 0u32..10),
        ),
    )
        .prop_map(
            |((from, tag, peer, piece, own_count), (volume, event, peers, bits, counts))| {
                let piece = if tag == 0 && own_count { PIECES } else { piece };
                let msg = build_message(tag, peer, piece, volume, event, peers, bits, counts);
                (from, msg)
            },
        )
}

proptest! {
    #[test]
    fn hostile_sequences_never_panic_a_peer(
        ticks in prop::collection::vec(prop::collection::vec(hostile_frame(), 0..12), 1..24),
    ) {
        let params = PeerParams {
            num_pieces: PIECES as usize,
            piece_size: 100.0,
            unchoke_slots: 2,
            optimistic_slots: 1,
            rechoke_interval: 3,
            pex_interval: 2,
            max_neighbors: MAX_NEIGHBORS,
            run: 0,
        };
        let mut cores = [
            PeerCore::publisher(PUBLISHER, 200.0, params, peer_stream(7, PUBLISHER as u64)),
            PeerCore::leecher(2, 0, 50.0, 30.0, params, peer_stream(7, 2)),
        ];
        let mut out = Vec::new();
        for core in &mut cores {
            core.set_online(true);
        }
        for (tick, inbox) in ticks.iter().enumerate() {
            for core in &mut cores {
                out.clear();
                // `step`'s debug assertions check neighbor order and
                // table capacity after every tick.
                core.step(tick as u64, inbox.iter().cloned(), &mut out);
                prop_assert!(core.neighbor_count() <= MAX_NEIGHBORS);
            }
        }
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
