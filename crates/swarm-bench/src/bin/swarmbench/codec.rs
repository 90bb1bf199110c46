//! Wire-codec cost, computed: `swarm_net::wire` encode + decode timed over
//! a frame corpus whose message-type mix follows the counters a traced
//! live run recorded. The live engine encodes and decodes every frame
//! once, so this is the codec's per-frame share of a run.

use std::time::Instant;

use swarm_bt::Bitfield;
use swarm_net::wire::{decode, encode, Message};
use swarm_obs::Snapshot;

/// Frames in the timed corpus.
const CORPUS_FRAMES: usize = 4_096;
/// Minimum codec time measured, so timer resolution stays negligible.
const MIN_TIMED_S: f64 = 0.1;

/// A corpus of `CORPUS_FRAMES` frames in the counted type mix of
/// `delta`. Frame types the engine does not count (`Have`, interest
/// changes) fill the remainder of `net.messages` as `Have` frames.
pub fn corpus(delta: &Snapshot, num_pieces: usize) -> Vec<Message> {
    let c = |name: &str| delta.counter(name) as f64;
    let handshakes = c("net.conn.opened") + c("net.conn.accepted");
    let announces = c("net.tracker.announce.served");
    let mut bitfield = Bitfield::new(num_pieces);
    for p in (0..num_pieces).step_by(3) {
        bitfield.set(p);
    }
    let peers: Vec<u64> = (2..42).collect();
    let mut mix: Vec<(f64, Message)> = vec![
        (
            handshakes,
            Message::Handshake {
                peer: 7,
                pieces: num_pieces as u32,
            },
        ),
        (handshakes, Message::Bitfield(bitfield)),
        (c("net.req.sent"), Message::Request { piece: 11 }),
        (
            c("net.xfer.served"),
            Message::Piece {
                piece: 11,
                bytes: 12.5,
            },
        ),
        (c("net.req.cancelled"), Message::Cancel { piece: 11 }),
        (c("net.choke.sent"), Message::Choke),
        (c("net.unchoke.sent"), Message::Unchoke),
        (c("net.pex.requests"), Message::PexRequest),
        (
            c("net.pex.replies"),
            Message::PexPeers {
                peers: peers[..20].to_vec(),
            },
        ),
        (
            announces,
            Message::Announce {
                peer: 7,
                left: 4_000.0,
                event: 1,
            },
        ),
        (announces, Message::AnnounceResponse { peers }),
    ];
    let counted: f64 = mix.iter().map(|(n, _)| n).sum();
    mix.push((
        (c("net.messages") - counted).max(0.0),
        Message::Have { piece: 11 },
    ));
    let total: f64 = mix.iter().map(|(n, _)| n).sum();
    let mut out = Vec::with_capacity(CORPUS_FRAMES);
    if total <= 0.0 {
        return out;
    }
    for (n, msg) in mix {
        let k = (n / total * CORPUS_FRAMES as f64).round() as usize;
        out.extend(std::iter::repeat_n(msg, k));
    }
    out
}

/// Nanoseconds to encode and decode one frame of `corpus`, on average.
pub fn ns_per_frame(corpus: &[Message]) -> Option<f64> {
    if corpus.is_empty() {
        return None;
    }
    let t0 = Instant::now();
    let mut frames = 0usize;
    while t0.elapsed().as_secs_f64() < MIN_TIMED_S {
        for msg in corpus {
            let bytes = encode(std::hint::black_box(msg));
            let decoded = decode(&bytes).expect("corpus frames round-trip");
            std::hint::black_box(decoded);
        }
        frames += corpus.len();
    }
    Some(t0.elapsed().as_secs_f64() * 1e9 / frames as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_follows_the_counted_mix() {
        let mut delta = Snapshot::default();
        delta.counters.insert("net.messages".into(), 1_000);
        delta.counters.insert("net.req.sent".into(), 500);
        let c = corpus(&delta, 64);
        let requests = c
            .iter()
            .filter(|m| matches!(m, Message::Request { .. }))
            .count();
        let haves = c
            .iter()
            .filter(|m| matches!(m, Message::Have { .. }))
            .count();
        assert_eq!(requests, CORPUS_FRAMES / 2);
        assert_eq!(haves, CORPUS_FRAMES / 2);
        assert!(ns_per_frame(&c).unwrap() > 0.0);
        assert!(corpus(&Snapshot::default(), 64).is_empty());
    }
}
