//! The deterministic in-process message hub.
//!
//! Endpoints hand messages to [`LoopbackHub::send`] and drain delivered
//! ones with [`LoopbackHub::take_inbox`] and [`records`]. The real-socket
//! host in [`crate::tcp`] moves the identical wire frames over
//! `std::net` sockets instead.
//!
//! ## Determinism of the loopback hub
//!
//! The hub double-buffers: `send` appends a record to the receiver's
//! *pending* lane, and nothing becomes readable until the coordinator
//! calls [`LoopbackHub::deliver_round`] between ticks. The coordinator
//! steps endpoints in id order, so each pending lane already holds its
//! frames ordered by sender, and within one sender in send order; the
//! delivered stream is a pure function of what was sent.
//!
//! ## Memory
//!
//! A lane is one byte buffer of `[u32 sender][wire frame]` records:
//! `send` encodes the message straight onto the end of it, so a frame
//! in flight costs its encoded bytes (5–17 for all but bitfields and
//! peer lists) and no allocation of its own. Delivery hands each pending
//! lane over to its receiver whole, and the receiver decodes it one
//! record at a time as its core consumes the messages, then drops it, so
//! a lane holds one round's frames at most and keeps no capacity from
//! its busiest round.

use crate::wire::{self, Message};

/// Deterministic in-process transport for `n` endpoints.
pub struct LoopbackHub {
    /// Records sent this round, per receiver (moved at the round's end).
    pending: Vec<Vec<u8>>,
    /// Delivered, readable records, per receiver.
    inbox: Vec<Vec<u8>>,
    /// Sender of this round's latest record: senders go in id order.
    last_sender: usize,
}

impl LoopbackHub {
    pub fn new(n: usize) -> Self {
        LoopbackHub {
            pending: (0..n).map(|_| Vec::new()).collect(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
            last_sender: 0,
        }
    }

    /// Queue `msg` from `from` to `to`; readable after the next
    /// [`deliver_round`](LoopbackHub::deliver_round). Messages to unknown
    /// endpoints are dropped (a closed socket, in TCP terms). Senders
    /// must send in id order within a round.
    pub fn send(&mut self, from: usize, to: usize, msg: &Message) {
        let Some(lane) = self.pending.get_mut(to) else {
            return;
        };
        debug_assert!(
            self.last_sender <= from,
            "endpoints must send in id order within a round"
        );
        self.last_sender = from;
        let sender = u32::try_from(from).expect("endpoint ids fit in u32");
        lane.extend_from_slice(&sender.to_be_bytes());
        wire::encode_into(lane, msg);
    }

    /// Coordinator only, between rounds: move every pending record into
    /// its receiver's inbox, in (sender, send order). An empty inbox
    /// takes the pending lane itself, leaving the lane with no capacity;
    /// an undrained one has the records appended after its own.
    pub fn deliver_round(&mut self) {
        for (pending, inbox) in self.pending.iter_mut().zip(&mut self.inbox) {
            if inbox.is_empty() {
                *inbox = std::mem::take(pending);
            } else {
                inbox.append(pending);
            }
        }
        self.last_sender = 0;
    }

    /// Drain endpoint `id`'s delivered records; read them with [`records`].
    pub fn take_inbox(&mut self, id: usize) -> Vec<u8> {
        std::mem::take(&mut self.inbox[id])
    }
}

/// The `(sender, message)` pairs of a lane taken by
/// [`LoopbackHub::take_inbox`], decoded one at a time in delivery order.
pub fn records(lane: &[u8]) -> impl Iterator<Item = (usize, Message)> + '_ {
    let mut rest = lane;
    std::iter::from_fn(move || {
        let (sender, frame) = rest.split_first_chunk::<4>()?;
        match wire::decode(frame) {
            Ok((msg, len)) => {
                rest = &frame[len..];
                Some((u32::from_be_bytes(*sender) as usize, msg))
            }
            // The hub encoded every record itself, so a decode error is
            // a codec bug: surface it loudly in debug builds, and stop.
            Err(e) => {
                debug_assert!(false, "loopback frame failed to decode: {e}");
                None
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(lane: &[u8]) -> Vec<(usize, Message)> {
        records(lane).collect()
    }

    #[test]
    fn nothing_is_readable_before_delivery() {
        let mut hub = LoopbackHub::new(2);
        hub.send(0, 1, &Message::Have { piece: 1 });
        assert!(hub.take_inbox(1).is_empty());
        hub.deliver_round();
        assert_eq!(
            read(&hub.take_inbox(1)),
            vec![(0, Message::Have { piece: 1 })]
        );
    }

    #[test]
    fn delivery_is_in_sender_then_send_order() {
        // Senders 1..4 each send three messages to every receiver, in id
        // order as the coordinator steps them; one delivery hands each
        // receiver its messages grouped by sender, each group in send
        // order.
        let msg = |s: usize, k: u32| Message::Have {
            piece: s as u32 * 10 + k,
        };
        let mut hub = LoopbackHub::new(4);
        for sender in 1..4usize {
            for k in 0..3 {
                for to in 0..4 {
                    hub.send(sender, to, &msg(sender, k));
                }
            }
        }
        hub.deliver_round();
        let want: Vec<(usize, Message)> = (1..4usize)
            .flat_map(|s| (0..3).map(move |k| (s, msg(s, k))))
            .collect();
        for to in 0..4 {
            assert_eq!(read(&hub.take_inbox(to)), want, "receiver {to}");
        }
    }

    #[test]
    fn delivery_hands_the_lane_over_and_keeps_undrained_frames_first() {
        let mut hub = LoopbackHub::new(2);
        hub.send(0, 1, &Message::Have { piece: 1 });
        hub.deliver_round();
        assert_eq!(hub.pending[1].capacity(), 0, "the lane went to the inbox");
        // Endpoint 1 skips a round: the next round's frames queue behind
        // the undelivered ones.
        hub.send(0, 1, &Message::Have { piece: 2 });
        hub.deliver_round();
        assert_eq!(
            read(&hub.take_inbox(1)),
            vec![
                (0, Message::Have { piece: 1 }),
                (0, Message::Have { piece: 2 })
            ]
        );
        assert_eq!(hub.inbox[1].capacity(), 0, "the inbox went to its reader");
    }

    #[test]
    fn frames_to_unknown_endpoints_are_dropped() {
        let mut hub = LoopbackHub::new(1);
        hub.send(0, 9, &Message::Choke); // no such endpoint; must not panic
        hub.deliver_round();
        assert!(hub.take_inbox(0).is_empty());
    }

    #[test]
    fn a_record_is_its_sender_then_its_wire_frame() {
        let mut hub = LoopbackHub::new(2);
        let msg = Message::PexPeers {
            peers: vec![3, 1 << 40],
        };
        hub.send(1, 0, &msg);
        hub.deliver_round();
        let lane = hub.take_inbox(0);
        let mut want = 1u32.to_be_bytes().to_vec();
        want.extend_from_slice(&wire::encode(&msg));
        assert_eq!(lane, want);
    }
}
