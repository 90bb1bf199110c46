//! The deterministic in-process message hub.
//!
//! Endpoints hand encoded frames to [`LoopbackHub::send`] and drain
//! delivered frames with [`LoopbackHub::take_inbox`]. The real-socket
//! host in [`crate::tcp`] moves the identical wire frames over
//! `std::net` sockets instead.
//!
//! ## Determinism of the loopback hub
//!
//! The hub double-buffers: `send` appends an envelope to the receiver's
//! *pending* list, and nothing becomes readable until the coordinator
//! calls [`LoopbackHub::deliver_round`] between ticks. The coordinator
//! steps endpoints in id order, so each pending list already holds its
//! frames ordered by sender, and within one sender in send order; the
//! delivered stream is a pure function of what was sent.
//!
//! ## Memory
//!
//! Delivery hands each pending list over to its receiver whole, and the
//! receiver drains it, so a lane holds one round's frames at most and
//! keeps no capacity from its busiest round.

/// One framed message in flight.
#[derive(Debug)]
pub struct Envelope {
    pub from: usize,
    pub frame: Vec<u8>,
}

/// Deterministic in-process transport for `n` endpoints.
pub struct LoopbackHub {
    /// Frames sent this round, per receiver (moved at the round's end).
    pending: Vec<Vec<Envelope>>,
    /// Delivered, readable frames, per receiver.
    inbox: Vec<Vec<Envelope>>,
}

impl LoopbackHub {
    pub fn new(n: usize) -> Self {
        LoopbackHub {
            pending: (0..n).map(|_| Vec::new()).collect(),
            inbox: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Queue a frame from `from` to `to`; readable after the next
    /// [`deliver_round`](LoopbackHub::deliver_round). Frames to unknown
    /// endpoints are dropped (a closed socket, in TCP terms). Senders
    /// must send in id order within a round.
    pub fn send(&mut self, from: usize, to: usize, frame: Vec<u8>) {
        let Some(lane) = self.pending.get_mut(to) else {
            return;
        };
        debug_assert!(
            lane.last().is_none_or(|e| e.from <= from),
            "endpoints must send in id order within a round"
        );
        lane.push(Envelope { from, frame });
    }

    /// Coordinator only, between rounds: move every pending frame into
    /// its receiver's inbox, in (sender, send order). An empty inbox
    /// takes the pending list itself, leaving the lane with no capacity;
    /// an undrained one has the frames appended after its own.
    pub fn deliver_round(&mut self) {
        for (pending, inbox) in self.pending.iter_mut().zip(&mut self.inbox) {
            if inbox.is_empty() {
                *inbox = std::mem::take(pending);
            } else {
                inbox.append(pending);
            }
        }
    }

    /// Drain endpoint `id`'s delivered frames.
    pub fn take_inbox(&mut self, id: usize) -> Vec<Envelope> {
        std::mem::take(&mut self.inbox[id])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nothing_is_readable_before_delivery() {
        let mut hub = LoopbackHub::new(2);
        hub.send(0, 1, vec![1]);
        assert!(hub.take_inbox(1).is_empty());
        hub.deliver_round();
        let got = hub.take_inbox(1);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].from, 0);
        assert_eq!(got[0].frame, vec![1]);
    }

    #[test]
    fn delivery_is_in_sender_then_send_order() {
        // Senders 1..4 each send three frames to every receiver, in id
        // order as the coordinator steps them; one delivery hands each
        // receiver its frames grouped by sender, each group in send order.
        let mut hub = LoopbackHub::new(4);
        for sender in 1..4usize {
            for k in 0..3u8 {
                for to in 0..4 {
                    hub.send(sender, to, vec![sender as u8, k]);
                }
            }
        }
        hub.deliver_round();
        let want: Vec<(usize, Vec<u8>)> = (1..4usize)
            .flat_map(|s| (0..3u8).map(move |k| (s, vec![s as u8, k])))
            .collect();
        for to in 0..4 {
            let got: Vec<(usize, Vec<u8>)> = hub
                .take_inbox(to)
                .into_iter()
                .map(|e| (e.from, e.frame))
                .collect();
            assert_eq!(got, want, "receiver {to}");
        }
    }

    #[test]
    fn delivery_hands_the_lane_over_and_keeps_undrained_frames_first() {
        let mut hub = LoopbackHub::new(2);
        hub.send(0, 1, vec![1]);
        hub.deliver_round();
        assert_eq!(hub.pending[1].capacity(), 0, "the lane went to the inbox");
        // Endpoint 1 skips a round: the next round's frames queue behind
        // the undelivered ones.
        hub.send(0, 1, vec![2]);
        hub.deliver_round();
        let got: Vec<Vec<u8>> = hub.take_inbox(1).into_iter().map(|e| e.frame).collect();
        assert_eq!(got, vec![vec![1], vec![2]]);
    }

    #[test]
    fn frames_to_unknown_endpoints_are_dropped() {
        let mut hub = LoopbackHub::new(1);
        hub.send(0, 9, vec![1, 2, 3]); // no such endpoint; must not panic
        hub.deliver_round();
        assert!(hub.take_inbox(0).is_empty());
    }
}
