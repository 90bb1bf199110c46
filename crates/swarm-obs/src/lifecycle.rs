//! Typed wire-lifecycle events for the live swarm.
//!
//! The live engine's observability story needs *message-level* truth:
//! which connections opened, who choked whom when, which requests were
//! issued and how each one resolved, which pieces moved. These structs
//! are the shared schema for that truth — `swarm-net` emits them
//! through the JSONL sink, `swarm-trace`'s net analyzer parses them
//! back with [`ConnEvent::from_event`] & co. and reconstructs
//! per-connection timelines. Keeping both directions next to each other
//! in one module is what keeps emitter and analyzer from drifting.
//!
//! Three kinds cover the protocol surface:
//!
//! * [`CONN_KIND`] (`net.conn`) — connection lifecycle:
//!   open/handshake/refused/choke/unchoke/snub/rejoin/close.
//! * [`REQ_KIND`] (`net.req`) — request lifecycle: issue (`tx`),
//!   service arrival (`rx`), cancellation (with a reason: `timeout` or
//!   `done`), and `choked` (cleared by an inbound `Choke`).
//! * [`XFER_KIND`] (`net.xfer`) — data movement: first service of a
//!   request episode (`serve`) and piece completion (`done`, with kB
//!   and request→piece latency in ticks when attributable).
//!
//! All emission is gated on [`crate::enabled`] inside [`ConnEvent::emit`]
//! & co.; `local`/`remote` are endpoint ids, `tick` is the host's
//! virtual tick, `run` is the `net.run.start` ordinal.

use serde_json::Value;

use crate::sink::{emit, val, Event};

/// Event kind for connection lifecycle transitions.
pub const CONN_KIND: &str = "net.conn";
/// Event kind for request lifecycle transitions.
pub const REQ_KIND: &str = "net.req";
/// Event kind for data-transfer milestones.
pub const XFER_KIND: &str = "net.xfer";

fn field<'a>(e: &'a Event, name: &str) -> Option<&'a Value> {
    e.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn u64_field(e: &Event, name: &str) -> Option<u64> {
    field(e, name)?.as_u64()
}

fn str_field<'a>(e: &'a Event, name: &str) -> Option<&'a str> {
    field(e, name)?.as_str()
}

/// Direction of a lifecycle transition relative to the emitting
/// endpoint: did it send the frame or receive it?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    Tx,
    Rx,
}

impl Dir {
    pub fn as_str(self) -> &'static str {
        match self {
            Dir::Tx => "tx",
            Dir::Rx => "rx",
        }
    }

    pub fn parse(s: &str) -> Option<Dir> {
        match s {
            "tx" => Some(Dir::Tx),
            "rx" => Some(Dir::Rx),
            _ => None,
        }
    }
}

/// Connection lifecycle phases, in rough protocol order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConnPhase {
    /// We initiated: inserted the neighbor and sent a handshake.
    Open,
    /// A valid handshake arrived (new inbound conn, or the reply leg of
    /// a conn we opened).
    Handshake,
    /// A handshake arrived but was rejected (table full or piece-count
    /// mismatch).
    Refused,
    Choke,
    Unchoke,
    /// Request timeout: the silent neighbor is treated as choking us.
    Snub,
    /// An `Unchoke` arrived while the neighbor was snubbed — it is
    /// alive after all and becomes a request target again.
    Rejoin,
    /// Protocol-level close (the parting `Choke` broadcast on
    /// completion).
    Close,
}

impl ConnPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            ConnPhase::Open => "open",
            ConnPhase::Handshake => "handshake",
            ConnPhase::Refused => "refused",
            ConnPhase::Choke => "choke",
            ConnPhase::Unchoke => "unchoke",
            ConnPhase::Snub => "snub",
            ConnPhase::Rejoin => "rejoin",
            ConnPhase::Close => "close",
        }
    }

    pub fn parse(s: &str) -> Option<ConnPhase> {
        Some(match s {
            "open" => ConnPhase::Open,
            "handshake" => ConnPhase::Handshake,
            "refused" => ConnPhase::Refused,
            "choke" => ConnPhase::Choke,
            "unchoke" => ConnPhase::Unchoke,
            "snub" => ConnPhase::Snub,
            "rejoin" => ConnPhase::Rejoin,
            "close" => ConnPhase::Close,
            _ => return None,
        })
    }
}

/// One connection lifecycle transition, as seen by endpoint `local`
/// about its connection to `remote`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnEvent {
    pub run: u64,
    pub tick: u64,
    pub local: u64,
    pub remote: u64,
    pub phase: ConnPhase,
    /// Send or receive side, for phases that travel as frames
    /// (choke/unchoke/close); `None` for local-only transitions.
    pub dir: Option<Dir>,
    /// The piece involved, when one is (snub carries the abandoned
    /// request's piece).
    pub piece: Option<u64>,
}

impl ConnEvent {
    /// Emit into the JSONL sink (no-op unless [`crate::enabled`]).
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let mut fields = vec![
            ("run", val(self.run)),
            ("tick", val(self.tick)),
            ("local", val(self.local)),
            ("remote", val(self.remote)),
            ("phase", val(self.phase.as_str())),
        ];
        if let Some(d) = self.dir {
            fields.push(("dir", val(d.as_str())));
        }
        if let Some(p) = self.piece {
            fields.push(("piece", val(p)));
        }
        emit(CONN_KIND, &fields);
    }

    /// Parse back what [`ConnEvent::emit`] wrote; `None` for other
    /// kinds or malformed fields.
    pub fn from_event(e: &Event) -> Option<ConnEvent> {
        if e.kind != CONN_KIND {
            return None;
        }
        Some(ConnEvent {
            run: u64_field(e, "run")?,
            tick: u64_field(e, "tick")?,
            local: u64_field(e, "local")?,
            remote: u64_field(e, "remote")?,
            phase: ConnPhase::parse(str_field(e, "phase")?)?,
            dir: match str_field(e, "dir") {
                Some(s) => Some(Dir::parse(s)?),
                None => None,
            },
            piece: u64_field(e, "piece"),
        })
    }
}

/// Request lifecycle phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqPhase {
    /// Requester issued the request.
    Tx,
    /// Server accepted the request for service.
    Rx,
    /// Requester sent `Cancel` (see [`ReqEvent::reason`]).
    Cancel,
    /// Requester's outstanding request was cleared by an inbound
    /// `Choke`.
    Choked,
}

impl ReqPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            ReqPhase::Tx => "tx",
            ReqPhase::Rx => "rx",
            ReqPhase::Cancel => "cancel",
            ReqPhase::Choked => "choked",
        }
    }

    pub fn parse(s: &str) -> Option<ReqPhase> {
        Some(match s {
            "tx" => ReqPhase::Tx,
            "rx" => ReqPhase::Rx,
            "cancel" => ReqPhase::Cancel,
            "choked" => ReqPhase::Choked,
            _ => return None,
        })
    }
}

/// One request lifecycle transition. `local` is the endpoint the event
/// happened at (the requester for tx/cancel/choked, the server for rx).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqEvent {
    pub run: u64,
    pub tick: u64,
    pub local: u64,
    pub remote: u64,
    pub piece: u64,
    pub phase: ReqPhase,
    /// Why a `cancel` was sent: `"timeout"` (request expiry snub) or
    /// `"done"` (the piece completed, possibly via another neighbor).
    pub reason: Option<String>,
}

impl ReqEvent {
    /// Emit into the JSONL sink (no-op unless [`crate::enabled`]).
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let mut fields = vec![
            ("run", val(self.run)),
            ("tick", val(self.tick)),
            ("local", val(self.local)),
            ("remote", val(self.remote)),
            ("piece", val(self.piece)),
            ("phase", val(self.phase.as_str())),
        ];
        if let Some(r) = &self.reason {
            fields.push(("reason", val(r)));
        }
        emit(REQ_KIND, &fields);
    }

    /// Parse back what [`ReqEvent::emit`] wrote.
    pub fn from_event(e: &Event) -> Option<ReqEvent> {
        if e.kind != REQ_KIND {
            return None;
        }
        Some(ReqEvent {
            run: u64_field(e, "run")?,
            tick: u64_field(e, "tick")?,
            local: u64_field(e, "local")?,
            remote: u64_field(e, "remote")?,
            piece: u64_field(e, "piece")?,
            phase: ReqPhase::parse(str_field(e, "phase")?)?,
            reason: str_field(e, "reason").map(str::to_string),
        })
    }
}

/// Data-transfer milestones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum XferPhase {
    /// Server sent the first `Piece` frame of a request episode.
    Serve,
    /// Receiver completed the piece (`remote` is the neighbor that
    /// delivered the final bytes).
    Done,
}

impl XferPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            XferPhase::Serve => "serve",
            XferPhase::Done => "done",
        }
    }

    pub fn parse(s: &str) -> Option<XferPhase> {
        match s {
            "serve" => Some(XferPhase::Serve),
            "done" => Some(XferPhase::Done),
            _ => None,
        }
    }
}

/// One data-transfer milestone on the `local`↔`remote` connection.
#[derive(Debug, Clone, PartialEq)]
pub struct XferEvent {
    pub run: u64,
    pub tick: u64,
    pub local: u64,
    pub remote: u64,
    pub piece: u64,
    pub phase: XferPhase,
    /// Piece size in kB (`done` only).
    pub kb: Option<f64>,
    /// Ticks from request issue to completion, when the completing
    /// neighbor held the matching request (`done` only).
    pub latency_ticks: Option<u64>,
}

impl XferEvent {
    /// Emit into the JSONL sink (no-op unless [`crate::enabled`]).
    pub fn emit(&self) {
        if !crate::enabled() {
            return;
        }
        let mut fields = vec![
            ("run", val(self.run)),
            ("tick", val(self.tick)),
            ("local", val(self.local)),
            ("remote", val(self.remote)),
            ("piece", val(self.piece)),
            ("phase", val(self.phase.as_str())),
        ];
        if let Some(kb) = self.kb {
            fields.push(("kb", val(kb)));
        }
        if let Some(l) = self.latency_ticks {
            fields.push(("latency_ticks", val(l)));
        }
        emit(XFER_KIND, &fields);
    }

    /// Parse back what [`XferEvent::emit`] wrote.
    pub fn from_event(e: &Event) -> Option<XferEvent> {
        if e.kind != XFER_KIND {
            return None;
        }
        Some(XferEvent {
            run: u64_field(e, "run")?,
            tick: u64_field(e, "tick")?,
            local: u64_field(e, "local")?,
            remote: u64_field(e, "remote")?,
            piece: u64_field(e, "piece")?,
            phase: XferPhase::parse(str_field(e, "phase")?)?,
            kb: field(e, "kb").and_then(Value::as_f64),
            latency_ticks: u64_field(e, "latency_ticks"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_trip_through_strings() {
        for p in [
            ConnPhase::Open,
            ConnPhase::Handshake,
            ConnPhase::Refused,
            ConnPhase::Choke,
            ConnPhase::Unchoke,
            ConnPhase::Snub,
            ConnPhase::Rejoin,
            ConnPhase::Close,
        ] {
            assert_eq!(ConnPhase::parse(p.as_str()), Some(p));
        }
        for p in [
            ReqPhase::Tx,
            ReqPhase::Rx,
            ReqPhase::Cancel,
            ReqPhase::Choked,
        ] {
            assert_eq!(ReqPhase::parse(p.as_str()), Some(p));
        }
        for p in [XferPhase::Serve, XferPhase::Done] {
            assert_eq!(XferPhase::parse(p.as_str()), Some(p));
        }
        assert!(ConnPhase::parse("nope").is_none());
    }
}
