//! Per-connection message timelines from live-swarm telemetry.
//!
//! The live engine (`swarm-net`) emits typed lifecycle events — see
//! `swarm_obs::lifecycle` — from *both* endpoints of every connection:
//! connection transitions (`net.conn`), request lifecycles (`net.req`)
//! and transfer milestones (`net.xfer`). [`collect_net_runs`] groups a
//! drained event stream by run ordinal and folds both endpoints' views
//! of each peer pair into one [`ConnRecord`] timeline.
//!
//! The analyzer then checks the wire-level **conservation invariants**
//! every healthy run must satisfy:
//!
//! 1. *Handshake pairing* — any connection that carried request or
//!    transfer traffic must have completed a handshake at **both**
//!    endpoints. (Half-open connections with no traffic are reported,
//!    not violations: a refused handshake legitimately leaves one.)
//! 2. *Request resolution* — per requester, every issued request
//!    (`req.tx`) must resolve: a `cancel` (timeout/done), a `choked`
//!    clear, or a piece completion (`xfer.done`) at that endpoint.
//!    Closing a request that was never open is a violation
//!    (`cancel[done]` excepted — it trails the completion that already
//!    settled the request), as is a request still open when the stream
//!    ends. A `done` with no open request is legal — a late piece
//!    frame can land after a choke cleared the request state.
//! 3. *Piece conservation* — every completion (`xfer.done` at the
//!    receiver) must match a service start (`xfer.serve`) at the
//!    serving endpoint for the same piece and receiver, at a strictly
//!    earlier tick. Every endpoint reads the host's one virtual clock,
//!    and a piece frame is readable only in the round after it was
//!    sent, so a done at or before its serve is out of order.
//!
//! Violations are strings naming the connection and piece — rendered
//! by `repro net-report`, which exits non-zero when any exist.

use std::collections::BTreeMap;

use swarm_obs::{ConnEvent, Event, ReqEvent, ReqPhase, XferEvent, XferPhase};

use crate::flame::FlameLine;

/// One entry of a connection's merged two-endpoint timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry {
    /// Virtual tick at which the observing endpoint recorded the entry.
    pub tick: u64,
    /// Endpoint that recorded the entry.
    pub local: u64,
    /// The other endpoint.
    pub remote: u64,
    /// `kind.phase`, e.g. `conn.handshake`, `req.tx`, `xfer.done`.
    pub what: String,
    /// Piece number, when one is involved.
    pub piece: Option<u64>,
}

/// Both endpoints' merged view of one peer pair within a run.
#[derive(Debug, Clone, Default)]
pub struct ConnRecord {
    /// Lower endpoint id of the pair.
    pub a: u64,
    /// Higher endpoint id of the pair.
    pub b: u64,
    /// Merged timeline in emission order (per-endpoint order is exact;
    /// cross-endpoint interleaving follows the sink).
    pub timeline: Vec<TimelineEntry>,
    /// Endpoints (of this pair) that recorded a completed handshake.
    pub handshaken: Vec<u64>,
    /// Requests issued (`req.tx`) on this connection, either direction.
    pub requests: u64,
    /// Service episodes started (`xfer.serve`).
    pub serves: u64,
    /// Pieces completed (`xfer.done`).
    pub dones: u64,
    /// Request→piece latencies (ticks) attributed to this connection,
    /// from `xfer.done` events that carried one.
    pub latencies: Vec<u64>,
}

impl ConnRecord {
    /// Did this connection carry request or transfer traffic?
    pub fn has_traffic(&self) -> bool {
        self.requests > 0 || self.serves > 0 || self.dones > 0
    }

    /// Exact latency quantile from the recorded (sorted) samples via
    /// nearest rank; `None` when no `done` carried a latency.
    pub fn latency_quantile(&self, q: f64) -> Option<u64> {
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[rank])
    }
}

/// One live run's reconstructed wire-level view.
#[derive(Debug, Clone, Default)]
pub struct NetRunTrace {
    /// Run ordinal (`net.run.start` / lifecycle `run` field).
    pub run: u64,
    /// Connections keyed by unordered endpoint pair.
    pub conns: BTreeMap<(u64, u64), ConnRecord>,
    /// Conservation-invariant violations found while collecting.
    pub violations: Vec<String>,
}

fn pair(x: u64, y: u64) -> (u64, u64) {
    (x.min(y), x.max(y))
}

impl NetRunTrace {
    fn conn(&mut self, x: u64, y: u64) -> &mut ConnRecord {
        let (a, b) = pair(x, y);
        let rec = self.conns.entry((a, b)).or_default();
        rec.a = a;
        rec.b = b;
        rec
    }

    /// All latency samples across connections, sorted.
    pub fn latencies(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .conns
            .values()
            .flat_map(|c| c.latencies.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Total pieces completed across connections.
    pub fn completions(&self) -> u64 {
        self.conns.values().map(|c| c.dones).sum()
    }

    /// Connections that saw traffic but no handshake on one side —
    /// informational only (see module docs).
    pub fn half_open(&self) -> usize {
        self.conns
            .values()
            .filter(|c| !c.has_traffic() && c.handshaken.len() < 2 && !c.timeline.is_empty())
            .count()
    }

    /// Per-connection swimlane text: one lane per connection, both
    /// endpoints' entries merged, ticks left-aligned per endpoint.
    pub fn swimlane(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("run {}\n", self.run));
        for ((a, b), conn) in &self.conns {
            out.push_str(&format!(
                "conn {a}<->{b}: {} request(s), {} serve(s), {} completion(s)\n",
                conn.requests, conn.serves, conn.dones
            ));
            for e in &conn.timeline {
                let piece = e.piece.map(|p| format!(" piece {p}")).unwrap_or_default();
                // The lane shows who observed the entry: `a`-side
                // entries left of the bar, `b`-side right of it.
                let lane = if e.local == *a {
                    format!("{:<24}|", format!("{} {}{piece}", e.tick, e.what))
                } else {
                    format!("{:<24}|  {} {}{piece}", "", e.tick, e.what)
                };
                out.push_str(&format!("  {lane}\n"));
            }
        }
        out
    }

    /// Collapsed message-count stacks (`net;conn a-b;kind.phase N`) —
    /// flamegraph-compatible, one sample per message.
    pub fn collapsed(&self) -> Vec<FlameLine> {
        let mut folded: BTreeMap<String, u64> = BTreeMap::new();
        for ((a, b), conn) in &self.conns {
            for e in &conn.timeline {
                *folded
                    .entry(format!("net;conn {a}-{b};{}", e.what))
                    .or_insert(0) += 1;
            }
        }
        folded
            .into_iter()
            .map(|(stack, n)| FlameLine { stack, self_us: n })
            .collect()
    }
}

/// Tracks open requests per requester while collecting, to resolve
/// invariant 2 in stream order.
#[derive(Default)]
struct OpenRequests {
    /// (requester, server, piece) → open request count.
    open: BTreeMap<(u64, u64, u64), u64>,
}

impl OpenRequests {
    fn open(&mut self, local: u64, remote: u64, piece: u64) {
        *self.open.entry((local, remote, piece)).or_insert(0) += 1;
    }

    /// Close the matching request; `false` when none was open.
    fn close(&mut self, local: u64, remote: u64, piece: u64) -> bool {
        match self.open.get_mut(&(local, remote, piece)) {
            Some(n) if *n > 0 => {
                *n -= 1;
                true
            }
            _ => false,
        }
    }

    /// A completion at `local` for `piece` settles every outstanding
    /// request that endpoint has for the piece, against any server
    /// (the cancel fan-out travels as frames; the local state clears
    /// immediately).
    fn close_all(&mut self, local: u64, piece: u64) {
        for ((l, _, p), n) in self.open.iter_mut() {
            if *l == local && *p == piece {
                *n = 0;
            }
        }
    }

    fn leftovers(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.open.iter().filter(|(_, &n)| n > 0).map(|(&k, _)| k)
    }
}

/// Group lifecycle telemetry into per-run traces and check the
/// conservation invariants. Runs come back ordered by ordinal.
pub fn collect_net_runs(events: &[Event]) -> Vec<NetRunTrace> {
    let mut runs: BTreeMap<u64, NetRunTrace> = BTreeMap::new();
    let mut open: BTreeMap<u64, OpenRequests> = BTreeMap::new();
    // (run, server, receiver, piece) → tick of the earliest serve.
    let mut serves: BTreeMap<(u64, u64, u64, u64), u64> = BTreeMap::new();
    // (run, server, receiver, piece, tick) of every done.
    let mut dones: Vec<(u64, u64, u64, u64, u64)> = Vec::new();

    for e in events {
        if let Some(c) = ConnEvent::from_event(e) {
            let trace = runs.entry(c.run).or_insert_with(|| NetRunTrace {
                run: c.run,
                ..NetRunTrace::default()
            });
            let conn = trace.conn(c.local, c.remote);
            if c.phase == swarm_obs::ConnPhase::Handshake && !conn.handshaken.contains(&c.local) {
                conn.handshaken.push(c.local);
            }
            let what = match c.dir {
                Some(d) => format!("conn.{}.{}", c.phase.as_str(), d.as_str()),
                None => format!("conn.{}", c.phase.as_str()),
            };
            conn.timeline.push(TimelineEntry {
                tick: c.tick,
                local: c.local,
                remote: c.remote,
                what,
                piece: c.piece,
            });
        } else if let Some(r) = ReqEvent::from_event(e) {
            let trace = runs.entry(r.run).or_insert_with(|| NetRunTrace {
                run: r.run,
                ..NetRunTrace::default()
            });
            let reqs = open.entry(r.run).or_default();
            match r.phase {
                ReqPhase::Tx => reqs.open(r.local, r.remote, r.piece),
                ReqPhase::Cancel | ReqPhase::Choked => {
                    let closed = reqs.close(r.local, r.remote, r.piece);
                    // A `cancel[done]` is the wire echo of a completion
                    // that already settled every open request for the
                    // piece (the `xfer.done` is emitted first), so a
                    // zero-open close is legal there — and only there.
                    let done_echo =
                        r.phase == ReqPhase::Cancel && r.reason.as_deref() == Some("done");
                    if !closed && !done_echo {
                        trace.violations.push(format!(
                            "req.{} at peer {} for piece {} from {} without an open request",
                            r.phase.as_str(),
                            r.local,
                            r.piece,
                            r.remote
                        ));
                    }
                }
                ReqPhase::Rx => {}
            }
            let conn = trace.conn(r.local, r.remote);
            if r.phase == ReqPhase::Tx {
                conn.requests += 1;
            }
            let what = match &r.reason {
                Some(reason) => format!("req.{}[{reason}]", r.phase.as_str()),
                None => format!("req.{}", r.phase.as_str()),
            };
            conn.timeline.push(TimelineEntry {
                tick: r.tick,
                local: r.local,
                remote: r.remote,
                what,
                piece: Some(r.piece),
            });
        } else if let Some(x) = XferEvent::from_event(e) {
            let trace = runs.entry(x.run).or_insert_with(|| NetRunTrace {
                run: x.run,
                ..NetRunTrace::default()
            });
            match x.phase {
                XferPhase::Serve => {
                    // `local` is the server, `remote` the requester.
                    let first = serves
                        .entry((x.run, x.local, x.remote, x.piece))
                        .or_insert(x.tick);
                    *first = (*first).min(x.tick);
                }
                XferPhase::Done => {
                    // `local` is the receiver, `remote` the server.
                    dones.push((x.run, x.remote, x.local, x.piece, x.tick));
                    open.entry(x.run).or_default().close_all(x.local, x.piece);
                }
            }
            let conn = trace.conn(x.local, x.remote);
            match x.phase {
                XferPhase::Serve => conn.serves += 1,
                XferPhase::Done => {
                    conn.dones += 1;
                    if let Some(l) = x.latency_ticks {
                        conn.latencies.push(l);
                    }
                }
            }
            conn.timeline.push(TimelineEntry {
                tick: x.tick,
                local: x.local,
                remote: x.remote,
                what: format!("xfer.{}", x.phase.as_str()),
                piece: Some(x.piece),
            });
        }
    }

    // Invariant 2 (tail): requests still open at stream end.
    for (run, reqs) in &open {
        let leftovers: Vec<_> = reqs.leftovers().collect();
        if let Some(trace) = runs.get_mut(run) {
            for (local, remote, piece) in leftovers {
                trace.violations.push(format!(
                    "request by peer {local} to {remote} for piece {piece} never resolved"
                ));
            }
        }
    }
    // Invariant 3: every completion follows a serve at the server.
    for (run, server, receiver, piece, tick) in dones {
        let problem = match serves.get(&(run, server, receiver, piece)) {
            None => "never recorded serving it".to_string(),
            Some(&served) if served >= tick => {
                format!("first served it at tick {served}, not before")
            }
            Some(_) => continue,
        };
        if let Some(trace) = runs.get_mut(&run) {
            trace.violations.push(format!(
                "peer {receiver} completed piece {piece} from {server} at tick {tick} \
                 but {server} {problem}"
            ));
        }
    }
    // Invariant 1: traffic implies a handshake at both endpoints.
    for trace in runs.values_mut() {
        let mut missing = Vec::new();
        for (&(a, b), conn) in &trace.conns {
            if !conn.has_traffic() {
                continue;
            }
            for side in [a, b] {
                if !conn.handshaken.contains(&side) {
                    missing.push(format!(
                        "conn {a}<->{b} carried traffic but {side} never completed a handshake"
                    ));
                }
            }
        }
        trace.violations.extend(missing);
    }

    runs.into_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;
    use swarm_obs::{val, ConnPhase, Dir};

    fn ev(kind: &str, fields: &[(&str, Value)]) -> Event {
        Event {
            seq: 0,
            ts_us: 0,
            kind: kind.to_string(),
            job: None,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        }
    }

    // Events are built directly with the field names `emit()` writes —
    // the emit→parse round trip itself is covered in `swarm-obs`.
    fn conn(run: u64, tick: u64, local: u64, remote: u64, phase: ConnPhase) -> Event {
        ev(
            swarm_obs::CONN_KIND,
            &[
                ("run", val(run)),
                ("tick", val(tick)),
                ("local", val(local)),
                ("remote", val(remote)),
                ("phase", val(phase.as_str())),
            ],
        )
    }

    fn req(run: u64, tick: u64, local: u64, remote: u64, piece: u64, phase: ReqPhase) -> Event {
        ev(
            swarm_obs::REQ_KIND,
            &[
                ("run", val(run)),
                ("tick", val(tick)),
                ("local", val(local)),
                ("remote", val(remote)),
                ("piece", val(piece)),
                ("phase", val(phase.as_str())),
            ],
        )
    }

    fn xfer(
        run: u64,
        tick: u64,
        local: u64,
        remote: u64,
        piece: u64,
        phase: XferPhase,
        latency: Option<u64>,
    ) -> Event {
        let mut fields = vec![
            ("run", val(run)),
            ("tick", val(tick)),
            ("local", val(local)),
            ("remote", val(remote)),
            ("piece", val(piece)),
            ("phase", val(phase.as_str())),
            ("kb", val(1000.0)),
        ];
        if let Some(l) = latency {
            fields.push(("latency_ticks", val(l)));
        }
        ev(swarm_obs::XFER_KIND, &fields)
    }

    fn clean_exchange() -> Vec<Event> {
        vec![
            conn(0, 1, 3, 1, ConnPhase::Open),
            conn(0, 1, 1, 3, ConnPhase::Handshake),
            conn(0, 2, 3, 1, ConnPhase::Handshake),
            req(0, 3, 3, 1, 0, ReqPhase::Tx),
            req(0, 3, 1, 3, 0, ReqPhase::Rx),
            xfer(0, 4, 1, 3, 0, XferPhase::Serve, None),
            xfer(0, 6, 3, 1, 0, XferPhase::Done, Some(3)),
        ]
    }

    #[test]
    fn clean_exchange_satisfies_all_invariants() {
        let runs = collect_net_runs(&clean_exchange());
        assert_eq!(runs.len(), 1);
        let trace = &runs[0];
        assert!(trace.violations.is_empty(), "{:?}", trace.violations);
        let conn = &trace.conns[&(1, 3)];
        assert_eq!(conn.requests, 1);
        assert_eq!(conn.serves, 1);
        assert_eq!(conn.dones, 1);
        assert_eq!(conn.latencies, vec![3]);
        assert_eq!(conn.latency_quantile(0.5), Some(3));
        assert_eq!(trace.completions(), 1);
    }

    #[test]
    fn unresolved_request_is_a_violation() {
        let events = vec![
            conn(0, 1, 1, 3, ConnPhase::Handshake),
            conn(0, 2, 3, 1, ConnPhase::Handshake),
            req(0, 3, 3, 1, 0, ReqPhase::Tx),
        ];
        let runs = collect_net_runs(&events);
        assert_eq!(runs[0].violations.len(), 1);
        assert!(runs[0].violations[0].contains("never resolved"));
    }

    #[test]
    fn cancel_without_open_request_is_a_violation() {
        let events = vec![req(0, 3, 3, 1, 0, ReqPhase::Cancel)];
        let runs = collect_net_runs(&events);
        assert!(runs[0]
            .violations
            .iter()
            .any(|v| v.contains("without an open request")));
    }

    #[test]
    fn cancel_done_echo_after_completion_is_legal() {
        // The completion already settled the request; the trailing
        // cancel[done] echo must not count as a zero-open close.
        let mut events = clean_exchange();
        let mut echo = req(0, 6, 3, 1, 0, ReqPhase::Cancel);
        echo.fields.push(("reason".to_string(), val("done")));
        events.push(echo);
        let runs = collect_net_runs(&events);
        assert!(runs[0].violations.is_empty(), "{:?}", runs[0].violations);
    }

    #[test]
    fn done_without_serve_is_a_violation() {
        let events = vec![
            conn(0, 1, 1, 3, ConnPhase::Handshake),
            conn(0, 2, 3, 1, ConnPhase::Handshake),
            req(0, 3, 3, 1, 0, ReqPhase::Tx),
            xfer(0, 6, 3, 1, 0, XferPhase::Done, None),
        ];
        let runs = collect_net_runs(&events);
        assert!(runs[0]
            .violations
            .iter()
            .any(|v| v.contains("never recorded serving")));
    }

    #[test]
    fn done_at_or_before_its_only_serve_is_a_violation() {
        for done_tick in [3, 4] {
            let events = vec![
                conn(0, 1, 1, 3, ConnPhase::Handshake),
                conn(0, 2, 3, 1, ConnPhase::Handshake),
                req(0, 3, 3, 1, 0, ReqPhase::Tx),
                xfer(0, 4, 1, 3, 0, XferPhase::Serve, None),
                xfer(0, done_tick, 3, 1, 0, XferPhase::Done, None),
            ];
            let runs = collect_net_runs(&events);
            assert_eq!(runs[0].violations.len(), 1, "done at {done_tick}");
            assert!(
                runs[0].violations[0].contains("first served it at tick 4"),
                "{:?}",
                runs[0].violations
            );
        }
    }

    #[test]
    fn done_with_no_open_request_is_legal() {
        // A late piece frame after a choke cleared the request: the
        // receiver completes without an open request. Legal.
        let mut events = clean_exchange();
        events.push(xfer(0, 7, 1, 3, 5, XferPhase::Serve, None));
        events.push(xfer(0, 9, 3, 1, 5, XferPhase::Done, None));
        let runs = collect_net_runs(&events);
        assert!(runs[0].violations.is_empty(), "{:?}", runs[0].violations);
    }

    #[test]
    fn traffic_without_handshake_is_a_violation_but_half_open_is_not() {
        let events = vec![
            // Refused handshake, no traffic: reported, not a violation.
            conn(0, 1, 9, 2, ConnPhase::Refused),
            // Traffic with only one handshaken side: violation.
            conn(0, 1, 1, 3, ConnPhase::Handshake),
            req(0, 3, 3, 1, 0, ReqPhase::Tx),
            req(0, 4, 3, 1, 0, ReqPhase::Cancel),
        ];
        let runs = collect_net_runs(&events);
        let trace = &runs[0];
        assert_eq!(trace.half_open(), 1);
        assert!(trace
            .violations
            .iter()
            .any(|v| v.contains("never completed a handshake")));
        assert!(!trace.violations.iter().any(|v| v.contains("9")));
    }

    #[test]
    fn completion_closes_every_open_request_for_the_piece() {
        // Two outstanding requests for the same piece against different
        // servers; the completion settles both (endgame cancel).
        let events = vec![
            conn(0, 1, 1, 3, ConnPhase::Handshake),
            conn(0, 1, 3, 1, ConnPhase::Handshake),
            conn(0, 1, 2, 3, ConnPhase::Handshake),
            conn(0, 1, 3, 2, ConnPhase::Handshake),
            req(0, 3, 3, 1, 0, ReqPhase::Tx),
            req(0, 3, 3, 2, 0, ReqPhase::Tx),
            xfer(0, 4, 1, 3, 0, XferPhase::Serve, None),
            xfer(0, 6, 3, 1, 0, XferPhase::Done, Some(3)),
        ];
        let runs = collect_net_runs(&events);
        assert!(runs[0].violations.is_empty(), "{:?}", runs[0].violations);
    }

    #[test]
    fn runs_are_separated_by_ordinal() {
        let mut events = clean_exchange();
        events.push(req(7, 3, 3, 1, 0, ReqPhase::Tx));
        let runs = collect_net_runs(&events);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].run, 0);
        assert_eq!(runs[1].run, 7);
        assert!(runs[0].violations.is_empty());
        // Run 7's lone tx is unresolved AND rides a handshake-less
        // connection — both invariants fire there, none leak to run 0.
        assert!(runs[1]
            .violations
            .iter()
            .any(|v| v.contains("never resolved")));
        assert!(runs[1]
            .violations
            .iter()
            .any(|v| v.contains("never completed a handshake")));
    }

    #[test]
    fn swimlane_and_collapsed_render_the_timeline() {
        let runs = collect_net_runs(&clean_exchange());
        let lane = runs[0].swimlane();
        assert!(lane.contains("conn 1<->3"));
        assert!(lane.contains("xfer.done"));
        let folded = runs[0].collapsed();
        assert!(folded
            .iter()
            .any(|l| l.stack == "net;conn 1-3;req.tx" && l.self_us == 1));
        let text = crate::flame::to_folded(&folded);
        assert!(text.contains("net;conn 1-3;xfer.serve 1"));
    }

    #[test]
    fn conn_event_dir_shows_in_the_timeline() {
        let e = ev(
            swarm_obs::CONN_KIND,
            &[
                ("run", val(0u64)),
                ("tick", val(5u64)),
                ("local", val(1u64)),
                ("remote", val(3u64)),
                ("phase", val(ConnPhase::Choke.as_str())),
                ("dir", val(Dir::Tx.as_str())),
            ],
        );
        let runs = collect_net_runs(&[e]);
        let conn = &runs[0].conns[&(1, 3)];
        assert_eq!(conn.timeline[0].what, "conn.choke.tx");
    }
}
