//! Per-endpoint protocol state machine.
//!
//! [`PeerCore`] is the live-mode counterpart of one node inside the
//! `swarm-bt` engine: it holds a bitfield, a neighbor table, and the
//! tit-for-tat/rarest-first policy state — but it communicates *only*
//! through wire [`Message`]s handed in and out by a host. Nothing in
//! here knows the transport or the clock underneath: the loopback
//! coordinator hands it an inbox and a tick.
//!
//! Piece selection and rechoking call the pure policy functions in
//! [`swarm_bt::policy`] — the exact code the simulator runs — so sim and
//! live share one brain and differ only in how bytes move.
//!
//! ## Determinism contract
//!
//! A core's behavior is a pure function of `(its ChaCha8 stream, the
//! ordered inbox it is handed each tick)`. All iteration is over sorted
//! ids, never hash order: the neighbor table is a `Vec` kept in
//! ascending endpoint id. The loopback host hands each inbox over in
//! (sender id, send order), so a run that delivers the same frames
//! produces bit-identical cores.

use std::collections::BTreeSet;

use rand_chacha::ChaCha8Rng;
use swarm_bt::{policy, Bitfield};
use swarm_obs::{
    ConnEvent, ConnPhase, Counter, CounterFamily, Dir, Gauge, Histogram, ReqEvent, ReqPhase,
    XferEvent, XferPhase,
};

use crate::pex;
use crate::wire::{Message, EVENT_COMPLETED, EVENT_NONE, EVENT_STARTED, EVENT_STOPPED};

/// Endpoint id of the tracker in every swarm.
pub const TRACKER: usize = 0;
/// Endpoint id of the publisher in every swarm.
pub const PUBLISHER: usize = 1;

/// Below this many neighbors a leecher re-announces (mirrors the sim).
pub const MIN_NEIGHBORS: usize = 5;
/// Tracker re-announce cadence in ticks (mirrors the sim).
pub const REANNOUNCE_INTERVAL: u64 = 30;
/// Ticks of silence after which an outstanding request is abandoned
/// (mirrors the sim's request expiry).
pub const REQUEST_TIMEOUT: u64 = 60;

/// Knobs shared by every peer of one swarm (lifted from `BtConfig`).
#[derive(Debug, Clone, Copy)]
pub struct PeerParams {
    pub num_pieces: usize,
    /// Piece size in kB.
    pub piece_size: f64,
    pub unchoke_slots: usize,
    pub optimistic_slots: usize,
    pub rechoke_interval: u64,
    /// 0 disables PEX.
    pub pex_interval: u64,
    pub max_neighbors: usize,
    /// `net.run.*` ordinal of the hosting run, stamped onto every
    /// lifecycle event this peer emits (telemetry only — no protocol
    /// effect).
    pub run: u64,
}

/// Cached `&'static` probe handles for one core — the live-mode twin of
/// the sim engine's probe struct. `None` when recording was off at
/// construction, which keeps the uninstrumented hot path at a single
/// branch per site. Every probe is telemetry-only: nothing here reads
/// or advances the peer's ChaCha8 stream or mutates protocol state.
#[derive(Debug, Clone, Copy)]
struct NetProbes {
    run: u64,
    conn_opened: &'static Counter,
    conn_accepted: &'static Counter,
    conn_refused: &'static Counter,
    conn_closed: &'static Counter,
    snubs: &'static Counter,
    rejoins: &'static Counter,
    req_sent: &'static Counter,
    req_received: &'static Counter,
    req_cancelled: &'static Counter,
    req_choked: &'static Counter,
    pieces_served: &'static Counter,
    pieces_completed: &'static Counter,
    choke_tx: &'static Counter,
    unchoke_tx: &'static Counter,
    pex_requests: &'static Counter,
    pex_replies: &'static Counter,
    /// Request→piece latency in ticks, when attributable.
    req_latency: &'static Histogram,
    /// Per-connection accepted bytes, labelled `from->to` (data flow).
    bytes_in: &'static CounterFamily,
    /// Per-connection offered bytes, same label orientation.
    bytes_out: &'static CounterFamily,
    /// This peer's last rolled receive-window total,
    /// `net.peer.window_kb{<id>}`.
    window_kb: &'static Gauge,
}

impl NetProbes {
    fn new(id: usize, run: u64) -> Option<NetProbes> {
        if !swarm_obs::enabled() {
            return None;
        }
        Some(NetProbes {
            run,
            conn_opened: swarm_obs::counter("net.conn.opened"),
            conn_accepted: swarm_obs::counter("net.conn.accepted"),
            conn_refused: swarm_obs::counter("net.conn.refused"),
            conn_closed: swarm_obs::counter("net.conn.closed"),
            snubs: swarm_obs::counter("net.conn.snubs"),
            rejoins: swarm_obs::counter("net.conn.rejoins"),
            req_sent: swarm_obs::counter("net.req.sent"),
            req_received: swarm_obs::counter("net.req.received"),
            req_cancelled: swarm_obs::counter("net.req.cancelled"),
            req_choked: swarm_obs::counter("net.req.choked"),
            pieces_served: swarm_obs::counter("net.xfer.served"),
            pieces_completed: swarm_obs::counter("net.xfer.completed"),
            choke_tx: swarm_obs::counter("net.choke.sent"),
            unchoke_tx: swarm_obs::counter("net.unchoke.sent"),
            pex_requests: swarm_obs::counter("net.pex.requests"),
            pex_replies: swarm_obs::counter("net.pex.replies"),
            req_latency: swarm_obs::histogram("net.req.latency_ticks"),
            bytes_in: swarm_obs::counter_family("net.conn.bytes_in"),
            bytes_out: swarm_obs::counter_family("net.conn.bytes_out"),
            window_kb: swarm_obs::gauge_family("net.peer.window_kb").with_name(&id.to_string()),
        })
    }

    fn conn(&self, tick: u64, local: usize, remote: usize, phase: ConnPhase) -> ConnEvent {
        ConnEvent {
            run: self.run,
            tick,
            local: local as u64,
            remote: remote as u64,
            phase,
            dir: None,
            piece: None,
        }
    }

    fn req(&self, tick: u64, local: usize, remote: usize, piece: u32, phase: ReqPhase) -> ReqEvent {
        ReqEvent {
            run: self.run,
            tick,
            local: local as u64,
            remote: remote as u64,
            piece: piece as u64,
            phase,
            reason: None,
        }
    }
}

/// Kilobytes → whole bytes for per-connection byte counters (counters
/// are integral; sub-byte residue from fractional-kB frames rounds per
/// frame, deterministically).
fn kb_to_bytes(kb: f64) -> u64 {
    (kb * 1024.0).round() as u64
}

/// No piece: the empty value of [`Neighbor`]'s two request fields.
/// Piece numbers stay below the piece count, which a `u32` bounds.
const NO_PIECE: u32 = u32::MAX;

/// What we know about one neighbor: one record of a peer's
/// [`NeighborTable`]. A peer keeps it until the neighbor sends `Close`
/// or the peer itself departs.
#[derive(Debug, Clone)]
struct Neighbor {
    bitfield: Bitfield,
    /// kB received from them in the current rechoke window.
    recv_window: f64,
    /// Previous window — the tit-for-tat score.
    recv_prev: f64,
    /// Last tick data arrived for `our_request`, or it was issued (the
    /// timeout stamp). Meaningless while `our_request` is [`NO_PIECE`].
    request_stamp: u64,
    /// Endpoint id: the table's sort key.
    id: u32,
    /// Piece we asked them for, or [`NO_PIECE`].
    our_request: u32,
    /// Piece they asked us for (service continues until cancelled), or
    /// [`NO_PIECE`].
    their_request: u32,
    /// They told us they want something we have.
    they_interested: bool,
    /// We told them we want something they have.
    we_interested: bool,
    we_choke_them: bool,
    they_choke_us: bool,
}

// A table entry is this record and nothing else, one per neighbor of
// every online peer: keep it at 72 bytes.
const _: () = assert!(std::mem::size_of::<Neighbor>() <= 72);

impl Neighbor {
    fn new(id: u32, num_pieces: usize) -> Self {
        Neighbor {
            bitfield: Bitfield::new(num_pieces),
            recv_window: 0.0,
            recv_prev: 0.0,
            request_stamp: 0,
            id,
            our_request: NO_PIECE,
            their_request: NO_PIECE,
            they_interested: false,
            we_interested: false,
            we_choke_them: true,
            they_choke_us: true,
        }
    }

    fn id(&self) -> usize {
        self.id as usize
    }
}

/// The telemetry-only half of a neighbor's state. A [`NeighborTable`]
/// keeps one beside each record while the core's probes are on, and
/// none while they are off.
#[derive(Debug, Clone, Default)]
struct NeighborObs {
    /// Tick the current request was issued — unlike the timeout stamp,
    /// never refreshed by arriving data, so it anchors the
    /// request→piece latency.
    requested_at: u64,
    /// We snubbed them on a request timeout and they have not proven
    /// liveness (sent `Unchoke`) since.
    snubbed: bool,
    /// The current service episode already emitted its `net.xfer` serve
    /// event (reset each time they place a request).
    serve_logged: bool,
    /// Lazily interned per-connection byte counters, labelled in
    /// data-flow direction (`remote->local` in, `local->remote` out).
    bytes_in: Option<&'static Counter>,
    bytes_out: Option<&'static Counter>,
}

/// A peer's neighbors as [`Neighbor`] records in a `Vec` sorted by
/// endpoint id: lookups binary-search, inserts keep the order, and
/// iteration is ascending by id, so RNG draws and frames follow a fixed
/// order. The table holds exactly its entries: an insert reserves room
/// for one more, and a removal (a neighbor's `Close`) gives the freed
/// slot back. `obs` is the telemetry side table, index for index with
/// `entries` while the core's probes are on and empty while they are
/// off.
#[derive(Debug, Default)]
struct NeighborTable {
    entries: Vec<Neighbor>,
    obs: Vec<NeighborObs>,
}

impl NeighborTable {
    fn position(&self, id: usize) -> Result<usize, usize> {
        match u32::try_from(id) {
            Ok(id) => self.entries.binary_search_by_key(&id, |n| n.id),
            // Above every id the table can hold.
            Err(_) => Err(self.entries.len()),
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn contains(&self, id: usize) -> bool {
        self.position(id).is_ok()
    }

    fn get(&self, id: usize) -> Option<&Neighbor> {
        self.position(id).ok().map(|i| &self.entries[i])
    }

    fn get_mut(&mut self, id: usize) -> Option<&mut Neighbor> {
        self.position(id).ok().map(|i| &mut self.entries[i])
    }

    /// Neighbor `id`'s record and, while probes are on, its telemetry.
    fn get_with_obs(&self, id: usize) -> Option<(&Neighbor, Option<&NeighborObs>)> {
        let i = self.position(id).ok()?;
        Some((&self.entries[i], self.obs.get(i)))
    }

    fn get_mut_with_obs(&mut self, id: usize) -> Option<(&mut Neighbor, Option<&mut NeighborObs>)> {
        let i = self.position(id).ok()?;
        Some((&mut self.entries[i], self.obs.get_mut(i)))
    }

    /// Drop neighbor `id`, if present, and give its slot back.
    fn remove(&mut self, id: usize) {
        let Ok(at) = self.position(id) else {
            return;
        };
        self.entries.remove(at);
        self.entries.shrink_to_fit();
        if !self.obs.is_empty() {
            self.obs.remove(at);
            self.obs.shrink_to_fit();
        }
    }

    /// Add a neighbor not yet in the table at its place in id order,
    /// with a telemetry half when `observed`.
    fn insert(&mut self, n: Neighbor, observed: bool) {
        let at = self.position(n.id()).expect_err("neighbor ids are unique");
        self.entries.reserve_exact(1);
        self.entries.insert(at, n);
        if observed {
            self.obs.reserve_exact(1);
            self.obs.insert(at, NeighborObs::default());
        }
    }

    /// Slots allocated for records.
    fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Telemetry halves held, and slots allocated for them.
    fn obs_len_and_capacity(&self) -> (usize, usize) {
        (self.obs.len(), self.obs.capacity())
    }

    fn is_strictly_ascending(&self) -> bool {
        self.entries.windows(2).all(|w| w[0].id < w[1].id)
    }

    fn ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().map(Neighbor::id)
    }

    fn iter(&self) -> impl Iterator<Item = &Neighbor> {
        self.entries.iter()
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Neighbor> {
        self.entries.iter_mut()
    }

    /// Each record with its telemetry half (`None` while probes are off).
    fn iter_mut_with_obs(
        &mut self,
    ) -> impl Iterator<Item = (&mut Neighbor, Option<&mut NeighborObs>)> {
        let obs = self.obs.iter_mut().map(Some);
        self.entries
            .iter_mut()
            .zip(obs.chain(std::iter::repeat_with(|| None)))
    }
}

/// One peer's complete protocol state.
pub struct PeerCore {
    pub id: usize,
    params: PeerParams,
    pub is_publisher: bool,
    pub online: bool,
    /// Set once the peer leaves for good (completion, since live mode
    /// runs linger-free scenarios).
    pub departed: bool,
    /// Tick at which a leecher joins the swarm.
    pub arrived: u64,
    /// Completion tick (the sim's `done_at = tick + 1` convention).
    pub completed: Option<u64>,
    pub bitfield: Bitfield,
    /// kB received per piece.
    progress: Vec<f64>,
    /// Upload capacity in kB per tick.
    upload_cap: f64,
    /// Download cap in kB per tick.
    download_cap: f64,
    received_this_tick: f64,
    /// Total kB accepted (the receiver-side "bytes moved" truth).
    pub bytes_received: f64,
    neighbors: NeighborTable,
    rng: ChaCha8Rng,
    needs_announce: bool,
    /// Frames processed (for the run report).
    pub messages_handled: u64,
    /// Rechoke rounds executed.
    pub rechokes: u64,
    /// `None` when recording was off at construction.
    probes: Option<NetProbes>,
}

impl PeerCore {
    pub fn leecher(
        id: usize,
        arrived: u64,
        upload_cap: f64,
        download_cap: f64,
        params: PeerParams,
        rng: ChaCha8Rng,
    ) -> Self {
        PeerCore {
            id,
            params,
            is_publisher: false,
            online: false,
            departed: false,
            arrived,
            completed: None,
            bitfield: Bitfield::new(params.num_pieces),
            progress: vec![0.0; params.num_pieces],
            upload_cap,
            download_cap,
            received_this_tick: 0.0,
            bytes_received: 0.0,
            neighbors: NeighborTable::default(),
            rng,
            needs_announce: false,
            messages_handled: 0,
            rechokes: 0,
            probes: NetProbes::new(id, params.run),
        }
    }

    pub fn publisher(id: usize, upload_cap: f64, params: PeerParams, rng: ChaCha8Rng) -> Self {
        PeerCore {
            id,
            params,
            is_publisher: true,
            online: false,
            departed: false,
            arrived: 0,
            completed: None,
            bitfield: Bitfield::full(params.num_pieces),
            progress: vec![params.piece_size; params.num_pieces],
            upload_cap,
            download_cap: 0.0,
            received_this_tick: 0.0,
            bytes_received: 0.0,
            neighbors: NeighborTable::default(),
            rng,
            needs_announce: false,
            messages_handled: 0,
            rechokes: 0,
            probes: NetProbes::new(id, params.run),
        }
    }

    /// Host-driven presence toggle (the publisher's on/off schedule).
    /// Going online re-announces and resets upload-side choke state so
    /// the next rechoke re-emits `Unchoke` deltas — neighbors that
    /// snubbed us while we were gone need fresh frames to revive.
    /// Going offline keeps the neighbor table (the sim's publisher also
    /// resumes with its view intact). While offline, `step` applies only
    /// the `Close` frames of neighbors that left meanwhile and drops the
    /// rest.
    pub fn set_online(&mut self, on: bool) {
        if on && !self.online && !self.departed {
            self.online = true;
            self.needs_announce = true;
            for n in self.neighbors.iter_mut() {
                n.we_choke_them = true;
                n.their_request = NO_PIECE;
            }
        } else if !on {
            self.online = false;
        }
    }

    /// Entries in the neighbor table; 0 once the peer has departed.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }

    /// kB still missing — the announce `left` field.
    fn remaining(&self) -> f64 {
        let total = self.params.num_pieces as f64 * self.params.piece_size;
        (total - self.progress.iter().sum::<f64>()).max(0.0)
    }

    /// Run one tick: ingest `inbox` (already in delivery order), then do
    /// this tick's protocol duties. Outgoing messages are pushed onto
    /// `out` as `(destination endpoint, message)` — the host encodes and
    /// sends them. The inbox is consumed one message at a time, and not
    /// past the point where the peer goes offline or departs.
    pub fn step(
        &mut self,
        tick: u64,
        inbox: impl IntoIterator<Item = (usize, Message)>,
        out: &mut Vec<(usize, Message)>,
    ) {
        self.run_tick(tick, inbox, out);
        // Checked after every tick, whichever way it ended: offline,
        // departed mid-inbox, or run to the end.
        debug_assert!(
            self.neighbors.is_strictly_ascending(),
            "peer {}: neighbor ids out of order",
            self.id
        );
        debug_assert!(
            self.neighbors.len() <= self.params.max_neighbors,
            "peer {}: {} neighbors over the cap of {}",
            self.id,
            self.neighbors.len(),
            self.params.max_neighbors
        );
        debug_assert!(
            !self.departed || (self.neighbors.capacity() == 0 && self.progress.capacity() == 0),
            "peer {}: departed but still holds its neighbor table or progress",
            self.id
        );
        debug_assert_eq!(
            self.neighbors.capacity(),
            self.neighbors.len(),
            "peer {}: neighbor table keeps spare slots",
            self.id
        );
        let observed = if self.probes.is_some() {
            self.neighbors.len()
        } else {
            0
        };
        debug_assert_eq!(
            self.neighbors.obs_len_and_capacity(),
            (observed, observed),
            "peer {}: telemetry side table out of step with the table",
            self.id
        );
    }

    fn run_tick(
        &mut self,
        tick: u64,
        inbox: impl IntoIterator<Item = (usize, Message)>,
        out: &mut Vec<(usize, Message)>,
    ) {
        self.received_this_tick = 0.0;
        if !self.is_publisher && !self.online && !self.departed && tick >= self.arrived {
            self.online = true;
            self.needs_announce = true;
        }
        if !self.online {
            // A peer that will come back (the publisher between
            // on-phases) still lets go of the neighbors that left
            // meanwhile; the rest of the inbox is for a peer that is not
            // there, and a departed peer skips it whole.
            if !self.departed {
                for (from, msg) in inbox {
                    if matches!(msg, Message::Close) {
                        self.messages_handled += 1;
                        self.handle(from, &msg, tick, out);
                    }
                }
            }
            return;
        }
        for (from, msg) in inbox {
            self.messages_handled += 1;
            self.handle(from, &msg, tick, out);
            if !self.online {
                // Completed mid-inbox; the rest of the frames are for a
                // peer that no longer exists.
                return;
            }
        }
        if self.needs_announce {
            self.needs_announce = false;
            out.push((
                TRACKER,
                Message::Announce {
                    peer: self.id as u64,
                    left: self.remaining(),
                    event: EVENT_STARTED,
                },
            ));
        }
        if !self.is_publisher
            && tick > 0
            && tick.is_multiple_of(REANNOUNCE_INTERVAL)
            && self.neighbors.len() < MIN_NEIGHBORS
        {
            out.push((
                TRACKER,
                Message::Announce {
                    peer: self.id as u64,
                    left: self.remaining(),
                    event: EVENT_NONE,
                },
            ));
        }
        if self.params.pex_interval > 0 && tick > 0 && tick.is_multiple_of(self.params.pex_interval)
        {
            let ids: Vec<usize> = self.neighbors.ids().collect();
            if let Some(partner) = pex::pick_partner(&ids, &mut self.rng) {
                if let Some(pr) = self.probes {
                    pr.pex_requests.inc();
                }
                out.push((partner, Message::PexRequest));
            }
        }
        if tick.is_multiple_of(self.params.rechoke_interval) {
            self.rechoke(tick, out);
        }
        if !self.is_publisher && !self.bitfield.is_complete() {
            self.request_pieces(tick, out);
        }
        self.serve_requests(tick, out);
    }

    /// Tit-for-tat rechoke: roll the receive windows, rank interested
    /// neighbors with the shared policy code, and emit only the
    /// choke-state deltas.
    fn rechoke(&mut self, tick: u64, out: &mut Vec<(usize, Message)>) {
        self.rechokes += 1;
        if let Some(pr) = self.probes {
            // Publish the window about to be rolled: this peer's
            // aggregate receive throughput over the last rechoke
            // interval, `net.peer.window_kb{<id>}`.
            let window: f64 = self.neighbors.iter().map(|n| n.recv_window).sum();
            pr.window_kb.set(window.round() as i64);
        }
        for n in self.neighbors.iter_mut() {
            n.recv_prev = n.recv_window;
            n.recv_window = 0.0;
        }
        let mut interested: Vec<usize> = self
            .neighbors
            .iter()
            .filter(|n| n.they_interested)
            .map(Neighbor::id)
            .collect();
        let neighbors = &self.neighbors;
        let chosen = policy::rechoke_order(
            &mut interested,
            self.is_publisher,
            |id| neighbors.get(id).map_or(0.0, |n| n.recv_prev),
            self.params.unchoke_slots,
            self.params.optimistic_slots,
            &mut self.rng,
        );
        let unchoked: BTreeSet<usize> = interested[..chosen].iter().copied().collect();
        let probes = self.probes;
        let my_id = self.id;
        for n in self.neighbors.iter_mut() {
            let id = n.id();
            let want_open = unchoked.contains(&id);
            if want_open != n.we_choke_them {
                continue;
            }
            n.we_choke_them = !want_open;
            if want_open {
                if let Some(pr) = probes {
                    pr.unchoke_tx.inc();
                    let mut ev = pr.conn(tick, my_id, id, ConnPhase::Unchoke);
                    ev.dir = Some(Dir::Tx);
                    ev.emit();
                }
                out.push((id, Message::Unchoke));
            } else {
                n.their_request = NO_PIECE;
                if let Some(pr) = probes {
                    pr.choke_tx.inc();
                    let mut ev = pr.conn(tick, my_id, id, ConnPhase::Choke);
                    ev.dir = Some(Dir::Tx);
                    ev.emit();
                }
                out.push((id, Message::Choke));
            }
        }
    }

    /// Issue one outstanding request per unchoking neighbor, preferring
    /// partial pieces then rarest-first over this peer's local view —
    /// the same selection the sim makes, via the same policy functions.
    fn request_pieces(&mut self, tick: u64, out: &mut Vec<(usize, Message)>) {
        // Local replication view: how many neighbors hold each piece.
        let mut counts = vec![0u32; self.params.num_pieces];
        for n in self.neighbors.iter() {
            for p in n.bitfield.ones() {
                counts[p] += 1;
            }
        }
        let mut in_flight: BTreeSet<usize> = self
            .neighbors
            .iter()
            .filter(|n| n.our_request != NO_PIECE)
            .map(|n| n.our_request as usize)
            .collect();
        for (n, mut obs) in self.neighbors.iter_mut_with_obs() {
            let id = n.id();
            // Expire a stalled request so the piece can be re-sourced —
            // and snub the silent neighbor (treat it as choking us) so
            // the freed piece is requested from someone alive instead of
            // bouncing back to a dead endpoint forever. An `Unchoke`
            // from the neighbor revives it.
            let p = n.our_request;
            if p != NO_PIECE && tick.saturating_sub(n.request_stamp) >= REQUEST_TIMEOUT {
                n.our_request = NO_PIECE;
                n.they_choke_us = true;
                in_flight.remove(&(p as usize));
                if let (Some(pr), Some(o)) = (self.probes, obs.as_deref_mut()) {
                    o.snubbed = true;
                    pr.snubs.inc();
                    pr.req_cancelled.inc();
                    let mut ev = pr.conn(tick, self.id, id, ConnPhase::Snub);
                    ev.piece = Some(p as u64);
                    ev.emit();
                    let mut rq = pr.req(tick, self.id, id, p, ReqPhase::Cancel);
                    rq.reason = Some("timeout".into());
                    rq.emit();
                }
                out.push((id, Message::Cancel { piece: p }));
            }
            if !n.we_interested || n.they_choke_us || n.our_request != NO_PIECE {
                continue;
            }
            // Want-list via the word-level AND-NOT kernel (ascending
            // piece order, identical to the old ones()+has() filter).
            let free: Vec<usize> = self
                .bitfield
                .missing_from(&n.bitfield)
                .filter(|&p| !in_flight.contains(&p))
                .collect();
            if free.is_empty() {
                continue;
            }
            let progress = &self.progress;
            let pick = match policy::most_complete_partial(&free, |p| progress[p]) {
                Some(p) => Some(p),
                None => policy::rarest_first(&free, |p| counts[p], &mut self.rng),
            };
            if let Some(p) = pick {
                in_flight.insert(p);
                n.our_request = p as u32;
                n.request_stamp = tick;
                if let (Some(pr), Some(o)) = (self.probes, obs) {
                    o.requested_at = tick;
                    pr.req_sent.inc();
                    pr.req(tick, self.id, id, p as u32, ReqPhase::Tx).emit();
                }
                out.push((id, Message::Request { piece: p as u32 }));
            }
        }
    }

    /// Split this tick's upload capacity evenly across neighbors with an
    /// open request — the per-second capacity sharing of the sim's
    /// transfer round, expressed as `Piece` frames.
    fn serve_requests(&mut self, tick: u64, out: &mut Vec<(usize, Message)>) {
        let active: Vec<(usize, u32)> = self
            .neighbors
            .iter()
            .filter(|n| !n.we_choke_them && n.their_request != NO_PIECE)
            .map(|n| (n.id(), n.their_request))
            .collect();
        if active.is_empty() || self.upload_cap <= 0.0 {
            return;
        }
        let share = self.upload_cap / active.len() as f64;
        let my_id = self.id;
        for (id, piece) in active {
            if let Some(pr) = self.probes {
                let (_, obs) = self
                    .neighbors
                    .get_mut_with_obs(id)
                    .expect("active ids come from the table");
                let o = obs.expect("probes keep the side table");
                if !o.serve_logged {
                    // First frame of a service episode: one serve event
                    // per request, however many ticks the stream takes.
                    o.serve_logged = true;
                    pr.pieces_served.inc();
                    XferEvent {
                        run: pr.run,
                        tick,
                        local: my_id as u64,
                        remote: id as u64,
                        piece: piece as u64,
                        phase: XferPhase::Serve,
                        kb: None,
                        latency_ticks: None,
                    }
                    .emit();
                }
                let c = *o
                    .bytes_out
                    .get_or_insert_with(|| pr.bytes_out.with_name(&format!("{my_id}->{id}")));
                c.add(kb_to_bytes(share));
            }
            out.push((
                id,
                Message::Piece {
                    piece,
                    bytes: share,
                },
            ));
        }
    }

    /// Process one inbound message.
    fn handle(&mut self, from: usize, msg: &Message, tick: u64, out: &mut Vec<(usize, Message)>) {
        let probes = self.probes;
        let my_id = self.id;
        match msg {
            Message::Handshake { pieces, .. } => {
                if *pieces as usize != self.params.num_pieces {
                    if let Some(pr) = probes {
                        pr.conn_refused.inc();
                        pr.conn(tick, my_id, from, ConnPhase::Refused).emit();
                    }
                    return;
                }
                if self.neighbors.contains(from) {
                    // Reply leg of a handshake we initiated (or a
                    // simultaneous open): the connection is now paired
                    // on this side, no frames owed.
                    if let Some(pr) = probes {
                        pr.conn(tick, my_id, from, ConnPhase::Handshake).emit();
                    }
                } else if let Some(id) = self.room_for(from as u64) {
                    self.neighbors
                        .insert(Neighbor::new(id, self.params.num_pieces), probes.is_some());
                    if let Some(pr) = probes {
                        pr.conn_accepted.inc();
                        pr.conn(tick, my_id, from, ConnPhase::Handshake).emit();
                    }
                    out.push((
                        from,
                        Message::Handshake {
                            peer: self.id as u64,
                            pieces: *pieces,
                        },
                    ));
                    out.push((from, Message::Bitfield(self.bitfield.clone())));
                } else if let Some(pr) = probes {
                    // Neighbor table full (or an id no table holds).
                    pr.conn_refused.inc();
                    pr.conn(tick, my_id, from, ConnPhase::Refused).emit();
                }
            }
            Message::Bitfield(bf) => {
                if bf.len() != self.params.num_pieces {
                    return;
                }
                let Some(n) = self.neighbors.get_mut(from) else {
                    return;
                };
                n.bitfield = bf.clone();
                self.update_interest(from, out);
            }
            Message::Have { piece } => {
                let Some(n) = self.neighbors.get_mut(from) else {
                    return;
                };
                if (*piece as usize) < self.params.num_pieces {
                    n.bitfield.set(*piece as usize);
                    self.update_interest(from, out);
                }
            }
            Message::Interested => {
                if let Some(n) = self.neighbors.get_mut(from) {
                    n.they_interested = true;
                }
            }
            Message::NotInterested => {
                if let Some(n) = self.neighbors.get_mut(from) {
                    n.they_interested = false;
                    n.their_request = NO_PIECE;
                }
            }
            Message::Choke | Message::Close => {
                let close = matches!(msg, Message::Close);
                if let Some(n) = self.neighbors.get_mut(from) {
                    if let Some(pr) = probes {
                        let phase = if close {
                            ConnPhase::Close
                        } else {
                            ConnPhase::Choke
                        };
                        let mut ev = pr.conn(tick, my_id, from, phase);
                        ev.dir = Some(Dir::Rx);
                        ev.emit();
                        if n.our_request != NO_PIECE {
                            // Our outstanding request dies with the
                            // choke — log the resolution before the
                            // state is cleared below.
                            pr.req_choked.inc();
                            pr.req(tick, my_id, from, n.our_request, ReqPhase::Choked)
                                .emit();
                        }
                    }
                    n.they_choke_us = true;
                    n.our_request = NO_PIECE;
                }
                if close {
                    // The neighbor is gone for good: its slot goes back
                    // for the next handshake.
                    self.neighbors.remove(from);
                }
            }
            Message::Unchoke => {
                if let Some((n, obs)) = self.neighbors.get_mut_with_obs(from) {
                    n.they_choke_us = false;
                    if let (Some(pr), Some(o)) = (probes, obs) {
                        let mut ev = pr.conn(tick, my_id, from, ConnPhase::Unchoke);
                        ev.dir = Some(Dir::Rx);
                        ev.emit();
                        if o.snubbed {
                            // Liveness proven: the snub episode ends here.
                            o.snubbed = false;
                            pr.rejoins.inc();
                            pr.conn(tick, my_id, from, ConnPhase::Rejoin).emit();
                        }
                    }
                }
            }
            Message::Request { piece } => {
                let p = *piece as usize;
                if p >= self.params.num_pieces || !self.bitfield.has(p) {
                    return;
                }
                if let Some((n, obs)) = self.neighbors.get_mut_with_obs(from) {
                    n.their_request = *piece;
                    if let (Some(pr), Some(o)) = (probes, obs) {
                        o.serve_logged = false;
                        pr.req_received.inc();
                        pr.req(tick, my_id, from, *piece, ReqPhase::Rx).emit();
                    }
                }
            }
            Message::Piece { piece, bytes } => {
                self.receive_piece(from, *piece, *bytes, tick, out);
            }
            Message::Cancel { piece } => {
                if let Some(n) = self.neighbors.get_mut(from) {
                    if n.their_request == *piece {
                        n.their_request = NO_PIECE;
                    }
                }
            }
            Message::AnnounceResponse { peers } | Message::PexPeers { peers } => {
                for &p in peers {
                    self.connect(p, tick, out);
                }
            }
            Message::PexRequest => {
                let ids: Vec<usize> = self.neighbors.ids().collect();
                let peers = pex::share_list(&ids, from, &mut self.rng);
                if let Some(pr) = probes {
                    pr.pex_replies.inc();
                }
                out.push((from, Message::PexPeers { peers }));
            }
            // Tracker-bound traffic and scrape responses are not for
            // peers; ignore rather than error (hostile tolerance).
            Message::Announce { .. } | Message::Scrape | Message::ScrapeResponse { .. } => {}
        }
    }

    /// `pid` as a neighbor id, if it fits `u32` and the table has room.
    fn room_for(&self, pid: u64) -> Option<u32> {
        let id = u32::try_from(pid).ok()?;
        (self.neighbors.len() < self.params.max_neighbors).then_some(id)
    }

    /// Open a connection to `pid` if it is new and there is table room.
    /// A peer list can carry any `u64`; one that does not fit `u32`
    /// names no endpoint, and is ignored.
    fn connect(&mut self, pid: u64, tick: u64, out: &mut Vec<(usize, Message)>) {
        let Some(id) = self.room_for(pid) else {
            return;
        };
        let pid = id as usize;
        if pid == self.id || pid == TRACKER || self.neighbors.contains(pid) {
            return;
        }
        self.neighbors.insert(
            Neighbor::new(id, self.params.num_pieces),
            self.probes.is_some(),
        );
        if let Some(pr) = self.probes {
            pr.conn_opened.inc();
            pr.conn(tick, self.id, pid, ConnPhase::Open).emit();
        }
        out.push((
            pid,
            Message::Handshake {
                peer: self.id as u64,
                pieces: self.params.num_pieces as u32,
            },
        ));
        out.push((pid, Message::Bitfield(self.bitfield.clone())));
    }

    /// Recompute our interest in `from` and emit the delta if it flipped.
    fn update_interest(&mut self, from: usize, out: &mut Vec<(usize, Message)>) {
        let Some(n) = self.neighbors.get_mut(from) else {
            return;
        };
        let now = !self.is_publisher
            && !self.bitfield.is_complete()
            && self.bitfield.interested_in(&n.bitfield);
        if now != n.we_interested {
            n.we_interested = now;
            out.push((
                from,
                if now {
                    Message::Interested
                } else {
                    Message::NotInterested
                },
            ));
        }
    }

    /// Account an inbound data frame against the download cap and piece
    /// remainder; completing a piece broadcasts `Have`, cancels rival
    /// requests, and may complete (and depart) the peer.
    fn receive_piece(
        &mut self,
        from: usize,
        piece: u32,
        bytes: f64,
        tick: u64,
        out: &mut Vec<(usize, Message)>,
    ) {
        let p = piece as usize;
        if self.is_publisher || p >= self.params.num_pieces || self.bitfield.has(p) {
            return;
        }
        let budget = (self.download_cap - self.received_this_tick).max(0.0);
        let room = self.params.piece_size - self.progress[p];
        let take = bytes.min(budget).min(room);
        if take <= 0.0 {
            return;
        }
        let probes = self.probes;
        let my_id = self.id;
        self.progress[p] += take;
        self.received_this_tick += take;
        self.bytes_received += take;
        if let Some((n, obs)) = self.neighbors.get_mut_with_obs(from) {
            n.recv_window += take;
            if let (Some(pr), Some(o)) = (probes, obs) {
                let c = *o
                    .bytes_in
                    .get_or_insert_with(|| pr.bytes_in.with_name(&format!("{from}->{my_id}")));
                c.add(kb_to_bytes(take));
            }
            if n.our_request == piece {
                // Data is flowing: refresh the timeout stamp.
                n.request_stamp = tick;
            }
        }
        if self.progress[p] < self.params.piece_size - 1e-9 {
            return;
        }
        self.progress[p] = self.params.piece_size;
        self.bitfield.set(p);
        if let Some(pr) = probes {
            // Latency is attributable only when the final bytes came
            // from the neighbor we had the request open at.
            let latency = match self.neighbors.get_with_obs(from) {
                Some((n, Some(o))) if n.our_request == piece => {
                    Some(tick.saturating_sub(o.requested_at))
                }
                _ => None,
            };
            pr.pieces_completed.inc();
            if let Some(l) = latency {
                pr.req_latency.record(l);
            }
            XferEvent {
                run: pr.run,
                tick,
                local: my_id as u64,
                remote: from as u64,
                piece: p as u64,
                phase: XferPhase::Done,
                kb: Some(self.params.piece_size),
                latency_ticks: latency,
            }
            .emit();
        }
        for n in self.neighbors.iter_mut() {
            let id = n.id();
            if n.our_request == piece {
                // Cancel everyone, the server of the final bytes
                // included — otherwise it keeps streaming a piece we
                // already hold until its next rechoke.
                n.our_request = NO_PIECE;
                if let Some(pr) = probes {
                    pr.req_cancelled.inc();
                    let mut rq = pr.req(tick, my_id, id, piece, ReqPhase::Cancel);
                    rq.reason = Some("done".into());
                    rq.emit();
                }
                out.push((id, Message::Cancel { piece }));
            }
            out.push((id, Message::Have { piece }));
        }
        let ids: Vec<usize> = self.neighbors.ids().collect();
        for id in ids {
            self.update_interest(id, out);
        }
        if self.bitfield.is_complete() {
            self.complete(tick, out);
        }
    }

    /// Completion in a linger-free swarm: tell the tracker, leave —
    /// and send every neighbor a `Close` on the way out. A `Close` clears
    /// the receiver's request state as a `Choke` would, so nobody waits
    /// out a request timeout on a peer that no longer exists, and then
    /// frees the receiver's table slot, so a departed peer neither takes
    /// room a live one could use nor keeps drawing frames.
    ///
    /// A departed peer keeps only what the host and the aggregator read:
    /// its flags, arrival and completion ticks, counters and bitfield.
    /// Its neighbor table and per-piece progress are freed, so the heap
    /// follows the live swarm rather than every peer that ever arrived.
    fn complete(&mut self, tick: u64, out: &mut Vec<(usize, Message)>) {
        self.completed = Some(tick + 1);
        for id in self.neighbors.ids() {
            if let Some(pr) = self.probes {
                pr.conn_closed.inc();
                let mut ev = pr.conn(tick, self.id, id, ConnPhase::Close);
                ev.dir = Some(Dir::Tx);
                ev.emit();
            }
            out.push((id, Message::Close));
        }
        out.push((
            TRACKER,
            Message::Announce {
                peer: self.id as u64,
                left: 0.0,
                event: EVENT_COMPLETED,
            },
        ));
        out.push((
            TRACKER,
            Message::Announce {
                peer: self.id as u64,
                left: 0.0,
                event: EVENT_STOPPED,
            },
        ));
        self.departed = true;
        self.online = false;
        self.neighbors = NeighborTable::default();
        self.progress = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn params(pieces: usize) -> PeerParams {
        PeerParams {
            num_pieces: pieces,
            piece_size: 100.0,
            unchoke_slots: 4,
            optimistic_slots: 1,
            rechoke_interval: 10,
            pex_interval: 0,
            max_neighbors: 40,
            run: 0,
        }
    }

    fn rng(id: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(id)
    }

    fn step1(
        core: &mut PeerCore,
        tick: u64,
        inbox: Vec<(usize, Message)>,
    ) -> Vec<(usize, Message)> {
        let mut out = Vec::new();
        core.step(tick, inbox, &mut out);
        out
    }

    #[test]
    fn neighbor_table_agrees_with_a_btreemap() {
        use rand::Rng;
        use std::collections::btree_map::{BTreeMap, Entry};
        let mut r = rng(9);
        for observed in [false, true] {
            let mut table = NeighborTable::default();
            let mut map = BTreeMap::new();
            for step in 0..4_000u64 {
                let id = r.gen_range(0..300u32);
                let key = id as usize;
                if r.gen_bool(0.4) {
                    if let Entry::Vacant(slot) = map.entry(key) {
                        let mut n = Neighbor::new(id, 8);
                        n.request_stamp = step;
                        let o = NeighborObs {
                            requested_at: step,
                            ..NeighborObs::default()
                        };
                        table.insert(n.clone(), observed);
                        if let Some((_, Some(t))) = table.get_mut_with_obs(key) {
                            *t = o.clone();
                        }
                        slot.insert((n, observed.then_some(o)));
                    }
                } else if r.gen_bool(0.2) {
                    table.remove(key);
                    map.remove(&key);
                } else {
                    assert_eq!(table.contains(key), map.contains_key(&key), "id {id}");
                    let got = table.get_with_obs(key).map(|e| format!("{e:?}"));
                    let want = map.get(&key).map(|(n, o)| format!("{:?}", (n, o.as_ref())));
                    assert_eq!(got, want, "id {id}");
                    if let (Some((a, ao)), Some((b, bo))) =
                        (table.get_mut_with_obs(key), map.get_mut(&key))
                    {
                        a.recv_window += step as f64;
                        b.recv_window += step as f64;
                        if let (Some(ao), Some(bo)) = (ao, bo) {
                            ao.serve_logged = !ao.serve_logged;
                            bo.serve_logged = !bo.serve_logged;
                        }
                    }
                }
                let len = map.len();
                assert_eq!(table.len(), len);
                assert_eq!(table.capacity(), len, "the table holds exactly its entries");
                let obs = if observed { len } else { 0 };
                assert_eq!(table.obs_len_and_capacity(), (obs, obs));
            }
            assert!(table.len() > 200, "the sequence fills most of the id range");
            let got: Vec<String> = table
                .iter_mut_with_obs()
                .map(|e| format!("{e:?}"))
                .collect();
            let want: Vec<String> = map
                .values_mut()
                .map(|(n, o)| format!("{:?}", (n, o.as_mut())))
                .collect();
            assert_eq!(got, want, "same entries in the same order");
            assert!(table.ids().eq(map.keys().copied()));
        }
    }

    #[test]
    fn connect_ignores_a_peer_id_that_does_not_fit_u32() {
        let mut c = PeerCore::leecher(2, 0, 50.0, 1000.0, params(4), rng(2));
        c.online = true;
        let mut out = Vec::new();
        let big = u64::from(u32::MAX) + 1;
        for peers in [vec![big, u64::MAX, 3], vec![big + 3]] {
            c.handle(
                TRACKER,
                &Message::AnnounceResponse {
                    peers: peers.clone(),
                },
                0,
                &mut out,
            );
            c.handle(7, &Message::PexPeers { peers }, 0, &mut out);
        }
        assert_eq!(c.neighbors.ids().collect::<Vec<_>>(), vec![3]);
        assert!(
            out.iter().all(|&(to, _)| to == 3),
            "frames only to 3: {out:?}"
        );
        // A handshake from a host-assigned id beyond `u32` is refused.
        out.clear();
        let far = usize::try_from(big).expect("64-bit usize");
        c.handle(
            far,
            &Message::Handshake {
                peer: big,
                pieces: 4,
            },
            0,
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(c.neighbor_count(), 1);
    }

    #[test]
    fn leecher_activates_and_announces_on_arrival() {
        let mut c = PeerCore::leecher(2, 5, 50.0, 1000.0, params(4), rng(2));
        assert!(step1(&mut c, 4, vec![]).is_empty());
        assert!(!c.online);
        let out = step1(&mut c, 5, vec![]);
        assert!(c.online);
        assert!(matches!(
            out[0],
            (
                TRACKER,
                Message::Announce {
                    peer: 2,
                    event: EVENT_STARTED,
                    ..
                }
            )
        ));
    }

    #[test]
    fn handshake_builds_a_symmetric_neighborhood() {
        let mut a = PeerCore::leecher(2, 0, 50.0, 1000.0, params(4), rng(2));
        let mut b = PeerCore::leecher(3, 0, 50.0, 1000.0, params(4), rng(3));
        a.online = true;
        b.online = true;
        let mut out = Vec::new();
        // a learns of b (as if from the tracker) and connects.
        a.handle(
            TRACKER,
            &Message::AnnounceResponse { peers: vec![3] },
            0,
            &mut out,
        );
        assert_eq!(a.neighbor_count(), 1);
        // Deliver a's frames to b; b replies with its own handshake.
        let to_b: Vec<(usize, Message)> = out.drain(..).map(|(_, m)| (2, m)).collect();
        let mut reply = Vec::new();
        for (from, m) in to_b {
            b.handle(from, &m, 0, &mut reply);
        }
        assert_eq!(b.neighbor_count(), 1);
        assert!(reply
            .iter()
            .any(|(_, m)| matches!(m, Message::Handshake { peer: 3, .. })));
        assert!(reply.iter().any(|(_, m)| matches!(m, Message::Bitfield(_))));
    }

    #[test]
    fn interest_tracks_the_neighbor_bitfield() {
        let mut c = PeerCore::leecher(2, 0, 50.0, 1000.0, params(4), rng(2));
        c.online = true;
        let mut out = Vec::new();
        c.handle(3, &Message::Handshake { peer: 3, pieces: 4 }, 0, &mut out);
        out.clear();
        c.handle(3, &Message::Have { piece: 1 }, 0, &mut out);
        assert_eq!(out, vec![(3, Message::Interested)]);
        // Once we hold that piece ourselves, interest drops.
        c.bitfield.set(1);
        out.clear();
        c.handle(3, &Message::Bitfield(Bitfield::new(4)), 0, &mut out);
        // Empty bitfield: nothing to want.
        assert_eq!(out, vec![(3, Message::NotInterested)]);
    }

    #[test]
    fn download_cap_limits_intake_per_tick() {
        let mut c = PeerCore::leecher(2, 0, 50.0, 30.0, params(2), rng(2));
        c.online = true;
        let mut out = Vec::new();
        c.handle(3, &Message::Handshake { peer: 3, pieces: 2 }, 0, &mut out);
        c.handle(
            3,
            &Message::Piece {
                piece: 0,
                bytes: 100.0,
            },
            0,
            &mut out,
        );
        assert!((c.bytes_received - 30.0).abs() < 1e-12, "cap applies");
        // Next tick the budget resets.
        let _ = step1(
            &mut c,
            1,
            vec![(
                3,
                Message::Piece {
                    piece: 0,
                    bytes: 100.0,
                },
            )],
        );
        assert!((c.bytes_received - 60.0).abs() < 1e-12);
    }

    #[test]
    fn completing_the_last_piece_departs_and_notifies() {
        let mut c = PeerCore::leecher(2, 0, 50.0, 1000.0, params(1), rng(2));
        c.online = true;
        let mut out = Vec::new();
        c.handle(3, &Message::Handshake { peer: 3, pieces: 1 }, 0, &mut out);
        out.clear();
        c.handle(
            3,
            &Message::Piece {
                piece: 0,
                bytes: 100.0,
            },
            7,
            &mut out,
        );
        assert_eq!(
            c.completed,
            Some(8),
            "done_at = tick + 1, the sim's convention"
        );
        assert!(c.departed && !c.online);
        assert!(out.iter().any(|(to, m)| *to == TRACKER
            && matches!(
                m,
                Message::Announce {
                    event: EVENT_COMPLETED,
                    ..
                }
            )));
        assert!(out.iter().any(|(to, m)| *to == TRACKER
            && matches!(
                m,
                Message::Announce {
                    event: EVENT_STOPPED,
                    ..
                }
            )));
        assert!(out
            .iter()
            .any(|(to, m)| *to == 3 && matches!(m, Message::Have { piece: 0 })));
        assert!(out.contains(&(3, Message::Close)), "the neighbor is told");
        assert!(!out.contains(&(3, Message::Choke)));
    }

    fn handshake(id: usize, pieces: u32) -> (usize, Message) {
        (
            id,
            Message::Handshake {
                peer: id as u64,
                pieces,
            },
        )
    }

    #[test]
    fn a_close_frees_the_slot_and_the_request_on_it() {
        let one_slot = PeerParams {
            max_neighbors: 1,
            ..params(1)
        };
        let mut c = PeerCore::leecher(2, 0, 50.0, 1000.0, one_slot, rng(2));
        c.online = true;
        let full = || Message::Bitfield(Bitfield::full(1));
        let out = step1(
            &mut c,
            0,
            vec![
                handshake(3, 1),
                (3, full()),
                (3, Message::Unchoke),
                handshake(4, 1),
            ],
        );
        assert!(out.contains(&(3, Message::Request { piece: 0 })));
        assert!(out.iter().all(|(to, _)| *to != 4), "full table: 4 refused");
        // 3 leaves: its slot goes back, and so does the request on it, so
        // 4 gets in and the piece is asked of 4 at once.
        let out = step1(
            &mut c,
            1,
            vec![
                (3, Message::Close),
                handshake(4, 1),
                (4, full()),
                (4, Message::Unchoke),
            ],
        );
        assert_eq!(c.neighbors.ids().collect::<Vec<_>>(), vec![4]);
        assert_eq!(c.neighbors.capacity(), 1, "the slot was given back");
        assert!(out.contains(&(4, Message::Request { piece: 0 })));
        assert!(out.iter().all(|(to, _)| *to != 3), "nothing more for 3");
    }

    #[test]
    fn an_offline_peer_applies_closes_and_drops_the_rest() {
        let mut p = PeerCore::publisher(1, 200.0, params(2), rng(1));
        p.set_online(true);
        step1(&mut p, 0, vec![handshake(2, 2), handshake(3, 2)]);
        assert_eq!(p.neighbor_count(), 2);
        // Between on-phases: 2 leaves, and 3 asks for data.
        p.set_online(false);
        let out = step1(
            &mut p,
            1,
            vec![
                (2, Message::Close),
                (3, Message::Interested),
                (3, Message::Request { piece: 0 }),
            ],
        );
        assert!(out.is_empty(), "an offline peer sends nothing");
        assert_eq!(p.neighbors.ids().collect::<Vec<_>>(), vec![3]);
        assert_eq!(p.neighbors.capacity(), 1, "the slot was given back");
        assert!(!p.neighbors.get(3).unwrap().they_interested, "dropped");
        assert_eq!(p.messages_handled, 3, "two handshakes and the close");
    }

    #[test]
    fn an_out_of_range_request_is_ignored() {
        let mut p = PeerCore::publisher(1, 200.0, params(4), rng(1));
        p.set_online(true);
        step1(&mut p, 0, vec![handshake(2, 4), (2, Message::Interested)]);
        let out = step1(&mut p, 1, vec![(2, Message::Request { piece: 99 })]);
        assert!(
            !out.iter().any(|(_, m)| matches!(m, Message::Piece { .. })),
            "nothing is served: {out:?}"
        );
        assert_eq!(p.neighbors.get(2).unwrap().their_request, NO_PIECE);
    }

    #[test]
    fn publisher_serves_but_never_requests() {
        let mut p = PeerCore::publisher(1, 200.0, params(2), rng(1));
        p.set_online(true);
        let mut inbox = Vec::new();
        let mut out = Vec::new();
        p.handle(2, &Message::Handshake { peer: 2, pieces: 2 }, 0, &mut out);
        p.handle(2, &Message::Interested, 0, &mut out);
        inbox.push((2usize, Message::Request { piece: 0 }));
        // tick 0 rechoke unchokes the single interested neighbor, then the
        // request is served with the full upload capacity.
        let out = step1(&mut p, 0, inbox);
        assert!(out
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, Message::Unchoke)));
        assert!(!out
            .iter()
            .any(|(_, m)| matches!(m, Message::Request { .. })));
        // Request arrives before the rechoke in the same tick, so service
        // starts this very tick.
        let served = out
            .iter()
            .any(|(to, m)| *to == 2 && matches!(m, Message::Piece { piece: 0, .. }));
        assert!(served);
    }

    #[test]
    fn stalled_requests_expire_and_are_cancelled() {
        let mut c = PeerCore::leecher(2, 0, 50.0, 1000.0, params(4), rng(2));
        c.online = true;
        let mut out = Vec::new();
        c.handle(3, &Message::Handshake { peer: 3, pieces: 4 }, 0, &mut out);
        c.handle(3, &Message::Bitfield(Bitfield::full(4)), 0, &mut out);
        c.handle(3, &Message::Unchoke, 0, &mut out);
        let out = step1(&mut c, 1, vec![]);
        let Some((_, Message::Request { piece })) = out
            .iter()
            .find(|(_, m)| matches!(m, Message::Request { .. }))
        else {
            panic!("expected a request");
        };
        let stalled_piece = *piece;
        // No data ever arrives; at +REQUEST_TIMEOUT the request expires
        // and the silent neighbor is snubbed — no immediate re-request
        // at a peer that looks dead.
        let out = step1(&mut c, 1 + REQUEST_TIMEOUT, vec![]);
        assert!(out.iter().any(|(to, m)| *to == 3
            && *m
                == Message::Cancel {
                    piece: stalled_piece
                }));
        assert!(!out
            .iter()
            .any(|(_, m)| matches!(m, Message::Request { .. })));
        // An Unchoke proves liveness and revives the neighbor as a
        // request target.
        let out = step1(&mut c, 2 + REQUEST_TIMEOUT, vec![(3, Message::Unchoke)]);
        assert!(out
            .iter()
            .any(|(_, m)| matches!(m, Message::Request { .. })));
    }
}
