//! The block-level tick engine.
//!
//! Time advances in one-second ticks (the paper's instrumented client
//! logs per second). Each tick: publisher transitions, Poisson arrivals,
//! neighbor discovery (tracker + PEX), an unchoke/transfer round, piece
//! and content completions, linger expiry, and an availability check
//! (publisher online, or every piece present in the union of online
//! bitfields).
//!
//! The transfer round is a compact rendition of mainline BitTorrent:
//! uploaders rank interested neighbors by reciprocation (bytes received
//! from them on the previous tick), unchoke the top `unchoke_slots` plus
//! `optimistic_slots` random ones, and split capacity evenly; downloaders
//! pick pieces by strict priority (finish partial pieces first) then
//! rarest-first by global replication count.
//!
//! Piece replication is tracked *incrementally* by `ReplicationIndex`:
//! instead of recomputing a bitfield union (plus, under timelines, an
//! O(peers × pieces) holder scan) every tick, the engine updates per-piece
//! holder counts on the only events that change them — piece completions
//! and peer departures. The availability check, the rarest-first policy
//! and every timeline curve read the index in O(1) per value. Per-tick
//! temporaries live in scratch buffers owned by the engine, so once they
//! are warm a tick allocates only where a peer's own lists change size: a
//! new connection row or open partial piece past the list's capacity, or
//! a list left at most a quarter full giving capacity back.
//!
//! Partial-piece progress is kept per open partial, not per piece: a
//! downloader lists the `(piece, bytes)` of the pieces it has started and
//! not finished, and each connection's request names its piece by slot
//! in that list. A blocked leecher of a K-file bundle therefore costs a
//! few dozen entries, not a row of `num_pieces` cells, nor the capacity
//! its lists had at their busiest.
//!
//! This is the repo's stand-in for the paper's PlanetLab testbed: it
//! reproduces the protocol-level phenomena of §4 — blocked leechers,
//! flash departures when an intermittent publisher returns, and the
//! self-sustaining transition as the bundle size K grows.

use crate::bitfield::{self, BitArena};
use crate::config::{BtConfig, BtPublisher, PieceSelection};
use crate::metrics::{BtResult, PeerSpan};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicU64, Ordering};

const PUBLISHER: usize = 0;
/// Peers below this many neighbors re-query the tracker on re-announce.
// (file-completion tracking lives on PeerSpan; see metrics.rs)
const MIN_NEIGHBORS: usize = 5;
/// Ticks between tracker re-announces.
const REANNOUNCE_INTERVAL: u64 = 30;
/// Neighbors shared per PEX gossip exchange.
const PEX_SHARE: usize = 5;
/// Window (ticks) for the flash-departure statistic.
const FLASH_WINDOW: u64 = 5;
/// Ticks a per-connection piece request survives without receiving data
/// before it times out and the piece becomes fetchable elsewhere.
const REQUEST_TIMEOUT: u64 = 60;
/// Tick-duration sampling stride: with telemetry on, one tick in this
/// many gets an `Instant` pair around it. Sampling keeps the clock-read
/// cost off the common tick (a tick is ~5-10 µs; two clock reads are
/// ~100 ns, so 1-in-16 sampling holds the timing overhead under 0.2%).
const TICK_SAMPLE: u64 = 16;
/// Gauge-timeline event stride: with telemetry on, one tick in this
/// many emits a `bt.tick` sink event (online/blocked/coverage gauges
/// plus the run ordinal) for offline timeline reconstruction by
/// `swarm-trace`. An event costs ~1 µs (ring lock + field clones), so a
/// 64-tick stride keeps the emission overhead well under 0.1%.
const TICK_EVENT_SAMPLE: u64 = 64;
/// Time-series window width in virtual ticks: the engine flushes one
/// `swarm_obs::timeseries` window per this many ticks (aligned with
/// `TICK_EVENT_SAMPLE` so the sparse event stream and the windowed
/// series share boundaries). Fast-forwarded spans flush the same
/// windows analytically, so elided and dense runs produce identical
/// series.
const TS_WINDOW: u64 = 64;
/// In-memory window bound for the engine's recorder; beyond
/// `TS_CAPACITY * TS_WINDOW` ticks the series downsamples by powers of
/// two instead of growing.
const TS_CAPACITY: usize = 512;

/// Process-wide engine-run ordinal. Telemetry events from concurrent
/// replications interleave in the flight recorder; tagging every
/// engine-scoped event with its run ordinal lets offline analysis
/// reassemble per-run streams. Monotonic, never reused; 0 means
/// "recording was off".
static RUN_SEQ: AtomicU64 = AtomicU64::new(1);

/// Cached `swarm-obs` handles for the engine's probes, resolved once at
/// engine construction *iff* recording is enabled — so the per-tick cost
/// while disabled is a single `Option` check, and while enabled it is a
/// handful of relaxed atomic stores. None of this touches the RNG: the
/// instrumented engine is tick-for-tick identical to the bare one (the
/// golden-trace test runs with probes live).
struct BtProbes {
    ticks: &'static swarm_obs::Counter,
    bytes: &'static swarm_obs::Counter,
    arrivals: &'static swarm_obs::Counter,
    completions: &'static swarm_obs::Counter,
    rechokes: &'static swarm_obs::Counter,
    unchoke_churn: &'static swarm_obs::Counter,
    blocked_ticks: &'static swarm_obs::Counter,
    avail_transitions: &'static swarm_obs::Counter,
    ticks_elided: &'static swarm_obs::Counter,
    ff_jumps: &'static swarm_obs::Counter,
    online: &'static swarm_obs::Gauge,
    blocked: &'static swarm_obs::Gauge,
    covered: &'static swarm_obs::Gauge,
    min_rep: &'static swarm_obs::Gauge,
    unchoke_pairs: &'static swarm_obs::Gauge,
    tick_ns: &'static swarm_obs::Histogram,
}

impl BtProbes {
    fn get() -> Option<BtProbes> {
        if !swarm_obs::enabled() {
            return None;
        }
        Some(BtProbes {
            ticks: swarm_obs::counter("bt.ticks"),
            bytes: swarm_obs::counter("bt.bytes_moved"),
            arrivals: swarm_obs::counter("bt.arrivals"),
            completions: swarm_obs::counter("bt.completions"),
            rechokes: swarm_obs::counter("bt.rechoke.count"),
            unchoke_churn: swarm_obs::counter("bt.rechoke.churn"),
            blocked_ticks: swarm_obs::counter("bt.leechers.blocked_ticks"),
            avail_transitions: swarm_obs::counter("bt.availability.transitions"),
            ticks_elided: swarm_obs::counter("bt.ticks_elided"),
            ff_jumps: swarm_obs::counter("bt.fastforward.jumps"),
            online: swarm_obs::gauge("bt.peers.online"),
            blocked: swarm_obs::gauge("bt.leechers.blocked"),
            covered: swarm_obs::gauge("bt.pieces.covered"),
            min_rep: swarm_obs::gauge("bt.pieces.min_replication"),
            unchoke_pairs: swarm_obs::gauge("bt.unchoke.pairs"),
            tick_ns: swarm_obs::histogram("bt.tick_ns"),
        })
    }
}

/// Window-boundary accumulator feeding the `"bt"` time series: counter
/// deltas gather in plain fields and flush into the recorder once per
/// [`TS_WINDOW`] ticks, so the per-tick cost is a few integer adds.
/// Allocated only while probes are, and fed by `account` beside them.
/// Everything recorded here is virtual-tick-keyed and deterministic: the
/// dense-vs-fast-forward test diffs the series byte for byte.
struct TsAcc {
    rec: swarm_obs::Recorder,
    /// First tick of the *next* window (current window is
    /// `[next_boundary - TS_WINDOW, next_boundary)`).
    next_boundary: u64,
    win_ticks: u64,
    win_arrivals: u64,
    win_completions: u64,
    win_available: u64,
    win_blocked: u64,
    win_bytes: u64,
}

impl TsAcc {
    fn new() -> TsAcc {
        TsAcc {
            rec: swarm_obs::Recorder::with_capacity(TS_WINDOW, TS_CAPACITY),
            next_boundary: TS_WINDOW,
            win_ticks: 0,
            win_arrivals: 0,
            win_completions: 0,
            win_available: 0,
            win_blocked: 0,
            win_bytes: 0,
        }
    }

    /// Flush the current window into the recorder (skipped when no tick
    /// landed in it) and advance to the next one. Zero-valued counters
    /// are dropped by the recorder itself, so a fully idle window
    /// serializes as an explicit flat record.
    fn flush_window(&mut self) {
        if self.win_ticks > 0 {
            let start = self.next_boundary - TS_WINDOW;
            self.rec.add_batch(
                start,
                &[
                    ("ticks", self.win_ticks),
                    ("arrivals", self.win_arrivals),
                    ("completions", self.win_completions),
                    ("available_ticks", self.win_available),
                    ("blocked_ticks", self.win_blocked),
                    ("bytes_moved", self.win_bytes),
                ],
            );
            self.win_ticks = 0;
            self.win_arrivals = 0;
            self.win_completions = 0;
            self.win_available = 0;
            self.win_blocked = 0;
            self.win_bytes = 0;
        }
        self.next_boundary += TS_WINDOW;
    }

    /// Account the ticks `[from, to)`, each moving `bytes`, scoring
    /// `blocked` blocked leechers and earning availability credit iff
    /// `available`. Partial windows at either edge go through the
    /// accumulators (merging with the ticks that share them); the whole
    /// windows between them fold straight into the recorder via
    /// [`swarm_obs::Recorder::add_span`] — one map walk per slot instead
    /// of one flush per window, with byte-identical output. A dense tick
    /// is the one-tick span, and how a range is split into calls never
    /// changes the series.
    fn add_ticks(&mut self, from: u64, to: u64, bytes: u64, blocked: u64, available: bool) {
        let mut t = from;
        if t < to {
            // Leading partial window (or the first whole one when `t`
            // sits on a boundary).
            let bound = self.next_boundary.min(to);
            self.accumulate(bound - t, bytes, blocked, available);
            t = bound;
            if t == self.next_boundary {
                self.flush_window();
            }
        }
        let bulk_end = to / TS_WINDOW * TS_WINDOW;
        if t < bulk_end {
            debug_assert_eq!(t % TS_WINDOW, 0);
            self.rec.add_span(
                t,
                bulk_end,
                &[
                    ("ticks", 1),
                    ("available_ticks", available as u64),
                    ("blocked_ticks", blocked),
                    ("bytes_moved", bytes),
                ],
            );
            self.next_boundary = bulk_end + TS_WINDOW;
            t = bulk_end;
        }
        if t < to {
            // Trailing partial window stays in the accumulators until a
            // later tick crosses its boundary.
            self.accumulate(to - t, bytes, blocked, available);
        }
    }

    /// Add `ticks` ticks of per-tick quantities to the open window.
    fn accumulate(&mut self, ticks: u64, bytes: u64, blocked: u64, available: bool) {
        self.win_ticks += ticks;
        self.win_bytes += bytes * ticks;
        self.win_blocked += blocked * ticks;
        self.win_available += available as u64 * ticks;
    }

    /// Flush the trailing partial window and hand over the recorder.
    fn finish(mut self) -> swarm_obs::Recorder {
        self.flush_window();
        self.rec
    }
}

/// Incrementally maintained per-piece replication state over *online,
/// non-publisher* peers — the population whose bitfield union defines
/// peer-side availability (the paper's §2.2 monitors classify exactly
/// these bitmaps).
///
/// Only two events change replication: an online peer completes a piece
/// (`gain`), and an online peer goes offline (`drop_holder` — completion
/// without linger, or linger expiry). Arrivals hold nothing, departed
/// peers never return, and publisher transitions are tracked separately,
/// so none of them touch the index. Coverage, the minimum replication
/// level and the sorted-count histogram all fall out of the same
/// bookkeeping, amortized O(1) per event.
struct ReplicationIndex {
    /// Per piece: number of online non-publisher holders.
    counts: Vec<u32>,
    /// `hist[c]` = number of pieces replicated exactly `c` times.
    hist: Vec<u32>,
    /// Pieces with count > 0 (peer-side coverage).
    covered: usize,
    /// Cached minimum of `counts` — the lowest nonzero histogram bucket.
    min_count: u32,
}

impl ReplicationIndex {
    fn new(num_pieces: usize) -> Self {
        ReplicationIndex {
            counts: vec![0; num_pieces],
            hist: vec![num_pieces as u32],
            covered: 0,
            min_count: 0,
        }
    }

    /// An online peer completed `piece`.
    fn gain(&mut self, piece: usize) {
        let c = self.counts[piece] as usize;
        self.counts[piece] = (c + 1) as u32;
        self.hist[c] -= 1;
        if self.hist.len() == c + 1 {
            self.hist.push(0);
        }
        self.hist[c + 1] += 1;
        if c == 0 {
            self.covered += 1;
        }
        // The minimum only rises when its bucket empties; the scan work
        // is bounded by the total number of increments (amortized O(1)).
        while self.hist[self.min_count as usize] == 0 {
            self.min_count += 1;
        }
    }

    /// An online holder of `piece` went offline. Naive per-piece form;
    /// the engine path is the word-batched [`Self::drop_holder`], which
    /// the equivalence proptest cross-checks against this reference.
    #[cfg(test)]
    fn lose(&mut self, piece: usize) {
        let c = self.counts[piece] as usize;
        debug_assert!(c > 0, "losing a holder of an unheld piece");
        self.counts[piece] = (c - 1) as u32;
        self.hist[c] -= 1;
        self.hist[c - 1] += 1;
        if c == 1 {
            self.covered -= 1;
        }
        if ((c - 1) as u32) < self.min_count {
            self.min_count = (c - 1) as u32;
        }
    }

    /// A peer went offline: release every piece it held, word at a time.
    ///
    /// Equivalent to one `lose` (the test-only reference) per set bit,
    /// but batched: the per-piece count/histogram/coverage updates
    /// inline into the word walk (zero words cost one compare), and the
    /// cached minimum is re-anchored once at the end instead of once per
    /// bit. The final state is identical — `lose`'s min-tracking only
    /// ever lowers `min_count` to the smallest post-decrement count,
    /// which is exactly the fold below.
    fn drop_holder(&mut self, held: &[u64]) {
        let mut min_touched = u32::MAX;
        for (wi, &word) in held.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let p = wi * 64 + w.trailing_zeros() as usize;
                w &= w - 1;
                let c = self.counts[p] as usize;
                debug_assert!(c > 0, "losing a holder of an unheld piece");
                self.counts[p] = (c - 1) as u32;
                self.hist[c] -= 1;
                self.hist[c - 1] += 1;
                if c == 1 {
                    self.covered -= 1;
                }
                min_touched = min_touched.min((c - 1) as u32);
            }
        }
        if min_touched < self.min_count {
            self.min_count = min_touched;
        }
    }

    fn min_replication(&self) -> usize {
        self.min_count as usize
    }

    /// Sorted per-piece holder counts, reconstructed from the histogram
    /// in O(pieces + max count) — the `replication_snapshots` payload.
    fn sorted_counts(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.counts.len());
        for (c, &n) in self.hist.iter().enumerate() {
            for _ in 0..n {
                out.push(c);
            }
        }
        out
    }
}

/// Struct-of-arrays peer state: every `Node` field of the old
/// array-of-structs layout hoisted into its own parallel vector, indexed
/// by peer id. The per-tick phases each touch a handful of fields for
/// many peers, so splitting the ~250-byte struct into field arrays turns
/// scattered 4-cache-line loads into dense streams over exactly the
/// bytes a phase reads. Piece bitmaps live outside this struct in the
/// engine's [`BitArena`] (one flat `u64` allocation, one row per id), for
/// the same reason.
///
/// Ids are never reused and bitmap rows are append-only; id 0 is always
/// the publisher (there is no `is_publisher` array — `i == PUBLISHER` is
/// the check). The per-peer lists (`neighbors`, `conns`, `partials`) are
/// the peer's own heap allocations: each grows while the peer needs it
/// and is freed once it no longer can (a completion empties `partials`,
/// `depart` frees the other two). `conns` and `partials` also follow
/// their live length while the peer is online: the window roll and piece
/// completions shrink a list left at most a quarter full ([`give_back`]),
/// so neither keeps the capacity of the peer's busiest moment.
#[derive(Default)]
struct Peers {
    online: Vec<bool>,
    upload: Vec<f64>,
    /// Cached per-peer set-bit count of the arena row: piece completions
    /// are the only writes, so seed checks never popcount.
    num_held: Vec<usize>,
    arrived: Vec<u64>,
    /// Completion, departure and linger-expiry ticks, [`NEVER`] until
    /// set. The sentinel keeps each at 8 bytes a peer that ever arrived;
    /// an `Option<u64>` takes 16.
    completed: Vec<u64>,
    departed: Vec<u64>,
    linger_until: Vec<u64>,
    counted: Vec<bool>,
    /// Per-peer `(tick, bytes received that tick)` for the download
    /// cap. Reset is lazy: a stale stamp means "nothing received this
    /// tick yet", which avoids a per-tick sweep over every node that
    /// ever arrived; pairing stamp and accumulator keeps the transfer
    /// loop's cap check to one cache line per downloader.
    recv: Vec<(u64, f64)>,
    /// Per-peer neighbor ids, as `u32` like [`Conn::u`] (`spawn_peer`
    /// checks that every id fits).
    neighbors: Vec<Vec<u32>>,
    /// Per-downloader connection rows, one per distinct uploader (see
    /// [`Conn`]). Replaces the three separate association lists the
    /// engine used to keep (`recv_prev`, `recv_cur`, `assigned`): the
    /// transfer loop touches request state and window bytes for the same
    /// `(uploader, downloader)` pair in the same breath, so a single row
    /// table means one pointer chase and one linear scan per transfer
    /// instead of two of each. Rows are bounded by the number of
    /// uploaders unchoking this peer, so linear scans beat hashing, and
    /// no reader depends on row order (the taken set is a set, uploader
    /// lookups are unique, window scoring stores per distinct peer).
    conns: Vec<Vec<Conn>>,
    /// Per-downloader open partials: `(piece, bytes received)` for every
    /// piece a connection has been assigned and the peer has not yet
    /// completed, in no order. An entry is made when a connection is
    /// first assigned its piece and `swap_remove`d when the piece
    /// completes; requests name entries by slot ([`Conn::slot`]). The
    /// last completion empties the list, which frees it: a seed never
    /// downloads again.
    partials: Vec<Vec<(u32, f64)>>,
}

/// Give back a per-peer list's spare capacity once it is at most a
/// quarter full, keeping room for it to double again; an empty list is
/// freed. Between two calls a list only grows, so it holds at most four
/// times its length (Vec's smallest allocation is four slots) and no
/// capacity when empty. After a shrink the list reallocates again only
/// once its length doubles or halves.
fn give_back<T>(list: &mut Vec<T>) {
    if list.len() * 4 <= list.capacity() {
        list.shrink_to(2 * list.len());
    }
}

/// Sentinel for [`Conn::slot`]: no active request on this connection.
const NO_SLOT: u32 = u32::MAX;

/// "Never" in a per-peer tick field: no run reaches tick `u64::MAX`.
const NEVER: u64 = u64::MAX;

/// A per-peer tick field as the `Option` that results carry.
fn tick_or_never(tick: u64) -> Option<u64> {
    (tick != NEVER).then_some(tick)
}

/// State of one `uploader → downloader` connection, stored per
/// downloader. The request fields mirror the old `assigned` entries
/// `(uploader, piece, last-data tick)`: each connection works on its own
/// piece (request pipelining) — without this, every connection piles
/// onto the same partial piece and the publisher's capacity re-sends
/// content leechers already serve, starving the swarm of *new* pieces.
/// Requests idle beyond [`REQUEST_TIMEOUT`] expire (mainline's request
/// timeout), releasing the piece. Expiry is lazy: nothing writes
/// [`NO_SLOT`] when a request times out, and every reader asks
/// `request_live`, which treats a timed-out request as no request. Rows
/// with no live request and no bytes in the window just closed are
/// dropped at the window roll (`rechoke`), where dropping them is
/// invisible to every reader.
/// The byte fields are the reciprocity windows the old `recv_cur` /
/// `recv_prev` lists kept: bytes received from `u` in the current and
/// previous rechoke window (an entry "exists" in the old sense when the
/// field is positive).
struct Conn {
    /// Uploader id; unique among this downloader's rows. `u32` rather
    /// than `usize` keeps the row at 32 bytes — two rows per cache line
    /// in the transfer loop's per-allocation row scans (peer and piece
    /// counts are nowhere near `u32::MAX`).
    u: u32,
    /// Slot in the downloader's [`Peers::partials`] of the piece the
    /// active request is for, or [`NO_SLOT`]. Every request's slot names
    /// an entry: a piece's completion clears the requests on its slot and
    /// repoints the ones on the entry `swap_remove` moved.
    slot: u32,
    /// Last tick the active request received data.
    ts: u64,
    /// Bytes received from `u` in the current rechoke window.
    cur: f64,
    /// Bytes received from `u` in the previous rechoke window.
    prev: f64,
}

const _: () = assert!(std::mem::size_of::<Conn>() == 32);

impl Peers {
    fn len(&self) -> usize {
        self.online.len()
    }

    /// Append one peer row across every parallel array, returning its id.
    fn push(
        &mut self,
        online: bool,
        upload: f64,
        arrived: u64,
        completed: u64,
        counted: bool,
        num_held: usize,
    ) -> usize {
        self.online.push(online);
        self.upload.push(upload);
        self.num_held.push(num_held);
        self.arrived.push(arrived);
        self.completed.push(completed);
        self.departed.push(NEVER);
        self.linger_until.push(NEVER);
        self.counted.push(counted);
        self.recv.push((u64::MAX, 0.0));
        self.neighbors.push(Vec::new());
        self.conns.push(Vec::new());
        self.partials.push(Vec::new());
        self.online.len() - 1
    }
}

/// Run one block-level simulation.
pub fn run(cfg: &BtConfig) -> BtResult {
    cfg.validate();
    BtEngine::new(cfg).run()
}

/// Fixed-point flags for the quiescence fast-forward, one per phase.
/// A phase sets its own flag when a run of it changed nothing and drew
/// no RNG — on unchanged state, running it again would do the same —
/// and the few events that can hand it work again clear the flag (see
/// `connect`, `go_offline`, `spawn_peer` and the publisher's return).
/// The boundaries of a quiet periodic phase schedule no wake.
#[derive(Default)]
struct Quiet {
    /// `transfer_round` planned no allocation.
    transfer: bool,
    /// `rechoke` built an empty unchoke table.
    rechoke: bool,
    /// No online peer found a PEX gossip partner.
    pex: bool,
    /// `reannounce` found no lonely peer (its prune is idempotent).
    reannounce: bool,
}

struct BtEngine<'c> {
    cfg: &'c BtConfig,
    rng: ChaCha8Rng,
    /// Struct-of-arrays peer state (see [`Peers`]).
    peers: Peers,
    /// Every peer's piece bitmap, one arena row per id.
    bits: BitArena,
    /// Per-peer "has an open partial" piece bitmap: bit `p` of row `i` is
    /// set when peer `i`'s entry for piece `p` is made in
    /// `peers.partials[i]`, and never cleared (completed pieces keep it,
    /// but they leave every candidate set via the held bitmap). It is the
    /// word index `pick_piece` walks beside the candidate words, so the
    /// open-partial list is searched only when a free candidate has an
    /// entry — nearly always none does.
    partial_bits: BitArena,
    num_pieces: usize,
    /// Precomputed `1 / arrival_rate` — the mean of the exponential
    /// inter-arrival gap, so the hot arrival loop never re-divides.
    arrival_mean: f64,
    next_arrival: f64,
    /// Next unconsumed entry of `cfg.scripted_arrivals` (always 0 for
    /// stochastic runs, where `next_arrival` drives the process).
    scripted_cursor: usize,
    next_toggle: Option<f64>,
    publisher_retired: bool,
    publisher_online_since: Option<u64>,
    result: BtResult,
    completions_total: u64,
    available_ticks: u64,
    /// Persistent unchoke sets in CSR layout: uploader `unchoked_from[i]`
    /// unchokes `unchoked_flat[unchoked_off[i]..unchoked_off[i + 1]]`.
    /// Rebuilt every `rechoke_interval` ticks (and when the publisher
    /// returns) with uploaders in ascending id order, so iteration is
    /// deterministic without any per-tick key sort.
    unchoked_from: Vec<usize>,
    unchoked_off: Vec<usize>,
    unchoked_flat: Vec<usize>,
    force_rechoke: bool,
    /// Super-seeding bookkeeping: how many times the publisher has begun
    /// serving each piece.
    injected: Vec<u64>,
    /// Incremental per-piece replication over online non-publisher peers.
    rep: ReplicationIndex,
    /// Ids of the peers with `online == true`, maintained at the
    /// membership-flip sites (`spawn_peer`, `go_offline`, the
    /// publisher's return). The window roll, re-announce prune,
    /// `fill_online` and the linger-end wake scan walk this instead of
    /// every peer that ever existed: the population only grows, and in
    /// the idle regimes worth eliding the online subset is a sliver of
    /// it. Unordered — readers take a minimum, touch each entry
    /// independently, or sort a copy, so iteration order cannot leak
    /// into results.
    online_ids: Vec<usize>,
    /// Which periodic phases are at a fixed point (see [`Quiet`]).
    quiet: Quiet,
    // --- reusable scratch (cleared before use; steady-state ticks do not
    //     allocate once these are warm) ----------------------------------
    /// Online node ids, ascending.
    scratch_online: Vec<usize>,
    /// Tracker candidates / PEX share lists.
    scratch_ids: Vec<usize>,
    /// PEX online-neighbor lists / re-announce lonely lists.
    scratch_nb: Vec<usize>,
    /// Interested downloaders of the uploader being rechoked.
    scratch_interested: Vec<usize>,
    /// Planned `(uploader, downloader, rate)` transfers for the tick.
    /// `(uploader, downloader, rate)` — ids as `u32` so a row is 16
    /// bytes and the per-tick Fisher-Yates shuffle moves less memory.
    scratch_alloc: Vec<(u32, u32, f64)>,
    /// Free (not already requested) candidate pieces in `pick_piece`.
    scratch_free: Vec<usize>,
    /// Peers whose download finished this tick.
    scratch_complete: Vec<usize>,
    /// Reused key buffer for the rechoke score sort.
    scratch_rechoke: Vec<(f64, u32, usize)>,
    /// Pieces requested on the downloader's *other* connections, as a
    /// packed word bitmap (one arena stride wide) rebuilt per
    /// `pick_piece` enumeration — so the candidate walk is a pure word
    /// expression `theirs & !mine & !taken`.
    taken_words: Vec<u64>,
    /// Per-node reciprocity scores for the rechoke sort, stamp-cleared.
    score: Vec<f64>,
    score_stamp: Vec<u64>,
    score_gen: u64,
    // --- observability (see `BtProbes`) ---------------------------------
    /// Cached metric handles; `None` while recording is disabled.
    probes: Option<BtProbes>,
    /// Window accumulator for the `"bt"` time series; lives exactly as
    /// long as `probes` does.
    ts: Option<TsAcc>,
    /// This run's ordinal from [`RUN_SEQ`] (0 while recording is off),
    /// attached to every engine-scoped sink event.
    run_ord: u64,
    /// Online non-publisher peers (incremental; includes lingering seeds).
    online_nonpub: usize,
    /// Online peers that completed and are lingering as seeds.
    lingering_online: usize,
    /// Availability latch for sparse transition events.
    last_available: Option<bool>,
    /// Sorted `(uploader << 32) | downloader` unchoke pairs from the
    /// previous rechoke, for churn accounting (probes-gated).
    unchoke_pairs_prev: Vec<u64>,
    unchoke_pairs_cur: Vec<u64>,
}

impl<'c> BtEngine<'c> {
    fn new(cfg: &'c BtConfig) -> Self {
        let num_pieces = cfg.num_pieces();
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let initially_on = match cfg.publisher {
            BtPublisher::AlwaysOn | BtPublisher::UntilFirstCompletion => true,
            BtPublisher::OnOff { initially_on, .. }
            | BtPublisher::Periodic { initially_on, .. } => initially_on,
        };
        let mut peers = Peers::default();
        peers.push(
            initially_on,
            cfg.publisher_capacity,
            0,
            0,
            false,
            num_pieces,
        );
        let mut bits = BitArena::new(num_pieces);
        bits.push_full_row();
        let mut partial_bits = BitArena::new(num_pieces);
        partial_bits.push_row();
        let bits_words = bits.words_per_row();
        let arrival_mean = 1.0 / cfg.arrival_rate;
        // Scripted runs drive arrivals off the schedule cursor alone; the
        // stochastic path (and its RNG draw here) is untouched when the
        // script is absent, keeping golden traces bit-identical.
        let next_arrival = if cfg.scripted_arrivals.is_some() {
            f64::INFINITY
        } else {
            exp_sample(&mut rng, arrival_mean)
        };
        let next_toggle = match cfg.publisher {
            BtPublisher::OnOff {
                on_mean, off_mean, ..
            } => Some(exp_sample(
                &mut rng,
                if initially_on { on_mean } else { off_mean },
            )),
            BtPublisher::Periodic {
                on_ticks,
                off_ticks,
                ..
            } => Some(if initially_on { on_ticks } else { off_ticks } as f64),
            _ => None,
        };
        let probes = BtProbes::get();
        // Process-wide run ordinal: replication seeds collide across
        // sweep points (`seed.wrapping_add(i)`), so trace analysis keys
        // every engine-scoped event on this ordinal instead. Allocated
        // only while recording, so uninstrumented runs stay untouched.
        let run_ord = if probes.is_some() {
            RUN_SEQ.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        if probes.is_some() {
            let (publisher_kind, on_mean, off_mean) = match cfg.publisher {
                BtPublisher::AlwaysOn => ("always_on", 0.0, 0.0),
                BtPublisher::UntilFirstCompletion => ("until_first_completion", 0.0, 0.0),
                BtPublisher::Periodic {
                    on_ticks,
                    off_ticks,
                    ..
                } => ("periodic", on_ticks as f64, off_ticks as f64),
                BtPublisher::OnOff {
                    on_mean, off_mean, ..
                } => ("on_off", on_mean, off_mean),
            };
            swarm_obs::emit(
                "bt.run.start",
                &[
                    ("run", swarm_obs::val(run_ord)),
                    ("k", swarm_obs::val(cfg.num_files as u64)),
                    ("file_size", swarm_obs::val(cfg.file_size)),
                    ("pieces", swarm_obs::val(num_pieces as u64)),
                    ("arrival_rate", swarm_obs::val(cfg.arrival_rate)),
                    ("horizon", swarm_obs::val(cfg.horizon)),
                    ("drain_ticks", swarm_obs::val(cfg.drain_ticks)),
                    ("seed", swarm_obs::val(cfg.seed)),
                    ("publisher", swarm_obs::val(publisher_kind)),
                    ("on_mean", swarm_obs::val(on_mean)),
                    ("off_mean", swarm_obs::val(off_mean)),
                    ("linger_mean", swarm_obs::val(cfg.linger_mean)),
                    // Effective per-peer service rate for the M/G/inf
                    // model mapping (mu), with the download cap applied.
                    (
                        "peer_upload_mean",
                        swarm_obs::val(cfg.peer_capacity.mean_capped(cfg.download_cap)),
                    ),
                ],
            );
        }
        BtEngine {
            cfg,
            rng,
            peers,
            bits,
            partial_bits,
            num_pieces,
            arrival_mean,
            next_arrival,
            scripted_cursor: 0,
            next_toggle,
            publisher_retired: false,
            publisher_online_since: initially_on.then_some(0),
            result: BtResult::default(),
            completions_total: 0,
            available_ticks: 0,
            unchoked_from: Vec::new(),
            unchoked_off: Vec::new(),
            unchoked_flat: Vec::new(),
            force_rechoke: true,
            injected: vec![0; num_pieces],
            rep: ReplicationIndex::new(num_pieces),
            online_ids: if initially_on {
                vec![PUBLISHER]
            } else {
                Vec::new()
            },
            quiet: Quiet::default(),
            scratch_online: Vec::new(),
            scratch_ids: Vec::new(),
            scratch_nb: Vec::new(),
            scratch_interested: Vec::new(),
            scratch_alloc: Vec::new(),
            scratch_free: Vec::new(),
            scratch_complete: Vec::new(),
            scratch_rechoke: Vec::new(),
            taken_words: vec![0; bits_words],
            score: Vec::new(),
            score_stamp: Vec::new(),
            score_gen: 0,
            ts: (probes.is_some() && swarm_obs::series_active()).then(TsAcc::new),
            probes,
            run_ord,
            online_nonpub: 0,
            lingering_online: 0,
            last_available: None,
            unchoke_pairs_prev: Vec::new(),
            unchoke_pairs_cur: Vec::new(),
        }
    }

    fn run(mut self) -> BtResult {
        let _span = swarm_obs::span("bt.run");
        let hard_end = self.cfg.horizon + self.cfg.drain_ticks;
        let fast_forward = !self.cfg.disable_fast_forward;
        let mut tick = 0u64;
        while tick < hard_end {
            // Past the horizon we only drain: no new arrivals, and once no
            // leecher is left in flight the run is over.
            if tick >= self.cfg.horizon && !self.any_leecher_online() {
                break;
            }
            self.tick_body(tick);
            tick += 1;
            if fast_forward && tick < hard_end {
                if let Some(wake) = self.next_wake(tick, hard_end) {
                    self.fast_forward(tick, wake);
                    tick = wake;
                }
            }
        }
        self.finalize(tick)
    }

    /// One dense tick: every per-tick phase, in the order the engine has
    /// always run them.
    fn tick_body(&mut self, tick: u64) {
        let t0 = self.tick_clock(tick);
        self.publisher_transitions(tick);
        if tick < self.cfg.horizon {
            self.arrivals(tick);
        }
        if tick.is_multiple_of(REANNOUNCE_INTERVAL) && tick > 0 {
            self.reannounce();
        }
        if self.cfg.pex_interval > 0 && tick > 0 && tick.is_multiple_of(self.cfg.pex_interval) {
            self.pex_round();
        }
        if self.force_rechoke || tick.is_multiple_of(self.cfg.rechoke_interval) {
            self.rechoke(tick);
            self.force_rechoke = false;
        }
        let (bytes, receivers) = self.transfer_round(tick);
        self.linger_expiry(tick);
        self.account(tick, tick + 1, bytes, receivers);
        if let (Some(p), Some(t0)) = (&self.probes, t0) {
            p.tick_ns.record_duration(t0.elapsed());
        }
    }

    // --- observability ---------------------------------------------------

    /// Start the per-tick clock on sampled ticks. `None` when probes are
    /// off or the tick is unsampled, so the common path reads no clock.
    #[inline]
    fn tick_clock(&self, tick: u64) -> Option<std::time::Instant> {
        if self.probes.is_some() && tick.is_multiple_of(TICK_SAMPLE) {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    /// Account the ticks `[from, to)`, over which engine state is
    /// constant: each moves `bytes` to `receivers` distinct peers (a
    /// dense tick passes its transfer round's pair, a fast-forwarded
    /// span zero). The one writer of availability credit, the timeline
    /// curves, the per-tick probes, the `bt.availability` and strided
    /// `bt.tick` events and the window series, so a jump accounts its
    /// span exactly as the dense loop would have, tick by tick.
    fn account(&mut self, from: u64, to: u64, bytes: f64, receivers: usize) {
        // All replication views — coverage, minimum replication and the
        // sorted-count snapshot — read the incremental index; nothing
        // here scans peers or pieces.
        let covered = self.rep.covered;
        let min_rep = self.rep.min_replication();
        if self.cfg.record_timeline {
            for t in from..to {
                self.result.aggregate_rate_curve.push((t, bytes));
                self.result.peer_coverage_curve.push((t, covered));
                self.result.min_replication_curve.push((t, min_rep));
                if t.is_multiple_of(60) {
                    self.result
                        .replication_snapshots
                        .push((t, self.rep.sorted_counts()));
                }
            }
        }
        if cfg!(debug_assertions) && next_multiple(from, 60) < to {
            self.check_index_consistency();
        }
        let available = self.peers.online[PUBLISHER] || covered == self.num_pieces;
        // The availability fraction is defined over the arrival window:
        // drain ticks move last_available_tick but earn no credit. Spans
        // never straddle the horizon (`next_wake` caps there).
        debug_assert!(to <= self.cfg.horizon || from >= self.cfg.horizon);
        let credit = available && from < self.cfg.horizon;
        if credit {
            self.available_ticks += to - from;
        }
        if available {
            self.result.last_available_tick = Some(to - 1);
        }
        let Some(p) = &self.probes else { return };
        let publisher_on = self.peers.online[PUBLISHER];
        let online = self.online_nonpub + usize::from(publisher_on);
        // Blocked leechers: online, not yet complete, received nothing
        // this tick. Completions mid-tick can make receivers exceed the
        // end-of-tick leecher count, hence the saturation.
        let blocked = (self.online_nonpub - self.lingering_online).saturating_sub(receivers);
        // Sparse event stream: one event per availability transition
        // (plus the initial state), not one per tick.
        if self.last_available != Some(available) {
            if self.last_available.is_some() {
                p.avail_transitions.inc();
            }
            self.last_available = Some(available);
            swarm_obs::emit(
                "bt.availability",
                &[
                    ("run", swarm_obs::val(self.run_ord)),
                    ("tick", swarm_obs::val(from)),
                    ("available", swarm_obs::val(available)),
                    ("covered", swarm_obs::val(covered as u64)),
                    ("min_replication", swarm_obs::val(min_rep as u64)),
                ],
            );
        }
        // Sparse tick stream for trace analysis: the gauges below are
        // last-write-wins, so timelines need periodic samples. Strided
        // to stay under the CI overhead guard.
        let mut t = next_multiple(from, TICK_EVENT_SAMPLE);
        while t < to {
            swarm_obs::emit(
                "bt.tick",
                &[
                    ("run", swarm_obs::val(self.run_ord)),
                    ("tick", swarm_obs::val(t)),
                    ("online", swarm_obs::val(online as u64)),
                    ("blocked", swarm_obs::val(blocked as u64)),
                    ("covered", swarm_obs::val(covered as u64)),
                    ("min_replication", swarm_obs::val(min_rep as u64)),
                    ("publisher_on", swarm_obs::val(publisher_on)),
                ],
            );
            t += TICK_EVENT_SAMPLE;
        }
        let ticks = to - from;
        let bytes = bytes.round() as u64;
        p.ticks.add(ticks);
        p.bytes.add(bytes * ticks);
        p.blocked_ticks.add(blocked as u64 * ticks);
        p.online.set(online as i64);
        p.blocked.set(blocked as i64);
        p.covered.set(covered as i64);
        p.min_rep.set(min_rep as i64);
        // Windowed time series: same quantities as the probes, but
        // bucketed at TS_WINDOW boundaries instead of run-total.
        if let Some(ts) = &mut self.ts {
            ts.add_ticks(from, to, bytes, blocked as u64, credit);
        }
    }

    /// Unchoke-set churn accounting, called from `rechoke` only while
    /// probes are live: counts `(uploader, downloader)` pairs absent
    /// from the previous unchoke table.
    fn record_rechoke_metrics(&mut self) {
        let mut cur = std::mem::take(&mut self.unchoke_pairs_cur);
        cur.clear();
        for i in 0..self.unchoked_from.len() {
            let u = (self.unchoked_from[i] as u64) << 32;
            for &d in &self.unchoked_flat[self.unchoked_off[i]..self.unchoked_off[i + 1]] {
                cur.push(u | d as u64);
            }
        }
        cur.sort_unstable();
        let prev = &self.unchoke_pairs_prev;
        let (mut i, mut j) = (0, 0);
        let mut fresh = 0u64;
        while i < cur.len() {
            if j >= prev.len() || cur[i] < prev[j] {
                fresh += 1;
                i += 1;
            } else if cur[i] == prev[j] {
                i += 1;
                j += 1;
            } else {
                j += 1;
            }
        }
        std::mem::swap(&mut self.unchoke_pairs_prev, &mut cur);
        self.unchoke_pairs_cur = cur;
        self.note_rechokes(1, fresh);
    }

    /// The one writer of the rechoke probes: `count` rechokes that
    /// unchoked `churn` pairs absent from the table before them, leaving
    /// the current table in force.
    fn note_rechokes(&self, count: u64, churn: u64) {
        if let Some(p) = &self.probes {
            p.rechokes.add(count);
            p.unchoke_churn.add(churn);
            p.unchoke_pairs.set(self.unchoke_pairs_prev.len() as i64);
        }
    }

    // --- quiescence fast-forward -----------------------------------------
    //
    // The paper's headline regimes are mostly idle: with a highly
    // unavailable publisher the swarm spends the bulk of simulated time
    // with no peer online, or with only blocked leechers that hold
    // identical pieces and nothing to exchange. Executing those ticks
    // densely costs a full phase sweep each for provably zero effect.
    // After every dense tick `next_wake` names the earliest tick at which
    // anything can happen, and the loop jumps the clock there. The
    // skipped span goes through `account`, the function that accounts
    // every dense tick: engine state is constant across the span, so one
    // `[from, to)` call with nothing moved writes exactly what the dense
    // loop would have written tick by tick. Soundness is therefore only a
    // question of scheduling — would every elided tick have been a no-op?
    //
    // Each periodic phase records in `Quiet` whether its own last run
    // was a fixed point, and the wake is the minimum over the events the
    // engine already schedules and the next boundary of every phase that
    // is not quiet (expanded in DESIGN.md). This is sound because:
    //
    // * A quiet phase draws no RNG. `shuffle` draws nothing for slices
    //   shorter than two and `choose` nothing from an empty slice, and a
    //   phase that planned, unchoked or gossiped nothing called neither
    //   on anything longer.
    // * A fixed point holds until an event undoes it. With transfer
    //   quiet no bitfield, progress, replication or reciprocity changes,
    //   so only a new edge (`connect`), a departure (`go_offline`), an
    //   arrival (`spawn_peer`) or the publisher's return can hand a
    //   quiet phase work again, and each clears the flag it affects.
    // * Every other change is already scheduled: the next arrival,
    //   publisher toggle and linger end, and the horizon/drain boundary.
    //   Request timeouts need no wake: expiry is lazy (`request_live`),
    //   and its only reader, `pick_piece`, runs only when transfer has
    //   allocations.

    /// The first tick ≥ `from` at which a non-elidable event can fire,
    /// or `None` when tick `from` itself must be executed densely.
    fn next_wake(&self, from: u64, hard_end: u64) -> Option<u64> {
        // A swarm that planned transfers last tick pays only this
        // compare; the dense loop's drain break-check fires at `from`.
        if !self.quiet.transfer || (from >= self.cfg.horizon && !self.any_leecher_online()) {
            return None;
        }
        let mut wake = hard_end;
        if from < self.cfg.horizon {
            // The horizon is a semantic boundary — arrivals stop, the
            // drain break-check arms, availability credit ends — so a
            // jump never crosses it.
            wake = wake.min(self.cfg.horizon);
            match &self.cfg.scripted_arrivals {
                // Scripted arrivals fire exactly at their listed ticks;
                // entries at or before the current tick were consumed by
                // the dense tick that just ran.
                Some(script) => {
                    if let Some(&(t, _)) = script.get(self.scripted_cursor) {
                        wake = wake.min(t);
                    }
                }
                // Arrivals fire at the first tick with `next_arrival <= t`.
                None => wake = wake.min(self.next_arrival.ceil() as u64),
            }
        }
        if let Some(t) = self.next_toggle {
            wake = wake.min(t.ceil() as u64);
        }
        // A lingering seed departs when its linger runs out (`NEVER`,
        // the largest tick, leaves the wake as it is).
        for &i in &self.online_ids {
            wake = wake.min(self.peers.linger_until[i]);
        }
        if !self.quiet.rechoke {
            wake = wake.min(next_multiple(from, self.cfg.rechoke_interval));
        }
        if self.cfg.pex_interval > 0 && !self.quiet.pex {
            wake = wake.min(next_multiple(from, self.cfg.pex_interval));
        }
        if !self.quiet.reannounce {
            wake = wake.min(next_multiple(from, REANNOUNCE_INTERVAL));
        }
        (wake > from).then_some(wake)
    }

    /// Jump the clock across the provably quiescent span `[from, to)`:
    /// nothing moves, so the span is accounted like any tick with no
    /// bytes and no receivers. What is specific to jumping stays here:
    /// the fast-forward counters, and the rechoke boundaries crossed.
    /// Those rechokes are metrics-only no-ops: rechoke is quiet, so each
    /// rebuilds the table in force and unchokes no new pair, or the wake
    /// was capped before the first boundary.
    fn fast_forward(&mut self, from: u64, to: u64) {
        self.account(from, to, 0.0, 0);
        let Some(p) = &self.probes else { return };
        p.ticks_elided.add(to - from);
        p.ff_jumps.inc();
        let rechokes = count_multiples(from, to, self.cfg.rechoke_interval);
        if rechokes > 0 {
            self.note_rechokes(rechokes, 0);
        }
    }

    // --- membership -----------------------------------------------------

    fn any_leecher_online(&self) -> bool {
        // Peers never depart before completing and every completion is
        // counted exactly once, so "a leecher is still online" reduces to
        // a counter comparison instead of a peer scan.
        (self.peers.len() - 1) as u64 > self.completions_total
    }

    /// Does peer `i` hold every piece? Reads the cached held-count array,
    /// never the bitmap.
    #[inline]
    fn is_seed(&self, i: usize) -> bool {
        self.peers.num_held[i] == self.num_pieces
    }

    /// Refresh `scratch_online` with the online node ids, ascending.
    fn fill_online(&mut self) {
        // Ascending id order is load-bearing: callers draw from the RNG
        // per entry, so the order is part of the observable stream.
        // `online_ids` holds exactly the active set but unordered — a
        // sorted copy beats rescanning every node that ever arrived.
        self.scratch_online.clear();
        self.scratch_online.extend_from_slice(&self.online_ids);
        self.scratch_online.sort_unstable();
    }

    fn active_neighbor_count(&self, i: usize) -> usize {
        self.peers.neighbors[i]
            .iter()
            .filter(|&&n| self.peers.online[n as usize])
            .count()
    }

    /// Is peer `d` interested in the uploader whose bitmap row is
    /// `u_bits`: online, not a seed, and missing a piece the uploader
    /// holds? The one interest test — `rechoke` and `transfer_round` hoist
    /// the uploader's row out of their downloader scans, and `connect`
    /// asks it of both ends of a new edge. The publisher holds every
    /// piece, so it is never interested.
    #[inline]
    fn wants(&self, u_bits: &[u64], d: usize) -> bool {
        self.peers.online[d] && !self.is_seed(d) && bitfield::any_and_not(u_bits, self.bits.row(d))
    }

    fn connect(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        // Capacity counts *live* connections only: departed peers drop
        // their TCP connections, freeing slots for newcomers.
        if self.active_neighbor_count(a) < self.cfg.max_neighbors
            && self.active_neighbor_count(b) < self.cfg.max_neighbors
            && !self.peers.neighbors[a].contains(&(b as u32))
        {
            self.peers.neighbors[a].push(b as u32);
            self.peers.neighbors[b].push(a as u32);
            // Both ends are online: PEX now has a gossip partner, and an
            // interested end gives rechoke a pair to unchoke.
            self.quiet.pex = false;
            if self.wants(self.bits.row(a), b) || self.wants(self.bits.row(b), a) {
                self.quiet.rechoke = false;
            }
        }
    }

    /// Take peer `i` offline. A departure never hands rechoke, PEX or
    /// transfer work, but it can leave a re-announce something to do —
    /// a stale edge to prune, a neighbor newly under `MIN_NEIGHBORS` —
    /// so it clears that flag.
    fn go_offline(&mut self, i: usize) {
        self.peers.online[i] = false;
        self.online_ids.retain(|&o| o != i);
        self.quiet.reannounce = false;
    }

    fn tracker_join(&mut self, joiner: usize) {
        let mut candidates = std::mem::take(&mut self.scratch_ids);
        candidates.clear();
        for i in 0..self.peers.len() {
            if i != joiner && self.peers.online[i] {
                candidates.push(i);
            }
        }
        candidates.shuffle(&mut self.rng);
        candidates.truncate(self.cfg.tracker_response);
        for &c in &candidates {
            self.connect(joiner, c);
        }
        self.scratch_ids = candidates;
    }

    fn arrivals(&mut self, tick: u64) {
        // `cfg` is a shared borrow with its own lifetime, so reading the
        // script does not freeze `self` for the `spawn_peer` calls below.
        let cfg = self.cfg;
        if let Some(script) = &cfg.scripted_arrivals {
            // Scripted schedule: consume every entry due at this tick.
            // No arrival-time or capacity draws — the only RNG use is the
            // tracker join inside `spawn_peer`, same as stochastic mode.
            while self.scripted_cursor < script.len() && script[self.scripted_cursor].0 <= tick {
                let upload = script[self.scripted_cursor].1;
                self.scripted_cursor += 1;
                self.spawn_peer(tick, upload);
            }
            return;
        }
        while self.next_arrival <= tick as f64 {
            self.next_arrival += exp_sample(&mut self.rng, self.arrival_mean);
            let upload = self.cfg.peer_capacity.sample(&mut self.rng);
            self.spawn_peer(tick, upload);
        }
    }

    /// Admit one leecher with the given upload capacity: peer-array row,
    /// bitmap arena row, active-set bookkeeping, probes, and the tracker
    /// join (which draws from the RNG). Shared by the stochastic and
    /// scripted arrival paths.
    fn spawn_peer(&mut self, tick: u64, upload: f64) {
        let counted = tick >= self.cfg.warmup;
        if counted {
            self.result.arrivals += 1;
        }
        let id = self.peers.push(true, upload, tick, NEVER, counted, 0);
        // Neighbor lists, connection rows and transfer plans store ids as
        // `u32`; this is the one place ids are made.
        assert!(
            u32::try_from(id).is_ok(),
            "peer id {id} does not fit in u32"
        );
        let row = self.bits.push_row();
        debug_assert_eq!(row, id, "bitmap arena row out of sync with peer id");
        self.partial_bits.push_row();
        self.online_ids.push(id);
        self.online_nonpub += 1;
        if let Some(p) = &self.probes {
            p.arrivals.inc();
        }
        // Same semantics as the probe: every arrival counts, warmup
        // included, so the window sums reconcile with `bt.arrivals`.
        if let Some(ts) = &mut self.ts {
            ts.win_arrivals += 1;
        }
        self.tracker_join(id);
        if self.active_neighbor_count(id) < MIN_NEIGHBORS {
            self.quiet.reannounce = false;
        }
    }

    fn reannounce(&mut self) {
        // Drop connections to departed peers (in place: online peers keep
        // their neighbor-list allocations), then let under-connected
        // peers query the tracker again. Only online peers' lists need
        // the prune: a departed leecher's list is freed (`depart`), and
        // the offline publisher's is read, once it returns, solely
        // through active-filtered views (`active_neighbor_count`,
        // rechoke/PEX candidate scans) and `connect`'s duplicate check,
        // none of which can observe a stale entry for a departed peer —
        // ids are never reused. The publisher prunes on its next online
        // round.
        for idx in 0..self.online_ids.len() {
            let i = self.online_ids[idx];
            let mut neighbors = std::mem::take(&mut self.peers.neighbors[i]);
            neighbors.retain(|&n| self.peers.online[n as usize]);
            self.peers.neighbors[i] = neighbors;
        }
        // Ascending-id scan, not `online_ids`: each lonely peer's
        // tracker query draws from the RNG, so the query order is part
        // of the observable stream and `online_ids` is unordered.
        let mut lonely = std::mem::take(&mut self.scratch_nb);
        lonely.clear();
        for i in 1..self.peers.len() {
            if self.peers.online[i] && self.active_neighbor_count(i) < MIN_NEIGHBORS {
                lonely.push(i);
            }
        }
        self.quiet.reannounce = lonely.is_empty();
        for &l in &lonely {
            self.tracker_join(l);
        }
        self.scratch_nb = lonely;
    }

    fn pex_round(&mut self) {
        // Each online peer gossips with one random online neighbor and
        // learns up to PEX_SHARE of its neighbors.
        self.fill_online();
        let mut gossiped = false;
        for oi in 0..self.scratch_online.len() {
            let id = self.scratch_online[oi];
            if id == PUBLISHER {
                continue;
            }
            let mut online_neighbors = std::mem::take(&mut self.scratch_nb);
            online_neighbors.clear();
            for &n in &self.peers.neighbors[id] {
                if self.peers.online[n as usize] {
                    online_neighbors.push(n as usize);
                }
            }
            let partner = online_neighbors.choose(&mut self.rng).copied();
            self.scratch_nb = online_neighbors;
            let Some(partner) = partner else {
                continue;
            };
            gossiped = true;
            let mut shared = std::mem::take(&mut self.scratch_ids);
            shared.clear();
            for &n in &self.peers.neighbors[partner] {
                let n = n as usize;
                if n != id && self.peers.online[n] {
                    shared.push(n);
                }
            }
            shared.shuffle(&mut self.rng);
            shared.truncate(PEX_SHARE);
            for &s in &shared {
                self.connect(id, s);
            }
            self.scratch_ids = shared;
        }
        self.quiet.pex = !gossiped;
    }

    // --- publisher ------------------------------------------------------

    fn publisher_transitions(&mut self, tick: u64) {
        match self.cfg.publisher {
            BtPublisher::OnOff { .. } | BtPublisher::Periodic { .. } => {}
            _ => return,
        }
        while let Some(t) = self.next_toggle {
            if t > tick as f64 {
                break;
            }
            let was_online = self.peers.online[PUBLISHER];
            // Dwell of the phase being entered. OnOff draws here in the
            // exact order the stochastic engine always has; Periodic is
            // RNG-free by design.
            let dwell = match self.cfg.publisher {
                BtPublisher::OnOff {
                    on_mean, off_mean, ..
                } => exp_sample(&mut self.rng, if was_online { off_mean } else { on_mean }),
                BtPublisher::Periodic {
                    on_ticks,
                    off_ticks,
                    ..
                } => (if was_online { off_ticks } else { on_ticks }) as f64,
                _ => unreachable!("matched above"),
            };
            self.next_toggle = Some(t + dwell);
            if was_online {
                self.go_offline(PUBLISHER);
                if let Some(since) = self.publisher_online_since.take() {
                    self.result.publisher_intervals.push((since, tick));
                }
            } else {
                self.peers.online[PUBLISHER] = true;
                self.online_ids.push(PUBLISHER);
                self.publisher_online_since = Some(tick);
                // Old edges to the publisher are live again, so PEX may
                // find partners; the rechoke is forced.
                self.quiet.pex = false;
                // Returning publisher re-announces and reconnects.
                self.tracker_join(PUBLISHER);
                self.force_rechoke = true;
            }
        }
    }

    fn retire_publisher(&mut self, tick: u64) {
        self.publisher_retired = true;
        self.go_offline(PUBLISHER);
        self.peers.departed[PUBLISHER] = tick;
        if let Some(since) = self.publisher_online_since.take() {
            self.result.publisher_intervals.push((since, tick));
        }
    }

    // --- transfers ------------------------------------------------------

    /// Rebuild unchoke sets from reciprocity accumulated since the last
    /// rechoke. Unchoke decisions persist until the next rechoke, giving
    /// each unchoked peer a sustained stream (mainline behavior; without
    /// persistence a publisher facing many stuck peers hands every peer an
    /// epsilon of capacity and nobody ever finishes a piece).
    fn rechoke(&mut self, tick: u64) {
        // Only online peers need the window roll: departed leechers never
        // come back (their windows are never read again) and the
        // publisher — the one peer that can re-join — never receives
        // bytes, so its windows are always empty.
        for idx in 0..self.online_ids.len() {
            let i = self.online_ids[idx];
            // Roll the reciprocity windows and compact: a row with no
            // live request and no bytes entering the scoring window is
            // invisible to every reader, so this is the one place rows
            // are dropped, and the list gives back what it no longer
            // needs.
            let rows = &mut self.peers.conns[i];
            rows.retain_mut(|c| {
                c.prev = c.cur;
                c.cur = 0.0;
                Self::request_live(c, tick) || c.prev > 0.0
            });
            give_back(rows);
        }
        self.unchoked_from.clear();
        self.unchoked_off.clear();
        self.unchoked_flat.clear();
        if self.score.len() < self.peers.len() {
            self.score.resize(self.peers.len(), 0.0);
            self.score_stamp.resize(self.peers.len(), 0);
        }
        self.fill_online();
        let mut interested = std::mem::take(&mut self.scratch_interested);
        for oi in 0..self.scratch_online.len() {
            let u = self.scratch_online[oi];
            if self.peers.num_held[u] == 0 {
                continue;
            }
            interested.clear();
            let u_bits = self.bits.row(u);
            for &d in &self.peers.neighbors[u] {
                if self.wants(u_bits, d as usize) {
                    interested.push(d as usize);
                }
            }
            if interested.is_empty() {
                continue;
            }
            // Tit-for-tat ranking by bytes received from each candidate
            // over the last rechoke window; the publisher has no
            // self-interest and unchokes uniformly at random (mainline
            // seed behavior). The decision itself lives in
            // `policy::rechoke_order`, shared with the live runtime; the
            // stamp-cleared score table stays engine-owned.
            let uploader_is_publisher = u == PUBLISHER;
            if !uploader_is_publisher {
                self.score_gen += 1;
                let gen = self.score_gen;
                for c in &self.peers.conns[u] {
                    if c.prev > 0.0 {
                        self.score[c.u as usize] = c.prev;
                        self.score_stamp[c.u as usize] = gen;
                    }
                }
            }
            let gen = self.score_gen;
            let (score, stamp) = (&self.score, &self.score_stamp);
            let chosen = crate::policy::rechoke_order_with_scratch(
                &mut interested,
                uploader_is_publisher,
                |p| if stamp[p] == gen { score[p] } else { 0.0 },
                self.cfg.unchoke_slots,
                self.cfg.optimistic_slots,
                &mut self.rng,
                &mut self.scratch_rechoke,
            );
            self.unchoked_from.push(u);
            self.unchoked_off.push(self.unchoked_flat.len());
            self.unchoked_flat.extend_from_slice(&interested[..chosen]);
        }
        self.unchoked_off.push(self.unchoked_flat.len());
        self.scratch_interested = interested;
        // Every uploader with an interested neighbor enters the table,
        // so an empty one means no unchoke order was drawn.
        self.quiet.rechoke = self.unchoked_from.is_empty();
        if self.probes.is_some() {
            self.record_rechoke_metrics();
        }
    }

    /// Is the request on connection row `c` live at `tick`? Expiry is
    /// *lazy*: there is no per-tick sweep clearing timed-out requests —
    /// instead every request reader applies this predicate. The two are
    /// exactly equivalent because the old sweep ran every tick with the
    /// same `tick - ts >= REQUEST_TIMEOUT` test and `ts` only ever moves
    /// forward to the current tick: a request the sweep would have
    /// cleared at some earlier tick still satisfies the predicate now,
    /// and one it would not have cleared cannot have aged past the
    /// timeout in between without its `ts` being refreshed (which
    /// un-ages it on both schemes). Readers: the `pick_piece` continue
    /// check and the taken-piece bitmap — both only reached when
    /// transfer has allocations, so an expiry never needs a
    /// fast-forward wake of its own — and the window roll, which drops
    /// a row whose request is not live unless its uploader sent bytes in
    /// the window just closed. A timed-out row keeps its `slot` until
    /// then, or until its piece completes or `assign` reuses the row.
    #[inline]
    fn request_live(c: &Conn, tick: u64) -> bool {
        c.slot != NO_SLOT && tick.saturating_sub(c.ts) < REQUEST_TIMEOUT
    }

    /// Plan and execute this tick's transfers, returning the bytes
    /// moved and the number of distinct peers that received any.
    fn transfer_round(&mut self, tick: u64) -> (f64, usize) {
        // Plan allocations from the persistent unchoke sets, skipping
        // entries that have gone offline, completed, or lost interest.
        // The CSR unchoke table was built with uploaders ascending, so
        // iteration order is deterministic without sorting keys.
        let mut allocations = std::mem::take(&mut self.scratch_alloc);
        allocations.clear();
        for i in 0..self.unchoked_from.len() {
            let u = self.unchoked_from[i];
            if !self.peers.online[u] || self.peers.num_held[u] == 0 {
                continue;
            }
            let start = allocations.len();
            let u_bits = self.bits.row(u);
            for &d in &self.unchoked_flat[self.unchoked_off[i]..self.unchoked_off[i + 1]] {
                if self.wants(u_bits, d) {
                    allocations.push((u as u32, d as u32, 0.0));
                }
            }
            let live = allocations.len() - start;
            if live == 0 {
                continue;
            }
            let share = self.peers.upload[u] / live as f64;
            for a in &mut allocations[start..] {
                a.2 = share;
            }
        }
        // With nothing planned the round draws no RNG and moves nothing,
        // and until a rechoke or membership event the plan stays empty.
        self.quiet.transfer = allocations.is_empty();

        // Execute transfers in deterministic shuffled order.
        allocations.shuffle(&mut self.rng);
        let mut newly_complete = std::mem::take(&mut self.scratch_complete);
        newly_complete.clear();
        let mut bytes_moved = 0.0;
        let mut receivers = 0usize;
        // Loop-invariant config reads, hoisted by hand: everything in the
        // loop body goes through `&mut self`, so the compiler must assume
        // the stores below could alias these fields and re-load them on
        // every one of the (hundreds of thousands of) iterations.
        let download_cap = self.cfg.download_cap;
        let num_pieces = self.num_pieces;
        let full_len = self.cfg.piece_size;
        let last_len = self.piece_len(num_pieces - 1);
        for &(u, d, rate) in &allocations {
            let (u, d) = (u as usize, d as usize);
            // The plan loop already filtered on `online[d]`, and nothing
            // inside this loop toggles liveness — only seed status can
            // change mid-round (piece completions), so that is the one
            // recheck needed.
            if self.peers.num_held[d] == num_pieces {
                continue;
            }
            let recv = self.peers.recv[d];
            let received = if recv.0 == tick { recv.1 } else { 0.0 };
            let budget = (download_cap - received).max(0.0);
            let bytes = rate.min(budget);
            if bytes <= 0.0 {
                continue;
            }
            let Some(row) = self.pick_piece(u, d, tick) else {
                continue;
            };
            // pick_piece records (and timestamps) the assignment — it is
            // the single site that writes per-connection request state.
            bytes_moved += bytes;
            let recv = &mut self.peers.recv[d];
            if recv.0 != tick {
                *recv = (tick, 0.0);
                receivers += 1;
            }
            recv.1 += bytes;
            // `pick_piece` returned the connection row it (re)confirmed,
            // and the row's slot names the open partial, so both credits
            // are direct indexes, not scans.
            debug_assert!(row < self.peers.conns[d].len());
            // SAFETY: `pick_piece` just returned `row` as an index into
            // `conns[d]`, and nothing has touched the rows since.
            let conn = unsafe { self.peers.conns.get_unchecked_mut(d).get_unchecked_mut(row) };
            conn.cur += bytes;
            let slot = conn.slot as usize;
            let open = &mut self.peers.partials[d];
            let entry = &mut open[slot];
            entry.1 += bytes;
            let (piece, got) = (entry.0 as usize, entry.1);
            let piece_len = if piece + 1 == num_pieces {
                last_len
            } else {
                full_len
            };
            if got >= piece_len {
                open.swap_remove(slot);
                // The old slot of the entry `swap_remove` moved into `slot`.
                let moved = open.len() as u32;
                // The last completion empties the list, so a seed keeps
                // no capacity here.
                give_back(open);
                self.bits.set(d, piece);
                self.peers.num_held[d] += 1;
                self.rep.gain(piece);
                // Endgame can put several connections on the same piece;
                // clear the request on every one of them, and repoint the
                // requests on the moved entry.
                for c in &mut self.peers.conns[d] {
                    if c.slot as usize == slot {
                        c.slot = NO_SLOT;
                    } else if c.slot == moved {
                        c.slot = slot as u32;
                    }
                }
                if self.peers.num_held[d] == num_pieces {
                    newly_complete.push(d);
                }
            }
        }
        self.scratch_alloc = allocations;
        for &d in &newly_complete {
            self.complete(d, tick);
        }
        self.scratch_complete = newly_complete;
        (bytes_moved, receivers)
    }

    fn piece_len(&self, piece: usize) -> f64 {
        // All pieces are piece_size except possibly the last.
        let full = self.cfg.piece_size;
        if piece + 1 == self.num_pieces {
            let rem = self.cfg.content_size() - full * (self.num_pieces - 1) as f64;
            if rem > 0.0 {
                rem
            } else {
                full
            }
        } else {
            full
        }
    }

    /// Record the open partial in `slot` as the active request on
    /// connection `u → d`, refreshing the existing row for `u` if one
    /// exists (its window bytes are untouched — request state and
    /// reciprocity bytes share the row but have independent lifecycles).
    /// Returns the row index. Together with the timestamp refresh on
    /// `pick_piece`'s continue path this is the engine's *only* write
    /// site for request state, so a request's timestamp advances exactly
    /// when `pick_piece` (re)confirms its piece.
    #[inline]
    fn assign(&mut self, d: usize, u: usize, slot: usize, tick: u64) -> usize {
        let rows = &mut self.peers.conns[d];
        match rows.iter_mut().position(|c| c.u as usize == u) {
            Some(i) => {
                rows[i].slot = slot as u32;
                rows[i].ts = tick;
                i
            }
            None => {
                rows.push(Conn {
                    u: u as u32,
                    slot: slot as u32,
                    ts: tick,
                    cur: 0.0,
                    prev: 0.0,
                });
                rows.len() - 1
            }
        }
    }

    /// Per-connection piece choice: continue the piece already assigned to
    /// this (uploader, downloader) connection; otherwise pick rarest-first
    /// (by global replication count) among pieces no other connection of
    /// this downloader is fetching; if every candidate is taken, join the
    /// most-complete one (endgame mode). Returns the connection row the
    /// request was recorded on, whose `slot` names the open partial to
    /// credit, so the caller indexes both without a scan.
    #[inline]
    fn pick_piece(&mut self, u: usize, d: usize, tick: u64) -> Option<usize> {
        // Continue this connection's request while it is live, refreshing
        // its timestamp: data keeps flowing, so the request is live. Its
        // piece needs no bitmap check: open partials are unheld by `d`,
        // and the piece came from `u`'s bitmap, which never loses one.
        for (i, c) in self.peers.conns[d].iter_mut().enumerate() {
            if c.u as usize != u {
                continue;
            }
            if Self::request_live(c, tick) {
                c.ts = tick;
                return Some(i);
            }
            break;
        }
        // Pack the pieces taken by the downloader's other connections
        // into a one-row word bitmap, so the candidate walk below is a
        // pure word expression: `theirs & !mine & !taken`.
        self.taken_words.fill(0);
        let open = &self.peers.partials[d];
        for c in &self.peers.conns[d] {
            if c.u as usize != u && Self::request_live(c, tick) {
                let p = open[c.slot as usize].0;
                self.taken_words[p as usize / 64] |= 1u64 << (p % 64);
            }
        }
        // One word-level pass over the pieces `u` has and `d` lacks:
        // popcount the candidates and collect the free ones in ascending
        // piece order (same order the per-bit scan produced), noting
        // whether any free candidate is an open partial — `free & partial`
        // is nearly always empty, so the list is rarely searched.
        let mut free = std::mem::take(&mut self.scratch_free);
        free.clear();
        let mut n_candidates = 0usize;
        let mut free_partial = false;
        let taken = &self.taken_words;
        let theirs = self.bits.row(u);
        let mine = self.bits.row(d);
        let partial = self.partial_bits.row(d);
        for wi in 0..theirs.len() {
            let cand = theirs[wi] & !mine[wi];
            if cand == 0 {
                continue;
            }
            n_candidates += cand.count_ones() as usize;
            let free_w = cand & !taken[wi];
            free_partial |= free_w & partial[wi] != 0;
            let mut w = free_w;
            while w != 0 {
                free.push(wi * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
        let has = |words: &[u64], p: usize| words[p / 64] >> (p % 64) & 1 != 0;
        let slot = if n_candidates == 0 {
            // Nothing left on this connection: drop its request (the row
            // itself is compacted at the next window roll).
            if let Some(c) = self.peers.conns[d].iter_mut().find(|c| c.u as usize == u) {
                c.slot = NO_SLOT;
            }
            None
        } else if free.is_empty() {
            // Endgame: every interesting piece is already being fetched
            // from someone; double up on the most complete one. Each such
            // piece is a live request's open partial, so one is found.
            let pick = most_complete_open(open, |p| has(theirs, p));
            Some(pick.expect("every taken candidate is an open partial"))
        } else if free_partial {
            // Resume the most-complete orphaned partial before starting a
            // fresh piece, super-seeding or not: short unchoke windows
            // otherwise litter the peer with fragments of many pieces and
            // it completes none.
            most_complete_open(open, |p| has(theirs, p) && !has(taken, p))
        } else {
            let fresh = if self.cfg.super_seed && u == PUBLISHER {
                // Super-seeding: the publisher pushes its least-injected
                // piece, maximizing unique-piece injection into the swarm.
                let fresh = free
                    .iter()
                    .copied()
                    .min_by_key(|&p| self.injected[p])
                    .expect("free nonempty");
                self.injected[fresh] += 1;
                fresh
            } else if self.cfg.piece_selection == PieceSelection::Random {
                // Strawman policy for the selection ablation.
                *free.choose(&mut self.rng).expect("free nonempty")
            } else if self.cfg.piece_selection == PieceSelection::InOrder {
                // Streaming-style sequential pickup.
                free[0]
            } else {
                // Rarest-first by swarm-wide replication count, read
                // straight off the incremental index instead of scanning
                // the neighborhood's bitfields. (Seeds hold every piece
                // and shift all counts uniformly; the publisher is
                // excluded — so the induced ordering reflects
                // leecher-side scarcity.)
                let counts = &self.rep.counts;
                crate::policy::rarest_first(&free, |p| counts[p], &mut self.rng)
                    .expect("free nonempty")
            };
            // A fresh piece has no entry yet: open one.
            self.partial_bits.set(d, fresh);
            let open = &mut self.peers.partials[d];
            open.push((fresh as u32, 0.0));
            Some(open.len() - 1)
        };
        self.scratch_free = free;
        slot.map(|s| self.assign(d, u, s, tick))
    }

    fn complete(&mut self, d: usize, tick: u64) {
        let done_at = tick + 1; // completion lands at the end of this tick
        self.peers.completed[d] = done_at;
        self.completions_total += 1;
        if let Some(p) = &self.probes {
            p.completions.inc();
        }
        if let Some(ts) = &mut self.ts {
            ts.win_completions += 1;
        }
        self.result
            .completion_curve
            .push((done_at, self.completions_total));
        if self.peers.counted[d] {
            self.result.completions += 1;
            self.result
                .download_times
                .add((done_at - self.peers.arrived[d]) as f64);
        }
        if matches!(self.cfg.publisher, BtPublisher::UntilFirstCompletion)
            && !self.publisher_retired
        {
            self.retire_publisher(tick);
        }
        match self.cfg.linger_mean {
            Some(mean) => {
                let linger = exp_sample(&mut self.rng, mean).ceil() as u64;
                self.peers.linger_until[d] = done_at + linger.max(1);
                self.lingering_online += 1;
            }
            None => self.depart(d, done_at),
        }
    }

    /// Peer `i` leaves the swarm for good at `tick` (completion without
    /// linger, or linger expiry): it goes offline, its pieces leave the
    /// replication index, and its neighbor and connection lists are
    /// freed. No phase reads those lists for a departed peer — they are
    /// read only for online peers, and departed peers never return
    /// (DESIGN.md, "Departed peers never return").
    fn depart(&mut self, i: usize, tick: u64) {
        self.go_offline(i);
        self.peers.departed[i] = tick;
        self.rep.drop_holder(self.bits.row(i));
        self.online_nonpub -= 1;
        self.peers.neighbors[i] = Vec::new();
        self.peers.conns[i] = Vec::new();
    }

    fn linger_expiry(&mut self, tick: u64) {
        // Only lingering seeds can expire; skip the sweep entirely while
        // nobody is lingering (the common case in blocked swarms, where
        // this runs every tick). When someone is, sweep the sorted active
        // set instead of every peer that ever arrived: expiry is RNG-free
        // and index drops commute, so ascending-online order leaves the
        // replication index bit-identical to the old full ascending scan.
        if self.lingering_online == 0 {
            return;
        }
        self.fill_online();
        let sweep = std::mem::take(&mut self.scratch_online);
        for &i in &sweep {
            if i == PUBLISHER || !self.peers.online[i] {
                continue;
            }
            if self.peers.linger_until[i] <= tick {
                self.depart(i, tick);
                self.lingering_online -= 1;
            }
        }
        self.scratch_online = sweep;
    }

    /// From-scratch recount cross-check of the incremental index, the
    /// `online_ids` list and the per-peer allocations (debug builds only,
    /// every 60 ticks): every debug-mode engine run doubles as an
    /// index-consistency test.
    fn check_index_consistency(&self) {
        assert_eq!(
            self.online_ids.len(),
            self.peers.online.iter().filter(|&&o| o).count(),
            "online_ids out of sync with per-peer flags"
        );
        let mut counts = vec![0u32; self.num_pieces];
        for i in (1..self.peers.len()).filter(|&i| self.peers.online[i]) {
            for p in bitfield::ones(self.bits.row(i)) {
                counts[p] += 1;
            }
        }
        assert_eq!(counts, self.rep.counts, "replication counts drifted");
        assert_eq!(
            self.rep.covered,
            counts.iter().filter(|&&c| c > 0).count(),
            "coverage drifted"
        );
        assert_eq!(
            self.rep.min_count,
            counts.iter().copied().min().unwrap_or(0),
            "min replication drifted"
        );
        for i in 0..self.peers.len() {
            debug_assert_eq!(
                self.peers.num_held[i],
                bitfield::count_ones(self.bits.row(i)),
                "held-piece cache drifted"
            );
        }
        assert_eq!(
            self.online_nonpub,
            (1..self.peers.len())
                .filter(|&i| self.peers.online[i])
                .count(),
            "online-peer count drifted"
        );
        assert_eq!(
            self.lingering_online,
            (1..self.peers.len())
                .filter(|&i| self.peers.online[i] && self.is_seed(i))
                .count(),
            "lingering-seed count drifted"
        );
        // Open partials: unique, unheld, started and unfinished, each with
        // its `partial_bits` bit; every request's slot names an entry for
        // a piece its uploader holds. Seeds (departed peers among them:
        // peers leave only once complete) keep no list at all.
        for i in 0..self.peers.len() {
            let open = &self.peers.partials[i];
            if self.is_seed(i) {
                assert_eq!(open.capacity(), 0, "seed {i} kept its open partials");
            }
            for (slot, &(p, bytes)) in open.iter().enumerate() {
                let p = p as usize;
                assert!(
                    open[..slot].iter().all(|&(q, _)| q as usize != p),
                    "peer {i}: piece {p} open twice"
                );
                assert!(!self.bits.has(i, p), "peer {i}: held piece {p} still open");
                assert!(
                    bytes > 0.0 && bytes < self.piece_len(p),
                    "peer {i}: open piece {p} at {bytes} bytes"
                );
                assert!(
                    self.partial_bits.has(i, p),
                    "peer {i}: open piece {p} missing its partial bit"
                );
            }
            for c in &self.peers.conns[i] {
                let named = match c.slot {
                    NO_SLOT => true,
                    s => open
                        .get(s as usize)
                        .is_some_and(|&(p, _)| self.bits.has(c.u as usize, p as usize)),
                };
                assert!(named, "peer {i}: request on slot {} names no entry", c.slot);
            }
        }
        // Online peers' lists follow their live length (`give_back`): at
        // most four times it in capacity, and none when empty.
        for &i in &self.online_ids {
            let (rows, open) = (&self.peers.conns[i], &self.peers.partials[i]);
            assert!(
                rows.capacity() <= 4 * rows.len(),
                "peer {i} holds {} connection slots for {} rows",
                rows.capacity(),
                rows.len()
            );
            assert!(
                open.capacity() <= 4 * open.len(),
                "peer {i} holds {} open-partial slots for {} entries",
                open.capacity(),
                open.len()
            );
        }
        // Departed leechers keep no neighbor or connection storage.
        for i in (1..self.peers.len()).filter(|&i| self.peers.departed[i] != NEVER) {
            assert_eq!(
                self.peers.neighbors[i].capacity(),
                0,
                "departed peer {i} kept neighbors"
            );
            assert_eq!(
                self.peers.conns[i].capacity(),
                0,
                "departed peer {i} kept connections"
            );
        }
    }

    /// Close the run at `end`, the first tick not executed: the drain
    /// break, or `horizon + drain_ticks`.
    fn finalize(mut self, end: u64) -> BtResult {
        let horizon = self.cfg.horizon;
        if let Some(since) = self.publisher_online_since.take() {
            self.result.publisher_intervals.push((since, end));
        }
        self.result.availability = self.available_ticks as f64 / horizon as f64;
        self.result.in_flight_at_horizon = (1..self.peers.len())
            .filter(|&i| self.peers.online[i])
            .count() as u64;
        if self.cfg.record_timeline {
            self.result.spans = (1..self.peers.len())
                .map(|i| PeerSpan {
                    arrived: self.peers.arrived[i],
                    departed: tick_or_never(self.peers.departed[i]),
                    completed: tick_or_never(self.peers.completed[i]),
                    final_fraction: self.peers.num_held[i] as f64 / self.num_pieces as f64,
                })
                .collect();
        }
        self.result.max_flash_departures = max_flash_departures(&self.result.completion_curve);
        if self.probes.is_some() {
            swarm_obs::emit(
                "bt.run.end",
                &[
                    ("run", swarm_obs::val(self.run_ord)),
                    ("availability", swarm_obs::val(self.result.availability)),
                    ("completions", swarm_obs::val(self.result.completions)),
                    (
                        "last_available_tick",
                        swarm_obs::val(self.result.last_available_tick.unwrap_or(0)),
                    ),
                ],
            );
        }
        // Flush the trailing partial window and fold this run's series
        // into the process-global "bt" series (merging is additive, so
        // concurrent replications cannot perturb the drained result).
        if let Some(ts) = self.ts.take() {
            swarm_obs::merge_series_owned("bt", ts.finish());
        }
        self.result
    }
}

fn exp_sample<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    -(1.0 - rng.gen::<f64>()).ln() * mean
}

/// Flash departures: the most completions whose ticks differ by less
/// than [`FLASH_WINDOW`], i.e. the busiest `FLASH_WINDOW`-tick window.
/// `curve` lists every completion in tick order, so one two-pointer
/// sweep finds it.
fn max_flash_departures(curve: &[(u64, u64)]) -> u64 {
    let mut lo = 0;
    let mut best = 0;
    for (hi, &(t, _)) in curve.iter().enumerate() {
        while t - curve[lo].0 >= FLASH_WINDOW {
            lo += 1;
        }
        best = best.max(hi + 1 - lo);
    }
    best as u64
}

/// The per-tick form [`max_flash_departures`] replaced, kept as its test
/// reference: completions bucketed by the tick they happened in (one
/// before the curve's end-of-tick stamp) over a `run_ticks`-tick run,
/// then the largest sum over `FLASH_WINDOW` consecutive buckets.
#[cfg(test)]
fn max_flash_per_tick(curve: &[(u64, u64)], run_ticks: u64) -> u64 {
    let mut per_tick = vec![0u64; run_ticks as usize];
    for &(done_at, _) in curve {
        per_tick[(done_at - 1) as usize] += 1;
    }
    let w = FLASH_WINDOW as usize;
    (0..per_tick.len())
        .map(|i| per_tick[i..(i + w).min(per_tick.len())].iter().sum())
        .max()
        .unwrap_or(0)
}

/// Slot of the open partial with the most bytes among those whose piece
/// `eligible` accepts, ties going to the higher piece: `pick_piece`'s
/// resume and endgame choice. Pieces in `open` are distinct and hold
/// bytes, so over an ascending candidate list this is
/// [`crate::policy::most_complete_partial`]'s last-maximum-wins pick on
/// the dense progress view, which a proptest checks.
fn most_complete_open(open: &[(u32, f64)], eligible: impl Fn(usize) -> bool) -> Option<usize> {
    open.iter()
        .enumerate()
        .filter(|&(_, &(p, _))| eligible(p as usize))
        .max_by(|(_, a), (_, b)| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
        .map(|(slot, _)| slot)
}

/// Smallest multiple of `interval` that is ≥ `from`.
fn next_multiple(from: u64, interval: u64) -> u64 {
    let r = from % interval;
    if r == 0 {
        from
    } else {
        from + (interval - r)
    }
}

/// Number of multiples of `interval` in the half-open range `[from, to)`.
fn count_multiples(from: u64, to: u64, interval: u64) -> u64 {
    let first = next_multiple(from, interval);
    if first >= to {
        0
    } else {
        1 + (to - 1 - first) / interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitfield::Bitfield;
    use crate::capacity::CapacityDistribution;
    use proptest::prelude::*;

    fn always_on(k: u32, seed: u64) -> BtConfig {
        BtConfig {
            publisher: BtPublisher::AlwaysOn,
            ..BtConfig::paper_section_4_3(k, seed)
        }
    }

    #[test]
    fn next_multiple_and_count() {
        assert_eq!(next_multiple(1, 10), 10);
        assert_eq!(next_multiple(10, 10), 10);
        assert_eq!(next_multiple(11, 10), 20);
        assert_eq!(next_multiple(7, 1), 7);
        // Multiples of 10 in [from, to).
        assert_eq!(count_multiples(1, 10, 10), 0);
        assert_eq!(count_multiples(1, 11, 10), 1);
        assert_eq!(count_multiples(10, 11, 10), 1);
        assert_eq!(count_multiples(11, 30, 10), 1);
        assert_eq!(count_multiples(11, 31, 10), 2);
        assert_eq!(count_multiples(5, 5, 10), 0);
        // Interval 1: every tick is a boundary.
        assert_eq!(count_multiples(3, 9, 1), 6);
    }

    #[test]
    fn fast_forward_preserves_golden_trace() {
        // The elided engine must reproduce the dense golden trace
        // byte-for-byte — same RNG stream, same curves.
        let cfg = BtConfig {
            record_timeline: true,
            horizon: 600,
            drain_ticks: 300,
            linger_mean: Some(120.0),
            ..BtConfig::paper_section_4_3(2, 42)
        };
        let dense = BtConfig {
            disable_fast_forward: true,
            ..cfg.clone()
        };
        let a = serde_json::to_string(&run(&dense)).expect("serialize");
        let b = serde_json::to_string(&run(&cfg)).expect("serialize");
        assert_eq!(a, b, "fast-forward must not change the golden trace");
    }

    #[test]
    fn publisher_intervals_are_ordered_and_end_with_the_run() {
        // §4.3's intermittent publisher often returns during the drain;
        // an interval still open when the run stops must end at the tick
        // it stopped, not at the horizon before it began.
        for k in [1, 2, 4] {
            for seed in 0..20 {
                let cfg = BtConfig::paper_section_4_3(k, seed);
                let end = cfg.horizon + cfg.drain_ticks;
                let intervals = run(&cfg).publisher_intervals;
                for &(start, stop) in &intervals {
                    assert!(
                        start <= stop && stop <= end,
                        "k{k} seed {seed}: [{start}, {stop}) outside [0, {end})"
                    );
                }
                for pair in intervals.windows(2) {
                    assert!(
                        pair[0].1 <= pair[1].0,
                        "k{k} seed {seed}: {pair:?} not ascending and disjoint"
                    );
                }
            }
        }
    }

    #[test]
    fn periodic_publisher_follows_square_wave() {
        // Deterministic schedule: on [0,150) ∪ [210,360), off [150,210).
        // With scripted arrivals that all complete inside the first ON
        // phase and no lingering, availability is exactly the publisher
        // schedule and the off span is the only unavailable stretch.
        let mut cfg = always_on(1, 9);
        cfg.publisher = BtPublisher::Periodic {
            on_ticks: 150,
            off_ticks: 60,
            initially_on: true,
        };
        cfg.horizon = 360;
        cfg.drain_ticks = 0;
        cfg.file_size = 1_000.0; // 4 pieces — everyone finishes fast
        cfg.publisher_capacity = 200.0;
        cfg.scripted_arrivals = Some((0..8).map(|i| (i as u64, 100.0)).collect());
        let r = run(&cfg);
        assert_eq!(r.arrivals, 8);
        assert_eq!(r.completions, 8, "everyone finishes in the first ON phase");
        assert_eq!(
            r.publisher_intervals,
            vec![(0, 150), (210, 360)],
            "square wave must toggle exactly at the configured boundaries"
        );
        let expected = (360.0 - 60.0) / 360.0;
        assert!(
            (r.availability - expected).abs() < 1e-12,
            "availability {} != {}",
            r.availability,
            expected
        );
    }

    #[test]
    fn scripted_arrivals_are_exact_and_fast_forward_safe() {
        // The scripted schedule admits peers at the listed ticks with the
        // listed capacities, dense and elided runs agree byte-for-byte,
        // and two runs are deterministic.
        let mut cfg = always_on(1, 3);
        cfg.horizon = 400;
        cfg.drain_ticks = 0;
        cfg.record_timeline = true;
        cfg.scripted_arrivals = Some(vec![(0, 50.0), (5, 80.0), (5, 30.0), (120, 60.0)]);
        let dense = BtConfig {
            disable_fast_forward: true,
            ..cfg.clone()
        };
        let a = serde_json::to_string(&run(&cfg)).expect("serialize");
        let b = serde_json::to_string(&run(&dense)).expect("serialize");
        assert_eq!(a, b, "fast-forward must not change scripted runs");
        let r = run(&cfg);
        assert_eq!(r.arrivals, 4);
        assert_eq!(r.spans.len(), 4, "one span per scripted peer");
        assert_eq!(
            r.spans.iter().map(|s| s.arrived).collect::<Vec<_>>(),
            vec![0, 5, 5, 120]
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&always_on(1, 5));
        let b = run(&always_on(1, 5));
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.download_times.values(), b.download_times.values());
    }

    #[test]
    fn golden_trace_byte_identical() {
        // The determinism contract: a fixed seed must yield a
        // byte-identical serialized BtResult, every timeline curve
        // included. Lingering exercises the linger-expiry path of the
        // replication index as well.
        let cfg = BtConfig {
            record_timeline: true,
            horizon: 600,
            drain_ticks: 300,
            linger_mean: Some(120.0),
            ..BtConfig::paper_section_4_3(2, 42)
        };
        let a = serde_json::to_string(&run(&cfg)).expect("serialize");
        let b = serde_json::to_string(&run(&cfg)).expect("serialize");
        assert_eq!(a, b, "same seed must produce a byte-identical trace");
    }

    #[test]
    fn telemetry_probes_do_not_perturb_results() {
        // The instrumented engine must be tick-for-tick identical to the
        // bare one: probes never touch the RNG stream. Compare the full
        // serialized trace with recording off vs. on, and check the
        // probes actually recorded something while enabled.
        let cfg = BtConfig {
            record_timeline: true,
            horizon: 400,
            drain_ticks: 200,
            linger_mean: Some(60.0),
            ..BtConfig::paper_section_4_3(2, 7)
        };
        let bare = serde_json::to_string(&run(&cfg)).expect("serialize");
        swarm_obs::set_enabled(true);
        let ticks_before = swarm_obs::counter("bt.ticks").get();
        let instrumented = serde_json::to_string(&run(&cfg)).expect("serialize");
        let ticks_after = swarm_obs::counter("bt.ticks").get();
        swarm_obs::set_enabled(false);
        assert_eq!(bare, instrumented, "probes must not change the trace");
        assert!(
            ticks_after > ticks_before,
            "tick counter advanced while enabled"
        );
    }

    proptest! {
        #[test]
        fn replication_index_matches_recount(
            // Word-boundary-straddling piece counts exercise the batched
            // word-walk in `drop_holder` across full, single-bit and
            // empty tail words (the 24-piece point keeps the original
            // dense-collision regime).
            pieces in prop::sample::select(
                vec![24usize, 63, 64, 65, 127, 128, 129],
            ),
            ops in prop::collection::vec(
                (0usize..8, 0usize..1024, prop::bool::ANY),
                1..200,
            ),
        ) {
            // Model: 8 peers over `pieces` pieces. Each op either grants
            // a piece to an online peer or takes a peer offline — the
            // only two event kinds the engine feeds the index. The
            // incremental state must match a from-scratch recount after
            // every event.
            let mut held: Vec<Bitfield> =
                (0..8).map(|_| Bitfield::new(pieces)).collect();
            let mut online = [true; 8];
            let mut rep = ReplicationIndex::new(pieces);
            for (peer, piece, depart) in ops {
                let piece = piece % pieces;
                if depart {
                    if online[peer] {
                        online[peer] = false;
                        rep.drop_holder(held[peer].as_words());
                    }
                } else if online[peer] && !held[peer].has(piece) {
                    held[peer].set(piece);
                    rep.gain(piece);
                }
                let recount: Vec<u32> = (0..pieces)
                    .map(|p| {
                        (0..8)
                            .filter(|&n| online[n] && held[n].has(p))
                            .count() as u32
                    })
                    .collect();
                prop_assert_eq!(&rep.counts, &recount);
                prop_assert_eq!(
                    rep.covered,
                    recount.iter().filter(|&&c| c > 0).count()
                );
                prop_assert_eq!(
                    rep.min_count,
                    recount.iter().copied().min().unwrap_or(0)
                );
                let mut sorted: Vec<usize> =
                    recount.iter().map(|&c| c as usize).collect();
                sorted.sort_unstable();
                prop_assert_eq!(rep.sorted_counts(), sorted);
            }
        }

        #[test]
        fn flash_sweep_matches_per_tick_windows(
            start in 1u64..8,
            // Gaps of 0 stack completions in one tick; FLASH_WINDOW - 1,
            // FLASH_WINDOW and FLASH_WINDOW + 1 straddle the window edge.
            gaps in prop::collection::vec(
                prop::sample::select(vec![0u64, 0, 1, 2, 4, 5, 6, 9]),
                0..40,
            ),
            one_tick in prop::bool::ANY,
            tail in 0u64..8,
        ) {
            let mut t = start;
            let mut curve = Vec::new();
            for (n, &gap) in gaps.iter().enumerate() {
                if !one_tick {
                    t += gap;
                }
                curve.push((t, n as u64 + 1));
            }
            let run_ticks = t + tail;
            prop_assert_eq!(
                max_flash_departures(&curve),
                max_flash_per_tick(&curve, run_ticks)
            );
        }

        #[test]
        fn ts_add_ticks_ignores_how_a_range_is_split(
            // Per span: length kind, short length, bytes, blocked
            // leechers, availability credit, arrivals at its first tick.
            spans in prop::collection::vec(
                (
                    prop::sample::select(vec![0usize, 0, 1, 1, 2, 2, 2, 3]),
                    1u64..200,
                    0u64..1_000,
                    0u64..6,
                    prop::bool::ANY,
                    0u64..3,
                ),
                1..24,
            ),
        ) {
            // The engine accounts a dense tick as a one-tick span and a
            // fast-forward jump as one long span; the series must not
            // tell them apart. Account a range span by span, and again
            // one tick at a time, and compare the serialized series.
            let mut split = TsAcc::new();
            let mut dense = TsAcc::new();
            let mut t = 0;
            for (kind, short, bytes, blocked, available, arrivals) in spans {
                let len = match kind {
                    0 => 1,
                    // Land exactly on the next window boundary.
                    1 => TS_WINDOW - t % TS_WINDOW,
                    2 => short,
                    // Outgrow the recorder's capacity, so the stride
                    // doubles.
                    _ => TS_CAPACITY as u64 * TS_WINDOW + short * 61,
                };
                split.win_arrivals += arrivals;
                dense.win_arrivals += arrivals;
                split.add_ticks(t, t + len, bytes, blocked, available);
                for tick in t..t + len {
                    dense.add_ticks(tick, tick + 1, bytes, blocked, available);
                }
                t += len;
            }
            let jsonl = |ts: TsAcc| {
                let series = std::collections::BTreeMap::from([("bt".to_string(), ts.finish())]);
                swarm_obs::series_to_jsonl(&series)
            };
            prop_assert_eq!(jsonl(split), jsonl(dense));
        }

        #[test]
        fn most_complete_open_matches_dense_selection(
            // Per piece: bytes received (0 = not open; repeated multiples
            // of 50 force the equal-byte ties that homogeneous 50 kB/s
            // peers make constantly), whether it is a candidate, and a
            // key that scrambles list order as `swap_remove` does. Up to
            // 140 pieces spans three bitmap words; short vectors give
            // empty lists and candidate sets with no open partial.
            cells in prop::collection::vec(
                (
                    prop::sample::select(vec![0.0f64, 0.0, 0.0, 50.0, 50.0, 100.0, 150.0, 237.5]),
                    prop::bool::ANY,
                    0u32..1_000,
                ),
                0..140,
            ),
        ) {
            let dense: Vec<f64> = cells.iter().map(|c| c.0).collect();
            let mut keyed: Vec<(u32, u32, f64)> = (0..cells.len())
                .filter(|&p| dense[p] > 0.0)
                .map(|p| (cells[p].2, p as u32, dense[p]))
                .collect();
            keyed.sort_unstable_by_key(|&(key, p, _)| (key, p));
            let open: Vec<(u32, f64)> = keyed.iter().map(|&(_, p, b)| (p, b)).collect();
            let piece = |slot: Option<usize>| slot.map(|s| open[s].0 as usize);
            // Resume: the most complete free candidate, as the policy
            // picks it over the ascending free list and dense progress.
            let free: Vec<usize> = (0..cells.len()).filter(|&p| cells[p].1).collect();
            prop_assert_eq!(
                piece(most_complete_open(&open, |p| cells[p].1)),
                crate::policy::most_complete_partial(&free, |p| dense[p])
            );
            // Endgame: every candidate is open, and the dense engine's
            // ascending scan kept the last maximum.
            let mut scan: Option<usize> = None;
            for p in free.iter().copied().filter(|&p| dense[p] > 0.0) {
                match scan {
                    Some(b) if dense[p] < dense[b] => {}
                    _ => scan = Some(p),
                }
            }
            prop_assert_eq!(
                piece(most_complete_open(&open, |p| cells[p].1 && dense[p] > 0.0)),
                scan
            );
        }

        #[test]
        fn drop_holder_matches_per_bit_lose(
            pieces in prop::sample::select(
                vec![1usize, 63, 64, 65, 127, 128, 129],
            ),
            other_holders in prop::collection::vec(0usize..1024, 0..64),
            held_pieces in prop::collection::vec(0usize..1024, 0..64),
        ) {
            // The word-batched drop must leave the index in exactly the
            // state the naive per-bit `lose` loop produces: replay the
            // same gains into two indices, then drop one holder's bitmap
            // both ways.
            let mut held = Bitfield::new(pieces);
            for &p in &held_pieces {
                held.set(p % pieces);
            }
            let mut batched = ReplicationIndex::new(pieces);
            let mut naive = ReplicationIndex::new(pieces);
            for &p in &other_holders {
                batched.gain(p % pieces);
                naive.gain(p % pieces);
            }
            for p in held.ones() {
                batched.gain(p);
                naive.gain(p);
            }
            batched.drop_holder(held.as_words());
            for p in held.ones() {
                naive.lose(p);
            }
            prop_assert_eq!(&batched.counts, &naive.counts);
            prop_assert_eq!(batched.covered, naive.covered);
            prop_assert_eq!(batched.min_count, naive.min_count);
            prop_assert_eq!(batched.sorted_counts(), naive.sorted_counts());
        }
    }

    #[test]
    fn peers_complete_under_always_on_publisher() {
        let r = run(&always_on(1, 7));
        assert!(r.completions > 0, "someone must finish in 1200 s");
        // 4 MB at >= 50 kB/s aggregate: download times bounded well below
        // the horizon; availability is total.
        assert!(r.availability > 0.999);
        assert!(
            r.mean_download_time() < 600.0,
            "mean {}",
            r.mean_download_time()
        );
    }

    #[test]
    fn download_time_at_least_size_over_capacity() {
        let r = run(&always_on(1, 9));
        // 4000 kB at download_cap 4000 kB/s: absolute floor 1 s; with one
        // 100 kB/s publisher the realistic floor is 40 s. Check the hard
        // physical bound holds for every peer.
        for &t in r.download_times.values() {
            assert!(t >= 4000.0 / 4000.0, "download time {t} impossibly fast");
        }
    }

    #[test]
    fn arrival_rate_respected() {
        let cfg = BtConfig {
            horizon: 3_000,
            ..always_on(2, 11)
        };
        let r = run(&cfg);
        let expected = cfg.arrival_rate * cfg.horizon as f64;
        let got = r.arrivals as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "arrivals {got} vs {expected}"
        );
    }

    #[test]
    fn seedless_swarm_small_k_dies_large_k_sustains() {
        // The Figure 4 contrast in miniature: K=1 stops serving peers soon
        // after the publisher leaves; K=8 keeps completing downloads.
        let small = run(&BtConfig::paper_section_4_2(1, 13));
        let large = run(&BtConfig::paper_section_4_2(8, 13));
        // K=1: the swarm dies early; completions stop well before 1500 s.
        let small_late = small.completions_between(900, 1_500);
        let large_late = large.completions_between(900, 1_500);
        assert!(
            large_late > small_late,
            "self-sustaining K=8 must keep completing: late completions {large_late} vs {small_late}"
        );
        assert!(
            large.last_available_tick.unwrap_or(0) > small.last_available_tick.unwrap_or(0),
            "K=8 must stay available longer"
        );
    }

    #[test]
    fn intermittent_publisher_blocks_small_bundles() {
        // §4.3: K=1 with an on/off publisher leaves peers stuck during off
        // periods; mean download time far exceeds the 80 s service time.
        let cfg = BtConfig {
            horizon: 4_800,
            ..BtConfig::paper_section_4_3(1, 17)
        };
        let r = run(&cfg);
        assert!(r.completions > 0);
        assert!(
            r.mean_download_time() > 160.0,
            "waiting should dominate: mean {}",
            r.mean_download_time()
        );
        assert!(r.availability < 0.9);
    }

    #[test]
    fn flash_departures_shrink_with_bundling() {
        // Figure 5: blocked peers finishing together (flash departures)
        // are the K=2 signature and fade by K=4. The raw burst size grows
        // with K (more arrivals overall), so compare the burst *share*:
        // the largest 5 s window's fraction of all completions. Average
        // over seeds to damp run-to-run noise.
        let flash_share = |k: u32| -> f64 {
            (0..4)
                .map(|s| {
                    let cfg = BtConfig {
                        horizon: 2_400,
                        ..BtConfig::paper_section_4_3(k, 100 + s)
                    };
                    let r = run(&cfg);
                    let total = r.completion_curve.len().max(1) as f64;
                    r.max_flash_departures as f64 / total
                })
                .sum::<f64>()
                / 4.0
        };
        let f2 = flash_share(2);
        let f4 = flash_share(4);
        assert!(
            f2 > f4,
            "flash-departure share must shrink with K: K=2 {f2} vs K=4 {f4}"
        );
    }

    #[test]
    fn lingering_seeds_keep_swarm_available() {
        let selfish = BtConfig::paper_section_4_2(2, 23);
        let altruists = BtConfig {
            linger_mean: Some(600.0),
            ..selfish.clone()
        };
        let a = run(&selfish);
        let b = run(&altruists);
        assert!(
            b.availability >= a.availability,
            "lingering cannot hurt availability: {} vs {}",
            b.availability,
            a.availability
        );
    }

    #[test]
    fn heterogeneous_capacities_run() {
        let cfg = BtConfig {
            peer_capacity: CapacityDistribution::BitTyrant,
            ..BtConfig::paper_section_4_3(3, 29)
        };
        let r = run(&cfg);
        assert!(r.completions > 0);
    }

    #[test]
    fn timeline_spans_recorded() {
        let cfg = BtConfig {
            record_timeline: true,
            ..always_on(1, 31)
        };
        let r = run(&cfg);
        assert!(!r.spans.is_empty());
        for s in &r.spans {
            if let (Some(c), Some(d)) = (s.completed, s.departed) {
                assert!(d >= c || s.final_fraction < 1.0);
            }
            assert!(s.final_fraction >= 0.0 && s.final_fraction <= 1.0);
        }
        assert!(!r.publisher_intervals.is_empty());
    }

    #[test]
    fn in_order_selection_destroys_diversity() {
        // Streaming-style sequential pickup: every peer holds a prefix,
        // so the swarm dies the moment the publisher leaves — far faster
        // than under rarest-first.
        use crate::config::PieceSelection;
        let survival = |selection: PieceSelection| -> f64 {
            (0..3)
                .map(|s| {
                    let cfg = BtConfig {
                        piece_selection: selection,
                        record_timeline: true,
                        horizon: 2_500,
                        ..BtConfig::paper_section_4_2(6, 400 + s)
                    };
                    let r = run(&cfg);
                    let pub_end = r.publisher_intervals.first().map(|p| p.1).unwrap_or(0);
                    r.peer_coverage_curve
                        .iter()
                        .filter(|&&(t, _)| t > pub_end)
                        .take_while(|&&(_, c)| c == cfg.num_pieces())
                        .count() as f64
                })
                .sum::<f64>()
                / 3.0
        };
        let rarest = survival(PieceSelection::RarestFirst);
        let in_order = survival(PieceSelection::InOrder);
        assert!(
            in_order < rarest,
            "in-order must die faster: {in_order} vs rarest-first {rarest}"
        );
    }

    #[test]
    fn selection_policies_order_piece_injection() {
        // Average tick at which the peer swarm first covers every piece
        // (publisher always on).
        use crate::config::PieceSelection;
        let coverage_tick = |super_seed: bool, selection: PieceSelection| -> f64 {
            (0..4)
                .map(|s| {
                    let cfg = BtConfig {
                        publisher: BtPublisher::AlwaysOn,
                        super_seed,
                        piece_selection: selection,
                        record_timeline: true,
                        horizon: 2_000,
                        drain_ticks: 0,
                        ..BtConfig::paper_section_4_2(6, 300 + s)
                    };
                    let r = run(&cfg);
                    let full = cfg.num_pieces();
                    r.peer_coverage_curve
                        .iter()
                        .find(|&&(_, c)| c == full)
                        .map(|&(t, _)| t as f64)
                        .unwrap_or(2_000.0)
                })
                .sum::<f64>()
                / 4.0
        };
        let rarest = coverage_tick(false, PieceSelection::RarestFirst);
        let random = coverage_tick(false, PieceSelection::Random);
        let random_ss = coverage_tick(true, PieceSelection::Random);
        // Legout et al.: rarest-first is enough — and strictly better than
        // random selection for injection.
        assert!(
            rarest < random,
            "rarest-first must inject faster than random: {rarest} vs {random}"
        );
        // Super-seeding rescues a swarm with impaired (random) selection.
        assert!(
            random_ss < random,
            "super-seeding must help under random selection: {random_ss} vs {random}"
        );
    }

    #[test]
    fn aggregate_rate_bounded_by_total_capacity() {
        let cfg = BtConfig {
            record_timeline: true,
            horizon: 600,
            drain_ticks: 0,
            publisher: BtPublisher::AlwaysOn,
            ..BtConfig::paper_section_4_3(2, 51)
        };
        let r = run(&cfg);
        assert!(!r.aggregate_rate_curve.is_empty());
        // Peak aggregate rate cannot exceed publisher + all peers' upload
        // capacity (50 kB/s each; population bounded by arrivals).
        let max_rate = r
            .aggregate_rate_curve
            .iter()
            .map(|&(_, b)| b)
            .fold(0.0f64, f64::max);
        let cap = 100.0 + 50.0 * r.arrivals as f64;
        assert!(
            max_rate <= cap + 1e-6,
            "rate {max_rate} exceeds capacity {cap}"
        );
        // And total bytes moved >= completed downloads * content size.
        let total: f64 = r.aggregate_rate_curve.iter().map(|&(_, b)| b).sum();
        assert!(total >= r.completions as f64 * cfg.content_size() - 1e-6);
    }

    #[test]
    fn completion_curve_is_monotone() {
        let r = run(&always_on(2, 37));
        assert!(r
            .completion_curve
            .windows(2)
            .all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
    }
}
