//! Real-socket host: the same cores over `std::net` TCP.
//!
//! This host exists to prove the protocol stack is not a simulation
//! artifact: [`PeerCore`] and [`TrackerCore`] run unmodified over real
//! sockets, paced by a wall-clock ticker instead of virtual ticks, with
//! frames carried by the identical wire codec. It is exercised by the
//! loopback smoke test (2 seeds + 3 leechers on 127.0.0.1), which is
//! `#[ignore]` by default and run by its own CI job — wall-clock runs
//! are inherently nondeterministic, so they assert protocol outcomes
//! (everyone completes, the tracker census agrees), never traces.
//!
//! ## Connection model
//!
//! Every endpoint sends only on connections it opened and reads from
//! everything. The first frame on any outbound connection is an
//! *identification handshake* consumed by the host layer (it names the
//! sender's endpoint id); it is never shown to the core. Protocol-level
//! handshakes travel as ordinary frames after it. The tracker is the
//! one exception to "send only on outbound": it replies on the inbound
//! connection the request arrived on, and peers therefore poll their
//! outbound tracker connection for responses.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::peer::{PeerCore, PeerParams, TRACKER};
use crate::run::{next_net_run_ordinal, peer_stream};
use crate::tracker::TrackerCore;
use crate::wire::{self, Message};
use swarm_obs::Recorder;

/// Ticks between `net.health` snapshots per peer thread, and the width
/// of the `"net.tcp"` recorder windows.
const HEALTH_INTERVAL: u64 = 20;
/// Ticks without download progress before an incomplete online leecher
/// is flagged stalled.
const STALL_TICKS: u64 = 40;

/// Outcome of one TCP smoke run.
#[derive(Debug, Clone)]
pub struct TcpSmokeReport {
    /// Leechers that completed before the deadline.
    pub completions: u64,
    /// Tracker census at the end (seeders, leechers) — stopped peers
    /// excluded, so this counts the still-serving seeds.
    pub census: (u32, u32),
    /// Ticks the slowest leecher needed, if all completed.
    pub slowest_completion_tick: Option<u64>,
    /// Where the live `GET /metrics` exposition was served, when
    /// [`TcpSmokeOpts::metrics_port`] asked for one.
    pub metrics_addr: Option<SocketAddr>,
}

/// Host-level options for [`run_tcp_smoke_with`].
#[derive(Debug, Clone)]
pub struct TcpSmokeOpts {
    /// Serve a live Prometheus-style `GET /metrics` text exposition on
    /// `127.0.0.1:<port>` for the duration of the run (`0` lets the OS
    /// pick; the bound address lands in [`TcpSmokeReport::metrics_addr`]
    /// and on [`TcpSmokeOpts::on_metrics_addr`]).
    pub metrics_port: Option<u16>,
    /// Receives the bound metrics address as soon as the exposition
    /// endpoint is up, so callers can poll it *while the swarm runs*.
    pub on_metrics_addr: Option<std::sync::mpsc::Sender<SocketAddr>>,
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Sender's endpoint id; `None` until the identification handshake
    /// arrives on an inbound connection.
    from: Option<usize>,
}

impl Conn {
    fn new(stream: TcpStream, from: Option<usize>) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
            from,
        })
    }

    /// Pull whatever bytes are available and decode complete frames.
    /// Returns `(closed, messages)`.
    fn poll(&mut self) -> (bool, Vec<(usize, Message)>) {
        let mut scratch = [0u8; 4096];
        loop {
            match self.stream.read(&mut scratch) {
                Ok(0) => return (true, self.drain()),
                Ok(n) => self.buf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => return (true, self.drain()),
            }
        }
        (false, self.drain())
    }

    fn drain(&mut self) -> Vec<(usize, Message)> {
        let msgs = match wire::drain_frames(&mut self.buf) {
            Ok(m) => m,
            // A malformed stream poisons the connection; drop what we
            // had and let the closure path clean up.
            Err(_) => return Vec::new(),
        };
        let mut out = Vec::with_capacity(msgs.len());
        for msg in msgs {
            match self.from {
                Some(id) => out.push((id, msg)),
                None => {
                    // First frame identifies the sender; it is host
                    // plumbing, not protocol input.
                    if let Message::Handshake { peer, .. } = msg {
                        self.from = Some(peer as usize);
                    }
                }
            }
        }
        out
    }
}

/// Shared id → address book, filled at bind time before any traffic.
type AddrBook = Arc<Mutex<HashMap<usize, SocketAddr>>>;

fn send_frames(
    my_id: usize,
    pieces: u32,
    outbound: &mut HashMap<usize, Conn>,
    book: &AddrBook,
    batch: Vec<(usize, Message)>,
) {
    for (to, msg) in batch {
        if let std::collections::hash_map::Entry::Vacant(slot) = outbound.entry(to) {
            let addr = match book.lock().expect("addr book poisoned").get(&to).copied() {
                Some(a) => a,
                None => continue,
            };
            let Ok(stream) = TcpStream::connect(addr) else {
                continue;
            };
            let ident = wire::encode(&Message::Handshake {
                peer: my_id as u64,
                pieces,
            });
            let mut conn = match Conn::new(stream, Some(to)) {
                Ok(c) => c,
                Err(_) => continue,
            };
            if conn.stream.write_all(&ident).is_err() {
                continue;
            }
            slot.insert(conn);
        }
        let conn = outbound.get_mut(&to).expect("just inserted");
        if conn.stream.write_all(&wire::encode(&msg)).is_err() {
            outbound.remove(&to);
        }
    }
}

fn tracker_thread(listener: TcpListener, stop: Arc<AtomicBool>, seed: u64) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let mut core = TrackerCore::new(40);
    let mut rng = peer_stream(seed, TRACKER as u64);
    let mut conns: Vec<Conn> = Vec::new();
    while !stop.load(Ordering::Acquire) {
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(c) = Conn::new(stream, None) {
                conns.push(c);
            }
        }
        let mut closed = Vec::new();
        for (i, conn) in conns.iter_mut().enumerate() {
            let (dead, msgs) = conn.poll();
            let mut out = Vec::new();
            for (from, msg) in &msgs {
                core.handle(*from, msg, &mut rng, &mut out);
            }
            // The tracker replies on the connection the request came on.
            for (_, msg) in out {
                if conn.stream.write_all(&wire::encode(&msg)).is_err() {
                    closed.push(i);
                    break;
                }
            }
            if dead {
                closed.push(i);
            }
        }
        for i in closed.into_iter().rev() {
            conns.swap_remove(i);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Handles every peer thread shares with the host.
#[derive(Clone)]
struct PeerShared {
    book: AddrBook,
    stop: Arc<AtomicBool>,
    completions: Arc<AtomicU64>,
    slowest: Arc<AtomicU64>,
    /// Live slice of the `"net.tcp"` time series; peer threads add
    /// per-tick deltas, the metrics endpoint renders it, and the host
    /// merges it into the global registry at the end of the run.
    ts: Arc<Mutex<Recorder>>,
}

/// Wall-clock tick source: quantizes real elapsed time into ticks of
/// `tick_ms` milliseconds, so the protocol logic sees the same tick
/// domain as under the loopback coordinator.
struct WallTicker {
    start: Instant,
    tick_ms: u64,
}

impl WallTicker {
    fn new(tick_ms: u64) -> Self {
        WallTicker {
            start: Instant::now(),
            tick_ms: tick_ms.max(1),
        }
    }

    /// The tick the wall clock is currently inside.
    fn current_tick(&self) -> u64 {
        (self.start.elapsed().as_millis() as u64) / self.tick_ms
    }
}

/// Per-run pacing, identical for every peer thread.
#[derive(Clone, Copy)]
struct PeerPacing {
    tick_ms: u64,
    max_ticks: u64,
    run: u64,
}

fn peer_thread(mut core: PeerCore, listener: TcpListener, shared: PeerShared, pacing: PeerPacing) {
    listener
        .set_nonblocking(true)
        .expect("nonblocking listener");
    let my_id = core.id;
    let pieces = core.bitfield.len() as u32;
    let ticker = WallTicker::new(pacing.tick_ms);
    let mut inbound: Vec<Conn> = Vec::new();
    let mut outbound: HashMap<usize, Conn> = HashMap::new();
    let mut counted_done = false;
    let mut last_tick = u64::MAX;
    let mut pending: Vec<(usize, Message)> = Vec::new();
    // Stall detector state: last observed byte total and when it moved.
    let mut last_bytes = core.bytes_received;
    let mut last_progress_tick = 0u64;
    let mut stalled = false;
    // Rounded cumulative totals behind the recorder deltas, so window
    // sums telescope to the endpoint totals.
    let mut ts_prev_bytes = core.bytes_received.round() as u64;
    let mut ts_prev_pieces = core.bitfield.count() as u64;
    while !shared.stop.load(Ordering::Acquire) {
        let tick = ticker.current_tick();
        if tick > pacing.max_ticks {
            break;
        }
        while let Ok((stream, _)) = listener.accept() {
            if let Ok(c) = Conn::new(stream, None) {
                inbound.push(c);
            }
        }
        let mut closed = Vec::new();
        for (i, conn) in inbound.iter_mut().enumerate() {
            let (dead, msgs) = conn.poll();
            pending.extend(msgs);
            if dead {
                closed.push(i);
            }
        }
        for i in closed.into_iter().rev() {
            inbound.swap_remove(i);
        }
        let mut dead_out = Vec::new();
        for (&id, conn) in outbound.iter_mut() {
            let (dead, msgs) = conn.poll();
            pending.extend(msgs);
            if dead {
                dead_out.push(id);
            }
        }
        for id in dead_out {
            outbound.remove(&id);
        }
        // Frames accumulate between tick edges; the core steps exactly
        // once per wall tick, like one virtual round.
        if tick != last_tick {
            last_tick = tick;
            let mut out = Vec::new();
            core.step(tick, std::mem::take(&mut pending), &mut out);
            send_frames(my_id, pieces, &mut outbound, &shared.book, out);
            let mut just_completed = false;
            if !counted_done && core.completed.is_some() && !core.is_publisher {
                counted_done = true;
                just_completed = true;
                shared.completions.fetch_add(1, Ordering::Relaxed);
                shared
                    .slowest
                    .fetch_max(core.completed.unwrap_or(0), Ordering::Relaxed);
            }
            // Download-progress watchdog: an online, incomplete leecher
            // whose byte total has not moved for `STALL_TICKS` is
            // stalled. One event per episode; any progress re-arms the
            // detector.
            let mut just_stalled = false;
            if core.bytes_received > last_bytes {
                last_bytes = core.bytes_received;
                last_progress_tick = tick;
                stalled = false;
            } else if !stalled
                && !core.is_publisher
                && core.online
                && core.completed.is_none()
                && tick.saturating_sub(last_progress_tick) >= STALL_TICKS
            {
                stalled = true;
                just_stalled = true;
                if swarm_obs::enabled() {
                    // Wall-clock behavior → `stats.` prefix keeps the
                    // counter out of the deterministic diff domain.
                    swarm_obs::counter("stats.net.stalls").inc();
                    swarm_obs::emit(
                        "net.stall",
                        &[
                            ("run", swarm_obs::val(pacing.run)),
                            ("tick", swarm_obs::val(tick)),
                            ("peer", swarm_obs::val(my_id as u64)),
                            (
                                "since",
                                swarm_obs::val(tick.saturating_sub(last_progress_tick)),
                            ),
                        ],
                    );
                }
            }
            // Windowed telemetry: per-tick deltas into the shared
            // recorder. Additive merging across peer threads means the
            // window sums are the swarm totals; wall ticks are the
            // window key, so the series lines up with the health
            // events' tick axis.
            {
                let bytes = core.bytes_received.round() as u64;
                let pieces_now = core.bitfield.count() as u64;
                let mut ts = shared.ts.lock().unwrap_or_else(|e| e.into_inner());
                ts.add_batch(
                    tick,
                    &[
                        ("peer_ticks", 1),
                        ("bytes_moved", bytes.saturating_sub(ts_prev_bytes)),
                        ("pieces", pieces_now.saturating_sub(ts_prev_pieces)),
                        ("completions", u64::from(just_completed)),
                        ("stalls", u64::from(just_stalled)),
                    ],
                );
                ts_prev_bytes = bytes;
                ts_prev_pieces = pieces_now;
            }
            if swarm_obs::enabled() && tick.is_multiple_of(HEALTH_INTERVAL) {
                swarm_obs::emit(
                    "net.health",
                    &[
                        ("run", swarm_obs::val(pacing.run)),
                        ("tick", swarm_obs::val(tick)),
                        ("peer", swarm_obs::val(my_id as u64)),
                        ("pieces", swarm_obs::val(core.bitfield.count() as u64)),
                        ("bytes_kb", swarm_obs::val(core.bytes_received)),
                        ("neighbors", swarm_obs::val(core.neighbor_count() as u64)),
                        ("online", swarm_obs::val(core.online)),
                        ("stalled", swarm_obs::val(stalled)),
                    ],
                );
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Run a small real-TCP swarm on 127.0.0.1: `seeds` full peers plus
/// `leechers` empty ones, one tracker, OS-assigned ports. Returns once
/// every leecher completed or `max_ticks` wall ticks elapsed.
pub fn run_tcp_smoke_with(
    seeds: usize,
    leechers: usize,
    num_pieces: usize,
    tick_ms: u64,
    max_ticks: u64,
    opts: &TcpSmokeOpts,
) -> std::io::Result<TcpSmokeReport> {
    assert!(seeds >= 1 && leechers >= 1 && num_pieces >= 1);
    let run = next_net_run_ordinal();
    let params = PeerParams {
        num_pieces,
        piece_size: 100.0,
        unchoke_slots: 4,
        optimistic_slots: 1,
        rechoke_interval: 5,
        pex_interval: 10,
        max_neighbors: 40,
        run,
    };
    let seed = 0x7ec5;
    let book: AddrBook = Arc::new(Mutex::new(HashMap::new()));
    let stop = Arc::new(AtomicBool::new(false));
    let completions = Arc::new(AtomicU64::new(0));
    let slowest = Arc::new(AtomicU64::new(0));
    // Window the live series at the health cadence: recorder windows
    // are the structured replacement for eyeballing health snapshots.
    let ts = Arc::new(Mutex::new(Recorder::new(HEALTH_INTERVAL)));

    // Live exposition endpoint, up before the swarm starts so watchers
    // never race the run.
    let mut metrics_addr = None;
    let mut metrics_handle = None;
    if let Some(port) = opts.metrics_port {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        metrics_addr = Some(addr);
        if let Some(tx) = &opts.on_metrics_addr {
            let _ = tx.send(addr);
        }
        let ts = Arc::clone(&ts);
        let stop = Arc::clone(&stop);
        metrics_handle = Some(std::thread::spawn(move || {
            crate::http::serve_metrics(listener, stop, move || {
                let windows = ts.lock().unwrap_or_else(|e| e.into_inner()).windows();
                crate::http::render_exposition(&swarm_obs::snapshot(), &[("net.tcp", &windows)])
            })
        }));
    }

    let tracker_listener = TcpListener::bind("127.0.0.1:0")?;
    let tracker_addr = tracker_listener.local_addr()?;
    book.lock().unwrap().insert(TRACKER, tracker_addr);

    let n_peers = seeds + leechers;
    let mut listeners = Vec::with_capacity(n_peers);
    for id in 1..=n_peers {
        let l = TcpListener::bind("127.0.0.1:0")?;
        book.lock().unwrap().insert(id, l.local_addr()?);
        listeners.push(l);
    }

    let mut handles = Vec::new();
    {
        let stop = Arc::clone(&stop);
        handles.push(std::thread::spawn(move || {
            tracker_thread(tracker_listener, stop, seed)
        }));
    }
    for (i, listener) in listeners.into_iter().enumerate() {
        let id = 1 + i;
        let core = if i < seeds {
            let mut p = PeerCore::publisher(id, 500.0, params, peer_stream(seed, id as u64));
            p.set_online(true);
            p
        } else {
            PeerCore::leecher(id, 0, 200.0, 2_000.0, params, peer_stream(seed, id as u64))
        };
        let shared = PeerShared {
            book: Arc::clone(&book),
            stop: Arc::clone(&stop),
            completions: Arc::clone(&completions),
            slowest: Arc::clone(&slowest),
            ts: Arc::clone(&ts),
        };
        let pacing = PeerPacing {
            tick_ms,
            max_ticks,
            run,
        };
        handles.push(std::thread::spawn(move || {
            peer_thread(core, listener, shared, pacing)
        }));
    }

    // Wait for every leecher (or the deadline), then stop the swarm.
    let deadline = Instant::now() + Duration::from_millis(tick_ms * (max_ticks + 2));
    while completions.load(Ordering::Relaxed) < leechers as u64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // Scrape before stopping the tracker so the census reflects the
    // final swarm state.
    let census = scrape(tracker_addr, n_peers, num_pieces)?;
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().expect("swarm thread panicked");
    }
    if let Some(h) = metrics_handle {
        h.join().expect("metrics thread panicked");
    }
    // The wall-clock series is nondeterministic by nature, so it lives
    // under its own name; `repro trace --timeseries` reports it but the
    // deterministic diff gate never touches it.
    if swarm_obs::enabled() {
        let ts = ts.lock().unwrap_or_else(|e| e.into_inner());
        if !ts.is_empty() {
            swarm_obs::merge_series("net.tcp", &ts);
        }
    }
    let done = completions.load(Ordering::Relaxed);
    Ok(TcpSmokeReport {
        completions: done,
        census,
        slowest_completion_tick: if done == leechers as u64 {
            Some(slowest.load(Ordering::Relaxed))
        } else {
            None
        },
        metrics_addr,
    })
}

/// One blocking scrape round-trip against the live tracker.
fn scrape(addr: SocketAddr, my_id: usize, pieces: usize) -> std::io::Result<(u32, u32)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    stream.write_all(&wire::encode(&Message::Handshake {
        peer: (my_id + 1) as u64,
        pieces: pieces as u32,
    }))?;
    stream.write_all(&wire::encode(&Message::Scrape))?;
    let mut buf = Vec::new();
    let mut scratch = [0u8; 256];
    loop {
        let n = stream.read(&mut scratch)?;
        if n == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "tracker closed before scrape response",
            ));
        }
        buf.extend_from_slice(&scratch[..n]);
        if let Ok(msgs) = wire::drain_frames(&mut buf) {
            for msg in msgs {
                if let Message::ScrapeResponse { seeders, leechers } = msg {
                    return Ok((seeders, leechers));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_ticker_advances() {
        let t = WallTicker::new(1);
        let t0 = t.current_tick();
        std::thread::sleep(Duration::from_millis(2));
        assert!(t.current_tick() > t0);
    }
}
