//! Live networked swarm mode.
//!
//! `swarm-net` runs the repo's swarm protocol as *actual endpoints
//! exchanging encoded frames*, instead of nodes inside one simulator
//! loop. Each participant — tracker, publisher, leechers — is a state
//! machine speaking a length-prefixed wire format (handshake, bitfield,
//! have, interested/choke, request/piece/cancel, tracker announce and
//! scrape, PEX) over one of two hosts:
//!
//! * **deterministic loopback** — every endpoint stepped in id order on
//!   one thread in virtual ticks, frames delivered in (sender, send
//!   order) at each tick's end, per-endpoint ChaCha8 streams, so live
//!   runs are reproducible and diffable.
//! * **real TCP** — the same cores over `std::net` sockets and a
//!   wall-clock ticker, one thread per endpoint, for smoke-testing the
//!   stack end to end.
//!
//! Piece selection and rechoking are the *same policy functions* the
//! `swarm-bt` simulator calls ([`swarm_bt::policy`]), which is what
//! makes the sim-vs-live comparison meaningful: the two engines share
//! one decision brain and differ only in how bytes and time move. The
//! canonical scripted scenarios in [`scenarios`] are constructed so the
//! deterministic counters (`net.ticks`/`net.arrivals`/
//! `net.completions`/`net.availability.transitions`) match the sim's
//! `bt.*` twins exactly; `swarm-trace repro diff --sim-vs-live`
//! enforces that equivalence in CI.
//!
//! No async runtime is involved: the loopback host is a plain loop and
//! the TCP host uses OS threads, in keeping with the workspace's
//! vendored-dependency rule.

pub mod http;
pub mod peer;
pub mod pex;
pub mod run;
pub mod scenarios;
pub mod tcp;
pub mod tracker;
pub mod transport;
pub mod wire;

pub use http::{http_get, render_exposition, serve_metrics, watch_main};
pub use peer::{PeerCore, PeerParams, MIN_NEIGHBORS, PUBLISHER, REQUEST_TIMEOUT, TRACKER};
pub use run::{peer_stream, publisher_online_at, run_live, HostMode, NetResult, NET_TS_WINDOW};
pub use tcp::{run_tcp_smoke_with, TcpSmokeOpts, TcpSmokeReport};
pub use tracker::TrackerCore;
pub use transport::{Envelope, LoopbackHub};
pub use wire::{decode, drain_frames, encode, Message, WireError};
