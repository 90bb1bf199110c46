//! Live networked swarm mode.
//!
//! `swarm-net` runs the repo's swarm protocol as *actual endpoints
//! exchanging encoded frames*, instead of nodes inside one simulator
//! loop. Each participant — tracker, publisher, leechers — is a state
//! machine speaking a length-prefixed wire format (handshake, bitfield,
//! have, interested/choke, request/piece/cancel, close, tracker announce
//! and scrape, PEX) over a deterministic loopback host: every endpoint
//! stepped in id order on one thread in virtual ticks, frames delivered
//! in (sender, send order) at each tick's end, per-endpoint ChaCha8
//! streams, so live runs are reproducible and diffable.
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
//! No async runtime, thread or socket is involved: the host is a plain
//! loop over one virtual clock.

pub mod peer;
pub mod pex;
pub mod run;
pub mod scenarios;
pub mod tracker;
pub mod transport;
pub mod wire;

pub use peer::{PeerCore, PeerParams, MIN_NEIGHBORS, PUBLISHER, REQUEST_TIMEOUT, TRACKER};
pub use run::{peer_stream, publisher_online_at, run_live, HostMode, NetResult, NET_TS_WINDOW};
pub use tracker::TrackerCore;
pub use transport::LoopbackHub;
pub use wire::{decode, encode, encode_into, Message, WireError};
