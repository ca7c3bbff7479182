//! `adapt-fleet`: horizontal scale-out for the mask-recommendation
//! service.
//!
//! A single [`adapt_service::MaskService`] is an in-process worker pool;
//! this crate turns N of them into one fleet:
//!
//! - [`wire`] — a small, versioned, length-prefixed binary protocol over
//!   TCP. Requests, responses and every [`adapt_service::ServiceError`]
//!   variant map 1:1 onto typed frames (loss-free, pinned by an
//!   exhaustive round-trip test), and the request deadline crosses the
//!   wire in-band as a [`machine::WireDeadline`] (total budget + time
//!   already spent upstream), so deadline propagation keeps working
//!   across hops. The wire only decodes: whether a request is servable
//!   is decided by the service's admission rule at
//!   [`adapt_service::MaskService::submit`], as for a local caller.
//! - [`ring`] — a rendezvous (highest-random-weight) hash ring mapping
//!   `(device, logical circuit hash)` route keys onto shard ids.
//!   Insertion-order independent, and exactly monotone under single
//!   join/leave: the only keys that remap are the ones the joining
//!   (leaving) shard owns.
//! - [`server`] — [`server::ShardServer`] fronts one `MaskService` with
//!   the wire protocol, and forwards requests for keys it does not own
//!   to the owning shard (cross-shard cache fill), so the owner's
//!   in-process single-flight stays the *fleet-wide* single-flight: one
//!   search per key, no matter which shard a client hits.
//! - [`client`] — a blocking wire client with reconnect. A bounded
//!   request reads its reply for at most its remaining budget plus a
//!   margin; an unbounded one waits for the reply.
//! - [`router`] — [`router::FleetRouter`] routes each request to its
//!   ring owner, keeps a per-shard transport breaker (the service's
//!   [`adapt_service::Breaker`] at [`adapt_service::BreakerTuning::SHARD`]:
//!   three consecutive transport failures open it; a request-count
//!   cooldown closes it through one half-open probe at a time), fails
//!   fast over open shards by rerouting to the next shard in the key's
//!   deterministic preference order, and aggregates every shard's
//!   Prometheus exposition into one fleet document with per-shard labels
//!   ([`adapt_obs::merge_expositions`]).
//!
//! # Determinism across the fleet
//!
//! Every shard is configured with the *same* service seed, so a
//! response is a pure function of `(seed, key, budget)` regardless of
//! which shard serves it. Rerouting around a dead shard therefore
//! changes *where* a key is answered but never *what* the answer is —
//! the property the fleet chaos harness pins with per-shard replay
//! digests.

#![warn(missing_docs)]

pub mod client;
pub mod ring;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{ClientError, ShardClient};
pub use ring::{route_key, Ring, ShardId};
pub use router::{FleetError, FleetRouter, RoutedResponse, RouterConfig};
pub use server::{FleetMap, ShardConfig, ShardReport, ShardServer};
pub use wire::{FrameHeader, FrameKind, WireError, FLAG_CHECKSUM, FLAG_FORWARDED, MAGIC, VERSION};
