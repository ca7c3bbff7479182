//! The fleet router: ring-based request routing with per-shard
//! transport breakers, deterministic failover, and fleet-wide metrics
//! aggregation.
//!
//! Each request's route key gets a deterministic preference order over
//! shards from the rendezvous ring ([`crate::ring::Ring::ranked`]).
//! The router walks that order: shards whose breaker denies admission
//! are skipped without a connection attempt (fail-fast), transport
//! failures count against the shard, and the first live shard answers.
//! Each shard's breaker is the service's [`Breaker`] at
//! [`BreakerTuning::SHARD`]: three consecutive transport failures open
//! it, and the 65th routed request after that probes it. Because the
//! order is a pure function of the key and the set of open breakers
//! changes only on observed failures, *rerouting is deterministic*:
//! while shard S is down, every key S owned is served by exactly the
//! shard `owner_among(key, live \ {S})` — the same shard a ring without
//! S would name.
//!
//! Breaker cooldown is counted in *routed requests*, not wall time, so
//! failover schedules replay identically run-to-run.

use crate::client::{ClientError, ShardClient};
use crate::ring::{route_key, Ring, ShardId};
use adapt_service::{
    logical_hash, Admission, Breaker, BreakerState, BreakerTuning, Request, Response, ServiceError,
};
use machine::WireDeadline;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

/// Router tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Maximum shards tried per request before giving up.
    pub max_attempts: u32,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig { max_attempts: 3 }
    }
}

struct Slot {
    addr: RwLock<SocketAddr>,
    /// Idle connection pool: popped per call, pushed back on success,
    /// dropped on failure. Callers never block on another call's
    /// network round-trip.
    pool: Mutex<Vec<ShardClient>>,
    breaker: Mutex<Breaker>,
}

impl Slot {
    fn new(addr: SocketAddr) -> Self {
        Slot {
            addr: RwLock::new(addr),
            pool: Mutex::new(Vec::new()),
            breaker: Mutex::new(Breaker::new(BreakerTuning::SHARD)),
        }
    }

    fn breaker(&self) -> MutexGuard<'_, Breaker> {
        self.breaker.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A successful routed call: the answer plus where it came from.
#[derive(Debug)]
pub struct RoutedResponse {
    /// The shard's answer.
    pub response: Response,
    /// The shard that served it.
    pub shard: ShardId,
    /// Whether the serving shard differs from the key's ring owner
    /// (failover took effect).
    pub rerouted: bool,
}

/// Typed routing failures.
#[derive(Debug)]
pub enum FleetError {
    /// The router has no shards at all.
    NoShards,
    /// Every attempted shard failed at the transport/protocol layer;
    /// the last failure is attached.
    AllShardsDown {
        /// Shards attempted (or skipped fail-fast) before giving up.
        attempts: u32,
        /// The final transport/protocol failure.
        last: ClientError,
    },
    /// A shard answered with a typed service error (authoritative — not
    /// retried elsewhere: the answer would be identical by the fleet
    /// determinism contract, except for shard-local admission errors
    /// the caller may back off and resubmit on).
    Service(ServiceError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoShards => write!(f, "fleet router has no shards"),
            FleetError::AllShardsDown { attempts, last } => {
                write!(f, "all shards down after {attempts} attempts: {last}")
            }
            FleetError::Service(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// The fleet-facing request entry point. Cloneable across client
/// threads ([`Arc`] inside).
#[derive(Clone)]
pub struct FleetRouter {
    inner: Arc<RouterInner>,
}

struct RouterInner {
    ring: Ring,
    cfg: RouterConfig,
    slots: BTreeMap<ShardId, Slot>,
    registry: Arc<adapt_obs::Registry>,
    routed_total: adapt_obs::Counter,
    rerouted_total: adapt_obs::Counter,
    failfast_skips_total: adapt_obs::Counter,
    breaker_opens_total: adapt_obs::Counter,
}

impl FleetRouter {
    /// A router over the given shard endpoints.
    pub fn new(cfg: RouterConfig, endpoints: &[(ShardId, SocketAddr)]) -> Self {
        let registry = Arc::new(adapt_obs::Registry::new());
        let slots: BTreeMap<ShardId, Slot> = endpoints
            .iter()
            .map(|&(shard, addr)| (shard, Slot::new(addr)))
            .collect();
        let ring = Ring::new(slots.keys().copied());
        FleetRouter {
            inner: Arc::new(RouterInner {
                ring,
                cfg,
                routed_total: registry.counter("adapt_fleet_router_routed_total"),
                rerouted_total: registry.counter("adapt_fleet_router_rerouted_total"),
                failfast_skips_total: registry.counter("adapt_fleet_router_failfast_skips_total"),
                breaker_opens_total: registry.counter("adapt_fleet_router_breaker_opens_total"),
                slots,
                registry,
            }),
        }
    }

    /// The ring the router hashes over.
    pub fn ring(&self) -> &Ring {
        &self.inner.ring
    }

    /// The router's own metrics registry (routed/rerouted/fail-fast
    /// counters).
    pub fn registry(&self) -> Arc<adapt_obs::Registry> {
        Arc::clone(&self.inner.registry)
    }

    /// Re-points a shard at a new address (a restart) and resets its
    /// breaker to closed. Unknown shards are ignored — the ring is
    /// fixed at construction; restarts keep identities.
    pub fn set_endpoint(&self, shard: ShardId, addr: SocketAddr) {
        if let Some(slot) = self.inner.slots.get(&shard) {
            *slot.addr.write().unwrap_or_else(|e| e.into_inner()) = addr;
            slot.pool.lock().unwrap_or_else(|e| e.into_inner()).clear();
            *slot.breaker() = Breaker::new(BreakerTuning::SHARD);
        }
    }

    /// Current breaker state per shard.
    pub fn shard_states(&self) -> Vec<(ShardId, BreakerState)> {
        self.inner
            .slots
            .iter()
            .map(|(&shard, slot)| (shard, slot.breaker().state()))
            .collect()
    }

    /// Routes one request: deterministic shard preference order,
    /// fail-fast over open breakers, at most
    /// [`RouterConfig::max_attempts`] live attempts. A bounded request
    /// gives up on a shard whose reply has not arrived within its
    /// remaining budget plus [`ShardClient::call`]'s margin, and fails
    /// over while budget is left: each attempt is charged the time the
    /// call has taken so far, so the whole call ends within one budget
    /// plus one margin. An unbounded request waits for the reply.
    ///
    /// # Errors
    ///
    /// [`FleetError::Service`] relays the serving shard's typed error;
    /// [`FleetError::AllShardsDown`] means no shard could be reached, or
    /// none before the request's budget ran out.
    pub fn call(&self, request: Request) -> Result<RoutedResponse, FleetError> {
        let deadline = WireDeadline::fresh(request.deadline_ms());
        self.call_with_deadline(request, deadline)
    }

    /// [`Self::call`] with an explicit in-band deadline (carrying
    /// upstream spend across this hop).
    ///
    /// # Errors
    ///
    /// See [`Self::call`].
    pub fn call_with_deadline(
        &self,
        request: Request,
        deadline: WireDeadline,
    ) -> Result<RoutedResponse, FleetError> {
        let inner = &self.inner;
        if inner.slots.is_empty() {
            return Err(FleetError::NoShards);
        }
        inner.routed_total.inc();
        let key = match &request {
            Request::RecommendMask {
                circuit, device, ..
            }
            | Request::Execute {
                circuit, device, ..
            } => route_key(*device, logical_hash(circuit)),
        };
        let ranked = inner.ring.ranked(key);
        let owner = ranked[0];
        let started = Instant::now();
        let mut attempts = 0u32;
        let mut last: Option<ClientError> = None;
        for shard in ranked {
            // What is left of the one budget: earlier attempts' time is
            // charged to it, and a spent budget tries no further shard.
            let deadline = WireDeadline {
                elapsed_ms: deadline
                    .elapsed_ms
                    .saturating_add(started.elapsed().as_millis() as u64),
                ..deadline
            };
            if attempts >= inner.cfg.max_attempts || (attempts > 0 && deadline.expired()) {
                break;
            }
            let slot = inner.slots.get(&shard).expect("ring matches slots");
            let admission = slot.breaker().admit();
            if admission == Admission::Fallback {
                inner.failfast_skips_total.inc();
                continue;
            }
            attempts += 1;
            match self.attempt(slot, admission, &request, deadline) {
                Ok(response) => {
                    if shard != owner {
                        inner.rerouted_total.inc();
                    }
                    return Ok(RoutedResponse {
                        response,
                        shard,
                        rerouted: shard != owner,
                    });
                }
                Err(ClientError::Service(e)) => return Err(FleetError::Service(e)),
                Err(e) => last = Some(e),
            }
        }
        Err(FleetError::AllShardsDown {
            attempts,
            last: last.unwrap_or_else(|| {
                ClientError::Transport(std::io::Error::new(
                    std::io::ErrorKind::NotConnected,
                    "every shard skipped fail-fast",
                ))
            }),
        })
    }

    /// One attempt at a shard over a pooled connection, its transport
    /// outcome recorded on the shard's breaker. A typed service error is
    /// the shard's answer: it proves the transport works.
    fn attempt(
        &self,
        slot: &Slot,
        admission: Admission,
        request: &Request,
        deadline: WireDeadline,
    ) -> Result<Response, ClientError> {
        let addr = *slot.addr.read().unwrap_or_else(|e| e.into_inner());
        let pool = || slot.pool.lock().unwrap_or_else(|e| e.into_inner());
        let mut client = pool()
            .pop()
            .filter(|c| c.addr() == addr)
            .unwrap_or_else(|| ShardClient::new(addr));
        let result = client.call(request, deadline);
        let failure = !matches!(result, Ok(_) | Err(ClientError::Service(_)));
        if !failure {
            pool().push(client);
        }
        let mut breaker = slot.breaker();
        let was_open = breaker.state() == BreakerState::Open;
        if admission == Admission::Probe {
            breaker.record_probe(failure);
        } else {
            breaker.record(failure);
        }
        if !was_open && breaker.state() == BreakerState::Open {
            self.inner.breaker_opens_total.inc();
        }
        result
    }

    /// Scrapes every reachable shard's exposition and merges them into
    /// one fleet document with per-shard `shard="N"` labels (see
    /// [`adapt_obs::merge_expositions`]). The router's own counters are
    /// appended under `shard="router"`. Shards that do not answer
    /// within the client's connect timeout are skipped.
    pub fn metrics(&self) -> String {
        let mut parts = Vec::new();
        for (&shard, slot) in &self.inner.slots {
            let addr = *slot.addr.read().unwrap_or_else(|e| e.into_inner());
            let mut client = ShardClient::new(addr);
            if let Ok(text) = client.metrics() {
                parts.push((shard.0.to_string(), text));
            }
        }
        parts.push((
            "router".to_string(),
            self.inner.registry.render_prometheus(),
        ));
        adapt_obs::merge_expositions("shard", &parts)
    }
}
