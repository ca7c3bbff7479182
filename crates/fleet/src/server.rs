//! One shard of the fleet: a [`MaskService`] behind the wire protocol.
//!
//! A [`ShardServer`] owns a TCP listener on loopback, one handler
//! thread per connection, and the service instance itself. Incoming
//! [`FrameKind::Request`] frames are decoded, checked against the
//! fleet's hash ring, and either served locally or — when the key
//! belongs to another shard — *forwarded* to the owner over a fresh
//! [`crate::ShardClient`] connection, whose reply read the request's
//! deadline bounds, with the response relayed back verbatim.
//!
//! # Cross-shard single-flight
//!
//! The mask cache's single-flight ticket dedups concurrent searches for
//! one key *within* a service instance. Forwarding extends that to the
//! fleet: because every shard routes a key to the same ring owner, all
//! concurrent requests for a key — wherever they enter — land in one
//! instance and coalesce behind one search. A forwarded frame carries
//! [`FLAG_FORWARDED`] and is always served locally by the receiver, so
//! a stale ring view can cost one extra hop but never a forwarding
//! cycle (and never a duplicate search: the hop still ends at exactly
//! one instance per key).

use crate::client::ShardClient;
use crate::ring::{route_key, Ring, ShardId};
use crate::wire::{self, FrameError, FrameKind, DEFAULT_MAX_FRAME_BYTES, FLAG_FORWARDED};
use adapt_service::{MaskService, Request, ServiceConfig, ServiceError, ServiceStats};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// The fleet's shared shard → address directory. Servers consult it to
/// forward misrouted keys to their owner; the chaos harness updates it
/// as shards die and restart (a restarted shard keeps its [`ShardId`]
/// but gets a fresh ephemeral port).
#[derive(Debug, Clone, Default)]
pub struct FleetMap {
    inner: Arc<RwLock<HashMap<ShardId, SocketAddr>>>,
}

impl FleetMap {
    /// An empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) a shard's address.
    pub fn set(&self, shard: ShardId, addr: SocketAddr) {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(shard, addr);
    }

    /// Removes a shard (a kill the rest of the fleet should see).
    pub fn remove(&self, shard: ShardId) {
        self.inner
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&shard);
    }

    /// The shard's current address, if registered.
    pub fn get(&self, shard: ShardId) -> Option<SocketAddr> {
        self.inner
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(&shard)
            .copied()
    }
}

/// Configuration of one shard server. Every shard reads request frames,
/// and forwarded replies, up to [`DEFAULT_MAX_FRAME_BYTES`], the bound a
/// [`crate::ShardClient`] applies to its replies.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// This shard's stable identity in the ring.
    pub shard: ShardId,
    /// The wrapped service's configuration. For fleet-deterministic
    /// answers every shard must carry the *same* seed (responses are a
    /// pure function of `(seed, key, budget)`).
    pub service: ServiceConfig,
    /// The fleet ring this shard checks key ownership against, plus the
    /// shared address directory for forwarding. `None` disables
    /// forwarding (single-shard deployments).
    pub fleet: Option<(Ring, FleetMap)>,
}

impl ShardConfig {
    /// A standalone (non-forwarding) shard over `service`.
    pub fn standalone(shard: ShardId, service: ServiceConfig) -> Self {
        ShardConfig {
            shard,
            service,
            fleet: None,
        }
    }
}

/// What a stopped shard leaves behind.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard's identity.
    pub shard: ShardId,
    /// The address it was serving on.
    pub addr: SocketAddr,
    /// Final service statistics (worker panics included).
    pub stats: ServiceStats,
}

struct ServerShared {
    shard: ShardId,
    stop: AtomicBool,
    service: MaskService,
    fleet: Option<(Ring, FleetMap)>,
    // Live connection streams, kept so `stop` can shut them down and
    // unblock their handler threads mid-read.
    conns: Mutex<Vec<TcpStream>>,
    frames_total: adapt_obs::Counter,
    forwards_total: adapt_obs::Counter,
    forward_failures_total: adapt_obs::Counter,
    wire_errors_total: adapt_obs::Counter,
}

/// A running shard: listener + handler threads + the wrapped service.
pub struct ShardServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl ShardServer {
    /// Binds a loopback listener on an ephemeral port and starts
    /// serving. Registers the address in the fleet map when one is
    /// configured.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidConfig`] when the wrapped service rejects
    /// its configuration; `Internal` when the socket cannot be bound.
    pub fn start(config: ShardConfig) -> Result<ShardServer, ServiceError> {
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| ServiceError::Internal {
            reason: format!("bind failed: {e}"),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::Internal {
                reason: format!("set_nonblocking failed: {e}"),
            })?;
        let addr = listener.local_addr().map_err(|e| ServiceError::Internal {
            reason: format!("local_addr failed: {e}"),
        })?;
        let service = MaskService::try_start(config.service)?;
        let registry = service.metrics_registry();
        let shared = Arc::new(ServerShared {
            shard: config.shard,
            stop: AtomicBool::new(false),
            service,
            fleet: config.fleet,
            conns: Mutex::new(Vec::new()),
            frames_total: registry.counter("adapt_fleet_frames_total"),
            forwards_total: registry.counter("adapt_fleet_forwards_total"),
            forward_failures_total: registry.counter("adapt_fleet_forward_failures_total"),
            wire_errors_total: registry.counter("adapt_fleet_wire_errors_total"),
        });
        if let Some((_, map)) = &shared.fleet {
            map.set(config.shard, addr);
        }
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name(format!("{}-accept", config.shard))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(|e| ServiceError::Internal {
                reason: format!("spawn failed: {e}"),
            })?;
        Ok(ShardServer {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The address clients dial.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This shard's identity.
    pub fn shard(&self) -> ShardId {
        self.shared.shard
    }

    /// Direct handle onto the wrapped service (the harness advances
    /// epochs and reads stats through it).
    pub fn service(&self) -> &MaskService {
        &self.shared.service
    }

    /// Stops the shard: shuts every live connection down (in-flight
    /// requests get a transport error at the client, like a real kill),
    /// joins all threads, shuts the service down and reports its final
    /// stats. Deregisters from the fleet map.
    pub fn stop(mut self) -> ShardReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        for conn in self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
        {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        if let Some(accept) = self.accept.take() {
            if let Ok(handlers) = accept.join() {
                for h in handlers {
                    let _ = h.join();
                }
            }
        }
        if let Some((_, map)) = &self.shared.fleet {
            map.remove(self.shared.shard);
        }
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("shard handler threads still hold the server state"));
        let stats = shared.service.shutdown();
        ShardReport {
            shard: shared.shard,
            addr: self.addr,
            stats,
        }
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<ServerShared>) -> Vec<JoinHandle<()>> {
    let mut handlers = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(clone);
                }
                let conn_shared = Arc::clone(&shared);
                if let Ok(h) = std::thread::Builder::new()
                    .name(format!("{}-conn", shared.shard))
                    .spawn(move || handle_connection(stream, conn_shared))
                {
                    handlers.push(h);
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => break,
        }
    }
    handlers
}

/// Whether a read error is the idle-poll timeout rather than a real
/// failure. Both kinds appear across platforms.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// A connection as [`wire::read_frame`] reads one frame from it. The
/// connection's read timeout only polls the stop flag *between* frames:
/// once a frame's first byte has arrived, a timeout waits on for the
/// rest (until stop), since giving up would drop the bytes already read
/// and leave the stream mid-frame, and the client would wait forever
/// for a reply to a request the shard never saw whole. A sender hands
/// each frame to its socket in one write, but TCP may still deliver it
/// in pieces (a frame larger than a segment, a send buffer that takes
/// part of it, or a peer that writes it piecewise), so the wait stays.
struct FrameRead<'a> {
    stream: &'a mut TcpStream,
    stop: &'a AtomicBool,
    started: bool,
}

impl Read for FrameRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if is_poll_timeout(&e) && self.started && !self.stop.load(Ordering::SeqCst) => {
                }
                Ok(n) => {
                    self.started |= n > 0;
                    return Ok(n);
                }
                other => return other,
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<ServerShared>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let mut conn = FrameRead {
            stream: &mut stream,
            stop: &shared.stop,
            started: false,
        };
        let (header, payload) = match wire::read_frame(&mut conn, DEFAULT_MAX_FRAME_BYTES) {
            Ok(frame) => frame,
            Err(FrameError::Io(e)) if is_poll_timeout(&e) => continue,
            Err(FrameError::Io(_)) => return, // peer hung up / kill
            Err(FrameError::Wire(e)) => {
                // A malformed frame leaves the stream unsynchronized:
                // answer with a typed error and drop the connection.
                return reject(&mut stream, &shared, format!("wire: {e}"));
            }
        };
        shared.frames_total.inc();
        match header.kind {
            FrameKind::Request => {
                let forwarded = header.flags & FLAG_FORWARDED != 0;
                serve_request(&mut stream, &shared, &payload, forwarded);
            }
            FrameKind::MetricsRequest => {
                let text = shared.service.metrics_registry().render_prometheus();
                let kind = FrameKind::MetricsResponse;
                if wire::write_frame(&mut stream, kind, 0, text.as_bytes()).is_err() {
                    return;
                }
            }
            // Response frames arriving at a server are protocol misuse.
            FrameKind::Response | FrameKind::Error | FrameKind::MetricsResponse => {
                let reason = format!("unexpected client frame {:?}", header.kind);
                return reject(&mut stream, &shared, reason);
            }
        }
    }
}

/// Serve one request frame: decode, decide ownership, forward or answer
/// locally, write exactly one Response/Error frame back.
fn serve_request(stream: &mut TcpStream, shared: &ServerShared, payload: &[u8], forwarded: bool) {
    let (request, deadline) = match wire::decode_request(payload) {
        Ok(decoded) => decoded,
        Err(e) => return reject(stream, shared, format!("wire: {e}")),
    };

    // Ownership check: a key we don't own is forwarded to its owner —
    // unless this frame already took that hop (FLAG_FORWARDED), in
    // which case we are the authority the sender chose and must answer.
    // The program's logical hash comes from the service's program book,
    // so a program this shard has served is not hashed again.
    if !forwarded {
        if let Some((ring, map)) = &shared.fleet {
            let key = match &request {
                Request::RecommendMask {
                    circuit, device, ..
                }
                | Request::Execute {
                    circuit, device, ..
                } => route_key(*device, shared.service.logical_hash_of(*device, circuit)),
            };
            if let Some(owner) = ring.owner(key).filter(|&owner| owner != shared.shard) {
                let hop = map
                    .get(owner)
                    .map(|addr| ShardClient::new(addr).forward(payload, deadline));
                if let Some(Ok((kind, body))) = hop {
                    shared.forwards_total.inc();
                    let _ = wire::write_frame(stream, kind, 0, &body);
                    return;
                }
                // Owner unregistered, unreachable or overdue: serve
                // locally (the answer is seed-deterministic anyway; only
                // cache locality is lost).
                shared.forward_failures_total.inc();
            }
        }
    }

    let (kind, body) = match shared.service.call(request) {
        Ok(response) => (FrameKind::Response, wire::encode_response(&response)),
        Err(err) => (FrameKind::Error, wire::encode_error(&err)),
    };
    let _ = wire::write_frame(stream, kind, 0, &body);
}

/// Counts a protocol violation and answers it with a typed error.
fn reject(stream: &mut TcpStream, shared: &ServerShared, reason: String) {
    shared.wire_errors_total.inc();
    let err = wire::encode_error(&ServiceError::Internal { reason });
    let _ = wire::write_frame(stream, FrameKind::Error, 0, &err);
}
