//! Blocking wire client for one shard.

use crate::wire::{
    self, FrameError, FrameKind, WireError, DEFAULT_MAX_FRAME_BYTES, FLAG_FORWARDED,
};
use adapt_service::{CodecError, Request, Response, ServiceError};
use machine::WireDeadline;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a dial may take. A metrics scrape, which carries no
/// deadline, waits as long for its reply.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);

/// How long past a bounded request's remaining budget the client still
/// waits for the reply. A shard may answer after the deadline: a search
/// notices its deadline only between decoy batches and then serves a
/// conservative mask, and a shard on the virtual clock does not count
/// wall time against the budget at all.
const REPLY_MARGIN: Duration = Duration::from_secs(1);

/// What a client call can fail with, separated by layer: transport
/// failures are the router's signal to reroute, service errors are the
/// shard's *answer* and must not be retried blindly.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection failed (connect, read, write, or peer reset).
    /// The shard may be dead — rerouting territory.
    Transport(std::io::Error),
    /// Bytes arrived but were not a valid frame — a protocol bug or
    /// version skew, not a reroutable outage.
    Wire(WireError),
    /// The shard answered with a typed service error.
    Service(ServiceError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "shard transport failed: {e}"),
            ClientError::Wire(e) => write!(f, "shard protocol violation: {e}"),
            ClientError::Service(e) => write!(f, "shard answered with an error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(e) => ClientError::Transport(e),
            FrameError::Wire(e) => ClientError::Wire(e),
        }
    }
}

/// A blocking client holding one connection to one shard, reconnecting
/// lazily after transport failures.
#[derive(Debug)]
pub struct ShardClient {
    addr: SocketAddr,
    /// The connection and the read timeout set on it.
    stream: Option<(TcpStream, Option<Duration>)>,
}

impl ShardClient {
    /// A client for the shard at `addr`. No connection is made until
    /// the first call.
    pub fn new(addr: SocketAddr) -> Self {
        ShardClient { addr, stream: None }
    }

    /// The shard address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends one frame with `flags`, and reads the reply, each read
    /// waiting at most `read_timeout`.
    fn roundtrip(
        &mut self,
        kind: FrameKind,
        flags: u8,
        payload: &[u8],
        read_timeout: Option<Duration>,
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, CONNECT_TIMEOUT)
                .map_err(ClientError::Transport)?;
            stream.set_nodelay(true).map_err(ClientError::Transport)?;
            self.stream = Some((stream, None));
        }
        let (stream, timeout) = self.stream.as_mut().expect("just connected");
        let result = (|| {
            if *timeout != read_timeout {
                stream.set_read_timeout(read_timeout)?;
                *timeout = read_timeout;
            }
            wire::write_frame(stream, kind, flags, payload)?;
            wire::read_frame(stream, DEFAULT_MAX_FRAME_BYTES)
        })()
        .map_err(ClientError::from);
        if matches!(result, Err(ClientError::Transport(_))) {
            // Poison the connection (an overdue reply included) so the
            // next call redials.
            self.stream = None;
        }
        result.map(|(header, body)| (header.kind, body))
    }

    /// Sends a request with its in-band deadline and blocks for the
    /// answer. A bounded request waits for it at most its remaining
    /// budget plus a fixed 1 s margin per read; an unbounded one waits
    /// for as long as the shard takes.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the shard is unreachable or its
    /// reply is overdue,
    /// [`ClientError::Wire`] on protocol violations, and
    /// [`ClientError::Service`] when the shard answers with a typed
    /// [`ServiceError`].
    pub fn call(
        &mut self,
        request: &Request,
        deadline: WireDeadline,
    ) -> Result<Response, ClientError> {
        let payload = wire::encode_request(request, deadline);
        let (kind, body) =
            self.roundtrip(FrameKind::Request, 0, &payload, reply_timeout(deadline))?;
        match kind {
            FrameKind::Response => wire::decode_response(&body).map_err(ClientError::Wire),
            FrameKind::Error => Err(ClientError::Service(
                wire::decode_error(&body).map_err(ClientError::Wire)?,
            )),
            other => Err(unexpected_reply(other)),
        }
    }

    /// Replays a request payload another shard decoded at this one, as
    /// a forwarded frame ([`FLAG_FORWARDED`]), and returns the reply
    /// frame to relay verbatim. `deadline` is the decoded one and bounds
    /// the reply read as in [`Self::call`].
    pub(crate) fn forward(
        &mut self,
        payload: &[u8],
        deadline: WireDeadline,
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        let timeout = reply_timeout(deadline);
        match self.roundtrip(FrameKind::Request, FLAG_FORWARDED, payload, timeout)? {
            reply @ (FrameKind::Response | FrameKind::Error, _) => Ok(reply),
            (other, _) => Err(unexpected_reply(other)),
        }
    }

    /// Fetches the shard's Prometheus exposition, waiting for it as long
    /// as a dial may take.
    ///
    /// # Errors
    ///
    /// Same layering as [`Self::call`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (kind, body) =
            self.roundtrip(FrameKind::MetricsRequest, 0, &[], Some(CONNECT_TIMEOUT))?;
        match kind {
            FrameKind::MetricsResponse => {
                String::from_utf8(body).map_err(|_| ClientError::Wire(CodecError::BadUtf8.into()))
            }
            FrameKind::Error => Err(ClientError::Service(
                wire::decode_error(&body).map_err(ClientError::Wire)?,
            )),
            other => Err(unexpected_reply(other)),
        }
    }
}

/// The reply-read bound of a request: its remaining budget plus
/// [`REPLY_MARGIN`], none when unbounded.
fn reply_timeout(deadline: WireDeadline) -> Option<Duration> {
    deadline
        .remaining_ms()
        .map(|ms| Duration::from_millis(ms).saturating_add(REPLY_MARGIN))
}

fn unexpected_reply(kind: FrameKind) -> ClientError {
    ClientError::Wire(
        CodecError::UnknownTag {
            what: "reply kind",
            tag: kind as u8,
        }
        .into(),
    )
}
