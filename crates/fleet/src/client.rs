//! Blocking wire client for one shard.

use crate::wire::{self, FrameError, FrameKind, WireError, DEFAULT_MAX_FRAME_BYTES};
use adapt_service::{CodecError, Request, Response, ServiceError};
use machine::WireDeadline;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

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
    stream: Option<TcpStream>,
    connect_timeout: Duration,
}

impl ShardClient {
    /// A client for the shard at `addr`. No connection is made until
    /// the first call.
    pub fn new(addr: SocketAddr) -> Self {
        ShardClient {
            addr,
            stream: None,
            connect_timeout: Duration::from_millis(500),
        }
    }

    /// The shard address this client dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn connected(&mut self) -> Result<&mut TcpStream, ClientError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.connect_timeout)
                .map_err(ClientError::Transport)?;
            stream.set_nodelay(true).map_err(ClientError::Transport)?;
            self.stream = Some(stream);
        }
        Ok(self.stream.as_mut().expect("just connected"))
    }

    fn roundtrip(
        &mut self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<(FrameKind, Vec<u8>), ClientError> {
        let result = (|| {
            let stream = self.connected()?;
            wire::write_frame(stream, kind, wire::FLAG_CHECKSUM, payload)
                .map_err(ClientError::Transport)?;
            let (header, body) = wire::read_frame(stream, DEFAULT_MAX_FRAME_BYTES)?;
            Ok((header.kind, body))
        })();
        if matches!(result, Err(ClientError::Transport(_))) {
            // Poison the connection so the next call redials.
            self.stream = None;
        }
        result
    }

    /// Sends a request with its in-band deadline and blocks for the
    /// answer.
    ///
    /// # Errors
    ///
    /// [`ClientError::Transport`] when the shard is unreachable,
    /// [`ClientError::Wire`] on protocol violations, and
    /// [`ClientError::Service`] when the shard answers with a typed
    /// [`ServiceError`].
    pub fn call(
        &mut self,
        request: &Request,
        deadline: WireDeadline,
    ) -> Result<Response, ClientError> {
        let payload = wire::encode_request(request, deadline);
        let (kind, body) = self.roundtrip(FrameKind::Request, &payload)?;
        match kind {
            FrameKind::Response => wire::decode_response(&body).map_err(ClientError::Wire),
            FrameKind::Error => Err(ClientError::Service(
                wire::decode_error(&body).map_err(ClientError::Wire)?,
            )),
            other => Err(unexpected_reply(other)),
        }
    }

    /// Fetches the shard's Prometheus exposition.
    ///
    /// # Errors
    ///
    /// Same layering as [`Self::call`].
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let (kind, body) = self.roundtrip(FrameKind::MetricsRequest, &[])?;
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

fn unexpected_reply(kind: FrameKind) -> ClientError {
    ClientError::Wire(
        CodecError::UnknownTag {
            what: "reply kind",
            tag: kind as u8,
        }
        .into(),
    )
}
