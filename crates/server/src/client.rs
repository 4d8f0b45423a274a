//! A typed blocking client for the iGQ server's wire protocol.
//!
//! One [`Client`] = one TCP connection, used synchronously: each call
//! writes one frame and blocks for its reply. Admission-control sheds are
//! surfaced as data ([`QueryVerdict::Overloaded`]), not errors — a shed
//! is a normal serving outcome the caller is expected to handle (back off
//! and retry); errors are reserved for broken connections and protocol
//! violations.

use crate::protocol::{
    read_frame, write_frame, Reply, Request, ServingStats, WireError, WireResult,
    DEFAULT_MAX_FRAME_BYTES, PROTOCOL_VERSION,
};
use igq_graph::Graph;
use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure: transport/codec trouble or a server-reported
/// typed error.
#[derive(Debug)]
pub enum ClientError {
    /// Transport or framing failure.
    Wire(WireError),
    /// The server answered with an `error` frame.
    Server {
        /// Stable machine-readable code (see [`WireError::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// The server sent a validly framed reply of an unexpected kind, or
    /// closed the connection where a reply was due.
    UnexpectedReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Server { code, message } => {
                write!(f, "server error [{code}]: {message}")
            }
            ClientError::UnexpectedReply(m) => write!(f, "unexpected reply: {m}"),
        }
    }
}

impl ClientError {
    /// `true` when the failure is a socket read timeout — the peer is
    /// silently hung (or the network is partitioned), as opposed to a
    /// clean close or an RST. Heartbeat-timeout failover detection keys
    /// on exactly this distinction.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ClientError::Wire(WireError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                )
        )
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Wire(WireError::Io(e))
    }
}

/// The server's verdict on one `query` frame: an answer, or a typed
/// admission-control shed.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryVerdict {
    /// The query was executed; the answer is exact.
    Answered(WireResult),
    /// Admission control shed the query without executing it.
    Overloaded {
        /// Replication lag the serving replica observed.
        lag_windows: u64,
        /// The `max_lag` bound it exceeded.
        threshold: u64,
        /// Server's backoff hint.
        retry_after_ms: u64,
    },
}

impl QueryVerdict {
    /// The answer, if the query was admitted.
    pub fn result(&self) -> Option<&WireResult> {
        match self {
            QueryVerdict::Answered(r) => Some(r),
            QueryVerdict::Overloaded { .. } => None,
        }
    }

    /// True when admission control shed the query.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, QueryVerdict::Overloaded { .. })
    }
}

/// The server's verdict on one `batch` frame.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchVerdict {
    /// The batch was executed; results index-align with the sent graphs.
    Answered(Vec<WireResult>),
    /// Admission control shed the whole batch without executing it.
    Overloaded {
        /// Replication lag the serving replica observed.
        lag_windows: u64,
        /// The `max_lag` bound it exceeded.
        threshold: u64,
        /// Server's backoff hint.
        retry_after_ms: u64,
    },
}

impl BatchVerdict {
    /// The per-query answers, if the batch was admitted.
    pub fn results(&self) -> Option<&[WireResult]> {
        match self {
            BatchVerdict::Answered(rs) => Some(rs),
            BatchVerdict::Overloaded { .. } => None,
        }
    }
}

/// A connected, hello-handshaken protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    max_frame_bytes: u64,
}

impl Client {
    /// Connects, applies a 30 s socket timeout, and performs the
    /// `hello`/`hello_ok` version handshake.
    pub fn connect(addr: impl ToSocketAddrs, name: &str) -> Result<Client, ClientError> {
        Client::connect_with_timeout(addr, name, Duration::from_secs(30))
    }

    /// [`connect`](Client::connect) with an explicit socket read/write
    /// timeout.
    pub fn connect_with_timeout(
        addr: impl ToSocketAddrs,
        name: &str,
        io_timeout: Duration,
    ) -> Result<Client, ClientError> {
        let writer = TcpStream::connect(addr)?;
        // Request frames are small and the next read waits on the reply:
        // Nagle only adds latency here.
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(io_timeout))?;
        writer.set_write_timeout(Some(io_timeout))?;
        let reader = BufReader::new(writer.try_clone()?);
        let mut client = Client {
            reader,
            writer,
            next_id: 0,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
        };
        client.send(&Request::Hello {
            version: PROTOCOL_VERSION,
            client: name.to_owned(),
        })?;
        match client.recv()? {
            Reply::HelloOk { version, .. } if version == PROTOCOL_VERSION => Ok(client),
            Reply::HelloOk { version, .. } => Err(ClientError::UnexpectedReply(format!(
                "server speaks protocol {version}, this client speaks {PROTOCOL_VERSION}"
            ))),
            other => Err(unexpected("hello_ok", &other)),
        }
    }

    /// Runs one query with default options.
    pub fn query(&mut self, graph: &Graph) -> Result<QueryVerdict, ClientError> {
        self.query_opts(graph, None, false, None)
    }

    /// Runs one query with a wire deadline and/or admission skip.
    pub fn query_with(
        &mut self,
        graph: &Graph,
        deadline_ms: Option<u64>,
        skip_admission: bool,
    ) -> Result<QueryVerdict, ClientError> {
        self.query_opts(graph, deadline_ms, skip_admission, None)
    }

    /// Runs one query with every wire option, including a bounded-
    /// staleness `max_lag` (in window flips): on a follower replica whose
    /// replication lag exceeds the bound, the server sheds the query with
    /// [`QueryVerdict::Overloaded`] instead of serving stale data.
    pub fn query_opts(
        &mut self,
        graph: &Graph,
        deadline_ms: Option<u64>,
        skip_admission: bool,
        max_lag: Option<u64>,
    ) -> Result<QueryVerdict, ClientError> {
        let id = self.take_id();
        self.send(&Request::Query {
            id,
            graph: graph.clone(),
            deadline_ms,
            skip_admission,
            max_lag,
        })?;
        match self.recv()? {
            Reply::Result { id: rid, result } if rid == id => Ok(QueryVerdict::Answered(result)),
            Reply::Overloaded {
                id: rid,
                lag_windows,
                threshold,
                retry_after_ms,
            } if rid == id => Ok(QueryVerdict::Overloaded {
                lag_windows,
                threshold,
                retry_after_ms,
            }),
            other => Err(unexpected("result", &other)),
        }
    }

    /// Runs an explicit batch of queries in one frame; the server fans
    /// them across engine workers in one call.
    pub fn query_batch(
        &mut self,
        graphs: &[Graph],
        deadline_ms: Option<u64>,
    ) -> Result<BatchVerdict, ClientError> {
        self.query_batch_opts(graphs, deadline_ms, None)
    }

    /// [`query_batch`](Client::query_batch) with a bounded-staleness
    /// `max_lag` applying to the whole batch (see
    /// [`query_opts`](Client::query_opts)).
    pub fn query_batch_opts(
        &mut self,
        graphs: &[Graph],
        deadline_ms: Option<u64>,
        max_lag: Option<u64>,
    ) -> Result<BatchVerdict, ClientError> {
        let id = self.take_id();
        self.send(&Request::Batch {
            id,
            graphs: graphs.to_vec(),
            deadline_ms,
            max_lag,
        })?;
        match self.recv()? {
            Reply::BatchResult { id: rid, results } if rid == id => {
                Ok(BatchVerdict::Answered(results))
            }
            Reply::Overloaded {
                id: rid,
                lag_windows,
                threshold,
                retry_after_ms,
            } if rid == id => Ok(BatchVerdict::Overloaded {
                lag_windows,
                threshold,
                retry_after_ms,
            }),
            other => Err(unexpected("batch_result", &other)),
        }
    }

    /// Fetches the server's serving-stats snapshot.
    pub fn stats(&mut self) -> Result<ServingStats, ClientError> {
        self.send(&Request::Stats)?;
        match self.recv()? {
            Reply::StatsResult(stats) => Ok(stats),
            other => Err(unexpected("stats_result", &other)),
        }
    }

    /// Converts this connection into a replication subscription: sends
    /// `subscribe` and consumes the client, since the connection becomes
    /// a one-way push stream — no further requests can ride it. With
    /// `from_seq`, asks to resume after that applied flip (the server
    /// falls back to a snapshot when its ring no longer covers the gap).
    pub fn subscribe(
        mut self,
        from_seq: Option<u64>,
    ) -> Result<(SubscribeStart, ReplicaSubscriber), ClientError> {
        self.send(&Request::Subscribe { from_seq })?;
        let start = match self.recv()? {
            Reply::SubscribeOk { resume_from } => SubscribeStart::Live { resume_from },
            Reply::Snapshot { seq, data } => SubscribeStart::Snapshot {
                seq,
                checkpoint: data,
            },
            other => return Err(unexpected("subscribe_ok or snapshot", &other)),
        };
        Ok((
            start,
            ReplicaSubscriber {
                reader: self.reader,
                max_frame_bytes: self.max_frame_bytes,
            },
        ))
    }

    /// Asks the server to shut down gracefully; consumes the client (the
    /// connection closes after the acknowledging `bye`).
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send(&Request::Shutdown)?;
        match self.recv()? {
            Reply::Bye => Ok(()),
            other => Err(unexpected("bye", &other)),
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send(&mut self, frame: &Request) -> Result<(), ClientError> {
        write_frame(&mut self.writer, frame).map_err(ClientError::from)
    }

    fn recv(&mut self) -> Result<Reply, ClientError> {
        match read_frame(&mut self.reader, self.max_frame_bytes, Reply::from_value)? {
            Some(Reply::Error { code, message }) => Err(ClientError::Server { code, message }),
            Some(reply) => Ok(reply),
            None => Err(ClientError::UnexpectedReply(
                "connection closed while a reply was due".into(),
            )),
        }
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ClientError {
    ClientError::UnexpectedReply(format!("wanted {wanted}, got {got:?}"))
}

/// How a replication subscription started (the server's answer to
/// `subscribe`).
#[derive(Debug, Clone, PartialEq)]
pub enum SubscribeStart {
    /// The server resumed the stream live: local replica state is still
    /// current, deltas continue after `resume_from`.
    Live {
        /// The confirmed resume point (the subscriber's `from_seq`).
        resume_from: u64,
    },
    /// The server sent a bootstrap checkpoint to install first (via
    /// [`igq_core::Engine::open_follower`]).
    Snapshot {
        /// Flip ordinal the snapshot covers.
        seq: u64,
        /// The encoded engine checkpoint (binary codec).
        checkpoint: Vec<u8>,
    },
}

/// One pushed frame on a replication stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplicaEvent {
    /// A committed flip group to apply (feed `bytes` to
    /// [`igq_core::Engine::apply_replica_delta`]).
    Delta {
        /// The group's flip ordinal.
        seq: u64,
        /// The encoded delta group.
        bytes: Vec<u8>,
    },
    /// Idle keep-alive carrying the primary's latest committed flip.
    Heartbeat {
        /// The primary's latest flip ordinal.
        seq: u64,
    },
    /// The server closed the stream cleanly (e.g. server shutdown).
    Closed,
}

/// The receiving end of a connection converted by
/// [`Client::subscribe`]: a blocking iterator over pushed replication
/// frames.
pub struct ReplicaSubscriber {
    reader: BufReader<TcpStream>,
    max_frame_bytes: u64,
}

impl ReplicaSubscriber {
    /// Re-arms the socket read timeout for this stream. A healthy
    /// primary heartbeats every ~500 ms, so setting this to a
    /// [`FailoverPolicy`](crate::FailoverPolicy) heartbeat timeout turns
    /// a *silent* primary hang (process frozen, network black-holed — no
    /// RST ever arrives) into a timeout error
    /// ([`ClientError::is_timeout`]) within the bound.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Blocks for the next pushed frame. The server heartbeats idle
    /// streams well inside the socket timeout, so a timeout here means
    /// the connection is dead, not merely quiet.
    pub fn next_event(&mut self) -> Result<ReplicaEvent, ClientError> {
        match read_frame(&mut self.reader, self.max_frame_bytes, Reply::from_value)? {
            None => Ok(ReplicaEvent::Closed),
            Some(Reply::Delta { seq, data }) => Ok(ReplicaEvent::Delta { seq, bytes: data }),
            Some(Reply::Heartbeat { seq }) => Ok(ReplicaEvent::Heartbeat { seq }),
            Some(Reply::Error { code, message }) => Err(ClientError::Server { code, message }),
            Some(other) => Err(unexpected("delta or heartbeat", &other)),
        }
    }
}
