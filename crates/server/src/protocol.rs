//! The iGQ server's wire protocol: versioned, line-framed JSON.
//!
//! # Framing
//!
//! One frame = one JSON object, compact-encoded, terminated by a single
//! `\n`. Frames never contain raw newlines (the JSON encoder escapes them
//! inside strings), so a frame boundary is always unambiguous and a
//! reader can stream frames with nothing smarter than `read_until('\n')`.
//! [`read_frame`] bounds the bytes it will buffer for one frame
//! ([`WireError::TooLarge`]) and distinguishes a clean end-of-stream
//! (`Ok(None)`) from a connection torn mid-frame
//! ([`WireError::Truncated`]).
//!
//! # Versioning
//!
//! The first frame on a connection must be [`Request::Hello`] carrying the
//! client's protocol version. The server accepts exactly
//! [`PROTOCOL_VERSION`] and answers [`Reply::HelloOk`] (which echoes its
//! own version); any other version is answered with a typed
//! [`Reply::Error`] (`unsupported_version`) and the connection is closed.
//! Unknown `type` values and unknown/missing fields are malformed-frame
//! errors, never panics — garbage bytes on the socket degrade to a typed
//! error reply followed by a close.
//!
//! # Frame inventory
//!
//! Client → server: `hello`, `query`, `batch`, `stats`, `subscribe`,
//! `shutdown`.
//! Server → client: `hello_ok`, `result`, `batch_result`, `stats_result`,
//! `overloaded`, `subscribe_ok`, `snapshot`, `delta`, `heartbeat`,
//! `error`, `bye`.
//!
//! A `subscribe` frame converts the connection into a one-way replication
//! push stream: the server answers with `subscribe_ok` (live resume) or a
//! `snapshot` bootstrap, then pushes `delta` frames as the engine commits
//! window flips, interleaving `heartbeat`s on idle gaps. Binary payloads
//! (checkpoints and delta groups, already encoded by the engine's binary
//! codec) ride inside the JSON framing as base64 strings — framing stays
//! line-oriented and debuggable while the payload bytes stay exactly the
//! bytes [`igq_core::Engine::apply_replica_delta`] expects.
//!
//! Graphs ride the existing [`igq_graph::Graph`] JSON representation
//! (`{labels, edges[, edge_labels]}`), and answers are dataset
//! [`GraphId`]s — the same types the in-process
//! [`igq_core::QueryEngine`] API speaks, so wire answers are comparable
//! to in-process answers field-for-field.

use igq_core::{QueryResponse, Resolution};
use igq_graph::{Graph, GraphId};
use serde_json::{FromJson, Map, ToJson, Value};
use std::io::{BufRead, Read, Write};

/// The protocol version this build speaks (offered in `hello`, echoed in
/// `hello_ok`). Bump on any incompatible frame change.
///
/// v2 added the replication stream (`subscribe`/`subscribe_ok`/
/// `snapshot`/`delta`/`heartbeat`), the `max_lag` staleness bound on
/// `query`/`batch`, and the replication counters in `stats_result`.
///
/// v3 dropped `maintenance_lag` from `stats_result` (index maintenance is
/// synchronous; a strict decoder of the old shape would reject its
/// absence).
pub const PROTOCOL_VERSION: u32 = 3;

/// Default cap on one frame's encoded size. Generous: the largest frame in
/// practice is a `batch` of query graphs, each a few KB of JSON.
pub const DEFAULT_MAX_FRAME_BYTES: u64 = 16 * 1024 * 1024;

/// A typed wire/protocol error. Every variant maps to a stable `code`
/// string carried by [`Reply::Error`] so clients can dispatch without
/// parsing prose.
#[derive(Debug)]
pub enum WireError {
    /// The frame was not valid JSON, or was JSON of the wrong shape.
    Malformed(String),
    /// The peer offered a protocol version this build does not speak.
    UnsupportedVersion {
        /// Version the peer offered.
        offered: u32,
        /// Version this build speaks.
        speaks: u32,
    },
    /// The frame's `type` field named no known frame.
    UnknownType(String),
    /// The frame exceeded the reader's size bound before its `\n` arrived.
    TooLarge {
        /// The enforced bound.
        max_bytes: u64,
    },
    /// The connection ended mid-frame (bytes after the last `\n`).
    Truncated,
    /// A frame arrived out of protocol order (e.g. anything before
    /// `hello`, or a second `hello`).
    Protocol(String),
    /// The underlying socket failed.
    Io(std::io::Error),
}

impl WireError {
    /// The stable error code carried in `error` frames.
    pub fn code(&self) -> &'static str {
        match self {
            WireError::Malformed(_) => "malformed",
            WireError::UnsupportedVersion { .. } => "unsupported_version",
            WireError::UnknownType(_) => "unknown_type",
            WireError::TooLarge { .. } => "too_large",
            WireError::Truncated => "truncated",
            WireError::Protocol(_) => "protocol",
            WireError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::UnsupportedVersion { offered, speaks } => {
                write!(
                    f,
                    "unsupported protocol version {offered} (server speaks {speaks})"
                )
            }
            WireError::UnknownType(t) => write!(f, "unknown frame type {t:?}"),
            WireError::TooLarge { max_bytes } => {
                write!(f, "frame exceeds the {max_bytes}-byte bound")
            }
            WireError::Truncated => write!(f, "connection ended mid-frame"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Client → server frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Mandatory first frame: protocol version + a client identifier for
    /// server logs.
    Hello {
        /// Protocol version the client speaks.
        version: u32,
        /// Free-form client name (diagnostics only).
        client: String,
    },
    /// One query graph. `id` is echoed in the reply so a pipelining client
    /// can match answers to questions.
    Query {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The query graph.
        graph: Graph,
        /// Wire deadline, propagated into
        /// [`igq_core::QueryOptions::deadline`] and used to bound the
        /// socket while serving this request.
        deadline_ms: Option<u64>,
        /// Propagated into [`igq_core::QueryOptions::skip_admission`].
        skip_admission: bool,
        /// Bounded-staleness read: on a follower replica, shed this query
        /// with `overloaded` when replication lag exceeds this many
        /// window flips. Ignored on a primary (its lag is zero by
        /// definition).
        max_lag: Option<u64>,
    },
    /// An explicit client-side batch, answered with one `batch_result`.
    Batch {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The query graphs (index-aligned with the reply's results).
        graphs: Vec<Graph>,
        /// Per-request deadline applied to every query in the batch.
        deadline_ms: Option<u64>,
        /// Bounded-staleness read, as on `query` (applies to the whole
        /// batch).
        max_lag: Option<u64>,
    },
    /// Ask for a serving-stats snapshot.
    Stats,
    /// Convert this connection into a replication push stream. With
    /// `from_seq`, ask to resume after that applied flip; the server
    /// answers `subscribe_ok` when its ring still covers the gap,
    /// `snapshot` otherwise.
    Subscribe {
        /// Highest flip the subscriber has already applied (`None` for a
        /// fresh bootstrap).
        from_seq: Option<u64>,
    },
    /// Graceful server shutdown: the server answers `bye`, stops
    /// accepting, drains in-flight connections, and exits.
    Shutdown,
}

/// One query's answer as it travels the wire (inside `result` and
/// `batch_result` frames).
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    /// The exact answer set (sorted dataset graph ids).
    pub answers: Vec<GraphId>,
    /// How the engine resolved the query.
    pub resolution: Resolution,
    /// DB-side iso tests this query cost (the paper's headline metric).
    pub db_iso_tests: u64,
    /// Engine-observed end-to-end latency, microseconds
    /// ([`QueryResponse::elapsed`] — no client-side re-measuring needed).
    pub elapsed_us: u64,
    /// True when the wire deadline was exceeded (answers are exact anyway).
    pub deadline_exceeded: bool,
    /// How many requests shared this engine fan-out: 1 = served alone,
    /// ≥ 2 = coalesced by the server's micro-batching window (or sent as
    /// an explicit client batch of that size).
    pub batched_with: u64,
}

impl WireResult {
    /// Builds the wire form of an engine response.
    pub fn from_response(resp: &QueryResponse, batched_with: u64) -> WireResult {
        WireResult {
            answers: resp.outcome.answers.clone(),
            resolution: resp.outcome.resolution,
            db_iso_tests: resp.outcome.db_iso_tests,
            elapsed_us: resp.elapsed.as_micros() as u64,
            deadline_exceeded: resp.deadline_exceeded,
            batched_with,
        }
    }
}

/// The serving-stats snapshot carried by `stats_result`: the engine
/// counters a load balancer or operator dashboard actually wants.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingStats {
    /// Queries processed by the engine (any entry point).
    pub queries: u64,
    /// Typed requests served (`execute`/`execute_batch`).
    pub requests_served: u64,
    /// Requests shed by staleness-gated admission control.
    pub requests_rejected_overload: u64,
    /// Multi-request batches coalesced into one fan-out.
    pub batches_coalesced: u64,
    /// Exact-repeat cache hits (optimal case 1).
    pub exact_hits: u64,
    /// Empty-answer shortcuts (optimal case 2).
    pub empty_shortcuts: u64,
    /// DB-side iso tests, summed.
    pub db_iso_tests: u64,
    /// Queries currently cached.
    pub cached_queries: u64,
    /// True when the served engine is a read-only follower replica.
    pub follower: bool,
    /// Follower staleness in window flips (highest flip heard from the
    /// primary minus last flip applied). Zero on a primary.
    pub replication_lag: u64,
    /// The engine's flip ordinal: flips committed (primary) or applied
    /// from the stream (follower).
    pub last_applied_seq: u64,
    /// Flip groups published to replication subscribers (primary side).
    pub replica_groups_published: u64,
    /// Delta groups applied from the replication stream (follower side).
    pub replica_groups_applied: u64,
    /// Encoded WAL bytes appended to the attached store (codec-visible
    /// WAL footprint).
    pub wal_bytes_appended: u64,
    /// Encoded checkpoint bytes written, cumulative.
    pub checkpoint_bytes_written: u64,
    /// The engine's failover epoch (0 until a promotion happens anywhere
    /// in the replication tree).
    pub epoch: u64,
    /// True when the engine is serving in degraded mode (store write
    /// failures quarantined; answers stay exact, durability is deferred).
    pub degraded: bool,
    /// Why the engine is degraded (empty when healthy).
    pub degraded_reason: String,
    /// Flip groups currently quarantined awaiting a WAL retry.
    pub wal_quarantined_groups: u64,
    /// Numeric fields this build does not know, preserved verbatim in
    /// decode order — a newer server's counters reach the operator
    /// instead of being silently dropped.
    pub extra: Vec<(String, u64)>,
}

/// Server → client frames.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Handshake acknowledgement.
    HelloOk {
        /// Protocol version the server speaks.
        version: u32,
        /// Free-form server identifier (diagnostics only).
        server: String,
    },
    /// Answer to one `query` frame.
    Result {
        /// The `query` frame's correlation id.
        id: u64,
        /// The answer.
        result: WireResult,
    },
    /// Answer to one `batch` frame (results index-aligned with the
    /// request's graphs).
    BatchResult {
        /// The `batch` frame's correlation id.
        id: u64,
        /// Per-query answers.
        results: Vec<WireResult>,
    },
    /// Answer to a `stats` frame.
    StatsResult(ServingStats),
    /// Admission control shed this request: the serving replica's
    /// replication lag exceeded the request's `max_lag`. The request was
    /// *not* executed; retry after backing off.
    Overloaded {
        /// The rejected frame's correlation id.
        id: u64,
        /// Observed replication lag, in windows.
        lag_windows: u64,
        /// The bound the lag exceeded (the request's `max_lag`).
        threshold: u64,
        /// Server's backoff hint.
        retry_after_ms: u64,
    },
    /// Acknowledges a `subscribe` that resumed live: the subscriber's
    /// state is still current and `delta` frames follow directly.
    SubscribeOk {
        /// The resume point the server confirmed (the subscriber's
        /// `from_seq`); the next `delta` carries `resume_from + 1`.
        resume_from: u64,
    },
    /// Bootstrap for a `subscribe` the ring could not resume: a full
    /// engine checkpoint to install via
    /// [`igq_core::Engine::open_follower`], followed by `delta` frames.
    Snapshot {
        /// Flip ordinal the snapshot covers.
        seq: u64,
        /// Encoded engine checkpoint (binary codec; base64 on the wire).
        data: Vec<u8>,
    },
    /// One committed window-flip group pushed on a replication stream.
    Delta {
        /// The flip ordinal every record of the group carries.
        seq: u64,
        /// The encoded delta group (binary WAL frames; base64 on the
        /// wire), fed verbatim to
        /// [`igq_core::Engine::apply_replica_delta`].
        data: Vec<u8>,
    },
    /// Keep-alive on an idle replication stream, carrying the primary's
    /// latest committed flip so the follower's staleness gauge stays
    /// honest while no flips happen.
    Heartbeat {
        /// The primary's latest committed flip ordinal.
        seq: u64,
    },
    /// A typed protocol/codec error. The server closes the connection
    /// after sending one (except where documented otherwise).
    Error {
        /// Stable machine-readable code ([`WireError::code`]).
        code: String,
        /// Human-readable detail.
        message: String,
    },
    /// Acknowledges `shutdown`; the connection closes after this frame.
    Bye,
}

impl Reply {
    /// The typed-error reply for a [`WireError`].
    pub fn error(e: &WireError) -> Reply {
        Reply::Error {
            code: e.code().to_owned(),
            message: e.to_string(),
        }
    }
}

/// Stable wire name of a [`Resolution`].
pub fn resolution_name(r: Resolution) -> &'static str {
    match r {
        Resolution::Verified => "verified",
        Resolution::ExactHit => "exact_hit",
        Resolution::EmptyAnswerShortcut => "empty_shortcut",
    }
}

fn parse_resolution(s: &str) -> Result<Resolution, serde_json::Error> {
    match s {
        "verified" => Ok(Resolution::Verified),
        "exact_hit" => Ok(Resolution::ExactHit),
        "empty_shortcut" => Ok(Resolution::EmptyAnswerShortcut),
        other => Err(serde_json::Error::custom(format!(
            "unknown resolution {other:?}"
        ))),
    }
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard base64 (RFC 4648, `=`-padded): how binary payloads
/// (checkpoints, delta groups) ride inside the line-framed JSON protocol.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let n = (u32::from(chunk[0]) << 16)
            | (u32::from(*chunk.get(1).unwrap_or(&0)) << 8)
            | u32::from(*chunk.get(2).unwrap_or(&0));
        out.push(B64_ALPHABET[(n >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(n >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(n >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[n as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Inverse of [`b64_encode`]; rejects non-alphabet bytes, bad lengths,
/// and misplaced padding instead of guessing.
pub fn b64_decode(s: &str) -> Result<Vec<u8>, serde_json::Error> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return Err(serde_json::Error::custom(
            "base64 length is not a multiple of 4",
        ));
    }
    let sextet = |c: u8| -> Result<u32, serde_json::Error> {
        match c {
            b'A'..=b'Z' => Ok(u32::from(c - b'A')),
            b'a'..=b'z' => Ok(u32::from(c - b'a') + 26),
            b'0'..=b'9' => Ok(u32::from(c - b'0') + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            other => Err(serde_json::Error::custom(format!(
                "invalid base64 byte 0x{other:02x}"
            ))),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    let quads = bytes.len() / 4;
    for (i, quad) in bytes.chunks(4).enumerate() {
        // Padding is only legal in the final quad, and at most `==`.
        let pad = if i + 1 == quads {
            quad.iter().rev().take_while(|&&c| c == b'=').count().min(2)
        } else {
            0
        };
        let mut n = 0u32;
        for &c in &quad[..4 - pad] {
            n = (n << 6) | sextet(c)?;
        }
        n <<= 6 * pad as u32;
        let trio = [(n >> 16) as u8, (n >> 8) as u8, n as u8];
        out.extend_from_slice(&trio[..3 - pad]);
    }
    Ok(out)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    let mut m = Map::new();
    for (k, v) in entries {
        m.insert(k.to_owned(), v);
    }
    Value::Object(m)
}

fn field<T: FromJson>(v: &Value, key: &str) -> Result<T, serde_json::Error> {
    T::from_json(
        v.get(key)
            .ok_or_else(|| serde_json::Error::custom(format!("missing field {key:?}")))?,
    )
}

/// `Option` fields tolerate both an absent key and an explicit `null`.
fn opt_field<T: FromJson>(v: &Value, key: &str) -> Result<Option<T>, serde_json::Error> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(x) => T::from_json(x).map(Some),
    }
}

fn frame_type(v: &Value) -> Result<&str, WireError> {
    match v.get("type").and_then(Value::as_str) {
        Some(t) => Ok(t),
        None => Err(WireError::Malformed(
            "frame has no string \"type\" field".into(),
        )),
    }
}

impl ToJson for Request {
    fn to_json(&self) -> Value {
        match self {
            Request::Hello { version, client } => obj(vec![
                ("type", "hello".to_json()),
                ("v", version.to_json()),
                ("client", client.to_json()),
            ]),
            Request::Query {
                id,
                graph,
                deadline_ms,
                skip_admission,
                max_lag,
            } => obj(vec![
                ("type", "query".to_json()),
                ("id", id.to_json()),
                ("graph", graph.to_json()),
                ("deadline_ms", deadline_ms.to_json()),
                ("skip_admission", skip_admission.to_json()),
                ("max_lag", max_lag.to_json()),
            ]),
            Request::Batch {
                id,
                graphs,
                deadline_ms,
                max_lag,
            } => obj(vec![
                ("type", "batch".to_json()),
                ("id", id.to_json()),
                ("graphs", graphs.to_json()),
                ("deadline_ms", deadline_ms.to_json()),
                ("max_lag", max_lag.to_json()),
            ]),
            Request::Stats => obj(vec![("type", "stats".to_json())]),
            Request::Subscribe { from_seq } => obj(vec![
                ("type", "subscribe".to_json()),
                ("from_seq", from_seq.to_json()),
            ]),
            Request::Shutdown => obj(vec![("type", "shutdown".to_json())]),
        }
    }
}

impl Request {
    /// Decodes one client frame, mapping shape errors to typed
    /// [`WireError`]s (never panics on garbage).
    pub fn from_value(v: &Value) -> Result<Request, WireError> {
        let kind = frame_type(v)?;
        let shape = |e: serde_json::Error| WireError::Malformed(e.to_string());
        match kind {
            "hello" => Ok(Request::Hello {
                version: field(v, "v").map_err(shape)?,
                client: opt_field(v, "client").map_err(shape)?.unwrap_or_default(),
            }),
            "query" => Ok(Request::Query {
                id: field(v, "id").map_err(shape)?,
                graph: field(v, "graph").map_err(shape)?,
                deadline_ms: opt_field(v, "deadline_ms").map_err(shape)?,
                skip_admission: opt_field(v, "skip_admission")
                    .map_err(shape)?
                    .unwrap_or(false),
                max_lag: opt_field(v, "max_lag").map_err(shape)?,
            }),
            "batch" => Ok(Request::Batch {
                id: field(v, "id").map_err(shape)?,
                graphs: field(v, "graphs").map_err(shape)?,
                deadline_ms: opt_field(v, "deadline_ms").map_err(shape)?,
                max_lag: opt_field(v, "max_lag").map_err(shape)?,
            }),
            "stats" => Ok(Request::Stats),
            "subscribe" => Ok(Request::Subscribe {
                from_seq: opt_field(v, "from_seq").map_err(shape)?,
            }),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(WireError::UnknownType(other.to_owned())),
        }
    }
}

impl FromJson for Request {
    fn from_json(v: &Value) -> Result<Request, serde_json::Error> {
        Request::from_value(v).map_err(|e| serde_json::Error::custom(e.to_string()))
    }
}

impl ToJson for WireResult {
    fn to_json(&self) -> Value {
        obj(vec![
            ("answers", self.answers.to_json()),
            ("resolution", resolution_name(self.resolution).to_json()),
            ("db_iso_tests", self.db_iso_tests.to_json()),
            ("elapsed_us", self.elapsed_us.to_json()),
            ("deadline_exceeded", self.deadline_exceeded.to_json()),
            ("batched_with", self.batched_with.to_json()),
        ])
    }
}

impl FromJson for WireResult {
    fn from_json(v: &Value) -> Result<WireResult, serde_json::Error> {
        Ok(WireResult {
            answers: field(v, "answers")?,
            resolution: parse_resolution(&field::<String>(v, "resolution")?)?,
            db_iso_tests: field(v, "db_iso_tests")?,
            elapsed_us: field(v, "elapsed_us")?,
            deadline_exceeded: field(v, "deadline_exceeded")?,
            batched_with: field(v, "batched_with")?,
        })
    }
}

/// Every field name `ServingStats` itself serializes (plus the frame's
/// `type` tag): anything else in a `stats_result` object is a newer
/// server's counter and lands in [`ServingStats::extra`].
const SERVING_STATS_FIELDS: &[&str] = &[
    "type",
    "queries",
    "requests_served",
    "requests_rejected_overload",
    "batches_coalesced",
    "exact_hits",
    "empty_shortcuts",
    "db_iso_tests",
    "cached_queries",
    "follower",
    "replication_lag",
    "last_applied_seq",
    "replica_groups_published",
    "replica_groups_applied",
    "wal_bytes_appended",
    "checkpoint_bytes_written",
    "epoch",
    "degraded",
    "degraded_reason",
    "wal_quarantined_groups",
];

impl ToJson for ServingStats {
    fn to_json(&self) -> Value {
        let mut entries = vec![
            ("queries", self.queries.to_json()),
            ("requests_served", self.requests_served.to_json()),
            (
                "requests_rejected_overload",
                self.requests_rejected_overload.to_json(),
            ),
            ("batches_coalesced", self.batches_coalesced.to_json()),
            ("exact_hits", self.exact_hits.to_json()),
            ("empty_shortcuts", self.empty_shortcuts.to_json()),
            ("db_iso_tests", self.db_iso_tests.to_json()),
            ("cached_queries", self.cached_queries.to_json()),
            ("follower", self.follower.to_json()),
            ("replication_lag", self.replication_lag.to_json()),
            ("last_applied_seq", self.last_applied_seq.to_json()),
            (
                "replica_groups_published",
                self.replica_groups_published.to_json(),
            ),
            (
                "replica_groups_applied",
                self.replica_groups_applied.to_json(),
            ),
            ("wal_bytes_appended", self.wal_bytes_appended.to_json()),
            (
                "checkpoint_bytes_written",
                self.checkpoint_bytes_written.to_json(),
            ),
            ("epoch", self.epoch.to_json()),
            ("degraded", self.degraded.to_json()),
            ("degraded_reason", self.degraded_reason.to_json()),
            (
                "wal_quarantined_groups",
                self.wal_quarantined_groups.to_json(),
            ),
        ];
        for (k, v) in &self.extra {
            entries.push((k.as_str(), v.to_json()));
        }
        obj(entries)
    }
}

impl FromJson for ServingStats {
    fn from_json(v: &Value) -> Result<ServingStats, serde_json::Error> {
        // The replication-era fields decode leniently (defaulting) so a
        // stats object captured before the v2 bump still parses.
        let mut extra = Vec::new();
        if let Value::Object(m) = v {
            for (k, val) in m.iter() {
                if SERVING_STATS_FIELDS.contains(&k.as_str()) {
                    continue;
                }
                if let Ok(n) = u64::from_json(val) {
                    extra.push((k.clone(), n));
                }
            }
            extra.sort();
        }
        Ok(ServingStats {
            queries: field(v, "queries")?,
            requests_served: field(v, "requests_served")?,
            requests_rejected_overload: field(v, "requests_rejected_overload")?,
            batches_coalesced: field(v, "batches_coalesced")?,
            exact_hits: field(v, "exact_hits")?,
            empty_shortcuts: field(v, "empty_shortcuts")?,
            db_iso_tests: field(v, "db_iso_tests")?,
            cached_queries: field(v, "cached_queries")?,
            follower: opt_field(v, "follower")?.unwrap_or(false),
            replication_lag: opt_field(v, "replication_lag")?.unwrap_or(0),
            last_applied_seq: opt_field(v, "last_applied_seq")?.unwrap_or(0),
            replica_groups_published: opt_field(v, "replica_groups_published")?.unwrap_or(0),
            replica_groups_applied: opt_field(v, "replica_groups_applied")?.unwrap_or(0),
            wal_bytes_appended: opt_field(v, "wal_bytes_appended")?.unwrap_or(0),
            checkpoint_bytes_written: opt_field(v, "checkpoint_bytes_written")?.unwrap_or(0),
            // v3 (failure-domain) fields: lenient like the v2 ones above.
            epoch: opt_field(v, "epoch")?.unwrap_or(0),
            degraded: opt_field(v, "degraded")?.unwrap_or(false),
            degraded_reason: opt_field(v, "degraded_reason")?.unwrap_or_default(),
            wal_quarantined_groups: opt_field(v, "wal_quarantined_groups")?.unwrap_or(0),
            extra,
        })
    }
}

impl ToJson for Reply {
    fn to_json(&self) -> Value {
        match self {
            Reply::HelloOk { version, server } => obj(vec![
                ("type", "hello_ok".to_json()),
                ("v", version.to_json()),
                ("server", server.to_json()),
            ]),
            Reply::Result { id, result } => obj(vec![
                ("type", "result".to_json()),
                ("id", id.to_json()),
                ("result", result.to_json()),
            ]),
            Reply::BatchResult { id, results } => obj(vec![
                ("type", "batch_result".to_json()),
                ("id", id.to_json()),
                ("results", results.to_json()),
            ]),
            Reply::StatsResult(stats) => {
                // ServingStats always serializes to an object; tolerate
                // anything else rather than panic on a connection thread.
                let mut m = match stats.to_json() {
                    Value::Object(m) => m,
                    _ => Map::new(),
                };
                m.insert("type".to_owned(), "stats_result".to_json());
                Value::Object(m)
            }
            Reply::Overloaded {
                id,
                lag_windows,
                threshold,
                retry_after_ms,
            } => obj(vec![
                ("type", "overloaded".to_json()),
                ("id", id.to_json()),
                ("lag_windows", lag_windows.to_json()),
                ("threshold", threshold.to_json()),
                ("retry_after_ms", retry_after_ms.to_json()),
            ]),
            Reply::SubscribeOk { resume_from } => obj(vec![
                ("type", "subscribe_ok".to_json()),
                ("resume_from", resume_from.to_json()),
            ]),
            Reply::Snapshot { seq, data } => obj(vec![
                ("type", "snapshot".to_json()),
                ("seq", seq.to_json()),
                ("data", b64_encode(data).to_json()),
            ]),
            Reply::Delta { seq, data } => obj(vec![
                ("type", "delta".to_json()),
                ("seq", seq.to_json()),
                ("data", b64_encode(data).to_json()),
            ]),
            Reply::Heartbeat { seq } => obj(vec![
                ("type", "heartbeat".to_json()),
                ("seq", seq.to_json()),
            ]),
            Reply::Error { code, message } => obj(vec![
                ("type", "error".to_json()),
                ("code", code.to_json()),
                ("message", message.to_json()),
            ]),
            Reply::Bye => obj(vec![("type", "bye".to_json())]),
        }
    }
}

impl Reply {
    /// Decodes one server frame, mapping shape errors to typed
    /// [`WireError`]s.
    pub fn from_value(v: &Value) -> Result<Reply, WireError> {
        let kind = frame_type(v)?;
        let shape = |e: serde_json::Error| WireError::Malformed(e.to_string());
        match kind {
            "hello_ok" => Ok(Reply::HelloOk {
                version: field(v, "v").map_err(shape)?,
                server: opt_field(v, "server").map_err(shape)?.unwrap_or_default(),
            }),
            "result" => Ok(Reply::Result {
                id: field(v, "id").map_err(shape)?,
                result: field(v, "result").map_err(shape)?,
            }),
            "batch_result" => Ok(Reply::BatchResult {
                id: field(v, "id").map_err(shape)?,
                results: field(v, "results").map_err(shape)?,
            }),
            "stats_result" => Ok(Reply::StatsResult(
                ServingStats::from_json(v).map_err(shape)?,
            )),
            "overloaded" => Ok(Reply::Overloaded {
                id: field(v, "id").map_err(shape)?,
                lag_windows: field(v, "lag_windows").map_err(shape)?,
                threshold: field(v, "threshold").map_err(shape)?,
                retry_after_ms: field(v, "retry_after_ms").map_err(shape)?,
            }),
            "subscribe_ok" => Ok(Reply::SubscribeOk {
                resume_from: field(v, "resume_from").map_err(shape)?,
            }),
            "snapshot" => Ok(Reply::Snapshot {
                seq: field(v, "seq").map_err(shape)?,
                data: b64_decode(&field::<String>(v, "data").map_err(shape)?).map_err(shape)?,
            }),
            "delta" => Ok(Reply::Delta {
                seq: field(v, "seq").map_err(shape)?,
                data: b64_decode(&field::<String>(v, "data").map_err(shape)?).map_err(shape)?,
            }),
            "heartbeat" => Ok(Reply::Heartbeat {
                seq: field(v, "seq").map_err(shape)?,
            }),
            "error" => Ok(Reply::Error {
                code: field(v, "code").map_err(shape)?,
                message: field(v, "message").map_err(shape)?,
            }),
            "bye" => Ok(Reply::Bye),
            other => Err(WireError::UnknownType(other.to_owned())),
        }
    }
}

impl FromJson for Reply {
    fn from_json(v: &Value) -> Result<Reply, serde_json::Error> {
        Reply::from_value(v).map_err(|e| serde_json::Error::custom(e.to_string()))
    }
}

/// Encodes one frame: compact JSON + `\n`, flushed (frames are the unit of
/// progress — a buffered half-frame helps nobody).
pub fn write_frame<T: ToJson>(w: &mut impl Write, frame: &T) -> Result<(), WireError> {
    let mut line = serde_json::to_string(frame).map_err(|e| WireError::Malformed(e.to_string()))?;
    debug_assert!(!line.contains('\n'), "compact JSON is newline-free");
    // One write per frame: on an unbuffered socket with `TCP_NODELAY`, a
    // separate newline would cost a second syscall and segment.
    line.push('\n');
    w.write_all(line.as_bytes()).map_err(WireError::Io)?;
    w.flush().map_err(WireError::Io)
}

/// Reads one `\n`-terminated frame and parses it as JSON. `Ok(None)` on a
/// clean end-of-stream; typed errors for everything else:
/// [`WireError::TooLarge`] once a frame passes `max_bytes` without its
/// terminator, [`WireError::Truncated`] for EOF mid-frame,
/// [`WireError::Malformed`] for non-JSON bytes. Never panics on garbage.
pub fn read_frame_value(r: &mut impl BufRead, max_bytes: u64) -> Result<Option<Value>, WireError> {
    let mut buf = Vec::new();
    let n = r
        .by_ref()
        .take(max_bytes)
        .read_until(b'\n', &mut buf)
        .map_err(WireError::Io)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        // Either the bound cut the read short (oversized frame) or the
        // stream ended with a partial line (torn connection).
        if n as u64 == max_bytes {
            return Err(WireError::TooLarge { max_bytes });
        }
        return Err(WireError::Truncated);
    }
    buf.pop();
    let text =
        std::str::from_utf8(&buf).map_err(|_| WireError::Malformed("frame is not UTF-8".into()))?;
    serde_json::from_str::<Value>(text)
        .map(Some)
        .map_err(|e| WireError::Malformed(format!("frame is not valid JSON: {e}")))
}

/// [`read_frame_value`] plus typed decoding into a [`Request`] or
/// [`Reply`] (via their `from_value`).
pub fn read_frame<T>(
    r: &mut impl BufRead,
    max_bytes: u64,
    decode: impl FnOnce(&Value) -> Result<T, WireError>,
) -> Result<Option<T>, WireError> {
    match read_frame_value(r, max_bytes)? {
        None => Ok(None),
        Some(v) => decode(&v).map(Some),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igq_graph::graph_from;

    fn roundtrip_request(req: Request) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &req).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let back = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Request::from_value)
            .unwrap()
            .expect("one frame");
        assert_eq!(req, back);
    }

    fn roundtrip_reply(reply: Reply) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &reply).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let back = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Reply::from_value)
            .unwrap()
            .expect("one frame");
        assert_eq!(reply, back);
    }

    #[test]
    fn every_request_frame_round_trips() {
        roundtrip_request(Request::Hello {
            version: PROTOCOL_VERSION,
            client: "test".into(),
        });
        roundtrip_request(Request::Query {
            id: 7,
            graph: graph_from(&[0, 1, 2], &[(0, 1), (1, 2)]),
            deadline_ms: Some(250),
            skip_admission: true,
            max_lag: Some(3),
        });
        roundtrip_request(Request::Query {
            id: 8,
            graph: graph_from(&[3], &[]),
            deadline_ms: None,
            skip_admission: false,
            max_lag: None,
        });
        roundtrip_request(Request::Batch {
            id: 9,
            graphs: vec![graph_from(&[0, 1], &[(0, 1)]), graph_from(&[2], &[])],
            deadline_ms: Some(1000),
            max_lag: Some(0),
        });
        roundtrip_request(Request::Stats);
        roundtrip_request(Request::Subscribe { from_seq: None });
        roundtrip_request(Request::Subscribe { from_seq: Some(42) });
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn every_reply_frame_round_trips() {
        roundtrip_reply(Reply::HelloOk {
            version: PROTOCOL_VERSION,
            server: "igq-server/test".into(),
        });
        roundtrip_reply(Reply::Result {
            id: 7,
            result: WireResult {
                answers: vec![GraphId::new(2), GraphId::new(5)],
                resolution: Resolution::ExactHit,
                db_iso_tests: 0,
                elapsed_us: 123,
                deadline_exceeded: false,
                batched_with: 4,
            },
        });
        roundtrip_reply(Reply::BatchResult {
            id: 8,
            results: vec![WireResult {
                answers: vec![],
                resolution: Resolution::EmptyAnswerShortcut,
                db_iso_tests: 0,
                elapsed_us: 5,
                deadline_exceeded: true,
                batched_with: 2,
            }],
        });
        roundtrip_reply(Reply::StatsResult(ServingStats {
            queries: 10,
            requests_served: 9,
            requests_rejected_overload: 1,
            batches_coalesced: 3,
            exact_hits: 4,
            empty_shortcuts: 2,
            db_iso_tests: 55,
            cached_queries: 8,
            follower: true,
            replication_lag: 2,
            last_applied_seq: 17,
            replica_groups_published: 5,
            replica_groups_applied: 17,
            wal_bytes_appended: 4096,
            checkpoint_bytes_written: 8192,
            epoch: 3,
            degraded: true,
            degraded_reason: "WAL append failed: injected fault".to_owned(),
            wal_quarantined_groups: 2,
            extra: vec![("future_counter".to_owned(), 99)],
        }));
        roundtrip_reply(Reply::SubscribeOk { resume_from: 12 });
        roundtrip_reply(Reply::Snapshot {
            seq: 3,
            data: vec![0x42, 0x00, 0xff, 0x07],
        });
        roundtrip_reply(Reply::Delta {
            seq: 4,
            data: (0u8..=255).collect(),
        });
        roundtrip_reply(Reply::Delta {
            seq: 5,
            data: Vec::new(),
        });
        roundtrip_reply(Reply::Heartbeat { seq: 6 });
        roundtrip_reply(Reply::Overloaded {
            id: 7,
            lag_windows: 5,
            threshold: 2,
            retry_after_ms: 20,
        });
        roundtrip_reply(Reply::Error {
            code: "malformed".into(),
            message: "nope".into(),
        });
        roundtrip_reply(Reply::Bye);
    }

    #[test]
    fn garbage_bytes_are_typed_errors_not_panics() {
        for garbage in [
            "not json at all\n",
            "{\"type\":12}\n",
            "{\"no_type\":true}\n",
            "{\"type\":\"warp\"}\n",
            "{\"type\":\"query\"}\n",              // missing fields
            "{\"type\":\"query\",\"id\":\"x\"}\n", // wrong field type
            "\u{0}\u{1}\u{2}\n",                   // control bytes
            "{\"type\":\"query\",\"id\":1,\"graph\":{\"labels\":[0],\"edges\":[[0,0]]}}\n", // self-loop
        ] {
            let mut r = std::io::Cursor::new(garbage.as_bytes().to_vec());
            let out = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Request::from_value);
            assert!(out.is_err(), "{garbage:?} must be rejected, got {out:?}");
        }
        // Invalid UTF-8.
        let mut r = std::io::Cursor::new(vec![0xff, 0xfe, b'\n']);
        assert!(matches!(
            read_frame_value(&mut r, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn truncated_and_oversized_frames_are_distinguished() {
        // EOF mid-frame.
        let mut r = std::io::Cursor::new(b"{\"type\":\"sta".to_vec());
        assert!(matches!(
            read_frame_value(&mut r, DEFAULT_MAX_FRAME_BYTES),
            Err(WireError::Truncated)
        ));
        // Frame larger than the bound.
        let mut big = vec![b'x'; 64];
        big.push(b'\n');
        let mut r = std::io::Cursor::new(big);
        assert!(matches!(
            read_frame_value(&mut r, 16),
            Err(WireError::TooLarge { max_bytes: 16 })
        ));
        // Clean EOF.
        let mut r = std::io::Cursor::new(Vec::new());
        assert!(read_frame_value(&mut r, 16).unwrap().is_none());
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(WireError::Malformed("x".into()).code(), "malformed");
        assert_eq!(
            WireError::UnsupportedVersion {
                offered: 9,
                speaks: 1
            }
            .code(),
            "unsupported_version"
        );
        assert_eq!(WireError::UnknownType("x".into()).code(), "unknown_type");
        assert_eq!(WireError::TooLarge { max_bytes: 1 }.code(), "too_large");
        assert_eq!(WireError::Truncated.code(), "truncated");
        assert_eq!(WireError::Protocol("x".into()).code(), "protocol");
        let reply = Reply::error(&WireError::Truncated);
        match reply {
            Reply::Error { code, .. } => assert_eq!(code, "truncated"),
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    #[test]
    fn base64_round_trips_and_rejects_garbage() {
        // Every length mod 3, including empty.
        for len in 0..=9usize {
            let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37) ^ 0xa5).collect();
            let enc = b64_encode(&bytes);
            assert_eq!(enc.len() % 4, 0, "padded to a quad boundary");
            assert_eq!(b64_decode(&enc).unwrap(), bytes, "len {len}");
        }
        // Known vector (RFC 4648).
        assert_eq!(b64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(b64_encode(b"foob"), "Zm9vYg==");
        assert_eq!(b64_decode("Zm9vYg==").unwrap(), b"foob");
        // Garbage is rejected, not guessed at.
        for bad in ["abc", "ab=c", "====", "Zm9v!A==", "Zm9=vYg="] {
            assert!(b64_decode(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn unknown_stats_fields_are_preserved_not_dropped() {
        // A stats_result from a hypothetical newer server that grew two
        // extra counters: they must survive decoding into `extra`.
        let line = "{\"type\":\"stats_result\",\"queries\":1,\"requests_served\":1,\
                    \"requests_rejected_overload\":0,\"batches_coalesced\":0,\
                    \"exact_hits\":0,\"empty_shortcuts\":0,\"db_iso_tests\":0,\
                    \"cached_queries\":0,\
                    \"novel_counter\":7,\"another_novel\":8,\"non_numeric\":\"x\"}\n";
        let mut r = std::io::Cursor::new(line.as_bytes().to_vec());
        let reply = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Reply::from_value)
            .unwrap()
            .expect("one frame");
        let Reply::StatsResult(stats) = reply else {
            panic!("expected stats_result, got {reply:?}");
        };
        assert_eq!(
            stats.extra,
            vec![
                ("another_novel".to_owned(), 8),
                ("novel_counter".to_owned(), 7)
            ],
            "unknown numeric fields preserved (sorted); non-numeric skipped"
        );
        // And they survive a re-encode round trip.
        let mut buf = Vec::new();
        write_frame(&mut buf, &Reply::StatsResult(stats.clone())).unwrap();
        let mut r = std::io::Cursor::new(buf);
        let back = read_frame(&mut r, DEFAULT_MAX_FRAME_BYTES, Reply::from_value)
            .unwrap()
            .expect("one frame");
        assert_eq!(back, Reply::StatsResult(stats));
    }

    #[test]
    fn frames_stream_back_to_back() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Request::Stats).unwrap();
        write_frame(&mut buf, &Request::Shutdown).unwrap();
        let mut r = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r, 1024, Request::from_value).unwrap(),
            Some(Request::Stats)
        );
        assert_eq!(
            read_frame(&mut r, 1024, Request::from_value).unwrap(),
            Some(Request::Shutdown)
        );
        assert_eq!(read_frame(&mut r, 1024, Request::from_value).unwrap(), None);
    }

    /// A writer that records each `write` call's bytes.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.push(bytes.to_vec());
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        // On an unbuffered socket each `write` is a syscall, and with
        // `TCP_NODELAY` a segment: the newline rides with the line.
        let mut w = Writes::default();
        write_frame(&mut w, &Request::Stats).unwrap();
        assert_eq!(w.0, vec![b"{\"type\":\"stats\"}\n".to_vec()]);
    }
}
