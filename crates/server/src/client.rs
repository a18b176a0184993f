//! Minimal client for the seqdb wire protocol.
//!
//! One blocking request/response exchange per [`Client::query`] call.
//! Typed engine errors come back as the same [`DbError`] variants the
//! server raised (see [`crate::protocol`]); transport failures surface
//! as [`DbError::Io`] / [`DbError::Protocol`]. Used by the integration
//! suite and `perf`'s `wire-oltp` workload; small enough to embed
//! anywhere.
//!
//! With [`Client::set_retry_attempts`] the client absorbs *admission*
//! refusals — the typed [`DbError::ServerBusy`] / [`DbError::ServerDraining`]
//! the server answers when its connection or queue limits are hit — by
//! retrying with bounded exponential backoff, reconnecting when the
//! server closed the socket after the refusal frame. Off by default:
//! statement-level errors must stay visible to code that wants them.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use seqdb_engine::QueryResult;
use seqdb_types::{DbError, Result, Row, Schema};

use crate::protocol::{
    decode_done, decode_error, decode_rows, decode_schema, encode_query, read_frame, write_frame,
    RESP_DONE, RESP_ERR, RESP_ROWS, RESP_SCHEMA,
};

/// First backoff pause; doubles per retry.
const RETRY_BASE: Duration = Duration::from_millis(10);
/// Backoff ceiling.
const RETRY_CAP: Duration = Duration::from_millis(500);

/// A connection to a seqdb wire server.
pub struct Client {
    /// The socket, read through a buffer so a response's frames cost one
    /// or two `read`s; writes go to the socket itself.
    conn: BufReader<TcpStream>,
    /// Peer address, kept so a retry can reconnect after the server
    /// refused-then-closed.
    peer: Option<SocketAddr>,
    /// How many times `query` retries a `ServerBusy`/`ServerDraining`
    /// refusal before surfacing it. `0` (the default) = no retries.
    retry_attempts: u32,
    /// Total refusals absorbed by backoff-and-retry over this client's
    /// lifetime.
    retries_performed: u64,
}

impl Client {
    /// Connect to `addr` (anything `ToSocketAddrs`, e.g. the value of
    /// [`Server::addr`](crate::Server::addr)).
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let peer = stream.peer_addr().ok();
        Ok(Client {
            conn: buffered(stream),
            peer,
            retry_attempts: 0,
            retries_performed: 0,
        })
    }

    /// Connect with a bound on the TCP handshake itself.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> Result<Client> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        Ok(Client {
            conn: buffered(stream),
            peer: Some(*addr),
            retry_attempts: 0,
            retries_performed: 0,
        })
    }

    /// Bound how long [`Client::query`] may block reading the response
    /// (`None` = forever).
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> Result<()> {
        self.stream().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Opt in to absorbing up to `attempts` `ServerBusy`/`ServerDraining`
    /// refusals per [`Client::query`] call with bounded exponential
    /// backoff (10ms doubling, capped at 500ms).
    pub fn set_retry_attempts(&mut self, attempts: u32) {
        self.retry_attempts = attempts;
    }

    /// Refusals absorbed by retry over this client's lifetime.
    pub fn retries_performed(&self) -> u64 {
        self.retries_performed
    }

    /// The underlying stream (tests use this to shut the socket down
    /// abruptly, simulating a vanished client).
    pub fn stream(&self) -> &TcpStream {
        self.conn.get_ref()
    }

    /// Execute one statement and collect the whole result. A typed
    /// error frame becomes that same `Err(DbError)` locally; the
    /// connection stays usable after any *typed* error (`ServerBusy`,
    /// `NoSuchStatement`, `Cancelled`, ...), matching the server's
    /// promise not to drop the connection for statement-level failures.
    ///
    /// With retries configured ([`Client::set_retry_attempts`]), a
    /// `ServerBusy`/`ServerDraining` answer is retried after a backoff
    /// pause — over the same connection when the server kept it open
    /// (queue-full), over a fresh one when it refused-then-closed
    /// (connection limit, draining).
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        let mut attempt: u32 = 0;
        loop {
            // A send failure is always safe to retry: the request never
            // reached the server, so nothing executed. It happens when a
            // refused-then-closed socket RSTs before our one-write frame
            // lands (EPIPE/ECONNRESET at write time). The refusal frame
            // the server wrote before closing is still buffered, and it
            // is the answer. Response errors retry only on the typed
            // refusals; an I/O error mid-response may follow a statement
            // that ran.
            let retriable = match self.send_query(sql) {
                Ok(()) => match self.read_response() {
                    Ok(r) => return Ok(r),
                    Err(e) if is_refusal(&e) => e,
                    Err(other) => return Err(other),
                },
                Err(e @ DbError::Io(_)) => self.buffered_refusal().unwrap_or(e),
                Err(other) => return Err(other),
            };
            if attempt >= self.retry_attempts {
                return Err(retriable);
            }
            let pause = RETRY_BASE
                .saturating_mul(1u32 << attempt.min(16))
                .min(RETRY_CAP);
            std::thread::sleep(pause);
            attempt += 1;
            self.retries_performed += 1;
            // A refusal at accept time (connection limit / draining) is
            // answered and then the socket is closed; reconnect before
            // retrying. A queue-full refusal keeps the connection open,
            // in which case the probe below is a no-op. A *send* failure
            // forces the redial: an unread frame still buffered on the
            // dead socket would make the peek probe report it alive, and
            // writes would hit the same broken pipe forever.
            self.reconnect_if_closed(matches!(retriable, DbError::Io(_)));
        }
    }

    fn send_query(&mut self, sql: &str) -> Result<()> {
        write_frame(self.conn.get_mut(), &encode_query(sql))
    }

    /// After a failed send: the typed refusal the server wrote before it
    /// closed the socket, if one is buffered. Read without blocking — a
    /// socket whose send failed has nothing more coming.
    fn buffered_refusal(&mut self) -> Option<DbError> {
        self.stream().set_nonblocking(true).ok()?;
        let found = match self.read_response() {
            Err(e) if is_refusal(&e) => Some(e),
            _ => None,
        };
        let _ = self.stream().set_nonblocking(false);
        found
    }

    fn read_response(&mut self) -> Result<QueryResult> {
        let mut schema: Option<Schema> = None;
        let mut rows: Vec<Row> = Vec::new();
        loop {
            let payload = match read_frame(&mut self.conn)? {
                Some(p) => p,
                None => {
                    return Err(DbError::Io(
                        "server closed the connection mid response".into(),
                    ))
                }
            };
            match payload.first().copied() {
                Some(RESP_SCHEMA) => schema = Some(decode_schema(&payload)?),
                Some(RESP_ROWS) => rows.extend(decode_rows(&payload)?),
                Some(RESP_DONE) => {
                    let affected = decode_done(&payload)?;
                    return Ok(QueryResult {
                        schema: std::sync::Arc::new(schema.unwrap_or_else(Schema::empty)),
                        rows,
                        affected,
                    });
                }
                Some(RESP_ERR) => return Err(decode_error(&payload)?),
                other => {
                    return Err(DbError::Protocol(format!(
                        "unexpected response tag {other:?}"
                    )))
                }
            }
        }
    }

    /// If the server has closed our socket (refusal-then-close), dial
    /// the remembered peer again. Failures are left for the next
    /// `send_query` to surface as I/O errors.
    fn reconnect_if_closed(&mut self, force: bool) {
        let Some(peer) = self.peer else { return };
        let closed = force || {
            // A zero-byte peek distinguishes "closed" (Ok(0)) from
            // "open, nothing buffered" (WouldBlock under a nonblocking
            // probe).
            let stream = self.stream();
            let _ = stream.set_nonblocking(true);
            let mut probe = [0u8; 1];
            let r = stream.peek(&mut probe);
            let _ = stream.set_nonblocking(false);
            matches!(r, Ok(0)) || matches!(&r, Err(e) if e.kind() != std::io::ErrorKind::WouldBlock)
        };
        if closed {
            if let Ok(stream) = TcpStream::connect(peer) {
                self.conn = buffered(stream);
            }
        }
    }
}

fn buffered(stream: TcpStream) -> BufReader<TcpStream> {
    let _ = stream.set_nodelay(true);
    BufReader::new(stream)
}

/// The typed admission refusals a retry may absorb.
fn is_refusal(e: &DbError) -> bool {
    matches!(e, DbError::ServerBusy(_) | DbError::ServerDraining(_))
}
