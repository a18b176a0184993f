//! The connection registry and its DMV, `DM_EXEC_CONNECTIONS()`.
//!
//! The wire server registers every accepted connection here so the
//! question "who is connected, and what are they doing?" is answerable
//! from SQL — the analogue of `sys.dm_exec_connections`. Like the
//! pinned-frames and live-temp-file gauges, `active_connections` (in
//! `DM_OS_PERFORMANCE_COUNTERS()`) reads zero when no client is
//! connected, so "the server leaked a connection" is a one-line SQL
//! assertion from a monitoring session.
//!
//! The registry lives in the engine rather than the server crate because
//! DMVs are registered by [`Database`](crate::Database) assembly; the
//! server is just one producer of entries (an embedded test harness can
//! register fake connections the same way).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use seqdb_types::{Column, DataType, Result, Row, Schema, Value};

use crate::dmv::{no_args, RowsCursor};
use crate::exec::ExecContext;
use crate::udx::{TableFunction, TvfCursor};

/// Where a connection is in its lifecycle, as shown by the DMV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnState {
    /// Between requests, waiting for the client's next frame.
    Idle,
    /// A statement is in flight (including writing its response).
    Executing,
    /// The server is draining; the connection finishes its in-flight
    /// work (if any) and closes instead of accepting another request.
    Draining,
}

impl ConnState {
    pub fn name(self) -> &'static str {
        match self {
            ConnState::Idle => "idle",
            ConnState::Executing => "executing",
            ConnState::Draining => "draining",
        }
    }
}

struct ConnInfo {
    peer: String,
    session_id: u64,
    state: ConnState,
    last_activity: Instant,
}

/// A point-in-time view of one live connection.
#[derive(Debug, Clone)]
pub struct ConnectionInfo {
    pub connection_id: u64,
    pub peer: String,
    pub session_id: u64,
    pub state: ConnState,
    /// Time since the connection last made progress (request received,
    /// state change, response written).
    pub idle: std::time::Duration,
}

/// Registry of live client connections. Connection ids are process-unique
/// and never reused.
pub struct ConnectionRegistry {
    next_id: AtomicU64,
    live: Mutex<HashMap<u64, ConnInfo>>,
}

impl ConnectionRegistry {
    pub fn new() -> Arc<ConnectionRegistry> {
        Arc::new(ConnectionRegistry {
            next_id: AtomicU64::new(1),
            live: Mutex::new(HashMap::new()),
        })
    }

    /// Register a newly accepted connection; the returned RAII handle
    /// deregisters it when dropped (clean close and unwind alike).
    pub fn register(self: &Arc<Self>, peer: &str, session_id: u64) -> ConnectionHandle {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.live.lock().insert(
            id,
            ConnInfo {
                peer: peer.to_string(),
                session_id,
                state: ConnState::Idle,
                last_activity: Instant::now(),
            },
        );
        let peer = peer.to_string();
        crate::trace::emit(
            crate::trace::TraceClass::Connection,
            "connection_open",
            session_id,
            0,
            || format!("conn={id} peer={peer}"),
        );
        ConnectionHandle {
            registry: self.clone(),
            id,
        }
    }

    /// Live connections right now (the `active_connections` gauge).
    pub fn active_count(&self) -> usize {
        self.live.lock().len()
    }

    /// Connections with a statement in flight.
    pub fn executing_count(&self) -> usize {
        self.live
            .lock()
            .values()
            .filter(|c| c.state == ConnState::Executing)
            .count()
    }

    /// Point-in-time view of every live connection, ordered by id.
    pub fn snapshot(&self) -> Vec<ConnectionInfo> {
        let live = self.live.lock();
        let mut v: Vec<ConnectionInfo> = live
            .iter()
            .map(|(&id, c)| ConnectionInfo {
                connection_id: id,
                peer: c.peer.clone(),
                session_id: c.session_id,
                state: c.state,
                idle: c.last_activity.elapsed(),
            })
            .collect();
        v.sort_by_key(|c| c.connection_id);
        v
    }

    fn set_state(&self, id: u64, state: ConnState) {
        if let Some(c) = self.live.lock().get_mut(&id) {
            c.state = state;
            c.last_activity = Instant::now();
        }
    }

    fn touch(&self, id: u64) {
        if let Some(c) = self.live.lock().get_mut(&id) {
            c.last_activity = Instant::now();
        }
    }

    fn deregister(&self, id: u64) {
        let info = self.live.lock().remove(&id);
        if let Some(info) = info {
            crate::trace::emit(
                crate::trace::TraceClass::Connection,
                "connection_close",
                info.session_id,
                0,
                || format!("conn={id} peer={}", info.peer),
            );
        }
    }
}

/// RAII handle for one registered connection.
pub struct ConnectionHandle {
    registry: Arc<ConnectionRegistry>,
    id: u64,
}

impl ConnectionHandle {
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Move the connection through its lifecycle (also bumps the
    /// last-activity clock the DMV's `idle_ms` is computed from).
    pub fn set_state(&self, state: ConnState) {
        self.registry.set_state(self.id, state);
    }

    /// Record progress without a state change (bytes arrived / left).
    pub fn touch(&self) {
        self.registry.touch(self.id);
    }
}

impl Drop for ConnectionHandle {
    fn drop(&mut self) {
        self.registry.deregister(self.id);
    }
}

// ---------------------------------------------------------------------
// DM_EXEC_CONNECTIONS() — the DMV as a table-valued function
// ---------------------------------------------------------------------

/// `SELECT * FROM DM_EXEC_CONNECTIONS()` — one row per live client
/// connection: id, peer address, the session serving it, lifecycle
/// state, and how long since it last made progress.
pub struct DmExecConnectionsFn {
    registry: Arc<ConnectionRegistry>,
}

impl DmExecConnectionsFn {
    pub fn new(registry: Arc<ConnectionRegistry>) -> DmExecConnectionsFn {
        DmExecConnectionsFn { registry }
    }
}

impl TableFunction for DmExecConnectionsFn {
    fn name(&self) -> &str {
        "DM_EXEC_CONNECTIONS"
    }
    fn schema(&self) -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Column::new("connection_id", DataType::Int).not_null(),
            Column::new("peer_addr", DataType::Text).not_null(),
            Column::new("session_id", DataType::Int).not_null(),
            Column::new("state", DataType::Text).not_null(),
            Column::new("idle_ms", DataType::Int).not_null(),
        ]))
    }
    fn open(&self, args: &[Value], _ctx: &ExecContext) -> Result<Box<dyn TvfCursor>> {
        no_args(args, self.name())?;
        let rows: Vec<Row> = self
            .registry
            .snapshot()
            .into_iter()
            .map(|c| {
                Row::new(vec![
                    Value::Int(c.connection_id as i64),
                    Value::text(c.peer),
                    Value::Int(c.session_id as i64),
                    Value::text(c.state.name()),
                    Value::Int(c.idle.as_millis() as i64),
                ])
            })
            .collect();
        Ok(RowsCursor::boxed(rows))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_snapshot_and_raii_deregister() {
        let reg = ConnectionRegistry::new();
        assert_eq!(reg.active_count(), 0);
        let a = reg.register("127.0.0.1:5001", 7);
        let b = reg.register("127.0.0.1:5002", 8);
        assert_ne!(a.id(), b.id());
        assert_eq!(reg.active_count(), 2);
        b.set_state(ConnState::Executing);
        assert_eq!(reg.executing_count(), 1);
        let snap = reg.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].session_id, 7);
        assert_eq!(snap[1].state, ConnState::Executing);
        drop(a);
        assert_eq!(reg.active_count(), 1, "drop deregisters");
        drop(b);
        assert_eq!(reg.active_count(), 0);
    }

    #[test]
    fn idle_clock_resets_on_touch() {
        let reg = ConnectionRegistry::new();
        let h = reg.register("peer", 1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let before = reg.snapshot()[0].idle;
        assert!(before.as_millis() >= 15, "{before:?}");
        h.touch();
        let after = reg.snapshot()[0].idle;
        assert!(after < before, "touch must reset the idle clock");
    }

    #[test]
    fn dmv_renders_connection_rows() {
        let reg = ConnectionRegistry::new();
        let _h = reg.register("10.0.0.9:4242", 3);
        let f = DmExecConnectionsFn::new(reg.clone());
        let ctx = crate::exec::testutil::test_context();
        let mut cursor = f.open(&[], &ctx).unwrap();
        assert!(cursor.move_next().unwrap());
        let row = cursor.fill_row().unwrap();
        assert_eq!(row[1], Value::text("10.0.0.9:4242"));
        assert_eq!(row[2], Value::Int(3));
        assert_eq!(row[3], Value::text("idle"));
        assert!(!cursor.move_next().unwrap());
        assert!(f.open(&[Value::Int(1)], &ctx).is_err(), "no args allowed");
    }
}
