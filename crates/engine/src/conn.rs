//! The connection registry behind `DM_EXEC_CONNECTIONS()`.
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
}
