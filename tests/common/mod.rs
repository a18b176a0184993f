//! Helpers shared by the integration suites (`mod common;`).

/// The CI fault seed (`SEQDB_FAULT_SEED`, default 1): the `robustness`
/// matrix runs the seeded suites once per value, shifting where
/// injected disk and network faults, bit rot and crash points land.
pub fn fault_seed() -> u64 {
    std::env::var("SEQDB_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}
