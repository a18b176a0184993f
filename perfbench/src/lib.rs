//! Shared driver of the `perf` benchmark: seeded inputs, the closed-loop
//! runner, latency and span recording, layer probes, JSON in and out,
//! and the comparison of two run sets. The workloads themselves live in
//! `src/bin/perf/`.

pub mod compare;
pub mod json;
pub mod layers;
pub mod measure;
pub mod run;
pub mod spec;
