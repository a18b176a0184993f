//! The benchmark's vocabulary: workload names, metric names and units.
//! `BENCHMARK.json` declares the same names; `tests/quick.rs` holds the
//! two in step.

use std::collections::BTreeMap;

use crate::json::Json;

pub const WORKLOADS: [&str; 4] = [
    "analytic-inproc",
    "wire-oltp",
    "scan-cold",
    "ingest-durable",
];

/// End-to-end metrics: what a user of the database sees. Reported by
/// the untraced pass (`--trace 0`).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("stored_bytes_per_user_byte", "ratio"),
];

/// Per-layer metrics, reported by the traced pass (`--trace 1`). A
/// metric a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("op.q1.p50_ms", "ms"),
    ("op.q2.p50_ms", "ms"),
    ("op.q3.p50_ms", "ms"),
    ("op.mergejoin.p50_ms", "ms"),
    ("op.point.p50_ms", "ms"),
    ("op.fetch500.p50_ms", "ms"),
    ("op.insert.p50_ms", "ms"),
    ("op.count.p50_ms", "ms"),
    ("op.scan.p50_ms", "ms"),
    ("op.binning.p50_ms", "ms"),
    ("op.lookup1k.p50_ms", "ms"),
    ("op.chunk.p50_ms", "ms"),
    ("op.blob.p50_ms", "ms"),
    ("op.checkpoint.p50_ms", "ms"),
    ("server.roundtrip_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.connect_us", "us"),
    ("server.protocol.encode_ns_per_row", "ns"),
    ("server.protocol.decode_ns_per_row", "ns"),
    ("server.protocol.bytes_per_row", "B"),
    ("sql.parse_us", "us"),
    ("sql.bind_plan_us", "us"),
    ("sql.frontend_share", "ratio"),
    ("engine.session.overhead_us", "us"),
    ("engine.session.admission_wait_ms", "ms"),
    ("engine.session.admission_waits", "count"),
    ("engine.exec.ms", "ms"),
    ("engine.exec.scan_ms", "ms"),
    ("engine.exec.filter_ms", "ms"),
    ("engine.exec.agg_ms", "ms"),
    ("engine.exec.join_ms", "ms"),
    ("engine.exec.sort_ms", "ms"),
    ("engine.exec.window_ms", "ms"),
    ("engine.exec.apply_ms", "ms"),
    ("engine.exec.rows_per_s", "1/s"),
    ("engine.exec.rows_examined_per_row_returned", "ratio"),
    ("engine.exec.batch_fallback_ratio", "ratio"),
    ("engine.exec.peak_mem_kb", "KiB"),
    ("engine.exec.spill_files", "count"),
    ("engine.exec.spill_bytes", "B"),
    ("core.udx.consensus_ms", "ms"),
    ("storage.rowfmt.decode_ns_per_row", "ns"),
    ("storage.rowfmt.decode_masked_ns_per_row", "ns"),
    ("storage.rowfmt.encode_ns_per_row", "ns"),
    ("storage.heap.insert_us_per_row", "us"),
    ("storage.heap.pages_per_krow", "count"),
    ("storage.buffer.hit_ratio", "ratio"),
    ("storage.buffer.misses", "count"),
    ("storage.buffer.evictions", "count"),
    ("storage.buffer.writebacks", "count"),
    ("storage.buffer.fetch_hit_ns", "ns"),
    ("storage.buffer.io_wait_ms", "ms"),
    ("storage.pager.read_mb_per_s", "MB/s"),
    ("storage.btree.get_us", "us"),
    ("storage.btree.insert_us", "us"),
    ("storage.btree.pages_per_get", "count"),
    ("storage.wal.records", "count"),
    ("storage.wal.bytes_per_user_byte", "ratio"),
    ("storage.wal.fsyncs", "count"),
    ("storage.wal.replay_ms", "ms"),
    ("storage.checkpoint.ms", "ms"),
    ("storage.checkpoint.stall_ms", "ms"),
    ("storage.filestream.write_mb_per_s", "MB/s"),
    ("storage.filestream.read_mb_per_s", "MB/s"),
    ("storage.sha256.mb_per_s", "MB/s"),
    ("storage.filestream.dup_bytes_written", "B"),
    ("bio.fastq.parse_mb_per_s", "MB/s"),
    ("core.import.rows_per_s", "1/s"),
    ("unattributed_share", "ratio"),
    ("fail_ratio", "ratio"),
    ("reopen_s", "s"),
    ("trace_overhead_ratio", "ratio"),
];

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// The `metrics` object of the result line: every metric of
    /// `declared`, in declaration order. Panics on a metric a workload
    /// set but nobody declared, so the vocabulary cannot drift; declared
    /// per-layer metrics a workload did not set read 0.
    pub fn metrics_json(&self, declared: &[(&'static str, &'static str)], strict: bool) -> Json {
        for name in self.metrics.keys() {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        Json::obj(declared.iter().map(|(name, unit)| {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if strict => panic!("metric {name} was not measured"),
                None => 0.0,
            };
            assert!(value.is_finite(), "metric {name} is not finite");
            (
                *name,
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]),
            )
        }))
    }

    /// The last line of standard output of one benchmark run.
    pub fn result_line(&self, trace: bool) -> String {
        let metrics = if trace {
            self.metrics_json(&PER_LAYER, false)
        } else {
            self.metrics_json(&END_TO_END, true)
        };
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            ..Outcome::default()
        };
        for (name, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = Json::parse(&o.result_line(false)).unwrap();
        let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            line.get("metrics").unwrap().as_obj().len(),
            END_TO_END.len()
        );
        let traced = Json::parse(&Outcome::default().result_line(true)).unwrap();
        assert_eq!(
            traced.get("metrics").unwrap().as_obj().len(),
            PER_LAYER.len()
        );
    }
}
