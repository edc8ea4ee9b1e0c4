//! The metric catalogue: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (checked by a test below).

/// End-to-end metrics, measured with tracing off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("stream_refs_per_s", "1/s"),
    ("mem_refs_per_s", "1/s"),
    ("submit_refs_per_s", "1/s"),
    ("exact_session_p50_ms", "ms"),
    ("exact_session_p95_ms", "ms"),
    ("sketch_session_p50_ms", "ms"),
    ("sketch_session_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (`--trace 1`). Unsuffixed layer
/// timings come from the door or session class the layer mostly serves:
/// the stream door for `engine`, `phased` and `hist`, the memory door for
/// `trace` decode and `parallel`; `_stream` / `_mem` name the other door.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.decode_ns_per_ref", "ns"),
    ("trace.fill_ns_per_ref", "ns"),
    ("trace.bytes_per_ref", "B"),
    ("trace.frames", "count"),
    ("engine.chunk_ns_per_ref", "ns"),
    ("engine.chunk_ns_per_ref_mem", "ns"),
    ("engine.tree_ops_per_ref", "count"),
    ("engine.live_hwm", "count"),
    ("engine.chunk_share", "ratio"),
    ("parallel.cascade_ns_per_forwarded", "ns"),
    ("parallel.cascade_ns_per_forwarded_stream", "ns"),
    ("parallel.forwarded_per_ref", "count"),
    ("parallel.rounds", "count"),
    ("parallel.wait_ns", "ns"),
    ("parallel.resolved_ratio", "ratio"),
    ("phased.reduction_ns_per_ref", "ns"),
    ("phased.pairs_moved_per_phase", "count"),
    ("phased.phases", "count"),
    ("phased.reduction_share", "ratio"),
    ("hist.merge_ns", "ns"),
    ("hist.merge_ns_mem", "ns"),
    ("session.feed_ns_per_ref", "ns"),
    ("session.finish_ns_per_ref", "ns"),
    ("session.state_bytes", "B"),
    ("approx.update_ns_per_ref", "ns"),
    ("approx.finalize_ns", "ns"),
    ("approx.sampled_ratio", "ratio"),
    ("approx.sketch_bytes", "B"),
    ("server.encode_ns_per_ref", "ns"),
    ("server.decode_ns_per_ref", "ns"),
    ("server.reply_encode_ns", "ns"),
    ("server.bytes_per_ref", "B"),
    ("server.wire_ns_per_ref_exact", "ns"),
    ("server.wire_ns_per_ref_sketch", "ns"),
    ("server.queue_depth_hwm", "count"),
    ("server.state_bytes_hwm", "B"),
    ("ledger.residual_ratio_stream", "ratio"),
    ("ledger.residual_ratio_mem", "ratio"),
    ("ledger.residual_ratio_exact", "ratio"),
    ("ledger.residual_ratio_sketch", "ratio"),
    ("ledger.tracing_overhead", "ratio"),
    ("ledger.work_efficiency", "ratio"),
    ("ledger.scaling", "ratio"),
    ("baseline.seq_ns_per_ref", "ns"),
];

/// Look up a catalogue unit.
pub fn unit(catalogue: &[(&str, &'static str)], name: &str) -> Option<&'static str> {
    catalogue.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
        let Ok(Value::Array(items)) = doc.field(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| match (m.field("name"), m.field("unit")) {
                (Ok(Value::Str(n)), Ok(Value::Str(u))) => (n.clone(), u.clone()),
                _ => panic!("{key} entry without name and unit"),
            })
            .collect()
    }

    fn owned(catalogue: &[(&str, &str)]) -> Vec<(String, String)> {
        catalogue
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let Ok(Value::Array(workloads)) = doc.field("workloads") else {
            panic!("BENCHMARK.json has no workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.field("name") {
                Ok(Value::Str(n)) => n.as_str(),
                _ => panic!("workload without a name"),
            })
            .collect();
        assert_eq!(names, crate::workload::WORKLOADS);
    }
}
