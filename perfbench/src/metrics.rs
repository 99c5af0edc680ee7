//! Every metric the benchmark prints, with its unit. `BENCHMARK.json` at
//! the repository root lists exactly these; a test keeps the two equal.

use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("modules_per_s", "1/s"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// The experiments `isf-harness all` runs, each with its
/// `harness.<exp>_s` metric.
pub const HARNESS_EXPERIMENTS: &[(&str, &str)] = &[
    ("table1", "harness.table1_s"),
    ("table2", "harness.table2_s"),
    ("table3", "harness.table3_s"),
    ("table4", "harness.table4_s"),
    ("table5", "harness.table5_s"),
    ("fig7", "harness.fig7_s"),
    ("fig8", "harness.fig8_s"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.compile_s", "s"),
    ("frontend.modules", "count"),
    ("frontend.bytes_per_s", "B/s"),
    ("instr.plan_s", "s"),
    ("instr.insertions", "count"),
    ("core.transform_s", "s"),
    ("core.transforms", "count"),
    ("core.size_growth", "ratio"),
    ("core.checks_inserted", "count"),
    ("exec.prepare_s", "s"),
    ("exec.prepared_ops", "count"),
    ("exec.fused_ops", "count"),
    ("exec.dispatch_s", "s"),
    ("exec.instructions", "count"),
    ("exec.mips", "Minstr/s"),
    ("exec.sim_cycles", "count"),
    ("exec.checks", "count"),
    ("exec.samples", "count"),
    ("exec.thread_switches", "count"),
    ("exec.fused_dynamic_share", "ratio"),
    ("exec.profile_sink_overhead", "ratio"),
    ("profile.events", "count"),
    ("profile.events_per_s", "1/s"),
    ("profile.overlap_s", "s"),
    ("profile.overlap_pct", "%"),
    ("harness.table1_s", "s"),
    ("harness.table2_s", "s"),
    ("harness.table3_s", "s"),
    ("harness.table4_s", "s"),
    ("harness.table5_s", "s"),
    ("harness.fig7_s", "s"),
    ("harness.fig8_s", "s"),
    ("harness.cells", "count"),
    ("harness.cell_errors", "count"),
    ("harness.prepare_cells", "count"),
    ("harness.prepare_cells_s", "s"),
    ("harness.phase.compile_s", "s"),
    ("harness.phase.instrument_s", "s"),
    ("harness.phase.prepare_s", "s"),
    ("harness.phase.run_s", "s"),
    ("harness.overhead_s", "s"),
    ("harness.prep_cache_hits", "count"),
    ("harness.prep_cache_misses", "count"),
    ("bench.tracing_overhead_s", "s"),
    ("failed_frac", "ratio"),
];

/// Metric values by name, as one workload measured them.
pub type Values = BTreeMap<&'static str, f64>;

/// `true` when `name` follows the naming rule `[A-Za-z0-9_.-]+`.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use isf_obs::Json;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        isf_obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &Json, section: &str) -> Vec<(String, String)> {
        doc.get(section)
            .and_then(Json::as_arr)
            .expect("section present")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("name/unit")
                        .to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn metric_names_follow_the_naming_rule_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(""));
    }

    #[test]
    fn every_harness_experiment_has_a_layer_metric() {
        for (exp, metric) in HARNESS_EXPERIMENTS {
            assert_eq!(*metric, format!("harness.{exp}_s"));
            assert!(PER_LAYER.iter().any(|(n, _)| n == metric), "{metric}");
        }
    }
}
