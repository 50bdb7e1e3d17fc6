//! Metric names, units and the small statistics the report needs.

/// A reported metric: name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by every workload's untraced run.
///
/// `report_s_p50` is the time from the call to the rendered report: the
/// report of `stream_reduce`, of the offline decode, of the advisor, or
/// the served `Final` verdict of a push.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("report_s_p50", "s"),
    m("peak_heap_mib", "MiB"),
];

/// Per-layer metrics, printed by every workload's traced run. A layer
/// a workload does not call reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    m("workloads.build_s", "s"),
    m("mpisim.event_s", "s"),
    m("mpisim.event_par2_s", "s"),
    m("mpisim.events", "count"),
    m("mpisim.polling_s", "s"),
    m("mpisim.balanced_s", "s"),
    m("trace.frames", "count"),
    m("trace.encode_s", "s"),
    m("trace.encoded_mib", "MiB"),
    m("trace.decode_scan_s", "s"),
    m("trace.fold_salvage_s", "s"),
    m("trace.fold_window_s", "s"),
    m("trace.from_bytes_s", "s"),
    m("trace.reduce_s", "s"),
    m("stream.reduce_s", "s"),
    m("analysis.analyze_s", "s"),
    m("viz.render_s", "s"),
    m("viz.report_kib", "KiB"),
    m("advisor.advise_s", "s"),
    m("advisor.propose_s", "s"),
    m("advisor.predict_s", "s"),
    m("advisor.verify_s", "s"),
    m("advisor.combos_evaluated", "count"),
    m("advisor.candidates_verified", "count"),
    m("advisor.verified_gain_ratio", "ratio"),
    m("serve.send_s", "s"),
    m("serve.verdict_s", "s"),
    m("serve.push_s_p90", "s"),
    m("serve.query_s_p50", "s"),
    m("serve.query_s_p90", "s"),
    m("serve.detect_s", "s"),
    m("serve.replay_complete_s", "s"),
    m("serve.replay_evolution_s", "s"),
    m("vfs.syncs", "count"),
    m("vfs.sync_s", "s"),
    m("vfs.write_mib", "MiB"),
    m("vfs.read_mib", "MiB"),
    m("vfs.read_amplification", "ratio"),
    m("vfs.query_read_mib", "MiB"),
    m("tracing.overhead_s", "s"),
];

/// Whether `name` is a valid metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
