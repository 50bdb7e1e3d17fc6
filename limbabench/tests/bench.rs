//! The benchmark's own checks: metric names, the bounds declared in
//! `BENCHMARK.json`, and a smoke-sized pass of every workload through
//! its correctness gate, on two seeds.

use std::path::PathBuf;

use limbabench::metrics::{self, END_TO_END, PER_LAYER};
use limbabench::{run, Options, Size, Workload};

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The objects of the JSON array under `key`, as raw text. Enough for
/// the flat, one-level objects `BENCHMARK.json` holds.
fn objects(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key} in BENCHMARK.json"));
    let rest = &json[start..];
    let open = rest.find('[').expect("array");
    let close = rest.find(']').expect("array end");
    rest[open + 1..close]
        .split('}')
        .filter(|o| o.contains('{'))
        .map(|o| o.to_string())
        .collect()
}

fn field<'a>(object: &'a str, key: &str) -> Option<&'a str> {
    let at = object.find(&format!("\"{key}\""))?;
    let rest = object[at + key.len() + 2..]
        .trim_start()
        .strip_prefix(':')?;
    let rest = rest.trim_start();
    Some(match rest.strip_prefix('"') {
        Some(s) => &s[..s.find('"')?],
        None => rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim(),
    })
}

#[test]
fn metric_names_are_well_formed() {
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(metrics::valid_name(m.name), "bad metric name {:?}", m.name);
        assert!(
            !m.unit.is_empty() && m.unit.len() <= 16,
            "bad unit {:?}",
            m.unit
        );
    }
}

#[test]
fn every_end_to_end_metric_has_a_bound() {
    let json = benchmark_json();
    let declared = objects(&json, "end_to_end");
    assert_eq!(declared.len(), END_TO_END.len(), "{declared:?}");
    for m in END_TO_END {
        let object = declared
            .iter()
            .find(|o| field(o, "name") == Some(m.name))
            .unwrap_or_else(|| panic!("{} is not in BENCHMARK.json", m.name));
        assert_eq!(field(object, "unit"), Some(m.unit), "{object}");
        assert_eq!(field(object, "better"), Some("lower"), "{object}");
        let bound: f64 = field(object, "bound")
            .and_then(|b| b.parse().ok())
            .unwrap_or_else(|| panic!("{} has no bound", m.name));
        assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
    }
}

#[test]
fn every_per_layer_metric_is_declared() {
    let json = benchmark_json();
    let declared = objects(&json, "per_layer");
    assert_eq!(declared.len(), PER_LAYER.len());
    for m in PER_LAYER {
        let object = declared
            .iter()
            .find(|o| field(o, "name") == Some(m.name))
            .unwrap_or_else(|| panic!("{} is not in BENCHMARK.json", m.name));
        assert_eq!(field(object, "unit"), Some(m.unit), "{object}");
    }
}

#[test]
fn every_workload_is_declared() {
    let json = benchmark_json();
    let declared = objects(&json, "workloads");
    assert_eq!(declared.len(), Workload::ALL.len());
    for w in Workload::ALL {
        assert!(
            declared.iter().any(|o| field(o, "name") == Some(w.name())),
            "{} is not in BENCHMARK.json",
            w.name()
        );
    }
}

fn smoke(workload: Workload, seed: u64, traced: bool) {
    let opts = Options {
        workload,
        seed,
        seconds: 0.0,
        traced,
        size: Size::SMOKE,
        state_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("smoke-{}-{seed}-{traced}", workload.name())),
    };
    let outcome = run(&opts).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(
        outcome.failed,
        0,
        "{}: {:?}",
        workload.name(),
        outcome.errors
    );
    assert!(outcome.attempted >= Size::SMOKE.min_units as u64);
    let expected = if traced { PER_LAYER } else { END_TO_END };
    let names: Vec<_> = outcome.metrics.iter().map(|(m, _)| m.name).collect();
    let wanted: Vec<_> = expected.iter().map(|m| m.name).collect();
    assert_eq!(names, wanted);
    for (m, v) in &outcome.metrics {
        assert!(v.is_finite(), "{}: {} = {v}", workload.name(), m.name);
        if !traced {
            assert!(*v > 0.0 || m.name == "peak_heap_mib", "{} = {v}", m.name);
        }
    }
    let json = outcome.json();
    assert!(json.starts_with("{\"correct\": true, "), "{json}");
    // The serve state directory is gone once the run ends.
    let leftovers = std::fs::read_dir(&opts.state_dir)
        .map(|d| {
            d.filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().starts_with("serve-"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(leftovers, 0);
}

#[test]
fn stream_smoke_passes_its_gate() {
    smoke(Workload::Stream, 42, false);
    smoke(Workload::Stream, 7, true);
}

#[test]
fn offline_smoke_passes_its_gate() {
    smoke(Workload::Offline, 42, false);
    smoke(Workload::Offline, 7, true);
}

#[test]
fn advise_smoke_passes_its_gate() {
    smoke(Workload::Advise, 42, false);
    smoke(Workload::Advise, 7, true);
}

#[test]
fn serve_smoke_passes_its_gate() {
    smoke(Workload::Serve, 42, false);
    smoke(Workload::Serve, 7, true);
}
