//! Integration tests driving the `limba` binary end to end.

use std::path::PathBuf;
use std::process::{Command, Output};

fn limba(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_limba"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn temp_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("limba-cli-it-{name}"))
}

#[test]
fn help_prints_usage() {
    let out = limba(&["help"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("simulate"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = limba(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let out = limba(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));
}

#[test]
fn simulate_then_analyze_round_trip() {
    let trace = temp_path("roundtrip.trace");
    let out = limba(&[
        "simulate",
        "cfd",
        "--ranks",
        "8",
        "--imbalance",
        "linear:0.4",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8(out.stdout)
        .unwrap()
        .contains("trace written"));

    let out = limba(&["analyze", trace.to_str().unwrap(), "--criterion", "topk:3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== findings =="));
    assert!(stdout.contains("tuning candidate"));
    assert!(stdout.contains("loop 1"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn text_format_traces_analyze_too() {
    let trace = temp_path("text.trace");
    let out = limba(&[
        "simulate",
        "pipeline",
        "--ranks",
        "4",
        "--format",
        "text",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let content = std::fs::read_to_string(&trace).unwrap();
    assert!(content.starts_with("limba-trace v1"));
    let out = limba(&["analyze", trace.to_str().unwrap(), "--clusters", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn analyze_with_alternative_dispersion() {
    let trace = temp_path("gini.trace");
    assert!(limba(&[
        "simulate",
        "irregular",
        "--ranks",
        "4",
        "--imbalance",
        "hotspot:2,3",
        "--out",
        trace.to_str().unwrap(),
    ])
    .status
    .success());
    let out = limba(&["analyze", trace.to_str().unwrap(), "--dispersion", "gini"]);
    assert!(out.status.success());
    std::fs::remove_file(&trace).ok();
}

#[test]
fn paper_command_prints_tables() {
    let out = limba(&["paper"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for needle in [
        "Table 1", "Table 2", "Table 3", "Table 4", "Figure 1", "Figure 2",
    ] {
        assert!(stdout.contains(needle), "missing {needle}");
    }
    // Spot-check two published numbers.
    assert!(stdout.contains("0.30571")); // loop 5 sync ID
    assert!(stdout.contains("19.051")); // loop 1 overall
}

#[test]
fn demo_runs_the_full_pipeline() {
    let out = limba(&["demo"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== coarse grain =="));
}

#[test]
fn analyze_with_windows_reports_evolution() {
    let trace = temp_path("windows.trace");
    assert!(limba(&[
        "simulate",
        "fft",
        "--ranks",
        "4",
        "--iterations",
        "3",
        "--imbalance",
        "jitter:0.3",
        "--out",
        trace.to_str().unwrap(),
    ])
    .status
    .success());
    let out = limba(&[
        "analyze",
        trace.to_str().unwrap(),
        "--windows",
        "4",
        "--clusters",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("imbalance evolution (4 windows)"));
    assert!(stdout.contains("slope"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn activity_outliving_its_region_attributes_alike_on_every_path() {
    // Validation accepts an activity that ends after its region left.
    // The strict reductions behind `compare` and `--windows` attribute
    // it exactly as plain `analyze` does, instead of panicking.
    let trace = temp_path("outliving.trace");
    std::fs::write(
        &trace,
        "limba-trace v1\nprocessors 1\nregion 0 r\nevent 0 0 enter 0\n\
         event 1 0 begin point-to-point\nevent 2 0 leave 0\nevent 3 0 end point-to-point\n",
    )
    .unwrap();
    let path = trace.to_str().unwrap();
    let run = |args: &[&str]| {
        let out = limba(args);
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let plain = run(&["analyze", path]);
    let windowed = run(&["analyze", path, "--windows", "2"]);
    assert!(windowed.starts_with(&plain), "{windowed}");
    assert!(windowed.contains("imbalance evolution (2 windows)"));
    // The region's overall wall clock, from plain `analyze`'s breakdown
    // and from both sides of `compare`.
    let overall = plain
        .lines()
        .skip_while(|l| !l.starts_with("== wall clock breakdown"))
        .find_map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
            ["r", overall, ..] => Some(format!("{overall}s")),
            _ => None,
        })
        .unwrap();
    // The leave inside the activity attributes nothing: 1 s of
    // computation plus the 2 s activity make the 3 s run.
    assert_eq!(overall, "3.000s", "{plain}");
    assert!(plain.contains("program wall clock: 3.000 s"), "{plain}");
    let compared = run(&["compare", path, path]);
    let row = compared
        .lines()
        .find(|l| l.starts_with("r "))
        .unwrap()
        .split_whitespace()
        .collect::<Vec<_>>();
    assert_eq!(
        row[1..3],
        [overall.as_str(), overall.as_str()],
        "{compared}"
    );
    std::fs::remove_file(&trace).ok();
}

/// A reader that stops after the first bytes of `--stream-out -` ends
/// the run: quietly, with status 0, and long before the whole trace
/// would have been written.
#[test]
fn stream_out_to_a_closed_pipe_stops_the_run_quietly() {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::Instant;
    let args = [
        "simulate",
        "cfd",
        "--ranks",
        "16384",
        "--imbalance",
        "jitter:0.2",
        "--stream-out",
        "-",
    ];
    let start = Instant::now();
    let full = Command::new(env!("CARGO_BIN_EXE_limba"))
        .args(args)
        .stdout(Stdio::null())
        .output()
        .expect("run limba");
    let full_s = start.elapsed();
    assert!(full.status.success());
    assert!(String::from_utf8_lossy(&full.stderr).contains("trace streamed to stdout"));

    let start = Instant::now();
    let mut child = Command::new(env!("CARGO_BIN_EXE_limba"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run limba");
    let mut head = [0u8; 10];
    // Read ten bytes, then close the pipe.
    child.stdout.take().unwrap().read_exact(&mut head).unwrap();
    let closed = child.wait_with_output().unwrap();
    let closed_s = start.elapsed();
    assert!(closed.status.success(), "{:?}", closed.status);
    assert!(
        closed.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&closed.stderr)
    );
    assert!(
        closed_s * 3 < full_s,
        "stopped after {closed_s:?}; the whole run takes {full_s:?}"
    );
}

/// Runs `limba` with `input` on stdin.
fn limba_piped(args: &[&str], input: &[u8]) -> Output {
    use std::io::Write;
    let mut child = Command::new(env!("CARGO_BIN_EXE_limba"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("run limba");
    child.stdin.take().unwrap().write_all(input).unwrap();
    child.wait_with_output().unwrap()
}

#[test]
fn a_rank_listed_newest_first_reads_like_its_sorted_form() {
    // The folds walk each rank in recording order and refuse this one
    // (its first event ends an activity that never began); the file is
    // read again whole, and the batch path's per-rank time sort gives
    // every command the sorted file's answer.
    let sorted = temp_path("sorted.trace");
    let newest = temp_path("newest-first.trace");
    assert!(limba(&[
        "simulate",
        "cfd",
        "--ranks",
        "3",
        "--iterations",
        "2",
        "--imbalance",
        "linear:0.5",
        "--format",
        "text",
        "--out",
        sorted.to_str().unwrap(),
    ])
    .status
    .success());
    // Reverse rank 1's events, keeping simultaneous ones in order.
    let text = std::fs::read_to_string(&sorted).unwrap();
    let is_rank1 = |l: &&str| l.split(' ').nth(2) == Some("1") && l.starts_with("event ");
    let mut groups: Vec<Vec<&str>> = Vec::new();
    for line in text.lines().filter(is_rank1) {
        match groups.last_mut() {
            Some(g) if g[0].split(' ').nth(1) == line.split(' ').nth(1) => g.push(line),
            _ => groups.push(vec![line]),
        }
    }
    assert!(groups.len() > 2);
    let mut lines: Vec<&str> = text.lines().filter(|l| !is_rank1(l)).collect();
    lines.extend(groups.into_iter().rev().flatten());
    std::fs::write(&newest, lines.join("\n") + "\n").unwrap();
    let (sorted, newest) = (sorted.to_str().unwrap(), newest.to_str().unwrap());
    for args in [
        vec!["analyze", "FILE", "--drilldown", "on", "--windows", "3"],
        vec!["compare", "FILE", "FILE"],
        vec!["advise", "FILE", "--json", "--budget", "4", "--top", "1"],
    ] {
        let run = |file: &str| {
            let args: Vec<&str> = args
                .iter()
                .map(|a| if *a == "FILE" { file } else { a })
                .collect();
            let out = limba(&args);
            assert!(
                out.status.success(),
                "{args:?}: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            out.stdout
        };
        assert_eq!(run(sorted), run(newest), "{args:?}");
    }
    std::fs::remove_file(sorted).ok();
    std::fs::remove_file(newest).ok();
}

#[test]
fn analyze_dash_reads_text_and_binary_traces_from_stdin() {
    let bin = temp_path("stdin.limba");
    let text = temp_path("stdin.trace");
    for (path, format) in [(&bin, "binary"), (&text, "text")] {
        assert!(limba(&[
            "simulate",
            "cfd",
            "--ranks",
            "4",
            "--iterations",
            "2",
            "--format",
            format,
            "--out",
            path.to_str().unwrap(),
        ])
        .status
        .success());
        let from_file = limba(&["analyze", path.to_str().unwrap()]);
        assert!(from_file.status.success());
        let piped = limba_piped(&["analyze", "-"], &std::fs::read(path).unwrap());
        assert!(
            piped.status.success(),
            "{format}: {}",
            String::from_utf8_lossy(&piped.stderr)
        );
        assert_eq!(piped.stdout, from_file.stdout, "{format}");
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn drilldown_on_a_truncated_trace_prints_the_report_then_fails() {
    // Rank 0 crashed inside a nested region: salvage closes it out and
    // the report prints; the drill-down's region tree needs a valid
    // trace and fails after it.
    let trace = temp_path("truncated-drilldown.trace");
    std::fs::write(
        &trace,
        "limba-trace v1\nprocessors 2\nregion 0 outer\nregion 1 inner\n\
         event 0 0 enter 0\nevent 1 0 enter 1\nevent 2 0 send 1 64\n\
         event 0 1 enter 0\nevent 1 1 enter 1\nevent 3 1 leave 1\nevent 4 1 leave 0\n",
    )
    .unwrap();
    let path = trace.to_str().unwrap();
    let plain = limba(&["analyze", path]);
    assert!(plain.status.success());
    let out = limba(&["analyze", path, "--drilldown", "on"]);
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(out.stdout, plain.stdout);
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("region 1 still open at end of trace"),
        "{stderr}"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn compare_reports_the_speedup_of_a_tuning_change() {
    let before = temp_path("cmp-before.limba");
    let after = temp_path("cmp-after.limba");
    for (path, imbalance) in [(&before, "hotspot:1,3"), (&after, "none")] {
        let path = path.to_str().unwrap();
        let args = [
            "simulate",
            "cfd",
            "--ranks",
            "4",
            "--imbalance",
            imbalance,
            "--out",
            path,
        ];
        assert!(limba(&args).status.success());
    }
    let (before, after) = (before.to_str().unwrap(), after.to_str().unwrap());
    let out = limba(&["compare", before, after]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let speedup: f64 = stdout
        .strip_prefix("whole-program speedup: ")
        .and_then(|rest| rest.split('x').next()?.parse().ok())
        .unwrap();
    assert!(speedup > 1.5, "{stdout}");
    assert!(stdout.contains("Improved"), "{stdout}");
    assert!(!limba(&["compare", before]).status.success());
    std::fs::remove_file(before).ok();
    std::fs::remove_file(after).ok();
}

#[test]
fn amr_drilldown_localizes_nested_culprit() {
    let trace = temp_path("amr.trace");
    assert!(limba(&[
        "simulate",
        "amr",
        "--ranks",
        "8",
        "--imbalance",
        "hotspot:3,5",
        "--out",
        trace.to_str().unwrap(),
    ])
    .status
    .success());
    let out = limba(&[
        "analyze",
        trace.to_str().unwrap(),
        "--drilldown",
        "on",
        "--clusters",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== drill-down =="));
    assert!(stdout.contains("flux"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn sweep_workload_simulates() {
    let trace = temp_path("sweep.trace");
    let out = limba(&[
        "simulate",
        "sweep",
        "--ranks",
        "6",
        "--out",
        trace.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    std::fs::remove_file(&trace).ok();
}

#[test]
fn faults_list_prints_presets_instead_of_erroring() {
    let out = limba(&["simulate", "--faults", "list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in [
        "straggler",
        "degraded-link",
        "flaky-network",
        "crash",
        "chaos",
    ] {
        assert!(stdout.contains(name), "missing {name}");
    }
}

#[test]
fn analyze_rejects_an_unsalvageable_trace_with_nonzero_exit() {
    // Structurally malformed: leave without enter.
    let bad = temp_path("malformed.trace");
    std::fs::write(
        &bad,
        "limba-trace v1\nprocessors 1\nregion 0 r\nevent 1 0 leave 0\n",
    )
    .unwrap();
    let out = limba(&["analyze", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "partial report on stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("malformed"), "{stderr}");
    std::fs::remove_file(&bad).ok();

    // Salvage recovered nothing: a single truncated rank with no
    // measured time. No partial report, no exit 0.
    let empty = temp_path("unsalvageable.trace");
    std::fs::write(
        &empty,
        "limba-trace v1\nprocessors 1\nregion 0 r\nevent 0 0 enter 0\n",
    )
    .unwrap();
    let out = limba(&["analyze", empty.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty(), "partial report on stdout");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unsalvageable"), "{stderr}");
    std::fs::remove_file(&empty).ok();
}

#[test]
fn advise_recommends_a_verified_improvement_on_cfd() {
    let out = limba(&["advise", "--workload", "cfd", "--top", "3"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // The full analysis report, then the appended advice section.
    assert!(stdout.contains("== findings =="));
    assert!(stdout.contains("== recommended interventions =="));
    assert!(stdout.contains("#1  "));
    assert!(stdout.contains("measured  +"), "no verified improvement");
    assert!(stdout.contains("predicted +"));
}

#[test]
fn advise_renders_its_baseline_report_under_the_fault_plan() {
    // The report section (everything before the advice) must describe
    // the run the advice was measured on: a straggler changes it.
    let report = |faults: &[&str]| {
        let mut args = vec!["advise", "--workload", "cfd", "--ranks", "16", "--top", "1"];
        args.extend_from_slice(faults);
        let out = limba(&args);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let at = stdout
            .find("== recommended interventions ==")
            .expect("advice section");
        stdout[..at].to_string()
    };
    let plain = report(&[]);
    let straggler = report(&["--faults", "preset:straggler"]);
    assert!(plain.contains("== findings =="));
    assert_ne!(plain, straggler);
}

#[test]
fn advise_is_byte_identical_across_jobs_and_engines() {
    let reference = limba(&["advise", "--workload", "cfd", "--ranks", "8", "--top", "2"]);
    assert!(reference.status.success());
    for extra in [["--jobs", "4"], ["--jobs", "8"], ["--engine", "polling"]] {
        let mut args = vec!["advise", "--workload", "cfd", "--ranks", "8", "--top", "2"];
        args.extend(extra);
        let out = limba(&args);
        assert!(out.status.success());
        assert_eq!(out.stdout, reference.stdout, "{extra:?}");
    }
}

#[test]
fn advise_analyzes_a_recorded_trace_and_emits_json() {
    let trace = temp_path("advise.trace");
    assert!(limba(&[
        "simulate",
        "cfd",
        "--ranks",
        "8",
        "--imbalance",
        "linear:0.4",
        "--out",
        trace.to_str().unwrap(),
    ])
    .status
    .success());
    let out = limba(&["advise", trace.to_str().unwrap(), "--top", "2", "--json"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.starts_with('{'));
    assert!(stdout.contains("\"baseline_makespan\":"));
    assert!(stdout.contains("\"within_bounds\":true"));
    std::fs::remove_file(&trace).ok();
}

#[test]
fn balance_list_prints_presets_instead_of_erroring() {
    let out = limba(&["simulate", "--balance", "list"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("available balance presets"));
    for name in ["stealing", "diffusion", "anticipatory"] {
        assert!(stdout.contains(name), "missing preset {name}: {stdout}");
    }
}

#[test]
fn simulate_with_balance_reports_migrations_and_is_engine_invariant() {
    let args = |engine: &'static str| {
        vec![
            "simulate",
            "cfd",
            "--ranks",
            "8",
            "--iterations",
            "3",
            "--imbalance",
            "linear:0.5",
            "--balance",
            "preset:stealing",
            "--engine",
            engine,
        ]
    };
    let event = limba(&args("event"));
    assert!(
        event.status.success(),
        "{}",
        String::from_utf8_lossy(&event.stderr)
    );
    let stdout = String::from_utf8(event.stdout.clone()).unwrap();
    assert!(
        stdout.contains("rebalancing: stealing moved"),
        "no migration summary: {stdout}"
    );
    assert!(stdout.contains("== rebalancing actions =="), "{stdout}");
    let polling = limba(&args("polling"));
    assert!(polling.status.success());
    assert_eq!(
        event.stdout, polling.stdout,
        "engines diverge under --balance"
    );
}

#[test]
fn unknown_balance_preset_is_a_named_error() {
    let out = limba(&["simulate", "cfd", "--balance", "preset:psychic"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown balance preset"), "{stderr}");
    assert!(stderr.contains("stealing"), "no preset listing: {stderr}");
}

#[test]
fn advise_surfaces_a_dynamic_balancing_recommendation() {
    // On an imbalanced CFD workload the catalog proposes the balance
    // policies alongside the static refactors, and at least one
    // surfaced candidate enables dynamic balancing — with a verified
    // (re-simulated) gain.
    let out = limba(&[
        "advise",
        "--workload",
        "cfd",
        "--ranks",
        "8",
        "--imbalance",
        "linear:0.6",
        "--top",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("enable dynamic load balancing"),
        "no balancing recommendation surfaced:\n{stdout}"
    );
    assert!(stdout.contains("measured  +"), "no verified gain: {stdout}");
}

#[test]
fn bad_flags_are_reported() {
    let out = limba(&["simulate", "cfd", "--ranks"]);
    assert!(!out.status.success());
    let out = limba(&["simulate", "cfd", "--imbalance", "zigzag:3"]);
    assert!(!out.status.success());
    let out = limba(&["analyze", "/nonexistent.trace"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read /nonexistent.trace"));
    // `--format` forces a codec; a text trace is not a binary one.
    let text = temp_path("forced-format.trace");
    std::fs::write(&text, "limba-trace v1\nprocessors 1\nregion 0 r\n").unwrap();
    let path = text.to_str().unwrap();
    assert!(!limba(&["analyze", path, "--format", "binary"])
        .status
        .success());
    let out = limba(&["analyze", path, "--format", "xml"]);
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown trace format \"xml\""));
    std::fs::remove_file(&text).ok();
}

#[test]
fn misspelt_flags_are_named_errors() {
    for (args, flag, command) in [
        (
            &["simulate", "cfd", "--rnaks", "4"][..],
            "--rnaks",
            "simulate",
        ),
        (
            &["analyze", "x.limba", "--dispersoin", "gini"],
            "--dispersoin",
            "analyze",
        ),
        (
            &["advise", "--workload", "cfd", "--bugdet", "4"],
            "--bugdet",
            "advise",
        ),
    ] {
        let out = limba(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: unknown option {flag} for limba {command}; see limba help\n")
        );
    }
}

/// Runs `limba` with a stdout pipe whose reader has already gone away.
fn limba_into_closed_pipe(args: &[&str]) -> Output {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    Command::new(env!("CARGO_BIN_EXE_limba"))
        .args(args)
        .stdout(writer)
        .output()
        .expect("binary runs")
}

#[test]
fn a_closed_stdout_is_a_quiet_exit() {
    let trace = temp_path("closed-stdout.limba");
    let path = trace.to_str().unwrap();
    assert!(limba(&["simulate", "cfd", "--ranks", "4", "--out", path])
        .status
        .success());
    for args in [&["paper"][..], &["analyze", path]] {
        let out = limba_into_closed_pipe(args);
        assert_eq!(
            (out.status.code(), String::from_utf8_lossy(&out.stderr)),
            (Some(0), "".into()),
            "{args:?}"
        );
    }
    std::fs::remove_file(&trace).ok();
}

/// The shared sweep arguments for the kill-resume E2E locks.
fn sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec![
        "simulate",
        "cfd",
        "--ranks",
        "4",
        "--iterations",
        "1",
        "--imbalance",
        "jitter:0.2",
        "--replications",
        "8",
    ];
    args.extend_from_slice(extra);
    args
}

/// [`sweep_args`] plus a stealing balance policy — the balanced
/// variants of the kill-resume locks.
fn balanced_sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = sweep_args(&["--balance", "preset:stealing"]);
    args.extend_from_slice(extra);
    args
}

#[test]
fn interrupted_sweep_exits_partial_and_resumes_byte_identically() {
    let reference = limba(&sweep_args(&[]));
    assert!(reference.status.success());
    let reference = String::from_utf8(reference.stdout).unwrap();

    for jobs in ["1", "4"] {
        let ckpt = temp_path(&format!("e2e-sweep-{jobs}.ckpt"));
        std::fs::remove_file(&ckpt).ok();
        let interrupted = limba(&sweep_args(&[
            "--max-units",
            "3",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]));
        assert_eq!(
            interrupted.status.code(),
            Some(3),
            "partial runs exit with the partial code: {}",
            String::from_utf8_lossy(&interrupted.stderr)
        );
        let stdout = String::from_utf8(interrupted.stdout).unwrap();
        assert!(stdout.contains("not run (interrupted)"), "{stdout}");
        assert!(stdout.contains("rerun with --resume"), "{stdout}");

        let resumed = limba(&sweep_args(&[
            "--jobs",
            jobs,
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
        ]));
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            String::from_utf8(resumed.stdout).unwrap(),
            reference,
            "jobs={jobs}"
        );
        std::fs::remove_file(&ckpt).ok();
    }
}

#[test]
fn interrupted_balanced_sweep_resumes_byte_identically() {
    // The guard composes with dynamic balancing: a replication sweep
    // under `--balance preset:stealing` killed mid-run resumes from its
    // checkpoint to the exact bytes of an uninterrupted run — the
    // per-replication balance seeds derive from the replication index,
    // not from how many processes it took to finish the sweep.
    let reference = limba(&balanced_sweep_args(&[]));
    assert!(
        reference.status.success(),
        "{}",
        String::from_utf8_lossy(&reference.stderr)
    );
    let reference = String::from_utf8(reference.stdout).unwrap();
    assert!(
        reference.contains("rebalancing"),
        "balanced sweep reports no rebalancing: {reference}"
    );

    let ckpt = temp_path("e2e-balanced-sweep.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let interrupted = limba(&balanced_sweep_args(&[
        "--max-units",
        "3",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]));
    assert_eq!(
        interrupted.status.code(),
        Some(3),
        "partial balanced runs exit with the partial code: {}",
        String::from_utf8_lossy(&interrupted.stderr)
    );
    let stdout = String::from_utf8(interrupted.stdout).unwrap();
    assert!(stdout.contains("rerun with --resume"), "{stdout}");

    for jobs in ["1", "4"] {
        let resumed = limba(&balanced_sweep_args(&[
            "--jobs",
            jobs,
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
        ]));
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            String::from_utf8(resumed.stdout).unwrap(),
            reference,
            "jobs={jobs}"
        );
    }
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn unbalanced_checkpoint_refuses_a_balanced_resume() {
    // The sweep fingerprint includes the balance plan: resuming a
    // checkpoint written without `--balance` under a policy (or vice
    // versa) is a configuration mismatch, not a silent mixed sweep.
    let ckpt = temp_path("e2e-balance-mismatch.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let interrupted = limba(&sweep_args(&[
        "--max-units",
        "3",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]));
    assert_eq!(interrupted.status.code(), Some(3));

    let mut args = sweep_args(&["--balance", "preset:stealing", "--resume", "--checkpoint"]);
    args.push(ckpt.to_str().unwrap());
    let mismatched = limba(&args);
    assert!(
        !mismatched.status.success(),
        "balanced resume of an unbalanced checkpoint must fail"
    );
    let stderr = String::from_utf8(mismatched.stderr).unwrap();
    assert!(
        stderr.contains("checkpoint") || stderr.contains("fingerprint"),
        "unnamed error: {stderr}"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn sweep_manifest_records_the_interruption() {
    let ckpt = temp_path("e2e-manifest.ckpt");
    let manifest = temp_path("e2e-manifest.json");
    std::fs::remove_file(&ckpt).ok();
    let out = limba(&sweep_args(&[
        "--max-units",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--manifest",
        manifest.to_str().unwrap(),
    ]));
    assert_eq!(out.status.code(), Some(3));
    let json = std::fs::read_to_string(&manifest).unwrap();
    assert!(json.contains("\"completed\": 2"), "{json}");
    assert!(json.contains("\"skipped\": 6"), "{json}");
    assert!(json.contains("\"stopped\": \"unit-cap-reached\""), "{json}");
    std::fs::remove_file(&ckpt).ok();
    std::fs::remove_file(&manifest).ok();
}

#[test]
fn corrupted_checkpoint_is_a_named_error_not_a_panic() {
    let ckpt = temp_path("e2e-corrupt.ckpt");
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(
        limba(&sweep_args(&[
            "--max-units",
            "2",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ]))
        .status
        .code(),
        Some(3)
    );
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = limba(&sweep_args(&[
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
    ]));
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("checksum") || stderr.contains("corrupt"),
        "{stderr}"
    );
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn interrupted_suite_exits_partial_and_resumes_byte_identically() {
    let reference = limba(&["suite", "--ranks", "4"]);
    assert!(reference.status.success());
    let reference = String::from_utf8(reference.stdout).unwrap();

    let ckpt = temp_path("e2e-suite.ckpt");
    std::fs::remove_file(&ckpt).ok();
    let interrupted = limba(&[
        "suite",
        "--ranks",
        "4",
        "--max-units",
        "10",
        "--checkpoint",
        ckpt.to_str().unwrap(),
    ]);
    assert_eq!(interrupted.status.code(), Some(3));
    let resumed = limba(&[
        "suite",
        "--ranks",
        "4",
        "--jobs",
        "4",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
    ]);
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    assert_eq!(String::from_utf8(resumed.stdout).unwrap(), reference);
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn interrupted_advise_exits_partial_and_resumes_byte_identically() {
    let base = [
        "advise",
        "--workload",
        "cfd",
        "--ranks",
        "4",
        "--iterations",
        "1",
        "--top",
        "2",
    ];
    let reference = limba(&base);
    assert!(reference.status.success());
    let reference = String::from_utf8(reference.stdout).unwrap();

    for jobs in ["1", "4"] {
        let ckpt = temp_path(&format!("e2e-advise-{jobs}.ckpt"));
        std::fs::remove_file(&ckpt).ok();
        let mut args = base.to_vec();
        args.extend_from_slice(&["--max-units", "1", "--checkpoint", ckpt.to_str().unwrap()]);
        let interrupted = limba(&args);
        assert_eq!(
            interrupted.status.code(),
            Some(3),
            "{}",
            String::from_utf8_lossy(&interrupted.stderr)
        );
        let stderr = String::from_utf8(interrupted.stderr).unwrap();
        assert!(stderr.contains("advise interrupted"), "{stderr}");
        assert!(stderr.contains("rerun with --resume"), "{stderr}");

        let mut args = base.to_vec();
        args.extend_from_slice(&[
            "--jobs",
            jobs,
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--resume",
        ]);
        let resumed = limba(&args);
        assert!(
            resumed.status.success(),
            "{}",
            String::from_utf8_lossy(&resumed.stderr)
        );
        assert_eq!(
            String::from_utf8(resumed.stdout).unwrap(),
            reference,
            "jobs={jobs}"
        );
        std::fs::remove_file(&ckpt).ok();
    }
}

#[test]
fn advise_refuses_a_checkpoint_from_a_different_configuration() {
    let ckpt = temp_path("e2e-advise-foreign.ckpt");
    std::fs::remove_file(&ckpt).ok();
    assert_eq!(
        limba(&[
            "advise",
            "--workload",
            "cfd",
            "--ranks",
            "4",
            "--iterations",
            "1",
            "--top",
            "2",
            "--max-units",
            "1",
            "--checkpoint",
            ckpt.to_str().unwrap(),
        ])
        .status
        .code(),
        Some(3)
    );
    // Same checkpoint, different scenario: the fingerprint must refuse.
    let out = limba(&[
        "advise",
        "--workload",
        "stencil",
        "--ranks",
        "4",
        "--top",
        "2",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("fingerprint"));
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn deadline_zero_stops_before_any_unit() {
    let out = limba(&sweep_args(&["--deadline", "0"]));
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no replications completed"), "{stdout}");
}
