#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use super::*;
use crate::client::{self, PushSession, PushStatus};
use limba_model::{ActivityKind, ActivitySet, ProcessorId, RegionId};
use limba_trace::{Event, SalvageSink, TraceError, TraceSink, WriteSink};
use limba_vfs::MemVfs;

#[test]
fn json_escape_covers_control_characters() {
    assert_eq!(json_escape(r#"a"b\c"#), r#"a\"b\\c"#);
    assert_eq!(json_escape("line1\nline2\ttab\r"), "line1\\nline2\\ttab\\r");
    assert_eq!(json_escape("bell\u{7}"), "bell\\u0007");
    assert_eq!(json_escape("plain ünïcode"), "plain ünïcode");
}

/// `procs` ranks over `iters` iterations of a solve region, whose
/// compute grows with the rank and the iteration and ends in a
/// collective wait, then a halo region carrying one message. From the
/// middle iteration on, the solve also reads memory and the halo
/// writes to disk, so `MemoryAccess` and `Io` first begin mid-stream,
/// in the reverse of their canonical order. Events are recorded in
/// global time order.
fn skewed_events(procs: u32, iters: usize) -> Vec<Event> {
    let (solve, halo) = (RegionId::new(0), RegionId::new(1));
    let mut events = Vec::new();
    let mut t = 0.0;
    for it in 0..iters {
        let work = |p: u32| 0.05 + 0.01 * f64::from(p) * (1.0 + it as f64 / 4.0);
        let end = t + work(procs - 1) + 0.02;
        let extras = it >= iters / 2;
        for p in 0..procs {
            events.push(Event::enter(t, p, solve));
            if extras {
                events.push(Event::begin_activity(
                    t + 0.01,
                    p,
                    ActivityKind::MemoryAccess,
                ));
                events.push(Event::end_activity(t + 0.02, p, ActivityKind::MemoryAccess));
            }
            events.extend([
                Event::begin_activity(t + work(p), p, ActivityKind::Collective),
                Event::end_activity(end, p, ActivityKind::Collective),
                Event::leave(end, p, solve),
                Event::enter(end, p, halo),
            ]);
            if extras {
                events.push(Event::begin_activity(end + 0.002, p, ActivityKind::Io));
                events.push(Event::end_activity(end + 0.006, p, ActivityKind::Io));
            }
            events.extend([
                Event::message_send(end + 0.007, p, (p + 1) % procs, 512),
                Event::leave(end + 0.01, p, halo),
            ]);
        }
        t = end + 0.01;
    }
    events.sort_by(|a, b| a.time.total_cmp(&b.time));
    events
}

/// [`skewed_events`] over four ranks with one rank-1 send stamped
/// half a second before the rank-1 event it follows, mid-stream.
/// Returns the events, the bad event's recording index and the error
/// the fold names it with.
fn backwards_events() -> (Vec<Event>, usize, TraceError) {
    let mut events = skewed_events(4, 16);
    let at = (events.len() / 2..).find(|&i| events[i].proc == 1).unwrap();
    let before = events[at].time;
    events.insert(at + 1, Event::message_send(before - 0.5, 1, 0, 8));
    let error = TraceError::NonMonotoneTime {
        proc: 1,
        before,
        after: before - 0.5,
    };
    (events, at + 1, error)
}

/// `events` over `procs` ranks as chunked v3 bytes, `frame` events a
/// chunk.
fn encode(procs: u32, events: &[Event], frame: usize) -> Vec<u8> {
    let mut sink = WriteSink::new(Vec::new());
    sink.begin(procs as usize, &["solve".into(), "halo".into()])
        .unwrap();
    for chunk in events.chunks(frame) {
        sink.events(chunk).unwrap();
    }
    sink.finish().unwrap();
    sink.into_inner()
}

/// A scratch directory unique to this test process.
fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("limba-serve-unit-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A server's shared state over `vfs`, with no checkpoint directory.
fn shared_over(vfs: Arc<dyn Vfs>) -> Shared {
    let spool_dir = PathBuf::from("spool");
    vfs.create_dir_all(&spool_dir).unwrap();
    Shared {
        cfg: ServeConfig {
            vfs,
            ..ServeConfig::default()
        },
        registry: Registry::new(),
        spool_dir,
        meta: None,
        cancel: CancelToken::new(),
    }
}

/// Pushes `bytes` through one shard's handlers as a session does
/// (admit, open, `chunk`-byte chunks, end) and returns the verdict.
fn drive(shared: &Shared, key: &RunKey, bytes: &[u8], chunk: usize) -> Final {
    let spool = shared.spool_dir.join(spool_name(key));
    let admission = shared.registry.admit(key, 0, spool, 8).unwrap();
    let mut runs = HashMap::new();
    open_run(shared, &mut runs, key, admission.resume, Arc::default()).unwrap();
    for data in bytes.chunks(chunk) {
        ingest_chunk(shared, &mut runs, key, data);
    }
    end_run(shared, &mut runs, key)
}

/// A standalone detector fed `bytes`, finished when `complete`.
fn standalone(bytes: &[u8], complete: bool) -> OnlineDetector {
    let mut detector = OnlineDetector::new(DetectorConfig::default());
    let mut decoder = StreamDecoder::new();
    decoder.feed(bytes, &mut detector).unwrap();
    if complete {
        decoder.finish(&mut detector).unwrap();
    }
    detector
}

/// What `ALERTS` and `DIGEST` must answer for the run `key` of
/// `bytes` that ended `status`: the standalone detector's view,
/// finished for a complete run only.
fn expected_answers(key: &RunKey, status: RunStatus, bytes: &[u8]) -> (String, String) {
    let detector = standalone(bytes, status == RunStatus::Complete);
    let mut entry = RunEntry::new(0, PathBuf::new());
    entry.status = status;
    entry.bytes = bytes.len() as u64;
    entry.events = detector.events_seen();
    entry.processors = detector.processors();
    entry.makespan = detector.makespan();
    entry.alerts = detector.alerts().to_vec();
    entry.windows = detector.stats().to_vec();
    (alert_lines(&entry.alerts), digest(key, &entry))
}

/// Equal within 32 ulps of the larger magnitude, the folds'
/// conservation rule.
fn conserved(got: f64, expected: f64) -> bool {
    (got - expected).abs() <= 32.0 * f64::EPSILON * got.abs().max(expected.abs())
}

/// Every chunking of a complete and a partial push publishes what a
/// standalone detector fed the same bytes holds, and the registry's
/// byte count is the spool's length.
#[test]
fn served_detector_equals_the_standalone_one_at_every_chunking() {
    let bytes = encode(6, &skewed_events(6, 24), 16);
    let cut = &bytes[..bytes.len() * 2 / 3];
    for chunk in [1, 7, 64, 4096, bytes.len()] {
        let vfs = Arc::new(MemVfs::new());
        let shared = shared_over(vfs.clone());
        for (run, pushed, status) in [
            ("whole", &bytes[..], RunStatus::Complete),
            ("cut", cut, RunStatus::Partial),
        ] {
            let key = RunKey::new("t", run);
            let fin = drive(&shared, &key, pushed, chunk);
            let entry = shared.registry.get(&key).unwrap();
            assert_eq!(entry.status, status, "chunk {chunk}: {}", fin.body);
            assert!(!entry.alerts.is_empty(), "the trace raises no alert");
            let spooled = vfs.len(&entry.spool).unwrap();
            assert_eq!(spooled, pushed.len() as u64);
            let (alerts, digest) = expected_answers(&key, status, pushed);
            let answer = |line: String| handle_query(&shared, &line).unwrap();
            assert_eq!(answer(format!("ALERTS t {run}")), alerts, "chunk {chunk}");
            assert_eq!(answer(format!("DIGEST t {run}")), digest, "chunk {chunk}");
            let row = format!("{run} {} {spooled} {}", status.name(), entry.events);
            assert!(answer("RUNS t".into()).lines().any(|l| l == row), "{row}");
        }
    }
}

/// The same over real sessions, pushing concurrently to servers of one
/// and of three shards.
#[test]
fn served_detector_equals_the_standalone_one_at_two_shard_counts() {
    let dir = scratch("shards");
    let whole = encode(5, &skewed_events(5, 20), 9);
    let cut = whole[..whole.len() / 2].to_vec();
    let other = encode(3, &skewed_events(3, 30), 4);
    let pushes = [
        ("a", "whole", &whole, RunStatus::Complete),
        ("b", "cut", &cut, RunStatus::Partial),
        ("c", "other", &other, RunStatus::Complete),
    ];
    for shards in [1, 3] {
        let cfg = ServeConfig {
            shards,
            ..ServeConfig::default()
        };
        let server = Server::start("127.0.0.1:0", cfg).unwrap();
        let addr = server.addr().to_string();
        std::thread::scope(|scope| {
            for (tenant, run, bytes, _) in &pushes {
                let path = dir.join(format!("{shards}-{tenant}.trc"));
                std::fs::write(&path, bytes).unwrap();
                let addr = &addr;
                scope.spawn(move || {
                    PushSession::connect(addr, tenant, run)
                        .unwrap()
                        .push_file(&path)
                        .unwrap()
                });
            }
        });
        for (tenant, run, bytes, status) in &pushes {
            let (alerts, digest) = expected_answers(&RunKey::new(tenant, run), *status, bytes);
            let answer = |verb: &str| client::query(&addr, &format!("{verb} {tenant} {run}"));
            assert_eq!(answer("ALERTS").unwrap(), alerts, "{shards} shards");
            assert_eq!(answer("DIGEST").unwrap(), digest, "{shards} shards");
        }
        server.shutdown().unwrap();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A complete run's published windows are its whole history: they sum
/// to the Final matrix's computation, the last of them published by
/// the clean end.
#[test]
fn a_complete_run_publishes_its_whole_window_history() {
    let procs = 4;
    let bytes = encode(procs, &skewed_events(procs, 16), 5);
    let shared = shared_over(Arc::new(MemVfs::new()));
    let key = RunKey::new("t", "r");
    let fin = drive(&shared, &key, &bytes, 512);
    assert_eq!(fin.status, STATUS_OK, "{}", fin.body);
    let windows = shared.registry.get(&key).unwrap().windows;
    assert!(standalone(&bytes, false).stats().len() < windows.len());

    let mut fold = SalvageSink::new(ActivitySet::standard());
    limba_trace::stream::decode_all(&bytes, &mut fold).unwrap();
    let m = &fold.into_salvaged().unwrap().reduced.measurements;
    let computation: f64 = m
        .region_ids()
        .flat_map(|r| {
            (0..procs as usize)
                .map(move |p| m.time(r, ActivityKind::Computation, ProcessorId::new(p)))
        })
        .sum();
    let published: f64 = windows.iter().map(|w| w.compute).sum();
    assert!(
        conserved(published, computation),
        "windows hold {published} of {computation} s"
    );
}

/// The live fold grows the activities a trace first begins mid-stream
/// as a replay does: the Final equals `complete_report` of the spool.
#[test]
fn a_final_with_midstream_extras_equals_the_spool_replay() {
    let bytes = encode(5, &skewed_events(5, 12), 3);
    let detector = standalone(&bytes, true);
    let reduced = &detector.salvaged().unwrap().reduced;
    assert_eq!(reduced.measurements.activities().len(), 6);
    let vfs = Arc::new(MemVfs::new());
    let shared = shared_over(vfs.clone());
    for chunk in [100, bytes.len()] {
        let key = RunKey::new("t", &format!("extras{chunk}"));
        let fin = drive(&shared, &key, &bytes, chunk);
        assert_eq!(fin.status, STATUS_OK, "{}", fin.body);
        let spool = shared.registry.get(&key).unwrap().spool;
        assert_eq!(
            fin.body,
            replay::complete_report(vfs.as_ref(), &spool).unwrap()
        );
    }
}

/// A rank clock that runs backwards fails the push at the chunk that
/// carries the bad event, with the fold's error, and nothing past that
/// chunk is spooled.
#[test]
fn a_backwards_clock_fails_the_push_at_its_chunk() {
    let (events, bad, error) = backwards_events();
    let bytes = encode(4, &events, 6);
    for chunk in [97, 1024] {
        // The chunk whose decode delivers event `bad`.
        struct Count(usize);
        impl TraceSink for Count {
            fn begin(&mut self, _: usize, _: &[String]) -> Result<(), TraceError> {
                Ok(())
            }
            fn events(&mut self, events: &[Event]) -> Result<(), TraceError> {
                self.0 += events.len();
                Ok(())
            }
            fn finish(&mut self) -> Result<(), TraceError> {
                Ok(())
            }
        }
        let (mut decoder, mut count) = (StreamDecoder::new(), Count(0));
        let carrier = bytes
            .chunks(chunk)
            .position(|data| {
                decoder.feed(data, &mut count).unwrap();
                count.0 > bad
            })
            .unwrap();
        assert!(carrier + 1 < bytes.len().div_ceil(chunk));

        let vfs = Arc::new(MemVfs::new());
        let shared = shared_over(vfs.clone());
        let key = RunKey::new("t", "bad");
        let fin = drive(&shared, &key, &bytes, chunk);
        assert_eq!(fin.status, STATUS_ERROR);
        assert_eq!(fin.body, error.to_string());
        let entry = shared.registry.get(&key).unwrap();
        assert_eq!(entry.status, RunStatus::Failed);
        assert_eq!(entry.error.as_deref(), Some(fin.body.as_str()));
        assert_eq!(
            vfs.len(&entry.spool).unwrap(),
            ((carrier + 1) * chunk) as u64,
            "chunk {chunk}"
        );
    }
}

/// A push whose fold fails mid-file is answered at once: the server
/// stops reading, sends the fold's error verdict and closes, and
/// `push_file` returns that verdict long before it has read the whole
/// file. The file is a pipe fed the bad run's bytes and then zeros, far
/// more than socket buffers hold, so the feeder sees how much was read.
#[cfg(unix)]
#[test]
fn a_failed_fold_answers_before_push_file_sends_the_whole_file() {
    const TAIL: usize = 64 << 20;
    let dir = scratch("early-verdict");
    let (events, _, error) = backwards_events();
    let bytes = encode(4, &events, 6);
    let fifo = dir.join("bad.fifo");
    let made = std::process::Command::new("mkfifo")
        .arg(&fifo)
        .status()
        .unwrap();
    assert!(made.success());

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let (pushed, fed) = std::thread::scope(|scope| {
        let feeder = scope.spawn(|| {
            let mut pipe = std::fs::OpenOptions::new().write(true).open(&fifo).unwrap();
            pipe.write_all(&bytes).unwrap();
            let zeros = vec![0u8; 64 << 10];
            let mut fed = bytes.len();
            // Stops once the reader closes the pipe (EPIPE).
            while fed < bytes.len() + TAIL {
                match pipe.write(&zeros) {
                    Ok(n) => fed += n,
                    Err(_) => break,
                }
            }
            fed
        });
        let pushed = PushSession::connect(&addr, "mallory", "run")
            .unwrap()
            .push_file(&fifo);
        (pushed, feeder.join().unwrap())
    });
    let err = pushed.unwrap_err().to_string();
    assert_eq!(err, ServeError::State(error.to_string()).to_string());
    assert!(
        fed < bytes.len() + TAIL / 2,
        "push_file read {fed} of {} bytes",
        bytes.len() + TAIL
    );
    let runs = client::query(&addr, "RUNS mallory").unwrap();
    assert!(runs.starts_with("run failed "), "{runs}");
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The backwards-clock verdict over real sessions: the bad push fails
/// with the fold's error while a tenant pushing at the same time gets
/// its byte-identical report.
#[test]
fn a_backwards_clock_fails_alone_beside_a_concurrent_push() {
    let dir = scratch("backwards");
    let (events, _, error) = backwards_events();
    let bad_path = dir.join("bad.trc");
    std::fs::write(&bad_path, encode(4, &events, 6)).unwrap();
    let good_path = dir.join("good.trc");
    std::fs::write(&good_path, encode(5, &skewed_events(5, 20), 8)).unwrap();

    let server = Server::start("127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = server.addr().to_string();
    let push = |tenant: &str, path: &Path| {
        PushSession::connect(&addr, tenant, "run")
            .unwrap()
            .push_file(path)
    };
    let (bad, good) = std::thread::scope(|scope| {
        let bad = scope.spawn(|| push("mallory", &bad_path));
        let good = scope.spawn(|| push("alice", &good_path));
        (bad.join().unwrap(), good.join().unwrap())
    });
    let err = bad.unwrap_err().to_string();
    assert_eq!(err, ServeError::State(error.to_string()).to_string());
    let good = good.unwrap();
    assert_eq!(good.status, PushStatus::Complete);
    assert_eq!(
        good.report,
        replay::complete_report(&StdVfs, &good_path).unwrap()
    );
    let runs = client::query(&addr, "RUNS mallory").unwrap();
    assert!(runs.starts_with("run failed "), "{runs}");
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
