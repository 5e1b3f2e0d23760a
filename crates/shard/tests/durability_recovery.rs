//! The WAL's defining property: crash anywhere, reopen, and the session
//! is byte-identical to one that never crashed.
//!
//! For random streams, kill points, and shard counts S ∈ {1, 2, 4}, a
//! durable session is killed after `kill` accepted operations (drop
//! without close — exactly a crash at an op boundary under
//! `SyncPolicy::Always`), recovered from disk, fed the rest of the
//! stream, and compared field-by-field against an uninterrupted detector
//! over the same stream. Every deterministic report field must match:
//! outlier positions, candidate/false-positive/filter accounting, window
//! seqs and window length (timing fields are wall-clock and excluded —
//! the wire format never ships them).
//!
//! The recovered partition is generally *different* (pivots are re-warmed
//! over the replayed window) — equality holds because the sharding
//! argument is partition-independent, which is what lets recovery skip
//! persisting routing state.

use dod_core::{DodError, Query};
use dod_datasets::StreamScenario;
use dod_metrics::L2;
use dod_shard::{
    CommitAck, DurabilityPolicy, DurableSession, ShardSpec, ShardedStreamDetector, SyncPolicy,
};
use dod_stream::{Backend, VectorSpace, WindowSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const DIM: usize = 2;
const R: f64 = 0.35;
const K: usize = 3;

fn scratch() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "dod_durability_{}_{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

fn points(n: usize, seed: u64) -> Vec<Vec<f32>> {
    let scenario = StreamScenario {
        clusters: 3,
        drift: 0.05,
        outlier_rate: 0.1,
        burst_every: 20,
        burst_len: 3,
        burst_rate: 0.5,
        churn_every: 25,
        ..StreamScenario::new(DIM)
    };
    scenario.generate(n, seed)
}

fn spec(shards: usize) -> ShardSpec {
    // Warm-up below every tested window size, so the uninterrupted and
    // the recovered detector are both partitioned by the final report
    // (replay only sees the live window, not the full history).
    ShardSpec::new(shards).with_warmup(4)
}

fn open_durable(
    shards: usize,
    w: usize,
    dir: &std::path::Path,
    policy: DurabilityPolicy,
) -> DurableSession<VectorSpace<L2>> {
    DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(w),
        Backend::Exhaustive,
        spec(shards),
        dir,
        policy,
    )
    .expect("open durable session")
    .0
}

/// Asserts every deterministic field of the two sessions' state matches.
fn assert_state_identical(
    recovered: &mut DurableSession<VectorSpace<L2>>,
    uninterrupted: &mut ShardedStreamDetector<VectorSpace<L2>>,
    ctx: &str,
) {
    let got = recovered.report();
    let want = uninterrupted.report();
    assert_eq!(got.outliers, want.outliers, "outliers: {ctx}");
    assert_eq!(got.candidates, want.candidates, "candidates: {ctx}");
    assert_eq!(
        got.false_positives, want.false_positives,
        "false_positives: {ctx}"
    );
    assert_eq!(
        got.decided_in_filter, want.decided_in_filter,
        "decided_in_filter: {ctx}"
    );
    assert_eq!(
        recovered.detector().window_seqs(),
        uninterrupted.window_seqs(),
        "window seqs: {ctx}"
    );
    assert_eq!(
        recovered.detector().now(),
        uninterrupted.now(),
        "clock: {ctx}"
    );
    assert_eq!(
        recovered.outliers(),
        uninterrupted.outliers(),
        "seqs: {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crash_point_recovery_is_byte_identical(
        n in 16usize..96,
        kill_frac in 0.0f64..1.0,
        shards_idx in 0usize..3,
        w in 8usize..32,
        seed in 0u64..1 << 16,
        dense_snapshots in 0usize..2,
    ) {
        let shards = [1, 2, 4][shards_idx];
        let kill = ((n as f64 * kill_frac) as usize).min(n);
        let pts = points(n, seed);
        let dir = scratch();
        // Dense snapshots exercise the snapshot+truncate path mid-stream;
        // sparse ones exercise pure log replay.
        let policy = DurabilityPolicy {
            sync: SyncPolicy::Always,
            snapshot_ops: if dense_snapshots == 1 { 8 } else { 1 << 20 },
        };

        let mut uninterrupted = ShardedStreamDetector::open(
            VectorSpace::new(L2, DIM),
            Query::new(R, K).expect("valid query"),
            WindowSpec::Count(w),
            Backend::Exhaustive,
            spec(shards),
        )
        .expect("open plain detector");

        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts[..kill] {
            session.insert(p.clone());
        }
        // Crash: drop without close. Every accepted op was synced
        // (SyncPolicy::Always), so nothing acknowledged may be lost.
        drop(session);

        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts[kill..] {
            session.insert(p.clone());
        }
        for p in &pts {
            uninterrupted.insert(p.clone());
        }

        let ctx = format!("n={n} kill={kill} shards={shards} w={w} seed={seed}");
        assert_state_identical(&mut session, &mut uninterrupted, &ctx);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn double_crash_recovery_is_byte_identical(
        n in 16usize..64,
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
        w in 8usize..24,
        seed in 0u64..1 << 16,
    ) {
        // Two crashes at independent points — recovery must be
        // idempotent, not merely correct once.
        let shards = 2;
        let (a, b) = (
            ((n as f64 * cut_a.min(cut_b)) as usize).min(n),
            ((n as f64 * cut_a.max(cut_b)) as usize).min(n),
        );
        let pts = points(n, seed);
        let dir = scratch();
        let policy = DurabilityPolicy {
            sync: SyncPolicy::Always,
            snapshot_ops: 8,
        };

        let mut uninterrupted = ShardedStreamDetector::open(
            VectorSpace::new(L2, DIM),
            Query::new(R, K).expect("valid query"),
            WindowSpec::Count(w),
            Backend::Exhaustive,
            spec(shards),
        )
        .expect("open plain detector");

        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts[..a] {
            session.insert(p.clone());
        }
        drop(session);
        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts[a..b] {
            session.insert(p.clone());
        }
        drop(session);
        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts[b..] {
            session.insert(p.clone());
        }
        for p in &pts {
            uninterrupted.insert(p.clone());
        }

        let ctx = format!("n={n} cuts=({a},{b}) w={w} seed={seed}");
        assert_state_identical(&mut session, &mut uninterrupted, &ctx);
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_after_crash_never_panics(
        n in 16usize..64,
        tear in 0usize..1 << 12,
        seed in 0u64..1 << 16,
    ) {
        // Bit-level damage on top of a crash: recovery must come up with
        // *some* acknowledged prefix of the stream, never panic.
        let (w, shards) = (16, 2);
        let pts = points(n, seed);
        let dir = scratch();
        let policy = DurabilityPolicy {
            sync: SyncPolicy::Always,
            snapshot_ops: 1 << 20,
        };
        let mut session = open_durable(shards, w, &dir, policy);
        for p in &pts {
            session.insert(p.clone());
        }
        drop(session);

        let log_path = dir.join(dod_wal::LOG_FILE);
        let bytes = std::fs::read(&log_path).expect("log exists");
        let cut = bytes.len() - (tear % bytes.len().max(1)).min(bytes.len());
        std::fs::write(&log_path, &bytes[..cut]).expect("tear the log");

        let mut session = open_durable(shards, w, &dir, policy);
        // Whatever survived is a prefix: window seqs are contiguous and
        // the report is internally consistent.
        let report = session.report();
        let len = session.detector().window_seqs().len();
        prop_assert!(report.outliers.iter().all(|&p| (p as usize) < len.max(1)));
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Time-window sessions log `Advance` ops; a crash right after an
/// advance must not resurrect expired points.
#[test]
fn time_window_advances_survive_crashes() {
    let dir = scratch();
    let policy = DurabilityPolicy {
        sync: SyncPolicy::Always,
        snapshot_ops: 1 << 20,
    };
    let open = |dir: &std::path::Path| {
        DurableSession::open(
            VectorSpace::new(L2, DIM),
            Query::new(R, K).expect("valid query"),
            WindowSpec::Time(10.0),
            Backend::Exhaustive,
            ShardSpec::new(2).with_warmup(4),
            dir,
            policy,
        )
        .expect("open")
    };
    let pts = points(12, 7);
    let (mut session, stats) = open(&dir);
    assert!(stats.is_fresh());
    for (i, p) in pts.iter().enumerate() {
        session.insert_at(p.clone(), i as f64);
    }
    // Expire the first half, then crash.
    let expired = session.advance_to(15.0);
    assert!(!expired.is_empty());
    let want_seqs = session.detector().window_seqs();
    let want = session.report();
    drop(session);

    let (mut recovered, stats) = open(&dir);
    assert!(!stats.is_fresh());
    assert_eq!(recovered.detector().window_seqs(), want_seqs);
    assert_eq!(recovered.detector().now(), 15.0);
    let got = recovered.report();
    assert_eq!(got.outliers, want.outliers);
    assert_eq!(got.candidates, want.candidates);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The pipeline path: ops committed at batch boundaries, final snapshot
/// on clean stop, recovery continues the stream.
#[test]
fn pipeline_sessions_recover_after_stop() {
    let dir = scratch();
    let policy = DurabilityPolicy {
        sync: SyncPolicy::EveryN(4),
        snapshot_ops: 64,
    };
    let pts = points(80, 11);
    let (first, rest) = pts.split_at(50);

    let (session, _) = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
        &dir,
        policy,
    )
    .expect("open");
    let telemetry = session.telemetry();
    let pipeline = session.into_pipeline(16);
    for chunk in first.chunks(8) {
        pipeline.insert_many(chunk.to_vec()).expect("insert");
    }
    let want = pipeline.report().expect("report");
    drop(pipeline); // clean stop: final commit + snapshot
    assert!(telemetry.appended_records.get() > 0, "pipeline appended");
    assert!(telemetry.snapshots.get() > 0, "stop snapshotted");

    let (mut recovered, stats) = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
        &dir,
        policy,
    )
    .expect("reopen");
    assert_eq!(stats.snapshot_entries, 24, "final snapshot held the window");
    let got = recovered.report();
    assert_eq!(got.outliers, want.outliers, "report survives the stop");

    // The stream continues where it left off, against an uninterrupted
    // reference fed the same 80 points.
    let mut uninterrupted = ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
    )
    .expect("open plain");
    for p in &pts {
        uninterrupted.insert(p.clone());
    }
    for p in rest {
        recovered.insert(p.clone());
    }
    assert_state_identical(&mut recovered, &mut uninterrupted, "pipeline continuation");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The ack-is-durability contract: a batch followed by a commit barrier
/// survives a kill with *no* clean stop. `mem::forget` leaks the
/// pipeline — no `Stop`, no final flush, no exit snapshot — so the only
/// persistence is what the barrier already promised when it returned
/// [`CommitAck::Durable`]. (The leaked router and pump threads idle
/// until the process exits; acceptable in a test.)
#[test]
fn commit_barrier_makes_acked_points_survive_a_router_kill() {
    let dir = scratch();
    let policy = DurabilityPolicy {
        sync: SyncPolicy::Always,
        snapshot_ops: 1 << 20, // pure log replay: no snapshot ever helps
    };
    let pts = points(40, 13);

    let (session, _) = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
        &dir,
        policy,
    )
    .expect("open");
    let pipeline = session.into_pipeline(16);
    for chunk in pts.chunks(8) {
        pipeline.insert_many(chunk.to_vec()).expect("insert");
    }
    let ack = pipeline.commit().expect("commit barrier");
    assert_eq!(ack, CommitAck::Durable, "healthy WAL acks durable");
    std::mem::forget(pipeline);

    let (mut recovered, stats) = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
        &dir,
        policy,
    )
    .expect("reopen");
    assert!(!stats.is_fresh(), "recovery found the acked batches");
    let mut uninterrupted = ShardedStreamDetector::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
    )
    .expect("open plain");
    for p in &pts {
        uninterrupted.insert(p.clone());
    }
    assert_state_identical(&mut recovered, &mut uninterrupted, "acked batch after kill");
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Once the WAL latches into fail-open, the barrier must say so: the
/// server turns [`CommitAck::Degraded`] into `"durable": false` on the
/// ingest ack, which is the client's only honest signal.
#[test]
fn commit_barrier_reports_degraded_after_wal_failure() {
    let dir = scratch();
    let policy = DurabilityPolicy {
        sync: SyncPolicy::Always,
        snapshot_ops: 1, // snapshot on the first commit
    };
    let (session, _) = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(4),
        &dir,
        policy,
    )
    .expect("open");
    let telemetry = session.telemetry();
    let pipeline = session.into_pipeline(16);
    // Sabotage the snapshot commit path: its tmp file path is now a
    // directory, so `File::create` fails even when running as root (a
    // chmod-based trick would not: root bypasses permission bits).
    std::fs::create_dir(dir.join("snapshot.tmp")).expect("plant tmp dir");

    pipeline.insert_many(points(8, 17)).expect("insert");
    let ack = pipeline.commit().expect("commit barrier");
    assert_eq!(ack, CommitAck::Degraded, "latched WAL must not ack durable");
    assert!(telemetry.io_errors.get() > 0, "failure was counted");
    drop(pipeline);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard spec the detector refuses is a typed error from the durable
/// open as well, raised before the session's directory is created.
#[test]
fn bad_shard_spec_refuses_before_touching_the_disk() {
    let dir = scratch();
    let opened = DurableSession::open(
        VectorSpace::new(L2, DIM),
        Query::new(R, K).expect("valid query"),
        WindowSpec::Count(24),
        Backend::Exhaustive,
        ShardSpec::new(0),
        &dir,
        DurabilityPolicy::with_sync(SyncPolicy::Always),
    );
    match opened {
        Err(err) => assert!(matches!(err, DodError::InvalidShardSpec { .. }), "{err}"),
        Ok(_) => panic!("zero shards must not construct"),
    }
    assert!(!dir.exists(), "a refused spec created {}", dir.display());
}
