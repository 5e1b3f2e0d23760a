//! Durable continuous monitoring: the sharded monitor with a write-ahead
//! log under it. The session is killed mid-stream without any shutdown
//! courtesy, reopened from disk, and the recovered report is shown (and
//! asserted) identical to a twin that never crashed.
//!
//! Run with:
//! ```text
//! cargo run --release --example durable_monitor
//! ```
//!
//! Three lives of one session over the same directory:
//!
//! 1. a fresh session ingests half the stream, then "crashes" (dropped
//!    without [`DurableSession::close`] — exactly what a `SIGKILL` leaves
//!    behind: a log, no final snapshot);
//! 2. reopen replays the log, the report matches the pre-crash one, and
//!    the recovered session finishes the stream asynchronously through
//!    the ingest pipeline;
//! 3. a last reopen recovers from the pipeline's final snapshot alone —
//!    the fast path a clean shutdown buys.

use dod::datasets::StreamScenario;
use dod::prelude::*;
use std::path::PathBuf;

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!("dod_durable_monitor_{}", std::process::id()))
}

fn main() -> Result<(), DodError> {
    let scenario = StreamScenario::new(4);
    let events = scenario.events(3000, 7);
    let half = events.len() / 2;
    let query = Query::new(3.0, 4)?;
    let dir = scratch_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let open = || {
        DurableSession::open(
            VectorSpace::new(L2, 4),
            query,
            WindowSpec::Count(512),
            ShardSpec::new(2).with_warmup(128),
            &dir,
            // Sync every 8 ops: each insert is logged before it returns,
            // flushed to the OS at worst 8 ops behind the disk.
            DurabilityPolicy {
                sync: SyncPolicy::EveryN(8),
                snapshot_ops: 1024,
            },
        )
    };

    // A never-crashing twin consuming the same stream is the oracle for
    // every assertion below.
    let mut twin = ShardedStreamDetector::open(
        VectorSpace::new(L2, 4),
        query,
        WindowSpec::Count(512),
        Backend::Exhaustive,
        ShardSpec::new(2).with_warmup(128),
    )?;

    // --- life 1: ingest half the stream, then crash ----------------------
    let (mut session, stats) = open()?;
    assert!(stats.is_fresh());
    println!("life 1: fresh session at {}", dir.display());
    for event in &events[..half] {
        session.insert(event.point.clone());
        twin.insert(event.point.clone());
    }
    let before_crash = session.report();
    println!(
        "  ingested {half} points, {} outliers in the window",
        before_crash.outliers.len()
    );
    drop(session); // no close(): the crash. The log is all that survives.
    println!("  session killed mid-stream (dropped without close)\n");

    // --- life 2: replay-on-open, then finish the stream async -----------
    let (mut session, stats) = open()?;
    println!(
        "life 2: recovered {} snapshot entries + {} replayed ops in {:.1}ms{}",
        stats.snapshot_entries,
        stats.replayed_ops,
        stats.replay_secs * 1e3,
        if stats.truncated_tail {
            " (torn tail truncated)"
        } else {
            ""
        }
    );
    let recovered = session.report();
    // Everything but the wall-clock timings must reproduce exactly (the
    // timings measure this run's hardware, not the window's state).
    let essence = |r: &OutlierReport| {
        (
            r.outliers.clone(),
            r.candidates,
            r.false_positives,
            r.decided_in_filter,
        )
    };
    assert_eq!(
        essence(&recovered),
        essence(&before_crash),
        "recovered report diverged from the pre-crash one"
    );
    assert_eq!(session.outliers(), twin.outliers());
    println!("  report identical to the moment before the crash");

    // The recovered session moves onto threads like any other: the WAL
    // rides on the router (append-before-ack), so the pipeline is as
    // crash-safe as the synchronous session was.
    let pipeline = session.into_pipeline(256);
    for chunk in events[half..].chunks(128) {
        pipeline.insert_many(chunk.iter().map(|e| e.point.clone()).collect())?;
    }
    for event in &events[half..] {
        twin.insert(event.point.clone());
    }
    let final_outliers = pipeline.outliers()?;
    assert_eq!(final_outliers, twin.outliers(), "async half diverged");
    println!(
        "  pipeline finished the stream: {} outliers after {} points",
        final_outliers.len(),
        events.len()
    );
    drop(pipeline); // clean stop: commits a final snapshot.

    // --- life 3: a clean shutdown leaves a snapshot-only recovery --------
    let (mut session, stats) = open()?;
    println!(
        "\nlife 3: clean-shutdown recovery = {} snapshot entries, {} ops to replay",
        stats.snapshot_entries, stats.replayed_ops
    );
    assert_eq!(session.outliers(), twin.outliers());
    println!("  report still identical to the never-crashed twin");

    session.close();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
