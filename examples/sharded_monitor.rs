//! Sharded continuous monitoring: the same drift/burst/churn stream as
//! `stream_monitor`, but partitioned across four per-shard windows with
//! asynchronous bounded-queue ingestion — the deployment shape for
//! streams one window/one core cannot keep up with.
//!
//! Run with:
//! ```text
//! cargo run --release --example sharded_monitor
//! ```
//!
//! The detector stays *exact* under partitioning: points near a shard
//! boundary are replicated as ghosts (counted, never reported), so the
//! merged answer equals the single-window answer — asserted here against
//! both a single `StreamDetector` twin and the from-scratch `audit`.

use dod::datasets::StreamScenario;
use dod::prelude::*;

fn main() -> Result<(), DodError> {
    // --- 1. The stream: drifting clusters, bursts, churn ----------------
    let scenario = StreamScenario::new(4);
    let events = scenario.events(3000, 7);
    let query = Query::new(3.0, 4)?;

    // --- 2. The sharded monitor: 512-point window over 4 shards ---------
    let monitor = ShardedStreamDetector::open(
        VectorSpace::new(L2, 4),
        query,
        WindowSpec::Count(512),
        Backend::Exhaustive,
        ShardSpec::new(4).with_warmup(128),
    )?;
    // A single-window twin consumes the same stream as the ground truth.
    let mut twin = StreamDetector::open(VectorSpace::new(L2, 4), query, WindowSpec::Count(512))?;

    println!(
        "sharded monitoring: window=512, shards=4, r={}, k={}\n",
        query.r(),
        query.k()
    );

    // --- 3. Go async: per-shard pumps behind a bounded queue ------------
    let pipeline = monitor.into_pipeline(256);
    let producer = pipeline.handle();
    for (i, event) in events.iter().enumerate() {
        // The producer enqueues (blocking if the pumps fall behind) …
        producer.insert(event.point.clone())?;
        twin.insert(event.point.clone());
        // … and the monitor answers at slide boundaries, each report
        // reflecting exactly the inserts enqueued before it.
        if (i + 1) % 500 == 0 {
            let outliers = pipeline.outliers()?;
            assert_eq!(outliers, twin.outliers(), "sharded answer diverged");
            println!(
                "t={:>4}  outliers={:>2}  ghosts so far={:>3}{}",
                i + 1,
                outliers.len(),
                pipeline.health()?.stats().ghost_inserts,
                if event.in_burst { "  [burst]" } else { "" },
            );
        }
    }

    // --- 4. Wrap-up: back to the synchronous detector --------------------
    let mut monitor = pipeline.finish()?;
    let stats = monitor.stats();
    println!(
        "\nfed {} points; {} ghost replicas kept shard boundaries exact",
        events.len(),
        stats.ghost_inserts
    );
    let occupancy: Vec<(usize, usize)> = monitor
        .health()
        .shards
        .iter()
        .map(|s| (s.owned, s.ghosts))
        .collect();
    println!("shard occupancy (owned, ghosts): {occupancy:?}");
    assert_eq!(monitor.outliers(), twin.outliers());
    assert_eq!(monitor.audit(), twin.outliers());
    println!("verified: merged sharded answer = single-window answer = recount");

    // The merged report is the same unified shape the batch Engine and
    // the single-window stream speak.
    let report = monitor.report();
    assert_eq!(report.outliers, twin.report().outliers);
    println!(
        "final window: {} residents, {} outliers",
        monitor.len(),
        report.outliers.len()
    );
    Ok(())
}
