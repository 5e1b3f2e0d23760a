//! Continuous monitoring: a sliding-window detector watching a drifting
//! sensor stream with outlier bursts and cluster churn.
//!
//! Run with:
//! ```text
//! cargo run --release --example stream_monitor
//! ```
//!
//! Feeds 3000 points of a drift/burst/churn scenario through the
//! streaming engine, printing what the monitor sees at a regular cadence,
//! and periodically cross-checks the incremental answer against a
//! from-scratch recount (`audit`).

use dod::datasets::StreamScenario;
use dod::prelude::*;

fn main() -> Result<(), DodError> {
    // --- 1. The stream: drifting clusters, a burst every 400 events ------
    let scenario = StreamScenario::new(4);
    let events = scenario.events(3000, 7);

    // --- 2. The monitor: 512-point window, flag points with < 4 neighbors
    //        within r. r is chosen from the scenario's geometry: clusters
    //        have std 1.0, so 3.0 comfortably covers in-cluster spacing
    //        while tail points (≥ 80 away) stay far outside. The stream
    //        takes the same validated Query type the batch Engine does.
    let query = Query::new(3.0, 4)?;
    let mut monitor = StreamDetector::open(VectorSpace::new(L2, 4), query, WindowSpec::Count(512))?;

    println!(
        "monitoring a drift/burst/churn stream: window=512, r={}, k={}\n",
        query.r(),
        query.k()
    );
    let mut planted = 0usize;
    let mut flagged_planted = 0usize;
    for (i, event) in events.iter().enumerate() {
        let report = monitor.insert(event.point.clone());
        let outliers = monitor.outliers();
        if event.planted_outlier {
            planted += 1;
            if outliers.contains(&report.seq) {
                flagged_planted += 1;
            }
        }
        if (i + 1) % 500 == 0 {
            println!(
                "t={:>4}  window={:>3}  outliers={:>2}  tracked={:>3}  safe-promoted={:>4}{}",
                i + 1,
                report.window_len,
                outliers.len(),
                monitor.tracked(),
                monitor.stats().safe_promotions,
                if event.in_burst { "  [burst]" } else { "" },
            );
            // Cross-check: the incremental answer must equal a from-scratch
            // recount of the window.
            assert_eq!(outliers, monitor.audit(), "incremental answer drifted");
        }
    }

    // --- 3. Wrap-up --------------------------------------------------------
    let stats = monitor.stats();
    println!(
        "\nfed {} points ({} expired); {} planted outliers, {} flagged on arrival",
        stats.inserts, stats.expirations, planted, flagged_planted
    );
    println!(
        "engine: {} distance evaluations over {} window scans, ~{} KiB state",
        stats.insert_dist_evals,
        stats.inserts,
        monitor.size_bytes() / 1024
    );
    assert_eq!(monitor.outliers(), monitor.audit());
    println!("verified: final incremental answer equals the from-scratch recount");

    // The unified report compares the stream against a batch engine over
    // the same window snapshot — one result shape for both worlds.
    let report = monitor.report();
    let batch = Engine::builder(monitor.window_view())
        .index(IndexSpec::None)
        .build()?
        .query(query)?;
    assert_eq!(report.outliers, batch.outliers);
    println!(
        "cross-checked against a batch engine over the window: {} outliers either way",
        report.outliers.len()
    );
    Ok(())
}
