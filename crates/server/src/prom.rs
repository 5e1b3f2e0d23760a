//! `/metrics` rendering in the Prometheus text exposition format
//! (version 0.0.4): HTTP-layer counters, registry occupancy gauges,
//! every resident engine's query telemetry (counters + the log-bucketed
//! latency histogram as a native `_bucket`/`_sum`/`_count` family)
//! labeled `{engine="name"}`, and every live session's stream counters —
//! including per-shard-pair ghost replication — labeled
//! `{session="id"}`.
//!
//! Sessions export no series that can only read zero: their shards count
//! windows exhaustively, so they keep no graph, take no hops, spend no
//! distance evaluation on expiry or reports, and leave no report
//! candidate to verify.
//!
//! Label cardinality stays bounded by construction: `route` is a
//! fieldless enum, `status` is drawn from the fixed
//! `TRACKED_STATUSES` set (everything else
//! folds into one `"other"` slot), `engine` is capped by `max_engines`,
//! `session` by `max_sessions`, and shard pairs by the shard-spec cap. Names and ids
//! are registry-validated identifiers (`[A-Za-z0-9_-]{1,64}`), so they
//! embed in label values without escaping.

use crate::routes::Route;
use crate::State;
use dod_core::telemetry::HistogramSnapshot;
use std::fmt::Write as _;

fn header(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders one histogram series (`_bucket`/`_sum`/`_count`) under
/// `labels` (`key="value"` pairs without braces, possibly empty — `le`
/// is appended).
fn histogram(out: &mut String, name: &str, labels: &str, snap: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (bound, cumulative) in &snap.cumulative {
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
            dod_wire::render_number(*bound)
        );
    }
    let _ = writeln!(
        out,
        "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
        snap.count
    );
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", dod_wire::render_number(snap.sum_secs));
        let _ = writeln!(out, "{name}_count {}", snap.count);
    } else {
        let _ = writeln!(
            out,
            "{name}_sum{{{labels}}} {}",
            dod_wire::render_number(snap.sum_secs)
        );
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", snap.count);
    }
}

pub(crate) fn render(state: &State) -> String {
    let mut out = String::with_capacity(4096);

    header(
        &mut out,
        "dod_http_connections_total",
        "TCP connections accepted.",
        "counter",
    );
    let _ = writeln!(
        out,
        "dod_http_connections_total {}",
        state.http.connections.get()
    );
    header(
        &mut out,
        "dod_http_requests_total",
        "HTTP requests answered, by route pattern and status (pre-routing rejections count as route=\"<parse>\").",
        "counter",
    );
    // Only touched route×status cells are rendered: the full matrix is
    // mostly zeros and scrapers treat an absent counter as zero anyway.
    for route in Route::ALL {
        for (status, count) in state.http.by_status(route) {
            if count > 0 {
                let _ = writeln!(
                    out,
                    "dod_http_requests_total{{route=\"{}\",status=\"{status}\"}} {count}",
                    route.pattern()
                );
            }
        }
    }
    header(
        &mut out,
        "dod_http_request_seconds",
        "Wall time from first request byte to response ready, by route pattern.",
        "histogram",
    );
    for route in Route::ALL {
        let snap = state.http.latency(route).snapshot();
        if snap.count > 0 {
            histogram(
                &mut out,
                "dod_http_request_seconds",
                &format!("route=\"{}\"", route.pattern()),
                &snap,
            );
        }
    }
    header(
        &mut out,
        "dod_http_queue_wait_seconds",
        "Time accepted connections waited in the worker-pool queue.",
        "histogram",
    );
    histogram(
        &mut out,
        "dod_http_queue_wait_seconds",
        "",
        &state.http.queue_wait.snapshot(),
    );
    header(
        &mut out,
        "dod_http_response_write_seconds_total",
        "Wall time HTTP workers spent writing responses, after each request's trace closed.",
        "counter",
    );
    let _ = writeln!(
        out,
        "dod_http_response_write_seconds_total {}",
        dod_wire::render_number(state.http.response_write_nanos.get() as f64 / 1e9)
    );
    header(
        &mut out,
        "dod_pool_queue_depth",
        "Connections accepted but not yet picked up by a worker.",
        "gauge",
    );
    let _ = writeln!(
        out,
        "dod_pool_queue_depth {}",
        state.pool_stats.queue_depth()
    );
    header(
        &mut out,
        "dod_pool_busy_workers",
        "Workers currently serving a connection.",
        "gauge",
    );
    let _ = writeln!(
        out,
        "dod_pool_busy_workers {}",
        state.pool_stats.busy_workers()
    );
    header(
        &mut out,
        "dod_pool_workers",
        "Size of the connection worker pool.",
        "gauge",
    );
    let _ = writeln!(out, "dod_pool_workers {}", state.pool_stats.workers());

    // Snapshot both registries up front (name-sorted, so scrapes are
    // deterministic) and render with no lock held: a slow scrape client
    // must not block engine creation.
    let engines = state.engines().sorted();
    let engine_capacity = state.engines().capacity();
    let sessions = state.sessions().sorted();
    let session_capacity = state.sessions().capacity();

    header(
        &mut out,
        "dod_engine_resident",
        "Engines resident in the registry (bounded by dod_engine_capacity).",
        "gauge",
    );
    let _ = writeln!(out, "dod_engine_resident {}", engines.len());
    header(
        &mut out,
        "dod_engine_capacity",
        "The registry's LRU bound on resident engines.",
        "gauge",
    );
    let _ = writeln!(out, "dod_engine_capacity {engine_capacity}");
    header(
        &mut out,
        "dod_session_active",
        "Live ingest sessions (bounded by dod_session_capacity).",
        "gauge",
    );
    let _ = writeln!(out, "dod_session_active {}", sessions.len());
    header(
        &mut out,
        "dod_session_capacity",
        "The hard bound on concurrent ingest sessions.",
        "gauge",
    );
    let _ = writeln!(out, "dod_session_capacity {session_capacity}");

    if !engines.is_empty() {
        header(
            &mut out,
            "dod_engine_dataset_size",
            "Objects the engine serves.",
            "gauge",
        );
        for (name, entry) in &engines {
            let _ = writeln!(
                out,
                "dod_engine_dataset_size{{engine=\"{name}\"}} {}",
                entry.engine.len()
            );
        }
        header(
            &mut out,
            "dod_engine_index_bytes",
            "Index footprint of the engine, in bytes.",
            "gauge",
        );
        for (name, entry) in &engines {
            let _ = writeln!(
                out,
                "dod_engine_index_bytes{{engine=\"{name}\"}} {}",
                entry.engine.index_bytes()
            );
        }
        for (metric, help, value) in [
            (
                "dod_engine_queries_total",
                "Queries answered successfully (batch members count individually).",
                &|m: &dod_core::EngineMetrics| m.queries.get(),
            ),
            (
                "dod_engine_query_errors_total",
                "Queries that returned an error.",
                &|m: &dod_core::EngineMetrics| m.query_errors.get(),
            ),
            (
                "dod_engine_batches_total",
                "query_many batches served.",
                &|m: &dod_core::EngineMetrics| m.batches.get(),
            ),
            (
                "dod_engine_outliers_reported_total",
                "Outliers reported across all queries.",
                &|m: &dod_core::EngineMetrics| m.outliers_reported.get(),
            ),
        ]
            as [(&str, &str, &dyn Fn(&dod_core::EngineMetrics) -> u64); 4]
        {
            header(&mut out, metric, help, "counter");
            for (name, entry) in &engines {
                let _ = writeln!(
                    out,
                    "{metric}{{engine=\"{name}\"}} {}",
                    value(entry.engine.metrics())
                );
            }
        }
        header(
            &mut out,
            "dod_engine_query_latency_seconds",
            "Latency of successful queries.",
            "histogram",
        );
        for (name, entry) in &engines {
            histogram(
                &mut out,
                "dod_engine_query_latency_seconds",
                &format!("engine=\"{name}\""),
                &entry.engine.metrics().latency.snapshot(),
            );
        }
        // Query-cost accounting: the paper's evaluation currency
        // (distance evaluations by phase, graph hops) plus the filter's
        // effectiveness counters, cumulative over every answered query.
        for (metric, help, value) in [
            (
                "dod_cost_filter_dist_evals_total",
                "Distance evaluations spent in the graph-filter phase, across all queries.",
                &|m: &dod_core::EngineMetrics| m.filter_dist_evals.get(),
            ),
            (
                "dod_cost_verify_dist_evals_total",
                "Distance evaluations spent verifying filter candidates, across all queries.",
                &|m: &dod_core::EngineMetrics| m.verify_dist_evals.get(),
            ),
            (
                "dod_cost_hops_total",
                "Proximity-graph vertices expanded by filter traversals, across all queries.",
                &|m: &dod_core::EngineMetrics| m.hops.get(),
            ),
            (
                "dod_cost_candidates_total",
                "Points the filter could not decide, handed to exact verification.",
                &|m: &dod_core::EngineMetrics| m.candidates.get(),
            ),
            (
                "dod_cost_decided_in_filter_total",
                "Points the filter decided alone (no verification needed).",
                &|m: &dod_core::EngineMetrics| m.decided_in_filter.get(),
            ),
            (
                "dod_cost_false_positives_total",
                "Filter candidates that verification overturned (inliers after all).",
                &|m: &dod_core::EngineMetrics| m.false_positives.get(),
            ),
        ]
            as [(&str, &str, &dyn Fn(&dod_core::EngineMetrics) -> u64); 6]
        {
            header(&mut out, metric, help, "counter");
            for (name, entry) in &engines {
                let _ = writeln!(
                    out,
                    "{metric}{{engine=\"{name}\"}} {}",
                    value(entry.engine.metrics())
                );
            }
        }
        header(
            &mut out,
            "dod_cost_pruning_power",
            "Fraction of the nested-loop distance baseline (queries × n·(n−1)) the index avoided; 0 until the first query.",
            "gauge",
        );
        for (name, entry) in &engines {
            let m = entry.engine.metrics();
            let n = entry.engine.len() as f64;
            let baseline = m.queries.get() as f64 * n * (n - 1.0);
            let spent = (m.filter_dist_evals.get() + m.verify_dist_evals.get()) as f64;
            let power = if baseline > 0.0 {
                (1.0 - spent / baseline).max(0.0)
            } else {
                0.0
            };
            let _ = writeln!(
                out,
                "dod_cost_pruning_power{{engine=\"{name}\"}} {}",
                dod_wire::render_number(power)
            );
        }
    }

    if !sessions.is_empty() {
        header(
            &mut out,
            "dod_ingest_points_total",
            "Stream points accepted over HTTP, by session.",
            "counter",
        );
        for (id, entry) in &sessions {
            let _ = writeln!(
                out,
                "dod_ingest_points_total{{session=\"{id}\"}} {}",
                entry.ingested.get()
            );
        }
        // One health barrier per session, so every stream, cost and shard
        // series below describes the same slide boundary. A
        // dead pipeline (worker panic) must degrade its session's series,
        // not kill the scrape.
        let healths: Vec<_> = sessions
            .iter()
            .filter_map(|(id, entry)| entry.pipeline.health().ok().map(|h| (id.clone(), h)))
            .collect();
        let stats: Vec<_> = healths.iter().map(|(id, h)| (id, h.stats())).collect();
        let ghosts: Vec<_> = healths.iter().map(|(id, h)| (id, &h.routes)).collect();
        for (metric, help, value) in [
            (
                "dod_stream_inserts_total",
                "Points inserted into shard windows (owned + ghost).",
                &|s: &dod_stream::StreamStats| s.inserts,
            ),
            (
                "dod_stream_ghost_inserts_total",
                "Ghost replicas inserted into shard windows.",
                &|s: &dod_stream::StreamStats| s.ghost_inserts,
            ),
            (
                "dod_stream_expirations_total",
                "Window residents expired.",
                &|s: &dod_stream::StreamStats| s.expirations,
            ),
            (
                "dod_stream_safe_promotions_total",
                "Residents promoted to safe inliers.",
                &|s: &dod_stream::StreamStats| s.safe_promotions,
            ),
        ]
            as [(&str, &str, &dyn Fn(&dod_stream::StreamStats) -> u64); 4]
        {
            header(&mut out, metric, help, "counter");
            for (id, s) in &stats {
                let _ = writeln!(out, "{metric}{{session=\"{id}\"}} {}", value(s));
            }
        }
        // Stream-side cost accounting: the distance evaluations of the
        // insert-time window scans, and the report verdicts read off the
        // counts those scans maintain.
        for (metric, help, value) in [
            (
                "dod_cost_insert_dist_evals_total",
                "Distance evaluations spent discovering neighbors of inserted points.",
                &|s: &dod_stream::StreamStats| s.insert_dist_evals,
            ),
            (
                "dod_cost_query_decided_in_filter_total",
                "Report-time residents decided from maintained counts alone.",
                &|s: &dod_stream::StreamStats| s.query_decided_in_filter,
            ),
        ]
            as [(&str, &str, &dyn Fn(&dod_stream::StreamStats) -> u64); 2]
        {
            header(&mut out, metric, help, "counter");
            for (id, s) in &stats {
                let _ = writeln!(out, "{metric}{{session=\"{id}\"}} {}", value(s));
            }
        }
        // Slide wall time, split into the paper's two phases: insert
        // (the window scan) and expiry sweeps. Nanosecond counters on
        // the shard pumps, rendered as seconds.
        for (metric, help, nanos) in [
            (
                "dod_stream_insert_seconds_total",
                "Wall time spent inserting into shard windows (neighbor discovery).",
                &|s: &dod_stream::StreamStats| s.insert_nanos,
            ),
            (
                "dod_stream_expiry_seconds_total",
                "Wall time spent expiring window residents.",
                &|s: &dod_stream::StreamStats| s.expiry_nanos,
            ),
        ]
            as [(&str, &str, &dyn Fn(&dod_stream::StreamStats) -> u64); 2]
        {
            header(&mut out, metric, help, "counter");
            for (id, s) in &stats {
                let _ = writeln!(
                    out,
                    "{metric}{{session=\"{id}\"}} {}",
                    dod_wire::render_number(nanos(s) as f64 / 1e9)
                );
            }
        }
        header(
            &mut out,
            "dod_ingest_queue_depth",
            "Ingest commands enqueued on the session's pipeline but not yet routed.",
            "gauge",
        );
        for (id, entry) in &sessions {
            let _ = writeln!(
                out,
                "dod_ingest_queue_depth{{session=\"{id}\"}} {}",
                entry.pipeline.gauges().queue_depth()
            );
        }
        header(
            &mut out,
            "dod_shard_route_seconds_total",
            "Wall time the session's router thread spent assigning points to shards.",
            "counter",
        );
        for (id, entry) in &sessions {
            let _ = writeln!(
                out,
                "dod_shard_route_seconds_total{{session=\"{id}\"}} {}",
                dod_wire::render_number(entry.pipeline.gauges().route_nanos() as f64 / 1e9)
            );
        }
        header(
            &mut out,
            "dod_shard_ghost_routes_total",
            "Ghost replicas routed from the owner shard into the target shard.",
            "counter",
        );
        for (id, ghost) in &ghosts {
            for (owner, row) in ghost.pairs.iter().enumerate() {
                for (target, &count) in row.iter().enumerate() {
                    if owner != target {
                        let _ = writeln!(
                            out,
                            "dod_shard_ghost_routes_total{{session=\"{id}\",owner=\"{owner}\",target=\"{target}\"}} {count}"
                        );
                    }
                }
            }
        }
        header(
            &mut out,
            "dod_shard_owned_points_total",
            "Stream points owned by the shard (the ghost-rate denominator).",
            "counter",
        );
        for (id, ghost) in &ghosts {
            for (shard, &owned) in ghost.owned.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "dod_shard_owned_points_total{{session=\"{id}\",shard=\"{shard}\"}} {owned}"
                );
            }
        }
        header(
            &mut out,
            "dod_shard_ghost_rate",
            "Fraction of the owner shard's owned points replicated into the target shard.",
            "gauge",
        );
        for (id, ghost) in &ghosts {
            for (owner, row) in ghost.pairs.iter().enumerate() {
                let owned = ghost.owned.get(owner).copied().unwrap_or(0).max(1);
                for (target, &count) in row.iter().enumerate() {
                    if owner != target {
                        let _ = writeln!(
                            out,
                            "dod_shard_ghost_rate{{session=\"{id}\",owner=\"{owner}\",target=\"{target}\"}} {}",
                            dod_wire::render_number(count as f64 / owned as f64)
                        );
                    }
                }
            }
        }
        header(
            &mut out,
            "dod_shard_balance_owned_skew",
            "Owned-resident imbalance, max/mean across shards (1 = balanced).",
            "gauge",
        );
        for (id, h) in &healths {
            let _ = writeln!(
                out,
                "dod_shard_balance_owned_skew{{session=\"{id}\"}} {}",
                dod_wire::render_number(h.owned_skew())
            );
        }
        header(
            &mut out,
            "dod_shard_balance_slide_skew",
            "Slide-work imbalance, max/mean of per-shard insert+expiry wall time (1 = balanced).",
            "gauge",
        );
        for (id, h) in &healths {
            let _ = writeln!(
                out,
                "dod_shard_balance_slide_skew{{session=\"{id}\"}} {}",
                dod_wire::render_number(h.slide_skew())
            );
        }
        header(
            &mut out,
            "dod_shard_balance_ghost_rate",
            "Ghost fraction of the shard's residents (replication bought for exactness).",
            "gauge",
        );
        for (id, h) in &healths {
            for (shard, rate) in h.ghost_rates().iter().enumerate() {
                let _ = writeln!(
                    out,
                    "dod_shard_balance_ghost_rate{{session=\"{id}\",shard=\"{shard}\"}} {}",
                    dod_wire::render_number(*rate)
                );
            }
        }
        header(
            &mut out,
            "dod_session_durable",
            "1 for sessions backed by a write-ahead log, 0 for in-memory sessions.",
            "gauge",
        );
        for (id, entry) in &sessions {
            let _ = writeln!(
                out,
                "dod_session_durable{{session=\"{id}\"}} {}",
                u8::from(entry.durable.is_some())
            );
        }
        // WAL counters, only for durable sessions. The telemetry Arcs are
        // shared with each session's router thread, so scrapes read live
        // values without touching the pipeline.
        let wals: Vec<_> = sessions
            .iter()
            .filter_map(|(id, entry)| {
                entry
                    .durable
                    .as_ref()
                    .map(|d| (id.clone(), std::sync::Arc::clone(&d.telemetry)))
            })
            .collect();
        if !wals.is_empty() {
            for (metric, help, value) in [
                (
                    "dod_wal_appended_records_total",
                    "WAL frames appended (one per committed ingest batch).",
                    &|t: &dod_shard::WalTelemetry| t.appended_records.get(),
                ),
                (
                    "dod_wal_appended_ops_total",
                    "Stream operations (inserts and clock advances) appended to the WAL.",
                    &|t: &dod_shard::WalTelemetry| t.appended_ops.get(),
                ),
                (
                    "dod_wal_appended_bytes_total",
                    "Bytes appended to the WAL, framing included.",
                    &|t: &dod_shard::WalTelemetry| t.appended_bytes.get(),
                ),
                (
                    "dod_wal_fsyncs_total",
                    "fsync calls issued by the WAL (appends and snapshots).",
                    &|t: &dod_shard::WalTelemetry| t.fsyncs.get(),
                ),
                (
                    "dod_wal_snapshots_total",
                    "Window snapshots installed (each truncates the log tail).",
                    &|t: &dod_shard::WalTelemetry| t.snapshots.get(),
                ),
                (
                    "dod_wal_replayed_records_total",
                    "WAL frames replayed at the last open.",
                    &|t: &dod_shard::WalTelemetry| t.replayed_records.get(),
                ),
                (
                    "dod_wal_replayed_ops_total",
                    "Stream operations replayed at the last open.",
                    &|t: &dod_shard::WalTelemetry| t.replayed_ops.get(),
                ),
                (
                    "dod_wal_torn_tails_total",
                    "Torn log tails truncated on open (expected crash artifacts).",
                    &|t: &dod_shard::WalTelemetry| t.torn_tails.get(),
                ),
                (
                    "dod_wal_io_errors_total",
                    "WAL I/O failures; nonzero means the session degraded to in-memory (alarm on this).",
                    &|t: &dod_shard::WalTelemetry| t.io_errors.get(),
                ),
            ]
                as [(&str, &str, &dyn Fn(&dod_shard::WalTelemetry) -> u64); 9]
            {
                header(&mut out, metric, help, "counter");
                for (id, t) in &wals {
                    let _ = writeln!(out, "{metric}{{session=\"{id}\"}} {}", value(t));
                }
            }
            for (metric, help, nanos) in [
                (
                    "dod_wal_append_seconds_total",
                    "Wall time spent appending WAL frames, the sync policy's fdatasync included.",
                    &|t: &dod_shard::WalTelemetry| t.append_nanos.get(),
                ),
                (
                    "dod_wal_snapshot_seconds_total",
                    "Wall time spent installing window snapshots.",
                    &|t: &dod_shard::WalTelemetry| t.snapshot_nanos.get(),
                ),
                (
                    "dod_wal_replay_seconds_total",
                    "Wall time spent replaying the WAL at open.",
                    &|t: &dod_shard::WalTelemetry| t.replay_nanos.get(),
                ),
            ]
                as [(&str, &str, &dyn Fn(&dod_shard::WalTelemetry) -> u64); 3]
            {
                header(&mut out, metric, help, "counter");
                for (id, t) in &wals {
                    let _ = writeln!(
                        out,
                        "{metric}{{session=\"{id}\"}} {}",
                        dod_wire::render_number(nanos(t) as f64 / 1e9)
                    );
                }
            }
        }
    }
    // Always emitted (even with zero live sessions): the error that
    // matters most is the one that happened while *deleting* the last
    // session.
    header(
        &mut out,
        "dod_session_cleanup_errors_total",
        "Failed removals of durable-session directories; nonzero means \
         on-disk state believed deleted may still exist.",
        "counter",
    );
    let _ = writeln!(
        out,
        "dod_session_cleanup_errors_total {}",
        state.cleanup_errors.get()
    );
    out
}
