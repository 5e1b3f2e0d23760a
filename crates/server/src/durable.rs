//! Durable wire sessions: the on-disk manifest that makes a session's
//! *spec* restart-survivable (its window *contents* travel through the
//! WAL + snapshot in the same directory), and the bind-time recovery
//! sweep that re-mounts every surviving session before the server
//! accepts its first connection.
//!
//! A durable session's directory is `{data_dir}/sessions/{id}` and holds
//! exactly three files: `wal.log` and `snapshot.bin` (owned by
//! [`dod_wal::SessionWal`]) plus `manifest.json` — the session's
//! creation body, verbatim, in the [`SessionCreateRequest`] wire shape.
//! Storing the request rather than some parallel schema means the
//! manifest can never drift from what `POST /v1/sessions` accepts:
//! recovery reads the body back through the same parser (minus its
//! unknown-key check, so a manifest from an earlier version still loads)
//! and opens the session through the same [`crate::streams::open`] as
//! the handler.

use crate::registry::SessionRegistry;
use dod_core::telemetry::Counter;
use dod_core::DodError;
use dod_shard::{DurabilityPolicy, SyncPolicy};
use dod_wire::shapes::{SessionCreateRequest, SyncShape};
use std::path::Path;

/// The session-spec file next to the WAL, in the
/// [`SessionCreateRequest`] wire shape.
pub(crate) const MANIFEST_FILE: &str = "manifest.json";

/// The wire durability knobs as a [`DurabilityPolicy`]. A durable wire
/// session defaults to [`SyncPolicy::Always`]: its HTTP ack is a promise
/// the point is on disk, not merely in a buffer.
pub(crate) fn policy_from(create: &SessionCreateRequest) -> DurabilityPolicy {
    let mut policy = DurabilityPolicy::with_sync(match create.sync {
        None | Some(SyncShape::Always) => SyncPolicy::Always,
        Some(SyncShape::Never) => SyncPolicy::Never,
        Some(SyncShape::EveryN(n)) => SyncPolicy::EveryN(n.min(u32::MAX as u64) as u32),
    });
    if let Some(n) = create.snapshot_ops {
        policy.snapshot_ops = n.max(1);
    }
    policy
}

/// Persists the creation body as the session's manifest, atomically
/// (tmp → fsync → rename → dir sync): a half-written manifest must
/// never look recoverable. Without the fsync before the rename, an OS
/// crash can leave the *renamed* file empty — the rename is atomic in
/// the namespace but says nothing about the data blocks — and a
/// zero-byte manifest reads as `Corrupt`, refusing the whole bind.
pub(crate) fn write_manifest(dir: &Path, create: &SessionCreateRequest) -> Result<(), DodError> {
    use std::io::Write;
    let tmp = dir.join("manifest.tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(create.to_json().render().as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(MANIFEST_FILE))?;
    // Make the rename itself durable. Best-effort, like the WAL's own
    // snapshot commit: directory fsync is not supported everywhere.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Reads a session's manifest back into its creation body. The parse is
/// lenient where `POST /v1/sessions` is strict: a key an earlier version
/// wrote and this one retired (such as the old `sample_rate` and
/// `audit_sample` audit knobs) is ignored, so its sessions still recover.
pub(crate) fn read_manifest(dir: &Path) -> Result<SessionCreateRequest, DodError> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let doc = dod_wire::parse_json(&text).map_err(|_| DodError::Corrupt {
        offset: 0,
        reason: "session manifest is not valid JSON",
    })?;
    SessionCreateRequest::from_json_lenient(&doc).map_err(|_| DodError::Corrupt {
        offset: 0,
        reason: "session manifest is missing or mistypes a required field",
    })
}

/// Removes everything a durable session put on disk: the manifest, the
/// WAL files, and (if then empty) the directory itself. Already-gone
/// files are fine (deletion is idempotent); any other failure
/// propagates — callers go through [`reclaim_session_dir`], which turns
/// it into a counted, logged event instead of silently leaving
/// recoverable state behind.
pub(crate) fn remove_session_dir(dir: &Path) -> std::io::Result<()> {
    for f in [MANIFEST_FILE, "manifest.tmp"] {
        match std::fs::remove_file(dir.join(f)) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    dod_wal::remove_session_dir(dir)
}

/// [`remove_session_dir`] as the handlers use it: the HTTP response does
/// not change on failure (the session itself is already gone from the
/// registry), but the failure is counted (`dod_session_cleanup_errors_total`)
/// and logged so leftover on-disk state is an alarm, not a silence.
pub(crate) fn reclaim_session_dir(dir: &Path, cleanup_errors: &Counter) {
    if let Err(e) = remove_session_dir(dir) {
        cleanup_errors.inc();
        eprintln!(
            "dod_server: failed to remove session directory {}: {e}",
            dir.display()
        );
    }
}

/// Bind-time recovery: scans `{data_dir}/sessions/*` for directories
/// holding a manifest, replays each session and mounts it under its
/// original id (bumping the registry's id counter past recovered ids).
/// Returns the recovered ids in id order.
///
/// Failures propagate — a server asked to host durable sessions must not
/// silently come up without the state it was trusted with. Torn WAL
/// tails are *not* failures (the WAL truncates them as ordinary crash
/// artifacts); only structural corruption or exhausted capacity refuse
/// the bind.
pub(crate) fn recover_sessions(
    data_dir: &Path,
    queue: usize,
    sessions: &mut SessionRegistry,
    cleanup_errors: &Counter,
) -> Result<Vec<String>, DodError> {
    let root = data_dir.join("sessions");
    if !root.is_dir() {
        return Ok(Vec::new());
    }
    let mut ids: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&root)? {
        let entry = entry?;
        let id = entry.file_name().to_string_lossy().into_owned();
        // Only registry-valid ids with a manifest are sessions; anything
        // else in the directory is not ours to touch.
        if crate::routes::valid_name(&id) {
            if entry.path().join(MANIFEST_FILE).is_file() {
                ids.push(id);
            } else if entry.path().is_dir() {
                // A valid session id with no manifest is an aborted
                // creation: the 201 only goes out after `write_manifest`
                // succeeds, so nothing in here was ever promised to a
                // client. Reclaim it rather than stranding WAL files
                // that will never be replayed.
                reclaim_session_dir(&entry.path(), cleanup_errors);
            }
        }
    }
    // Recover in listing order (s1, s2, …, s10 — numeric before
    // lexicographic), so a capacity refusal is deterministic.
    ids.sort_by(|a, b| (a.len(), a.as_str()).cmp(&(b.len(), b.as_str())));
    for id in &ids {
        let dir = root.join(id);
        let create = read_manifest(&dir)?;
        let entry = crate::streams::open(&create, Some(&dir))?.start(queue);
        if sessions.mount(id, entry).is_err() {
            return Err(DodError::InvalidSpec {
                reason: format!(
                    "recovering session {id:?} exceeds the session capacity of {}; raise max_sessions",
                    sessions.capacity()
                ),
            });
        }
    }
    Ok(ids)
}
