//! Last-good checkpoint management: retention, verification, quarantine.
//!
//! [`save_checkpoint`](crate::save_checkpoint) makes one *file* crash-safe
//! (stage → fsync → rename → directory fsync). [`CheckpointManager`] lifts
//! that to a *directory* of checkpoints with a last-good guarantee:
//!
//! * every save gets a fresh, monotonically increasing sequence number —
//!   nothing is ever overwritten in place, so the previous checkpoint stays
//!   valid until the new one is fully durable;
//! * retention keeps the newest `keep` checkpoints and deletes older ones
//!   *after* the new save is complete (a crash mid-rotation leaves extra
//!   files, never fewer);
//! * recovery walks newest → oldest, fully validating each file (frame
//!   checksum and section decode) and returning the first valid one;
//! * a file that fails validation is **quarantined** — renamed aside with a
//!   typed reason suffix, never deleted — so operators can inspect what broke
//!   while the manager falls back to the next-newest valid checkpoint.
//!
//! # Directory protocol
//!
//! ```text
//! <dir>/ckpt-0000000007.ckpt                    active checkpoint
//! <dir>/ckpt-0000000006.ckpt                    older retained checkpoint
//! <dir>/ckpt-0000000005.ckpt.bad-checksum       quarantined (bit rot)
//! <dir>/ckpt-0000000008.tmp-snapshot            torn temp from a dead writer
//! ```
//!
//! Only names matching `ckpt-<seq>.ckpt` exactly are live checkpoints;
//! quarantined files and staging temps have different suffixes and are
//! invisible to retention and recovery. A torn temp is not swept: the
//! sequence number is derived from live and quarantined files only, so the
//! next save reuses the torn save's number, truncates its temp and renames
//! it into place.
//!
//! Crash-consistency argument, step by step: the save itself is atomic (frame
//! rename), the sequence number is derived from the directory listing (max
//! live or quarantined seq + 1, so a quarantined newest never gets its seq
//! reused), and rotation only ever deletes files strictly older than `keep`
//! *valid-or-unexamined* newer ones. Killing the process between any two
//! steps therefore leaves the directory with at least the same set of valid
//! checkpoints it had before the save started. The kill-anywhere harness
//! (`tests/crash_recovery.rs`) proves this empirically for every instrumented
//! crash point.

use crate::crash::crash_point;
use crate::error::SnapshotError;
use crate::format::read_frame;
use crate::snapshot::{load_checkpoint, save_checkpoint, Checkpoint};
use crate::telemetry::ServeMetrics;
use nscaching_train::Trainer;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// File-name prefix of a managed checkpoint.
const PREFIX: &str = "ckpt-";
/// File-name suffix of a live managed checkpoint.
const SUFFIX: &str = ".ckpt";
/// Zero-padded width of the sequence number (lexicographic == numeric order).
const SEQ_WIDTH: usize = 10;

/// A live checkpoint paired with the result of verifying its frame.
pub type VerifiedEntry = (CheckpointEntry, Result<(), SnapshotError>);

/// One live checkpoint file in a managed directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointEntry {
    /// Monotonic save sequence number (newer saves have larger numbers).
    pub seq: u64,
    /// Full path of the checkpoint file.
    pub path: PathBuf,
}

/// A recovered checkpoint plus the bookkeeping of how it was found.
#[derive(Debug)]
pub struct Recovery {
    /// The decoded last-good checkpoint.
    pub checkpoint: Checkpoint,
    /// The file it was loaded from.
    pub path: PathBuf,
    /// Newer files that failed validation and were quarantined during this
    /// recovery, newest first: `(original path, quarantine path, error)`.
    pub quarantined: Vec<(PathBuf, PathBuf, SnapshotError)>,
}

/// Keep-last-N checkpoint directory manager with corruption quarantine.
///
/// See the [module docs](self) for the directory protocol and the
/// crash-consistency argument.
#[derive(Debug, Clone)]
pub struct CheckpointManager {
    dir: PathBuf,
    keep: usize,
    /// Attach-once telemetry (save/recover timings, quarantine counts);
    /// clones share the handles.
    metrics: OnceLock<Arc<ServeMetrics>>,
}

impl CheckpointManager {
    /// Open (creating if needed) a managed checkpoint directory that retains
    /// the newest `keep` checkpoints. `keep` is clamped to at least 1 — a
    /// manager that retains nothing could never recover anything.
    pub fn new(dir: impl Into<PathBuf>, keep: usize) -> Result<Self, SnapshotError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self {
            dir,
            keep: keep.max(1),
            metrics: OnceLock::new(),
        })
    }

    /// Attach telemetry handles; attach-once, later calls are no-ops.
    pub fn attach_metrics(&self, metrics: Arc<ServeMetrics>) {
        let _ = self.metrics.set(metrics);
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Retention limit (newest `keep` checkpoints survive rotation).
    pub fn keep(&self) -> usize {
        self.keep
    }

    /// Save a new checkpoint of `trainer` and rotate old ones out.
    ///
    /// The write is atomic and durable (see
    /// [`write_frame`](crate::format::write_frame)); rotation runs strictly
    /// after it, so a crash anywhere in this call never reduces the set of
    /// valid checkpoints below what it was on entry.
    pub fn save(&self, trainer: &Trainer) -> Result<PathBuf, SnapshotError> {
        let started = Instant::now();
        let seq = self.next_seq()?;
        let path = self
            .dir
            .join(format!("{PREFIX}{seq:0width$}{SUFFIX}", width = SEQ_WIDTH));
        save_checkpoint(&path, trainer)?;
        self.rotate()?;
        if let Some(metrics) = self.metrics.get() {
            metrics.checkpoint_save_us.observe(started.elapsed());
            metrics.checkpoints_saved.inc();
        }
        Ok(path)
    }

    /// Live checkpoint entries, newest first. Purely name-based — no file
    /// contents are read; use [`list_verified`](Self::list_verified) or
    /// [`recover`](Self::recover) for validation.
    pub fn entries(&self) -> Result<Vec<CheckpointEntry>, SnapshotError> {
        let mut entries = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_seq(name) {
                entries.push(CheckpointEntry {
                    seq,
                    path: dirent.path(),
                });
            }
        }
        entries.sort_unstable_by_key(|e| std::cmp::Reverse(e.seq));
        Ok(entries)
    }

    /// Checksum-verified listing: every live entry paired with the result of
    /// validating its frame (magic, version, length, checksum), newest first.
    /// Nothing is quarantined — this is the read-only inspection surface.
    pub fn list_verified(&self) -> Result<Vec<VerifiedEntry>, SnapshotError> {
        let entries = self.entries()?;
        Ok(entries
            .into_iter()
            .map(|e| {
                let verdict = read_frame(&e.path).map(|_| ());
                (e, verdict)
            })
            .collect())
    }

    /// Paths of quarantined files in the managed directory, newest first.
    pub fn quarantined(&self) -> Result<Vec<PathBuf>, SnapshotError> {
        let mut files = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.starts_with(PREFIX) && name.contains(".bad-") {
                files.push(dirent.path());
            }
        }
        files.sort_unstable();
        files.reverse();
        Ok(files)
    }

    /// Recover the newest valid checkpoint, quarantining every newer corrupt
    /// file on the way. Returns `Ok(None)` when the directory holds no live
    /// checkpoints at all (first boot).
    ///
    /// Validation is *full*: the frame checksum **and** the section decode
    /// must succeed, so a checksum-consistent file with a broken schema (a
    /// different format generation, a hand-edited file) is also quarantined
    /// rather than crashing the resume path later.
    pub fn recover(&self) -> Result<Option<Recovery>, SnapshotError> {
        let started = Instant::now();
        let mut quarantined = Vec::new();
        for entry in self.entries()? {
            match load_checkpoint(&entry.path) {
                Ok(checkpoint) => {
                    self.record_recover(started, quarantined.len());
                    return Ok(Some(Recovery {
                        checkpoint,
                        path: entry.path,
                        quarantined,
                    }));
                }
                Err(error) => {
                    let to = self.quarantine(&entry.path, &error)?;
                    quarantined.push((entry.path, to, error));
                }
            }
        }
        self.record_recover(started, quarantined.len());
        Ok(None)
    }

    fn record_recover(&self, started: Instant, quarantined: usize) {
        if let Some(metrics) = self.metrics.get() {
            metrics.checkpoint_recover_us.observe(started.elapsed());
            metrics.checkpoints_quarantined.add(quarantined as u64);
        }
    }

    /// Move a failed checkpoint aside with a typed reason suffix. The bytes
    /// are preserved for inspection — quarantine never deletes.
    fn quarantine(&self, path: &Path, error: &SnapshotError) -> Result<PathBuf, SnapshotError> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("checkpoint");
        let mut to = self.dir.join(format!("{name}.bad-{}", reason_slug(error)));
        // A repeat failure of the same file/reason must not clobber the
        // previously quarantined bytes.
        let mut attempt = 1u32;
        while to.exists() {
            to = self
                .dir
                .join(format!("{name}.bad-{}.{attempt}", reason_slug(error)));
            attempt += 1;
        }
        crash_point("manager: before quarantine rename");
        std::fs::rename(path, &to)?;
        crash_point("manager: after quarantine rename");
        Ok(to)
    }

    /// Next save's sequence number: one past the largest sequence among live
    /// *and* quarantined files, so a quarantined newest checkpoint never has
    /// its number reused (which would make "newest" ambiguous forever after).
    fn next_seq(&self) -> Result<u64, SnapshotError> {
        let mut max_seq = None::<u64>;
        for dirent in std::fs::read_dir(&self.dir)? {
            let name = dirent?.file_name();
            let Some(name) = name.to_str() else { continue };
            let live = parse_seq(name);
            let quarantined = name
                .split_once(".bad-")
                .and_then(|(head, _)| parse_seq(head));
            if let Some(seq) = live.or(quarantined) {
                max_seq = Some(max_seq.map_or(seq, |m| m.max(seq)));
            }
        }
        Ok(max_seq.map_or(0, |m| m + 1))
    }

    /// Delete live checkpoints beyond the newest `keep`, oldest first.
    fn rotate(&self) -> Result<(), SnapshotError> {
        let entries = self.entries()?;
        for stale in entries.iter().skip(self.keep).rev() {
            crash_point("manager: before rotation delete");
            std::fs::remove_file(&stale.path)?;
            crash_point("manager: after rotation delete");
        }
        Ok(())
    }
}

/// Parse the sequence number out of a live checkpoint file name; `None` for
/// anything that is not exactly `ckpt-<digits>.ckpt`.
fn parse_seq(name: &str) -> Option<u64> {
    let digits = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Short, stable slug for a quarantine file name, one per error family.
fn reason_slug(error: &SnapshotError) -> &'static str {
    match error {
        SnapshotError::Io(_) => "io",
        SnapshotError::BadMagic { .. } => "magic",
        SnapshotError::UnsupportedVersion { .. } => "version",
        SnapshotError::Truncated { .. } => "truncated",
        SnapshotError::ChecksumMismatch { .. } => "checksum",
        SnapshotError::SchemaMismatch(_) => "schema",
        SnapshotError::Corrupt(_) => "corrupt",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_parsing_accepts_only_the_exact_shape() {
        assert_eq!(parse_seq("ckpt-0000000007.ckpt"), Some(7));
        assert_eq!(parse_seq("ckpt-0.ckpt"), Some(0));
        assert_eq!(parse_seq("ckpt-.ckpt"), None);
        assert_eq!(parse_seq("ckpt-7.ckpt.bad-checksum"), None);
        assert_eq!(parse_seq("ckpt-7.tmp-snapshot"), None);
        assert_eq!(parse_seq("model-7.ckpt"), None);
        assert_eq!(parse_seq("ckpt-x7.ckpt"), None);
    }
}
