//! Recover-on-open: rebuild a crash-consistent store from checkpoint + log.
//!
//! [`recover`] implements the open-time half of the durability protocol in
//! [`wal`](crate::wal): parse the checkpoint bundle (if any), scan the log
//! for its longest valid record prefix, skip every record the checkpoint
//! already covers (its chained `wal_lsn`), and replay the rest in LSN
//! order. The result is always *prefix-consistent*: equal to replaying
//! some prefix of the operations that were actually logged — a crash at
//! any byte can shorten history, never rewrite it.
//!
//! A *damaged* checkpoint (torn, byte-flipped, wrong layout) is not fatal:
//! the caller falls back to [`recover`] with no checkpoint. Install
//! records are self-contained (they carry the full sealed cache), so a
//! log-only recovery still yields a valid — merely older or smaller —
//! prefix; in the worst case recovery degrades to a cold store, which is
//! the shortest valid prefix of all.

use crate::cachefile;
use crate::error::IntegrityError;
use crate::wal::{replay, scan_log, Lsn};
use ds_core::CacheLayout;
use ds_interp::CacheBuf;

/// The outcome of a successful recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// The recovered store content, fingerprint-sorted: checkpoint entries
    /// with the logged operations beyond the checkpoint replayed on top.
    pub entries: Vec<(u64, CacheBuf)>,
    /// How many entries came from the checkpoint bundle.
    pub checkpoint_entries: u64,
    /// How many log records were replayed on top of the checkpoint.
    pub replayed: u64,
    /// How many valid log records were skipped because the checkpoint
    /// already covered their LSN.
    pub skipped: u64,
    /// Whether the log carried damage after its valid prefix (torn tail,
    /// corrupt record, or LSN-order violation) that recovery discarded.
    pub damaged_tail: bool,
    /// Byte length of the log's valid prefix; a reopening writer should
    /// truncate the log here so new appends extend valid history.
    pub valid_log_bytes: usize,
    /// The LSN the reopened log must continue from (one past the last
    /// valid record, and at least one past the checkpoint's coverage).
    pub next_lsn: Lsn,
}

impl Recovery {
    /// One-line human summary for serve logs.
    pub fn summary(&self) -> String {
        format!(
            "recovered {} cache(s) ({} from checkpoint, {} replayed, {} skipped){}",
            self.entries.len(),
            self.checkpoint_entries,
            self.replayed,
            self.skipped,
            if self.damaged_tail {
                "; discarded damaged log tail"
            } else {
                ""
            }
        )
    }
}

/// Recovers store content from an optional checkpoint document and a log
/// text. `checkpoint = None` means no checkpoint was ever installed (or
/// the caller is deliberately ignoring a damaged one).
///
/// # Errors
///
/// A typed [`IntegrityError`] when the checkpoint document itself is
/// damaged — the caller decides whether to fail or retry without it. With
/// `checkpoint = None` this function is infallible: log damage only
/// shortens the recovered prefix.
pub fn recover(
    checkpoint: Option<&str>,
    log: &str,
    layout: &CacheLayout,
) -> Result<Recovery, IntegrityError> {
    let (entries, cover_lsn) = match checkpoint {
        None => (Vec::new(), 0),
        Some(text) => {
            let (loaded, lsn) = cachefile::parse_store_with_lsn(text, layout)?;
            let entries: Vec<(u64, CacheBuf)> = loaded
                .into_iter()
                .map(|lc| (lc.inputs_fingerprint, lc.cache))
                .collect();
            (entries, lsn)
        }
    };
    Ok(replay_log(entries, cover_lsn, log, layout))
}

/// Recovers with automatic degradation: a damaged checkpoint is discarded
/// and recovery retries from the log alone. Returns the recovery plus the
/// checkpoint error it survived, if any.
pub fn recover_or_degrade(
    checkpoint: Option<&str>,
    log: &str,
    layout: &CacheLayout,
) -> (Recovery, Option<IntegrityError>) {
    match recover(checkpoint, log, layout) {
        Ok(rec) => (rec, None),
        Err(e) => (replay_log(Vec::new(), 0, log, layout), Some(e)),
    }
}

/// The infallible half of recovery: scans `log` for its valid prefix and
/// replays every record past `cover_lsn` on top of the checkpoint's
/// `entries`. Log damage only shortens the replayed prefix.
fn replay_log(
    mut entries: Vec<(u64, CacheBuf)>,
    cover_lsn: Lsn,
    log: &str,
    layout: &CacheLayout,
) -> Recovery {
    let checkpoint_entries = entries.len() as u64;
    let scan = scan_log(log, layout);
    let last_lsn = scan.records.last().map_or(0, |r| r.lsn);
    let (replayed, skipped) = replay(&mut entries, &scan.records, cover_lsn);
    Recovery {
        entries,
        checkpoint_entries,
        replayed,
        skipped,
        damaged_tail: scan.torn,
        valid_log_bytes: scan.valid_bytes,
        next_lsn: last_lsn.max(cover_lsn) + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::Fault;
    use crate::store::CacheStore;
    use crate::wal::{Wal, WalOp};
    use ds_interp::Value;
    use ds_lang::{TermId, Type};

    fn layout() -> CacheLayout {
        CacheLayout::new([
            (TermId(1), Type::Float, "a * b".to_string()),
            (TermId(2), Type::Int, "n + 1".to_string()),
        ])
    }

    fn cache(v: f64) -> CacheBuf {
        let mut c = CacheBuf::new(2);
        c.set(0, Value::Float(v));
        c.set(1, Value::Int(7));
        c
    }

    fn install(wal: &Wal, fp: u64, v: f64) {
        wal.append(&WalOp::Install {
            inputs_fp: fp,
            cache: cache(v),
        })
        .expect("append");
    }

    #[test]
    fn log_only_recovery_replays_the_whole_prefix() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        install(&wal, 10, 1.0);
        install(&wal, 20, 2.0);
        wal.append(&WalOp::Invalidate { inputs_fp: 10 }).unwrap();
        let rec = recover(None, &wal.log_text().unwrap(), &l).expect("recover");
        assert_eq!(rec.replayed, 3);
        assert_eq!(rec.checkpoint_entries, 0);
        assert!(!rec.damaged_tail);
        assert_eq!(rec.next_lsn, 4);
        let fps: Vec<u64> = rec.entries.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![20]);
    }

    #[test]
    fn checkpoint_plus_log_skips_covered_records() {
        let l = layout();
        let store = CacheStore::new(8);
        let wal = Wal::in_memory(l.fingerprint(), None);
        for (fp, v) in [(10u64, 1.0), (20, 2.0)] {
            let c = cache(v);
            let seal = c.content_hash();
            store.insert(fp, crate::store::StoreEntry { cache: c, seal });
            install(&wal, fp, v);
        }
        wal.checkpoint(&store).expect("checkpoint");
        install(&wal, 30, 3.0); // post-checkpoint record
        let ckpt = wal.checkpoint_text().unwrap().expect("installed");
        let rec = recover(Some(&ckpt), &wal.log_text().unwrap(), &l).expect("recover");
        assert_eq!(rec.checkpoint_entries, 2);
        assert_eq!(rec.replayed, 1);
        assert_eq!(rec.skipped, 0, "checkpoint truncated the log");
        assert_eq!(rec.next_lsn, 4);
        let fps: Vec<u64> = rec.entries.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![10, 20, 30]);
    }

    #[test]
    fn crash_between_install_and_truncate_is_idempotent() {
        // Model the worst checkpoint crash: the bundle was installed but
        // the log was never truncated, so every record is still present
        // and also covered. Replaying must skip all of them.
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        install(&wal, 10, 1.0);
        install(&wal, 20, 2.0);
        let log = wal.log_text().unwrap();
        let entries = vec![(10u64, cache(1.0)), (20u64, cache(2.0))];
        let ckpt = cachefile::save_store_at(&entries, l.fingerprint(), 2);
        let rec = recover(Some(&ckpt), &log, &l).expect("recover");
        assert_eq!(rec.skipped, 2, "both records already covered");
        assert_eq!(rec.replayed, 0);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.next_lsn, 3);
    }

    #[test]
    fn damaged_checkpoint_degrades_to_log_only() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        install(&wal, 10, 1.0);
        let ckpt = cachefile::save_store_at(&[(99u64, cache(9.0))], l.fingerprint(), 1);
        let torn = &ckpt[..ckpt.len() / 2];
        let log = wal.log_text().unwrap();
        assert!(recover(Some(torn), &log, &l).is_err(), "typed rejection");
        let (rec, err) = recover_or_degrade(Some(torn), &log, &l);
        assert!(err.is_some());
        // The covered record replays from the log instead: older prefix,
        // never a wrong answer.
        assert_eq!(rec.replayed, 1);
        let fps: Vec<u64> = rec.entries.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![10]);
    }

    /// A format-1 log (`wal1` records, FNV-1a checksums) recovers as the
    /// empty prefix with a damaged tail, and a format-1 checkpoint is
    /// refused with a typed error: recovery degrades to a cold store
    /// rather than adopting keys no request of this build can hit.
    #[test]
    fn format_one_checkpoint_and_log_are_refused() {
        let l = layout();
        let old_log = include_str!("../testdata/format1.log");
        let old_ckpt = include_str!("../testdata/format1-checkpoint.json");
        assert!(old_log.starts_with("wal1 "));
        let rec = recover(None, old_log, &l).expect("log-only recovery");
        assert_eq!(rec.replayed, 0);
        assert!(rec.entries.is_empty());
        assert!(rec.damaged_tail, "the wal1 records are a damaged tail");
        assert_eq!(rec.valid_log_bytes, 0);
        assert_eq!(rec.next_lsn, 1);
        let err = recover(Some(old_ckpt), "", &l).unwrap_err();
        assert!(
            matches!(&err, IntegrityError::Malformed { detail } if detail.contains("format 1")),
            "{err}"
        );
        let (rec, err) = recover_or_degrade(Some(old_ckpt), old_log, &l);
        assert!(
            matches!(&err, Some(IntegrityError::Malformed { detail }) if detail.contains("format 1")),
            "{err:?}"
        );
        assert!(rec.entries.is_empty());
        assert_eq!(rec.checkpoint_entries, 0);
        assert!(rec.damaged_tail);
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        install(&wal, 10, 1.0);
        wal.arm(Fault::TornWrite(25)).unwrap();
        install(&wal, 20, 2.0); // torn, silently
        let log = wal.log_text().unwrap();
        let rec = recover(None, &log, &l).expect("recover");
        assert!(rec.damaged_tail);
        assert_eq!(rec.replayed, 1);
        assert!(rec.valid_log_bytes < log.len());
        assert!(log[..rec.valid_log_bytes].ends_with('\n'));
        assert_eq!(rec.summary(), "recovered 1 cache(s) (0 from checkpoint, 1 replayed, 0 skipped); discarded damaged log tail");
    }
}
