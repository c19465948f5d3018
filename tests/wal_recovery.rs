//! WAL recovery suite: exhaustive damage to the log and the checkpoint.
//!
//! The invariant under test (ISSUE 6's acceptance criterion): recovery
//! never returns a *wrong* answer, only a *shorter valid prefix* of
//! history. Every single-byte flip and every truncation of a real log
//! must recover to a record sequence that is a prefix of the pristine
//! scan, and a runner adopting that recovery must serve every request
//! bit-identical to the uncached reference. Duplicate, reordered, or
//! zero LSNs terminate the scan — the reader never resyncs past damage.

#[path = "common/paper.rs"]
#[allow(dead_code)]
mod paper;

#[path = "common/session.rs"]
mod session;

use std::sync::Arc;

use ds_core::{specialize_source, InputPartition, Specialization, SpecializeOptions};
use ds_interp::Value;
use ds_runtime::wal::encode_record;
use ds_runtime::{
    recover, recover_or_degrade, scan_log, Fault, Policy, RunnerOptions, Wal, WalOp, WalRecord,
};
use session::{solo_session, STORE_CAPACITY};

/// A real WAL produced by driving dotprod through installs, a detected
/// corruption (one invalidate), and the rebuild that follows it.
struct Fixture {
    spec: Specialization,
    part: InputPartition,
    arg_sets: Vec<Vec<Value>>,
    log: String,
    checkpoint: Option<String>,
    /// The pristine scan of `log` — the reference history.
    pristine: Vec<WalRecord>,
}

fn fixture(checkpoint_every: Option<u64>) -> Fixture {
    let mut ex = paper::paper_examples().swap_remove(0);
    // A third *static* fingerprint (the cache is keyed on the static half
    // of the partition; z1/z2 are the varying inputs).
    let mut alt = ex.arg_sets[0].clone();
    alt[0] = Value::Float(9.0);
    ex.arg_sets.push(alt.clone());
    let part = InputPartition::varying(ex.varying.iter().copied());
    let spec = specialize_source(ex.src, ex.entry, &part, &SpecializeOptions::new())
        .unwrap_or_else(|e| panic!("specialize: {e}"));
    let mut r = solo_session(
        &spec,
        &part,
        RunnerOptions {
            policy: Policy::RebuildThenFallback,
            ..RunnerOptions::default()
        },
        STORE_CAPACITY,
    );
    let wal = Arc::new(Wal::in_memory(
        r.artifact().layout_fingerprint(),
        checkpoint_every,
    ));
    r.attach_wal(Arc::clone(&wal));
    // Two clean installs; then a loader with a corrupted write (its
    // install is suppressed — see `tampered_installs_are_never_logged`),
    // detected on the next request -> one invalidate + one clean
    // reinstall.
    r.run(&ex.arg_sets[0]).unwrap();
    r.run(&ex.arg_sets[2]).unwrap();
    r.inject(Fault::CorruptSlot, 3).unwrap();
    r.run(&alt).unwrap();
    r.run(&alt).unwrap();
    let log = wal.log_text().unwrap();
    let checkpoint = wal.checkpoint_text().unwrap();
    let pristine = scan_log(&log, &spec.layout).records;
    Fixture {
        spec,
        part,
        arg_sets: ex.arg_sets,
        log,
        checkpoint,
        pristine,
    }
}

impl Fixture {
    /// Recovers from `(checkpoint, log)` and serves every argument set on
    /// a fresh runner, asserting each answer bit-identical to the
    /// reference oracle. This is the "never a wrong answer" half of the
    /// invariant; the caller asserts the "valid prefix" half.
    fn assert_recovery_serves(&self, checkpoint: Option<&str>, log: &str, ctx: &str) {
        let (rec, _ckpt_err) = recover_or_degrade(checkpoint, log, &self.spec.layout);
        let mut r = solo_session(
            &self.spec,
            &self.part,
            RunnerOptions::default(),
            STORE_CAPACITY,
        );
        r.adopt_recovery(&rec);
        for (i, args) in self.arg_sets.iter().enumerate() {
            let want = r
                .reference(args)
                .unwrap_or_else(|e| panic!("{ctx}: reference {i}: {e}"))
                .value;
            let got = r
                .run(args)
                .unwrap_or_else(|e| panic!("{ctx}: request {i} failed after recovery: {e}"))
                .value;
            match (&got, &want) {
                (Some(got), Some(want)) => assert!(
                    got.bits_eq(want),
                    "{ctx}: WRONG ANSWER after recovery: {got} vs {want}"
                ),
                _ => assert_eq!(got, want, "{ctx}: value presence diverged"),
            }
        }
    }
}

/// Flipping any single byte of the log yields a scan that is a strict
/// prefix of the pristine history (the damaged record and everything
/// after it are discarded; the reader never resyncs), recovery succeeds,
/// and every answer served from it matches the reference.
#[test]
fn byte_flip_at_every_offset_recovers_a_valid_prefix() {
    let fx = fixture(None);
    assert!(fx.pristine.len() >= 3, "fixture log too small to be useful");
    assert!(
        fx.pristine
            .iter()
            .any(|r| matches!(r.op, WalOp::Invalidate { .. })),
        "fixture must exercise an invalidate record"
    );
    let bytes = fx.log.as_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[i] ^= 1; // stays ASCII: still a valid String
        let mutated = String::from_utf8(mutated).unwrap();
        let scan = scan_log(&mutated, &fx.spec.layout);
        assert!(
            fx.pristine.starts_with(&scan.records),
            "flip at {i}: scan is not a prefix of the pristine history"
        );
        assert!(
            scan.records.len() < fx.pristine.len(),
            "flip at {i}: a damaged log scanned back the full history"
        );
        recover(None, &mutated, &fx.spec.layout)
            .unwrap_or_else(|e| panic!("flip at {i}: recovery refused a valid prefix: {e}"));
        fx.assert_recovery_serves(None, &mutated, &format!("flip at {i}"));
    }
}

/// Truncating the log at every length yields a prefix scan (with the cut
/// record reported as a torn tail), and recovery from any cut serves
/// only correct answers. The full-length cut recovers the entire history.
#[test]
fn truncation_at_every_length_recovers_a_valid_prefix() {
    let fx = fixture(None);
    for cut in 0..=fx.log.len() {
        let slice = &fx.log[..cut];
        let scan = scan_log(slice, &fx.spec.layout);
        assert!(
            fx.pristine.starts_with(&scan.records),
            "cut at {cut}: scan is not a prefix of the pristine history"
        );
        if cut == fx.log.len() {
            assert_eq!(scan.records, fx.pristine, "full log must scan back whole");
            assert!(!scan.torn, "pristine log reported a torn tail");
        }
        let rec = recover(None, slice, &fx.spec.layout)
            .unwrap_or_else(|e| panic!("cut at {cut}: recovery refused a valid prefix: {e}"));
        assert_eq!(
            rec.damaged_tail, scan.torn,
            "cut at {cut}: torn-tail report diverged"
        );
        fx.assert_recovery_serves(None, slice, &format!("cut at {cut}"));
    }
}

/// LSN discipline: records must be strictly increasing from 1. A
/// duplicate, a step backwards, or a zero LSN ends the scan at the last
/// good record; a gap is legal (records covered by a checkpoint are
/// truncated away, leaving gaps behind).
#[test]
fn duplicate_and_reordered_lsns_terminate_the_scan() {
    let fx = fixture(None);
    let fp = fx.spec.layout.fingerprint();
    let rec =
        |lsn: u64, inputs: u64| encode_record(lsn, fp, &WalOp::Invalidate { inputs_fp: inputs });

    // Duplicate: the second lsn=1 is damage, not history.
    let dup = format!("{}{}", rec(1, 10), rec(1, 11));
    let scan = scan_log(&dup, &fx.spec.layout);
    assert_eq!(scan.records.len(), 1, "duplicate LSN must end the scan");
    assert_eq!(scan.records[0].lsn, 1);

    // Reordered: 2 then 1 keeps only the first record.
    let reordered = format!("{}{}", rec(2, 10), rec(1, 11));
    let scan = scan_log(&reordered, &fx.spec.layout);
    assert_eq!(scan.records.len(), 1, "backwards LSN must end the scan");
    assert_eq!(scan.records[0].lsn, 2);

    // A mid-sequence regression cuts everything from the bad record on.
    let sag = format!("{}{}{}{}", rec(1, 10), rec(3, 11), rec(2, 12), rec(9, 13));
    let scan = scan_log(&sag, &fx.spec.layout);
    assert_eq!(scan.records.len(), 2, "regression must cut the tail");

    // LSN zero is reserved ("covers nothing"): never a valid record.
    let zero = rec(0, 10);
    let scan = scan_log(&zero, &fx.spec.layout);
    assert!(scan.records.is_empty(), "lsn 0 must be rejected");

    // Gaps are legal: checkpoint truncation leaves them behind.
    let gapped = format!("{}{}{}", rec(1, 10), rec(5, 11), rec(40, 12));
    let scan = scan_log(&gapped, &fx.spec.layout);
    assert_eq!(
        scan.records.len(),
        3,
        "gapped but increasing LSNs are valid"
    );
    assert!(!scan.torn);
}

/// With periodic checkpointing on, damage to the *checkpoint* at every
/// single byte either leaves it readable and semantically intact or
/// degrades recovery to log-only replay — and either way every served
/// answer still matches the reference. A WAL-born checkpoint chains a
/// cover LSN; replaying the post-checkpoint log on top is idempotent.
#[test]
fn damaged_checkpoints_degrade_without_wrong_answers() {
    let fx = fixture(Some(2));
    let ckpt = fx
        .checkpoint
        .clone()
        .expect("checkpoint_every=2 must have checkpointed");

    // The pristine pair recovers with the checkpoint accepted.
    let (rec, err) = recover_or_degrade(Some(&ckpt), &fx.log, &fx.spec.layout);
    assert!(err.is_none(), "pristine checkpoint rejected: {err:?}");
    assert!(
        !rec.entries.is_empty(),
        "checkpointed history recovered nothing"
    );
    fx.assert_recovery_serves(Some(&ckpt), &fx.log, "pristine checkpoint");

    // Every single-byte flip of the checkpoint.
    let bytes = ckpt.as_bytes();
    for i in 0..bytes.len() {
        let mut mutated = bytes.to_vec();
        mutated[i] ^= 1;
        let mutated = String::from_utf8(mutated).unwrap();
        fx.assert_recovery_serves(Some(&mutated), &fx.log, &format!("ckpt flip at {i}"));
    }
    // Every truncation of the checkpoint.
    for cut in 0..ckpt.len() {
        fx.assert_recovery_serves(Some(&ckpt[..cut]), &fx.log, &format!("ckpt cut at {cut}"));
    }
}

/// A loader whose cache the tamper shadow disproves must never reach the
/// log or a checkpoint: the wire format carries observed values only, so
/// persisting it would re-seal the corruption as truth and a post-crash
/// recovery would serve it with a passing seal. The suppressed install
/// surfaces only as the later invalidate + clean reinstall pair — and
/// every prefix of that history serves only correct answers.
#[test]
fn tampered_installs_are_never_logged() {
    let fx = fixture(None);
    // History: install, install, (suppressed), invalidate, reinstall.
    let ops: Vec<&str> = fx
        .pristine
        .iter()
        .map(|r| match r.op {
            WalOp::Install { .. } => "install",
            WalOp::Invalidate { .. } => "invalidate",
        })
        .collect();
    assert_eq!(
        ops,
        ["install", "install", "invalidate", "install"],
        "the corrupted loader's install must be suppressed, not logged"
    );
    // The suppressed append leaves an LSN gap of exactly zero — the
    // sequence stays dense because the append never happened at all.
    let lsns: Vec<u64> = fx.pristine.iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, [1, 2, 3, 4], "suppression must not burn an LSN");
    // Every prefix of the log (including one ending right where the
    // corrupted install would have been) serves only reference answers;
    // record boundaries are '\n'-terminated, so split on them.
    let mut cut = 0;
    for line in fx.log.split_inclusive('\n') {
        cut += line.len();
        fx.assert_recovery_serves(None, &fx.log[..cut], &format!("prefix of {cut} bytes"));
    }
}

/// Crash between checkpoint install and log truncation: the log still
/// holds records the checkpoint already covers. Replay must skip them
/// (install is idempotent), recovering exactly the checkpoint state plus
/// the genuinely newer records.
#[test]
fn replay_skips_records_covered_by_the_checkpoint() {
    let fx = fixture(Some(2));
    let ckpt = fx.checkpoint.clone().expect("checkpoint exists");
    // Simulate the un-truncated log: everything ever appended. Records
    // with lsn <= the checkpoint's cover must be skipped, not re-applied.
    let full_fx = fixture(None);
    let rec = recover(Some(&ckpt), &full_fx.log, &fx.spec.layout).expect("recovery");
    assert!(
        rec.skipped > 0,
        "the stale log prefix must be skipped, not replayed"
    );
    full_fx.assert_recovery_serves(Some(&ckpt), &full_fx.log, "covered replay");
}
