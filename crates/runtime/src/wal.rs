//! The write-ahead log: durable sealed-cache installs with crash safety.
//!
//! A serving process that dies between two checkpoints used to lose every
//! sealed cache built since the last [`cachefile`](crate::cachefile)
//! bundle was written. The WAL closes that window: every store-visible
//! operation — a sealed-cache **install** or a damaged-entry
//! **invalidate** — is appended to the log *before* the request is
//! acknowledged, and recovery on the next open replays the valid prefix
//! into the [`CacheStore`](crate::CacheStore).
//!
//! ## Record format
//!
//! The log is line-oriented ASCII, one record per line:
//!
//! ```text
//! wal2 lsn=12 op=install layout=0x... fp=0x... slots=f:0x...,_,i:0x... crc=0x...
//! wal2 lsn=13 op=invalidate layout=0x... fp=0x... crc=0x...
//! ```
//!
//! * `lsn` — the log sequence number, strictly increasing from 1; a
//!   duplicate or out-of-order LSN ends the valid prefix.
//! * `layout` — the specialization-layout fingerprint, so a log can never
//!   be replayed against a different specialization.
//! * `slots` — each cache slot as `<type letter>:<hex bit pattern>` (`i`,
//!   `f`, `b`), or `_` for an unfilled slot; bit patterns keep `i64`
//!   precision and `NaN`/`-0.0` distinctions exactly like the cache-file
//!   format.
//! * `crc` — a [`Hash64`] checksum over every byte of the record before
//!   the ` crc=` marker; any flipped byte is detected.
//!
//! The `wal2` tag marks records checksummed, and keyed by fingerprints
//! hashed, with [`Hash64`]. A `wal1` record (the FNV-1a format) fails the
//! tag check, so a `wal1` log recovers as the empty prefix with a damaged
//! tail: its keys could never be hit by a request of this build.
//!
//! A record is valid only if its **entire line** (terminated by `\n`)
//! parses, its checksum matches, its layout fingerprint matches, and its
//! LSN extends the strictly increasing sequence. [`scan_log`] stops at the
//! first violation and never resynchronizes — the surviving records are
//! always an exact *prefix* of what was appended, so a crash at any byte
//! yields a shorter valid history, never a different one.
//!
//! ## Checkpoints
//!
//! Every `checkpoint_every` appends the [`Wal`] compacts the log: it
//! snapshots the store into the existing cache-store bundle format
//! (tagged with the covered LSN via
//! [`save_store_at`](crate::cachefile::save_store_at)), installs the
//! bundle atomically (write-temp-then-rename for file storage), and only
//! then truncates the log. A crash between install and truncate is
//! harmless: recovery skips replaying records at or below the
//! checkpoint's `wal_lsn`.
//!
//! ## Group commit
//!
//! By default every append is flushed to storage individually — one
//! storage write per install, the classic durability tax (~10–100x at
//! churn=1, where every request logs a record). [`Wal::set_group_commit`]
//! widens the flush window: encoded records accumulate in an in-memory
//! buffer and reach storage as **one** buffered write per window (or
//! sooner, at the next checkpoint or explicit [`Wal::flush`]). The
//! trade is explicit and standard: a crash can lose up to `window - 1`
//! buffered records — always a suffix, so recovery still yields a strict
//! prefix of the acknowledged history — in exchange for amortizing the
//! storage write and the periodic checkpoint across the whole batch.
//! Periodic checkpoints count flushed *batches*, so `checkpoint_every = C`
//! with window `W` compacts every `C·W` records.

use crate::cachefile;
use crate::error::{IntegrityError, WalError};
use crate::fault::Fault;
use crate::store::CacheStore;
use ds_core::CacheLayout;
use ds_interp::{value_bits, CacheBuf};
use ds_telemetry::Hash64;
use std::sync::Mutex;

/// The record-format version tag opening every log line.
pub const WAL_MAGIC: &str = "wal2";

/// A log sequence number. LSNs start at 1; 0 means "nothing logged yet"
/// (and is the chaining value of a checkpoint that covers no records).
pub type Lsn = u64;

/// One logged store operation.
#[derive(Debug, Clone)]
pub enum WalOp {
    /// A sealed cache was installed into the store for this fingerprint.
    Install {
        /// The invariant-input fingerprint the cache belongs to.
        inputs_fp: u64,
        /// The sealed cache content.
        cache: CacheBuf,
    },
    /// The entry for this fingerprint was invalidated (failed validation)
    /// and must not be re-served after recovery.
    Invalidate {
        /// The invalidated invariant-input fingerprint.
        inputs_fp: u64,
    },
}

/// Bit-exact equality: the log records slot *bit patterns*, not numbers,
/// so two installs are equal when their caches hash identically — a NaN
/// slot equals itself, unlike under `f64` equality. (The derived
/// `PartialEq` would make any record with a NaN slot unequal to its own
/// round-trip, breaking prefix checks over scanned histories.)
impl PartialEq for WalOp {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (
                WalOp::Install {
                    inputs_fp: a,
                    cache: ca,
                },
                WalOp::Install {
                    inputs_fp: b,
                    cache: cb,
                },
            ) => a == b && ca.content_hash() == cb.content_hash(),
            (WalOp::Invalidate { inputs_fp: a }, WalOp::Invalidate { inputs_fp: b }) => a == b,
            _ => false,
        }
    }
}

impl Eq for WalOp {}

/// One decoded log record: an operation with its sequence number.
/// Equality is bit-exact (see [`WalOp`]'s `PartialEq`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The logged operation.
    pub op: WalOp,
}

fn type_letter(ty: ds_lang::Type) -> &'static str {
    match ty {
        ds_lang::Type::Int => "i",
        ds_lang::Type::Float => "f",
        ds_lang::Type::Bool => "b",
        ds_lang::Type::Void => "v", // unreachable for cache slots; rejected on decode
        ds_lang::Type::Array(..) => "a", // likewise: slots are scalar-only
    }
}

fn letter_type(s: &str, slot: usize) -> Result<ds_lang::Type, IntegrityError> {
    match s {
        "i" => Ok(ds_lang::Type::Int),
        "f" => Ok(ds_lang::Type::Float),
        "b" => Ok(ds_lang::Type::Bool),
        other => Err(IntegrityError::Malformed {
            detail: format!("slot {slot}: unknown type letter `{other}`"),
        }),
    }
}

/// Encodes one record as a single `\n`-terminated log line.
pub fn encode_record(lsn: Lsn, layout_fp: u64, op: &WalOp) -> String {
    let body = match op {
        WalOp::Install { inputs_fp, cache } => {
            let slots: Vec<String> = (0..cache.len())
                .map(|i| match cache.get(i) {
                    None => "_".to_string(),
                    Some(v) => {
                        let (_, bits) = value_bits(&v);
                        format!("{}:{}", type_letter(v.ty()), cachefile::hex(bits))
                    }
                })
                .collect();
            format!(
                "{WAL_MAGIC} lsn={lsn} op=install layout={} fp={} slots={}",
                cachefile::hex(layout_fp),
                cachefile::hex(*inputs_fp),
                slots.join(",")
            )
        }
        WalOp::Invalidate { inputs_fp } => format!(
            "{WAL_MAGIC} lsn={lsn} op=invalidate layout={} fp={}",
            cachefile::hex(layout_fp),
            cachefile::hex(*inputs_fp),
        ),
    };
    let crc = Hash64::new().str(&body).finish();
    format!("{body} crc={}\n", cachefile::hex(crc))
}

fn record_field<'l>(line: &'l str, key: &str) -> Result<&'l str, IntegrityError> {
    line.split(' ')
        .find_map(|tok| tok.strip_prefix(key).and_then(|t| t.strip_prefix('=')))
        .ok_or_else(|| IntegrityError::Malformed {
            detail: format!("record has no `{key}` field"),
        })
}

/// Decodes and fully validates one log line (without its trailing `\n`)
/// against `layout`: checksum → layout fingerprint → slot shape and types,
/// the same order and strictness as a cache-file entry.
///
/// # Errors
///
/// A typed [`IntegrityError`] for the first violation; [`scan_log`] turns
/// any error into the end of the valid prefix.
pub fn decode_record(line: &str, layout: &CacheLayout) -> Result<WalRecord, IntegrityError> {
    let Some((body, crc_text)) = line.rsplit_once(" crc=") else {
        return Err(IntegrityError::Malformed {
            detail: "record has no checksum".to_string(),
        });
    };
    if !body.starts_with(WAL_MAGIC) {
        return Err(IntegrityError::Malformed {
            detail: format!("record does not start with `{WAL_MAGIC}`"),
        });
    }
    let stored = cachefile::parse_hex(crc_text, "crc")?;
    let found = Hash64::new().str(body).finish();
    if stored != found {
        return Err(IntegrityError::ChecksumMismatch {
            expected: stored,
            found,
        });
    }
    let lsn: Lsn = record_field(body, "lsn")?
        .parse()
        .map_err(|_| IntegrityError::Malformed {
            detail: "bad `lsn` field".to_string(),
        })?;
    if lsn == 0 {
        return Err(IntegrityError::Malformed {
            detail: "lsn 0 is reserved".to_string(),
        });
    }
    let layout_fp = cachefile::parse_hex(record_field(body, "layout")?, "layout")?;
    if layout_fp != layout.fingerprint() {
        return Err(IntegrityError::LayoutMismatch {
            detail: format!(
                "record fingerprint {:#018x}, current layout {:#018x}",
                layout_fp,
                layout.fingerprint()
            ),
        });
    }
    let inputs_fp = cachefile::parse_hex(record_field(body, "fp")?, "fp")?;
    let op = match record_field(body, "op")? {
        "invalidate" => WalOp::Invalidate { inputs_fp },
        "install" => {
            let slots: Vec<&str> = record_field(body, "slots")?.split(',').collect();
            if slots.len() != layout.slot_count() {
                return Err(IntegrityError::LayoutMismatch {
                    detail: format!(
                        "record has {} slot(s), layout declares {}",
                        slots.len(),
                        layout.slot_count()
                    ),
                });
            }
            let mut cache = CacheBuf::new(slots.len());
            for (i, spec) in slots.iter().enumerate() {
                if *spec == "_" {
                    continue;
                }
                let Some((letter, bits_text)) = spec.split_once(':') else {
                    return Err(IntegrityError::Malformed {
                        detail: format!("slot {i}: bad slot spec `{spec}`"),
                    });
                };
                let ty = letter_type(letter, i)?;
                let declared = layout.slots()[i].ty;
                if ty != declared {
                    return Err(IntegrityError::SlotTypeDrift {
                        slot: i,
                        expected: declared,
                        found: ty,
                    });
                }
                let bits = cachefile::parse_hex(bits_text, "slot bits")?;
                let v = cachefile::decode_value(ty, bits, i)?;
                cache.try_set(i, v).map_err(|e| IntegrityError::Malformed {
                    detail: format!("slot {i}: {e}"),
                })?;
            }
            WalOp::Install { inputs_fp, cache }
        }
        other => {
            return Err(IntegrityError::Malformed {
                detail: format!("unknown op `{other}`"),
            })
        }
    };
    Ok(WalRecord { lsn, op })
}

/// The result of scanning a log: the longest valid record prefix.
#[derive(Debug, Clone, PartialEq)]
pub struct LogScan {
    /// Every record of the valid prefix, in log order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (`text[..valid_bytes]` is exactly
    /// the surviving records; an open should truncate the log here so new
    /// appends extend the valid history).
    pub valid_bytes: usize,
    /// Whether anything after the valid prefix was discarded (a torn tail,
    /// a corrupt record, or an LSN-order violation).
    pub torn: bool,
}

/// Scans a log text, stopping at the first invalid record. Never fails:
/// damage only shortens the returned prefix. A line not terminated by
/// `\n` is treated as torn (an append died mid-record), and the scan
/// never resynchronizes past a bad record — replaying records *after*
/// damage would not be a prefix of the logged history.
pub fn scan_log(text: &str, layout: &CacheLayout) -> LogScan {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut valid_bytes = 0usize;
    let mut rest = text;
    loop {
        let Some((line, tail)) = rest.split_once('\n') else {
            // No newline: either a clean end or a torn final record.
            return LogScan {
                records,
                valid_bytes,
                torn: !rest.is_empty(),
            };
        };
        match decode_record(line, layout) {
            Ok(rec) if records.last().is_none_or(|prev| rec.lsn > prev.lsn) => {
                valid_bytes += line.len() + 1;
                records.push(rec);
                rest = tail;
            }
            // A decode failure or a non-increasing LSN ends the prefix.
            _ => {
                return LogScan {
                    records,
                    valid_bytes,
                    torn: true,
                }
            }
        }
    }
}

/// Replays scanned records over a base state (fingerprint → cache),
/// skipping records at or below `after_lsn` (already compacted into the
/// checkpoint the base came from). Returns how many records were applied.
pub fn replay(
    base: &mut Vec<(u64, CacheBuf)>,
    records: &[WalRecord],
    after_lsn: Lsn,
) -> (u64, u64) {
    let mut applied = 0u64;
    let mut skipped = 0u64;
    for rec in records {
        if rec.lsn <= after_lsn {
            skipped += 1;
            continue;
        }
        applied += 1;
        match &rec.op {
            WalOp::Install { inputs_fp, cache } => {
                match base.iter_mut().find(|(fp, _)| fp == inputs_fp) {
                    Some((_, existing)) => *existing = cache.clone(),
                    None => base.push((*inputs_fp, cache.clone())),
                }
            }
            WalOp::Invalidate { inputs_fp } => base.retain(|(fp, _)| fp != inputs_fp),
        }
    }
    base.sort_by_key(|(fp, _)| *fp);
    (applied, skipped)
}

// ---------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------

/// Durable storage behind a [`Wal`]: an append-only log plus an
/// atomically replaceable checkpoint document.
pub trait WalStorage: Send + std::fmt::Debug {
    /// Appends raw bytes to the log (the caller has already applied any
    /// torn-write prefix cut).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the underlying storage fails.
    fn append(&mut self, bytes: &str) -> Result<(), WalError>;

    /// The entire log content.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the underlying storage fails.
    fn log_text(&self) -> Result<String, WalError>;

    /// Replaces the whole log content (used to drop a torn tail on open
    /// and to truncate after a checkpoint).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the underlying storage fails.
    fn reset_log(&mut self, text: &str) -> Result<(), WalError>;

    /// Atomically replaces the checkpoint document (all-or-nothing: a
    /// crash mid-install must leave the previous checkpoint intact).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the underlying storage fails.
    fn install_checkpoint(&mut self, text: &str) -> Result<(), WalError>;

    /// The current checkpoint document, if one was ever installed.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when the underlying storage fails.
    fn checkpoint_text(&self) -> Result<Option<String>, WalError>;
}

/// In-memory storage: tests, the fuzzer's recovery oracle, and overhead
/// benchmarks model crashes by cutting the returned texts at arbitrary
/// byte offsets.
#[derive(Debug, Default)]
pub struct MemWalStorage {
    log: String,
    checkpoint: Option<String>,
}

impl MemWalStorage {
    /// Creates empty in-memory storage.
    pub fn new() -> Self {
        MemWalStorage::default()
    }

    /// Creates storage pre-seeded with an existing log and checkpoint, as
    /// if reopening after a crash.
    pub fn with_state(log: String, checkpoint: Option<String>) -> Self {
        MemWalStorage { log, checkpoint }
    }
}

impl WalStorage for MemWalStorage {
    fn append(&mut self, bytes: &str) -> Result<(), WalError> {
        self.log.push_str(bytes);
        Ok(())
    }

    fn log_text(&self) -> Result<String, WalError> {
        Ok(self.log.clone())
    }

    fn reset_log(&mut self, text: &str) -> Result<(), WalError> {
        self.log = text.to_string();
        Ok(())
    }

    fn install_checkpoint(&mut self, text: &str) -> Result<(), WalError> {
        self.checkpoint = Some(text.to_string());
        Ok(())
    }

    fn checkpoint_text(&self) -> Result<Option<String>, WalError> {
        Ok(self.checkpoint.clone())
    }
}

/// File-backed storage: the log at one path, the checkpoint at another,
/// installed via write-temp-then-rename so a crash mid-checkpoint leaves
/// the previous one intact.
#[derive(Debug)]
pub struct FileWalStorage {
    log_path: std::path::PathBuf,
    checkpoint_path: std::path::PathBuf,
}

fn io_err(what: &str, path: &std::path::Path, e: &std::io::Error) -> WalError {
    WalError::Io {
        detail: format!("{what} `{}`: {e}", path.display()),
    }
}

impl FileWalStorage {
    /// Creates storage over a log path and a checkpoint path (neither
    /// need exist yet).
    pub fn new(
        log_path: impl Into<std::path::PathBuf>,
        checkpoint_path: impl Into<std::path::PathBuf>,
    ) -> Self {
        FileWalStorage {
            log_path: log_path.into(),
            checkpoint_path: checkpoint_path.into(),
        }
    }
}

impl WalStorage for FileWalStorage {
    fn append(&mut self, bytes: &str) -> Result<(), WalError> {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.log_path)
            .map_err(|e| io_err("cannot open", &self.log_path, &e))?;
        f.write_all(bytes.as_bytes())
            .map_err(|e| io_err("cannot append to", &self.log_path, &e))
    }

    fn log_text(&self) -> Result<String, WalError> {
        match std::fs::read_to_string(&self.log_path) {
            Ok(text) => Ok(text),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(String::new()),
            Err(e) => Err(io_err("cannot read", &self.log_path, &e)),
        }
    }

    fn reset_log(&mut self, text: &str) -> Result<(), WalError> {
        std::fs::write(&self.log_path, text).map_err(|e| io_err("cannot write", &self.log_path, &e))
    }

    fn install_checkpoint(&mut self, text: &str) -> Result<(), WalError> {
        let tmp = self.checkpoint_path.with_extension("tmp");
        std::fs::write(&tmp, text).map_err(|e| io_err("cannot write", &tmp, &e))?;
        std::fs::rename(&tmp, &self.checkpoint_path)
            .map_err(|e| io_err("cannot install", &self.checkpoint_path, &e))
    }

    fn checkpoint_text(&self) -> Result<Option<String>, WalError> {
        match std::fs::read_to_string(&self.checkpoint_path) {
            Ok(text) => Ok(Some(text)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("cannot read", &self.checkpoint_path, &e)),
        }
    }
}

// ---------------------------------------------------------------------
// The log handle
// ---------------------------------------------------------------------

#[derive(Debug)]
struct WalInner {
    storage: Box<dyn WalStorage>,
    next_lsn: Lsn,
    checkpoint_every: Option<u64>,
    appends_since_checkpoint: u64,
    fault: Option<Fault>,
    bytes_written: u64,
    crashed: bool,
    /// Records per group-commit flush batch; 1 = flush every append.
    group_window: u64,
    /// Encoded records buffered since the last flush.
    pending: String,
    pending_records: u64,
}

/// Flushes the group-commit buffer as one storage write. A one-shot
/// [`Fault::SlowIo`] delays the write while the log lock is held.
/// `appends_since_checkpoint` counts flushed *batches*, so the periodic
/// checkpoint cadence scales with the window.
fn flush_inner(g: &mut WalInner) -> Result<(), WalError> {
    if g.pending.is_empty() {
        g.pending_records = 0;
        return Ok(());
    }
    if let Some(Fault::SlowIo(ms)) = g.fault {
        g.fault = None;
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }
    let batch = std::mem::take(&mut g.pending);
    g.storage.append(&batch)?;
    g.bytes_written += batch.len() as u64;
    g.pending_records = 0;
    g.appends_since_checkpoint += 1;
    Ok(())
}

/// A shared write-ahead log handle. Sessions append through an `Arc`; one
/// internal mutex serializes appends, so LSNs are totally ordered across
/// workers. Checkpointing holds the same lock while it snapshots the
/// store, so a checkpoint's `wal_lsn` can never claim records it did not
/// see.
#[derive(Debug)]
pub struct Wal {
    inner: Mutex<WalInner>,
    layout_fp: u64,
}

impl Wal {
    /// Opens a log over `storage`. `next_lsn` continues a recovered
    /// sequence (pass [`Recovery::next_lsn`](crate::recovery::Recovery)
    /// after recovery, or 1 for a fresh log); `checkpoint_every` enables
    /// periodic compaction after that many appends (`None` = never).
    pub fn open(
        storage: Box<dyn WalStorage>,
        layout_fp: u64,
        next_lsn: Lsn,
        checkpoint_every: Option<u64>,
    ) -> Wal {
        Wal {
            inner: Mutex::new(WalInner {
                storage,
                next_lsn: next_lsn.max(1),
                checkpoint_every: checkpoint_every.filter(|n| *n > 0),
                appends_since_checkpoint: 0,
                fault: None,
                bytes_written: 0,
                crashed: false,
                group_window: 1,
                pending: String::new(),
                pending_records: 0,
            }),
            layout_fp,
        }
    }

    /// Enables group commit: appends are buffered and reach storage as one
    /// write per `window` records (clamped to at least 1 = flush every
    /// append, the default). A crash loses at most the buffered suffix —
    /// recovery still replays a strict prefix of the acknowledged history.
    pub fn set_group_commit(&self, window: u64) {
        self.lock().group_window = window.max(1);
    }

    /// Records buffered by group commit but not yet flushed to storage.
    pub fn pending_appends(&self) -> u64 {
        self.lock().pending_records
    }

    /// A fresh in-memory log (tests, oracles, benchmarks).
    pub fn in_memory(layout_fp: u64, checkpoint_every: Option<u64>) -> Wal {
        Wal::open(
            Box::new(MemWalStorage::new()),
            layout_fp,
            1,
            checkpoint_every,
        )
    }

    /// The layout fingerprint every record is tagged with.
    pub fn layout_fingerprint(&self) -> u64 {
        self.layout_fp
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        // Appends and checkpoints mutate storage before releasing the
        // guard only through `&mut` calls that leave it consistent; a
        // panicking thread cannot tear a record because encoding happens
        // before any storage call.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Arms a one-shot WAL fault ([`Fault::TornWrite`],
    /// [`Fault::CrashAtByte`], or [`Fault::SlowIo`] — the latter delays the
    /// next flush while the log lock is held, serializing every concurrent
    /// appender behind one slow write).
    ///
    /// # Errors
    ///
    /// Any other fault class does not apply to the log.
    pub fn arm(&self, fault: Fault) -> Result<(), String> {
        if !fault.is_wal_fault() && !matches!(fault, Fault::SlowIo(_)) {
            return Err(format!(
                "fault `{fault}` does not apply to the write-ahead log"
            ));
        }
        self.lock().fault = Some(fault);
        Ok(())
    }

    /// Whether an armed crash fault has fired; once crashed, every append
    /// and checkpoint fails.
    pub fn is_crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Appends one operation, returning its LSN. An armed torn-write
    /// fault silently persists only a prefix of the record (the caller
    /// still sees success — exactly the failure recovery must catch); an
    /// armed crash fault cuts the stream at its byte offset and returns
    /// [`WalError::Crashed`].
    ///
    /// # Errors
    ///
    /// [`WalError::Crashed`] after a crash fault, [`WalError::Io`] when
    /// storage fails.
    pub fn append(&self, op: &WalOp) -> Result<Lsn, WalError> {
        let mut g = self.lock();
        if g.crashed {
            return Err(WalError::Crashed {
                at_byte: g.bytes_written,
            });
        }
        let lsn = g.next_lsn;
        let line = encode_record(lsn, self.layout_fp, op);
        // Fault offsets are positions in the *logical* byte stream, which
        // group commit may be holding partly in the pending buffer.
        let stream_pos = g.bytes_written + g.pending.len() as u64;
        let mut cut = line.len();
        let mut crash = false;
        match g.fault {
            Some(Fault::TornWrite(n)) => {
                // Always genuinely torn: at least the trailing newline is
                // lost, so recovery sees an unterminated record.
                cut = (n as usize).min(line.len().saturating_sub(1));
                g.fault = None;
            }
            Some(Fault::CrashAtByte(n)) if stream_pos + line.len() as u64 > n => {
                cut = n.saturating_sub(stream_pos) as usize;
                crash = true;
                g.fault = None;
            }
            _ => {}
        }
        g.pending.push_str(&line[..cut]);
        g.pending_records += 1;
        if crash {
            // Persist exactly the bytes that made it out before death.
            flush_inner(&mut g)?;
            g.crashed = true;
            return Err(WalError::Crashed {
                at_byte: g.bytes_written,
            });
        }
        if cut < line.len() || g.pending_records >= g.group_window {
            // A torn write is flushed immediately (the lost-sector model:
            // the short bytes are on the platter, the writer believes the
            // record durable); a full window flushes as one batch.
            flush_inner(&mut g)?;
        }
        g.next_lsn += 1;
        Ok(lsn)
    }

    /// Flushes any group-commit-buffered records to storage as one write.
    /// A no-op when nothing is buffered (or group commit is off, which
    /// flushes inside every append).
    ///
    /// # Errors
    ///
    /// [`WalError::Crashed`] after a crash fault, [`WalError::Io`] when
    /// storage fails.
    pub fn flush(&self) -> Result<(), WalError> {
        let mut g = self.lock();
        if g.crashed {
            return Err(WalError::Crashed {
                at_byte: g.bytes_written,
            });
        }
        flush_inner(&mut g)
    }

    /// Whether enough appends have accumulated for a periodic checkpoint.
    pub fn checkpoint_due(&self) -> bool {
        let g = self.lock();
        !g.crashed
            && g.checkpoint_every
                .is_some_and(|n| g.appends_since_checkpoint >= n)
    }

    /// Compacts the log into a checkpoint: snapshots `store`, writes it as
    /// a cache-store bundle chained at the current last LSN, installs it
    /// atomically, then truncates the log. The internal lock is held
    /// throughout, so no concurrent append can fall between the snapshot
    /// and the covered LSN.
    ///
    /// An armed torn-write fault models a torn temp file: the install is
    /// aborted (old checkpoint and log intact) and the call reports
    /// success, exactly like a lost-sector fsync. An armed crash fault
    /// whose offset falls inside the checkpoint bytes kills the writer
    /// with the old checkpoint intact.
    ///
    /// # Errors
    ///
    /// [`WalError::Crashed`] after a crash fault, [`WalError::Io`] when
    /// storage fails.
    pub fn checkpoint(&self, store: &CacheStore) -> Result<(), WalError> {
        let mut g = self.lock();
        if g.crashed {
            return Err(WalError::Crashed {
                at_byte: g.bytes_written,
            });
        }
        // Buffered records are covered by this checkpoint's LSN; flush
        // them first so resetting the log afterwards cannot strand them.
        flush_inner(&mut g)?;
        let cover = g.next_lsn - 1;
        // Entries the tamper shadow disproves are skipped for the same
        // reason `Session` never logs them: the bundle carries observed
        // values only, so persisting one would re-seal corruption as truth.
        let entries: Vec<(u64, CacheBuf)> = store
            .snapshot()
            .into_iter()
            .filter(|(_, e)| e.cache.first_tampered_slot().is_none())
            .map(|(fp, e)| (fp, e.cache))
            .collect();
        let text = cachefile::save_store_at(&entries, self.layout_fp, cover);
        match g.fault {
            Some(Fault::TornWrite(_)) => {
                // Torn temp write: the rename never happens; the previous
                // checkpoint and the whole log survive untouched.
                g.fault = None;
                g.appends_since_checkpoint = 0;
                return Ok(());
            }
            Some(Fault::CrashAtByte(n)) if g.bytes_written + text.len() as u64 > n => {
                g.fault = None;
                g.crashed = true;
                g.bytes_written = n;
                return Err(WalError::Crashed { at_byte: n });
            }
            _ => {}
        }
        g.storage.install_checkpoint(&text)?;
        g.bytes_written += text.len() as u64;
        g.storage.reset_log("")?;
        g.appends_since_checkpoint = 0;
        Ok(())
    }

    /// The entire current log content (for tests, oracles, and recovery).
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when storage fails.
    pub fn log_text(&self) -> Result<String, WalError> {
        self.lock().storage.log_text()
    }

    /// The current checkpoint document, if any.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when storage fails.
    pub fn checkpoint_text(&self) -> Result<Option<String>, WalError> {
        self.lock().storage.checkpoint_text()
    }

    /// Replaces the log content — used on open to drop a torn tail so new
    /// appends extend the *valid* history rather than hiding behind
    /// garbage.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] when storage fails.
    pub fn reset_log(&self, text: &str) -> Result<(), WalError> {
        self.lock().storage.reset_log(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_interp::Value;
    use ds_lang::{TermId, Type};

    fn layout() -> CacheLayout {
        CacheLayout::new([
            (TermId(1), Type::Float, "a * b".to_string()),
            (TermId(2), Type::Int, "n + 1".to_string()),
            (TermId(3), Type::Bool, "p".to_string()),
        ])
    }

    fn cache(v: f64) -> CacheBuf {
        let mut c = CacheBuf::new(3);
        c.set(0, Value::Float(v));
        c.set(1, Value::Int(i64::MIN + 3));
        c.set(2, Value::Bool(true));
        c
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        let l = layout();
        let mut c = CacheBuf::new(3);
        c.set(0, Value::Float(-0.0));
        c.set(2, Value::Bool(false));
        let op = WalOp::Install {
            inputs_fp: 0xdead_beef,
            cache: c,
        };
        let line = encode_record(7, l.fingerprint(), &op);
        let rec = decode_record(line.trim_end(), &l).expect("decode");
        assert_eq!(rec.lsn, 7);
        let WalOp::Install { inputs_fp, cache } = &rec.op else {
            panic!("wrong op");
        };
        assert_eq!(*inputs_fp, 0xdead_beef);
        assert!(cache.get(0).unwrap().bits_eq(&Value::Float(-0.0)));
        assert_eq!(cache.get(1), None);
        assert_eq!(cache.get(2), Some(Value::Bool(false)));

        let inv = WalOp::Invalidate { inputs_fp: 42 };
        let line = encode_record(8, l.fingerprint(), &inv);
        assert_eq!(decode_record(line.trim_end(), &l).unwrap().op, inv);
    }

    #[test]
    fn appends_accumulate_and_scan_back() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        for (i, v) in [1.0, 2.0, 3.0].iter().enumerate() {
            let lsn = wal
                .append(&WalOp::Install {
                    inputs_fp: i as u64,
                    cache: cache(*v),
                })
                .expect("append");
            assert_eq!(lsn, i as u64 + 1);
        }
        wal.append(&WalOp::Invalidate { inputs_fp: 1 }).unwrap();
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.torn);
        let mut state = Vec::new();
        let (applied, skipped) = replay(&mut state, &scan.records, 0);
        assert_eq!((applied, skipped), (4, 0));
        let fps: Vec<u64> = state.iter().map(|(fp, _)| *fp).collect();
        assert_eq!(fps, vec![0, 2], "fp 1 was invalidated");
    }

    #[test]
    fn torn_write_loses_the_record_but_not_the_prefix() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        wal.append(&WalOp::Install {
            inputs_fp: 1,
            cache: cache(1.0),
        })
        .unwrap();
        wal.arm(Fault::TornWrite(10)).unwrap();
        // The torn append still reports success — the loss is silent.
        wal.append(&WalOp::Install {
            inputs_fp: 2,
            cache: cache(2.0),
        })
        .expect("believed durable");
        wal.append(&WalOp::Install {
            inputs_fp: 3,
            cache: cache(3.0),
        })
        .unwrap();
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        // Record 2 is torn; record 3 sits after garbage, so the valid
        // prefix is record 1 alone — shorter, never wrong.
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].lsn, 1);
        assert!(scan.torn);
    }

    #[test]
    fn crash_at_byte_kills_the_writer_permanently() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        wal.arm(Fault::CrashAtByte(30)).unwrap();
        let err = wal
            .append(&WalOp::Install {
                inputs_fp: 1,
                cache: cache(1.0),
            })
            .unwrap_err();
        assert_eq!(err, WalError::Crashed { at_byte: 30 });
        assert!(wal.is_crashed());
        assert!(matches!(
            wal.append(&WalOp::Invalidate { inputs_fp: 1 }),
            Err(WalError::Crashed { .. })
        ));
        assert_eq!(wal.log_text().unwrap().len(), 30);
    }

    #[test]
    fn checkpoint_compacts_the_log_and_chains_the_lsn() {
        let l = layout();
        let store = CacheStore::new(8);
        let wal = Wal::in_memory(l.fingerprint(), Some(2));
        for i in 0..2u64 {
            let c = cache(i as f64);
            let seal = c.content_hash();
            store.insert(
                i,
                crate::store::StoreEntry {
                    cache: c.clone(),
                    seal,
                },
            );
            wal.append(&WalOp::Install {
                inputs_fp: i,
                cache: c,
            })
            .unwrap();
        }
        assert!(wal.checkpoint_due());
        wal.checkpoint(&store).expect("checkpoint");
        assert!(!wal.checkpoint_due());
        assert_eq!(wal.log_text().unwrap(), "", "log truncated");
        let ckpt = wal.checkpoint_text().unwrap().expect("installed");
        let (entries, lsn) = cachefile::parse_store_with_lsn(&ckpt, &l).expect("valid bundle");
        assert_eq!(entries.len(), 2);
        assert_eq!(lsn, 2, "covers both records");
    }

    #[test]
    fn group_commit_batches_appends_into_one_flush() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        wal.set_group_commit(4);
        for i in 0..3u64 {
            wal.append(&WalOp::Install {
                inputs_fp: i,
                cache: cache(i as f64),
            })
            .unwrap();
        }
        // Three records buffered, nothing durable yet — the group-commit
        // durability window is a suffix of at most window-1 records.
        assert_eq!(wal.pending_appends(), 3);
        assert_eq!(wal.log_text().unwrap(), "");
        wal.append(&WalOp::Install {
            inputs_fp: 3,
            cache: cache(3.0),
        })
        .unwrap();
        // The fourth append fills the window: one flush, all four durable.
        assert_eq!(wal.pending_appends(), 0);
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        assert_eq!(scan.records.len(), 4);
        assert!(!scan.torn);
        // An explicit flush drains a partial window.
        wal.append(&WalOp::Invalidate { inputs_fp: 0 }).unwrap();
        assert_eq!(wal.pending_appends(), 1);
        wal.flush().unwrap();
        assert_eq!(wal.pending_appends(), 0);
        assert_eq!(scan_log(&wal.log_text().unwrap(), &l).records.len(), 5);
    }

    #[test]
    fn group_commit_checkpoint_flushes_first_and_counts_batches() {
        let l = layout();
        let store = CacheStore::new(8);
        // Window 2, checkpoint every 2 *batches* = every 4 records.
        let wal = Wal::in_memory(l.fingerprint(), Some(2));
        wal.set_group_commit(2);
        for i in 0..3u64 {
            let c = cache(i as f64);
            let seal = c.content_hash();
            store.insert(
                i,
                crate::store::StoreEntry {
                    cache: c.clone(),
                    seal,
                },
            );
            wal.append(&WalOp::Install {
                inputs_fp: i,
                cache: c,
            })
            .unwrap();
        }
        // One full batch flushed, one record still buffered: not due yet.
        assert!(!wal.checkpoint_due());
        assert_eq!(wal.pending_appends(), 1);
        // Checkpointing anyway flushes the partial batch first, so the
        // covered LSN really covers every acknowledged record.
        wal.checkpoint(&store).expect("checkpoint");
        assert_eq!(wal.pending_appends(), 0);
        assert_eq!(wal.log_text().unwrap(), "");
        let ckpt = wal.checkpoint_text().unwrap().expect("installed");
        let (entries, lsn) = cachefile::parse_store_with_lsn(&ckpt, &l).expect("valid bundle");
        assert_eq!(entries.len(), 3);
        assert_eq!(lsn, 3, "covers the buffered record too");
    }

    #[test]
    fn group_commit_crash_persists_the_flushed_prefix_only() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        wal.set_group_commit(8);
        wal.append(&WalOp::Install {
            inputs_fp: 1,
            cache: cache(1.0),
        })
        .unwrap();
        let one_record = wal.pending_appends();
        assert_eq!(one_record, 1);
        // Crash inside the second record: the flush carries record 1 whole
        // plus the cut prefix of record 2 — a torn tail, never resynced.
        let first_len = {
            let op = WalOp::Install {
                inputs_fp: 1,
                cache: cache(1.0),
            };
            encode_record(1, l.fingerprint(), &op).len() as u64
        };
        wal.arm(Fault::CrashAtByte(first_len + 20)).unwrap();
        let err = wal
            .append(&WalOp::Install {
                inputs_fp: 2,
                cache: cache(2.0),
            })
            .unwrap_err();
        assert!(matches!(err, WalError::Crashed { .. }));
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        assert_eq!(scan.records.len(), 1, "only the first record survives");
        assert!(scan.torn);
    }

    #[test]
    fn slow_io_delays_the_flush_without_changing_the_log() {
        let l = layout();
        let wal = Wal::in_memory(l.fingerprint(), None);
        wal.arm(Fault::SlowIo(5)).unwrap();
        let started = std::time::Instant::now();
        wal.append(&WalOp::Install {
            inputs_fp: 1,
            cache: cache(1.0),
        })
        .unwrap();
        assert!(started.elapsed() >= std::time::Duration::from_millis(5));
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        assert_eq!(scan.records.len(), 1);
        assert!(!scan.torn, "slow I/O is late, never wrong");
        // One-shot: the next append is fast and the log stays clean.
        wal.append(&WalOp::Invalidate { inputs_fp: 1 }).unwrap();
        assert_eq!(scan_log(&wal.log_text().unwrap(), &l).records.len(), 2);
    }

    #[test]
    fn torn_checkpoint_aborts_without_losing_the_log() {
        let l = layout();
        let store = CacheStore::new(8);
        let wal = Wal::in_memory(l.fingerprint(), Some(1));
        let c = cache(5.0);
        let seal = c.content_hash();
        store.insert(
            9,
            crate::store::StoreEntry {
                cache: c.clone(),
                seal,
            },
        );
        wal.append(&WalOp::Install {
            inputs_fp: 9,
            cache: c,
        })
        .unwrap();
        wal.arm(Fault::TornWrite(100)).unwrap();
        wal.checkpoint(&store)
            .expect("aborted install is not an error");
        assert_eq!(wal.checkpoint_text().unwrap(), None, "never installed");
        let scan = scan_log(&wal.log_text().unwrap(), &l);
        assert_eq!(scan.records.len(), 1, "log survives the aborted checkpoint");
    }
}
