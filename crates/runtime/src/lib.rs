//! # ds-runtime — the staged-execution runtime
//!
//! The paper's loader/reader protocol (§1, §3.2) silently assumes the
//! invariant inputs really are invariant and that the cache a reader
//! consumes was filled by a matching loader. This crate makes those
//! assumptions *checked*: a [`Session`] owns the full cache lifecycle for
//! repeated executions of one specialization —
//!
//! * **Staleness**: every request fingerprints the invariant-input vector
//!   ([`Session::inputs_fingerprint`]) and the specialization layout
//!   (`CacheLayout::fingerprint`); a mismatch transparently re-runs the
//!   loader, bounded by a configurable rebuild budget.
//! * **Integrity**: a freshly loaded cache is sealed with its content
//!   hash; warm requests re-validate the seal, the write-fault shadow and
//!   the structural shape before trusting the reader. Serialized caches
//!   ([`cachefile`] store bundles) are versioned and checksummed; truncation, slot-type
//!   drift and layout mismatch are rejected with typed [`IntegrityError`]s.
//! * **Degradation**: on any failure a [`Policy`] decides between
//!   re-loading, direct unspecialized evaluation, or a clean typed
//!   [`RuntimeError`] — with every rebuild, fallback and validation
//!   failure counted in the telemetry `Profile`.
//! * **Fault injection**: a seeded, deterministic [`FaultInjector`] and
//!   [`Fault`] taxonomy (corrupt a store, drop a store, truncate the
//!   buffer, exhaust fuel, damage a cache file, tear or crash a log
//!   append) drive the chaos suite, whose invariant is: under every
//!   injected fault, a session returns the reference answer or a typed
//!   error — never a silently wrong value.
//! * **Durability**: an optional write-ahead log ([`wal`]) records every
//!   sealed-cache install and invalidation before it is acknowledged;
//!   [`recovery`] rebuilds a crash-consistent store on reopen (scan,
//!   truncate at the first invalid record, replay over the latest
//!   checkpoint), so a crash at any byte yields a *prefix* of the logged
//!   history — never a wrong answer.
//! * **Parallel serving**: the immutable half of staged execution — staged
//!   program, compiled bytecode, layout, fixed-parameter indices — lives in
//!   a `Send + Sync` [`StagedArtifact`]; any number of [`Session`]s share it
//!   (and a polyvariant, LRU-bounded [`CacheStore`] holding one sealed
//!   cache per invariant fingerprint) through `Arc`s, each serving requests
//!   against its own private working buffer.
//! * **Serving**: the [`daemon`] module is the one worker pool — a bounded
//!   queue with typed load shedding, per-request deadlines, §4.3 cost-model
//!   admission, single-flight staging through per-fingerprint [`latch`]es,
//!   and graceful drain. `dsc serve` runs every request through it, whether
//!   the requests come from a file or stream in online.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ds_core::{specialize_source, InputPartition, SpecializeOptions};
//! use ds_interp::Value;
//! use ds_runtime::{CacheStore, RunnerOptions, Session, StagedArtifact};
//! use std::sync::Arc;
//!
//! let part = InputPartition::varying(["z1", "z2"]);
//! let spec = specialize_source(
//!     "float dotprod(float x1, float y1, float z1,
//!                    float x2, float y2, float z2, float scale) {
//!          if (scale != 0.0) { return (x1*x2 + y1*y2 + z1*z2) / scale; }
//!          else { return -1.0; }
//!      }",
//!     "dotprod",
//!     &part,
//!     &SpecializeOptions::new(),
//! )?;
//! let mut session = Session::new(
//!     Arc::new(StagedArtifact::new(&spec, &part)),
//!     Arc::new(CacheStore::new(16)),
//!     RunnerOptions::default(),
//! );
//! let args: Vec<Value> = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 2.0]
//!     .iter().map(|&x| Value::Float(x)).collect();
//! // First request: cold load (the loader computes the result itself)...
//! let first = session.run(&args)?;
//! // ...subsequent requests: validated cache + reader.
//! let again = session.run(&args)?;
//! assert_eq!(first.value, again.value);
//! assert!(again.cost < first.cost);
//! assert_eq!(session.stats().loads, 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod artifact;
pub mod cachefile;
pub mod daemon;
pub mod error;
pub mod fault;
pub mod latch;
pub mod recovery;
pub mod session;
pub mod store;
pub mod timing;
pub mod wal;

pub use artifact::StagedArtifact;
pub use cachefile::{
    parse_store, parse_store_with_lsn, save_store, save_store_at, LoadedCache, STORE_FORMAT,
    STORE_KIND,
};
pub use daemon::{
    breakeven_uses, Admission, BlockStats, Daemon, DaemonConfig, DaemonReport, DaemonResponse,
};
pub use error::{IntegrityError, RuntimeError, WalError};
pub use fault::{Fault, FaultInjector};
pub use latch::{ExclusiveLatch, LatchTable, SharedLatch};
pub use recovery::{recover, recover_or_degrade, Recovery};
pub use session::{Policy, RunnerOptions, RunnerStats, Session};
pub use store::{CacheStore, StoreEntry};
pub use timing::{RequestOutcome, RequestTrace};
pub use wal::{
    scan_log, FileWalStorage, LogScan, MemWalStorage, Wal, WalOp, WalRecord, WalStorage,
};
