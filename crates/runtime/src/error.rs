//! Typed failures of the staged-execution runtime.

use ds_interp::EvalError;
use ds_lang::Type;
use std::error::Error;
use std::fmt;

/// A cache integrity violation: the cache a reader is about to consume (or
/// a serialized cache file being loaded) is provably not the cache a
/// matching loader produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// The document is not a well-formed versioned cache file: unparseable
    /// (e.g. truncated), wrong envelope, or missing fields.
    Malformed {
        /// What was wrong, human-readable.
        detail: String,
    },
    /// The file's stored checksum does not match its content — bytes were
    /// corrupted after the file was written.
    ChecksumMismatch {
        /// The checksum the file claims.
        expected: u64,
        /// The checksum recomputed over its content.
        found: u64,
    },
    /// The cache was produced under a different specialization layout
    /// (slot count or layout fingerprint drift).
    LayoutMismatch {
        /// What diverged, human-readable.
        detail: String,
    },
    /// A slot holds a value of a different type than the layout declares.
    SlotTypeDrift {
        /// The drifting slot index.
        slot: usize,
        /// The type the layout declares.
        expected: Type,
        /// The type actually found.
        found: Type,
    },
    /// An in-memory slot's observed value differs from the value the
    /// loader intended to store (fired write fault or direct tampering).
    TamperedSlot {
        /// The first tampered slot index.
        slot: usize,
    },
    /// The in-memory cache's content hash no longer matches the seal
    /// recorded when the loader filled it (post-load mutation, e.g. a
    /// truncated or tampered buffer).
    SealBroken {
        /// The hash recorded at seal time.
        expected: u64,
        /// The hash of the cache as found.
        found: u64,
    },
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IntegrityError::Malformed { detail } => write!(f, "malformed cache file: {detail}"),
            IntegrityError::ChecksumMismatch { expected, found } => write!(
                f,
                "cache file checksum mismatch: stored {expected:#018x}, content hashes to {found:#018x}"
            ),
            IntegrityError::LayoutMismatch { detail } => {
                write!(f, "cache layout mismatch: {detail}")
            }
            IntegrityError::SlotTypeDrift {
                slot,
                expected,
                found,
            } => write!(
                f,
                "slot {slot} type drift: layout declares `{expected}`, cache holds `{found}`"
            ),
            IntegrityError::TamperedSlot { slot } => {
                write!(f, "cache slot {slot} does not hold the value the loader stored")
            }
            IntegrityError::SealBroken { expected, found } => write!(
                f,
                "cache mutated after load: sealed hash {expected:#018x}, now {found:#018x}"
            ),
        }
    }
}

impl Error for IntegrityError {}

/// A failure of the write-ahead log (see [`wal`](crate::wal)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// The (simulated or real) writer died mid-stream: an armed
    /// `crash-at-byte` fault fired, or the process is modelling a kill. No
    /// further appends or checkpoints are possible; recovery on the next
    /// open replays the valid prefix.
    Crashed {
        /// Cumulative WAL bytes durably written when the crash struck.
        at_byte: u64,
    },
    /// The underlying log or checkpoint storage failed.
    Io {
        /// The operating-system error, human-readable.
        detail: String,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Crashed { at_byte } => {
                write!(f, "write-ahead log writer crashed at byte {at_byte}")
            }
            WalError::Io { detail } => write!(f, "write-ahead log I/O failure: {detail}"),
        }
    }
}

impl Error for WalError {}

/// A failure of a [`Session`](crate::Session) request.
///
/// Every failure mode of staged execution maps onto one of these variants;
/// the chaos suite's core guarantee is that a faulted session returns either
/// the reference answer or one of these — never a silently wrong value.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// An engine-level evaluation failure that the active policy chose to
    /// surface (or that the last-resort fallback itself hit).
    Eval(EvalError),
    /// A cache integrity violation that the active policy chose to surface.
    Integrity(IntegrityError),
    /// A rebuild was required but the configured budget of loader re-runs
    /// is already spent.
    RebuildBudgetExhausted {
        /// The configured budget.
        budget: u32,
    },
    /// The attached write-ahead log failed (most importantly: an armed
    /// crash fault killed the writer, modelling process death). The answer
    /// for the request was computed but never durably acknowledged, so it
    /// is surfaced as an error — exactly what a caller of a crashed server
    /// observes.
    Wal(WalError),
    /// The request's deadline elapsed before an answer could be returned.
    /// A timed-out request is *never* answered partially or late: the
    /// daemon discards whatever it had and surfaces this typed error.
    DeadlineExceeded {
        /// The per-request deadline that was exceeded, in milliseconds.
        deadline_ms: u64,
    },
    /// The daemon's bounded request queue was full — the request was shed
    /// at admission instead of being buffered without bound.
    Overloaded {
        /// The configured queue capacity that was exhausted.
        max_queue: usize,
    },
    /// The daemon is draining (SIGTERM or end of input) and no longer
    /// admits new requests; in-flight and already-queued requests still
    /// complete.
    Draining,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            RuntimeError::Integrity(e) => write!(f, "integrity violation: {e}"),
            RuntimeError::RebuildBudgetExhausted { budget } => {
                write!(f, "rebuild budget of {budget} loader re-run(s) exhausted")
            }
            RuntimeError::Wal(e) => write!(f, "durability failure: {e}"),
            RuntimeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms} ms exceeded")
            }
            RuntimeError::Overloaded { max_queue } => {
                write!(
                    f,
                    "overloaded: request queue of {max_queue} is full, request shed"
                )
            }
            RuntimeError::Draining => write!(f, "daemon is draining, request not admitted"),
        }
    }
}

impl Error for RuntimeError {}

impl From<WalError> for RuntimeError {
    fn from(e: WalError) -> Self {
        RuntimeError::Wal(e)
    }
}

impl From<EvalError> for RuntimeError {
    fn from(e: EvalError) -> Self {
        RuntimeError::Eval(e)
    }
}

impl From<IntegrityError> for RuntimeError {
    fn from(e: IntegrityError) -> Self {
        RuntimeError::Integrity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_carry_specifics() {
        let e = IntegrityError::SlotTypeDrift {
            slot: 2,
            expected: Type::Float,
            found: Type::Int,
        };
        assert!(e.to_string().contains("slot 2"));
        assert!(e.to_string().contains("float"));
        let e = RuntimeError::RebuildBudgetExhausted { budget: 3 };
        assert!(e.to_string().contains('3'));
        let e = RuntimeError::from(IntegrityError::TamperedSlot { slot: 1 });
        assert!(matches!(e, RuntimeError::Integrity(_)));
        assert!(e.to_string().contains("slot 1"));
        let e = RuntimeError::from(WalError::Crashed { at_byte: 99 });
        assert!(matches!(e, RuntimeError::Wal(_)));
        assert!(e.to_string().contains("byte 99"));
        let e = RuntimeError::DeadlineExceeded { deadline_ms: 25 };
        assert!(e.to_string().contains("25 ms"));
        let e = RuntimeError::Overloaded { max_queue: 4 };
        assert!(e.to_string().contains("queue of 4"));
        assert!(RuntimeError::Draining.to_string().contains("draining"));
    }
}
