//! The runtime cache: the data structure through which a loader and reader
//! communicate.
//!
//! A [`CacheBuf`] is "a cache of specialized data values" (paper §1): one
//! slot per cached term in the specialization's layout. The loader fills
//! slots via `CacheStore` expressions; the reader reads them via `CacheRef`.
//! Reading a never-filled slot is an error — in a correct specialization a
//! reader can only reach a `CacheRef` whose store the loader also reached,
//! so this check catches splitting bugs in tests.
//!
//! Beyond plain storage the buffer carries the integrity machinery the
//! staged-execution runtime (`ds-runtime`) builds on:
//!
//! * [`CacheBuf::try_set`] — the non-panicking store API both engines use;
//!   an out-of-bounds write is a typed [`CacheError`], never a panic or a
//!   silent drop.
//! * [`CacheBuf::content_hash`] — an FNV-1a fingerprint of the buffer's
//!   full state, letting a runtime seal a freshly-loaded cache and detect
//!   any later mutation.
//! * [`CacheBuf::arm_write_fault`] — a one-shot, deterministic write fault
//!   (drop or corrupt the n-th store) that fires inside *either* engine's
//!   execution loop, plus a shadow copy of intended writes so the
//!   corruption is detectable afterwards ([`CacheBuf::first_tampered_slot`]).
//!   This is the fault-injection surface the chaos suite drives; nothing
//!   arms it in normal operation.

use crate::value::Value;
use std::fmt;

/// A typed failure of a cache-buffer operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheError {
    /// A store targeted a slot index outside the buffer — the buffer was
    /// sized for a different layout than the code writing to it.
    OutOfBounds {
        /// The slot index written.
        slot: usize,
        /// The buffer's actual slot count.
        len: usize,
    },
}

impl fmt::Display for CacheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheError::OutOfBounds { slot, len } => {
                write!(
                    f,
                    "cache store to slot {slot} out of bounds ({len} slot(s))"
                )
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// A one-shot write fault, armed via [`CacheBuf::arm_write_fault`].
///
/// Store indices count every write the buffer sees after arming (0-based),
/// matching the engines' deterministic write order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Silently skip the n-th store: the slot stays (or reverts to) its
    /// previous state, modelling a lost write.
    DropNth(u64),
    /// Store a bit-flipped value instead of the intended one on the n-th
    /// store, modelling memory corruption on the write path.
    CorruptNth(u64),
}

/// Deterministic bit-level corruption of a value (all bits flipped), used
/// by [`WriteFault::CorruptNth`] and by external fault injectors.
pub fn corrupt_value(v: Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(!i),
        Value::Float(f) => Value::Float(f64::from_bits(!f.to_bits())),
        Value::Bool(b) => Value::Bool(!b),
        // Cache slots only ever hold scalars, but external fault injectors
        // may corrupt arbitrary environment values.
        Value::Array(elems) => Value::Array(elems.into_iter().map(corrupt_value).collect()),
    }
}

#[derive(Debug, Clone)]
struct Armed {
    fault: WriteFault,
    /// Writes observed since arming.
    seen: u64,
    /// Whether the one-shot fault already fired.
    fired: bool,
}

/// A fixed-size buffer of cache slots, initially all empty.
#[derive(Debug)]
pub struct CacheBuf {
    slots: Vec<Option<Value>>,
    /// The *intended* slot states, maintained only while a write fault is
    /// armed; divergence from `slots` is how injected corruption is later
    /// detected without reference to the loader.
    shadow: Option<Vec<Option<Value>>>,
    armed: Option<Armed>,
}

impl Clone for CacheBuf {
    fn clone(&self) -> Self {
        CacheBuf {
            slots: self.slots.clone(),
            shadow: self.shadow.clone(),
            armed: self.armed.clone(),
        }
    }

    /// Reuses `self`'s slot allocation: a serving session copies each
    /// store hit into one long-lived working buffer.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
        self.shadow.clone_from(&source.shadow);
        self.armed.clone_from(&source.armed);
    }
}

/// Equality compares observable slot contents only — fault-injection
/// bookkeeping (shadow, armed state) is not part of a cache's value.
impl PartialEq for CacheBuf {
    fn eq(&self, other: &Self) -> bool {
        self.slots == other.slots
    }
}

impl CacheBuf {
    /// Creates a buffer with `n` empty slots.
    ///
    /// # Examples
    ///
    /// ```
    /// use ds_interp::CacheBuf;
    /// let buf = CacheBuf::new(3);
    /// assert_eq!(buf.len(), 3);
    /// assert_eq!(buf.filled(), 0);
    /// ```
    pub fn new(n: usize) -> CacheBuf {
        CacheBuf {
            slots: vec![None; n],
            shadow: None,
            armed: None,
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the buffer has no slots at all.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots the loader actually filled.
    pub fn filled(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Reads slot `i`, or `None` if it was never filled.
    pub fn get(&self, i: usize) -> Option<Value> {
        self.slots.get(i).cloned().flatten()
    }

    /// Fills slot `i` with `v`, failing with a typed [`CacheError`] when
    /// `i` is out of bounds. This is the store API both execution engines
    /// use, so an undersized buffer surfaces as a recoverable
    /// `EvalError`, never a panic.
    ///
    /// While a [`WriteFault`] is armed the *observed* store may be dropped
    /// or corrupted; the intended value is still recorded in the shadow
    /// copy for later [`CacheBuf::first_tampered_slot`] detection.
    pub fn try_set(&mut self, i: usize, v: Value) -> Result<(), CacheError> {
        if i >= self.slots.len() {
            return Err(CacheError::OutOfBounds {
                slot: i,
                len: self.slots.len(),
            });
        }
        if let Some(shadow) = &mut self.shadow {
            shadow[i] = Some(v.clone());
        }
        let mut stored = Some(v);
        if let Some(armed) = &mut self.armed {
            let n = armed.seen;
            armed.seen += 1;
            if !armed.fired {
                match armed.fault {
                    WriteFault::DropNth(k) if n == k => {
                        armed.fired = true;
                        stored = None;
                    }
                    WriteFault::CorruptNth(k) if n == k => {
                        armed.fired = true;
                        stored = stored.map(corrupt_value);
                    }
                    _ => {}
                }
            }
        }
        if let Some(v) = stored {
            self.slots[i] = Some(v);
        } // a dropped write leaves the slot's previous state
        Ok(())
    }

    /// Fills slot `i` with `v`.
    ///
    /// Out-of-bounds stores panic in debug builds (`debug_assert!`) and are
    /// ignored in release builds; callers that can observe an undersized
    /// buffer (the engines, the runtime) use [`CacheBuf::try_set`] instead.
    pub fn set(&mut self, i: usize, v: Value) {
        let r = self.try_set(i, v);
        debug_assert!(r.is_ok(), "CacheBuf::set: {}", r.unwrap_err());
    }

    /// Empties every slot, for reuse across pixels.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = None;
        }
        if let Some(shadow) = &mut self.shadow {
            for s in shadow {
                *s = None;
            }
        }
    }

    /// FNV-1a fingerprint of the buffer's observable state: slot count plus
    /// each slot's filled flag, type and value bit pattern. A runtime seals
    /// a freshly-loaded cache with this hash; any later mutation (tamper,
    /// truncation, clear) changes it.
    pub fn content_hash(&self) -> u64 {
        let mut h = ds_telemetry::Fnv64::new().u64(self.slots.len() as u64);
        for s in &self.slots {
            h = match s {
                None => h.u64(0),
                Some(v) => {
                    let (tag, bits) = value_bits(v);
                    h.u64(1).u64(tag).u64(bits)
                }
            };
        }
        h.finish()
    }

    /// Arms a one-shot [`WriteFault`] and starts shadowing intended writes.
    /// Fault-injection/testing API: nothing arms faults in normal use.
    pub fn arm_write_fault(&mut self, fault: WriteFault) {
        self.shadow = Some(self.slots.clone());
        self.armed = Some(Armed {
            fault,
            seen: 0,
            fired: false,
        });
    }

    /// Disarms any write fault and drops the shadow copy.
    pub fn disarm(&mut self) {
        self.armed = None;
        self.shadow = None;
    }

    /// Whether an armed write fault has fired.
    pub fn write_fault_fired(&self) -> bool {
        self.armed.as_ref().is_some_and(|a| a.fired)
    }

    /// First slot whose observed state differs from the intended (shadow)
    /// state — evidence of a fired write fault or direct tampering. `None`
    /// when clean or when no fault was ever armed.
    pub fn first_tampered_slot(&self) -> Option<usize> {
        let shadow = self.shadow.as_ref()?;
        self.slots
            .iter()
            .zip(shadow)
            .position(|(got, want)| match (got, want) {
                (Some(a), Some(b)) => !a.bits_eq(b),
                (None, None) => false,
                _ => true,
            })
    }

    /// Shrinks the buffer to `n` slots, discarding the tail. Fault-injection
    /// API modelling a truncated cache image; a sealed runtime detects the
    /// changed length via [`CacheBuf::content_hash`].
    pub fn truncate(&mut self, n: usize) {
        self.slots.truncate(n);
        if let Some(shadow) = &mut self.shadow {
            shadow.truncate(n);
        }
    }

    /// Overwrites slot `i`'s raw state (`None` empties it) *without*
    /// updating the shadow copy — direct tampering, as injected faults do.
    /// Out-of-bounds indices are ignored.
    pub fn tamper(&mut self, i: usize, v: Option<Value>) {
        if let Some(s) = self.slots.get_mut(i) {
            *s = v;
        }
    }
}

/// A value as a `(type tag, bit pattern)` pair — the lossless encoding the
/// content hash and the cache-file format share.
///
/// Arrays never reach cache slots (only scalars are cacheable), so their
/// encoding is a fingerprint, not lossless: an FNV fold of length and
/// element pairs.
pub fn value_bits(v: &Value) -> (u64, u64) {
    match v {
        Value::Int(i) => (0, *i as u64),
        Value::Float(f) => (1, f.to_bits()),
        Value::Bool(b) => (2, u64::from(*b)),
        Value::Array(elems) => {
            let mut h = ds_telemetry::Fnv64::new().u64(elems.len() as u64);
            for e in elems {
                let (tag, bits) = value_bits(e);
                h = h.u64(tag).u64(bits);
            }
            (3, h.finish())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read() {
        let mut buf = CacheBuf::new(2);
        assert_eq!(buf.get(0), None);
        buf.set(0, Value::Float(3.5));
        assert_eq!(buf.get(0), Some(Value::Float(3.5)));
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.filled(), 1);
    }

    #[test]
    fn clear_empties_and_buffer_is_reusable() {
        let mut buf = CacheBuf::new(2);
        buf.set(0, Value::Int(1));
        buf.set(1, Value::Bool(true));
        assert_eq!(buf.filled(), 2);
        buf.clear();
        assert_eq!(buf.filled(), 0);
        assert_eq!(buf.get(0), None);
        assert_eq!(buf.get(1), None);
        // A cleared buffer accepts a fresh load (the per-pixel reuse path).
        buf.set(1, Value::Float(2.5));
        assert_eq!(buf.filled(), 1);
        assert_eq!(buf.get(1), Some(Value::Float(2.5)));
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut buf = CacheBuf::new(1);
        buf.set(0, Value::Int(1));
        buf.set(0, Value::Int(2));
        assert_eq!(buf.get(0), Some(Value::Int(2)));
        assert_eq!(buf.filled(), 1);
    }

    #[test]
    fn out_of_range_get_is_none() {
        let buf = CacheBuf::new(1);
        assert_eq!(buf.get(1), None, "one past the end");
        assert_eq!(buf.get(5), None);
        assert_eq!(CacheBuf::new(0).get(0), None, "empty buffer");
    }

    #[test]
    fn try_set_out_of_range_is_a_typed_error() {
        let mut buf = CacheBuf::new(1);
        assert_eq!(
            buf.try_set(5, Value::Int(1)),
            Err(CacheError::OutOfBounds { slot: 5, len: 1 })
        );
        // One past the end, and the empty buffer.
        let mut buf = CacheBuf::new(3);
        assert_eq!(
            buf.try_set(3, Value::Int(1)),
            Err(CacheError::OutOfBounds { slot: 3, len: 3 })
        );
        assert_eq!(
            CacheBuf::new(0).try_set(0, Value::Bool(true)),
            Err(CacheError::OutOfBounds { slot: 0, len: 0 })
        );
        let msg = CacheError::OutOfBounds { slot: 3, len: 3 }.to_string();
        assert!(msg.contains("slot 3"), "{msg}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn out_of_range_set_panics_in_debug() {
        let mut buf = CacheBuf::new(1);
        buf.set(5, Value::Int(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn set_one_past_the_end_panics_in_debug() {
        let mut buf = CacheBuf::new(3);
        buf.set(3, Value::Int(1));
    }

    #[test]
    fn content_hash_tracks_every_observable_mutation() {
        let mut buf = CacheBuf::new(2);
        let empty = buf.content_hash();
        buf.set(0, Value::Float(1.0));
        let one = buf.content_hash();
        assert_ne!(empty, one);
        // Same bits, different type: must hash differently.
        buf.set(
            0,
            Value::Int(Value::Float(1.0).as_float().unwrap().to_bits() as i64),
        );
        assert_ne!(buf.content_hash(), one);
        buf.set(0, Value::Float(1.0));
        assert_eq!(buf.content_hash(), one, "hash is a pure function of state");
        buf.truncate(1);
        assert_ne!(buf.content_hash(), one, "length is part of the hash");
        let mut other = CacheBuf::new(2);
        other.set(0, Value::Float(1.0));
        assert_eq!(other.content_hash(), one, "equal states hash equal");
    }

    #[test]
    fn drop_fault_skips_exactly_one_store() {
        let mut buf = CacheBuf::new(3);
        buf.arm_write_fault(WriteFault::DropNth(1));
        buf.set(0, Value::Int(10));
        buf.set(1, Value::Int(11)); // dropped
        buf.set(2, Value::Int(12));
        assert!(buf.write_fault_fired());
        assert_eq!(buf.get(0), Some(Value::Int(10)));
        assert_eq!(buf.get(1), None);
        assert_eq!(buf.get(2), Some(Value::Int(12)));
        assert_eq!(buf.first_tampered_slot(), Some(1));
        // One-shot: a rewrite of slot 1 goes through and heals the buffer.
        buf.set(1, Value::Int(11));
        assert_eq!(buf.get(1), Some(Value::Int(11)));
        assert_eq!(buf.first_tampered_slot(), None);
    }

    #[test]
    fn corrupt_fault_is_detectable_via_shadow() {
        let mut buf = CacheBuf::new(2);
        buf.arm_write_fault(WriteFault::CorruptNth(0));
        buf.set(0, Value::Float(2.0));
        buf.set(1, Value::Bool(false));
        assert!(buf.write_fault_fired());
        // The observed value is corrupted, bit-for-bit deterministically.
        assert_eq!(buf.get(0), Some(corrupt_value(Value::Float(2.0))));
        assert_eq!(buf.get(1), Some(Value::Bool(false)));
        assert_eq!(buf.first_tampered_slot(), Some(0));
        buf.disarm();
        assert_eq!(buf.first_tampered_slot(), None, "no shadow, no verdict");
    }

    #[test]
    fn unarmed_buffer_never_reports_tampering() {
        let mut buf = CacheBuf::new(2);
        buf.set(0, Value::Int(1));
        assert!(!buf.write_fault_fired());
        assert_eq!(buf.first_tampered_slot(), None);
    }

    #[test]
    fn tamper_bypasses_the_shadow() {
        let mut buf = CacheBuf::new(2);
        buf.arm_write_fault(WriteFault::DropNth(u64::MAX)); // shadow only
        buf.set(0, Value::Int(7));
        buf.tamper(0, Some(Value::Int(8)));
        assert_eq!(buf.first_tampered_slot(), Some(0));
        buf.tamper(0, Some(Value::Int(7)));
        assert_eq!(buf.first_tampered_slot(), None);
        buf.tamper(9, Some(Value::Int(1))); // out of bounds: ignored
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn clone_from_copies_slots_and_fault_bookkeeping() {
        let mut damaged = CacheBuf::new(3);
        damaged.arm_write_fault(WriteFault::CorruptNth(1));
        damaged.set(0, Value::Int(1));
        damaged.set(1, Value::Float(2.0));
        let mut copy = CacheBuf::new(5);
        copy.set(4, Value::Int(9));
        copy.clone_from(&damaged);
        assert_eq!(copy.len(), 3);
        assert_eq!(copy, damaged);
        assert!(copy.write_fault_fired());
        assert_eq!(copy.first_tampered_slot(), Some(1), "shadow copied too");
        copy.clone_from(&CacheBuf::new(2));
        assert_eq!(copy.first_tampered_slot(), None, "and cleared again");
        assert!(!copy.write_fault_fired());
    }

    #[test]
    fn equality_ignores_fault_bookkeeping() {
        let mut a = CacheBuf::new(1);
        let mut b = CacheBuf::new(1);
        a.set(0, Value::Int(3));
        b.arm_write_fault(WriteFault::DropNth(99));
        b.set(0, Value::Int(3));
        assert_eq!(a, b);
    }

    #[test]
    fn corrupt_value_changes_and_preserves_type() {
        for v in [Value::Int(0), Value::Float(1.5), Value::Bool(true)] {
            let c = corrupt_value(v.clone());
            assert!(!c.bits_eq(&v), "{v} must change");
            assert_eq!(c.ty(), v.ty(), "{v} must keep its type");
        }
    }
}
