//! Cache layouts: the shape of the data structure a loader/reader pair
//! communicates through.
//!
//! Each cached term owns one slot. Byte accounting follows the paper's
//! measurements (4-byte floats and ints, 1-byte bools — Figure 8 reports
//! mean/median single-pixel cache sizes of 22/20 bytes), while at runtime
//! the interpreter stores full `ds_interp::Value`s; the byte widths are a
//! *model* of the paper's packed cache, used for the size experiments and
//! the cache-limiting budget.

use ds_lang::{SlotId, TermId, Type};
use std::fmt;

/// One cache slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Slot {
    /// The slot's index (also its position in [`CacheLayout::slots`]).
    pub id: SlotId,
    /// The cached term this slot stores.
    pub term: TermId,
    /// The cached value's type.
    pub ty: Type,
    /// Byte offset within the packed cache image.
    pub offset: u32,
    /// Width in bytes ([`Type::cache_width`]).
    pub width: u32,
    /// Pretty-printed source of the cached term, for diagnostics.
    pub source: String,
}

/// The complete slot assignment of one specialization.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheLayout {
    slots: Vec<Slot>,
}

impl CacheLayout {
    /// Builds a layout from `(term, type, source)` triples in program order,
    /// packing slots contiguously.
    pub fn new(entries: impl IntoIterator<Item = (TermId, Type, String)>) -> CacheLayout {
        let mut slots = Vec::new();
        let mut offset = 0u32;
        for (i, (term, ty, source)) in entries.into_iter().enumerate() {
            let width = ty.cache_width();
            slots.push(Slot {
                id: SlotId(i as u32),
                term,
                ty,
                offset,
                width,
                source,
            });
            offset += width;
        }
        CacheLayout { slots }
    }

    /// The slots, in slot-id order.
    pub fn slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Number of slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total packed size in bytes — the quantity Figures 8–10 plot.
    pub fn size_bytes(&self) -> u32 {
        self.slots.iter().map(|s| s.width).sum()
    }

    /// The slot holding `term`, if any.
    pub fn slot_of_term(&self, term: TermId) -> Option<&Slot> {
        self.slots.iter().find(|s| s.term == term)
    }

    /// An order-sensitive fingerprint of the layout's shape: the
    /// slot count plus, per slot, the producing term's id and
    /// pretty-printed source, the slot's type, offset and width.
    ///
    /// Two specializations of the same program under the same partition and
    /// options fingerprint identically; any drift in what is cached, in
    /// what order, or at what type changes the fingerprint. The
    /// staged-execution runtime (`ds-runtime`) uses this to reject a cache
    /// filled by a loader of a *different* specialization.
    pub fn fingerprint(&self) -> u64 {
        let mut h = ds_telemetry::Hash64::new().u64(self.slots.len() as u64);
        for s in &self.slots {
            h = h
                .u64(u64::from(s.id.0))
                .u64(u64::from(s.term.0))
                .str(&s.ty.to_string())
                .u64(u64::from(s.offset))
                .u64(u64::from(s.width))
                .str(&s.source);
        }
        h.finish()
    }
}

impl fmt::Display for CacheLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cache: {} slot(s), {} byte(s)",
            self.slot_count(),
            self.size_bytes()
        )?;
        for s in &self.slots {
            writeln!(
                f,
                "  [{:>2}] +{:<3} {:<5} {} byte(s)  <- {}",
                s.id.0,
                s.offset,
                s.ty.to_string(),
                s.width,
                s.source
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout3() -> CacheLayout {
        CacheLayout::new([
            (TermId(5), Type::Float, "a * b".to_string()),
            (TermId(9), Type::Bool, "p".to_string()),
            (TermId(12), Type::Int, "n * 2".to_string()),
        ])
    }

    #[test]
    fn packs_contiguously() {
        let l = layout3();
        assert_eq!(l.slot_count(), 3);
        assert_eq!(l.size_bytes(), 4 + 1 + 4);
        let offs: Vec<u32> = l.slots().iter().map(|s| s.offset).collect();
        assert_eq!(offs, vec![0, 4, 5]);
    }

    #[test]
    fn slot_lookup_by_term() {
        let l = layout3();
        assert_eq!(l.slot_of_term(TermId(9)).unwrap().id, SlotId(1));
        assert!(l.slot_of_term(TermId(999)).is_none());
    }

    #[test]
    fn empty_layout() {
        let l = CacheLayout::new([]);
        assert_eq!(l.slot_count(), 0);
        assert_eq!(l.size_bytes(), 0);
    }

    #[test]
    fn fingerprint_is_stable_and_shape_sensitive() {
        assert_eq!(layout3().fingerprint(), layout3().fingerprint());
        assert_ne!(layout3().fingerprint(), CacheLayout::new([]).fingerprint());
        // Dropping the tail slot changes the fingerprint.
        let two = CacheLayout::new([
            (TermId(5), Type::Float, "a * b".to_string()),
            (TermId(9), Type::Bool, "p".to_string()),
        ]);
        assert_ne!(layout3().fingerprint(), two.fingerprint());
        // Same shape, different producing term: changes the fingerprint.
        let drifted = CacheLayout::new([
            (TermId(5), Type::Float, "a * b".to_string()),
            (TermId(9), Type::Bool, "p".to_string()),
            (TermId(13), Type::Int, "n * 2".to_string()),
        ]);
        assert_ne!(layout3().fingerprint(), drifted.fingerprint());
        // Same terms, different slot type: changes the fingerprint.
        let retyped = CacheLayout::new([
            (TermId(5), Type::Float, "a * b".to_string()),
            (TermId(9), Type::Int, "p".to_string()),
            (TermId(12), Type::Int, "n * 2".to_string()),
        ]);
        assert_ne!(layout3().fingerprint(), retyped.fingerprint());
    }

    #[test]
    fn display_mentions_sources() {
        let text = layout3().to_string();
        assert!(text.contains("a * b"), "{text}");
        assert!(text.contains("3 slot(s), 9 byte(s)"), "{text}");
    }
}
