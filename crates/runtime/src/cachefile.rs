//! The versioned, checksummed cache-file format.
//!
//! A cache store can be persisted and later re-adopted by a session,
//! amortizing the loader across *processes*, not just requests. The file is
//! a `ds-telemetry` JSON envelope (`kind: "cache-store"`, schema-versioned
//! like every other export) holding one entry per sealed cache. The bundle
//! header carries the format tag ([`STORE_FORMAT`]), the layout
//! fingerprint, the entry count and the write-ahead-log chaining LSN under
//! a header checksum; each entry carries:
//!
//! * the **layout fingerprint** of the specialization that filled it, so a
//!   cache can never be consumed by a reader of a different specialization;
//! * the **inputs fingerprint** of the invariant-input vector it was loaded
//!   for, so each entry serves only its own invariant context;
//! * every slot as a `(type, bit-pattern)` pair — bit patterns are stored
//!   as hex strings because JSON numbers are doubles and would silently
//!   lose `i64` precision and `NaN`/`-0.0` distinctions;
//! * a **checksum** ([`Hash64`]) over the semantic content, so any
//!   byte-level corruption of a semantically relevant field is rejected
//!   at load.
//!
//! Loading validates envelope → format tag → header → per entry checksum
//! → layout → slot types, in that order, and returns a typed
//! [`IntegrityError`] for the first violation. A bundle without the
//! current format tag (format 1 had none, and hashed with FNV-1a) is
//! refused as [`IntegrityError::Malformed`]: its fingerprints are keys no
//! request of this build can hit, so adopting it would only fill the
//! store with dead entries.
//! The invariant the chaos suite pins down: **a load either fails with a
//! typed error or yields a cache semantically identical to the one saved.**

use crate::error::IntegrityError;
use ds_core::CacheLayout;
use ds_interp::{value_bits, CacheBuf, Value};
use ds_lang::Type;
use ds_telemetry::{Hash64, Json};

/// The envelope `kind` of a polyvariant cache-store bundle (one entry per
/// invariant fingerprint).
pub const STORE_KIND: &str = "cache-store";

/// The bundle format this build writes and reads: 2 is the first whose
/// fingerprints and checksums are [`Hash64`]es. Format 1 bundles carry no
/// `format` field and are refused.
pub const STORE_FORMAT: u64 = 2;

pub(crate) fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

pub(crate) fn parse_hex(s: &str, what: &str) -> Result<u64, IntegrityError> {
    s.strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| IntegrityError::Malformed {
            detail: format!("{what}: bad hex literal `{s}`"),
        })
}

pub(crate) fn type_name(ty: Type) -> String {
    ty.to_string()
}

pub(crate) fn parse_type(s: &str, slot: usize) -> Result<Type, IntegrityError> {
    match s {
        "int" => Ok(Type::Int),
        "float" => Ok(Type::Float),
        "bool" => Ok(Type::Bool),
        other => Err(IntegrityError::Malformed {
            detail: format!("slot {slot}: unknown type `{other}`"),
        }),
    }
}

pub(crate) fn decode_value(ty: Type, bits: u64, slot: usize) -> Result<Value, IntegrityError> {
    match ty {
        Type::Int => Ok(Value::Int(bits as i64)),
        Type::Float => Ok(Value::Float(f64::from_bits(bits))),
        Type::Bool => match bits {
            0 => Ok(Value::Bool(false)),
            1 => Ok(Value::Bool(true)),
            other => Err(IntegrityError::Malformed {
                detail: format!("slot {slot}: bool with bit pattern {other:#x}"),
            }),
        },
        Type::Void => Err(IntegrityError::Malformed {
            detail: format!("slot {slot}: void slot"),
        }),
        // Cache slots hold scalars only; an array type in a file is
        // corruption (and `parse_type` never produces one).
        Type::Array(..) => Err(IntegrityError::Malformed {
            detail: format!("slot {slot}: array slot"),
        }),
    }
}

/// The checksum covers every semantic field: fingerprints, slot count, and
/// each slot's filled flag, type and bit pattern. Formatting is *not*
/// covered — the guarantee is "accepted ⇒ semantically identical".
fn checksum(layout_fp: u64, inputs_fp: u64, slots: &[Option<(Type, u64)>]) -> u64 {
    let mut h = Hash64::new()
        .u64(layout_fp)
        .u64(inputs_fp)
        .u64(slots.len() as u64);
    for s in slots {
        h = match s {
            None => h.u64(0),
            Some((ty, bits)) => h.u64(1).str(&type_name(*ty)).u64(*bits),
        };
    }
    h.finish()
}

/// A successfully validated cache file.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadedCache {
    /// The reconstructed buffer (exactly as many slots as the layout).
    pub cache: CacheBuf,
    /// Fingerprint of the invariant-input vector the cache was loaded for.
    pub inputs_fingerprint: u64,
}

/// The semantic fields of one cache entry — each element of a bundle's
/// `entries` array. Every entry carries its own checksum, so corruption is
/// pinpointed per entry.
fn payload_fields(cache: &CacheBuf, layout_fp: u64, inputs_fp: u64) -> Vec<(String, Json)> {
    let entries: Vec<Option<(Type, u64)>> = (0..cache.len())
        .map(|i| {
            cache.get(i).map(|v| {
                let (_, bits) = value_bits(&v);
                (v.ty(), bits)
            })
        })
        .collect();
    let slots = Json::Arr(
        entries
            .iter()
            .map(|e| match e {
                None => Json::Null,
                Some((ty, bits)) => Json::obj([
                    ("ty", Json::from(type_name(*ty).as_str())),
                    ("bits", Json::from(hex(*bits).as_str())),
                ]),
            })
            .collect(),
    );
    vec![
        (
            "layout_fingerprint".to_string(),
            Json::from(hex(layout_fp).as_str()),
        ),
        (
            "inputs_fingerprint".to_string(),
            Json::from(hex(inputs_fp).as_str()),
        ),
        ("slot_count".to_string(), Json::from(entries.len() as u64)),
        ("slots".to_string(), slots),
        (
            "checksum".to_string(),
            Json::from(hex(checksum(layout_fp, inputs_fp, &entries)).as_str()),
        ),
    ]
}

/// The header checksum of a store bundle covers the fields that steer
/// recovery but are not covered by any per-entry checksum: the layout
/// fingerprint, the entry count, and the WAL chaining LSN. Without it a
/// flipped `wal_lsn` digit would silently change *which* log records are
/// replayed on recovery.
fn header_checksum(layout_fp: u64, entry_count: usize, wal_lsn: u64) -> u64 {
    Hash64::new()
        .u64(layout_fp)
        .u64(entry_count as u64)
        .u64(wal_lsn)
        .finish()
}

/// Serializes a whole cache store as a versioned bundle: one checksummed
/// entry per `(inputs fingerprint, cache)` pair, in the order given
/// (callers pass a fingerprint-sorted snapshot for deterministic output).
pub fn save_store(entries: &[(u64, CacheBuf)], layout_fp: u64) -> String {
    save_store_at(entries, layout_fp, 0)
}

/// Serializes a store bundle that doubles as a **checkpoint** of a
/// write-ahead log: `wal_lsn` is the last log sequence number compacted
/// into the bundle, so recovery replays only records *after* it (0 means
/// "covers nothing" — the plain [`save_store`] form).
pub fn save_store_at(entries: &[(u64, CacheBuf)], layout_fp: u64, wal_lsn: u64) -> String {
    let arr = Json::Arr(
        entries
            .iter()
            .map(|(fp, cache)| Json::Obj(payload_fields(cache, layout_fp, *fp)))
            .collect(),
    );
    let doc = ds_telemetry::envelope(
        STORE_KIND,
        vec![
            ("format".to_string(), Json::from(STORE_FORMAT)),
            (
                "layout_fingerprint".to_string(),
                Json::from(hex(layout_fp).as_str()),
            ),
            ("entry_count".to_string(), Json::from(entries.len() as u64)),
            ("wal_lsn".to_string(), Json::from(hex(wal_lsn).as_str())),
            (
                "header_checksum".to_string(),
                Json::from(hex(header_checksum(layout_fp, entries.len(), wal_lsn)).as_str()),
            ),
            ("entries".to_string(), arr),
        ],
    );
    doc.pretty() + "\n"
}

fn field<'d>(doc: &'d Json, name: &str) -> Result<&'d Json, IntegrityError> {
    doc.get(name).ok_or_else(|| IntegrityError::Malformed {
        detail: format!("missing `{name}` field"),
    })
}

fn hex_field(doc: &Json, name: &str) -> Result<u64, IntegrityError> {
    let s = field(doc, name)?
        .as_str()
        .ok_or_else(|| IntegrityError::Malformed {
            detail: format!("`{name}` is not a string"),
        })?;
    parse_hex(s, name)
}

/// Parses and fully validates a cache-store bundle against `layout`.
/// Every entry is validated; the first violation rejects the whole file.
///
/// # Errors
///
/// A typed [`IntegrityError`] for the first violation found:
/// [`IntegrityError::Malformed`] for truncated/unparseable documents or a
/// foreign envelope, [`IntegrityError::ChecksumMismatch`] for post-write
/// corruption, [`IntegrityError::LayoutMismatch`] when the bundle belongs
/// to a different specialization, and [`IntegrityError::SlotTypeDrift`]
/// when a slot's stored type contradicts the layout.
pub fn parse_store(text: &str, layout: &CacheLayout) -> Result<Vec<LoadedCache>, IntegrityError> {
    parse_store_with_lsn(text, layout).map(|(entries, _)| entries)
}

/// [`parse_store`] plus the checkpoint chaining LSN: the last write-ahead
/// log sequence number the bundle compacts (0 for a bundle that covers no
/// records). The `wal_lsn` must come with a valid `header_checksum`, so
/// byte damage to the chaining metadata is rejected rather than silently
/// replaying the wrong log suffix.
///
/// # Errors
///
/// The same taxonomy as [`parse_store`].
pub fn parse_store_with_lsn(
    text: &str,
    layout: &CacheLayout,
) -> Result<(Vec<LoadedCache>, u64), IntegrityError> {
    let doc = ds_telemetry::parse(text).map_err(|e| IntegrityError::Malformed {
        detail: e.to_string(),
    })?;
    let kind = ds_telemetry::validate_envelope(&doc)
        .map_err(|detail| IntegrityError::Malformed { detail })?;
    if kind != STORE_KIND {
        return Err(IntegrityError::Malformed {
            detail: format!("envelope kind `{kind}` is not `{STORE_KIND}`"),
        });
    }
    match doc.get("format") {
        Some(f) if f.as_u64() == Some(STORE_FORMAT) => {}
        Some(f) => {
            return Err(IntegrityError::Malformed {
                detail: format!("bundle format {} is not format {STORE_FORMAT}", f.compact()),
            })
        }
        None => {
            return Err(IntegrityError::Malformed {
                detail: format!(
                    "bundle has no `format` tag: it is format 1 (FNV-1a fingerprints), \
                     not format {STORE_FORMAT}"
                ),
            })
        }
    }
    let layout_fp = hex_field(&doc, "layout_fingerprint")?;
    if layout_fp != layout.fingerprint() {
        return Err(IntegrityError::LayoutMismatch {
            detail: format!(
                "bundle fingerprint {:#018x}, current layout {:#018x}",
                layout_fp,
                layout.fingerprint()
            ),
        });
    }
    let entry_count =
        field(&doc, "entry_count")?
            .as_u64()
            .ok_or_else(|| IntegrityError::Malformed {
                detail: "`entry_count` is not a non-negative integer".to_string(),
            })? as usize;
    let Json::Arr(raw) = field(&doc, "entries")? else {
        return Err(IntegrityError::Malformed {
            detail: "`entries` is not an array".to_string(),
        });
    };
    if raw.len() != entry_count {
        return Err(IntegrityError::Malformed {
            detail: format!(
                "`entry_count` says {entry_count} but `entries` has {} entries",
                raw.len()
            ),
        });
    }
    // The header checksum must validate before the LSN may steer
    // recovery.
    let wal_lsn = hex_field(&doc, "wal_lsn")?;
    let stored = hex_field(&doc, "header_checksum")?;
    let found = header_checksum(layout_fp, entry_count, wal_lsn);
    if stored != found {
        return Err(IntegrityError::ChecksumMismatch {
            expected: stored,
            found,
        });
    }
    let entries: Result<Vec<LoadedCache>, IntegrityError> =
        raw.iter().map(|e| parse_payload(e, layout)).collect();
    Ok((entries?, wal_lsn))
}

/// Validates one entry's payload fields against `layout`: checksum →
/// layout → per-slot types, in that order.
fn parse_payload(doc: &Json, layout: &CacheLayout) -> Result<LoadedCache, IntegrityError> {
    let layout_fp = hex_field(doc, "layout_fingerprint")?;
    let inputs_fp = hex_field(doc, "inputs_fingerprint")?;
    let slot_count =
        field(doc, "slot_count")?
            .as_u64()
            .ok_or_else(|| IntegrityError::Malformed {
                detail: "`slot_count` is not a non-negative integer".to_string(),
            })? as usize;
    let stored_sum = hex_field(doc, "checksum")?;
    let Json::Arr(raw_slots) = field(doc, "slots")? else {
        return Err(IntegrityError::Malformed {
            detail: "`slots` is not an array".to_string(),
        });
    };
    if raw_slots.len() != slot_count {
        return Err(IntegrityError::Malformed {
            detail: format!(
                "`slot_count` says {slot_count} but `slots` has {} entries",
                raw_slots.len()
            ),
        });
    }
    let mut entries: Vec<Option<(Type, u64)>> = Vec::with_capacity(raw_slots.len());
    for (i, s) in raw_slots.iter().enumerate() {
        entries.push(match s {
            Json::Null => None,
            obj => {
                let ty = obj.get("ty").and_then(Json::as_str).ok_or_else(|| {
                    IntegrityError::Malformed {
                        detail: format!("slot {i}: missing `ty`"),
                    }
                })?;
                let bits = obj.get("bits").and_then(Json::as_str).ok_or_else(|| {
                    IntegrityError::Malformed {
                        detail: format!("slot {i}: missing `bits`"),
                    }
                })?;
                Some((parse_type(ty, i)?, parse_hex(bits, "bits")?))
            }
        });
    }

    // 1. Checksum: detects any post-write corruption of semantic content.
    let found_sum = checksum(layout_fp, inputs_fp, &entries);
    if found_sum != stored_sum {
        return Err(IntegrityError::ChecksumMismatch {
            expected: stored_sum,
            found: found_sum,
        });
    }
    // 2. Layout: the cache must belong to *this* specialization.
    if layout_fp != layout.fingerprint() {
        return Err(IntegrityError::LayoutMismatch {
            detail: format!(
                "file fingerprint {:#018x}, current layout {:#018x}",
                layout_fp,
                layout.fingerprint()
            ),
        });
    }
    if slot_count != layout.slot_count() {
        return Err(IntegrityError::LayoutMismatch {
            detail: format!(
                "file has {slot_count} slot(s), layout declares {}",
                layout.slot_count()
            ),
        });
    }
    // 3. Per-slot types against the layout's declarations.
    let mut cache = CacheBuf::new(slot_count);
    for (i, e) in entries.iter().enumerate() {
        if let Some((ty, bits)) = e {
            let declared = layout.slots()[i].ty;
            if *ty != declared {
                return Err(IntegrityError::SlotTypeDrift {
                    slot: i,
                    expected: declared,
                    found: *ty,
                });
            }
            let v = decode_value(*ty, *bits, i)?;
            // The buffer was sized to `slot_count` above, so this cannot
            // fail — but a damaged environment must never panic the
            // server, so the invariant is checked, not assumed.
            cache.try_set(i, v).map_err(|e| IntegrityError::Malformed {
                detail: format!("slot {i}: {e}"),
            })?;
        }
    }
    Ok(LoadedCache {
        cache,
        inputs_fingerprint: inputs_fp,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_lang::TermId;

    fn layout() -> CacheLayout {
        CacheLayout::new([
            (TermId(1), Type::Float, "a * b".to_string()),
            (TermId(2), Type::Int, "n + 1".to_string()),
            (TermId(3), Type::Bool, "p".to_string()),
        ])
    }

    /// One entry, saved as a bundle and parsed back.
    fn round_trip(c: &CacheBuf, l: &CacheLayout, fp: u64) -> LoadedCache {
        let text = save_store(&[(fp, c.clone())], l.fingerprint());
        parse_store(&text, l).expect("load").remove(0)
    }

    fn warm_cache() -> CacheBuf {
        let mut c = CacheBuf::new(3);
        c.set(0, Value::Float(-0.0));
        c.set(1, Value::Int(i64::MAX - 1)); // would lose precision as f64
        c.set(2, Value::Bool(true));
        c
    }

    #[test]
    fn round_trips_bit_exactly_including_awkward_values() {
        let l = layout();
        let c = warm_cache();
        let back = round_trip(&c, &l, 42);
        assert_eq!(back.inputs_fingerprint, 42);
        assert_eq!(back.cache.content_hash(), c.content_hash());
        // -0.0 must round-trip as -0.0, not 0.0.
        assert!(back.cache.get(0).unwrap().bits_eq(&Value::Float(-0.0)));
        assert_eq!(back.cache.get(1), Some(Value::Int(i64::MAX - 1)));
    }

    #[test]
    fn partial_caches_round_trip() {
        let l = layout();
        let mut c = CacheBuf::new(3);
        c.set(1, Value::Int(7));
        let back = round_trip(&c, &l, 0);
        assert_eq!(back.cache.filled(), 1);
        assert_eq!(back.cache.get(0), None);
        assert_eq!(back.cache.get(1), Some(Value::Int(7)));
    }

    #[test]
    fn nan_survives_the_round_trip() {
        let l = CacheLayout::new([(TermId(1), Type::Float, "x".to_string())]);
        let mut c = CacheBuf::new(1);
        c.set(0, Value::Float(f64::NAN));
        let back = round_trip(&c, &l, 0);
        assert!(back.cache.get(0).unwrap().bits_eq(&Value::Float(f64::NAN)));
    }

    #[test]
    fn truncated_file_is_malformed() {
        let l = layout();
        let text = save_store(&[(0, warm_cache())], l.fingerprint());
        for cut in [0, 1, text.len() / 2, text.len() - 3] {
            let err = parse_store(&text[..cut], &l).unwrap_err();
            assert!(
                matches!(err, IntegrityError::Malformed { .. }),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn corrupted_content_fails_the_checksum() {
        let l = layout();
        let text = save_store(&[(0, warm_cache())], l.fingerprint());
        // Flip one hex digit inside a slot's bit pattern.
        let idx = text.find("\"bits\": \"0x").expect("bits field") + 11;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(bytes).unwrap();
        let err = parse_store(&corrupted, &l).unwrap_err();
        assert!(
            matches!(err, IntegrityError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn layout_drift_is_rejected() {
        let l = layout();
        let text = save_store(&[(0, warm_cache())], l.fingerprint());
        // Same slot count, different producing terms.
        let other = CacheLayout::new([
            (TermId(9), Type::Float, "a * b".to_string()),
            (TermId(2), Type::Int, "n + 1".to_string()),
            (TermId(3), Type::Bool, "p".to_string()),
        ]);
        let err = parse_store(&text, &other).unwrap_err();
        assert!(
            matches!(err, IntegrityError::LayoutMismatch { .. }),
            "{err}"
        );
        // Different slot count entirely.
        let fewer = CacheLayout::new([(TermId(1), Type::Float, "a * b".to_string())]);
        let err = parse_store(&text, &fewer).unwrap_err();
        assert!(
            matches!(err, IntegrityError::LayoutMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn slot_type_drift_is_rejected_even_with_a_valid_checksum() {
        // A file whose checksum is honest but whose slot type contradicts
        // the layout (e.g. written by a drifted serializer): the per-slot
        // type check is the last line of defense.
        let l = layout();
        let mut c = CacheBuf::new(3);
        c.set(0, Value::Int(1)); // layout declares float
        let text = save_store(&[(0, c)], l.fingerprint());
        let err = parse_store(&text, &l).unwrap_err();
        assert_eq!(
            err,
            IntegrityError::SlotTypeDrift {
                slot: 0,
                expected: Type::Float,
                found: Type::Int
            }
        );
    }

    #[test]
    fn store_bundle_round_trips_every_entry() {
        let l = layout();
        let mut c2 = CacheBuf::new(3);
        c2.set(0, Value::Float(2.5));
        c2.set(1, Value::Int(-7));
        c2.set(2, Value::Bool(false));
        let entries = vec![(11u64, warm_cache()), (22u64, c2.clone())];
        let text = save_store(&entries, l.fingerprint());
        let back = parse_store(&text, &l).expect("load bundle");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].inputs_fingerprint, 11);
        assert_eq!(back[0].cache.content_hash(), warm_cache().content_hash());
        assert_eq!(back[1].inputs_fingerprint, 22);
        assert_eq!(back[1].cache.content_hash(), c2.content_hash());
    }

    #[test]
    fn corrupted_bundle_entry_rejects_the_whole_file() {
        let l = layout();
        let text = save_store(&[(1, warm_cache()), (2, warm_cache())], l.fingerprint());
        // Flip a hex digit inside the *second* entry's bit patterns.
        let idx = text.rfind("\"bits\": \"0x").expect("bits field") + 11;
        let mut bytes = text.into_bytes();
        bytes[idx] = if bytes[idx] == b'0' { b'1' } else { b'0' };
        let corrupted = String::from_utf8(bytes).unwrap();
        let err = parse_store(&corrupted, &l).unwrap_err();
        assert!(
            matches!(err, IntegrityError::ChecksumMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn bundle_from_a_different_layout_is_rejected() {
        let l = layout();
        let text = save_store(&[(1, warm_cache())], l.fingerprint());
        let other = CacheLayout::new([(TermId(9), Type::Float, "a * b".to_string())]);
        let err = parse_store(&text, &other).unwrap_err();
        assert!(
            matches!(err, IntegrityError::LayoutMismatch { .. }),
            "{err}"
        );
    }

    #[test]
    fn checkpoint_lsn_round_trips_and_is_checksummed() {
        let l = layout();
        let text = save_store_at(&[(1, warm_cache())], l.fingerprint(), 57);
        let (entries, lsn) = parse_store_with_lsn(&text, &l).expect("checkpoint");
        assert_eq!(entries.len(), 1);
        assert_eq!(lsn, 57);
        // Tampering with the chaining LSN must not silently change which
        // log records recovery replays.
        let tampered = text.replace("0x0000000000000039", "0x0000000000000038");
        let err = parse_store_with_lsn(&tampered, &l).unwrap_err();
        assert!(
            matches!(err, IntegrityError::ChecksumMismatch { .. }),
            "{err}"
        );
        // Dropping one of the two chaining fields is malformed.
        let dropped: String = text
            .lines()
            .filter(|line| !line.contains("header_checksum"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_store_with_lsn(&dropped, &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
    }

    /// Every bundle of this format carries its chaining fields: one
    /// without them is malformed, not a checkpoint covering nothing.
    #[test]
    fn bundles_without_chaining_fields_are_malformed() {
        let l = layout();
        let text = save_store(&[(1, warm_cache())], l.fingerprint());
        let stripped: String = text
            .lines()
            .filter(|line| !line.contains("wal_lsn") && !line.contains("header_checksum"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = parse_store_with_lsn(&stripped, &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
    }

    #[test]
    fn bundle_entry_count_drift_is_malformed() {
        let l = layout();
        let text = save_store(&[(1, warm_cache())], l.fingerprint());
        let tampered = text.replace("\"entry_count\": 1", "\"entry_count\": 2");
        let err = parse_store(&tampered, &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
    }

    #[test]
    fn foreign_envelopes_are_rejected() {
        let l = layout();
        let not_cache = ds_telemetry::envelope("run", vec![]).pretty();
        let err = parse_store(&not_cache, &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
        let err = parse_store("{}", &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
        // The retired single-entry format is a foreign envelope too.
        let single =
            ds_telemetry::envelope("cache", payload_fields(&warm_cache(), l.fingerprint(), 0));
        let err = parse_store(&single.pretty(), &l).unwrap_err();
        assert!(matches!(err, IntegrityError::Malformed { .. }), "{err}");
    }
}
