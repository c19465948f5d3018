//! # ds-telemetry — observability for the specialization pipeline
//!
//! The specializer's whole contribution is *which* computations move into
//! the cache and *why* (the dependence and caching Rules of Figure 3, the
//! victim evictions of §4.3) — yet a bare `Specialization` records none of
//! the reasoning that produced it. This crate holds the shared vocabulary
//! every layer reports in:
//!
//! * [`PhaseSpan`] / [`SpecReport`] — per-pass wall time, term counts and
//!   fixpoint iteration counts, accumulated by `ds_core::specialize`;
//! * [`TraceEvent`] — structured decision events (`TermLabeled`,
//!   `VictimEvicted`) attributing every static/cached/dynamic verdict to
//!   the Figure-3 rule that produced it;
//! * [`json`] — the dependency-free JSON value type, writer **and** reader
//!   used for `--metrics-out` export and its round-trip validation;
//! * [`envelope`] / [`validate_envelope`] — the versioned document frame
//!   (`schema` + `version` fields) every exported metrics file carries;
//! * [`hash`] — the word-at-a-time 64-bit hash behind layout
//!   fingerprints, cache seals, request fingerprints and the runtime's
//!   log and cache-file checksums, and (as [`StageMap`] / [`StageSet`])
//!   behind the hash maps the specializer and the compiler build;
//! * [`LatencyHist`] / [`Timing`] — mergeable log2-bucket latency
//!   histograms for the *serving* path. Wall time is nondeterministic, so
//!   it travels in this side-channel beside the deterministic metrics
//!   `Profile`, never inside it (the parity suites depend on that split);
//! * [`ServeCounters`] — lock-free admission/backpressure/drain counters
//!   for the online serving daemon (queue depth high-water mark, shed and
//!   deadline-miss totals), exported into the serve envelope;
//! * [`FusionStats`] — superinstruction-fusion planning stats for the
//!   batch VM. Fusion may only change wall time, never results or
//!   `Profile` counters, so its bookkeeping rides in this side-channel
//!   like the latency histograms.
//!
//! The crate is a leaf: it depends on nothing, so the interpreter, the
//! specializer, the CLI and the bench harness can all speak it without
//! cycles. Decision identifiers are plain `u32` term ids rather than
//! `ds_lang::TermId` for the same reason.
//!
//! Telemetry is strictly additive: nothing recorded here is consulted by
//! the analyses or the evaluators, so collection can be disabled with zero
//! behavioural difference (the differential suites enforce this).

#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod fusion;
pub mod hash;
pub mod hist;
pub mod json;
pub mod span;

pub use counters::ServeCounters;
pub use event::TraceEvent;
pub use fusion::{FusedPair, FusionStats};
pub use hash::{hash64, BuildStageHasher, Hash64, StageHasher, StageMap, StageSet};
pub use hist::{format_nanos, LatencyHist, Timing};
pub use json::{parse, Json, JsonError};
pub use span::{PhaseSpan, SpecReport};

/// The `schema` field every exported metrics document carries.
pub const SCHEMA_NAME: &str = "ds-telemetry";

/// The current metrics schema version. Bump on any breaking change to the
/// exported JSON shape; consumers reject documents with a different major.
pub const SCHEMA_VERSION: u32 = 1;

/// Wraps `body` in the versioned metrics envelope:
///
/// ```json
/// { "schema": "ds-telemetry", "version": 1, "kind": "<kind>", ... }
/// ```
///
/// `kind` names the producer (`"run"`, `"measure"`, `"explain"`,
/// `"bench"`), so one validator serves every export path.
pub fn envelope(kind: &str, body: Vec<(String, Json)>) -> Json {
    let mut pairs = vec![
        ("schema".to_string(), Json::from(SCHEMA_NAME)),
        ("version".to_string(), Json::Num(f64::from(SCHEMA_VERSION))),
        ("kind".to_string(), Json::from(kind)),
    ];
    pairs.extend(body);
    Json::Obj(pairs)
}

/// Checks that `doc` is a well-formed metrics envelope of the current
/// schema version, returning its `kind`.
///
/// # Errors
///
/// A human-readable description of the first violation: not an object,
/// missing/mismatched `schema`, missing/unsupported `version`, or a
/// missing `kind`.
pub fn validate_envelope(doc: &Json) -> Result<String, String> {
    let Json::Obj(_) = doc else {
        return Err("metrics document is not a JSON object".to_string());
    };
    match doc.get("schema").and_then(Json::as_str) {
        Some(SCHEMA_NAME) => {}
        Some(other) => return Err(format!("unexpected schema `{other}`")),
        None => return Err("missing `schema` field".to_string()),
    }
    match doc.get("version").and_then(Json::as_f64) {
        Some(v) if v == f64::from(SCHEMA_VERSION) => {}
        Some(v) => return Err(format!("unsupported schema version {v}")),
        None => return Err("missing `version` field".to_string()),
    }
    doc.get("kind")
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "missing `kind` field".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips_and_validates() {
        let doc = envelope("run", vec![("cost".to_string(), Json::Num(19.0))]);
        let text = doc.pretty();
        let back = parse(&text).expect("parse");
        assert_eq!(back, doc);
        assert_eq!(validate_envelope(&back).unwrap(), "run");
    }

    #[test]
    fn validation_rejects_foreign_documents() {
        assert!(validate_envelope(&Json::Num(1.0)).is_err());
        let missing = Json::obj([("version", Json::Num(1.0))]);
        assert!(validate_envelope(&missing).unwrap_err().contains("schema"));
        let wrong = envelope("run", vec![]);
        let Json::Obj(mut pairs) = wrong else {
            unreachable!()
        };
        pairs[1].1 = Json::Num(999.0);
        assert!(validate_envelope(&Json::Obj(pairs))
            .unwrap_err()
            .contains("version"));
        let unkinded = Json::obj([
            ("schema", Json::from(SCHEMA_NAME)),
            ("version", Json::Num(f64::from(SCHEMA_VERSION))),
        ]);
        assert!(validate_envelope(&unkinded).unwrap_err().contains("kind"));
    }
}
