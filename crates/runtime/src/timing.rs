//! Per-request serving-path traces — the event-stream half of serving
//! observability.
//!
//! A [`Session`](crate::Session) always accumulates latency histograms
//! (`ds_telemetry::Timing`: cheap, fixed-size, mergeable). Tracing is the
//! opt-in, per-request view on top: when enabled, every `run` call also
//! appends one [`RequestTrace`] recording which lifecycle path the request
//! took (warm reader, store hit, loader run, fallback, error), its
//! end-to-end latency, and the ordered list of timed stages it passed
//! through. The CLI streams these as JSONL (`dsc serve --trace-out`).
//!
//! Like the histograms, traces are strictly additive telemetry: nothing in
//! the lifecycle consults them, and they never enter `RunnerStats` — the
//! deterministic-merge and engine-parity invariants are untouched.

use ds_telemetry::Json;
use std::fmt;

/// How one request was ultimately served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The session's local warm cache served it (reader only).
    Warm,
    /// A fingerprint switch was served from a shared-store entry.
    StoreHit,
    /// A loader run (cold load or budget-gated rebuild) served it.
    Load,
    /// The unspecialized fragment served it (degradation policy).
    Fallback,
    /// The request returned a typed error.
    Error,
}

impl RequestOutcome {
    /// The stable string form used in trace documents.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::Warm => "warm",
            RequestOutcome::StoreHit => "store_hit",
            RequestOutcome::Load => "load",
            RequestOutcome::Fallback => "fallback",
            RequestOutcome::Error => "error",
        }
    }
}

impl fmt::Display for RequestOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One request's trace event: lifecycle outcome, end-to-end latency, and
/// the ordered stages it passed through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Request index. Sessions assign their local 0-based serve order;
    /// a multi-worker driver rebases this to the global request index.
    pub seq: u64,
    /// Fingerprint of the request's invariant-input vector.
    pub inputs_fp: u64,
    /// How the request was served.
    pub outcome: RequestOutcome,
    /// End-to-end latency of the `run` call, in nanoseconds.
    pub total_nanos: u64,
    /// Timed stages in execution order (a stage may repeat when the
    /// lifecycle loops, e.g. a failed validation followed by a reload).
    pub stages: Vec<(&'static str, u64)>,
}

impl RequestTrace {
    /// Serializes the event as a compact-friendly JSON object. The
    /// fingerprint is hex-encoded: it is a full `u64` and JSON numbers
    /// are doubles.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::from(self.seq)),
            ("inputs_fp", Json::from(format!("{:016x}", self.inputs_fp))),
            ("outcome", Json::from(self.outcome.as_str())),
            ("total_nanos", Json::from(self.total_nanos)),
            (
                "stages",
                Json::Arr(
                    self.stages
                        .iter()
                        .map(|(name, nanos)| Json::Arr(vec![Json::from(*name), Json::from(*nanos)]))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_strings_are_stable() {
        for (o, s) in [
            (RequestOutcome::Warm, "warm"),
            (RequestOutcome::StoreHit, "store_hit"),
            (RequestOutcome::Load, "load"),
            (RequestOutcome::Fallback, "fallback"),
            (RequestOutcome::Error, "error"),
        ] {
            assert_eq!(o.as_str(), s);
            assert_eq!(o.to_string(), s);
        }
    }

    #[test]
    fn trace_serializes_fingerprints_as_hex() {
        let t = RequestTrace {
            seq: 3,
            inputs_fp: 0xdead_beef_0000_0001,
            outcome: RequestOutcome::StoreHit,
            total_nanos: 12_345,
            stages: vec![("store_probe", 400), ("validate", 100), ("read", 900)],
        };
        let doc = t.to_json();
        assert_eq!(
            doc.get("inputs_fp").unwrap().as_str(),
            Some("deadbeef00000001")
        );
        assert_eq!(doc.get("outcome").unwrap().as_str(), Some("store_hit"));
        let stages = doc.get("stages").unwrap().as_arr().unwrap();
        assert_eq!(stages.len(), 3);
        assert_eq!(stages[0].as_arr().unwrap()[0].as_str(), Some("store_probe"));
        // Compact form is one line and parses back.
        let line = doc.compact();
        assert!(!line.contains('\n'));
        assert_eq!(ds_telemetry::parse(&line).unwrap(), doc);
    }
}
