//! Superinstruction-fusion statistics for the batch VM.
//!
//! Profile-guided fusion (see `ds_interp::compile::fuse_hot_pairs`) rewrites
//! hot adjacent opcode pairs of a compiled program into combined handlers.
//! The rewrite is *semantically invisible* — fused execution produces the
//! same values, the same abstract cost and the same `Profile` counters as
//! the unfused program (the parity suites enforce it) — so everything about
//! the fusion decision travels in this side-channel struct, never inside
//! the deterministic metrics `Profile`. The split mirrors
//! [`LatencyHist`](crate::LatencyHist): wall-time-only artifacts must not
//! contaminate documents that the differential oracles compare bit-exactly.
//!
//! `Profile` here refers to `ds_interp::Profile`; this crate is a leaf and
//! names it only in prose.

use crate::json::Json;

/// One fused opcode-pair kind selected by the profile-guided planner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FusedPair {
    /// Mnemonic of the first constituent opcode (e.g. `"mul"`).
    pub first: String,
    /// Mnemonic of the second constituent opcode (e.g. `"add"`).
    pub second: String,
    /// Number of static code sites rewritten to this pair.
    pub sites: u64,
    /// The planner's hotness score: the sum of the two mnemonics' counts
    /// in the guiding opcode histogram.
    pub score: u64,
}

/// Outcome of one fusion planning pass over a compiled program.
///
/// Purely descriptive: consumed by `dsc explain`, the bench tables and the
/// `BENCH_repro.json` batch section. Never enters a `Profile`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FusionStats {
    /// Pair kinds actually selected, hottest first.
    pub selected: Vec<FusedPair>,
    /// Adjacent fusible pairs seen while scanning (before selection).
    pub candidate_sites: u64,
    /// Static code sites rewritten into superinstructions.
    pub fused_sites: u64,
}

impl FusionStats {
    /// Renders the stats as a JSON object for metrics envelopes.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "selected",
                Json::Arr(
                    self.selected
                        .iter()
                        .map(|p| {
                            Json::obj([
                                ("first", Json::from(p.first.as_str())),
                                ("second", Json::from(p.second.as_str())),
                                ("sites", Json::Num(p.sites as f64)),
                                ("score", Json::Num(p.score as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("candidate_sites", Json::Num(self.candidate_sites as f64)),
            ("fused_sites", Json::Num(self.fused_sites as f64)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_selected_pairs() {
        let stats = FusionStats {
            selected: vec![FusedPair {
                first: "mul".into(),
                second: "add".into(),
                sites: 3,
                score: 120,
            }],
            candidate_sites: 7,
            fused_sites: 3,
        };
        let j = stats.to_json();
        assert_eq!(j.get("fused_sites").and_then(Json::as_f64), Some(3.0));
        let text = j.pretty();
        assert!(text.contains("\"mul\"") && text.contains("\"add\""));
        let back = crate::parse(&text).expect("round trip");
        assert_eq!(
            back.get("candidate_sites").and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn default_is_empty() {
        let stats = FusionStats::default();
        assert_eq!(
            stats.to_json().get("fused_sites").and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(stats.selected.is_empty());
    }
}
