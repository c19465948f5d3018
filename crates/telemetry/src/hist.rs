//! Mergeable latency histograms and the serving-path [`Timing`]
//! side-channel.
//!
//! Timing data is the one metric the engine-parity suites can never gate:
//! two runs of the same request legitimately read different clocks. The
//! [`Profile`](`crate`) invariants therefore stay untouched — wall time
//! travels in a [`Timing`] object *beside* the deterministic metrics,
//! never inside them, and the parity tests keep asserting byte-identical
//! profiles while latency rides its own channel.
//!
//! [`LatencyHist`] is a fixed-size log2-bucket histogram: recording is two
//! instructions (a `leading_zeros` and an increment), merging is bucket-wise
//! addition (associative and commutative, so per-worker histograms combine
//! deterministically whatever the interleaving was), and quantiles are read
//! as bucket upper bounds — within 2x of the true value, which is exactly
//! the fidelity a log-scale latency distribution calls for.

use crate::json::Json;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Number of buckets: bucket 0 holds the value 0, bucket `i >= 1` holds
/// values in `[2^(i-1), 2^i)`. 64 buckets cover the whole `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A fixed-size log2-bucket histogram of nanosecond latencies.
///
/// * `record` is O(1) and allocation-free;
/// * `merge` is bucket-wise addition — associative, commutative, and
///   exact (no resampling), so a merged histogram *is* the histogram of
///   the concatenated samples;
/// * `quantile(q)` returns the upper bound of the bucket holding the
///   rank-`q` sample, clamped to the observed maximum so `quantile(1.0)`
///   is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHist {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    /// Exact largest recorded value (0 when empty).
    max: u64,
    /// Saturating sum of recorded values, for mean estimates.
    sum: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            counts: [0; HIST_BUCKETS],
            count: 0,
            max: 0,
            sum: 0,
        }
    }
}

/// The bucket a value lands in: 0 for 0, otherwise `floor(log2(v)) + 1`.
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the largest value it can hold).
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HIST_BUCKETS {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl LatencyHist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample (nanoseconds).
    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos).min(HIST_BUCKETS - 1)] += 1;
        self.count += 1;
        self.max = self.max.max(nanos);
        self.sum = self.sum.saturating_add(nanos);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Whether no sample has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The exact largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples (0 when empty; saturating sum).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Count in bucket `i` (0 for out-of-range indexes).
    pub fn bucket(&self, i: usize) -> u64 {
        self.counts.get(i).copied().unwrap_or(0)
    }

    /// Accumulates `other` into `self`, bucket-wise. Associative and
    /// commutative; the merge of per-worker histograms equals the
    /// histogram of the concatenated per-worker samples.
    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as the upper bound of the bucket
    /// holding the rank-`ceil(q * count)` sample, clamped to the observed
    /// maximum (so `quantile(1.0) == max()` exactly). Returns 0 for an
    /// empty histogram. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median latency (upper bucket bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency (upper bucket bound).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency (upper bucket bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Serializes the histogram losslessly: scalar counters plus a sparse
    /// `[bucket, count]` list (dense zero runs are omitted). `sum_nanos`
    /// travels as a decimal string — a long run's sum exceeds 2^53 and
    /// would be rounded by the JSON layer's f64 numbers.
    pub fn to_json(&self) -> Json {
        let buckets = Json::Arr(
            self.counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| Json::Arr(vec![Json::from(i), Json::from(c)]))
                .collect(),
        );
        Json::obj([
            ("count", Json::from(self.count)),
            ("max_nanos", Json::from(self.max)),
            ("sum_nanos", Json::from(self.sum.to_string())),
            ("buckets", buckets),
        ])
    }

    /// Parses a histogram serialized by [`LatencyHist::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first structural violation (missing field,
    /// bucket index out of range, counts that do not sum to `count`).
    pub fn from_json(doc: &Json) -> Result<LatencyHist, String> {
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("latency histogram: missing numeric `{k}`"))
        };
        // Accept both the string form `to_json` writes and a plain
        // number (hand-written or truncated-precision documents).
        let sum = match doc.get("sum_nanos") {
            Some(Json::Str(s)) => s
                .parse::<u64>()
                .map_err(|_| format!("latency histogram: bad `sum_nanos` string `{s}`"))?,
            Some(j) => j
                .as_u64()
                .ok_or("latency histogram: `sum_nanos` is not a count")?,
            None => return Err("latency histogram: missing numeric `sum_nanos`".into()),
        };
        let mut h = LatencyHist {
            count: field("count")?,
            max: field("max_nanos")?,
            sum,
            ..LatencyHist::default()
        };
        let buckets = doc
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or("latency histogram: missing `buckets` array")?;
        let mut total = 0u64;
        for b in buckets {
            let pair = b.as_arr().filter(|p| p.len() == 2);
            let (i, c) = match pair.map(|p| (p[0].as_u64(), p[1].as_u64())) {
                Some((Some(i), Some(c))) => (i as usize, c),
                _ => return Err("latency histogram: bucket is not [index, count]".into()),
            };
            if i >= HIST_BUCKETS {
                return Err(format!("latency histogram: bucket index {i} out of range"));
            }
            h.counts[i] += c;
            total += c;
        }
        if total != h.count {
            return Err(format!(
                "latency histogram: buckets sum to {total}, count says {}",
                h.count
            ));
        }
        Ok(h)
    }

    /// Serializes the human-facing summary (count, mean and quantiles)
    /// *plus* the full histogram under `"hist"`, so consumers get readable
    /// percentiles and mergeable raw buckets from one object.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("count", Json::from(self.count)),
            ("mean_nanos", Json::from(self.mean())),
            ("p50_nanos", Json::from(self.p50())),
            ("p90_nanos", Json::from(self.p90())),
            ("p99_nanos", Json::from(self.p99())),
            ("max_nanos", Json::from(self.max)),
            ("hist", self.to_json()),
        ])
    }
}

/// Formats a nanosecond latency at human scale (`412ns`, `3.2µs`,
/// `1.5ms`, `2.0s`).
pub fn format_nanos(nanos: u64) -> String {
    let n = nanos as f64;
    if nanos < 1_000 {
        format!("{nanos}ns")
    } else if nanos < 1_000_000 {
        format!("{:.1}µs", n / 1e3)
    } else if nanos < 1_000_000_000 {
        format!("{:.1}ms", n / 1e6)
    } else {
        format!("{:.1}s", n / 1e9)
    }
}

/// Per-request serving-path timing: one end-to-end histogram plus one
/// histogram per named stage (`"store_probe"`, `"load"`, `"validate"`,
/// `"read"`, `"wal_append"`, ...).
///
/// This is the **nondeterministic side-channel** beside the deterministic
/// metrics: it is never consulted by the analyses or the engines, never
/// merged into a [`Profile`](`crate`), and never part of stats equality —
/// so collecting it cannot perturb any parity or determinism invariant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Timing {
    /// End-to-end request latency (entry to exit of one serve call).
    pub total: LatencyHist,
    /// Per-stage latency, keyed by stage name (ordered, so exports are
    /// stable given the same set of stages). Names recorded in-process are
    /// static and borrowed, so recording or merging a stage allocates no
    /// key; names parsed from JSON are owned.
    pub stages: BTreeMap<Cow<'static, str>, LatencyHist>,
}

impl Timing {
    /// An empty timing record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one end-to-end request latency.
    pub fn record_total(&mut self, nanos: u64) {
        self.total.record(nanos);
    }

    /// Records one stage latency under `stage`.
    pub fn record_stage(&mut self, stage: &'static str, nanos: u64) {
        self.stages
            .entry(Cow::Borrowed(stage))
            .or_default()
            .record(nanos);
    }

    /// The histogram of `stage`, if any sample was recorded for it.
    pub fn stage(&self, stage: &str) -> Option<&LatencyHist> {
        self.stages.get(stage)
    }

    /// Accumulates `other` into `self`: the end-to-end histograms merge
    /// bucket-wise and stages merge key-wise. Associative and commutative.
    pub fn merge(&mut self, other: &Timing) {
        self.total.merge(&other.total);
        for (name, h) in &other.stages {
            if let Some(mine) = self.stages.get_mut(name) {
                mine.merge(h);
            } else {
                self.stages.insert(name.clone(), h.clone());
            }
        }
    }

    /// Serializes as `{end_to_end: <summary>, stages: {name: <summary>}}`
    /// where each summary carries quantiles plus the raw histogram (see
    /// [`LatencyHist::summary_json`]).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("end_to_end", self.total.summary_json()),
            (
                "stages",
                Json::Obj(
                    self.stages
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.summary_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Parses a timing object serialized by [`Timing::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first structural violation.
    pub fn from_json(doc: &Json) -> Result<Timing, String> {
        let hist_of = |summary: &Json| {
            summary
                .get("hist")
                .ok_or("timing: summary missing `hist`".to_string())
                .and_then(LatencyHist::from_json)
        };
        let total = hist_of(
            doc.get("end_to_end")
                .ok_or("timing: missing `end_to_end`")?,
        )?;
        let mut stages = BTreeMap::new();
        match doc.get("stages") {
            Some(Json::Obj(pairs)) => {
                for (name, summary) in pairs {
                    stages.insert(Cow::Owned(name.clone()), hist_of(summary)?);
                }
            }
            _ => return Err("timing: missing `stages` object".into()),
        }
        Ok(Timing { total, stages })
    }
}

impl fmt::Display for LatencyHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={} p90={} p99={} max={}",
            self.count,
            format_nanos(self.p50()),
            format_nanos(self.p90()),
            format_nanos(self.p99()),
            format_nanos(self.max)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_zero_special_cased() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn quantiles_bound_the_samples_within_a_bucket() {
        let mut h = LatencyHist::new();
        for v in [100u64, 200, 300, 400, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.max(), 5000);
        // p50 is the 3rd sample (300) rounded up to its bucket bound (511).
        assert_eq!(h.p50(), 511);
        // The top quantiles clamp to the exact max.
        assert_eq!(h.quantile(1.0), 5000);
        assert!(h.p99() <= 5000 && h.p99() >= 4096);
        // Monotone in q.
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn merge_is_sample_concatenation() {
        let mut a = LatencyHist::new();
        let mut b = LatencyHist::new();
        let mut all = LatencyHist::new();
        for v in [1u64, 7, 130] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 9_000_000, 17] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all);
        // Commutative.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, merged);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut h = LatencyHist::new();
        for v in [0u64, 1, 3, 900, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let back = LatencyHist::from_json(&h.to_json()).expect("round trip");
        assert_eq!(back, h);
        // An empty histogram round-trips too.
        let empty = LatencyHist::new();
        assert_eq!(
            LatencyHist::from_json(&empty.to_json()).expect("empty"),
            empty
        );
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        assert!(LatencyHist::from_json(&Json::Null).is_err());
        let missing = Json::obj([("count", Json::from(1u64))]);
        assert!(LatencyHist::from_json(&missing).is_err());
        // A count that disagrees with the buckets is rejected.
        let mut h = LatencyHist::new();
        h.record(5);
        let Json::Obj(mut pairs) = h.to_json() else {
            unreachable!()
        };
        pairs[0].1 = Json::from(2u64);
        assert!(LatencyHist::from_json(&Json::Obj(pairs))
            .unwrap_err()
            .contains("sum"));
    }

    #[test]
    fn timing_merges_key_wise_and_round_trips() {
        let mut a = Timing::new();
        a.record_total(100);
        a.record_stage("read", 40);
        a.record_stage("load", 900);
        let mut b = Timing::new();
        b.record_total(2_000);
        b.record_stage("read", 60);
        b.record_stage("wal_append", 10_000);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.total.count(), 2);
        assert_eq!(merged.stage("read").unwrap().count(), 2);
        assert_eq!(merged.stage("load").unwrap().count(), 1);
        assert_eq!(merged.stage("wal_append").unwrap().count(), 1);
        let back = Timing::from_json(&merged.to_json()).expect("round trip");
        assert_eq!(back, merged);
        // Recorded and merged names are borrowed statics: neither
        // recording nor merging allocates a key. Parsed names are owned.
        assert!(merged.stages.keys().all(|k| matches!(k, Cow::Borrowed(_))));
        assert!(back.stages.keys().all(|k| matches!(k, Cow::Owned(_))));
    }

    #[test]
    fn summary_json_carries_quantiles_and_raw_buckets() {
        let mut h = LatencyHist::new();
        for v in 1..=100u64 {
            h.record(v * 1000);
        }
        let s = h.summary_json();
        assert_eq!(s.get("count").unwrap().as_u64(), Some(100));
        assert_eq!(s.get("p50_nanos").unwrap().as_u64(), Some(h.p50()));
        assert_eq!(s.get("max_nanos").unwrap().as_u64(), Some(100_000));
        assert_eq!(
            LatencyHist::from_json(s.get("hist").unwrap()).expect("hist"),
            h
        );
    }

    #[test]
    fn nanos_format_at_human_scale() {
        assert_eq!(format_nanos(412), "412ns");
        assert_eq!(format_nanos(3_200), "3.2µs");
        assert_eq!(format_nanos(1_500_000), "1.5ms");
        assert_eq!(format_nanos(2_000_000_000), "2.0s");
    }
}
