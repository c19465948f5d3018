//! Seeded input generators.
//!
//! Every input the workloads feed the program is drawn here from the
//! `--seed` given on the command line: the partition order of `drag`, its
//! slider walks, the Zipf-distributed invariant contexts and the arrival
//! schedule of `churn`, and the sweeps of `catalog`. The program under test
//! sees only the argument vectors these produce. Each purpose draws from
//! its own stream, so adding draws to one generator never shifts another.

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

/// Stream identifiers; one per generator purpose.
pub mod stream {
    /// Partition order of `drag`.
    pub const PARTITIONS: u64 = 1;
    /// Slider walks of `drag`.
    pub const SLIDER: u64 = 2;
    /// Which pixels of a `drag` frame are checked against the reference.
    pub const SAMPLE: u64 = 3;
    /// Invariant contexts of `churn`.
    pub const CONTEXTS: u64 = 4;
    /// Varying inputs and Zipf draws of `churn` requests.
    pub const REQUESTS: u64 = 5;
    /// Arrival schedule of the `churn` open loop.
    pub const ARRIVALS: u64 = 6;
    /// Partition order, pixels and sweeps of `catalog`.
    pub const CATALOG: u64 = 7;
}

impl Rng {
    /// The stream `stream` of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        // Decorrelate nearby seeds before the first draw.
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A stateless draw: the `index`-th value of `stream` of `seed`, so a
/// request's inputs can be regenerated from its sequence number alone.
pub fn at(seed: u64, stream: u64, index: u64) -> Rng {
    Rng::new(seed ^ index.wrapping_mul(0xD6E8_FEB8_6659_FD93), stream)
}

/// A stratified order over every (shader, control) partition: each
/// shader's controls are visited in a seeded order, and each round visits
/// every shader that has controls left once, in a seeded shader order. Any
/// prefix of the order mixes cheap and expensive shaders evenly, and the
/// whole order visits every partition exactly once.
pub fn partition_order(seed: u64, controls: &[usize]) -> Vec<(usize, usize)> {
    let mut rng = Rng::new(seed, stream::PARTITIONS);
    let per_shader: Vec<Vec<usize>> = controls
        .iter()
        .map(|&n| {
            let mut c: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut c);
            c
        })
        .collect();
    let mut out = Vec::with_capacity(controls.iter().sum());
    for round in 0..controls.iter().copied().max().unwrap_or(0) {
        let mut shaders: Vec<usize> = (0..controls.len()).collect();
        rng.shuffle(&mut shaders);
        for s in shaders {
            if let Some(&c) = per_shader[s].get(round) {
                out.push((s, c));
            }
        }
    }
    out
}

/// A drag across a control's range: `steps` positions inside the range
/// spanned by `start` and `anchors` (values the control is known to
/// accept), one in each equal stratum of the range, jittered by the seed
/// and visited in a seeded direction. Stratifying keeps the mix of
/// positions, and so the work they cost, alike from seed to seed.
pub fn slider_walk(rng: &mut Rng, anchors: &[f64], start: f64, steps: usize) -> Vec<f64> {
    let lo = anchors.iter().copied().fold(start, f64::min);
    let hi = anchors.iter().copied().fold(start, f64::max);
    let mut walk: Vec<f64> = (0..steps)
        .map(|k| lo + (hi - lo) * (k as f64 + rng.unit()) / steps as f64)
        .collect();
    if rng.unit() < 0.5 {
        walk.reverse();
    }
    walk
}

/// A Zipf distribution over `0..n` with exponent `s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) has weight `1 / (k + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n.max(1))
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Poisson arrivals at `rate` per second over `duration_ns`: the due
/// times, in nanoseconds from the start of the phase.
pub fn arrival_schedule(rng: &mut Rng, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mean_gap = 1e9 / rate;
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        // Inverse-CDF exponential draw; `1 - u` keeps the log finite.
        t += -mean_gap * (1.0 - rng.unit()).ln();
        if t >= duration_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_per_seed() {
        let controls = [12, 14, 13, 15, 12, 13, 13, 14, 13, 12];
        assert_eq!(partition_order(7, &controls), partition_order(7, &controls));
        assert_ne!(partition_order(7, &controls), partition_order(8, &controls));
        let walk = |seed| slider_walk(&mut Rng::new(seed, stream::SLIDER), &[0.0, 2.0], 1.0, 9);
        assert_eq!(walk(3), walk(3));
        assert_ne!(walk(3), walk(4));
        let z = Zipf::new(100, 1.1);
        let draws = |seed| {
            let mut r = Rng::new(seed, stream::REQUESTS);
            (0..50).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        let sched = |seed| arrival_schedule(&mut Rng::new(seed, stream::ARRIVALS), 1e4, 10_000_000);
        assert_eq!(sched(1), sched(1));
        assert_ne!(sched(1), sched(2));
        assert_eq!(at(9, 1, 4).next_u64(), at(9, 1, 4).next_u64());
        assert_ne!(at(9, 1, 4).next_u64(), at(9, 1, 5).next_u64());
    }

    #[test]
    fn partition_order_visits_every_partition_once_round_by_round() {
        let controls = [3, 1, 2];
        let order = partition_order(11, &controls);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 1)]);
        // Round one visits every shader before any shader repeats.
        let mut first: Vec<usize> = order[..3].iter().map(|p| p.0).collect();
        first.sort_unstable();
        assert_eq!(first, vec![0, 1, 2]);
    }

    #[test]
    fn slider_walk_puts_one_position_in_each_stratum() {
        let mut rng = Rng::new(1, stream::SLIDER);
        for _ in 0..50 {
            let walk = slider_walk(&mut rng, &[-1.0, 3.0], 0.5, 8);
            let mut strata: Vec<usize> = walk
                .iter()
                .map(|v| ((v + 1.0) / 4.0 * 8.0) as usize)
                .collect();
            assert!(walk.windows(2).all(|w| w[0] < w[1]) || walk.windows(2).all(|w| w[0] > w[1]));
            strata.sort_unstable();
            assert_eq!(strata, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_favours_low_ranks_and_arrivals_match_rate() {
        let z = Zipf::new(64, 1.0);
        let mut r = Rng::new(2, stream::REQUESTS);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        let sched = arrival_schedule(&mut Rng::new(3, stream::ARRIVALS), 10_000.0, 1_000_000_000);
        assert!((9_000..11_000).contains(&sched.len()), "{}", sched.len());
        assert!(sched.windows(2).all(|w| w[0] <= w[1]));
    }
}
