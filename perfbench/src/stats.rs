//! Percentiles, the seeded generator and the output digest.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it. `p` is
/// clamped to `[0, 100]`; an empty slice yields `NaN`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let n = sorted.len();
    let rank = (p.clamp(0.0, 100.0) / 100.0 * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Sorts a copy of `values` (NaN-free by construction; refused or
/// failed operations are `+inf`, which sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Each item's own time in a sequential run: the gap between its finish
/// and the previous finish (the first measured from the start). `done`
/// holds when each item finished (`None`: never, which gives +inf).
pub fn gaps(done: &[Option<f64>]) -> Vec<f64> {
    let mut order: Vec<(f64, usize)> = done
        .iter()
        .enumerate()
        .map(|(i, d)| (d.unwrap_or(f64::INFINITY), i))
        .collect();
    order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut gaps = vec![f64::INFINITY; done.len()];
    let mut previous = 0.0;
    for (at, i) in order {
        gaps[i] = at - previous;
        previous = at;
    }
    gaps
}

/// SplitMix64: a tiny, fully specified generator, so a seed means the
/// same inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` within `stream` (streams keep the net set
    /// and the arrival schedule independent).
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
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
}

/// FNV-1a over everything fed to it; printed as the output digest.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// Feeds one solved net: required time by bit pattern, buffer area
    /// and the serving tier's label.
    pub fn net(&mut self, req_ps: f64, area: u64, tier: &str) {
        self.bytes(&req_ps.to_bits().to_le_bytes());
        self.bytes(&area.to_le_bytes());
        self.bytes(tier.as_bytes());
        self.bytes(&[0]);
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_smallest_sample_covering_p() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&[7.0], 90.0), 7.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn p90_of_a_hundred_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = nearest_rank(&v, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > p90).count(), 10);
    }

    #[test]
    fn refused_operations_sort_last_and_miss_every_limit() {
        let v = sorted(&[3.0, f64::INFINITY, 1.0, 2.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0, f64::INFINITY]);
        assert_eq!(nearest_rank(&v, 100.0), f64::INFINITY);
        assert_eq!(median(&[3.0, f64::INFINITY, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn gaps_follow_finish_order_and_lost_items_are_infinite() {
        // Item 1 finishes first, then item 0; item 2 never does.
        let g = gaps(&[Some(30.0), Some(10.0), None]);
        assert_eq!(&g[..2], &[20.0, 10.0]);
        assert!(g[2].is_infinite());
    }

    #[test]
    fn rng_streams_are_reproducible_and_distinct() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
    }

    #[test]
    fn unit_draws_stay_in_range_and_spread_evenly() {
        let mut r = Rng::new(9, 3);
        let draws: Vec<f64> = (0..20_000).map(|_| r.unit()).collect();
        assert!(draws.iter().all(|u| (0.0..1.0).contains(u)));
        let m = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((m - 0.5).abs() < 0.01, "mean {m}");
    }

    #[test]
    fn digest_depends_on_every_field() {
        let one = |req: f64, area, tier| {
            let mut d = Digest::default();
            d.net(req, area, tier);
            d.value()
        };
        let base = one(1.5, 10, "merlin");
        assert_eq!(base, one(1.5, 10, "merlin"));
        assert_ne!(base, one(1.5000001, 10, "merlin"));
        assert_ne!(base, one(1.5, 11, "merlin"));
        assert_ne!(base, one(1.5, 10, "ptree+vg"));
    }
}
