//! Seeded workload generators.
//!
//! [`WorkloadSpec::paper`] reproduces the paper's evaluation dataset:
//! `n` 100-byte records whose ten i32 attributes are uniform over the full
//! `i32` range and pairwise independent (§5: "the data was randomly
//! generated, each integer has a value from -MAXINT to MAXINT, the values
//! are uniformly distributed, and the columns are pairwise independent").
//!
//! The correlated / anti-correlated distributions follow the skyline
//! literature (Börzsönyi et al., ICDE 2001): correlated data has tiny
//! skylines, anti-correlated data has huge ones — the stress case the
//! paper's §6 calls out ("with 100% anti-correlation, the skyline is the
//! table itself").

use crate::record::RecordLayout;
use crate::rng::Rng;

/// Attribute-value distribution across the record's dimensions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Every attribute independently uniform over the domain. The paper's
    /// evaluation distribution.
    UniformIndependent,
    /// All attributes cluster around a common per-tuple base value;
    /// `jitter` ∈ (0,1] is the relative spread. Produces tiny skylines.
    Correlated {
        /// Relative spread around the shared base value.
        jitter: f64,
    },
    /// Tuples lie near the hyperplane `Σ xᵢ ≈ d/2` so that being good in
    /// one dimension means being bad in others. Produces huge skylines.
    AntiCorrelated {
        /// Relative off-plane spread.
        jitter: f64,
    },
    /// Tuples drawn around `clusters` random centroids with the given
    /// relative spread (models clustered-index-ordered real data).
    Clustered {
        /// Number of centroids.
        clusters: usize,
        /// Relative spread around each centroid.
        spread: f64,
    },
    /// Heavy-tailed marginals: each attribute is `u^exponent` for
    /// `u ~ U(0,1)`, independently — most mass near the low end of the
    /// domain. Stresses the uniformity assumption behind min/max
    /// normalization (paper §4.3); see `skyline-core`'s histogram
    /// normalizer.
    Skewed {
        /// Tail exponent (> 1 skews low; 4 is a strong skew).
        exponent: f64,
    },
}

/// Complete description of a synthetic dataset. Generation is a pure
/// function of the spec (and in particular of `seed`).
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of records.
    pub n: usize,
    /// Record layout.
    pub layout: RecordLayout,
    /// Value distribution.
    pub dist: Distribution,
    /// Inclusive attribute domain.
    pub domain: (i32, i32),
    /// RNG seed.
    pub seed: u64,
}

impl WorkloadSpec {
    /// The paper's million-tuple dataset (scaled to `n`): PAPER layout,
    /// uniform independent attributes over the full i32 range.
    pub fn paper(n: usize, seed: u64) -> Self {
        WorkloadSpec {
            n,
            layout: RecordLayout::PAPER,
            dist: Distribution::UniformIndependent,
            domain: (i32::MIN + 1, i32::MAX), // symmetric ±MAXINT as in §5
            seed,
        }
    }

    /// The paper's dimensional-reduction dataset: attribute domains 0–9.
    pub fn small_domain(n: usize, seed: u64) -> Self {
        WorkloadSpec {
            domain: (0, 9),
            ..WorkloadSpec::paper(n, seed)
        }
    }

    /// Generate the encoded records.
    ///
    /// # Panics
    /// When the domain is empty (`lo > hi`).
    pub fn generate(&self) -> Vec<Vec<u8>> {
        let mut rng = Rng::seed_from_u64(self.seed);
        let (lo, hi) = self.domain;
        assert!(lo <= hi, "empty domain");
        let width = (i64::from(hi) - i64::from(lo)) as f64 + 1.0;
        let d = self.layout.dims;

        // Map a unit-interval coordinate to the integer domain.
        let to_domain = |x: f64| -> i32 {
            let x = x.clamp(0.0, 1.0 - f64::EPSILON);
            (i64::from(lo) + (x * width) as i64).min(i64::from(hi)) as i32
        };

        let centroids: Vec<Vec<f64>> = match self.dist {
            Distribution::Clustered { clusters, .. } => (0..clusters.max(1))
                .map(|_| (0..d).map(|_| rng.f64()).collect())
                .collect(),
            _ => Vec::new(),
        };

        let mut attrs = vec![0i32; d];
        let mut out = Vec::with_capacity(self.n);
        let mut payload = vec![0u8; self.layout.payload];
        for _ in 0..self.n {
            match self.dist {
                Distribution::UniformIndependent => {
                    for a in attrs.iter_mut() {
                        *a = rng.i32_inclusive(lo, hi);
                    }
                }
                Distribution::Correlated { jitter } => {
                    let base = rng.f64();
                    for a in attrs.iter_mut() {
                        let x = base + jitter * (rng.f64() - 0.5);
                        *a = to_domain(x);
                    }
                }
                Distribution::AntiCorrelated { jitter } => {
                    // Distribute a fixed budget (≈ d/2) across dimensions:
                    // exponential weights normalized onto the plane, plus
                    // a small off-plane jitter.
                    let budget = 0.5 * d as f64;
                    let mut w: Vec<f64> = (0..d).map(|_| -(1.0 - rng.f64()).ln()).collect();
                    let s: f64 = w.iter().sum();
                    for wi in w.iter_mut() {
                        *wi = *wi / s * budget + jitter * (rng.f64() - 0.5);
                    }
                    for (a, wi) in attrs.iter_mut().zip(&w) {
                        *a = to_domain(*wi);
                    }
                }
                Distribution::Clustered { spread, .. } => {
                    let c = &centroids[rng.usize_below(centroids.len())];
                    for (a, ci) in attrs.iter_mut().zip(c) {
                        let x = ci + spread * (rng.f64() - 0.5);
                        *a = to_domain(x);
                    }
                }
                Distribution::Skewed { exponent } => {
                    for a in attrs.iter_mut() {
                        *a = to_domain(rng.f64().powf(exponent));
                    }
                }
            }
            for b in payload.iter_mut() {
                *b = rng.u8_inclusive(b'a', b'z');
            }
            out.push(self.layout.encode(&attrs, &payload));
        }
        out
    }

    /// Generate only the first-`d`-attribute key matrix (row-major,
    /// `n × d`, flattened) without materializing records. Same values as
    /// [`WorkloadSpec::generate`] followed by key extraction.
    ///
    /// # Panics
    /// When `d` exceeds the layout's dimensions.
    pub fn generate_keys(&self, d: usize) -> Vec<f64> {
        assert!(d <= self.layout.dims);
        let recs = self.generate();
        let mut keys = Vec::with_capacity(self.n * d);
        for r in &recs {
            for i in 0..d {
                keys.push(f64::from(self.layout.attr(r, i)));
            }
        }
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let a = WorkloadSpec::paper(100, 7).generate();
        let b = WorkloadSpec::paper(100, 7).generate();
        assert_eq!(a, b);
        let c = WorkloadSpec::paper(100, 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn record_sizes_match_layout() {
        let recs = WorkloadSpec::paper(10, 1).generate();
        assert!(recs.iter().all(|r| r.len() == 100));
    }

    #[test]
    fn small_domain_respected() {
        let spec = WorkloadSpec::small_domain(500, 3);
        for r in spec.generate() {
            for a in spec.layout.decode_attrs(&r) {
                assert!((0..=9).contains(&a), "attr {a} outside 0..=9");
            }
        }
    }

    #[test]
    fn correlated_attrs_close_together() {
        let spec = WorkloadSpec {
            dist: Distribution::Correlated { jitter: 0.05 },
            domain: (0, 999),
            ..WorkloadSpec::paper(200, 11)
        };
        for r in spec.generate() {
            let attrs = spec.layout.decode_attrs(&r);
            let min = *attrs.iter().min().unwrap();
            let max = *attrs.iter().max().unwrap();
            assert!(max - min <= 100, "spread {} too wide", max - min);
        }
    }

    #[test]
    fn anticorrelated_sums_near_budget() {
        let d = 4;
        let spec = WorkloadSpec {
            dist: Distribution::AntiCorrelated { jitter: 0.0 },
            domain: (0, 999),
            layout: RecordLayout::new(d, 0),
            ..WorkloadSpec::paper(300, 5)
        };
        for r in spec.generate() {
            let sum: i64 = spec
                .layout
                .decode_attrs(&r)
                .iter()
                .map(|&a| i64::from(a))
                .sum();
            // budget is d/2 of the unit cube → about 2000 here; allow slack
            // for clamping of occasionally-large exponential weights.
            assert!(sum <= 2_300, "sum {sum} too large");
        }
    }

    #[test]
    fn skewed_mass_concentrates_low() {
        let spec = WorkloadSpec {
            dist: Distribution::Skewed { exponent: 4.0 },
            domain: (0, 999),
            ..WorkloadSpec::paper(2_000, 19)
        };
        let recs = spec.generate();
        let below_100 = recs.iter().filter(|r| spec.layout.attr(r, 0) < 100).count();
        // u^4 < 0.1 ⟺ u < 0.56: well over half the mass in the lowest 10%
        assert!(below_100 > recs.len() / 2, "only {below_100} below 100");
    }

    #[test]
    fn clustered_generates_within_domain() {
        let spec = WorkloadSpec {
            dist: Distribution::Clustered {
                clusters: 3,
                spread: 0.1,
            },
            domain: (-50, 50),
            ..WorkloadSpec::paper(200, 13)
        };
        for r in spec.generate() {
            for a in spec.layout.decode_attrs(&r) {
                assert!((-50..=50).contains(&a));
            }
        }
    }

    #[test]
    fn generate_keys_matches_records() {
        let spec = WorkloadSpec::paper(50, 21);
        let keys = spec.generate_keys(3);
        let recs = spec.generate();
        assert_eq!(keys.len(), 150);
        for (i, r) in recs.iter().enumerate() {
            for k in 0..3 {
                assert_eq!(keys[i * 3 + k], f64::from(spec.layout.attr(r, k)));
            }
        }
    }
}
