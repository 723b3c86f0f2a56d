//! Deterministic random number generation.
//!
//! Training reproducibility is load-bearing in this system: the activation
//! cache (§4.3 of the paper) is only correct if random data augmentation is
//! *stateless*, i.e. re-derivable from `(seed, epoch, sample id)`. The
//! generator is xoshiro256++ seeded through SplitMix64, owned here so no
//! third-party crate sits under any golden fingerprint; [`Rng`] exposes
//! exactly the distributions the stack needs, plus a [`Rng::derive`]
//! combinator that builds the per-(epoch, sample) streams used by stateless
//! augmentation. `stream_is_pinned` holds the output bits.

/// xoshiro256++ (Blackman & Vigna): 256 bits of state, 64-bit outputs.
#[derive(Debug, Clone)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Expands a 64-bit seed into the full state with SplitMix64, per the
    /// xoshiro authors' recommendation.
    fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        let mut next = || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Xoshiro256pp {
            s: [next(), next(), next(), next()],
        }
    }

    fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// 24 mantissa bits → uniform in `[0, 1)`.
    fn next_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// 53 mantissa bits → uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, span)` by modulo mapping; the bias is
    /// negligible at the spans the workspace draws from (≤ dataset length).
    fn below(&mut self, span: u64) -> usize {
        (self.next_u64() % span) as usize
    }
}

/// A seeded random number generator with explicit derivation.
#[derive(Debug, Clone)]
pub struct Rng {
    inner: Xoshiro256pp,
    seed: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        Rng {
            inner: Xoshiro256pp::seed_from_u64(seed),
            seed,
        }
    }

    /// The seed this generator was created with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent generator keyed by `salt`.
    ///
    /// The derivation is a pure function of `(seed, salt)`, which is what
    /// makes augmentation stateless: `rng.derive(epoch).derive(sample_id)`
    /// always yields the same stream regardless of call order elsewhere.
    pub fn derive(&self, salt: u64) -> Rng {
        // SplitMix64-style mixing keeps derived seeds well separated.
        let mut z = self.seed.wrapping_add(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng::new(z ^ (z >> 31))
    }

    /// A uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        self.inner.next_f32()
    }

    /// A standard normal sample (Box–Muller).
    pub fn normal(&mut self) -> f32 {
        // Box–Muller on two uniforms; clamp u1 away from 0 to avoid ln(0).
        let u1 = self.inner.next_f64().max(1e-12);
        let u2 = self.inner.next_f64();
        ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// A uniform integer in `[0, n)`.
    ///
    /// Returns 0 when `n == 0` so callers need no special case for empty
    /// ranges (they must check emptiness themselves where it matters).
    pub fn below(&mut self, n: usize) -> usize {
        if n == 0 {
            0
        } else {
            self.inner.below(n as u64)
        }
    }

    /// A fair coin flip.
    pub fn flip(&mut self) -> bool {
        self.inner.next_u64() & 1 == 1
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        if slice.len() < 2 {
            return;
        }
        for i in (1..slice.len()).rev() {
            let j = self.inner.below(i as u64 + 1);
            slice.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        self.shuffle(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn derive_is_pure_in_seed_and_salt() {
        let base = Rng::new(99);
        let mut d1 = base.derive(5);
        let mut d2 = base.derive(5);
        assert_eq!(d1.uniform(), d2.uniform());
        let mut d3 = base.derive(6);
        assert_ne!(Rng::new(99).derive(5).uniform(), d3.uniform());
    }

    #[test]
    fn derive_is_independent_of_consumption() {
        let mut base = Rng::new(1);
        let before = base.derive(3).uniform();
        let _ = base.uniform();
        let _ = base.uniform();
        let after = base.derive(3).uniform();
        assert_eq!(before, after);
    }

    #[test]
    fn normal_has_roughly_standard_moments() {
        let mut rng = Rng::new(11);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| rng.normal()).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(3);
        for _ in 0..1000 {
            assert!(rng.below(17) < 17);
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = Rng::new(5);
        let p = rng.permutation(50);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Every golden fingerprint rests on this stream, so its bits are
    /// pinned: an FNV-1a digest over 1,000 draws of each distribution for
    /// three seeds, recorded at bc01006 (before the generator moved into
    /// this file from a vendored stand-in crate) and unchanged since.
    #[test]
    fn stream_is_pinned() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for seed in [0, 1, 0x9E37_79B9_7F4A_7C15] {
            let mut r = Rng::new(seed);
            for _ in 0..1000 {
                eat(&r.uniform().to_bits().to_le_bytes());
            }
            for _ in 0..1000 {
                eat(&r.normal().to_bits().to_le_bytes());
            }
            for _ in 0..1000 {
                eat(&(r.below(17) as u64).to_le_bytes());
            }
            for _ in 0..1000 {
                eat(&[u8::from(r.flip())]);
            }
            for _ in 0..1000 {
                for i in r.permutation(50) {
                    eat(&(i as u64).to_le_bytes());
                }
            }
            for k in 0..1000 {
                let mut d = r.derive(k);
                eat(&d.seed().to_le_bytes());
                eat(&d.uniform().to_bits().to_le_bytes());
            }
        }
        assert_eq!(h, 0x5b3e_da25_6fdd_3b11, "rng stream digest {h:#018x}");
    }

    #[test]
    fn shuffle_handles_degenerate_slices() {
        let mut rng = Rng::new(5);
        let mut empty: [u8; 0] = [];
        rng.shuffle(&mut empty);
        let mut one = [42];
        rng.shuffle(&mut one);
        assert_eq!(one, [42]);
    }
}
