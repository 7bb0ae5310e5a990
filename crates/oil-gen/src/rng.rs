//! The generator's deterministic random source.
//!
//! Everything `oil-gen` produces is a pure function of a `u64` seed: the same
//! seed yields the same workload on every machine, every run. SplitMix64 is
//! used because it is tiny, passes the usual statistical batteries at this
//! scale, and has no stuck state, so *every* seed (including 0) is usable. Failure
//! messages in the differential harness always quote the seed; reproducing a
//! failure is `Scenario::generate(seed)`.

/// A deterministic SplitMix64 stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenRng {
    state: u64,
}

impl GenRng {
    /// A stream seeded with `seed`; every value drawn later is a pure
    /// function of it.
    pub fn new(seed: u64) -> Self {
        GenRng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value uniform in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "empty range");
        // Modulo bias is irrelevant at workload-generation scale.
        self.next_u64() % bound
    }

    /// A value uniform in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "inverted range");
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly chosen element of `items`.
    ///
    /// # Panics
    /// Panics if `items` is empty.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// A derived independent stream: mixing `label` into the current state.
    /// Used to give sub-generators (topology vs. timing vs. program shape)
    /// their own streams so adding a draw to one does not shift the others.
    pub fn fork(&mut self, label: u64) -> GenRng {
        GenRng {
            state: self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = GenRng::new(42);
        let mut b = GenRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = GenRng::new(1);
        let mut b = GenRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = GenRng::new(0);
        let v: Vec<u64> = (0..8).map(|_| r.range(1, 6)).collect();
        assert!(v.iter().all(|&x| (1..=6).contains(&x)));
        assert!(v.iter().any(|&x| x != v[0]), "stream must not be constant");
    }

    #[test]
    fn range_is_inclusive_and_covers() {
        let mut r = GenRng::new(7);
        let mut seen = [false; 6];
        for _ in 0..200 {
            seen[r.range(0, 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn forked_streams_are_independent_of_later_draws() {
        let mut a = GenRng::new(9);
        let mut fork_a = a.fork(1);
        let first = fork_a.next_u64();
        // Re-create and draw more from the parent after forking: the fork's
        // output is unchanged.
        let mut b = GenRng::new(9);
        let mut fork_b = b.fork(1);
        let _ = b.next_u64();
        assert_eq!(fork_b.next_u64(), first);
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = GenRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(1, 4)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }
}
