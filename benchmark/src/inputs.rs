//! Seed → workload input.  The program under test only ever sees the
//! generated proposal bits, never the seed.

/// SplitMix64: the one generator behind the proposal shuffle and the trace
/// corpus sampling, so a seed fixes both.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`); the modulo bias is irrelevant at
    /// the bounds used here (all far below 2^32).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// The binary proposal vector of a seed: `bits[i]` is what `p_{i+1}`
/// proposes.
///
/// Seed 0 is the historical vector `i % 2`.  Any other seed draws a balanced
/// vector by seeded shuffle, **conditioned on `p_1` and `p_2` proposing
/// different values**: CRW's rotating coordinator makes arrangements
/// inequivalent, and the raw state count depends on the length of the
/// leading run of equal proposals (at (8,7): 47 789 states for a run of 1,
/// 40 311 for 2, 38 407 for 3, 37 948 for 4).  Pinning the run to 1 keeps
/// the amount of work — and so every timing — comparable across seeds, and
/// lets the pinned state counts be checked at every seed.  For odd `n` (the
/// warm-up runs at `n = 7`) `p_1` additionally always holds the majority
/// value, for the same reason: 12 495 states at (7,6) if it does, 12 603 and
/// a third more time if it does not.
pub fn proposal_bits(seed: u64, n: usize) -> Vec<u8> {
    if seed == 0 || n < 2 {
        return (0..n).map(|i| (i % 2) as u8).collect();
    }
    let mut rng = SplitMix64::new(seed);
    let first = (rng.next_u64() & 1) as u8;
    let mut bits = vec![first, 1 - first];
    let mut tail: Vec<u8> = (0..n - 2)
        .map(|i| if i % 2 == 0 { first } else { 1 - first })
        .collect();
    for i in (1..tail.len()).rev() {
        tail.swap(i, rng.below(i + 1));
    }
    bits.extend(tail);
    bits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_historical_vector() {
        assert_eq!(proposal_bits(0, 8), vec![0, 1, 0, 1, 0, 1, 0, 1]);
        assert_eq!(proposal_bits(0, 5), vec![0, 1, 0, 1, 0]);
    }

    #[test]
    fn seeds_are_deterministic_balanced_and_split_the_first_two() {
        let mut distinct = std::collections::BTreeSet::new();
        for seed in 1..200u64 {
            let bits = proposal_bits(seed, 8);
            assert_eq!(bits, proposal_bits(seed, 8), "seed {seed} repeats");
            assert_eq!(bits.len(), 8);
            assert_eq!(bits.iter().filter(|b| **b == 1).count(), 4, "balanced");
            assert_ne!(bits[0], bits[1], "leading run of length 1");
            distinct.insert(bits);
            let odd = proposal_bits(seed, 7);
            assert_ne!(odd[0], odd[1]);
            let with_first = odd.iter().filter(|b| **b == odd[0]).count();
            assert_eq!(with_first, 4, "p_1 holds the majority value of {odd:?}");
        }
        // 2 choices for p_1 times C(6,3) tails = 40 vectors; the seeds
        // must actually spread over them.
        assert!(distinct.len() > 20, "only {} vectors", distinct.len());
    }
}
