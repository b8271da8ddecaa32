//! Seeded input generation: one small generator, a shuffle and a
//! stratified draw. The program under test never sees the seed, only the
//! inputs made from it.

/// SplitMix64: tiny, fast, and good enough to order requests.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A stratified draw: `picks[s]` items from stratum `s` (which has
/// `sizes[s]` items), returned as `(stratum, index)` pairs in seeded order.
///
/// Within a stratum the draw is without replacement while items last and
/// starts over on a fresh shuffle when they run out, so every item of a
/// stratum is used `picks / size` times, give or take one. The mix between
/// strata is therefore exact for every seed; only which items and in what
/// order changes.
pub fn stratified_draw(rng: &mut Rng, sizes: &[usize], picks: &[usize]) -> Vec<(usize, usize)> {
    assert_eq!(sizes.len(), picks.len(), "one pick count per stratum");
    let mut out = Vec::with_capacity(picks.iter().sum());
    for (stratum, (&size, &want)) in sizes.iter().zip(picks).enumerate() {
        assert!(size > 0 || want == 0, "cannot draw from an empty stratum");
        let mut deck: Vec<usize> = Vec::new();
        for _ in 0..want {
            if deck.is_empty() {
                deck = (0..size).collect();
                rng.shuffle(&mut deck);
            }
            out.push((stratum, deck.pop().expect("deck was just refilled")));
        }
    }
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draw() {
        let a = stratified_draw(&mut Rng::new(1), &[10, 4], &[90, 10]);
        let b = stratified_draw(&mut Rng::new(1), &[10, 4], &[90, 10]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_draw() {
        let a = stratified_draw(&mut Rng::new(1), &[10, 4], &[90, 10]);
        let b = stratified_draw(&mut Rng::new(2), &[10, 4], &[90, 10]);
        assert_ne!(a, b);
    }

    #[test]
    fn mix_is_exact_and_items_are_used_evenly() {
        let draw = stratified_draw(&mut Rng::new(5), &[10, 4], &[95, 10]);
        assert_eq!(draw.iter().filter(|(s, _)| *s == 0).count(), 95);
        assert_eq!(draw.iter().filter(|(s, _)| *s == 1).count(), 10);
        for item in 0..10 {
            let uses = draw.iter().filter(|d| **d == (0, item)).count();
            assert!((9..=10).contains(&uses), "item {item} used {uses} times");
        }
        // Fewer picks than items: no item twice.
        let few = stratified_draw(&mut Rng::new(5), &[10], &[6]);
        let mut seen: Vec<usize> = few.iter().map(|d| d.1).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(9).shuffle(&mut v);
        assert_ne!(v, (0..50).collect::<Vec<u32>>());
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<u32>>());
    }
}
