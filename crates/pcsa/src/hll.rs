//! HyperLogLog — a modern alternative to the paper's PCSA.
//!
//! The paper (2007) predates HyperLogLog (Flajolet et al., 2007); it is
//! included here as an extension because it shares exactly the property
//! µBE's architecture relies on — signatures merge by a per-register
//! maximum, so the merged signature equals the signature of the union —
//! while using ~6 bits per register instead of PCSA's 64-bit bitmaps. The
//! `pcsa_accuracy` bench compares both at equal memory.

use std::fmt;

use crate::hash::TupleHasher;

/// A HyperLogLog sketch with `2^precision` one-byte registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HllSketch {
    registers: Vec<u8>,
    precision: u32,
    hasher: TupleHasher,
}

impl HllSketch {
    /// Creates an empty sketch. `precision` must be in `4..=16`.
    ///
    /// # Panics
    /// Panics for precision outside `4..=16`.
    pub fn new(precision: u32, hasher: TupleHasher) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "precision must be in 4..=16, got {precision}"
        );
        Self {
            registers: vec![0; 1 << precision],
            precision,
            hasher,
        }
    }

    /// A 2 KiB sketch (2048 registers, precision 11) — a quarter of the
    /// default PCSA footprint for comparable error; see the
    /// `pcsa_accuracy` bench.
    pub fn with_defaults() -> Self {
        Self::new(11, TupleHasher::default())
    }

    /// Number of registers.
    pub fn num_registers(&self) -> usize {
        self.registers.len()
    }

    /// The precision parameter (log2 of the register count).
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The hasher this sketch was built with.
    pub fn hasher(&self) -> TupleHasher {
        self.hasher
    }

    /// The raw registers (wire-format encoding).
    pub fn registers(&self) -> &[u8] {
        &self.registers
    }

    /// Replaces the registers wholesale (wire-format decoding).
    ///
    /// # Panics
    /// Panics if `registers` does not match the sketch shape.
    pub(crate) fn overwrite_registers(&mut self, registers: &[u8]) {
        assert_eq!(registers.len(), self.registers.len());
        self.registers.copy_from_slice(registers);
    }

    /// Signature size in bytes.
    pub fn signature_bytes(&self) -> usize {
        self.registers.len()
    }

    /// Whether two sketches can merge (same shape and hash function).
    pub fn compatible(&self, other: &HllSketch) -> bool {
        self.precision == other.precision && self.hasher == other.hasher
    }

    /// Inserts a tuple id.
    pub fn insert_u64(&mut self, tuple: u64) {
        let h = self.hasher.hash_u64(tuple);
        let idx = (h >> (64 - self.precision)) as usize;
        let rest = h << self.precision;
        // Rank: position of the leftmost 1-bit in the remaining bits, 1-based.
        let rank = (rest.leading_zeros() + 1).min(64 - self.precision + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    /// Merges by per-register max — identical to sketching the union.
    ///
    /// # Panics
    /// Panics on incompatible sketches.
    pub fn merge(&mut self, other: &HllSketch) {
        assert!(
            self.compatible(other),
            "cannot merge incompatible HLL sketches"
        );
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Estimates the distinct count (raw HLL estimator with the standard
    /// small-range linear-counting correction).
    pub fn estimate(&self) -> f64 {
        let m = self.registers.len() as f64;
        let alpha = match self.registers.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let sum: f64 = self
            .registers
            .iter()
            .map(|&r| 2f64.powi(-i32::from(r)))
            .sum();
        let raw = alpha * m * m / sum;
        if raw <= 2.5 * m {
            let zeros = self.registers.iter().filter(|&&r| r == 0).count();
            if zeros > 0 {
                return m * (m / zeros as f64).ln();
            }
        }
        raw
    }

    /// Estimate of the union of several sketches (0.0 for none).
    pub fn estimate_union<'a, I>(sketches: I) -> f64
    where
        I: IntoIterator<Item = &'a HllSketch>,
    {
        let mut iter = sketches.into_iter();
        let Some(first) = iter.next() else {
            return 0.0;
        };
        let mut acc = first.clone();
        for s in iter {
            acc.merge(s);
        }
        acc.estimate()
    }
}

impl fmt::Display for HllSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hll(p={}, ~{:.0} distinct)",
            self.precision,
            self.estimate()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(range: std::ops::Range<u64>) -> HllSketch {
        let mut s = HllSketch::with_defaults();
        for v in range {
            s.insert_u64(v);
        }
        s
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(HllSketch::with_defaults().estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn bad_precision_rejected() {
        HllSketch::new(20, TupleHasher::default());
    }

    #[test]
    fn estimates_within_10_percent() {
        for &n in &[1_000u64, 10_000, 100_000, 1_000_000] {
            let est = sketch_of(0..n).estimate();
            let err = (est - n as f64).abs() / n as f64;
            assert!(err < 0.10, "n={n}: est {est:.0}, err {:.1}%", err * 100.0);
        }
    }

    #[test]
    fn small_range_linear_counting() {
        let est = sketch_of(0..50).estimate();
        assert!((est - 50.0).abs() < 6.0, "got {est}");
    }

    #[test]
    fn merge_equals_union_sketch() {
        let a = sketch_of(0..5_000);
        let b = sketch_of(2_500..7_500);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, sketch_of(0..7_500));
    }

    #[test]
    fn merge_commutative_idempotent() {
        let a = sketch_of(0..2_000);
        let b = sketch_of(1_000..3_000);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut aa = a.clone();
        aa.merge(&a);
        assert_eq!(aa, a);
    }

    #[test]
    fn merge_equals_byte_max_at_every_precision() {
        // Every supported precision, from 16 registers to 65,536.
        for p in 4..=16u32 {
            let mut a = HllSketch::new(p, TupleHasher::default());
            let b_regs;
            let a_regs;
            {
                // Deterministic patterns spanning the full rank range with
                // equal, a-wins, and b-wins lanes at every byte position.
                let cap = u64::from(64 - p + 1);
                a_regs = (0..1u64 << p)
                    .map(|i| ((i * 7 + 3) % (cap + 1)) as u8)
                    .collect::<Vec<u8>>();
                b_regs = (0..1u64 << p)
                    .map(|i| ((i * 11 + 5) % (cap + 1)) as u8)
                    .collect::<Vec<u8>>();
            }
            a.overwrite_registers(&a_regs);
            let mut b = HllSketch::new(p, TupleHasher::default());
            b.overwrite_registers(&b_regs);
            let expect: Vec<u8> = a_regs
                .iter()
                .zip(&b_regs)
                .map(|(&x, &y)| x.max(y))
                .collect();
            a.merge(&b);
            assert_eq!(a.registers(), expect.as_slice(), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn incompatible_merge_panics() {
        let mut a = HllSketch::new(10, TupleHasher::default());
        let b = HllSketch::new(11, TupleHasher::default());
        a.merge(&b);
    }

    #[test]
    fn union_estimate_api() {
        let a = sketch_of(0..10_000);
        let b = sketch_of(0..10_000);
        let same = HllSketch::estimate_union([&a, &b]);
        assert!((same - a.estimate()).abs() < 1e-9);
        assert_eq!(HllSketch::estimate_union(std::iter::empty()), 0.0);
    }

    #[test]
    fn memory_matches_pcsa_default() {
        assert_eq!(HllSketch::with_defaults().signature_bytes(), 2048);
    }
}
