//! [`IntSpan`] — the range an integer column (or a column's dictionary
//! codes) covers, and one bitmap pass over it.
//!
//! Four places turn a column's range into a decision: the load dedup's
//! packed keys and key-column proof ([`crate::Relation::from_columns`]), the
//! sort keys shared by the TSV writer and the trie index, the dense
//! [`crate::ops::JoinIndex`] layout, and the estimate oracle's distinct
//! counts. Each keeps its own threshold, in bytes; they share this bitmap.
//! An integer column stores its span ([`crate::column::IntColumn::span`],
//! a bound that a gather inherits), so they read it there: the fold runs
//! once, when a column is built from values, and over dictionary codes.

/// The cells of a column lie in `min ..= min + width`: its smallest cell and
/// the distance from there to its largest. Two's-complement subtraction of
/// the minimum is that distance, which fits `u64` for any two `i64`s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IntSpan {
    /// The smallest cell (0 for an empty column).
    pub min: i64,
    /// The largest cell's distance from `min` (0 for an empty column).
    pub width: u64,
}

impl IntSpan {
    /// The span of `vals`, in one min/max fold.
    pub fn of<T: Copy + Into<i64>>(vals: &[T]) -> Self {
        let Some(&first) = vals.first() else {
            return IntSpan::default();
        };
        let first = first.into();
        let (min, max) = vals.iter().fold((first, first), |(lo, hi), &v| {
            let v = v.into();
            (lo.min(v), hi.max(v))
        });
        IntSpan {
            min,
            width: max.wrapping_sub(min) as u64,
        }
    }

    /// The largest value in the span.
    pub(crate) fn max(self) -> i64 {
        self.min.wrapping_add(self.width as i64)
    }

    /// The smallest span holding both `self` and `other`.
    pub fn hull(self, other: IntSpan) -> IntSpan {
        let min = self.min.min(other.min);
        let max = self.max().max(other.max());
        IntSpan {
            min,
            width: max.wrapping_sub(min) as u64,
        }
    }

    /// Bytes of a bitmap with one bit per value in the span.
    pub fn bitmap_bytes(self) -> u64 {
        self.width / 8 + 1
    }

    /// How many distinct values `cells` holds, counted on one bitmap over
    /// the span. Every cell must lie in the span; the caller bounds
    /// [`IntSpan::bitmap_bytes`].
    pub fn distinct(self, cells: impl IntoIterator<Item = i64>) -> usize {
        let mut bits = Bitmap::new(self);
        cells.into_iter().filter(|&v| bits.insert(self, v)).count()
    }

    /// Whether `cells` are pairwise distinct: the same bitmap pass, stopping
    /// at the first repeat.
    pub fn all_distinct(self, cells: impl IntoIterator<Item = i64>) -> bool {
        let mut bits = Bitmap::new(self);
        cells.into_iter().all(|v| bits.insert(self, v))
    }
}

/// One bit per value of an [`IntSpan`].
struct Bitmap(Vec<u64>);

impl Bitmap {
    fn new(span: IntSpan) -> Self {
        Bitmap(vec![0; span.bitmap_bytes().div_ceil(8) as usize])
    }

    /// Set `v`'s bit; whether it was clear.
    #[inline]
    fn insert(&mut self, span: IntSpan, v: i64) -> bool {
        let k = v.wrapping_sub(span.min) as u64;
        let (word, bit) = (&mut self.0[(k / 64) as usize], 1u64 << (k % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_of_ints_and_codes() {
        assert_eq!(IntSpan::of::<i64>(&[]), IntSpan::default());
        assert_eq!(IntSpan::of(&[5i64]), IntSpan { min: 5, width: 0 });
        assert_eq!(IntSpan::of(&[3u32, 9, 4]), IntSpan { min: 3, width: 6 });
        let extremes = IntSpan::of(&[i64::MAX, i64::MIN]);
        assert_eq!(extremes.min, i64::MIN);
        assert_eq!(extremes.width, u64::MAX);
        assert_eq!(extremes.bitmap_bytes(), u64::MAX / 8 + 1);
        assert_eq!(IntSpan::of(&[-2i64, 3, 0]), IntSpan { min: -2, width: 5 });
    }

    #[test]
    fn max_and_hull() {
        let (a, b) = (IntSpan { min: -2, width: 5 }, IntSpan { min: 1, width: 9 });
        assert_eq!((a.max(), b.max()), (3, 10));
        assert_eq!(a.hull(b), IntSpan { min: -2, width: 12 });
        let all = IntSpan::of(&[i64::MIN, i64::MAX]);
        assert_eq!(a.hull(all), all);
        assert_eq!(all.max(), i64::MAX);
    }

    #[test]
    fn bitmap_counts_and_proves_distinct() {
        let vals = [7i64, -1, 70, 7, 200, -1];
        let s = IntSpan::of(&vals);
        assert_eq!(s.distinct(vals), 4);
        assert!(!s.all_distinct(vals));
        assert!(s.all_distinct(vals[..3].iter().copied()));
        // The last cell repeats the first.
        assert!(!s.all_distinct([-1, 200, 70, -1]));
        assert_eq!(s.distinct([]), 0);
        assert!(s.all_distinct([]));
    }
}
