//! The answer oracle's arithmetic: a row count and an order-independent
//! 64-bit checksum over `(column name, cell text)` pairs.
//!
//! The generators compute the pair from what they planted; the harness
//! computes it again from the bytes the engine wrote. Neither side calls the
//! engine. A row's hash is the mixed *sum* of its cells' hashes, each seeded
//! by its column's name, so the engine may emit columns and rows in any
//! order; the checksum is the wrapping sum over rows.

/// FNV-1a, continued from `state`.
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// splitmix64's finalizer: spreads a sum of cell hashes over all 64 bits so
/// that swapping two cells between rows changes the checksum.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hash state seeded by a column's name.
pub fn column_seed(name: &str) -> u64 {
    fnv1a(0xcbf2_9ce4_8422_2325, name.as_bytes()) ^ 0x1f
}

/// Hash of one cell's text under its column's seed.
pub fn cell_hash(seed: u64, cell: &[u8]) -> u64 {
    fnv1a(seed, cell)
}

/// [`cell_hash`] of an integer cell, formatted the way the engine prints it.
pub fn int_cell_hash(seed: u64, v: i64, buf: &mut String) -> u64 {
    use std::fmt::Write as _;
    buf.clear();
    let _ = write!(buf, "{v}");
    cell_hash(seed, buf.as_bytes())
}

/// What an answer must add up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Expected {
    pub rows: u64,
    pub checksum: u64,
}

impl Expected {
    /// Add one row given the sum of its cells' hashes.
    pub fn add_row(&mut self, cell_hash_sum: u64) {
        self.rows += 1;
        self.checksum = self.checksum.wrapping_add(mix(cell_hash_sum));
    }
}

/// Count and checksum a TSV answer (header line, then one row per line).
pub fn tsv_answer(bytes: &[u8]) -> Result<Expected, String> {
    let mut lines = bytes.split(|&b| b == b'\n');
    let header = lines
        .next()
        .filter(|h| !h.is_empty())
        .ok_or("empty output")?;
    let seeds: Vec<u64> = header
        .split(|&b| b == b'\t')
        .map(|name| std::str::from_utf8(name).map(column_seed))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("header is not UTF-8: {e}"))?;
    let mut got = Expected::default();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut sum = 0u64;
        let mut cells = 0usize;
        for (cell, seed) in line.split(|&b| b == b'\t').zip(&seeds) {
            sum = sum.wrapping_add(cell_hash(*seed, cell));
            cells += 1;
        }
        if cells != seeds.len() || line.iter().filter(|&&b| b == b'\t').count() + 1 != cells {
            return Err(format!(
                "row {} has the wrong number of cells (header has {})",
                got.rows + 1,
                seeds.len()
            ));
        }
        got.add_row(sum);
    }
    Ok(got)
}

/// Compare an answer with what the generator planted.
pub fn verify(bytes: &[u8], want: Expected) -> Result<(), String> {
    let got = tsv_answer(bytes)?;
    if got.rows != want.rows {
        return Err(format!("row count {} != expected {}", got.rows, want.rows));
    }
    if got.checksum != want.checksum {
        return Err(format!(
            "checksum {:016x} != expected {:016x} ({} rows)",
            got.checksum, want.checksum, got.rows
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expected_of(cols: &[&str], rows: &[&[&str]]) -> Expected {
        let mut e = Expected::default();
        for r in rows {
            let sum = cols.iter().zip(r.iter()).fold(0u64, |s, (c, v)| {
                s.wrapping_add(cell_hash(column_seed(c), v.as_bytes()))
            });
            e.add_row(sum);
        }
        e
    }

    #[test]
    fn independent_of_row_and_column_order() {
        let want = expected_of(&["a", "b"], &[&["1", "x"], &["2", "y"]]);
        assert!(verify(b"a\tb\n1\tx\n2\ty\n", want).is_ok());
        assert!(verify(b"b\ta\ny\t2\nx\t1\n", want).is_ok());
    }

    #[test]
    fn catches_wrong_answers() {
        let want = expected_of(&["a", "b"], &[&["1", "x"], &["2", "y"]]);
        // Cells swapped between rows, a missing row, a ragged row.
        assert!(verify(b"a\tb\n1\ty\n2\tx\n", want).is_err());
        assert!(verify(b"a\tb\n1\tx\n", want).is_err());
        assert!(verify(b"a\tb\n1\tx\n2\n", want).is_err());
        assert!(verify(b"", want).is_err());
    }
}
