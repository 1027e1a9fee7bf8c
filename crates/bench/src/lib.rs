//! Shared helpers for the experiment binaries (`exp_e1` … `exp_e9`).

use mjoin_hypergraph::{DbScheme, RelSet};
use mjoin_optimizer::CostOracle;
use mjoin_workloads::Example3;

/// A [`CostOracle`] backed by Example 3's closed-form sub-join sizes, so the
/// DP baselines can be run at scales where materialization is impossible
/// (`m = 10^4` means `2·10¹²`-tuple relations).
pub struct Example3Oracle<'a> {
    /// The family member.
    pub ex: Example3,
    /// Its scheme.
    pub scheme: &'a DbScheme,
}

impl CostOracle for Example3Oracle<'_> {
    fn subjoin_size(&mut self, set: RelSet) -> u64 {
        u64::try_from(self.ex.subjoin_size(self.scheme, set)).unwrap_or(u64::MAX)
    }
}

/// Print a markdown table: a header row and aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = widths
            .iter()
            .zip(cells)
            .map(|(w, c)| format!("{c:>w$}"))
            .collect();
        println!("| {} |", parts.join(" | "));
    };
    line(
        &headers
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>(),
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("|-{}-|", sep.join("-|-"));
    for row in rows {
        line(row);
    }
}

/// Format a `u128` with thousands separators for readability.
pub fn fmt_count(n: u128) -> String {
    let s = n.to_string();
    let mut out = String::new();
    for (i, ch) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;

    #[test]
    fn fmt_count_groups() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1000), "1,000");
        assert_eq!(fmt_count(1234567), "1,234,567");
    }

    #[test]
    fn analytic_oracle_matches_closed_form() {
        let mut c = Catalog::new();
        let scheme = Example3::scheme(&mut c);
        let ex = Example3::new(7);
        let mut o = Example3Oracle {
            ex,
            scheme: &scheme,
        };
        assert_eq!(
            o.subjoin_size(RelSet::from_indices([0, 1])) as u128,
            ex.subjoin_size(&scheme, RelSet::from_indices([0, 1]))
        );
        let t = Example3::optimal_tree();
        assert_eq!(o.tree_cost(&t) as u128, ex.tree_cost(&scheme, &t));
    }
}
