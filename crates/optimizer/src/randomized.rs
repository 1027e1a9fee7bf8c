//! Random join trees: the random-merge generator over (optionally CPF)
//! bushy trees that the experiments and property tests draw their input
//! trees `T₁` from.

use mjoin_expr::JoinTree;
use mjoin_hypergraph::DbScheme;
use rand::Rng;

/// Generate a random join tree by repeatedly merging two random roots of a
/// forest. With `cpf_only`, only attribute-sharing pairs are merged, so the
/// result is CPF (requires a connected scheme).
pub fn random_tree<R: Rng>(scheme: &DbScheme, rng: &mut R, cpf_only: bool) -> JoinTree {
    let n = scheme.num_relations();
    assert!(n > 0);
    if cpf_only {
        assert!(
            scheme.fully_connected(),
            "CPF trees require a connected scheme"
        );
    }
    let mut forest: Vec<JoinTree> = (0..n).map(JoinTree::leaf).collect();
    while forest.len() > 1 {
        let pairs: Vec<(usize, usize)> = (0..forest.len())
            .flat_map(|i| ((i + 1)..forest.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| {
                !cpf_only
                    || scheme
                        .attrs_of_set(forest[i].rel_set())
                        .intersects(&scheme.attrs_of_set(forest[j].rel_set()))
            })
            .collect();
        debug_assert!(
            !pairs.is_empty(),
            "connected scheme always has a sharing pair"
        );
        let (i, j) = pairs[rng.gen_range(0..pairs.len())];
        let right = forest.remove(j);
        let left = forest.remove(i);
        forest.push(JoinTree::join(left, right));
    }
    forest.pop().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mjoin_relation::Catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn paper() -> DbScheme {
        let mut c = Catalog::new();
        DbScheme::parse(&mut c, &["ABC", "CDE", "EFG", "GHA"])
    }

    #[test]
    fn random_tree_is_exactly_over() {
        let s = paper();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..30 {
            let t = random_tree(&s, &mut rng, false);
            assert!(t.is_exactly_over(&s));
        }
    }

    #[test]
    fn random_cpf_tree_is_cpf() {
        let s = paper();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..30 {
            let t = random_tree(&s, &mut rng, true);
            assert!(t.is_cpf(&s));
            assert!(t.is_exactly_over(&s));
        }
    }
}
