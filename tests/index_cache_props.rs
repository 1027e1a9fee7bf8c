//! Property test: random Algorithm-2 programs execute identically with the
//! default join-index cache and with a `(0, 0)`-budget cache that refuses
//! every index, at any thread count. The cache is a pure memoization of
//! build-side hash tables — it must never change a single observable of the
//! execution.

use mjoin::optimizer::random_tree;
use mjoin::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scheme_and_db(family: usize, n: usize, seed: u64) -> (DbScheme, Database) {
    let mut c = Catalog::new();
    let scheme = match family {
        0 => mjoin::workloads::schemes::chain(&mut c, n),
        1 => mjoin::workloads::schemes::cycle(&mut c, n.max(3)),
        _ => mjoin::workloads::schemes::star(&mut c, n.max(2) - 1),
    };
    let db = random_database(
        &scheme,
        &DataGenConfig {
            tuples_per_relation: 25,
            domain: 5,
            seed,
            plant_witness: true,
        },
    );
    (scheme, db)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cache_on_and_off_execute_identically(
        family in 0usize..3,
        n in 3usize..6,
        db_seed in any::<u64>(),
        tree_seed in any::<u64>(),
        threads in 1usize..5,
    ) {
        let (scheme, db) = scheme_and_db(family, n, db_seed);
        let mut rng = StdRng::seed_from_u64(tree_seed);
        let t1 = random_tree(&scheme, &mut rng, false);
        let d = derive(&scheme, &t1).unwrap();
        let on = execute_with(&d.program, &db, &ExecConfig::with_threads(threads));
        let off = execute_with(
            &d.program,
            &db,
            &ExecConfig {
                cache: Some(IndexCache::shared(0, 0)),
                ..ExecConfig::with_threads(threads)
            },
        );
        prop_assert_eq!(&*on.result, &*off.result);
        prop_assert_eq!(on.head_sizes, off.head_sizes);
        prop_assert_eq!(on.ledger, off.ledger);
        prop_assert_eq!(on.peak_resident, off.peak_resident);
    }
}
