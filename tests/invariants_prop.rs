//! Property tests on the partitioning/cache invariants (I1/I2, C1/C2):
//! random sequences of bootstrap / export / merge / update / evict
//! operations must keep every site database structurally consistent with
//! the master document, and merging must be monotone, idempotent and
//! order-insensitive.

use proptest::prelude::*;

use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::{IdPath, SiteDatabase, Status};

fn tiny_params() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 2,
    }
}

/// Every IDable path of the tiny database, by depth.
fn all_paths(db: &ParkingDb) -> Vec<IdPath> {
    let mut out = vec![db.root_path()];
    out.push(db.root_path().child("state", "PA"));
    out.push(db.county_path());
    for ci in 0..db.params.cities {
        out.push(db.city_path(ci));
        for ni in 0..db.params.neighborhoods_per_city {
            out.push(db.neighborhood_path(ci, ni));
            for bi in 0..db.params.blocks_per_neighborhood {
                out.push(db.block_path(ci, ni, bi));
                for si in 0..db.params.spaces_per_block {
                    out.push(db.space_path(ci, ni, bi, si));
                }
            }
        }
    }
    out
}

#[derive(Debug, Clone)]
enum Op {
    /// Cache the subtree at path index `i` (via owner-export + merge).
    CacheSubtree(usize),
    /// Apply a sensor update to the space at flattened index `i`.
    Update(usize, bool, u32),
    /// Evict the cached node at path index `i` (ignored if owned/absent).
    Evict(usize),
    /// Compact the arena.
    Compact,
}

fn op_strategy(paths: usize, spaces: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..paths).prop_map(Op::CacheSubtree),
        (0..spaces, any::<bool>(), 0u32..1000).prop_map(|(i, a, t)| Op::Update(i, a, t)),
        (0..paths).prop_map(Op::Evict),
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_cache_churn_preserves_invariants(
        ops in proptest::collection::vec(op_strategy(22, 48), 1..40),
        owner_city in 0usize..2,
    ) {
        let db = ParkingDb::generate(tiny_params(), 5);
        let paths = all_paths(&db);
        let spaces = db.all_space_paths();

        // The owner holds everything; the cache owns one city and churns.
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        let mut cache = SiteDatabase::new(db.service.clone());
        cache
            .bootstrap_owned(&db.master, &db.city_path(owner_city), false)
            .unwrap();

        let mut ts = 1.0f64;
        for op in ops {
            match op {
                Op::CacheSubtree(i) => {
                    let p = &paths[i % paths.len()];
                    // Only subtrees the owner can export (everything here).
                    let frag = owner.export_subtrees(std::slice::from_ref(p)).unwrap();
                    cache.merge_fragment(&frag).unwrap();
                }
                Op::Update(i, avail, t) => {
                    ts += f64::from(t) / 100.0;
                    let p = &spaces[i % spaces.len()];
                    owner
                        .apply_update(
                            p,
                            &[("available".into(), if avail { "yes" } else { "no" }.into())],
                            ts,
                        )
                        .unwrap();
                }
                Op::Evict(i) => {
                    let p = &paths[i % paths.len()];
                    // Eviction legitimately refuses owned data or absent
                    // nodes; both are fine.
                    let _ = cache.evict(p);
                }
                Op::Compact => {
                    cache.compact();
                }
            }
            owner.check_invariants(&db.master).unwrap();
            cache.check_invariants(&db.master).unwrap();
        }
    }

    #[test]
    fn merge_is_order_insensitive_and_idempotent(
        picks in proptest::collection::vec(0usize..22, 2..8),
        seed in 0u64..50,
    ) {
        let db = ParkingDb::generate(tiny_params(), seed);
        let paths = all_paths(&db);
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();

        let frags: Vec<_> = picks
            .iter()
            .map(|&i| owner.export_subtrees(&[paths[i % paths.len()].clone()]).unwrap())
            .collect();

        let mut forward = SiteDatabase::new(db.service.clone());
        for f in &frags {
            forward.merge_fragment(f).unwrap();
        }
        // Idempotent re-merge.
        for f in &frags {
            forward.merge_fragment(f).unwrap();
        }
        let mut reverse = SiteDatabase::new(db.service.clone());
        for f in frags.iter().rev() {
            reverse.merge_fragment(f).unwrap();
        }

        forward.check_invariants(&db.master).unwrap();
        reverse.check_invariants(&db.master).unwrap();
        prop_assert!(sensorxml::unordered_eq(
            forward.doc(),
            forward.doc().root().unwrap(),
            reverse.doc(),
            reverse.doc().root().unwrap()
        ));
    }

    #[test]
    fn coalescing_never_loses_coverage(
        picks in proptest::collection::vec(0usize..48, 1..12),
    ) {
        let db = ParkingDb::generate(tiny_params(), 3);
        let spaces = db.all_space_paths();
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();

        let chosen: Vec<IdPath> = picks.iter().map(|&i| spaces[i % spaces.len()].clone()).collect();
        let mut nodes: Vec<_> = chosen.iter().map(|p| p.resolve(owner.doc()).unwrap()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let coalesced: Vec<IdPath> = owner
            .coalesce_covering_nodes(&nodes)
            .into_iter()
            .map(|n| IdPath::of_node(owner.doc(), n).unwrap())
            .collect();
        // In id-path order, the order the export adds targets in.
        prop_assert!(coalesced.windows(2).all(|w| w[0] < w[1]));
        // Every chosen path is covered by some coalesced path.
        for c in &chosen {
            prop_assert!(
                coalesced.iter().any(|k| k.is_prefix_of(c)),
                "path {c} not covered by {coalesced:?}"
            );
        }
        // And the coalesced set never has redundant nested entries.
        for a in &coalesced {
            for b in &coalesced {
                if a != b {
                    prop_assert!(!a.is_prefix_of(b));
                }
            }
        }
    }

    #[test]
    fn owned_status_survives_any_merge(
        picks in proptest::collection::vec(0usize..22, 1..6),
    ) {
        let db = ParkingDb::generate(tiny_params(), 11);
        let paths = all_paths(&db);
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        // A second owner of one block tries to merge foreign fragments.
        let mut site = SiteDatabase::new(db.service.clone());
        let mine = db.block_path(0, 0, 0);
        site.bootstrap_owned(&db.master, &mine, true).unwrap();
        for &i in &picks {
            let frag = owner.export_subtrees(&[paths[i % paths.len()].clone()]).unwrap();
            site.merge_fragment(&frag).unwrap();
            prop_assert_eq!(site.status_at(&mine), Some(Status::Owned));
            site.check_invariants(&db.master).unwrap();
        }
    }
}
