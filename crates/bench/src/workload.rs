//! Query workloads (§5.1).
//!
//! * **Type 1** — one block, exact path (LCA = block);
//! * **Type 2** — two blocks of one neighborhood (LCA = neighborhood);
//! * **Type 3** — two blocks of two neighborhoods in one city (LCA = city);
//! * **Type 4** — two blocks of two different cities (LCA = county);
//! * **QW-Mix** — 40% / 40% / 15% / 5%;
//! * **QW-Mix2** — 50% / 50% of types 1 and 2 (Fig. 8);
//! * skewed variants direct a fraction of type 1/2 queries at one fixed
//!   neighborhood (§5.3–5.4).

use irisdns::SiteAddr;
use irisnet_core::{IdPath, OaConfig, OrganizingAgent};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

use crate::parkingdb::{DbParams, ParkingDb};

/// The paper's four query types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryType {
    T1,
    T2,
    T3,
    T4,
}

impl QueryType {
    /// All types in order.
    pub const ALL: [QueryType; 4] = [QueryType::T1, QueryType::T2, QueryType::T3, QueryType::T4];

    /// Workload label as used in the paper ("QW-1" ... "QW-4").
    pub fn workload_name(self) -> &'static str {
        match self {
            QueryType::T1 => "QW-1",
            QueryType::T2 => "QW-2",
            QueryType::T3 => "QW-3",
            QueryType::T4 => "QW-4",
        }
    }
}

/// Where a fraction of queries is concentrated (skew experiments).
#[derive(Debug, Clone, Copy)]
pub struct Skew {
    pub city: usize,
    pub neighborhood: usize,
    /// Fraction of queries targeting the fixed neighborhood.
    pub fraction: f64,
}

/// A deterministic query stream.
pub struct Workload {
    rng: SmallRng,
    mix: Vec<(QueryType, f64)>,
    skew: Option<Skew>,
    /// Rank-based CDF over (city, neighborhood) pairs; when set, type 1/2
    /// targets are drawn Zipf-distributed instead of uniformly.
    zipf_cdf: Option<Vec<f64>>,
    cities: usize,
    neighborhoods: usize,
    blocks: usize,
    city_names: Vec<String>,
}

impl Workload {
    fn base(db: &ParkingDb, mix: Vec<(QueryType, f64)>, seed: u64) -> Workload {
        Workload {
            rng: SmallRng::seed_from_u64(seed),
            mix,
            skew: None,
            zipf_cdf: None,
            cities: db.params.cities,
            neighborhoods: db.params.neighborhoods_per_city,
            blocks: db.params.blocks_per_neighborhood,
            city_names: (0..db.params.cities)
                .map(|ci| db.city_name(ci).to_string())
                .collect(),
        }
    }

    /// A single-type workload (QW-1 ... QW-4).
    pub fn uniform(db: &ParkingDb, qt: QueryType, seed: u64) -> Workload {
        Workload::base(db, vec![(qt, 1.0)], seed)
    }

    /// QW-Mix: 40% T1, 40% T2, 15% T3, 5% T4.
    pub fn qw_mix(db: &ParkingDb, seed: u64) -> Workload {
        Workload::base(
            db,
            vec![
                (QueryType::T1, 0.40),
                (QueryType::T2, 0.40),
                (QueryType::T3, 0.15),
                (QueryType::T4, 0.05),
            ],
            seed,
        )
    }

    /// QW-Mix2: 50% T1, 50% T2 (Fig. 8).
    pub fn qw_mix2(db: &ParkingDb, seed: u64) -> Workload {
        Workload::base(
            db,
            vec![(QueryType::T1, 0.5), (QueryType::T2, 0.5)],
            seed,
        )
    }

    /// Directs `fraction` of type 1/2 queries at one fixed neighborhood.
    pub fn with_skew(mut self, city: usize, neighborhood: usize, fraction: f64) -> Workload {
        self.skew = Some(Skew { city, neighborhood, fraction });
        self
    }

    /// Zipf-distributes type 1/2 neighborhood targets with exponent `s`.
    ///
    /// Neighborhoods are ranked in row-major (city, neighborhood) order,
    /// rank `k` drawn with probability `∝ 1/k^s` — the smooth popularity
    /// curve the cache-budget experiments sweep, in contrast to
    /// [`Workload::with_skew`]'s single hot spot. `s = 0` degenerates to
    /// uniform; takes precedence over `with_skew` when both are set.
    pub fn with_zipf(mut self, s: f64) -> Workload {
        let n = self.cities * self.neighborhoods;
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for v in &mut cdf {
            *v /= acc;
        }
        self.zipf_cdf = Some(cdf);
        self
    }

    fn draw_zipf_rank(&mut self) -> Option<usize> {
        self.zipf_cdf.as_ref()?;
        let x: f64 = self.rng.random_range(0.0..1.0);
        let cdf = self.zipf_cdf.as_ref().unwrap();
        Some(cdf.partition_point(|&p| p < x).min(cdf.len() - 1))
    }

    fn draw_type(&mut self) -> QueryType {
        let x: f64 = self.rng.random_range(0.0..1.0);
        let mut acc = 0.0;
        for &(qt, w) in &self.mix {
            acc += w;
            if x < acc {
                return qt;
            }
        }
        self.mix.last().map(|&(qt, _)| qt).unwrap_or(QueryType::T1)
    }

    fn draw_neighborhood(&mut self) -> (usize, usize) {
        if let Some(rank) = self.draw_zipf_rank() {
            return (rank / self.neighborhoods, rank % self.neighborhoods);
        }
        if let Some(s) = self.skew {
            if self.rng.random_bool(s.fraction) {
                return (s.city, s.neighborhood);
            }
        }
        (
            self.rng.random_range(0..self.cities),
            self.rng.random_range(0..self.neighborhoods),
        )
    }

    fn prefix(&self, ci: usize) -> String {
        format!(
            "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='{}']",
            self.city_names[ci]
        )
    }

    /// Produces the next query text.
    pub fn next_query(&mut self) -> String {
        let qt = self.draw_type();
        self.next_query_of(qt)
    }

    /// Produces a query of a specific type (used by tests and latency
    /// breakdowns).
    pub fn next_query_of(&mut self, qt: QueryType) -> String {
        match qt {
            QueryType::T1 => {
                let (ci, ni) = self.draw_neighborhood();
                let b = self.rng.random_range(0..self.blocks) + 1;
                format!(
                    "{}/neighborhood[@id='n{}']/block[@id='{}']/parkingSpace[available='yes']",
                    self.prefix(ci),
                    ni + 1,
                    b
                )
            }
            QueryType::T2 => {
                let (ci, ni) = self.draw_neighborhood();
                let b1 = self.rng.random_range(0..self.blocks) + 1;
                let mut b2 = self.rng.random_range(0..self.blocks) + 1;
                if b2 == b1 {
                    b2 = b1 % self.blocks + 1;
                }
                format!(
                    "{}/neighborhood[@id='n{}']/block[@id='{}' or @id='{}']/parkingSpace[available='yes']",
                    self.prefix(ci),
                    ni + 1,
                    b1,
                    b2
                )
            }
            QueryType::T3 => {
                // Under a Zipf popularity curve the first neighborhood is
                // drawn from it, so the multi-site (cacheable) queries
                // concentrate on the hot set like the single-site ones.
                let (ci, n1) = if self.zipf_cdf.is_some() {
                    let (c, n) = self.draw_neighborhood();
                    (c, n + 1)
                } else {
                    (
                        self.rng.random_range(0..self.cities),
                        self.rng.random_range(0..self.neighborhoods) + 1,
                    )
                };
                let mut n2 = self.rng.random_range(0..self.neighborhoods) + 1;
                if n2 == n1 {
                    n2 = n1 % self.neighborhoods + 1;
                }
                let b = self.rng.random_range(0..self.blocks) + 1;
                format!(
                    "{}/neighborhood[@id='n{}' or @id='n{}']/block[@id='{}']/parkingSpace[available='yes']",
                    self.prefix(ci),
                    n1,
                    n2,
                    b
                )
            }
            QueryType::T4 => {
                let (c1, n) = if self.zipf_cdf.is_some() {
                    let (c, n) = self.draw_neighborhood();
                    (c, n + 1)
                } else {
                    (
                        self.rng.random_range(0..self.cities),
                        self.rng.random_range(0..self.neighborhoods) + 1,
                    )
                };
                let mut c2 = self.rng.random_range(0..self.cities);
                if c2 == c1 {
                    c2 = (c1 + 1) % self.cities;
                }
                let b = self.rng.random_range(0..self.blocks) + 1;
                format!(
                    "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']\
                     /city[@id='{}' or @id='{}']/neighborhood[@id='n{}']/block[@id='{}']\
                     /parkingSpace[available='yes']",
                    self.city_names[c1], self.city_names[c2], n, b
                )
            }
        }
    }
}

/// A hierarchy shape that scales to thousands of sites: one site for the
/// region top (root / state / county nodes), one per city, one per
/// neighborhood subtree — the paper's Fig. 6(iv) placement with the
/// fanouts as free parameters instead of the fixed nine sites. The same
/// placement drives both substrates: [`ScaleHierarchy::make_agents`]
/// builds a fresh, identically bootstrapped agent set each call, so a
/// sharded-runtime run and its DES replay start from the same state.
pub struct ScaleHierarchy {
    pub db: ParkingDb,
    /// DNS registrations, `(ownership root, owner)`, top-first. Site
    /// addresses are dense from 1, so `addr % shards` spreads the
    /// hierarchy evenly over a sharded runtime.
    pub owners: Vec<(IdPath, SiteAddr)>,
}

impl ScaleHierarchy {
    /// Derives a database shape whose site count is exactly `sites`
    /// (`1 + cities + cities × neighborhoods`): cities ≈ √sites, the
    /// remainder folded into the neighborhood fanout of the last city.
    /// Small block/space fanouts keep the leaf documents light so the
    /// headline runs are bounded by site count, not document size.
    pub fn params_for_sites(sites: usize) -> DbParams {
        assert!(sites >= 7, "need at least 2 cities of 2 neighborhoods");
        let mut cities = ((sites as f64).sqrt() as usize).max(2);
        // Largest neighborhood fanout that fits, then shrink the city
        // count until the grid `1 + c + c*n` can reach `sites` exactly.
        loop {
            let n = (sites - 1 - cities) / cities;
            if n >= 2 && 1 + cities + cities * n == sites {
                return DbParams {
                    cities,
                    neighborhoods_per_city: n,
                    blocks_per_neighborhood: 2,
                    spaces_per_block: 2,
                };
            }
            cities -= 1;
            assert!(cities >= 2, "no grid of {sites} sites");
        }
    }

    /// Builds the placement for a generated database.
    pub fn build(params: DbParams, seed: u64) -> ScaleHierarchy {
        let db = ParkingDb::generate(params, seed);
        let mut owners = vec![(db.root_path(), SiteAddr(1))];
        let mut next = 2u32;
        for ci in 0..params.cities {
            owners.push((db.city_path(ci), SiteAddr(next)));
            next += 1;
        }
        for ci in 0..params.cities {
            for ni in 0..params.neighborhoods_per_city {
                owners.push((db.neighborhood_path(ci, ni), SiteAddr(next)));
                next += 1;
            }
        }
        ScaleHierarchy { db, owners }
    }

    /// Convenience: exactly `sites` sites.
    pub fn with_sites(sites: usize, seed: u64) -> ScaleHierarchy {
        ScaleHierarchy::build(ScaleHierarchy::params_for_sites(sites), seed)
    }

    pub fn site_count(&self) -> usize {
        self.owners.len()
    }

    /// Constructs and bootstraps one agent per site: skeleton nodes on the
    /// top and city sites, full subtrees on the neighborhood sites.
    /// Callable repeatedly — each call yields an identical fresh set.
    pub fn make_agents(&self, config: &OaConfig) -> Vec<OrganizingAgent> {
        let db = &self.db;
        let mut agents = Vec::with_capacity(self.site_count());
        let top = OrganizingAgent::new(SiteAddr(1), db.service.clone(), config.clone());
        top.db_mut()
            .bootstrap_owned(&db.master, &db.root_path(), false)
            .expect("root");
        top.db_mut()
            .bootstrap_owned(&db.master, &db.root_path().child("state", "PA"), false)
            .expect("state");
        top.db_mut()
            .bootstrap_owned(&db.master, &db.county_path(), false)
            .expect("county");
        agents.push(top);
        for (path, addr) in &self.owners[1..] {
            let a = OrganizingAgent::new(*addr, db.service.clone(), config.clone());
            let full_subtree = path.last().map(|(t, _)| t == "neighborhood").unwrap_or(false);
            a.db_mut()
                .bootstrap_owned(&db.master, path, full_subtree)
                .expect("bootstrap site");
            agents.push(a);
        }
        agents
    }

    /// The QW-Mix stream over this database, leaf heat Zipf-skewed with
    /// exponent `zipf` (0 = uniform).
    pub fn workload(&self, seed: u64, zipf: f64) -> Workload {
        Workload::qw_mix(&self.db, seed).with_zipf(zipf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parkingdb::DbParams;
    use irisnet_core::routing::route_query;

    fn db() -> ParkingDb {
        ParkingDb::generate(DbParams::small(), 1)
    }

    #[test]
    fn scale_params_hit_exact_site_counts() {
        for sites in [7, 13, 111, 1021, 10_000] {
            let p = ScaleHierarchy::params_for_sites(sites);
            assert_eq!(
                1 + p.cities + p.cities * p.neighborhoods_per_city,
                sites,
                "{p:?}"
            );
            assert_eq!(ScaleHierarchy::with_sites(sites, 1).site_count(), sites);
        }
    }

    #[test]
    fn scale_hierarchy_answers_on_des() {
        use irisnet_core::{Endpoint, Message};
        use simnet::{CostModel, DesCluster};

        let h = ScaleHierarchy::with_sites(13, 3);
        let mut sim = DesCluster::new(CostModel::default());
        for (path, addr) in &h.owners {
            h.db.service.register_owner(&mut sim.dns, path, *addr);
        }
        let agents = h.make_agents(&OaConfig::default());
        assert_eq!(agents.len(), 13);
        for a in agents {
            sim.add_site(a);
        }
        let mut w = h.workload(9, 0.8);
        for (i, qt) in [QueryType::T1, QueryType::T3, QueryType::T4]
            .into_iter()
            .enumerate()
        {
            sim.schedule_message(
                i as f64 * 50.0,
                SiteAddr(1),
                Message::UserQuery {
                    qid: i as u64 + 1,
                    text: w.next_query_of(qt),
                    endpoint: Endpoint(10_000 + i as u64),
                },
            );
        }
        sim.run_until(200.0);
        let replies = sim.take_unclaimed_detailed();
        assert_eq!(replies.len(), 3);
        for r in &replies {
            assert!(r.ok && !r.partial, "scale hierarchy query failed: {}", r.answer_xml);
        }
    }

    #[test]
    fn type1_routes_to_block() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T1, 5);
        for _ in 0..20 {
            let q = w.next_query_of(QueryType::T1);
            let (_, path, _) = route_query(&q, &db.service).unwrap();
            assert_eq!(path.last().map(|(t, _)| t.to_string()), Some("block".into()));
        }
    }

    #[test]
    fn type2_routes_to_neighborhood() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T2, 5);
        let q = w.next_query_of(QueryType::T2);
        let (_, path, _) = route_query(&q, &db.service).unwrap();
        assert_eq!(path.last().map(|(t, _)| t.to_string()), Some("neighborhood".into()));
    }

    #[test]
    fn type3_routes_to_city_and_type4_to_county() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T3, 5);
        let (_, p3, _) = route_query(&w.next_query_of(QueryType::T3), &db.service).unwrap();
        assert_eq!(p3.last().map(|(t, _)| t.to_string()), Some("city".into()));
        let (_, p4, _) = route_query(&w.next_query_of(QueryType::T4), &db.service).unwrap();
        assert_eq!(p4.last().map(|(t, _)| t.to_string()), Some("county".into()));
    }

    #[test]
    fn queries_parse_and_answer_on_master() {
        // Every generated query must evaluate without error on the master.
        let db = db();
        let mut w = Workload::qw_mix(&db, 99);
        for _ in 0..40 {
            let q = w.next_query();
            let e = sensorxpath::parse(&q).unwrap();
            let v = sensorxpath::evaluate_at(
                &e,
                &db.master,
                sensorxpath::XNode::Node(db.master.root().unwrap()),
            )
            .unwrap();
            assert!(v.as_nodes().is_some());
        }
    }

    #[test]
    fn mix_distribution_roughly_matches() {
        let db = db();
        let mut w = Workload::qw_mix(&db, 123);
        let mut counts = [0usize; 4];
        for _ in 0..2000 {
            match w.draw_type() {
                QueryType::T1 => counts[0] += 1,
                QueryType::T2 => counts[1] += 1,
                QueryType::T3 => counts[2] += 1,
                QueryType::T4 => counts[3] += 1,
            }
        }
        assert!((counts[0] as f64 - 800.0).abs() < 120.0, "{counts:?}");
        assert!((counts[1] as f64 - 800.0).abs() < 120.0, "{counts:?}");
        assert!((counts[2] as f64 - 300.0).abs() < 90.0, "{counts:?}");
        assert!((counts[3] as f64 - 100.0).abs() < 60.0, "{counts:?}");
    }

    #[test]
    fn skew_concentrates_targets() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T1, 42).with_skew(0, 0, 0.9);
        let mut hits = 0;
        for _ in 0..1000 {
            let q = w.next_query_of(QueryType::T1);
            if q.contains("city[@id='Pittsburgh']/neighborhood[@id='n1']") {
                hits += 1;
            }
        }
        // 90% skew plus ~1/6 of the uniform remainder.
        assert!(hits > 850, "hits: {hits}");
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T1, 42).with_zipf(1.2);
        let mut rank0 = 0;
        for _ in 0..1000 {
            let q = w.next_query_of(QueryType::T1);
            if q.contains("city[@id='Pittsburgh']/neighborhood[@id='n1']") {
                rank0 += 1;
            }
        }
        // Rank 1 of a 1.2-exponent Zipf over the small db's neighborhoods
        // should draw well over a third of the traffic; uniform would get
        // ~1/6th.
        assert!(rank0 > 350, "rank-0 draws: {rank0}");
    }

    #[test]
    fn zipf_zero_is_roughly_uniform() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T1, 7).with_zipf(0.0);
        let mut rank0 = 0;
        for _ in 0..1200 {
            let q = w.next_query_of(QueryType::T1);
            if q.contains("city[@id='Pittsburgh']/neighborhood[@id='n1']") {
                rank0 += 1;
            }
        }
        let n = (db.params.cities * db.params.neighborhoods_per_city) as f64;
        let expect = 1200.0 / n;
        assert!((rank0 as f64 - expect).abs() < expect * 0.5, "rank-0 draws: {rank0}");
    }

    #[test]
    fn deterministic_streams() {
        let db = db();
        let mut a = Workload::qw_mix(&db, 7);
        let mut b = Workload::qw_mix(&db, 7);
        for _ in 0..50 {
            assert_eq!(a.next_query(), b.next_query());
        }
    }

    #[test]
    fn t2_blocks_are_distinct() {
        let db = db();
        let mut w = Workload::uniform(&db, QueryType::T2, 11);
        for _ in 0..100 {
            let q = w.next_query_of(QueryType::T2);
            let ids: Vec<&str> = q
                .match_indices("block[@id='")
                .map(|(i, _)| {
                    let rest = &q[i + 11..];
                    &rest[..rest.find('\'').unwrap()]
                })
                .collect();
            // Query text has the two block ids inside one predicate.
            let seg = q.split("block[").nth(1).unwrap();
            let _ = ids;
            let id1 = seg.split('\'').nth(1).unwrap();
            let id2 = seg.split('\'').nth(3).unwrap();
            assert_ne!(id1, id2, "query: {q}");
        }
    }
}
