//! The QEG query shapes the differential tests run, instantiated over a
//! generated parking database: QW-1..4, `//`, `*`, or-ed ids, the
//! nested-predicate subtree gate, number-valued (positional) predicates,
//! unclean and freshness predicates, suffix steps.

use irisnet_bench::{ParkingDb, QueryType, Workload};

/// Freshness tolerances the queries use (seconds).
pub const TOLERANCES: [u32; 2] = [5, 40];

/// The query shapes, instantiated over the database.
pub fn queries(db: &ParkingDb, seed: u64) -> Vec<String> {
    let mut w = Workload::qw_mix(db, seed);
    let city = format!(
        "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']/city[@id='{}']",
        db.city_name((seed % 2) as usize)
    );
    let county = "/usRegion[@id='NE']/state[@id='PA']/county[@id='Allegheny']";
    let n = 1 + seed % 2;
    let b = 1 + seed % 3;
    let mut qs = vec![
        w.next_query_of(QueryType::T1),
        w.next_query_of(QueryType::T2),
        w.next_query_of(QueryType::T3),
        w.next_query_of(QueryType::T4),
        // `//`: a mid-path search, a leading search, and two in a row.
        "/usRegion[@id='NE']//parkingSpace[available='yes']".to_string(),
        format!("/usRegion[@id='NE']/state[@id='PA']//block[@id='{b}']/parkingSpace"),
        format!("//neighborhood[@id='n{n}']//parkingSpace[price='0']"),
        // `*` steps.
        format!("{county}/*/neighborhood[@id='n{n}']/*[@id='{b}']/parkingSpace"),
        format!("{city}/*/block[@id='{b}']/*[price > 0]"),
        // Or-ed ids and an unclean (id mixed with value) predicate.
        format!("{city}/neighborhood[@id='n1' or @id='n2']/block[@id='{b}']/parkingSpace"),
        format!("{city}/neighborhood[@id='n{n}' or @zipcode='15202']/block[@id='1']/parkingSpace"),
        // Nesting depth 1 (gate pulled up to the block) and a predicate
        // traversing IDable children (gate at the neighborhood).
        format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}']\
             /parkingSpace[not(price > ../parkingSpace/price)]"
        ),
        format!("{city}/neighborhood[@id='n{n}'][block/parkingSpace/available='yes']/block"),
        // Number-valued predicates — the positional form the parser admits
        // (a literal `[1]` is rejected at parse time): a template test
        // coerces them to boolean, a select filter rejects them.
        format!("{city}/neighborhood[@id='n{n}']/block[@id='{b}']/parkingSpace[price + 0]"),
        format!("{city}/neighborhood[@id='n{n}']/block[number(@id) - 1]/parkingSpace"),
        // A whole neighborhood: collect mode over everything below it.
        format!("{city}/neighborhood[@id='n{n}']"),
        // Suffix steps below the distribution prefix.
        format!("{city}/neighborhood[@id='n{n}']/block[@id='{b}']/parkingSpace/available"),
    ];
    for tol in TOLERANCES {
        qs.push(format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}']\
             /parkingSpace[available='yes'][@timestamp > now() - {tol}]"
        ));
        qs.push(format!(
            "{city}/neighborhood[@id='n{n}']/block[@id='{b}'][@timestamp > now() - {tol}]\
             /parkingSpace"
        ));
        qs.push(format!(
            "/usRegion[@id='NE']//parkingSpace[@timestamp > now() - {tol}]"
        ));
    }
    qs
}
