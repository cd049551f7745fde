//! Allocation budget of the query front end: parsing a query text and
//! planning it (`sensorxpath::parse` + `plan_query`) happens at every hop
//! of every query, so the blocks it allocates and the blocks the parsed
//! `Expr` and its `QueryPlan` keep alive are budgeted here.
//!
//! A counting global allocator counts allocations and frees. This binary
//! holds a single test, so no other test thread allocates while it counts.
//! "Retained" blocks are the ones freed by dropping the `Expr` and the
//! `QueryPlan`.
//!
//! Two bounds are asserted on the per-query means. The targets: parse +
//! plan make at most half the allocations, and the `Expr` + `QueryPlan`
//! hold at most 40 % of the blocks, of the front end before it borrowed
//! its tokens, stored names inline and shared predicates between the query
//! and its plan ([`BEFORE_QW_MIX`], [`BEFORE_SHAPES`]). And a budget per
//! phase, today's figures plus about 10 %, so that one lost saving (an
//! allocation per name, a deep copy per planned predicate) fails here
//! although the targets would still hold.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use irisnet_bench::{DbParams, ParkingDb, Workload};
use irisnet_core::qeg::plan_query;
use irisnet_core::Service;

#[path = "support/query_shapes.rs"]
mod query_shapes;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    // A reallocation frees one block and allocates another.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        FREES.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.load(Relaxed), FREES.load(Relaxed))
}

/// Per-query means of the front end that owned its token strings, cloned
/// each token as it consumed it and deep-copied the predicates into the
/// plan: parse allocations, plan allocations, blocks the `Expr` holds,
/// blocks the `QueryPlan` holds. Measured with this test before the
/// rework.
const BEFORE_QW_MIX: [f64; 4] = [83.5, 182.0, 54.1, 143.7];
/// As [`BEFORE_QW_MIX`], over the query shapes.
const BEFORE_SHAPES: [f64; 4] = [66.0, 140.2, 42.4, 108.8];

/// Today's figures (QW-Mix 33.0 / 16.0 / 32.0 / 16.0, shapes 25.8 / 13.3
/// / 25.0 / 13.2) plus about 10 %.
const BUDGET_QW_MIX: [f64; 4] = [36.0, 18.0, 35.0, 18.0];
/// As [`BUDGET_QW_MIX`], over the query shapes.
const BUDGET_SHAPES: [f64; 4] = [29.0, 15.0, 28.0, 15.0];

/// Allocations and retained blocks for one query's parse and plan.
#[derive(Default, Clone, Copy)]
struct Cost {
    parse_allocs: u64,
    plan_allocs: u64,
    expr_blocks: u64,
    plan_blocks: u64,
}

fn cost(text: &str, service: &Service) -> Cost {
    let (a0, _) = counts();
    let expr = sensorxpath::parse(text).unwrap_or_else(|e| panic!("parse `{text}`: {e}"));
    let (a1, _) = counts();
    let plan = plan_query(&expr, service);
    let (a2, _) = counts();
    let (_, f0) = counts();
    drop(plan);
    let (_, f1) = counts();
    drop(expr);
    let (_, f2) = counts();
    Cost {
        parse_allocs: a1 - a0,
        plan_allocs: a2 - a1,
        plan_blocks: f1 - f0,
        expr_blocks: f2 - f1,
    }
}

/// Per-query means over a set of query texts.
fn mean(texts: &[String], service: &Service) -> [f64; 4] {
    let mut sum = [0u64; 4];
    for t in texts {
        let c = cost(t, service);
        sum[0] += c.parse_allocs;
        sum[1] += c.plan_allocs;
        sum[2] += c.expr_blocks;
        sum[3] += c.plan_blocks;
    }
    sum.map(|s| s as f64 / texts.len() as f64)
}

fn check(what: &str, m: [f64; 4], before: [f64; 4], budget: [f64; 4]) {
    println!(
        "{what}: parse {:.1} + plan {:.1} allocations (before {:.1} + {:.1}); \
         expr {:.1} + plan {:.1} retained blocks (before {:.1} + {:.1})",
        m[0], m[1], before[0], before[1], m[2], m[3], before[2], before[3]
    );
    assert!(
        m[0] + m[1] <= 0.5 * (before[0] + before[1]),
        "{what}: parse + plan allocate more than half of before"
    );
    assert!(
        m[2] + m[3] <= 0.4 * (before[2] + before[3]),
        "{what}: Expr + QueryPlan hold more than 40 % of before's blocks"
    );
    let phases = ["parse allocations", "plan allocations", "Expr blocks", "QueryPlan blocks"];
    for ((phase, got), max) in phases.iter().zip(m).zip(budget) {
        assert!(got <= max, "{what}: {phase} {got:.1} over the budget of {max:.1}");
    }
}

#[test]
fn parse_and_plan_stay_within_budget() {
    let db = ParkingDb::generate(DbParams::small(), 1);
    let mut w = Workload::qw_mix(&db, 7);
    let qw_mix: Vec<String> = (0..400).map(|_| w.next_query()).collect();
    let shapes: Vec<String> = (0..6).flat_map(|s| query_shapes::queries(&db, s)).collect();

    // Display of a parsed query re-parses to the same text: subqueries go
    // on the wire as printed text.
    for t in qw_mix.iter().chain(&shapes) {
        let printed = sensorxpath::parse(t).unwrap().to_string();
        let again = sensorxpath::parse(&printed).unwrap().to_string();
        assert_eq!(printed, again, "printing `{t}` is not a fixed point");
    }

    // Warm up lazily initialised state (thread-locals, stdout) first.
    mean(&qw_mix[..4], &db.service);
    let mix = mean(&qw_mix, &db.service);
    let shape = mean(&shapes, &db.service);
    check("QW-Mix", mix, BEFORE_QW_MIX, BUDGET_QW_MIX);
    check("query shapes", shape, BEFORE_SHAPES, BUDGET_SHAPES);
}
