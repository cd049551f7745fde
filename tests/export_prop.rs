//! The one-pass fragment export must write exactly the text the previous
//! pipeline produced (deep-copy → clamp walk → per-ancestor scratch
//! document → `serialize`): answers and `structure_digest`s are compared
//! byte for byte across runtimes, and child order inside a fragment
//! depends on the order targets were added. The previous implementation
//! is kept below, verbatim but for `self` → `db`, as the reference.
//!
//! One level up, the sub-answer a site ships (`FinalizeSite`, matches
//! kept as node ids from evaluation to export) must be the text of the
//! id-path pipeline it replaced: `matched_final_paths` → the previous
//! coalesce → `plan_export`.

use std::sync::Arc;

use proptest::prelude::*;

use irisdns::SiteAddr;
use irisnet_bench::{DbParams, ParkingDb};
use irisnet_core::idable::{copy_local_id_information, copy_local_information, STATUS_ATTR};
use irisnet_core::qeg::{matched_final_paths, plan_query, QueryPlan};
use irisnet_core::routing::lca_id_path;
use irisnet_core::{
    perform_read, CoreError, CoreResult, IdPath, NativeWalk, QegFactory, ReadResult, ReadTask,
    ReadTaskKind, SiteDatabase, Status,
};
use sensorxml::{Document, NodeId};

#[path = "support/query_shapes.rs"]
mod query_shapes;
use query_shapes::queries;

fn tiny_params() -> DbParams {
    DbParams {
        cities: 2,
        neighborhoods_per_city: 2,
        blocks_per_neighborhood: 3,
        spaces_per_block: 3,
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

fn text(doc: CoreResult<Document>) -> Result<String, String> {
    match doc {
        Ok(d) => Ok(d.root().map(|r| sensorxml::serialize(&d, r)).unwrap_or_default()),
        Err(e) => Err(e.to_string()),
    }
}

/// A cache-side database in a mixed state: one city owned (children
/// `incomplete`), some units cached `complete`, some evicted back to
/// stubs, some spaces updated (text needing no escapes, fresh timestamps).
fn churned_cache(db: &ParkingDb, paths: &[IdPath], ops: &[(usize, u8)]) -> SiteDatabase {
    let mut owner = SiteDatabase::new(db.service.clone());
    owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let mut cache = SiteDatabase::new(db.service.clone());
    cache.bootstrap_owned(&db.master, &db.city_path(0), false).unwrap();
    for (n, &(i, what)) in ops.iter().enumerate() {
        let p = &paths[i % paths.len()];
        match what % 3 {
            0 => {
                let frag = owner.export_subtrees(std::slice::from_ref(p)).unwrap();
                cache.merge_fragment(&frag).unwrap();
            }
            1 => {
                let _ = cache.evict(p);
            }
            _ => {
                let fields = [("available".to_string(), "a<b & \"c\"".to_string())];
                let _ = owner.apply_update(p, &fields, 1.5 + n as f64);
            }
        }
    }
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random target lists — shared ancestors, duplicates, a target inside
    /// or above an earlier one, the root, paths not stored — over an
    /// all-owned database and over a churned cache.
    #[test]
    fn one_pass_export_matches_the_reference_byte_for_byte(
        ops in proptest::collection::vec((0usize..64, any::<u8>()), 0..12),
        picks in proptest::collection::vec(0usize..64, 0..7),
        seed in 0u64..8,
    ) {
        let db = ParkingDb::generate(tiny_params(), seed);
        let paths = all_paths(&db);
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        let cache = churned_cache(&db, &paths, &ops);
        let targets: Vec<IdPath> = picks.iter().map(|&i| paths[i % paths.len()].clone()).collect();
        for site in [&owner, &cache] {
            let expect = text(reference_export_subtrees(site, &targets));
            let got = site.plan_export(&targets).map(|p| p.xml()).map_err(|e| e.to_string());
            prop_assert_eq!(&got, &expect);
            // The `Document` form is that text as a receiver parses it.
            if let Ok(xml) = &expect {
                let parsed = text(site.export_subtrees(&targets));
                let reparsed = if xml.is_empty() {
                    Ok(String::new())
                } else {
                    text(sensorxml::parse(xml).map_err(CoreError::from))
                };
                prop_assert_eq!(parsed, reparsed);
            }
            // What the agent does with stored matches: coalesce over node
            // ids (distinct, as the matches are), then export in id-path
            // order.
            let mut nodes: Vec<NodeId> =
                targets.iter().filter_map(|t| t.resolve(site.doc())).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let coalesced: Vec<NodeId> = site.coalesce_covering_nodes(&nodes);
            let paths: Vec<IdPath> = nodes.iter().map(|&n| of_node(site, n)).collect();
            let expect_paths = reference_coalesce(site, &paths);
            let got_paths: Vec<IdPath> = coalesced.iter().map(|&n| of_node(site, n)).collect();
            prop_assert_eq!(&got_paths, &expect_paths);
            let expect = text(reference_export_subtrees(site, &expect_paths));
            let got =
                site.plan_export_nodes(&coalesced).map(|p| p.xml()).map_err(|e| e.to_string());
            prop_assert_eq!(got, expect);
            // The empty-match case: local information of one node.
            for p in &targets {
                let expect = text(reference_export_local_info(site, p));
                let got = site.plan_local_info(p).map(|p| p.xml()).map_err(|e| e.to_string());
                prop_assert_eq!(got, expect);
            }
        }
    }
}

fn of_node(site: &SiteDatabase, n: NodeId) -> IdPath {
    IdPath::of_node(site.doc(), n).expect("stored IDable nodes have id paths")
}

/// The sub-answer a site ships for `plan` (`FinalizeSite`), as the agent
/// computes it.
fn finalize_site(site: &SiteDatabase, plan: &QueryPlan, now: f64) -> String {
    let kind = ReadTaskKind::FinalizeSite {
        plan: Arc::new(plan.clone()),
        addr: SiteAddr(0),
        qid: 1,
        partial: false,
    };
    let task = ReadTask { pid: 1, posed_at: now, kind };
    match perform_read(&task, &QegFactory::new(Arc::new(NativeWalk)), site).result {
        ReadResult::Fragment { fragment_xml, .. } => fragment_xml,
        other => panic!("FinalizeSite gave {other:?}"),
    }
}

/// The same sub-answer from the id-path pipeline `FinalizeSite` ran
/// before: `matched_final_paths`, the reference coalesce, `plan_export`;
/// when nothing matched, the local information of the deepest stored
/// prefix of the query's id-pinned steps; the empty string on any error.
/// (The export plans, not the reference exports above, are the baseline
/// here: with duplicate siblings the two differ in which stubs they keep.)
fn reference_finalize_site(site: &SiteDatabase, plan: &QueryPlan, now: f64) -> String {
    let export = matched_final_paths(plan, site, now).and_then(|paths| {
        if paths.is_empty() {
            let mut p = lca_id_path(&plan.expr);
            loop {
                if p.is_empty() {
                    break Ok(None);
                }
                if site.contains(&p) {
                    break site.plan_local_info(&p).map(Some);
                }
                match p.parent() {
                    Some(pp) => p = pp,
                    None => break Ok(None),
                }
            }
        } else {
            site.plan_export(&reference_coalesce(site, &paths)).map(Some)
        }
    });
    match export {
        Ok(Some(plan)) => plan.xml(),
        _ => String::new(),
    }
}

/// Appends a copy of the node at `path` to its parent: a duplicate
/// `(tag, id)` sibling (Definition 3.1 rules them out; a document can
/// still hold them). `mode` 1 flips every `available` below the copy, so
/// the copy matches where the original does not; mode 2 renames the
/// copy's IDable children, so their id paths resolve nowhere.
fn add_duplicate(doc: &mut Document, path: &IdPath, mode: u8) {
    let Some(node) = path.resolve(doc) else { return };
    let Some(parent) = doc.parent(node) else { return };
    let copy = doc.clone().deep_copy_into(node, doc);
    match mode % 3 {
        1 => {
            let below: Vec<NodeId> = std::iter::once(copy).chain(doc.descendants(copy)).collect();
            for n in below {
                if doc.is_element(n) && doc.name(n) == "available" {
                    let flipped = if doc.text_content(n) == "yes" { "no" } else { "yes" };
                    doc.set_text_content(n, flipped);
                }
            }
        }
        2 => {
            let kids: Vec<NodeId> = doc.child_elements(copy).collect();
            for k in kids {
                if let Some(id) = doc.attr(k, "id").map(|i| format!("{i}x")) {
                    doc.set_attr(k, "id", id);
                }
            }
        }
        _ => {}
    }
    doc.append_child(parent, copy);
}

/// The owner's export of `path` with duplicate siblings added at `dups`
/// (path index, mode). Merged into a database, the duplicates stay where
/// the merge copies a subtree the database lacks.
fn fragment_with_duplicates(
    owner: &SiteDatabase,
    paths: &[IdPath],
    path: &IdPath,
    dups: &[(usize, u8)],
) -> Document {
    let mut frag = owner.export_subtrees(std::slice::from_ref(path)).unwrap();
    for &(i, mode) in dups {
        add_duplicate(&mut frag, &paths[i % paths.len()], mode);
    }
    frag
}

/// Shapes that decide which steps the sub-answer's evaluation strips:
/// a value conjunct before the id one (stripping moves the id first, so
/// the numeric predicate never meets a node), `and` chains (stripping
/// splits them, so a number in one is a numeric predicate), and a
/// consistency predicate nested in a value predicate.
fn strip_shapes(db: &ParkingDb, seed: u64) -> Vec<String> {
    let n = db.neighborhood_path((seed % 2) as usize, (seed / 2 % 2) as usize).to_xpath();
    let b = format!("{n}/block[@id='{}']", 1 + seed % 3);
    vec![
        format!("{b}/parkingSpace[price + 0][@id='99']"),
        format!("{b}/parkingSpace[available='yes'][@id='1' or @id='2']"),
        format!("{b}/parkingSpace[@id='1' and price + 0]"),
        format!("{b}/parkingSpace[@id='1' and available='yes']"),
        format!("{n}/block[parkingSpace[@timestamp > now() - 5]]/parkingSpace"),
    ]
}

/// Block sizes: 11 spaces put ids `10` and `11` before `2` in id-path
/// order and give blocks a sibling index; 3 spaces do neither.
fn finalize_params(wide: bool) -> DbParams {
    DbParams { spaces_per_block: if wide { 11 } else { 3 }, ..tiny_params() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The sub-answer a site ships, over random site states (owned,
    /// `complete` cached, evicted, of mixed ages, with duplicate
    /// `(tag, id)` siblings) and the QEG query shapes, equals the id-path
    /// pipeline's byte for byte — the empty match (negative evidence) and
    /// the errors included.
    #[test]
    fn finalize_site_matches_the_id_path_pipeline(
        wide in any::<bool>(),
        own in (0usize..128, any::<bool>(), any::<bool>()),
        dup_at in 0usize..128,
        dups in proptest::collection::vec((1usize..128, any::<u8>()), 0..4),
        ops in proptest::collection::vec((0usize..128, any::<u8>()), 0..16),
        qseed in 0u64..1000,
    ) {
        let db = ParkingDb::generate(finalize_params(wide), 2);
        let paths = all_paths(&db);
        let spaces = db.all_space_paths();
        let mut owner = SiteDatabase::new(db.service.clone());
        owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
        let mut site = SiteDatabase::new(db.service.clone());
        if own.2 {
            site.bootstrap_owned(&db.master, &paths[own.0 % paths.len()], own.1).unwrap();
        }
        let frag = fragment_with_duplicates(&owner, &paths, &paths[dup_at % paths.len()], &dups);
        site.merge_fragment(&frag).unwrap();
        let mut ts = 0.0;
        for &(i, what) in &ops {
            match what % 3 {
                0 => {
                    let p = std::slice::from_ref(&paths[i % paths.len()]);
                    // Merging over owned data is refused; that's fine.
                    let _ = site.merge_fragment(&owner.export_subtrees(p).unwrap());
                }
                1 => {
                    let _ = site.evict(&paths[i % paths.len()]);
                }
                _ => {
                    // Updated at the owner, so later cached copies differ
                    // in age and value.
                    ts += 1.0 + f64::from(what);
                    let v = if what % 2 == 0 { "yes" } else { "no" };
                    let fields = [("available".to_string(), v.to_string())];
                    owner.apply_update(&spaces[i % spaces.len()], &fields, ts).unwrap();
                }
            }
        }
        for q in queries(&db, qseed).into_iter().chain(strip_shapes(&db, qseed)) {
            let plan = plan_query(&sensorxpath::parse(&q).unwrap(), &db.service).unwrap();
            for now in [0.0, ts + 6.0] {
                prop_assert_eq!(
                    finalize_site(&site, &plan, now),
                    reference_finalize_site(&site, &plan, now),
                    "{} now={}", q, now
                );
            }
        }
    }
}

/// Non-vacuity of the property above: each case it has to get right
/// occurs, and the node-id pipeline gets it right.
#[test]
fn finalize_site_cases_are_reached() {
    let db = ParkingDb::generate(finalize_params(true), 2);
    let paths = all_paths(&db);
    let block = db.block_path(0, 0, 0);
    let q = |tail: &str| {
        let q = format!("{}{tail}", block.to_xpath());
        plan_query(&sensorxpath::parse(&q).unwrap(), &db.service).unwrap()
    };
    let check = |site: &SiteDatabase, plan: &QueryPlan| {
        let got = finalize_site(site, plan, 0.0);
        assert_eq!(got, reference_finalize_site(site, plan, 0.0));
        got
    };
    let mut owner = SiteDatabase::new(db.service.clone());
    owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    // Every space of a block: the block ships whole.
    let all = check(&owner, &q("/parkingSpace"));
    assert!(all.contains(r#"<block id="1" status="complete""#), "{all}");
    // Spaces 2 and 10: in id-path order, `10` before `2`.
    let two = check(&owner, &q("/parkingSpace[@id='2' or @id='10']"));
    assert!(two.find(r#"id="10""#).unwrap() < two.find(r#"id="2""#).unwrap(), "{two}");
    // No match: the block's local information, as negative evidence.
    let none = check(&owner, &q("/parkingSpace[@id='99']"));
    assert!(none.contains(r#"<parkingSpace id="1" status="incomplete"/>"#), "{none}");

    // A cached block with a duplicate of space 2 that is available where
    // the original is not: the match stands for the original, which ships.
    let space2 = db.space_path(0, 0, 0, 1);
    let dup_at = paths.iter().position(|p| *p == space2).unwrap();
    let frag = fragment_with_duplicates(&owner, &paths, &db.root_path(), &[(dup_at, 1)]);
    let mut dup = SiteDatabase::new(db.service.clone());
    dup.merge_fragment(&frag).unwrap();
    let orig = owner.doc().child_by_name(space2.resolve(owner.doc()).unwrap(), "available");
    let other = if owner.doc().text_content(orig.unwrap()) == "yes" { "no" } else { "yes" };
    let got = check(&dup, &q(&format!("/parkingSpace[@id='2'][available='{other}']")));
    let shipped = if other == "yes" { "no" } else { "yes" };
    let original = format!(r#"id="2" status="complete" timestamp="0"><available>{shipped}<"#);
    assert!(got.contains(&original), "{got}");
    // Every space matches, the duplicate too: that is 11 matches against
    // 12 stored children, so the block does not ship whole (counting the
    // duplicate's match apart would make it 12).
    let both = check(&dup, &q("/parkingSpace"));
    assert!(both.contains(r#"<block id="1" status="id-complete""#), "{both}");
    // A duplicate block whose spaces were renamed: their id paths resolve
    // nowhere, and the site ships nothing.
    let block_at = paths.iter().position(|p| *p == block).unwrap();
    let frag = fragment_with_duplicates(&owner, &paths, &db.root_path(), &[(block_at, 2)]);
    let mut hidden = SiteDatabase::new(db.service.clone());
    hidden.merge_fragment(&frag).unwrap();
    assert_eq!(check(&hidden, &q("/parkingSpace")), "");
}

/// Non-vacuity of the property above: the generator does reach the cases
/// whose child order the plan has to reproduce.
#[test]
fn target_order_decides_child_order() {
    let db = ParkingDb::generate(tiny_params(), 1);
    let mut owner = SiteDatabase::new(db.service.clone());
    owner.bootstrap_owned(&db.master, &db.root_path(), true).unwrap();
    let (b0, b1) = (db.block_path(0, 0, 0), db.block_path(0, 0, 1));
    let s = db.space_path(0, 0, 0, 1);
    let xml = |t: &[IdPath]| owner.plan_export(t).unwrap().xml();
    assert_ne!(xml(&[b0.clone(), b1.clone()]), xml(&[b1.clone(), b0.clone()]));
    // A target inside an earlier target moves to the end of its parent.
    assert_ne!(xml(&[b0.clone(), s.clone()]), xml(std::slice::from_ref(&b0)));
    for t in [vec![b0.clone(), s.clone()], vec![s.clone(), b0.clone(), s.clone()], vec![b0, b1]] {
        assert_eq!(Ok(xml(&t)), text(reference_export_subtrees(&owner, &t)));
    }
    // Exported `owned` data claims `complete`; nothing claims `owned`.
    let all = xml(&[db.city_path(0)]);
    assert!(all.contains("status=\"complete\"") && !all.contains("status=\"owned\""));
    // The root may be a target only once and only first.
    assert!(owner.plan_export(&[db.root_path(), db.root_path()]).is_err());
    assert!(reference_export_subtrees(&owner, &[db.root_path(), db.root_path()]).is_err());
    assert!(owner.plan_export(&[]).unwrap().is_empty());
}

// ---------------------------------------------------------------------
// Reference: the export pipeline this PR replaced.
// ---------------------------------------------------------------------

/// Builds a wire fragment containing, for each target path: the target
/// node's full stored subtree, plus the local ID information of every
/// ancestor (status `id-complete`, children stubs `incomplete`) —
/// the smallest superset satisfying C1/C2 (§3.3). `owned` statuses are
/// exported as `complete`.
fn reference_export_subtrees(db: &SiteDatabase, targets: &[IdPath]) -> CoreResult<Document> {
    let mut out = Document::new();
    for path in targets {
        let node = path.resolve(db.doc()).ok_or_else(|| {
            CoreError::Protocol(format!("export: no node at {path}"))
        })?;
        // Ancestor chain.
        let mut out_cursor: Option<NodeId> = None;
        let mut cur_path = IdPath::root();
        for (i, (tag, id)) in path.segments().iter().enumerate() {
            cur_path = cur_path.child(tag.clone(), id.clone());
            let is_target = i + 1 == path.len();
            let db_node = cur_path
                .resolve(db.doc())
                .expect("prefix of resolvable path resolves");
            if is_target {
                let sub = export_subtree_node(db, node, &mut out);
                let _ = db_node;
                match out_cursor {
                    None => out.set_root(sub)?,
                    Some(parent) => {
                        // Replace a stub inserted by a previous target's
                        // ancestor chain, if any.
                        if let Some(stub) = out.child_by_name_id(parent, tag, id) {
                            out.detach(stub);
                        }
                        out.append_child(parent, sub);
                    }
                }
            } else {
                // Ensure ancestor with local ID information.
                let existing = match out_cursor {
                    None => out.root().filter(|&r| {
                        out.name(r) == tag && out.attr(r, "id") == Some(id)
                    }),
                    Some(parent) => out.child_by_name_id(parent, tag, id),
                };
                let anc = match existing {
                    Some(e) => {
                        // A node first emitted as a bare sibling stub
                        // must be upgraded to full local ID information
                        // before children hang off it (C2).
                        if out.attr(e, STATUS_ATTR)
                            == Some(Status::Incomplete.as_str())
                        {
                            out.set_attr(e, STATUS_ATTR, Status::IdComplete.as_str());
                            let kids: Vec<(String, String)> = db
                                .doc()
                                .child_elements(db_node)
                                .filter(|&c| {
                                    db.service().schema.is_idable(db.doc().name(c))
                                })
                                .filter_map(|c| {
                                    db.doc().attr(c, "id").map(|i| {
                                        (db.doc().name(c).to_string(), i.to_string())
                                    })
                                })
                                .collect();
                            for (ktag, kid) in kids {
                                if out.child_by_name_id(e, &ktag, &kid).is_none() {
                                    let stub = out.create_element(ktag);
                                    out.set_attr(stub, "id", kid);
                                    out.set_attr(
                                        stub,
                                        STATUS_ATTR,
                                        Status::Incomplete.as_str(),
                                    );
                                    out.append_child(e, stub);
                                }
                            }
                        }
                        e
                    }
                    None => {
                        let mut tmp = Document::new();
                        let li = copy_local_id_information(
                            db.doc(),
                            db_node,
                            &db.service().schema,
                            &mut tmp,
                        );
                        tmp.set_attr(li, STATUS_ATTR, Status::IdComplete.as_str());
                        for c in tmp.child_elements(li).collect::<Vec<_>>() {
                            tmp.set_attr(c, STATUS_ATTR, Status::Incomplete.as_str());
                        }
                        let copied = tmp.deep_copy_into(li, &mut out);
                        match out_cursor {
                            None => out.set_root(copied)?,
                            Some(parent) => {
                                if let Some(stub) = out.child_by_name_id(parent, tag, id) {
                                    out.detach(stub);
                                }
                                out.append_child(parent, copied);
                            }
                        }
                        copied
                    }
                };
                out_cursor = Some(anc);
            }
        }
    }
    Ok(out)
}

/// Builds a wire fragment carrying only the *local information* of the
/// node at `path` (plus ancestor ID chains): the smallest C1/C2 unit
/// proving which IDable children exist. Used as negative evidence when
/// a subquery matches nothing — the requester learns that a cached
/// child was deleted.
fn reference_export_local_info(db: &SiteDatabase, path: &IdPath) -> CoreResult<Document> {
    let node = path
        .resolve(db.doc())
        .ok_or_else(|| CoreError::Protocol(format!("export: no node at {path}")))?;
    let mut out = Document::new();
    let mut cursor: Option<NodeId> = None;
    for (i, (tag, id)) in path.segments().iter().enumerate() {
        let sub = IdPath::from_pairs(
            path.segments()[..=i]
                .iter()
                .map(|(t, v)| (t.clone(), v.clone())),
        );
        let db_node = sub.resolve(db.doc()).expect("prefix resolves");
        let is_target = i + 1 == path.len();
        let copied = if is_target {
            let li = copy_local_information(
                db.doc(),
                node,
                &db.service().schema,
                &mut out,
            );
            // The claimed status must reflect what we store.
            let st = db.status_of(node).unwrap_or(Status::Incomplete);
            out.set_attr(li, STATUS_ATTR, st.min(Status::Complete).as_str());
            for c in out.child_elements(li).collect::<Vec<_>>() {
                if db.service().schema.is_idable(out.name(c)) {
                    out.set_attr(c, STATUS_ATTR, Status::Incomplete.as_str());
                }
            }
            li
        } else {
            let mut tmp = Document::new();
            let li = copy_local_id_information(
                db.doc(),
                db_node,
                &db.service().schema,
                &mut tmp,
            );
            tmp.set_attr(li, STATUS_ATTR, Status::IdComplete.as_str());
            for c in tmp.child_elements(li).collect::<Vec<_>>() {
                tmp.set_attr(c, STATUS_ATTR, Status::Incomplete.as_str());
            }
            tmp.deep_copy_into(li, &mut out)
        };
        match cursor {
            None => out.set_root(copied)?,
            Some(parent) => {
                if let Some(stub) = out.child_by_name_id(parent, tag, id) {
                    out.detach(stub);
                }
                out.append_child(parent, copied);
            }
        }
        cursor = Some(copied);
    }
    Ok(out)
}

/// Deep copy of a stored node into `dst` with `owned` clamped to
/// `complete`.
fn export_subtree_node(db: &SiteDatabase, node: NodeId, dst: &mut Document) -> NodeId {
    let copied = db.doc().deep_copy_into(node, dst);
    fn clamp(doc: &mut Document, n: NodeId) {
        if doc.attr(n, STATUS_ATTR) == Some(Status::Owned.as_str()) {
            doc.set_attr(n, STATUS_ATTR, Status::Complete.as_str());
        }
        let kids: Vec<NodeId> = doc.child_elements(n).collect();
        for k in kids {
            clamp(doc, k);
        }
    }
    clamp(dst, copied);
    copied
}


/// `SiteDatabase::coalesce_covering_paths` as it was before coalescing
/// moved onto node ids, verbatim but for `self` → `db`. (It had replaced a
/// path-keyed version whose result depended on `HashMap` order when a
/// node and its child were both in the input.)
fn reference_coalesce(db: &SiteDatabase, paths: &[IdPath]) -> Vec<IdPath> {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, HashMap};
    // Each path is resolved once; from there the set is over `NodeId`s.
    // A member is remembered as a prefix of one of the input paths
    // (`paths[i].segments()[..len]`), so only survivors are cloned.
    let mut set: HashMap<NodeId, (usize, usize)> = HashMap::with_capacity(paths.len());
    let mut out: Vec<IdPath> = Vec::new();
    for (i, p) in paths.iter().enumerate() {
        match p.resolve(db.doc()) {
            Some(n) => {
                set.insert(n, (i, p.len()));
            }
            // Not stored here: nothing to coalesce it with.
            None => out.push(p.clone()),
        }
    }
    loop {
        // Grouped by parent, deepest parents first: with a chain of
        // members (a node, its child, its grandchild) the grandchild
        // is dropped under the child before the child is dropped
        // under the node, whatever the arena order.
        let mut by_parent: BTreeMap<(Reverse<usize>, NodeId), Vec<NodeId>> = BTreeMap::new();
        for (&n, &(_, len)) in &set {
            if let Some(parent) = db.doc().parent(n) {
                by_parent.entry((Reverse(len), parent)).or_default().push(n);
            }
        }
        let mut changed = false;
        for ((_, parent), kids) in by_parent {
            let covered = set.contains_key(&parent) || {
                // All stored IDable children of a parent whose local
                // information is present: the parent stands for them.
                let has_info =
                    db.status_of(parent).is_some_and(Status::has_local_info);
                has_info
                    && kids.len()
                        == db
                            .doc()
                            .child_elements(parent)
                            .filter(|&c| db.service().schema.is_idable(db.doc().name(c)))
                            .count()
            };
            if covered {
                let (i, len) = set[&kids[0]];
                for k in &kids {
                    set.remove(k);
                }
                set.entry(parent).or_insert((i, len - 1));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    out.extend(set.into_values().map(|(i, len)| {
        IdPath::from_pairs(paths[i].segments()[..len].iter().cloned())
    }));
    out.sort();
    out.dedup();
    out
}
