//! Ownership migration and load balancing (§4 "Ownership changes", §5.4).
//!
//! Transferring an IDable node (and its subtree) from site A to site B:
//!
//! 1. B receives a copy of the subtree from A (`TakeOwnership`);
//! 2. sensor proxies reporting to A are repointed (modelled by A
//!    forwarding updates until the cluster repoints its SAs);
//! 3. B marks the subtree `owned`, A demotes its copy to `complete`;
//! 4. the DNS entry flips to B — the linearization point: the rest of the
//!    system is oblivious until then, and stale DNS caches are tolerated
//!    because A forwards anything it receives for the migrated node.
//!
//! While a transfer is in flight, A *holds* queries and updates for the
//! node and replays them once the `TakeAck` arrives, making the transition
//! appear atomic.

use irisdns::{AuthoritativeDns, SiteAddr};
use irisobs::SpanKind;

use crate::agent::{HandleOutcome, Message, OrganizingAgent, Outbound};
use crate::fragment::Status;
use crate::idable::IdPath;

impl OrganizingAgent {
    /// Administrative request: delegate ownership of `path` (whole subtree)
    /// to `to`. Must currently be the owner.
    pub(crate) fn on_delegate(
        &mut self,
        path: IdPath,
        to: SiteAddr,
        now: f64,
        out: &mut Vec<Outbound>,
    ) {
        if to == self.addr {
            return; // nothing to do
        }
        if self.hold_set().contains(&path) {
            // A transfer of this path is already in flight; a second
            // `TakeOwnership` could land after a hand-back and re-claim it.
            return;
        }
        let fragment_xml = {
            let db = self.db();
            if db.status_at(&path) != Some(Status::Owned) {
                return; // not ours (possibly already delegated)
            }
            let Ok(export) = db.plan_export(std::slice::from_ref(&path)) else {
                return;
            };
            export.xml()
        };
        self.record_migration(SpanKind::MigrateOut, &path, to.0, now);
        self.hold_set().insert(path.clone());
        out.push(Outbound::Send {
            to,
            msg: Message::TakeOwnership { path, fragment_xml, from: self.addr },
        });
    }

    /// New owner side: install the fragment, claim ownership, update DNS,
    /// acknowledge.
    pub(crate) fn on_take_ownership(
        &mut self,
        path: IdPath,
        fragment_xml: &str,
        from: SiteAddr,
        dns: &mut AuthoritativeDns,
        now: f64,
        out: &mut Vec<Outbound>,
    ) {
        {
            let mut db = self.db_mut();
            if let Ok(frag) = sensorxml::parse(fragment_xml) {
                if db.merge_fragment(&frag).is_err() {
                    return; // refuse broken transfers; old owner keeps holding
                }
            }
            if db.set_status_subtree(&path, Status::Owned).is_err() {
                return;
            }
        }
        // Taking ownership supersedes any forwarding entry we held from a
        // past delegation of the same node.
        self.forward_map().remove(&path);
        // Step 4: flip the DNS entry — the atomicity point. Timed so a
        // configured staleness window keeps serving the old owner briefly
        // (tolerated via that owner's forwarding entry).
        self.service.register_owner_at(dns, &path, self.addr, now);
        self.record_migration(SpanKind::MigrateIn, &path, from.0, now);
        out.push(Outbound::Send {
            to: from,
            msg: Message::TakeAck { path, new_owner: self.addr },
        });
    }

    /// Old owner side: demote to a cached copy, install forwarding, replay
    /// held traffic. Only an ack for a transfer still in flight counts: a
    /// duplicated or late ack must not demote a site that has since
    /// re-acquired the path.
    pub(crate) fn on_take_ack(
        &mut self,
        path: IdPath,
        new_owner: SiteAddr,
        dns: &mut AuthoritativeDns,
        now: f64,
        oc: &mut HandleOutcome,
    ) {
        if !self.hold_set().remove(&path) {
            return;
        }
        let _ = self.db_mut().set_status_subtree(&path, Status::Complete);
        self.record_migration(SpanKind::MigrateAck, &path, new_owner.0, now);
        self.forward_map().insert(path, new_owner);
        self.release_held(dns, now, oc);
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::agent::{Endpoint, OaConfig};
    use crate::service::Service;
    use sensorxml::parse;

    fn master() -> sensorxml::Document {
        parse(
            r#"<usRegion id="NE"><state id="PA"><county id="A"><city id="P">
                 <neighborhood id="Oakland">
                   <block id="1"><parkingSpace id="1"><available>yes</available></parkingSpace></block>
                   <block id="2"><parkingSpace id="1"><available>no</available></parkingSpace></block>
                 </neighborhood>
               </city></county></state></usRegion>"#,
        )
        .unwrap()
    }

    fn oakland() -> IdPath {
        IdPath::from_pairs([
            ("usRegion", "NE"),
            ("state", "PA"),
            ("county", "A"),
            ("city", "P"),
            ("neighborhood", "Oakland"),
        ])
    }

    fn setup() -> (OrganizingAgent, OrganizingAgent, AuthoritativeDns, Arc<Service>) {
        let svc = Service::parking();
        let a = OrganizingAgent::new(SiteAddr(1), svc.clone(), OaConfig::default());
        let b = OrganizingAgent::new(SiteAddr(2), svc.clone(), OaConfig::default());
        let mut dns = AuthoritativeDns::new();
        a.db_mut().bootstrap_owned(&master(), &IdPath::from_pairs([("usRegion", "NE")]), true)
            .unwrap();
        svc.register_owner(&mut dns, &IdPath::from_pairs([("usRegion", "NE")]), SiteAddr(1));
        (a, b, dns, svc)
    }

    /// Runs the full delegation handshake A → B for `path`.
    fn migrate(
        a: &mut OrganizingAgent,
        b: &mut OrganizingAgent,
        dns: &mut AuthoritativeDns,
        path: &IdPath,
    ) {
        let out1 = a.handle(
            Message::Delegate { path: path.clone(), to: SiteAddr(2) },
            dns,
            0.0,
        );
        assert_eq!(out1.len(), 1);
        let Outbound::Send { to, msg } = &out1[0] else { panic!() };
        assert_eq!(*to, SiteAddr(2));
        let out2 = b.handle(msg.clone(), dns, 0.0);
        let Outbound::Send { to, msg } = &out2[0] else { panic!() };
        assert_eq!(*to, SiteAddr(1));
        let _ = a.handle(msg.clone(), dns, 0.0);
    }

    #[test]
    fn delegation_transfers_ownership_and_dns() {
        let (mut a, mut b, mut dns, svc) = setup();
        let block = oakland().child("block", "1");
        migrate(&mut a, &mut b, &mut dns, &block);

        assert_eq!(b.db().status_at(&block), Some(Status::Owned));
        assert_eq!(
            b.db().status_at(&block.child("parkingSpace", "1")),
            Some(Status::Owned)
        );
        assert_eq!(a.db().status_at(&block), Some(Status::Complete));
        // DNS now maps the block to B.
        let ans = dns.lookup(&svc.dns_name(&block)).unwrap();
        assert_eq!(ans.addr, SiteAddr(2));
        // B passes invariants against the master.
        b.db().check_invariants(&master()).unwrap();
        a.db().check_invariants(&master()).unwrap();
    }

    #[test]
    fn old_owner_forwards_updates_after_transfer() {
        let (mut a, mut b, mut dns, _svc) = setup();
        let block = oakland().child("block", "1");
        migrate(&mut a, &mut b, &mut dns, &block);

        let space = block.child("parkingSpace", "1");
        let out = a.handle(
            Message::Update {
                path: space.clone(),
                fields: vec![("available".into(), "no".into())],
            },
            &mut dns,
            5.0,
        );
        // Forwarded to B rather than applied.
        assert_eq!(a.stats.updates_forwarded, 1);
        let Outbound::Send { to, msg } = &out[0] else { panic!() };
        assert_eq!(*to, SiteAddr(2));
        let _ = b.handle(msg.clone(), &mut dns, 5.0);
        assert_eq!(b.stats.updates_applied, 1);
        assert_eq!(b.db().timestamp_at(&space), 5.0);
    }

    #[test]
    fn queries_held_during_migration_are_replayed() {
        let (mut a, mut b, mut dns, _svc) = setup();
        let block = oakland().child("block", "1");
        // Start the delegation but do not complete the handshake yet.
        let out1 = a.handle(
            Message::Delegate { path: block.clone(), to: SiteAddr(2) },
            &mut dns,
            0.0,
        );
        let Outbound::Send { msg: take_msg, .. } = &out1[0] else { panic!() };

        // A query for the migrating block is held.
        let q = format!("{}/parkingSpace", block.to_xpath());
        let held_out = a.handle(
            Message::UserQuery { qid: 9, text: q.clone(), endpoint: Endpoint(1) },
            &mut dns,
            0.0,
        );
        assert!(held_out.is_empty());
        assert_eq!(a.stats.held_messages, 1);

        // Complete the handshake; the held query is replayed and now
        // forwarded to the new owner.
        let out2 = b.handle(take_msg.clone(), &mut dns, 0.0);
        let Outbound::Send { msg: ack, .. } = &out2[0] else { panic!() };
        let out3 = a.handle(ack.clone(), &mut dns, 0.0);
        assert!(out3.iter().any(|o| matches!(
            o,
            Outbound::Send { to: SiteAddr(2), msg: Message::UserQuery { .. } }
        )));
    }

    /// The single message in `out`, which must be addressed to `to`.
    fn only_send(out: &[Outbound], to: SiteAddr) -> Message {
        assert_eq!(out.len(), 1, "expected exactly one outbound message");
        let Outbound::Send { to: got, msg } = &out[0] else { panic!("not a send") };
        assert_eq!(*got, to);
        msg.clone()
    }

    /// `owner` owns `path`; `other` holds a cached copy and forwards to it.
    fn assert_owned_by(owner: &mut OrganizingAgent, other: &mut OrganizingAgent, path: &IdPath) {
        assert_eq!(owner.db().status_at(path), Some(Status::Owned), "owner lost the path");
        assert_eq!(other.db().status_at(path), Some(Status::Complete), "two owners");
        assert_eq!(other.forward_map().get(path), Some(&owner.addr));
        assert_eq!(owner.forward_map().get(path), None, "owner forwards its own path");
    }

    #[test]
    fn repeated_delegate_in_flight_cannot_reclaim_after_hand_back() {
        let (mut a, mut b, mut dns, _svc) = setup();
        let block = oakland().child("block", "1");
        let delegate = |to| Message::Delegate { path: block.clone(), to };

        // A is told twice to hand the block to B before B's ack arrives.
        let take = only_send(&a.handle(delegate(SiteAddr(2)), &mut dns, 0.0), SiteAddr(2));
        let repeat = a.handle(delegate(SiteAddr(2)), &mut dns, 0.0);
        let ack = only_send(&b.handle(take, &mut dns, 0.0), SiteAddr(1));
        let _ = a.handle(ack, &mut dns, 0.0);

        // B hands the block back; A re-acquires it before B sees the ack.
        let take_back = only_send(&b.handle(delegate(SiteAddr(1)), &mut dns, 1.0), SiteAddr(1));
        let ack_back = only_send(&a.handle(take_back, &mut dns, 1.0), SiteAddr(2));

        // Anything the repeated delegate sent lands only now, at B, and
        // B's answer to it reaches A last.
        let mut late_acks = Vec::new();
        for o in &repeat {
            let Outbound::Send { msg, .. } = o else { panic!("not a send") };
            late_acks.extend(b.handle(msg.clone(), &mut dns, 2.0));
        }
        let _ = b.handle(ack_back, &mut dns, 2.0);
        for o in late_acks {
            let Outbound::Send { msg, .. } = o else { panic!("not a send") };
            let _ = a.handle(msg, &mut dns, 2.0);
        }

        assert_owned_by(&mut a, &mut b, &block);
        assert!(repeat.is_empty(), "a second transfer started while one was in flight");
    }

    #[test]
    fn late_duplicate_ack_does_not_demote_the_reacquired_owner() {
        let (mut a, mut b, mut dns, _svc) = setup();
        let block = oakland().child("block", "1");

        // A → B, keeping a copy of B's ack (a fault-duplicated delivery).
        let take = only_send(
            &a.handle(Message::Delegate { path: block.clone(), to: SiteAddr(2) }, &mut dns, 0.0),
            SiteAddr(2),
        );
        let ack = only_send(&b.handle(take, &mut dns, 0.0), SiteAddr(1));
        let _ = a.handle(ack.clone(), &mut dns, 0.0);

        // B → A: A owns the block again.
        let take_back = only_send(
            &b.handle(Message::Delegate { path: block.clone(), to: SiteAddr(1) }, &mut dns, 1.0),
            SiteAddr(1),
        );
        let ack_back = only_send(&a.handle(take_back, &mut dns, 1.0), SiteAddr(2));
        let _ = b.handle(ack_back, &mut dns, 1.0);
        assert_owned_by(&mut a, &mut b, &block);

        // The duplicate of the first ack arrives late: it refers to a
        // transfer A no longer has in flight.
        let out = a.handle(ack, &mut dns, 2.0);
        assert!(out.is_empty());
        assert_owned_by(&mut a, &mut b, &block);
    }

    #[test]
    fn delegate_refuses_non_owned_paths() {
        let (_, mut b, mut dns, _svc) = setup();
        // B owns nothing; delegation is a no-op.
        let out = b.handle(
            Message::Delegate { path: oakland(), to: SiteAddr(3) },
            &mut dns,
            0.0,
        );
        assert!(out.is_empty());
    }
}
