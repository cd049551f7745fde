//! One interface over both substrates.
//!
//! [`crate::DesCluster`] (virtual time, the oracle) and
//! [`crate::ShardedCluster`] (threads, wall time, the wire codec) drive
//! the same [`OrganizingAgent`] state machine; the serialized query and
//! answer are the only boundary between sites on either. [`Cluster`] is
//! what a scenario needs from a substrate — set up sites and DNS, inject
//! traffic and faults, crash and restart sites, pose queries, take the
//! agents back — so an equivalence scenario is written once and run over
//! a list of runtimes.

use std::sync::Arc;

use irisdns::SiteAddr;
use irisnet_core::{CoreError, IdPath, Message, OrganizingAgent};
use irisobs::Recorder;

use crate::faults::{FaultCounts, FaultPlan};

/// Where [`Cluster::pose_each`] sends a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Straight to this site.
    Site(SiteAddr),
    /// Self-starting routing: the query's LCA name, resolved through DNS.
    Routed,
}

/// A posed query's answer as the posing client sees it. The default
/// (empty, neither `ok` nor `partial`) means no reply: the query could
/// not be routed or did not complete in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Reply {
    pub answer_xml: String,
    pub ok: bool,
    /// True if part of the queried subtree was unreachable and the answer
    /// carries `partial="true"` covering stubs (or the target was down).
    pub partial: bool,
}

impl Reply {
    /// The reply to a pose whose target site is stopped: failed fast, and
    /// partial because the site's data is missing.
    pub fn site_down() -> Reply {
        Reply {
            answer_xml: format!("<error>{}</error>", CoreError::SiteDown),
            ok: false,
            partial: true,
        }
    }
}

/// A cluster substrate: sites, DNS, faults and clients.
///
/// Order of setup: [`Cluster::set_recorder`], then [`Cluster::add_site`]
/// for every site, then [`Cluster::register_owner`] (the DES names DNS
/// entries through its sites' service), then [`Cluster::start`].
pub trait Cluster {
    /// Registers `path → addr` in the cluster's authoritative DNS.
    fn register_owner(&mut self, path: &IdPath, addr: SiteAddr);

    /// Adds a site before [`Cluster::start`]; its address must be unique.
    fn add_site(&mut self, oa: OrganizingAgent);

    /// Brings the added sites up (spawns the shard loops; a no-op on the
    /// DES, whose sites run as soon as they are added).
    fn start(&mut self);

    /// Installs an observability recorder on every site; call before
    /// [`Cluster::add_site`].
    fn set_recorder(&mut self, rec: Arc<dyn Recorder>);

    /// Routes every site-to-site send through the plan's seeded
    /// drop/duplicate/delay/crash decisions; client links stay reliable.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// What the active fault plan has done so far (zeroes if none).
    fn fault_counts(&self) -> FaultCounts;

    /// Sends a raw message (sensor update, admin request) to a site. It is
    /// queued at the site ahead of anything the caller does next.
    fn send(&mut self, to: SiteAddr, msg: Message);

    /// Crashes a site and returns its agent; messages for it are dropped
    /// and poses to it fail with [`Reply::site_down`] until
    /// [`Cluster::restart_site`].
    fn stop_site(&mut self, addr: SiteAddr) -> Option<OrganizingAgent>;

    /// Brings a site back with `oa` — usually a replacement that recovered
    /// its database through `attach_durability`.
    fn restart_site(&mut self, oa: OrganizingAgent);

    /// Pulls a telemetry payload (`what` is an `irisobs::WHAT_*`
    /// selector) from a site over the cluster's network; `None` if the
    /// site never answers.
    fn scrape(&mut self, site: SiteAddr, what: u8) -> Option<String>;

    /// Poses `queries` one after another, each completed before the next
    /// is posed, and returns their replies in posing order.
    fn pose_each(&mut self, to: Target, queries: &[String]) -> Vec<Reply>;

    /// Stops every site and returns the agents sorted by address.
    fn finish(&mut self) -> Vec<OrganizingAgent>;
}
