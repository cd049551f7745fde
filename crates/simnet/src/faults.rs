//! Seeded, deterministic fault injection for both cluster substrates.
//!
//! A [`FaultPlan`] describes how the network misbehaves: per-link
//! drop/duplicate/delay probabilities, per-site crash/restart windows, and
//! a DNS-record staleness window. The plan is *pure data*; a [`FaultState`]
//! turns it into decisions. Every decision is a pure function of
//! `(seed, link, per-link message sequence number)` via SplitMix64, so the
//! same plan produces the same per-link fault sequence no matter which
//! substrate applies it: the discrete-event simulator consults it at
//! delivery scheduling time, the sharded runtime at the channel boundary.
//! (Thread interleaving in the sharded runtime can reorder *which* message
//! a decision lands on, but the decision stream per link is identical.)
//!
//! Crash windows model unreachability, not amnesia: a "down" site keeps
//! its state and simply receives nothing until its restart time — the
//! fail-stop-network model under which the agent's retry/partial-answer
//! machinery is meant to operate.

use std::collections::HashMap;

use irisdns::SiteAddr;

/// A per-site outage: messages addressed to `site` in `[down_at, up_at)`
/// are dropped. `up_at = f64::INFINITY` is a permanent crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashWindow {
    pub site: SiteAddr,
    pub down_at: f64,
    pub up_at: f64,
}

/// A deterministic description of network misbehavior.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Root seed; every per-link decision stream derives from it.
    pub seed: u64,
    /// Probability a site-to-site message is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered message is delivered twice.
    pub dup_prob: f64,
    /// Probability a delivered message is delayed beyond link latency.
    pub delay_prob: f64,
    /// Maximum extra delay (seconds); the actual delay is a deterministic
    /// fraction of this drawn per decision.
    pub max_extra_delay: f64,
    /// Extra latency of the duplicate copy relative to the original.
    pub dup_extra_delay: f64,
    /// How long a re-registered DNS record keeps answering with the *old*
    /// address (models propagation lag after an ownership migration).
    pub dns_stale_window: f64,
    /// Site outages.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The no-fault plan (useful as a baseline arm).
    pub fn reliable() -> FaultPlan {
        FaultPlan {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_extra_delay: 0.0,
            dup_extra_delay: 0.0,
            dns_stale_window: 0.0,
            crashes: Vec::new(),
        }
    }

    /// A "maskable" plan derived entirely from `seed`: drop/dup/delay rates
    /// kept low enough that a bounded retry budget recovers every loss with
    /// overwhelming probability, and no crashes. Used by the chaos
    /// equivalence suite: under this plan plus retries, answers must be
    /// byte-identical to a fault-free run.
    pub fn masked_from_seed(seed: u64) -> FaultPlan {
        let frac = |salt: u64| splitmix64(seed ^ salt) as f64 / u64::MAX as f64;
        FaultPlan {
            seed,
            drop_prob: 0.25 * frac(0x6472_6f70),      // up to 25 %
            dup_prob: 0.25 * frac(0x6475_7065),       // up to 25 %
            delay_prob: 0.5 * frac(0x6465_6c61),      // up to 50 %
            max_extra_delay: 2.0 * frac(0x6d61_7864), // up to 2 s
            dup_extra_delay: 0.05,
            dns_stale_window: 0.0,
            crashes: Vec::new(),
        }
    }

    /// Builder: adds a crash window.
    pub fn with_crash(mut self, site: SiteAddr, down_at: f64, up_at: f64) -> FaultPlan {
        self.crashes.push(CrashWindow { site, down_at, up_at });
        self
    }

    /// True if `site` is inside one of its crash windows at `now`.
    pub fn site_down(&self, site: SiteAddr, now: f64) -> bool {
        self.crashes
            .iter()
            .any(|c| c.site == site && now >= c.down_at && now < c.up_at)
    }

    /// If `site` is down at `now`, the time it comes back up (the latest
    /// `up_at` among windows covering `now`; `f64::INFINITY` for a
    /// permanent crash). `None` if the site is up.
    pub fn down_until(&self, site: SiteAddr, now: f64) -> Option<f64> {
        self.crashes
            .iter()
            .filter(|c| c.site == site && now >= c.down_at && now < c.up_at)
            .map(|c| c.up_at)
            .fold(None, |acc, up| Some(acc.map_or(up, |a: f64| a.max(up))))
    }
}

/// The verdict for one site-to-site message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultDecision {
    pub drop: bool,
    pub duplicate: bool,
    /// Extra delivery delay on top of link latency (0 when not delayed).
    pub extra_delay: f64,
}

/// Observability counters, reported by both substrates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub dropped: u64,
    pub duplicated: u64,
    pub delayed: u64,
    /// Messages lost because the destination site was inside a crash
    /// window at delivery time.
    pub crash_drops: u64,
}

/// Runtime fault-decision state: the plan plus per-link sequence counters.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    /// `(from, to) → next message sequence number` on that link.
    link_seq: HashMap<(u32, u32), u64>,
    pub counts: FaultCounts,
}

impl FaultState {
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState { plan, link_seq: HashMap::new(), counts: FaultCounts::default() }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// True if `site` is unreachable at `now`.
    pub fn site_down(&self, site: SiteAddr, now: f64) -> bool {
        self.plan.site_down(site, now)
    }

    /// Decides the fate of the next message on `from → to`, advancing that
    /// link's sequence counter. Deterministic: the n-th call for a given
    /// link always returns the same decision for the same plan.
    pub fn decide(&mut self, from: SiteAddr, to: SiteAddr) -> FaultDecision {
        let seq = self.link_seq.entry((from.0, to.0)).or_insert(0);
        let n = *seq;
        *seq += 1;
        let link = ((from.0 as u64) << 32) | to.0 as u64;
        let base = self
            .plan
            .seed
            .wrapping_add(link.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(n.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let frac = |salt: u64| splitmix64(base ^ salt) as f64 / u64::MAX as f64;
        let drop = frac(0x01) < self.plan.drop_prob;
        let duplicate = !drop && frac(0x02) < self.plan.dup_prob;
        let extra_delay = if !drop && frac(0x03) < self.plan.delay_prob {
            self.plan.max_extra_delay * frac(0x04)
        } else {
            0.0
        };
        if drop {
            self.counts.dropped += 1;
        }
        if duplicate {
            self.counts.duplicated += 1;
        }
        if extra_delay > 0.0 {
            self.counts.delayed += 1;
        }
        FaultDecision { drop, duplicate, extra_delay }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_replay_identically() {
        let plan = FaultPlan { drop_prob: 0.3, dup_prob: 0.2, delay_prob: 0.4, ..FaultPlan::masked_from_seed(7) };
        let mut a = FaultState::new(plan.clone());
        let mut b = FaultState::new(plan);
        for i in 0..200u32 {
            let (f, t) = (SiteAddr(i % 3), SiteAddr(3 + i % 2));
            assert_eq!(a.decide(f, t), b.decide(f, t));
        }
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn per_link_streams_are_independent_of_interleaving() {
        let plan = FaultPlan { drop_prob: 0.5, ..FaultPlan::masked_from_seed(11) };
        // Stream for link 1→2 alone.
        let mut solo = FaultState::new(plan.clone());
        let solo_seq: Vec<_> = (0..50).map(|_| solo.decide(SiteAddr(1), SiteAddr(2))).collect();
        // Same link interleaved with traffic on 2→1.
        let mut mixed = FaultState::new(plan);
        let mut mixed_seq = Vec::new();
        for _ in 0..50 {
            mixed_seq.push(mixed.decide(SiteAddr(1), SiteAddr(2)));
            mixed.decide(SiteAddr(2), SiteAddr(1));
        }
        assert_eq!(solo_seq, mixed_seq);
    }

    #[test]
    fn reliable_plan_never_faults() {
        let mut s = FaultState::new(FaultPlan::reliable());
        for _ in 0..100 {
            let d = s.decide(SiteAddr(1), SiteAddr(2));
            assert_eq!(d, FaultDecision { drop: false, duplicate: false, extra_delay: 0.0 });
        }
        assert_eq!(s.counts, FaultCounts::default());
    }

    #[test]
    fn crash_windows_bound_unreachability() {
        let plan = FaultPlan::reliable()
            .with_crash(SiteAddr(2), 10.0, 20.0)
            .with_crash(SiteAddr(3), 5.0, f64::INFINITY);
        assert!(!plan.site_down(SiteAddr(2), 9.9));
        assert!(plan.site_down(SiteAddr(2), 10.0));
        assert!(plan.site_down(SiteAddr(2), 19.9));
        assert!(!plan.site_down(SiteAddr(2), 20.0));
        assert!(plan.site_down(SiteAddr(3), 1e9));
        assert!(!plan.site_down(SiteAddr(1), 15.0));
    }

    #[test]
    fn masked_plans_differ_by_seed_but_stay_bounded() {
        let a = FaultPlan::masked_from_seed(1);
        let b = FaultPlan::masked_from_seed(2);
        assert_ne!(a, b);
        for p in [&a, &b] {
            assert!(p.drop_prob <= 0.25 && p.dup_prob <= 0.25);
            assert!(p.delay_prob <= 0.5 && p.max_extra_delay <= 2.0);
            assert!(p.crashes.is_empty());
        }
    }
}
