//! The fault fabric: the seeded drop/duplicate/delay/crash plane applied at
//! the channel boundary of the threaded runtime ([`crate::shard`]).
//! Delivery is abstracted behind a closure — the sharded cluster routes
//! through its shard mailboxes (framing cross-shard copies) — while the
//! [`FaultState`] consulted per send is the one the DES uses, so a seed
//! replays the same per-link decisions on both substrates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use irisdns::SiteAddr;
use irisnet_core::Message;

use crate::faults::{FaultCounts, FaultPlan, FaultState};
use crate::lock;

/// A hand-rolled task queue shared between an owner/event loop and its
/// read workers. Closing wakes every blocked worker so they can exit.
/// Generic over the work item; the sharded runtime tags each
/// [`irisnet_core::ReadTask`] with the owning site.
pub(crate) struct WorkQueue<T> {
    state: Mutex<(std::collections::VecDeque<(T, Instant)>, bool)>,
    cv: Condvar,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> WorkQueue<T> {
        WorkQueue {
            state: Mutex::new((std::collections::VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueues an item (stamped for queue-wait accounting) and returns the
    /// queue depth after the push.
    pub(crate) fn push(&self, item: T) -> usize {
        let mut g = lock(&self.state);
        g.0.push_back((item, Instant::now()));
        self.cv.notify_one();
        g.0.len()
    }

    /// Closes the queue and returns every item that was still queued:
    /// workers finish only the task they are running. The caller must
    /// complete the abandoned tasks (with `SiteDown` results) so blocked
    /// clients get an answer instead of a hang.
    pub(crate) fn close_abandon(&self) -> Vec<T> {
        let mut g = lock(&self.state);
        g.1 = true;
        self.cv.notify_all();
        g.0.drain(..).map(|(t, _)| t).collect()
    }

    /// Blocks until an item is available; `None` once closed. Closure wins
    /// over queued work — remaining items belong to
    /// [`WorkQueue::close_abandon`]'s caller. Returns the item and how long
    /// it sat queued (seconds).
    pub(crate) fn pop(&self) -> Option<(T, f64)> {
        let mut g = lock(&self.state);
        loop {
            if g.1 {
                return None;
            }
            if let Some((t, queued_at)) = g.0.pop_front() {
                return Some((t, queued_at.elapsed().as_secs_f64()));
            }
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A message parked by the fault fabric for late delivery.
struct Delayed {
    due: Instant,
    seq: u64,
    to: SiteAddr,
    msg: Message,
}

impl PartialEq for Delayed {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Delayed {}
impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.due.cmp(&other.due).then(self.seq.cmp(&other.seq))
    }
}

/// The wrapped channel boundary: every site-to-site send consults the
/// shared [`FaultState`] (same per-link decision streams as the DES), and
/// delayed/duplicated copies are re-injected by a single delayer thread.
/// With no plan installed every send passes straight through.
pub(crate) struct FaultFabric {
    epoch: Instant,
    state: Mutex<Option<FaultState>>,
    delayed: Mutex<BinaryHeap<Reverse<Delayed>>>,
    delayed_cv: Condvar,
    delayed_seq: AtomicU64,
    closed: AtomicBool,
}

impl FaultFabric {
    pub(crate) fn new(epoch: Instant) -> FaultFabric {
        FaultFabric {
            epoch,
            state: Mutex::new(None),
            delayed: Mutex::new(BinaryHeap::new()),
            delayed_cv: Condvar::new(),
            delayed_seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Installs (or replaces) the active fault plan.
    pub(crate) fn install(&self, plan: FaultPlan) {
        *lock(&self.state) = Some(FaultState::new(plan));
    }

    /// Observability counters for the active plan (zeroes if none).
    pub(crate) fn counts(&self) -> FaultCounts {
        lock(&self.state).as_ref().map(|f| f.counts).unwrap_or_default()
    }

    fn park(&self, due: Instant, to: SiteAddr, msg: Message) {
        let seq = self.delayed_seq.fetch_add(1, Ordering::Relaxed);
        let mut g = lock(&self.delayed);
        g.push(Reverse(Delayed { due, seq, to, msg }));
        self.delayed_cv.notify_one();
    }

    /// Applies the plan to one site-to-site message; surviving copies are
    /// passed to `deliver` now or parked for the delayer thread. The plan
    /// decides every send, as the DES does; a crash window is checked when
    /// a copy reaches the router (here for the immediate copy, in
    /// [`FaultFabric::delayer_loop`] for parked ones), as the DES checks it
    /// on arrival.
    pub(crate) fn send_site(
        &self,
        from: SiteAddr,
        to: SiteAddr,
        msg: Message,
        deliver: impl Fn(SiteAddr, Message),
    ) {
        let decision = {
            let mut g = lock(&self.state);
            g.as_mut().map(|f| {
                let d = f.decide(from, to);
                let now_lost = !d.drop && d.extra_delay == 0.0 && self.crash_drop(f, to);
                (d, f.plan().dup_extra_delay, now_lost)
            })
        };
        match decision {
            None => deliver(to, msg),
            Some((d, dup_extra, now_lost)) => {
                if d.drop {
                    return;
                }
                if d.duplicate {
                    let due =
                        Instant::now() + Duration::from_secs_f64(d.extra_delay + dup_extra);
                    self.park(due, to, msg.clone());
                }
                if d.extra_delay > 0.0 {
                    self.park(Instant::now() + Duration::from_secs_f64(d.extra_delay), to, msg);
                } else if !now_lost {
                    deliver(to, msg);
                }
            }
        }
    }

    /// True (and counted) if `to` is inside a crash window right now.
    fn crash_drop(&self, f: &mut FaultState, to: SiteAddr) -> bool {
        let down = f.site_down(to, self.epoch.elapsed().as_secs_f64());
        if down {
            f.counts.crash_drops += 1;
        }
        down
    }

    /// Wakes the delayer loop and makes it exit, dropping anything still
    /// parked (the cluster is going down).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _g = lock(&self.delayed);
        self.delayed_cv.notify_all();
    }

    /// The delayer thread body: delivers parked messages when they come
    /// due, unless their destination is crashed by then; exits on
    /// [`FaultFabric::close`].
    pub(crate) fn delayer_loop(&self, deliver: impl Fn(SiteAddr, Message)) {
        let mut g = lock(&self.delayed);
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return;
            }
            let wait = match g.peek() {
                None => None,
                Some(Reverse(d)) => {
                    let now = Instant::now();
                    if d.due <= now {
                        let Some(Reverse(d)) = g.pop() else { continue };
                        drop(g);
                        let lost = {
                            let mut st = lock(&self.state);
                            st.as_mut().is_some_and(|f| self.crash_drop(f, d.to))
                        };
                        if !lost {
                            deliver(d.to, d.msg);
                        }
                        g = lock(&self.delayed);
                        continue;
                    }
                    Some(d.due - now)
                }
            };
            g = match wait {
                None => self.delayed_cv.wait(g).unwrap_or_else(PoisonError::into_inner),
                Some(dur) => {
                    self.delayed_cv
                        .wait_timeout(g, dur)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn crash_window_keeps_decisions_in_step_with_the_des() {
        let plan = FaultPlan {
            seed: 5,
            drop_prob: 0.3,
            dup_prob: 0.3,
            delay_prob: 0.3,
            max_extra_delay: 0.002,
            dup_extra_delay: 0.001,
            ..FaultPlan::reliable()
        }
        .with_crash(SiteAddr(2), 0.0, f64::INFINITY);
        let fabric = FaultFabric::new(Instant::now());
        fabric.install(plan.clone());
        let delivered = AtomicUsize::new(0);
        let deliver = |_: SiteAddr, _: Message| {
            delivered.fetch_add(1, Ordering::Relaxed);
        };
        // The DES decides every send, then loses each surviving copy
        // (original and duplicate) to the crash window on arrival.
        let mut des = FaultState::new(plan);
        let mut copies = 0u64;
        std::thread::scope(|s| {
            s.spawn(|| fabric.delayer_loop(deliver));
            for _ in 0..200 {
                let msg = Message::Unsubscribe { qid: 1 };
                fabric.send_site(SiteAddr(1), SiteAddr(2), msg, deliver);
                let d = des.decide(SiteAddr(1), SiteAddr(2));
                if !d.drop {
                    copies += 1 + u64::from(d.duplicate);
                }
            }
            while !fabric.delayed.lock().unwrap().is_empty() {
                std::thread::sleep(Duration::from_millis(1));
            }
            fabric.close();
        });
        let (got, want) = (fabric.counts(), des.counts);
        assert!(want.dropped > 0 && want.duplicated > 0 && want.delayed > 0);
        assert_eq!(
            (got.dropped, got.duplicated, got.delayed),
            (want.dropped, want.duplicated, want.delayed)
        );
        assert_eq!(got.crash_drops, copies);
        assert_eq!(delivered.load(Ordering::Relaxed), 0);
    }
}
