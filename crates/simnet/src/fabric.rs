//! The fault fabric: the seeded drop/duplicate/delay/crash plane applied at
//! the channel boundary of the threaded runtime ([`crate::shard`]).
//! Delivery is abstracted behind a closure — the sharded cluster routes
//! through its shard mailboxes (framing cross-shard copies) — while the
//! [`FaultState`] consulted per send is the one the DES uses, so a seed
//! replays the same per-link decisions on both substrates.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use irisdns::SiteAddr;
use irisnet_core::Message;

use crate::faults::{FaultCounts, FaultPlan, FaultState};

/// A hand-rolled task queue shared between an owner/event loop and its
/// read workers. Closing wakes every blocked worker so they can exit.
/// Generic over the work item; the sharded runtime tags each
/// [`irisnet_core::ReadTask`] with the owning site.
pub(crate) struct WorkQueue<T> {
    state: StdMutex<(std::collections::VecDeque<(T, Instant)>, bool)>,
    cv: Condvar,
}

impl<T> WorkQueue<T> {
    pub(crate) fn new() -> WorkQueue<T> {
        WorkQueue {
            state: StdMutex::new((std::collections::VecDeque::new(), false)),
            cv: Condvar::new(),
        }
    }

    /// Enqueues an item (stamped for queue-wait accounting) and returns the
    /// queue depth after the push.
    pub(crate) fn push(&self, item: T) -> usize {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.0.push_back((item, Instant::now()));
        self.cv.notify_one();
        g.0.len()
    }

    /// Closes the queue and returns every item that was still queued:
    /// workers finish only the task they are running. The caller must
    /// complete the abandoned tasks (with `SiteDown` results) so blocked
    /// clients get an answer instead of a hang.
    pub(crate) fn close_abandon(&self) -> Vec<T> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        g.1 = true;
        self.cv.notify_all();
        g.0.drain(..).map(|(t, _)| t).collect()
    }

    /// Blocks until an item is available; `None` once closed. Closure wins
    /// over queued work — remaining items belong to
    /// [`WorkQueue::close_abandon`]'s caller. Returns the item and how long
    /// it sat queued (seconds).
    pub(crate) fn pop(&self) -> Option<(T, f64)> {
        let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if g.1 {
                return None;
            }
            if let Some((t, queued_at)) = g.0.pop_front() {
                return Some((t, queued_at.elapsed().as_secs_f64()));
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
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
    state: StdMutex<Option<FaultState>>,
    delayed: StdMutex<BinaryHeap<Reverse<Delayed>>>,
    delayed_cv: Condvar,
    delayed_seq: AtomicU64,
    closed: AtomicBool,
}

impl FaultFabric {
    pub(crate) fn new(epoch: Instant) -> FaultFabric {
        FaultFabric {
            epoch,
            state: StdMutex::new(None),
            delayed: StdMutex::new(BinaryHeap::new()),
            delayed_cv: Condvar::new(),
            delayed_seq: AtomicU64::new(0),
            closed: AtomicBool::new(false),
        }
    }

    /// Installs (or replaces) the active fault plan.
    pub(crate) fn install(&self, plan: FaultPlan) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = Some(FaultState::new(plan));
    }

    /// Observability counters for the active plan (zeroes if none).
    pub(crate) fn counts(&self) -> FaultCounts {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|f| f.counts)
            .unwrap_or_default()
    }

    fn park(&self, due: Instant, to: SiteAddr, msg: Message) {
        let seq = self.delayed_seq.fetch_add(1, Ordering::Relaxed);
        let mut g = self.delayed.lock().unwrap_or_else(|e| e.into_inner());
        g.push(Reverse(Delayed { due, seq, to, msg }));
        self.delayed_cv.notify_one();
    }

    /// Applies the plan to one site-to-site message; surviving copies are
    /// passed to `deliver` now or parked for the delayer thread.
    pub(crate) fn send_site(
        &self,
        from: SiteAddr,
        to: SiteAddr,
        msg: Message,
        deliver: impl Fn(SiteAddr, Message),
    ) {
        let decision = {
            let mut g = self.state.lock().unwrap_or_else(|e| e.into_inner());
            match g.as_mut() {
                None => None,
                Some(f) => {
                    let now = self.epoch.elapsed().as_secs_f64();
                    if f.site_down(to, now) {
                        f.counts.crash_drops += 1;
                        return;
                    }
                    Some((f.decide(from, to), f.plan().dup_extra_delay))
                }
            }
        };
        match decision {
            None => deliver(to, msg),
            Some((d, dup_extra)) => {
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
                } else {
                    deliver(to, msg);
                }
            }
        }
    }

    /// Wakes the delayer loop and makes it exit, dropping anything still
    /// parked (the cluster is going down).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        let _g = self.delayed.lock().unwrap_or_else(|e| e.into_inner());
        self.delayed_cv.notify_all();
    }

    /// The delayer thread body: delivers parked messages when they come
    /// due; exits on [`FaultFabric::close`].
    pub(crate) fn delayer_loop(&self, deliver: impl Fn(SiteAddr, Message)) {
        let mut g = self.delayed.lock().unwrap_or_else(|e| e.into_inner());
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
                        deliver(d.to, d.msg);
                        g = self.delayed.lock().unwrap_or_else(|e| e.into_inner());
                        continue;
                    }
                    Some(d.due - now)
                }
            };
            g = match wait {
                None => self.delayed_cv.wait(g).unwrap_or_else(|e| e.into_inner()),
                Some(dur) => {
                    self.delayed_cv
                        .wait_timeout(g, dur)
                        .unwrap_or_else(|e| e.into_inner())
                        .0
                }
            };
        }
    }
}
