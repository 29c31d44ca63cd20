//! The channel-backed transport: ranks, typed messages, selective receive,
//! collectives, and the fault-injection hooks.
//!
//! Fault injection happens entirely on the **send path**: when a rank's
//! [`Comm`] carries a `FaultSession`, every user-tagged `send` consults it
//! and the message may be dropped, duplicated, delayed (delivered with a
//! `not_before` timestamp the receive paths honor), or held back past the
//! sender's next send (reorder). Collective traffic is exempt (see the
//! [`faults`](crate::faults) module docs). The receive paths treat a
//! not-yet-due delayed message as invisible and wake up no later than its
//! due time, so delays never cost more latency than they inject.

use crate::faults::{Action, FaultPlan, FaultSession, FaultStats};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Message tags: user tags are plain `u32`s; collectives use an internal
/// sequence-numbered space so they never collide with user traffic or with
/// each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tag {
    User(u32),
    Coll(u64),
}

struct Message {
    src: usize,
    tag: Tag,
    payload: Box<dyn Any + Send>,
    /// Injected delivery delay: the receive paths pretend the message has
    /// not arrived until this instant.
    not_before: Option<Instant>,
}

/// A rank's endpoint: its id, the channel mesh, and the pending-message
/// buffer that implements MPI-style selective receive.
pub struct Comm {
    rank: usize,
    size: usize,
    senders: Arc<Vec<Sender<Message>>>,
    inbox: Receiver<Message>,
    pending: Vec<Message>,
    barrier: Arc<Barrier>,
    coll_seq: u64,
    faults: Option<FaultSession>,
    /// Messages a reorder fault is holding back; flushed after the next
    /// send (so later traffic overtakes them) and on drop (so they are
    /// never silently lost).
    held: Vec<(usize, Message)>,
}

impl Comm {
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Send `value` to `dst` with `tag`. Buffered (never blocks), like a
    /// small-message `MPI_Send`. `Clone` is required so an injected
    /// duplication fault can manufacture the second copy; the fault-free
    /// path never clones.
    ///
    /// A send to a rank that has already exited is silently discarded —
    /// with fault injection enabled, stray retransmissions and heartbeats
    /// to completed or killed peers are routine, not errors.
    pub fn send<T: Send + Clone + 'static>(&mut self, dst: usize, tag: u32, value: T) {
        self.send_tagged(dst, Tag::User(tag), value);
    }

    fn send_tagged<T: Send + Clone + 'static>(&mut self, dst: usize, tag: Tag, value: T) {
        let action = match (tag, self.faults.as_mut()) {
            (Tag::User(t), Some(f)) => f.decide(self.rank, dst, t),
            _ => Action::Deliver,
        };
        // Anything a reorder fault was holding is released *after* this
        // message, so this send overtakes it.
        let held = std::mem::take(&mut self.held);
        match action {
            Action::Deliver => self.post(dst, tag, Box::new(value), None),
            Action::Drop => {}
            Action::Duplicate => {
                self.post(dst, tag, Box::new(value.clone()), None);
                self.post(dst, tag, Box::new(value), None);
            }
            Action::Delay(by) => self.post(dst, tag, Box::new(value), Some(Instant::now() + by)),
            Action::Hold => self.held.push((
                dst,
                Message {
                    src: self.rank,
                    tag,
                    payload: Box::new(value),
                    not_before: None,
                },
            )),
        }
        for (dst, msg) in held {
            let _ = self.senders[dst].send(msg);
        }
    }

    fn post(
        &self,
        dst: usize,
        tag: Tag,
        payload: Box<dyn Any + Send>,
        not_before: Option<Instant>,
    ) {
        dtfe_telemetry::counter_add!("simcluster.msgs_posted", 1);
        let _ = self.senders[dst].send(Message {
            src: self.rank,
            tag,
            payload,
            not_before,
        });
    }

    /// Blocking receive matching `(src, tag)`; `src = None` accepts any
    /// source (like `MPI_ANY_SOURCE`). Returns the actual source.
    ///
    /// Panics if the received payload's type is not `T` — a type-mismatched
    /// send/recv pair is a programming error, as in MPI.
    pub fn recv<T: Send + 'static>(&mut self, src: Option<usize>, tag: u32) -> (usize, T) {
        self.recv_tagged(src, Tag::User(tag))
    }

    /// Non-blocking probe-and-receive: `Some` if a matching message is
    /// already available (and, if delayed, already due).
    pub fn try_recv<T: Send + 'static>(
        &mut self,
        src: Option<usize>,
        tag: u32,
    ) -> Option<(usize, T)> {
        while let Ok(msg) = self.inbox.try_recv() {
            self.pending.push(msg);
        }
        let now = Instant::now();
        let i = self.find_pending(src, Tag::User(tag), now)?;
        dtfe_telemetry::counter_add!("simcluster.msgs_received", 1);
        Some(Self::unwrap_msg(self.pending.remove(i)))
    }

    /// Blocking receive with a timeout. The deadline is computed once up
    /// front and honored regardless of how many non-matching (or
    /// not-yet-due) messages arrive in the meantime.
    pub fn recv_timeout<T: Send + 'static>(
        &mut self,
        src: Option<usize>,
        tag: u32,
        timeout: Duration,
    ) -> Option<(usize, T)> {
        self.recv_deadline(src, Tag::User(tag), Some(Instant::now() + timeout))
    }

    fn recv_tagged<T: Send + 'static>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        self.recv_deadline(src, tag, None)
            .expect("recv without deadline cannot time out")
    }

    /// The one receive loop: selective match over `pending` + inbox, with
    /// an optional overall deadline and wake-ups no later than the due time
    /// of the earliest matching delayed message.
    fn recv_deadline<T: Send + 'static>(
        &mut self,
        src: Option<usize>,
        tag: Tag,
        deadline: Option<Instant>,
    ) -> Option<(usize, T)> {
        loop {
            let now = Instant::now();
            if let Some(i) = self.find_pending(src, tag, now) {
                dtfe_telemetry::counter_add!("simcluster.msgs_received", 1);
                return Some(Self::unwrap_msg(self.pending.remove(i)));
            }
            if deadline.is_some_and(|d| now >= d) {
                return None;
            }
            // Wake for the deadline or for a matching delayed message
            // coming due, whichever is sooner.
            let next_due = self
                .pending
                .iter()
                .filter(|m| Self::matches(m, src, tag))
                .filter_map(|m| m.not_before)
                .min();
            let wake = match (deadline, next_due) {
                (Some(d), Some(n)) => Some(d.min(n)),
                (Some(d), None) => Some(d),
                (None, due) => due,
            };
            match wake {
                None => {
                    let msg = self
                        .inbox
                        .recv()
                        .expect("all senders dropped while receiving");
                    self.pending.push(msg);
                }
                Some(t) => {
                    let wait = t.saturating_duration_since(now);
                    if let Ok(msg) = self.inbox.recv_timeout(wait) {
                        self.pending.push(msg);
                    }
                    // On timeout just loop: either a delayed message is now
                    // due or the deadline check returns None.
                }
            }
        }
    }

    fn matches(msg: &Message, src: Option<usize>, tag: Tag) -> bool {
        msg.tag == tag && src.is_none_or(|s| s == msg.src)
    }

    fn find_pending(&self, src: Option<usize>, tag: Tag, now: Instant) -> Option<usize> {
        self.pending
            .iter()
            .position(|m| Self::matches(m, src, tag) && m.not_before.is_none_or(|t| t <= now))
    }

    fn unwrap_msg<T: Send + 'static>(msg: Message) -> (usize, T) {
        let src = msg.src;
        match msg.payload.downcast::<T>() {
            Ok(v) => (src, *v),
            Err(_) => panic!(
                "recv type mismatch from rank {src}: expected {}",
                std::any::type_name::<T>()
            ),
        }
    }

    /// Declare a named phase boundary. Returns `true` if the fault plan
    /// kills this rank here — the caller must then stop all work and
    /// communication and return, as a crashed rank would. Kills are only
    /// honored at these declared points, never mid-collective.
    pub fn phase_boundary(&mut self, label: &str) -> bool {
        let rank = self.rank;
        match self.faults.as_mut() {
            Some(f) if f.kills_at(rank, label) => {
                f.stats.killed = true;
                true
            }
            _ => false,
        }
    }

    /// Counters of the fault events injected by this rank's sends (plus
    /// whether the rank was killed). All zeros when no plan is attached.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.as_ref().map(|f| f.stats).unwrap_or_default()
    }

    /// Synchronize all ranks.
    pub fn barrier(&self) {
        let _span = dtfe_telemetry::span!("simcluster.barrier");
        self.barrier.wait();
    }

    fn next_coll(&mut self) -> Tag {
        self.coll_seq += 1;
        Tag::Coll(self.coll_seq)
    }

    /// Gather `value` from every rank, in rank order, on every rank
    /// (the paper's `MPI_Allgather`, which it notes provides "implicit
    /// synchronization").
    pub fn allgather<T: Clone + Send + 'static>(&mut self, value: T) -> Vec<T> {
        let _span = dtfe_telemetry::span!("simcluster.allgather");
        let tag = self.next_coll();
        for dst in 0..self.size {
            if dst != self.rank {
                self.send_tagged(dst, tag, value.clone());
            }
        }
        let mut out: Vec<Option<T>> = (0..self.size).map(|_| None).collect();
        out[self.rank] = Some(value);
        for _ in 0..self.size - 1 {
            let (src, v): (usize, T) = self.recv_tagged(None, tag);
            debug_assert!(out[src].is_none(), "duplicate allgather message");
            out[src] = Some(v);
        }
        out.into_iter().map(|v| v.unwrap()).collect()
    }

    /// Personalized all-to-all: `sends[d]` goes to rank `d`; returns what
    /// every rank sent here, in rank order (the particle-redistribution
    /// primitive).
    pub fn alltoallv<T: Clone + Send + 'static>(&mut self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            sends.len(),
            self.size,
            "alltoallv needs one bucket per rank"
        );
        let tag = self.next_coll();
        let mine = std::mem::take(&mut sends[self.rank]);
        for (dst, bucket) in sends.into_iter().enumerate() {
            if dst != self.rank {
                self.send_tagged(dst, tag, bucket);
            }
        }
        let mut out: Vec<Option<Vec<T>>> = (0..self.size).map(|_| None).collect();
        out[self.rank] = Some(mine);
        for _ in 0..self.size - 1 {
            let (src, v): (usize, Vec<T>) = self.recv_tagged(None, tag);
            out[src] = Some(v);
        }
        out.into_iter().map(|v| v.unwrap()).collect()
    }

    /// Sum-reduction visible on all ranks.
    pub fn allreduce_sum(&mut self, value: f64) -> f64 {
        self.allgather(value).iter().sum()
    }
}

impl Drop for Comm {
    fn drop(&mut self) {
        // Release anything a reorder fault was still holding: reorder means
        // "overtaken", never "lost" — message conservation is the
        // transport's invariant, loss is the Drop fault's job.
        for (dst, msg) in self.held.drain(..) {
            let _ = self.senders[dst].send(msg);
        }
    }
}

/// Run `f` on `nranks` thread-ranks with no fault injection; returns the
/// per-rank results in rank order. Panics in any rank propagate
/// (fail-fast, like an MPI abort).
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    run_with_faults(nranks, &FaultPlan::none(), f)
}

/// Run `f` on `nranks` thread-ranks, threading `plan` through every rank's
/// [`Comm`]. With [`FaultPlan::none`] (or any no-op plan) the ranks carry
/// no fault state and the send path costs one extra branch.
pub fn run_with_faults<T, F>(nranks: usize, plan: &FaultPlan, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert!(nranks > 0);
    let plan = (!plan.is_noop()).then(|| Arc::new(plan.clone()));
    let mut senders = Vec::with_capacity(nranks);
    let mut inboxes = Vec::with_capacity(nranks);
    for _ in 0..nranks {
        let (tx, rx) = unbounded();
        senders.push(tx);
        inboxes.push(rx);
    }
    let senders = Arc::new(senders);
    let barrier = Arc::new(Barrier::new(nranks));

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(nranks);
        for (rank, inbox) in inboxes.into_iter().enumerate() {
            let comm = Comm {
                rank,
                size: nranks,
                senders: Arc::clone(&senders),
                inbox,
                pending: Vec::new(),
                barrier: Arc::clone(&barrier),
                coll_seq: 0,
                faults: plan
                    .as_ref()
                    .map(|p| FaultSession::new(Arc::clone(p), nranks)),
                held: Vec::new(),
            };
            let f = &f;
            handles.push(
                std::thread::Builder::new()
                    .name(format!("rank-{rank}"))
                    .stack_size(8 << 20)
                    .spawn_scoped(scope, move || f(comm))
                    .expect("failed to spawn rank thread"),
            );
        }
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(v) => v,
                Err(e) => std::panic::panic_any(format!("rank {rank} panicked: {e:?}")),
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultRule;

    #[test]
    fn ranks_and_sizes() {
        let out = run(5, |comm| (comm.rank(), comm.size()));
        for (r, (rank, size)) in out.iter().enumerate() {
            assert_eq!(*rank, r);
            assert_eq!(*size, 5);
        }
    }

    #[test]
    fn point_to_point_ring() {
        let out = run(4, |mut comm| {
            let next = (comm.rank() + 1) % comm.size();
            let prev = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(next, 7, comm.rank());
            let (src, v): (usize, usize) = comm.recv(Some(prev), 7);
            assert_eq!(src, prev);
            v
        });
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn selective_receive_by_tag() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                // Send tag 2 first, then tag 1; receiver asks for 1 first.
                comm.send(1, 2, "second".to_string());
                comm.send(1, 1, "first".to_string());
                Vec::new()
            } else {
                let (_, a): (usize, String) = comm.recv(Some(0), 1);
                let (_, b): (usize, String) = comm.recv(Some(0), 2);
                vec![a, b]
            }
        });
        assert_eq!(out[1], vec!["first".to_string(), "second".to_string()]);
    }

    #[test]
    fn any_source_receive() {
        let out = run(4, |mut comm| {
            if comm.rank() == 0 {
                let mut got = Vec::new();
                for _ in 0..3 {
                    let (src, v): (usize, usize) = comm.recv(None, 9);
                    got.push((src, v));
                }
                got.sort_unstable();
                got
            } else {
                comm.send(0, 9, comm.rank() * 10);
                Vec::new()
            }
        });
        assert_eq!(out[0], vec![(1, 10), (2, 20), (3, 30)]);
    }

    #[test]
    fn allgather_ordered() {
        let out = run(6, |mut comm| comm.allgather(comm.rank() as f64 * 1.5));
        for res in out {
            assert_eq!(res, vec![0.0, 1.5, 3.0, 4.5, 6.0, 7.5]);
        }
    }

    #[test]
    fn consecutive_collectives_do_not_collide() {
        let out = run(3, |mut comm| {
            let a = comm.allgather(comm.rank());
            let b = comm.allgather(comm.rank() * 100);
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![0, 1, 2]);
            assert_eq!(b, vec![0, 100, 200]);
        }
    }

    #[test]
    fn alltoallv_redistribution() {
        let out = run(3, |mut comm| {
            // Rank r sends the value 10r + d to rank d.
            let sends: Vec<Vec<usize>> = (0..comm.size())
                .map(|d| vec![10 * comm.rank() + d])
                .collect();
            comm.alltoallv(sends)
        });
        for (d, res) in out.iter().enumerate() {
            let flat: Vec<usize> = res.iter().flatten().copied().collect();
            assert_eq!(flat, vec![d, 10 + d, 20 + d]);
        }
    }

    #[test]
    fn alltoallv_uneven_buckets() {
        let out = run(2, |mut comm| {
            let sends: Vec<Vec<u8>> = if comm.rank() == 0 {
                vec![vec![], vec![1, 2, 3]]
            } else {
                vec![vec![9], vec![]]
            };
            comm.alltoallv(sends)
        });
        assert_eq!(out[0], vec![vec![], vec![9]]);
        assert_eq!(out[1], vec![vec![1, 2, 3], vec![]]);
    }

    #[test]
    fn allreduce_sum() {
        let out = run(4, |mut comm| comm.allreduce_sum(comm.rank() as f64 + 1.0));
        assert!(out.iter().all(|&v| (v - 10.0).abs() < 1e-12));
    }

    #[test]
    fn barrier_orders_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run(8, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all increments.
            assert_eq!(counter.load(Ordering::SeqCst), 8);
        });
    }

    #[test]
    fn try_recv_nonblocking() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv::<usize>(None, 5).is_none());
                comm.barrier(); // let rank 1 send
                comm.barrier(); // ensure delivery ordering via rank 1's barrier
                let mut spins = 0;
                loop {
                    if let Some((src, v)) = comm.try_recv::<usize>(Some(1), 5) {
                        return (src, v);
                    }
                    spins += 1;
                    assert!(spins < 1_000_000, "message never arrived");
                    std::hint::spin_loop();
                }
            } else {
                comm.barrier();
                comm.send(0, 5, 42usize);
                comm.barrier();
                (0, 0)
            }
        });
        assert_eq!(out[0], (1, 42));
    }

    #[test]
    fn recv_timeout_expires() {
        run(2, |mut comm| {
            if comm.rank() == 0 {
                let r = comm.recv_timeout::<usize>(Some(1), 99, Duration::from_millis(50));
                assert!(r.is_none());
            }
            comm.barrier();
        });
    }

    /// Regression: the timeout deadline must be honest even when unrelated
    /// messages keep arriving and churning the pending buffer.
    #[test]
    fn recv_timeout_honest_under_churn() {
        run(2, |mut comm| {
            if comm.rank() == 0 {
                let t0 = Instant::now();
                let r = comm.recv_timeout::<u64>(Some(1), 99, Duration::from_millis(50));
                let elapsed = t0.elapsed();
                assert!(r.is_none(), "no tag-99 message was ever sent");
                assert!(
                    elapsed >= Duration::from_millis(50),
                    "timed out early: {elapsed:?}"
                );
                assert!(
                    elapsed < Duration::from_millis(110),
                    "50ms timeout took {elapsed:?} under churn"
                );
            } else {
                // Flood rank 0 with unrelated tag-7 traffic across the
                // whole timeout window.
                for i in 0..60u64 {
                    comm.send(0, 7, i);
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            comm.barrier();
        });
    }

    #[test]
    fn large_payload_roundtrip() {
        let out = run(2, |mut comm| {
            if comm.rank() == 0 {
                let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
                comm.send(1, 3, big);
                0.0
            } else {
                let (_, v): (usize, Vec<f64>) = comm.recv(Some(0), 3);
                v.iter().sum::<f64>()
            }
        });
        assert_eq!(out[1], (0..100_000).map(|i| i as f64).sum::<f64>());
    }

    // ----------------------------------------------------------------
    // Fault injection.

    #[test]
    fn noop_plan_attaches_no_fault_state() {
        let out = run_with_faults(2, &FaultPlan::none(), |mut comm| {
            let peer = 1 - comm.rank();
            comm.send(peer, 1, comm.rank());
            let (_, v): (usize, usize) = comm.recv(Some(peer), 1);
            assert_eq!(v, peer);
            comm.fault_stats()
        });
        assert_eq!(out, vec![FaultStats::default(); 2]);
    }

    #[test]
    fn dropped_messages_are_counted_and_burst_capped() {
        // Certain drop with burst 3: exactly every 4th message survives.
        let plan = FaultPlan::seeded(7).rule(FaultRule::all().on_tag(5).drop(1.0).burst(3));
        let out = run_with_faults(2, &plan, |mut comm| {
            if comm.rank() == 0 {
                for i in 0..8u64 {
                    comm.send(1, 5, i);
                }
                comm.send(1, 6, ()); // sentinel, different tag: delivered
                comm.fault_stats().dropped
            } else {
                comm.recv::<()>(Some(0), 6);
                let mut got = Vec::new();
                while let Some((_, v)) = comm.try_recv::<u64>(Some(0), 5) {
                    got.push(v);
                }
                // Sends 3 and 7 are the burst-cap forced deliveries.
                assert_eq!(got, vec![3, 7]);
                0
            }
        });
        assert_eq!(out[0], 6);
    }

    #[test]
    fn duplicate_delivers_two_copies() {
        let plan = FaultPlan::seeded(3).rule(FaultRule::all().on_tag(4).duplicate(1.0));
        let out = run_with_faults(2, &plan, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 4, 99u32);
                comm.fault_stats().duplicated
            } else {
                let (_, a): (usize, u32) = comm.recv(Some(0), 4);
                let (_, b): (usize, u32) = comm.recv(Some(0), 4);
                assert_eq!((a, b), (99, 99));
                0
            }
        });
        assert_eq!(out[0], 1);
    }

    #[test]
    fn delayed_message_arrives_late_but_arrives() {
        let delay = Duration::from_millis(50);
        let plan = FaultPlan::seeded(3).rule(FaultRule::all().on_tag(8).delay(1.0, delay));
        run_with_faults(2, &plan, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 8, 123u32);
                comm.barrier();
                assert_eq!(comm.fault_stats().delayed, 1);
            } else {
                comm.barrier(); // the message is in flight but not yet due
                assert!(
                    comm.try_recv::<u32>(Some(0), 8).is_none(),
                    "delayed message visible before its due time"
                );
                let t0 = Instant::now();
                let (_, v): (usize, u32) = comm.recv(Some(0), 8);
                assert_eq!(v, 123);
                // The barrier itself is fast, so most of the delay is
                // still pending when the blocking recv starts.
                assert!(
                    t0.elapsed() >= Duration::from_millis(20),
                    "delayed message arrived too soon"
                );
            }
        });
    }

    #[test]
    fn reordered_message_is_overtaken_by_next_send() {
        let plan = FaultPlan::seeded(3).rule(FaultRule::all().on_tag(1).reorder(1.0));
        run_with_faults(2, &plan, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, "A".to_string()); // held at the sender
                comm.barrier();
                comm.barrier();
                comm.send(1, 2, "B".to_string()); // delivered, then flushes A
                assert_eq!(comm.fault_stats().reordered, 1);
            } else {
                comm.barrier();
                // While held, A must be genuinely unobservable.
                assert!(comm.try_recv::<String>(Some(0), 1).is_none());
                comm.barrier();
                let (_, b): (usize, String) = comm.recv(Some(0), 2);
                let (_, a): (usize, String) = comm.recv(Some(0), 1);
                assert_eq!((a.as_str(), b.as_str()), ("A", "B"));
            }
        });
    }

    #[test]
    fn held_messages_flush_on_comm_drop() {
        // Reorder with no subsequent send: the Drop impl must still
        // release the held message (conservation).
        let plan = FaultPlan::seeded(9).rule(FaultRule::all().on_tag(1).reorder(1.0));
        let out = run_with_faults(2, &plan, |mut comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, 7u8);
                comm.barrier();
                0
                // comm dropped here → held message flushed
            } else {
                comm.barrier();
                let (_, v): (usize, u8) = comm.recv(Some(0), 1);
                v
            }
        });
        assert_eq!(out[1], 7);
    }

    #[test]
    fn kill_honored_only_at_named_boundary() {
        let plan = FaultPlan::seeded(0).kill(1, "exec");
        let out = run_with_faults(2, &plan, |mut comm| {
            assert!(!comm.phase_boundary("model"), "wrong phase killed a rank");
            if comm.rank() == 1 {
                assert!(comm.phase_boundary("exec"));
                return comm.fault_stats().killed;
            }
            assert!(!comm.phase_boundary("exec"), "wrong rank killed");
            false
        });
        assert_eq!(out, vec![false, true]);
    }

    #[test]
    fn sends_to_exited_ranks_are_discarded() {
        let plan = FaultPlan::seeded(0).kill(1, "exec");
        run_with_faults(2, &plan, |mut comm| {
            if comm.phase_boundary("exec") {
                return; // rank 1 dies without receiving
            }
            // Give rank 1 a moment to exit (no barrier — a killed rank
            // never reaches one). Whether or not it has exited yet, these
            // sends must not panic.
            std::thread::sleep(Duration::from_millis(20));
            for i in 0..50u32 {
                comm.send(1, 3, i);
            }
        });
    }

    #[test]
    fn fault_stats_are_reproducible_across_runs() {
        let plan = FaultPlan::seeded(42).rule(
            FaultRule::all()
                .drop(0.15)
                .duplicate(0.1)
                .delay(0.05, Duration::from_micros(200)),
        );
        let observe = || {
            run_with_faults(3, &plan, |mut comm| {
                for round in 0..40u64 {
                    for dst in 0..comm.size() {
                        if dst != comm.rank() {
                            comm.send(dst, 2, round);
                        }
                    }
                }
                // Drain whatever made it through before exiting.
                std::thread::sleep(Duration::from_millis(10));
                while comm.try_recv::<u64>(None, 2).is_some() {}
                comm.fault_stats()
            })
        };
        let a = observe();
        let b = observe();
        assert_eq!(a, b, "same plan must inject identical faults");
        assert!(
            a.iter().map(|s| s.total_events()).sum::<u64>() > 0,
            "plan injected nothing"
        );
    }
}
