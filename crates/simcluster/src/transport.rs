//! The channel-backed transport: ranks, typed messages, selective receive
//! and collectives. Delivery is reliable and FIFO per `(src, dst)` pair, as
//! the paper's MPI is: a message sent is a message received.

use crossbeam::channel::{unbounded, Receiver, Sender};
use std::any::Any;
use std::sync::{Arc, Barrier};

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
    /// small-message `MPI_Send`.
    ///
    /// A send to a rank that has already exited is silently discarded, so
    /// a rank that finishes early never turns a peer's late send into a
    /// panic.
    pub fn send<T: Send + 'static>(&mut self, dst: usize, tag: u32, value: T) {
        self.send_tagged(dst, Tag::User(tag), value);
    }

    fn send_tagged<T: Send + 'static>(&self, dst: usize, tag: Tag, value: T) {
        dtfe_telemetry::counter_add!("simcluster.msgs_posted", 1);
        let _ = self.senders[dst].send(Message {
            src: self.rank,
            tag,
            payload: Box::new(value),
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

    /// The one receive loop: selective match over `pending`, pulling from
    /// the inbox until a matching message is buffered.
    fn recv_tagged<T: Send + 'static>(&mut self, src: Option<usize>, tag: Tag) -> (usize, T) {
        loop {
            let matching = |m: &Message| m.tag == tag && src.is_none_or(|s| s == m.src);
            if let Some(i) = self.pending.iter().position(matching) {
                dtfe_telemetry::counter_add!("simcluster.msgs_received", 1);
                return Self::unwrap_msg(self.pending.remove(i));
            }
            let msg = self
                .inbox
                .recv()
                .expect("all senders dropped while receiving");
            self.pending.push(msg);
        }
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
    pub fn alltoallv<T: Send + 'static>(&mut self, mut sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
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
}

/// Run `f` on `nranks` thread-ranks; returns the per-rank results in rank
/// order. Panics in any rank propagate (fail-fast, like an MPI abort).
pub fn run<T, F>(nranks: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Comm) -> T + Send + Sync,
{
    assert!(nranks > 0);
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

    #[test]
    fn sends_to_exited_ranks_are_discarded() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let exited = AtomicBool::new(false);
        run(2, |mut comm| {
            if comm.rank() == 1 {
                // Exit without receiving: dropping the endpoint closes the
                // inbox, as a returning rank does.
                drop(comm);
                exited.store(true, Ordering::SeqCst);
                return;
            }
            // No barrier — an exited rank never reaches one.
            while !exited.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for i in 0..50u32 {
                comm.send(1, 3, i);
            }
        });
    }
}
