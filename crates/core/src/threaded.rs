//! Threaded runtime: the real in-process parameter server.
//!
//! Every node runs `w` worker threads and one server thread in this
//! process, connected by the per-node inboxes of `lapse-net` (Figure 2 of
//! the paper). Workers access local parameters directly through the
//! latched shared state; remote operations travel as messages, and a
//! worker whose operation is pending blocks on its own wake cell until
//! the tracker completes it.
//!
//! **Who serves a node.** A node's server logic ([`ServerCore`], its
//! [`Coalescer`] and its outgoing sink) sits behind one *serving lock*.
//! Whichever thread of the node holds the lock drains the inbox in
//! arrival order, bounded to `SERVER_DRAIN_CAP` (256) envelopes per round,
//! and sends everything the handlers emit before releasing it. The
//! thread that serves is the one that is already awake:
//!
//! * a worker sends its messages while holding its node's serving lock
//!   and serves one round before releasing it, so a message to its own
//!   node is handled on its own thread;
//! * a worker waiting for an operation serves the inbox whenever it has
//!   messages, and parks only when it is empty;
//! * a worker returning from a [`PsWorker`] call with messages queued
//!   serves one round;
//! * the server thread serves only what nobody else will: during
//!   barriers, compute gaps and shutdown.
//!
//! A sender picks whom to wake (see `Bell::ring`): a worker parked
//! waiting for an operation, else nobody if a worker of the node is
//! inside a call, else the server thread. Because every message a node
//! sends leaves under its serving lock, a node's messages are causally
//! ordered: a message sent after a thread saw state that a serving round
//! published leaves after that round's messages. DESIGN.md "Threaded
//! runtime: who serves a node" gives the ordering argument for each
//! sender/server pair and the lock order.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::Arc;
use std::thread::JoinHandle;

use lapse_net::transport::{Inbox, Incoming};
use lapse_net::{Key, NodeId, ThreadedNet};
use lapse_proto::client::{ClientCore, IssueHandle, MsgSink};
use lapse_proto::coalesce::{Coalescer, PackStats};
use lapse_proto::messages::Msg;
use lapse_proto::server::ServerCore;
use lapse_proto::shard::NodeShared;

use crate::api::{OpToken, PsWorker, TokenKind, TokenState};

/// Missed-wakeup-safe wake cell. A waiter takes a [`WakeCell::ticket`]
/// before it checks the state a notifier changes, then parks until a
/// notification after that ticket; the check under the cell's lock before
/// parking and the notifier's lock on the same cell close the window in
/// between. The cell's lock is the last in the lock order: nothing else
/// is taken while it is held.
#[derive(Default)]
struct WakeCell {
    lock: Mutex<()>,
    cv: Condvar,
    /// Notifications so far. Bumped under `lock`.
    notified: AtomicU64,
    /// Threads parked in [`WakeCell::park`]. Changed under `lock`; read
    /// lock-free by senders choosing whom to wake.
    parked: AtomicUsize,
}

impl WakeCell {
    /// Wakes every parked waiter. The condition variable (a futex system
    /// call) is touched only when someone is parked.
    fn notify(&self) {
        let _g = self.lock.lock();
        self.notified.fetch_add(1, Relaxed);
        if self.parked.load(Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Whether a waiter is parked (or about to re-check its condition).
    fn parked(&self) -> bool {
        self.parked.load(SeqCst) > 0
    }

    /// [`WakeCell::notify`] without taking the lock when nobody is parked.
    /// Only for `ready` conditions of [`WakeCell::park`] (SeqCst atomics)
    /// set before the call: a waiter counts itself (SeqCst) before it
    /// evaluates `ready`, so either it sees the condition or this call
    /// sees the waiter.
    fn notify_if_parked(&self) {
        if self.parked() {
            self.notify();
        }
    }

    /// The notification count now; see [`WakeCell::park`].
    fn ticket(&self) -> u64 {
        self.notified.load(SeqCst)
    }

    /// Parks until a notification after `ticket` or until `ready` holds.
    /// `ready` runs under the cell's lock, so it must read atomics only.
    fn park(&self, ticket: u64, mut ready: impl FnMut() -> bool) {
        let mut g = self.lock.lock();
        self.parked.fetch_add(1, SeqCst);
        while self.notified.load(Relaxed) == ticket && !ready() {
            self.cv.wait(&mut g);
        }
        self.parked.fetch_sub(1, SeqCst);
    }
}

/// One worker's wake state, on its own cache line: the "inside a call"
/// flag is stored on every `PsWorker` call.
#[derive(Default)]
#[repr(align(128))]
struct Seat {
    in_call: AtomicBool,
    wake: WakeCell,
}

/// Whom a sender can wake on one node. Holds no reference to the network,
/// so the transport can own it as the node's doorbell.
struct Bell {
    seats: Vec<Seat>,
    server: WakeCell,
}

impl Bell {
    fn new(workers: usize) -> Self {
        Bell {
            seats: (0..workers).map(|_| Seat::default()).collect(),
            server: WakeCell::default(),
        }
    }

    /// Runs after every push into the node's inbox. Picks, in order:
    ///
    /// 1. a worker parked waiting for an operation: it serves the message
    ///    and completes its own operation without a second wake-up;
    /// 2. nobody, if a worker is inside a `PsWorker` call: it looks at the
    ///    inbox when the call returns (a stale "in call" read costs at
    ///    most one extra server wake-up, never a lost message);
    /// 3. the server thread.
    ///
    /// Every flag read here is SeqCst and follows the SeqCst pending-count
    /// increment of the push, and every thread sets its flag (SeqCst)
    /// before it reads the count, so a message is either seen by a thread
    /// that will serve it, or that thread's flag is seen here.
    fn ring(&self) {
        if let Some(seat) = self.seats.iter().find(|s| s.wake.parked()) {
            seat.wake.notify();
        } else if !self.seats.iter().any(|s| s.in_call.load(SeqCst)) {
            self.server.notify_if_parked();
        }
    }
}

/// Upper bound on envelopes served per round: bounds the latency a queued
/// message can accrue behind an arbitrarily deep drain, and the time a
/// worker spends serving before its own call returns.
const SERVER_DRAIN_CAP: usize = 256;

/// The state behind a node's serving lock.
struct Serving {
    server: ServerCore,
    /// Per-link batching of flushed sinks (`None` when coalescing is off).
    coalescer: Option<Coalescer>,
    sink: MsgSink,
    envelopes: Vec<Incoming<Msg>>,
    burst: Vec<Msg>,
}

/// One node of the threaded runtime, shared by its worker threads and its
/// server thread.
pub(crate) struct NodeRt {
    shared: Arc<NodeShared>,
    net: Arc<ThreadedNet<Msg>>,
    inbox: Arc<Inbox<Msg>>,
    serving: Mutex<Serving>,
    bell: Arc<Bell>,
    /// Set when a serving round takes the node's `Shutdown` message.
    stopped: AtomicBool,
}

impl NodeRt {
    /// Builds the runtime of `shared`'s node for `workers` worker threads
    /// and wires it into the transport (doorbell) and the tracker (wake
    /// cells).
    pub(crate) fn new(
        shared: Arc<NodeShared>,
        net: Arc<ThreadedNet<Msg>>,
        workers: usize,
    ) -> Arc<Self> {
        let node = shared.node;
        let bell = Arc::new(Bell::new(workers));
        let waker = bell.clone();
        shared.tracker.set_waker(Arc::new(move |slot, _seq| {
            waker.seats[slot as usize].wake.notify();
        }));
        let doorbell = bell.clone();
        net.set_doorbell(node, Arc::new(move || doorbell.ring()));
        let coalescer = shared.cfg.coalesce.then(|| Coalescer::new(&shared.cfg));
        Arc::new(NodeRt {
            inbox: net.inbox(node).clone(),
            serving: Mutex::new(Serving {
                server: ServerCore::new(shared.clone()),
                coalescer,
                sink: Vec::new(),
                envelopes: Vec::new(),
                burst: Vec::new(),
            }),
            shared,
            net,
            bell,
            stopped: AtomicBool::new(false),
        })
    }

    fn node(&self) -> NodeId {
        self.shared.node
    }

    fn has_mail(&self) -> bool {
        self.inbox.pending() > 0
    }
}

impl Serving {
    /// Sends a drained sink, coalesced per link when coalescing is on.
    /// Called only under the serving lock: that is what orders a node's
    /// messages causally.
    fn send(coalescer: &mut Option<Coalescer>, rt: &NodeRt, sink: &mut MsgSink) {
        let node = rt.node();
        match coalescer.as_mut() {
            None => {
                for (dst, msg) in sink.drain(..) {
                    rt.net.send(node, dst, msg);
                }
            }
            Some(c) => {
                let packed = c.pack(sink, &mut |dst, msg| rt.net.send(node, dst, msg));
                record_pack(&rt.shared, packed);
            }
        }
    }

    /// Serves one round: until the inbox is empty or
    /// [`SERVER_DRAIN_CAP`] envelopes were served, takes what is queued
    /// in arrival order, handles it and sends what the handlers emit.
    /// Batch envelopes are unpacked into their constituents (per-link FIFO
    /// holds because serving is serial). With coalescing on, each take
    /// dispatches as one batch and its output is coalesced; with it off,
    /// each message is handled and its output sent on its own. A bare
    /// `Shutdown` stops the node: `run_threaded` sends it after every
    /// worker joined, so nothing of value is queued behind it.
    fn serve_round(&mut self, rt: &NodeRt) {
        let Serving {
            server,
            coalescer,
            sink,
            envelopes,
            burst,
        } = self;
        let mut budget = SERVER_DRAIN_CAP;
        while budget > 0 && !rt.stopped.load(Relaxed) {
            let taken = rt.inbox.take_up_to(budget, envelopes);
            if taken == 0 {
                return;
            }
            budget -= taken;
            for incoming in envelopes.drain(..) {
                match incoming.msg {
                    Msg::Shutdown => {
                        rt.stopped.store(true, SeqCst);
                        rt.bell.server.notify();
                        break;
                    }
                    Msg::Batch(msgs) => {
                        debug_assert!(
                            msgs.iter().all(|m| !matches!(m, Msg::Batch(_))),
                            "nested batch envelope delivered"
                        );
                        burst.extend(msgs);
                    }
                    other => burst.push(other),
                }
            }
            if coalescer.is_some() {
                if !burst.is_empty() {
                    server.handle_batch(std::mem::take(burst), sink);
                    Self::send(coalescer, rt, sink);
                }
            } else {
                for msg in burst.drain(..) {
                    server.handle(msg, sink);
                    Self::send(coalescer, rt, sink);
                }
            }
        }
    }
}

/// Worker handle on the threaded backend.
pub struct ThreadedPsWorker {
    client: ClientCore,
    rt: Arc<NodeRt>,
    barrier: Arc<std::sync::Barrier>,
    slot: usize,
    start: std::time::Instant,
}

impl ThreadedPsWorker {
    pub(crate) fn new(
        rt: Arc<NodeRt>,
        slot: usize,
        barrier: Arc<std::sync::Barrier>,
        start: std::time::Instant,
    ) -> Self {
        ThreadedPsWorker {
            client: ClientCore::new(rt.shared.clone(), slot as u16),
            rt,
            barrier,
            slot,
            start,
        }
    }

    fn seat(&self) -> &Seat {
        &self.rt.bell.seats[self.slot]
    }

    /// Runs one `PsWorker` call marked "inside a call", so senders leave
    /// this node's inbox to it, and serves one round on return if
    /// messages are queued. The mark costs a local pull or push one
    /// relaxed store, one SeqCst store and one load: no read-modify-write.
    #[inline]
    fn call<T>(&mut self, op: impl FnOnce(&mut Self) -> T) -> T {
        self.seat().in_call.store(true, Relaxed);
        let out = op(self);
        self.leave_call();
        out
    }

    /// Clears the "in call" mark: one SeqCst store, then a load of the
    /// pending count.
    #[inline]
    fn leave_call(&self) {
        self.seat().in_call.store(false, SeqCst);
        if self.rt.has_mail() {
            self.serve_on_leave();
        }
    }

    /// Messages that arrived while the worker was inside a call woke
    /// nobody, so it serves them before it goes: one round, marked again
    /// so that arrivals during the round are left to it too. What it
    /// cannot serve goes to the server thread: another thread may hold
    /// the serving lock and have drained the inbox before these messages
    /// arrived, and messages may arrive after the mark is cleared for
    /// good.
    #[inline(never)]
    fn serve_on_leave(&self) {
        let seat = self.seat();
        seat.in_call.store(true, Relaxed);
        if let Some(mut serving) = self.rt.serving.try_lock() {
            serving.serve_round(&self.rt);
        }
        seat.in_call.store(false, SeqCst);
        if self.rt.has_mail() {
            self.rt.bell.server.notify_if_parked();
        }
    }

    /// Sends the messages of one client call under the serving lock, then
    /// serves one round before releasing it.
    fn send_sink(&mut self, mut sink: MsgSink) {
        if sink.is_empty() {
            return;
        }
        let rt = &*self.rt;
        let mut serving = rt.serving.lock();
        Serving::send(&mut serving.coalescer, rt, &mut sink);
        serving.serve_round(rt);
    }

    /// Blocks until operation `seq` completes, serving this node's inbox
    /// whenever it has messages: the completion usually arrives as one of
    /// them.
    fn wait_done(&self, seq: u64) {
        let rt = &*self.rt;
        let tracker = &self.client.shared().tracker;
        loop {
            if rt.has_mail() {
                rt.serving.lock().serve_round(rt);
            }
            let ticket = self.seat().wake.ticket();
            if tracker.is_done(seq) {
                return;
            }
            self.seat().wake.park(ticket, || rt.has_mail());
        }
    }
}

impl PsWorker for ThreadedPsWorker {
    fn node(&self) -> NodeId {
        self.client.node()
    }

    fn slot(&self) -> usize {
        self.slot
    }

    fn num_nodes(&self) -> usize {
        self.rt.net.len()
    }

    fn workers_per_node(&self) -> usize {
        self.rt.bell.seats.len()
    }

    fn value_len(&self, key: Key) -> usize {
        self.client.shared().cfg.layout.len(key)
    }

    fn pull(&mut self, keys: &[Key], out: &mut [f32]) {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.pull(keys, Some(out), &mut sink);
            w.send_sink(sink);
            if let IssueHandle::Pending(seq) = handle {
                w.wait_done(seq);
                w.client.finish_pull(seq, out);
            }
        })
    }

    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.push(keys, vals, &mut sink);
            w.send_sink(sink);
            if let IssueHandle::Pending(seq) = handle {
                w.wait_done(seq);
                w.client.finish_ack(seq);
            }
        })
    }

    fn localize(&mut self, keys: &[Key]) {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.localize(keys, &mut sink);
            w.send_sink(sink);
            if let IssueHandle::Pending(seq) = handle {
                w.wait_done(seq);
                w.client.finish_ack(seq);
            }
        })
    }

    fn pull_async(&mut self, keys: &[Key]) -> OpToken {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.pull(keys, None, &mut sink);
            w.send_sink(sink);
            match handle {
                IssueHandle::Ready(vals) => OpToken {
                    kind: TokenKind::Pull,
                    state: TokenState::Ready(vals),
                },
                IssueHandle::Pending(seq) => OpToken {
                    kind: TokenKind::Pull,
                    state: TokenState::Pending(seq, w.client.shared().tracker.clone()),
                },
            }
        })
    }

    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> OpToken {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.push(keys, vals, &mut sink);
            w.send_sink(sink);
            OpToken {
                kind: TokenKind::Push,
                state: match handle {
                    IssueHandle::Ready(_) => TokenState::Ready(None),
                    IssueHandle::Pending(seq) => {
                        TokenState::Pending(seq, w.client.shared().tracker.clone())
                    }
                },
            }
        })
    }

    fn localize_async(&mut self, keys: &[Key]) -> OpToken {
        self.call(|w| {
            let mut sink = Vec::new();
            let handle = w.client.localize(keys, &mut sink);
            w.send_sink(sink);
            OpToken {
                kind: TokenKind::Localize,
                state: match handle {
                    IssueHandle::Ready(_) => TokenState::Ready(None),
                    IssueHandle::Pending(seq) => {
                        TokenState::Pending(seq, w.client.shared().tracker.clone())
                    }
                },
            }
        })
    }

    fn wait_pull(&mut self, mut token: OpToken) -> Vec<f32> {
        assert_eq!(token.kind, TokenKind::Pull, "wait_pull on non-pull token");
        match token.take_state() {
            TokenState::Ready(vals) => vals.expect("async pull carries values"),
            TokenState::Pending(seq, _) => self.call(|w| {
                w.wait_done(seq);
                w.client.take_pull(seq)
            }),
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn wait(&mut self, mut token: OpToken) {
        assert_ne!(token.kind, TokenKind::Pull, "use wait_pull for pulls");
        match token.take_state() {
            TokenState::Ready(_) => {}
            TokenState::Pending(seq, _) => self.call(|w| {
                w.wait_done(seq);
                w.client.finish_ack(seq);
            }),
            TokenState::Taken => unreachable!("token waited twice"),
        }
    }

    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        self.client.pull_if_local(key, out)
    }

    fn snapshot_reader(&self) -> Option<lapse_proto::SnapshotReader> {
        Some(lapse_proto::SnapshotReader::new(
            self.client.shared().clone(),
        ))
    }

    fn barrier(&mut self) {
        // Not a call: with every worker here, the server thread serves.
        self.barrier.wait();
    }

    fn charge(&mut self, _ns: u64) {
        // Real time passes on the threaded backend.
    }

    fn advance_clock(&mut self) {
        // The replication technique's propagation tick: flush this node's
        // accumulated replicated pushes to the owners, and run the
        // adaptive transition controller. A no-op (and free) under the
        // relocation-only variants.
        self.call(|w| {
            let mut sink = Vec::new();
            w.client.flush_replicas(&mut sink);
            w.client.run_controller(&mut sink);
            w.send_sink(sink);
        })
    }

    fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// Accumulates one pack's batching counters into the node statistics.
fn record_pack(shared: &NodeShared, packed: PackStats) {
    if packed.batches > 0 {
        shared.stats.net_batches.fetch_add(packed.batches, Relaxed);
        shared
            .stats
            .net_batched_msgs
            .fetch_add(packed.batched_msgs, Relaxed);
    }
}

/// Spawns the server thread of one node: the fallback that serves the
/// inbox whenever no worker of the node will, until the node's
/// `Shutdown` message is served.
pub(crate) fn spawn_server(rt: Arc<NodeRt>) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("lapse-server-{}", rt.node()))
        .spawn(move || loop {
            let server = &rt.bell.server;
            server.park(server.ticket(), || rt.has_mail() || rt.stopped.load(SeqCst));
            if rt.stopped.load(SeqCst) {
                return;
            }
            rt.serving.lock().serve_round(&rt);
        })
        .expect("spawn server thread")
}

#[cfg(test)]
mod tests {
    //! Wake-up protocol tests. Each forces one window in which a message
    //! could be lost, with channels and flags rather than sleeps, and
    //! runs under a deadline so that a lost wake-up fails the test
    //! instead of hanging it.

    use super::*;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    use lapse_proto::messages::{OpId, OpKind, OpMsg};
    use lapse_proto::{Layout, ProtoConfig, Variant};
    use lapse_utils::metrics::Metrics;

    const DEADLINE: Duration = Duration::from_secs(30);

    /// Runs `f` on its own thread and fails if it does not finish in time.
    fn within_deadline<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(DEADLINE) {
            Ok(r) => r,
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("no progress: lost wake-up"),
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("test thread panicked"),
        }
    }

    /// Yields until `cond` holds; fails at the deadline.
    fn spin_until(mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < DEADLINE, "no progress: lost wake-up");
            std::thread::yield_now();
        }
    }

    /// Two nodes over keys `0..8` (keys `0..4` homed at node 0), every
    /// key initialised to `key + 1`.
    fn cluster(coalesce: bool) -> (Arc<ThreadedNet<Msg>>, Vec<Arc<NodeShared>>) {
        let mut cfg = ProtoConfig::new(2, 8, Layout::Uniform(1));
        cfg.variant = Variant::Lapse;
        cfg.coalesce = coalesce;
        let cfg = Arc::new(cfg);
        let net = ThreadedNet::new(2, Metrics::new());
        let shareds = (0..2)
            .map(|n| {
                NodeShared::with_init(cfg.clone(), NodeId(n), Arc::new(|| 0), |k| {
                    Some(vec![k.0 as f32 + 1.0])
                })
            })
            .collect();
        (net, shareds)
    }

    fn worker(rt: &Arc<NodeRt>, slot: usize) -> ThreadedPsWorker {
        let barrier = Arc::new(std::sync::Barrier::new(1));
        ThreadedPsWorker::new(rt.clone(), slot, barrier, Instant::now())
    }

    /// A one-key push operation from `src`, or (with an empty key list) a
    /// marker message that a hand-driven endpoint only looks at.
    fn op(src: NodeId, seq: u64, keys: Vec<Key>) -> Msg {
        let vals = vec![1.0; keys.len()];
        Msg::Op(OpMsg {
            op: OpId::new(src, seq),
            kind: OpKind::Push,
            keys,
            vals,
            routed_by_home: false,
        })
    }

    fn value(shared: &NodeShared, k: Key) -> f32 {
        shared.read_value(k).expect("key owned here")[0]
    }

    #[test]
    fn wake_cell_notify_between_ticket_and_park_is_not_missed() {
        let cell = Arc::new(WakeCell::default());
        let done = Arc::new(AtomicBool::new(false));
        let (checked_tx, checked_rx) = mpsc::channel();
        let (notified_tx, notified_rx) = mpsc::channel();
        let waiter = {
            let (cell, done) = (cell.clone(), done.clone());
            std::thread::spawn(move || {
                let ticket = cell.ticket();
                if !done.load(SeqCst) {
                    // Checked and found not done; the notify lands
                    // before this thread parks.
                    checked_tx.send(()).unwrap();
                    notified_rx.recv().unwrap();
                    cell.park(ticket, || false);
                }
            })
        };
        checked_rx.recv().unwrap();
        done.store(true, SeqCst);
        cell.notify();
        notified_tx.send(()).unwrap();
        within_deadline(move || waiter.join().unwrap());
        assert!(!cell.parked());
    }

    #[test]
    fn wake_cell_notify_racing_the_park_is_not_missed() {
        let cell = Arc::new(WakeCell::default());
        let (checked_tx, checked_rx) = mpsc::channel();
        let waiter = {
            let cell = cell.clone();
            std::thread::spawn(move || {
                let ticket = cell.ticket();
                let mut checks = 0;
                cell.park(ticket, || {
                    checks += 1;
                    if checks == 1 {
                        // The check under the lock, right before the
                        // wait. The notifier starts now; a notify that
                        // did not take the lock would land here, before
                        // this thread waits, and be lost. Give it a
                        // bounded chance to do so.
                        checked_tx.send(()).unwrap();
                        for _ in 0..10_000 {
                            if cell.ticket() != ticket {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                    false
                });
            })
        };
        checked_rx.recv().unwrap();
        cell.notify();
        within_deadline(move || waiter.join().unwrap());
        assert!(!cell.parked(), "waiter still counted after waking");
        // With nobody parked, notify touches only the lock.
        cell.notify();
    }

    #[test]
    fn delivery_between_in_call_and_park_is_served_by_the_waiting_worker() {
        within_deadline(|| {
            let (net, shareds) = cluster(true);
            // Node 0 has no server thread: only its worker can serve it.
            let rt0 = NodeRt::new(shareds[0].clone(), net.clone(), 1);
            let rt1 = NodeRt::new(shareds[1].clone(), net.clone(), 0);
            let server1 = spawn_server(rt1.clone());
            let mut w = worker(&rt0, 0);
            let k = Key(6); // homed at node 1

            w.seat().in_call.store(true, Relaxed);
            let mut sink = Vec::new();
            let mut out = [0.0f32];
            let IssueHandle::Pending(seq) = w.client.pull(&[k], Some(&mut out), &mut sink) else {
                panic!("remote pull completed at issue");
            };
            {
                // Node 1 answers only after the send has returned (the
                // worker serves its own node once before that).
                let _node1_serving = rt1.serving.lock();
                w.send_sink(sink);
            }
            // The response arrives while the worker is inside a call but
            // not parked: the doorbell wakes nobody.
            spin_until(|| rt0.has_mail());
            w.wait_done(seq);
            w.client.finish_pull(seq, &mut out);
            w.seat().in_call.store(false, SeqCst);
            assert_eq!(out, [7.0]);

            net.send(NodeId(0), NodeId(1), Msg::Shutdown);
            server1.join().unwrap();
        });
    }

    #[test]
    fn delivery_while_another_thread_holds_the_serving_lock_reaches_the_server_thread() {
        within_deadline(|| {
            let (net, shareds) = cluster(true);
            let rt0 = NodeRt::new(shareds[0].clone(), net.clone(), 1);
            let server0 = spawn_server(rt0.clone());
            let ep1 = net.take_endpoint(NodeId(1));
            let k = Key(1); // homed and owned at node 0

            // Another thread is in a serving round (it already drained).
            let (held_tx, held_rx) = mpsc::channel();
            let (release_tx, release_rx) = mpsc::channel::<()>();
            let holder = {
                let rt0 = rt0.clone();
                std::thread::spawn(move || {
                    let serving = rt0.serving.lock();
                    held_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    drop(serving);
                })
            };
            held_rx.recv().unwrap();

            // The push lands while the worker is inside a call, so the
            // doorbell wakes nobody; the worker cannot take the serving
            // lock when its call returns and must hand over to the
            // server thread, because the holder will not look again.
            let mut w = worker(&rt0, 0);
            w.call(|_| net.send(NodeId(1), NodeId(0), op(NodeId(1), 1, vec![k])));
            assert_eq!(rt0.inbox.pending(), 1);
            release_tx.send(()).unwrap();
            holder.join().unwrap();

            spin_until(|| value(&shareds[0], k) == 3.0);
            assert!(matches!(ep1.recv().msg, Msg::OpResp(_)));
            net.send(NodeId(1), NodeId(0), Msg::Shutdown);
            server0.join().unwrap();
        });
    }

    #[test]
    fn worker_send_leaves_after_the_serving_round_it_waited_behind() {
        within_deadline(|| {
            let (net, shareds) = cluster(true);
            let rt0 = NodeRt::new(shareds[0].clone(), net.clone(), 1);
            let ep1 = net.take_endpoint(NodeId(1));
            let published = Arc::new(AtomicBool::new(false));
            let (sending_tx, sending_rx) = mpsc::channel();

            // A serving round publishes state, then emits a message.
            let round = {
                let (rt0, published) = (rt0.clone(), published.clone());
                std::thread::spawn(move || {
                    let mut serving = rt0.serving.lock();
                    published.store(true, SeqCst);
                    sending_rx.recv().unwrap();
                    // Give the worker every chance to overtake.
                    for _ in 0..1000 {
                        std::thread::yield_now();
                    }
                    let mut sink = vec![(NodeId(1), op(NodeId(0), 1, vec![]))];
                    Serving::send(&mut serving.coalescer, &rt0, &mut sink);
                })
            };

            // A worker that saw the published state sends: its message is
            // causally after the round's and must arrive after it.
            let mut w = worker(&rt0, 0);
            spin_until(|| published.load(SeqCst));
            sending_tx.send(()).unwrap();
            w.send_sink(vec![(NodeId(1), op(NodeId(0), 2, vec![]))]);
            round.join().unwrap();

            let seqs: Vec<u64> = (0..2)
                .map(|_| match ep1.recv().msg {
                    Msg::Op(m) => m.op.seq,
                    other => panic!("unexpected {other:?}"),
                })
                .collect();
            assert_eq!(seqs, vec![1, 2], "worker send overtook the round");
        });
    }

    #[test]
    fn with_every_worker_in_the_barrier_the_server_thread_serves() {
        use crate::{run_threaded, PsConfig, PsWorker};
        let (results, stats) = within_deadline(|| {
            run_threaded(
                PsConfig::new(2, 8, 1).latches(2),
                2,
                |k| Some(vec![k.0 as f32]),
                |w: &mut dyn PsWorker| {
                    if w.node().idx() == 1 {
                        // Node 1's workers make no call until the barrier:
                        // only its server thread can serve node 0's ops.
                        w.barrier();
                        return 0.0;
                    }
                    let k = Key(4 + w.slot() as u64); // homed at node 1
                    let mut out = [0.0f32];
                    w.pull(&[Key(7)], &mut out);
                    w.push(&[k], &[1.0]);
                    w.localize(&[k]);
                    w.push(&[k], &[1.0]);
                    w.barrier();
                    out[0]
                },
            )
        });
        assert_eq!(results, vec![7.0, 7.0, 0.0, 0.0]);
        assert_eq!(stats.relocations, 2);
        assert_eq!(stats.unexpected_relocates, 0);
        assert_eq!(stats.tracker_in_flight, 0);
    }

    #[test]
    fn shutdown_serves_the_messages_queued_before_it() {
        for coalesce in [false, true] {
            within_deadline(move || {
                let (net, shareds) = cluster(coalesce);
                let rt0 = NodeRt::new(shareds[0].clone(), net.clone(), 1);
                let server0 = spawn_server(rt0.clone());
                let ep1 = net.take_endpoint(NodeId(1));
                {
                    // Queue everything before anyone can serve it.
                    let _serving = rt0.serving.lock();
                    for seq in 0..10 {
                        net.send(NodeId(1), NodeId(0), op(NodeId(1), seq, vec![Key(2)]));
                    }
                    net.send(NodeId(1), NodeId(0), Msg::Shutdown);
                }
                server0.join().unwrap();
                assert_eq!(value(&shareds[0], Key(2)), 13.0);
                let mut acks = 0;
                while acks < 10 {
                    acks += match ep1.recv().msg {
                        Msg::Batch(msgs) => msgs.len(),
                        _ => 1,
                    };
                }
                assert_eq!(acks, 10);
            });
        }
    }
}
