//! Threaded in-process transport: one FIFO inbox per node.
//!
//! The threaded backend runs every "node" of the cluster as a set of
//! threads in one process. Each node owns one [`Inbox`]: an unbounded
//! queue, pushed under a short lock, with a lock-free pending count.
//! Sending never blocks. The inbox holds messages in **arrival order**,
//! and any thread of the destination node may drain it.
//!
//! What this gives the protocol depends on how the *sending* node orders
//! its sends. Messages that one thread sends to one node arrive in send
//! order. Messages that *different* threads of one node send to the same
//! destination arrive in whatever order the pushes happen to take the
//! inbox lock: nothing here orders a worker's send after a message its
//! node's server logic emitted earlier. The threaded runtime
//! (`lapse-core`) closes that gap by sending every message of a node
//! while holding that node's serving lock, which makes a node's outgoing
//! messages causally ordered (DESIGN.md "Threaded runtime: who serves a
//! node").
//!
//! A push rings the destination's [`Doorbell`], a callback installed by
//! whoever serves that node; the doorbell decides which thread to wake.
//! [`ThreadedNet::take_endpoint`] installs a condition-variable doorbell
//! and returns an [`Endpoint`] with a blocking [`Endpoint::recv`], for
//! tests that drive a node by hand.
//!
//! An optional [`DelayPolicy`] injects artificial per-link latency. It is
//! used by failure-injection tests to widen race windows (e.g. to force an
//! operation to arrive at an old owner after a relocation). The delay is
//! applied on the *sending* side by a helper thread per link, which pushes
//! into the same inbox after sleeping, so FIFO per link still holds.

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use lapse_trace::{EventKind, Recorder, Ring, ACTOR_NET};
use lapse_utils::metrics::{Counter, Metrics};

use crate::id::NodeId;
use crate::wire::{message_bytes, WireSize};

/// A delay policy for fault-injection: returns the artificial latency for
/// a `(src, dst)` link.
pub type DelayPolicy = Arc<dyn Fn(NodeId, NodeId) -> Duration + Send + Sync>;

/// Called after every push into a node's inbox (the delayed path
/// included). It must not take the inbox lock.
pub type Doorbell = Arc<dyn Fn() + Send + Sync>;

/// Per-link counters.
#[derive(Debug, Default)]
struct LinkStats {
    messages: AtomicU64,
    bytes: AtomicU64,
}

/// Sender of one delay-injected link: carries the message plus the delay
/// left to serve before delivery.
type DelayedSender<M> = mpsc::Sender<(Incoming<M>, Duration)>;

/// A message annotated with its sender.
#[derive(Debug)]
pub struct Incoming<M> {
    /// Sending node.
    pub src: NodeId,
    /// Payload.
    pub msg: M,
}

/// The incoming queue of one node.
pub struct Inbox<M> {
    queue: Mutex<VecDeque<Incoming<M>>>,
    /// Messages in `queue`. Changed under the queue lock; read lock-free
    /// by threads deciding whether to serve or to park.
    pending: AtomicUsize,
    doorbell: OnceLock<Doorbell>,
}

impl<M> Inbox<M> {
    fn new() -> Self {
        Inbox {
            queue: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            doorbell: OnceLock::new(),
        }
    }

    fn push(&self, incoming: Incoming<M>) {
        {
            let mut queue = self.queue.lock();
            queue.push_back(incoming);
            // SeqCst: a thread of this node that publishes "I will look
            // at the inbox" (a SeqCst flag store) and then reads this
            // count either sees the message, or the doorbell below sees
            // its flag.
            self.pending.fetch_add(1, Ordering::SeqCst);
        }
        if let Some(bell) = self.doorbell.get() {
            bell();
        }
    }

    /// Messages waiting in this inbox.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Moves up to `cap` messages, oldest first, to the end of `out`;
    /// returns how many.
    pub fn take_up_to(&self, cap: usize, out: &mut Vec<Incoming<M>>) -> usize {
        if self.pending() == 0 {
            return 0;
        }
        let mut queue = self.queue.lock();
        let n = queue.len().min(cap);
        out.extend(queue.drain(..n));
        self.pending.fetch_sub(n, Ordering::SeqCst);
        n
    }
}

/// The in-process "cluster network": one inbox per node.
pub struct ThreadedNet<M> {
    inboxes: Vec<Arc<Inbox<M>>>,
    stats: Vec<Vec<LinkStats>>, // [src][dst]
    delay: Option<DelayPolicy>,
    /// Helper senders used when a delay policy is active: one channel per
    /// link keeps FIFO despite the sleeping.
    delayed_links: Option<Vec<Vec<DelayedSender<M>>>>,
    /// Cached handles into `metrics` for the per-send counters: `send` is
    /// the transport's hottest path, and resolving a counter by name
    /// locks the registry and hashes the key on every call.
    msgs_counter: Counter,
    bytes_counter: Counter,
    self_msgs_counter: Counter,
    /// Flight-recorder lanes, one per sending node (`None` when tracing
    /// is off, so the disabled send path costs one pointer test).
    trace: Option<(Arc<Recorder>, Vec<Arc<Ring>>)>,
}

impl<M: Send + WireSize + 'static> ThreadedNet<M> {
    /// Creates a network of `n` nodes with no artificial delay.
    pub fn new(n: usize, metrics: Metrics) -> Arc<Self> {
        Self::build(n, metrics, None, Recorder::disabled())
    }

    /// Creates a network of `n` nodes with per-send flight-recorder
    /// events (one `net` lane per sending node).
    pub fn with_trace(n: usize, metrics: Metrics, trace: Arc<Recorder>) -> Arc<Self> {
        Self::build(n, metrics, None, trace)
    }

    /// Creates a network of `n` nodes, optionally with injected per-link
    /// delays (fault-injection tests only; delays cost one helper thread
    /// per link).
    pub fn with_delay(n: usize, metrics: Metrics, delay: Option<DelayPolicy>) -> Arc<Self> {
        Self::build(n, metrics, delay, Recorder::disabled())
    }

    fn build(
        n: usize,
        metrics: Metrics,
        delay: Option<DelayPolicy>,
        trace: Arc<Recorder>,
    ) -> Arc<Self> {
        assert!(n > 0, "network needs at least one node");
        let inboxes: Vec<Arc<Inbox<M>>> = (0..n).map(|_| Arc::new(Inbox::new())).collect();
        let stats = (0..n)
            .map(|_| (0..n).map(|_| LinkStats::default()).collect())
            .collect();

        let delayed_links = delay.as_ref().map(|_| {
            (0..n)
                .map(|_src| {
                    inboxes
                        .iter()
                        .map(|inbox| {
                            let (tx, rx) = mpsc::channel::<(Incoming<M>, Duration)>();
                            let inbox = inbox.clone();
                            std::thread::spawn(move || {
                                // Sequential delivery preserves FIFO on
                                // this link even with varying delays; the
                                // loop ends when the network is dropped.
                                for (incoming, d) in rx.iter() {
                                    if !d.is_zero() {
                                        // lint:allow(thread-sleep, fault-injection delay helper; opt-in test-only path that exists to stall on purpose)
                                        std::thread::sleep(d);
                                    }
                                    inbox.push(incoming);
                                }
                            });
                            tx
                        })
                        .collect()
                })
                .collect()
        });

        let trace = trace.on().then(|| {
            let lanes = (0..n)
                .map(|src| trace.lane(src as u16, ACTOR_NET, format!("n{src}/net")))
                .collect();
            (trace, lanes)
        });

        Arc::new(ThreadedNet {
            inboxes,
            stats,
            delay,
            delayed_links,
            msgs_counter: metrics.counter("net.messages"),
            bytes_counter: metrics.counter("net.bytes"),
            self_msgs_counter: metrics.counter("net.self_messages"),
            trace,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.inboxes.len()
    }

    /// Whether the network has no nodes (never true for a constructed
    /// network).
    pub fn is_empty(&self) -> bool {
        self.inboxes.is_empty()
    }

    /// Sends `msg` from `src` to `dst`: pushes it into `dst`'s inbox and
    /// rings `dst`'s doorbell. Never blocks.
    pub fn send(&self, src: NodeId, dst: NodeId, msg: M) {
        let bytes = message_bytes(&msg) as u64;
        let link = &self.stats[src.idx()][dst.idx()];
        link.messages.fetch_add(1, Ordering::Relaxed);
        link.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.msgs_counter.inc();
        self.bytes_counter.add(bytes);
        if src == dst {
            self.self_msgs_counter.inc();
        }
        if let Some((rec, lanes)) = &self.trace {
            rec.record(&lanes[src.idx()], EventKind::MsgSend, dst.0 as u64, bytes);
        }

        let incoming = Incoming { src, msg };
        if let (Some(policy), Some(links)) = (&self.delay, &self.delayed_links) {
            let d = policy(src, dst);
            // The helper lives as long as the network, so this cannot fail.
            let _ = links[src.idx()][dst.idx()].send((incoming, d));
        } else {
            self.inboxes[dst.idx()].push(incoming);
        }
    }

    /// The inbox of `node`.
    pub fn inbox(&self, node: NodeId) -> &Arc<Inbox<M>> {
        &self.inboxes[node.idx()]
    }

    /// Installs the doorbell of `node`, rung after every push into its
    /// inbox. Each node has one doorbell; install it before anything is
    /// sent to the node, or check [`Inbox::pending`] afterwards.
    ///
    /// # Panics
    /// Panics if the node already has a doorbell (or a taken endpoint).
    pub fn set_doorbell(&self, node: NodeId, bell: Doorbell) {
        if self.inboxes[node.idx()].doorbell.set(bell).is_err() {
            panic!("endpoint already taken: node {node} already has a doorbell");
        }
    }

    /// Takes a blocking receiving endpoint for `node` (tests that drive a
    /// node by hand). It installs the node's doorbell, so each endpoint
    /// can be taken once, and not for a node someone else serves.
    ///
    /// # Panics
    /// Panics if the endpoint was already taken.
    pub fn take_endpoint(&self, node: NodeId) -> Endpoint<M> {
        let signal = Arc::new(Signal::default());
        let bell = signal.clone();
        self.set_doorbell(
            node,
            Arc::new(move || {
                let _g = bell.lock.lock();
                bell.cv.notify_one();
            }),
        );
        Endpoint {
            node,
            inbox: self.inboxes[node.idx()].clone(),
            signal,
        }
    }

    /// Messages sent on the `(src, dst)` link so far.
    pub fn link_messages(&self, src: NodeId, dst: NodeId) -> u64 {
        self.stats[src.idx()][dst.idx()]
            .messages
            .load(Ordering::Relaxed)
    }

    /// Bytes sent on the `(src, dst)` link so far (envelope included).
    pub fn link_bytes(&self, src: NodeId, dst: NodeId) -> u64 {
        self.stats[src.idx()][dst.idx()]
            .bytes
            .load(Ordering::Relaxed)
    }

    /// Total messages sent.
    pub fn total_messages(&self) -> u64 {
        self.stats
            .iter()
            .flatten()
            .map(|l| l.messages.load(Ordering::Relaxed))
            .sum()
    }
}

/// Wake-up of a blocked [`Endpoint::recv`].
#[derive(Default)]
struct Signal {
    lock: Mutex<()>,
    cv: Condvar,
}

/// A blocking receiver on one node's inbox.
pub struct Endpoint<M> {
    node: NodeId,
    inbox: Arc<Inbox<M>>,
    signal: Arc<Signal>,
}

impl<M> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Blocks until a message arrives.
    pub fn recv(&self) -> Incoming<M> {
        let mut taken = Vec::with_capacity(1);
        loop {
            self.inbox.take_up_to(1, &mut taken);
            if let Some(incoming) = taken.pop() {
                return incoming;
            }
            let mut g = self.signal.lock.lock();
            // Re-checked under the doorbell's lock: a push after this
            // point rings only once this thread waits.
            if self.inbox.pending() == 0 {
                self.signal.cv.wait(&mut g);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[derive(Debug, PartialEq)]
    struct TestMsg(u64);

    impl WireSize for TestMsg {
        fn wire_bytes(&self) -> usize {
            8
        }
    }

    #[test]
    fn per_link_fifo() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(2, Metrics::new());
        let ep = net.take_endpoint(NodeId(1));
        let sender = net.clone();
        let producer = thread::spawn(move || {
            for i in 0..1000 {
                sender.send(NodeId(0), NodeId(1), TestMsg(i));
            }
        });
        let mut last = None;
        for _ in 0..1000 {
            let m = ep.recv();
            assert_eq!(m.src, NodeId(0));
            if let Some(prev) = last {
                assert!(m.msg.0 == prev + 1, "reordered: {} after {}", m.msg.0, prev);
            }
            last = Some(m.msg.0);
        }
        producer.join().unwrap();
    }

    #[test]
    fn fifo_per_sender_under_interleaving() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(3, Metrics::new());
        let ep = net.take_endpoint(NodeId(2));
        let mut handles = Vec::new();
        for src in 0..2u16 {
            let sender = net.clone();
            handles.push(thread::spawn(move || {
                for i in 0..500 {
                    sender.send(NodeId(src), NodeId(2), TestMsg(i));
                }
            }));
        }
        let mut last = [None::<u64>; 2];
        for _ in 0..1000 {
            let m = ep.recv();
            let s = m.src.idx();
            if let Some(prev) = last[s] {
                assert_eq!(m.msg.0, prev + 1, "per-sender order violated");
            }
            last[s] = Some(m.msg.0);
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(2, Metrics::new());
        let _ep = net.take_endpoint(NodeId(1));
        net.send(NodeId(0), NodeId(1), TestMsg(1));
        net.send(NodeId(0), NodeId(1), TestMsg(2));
        assert_eq!(net.link_messages(NodeId(0), NodeId(1)), 2);
        assert_eq!(net.link_messages(NodeId(1), NodeId(0)), 0);
        let expected = 2 * (crate::wire::ENVELOPE_OVERHEAD_BYTES as u64 + 8);
        assert_eq!(net.link_bytes(NodeId(0), NodeId(1)), expected);
        assert_eq!(net.total_messages(), 2);
    }

    #[test]
    fn delayed_link_preserves_order() {
        let policy: DelayPolicy = Arc::new(|_, _| Duration::from_micros(200));
        let net: Arc<ThreadedNet<TestMsg>> =
            ThreadedNet::with_delay(2, Metrics::new(), Some(policy));
        let ep = net.take_endpoint(NodeId(1));
        for i in 0..50 {
            net.send(NodeId(0), NodeId(1), TestMsg(i));
        }
        for i in 0..50 {
            let m = ep.recv();
            assert_eq!(m.msg.0, i);
        }
    }

    #[test]
    #[should_panic(expected = "endpoint already taken")]
    fn endpoint_taken_once() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(1, Metrics::new());
        let _a = net.take_endpoint(NodeId(0));
        let _b = net.take_endpoint(NodeId(0));
    }

    #[test]
    fn self_send_is_delivered() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(1, Metrics::new());
        let ep = net.take_endpoint(NodeId(0));
        net.send(NodeId(0), NodeId(0), TestMsg(7));
        assert_eq!(ep.recv().msg, TestMsg(7));
    }

    #[test]
    fn doorbell_rings_once_per_push_and_sees_the_message() {
        let net: Arc<ThreadedNet<TestMsg>> = ThreadedNet::new(2, Metrics::new());
        let inbox = Arc::downgrade(net.inbox(NodeId(1)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        net.set_doorbell(
            NodeId(1),
            Arc::new(move || log.lock().push(inbox.upgrade().unwrap().pending())),
        );
        net.send(NodeId(0), NodeId(1), TestMsg(1));
        net.send(NodeId(1), NodeId(1), TestMsg(2));
        assert_eq!(*seen.lock(), vec![1, 2]);
        let mut out = Vec::new();
        assert_eq!(net.inbox(NodeId(1)).take_up_to(8, &mut out), 2);
        let got: Vec<u64> = out.iter().map(|m| m.msg.0).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(net.inbox(NodeId(1)).pending(), 0);
    }
}
