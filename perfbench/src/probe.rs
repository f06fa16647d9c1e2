//! A [`PsWorker`] decorator that counts every call into the runtime and,
//! when tracing, times them.
//!
//! Untraced, the probe only counts calls (one add per call, plus a shared
//! progress counter bumped every [`PUBLISH_EVERY`] calls that the parent's
//! hang watchdog reads). Traced, it records a span (op, start, end) per
//! timed call into an in-memory log; spans are attributed to epochs after
//! the run. Timing a call costs two clock reads, as much as a local pull,
//! so an op whose recent calls averaged under [`FAST_NS`] is timed only 1
//! in [`SAMPLE_EVERY`] calls (each such span stands for that many calls);
//! slower ops, and ops whose mean is dominated by a slow tail, are timed
//! on every call.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use lapse_core::{OpToken, PsWorker};
use lapse_ml::metrics::EpochStats;
use lapse_net::{Key, NodeId};

/// Fast ops are timed once per this many calls (systematic sampling).
const SAMPLE_EVERY: u32 = 32;

/// Mean call time below which an op counts as fast.
const FAST_NS: u64 = 1_000;

/// Timed calls of an op between two decisions on its sampling rate.
const RATE_WINDOW: u32 = 256;

/// Calls between two updates of the shared progress counter.
const PUBLISH_EVERY: u64 = 256;

/// Span log cap per worker; later spans are counted as dropped.
const MAX_SPANS: usize = 4_000_000;

/// The timed `PsWorker` entry points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Pull,
    Push,
    Localize,
    PullAsync,
    PushAsync,
    LocalizeAsync,
    WaitPull,
    Wait,
    PullIfLocal,
    Barrier,
    AdvanceClock,
}

impl Op {
    pub const ALL: [Op; 11] = [
        Op::Pull,
        Op::Push,
        Op::Localize,
        Op::PullAsync,
        Op::PushAsync,
        Op::LocalizeAsync,
        Op::WaitPull,
        Op::Wait,
        Op::PullIfLocal,
        Op::Barrier,
        Op::AdvanceClock,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Op::Pull => "pull",
            Op::Push => "push",
            Op::Localize => "localize",
            Op::PullAsync => "pull_async",
            Op::PushAsync => "push_async",
            Op::LocalizeAsync => "localize_async",
            Op::WaitPull => "wait_pull",
            Op::Wait => "wait",
            Op::PullIfLocal => "pull_if_local",
            Op::Barrier => "barrier",
            Op::AdvanceClock => "advance_clock",
        }
    }
}

/// One timed call (worker clock, ns since the run started).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub op: Op,
    /// Calls this span stands for (1, or [`SAMPLE_EVERY`] for a fast op).
    pub weight: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What one worker's probe saw.
#[derive(Debug, Default)]
pub struct CallLog {
    /// Calls per [`Op`] (all of them, timed or not).
    pub calls: [u64; Op::ALL.len()],
    /// `pull_if_local` calls that found the key local.
    pub pull_if_local_hits: u64,
    /// `localize_async` tokens already complete at issue.
    pub localize_async_ready: u64,
    /// Timed calls, in issue order.
    pub spans: Vec<Span>,
    /// Timed calls beyond [`MAX_SPANS`].
    pub spans_dropped: u64,
    /// Median span of an empty timed region: the clock reads' own cost,
    /// subtracted from every span.
    pub timer_ns: u64,
}

impl CallLog {
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Duration of a span with the clock reads' cost taken out.
    pub fn duration(&self, s: &Span) -> u64 {
        (s.end_ns - s.start_ns).saturating_sub(self.timer_ns)
    }

    /// Index of the epoch whose span contains `t`, walking forward from
    /// `from` (spans are in time order).
    fn epoch_of(epochs: &[EpochStats], from: &mut usize, t: u64) -> Option<usize> {
        while *from < epochs.len() && epochs[*from].end_ns < t {
            *from += 1;
        }
        epochs.get(*from).filter(|e| e.start_ns <= t).map(|_| *from)
    }

    /// Each span with the epoch it falls in (`None`: set-up, evaluation
    /// or a barrier wait before the epoch started).
    pub fn spans_by_epoch<'a>(
        &'a self,
        epochs: &'a [EpochStats],
    ) -> impl Iterator<Item = (Option<usize>, &'a Span)> + 'a {
        let mut cursor = 0;
        self.spans
            .iter()
            .map(move |s| (Self::epoch_of(epochs, &mut cursor, s.start_ns), s))
    }
}

/// Median duration of an empty region timed the way calls are timed.
fn timer_cost(w: &dyn PsWorker) -> u64 {
    let mut d: Vec<u64> = (0..1001)
        .map(|_| {
            let a = w.now_ns();
            w.now_ns() - a
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Sampling state of one op.
#[derive(Clone, Copy)]
struct Sampler {
    /// Calls per timed call at the current rate.
    every: u32,
    /// Calls left to skip before the next timed one.
    skip: u32,
    /// Timed calls and their total time in the current window.
    window_n: u32,
    window_ns: u64,
}

/// The decorator. Wraps the backend's worker for the whole run.
pub struct Probe<'a> {
    inner: &'a mut dyn PsWorker,
    trace: bool,
    samplers: [Sampler; Op::ALL.len()],
    log: CallLog,
    unpublished: u64,
    progress: &'a AtomicU64,
}

impl<'a> Probe<'a> {
    pub fn new(inner: &'a mut dyn PsWorker, trace: bool, progress: &'a AtomicU64) -> Self {
        let timer_ns = if trace { timer_cost(inner) } else { 0 };
        let sampler = Sampler {
            every: 1,
            skip: 0,
            window_n: 0,
            window_ns: 0,
        };
        Probe {
            inner,
            trace,
            samplers: [sampler; Op::ALL.len()],
            log: CallLog {
                timer_ns,
                ..CallLog::default()
            },
            unpublished: 0,
            progress,
        }
    }

    pub fn finish(self) -> CallLog {
        self.progress.fetch_add(self.unpublished, Relaxed);
        self.log
    }

    #[inline]
    fn call<R>(&mut self, op: Op, f: impl FnOnce(&mut dyn PsWorker) -> R) -> R {
        self.log.calls[op as usize] += 1;
        self.unpublished += 1;
        if self.unpublished == PUBLISH_EVERY {
            self.progress.fetch_add(PUBLISH_EVERY, Relaxed);
            self.unpublished = 0;
        }
        if !self.trace {
            return f(&mut *self.inner);
        }
        let s = &mut self.samplers[op as usize];
        if s.skip > 0 {
            s.skip -= 1;
            return f(&mut *self.inner);
        }
        let weight = s.every;
        s.skip = weight - 1;
        let start_ns = self.inner.now_ns();
        let r = f(&mut *self.inner);
        let end_ns = self.inner.now_ns();
        let s = &mut self.samplers[op as usize];
        s.window_n += 1;
        s.window_ns += end_ns - start_ns;
        if s.window_n == RATE_WINDOW {
            let mean = (s.window_ns / RATE_WINDOW as u64).saturating_sub(self.log.timer_ns);
            s.every = if mean < FAST_NS { SAMPLE_EVERY } else { 1 };
            s.window_n = 0;
            s.window_ns = 0;
        }
        if self.log.spans.len() < MAX_SPANS {
            self.log.spans.push(Span {
                op,
                weight,
                start_ns,
                end_ns,
            });
        } else {
            self.log.spans_dropped += 1;
        }
        r
    }
}

impl PsWorker for Probe<'_> {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn slot(&self) -> usize {
        self.inner.slot()
    }

    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn workers_per_node(&self) -> usize {
        self.inner.workers_per_node()
    }

    fn value_len(&self, key: Key) -> usize {
        self.inner.value_len(key)
    }

    fn pull(&mut self, keys: &[Key], out: &mut [f32]) {
        self.call(Op::Pull, |w| w.pull(keys, out))
    }

    fn push(&mut self, keys: &[Key], vals: &[f32]) {
        self.call(Op::Push, |w| w.push(keys, vals))
    }

    fn localize(&mut self, keys: &[Key]) {
        self.call(Op::Localize, |w| w.localize(keys))
    }

    fn pull_async(&mut self, keys: &[Key]) -> OpToken {
        self.call(Op::PullAsync, |w| w.pull_async(keys))
    }

    fn push_async(&mut self, keys: &[Key], vals: &[f32]) -> OpToken {
        self.call(Op::PushAsync, |w| w.push_async(keys, vals))
    }

    fn localize_async(&mut self, keys: &[Key]) -> OpToken {
        let token = self.call(Op::LocalizeAsync, |w| w.localize_async(keys));
        self.log.localize_async_ready += token.completed_at_issue() as u64;
        token
    }

    fn wait_pull(&mut self, token: OpToken) -> Vec<f32> {
        self.call(Op::WaitPull, |w| w.wait_pull(token))
    }

    fn wait(&mut self, token: OpToken) {
        self.call(Op::Wait, |w| w.wait(token))
    }

    fn pull_if_local(&mut self, key: Key, out: &mut [f32]) -> bool {
        let hit = self.call(Op::PullIfLocal, |w| w.pull_if_local(key, out));
        self.log.pull_if_local_hits += hit as u64;
        hit
    }

    fn snapshot_reader(&self) -> Option<lapse_proto::SnapshotReader> {
        self.inner.snapshot_reader()
    }

    fn barrier(&mut self) {
        self.call(Op::Barrier, |w| w.barrier())
    }

    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns)
    }

    fn advance_clock(&mut self) {
        self.call(Op::AdvanceClock, |w| w.advance_clock())
    }

    fn now_ns(&self) -> u64 {
        self.inner.now_ns()
    }
}
