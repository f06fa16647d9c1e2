//! One repetition of an end-to-end training workload on the threaded
//! runtime (or, in `sim` mode, the same configuration on the simulator).
//!
//! ```text
//! perfbench run --workload <name> --seed <n> [--trace] [--spans <file>]
//! perfbench sim --workload <name> --seed <n>
//! ```
//!
//! `run` generates the workload's inputs from the seed, builds the task
//! and trains it through `run_threaded`, every worker wrapped in a
//! [`probe::Probe`]. While it runs it prints `progress <calls>` lines (the
//! watchdog in `run.py` kills a run whose count stops moving); at the end
//! it prints one `result <json>` line. `sim` runs one epoch of the same
//! configuration through `run_sim` and reports its virtual epoch time.

mod probe;

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lapse_bench::{adaptive_bench_config, kge_config, mf_config, scaled, w2v_config};
use lapse_core::{
    run_sim, run_threaded, ClusterStats, CostModel, HotSet, PsConfig, PsWorker, Variant,
};
use lapse_ml::data::corpus::{Corpus, CorpusConfig};
use lapse_ml::data::kg::{KgConfig, KnowledgeGraph};
use lapse_ml::data::matrix::{MatrixConfig, SparseMatrix};
use lapse_ml::kge::{KgeConfig, KgeModel, KgePal, KgeTask};
use lapse_ml::metrics::{combine_runs, EpochStats};
use lapse_ml::mf::{MfConfig, MfTask};
use lapse_ml::w2v::{W2vConfig, W2vTask};
use lapse_net::Key;

use probe::{CallLog, Op, Probe};

/// Cluster shape of every workload: 2 nodes × 1 worker (2 worker threads
/// plus one server thread per node).
const NODES: u16 = 2;
const WORKERS_PER_NODE: usize = 1;

/// A workload: which task, at which dataset scale, for how many epochs.
struct Workload {
    name: &'static str,
    /// `LAPSE_SCALE` the dataset builders of `lapse-bench` are run at.
    scale: f64,
    /// Epochs per repetition; the examples a repetition trains are fixed,
    /// so its quality numbers are comparable across runs.
    epochs: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mf-lapse",
        scale: 1.0,
        epochs: 12,
    },
    Workload {
        name: "kge-lapse",
        scale: 0.5,
        epochs: 4,
    },
    Workload {
        name: "w2v-adaptive",
        scale: 0.25,
        epochs: 2,
    },
];

/// Generated inputs (benchmark input: generated before set-up starts).
enum Data {
    Mf(Arc<SparseMatrix>),
    Kge(Arc<KnowledgeGraph>),
    W2v(Arc<Corpus>),
}

type Body = Arc<dyn Fn(&mut dyn PsWorker) -> Vec<EpochStats> + Send + Sync>;
type Init = Box<dyn FnMut(Key) -> Option<Vec<f32>>>;

/// A task ready to hand to a backend.
struct Prepared {
    cfg: PsConfig,
    init: Init,
    body: Body,
    /// Examples every epoch must train (MF: matrix entries, KGE: training
    /// triples); `None` for W2V, whose pair count depends on subsampling.
    examples_per_epoch: Option<u64>,
}

/// Seed of the trainer (initialisation and shuffling), distinct from the
/// dataset seed.
fn trainer_seed(seed: u64) -> u64 {
    seed ^ 0x9E37_79B9_7F4A_7C15
}

/// The dataset builders of `lapse-bench` (`mf_data_10to1`, `kg_data`,
/// `corpus_data`) with the seed taken from the command line.
fn generate(w: &Workload, seed: u64) -> Data {
    match w.name {
        "mf-lapse" => Data::Mf(Arc::new(SparseMatrix::generate(MatrixConfig {
            rows: scaled(20_000) as u32,
            cols: scaled(2_000) as u32,
            rank: 16,
            entries: scaled(400_000),
            noise: 0.05,
            seed,
        }))),
        "kge-lapse" => Data::Kge(Arc::new(KnowledgeGraph::generate(KgConfig {
            entities: scaled(20_000) as u32,
            relations: 40,
            triples: scaled(30_000),
            held_out: 500,
            relation_skew: 1.0,
            entity_skew: 0.8,
            clusters: 16,
            seed,
        }))),
        "w2v-adaptive" => Data::W2v(Arc::new(Corpus::generate(CorpusConfig {
            vocab: scaled(20_000) as u32,
            tokens: scaled(200_000),
            sentence_len: 14,
            topics: 12,
            topic_strength: 0.7,
            skew: 1.0,
            seed,
        }))),
        other => unreachable!("unknown workload {other}"),
    }
}

/// Task construction and cluster configuration: the set-up that is timed.
fn prepare(data: &Data, seed: u64) -> Prepared {
    let seed = trainer_seed(seed);
    let nodes = NODES as usize;
    match data {
        Data::Mf(m) => {
            let rank = 16;
            let cfg = MfConfig {
                seed,
                ..mf_config(rank)
            };
            let task = MfTask::new(m.clone(), cfg, nodes, WORKERS_PER_NODE);
            let ps = PsConfig::new(NODES, task.num_keys(), rank as u32)
                .variant(Variant::Lapse)
                .latches(1000);
            Prepared {
                cfg: ps,
                init: Box::new(task.initializer()),
                examples_per_epoch: Some(m.nnz() as u64),
                body: Arc::new(move |w| task.run(w)),
            }
        }
        Data::Kge(kg) => {
            let cfg = KgeConfig {
                seed,
                ..kge_config(KgeModel::ComplEx, 16, 100, KgePal::Full)
            };
            let task = KgeTask::new(kg.clone(), cfg, nodes, WORKERS_PER_NODE);
            let ps = PsConfig::new(NODES, task.num_keys(), 1)
                .layout(task.layout())
                .variant(Variant::Lapse)
                .latches(1000);
            Prepared {
                cfg: ps,
                init: Box::new(task.initializer()),
                examples_per_epoch: Some(kg.train.len() as u64),
                body: Arc::new(move |w| task.run(w)),
            }
        }
        Data::W2v(corpus) => {
            let cfg = W2vConfig {
                seed,
                ..w2v_config(true)
            };
            let task = W2vTask::new(corpus.clone(), cfg, nodes, WORKERS_PER_NODE);
            let ps = PsConfig::new(NODES, task.num_keys(), task.cfg.dim as u32)
                .variant(Variant::Adaptive)
                .hot_set(HotSet::Prefix(0))
                .adaptive(adaptive_bench_config())
                .latches(1000);
            Prepared {
                cfg: ps,
                init: Box::new(task.initializer()),
                examples_per_epoch: None,
                body: Arc::new(move |w| task.run(w)),
            }
        }
    }
}

/// Prints `progress <n>` whenever the shared call counter moves, until
/// dropped.
struct Reporter {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    fn start(progress: Arc<AtomicU64>) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            let mut last = u64::MAX;
            while !flag.load(Relaxed) {
                let now = progress.load(Relaxed);
                if now != last {
                    println!("progress {now}");
                    let _ = std::io::stdout().flush();
                    last = now;
                }
                std::thread::sleep(Duration::from_millis(200));
            }
        });
        Reporter {
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop.store(true, Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A flat JSON object of numbers, strings and number lists.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(&mut self, k: &str, v: f64) {
        let v = if v.is_finite() {
            format!("{v:?}")
        } else {
            "null".into()
        };
        self.0.push((k.into(), v));
    }

    fn raw(&mut self, k: &str, v: String) {
        self.0.push((k.into(), v));
    }

    fn render(&self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of sorted `(duration, weight)` samples, each
/// standing for `weight` calls.
fn quantile(sorted: &[(u64, u64)], q: f64) -> f64 {
    let total: u64 = sorted.iter().map(|&(_, w)| w).sum();
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for &(d, w) in sorted {
        seen += w;
        if seen >= rank {
            return d as f64;
        }
    }
    0.0
}

/// The highest quantile (at most p99) with at least 10 samples beyond it.
fn tail_quantile(n: usize) -> f64 {
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Per-layer metrics of a traced repetition.
fn layer_metrics(out: &mut Json, per_worker: &[(Vec<EpochStats>, CallLog)], s: &ClusterStats) {
    let examples: u64 = per_worker
        .iter()
        .flat_map(|(e, _)| e)
        .map(|e| e.examples)
        .sum();
    let ex = examples.max(1) as f64;
    let mut epoch_ns = 0u64;
    let mut calls = [0u64; Op::ALL.len()];
    let mut in_epoch_ns = [0f64; Op::ALL.len()];
    let mut samples: Vec<Vec<(u64, u64)>> = vec![Vec::new(); Op::ALL.len()];
    let (mut hits, mut ready, mut dropped) = (0u64, 0u64, 0u64);
    for (epochs, log) in per_worker {
        epoch_ns += epochs.iter().map(|e| e.duration_ns()).sum::<u64>();
        for (i, c) in log.calls.iter().enumerate() {
            calls[i] += c;
        }
        for (epoch, span) in log.spans_by_epoch(epochs) {
            let (d, w) = (log.duration(span), span.weight as u64);
            samples[span.op as usize].push((d, w));
            if epoch.is_some() {
                in_epoch_ns[span.op as usize] += (d * w) as f64;
            }
        }
        hits += log.pull_if_local_hits;
        ready += log.localize_async_ready;
        dropped += log.spans_dropped;
    }
    let total_ns = epoch_ns.max(1) as f64;
    let self_ns = total_ns - in_epoch_ns.iter().sum::<f64>();
    out.num("ml.self_share", self_ns / total_ns);
    out.num("ml.self_ns_per_example", self_ns / ex);
    for op in Op::ALL {
        let i = op as usize;
        let name = op.name();
        let v = &mut samples[i];
        v.sort_unstable();
        out.num(&format!("core.{name}.per_example"), calls[i] as f64 / ex);
        out.num(&format!("core.{name}.share"), in_epoch_ns[i] / total_ns);
        out.num(&format!("core.{name}.samples"), v.len() as f64);
        out.num(&format!("core.{name}.p50_ns"), quantile(v, 0.5));
        let q = tail_quantile(v.len());
        out.num(&format!("core.{name}.p99_ns"), quantile(v, q));
        out.num(&format!("core.{name}.tail_q"), q);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.num(
        "core.pull_if_local.hit_ratio",
        ratio(hits, calls[Op::PullIfLocal as usize]),
    );
    out.num(
        "core.localize_async.ready_ratio",
        ratio(ready, calls[Op::LocalizeAsync as usize]),
    );
    out.num("trace.spans_dropped", dropped as f64);
    let timer = per_worker
        .iter()
        .map(|(_, l)| l.timer_ns)
        .max()
        .unwrap_or(0);
    out.num("trace.timer_ns", timer as f64);

    out.num(
        "proto.server.relocations_per_example",
        s.relocations as f64 / ex,
    );
    out.num(
        "proto.server.reloc_p50_ns",
        s.reloc_quantile_ns(0.50) as f64,
    );
    out.num(
        "proto.server.reloc_p99_ns",
        s.reloc_quantile_ns(0.99) as f64,
    );
    out.num(
        "proto.server.unexpected_relocates",
        s.unexpected_relocates as f64,
    );
    out.num("proto.tracker.in_flight_at_end", s.tracker_in_flight as f64);
    out.num("net.messages_per_example", s.messages as f64 / ex);
    out.num("net.bytes_per_example", s.bytes as f64 / ex);
    out.num(
        "net.coalesce.msgs_per_batch",
        ratio(s.net_batched_msgs, s.net_batches),
    );
    out.num("proto.adaptive.promotions", s.tech_promotions as f64);
    out.num("proto.adaptive.demotions", s.tech_demotions as f64);
    out.num(
        "proto.adaptive.sketch_samples_per_example",
        s.sketch_samples as f64 / ex,
    );
    out.num(
        "proto.replica.flushes_per_example",
        s.replica_flushes as f64 / ex,
    );
    out.num(
        "proto.replica.refreshes_per_example",
        s.replica_refreshes as f64 / ex,
    );
    let local = s.pull_local + s.push_local;
    let queued = s.pull_queued + s.push_queued;
    let remote = s.pull_remote + s.push_remote;
    let replica = s.pull_replica + s.push_replica;
    let keys = local + queued + remote + replica;
    out.num("proto.client.local_ratio", ratio(local, keys));
    out.num("proto.client.queued_ratio", ratio(queued, keys));
    out.num("proto.client.remote_ratio", ratio(remote, keys));
    out.num("proto.client.replica_ratio", ratio(replica, keys));
    out.num(
        "proto.storage.heap_allocs_per_example",
        s.value_allocs_heap as f64 / ex,
    );
    out.num(
        "proto.storage.value_bytes_per_example",
        s.value_bytes_moved as f64 / ex,
    );
}

/// Writes the spans as tab-separated values: worker, epoch (`-` outside
/// epochs), op, start and end (ns). The local-path calls (`pull`, `push`,
/// `pull_if_local`; millions per run) are left out: the layer metrics
/// summarise them.
fn write_spans(path: &str, per_worker: &[(Vec<EpochStats>, CallLog)]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "worker\tepoch\top\tstart_ns\tend_ns")?;
    for (gid, (epochs, log)) in per_worker.iter().enumerate() {
        let spans = log.spans_by_epoch(epochs);
        for (epoch, s) in
            spans.filter(|(_, s)| !matches!(s.op, Op::Pull | Op::Push | Op::PullIfLocal))
        {
            let epoch = epoch.map_or("-".to_string(), |e| e.to_string());
            let op = s.op.name();
            writeln!(f, "{gid}\t{epoch}\t{op}\t{}\t{}", s.start_ns, s.end_ns)?;
        }
    }
    f.flush()
}

fn run(w: &Workload, seed: u64, trace: bool, spans: Option<&str>) {
    let data = generate(w, seed);
    let progress = Arc::new(AtomicU64::new(0));
    let reporter = Reporter::start(progress.clone());

    let setup_start = Instant::now();
    let prep = prepare(&data, seed);
    let body = prep.body;
    let counter = progress.clone();
    let before_run = setup_start.elapsed();
    let (per_worker, stats) = run_threaded(prep.cfg, WORKERS_PER_NODE, prep.init, move |w| {
        let mut probe = Probe::new(w, trace, &counter);
        let epochs = body(&mut probe);
        (epochs, probe.finish())
    });
    drop(reporter);

    let epochs: Vec<Vec<EpochStats>> = per_worker.iter().map(|(e, _)| e.clone()).collect();
    let combined = combine_runs(&epochs);
    let examples: u64 = combined.iter().map(|e| e.examples).sum();
    let train_ns: u64 = combined.iter().map(|e| e.duration_ns()).sum();
    let setup_s = before_run.as_secs_f64() + combined[0].start_ns as f64 / 1e9;
    let last = combined.last().expect("at least one epoch");
    let quality = match data {
        Data::W2v(_) => last.eval.unwrap_or(f64::NAN),
        _ => last.loss / last.examples.max(1) as f64,
    };
    let ops: u64 = per_worker.iter().map(|(_, l)| l.total_calls()).sum();

    let mut out = Json::default();
    out.raw("workload", format!("\"{}\"", w.name));
    out.num("seed", seed as f64);
    out.num("epochs", combined.len() as f64);
    out.num("examples", examples as f64);
    out.num(
        "expected_examples",
        prep.examples_per_epoch
            .map_or(f64::NAN, |e| (e * w.epochs as u64) as f64),
    );
    out.num("examples_per_s", examples as f64 / (train_ns as f64 / 1e9));
    out.num("setup_s", setup_s);
    out.num("loss", quality);
    out.num("peak_rss_mb", peak_rss_mb());
    out.num("ops", ops as f64);
    out.num("unexpected_relocates", stats.unexpected_relocates as f64);
    out.num("tracker_in_flight", stats.tracker_in_flight as f64);
    let bits: Vec<String> = combined
        .iter()
        .map(|e| format!("\"{:016x}\"", e.loss.to_bits()))
        .collect();
    out.raw("loss_bits", format!("[{}]", bits.join(",")));
    let secs: Vec<String> = combined
        .iter()
        .map(|e| format!("{:?}", e.duration_ns() as f64 / 1e9))
        .collect();
    out.raw("epoch_s", format!("[{}]", secs.join(",")));
    if trace {
        let mut layers = Json::default();
        layer_metrics(&mut layers, &per_worker, &stats);
        out.raw("layers", layers.render());
        if let Some(path) = spans {
            if let Err(e) = write_spans(path, &per_worker) {
                eprintln!("perfbench: cannot write spans to {path}: {e}");
            }
        }
    }
    println!("result {}", out.render());
}

fn sim(w: &Workload, seed: u64) {
    let data = generate(w, seed);
    let progress = Arc::new(AtomicU64::new(0));
    let reporter = Reporter::start(progress.clone());
    let prep = prepare(&data, seed);
    let body = prep.body;
    let counter = progress.clone();
    let (epochs, _) = run_sim(
        prep.cfg,
        WORKERS_PER_NODE,
        CostModel::default(),
        prep.init,
        move |w| {
            let mut probe = Probe::new(w, false, &counter);
            body(&mut probe)
        },
    );
    drop(reporter);
    let combined = combine_runs(&epochs);
    let mut out = Json::default();
    out.num("virtual_epoch_s", combined[0].duration_ns() as f64 / 1e9);
    println!("result {}", out.render());
}

fn usage() -> ! {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: perfbench run|sim --workload <{}> --seed <n> [--trace] [--spans <file>]",
        names.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first().cloned() else {
        usage()
    };
    let (mut workload, mut seed, mut trace, mut spans) = (None, None, false, None);
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" => {
                workload = it
                    .next()
                    .and_then(|n| WORKLOADS.iter().find(|w| w.name == n))
            }
            "--seed" => seed = it.next().and_then(|s| s.parse::<u64>().ok()),
            "--trace" => trace = true,
            "--spans" => spans = it.next().cloned(),
            _ => usage(),
        }
    }
    let (Some(w), Some(seed)) = (workload, seed) else {
        usage()
    };
    // The dataset builders and trainer configs of `lapse-bench` read their
    // scale and epoch count from the environment; pin both, and clear the
    // runtime switches so the caller's environment cannot change the run.
    let epochs = if mode == "sim" { 1 } else { w.epochs };
    std::env::set_var("LAPSE_SCALE", w.scale.to_string());
    std::env::set_var("LAPSE_EPOCHS", epochs.to_string());
    for var in [
        "LAPSE_TRACE",
        "LAPSE_TRACE_OUT",
        "LAPSE_NO_SEQLOCK",
        "LAPSE_NO_COALESCE",
        "LAPSE_NO_SNAPSHOT",
    ] {
        std::env::remove_var(var);
    }
    match mode.as_str() {
        "run" => run(w, seed, trace, spans.as_deref()),
        "sim" => sim(w, seed),
        _ => usage(),
    }
}
