//! Backend integration tests: the same workloads must behave identically
//! on the threaded runtime (real threads, real channels) and on the
//! simulator (virtual time), across all three PS variants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lapse_core::{run_sim, run_threaded, CostModel, PsConfig, PsWorker, Variant};
use lapse_net::Key;

const VARIANTS: [Variant; 3] = [Variant::Classic, Variant::ClassicFastLocal, Variant::Lapse];

/// Every worker pushes its id+1 into every key, then reads back the sum.
fn counter_workload(w: &mut dyn PsWorker) -> f32 {
    let keys: Vec<Key> = (0..8).map(Key).collect();
    let my = (w.global_id() + 1) as f32;
    for &k in &keys {
        w.push(&[k], &[my, 0.0]);
    }
    w.barrier();
    let mut out = vec![0.0; 16];
    w.pull(&keys, &mut out);
    // All keys hold the same total.
    for pair in out.chunks(2) {
        assert_eq!(pair[0], out[0]);
        assert_eq!(pair[1], 0.0);
    }
    out[0]
}

#[test]
fn counters_add_up_on_both_backends_and_all_variants() {
    for variant in VARIANTS {
        let expect: f32 = (1..=4).map(|i| i as f32).sum(); // 2 nodes × 2 workers
        let cfg = || PsConfig::new(2, 8, 2).variant(variant).latches(4);
        let (results, _) = run_threaded(cfg(), 2, |_| None, counter_workload);
        assert!(
            results.iter().all(|&v| v == expect),
            "threaded {variant:?}: {results:?}"
        );
        let (results, _) = run_sim(cfg(), 2, CostModel::default(), |_| None, counter_workload);
        assert!(
            results.iter().all(|&v| v == expect),
            "sim {variant:?}: {results:?}"
        );
    }
}

#[test]
fn initial_values_are_visible_everywhere() {
    let init = |k: Key| Some(vec![k.0 as f32 * 10.0, 1.0]);
    let body = |w: &mut dyn PsWorker| {
        let mut out = [0.0f32; 2];
        w.pull(&[Key(5)], &mut out);
        out[0]
    };
    let (results, _) = run_threaded(PsConfig::new(3, 9, 2), 1, init, body);
    assert!(results.iter().all(|&v| v == 50.0), "{results:?}");
    let (results, _) = run_sim(PsConfig::new(3, 9, 2), 1, CostModel::default(), init, body);
    assert!(results.iter().all(|&v| v == 50.0), "{results:?}");
}

#[test]
fn async_ops_round_trip_on_both_backends() {
    let body = |w: &mut dyn PsWorker| {
        let k = Key(3);
        let t1 = w.push_async(&[k], &[2.0]);
        let t2 = w.push_async(&[k], &[3.0]);
        w.wait(t1);
        w.wait(t2);
        let t = w.pull_async(&[k]);
        let v = w.wait_pull(t);
        w.barrier();
        v[0]
    };
    let cfg = || PsConfig::new(2, 8, 1);
    let (results, _) = run_threaded(cfg(), 1, |_| None, body);
    // Own writes are visible; the other worker's may or may not be yet.
    assert!(results.iter().all(|&v| v >= 5.0), "{results:?}");
    let (results, _) = run_sim(cfg(), 1, CostModel::default(), |_| None, body);
    assert!(results.iter().all(|&v| v >= 5.0), "{results:?}");
}

#[test]
fn localize_makes_access_local() {
    let body = |w: &mut dyn PsWorker| {
        // Worker 0 of node 1 localizes keys homed at node 0.
        if w.node().idx() == 1 {
            let keys: Vec<Key> = (0..4).map(Key).collect();
            w.localize(&keys);
            let mut out = [0.0f32; 1];
            // All subsequent accesses must be serviceable via the fast
            // path.
            for &k in &keys {
                assert!(w.pull_if_local(k, &mut out), "key {k} not local");
            }
        }
        w.barrier();
    };
    let cfg = || PsConfig::new(2, 8, 1);
    let (_, stats) = run_threaded(cfg(), 1, |_| None, body);
    assert_eq!(stats.relocations, 4);
    assert_eq!(stats.handovers, 4);
    assert_eq!(stats.unexpected_relocates, 0);
    let (_, stats) = run_sim(cfg(), 1, CostModel::default(), |_| None, body);
    assert_eq!(stats.relocations, 4);
    assert_eq!(stats.handovers, 4);
}

#[test]
fn classic_variant_never_relocates() {
    let body = |w: &mut dyn PsWorker| {
        w.localize(&[Key(0), Key(7)]);
        let mut out = [0.0f32; 1];
        w.pull(&[Key(0)], &mut out);
        w.barrier();
    };
    for variant in [Variant::Classic, Variant::ClassicFastLocal] {
        let (_, stats) = run_sim(
            PsConfig::new(2, 8, 1).variant(variant),
            2,
            CostModel::default(),
            |_| None,
            body,
        );
        assert_eq!(stats.relocations, 0, "{variant:?} must not relocate");
        assert_eq!(stats.localize_sent, 0);
    }
}

#[test]
fn sim_backend_is_deterministic() {
    let run = || {
        run_sim(
            PsConfig::new(4, 64, 4),
            2,
            CostModel::default(),
            |k| Some(vec![k.0 as f32; 4]),
            |w| {
                let mut out = vec![0.0f32; 4];
                let mut acc = 0.0;
                for i in 0..50u64 {
                    let k = Key((i * 7 + w.global_id() as u64 * 13) % 64);
                    w.localize(&[k]);
                    w.pull(&[k], &mut out);
                    w.push(&[k], &[1.0, 0.0, 0.0, 0.0]);
                    acc += out[0];
                    w.charge(1_000);
                }
                w.barrier();
                acc
            },
        )
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2, "worker results must be deterministic");
    assert_eq!(s1.virtual_time_ns, s2.virtual_time_ns);
    assert_eq!(s1.messages, s2.messages);
    assert_eq!(s1.relocations, s2.relocations);
}

/// The paper's core claim in miniature: on a workload with full access
/// locality, Lapse (localize + fast local access) beats the classic PS by
/// a large factor in virtual time.
#[test]
fn sim_lapse_beats_classic_on_local_workload() {
    let body = |w: &mut dyn PsWorker| {
        // Each worker repeatedly accesses a block of keys that is homed on
        // the *other* node (the adversarial static assignment that data
        // clustering fixes by relocating parameters).
        let shifted = (w.global_id() + w.num_workers() / 2) % w.num_workers();
        let base = (shifted as u64) * 8;
        let keys: Vec<Key> = (base..base + 8).map(Key).collect();
        w.localize(&keys);
        let mut out = vec![0.0f32; 8];
        for _ in 0..200 {
            w.pull(&keys, &mut out);
            w.push(&keys, &[0.1f32; 8]);
        }
        w.barrier();
    };
    let keys = 2 * 2 * 8;
    let time = |variant| {
        let (_, stats) = run_sim(
            PsConfig::new(2, keys, 1).variant(variant),
            2,
            CostModel::default(),
            |_| None,
            body,
        );
        stats.virtual_time_ns.unwrap()
    };
    let classic = time(Variant::Classic);
    let lapse = time(Variant::Lapse);
    assert!(
        classic > 10 * lapse,
        "classic {classic} should be ≫ lapse {lapse}"
    );
}

/// Runs `f` on its own thread. If it does not finish within `secs`, every
/// live flight recorder is dumped to stderr and the test fails: a lost
/// wake-up shows up as a trace instead of a hung test.
fn within_deadline<R: Send + 'static>(secs: u64, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(std::time::Duration::from_secs(secs)) {
        Ok(r) => r,
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            lapse_trace::dump_all("threaded run missed its deadline");
            panic!("threaded run made no progress for {secs} s: lost wake-up");
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("threaded run panicked"),
    }
}

/// Threaded stress: many workers hammer overlapping keys with pushes and
/// concurrent relocations; no update may be lost. The 2 × 2 input
/// localizes every third push, so relocations race each other, the
/// pushes, and the serving rounds of both nodes; the run is traced and
/// held to a deadline.
#[test]
fn threaded_stress_no_lost_updates() {
    // (nodes, workers per node, pushes per worker, localize every n-th push)
    for (nodes, workers, pushes_per_worker, localize_every) in
        [(3u16, 2usize, 500u64, 17u64), (2, 2, 2000, 3)]
    {
        let keys = 16u64;
        let total_pushed = Arc::new(AtomicU64::new(0));
        let total2 = total_pushed.clone();
        let (results, stats) = within_deadline(120, move || {
            run_threaded(
                PsConfig::new(nodes, keys, 1).latches(4).trace(true),
                workers,
                |_| None,
                move |w| {
                    let gid = w.global_id() as u64;
                    for i in 0..pushes_per_worker {
                        let k = Key((i * (gid + 3) + gid) % keys);
                        w.push(&[k], &[1.0]);
                        total2.fetch_add(1, Ordering::Relaxed);
                        if i % localize_every == gid % localize_every {
                            w.localize(&[k, Key((k.0 + 5) % keys)]);
                        }
                    }
                    w.barrier();
                    // After the barrier all pushes are applied (they were
                    // sync).
                    let all: Vec<Key> = (0..keys).map(Key).collect();
                    let mut out = vec![0.0f32; keys as usize];
                    w.pull(&all, &mut out);
                    out.iter().sum::<f32>()
                },
            )
        });
        let expect = nodes as u64 * workers as u64 * pushes_per_worker;
        assert_eq!(total_pushed.load(Ordering::Relaxed), expect);
        for r in results {
            assert_eq!(r, expect as f32, "lost or duplicated updates");
        }
        assert!(stats.relocations > 0);
        assert_eq!(stats.unexpected_relocates, 0);
        assert_eq!(stats.tracker_in_flight, 0);
    }
}

#[test]
fn threaded_sums_observed_by_all_workers() {
    let pushes_per_worker = 300;
    let keys = 8u64;
    let (results, stats) = run_threaded(
        PsConfig::new(2, keys, 1).latches(2),
        2,
        |_| None,
        move |w| {
            let gid = w.global_id() as u64;
            for i in 0..pushes_per_worker {
                let k = Key((i + gid) % keys);
                w.push(&[k], &[1.0]);
                if i % 23 == 0 {
                    w.localize(&[k]);
                }
            }
            w.barrier();
            let all: Vec<Key> = (0..keys).map(Key).collect();
            let mut out = vec![0.0f32; keys as usize];
            w.pull(&all, &mut out);
            out.iter().sum::<f32>()
        },
    );
    let expect = (4 * pushes_per_worker) as f32;
    for r in results {
        assert_eq!(r, expect, "lost or duplicated updates");
    }
    assert_eq!(stats.unexpected_relocates, 0);
}

#[test]
fn pull_if_local_is_negative_for_remote_keys() {
    let body = |w: &mut dyn PsWorker| {
        let mut out = [0.0f32; 1];
        // Key 0 is homed at node 0.
        let local = w.pull_if_local(Key(0), &mut out);
        w.barrier();
        (w.node().idx(), local)
    };
    let (results, _) = run_threaded(PsConfig::new(2, 8, 1), 1, |_| None, body);
    for (node, local) in results {
        assert_eq!(local, node == 0, "node {node}");
    }
}

#[test]
fn stats_track_local_vs_remote_pulls() {
    let (_, stats) = run_sim(
        PsConfig::new(2, 8, 1),
        1,
        CostModel::default(),
        |_| None,
        |w| {
            let mut out = [0.0f32; 1];
            if w.node().idx() == 0 {
                w.pull(&[Key(0)], &mut out); // local (homed at n0)
                w.pull(&[Key(7)], &mut out); // remote (homed at n1)
            }
            w.barrier();
        },
    );
    assert_eq!(stats.pull_local, 1);
    assert_eq!(stats.pull_remote, 1);
    assert_eq!(stats.pull_total(), 2);
}

// ---------------------------------------------------------------------------
// replication / hybrid variants
// ---------------------------------------------------------------------------

/// The replication counter workload: pushes accumulate locally, a
/// propagation tick (`advance_clock`) flushes them, and workers then poll
/// their replica until every contribution has propagated back. Charging
/// in the poll loop keeps virtual time advancing on the simulator.
fn replicated_counter_workload(w: &mut dyn PsWorker) -> f32 {
    let k = Key(0);
    let my = (w.global_id() + 1) as f32;
    w.push(&[k], &[my, 0.0]);
    w.advance_clock(); // propagate this node's accumulated pushes
    w.barrier();
    let expect: f32 = (1..=w.num_workers() as u32).map(|i| i as f32).sum();
    let mut out = [0.0f32; 2];
    for _ in 0..200_000 {
        w.pull(&[k], &mut out);
        if out[0] == expect {
            break;
        }
        w.charge(10_000);
        std::hint::spin_loop();
    }
    w.barrier();
    out[0]
}

#[test]
fn replication_converges_on_both_backends() {
    for variant in [Variant::Replication, Variant::Hybrid] {
        let expect: f32 = (1..=4).map(|i| i as f32).sum();
        let cfg = || {
            PsConfig::new(2, 8, 2)
                .variant(variant)
                .hot_set(lapse_core::HotSet::Prefix(8))
                .latches(4)
        };
        let (results, stats) = run_threaded(cfg(), 2, |_| None, replicated_counter_workload);
        assert!(
            results.iter().all(|&v| v == expect),
            "threaded {variant:?}: {results:?}"
        );
        assert_eq!(stats.relocations, 0, "replicated keys must not relocate");
        assert!(stats.replica_pushes_applied > 0);
        let (results, stats) = run_sim(
            cfg(),
            2,
            CostModel::default(),
            |_| None,
            replicated_counter_workload,
        );
        assert!(
            results.iter().all(|&v| v == expect),
            "sim {variant:?}: {results:?}"
        );
        assert!(stats.pull_replica > 0, "reads must be served from replicas");
        assert_eq!(stats.push_remote, 0, "replicated pushes never go remote");
    }
}

#[test]
fn hybrid_relocates_only_the_tail() {
    // Keys 0..2 are hot (replicated); 2..8 relocate.
    let body = |w: &mut dyn PsWorker| {
        w.localize(&[Key(0), Key(5)]);
        w.barrier();
    };
    let (_, stats) = run_sim(
        PsConfig::new(2, 8, 1)
            .variant(Variant::Hybrid)
            .hot_set(lapse_core::HotSet::Prefix(2)),
        1,
        CostModel::default(),
        |_| None,
        body,
    );
    // Only key 5 can move (each worker's localize may relocate it once
    // per requesting node); key 0 never does.
    assert!(stats.relocations >= 1);
    assert!(stats.localize_sent >= 1);
    let (_, stats_all_hot) = run_sim(
        PsConfig::new(2, 8, 1)
            .variant(Variant::Hybrid)
            .hot_set(lapse_core::HotSet::Prefix(8)),
        1,
        CostModel::default(),
        |_| None,
        body,
    );
    assert_eq!(stats_all_hot.relocations, 0);
}

#[test]
fn replication_is_deterministic_on_sim() {
    let run = || {
        run_sim(
            PsConfig::new(4, 64, 4)
                .variant(Variant::Hybrid)
                .hot_set(lapse_core::HotSet::Prefix(16))
                .replica_flush_every(8),
            2,
            CostModel::default(),
            |k| Some(vec![k.0 as f32; 4]),
            |w| {
                let mut out = vec![0.0f32; 4];
                let mut acc = 0.0;
                for i in 0..50u64 {
                    let k = Key((i * 7 + w.global_id() as u64 * 13) % 64);
                    w.localize(&[k]);
                    w.pull(&[k], &mut out);
                    w.push(&[k], &[1.0, 0.0, 0.0, 0.0]);
                    acc += out[0];
                    w.charge(1_000);
                }
                w.advance_clock();
                w.barrier();
                acc
            },
        )
    };
    let (r1, s1) = run();
    let (r2, s2) = run();
    assert_eq!(r1, r2, "worker results must be deterministic");
    assert_eq!(s1.virtual_time_ns, s2.virtual_time_ns);
    assert_eq!(s1.messages, s2.messages);
    assert_eq!(s1.replica_flushes, s2.replica_flushes);
    assert_eq!(s1.replica_refreshes, s2.replica_refreshes);
}

// ---------------------------------------------------------------------------
// OpToken drop regression (tracker reclamation)
// ---------------------------------------------------------------------------

/// Dropping a pending async token without waiting must not leak its
/// tracker entry: the entry is reclaimed when the completion arrives.
#[test]
fn dropped_async_token_reclaims_tracker_entry() {
    let body = |w: &mut dyn PsWorker| {
        // A remote push (key homed on the other node) that is dropped
        // without waiting.
        let remote = Key(if w.node().idx() == 0 { 7 } else { 0 });
        drop(w.push_async(&[remote], &[1.0]));
        // And one that is waited normally, to mix both paths.
        let t = w.push_async(&[remote], &[1.0]);
        w.wait(t);
        w.barrier();
    };
    let (_, stats) = run_sim(
        PsConfig::new(2, 8, 1),
        1,
        CostModel::default(),
        |_| None,
        body,
    );
    assert_eq!(
        stats.tracker_in_flight, 0,
        "dropped token leaked a tracker entry"
    );
    assert_eq!(stats.push_remote, 4, "all pushes still executed");
    let (_, stats) = run_threaded(PsConfig::new(2, 8, 1), 1, |_| None, body);
    assert_eq!(stats.tracker_in_flight, 0);
}
