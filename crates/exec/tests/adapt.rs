//! The adaptive executor's correctness bar: migrations — whether the
//! controller decides them live or a script forces them — change
//! *where* segments run, never *what* they compute. The seeded
//! `phase-shift` app steps its hot kernels' work a known multiple at a
//! known firing count; the controller must notice and issue at least
//! one live handoff, and every adaptive digest must stay bit-identical
//! to the serial executor's — across worker counts, warmup modes, and
//! PMU-less (timing-only) windows. Scripted hops additionally pin down
//! the exact boundary semantics: self-hops and past-the-end hops are
//! no-ops, chained hops land in order, and batch accounting survives
//! every move.

use ccs_exec::{execute_dag_cfg, AdaptConfig, Migration, RunConfig, WarmupMode};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_obs::EventKind;
use ccs_partition::Partition;
use ccs_runtime::Instance;
use ccs_sched::partitioned;

/// One segment per node: keeps the perturbed kernels in pure segments,
/// so their cost step is not diluted by co-resident modules.
fn singleton_partition(g: &StreamGraph) -> Partition {
    Partition::from_assignment((0..g.node_count() as u32).collect())
}

/// Serial reference digest over `rounds` granularity-T rounds of the
/// *same bound instance* the parallel runs use — the binding must
/// match, or the comparison proves nothing.
fn serial_digest(
    g: &StreamGraph,
    ra: &RateAnalysis,
    p: &Partition,
    m: u64,
    rounds: u64,
    mut inst: Instance,
) -> Option<u64> {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("serial reference schedule");
    ccs_runtime::serial::execute(&mut inst, &run).digest
}

/// The deterministic perturbation harness (the acceptance contract):
/// the phase-shift kernels step 32x a third of the way into the run.
/// For every warmup mode and worker count the adaptive digest equals
/// the serial one, and with >= 2 workers the controller performs at
/// least one live migration. Counters stay off, so the windows are
/// timing-only — the same degraded stream a `CCS_NO_PERF=1` run sees.
#[test]
fn phase_shift_adaptive_matches_serial_and_migrates() {
    let g = ccs_apps::phase_shift();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = singleton_partition(&g);
    let m = 8;
    let rounds = 48;
    let t = partitioned::granularity_t(&g, &ra, m).unwrap();
    // Step at batch 16 of each hot segment: past the warmup window and
    // the controller's min_windows gate, with most of the run still
    // ahead for the handoff to land in.
    let step_at = t * 16;
    let mult = 32;
    let want = serial_digest(
        &g,
        &ra,
        &p,
        m,
        rounds,
        ccs_apps::phase_shift_instance(g.clone(), step_at, mult),
    );
    assert!(want.is_some(), "no serial digest for phase-shift");
    for mode in [WarmupMode::Epoch, WarmupMode::PerWorker] {
        for workers in [1usize, 2, 4] {
            let cfg = RunConfig::new(workers)
                .with_windows(2)
                .with_warmup(4)
                .with_warmup_mode(mode)
                .with_adapt(AdaptConfig::default());
            let inst = ccs_apps::phase_shift_instance(g.clone(), step_at, mult);
            let stats = execute_dag_cfg(inst, &ra, &p, m, rounds, &cfg)
                .unwrap_or_else(|e| panic!("{mode:?} x{workers}: {e}"));
            assert_eq!(
                stats.run.digest, want,
                "digest diverged under adaptation: {mode:?} x{workers}"
            );
            if workers >= 2 {
                assert!(
                    stats.total_migrations() >= 1,
                    "perturbation went unanswered: {mode:?} x{workers}"
                );
            } else {
                // A single worker has nowhere to migrate to.
                assert_eq!(stats.total_migrations(), 0, "{mode:?} x1");
            }
        }
    }
}

/// Adaptation enabled on a drift-free app is harmless: fm-radio has no
/// perturbation, so whatever the controller does (usually nothing, on
/// a noisy machine possibly something) the digest must not move.
#[test]
fn steady_app_with_adaptation_matches_serial() {
    let g = ccs_apps::fm_radio(8);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = ccs_partition::dag_greedy::greedy_best(&g, &ra, 512.max(g.max_state()));
    let want = serial_digest(&g, &ra, &p, 512, 6, Instance::synthetic(g.clone()));
    assert!(want.is_some(), "no serial digest for fm-radio");
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers)
            .with_windows(2)
            .with_adapt(AdaptConfig::default());
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 512, 6, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}

/// An eight-stage uniform pipeline, one node per segment — round-robin
/// over two workers puts segment `i` on worker `i % 2`, which the
/// scripted-hop assertions below rely on.
fn pipeline8() -> (StreamGraph, RateAnalysis, Partition) {
    let mut b = ccs_graph::GraphBuilder::new();
    let v: Vec<_> = (0..8).map(|i| b.node(format!("s{i}"), 16)).collect();
    for i in 0..7 {
        b.edge(v[i], v[i + 1], 1, 1);
    }
    let g = b.build().unwrap();
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = Partition::from_assignment((0..8).collect());
    (g, ra, p)
}

/// Scripted hops are exact: a chained there-and-back hop lands twice, a
/// hop to the current owner and a hop at the end-of-run boundary land
/// zero times, the trace carries one Migration instant per real hop,
/// and every segment still executes exactly `rounds` batches.
#[test]
fn scripted_hops_are_exact_and_digest_preserving() {
    let (g, ra, p) = pipeline8();
    let rounds = 8;
    let want = serial_digest(&g, &ra, &p, 8, rounds, Instance::synthetic(g.clone()));
    assert!(want.is_some());
    // Round-robin owners over 2 workers: seg i starts on worker i % 2.
    let hops = vec![
        // Chained: away at batch 2, back at batch 5 — two migrations.
        Migration {
            seg: 0,
            to_worker: 1,
            after_batches: 2,
        },
        Migration {
            seg: 0,
            to_worker: 0,
            after_batches: 5,
        },
        // A third real hop on the other worker's segment.
        Migration {
            seg: 3,
            to_worker: 0,
            after_batches: 1,
        },
        // Self-hop: seg 1 already lives on worker 1 — silent no-op.
        Migration {
            seg: 1,
            to_worker: 1,
            after_batches: 3,
        },
        // Past the end: the segment finishes before this boundary.
        Migration {
            seg: 2,
            to_worker: 1,
            after_batches: rounds,
        },
    ];
    let cfg = RunConfig::new(2)
        .with_trace(true)
        .with_forced_migrations(hops);
    let inst = Instance::synthetic(g.clone());
    let stats = execute_dag_cfg(inst, &ra, &p, 8, rounds, &cfg).unwrap();
    assert_eq!(stats.run.digest, want, "scripted hops changed the digest");
    assert_eq!(stats.total_migrations(), 3, "{:?}", stats.workers);
    let traced: Vec<_> = stats
        .workers
        .iter()
        .flat_map(|w| w.trace.as_ref().expect("trace on").events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Migration { seg, from, to } => Some((seg, from, to)),
            _ => None,
        })
        .collect();
    assert_eq!(traced.len(), 3, "{traced:?}");
    assert!(traced.contains(&(0, 0, 1)), "{traced:?}");
    assert!(traced.contains(&(0, 1, 0)), "{traced:?}");
    assert!(traced.contains(&(3, 1, 0)), "{traced:?}");
    // Accounting survives the moves: every segment ran exactly
    // `rounds` batches somewhere, and the hopped segments appear on
    // both workers' rosters.
    let batches: u64 = stats.workers.iter().map(|w| w.batches).sum();
    assert_eq!(batches, rounds * g.node_count() as u64);
    for w in &stats.workers {
        assert!(
            w.segments.contains(&0),
            "worker {} roster: {:?}",
            w.worker,
            w.segments
        );
        assert!(
            w.segments.contains(&3),
            "worker {} roster: {:?}",
            w.worker,
            w.segments
        );
    }
}

/// The warmup equality corner: a hop *at* the warmup boundary is legal
/// (the segment quiesces with exactly `warmup` batches done) and keeps
/// the digest, under both warmup modes.
#[test]
fn hop_at_the_warmup_boundary_is_legal_and_exact() {
    let (g, ra, p) = pipeline8();
    let rounds = 8;
    let warmup = 3;
    let want = serial_digest(&g, &ra, &p, 8, rounds, Instance::synthetic(g.clone()));
    for mode in [WarmupMode::Epoch, WarmupMode::PerWorker] {
        let cfg = RunConfig::new(2)
            .with_warmup(warmup)
            .with_warmup_mode(mode)
            .with_forced_migrations(vec![Migration {
                seg: 4,
                to_worker: 1,
                after_batches: warmup,
            }]);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag_cfg(inst, &ra, &p, 8, rounds, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "{mode:?}");
        assert_eq!(stats.total_migrations(), 1, "{mode:?}");
    }
}

/// Segment-counter attribution travels with the segment: after a
/// scripted hop, per-segment batch counts still sum to `rounds` for
/// every segment — the accumulator moved, nothing was double-counted
/// or lost. (Counters themselves may be unavailable in CI; the batch
/// tallies are counted unconditionally.)
#[test]
fn segment_attribution_travels_with_the_hop() {
    let (g, ra, p) = pipeline8();
    let rounds = 6;
    let cfg = RunConfig::new(2)
        .with_counters(true)
        .with_segment_counters(true)
        .with_forced_migrations(vec![
            Migration {
                seg: 2,
                to_worker: 1,
                after_batches: 2,
            },
            Migration {
                seg: 5,
                to_worker: 0,
                after_batches: 4,
            },
        ]);
    let inst = Instance::synthetic(g.clone());
    let stats = execute_dag_cfg(inst, &ra, &p, 8, rounds, &cfg).unwrap();
    let mut per_seg = vec![0u64; g.node_count()];
    for w in &stats.workers {
        for sc in &w.segment_counters {
            per_seg[sc.seg] += sc.batches;
        }
    }
    assert_eq!(per_seg, vec![rounds; g.node_count()], "{per_seg:?}");
}
