//! Batch-executor digest equivalence: the fused batch path changes how
//! a batch executes — bulk ring ops, a flat per-segment arena, software
//! prefetch — never what it computes. For every app, partitioner,
//! worker count, and warmup mode, the digest must be bit-identical to
//! the serial oracle's; the serial fused executor must agree too.

use ccs_exec::{execute_dag_cfg, execute_serial_fused, RunConfig, WarmupMode};
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::{dag_greedy, multilevel, Partition};
use ccs_runtime::serial::{ObsConfig, RunStats};
use ccs_runtime::Instance;
use ccs_sched::partitioned;

/// The serial oracle's run of `rounds` granularity-T rounds.
fn oracle(g: &StreamGraph, ra: &RateAnalysis, p: &Partition, m: u64, rounds: u64) -> RunStats {
    let run = partitioned::inhomogeneous(g, ra, p, m, rounds).expect("serial reference schedule");
    let mut inst = Instance::synthetic(g.clone());
    let stats = ccs_runtime::serial::execute(&mut inst, &run);
    assert!(stats.digest.is_some(), "sink must accumulate a digest");
    stats
}

/// Two partitioners per graph, as in equivalence.rs — fusion has to
/// hold on whatever segment shapes the partitioners produce, not just
/// friendly ones.
fn partitions(g: &StreamGraph, ra: &RateAnalysis, bound: u64) -> Vec<(&'static str, Partition)> {
    vec![
        ("dag-greedy", dag_greedy::greedy_best(g, ra, bound)),
        (
            "multilevel",
            multilevel::multilevel(g, ra, bound, &multilevel::MultilevelCfg::default()),
        ),
    ]
}

fn check_app(name: &str, g: StreamGraph, m: u64, rounds: u64) {
    let ra = RateAnalysis::analyze_single_io(&g).unwrap_or_else(|e| panic!("{name}: {e}"));
    let bound = m.max(g.max_state());
    for (pname, p) in partitions(&g, &ra, bound) {
        let want = oracle(&g, &ra, &p, m, rounds);

        // Serial fused leg: same firings, same order, one thread.
        let inst = Instance::synthetic(g.clone());
        let (stats, _) = execute_serial_fused(inst, &ra, &p, m, rounds, &ObsConfig::default())
            .unwrap_or_else(|e| panic!("{name}/{pname}: serial fused: {e}"));
        assert_eq!(
            stats.digest, want.digest,
            "{name}/{pname}: serial fused diverged"
        );

        // Parallel legs across worker counts and warmup modes, each
        // checked against the oracle's digest and sink accounting.
        for mode in [WarmupMode::Epoch, WarmupMode::PerWorker] {
            for workers in [1usize, 2, 4] {
                let cfg = RunConfig::new(workers)
                    .with_warmup(1)
                    .with_warmup_mode(mode);
                let fused =
                    execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, rounds, &cfg)
                        .unwrap_or_else(|e| {
                            panic!("{name}/{pname}: fused {mode:?} x{workers}: {e}")
                        });
                assert_eq!(
                    fused.run.digest, want.digest,
                    "{name}/{pname}: fused diverged from the oracle at {mode:?} x{workers}"
                );
                assert_eq!(
                    fused.run.sink_items, want.sink_items,
                    "{name}/{pname}: sink accounting moved at {mode:?} x{workers}"
                );
            }
        }
    }
}

#[test]
fn fm_radio_fused_matches_serial() {
    check_app("fm-radio", ccs_apps::fm_radio(8), 512, 2);
}

#[test]
fn beamformer_fused_matches_serial() {
    check_app("beamformer", ccs_apps::beamformer(4, 4), 256, 2);
}

#[test]
fn filterbank_fused_matches_serial() {
    check_app("filterbank", ccs_apps::filterbank(8), 512, 2);
}

#[test]
fn fft_fused_matches_serial() {
    check_app("fft", ccs_apps::fft(4), 256, 2);
}

#[test]
fn fir_bound_kernels_fused_match_serial() {
    // Real FIR kernels instead of the synthetic binding: the arena
    // spans feed the same kernel `fire` interface, so real state and
    // real peek windows must digest identically too.
    let g = ccs_apps::fm_radio(4);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let bound = 512u64.max(g.max_state());
    let p = dag_greedy::greedy_best(&g, &ra, bound);
    let run = partitioned::inhomogeneous(&g, &ra, &p, 512, 2).unwrap();
    let mut serial_inst = ccs_apps::fir_instance(g.clone());
    let want = ccs_runtime::serial::execute(&mut serial_inst, &run).digest;
    let (stats, _) = execute_serial_fused(
        ccs_apps::fir_instance(g.clone()),
        &ra,
        &p,
        512,
        2,
        &ObsConfig::default(),
    )
    .unwrap();
    assert_eq!(stats.digest, want, "serial fused");
    for workers in [1usize, 2, 4] {
        let cfg = RunConfig::new(workers);
        let stats =
            execute_dag_cfg(ccs_apps::fir_instance(g.clone()), &ra, &p, 512, 2, &cfg).unwrap();
        assert_eq!(stats.run.digest, want, "workers {workers}");
    }
}

#[test]
fn wide_ports_take_the_heap_view_fallback() {
    // The fused loop builds port views in stack arrays of 8 per side and
    // falls back to heap vectors above that. A 9-in/9-out node (and the
    // 9-input sink) exercise the fallback, with rate changes on both
    // sides of the wide node: src -> a_i -(1/1)-> w -(2/1)-> b_i -(1/2)-> snk.
    let mut b = ccs_graph::GraphBuilder::new();
    let src = b.node("src", 8);
    let w = b.node("w", 32);
    let snk = b.node("snk", 8);
    for i in 0..9 {
        let a = b.node(format!("a{i}"), 16);
        let out = b.node(format!("b{i}"), 16);
        b.edge(src, a, 1, 1);
        b.edge(a, w, 1, 1);
        b.edge(w, out, 2, 1);
        b.edge(out, snk, 1, 2);
    }
    let g = b.build().unwrap();
    assert_eq!((g.in_edges(w).len(), g.out_edges(w).len()), (9, 9));
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let m = 64;
    for (pname, p) in [
        ("whole", Partition::whole(&g)),
        ("dag-greedy", dag_greedy::greedy_topo(&g, 96)),
    ] {
        let want = oracle(&g, &ra, &p, m, 3).digest;
        let (stats, _) = execute_serial_fused(
            Instance::synthetic(g.clone()),
            &ra,
            &p,
            m,
            3,
            &ObsConfig::default(),
        )
        .unwrap();
        assert_eq!(stats.digest, want, "{pname}: serial fused");
        for workers in [1usize, 2] {
            let cfg = RunConfig::new(workers);
            let stats =
                execute_dag_cfg(Instance::synthetic(g.clone()), &ra, &p, m, 3, &cfg).unwrap();
            assert_eq!(stats.run.digest, want, "{pname}: fused x{workers}");
        }
    }
}
