//! Beamformer: dag partitioning and the parallel dynamic schedule.
//!
//! Partitions the (homogeneous) beamformer dag with the exact and
//! heuristic partitioners, prints the contracted structure, evaluates the
//! partitioned schedule in the DAM model, and runs it on the multicore
//! batch executor with 1, 2, and 4 worker threads — verifying that every
//! configuration produces the bit-identical output stream.
//!
//! ```sh
//! cargo run --release --example beamformer_dag
//! ```

use cache_conscious_streaming::apps;
use cache_conscious_streaming::partition::{dag_greedy, dag_local};
use cache_conscious_streaming::prelude::*;
use cache_conscious_streaming::runtime;

fn main() {
    let graph = apps::beamformer(4, 4);
    let ra = RateAnalysis::analyze_single_io(&graph).unwrap();
    println!(
        "beamformer: {} modules, {} channels of state totalling {} words",
        graph.node_count(),
        graph.edge_count(),
        graph.total_state()
    );

    let params = CacheParams::new(512, 16);
    let bound = params.capacity / 2;

    // Heuristic partition: greedy + refinement.
    let p0 = dag_greedy::greedy_best(&graph, &ra, bound);
    let p = dag_local::refine(&graph, &ra, bound, &p0, 16);
    println!(
        "heuristic partition: {} components, bandwidth {} (greedy was {})",
        p.num_components(),
        p.bandwidth(&graph, &ra),
        p0.bandwidth(&graph, &ra),
    );
    for (i, comp) in p.components().iter().enumerate() {
        let names: Vec<&str> = comp.iter().map(|&v| graph.node(v).name.as_str()).collect();
        println!("  component {i}: {}", names.join(", "));
    }

    // DAM-model evaluation via the planner.
    let planner = Planner::new(params);
    let plan = planner.plan(&graph, Horizon::Rounds(4)).unwrap();
    let report = planner.evaluate(&graph, &plan).unwrap();
    println!(
        "partitioned schedule ({}): {} misses / {} outputs = {:.4} misses/output",
        plan.strategy_used,
        report.stats.misses,
        report.outputs,
        report.stats.misses as f64 / report.outputs.max(1) as f64
    );

    // Multicore execution with digest verification.
    println!("multicore batch executor (real kernels):");
    let m_items = 256u64;
    let rounds = 64u64;
    let mut baseline_digest = None;
    for threads in [1usize, 2, 4] {
        let inst = runtime::Instance::synthetic(graph.clone());
        let stats = execute_dag(
            inst,
            &ra,
            &p,
            m_items,
            rounds,
            threads,
            Placement::CommGreedy,
        )
        .expect("partition is well ordered")
        .run;
        println!(
            "  {} thread(s): {:>8.2?} for {} sink items (digest {:016x})",
            threads,
            stats.wall,
            stats.sink_items,
            stats.digest.unwrap_or(0)
        );
        match baseline_digest {
            None => baseline_digest = Some(stats.digest),
            Some(d) => assert_eq!(d, stats.digest, "thread-count must not change output"),
        }
    }
    println!("  digests identical across thread counts");
}
