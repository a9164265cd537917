//! E11 — §3 extension: the partitioned schedule on parallel workers.
//!
//! The paper observes that the partitioned schedule generalizes to a
//! parallel dynamic one: any component whose inputs hold a batch and
//! whose outputs have room for one may run. The harness runs the
//! multicore batch executor (`ccs_exec::execute_dag`, which applies that
//! §3 gate to segment-affine workers) across thread counts, reporting
//! throughput and verifying that the output stream is bit-identical in
//! every configuration (SDF determinism).

use ccs_bench::{f, Table};
use ccs_core::prelude::*;
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_partition::dag_greedy;
use ccs_runtime::Instance;

fn main() {
    let mut table = Table::new(
        "E11: parallel dynamic schedule (real execution)",
        &["workload", "threads", "wall ms", "items/s (M)", "digest"],
    );

    let workloads: Vec<(&str, StreamGraph)> = vec![
        ("beamformer(4,4)", ccs_apps::beamformer(4, 4)),
        ("pipeline(16x128w)", gen::pipeline_uniform(16, 128)),
        (
            "layered-dag",
            gen::layered(
                &LayeredCfg {
                    layers: 6,
                    max_width: 4,
                    density: 0.3,
                    state: StateDist::Uniform(64, 256),
                    max_q: 1,
                },
                3,
            ),
        ),
    ];

    let m_items = 4096u64;
    let rounds = 24u64;
    for (name, g) in workloads {
        let ra = RateAnalysis::analyze_single_io(&g).expect("single-io workload");
        let p = dag_greedy::greedy_topo(&g, 1024.max(g.max_state()));
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let inst = Instance::synthetic(g.clone());
            let stats = execute_dag(
                inst,
                &ra,
                &p,
                m_items,
                rounds,
                threads,
                Placement::RoundRobin,
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .run;
            let items = stats.sink_items.max(1) as f64;
            let throughput = items / stats.wall.as_secs_f64() / 1e6;
            match reference {
                None => reference = Some(stats.digest),
                Some(d) => assert_eq!(
                    d, stats.digest,
                    "{name}: digest changed with {threads} threads"
                ),
            }
            table.row(vec![
                name.to_string(),
                threads.to_string(),
                f(stats.wall.as_secs_f64() * 1e3),
                f(throughput),
                format!("{:016x}", stats.digest.unwrap_or(0)),
            ]);
        }
    }

    table.print();
    println!("shape check: digests are identical across thread counts (deterministic");
    println!("parallel execution); throughput does not collapse as threads increase.");
    let path = table.save_csv("e11_parallel_runtime").unwrap();
    println!("csv: {}", path.display());
}
