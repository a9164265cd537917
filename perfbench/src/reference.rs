//! Everything computed once per run, outside the timed region: the
//! serial oracle's digest, the DAM-model misses, and the deterministic
//! counts every job and every run must reproduce bit for bit.

use crate::probe;
use crate::workload::Workload;
use ccs_core::{Horizon, Planner};
use ccs_exec::ExecPlan;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_partition::Partition;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// Deterministic counts by metric name.
pub type Counts = BTreeMap<&'static str, f64>;

/// Bytes per stream item (`f32`).
const ITEM_BYTES: u64 = 4;

pub struct Reference {
    pub ra: RateAnalysis,
    pub partition: Partition,
    pub plan: ExecPlan,
    /// Wall time of the `ExecPlan::build` above.
    pub plan_build: Duration,
    /// Sink digest and item count of the serial oracle over a job's
    /// rounds.
    pub digest: Option<u64>,
    pub sink_items: u64,
    /// The sink digest of a job that fires nothing.
    pub empty_digest: Option<u64>,
    /// Oracle throughput: sink items over its firing-loop time.
    pub oracle_items_per_s: f64,
    /// Wall time of the DAM-model replay (`Planner::evaluate`).
    pub replay: Duration,
    pub iterations_per_round: u64,
    /// Items crossing segment boundaries per round.
    pub cross_items_per_round: u64,
    pub counts: Counts,
}

impl Reference {
    pub fn compute(w: &Workload, planner: &Planner, offset: f32) -> Result<Reference, String> {
        let g: &StreamGraph = &w.graph;
        let ra = RateAnalysis::analyze_single_io(g).map_err(|e| format!("rates: {e}"))?;
        let (partition, bandwidth, _) = planner
            .partition(g, &ra)
            .map_err(|e| format!("partition: {e}"))?;
        let t0 = Instant::now();
        let plan = ExecPlan::build(g, &ra, &partition, planner.params.capacity)
            .map_err(|e| format!("plan: {e}"))?;
        let plan_build = t0.elapsed();

        // The serial oracle: the naive executor over the two-level
        // schedule for the same number of rounds a job runs.
        let (digest, sink_items, oracle_items_per_s) = {
            let sp = planner
                .plan(g, Horizon::Rounds(w.rounds))
                .map_err(|e| format!("oracle plan: {e}"))?;
            let mut inst = probe::wrap(w.bind(g.clone()), &ra, offset, None);
            let rs = ccs_runtime::serial::execute(&mut inst, &sp.run);
            (
                rs.digest,
                rs.sink_items,
                rs.sink_items as f64 / rs.wall.as_secs_f64(),
            )
        };
        let empty_digest = probe::wrap(w.bind(g.clone()), &ra, offset, None).sink_digest();

        // The paper's metric: LRU misses per input at the workload's
        // M and B.
        let dp = planner
            .plan(g, Horizon::Rounds(w.dam_rounds))
            .map_err(|e| format!("DAM plan: {e}"))?;
        let t0 = Instant::now();
        let rep = planner
            .evaluate(g, &dp)
            .map_err(|e| format!("DAM replay: {e}"))?;
        let replay = t0.elapsed();
        let per_input = |m: u64| m as f64 / rep.inputs.max(1) as f64;

        let source = ra.source.ok_or("no unique source")?;
        let sink = ra.sink.ok_or("no unique sink")?;
        let sink_consume: u64 = g.in_edges(sink).iter().map(|&e| g.edge(e).consume).sum();
        let items_per_round = plan.quota[sink.idx()] * sink_consume;
        let cross_items_per_round: u64 = plan
            .segments
            .iter()
            .flat_map(|s| s.out_batch.iter().map(|&(_, n)| n))
            .sum();
        let cross_ring_words: u64 = g
            .edge_ids()
            .filter(|&e| {
                let edge = g.edge(e);
                plan.seg_of_node[edge.src.idx()] != plan.seg_of_node[edge.dst.idx()]
            })
            .map(|e| plan.capacities[e.idx()])
            .sum();
        let per_item = |x: u64| x as f64 / items_per_round as f64;

        let mut counts = Counts::new();
        counts.insert("sched.granularity_t", plan.t as f64);
        counts.insert("partition.segments", plan.segments.len() as f64);
        counts.insert("partition.bandwidth", bandwidth.to_f64());
        counts.insert("exec.firings_per_item", per_item(plan.firings_per_round()));
        counts.insert(
            "exec.cross_bytes_per_item",
            per_item(cross_items_per_round * ITEM_BYTES),
        );
        counts.insert(
            "exec.arena_words",
            plan.fused.iter().map(|f| f.arena_len as f64).sum(),
        );
        counts.insert("exec.cross_ring_words", cross_ring_words as f64);
        counts.insert("dam_misses_per_input", rep.misses_per_input());
        counts.insert(
            "cachesim.state_misses_per_input",
            per_input(rep.state_misses.iter().sum()),
        );
        counts.insert(
            "cachesim.buffer_misses_per_input",
            per_input(rep.buffer_misses.iter().sum()),
        );

        Ok(Reference {
            iterations_per_round: plan.quota[source.idx()] / ra.q(source),
            cross_items_per_round,
            ra,
            partition,
            plan,
            plan_build,
            digest,
            sink_items,
            empty_digest,
            oracle_items_per_s,
            replay,
            counts,
        })
    }

    /// The deterministic counts a job reproduces, checked against the
    /// reference's; the first mismatch is the error.
    pub fn check_job(
        &self,
        t: u64,
        segments: usize,
        bandwidth: f64,
        firings: u64,
        items: u64,
    ) -> Result<(), String> {
        let seen = [
            ("sched.granularity_t", t as f64),
            ("partition.segments", segments as f64),
            ("partition.bandwidth", bandwidth),
            ("exec.firings_per_item", firings as f64 / items as f64),
        ];
        for (name, value) in seen {
            let want = self.counts[name];
            if value.to_bits() != want.to_bits() {
                return Err(format!(
                    "deterministic count {name} changed between repeats: {want} then {value}"
                ));
            }
        }
        Ok(())
    }
}

/// The largest module state of any segment, in words.
pub fn max_segment_state_words(plan: &ExecPlan) -> u64 {
    plan.segments
        .iter()
        .map(|s| s.state_words)
        .max()
        .unwrap_or(0)
}

/// FNV-1a over `bytes`: identifies the benchmark executable, so counts
/// are only compared between runs of the same build.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Check `counts` against those an earlier run of the same executable
/// recorded under `dir` for the same workload and seed, or record them
/// if this is the first such run. Values compare bit for bit.
pub fn guard_across_runs(dir: &Path, key: &str, counts: &Counts) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let build = fnv1a(&std::fs::read(&exe).map_err(|e| format!("read {exe:?}: {e}"))?);
    let path = dir.join(format!("{key}-{build:016x}.txt"));
    let text: String = counts
        .iter()
        .map(|(name, v)| format!("{name} {:016x} {v}\n", v.to_bits()))
        .collect();
    match std::fs::read_to_string(&path) {
        Ok(before) if before == text => Ok(()),
        Ok(before) => {
            let old: Vec<&str> = before.lines().collect();
            let new: Vec<&str> = text.lines().collect();
            let diff: Vec<String> = new
                .iter()
                .filter(|l| !old.contains(l))
                .map(|l| l.to_string())
                .collect();
            Err(format!(
                "deterministic counts differ from an earlier run at the same seed \
                 ({}): now {}",
                path.display(),
                diff.join("; ")
            ))
        }
        Err(_) => {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}
