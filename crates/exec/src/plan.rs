//! Compile a partition into an executable batch plan.
//!
//! One *batch* of a segment is one granularity-`T` round restricted to
//! that segment: node `v` fires `T·gain(v)` times, consuming and
//! producing exactly `T·gain(e)` items on every incident cross edge. The
//! local firing order is fixed at plan time by the same
//! deepest-fireable-first dry run the serial `inhomogeneous` scheduler
//! uses, which also yields exact internal-buffer highwater marks, and
//! compiled into the segment's [`FiringPlan`]. Both the dry run and the
//! compile are linear in the batch's firings.

use ccs_graph::{EdgeId, NodeId, RateAnalysis, StreamGraph};
use ccs_partition::{compile_firing_plan, ComponentId, FiringPlan, Partition};
use ccs_sched::partitioned::{granularity_t, PartSchedError};
use std::fmt;

/// Errors from plan construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagExecError {
    /// The partition is not well ordered (no contracted topological
    /// order exists), so segments cannot be batch-scheduled.
    NotWellOrdered,
    /// The graph has no unique source or the rate analysis does not
    /// match the graph.
    BadRates,
    /// Granularity or capacity arithmetic overflowed.
    Overflow,
    /// The per-segment dry run wedged (internal-buffer sizing bug).
    Deadlock { segment: usize },
    /// Adaptive control was requested without counter windows: the
    /// controller's only input is the per-worker window stream, so
    /// `RunConfig::adapt` requires `RunConfig::window_batches > 0`.
    AdaptNeedsWindows,
    /// A forced migration names a segment or worker outside the run.
    MigrationTarget {
        /// Segment the migration names.
        seg: usize,
        /// Destination worker the migration names.
        to_worker: usize,
        /// Workers actually in the run.
        workers: usize,
    },
    /// A forced migration fires inside the warmup window, where the
    /// epoch reset protocol assumes a static segment→worker map.
    MigrationDuringWarmup {
        /// Segment the migration names.
        seg: usize,
        /// Batch boundary the migration was scheduled at.
        after_batches: u64,
        /// The effective warmup window it falls inside.
        warmup: u64,
    },
}

impl fmt::Display for DagExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagExecError::NotWellOrdered => {
                write!(f, "partition is not well ordered")
            }
            DagExecError::BadRates => {
                write!(f, "rate analysis does not fit the graph")
            }
            DagExecError::Overflow => write!(f, "capacity arithmetic overflow"),
            DagExecError::Deadlock { segment } => {
                write!(f, "dry-run deadlock in segment {segment}")
            }
            DagExecError::AdaptNeedsWindows => {
                write!(
                    f,
                    "adaptive control requires counter windows (set window_batches > 0)"
                )
            }
            DagExecError::MigrationTarget {
                seg,
                to_worker,
                workers,
            } => {
                write!(
                    f,
                    "migration of segment {seg} targets worker {to_worker}, \
                     but the run has {workers} workers"
                )
            }
            DagExecError::MigrationDuringWarmup {
                seg,
                after_batches,
                warmup,
            } => {
                write!(
                    f,
                    "migration of segment {seg} at batch {after_batches} falls \
                     inside the warmup window ({warmup} batches)"
                )
            }
        }
    }
}

impl std::error::Error for DagExecError {}

impl From<PartSchedError> for DagExecError {
    fn from(e: PartSchedError) -> Self {
        match e {
            PartSchedError::InvalidPartition => DagExecError::NotWellOrdered,
            PartSchedError::Overflow => DagExecError::Overflow,
            PartSchedError::Deadlock { component } => DagExecError::Deadlock {
                segment: component as usize,
            },
            PartSchedError::NotHomogeneous | PartSchedError::NotAPipeline => DagExecError::BadRates,
        }
    }
}

/// One segment's executable plan.
#[derive(Clone, Debug)]
pub struct SegmentPlan {
    /// The original component id this segment was built from.
    pub component: ComponentId,
    /// Segment nodes in intra-segment topological order.
    pub nodes: Vec<NodeId>,
    /// Cross edges feeding this segment, with items consumed per batch.
    pub in_batch: Vec<(EdgeId, u64)>,
    /// Cross edges leaving this segment, with items produced per batch.
    pub out_batch: Vec<(EdgeId, u64)>,
    /// Total module state of the segment, in words.
    pub state_words: u64,
}

/// A complete executable plan for a partitioned dag.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    /// The §3 granularity `T` (source firings per batch).
    pub t: u64,
    /// Firings of each node per batch: `quota[v] = T·gain(v)`.
    pub quota: Vec<u64>,
    /// Segments in contracted topological order.
    pub segments: Vec<SegmentPlan>,
    /// Ring capacity per edge: `2·T·gain(e)` for cross edges
    /// (double-buffered), the dry-run highwater for internal edges.
    /// The executor sizes only cross rings from this; internal streams
    /// live in the segment arenas.
    pub capacities: Vec<u64>,
    /// Segment index (position in `segments`) of each node.
    pub seg_of_node: Vec<usize>,
    /// Per-segment compiled batches (same order as `segments`): the
    /// only record of each batch's firing sequence, as local indices
    /// into `SegmentPlan::nodes`, plus its port spans in a flat scratch
    /// arena for the `RunConfig::fused` hot path. Always built: one
    /// `u32` per firing, compiled in time linear in the firings, and
    /// replayed against the FIFO occupancy invariant on the way.
    pub fused: Vec<FiringPlan>,
}

impl ExecPlan {
    /// Total firings across all nodes in one batch of every segment.
    pub fn firings_per_round(&self) -> u64 {
        self.quota.iter().sum()
    }

    /// Build a plan: granularity, per-segment batch schedules, and ring
    /// capacities. `m_items` is the cache size `M` in items; the
    /// granularity guarantees every cross-edge batch holds at least
    /// `m_items` items.
    pub fn build(
        g: &StreamGraph,
        ra: &RateAnalysis,
        p: &Partition,
        m_items: u64,
    ) -> Result<ExecPlan, DagExecError> {
        if ra.repetitions.len() != g.node_count() || p.assignment().len() != g.node_count() {
            return Err(DagExecError::BadRates);
        }
        let source = ra.source.ok_or(DagExecError::BadRates)?;
        let comp_order = p
            .topo_order_components(g)
            .ok_or(DagExecError::NotWellOrdered)?;

        let t = granularity_t(g, ra, m_items)?;

        // quota[v] = T·gain(v) = T·q(v)/q(source): integral by the
        // construction of T.
        let qs = ra.q(source) as u128;
        let mut quota = Vec::with_capacity(g.node_count());
        for &qv in &ra.repetitions {
            let num = t as u128 * qv as u128;
            if !num.is_multiple_of(qs) {
                return Err(DagExecError::Overflow);
            }
            quota.push(u64::try_from(num / qs).map_err(|_| DagExecError::Overflow)?);
        }

        // Nodes of each segment in topological order, segments in
        // contracted topological order.
        let rank = ccs_graph::topo::topo_rank(g);
        let mut by_comp = p.components();
        for c in &mut by_comp {
            c.sort_by_key(|v| rank[v.idx()]);
        }
        let mut seg_of_comp = vec![usize::MAX; p.num_components()];
        for (i, &c) in comp_order.iter().enumerate() {
            seg_of_comp[c as usize] = i;
        }
        let mut seg_of_node = vec![usize::MAX; g.node_count()];
        for v in g.node_ids() {
            seg_of_node[v.idx()] = seg_of_comp[p.component_of(v) as usize];
        }

        // Dry-run one global round, segment by segment in contracted
        // topological order, with unbounded buffers — the same
        // deepest-fireable-first rule as the serial `inhomogeneous`
        // scheduler, via its shared helper. Records each segment's
        // local firing sequence and the exact internal occupancy
        // highwater. Cross inputs are full (upstream segments ran
        // earlier in the round), so the recorded sequence is legal at
        // runtime whenever the gating rule admits the batch. Each
        // sequence is compiled into its `FiringPlan` at once, so only
        // one segment's `NodeId` sequence is ever alive; since the dry
        // run proved it legal, a compile failure can only be
        // arena-arithmetic overflow.
        let mut occupancy = vec![0u64; g.edge_count()];
        let mut highwater = vec![0u64; g.edge_count()];
        let mut segments = Vec::with_capacity(comp_order.len());
        let mut fused = Vec::with_capacity(comp_order.len());
        for (si, &c) in comp_order.iter().enumerate() {
            let nodes = std::mem::take(&mut by_comp[c as usize]);
            let firings = ccs_sched::partitioned::component_round_schedule(
                g,
                &rank,
                &quota,
                &nodes,
                None,
                &mut occupancy,
                &mut highwater,
            )
            .ok_or(DagExecError::Deadlock { segment: si })?;
            fused.push(
                compile_firing_plan(g, &quota, &nodes, &firings).ok_or(DagExecError::Overflow)?,
            );

            let mut in_batch = Vec::new();
            let mut out_batch = Vec::new();
            for &v in &nodes {
                for &e in g.in_edges(v) {
                    if seg_of_node[g.edge(e).src.idx()] != si {
                        let n = quota[v.idx()]
                            .checked_mul(g.edge(e).consume)
                            .ok_or(DagExecError::Overflow)?;
                        in_batch.push((e, n));
                    }
                }
                for &e in g.out_edges(v) {
                    if seg_of_node[g.edge(e).dst.idx()] != si {
                        let n = quota[v.idx()]
                            .checked_mul(g.edge(e).produce)
                            .ok_or(DagExecError::Overflow)?;
                        out_batch.push((e, n));
                    }
                }
            }
            let state_words = g.state_of(&nodes);
            segments.push(SegmentPlan {
                component: c,
                nodes,
                in_batch,
                out_batch,
                state_words,
            });
        }
        debug_assert!(
            occupancy.iter().all(|&o| o == 0),
            "a full round must return every channel to empty"
        );

        // Ring capacities: cross edges are double-buffered (two batches),
        // internal edges take their dry-run highwater.
        let mut capacities = Vec::with_capacity(g.edge_count());
        for e in g.edge_ids() {
            let edge = g.edge(e);
            if seg_of_node[edge.src.idx()] == seg_of_node[edge.dst.idx()] {
                capacities.push(highwater[e.idx()].max(edge.produce).max(edge.consume));
            } else {
                let batch = quota[edge.src.idx()]
                    .checked_mul(edge.produce)
                    .ok_or(DagExecError::Overflow)?;
                capacities.push(batch.checked_mul(2).ok_or(DagExecError::Overflow)?);
            }
        }

        Ok(ExecPlan {
            t,
            quota,
            segments,
            capacities,
            seg_of_node,
            fused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, StateDist};
    use ccs_partition::dag_greedy;

    fn layered(seed: u64) -> ccs_graph::StreamGraph {
        gen::layered(
            &LayeredCfg {
                layers: 4,
                max_width: 3,
                density: 0.3,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
            },
            seed,
        )
    }

    #[test]
    fn batch_is_one_granularity_round() {
        for seed in 0..6u64 {
            let g = layered(seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 96);
            let plan = ExecPlan::build(&g, &ra, &p, 48).unwrap();
            // Per batch, node v fires T·gain(v) times.
            for (seg, fp) in plan.segments.iter().zip(&plan.fused) {
                for (i, &v) in seg.nodes.iter().enumerate() {
                    let fired = fp.order().iter().filter(|&&w| w as usize == i).count() as u64;
                    assert_eq!(fired, plan.quota[v.idx()], "seed {seed}");
                }
            }
            // Cross batches carry T·gain(e) >= m items and capacities
            // double-buffer them.
            for seg in &plan.segments {
                for &(e, n) in seg.in_batch.iter().chain(&seg.out_batch) {
                    assert!(n >= 48, "seed {seed}: batch {n} < m");
                    assert_eq!(plan.capacities[e.idx()], 2 * n);
                }
            }
        }
    }

    #[test]
    fn in_and_out_batches_are_consistent() {
        let g = layered(3);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 96);
        let plan = ExecPlan::build(&g, &ra, &p, 48).unwrap();
        // Every cross edge appears exactly once as an output batch and
        // once as an input batch, with equal item counts.
        let mut outs = std::collections::HashMap::new();
        for seg in &plan.segments {
            for &(e, n) in &seg.out_batch {
                assert!(outs.insert(e, n).is_none());
            }
        }
        let mut seen = 0;
        for seg in &plan.segments {
            for &(e, n) in &seg.in_batch {
                assert_eq!(outs.get(&e), Some(&n));
                seen += 1;
            }
        }
        assert_eq!(seen, outs.len());
    }

    #[test]
    fn rejects_non_well_ordered() {
        let mut b = ccs_graph::GraphBuilder::new();
        let v: Vec<_> = (0..4).map(|i| b.node(format!("v{i}"), 4)).collect();
        for w in v.windows(2) {
            b.edge(w[0], w[1], 1, 1);
        }
        let g = b.build().unwrap();
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert_eq!(
            ExecPlan::build(&g, &ra, &p, 8).unwrap_err(),
            DagExecError::NotWellOrdered
        );
    }

    #[test]
    fn whole_partition_is_one_segment() {
        let g = layered(0);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::whole(&g);
        let plan = ExecPlan::build(&g, &ra, &p, 32).unwrap();
        assert_eq!(plan.segments.len(), 1);
        assert!(plan.segments[0].in_batch.is_empty());
        assert!(plan.segments[0].out_batch.is_empty());
        assert_eq!(plan.firings_per_round(), plan.fused[0].order().len() as u64);
    }
}
