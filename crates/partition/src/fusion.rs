//! Module fusion: materialize a partition as a coarser streaming graph.
//!
//! The paper observes (§6) that the module-fusion heuristic of Sermulins
//! et al. "can be viewed as a special case of our partitioning method".
//! This module makes the connection executable: given a well-ordered
//! partition, [`fuse`] contracts every component into a single module
//! using SDF clustering — the fused module fires `gcd{q(v)}` times per
//! steady state with endpoint rates scaled by `q(v)/gcd`, preserving
//! rate-matching and per-iteration traffic exactly.
//!
//! Downstream, a fused graph can be scheduled by *any* scheduler: fusing
//! and then running the plain single-appearance schedule approximates the
//! partitioned scheduler's state locality without a two-level runtime.
//!
//! [`compile_firing_plan`] goes one step further and makes fusion an
//! *executor* concern: it compiles one segment's batch — a topologically
//! legal firing sequence with per-node quotas — into a [`FiringPlan`]
//! whose firings read and write spans of a single flat scratch arena,
//! each derived as `base + k·rate` from a per-port table, so the plan
//! costs one `u32` per firing. Intra-segment edges become plain offset
//! arithmetic (no ring, no copy); only segment-boundary edges surface
//! as bulk [`BoundaryIo`] transfers, once per batch.

use crate::types::Partition;
use ccs_graph::ratio::gcd_u64;
use ccs_graph::{EdgeId, GraphBuilder, NodeId, RateAnalysis, StreamGraph};

/// The fused graph and its bookkeeping.
#[derive(Clone, Debug)]
pub struct FusedGraph {
    pub graph: StreamGraph,
    /// fine node -> fused node.
    pub node_map: Vec<u32>,
    /// fused node -> firing multiplier of each fine member per fused
    /// firing is `q(v)/q_component`; this records `q_component` itself.
    pub component_q: Vec<u64>,
}

/// Fuse each component of `p` into one module. Requires `p` well ordered
/// (otherwise the contracted graph has cycles and this returns `None`).
pub fn fuse(g: &StreamGraph, ra: &RateAnalysis, p: &Partition) -> Option<FusedGraph> {
    if !p.is_well_ordered(g) {
        return None;
    }
    let comps = p.components();
    let mut component_q = Vec::with_capacity(comps.len());
    let mut b = GraphBuilder::new();
    for comp in &comps {
        let q_c = comp.iter().map(|&v| ra.q(v)).fold(0u64, gcd_u64).max(1);
        component_q.push(q_c);
        let name = comp
            .iter()
            .map(|&v| g.node(v).name.as_str())
            .collect::<Vec<_>>()
            .join("+");
        b.node(name, g.state_of(comp));
    }
    let node_map: Vec<u32> = g.node_ids().map(|v| p.component_of(v)).collect();
    for e in g.edge_ids() {
        let edge = g.edge(e);
        let (cu, cv) = (p.component_of(edge.src), p.component_of(edge.dst));
        if cu == cv {
            continue; // fused away
        }
        // One fused firing of C(u) performs q(u)/q_C(u) firings of u.
        let fu = ra.q(edge.src) / component_q[cu as usize];
        let fv = ra.q(edge.dst) / component_q[cv as usize];
        b.edge(NodeId(cu), NodeId(cv), edge.produce * fu, edge.consume * fv);
    }
    let graph = b.build().ok()?;
    Some(FusedGraph {
        graph,
        node_map,
        component_q,
    })
}

/// One port of a segment member in the arena: where the port's stream
/// region starts and how many items one firing moves through it (both
/// in `f32` items). The k-th firing of the member touches
/// `[base + k·rate, base + (k+1)·rate)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PortSpan {
    pub base: usize,
    pub rate: usize,
}

/// Where one member's ports sit in [`FiringPlan::ports`]: `inputs`
/// entries from `start` in `in_edges` order, then `outputs` entries in
/// `out_edges` order — the serial oracle's scratch layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodePorts {
    pub start: u32,
    pub inputs: u32,
    pub outputs: u32,
}

impl NodePorts {
    /// The member's slice of the port table, inputs first.
    #[inline]
    pub fn range(self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.inputs as usize + self.outputs as usize
    }
}

/// A batch-boundary ring transfer: which cross edge, where its stream
/// region starts in the arena, and how many items one batch moves.
#[derive(Clone, Copy, Debug)]
pub struct BoundaryIo {
    pub edge: EdgeId,
    pub offset: usize,
    pub items: usize,
}

/// One segment's batch, compiled for fused execution.
///
/// Arena layout: every edge incident to the segment owns one contiguous
/// *stream region* holding all items that edge carries in one batch.
/// The k-th firing of producer `u` writes items `[k·produce(e),
/// (k+1)·produce(e))` of `e`'s region; the j-th firing of consumer `v`
/// reads `[j·consume(e), (j+1)·consume(e))`. Because the firing
/// sequence is a legal SDF schedule (validated at compile time by
/// replaying it against the occupancy invariant), every read lands on
/// items already written — the region is a FIFO laid out flat. Regions
/// are pairwise disjoint by construction and a node never has the same
/// edge on both sides (the graph is a dag), so one firing's port spans
/// never alias.
///
/// The plan is linear in the firings with a small constant: one `u32`
/// per firing (`order`), plus one [`PortSpan`] per member port and one
/// [`NodePorts`] per member. An executor derives each firing's spans
/// with one cursor per port, reset to `base` at batch start and
/// advanced by `rate` after every firing of its member.
///
/// The arena carries no state across batches: a full batch returns
/// every internal stream to empty, so the arena (and the whole
/// `FiringPlan`) migrates between workers with its segment, with no
/// handoff protocol beyond moving the buffer.
///
/// Only [`compile_firing_plan`] builds one, so the firing order, the
/// port table and the layout stay consistent: executors may derive raw
/// arena views from them.
#[derive(Clone, Debug)]
pub struct FiringPlan {
    /// Arena length in `f32` items.
    pub arena_len: usize,
    order: Vec<u32>,
    node_ports: Vec<NodePorts>,
    ports: Vec<PortSpan>,
    /// Cross inputs: bulk ring→arena copies to run before the firings.
    pub loads: Vec<BoundaryIo>,
    /// Cross outputs: bulk arena→ring copies to run after the firings.
    pub stores: Vec<BoundaryIo>,
}

impl FiringPlan {
    /// The batch's firings, in schedule order, as indices into the
    /// segment's node list.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Per member (same order as the segment's node list): its slice of
    /// [`FiringPlan::ports`].
    pub fn node_ports(&self) -> &[NodePorts] {
        &self.node_ports
    }

    /// Every member's ports, member by member, inputs before outputs,
    /// each at its region base.
    pub fn ports(&self) -> &[PortSpan] {
        &self.ports
    }
}

/// Compile one segment's batch into a [`FiringPlan`].
///
/// `nodes` are the segment's members, `quota[v]` is how often node `v`
/// fires per batch, and `firings` is the batch's firing sequence (every
/// member exactly `quota` times, in an order that is legal with all
/// cross inputs pre-loaded). Returns `None` if the sequence fires a
/// non-member, misses a quota, overflows arena arithmetic, or is not a
/// legal schedule — i.e. some firing would read items not yet written.
pub fn compile_firing_plan(
    g: &StreamGraph,
    quota: &[u64],
    nodes: &[NodeId],
    firings: &[NodeId],
) -> Option<FiringPlan> {
    let mut member = vec![false; g.node_count()];
    let mut local_of = vec![u32::MAX; g.node_count()];
    for (i, &v) in nodes.iter().enumerate() {
        member[v.idx()] = true;
        local_of[v.idx()] = u32::try_from(i).ok()?;
    }

    // One stream region per incident edge, in deterministic order:
    // node order, in-edges first (covers internal edges exactly once,
    // at their consumer), then boundary out-edges. A region holds the
    // whole batch, `quota·rate` items, so `base + k·rate` stays inside
    // it for every `k < quota`: this one check bounds every span the
    // firings below can touch.
    fn place(
        region: &mut [usize],
        arena_len: &mut usize,
        e: EdgeId,
        items: u64,
    ) -> Option<BoundaryIo> {
        let items = usize::try_from(items).ok()?;
        let offset = *arena_len;
        region[e.idx()] = offset;
        *arena_len = arena_len.checked_add(items)?;
        Some(BoundaryIo {
            edge: e,
            offset,
            items,
        })
    }
    let mut region = vec![usize::MAX; g.edge_count()];
    let mut arena_len = 0usize;
    let mut loads = Vec::new();
    let mut stores = Vec::new();
    for &v in nodes {
        for &e in g.in_edges(v) {
            let edge = g.edge(e);
            let items = quota[v.idx()].checked_mul(edge.consume)?;
            if member[edge.src.idx()] {
                // Internal: one batch is rate-matched end to end.
                let produced = quota[edge.src.idx()].checked_mul(edge.produce)?;
                if produced != items {
                    return None;
                }
                place(&mut region, &mut arena_len, e, items)?;
            } else {
                loads.push(place(&mut region, &mut arena_len, e, items)?);
            }
        }
        for &e in g.out_edges(v) {
            let edge = g.edge(e);
            if !member[edge.dst.idx()] {
                let items = quota[v.idx()].checked_mul(edge.produce)?;
                stores.push(place(&mut region, &mut arena_len, e, items)?);
            }
        }
    }

    // The port table: every member's regions and per-firing rates. For
    // the replay, also note each input port's *writer*: the producer's
    // output port on an internal edge, `LOADED` on a cross edge (whose
    // whole batch is in the arena before the first firing) and on every
    // output port.
    const LOADED: usize = usize::MAX;
    let mut node_ports = Vec::with_capacity(nodes.len());
    let mut ports = Vec::new();
    let mut port_edge = Vec::new();
    let mut writer_of = vec![LOADED; g.edge_count()];
    for &v in nodes {
        let (ins, outs) = (g.in_edges(v), g.out_edges(v));
        node_ports.push(NodePorts {
            start: u32::try_from(ports.len()).ok()?,
            inputs: u32::try_from(ins.len()).ok()?,
            outputs: u32::try_from(outs.len()).ok()?,
        });
        for &e in ins {
            port_edge.push(Some(e));
            ports.push(PortSpan {
                base: region[e.idx()],
                rate: usize::try_from(g.edge(e).consume).ok()?,
            });
        }
        for &e in outs {
            if member[g.edge(e).dst.idx()] {
                writer_of[e.idx()] = ports.len();
            }
            port_edge.push(None);
            ports.push(PortSpan {
                base: region[e.idx()],
                rate: usize::try_from(g.edge(e).produce).ok()?,
            });
        }
    }
    let writer: Vec<usize> = port_edge
        .iter()
        .map(|e| e.map_or(LOADED, |e| writer_of[e.idx()]))
        .collect();

    // Replay the schedule against the FIFO occupancy invariant, kept in
    // cursor form: a port's cursor is where its member's next firing
    // reads or writes, so an internal stream holds `writer cursor −
    // reader cursor` items and a read needs `rate` of them. A cross
    // input holds its whole batch, which the quota check covers.
    let quota: Vec<u64> = nodes.iter().map(|v| quota[v.idx()]).collect();
    let mut fired = vec![0u64; nodes.len()];
    let mut cursor: Vec<usize> = ports.iter().map(|p| p.base).collect();
    let mut order = Vec::with_capacity(firings.len());
    for &v in firings {
        let i = local_of[v.idx()];
        let Some(np) = node_ports.get(i as usize) else {
            return None; // not a member
        };
        let i = i as usize;
        if fired[i] >= quota[i] {
            return None;
        }
        fired[i] += 1;
        let range = np.range();
        let outputs = range.start + np.inputs as usize;
        for p in range.start..outputs {
            let end = cursor[p] + ports[p].rate;
            if writer[p] != LOADED && end > cursor[writer[p]] {
                return None; // read would overtake the writes
            }
            cursor[p] = end;
        }
        for p in outputs..range.end {
            cursor[p] += ports[p].rate;
        }
        order.push(i as u32);
    }
    // Quotas met and every internal stream drained: the arena is
    // stateless across batches.
    if fired != quota
        || (0..ports.len()).any(|p| writer[p] != LOADED && cursor[p] != cursor[writer[p]])
    {
        return None;
    }
    Some(FiringPlan {
        arena_len,
        order,
        node_ports,
        ports,
        loads,
        stores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag_greedy;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};

    fn analyzed(g: &StreamGraph) -> RateAnalysis {
        RateAnalysis::analyze_single_io(g).unwrap()
    }

    #[test]
    fn fused_graph_is_rate_matched_with_preserved_traffic() {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..10u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let p = dag_greedy::greedy_topo(&g, 120.max(g.max_state()));
            let fused = fuse(&g, &ra, &p).unwrap();
            let fra = RateAnalysis::analyze(&fused.graph).unwrap();
            assert!(fra.check_balance(&fused.graph), "seed {seed}");
            // Per-iteration traffic on surviving edges matches the fine
            // cross traffic in total.
            let fine: u64 = p
                .cross_edges(&g)
                .into_iter()
                .map(|e| ra.edge_traffic(&g, e))
                .sum();
            let coarse: u64 = fused
                .graph
                .edge_ids()
                .map(|e| fra.edge_traffic(&fused.graph, e))
                .sum();
            assert_eq!(fine, coarse, "seed {seed}");
        }
    }

    #[test]
    fn fused_state_is_component_state() {
        let g = gen::pipeline_uniform(9, 10);
        let ra = analyzed(&g);
        let p = dag_greedy::greedy_topo(&g, 30);
        let fused = fuse(&g, &ra, &p).unwrap();
        assert_eq!(fused.graph.total_state(), g.total_state());
        for c in fused.graph.node_ids() {
            assert_eq!(fused.graph.state(c), 30);
        }
        assert_eq!(fused.graph.node_count(), 3);
    }

    #[test]
    fn fusing_whole_graph_gives_single_node() {
        let g = gen::split_join(2, 2, StateDist::Fixed(4), 1);
        let ra = analyzed(&g);
        let fused = fuse(&g, &ra, &Partition::whole(&g)).unwrap();
        assert_eq!(fused.graph.node_count(), 1);
        assert_eq!(fused.graph.edge_count(), 0);
    }

    #[test]
    fn fusing_singletons_is_identity_shaped() {
        let g = gen::pipeline(&PipelineCfg::default(), 4);
        let ra = analyzed(&g);
        let fused = fuse(&g, &ra, &Partition::singletons(&g)).unwrap();
        assert_eq!(fused.graph.node_count(), g.node_count());
        assert_eq!(fused.graph.edge_count(), g.edge_count());
        for e in g.edge_ids() {
            let fe = fused.graph.edge(e);
            let oe = g.edge(e);
            // q(v)/q_singleton(v) = 1: rates unchanged.
            assert_eq!(fe.produce, oe.produce);
            assert_eq!(fe.consume, oe.consume);
        }
    }

    #[test]
    fn non_well_ordered_rejected() {
        let g = gen::pipeline_uniform(4, 4);
        let ra = analyzed(&g);
        let bad = Partition::from_assignment(vec![0, 1, 0, 1]);
        assert!(fuse(&g, &ra, &bad).is_none());
    }

    #[test]
    fn fusion_then_sas_approximates_partitioned_locality() {
        // Scheduling the fused graph with plain SAS yields far fewer
        // misses than SAS on the original when state thrashes: fusion IS
        // partitioning, as §6 remarks.
        use ccs_cachesim::CacheParams;
        use ccs_sched::{baseline, ExecOptions, Executor};
        let g = gen::pipeline_uniform(32, 256); // 8192 words
        let ra = analyzed(&g);
        let params = CacheParams::new(2048, 16);
        let iters = 256u64;

        let naive = baseline::single_appearance(&g, &ra, iters);
        let mut ex = Executor::new(
            &g,
            &ra,
            naive.capacities.clone(),
            params,
            ExecOptions::default(),
        );
        ex.run(&naive.firings).unwrap();
        let misses_fine = ex.report().stats.misses;

        let p = dag_greedy::greedy_topo(&g, params.capacity / 2);
        let fused = fuse(&g, &ra, &p).unwrap();
        let fra = RateAnalysis::analyze_single_io(&fused.graph).unwrap();
        // Scale the fused schedule so it moves the same number of items:
        // fused source fires q(src)/q_C per fused iteration.
        let scaled = baseline::scaled_sas(&fused.graph, &fra, params.capacity / 2, 1);
        let mut ex2 = Executor::new(
            &fused.graph,
            &fra,
            scaled.capacities.clone(),
            params,
            ExecOptions::default(),
        );
        ex2.run(&scaled.firings).unwrap();
        let rep = ex2.report();
        let mpo_fused = rep.stats.misses as f64 / rep.outputs.max(1) as f64;
        let mpo_fine = misses_fine as f64 / iters as f64;
        assert!(
            mpo_fused * 4.0 < mpo_fine,
            "fused {mpo_fused} vs fine {mpo_fine}"
        );
    }

    /// a --2/1--> b --1/2--> c with quotas (1, 2, 1): classic SDF.
    fn rate_pipeline() -> (StreamGraph, Vec<NodeId>) {
        let mut b = GraphBuilder::new();
        let va = b.node("a", 4);
        let vb = b.node("b", 4);
        let vc = b.node("c", 4);
        b.edge(va, vb, 2, 1);
        b.edge(vb, vc, 1, 2);
        (b.build().unwrap(), vec![va, vb, vc])
    }

    /// Expand a compact plan into one `(local, input spans, output
    /// spans)` triple per firing, spans as `(offset, len)`: the k-th
    /// firing of a member sits at `base + k·rate` on each of its ports.
    #[allow(clippy::type_complexity)]
    fn decode(plan: &FiringPlan) -> Vec<(u32, Vec<(usize, usize)>, Vec<(usize, usize)>)> {
        let mut fired = vec![0usize; plan.node_ports.len()];
        plan.order
            .iter()
            .map(|&local| {
                let np = plan.node_ports[local as usize];
                let k = fired[local as usize];
                fired[local as usize] += 1;
                let spans: Vec<(usize, usize)> = plan.ports[np.range()]
                    .iter()
                    .map(|p| (p.base + k * p.rate, p.rate))
                    .collect();
                let (ins, outs) = spans.split_at(np.inputs as usize);
                (local, ins.to_vec(), outs.to_vec())
            })
            .collect()
    }

    #[test]
    fn firing_plan_whole_segment_layout() {
        let (g, v) = rate_pipeline();
        let quota = vec![1, 2, 1];
        let firings = vec![v[0], v[1], v[1], v[2]];
        let plan = compile_firing_plan(&g, &quota, &v, &firings).unwrap();
        // Two internal edges, 2 items each, no boundary traffic.
        assert_eq!(plan.arena_len, 4);
        assert!(plan.loads.is_empty() && plan.stores.is_empty());
        assert_eq!(plan.order, vec![0, 1, 1, 2]);
        // Region for a→b is placed first (b's in-edge), b→c second.
        let f = decode(&plan);
        assert_eq!(f[0], (0, vec![], vec![(0, 2)]));
        assert_eq!(f[1], (1, vec![(0, 1)], vec![(2, 1)]));
        assert_eq!(f[2], (1, vec![(1, 1)], vec![(3, 1)]));
        assert_eq!(f[3], (2, vec![(2, 2)], vec![]));
    }

    #[test]
    fn firing_plan_rejects_illegal_order() {
        let (g, v) = rate_pipeline();
        let quota = vec![1, 2, 1];
        // c before b: reads items b has not written yet.
        let bad = vec![v[0], v[2], v[1], v[1]];
        assert!(compile_firing_plan(&g, &quota, &v, &bad).is_none());
        // Quota miss: b fires once, leaving a→b half full.
        let short = vec![v[0], v[1], v[2]];
        assert!(compile_firing_plan(&g, &quota, &short, &short).is_none());
    }

    #[test]
    fn firing_plan_singleton_segment_has_boundary_io() {
        let (g, v) = rate_pipeline();
        let quota = vec![1, 2, 1];
        let seg = vec![v[1]];
        let firings = vec![v[1], v[1]];
        let plan = compile_firing_plan(&g, &quota, &seg, &firings).unwrap();
        assert_eq!(plan.arena_len, 4);
        assert_eq!(plan.loads.len(), 1);
        assert_eq!((plan.loads[0].offset, plan.loads[0].items), (0, 2));
        assert_eq!(plan.stores.len(), 1);
        assert_eq!((plan.stores[0].offset, plan.stores[0].items), (2, 2));
        let f = decode(&plan);
        assert_eq!(f[0], (0, vec![(0, 1)], vec![(2, 1)]));
        assert_eq!(f[1], (0, vec![(1, 1)], vec![(3, 1)]));
    }

    #[test]
    fn firing_plan_rejects_rate_mismatched_quota() {
        let (g, v) = rate_pipeline();
        // quota (1, 1, 1) leaves a→b unbalanced: 2 produced, 1 consumed.
        let quota = vec![1, 1, 1];
        let firings = vec![v[0], v[1], v[2]];
        assert!(compile_firing_plan(&g, &quota, &v, &firings).is_none());
    }

    #[test]
    fn firing_plan_footprint_is_one_index_per_firing() {
        // Every segment of a greedy partition, batched as a
        // single-appearance schedule in topological order (legal with
        // cross inputs pre-loaded): the plan holds one index per firing
        // and one port entry per member port, and nothing else grows
        // with the firing count.
        let cfg = LayeredCfg {
            layers: 5,
            max_width: 4,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..6u64 {
            let g = gen::layered(&cfg, seed);
            let ra = analyzed(&g);
            let quota: Vec<u64> = ra.repetitions.iter().map(|&q| 5 * q).collect();
            let rank = ccs_graph::topo::topo_rank(&g);
            let p = dag_greedy::greedy_topo(&g, 96);
            for mut nodes in p.components() {
                nodes.sort_by_key(|v| rank[v.idx()]);
                let firings: Vec<NodeId> = nodes
                    .iter()
                    .flat_map(|&v| std::iter::repeat_n(v, quota[v.idx()] as usize))
                    .collect();
                let plan = compile_firing_plan(&g, &quota, &nodes, &firings).unwrap();
                let degrees: usize = nodes
                    .iter()
                    .map(|&v| g.in_edges(v).len() + g.out_edges(v).len())
                    .sum();
                assert_eq!(plan.order.len(), firings.len(), "seed {seed}");
                assert_eq!(plan.ports.len(), degrees, "seed {seed}");
                assert_eq!(plan.node_ports.len(), nodes.len(), "seed {seed}");
                // The last firing of every member ends exactly at the
                // end of each of its port regions.
                let f = decode(&plan);
                for (i, &v) in nodes.iter().enumerate() {
                    let last = f.iter().rev().find(|x| x.0 as usize == i).unwrap();
                    for (&(off, len), port) in last
                        .1
                        .iter()
                        .chain(&last.2)
                        .zip(&plan.ports[plan.node_ports[i].range()])
                    {
                        assert_eq!(off + len, port.base + quota[v.idx()] as usize * port.rate);
                        assert!(off + len <= plan.arena_len);
                    }
                }
            }
        }
    }
}
