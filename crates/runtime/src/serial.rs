//! The serial executor: runs any legal firing sequence on real memory.
//!
//! Per-node scratch buffers are allocated once up front, sized exactly to
//! the node's rates, so the firing loop is allocation-free: each firing
//! costs two ring copies plus the kernel's own work.

use crate::instance::Instance;
use crate::ring::Ring;
use ccs_graph::{NodeId, StreamGraph};
use ccs_obs::{Clock, EventKind, Timeline, Tracer, WindowSample, WindowSampler};
use ccs_perf::CounterSample;
use ccs_sched::SchedRun;
use std::time::{Duration, Instant};

/// Outcome of a real execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Wall-clock time of the firing loop only (allocation excluded).
    pub wall: Duration,
    /// Total firings executed.
    pub firings: u64,
    /// Items the sink consumed.
    pub sink_items: u64,
    /// Order-sensitive digest of the sink stream (for equivalence
    /// checks), if the sink kernel provides one.
    pub digest: Option<u64>,
}

/// Per-node pre-sized scratch: one `Vec<f32>` per port.
struct Scratch {
    inputs: Vec<Vec<Vec<f32>>>,
    outputs: Vec<Vec<Vec<f32>>>,
}

impl Scratch {
    fn for_graph(g: &StreamGraph) -> Scratch {
        let inputs = g
            .node_ids()
            .map(|v| {
                g.in_edges(v)
                    .iter()
                    .map(|&e| vec![0.0f32; g.edge(e).consume as usize])
                    .collect()
            })
            .collect();
        let outputs = g
            .node_ids()
            .map(|v| {
                g.out_edges(v)
                    .iter()
                    .map(|&e| vec![0.0f32; g.edge(e).produce as usize])
                    .collect()
            })
            .collect();
        Scratch { inputs, outputs }
    }
}

/// Execute `run`'s firing sequence over real ring buffers.
///
/// Buffer capacities come from `run.capacities`; underflow or overflow
/// panics (the symbolic executor validates the same sequence in tests, so
/// a panic here indicates an executor bug, not a scheduler bug).
pub fn execute(inst: &mut Instance, run: &SchedRun) -> RunStats {
    execute_obs(inst, run, &ObsConfig::default()).0
}

/// Observability options for [`execute_obs`] — the serial analogues of
/// the parallel executor's `RunConfig` counter/trace/window knobs.
#[derive(Clone, Debug, Default)]
pub struct ObsConfig {
    /// Sample hardware counters (the `ccs-perf` cache suite) around
    /// the firing loop.
    pub counters: bool,
    /// Zero the counter group after this many firings (the serial
    /// warmup window; ignored when it would leave no measured window).
    pub warmup_firings: u64,
    /// Close a counter window every this many firings (0 = off):
    /// cumulative group reads differenced with
    /// [`CounterSample::delta_since`], the serial analogue of the
    /// parallel executor's per-worker window cadence. Callers usually
    /// pass `W · firings_per_round` so serial windows line up with
    /// W-batch parallel ones.
    pub window_firings: u64,
    /// Record a `SerialBlock` span every this many firings (0 = off).
    /// The serial schedule is one flat firing list, so its timeline is
    /// chunked into fixed-size blocks — pass firings-per-round to get
    /// one span per granularity-`T` round.
    pub block_firings: u64,
    /// Record an event timeline into a bounded ring.
    pub trace: bool,
    /// Event ring capacity when tracing (0 selects the default).
    pub trace_capacity: usize,
}

/// What [`execute_obs`] observed, next to the (unperturbed) run stats.
#[derive(Clone, Debug, Default)]
pub struct SerialObs {
    /// The end-of-run counter sample (post-warmup window when one was
    /// configured); `None` when counters were off or unavailable.
    pub sample: Option<CounterSample>,
    /// Closed counter windows ([`ObsConfig::window_firings`]); empty
    /// when windows were off, timing-only when no group opened.
    pub windows: Vec<WindowSample>,
    /// Recorded event timeline ([`ObsConfig::trace`]); `None` when
    /// tracing was off.
    pub trace: Option<Timeline>,
}

/// [`execute`] with observability: hardware counters (the `ccs-perf`
/// cache suite) sampled around the firing loop — the same window `wall`
/// times, allocation excluded — optionally zeroed after a warmup of
/// [`ObsConfig::warmup_firings`] firings so the sample covers only the
/// steady state, plus an event timeline (block spans, the warmup reset)
/// and periodic counter windows, collected by the same `ccs-obs`
/// machinery the parallel workers use. Execution itself — digest, items, firing
/// count — is identical to [`execute`] under every configuration.
pub fn execute_obs(inst: &mut Instance, run: &SchedRun, cfg: &ObsConfig) -> (RunStats, SerialObs) {
    let g = &inst.graph;
    assert_eq!(run.capacities.len(), g.edge_count());
    let mut rings: Vec<Ring> = g
        .edge_ids()
        .map(|e| Ring::new(run.capacities[e.idx()].max(1) as usize))
        .collect();
    let mut scratch = Scratch::for_graph(g);
    let counter_set = if cfg.counters {
        ccs_perf::CounterBuilder::cache_suite().open_self_thread()
    } else {
        ccs_perf::CounterSet::unavailable("counters not requested")
    };
    // A warmup that would leave no measured window is ignored.
    let warmup = if cfg.warmup_firings < run.firings.len() as u64 {
        cfg.warmup_firings
    } else {
        0
    };
    let clock = Clock::start();
    let mut tracer = if cfg.trace {
        Tracer::on(cfg.trace_capacity)
    } else {
        Tracer::off()
    };
    let mut wins = WindowSampler::new(cfg.window_firings);

    let sink = g.single_sink();
    let mut sink_items = 0u64;
    counter_set.reset();
    counter_set.enable();
    if wins.enabled() {
        wins.start(clock.now_ns(), counter_set.sample());
    }
    let mut block_index = 0u64;
    let mut block_start_ns = clock.now_ns();
    let start = Instant::now();
    for (i, &v) in run.firings.iter().enumerate() {
        if warmup > 0 && i as u64 == warmup {
            // The reset would corrupt any open window's cumulative
            // baseline: flush, reset, re-baseline (same protocol as
            // the parallel workers).
            wins.flush(clock.now_ns(), || counter_set.sample());
            counter_set.reset();
            if wins.enabled() {
                wins.rebaseline(clock.now_ns(), counter_set.sample());
            }
            tracer.record(clock.now_ns(), 0, EventKind::WarmupReset);
        }
        fire_once(inst, &mut rings, &mut scratch, v, sink, &mut sink_items);
        if wins.enabled() {
            if let Some(index) = wins.on_batch(clock.now_ns(), || counter_set.sample()) {
                tracer.record(clock.now_ns(), 0, EventKind::Window { index });
            }
        }
        if cfg.trace && cfg.block_firings > 0 && (i as u64 + 1).is_multiple_of(cfg.block_firings) {
            let now = clock.now_ns();
            tracer.record(
                block_start_ns,
                now - block_start_ns,
                EventKind::SerialBlock { index: block_index },
            );
            record_occupancy(&mut tracer, &rings, now);
            block_index += 1;
            block_start_ns = now;
        }
    }
    let wall = start.elapsed();
    if cfg.trace
        && cfg.block_firings > 0
        && !(run.firings.len() as u64).is_multiple_of(cfg.block_firings)
    {
        let now = clock.now_ns();
        tracer.record(
            block_start_ns,
            now - block_start_ns,
            EventKind::SerialBlock { index: block_index },
        );
        record_occupancy(&mut tracer, &rings, now);
    }
    let windows = wins.finish(clock.now_ns(), || counter_set.sample());
    counter_set.disable();
    let stats = RunStats {
        wall,
        firings: run.firings.len() as u64,
        sink_items,
        digest: inst.sink_digest(),
    };
    let obs = SerialObs {
        sample: counter_set.sample(),
        windows,
        trace: tracer.finish(),
    };
    (stats, obs)
}

/// Ring occupancy of every edge at a serial-block boundary — one
/// instant per ring, all on the block's closing timestamp. The serial
/// schedule drains rings between rounds, so nonzero steady-state
/// occupancy here marks the buffers a partitioned round leaves filled.
fn record_occupancy(tracer: &mut Tracer, rings: &[Ring], now_ns: u64) {
    for (ri, r) in rings.iter().enumerate() {
        tracer.record(
            now_ns,
            0,
            EventKind::RingOccupancy {
                ring: ri,
                len: r.len() as u64,
                cap: r.capacity() as u64,
            },
        );
    }
}

#[inline]
fn fire_once(
    inst: &mut Instance,
    rings: &mut [Ring],
    scratch: &mut Scratch,
    v: NodeId,
    sink: Option<NodeId>,
    sink_items: &mut u64,
) {
    let g = &inst.graph;
    let vin = &mut scratch.inputs[v.idx()];
    for (i, &e) in g.in_edges(v).iter().enumerate() {
        rings[e.idx()].pop_slice(&mut vin[i]);
        if Some(v) == sink {
            *sink_items += vin[i].len() as u64;
        }
    }
    let vout = &mut scratch.outputs[v.idx()];
    crate::kernel::fire_ports(inst.kernels[v.idx()].as_mut(), vin, vout);
    for (i, &e) in inst.graph.out_edges(v).iter().enumerate() {
        rings[e.idx()].push_slice(&vout[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_graph::RateAnalysis;
    use ccs_sched::baseline;

    #[test]
    fn sas_executes_on_real_memory() {
        let g = gen::pipeline(&PipelineCfg::default(), 3);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 4);
        let mut inst = Instance::synthetic(g);
        let stats = execute(&mut inst, &run);
        assert_eq!(stats.firings, run.firings.len() as u64);
        assert!(stats.sink_items > 0);
        assert!(stats.digest.is_some());
    }

    #[test]
    fn counted_execution_does_not_perturb_results() {
        let g = gen::pipeline(&PipelineCfg::default(), 5);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 4);
        let mut i1 = Instance::synthetic(g.clone());
        let plain = execute(&mut i1, &run);
        let mut i2 = Instance::synthetic(g);
        let counted_cfg = ObsConfig {
            counters: true,
            ..ObsConfig::default()
        };
        let (counted, obs) = execute_obs(&mut i2, &run, &counted_cfg);
        let sample = obs.sample;
        assert_eq!(plain.digest, counted.digest);
        assert_eq!(plain.firings, counted.firings);
        assert_eq!(plain.sink_items, counted.sink_items);
        // Environment-dependent: if a group opened, it read something.
        if let Some(s) = sample {
            assert!(!s.readings.is_empty());
        }
        // Counters off: no sample, same behavior.
        let mut i3 = Instance::synthetic(i1.graph.clone());
        let (off, obs) = execute_obs(&mut i3, &run, &ObsConfig::default());
        assert_eq!(off.digest, plain.digest);
        assert!(obs.sample.is_none());
    }

    #[test]
    fn warmup_window_does_not_perturb_results() {
        let g = gen::pipeline(&PipelineCfg::default(), 5);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 4);
        let mut i1 = Instance::synthetic(g.clone());
        let plain = execute(&mut i1, &run);
        // Warmup inside, at, and beyond the schedule length: execution
        // is identical in every case (only the counter window moves).
        for warmup in [1, run.firings.len() as u64 / 2, u64::MAX] {
            let mut i = Instance::synthetic(g.clone());
            let cfg = ObsConfig {
                counters: true,
                warmup_firings: warmup,
                ..ObsConfig::default()
            };
            let (warm, _obs) = execute_obs(&mut i, &run, &cfg);
            assert_eq!(warm.digest, plain.digest, "warmup {warmup}");
            assert_eq!(warm.firings, plain.firings);
            assert_eq!(warm.sink_items, plain.sink_items);
        }
    }

    #[test]
    fn observed_execution_does_not_perturb_results() {
        let g = gen::pipeline(&PipelineCfg::default(), 7);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 4);
        let mut i1 = Instance::synthetic(g.clone());
        let plain = execute(&mut i1, &run);
        let cfg = ObsConfig {
            counters: true,
            warmup_firings: run.firings.len() as u64 / 3,
            window_firings: 5,
            block_firings: 8,
            trace: true,
            trace_capacity: 0,
        };
        let mut i2 = Instance::synthetic(g);
        let (observed, obs) = execute_obs(&mut i2, &run, &cfg);
        assert_eq!(observed.digest, plain.digest);
        assert_eq!(observed.firings, plain.firings);
        assert_eq!(observed.sink_items, plain.sink_items);
        // Windows close on the firing cadence whether or not a counter
        // group opened (timing-only fallback), partial final included.
        let expect = (run.firings.len() as u64).div_ceil(5) as usize;
        assert_eq!(obs.windows.len(), expect);
        assert!(obs.windows.iter().all(|w| w.batches > 0));
        // The trace holds one block span per 8 firings (last partial),
        // the warmup reset, and the window instants, all in time order.
        let tl = obs.trace.expect("tracing was on");
        assert_eq!(tl.dropped, 0);
        let blocks = tl
            .events
            .iter()
            .filter(|e| matches!(e.kind, ccs_obs::EventKind::SerialBlock { .. }))
            .count();
        assert_eq!(blocks, (run.firings.len() as u64).div_ceil(8) as usize);
        assert!(tl
            .events
            .iter()
            .any(|e| matches!(e.kind, ccs_obs::EventKind::WarmupReset)));
        assert!(tl.events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
    }

    #[test]
    fn obs_defaults_match_plain_execution() {
        let g = gen::pipeline(&PipelineCfg::default(), 4);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let run = baseline::single_appearance(&g, &ra, 3);
        let mut i1 = Instance::synthetic(g.clone());
        let plain = execute(&mut i1, &run);
        let mut i2 = Instance::synthetic(g);
        let (stats, obs) = execute_obs(&mut i2, &run, &ObsConfig::default());
        assert_eq!(stats.digest, plain.digest);
        assert!(obs.sample.is_none());
        assert!(obs.windows.is_empty());
        assert!(obs.trace.is_none());
    }

    #[test]
    fn different_schedules_same_digest() {
        // SDF determinism: the output stream is schedule independent.
        let g = gen::pipeline(&PipelineCfg::default(), 9);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let sink = ra.sink.unwrap();

        let sas = baseline::single_appearance(&g, &ra, 6);
        let sink_firings = sas.count(sink);
        let demand = baseline::demand_driven(&g, &ra, sink_firings);

        let mut i1 = Instance::synthetic(g.clone());
        let s1 = execute(&mut i1, &sas);
        let mut i2 = Instance::synthetic(g);
        let s2 = execute(&mut i2, &demand);

        assert_eq!(s1.sink_items, s2.sink_items);
        assert_eq!(s1.digest, s2.digest, "schedules must be functionally equal");
    }

    #[test]
    fn dag_schedules_equivalent() {
        let cfg = LayeredCfg {
            layers: 3,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(4, 32),
            max_q: 2,
        };
        for seed in 0..5u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let sink = ra.sink.unwrap();
            let sas = baseline::single_appearance(&g, &ra, 3);
            let demand = baseline::demand_driven(&g, &ra, sas.count(sink));
            let mut i1 = Instance::synthetic(g.clone());
            let mut i2 = Instance::synthetic(g);
            assert_eq!(
                execute(&mut i1, &sas).digest,
                execute(&mut i2, &demand).digest,
                "seed {seed}"
            );
        }
    }
}
