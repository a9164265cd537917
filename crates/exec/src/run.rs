//! The segment-affine worker loop.
//!
//! Each worker owns a fixed set of segments (kernels, arenas, and — by
//! the SPSC discipline — the relevant ring endpoints). A worker cycles
//! over its segments; whenever the half-full/half-empty gate admits a
//! segment that still owes batches, the worker executes one full batch
//! of its local schedule. Segments pinned to different workers run
//! concurrently; a producer and consumer of the same ring may both be
//! mid-batch at once, which is where the dag parallelism comes from.
//!
//! A worker with nothing schedulable spins briefly (a stalled peer is
//! usually mid-batch), then parks on a progress condvar that every
//! completed batch signals — so oversubscribed runs (workers > cores)
//! don't burn the very cores their peers need. With
//! [`RunConfig::pin_cores`], workers additionally bind themselves to
//! cores of the machine [`Topology`] in cache-compact order, closing
//! the gap the OS scheduler leaves: segment state stays in the cache of
//! the core it was placed for.
//!
//! Termination is deterministic: every segment executes exactly `rounds`
//! batches, so node `v` fires `rounds·T·gain(v)` times and the sink
//! digest is comparable with a serial schedule of the same length.

use crate::place::{assign_on, Placement};
use crate::plan::{DagExecError, ExecPlan};
use crate::stats::{DagRunStats, SegmentCounters, WorkerStats};
use ccs_graph::RateAnalysis;
use ccs_obs::{Blocked, Clock, EventKind, StallReason, Tracer, WindowSampler};
use ccs_partition::{FiringPlan, NodePorts, Partition, PortSpan};
use ccs_runtime::instance::Instance;
use ccs_runtime::kernel::Kernel;
use ccs_runtime::ring::SpscRing;
use ccs_runtime::serial::RunStats;
use ccs_topo::{pin_current_thread, plan_bindings, CoreBinding, Topology};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// When, relative to whom, workers reset their counter groups at the
/// end of the warmup window ([`RunConfig::warmup_batches`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WarmupMode {
    /// Epoch reset: every worker caps its segments at `warmup_batches`
    /// batches, all workers meet at a shared barrier once **every**
    /// segment in the run has reached the cap, and each resets its
    /// group there. The measured window then covers exactly batches
    /// `warmup..rounds` of every segment, so per-worker aggregates are
    /// exact — no segment can run ahead into the excluded region.
    #[default]
    Epoch,
    /// Legacy per-worker reset: each worker resets alone once its *own*
    /// segments pass the window. Conservative — a segment that runs
    /// ahead of its worker's slowest co-tenant gets extra batches
    /// excluded from that worker's total (per-segment windows are
    /// unaffected either way).
    PerWorker,
}

impl WarmupMode {
    /// CLI/JSON name.
    pub fn name(&self) -> &'static str {
        match self {
            WarmupMode::Epoch => "epoch",
            WarmupMode::PerWorker => "per-worker",
        }
    }
}

/// One scripted segment handoff: once `seg` has completed
/// `after_batches` batches, move it to `to_worker` at that batch
/// boundary — without stopping the stream. The executor validates the
/// target against the run (see
/// [`DagExecError::MigrationTarget`])
/// and rejects boundaries inside the warmup window. A hop whose target
/// is the segment's current worker is a no-op (not recorded, not
/// counted). Primarily a test-harness hook: it drives the
/// migration-equivalence property tests with arbitrary schedules; the
/// production path is [`RunConfig::adapt`], where the controller
/// decides the hops online.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// Segment to move (contracted topological order).
    pub seg: usize,
    /// Worker that should run it next.
    pub to_worker: usize,
    /// Batch boundary the handoff happens at: the segment quiesces
    /// after completing this many batches.
    pub after_batches: u64,
}

/// How to run a partitioned dag: worker count, placement policy, and
/// the machine model the policy (and optional core pinning) uses.
#[derive(Clone, Debug, Default)]
pub struct RunConfig {
    /// Worker threads (>= 1).
    pub workers: usize,
    /// Segment → worker placement policy.
    pub placement: Placement,
    /// Machine topology for [`Placement::Llc`] and pinning. `None`
    /// discovers the host topology (sysfs, with a flat fallback).
    pub topology: Option<Topology>,
    /// Bind each worker to its planned core via `sched_setaffinity`.
    /// Pin failures (non-Linux, cpu outside the cpuset, synthetic cpu
    /// ids) are recorded per worker and the run proceeds unpinned.
    pub pin_cores: bool,
    /// Open hardware performance counters (`ccs-perf` cache suite) on
    /// each worker thread and sample them around the firing loop.
    /// Unavailability (containers, `perf_event_paranoid`, non-Linux)
    /// degrades per worker to `counters: None`; the run itself — and
    /// its digest — is unaffected either way.
    pub counters: bool,
    /// Steady-state warmup window: per-segment batches whose counter
    /// activity is discarded. Each worker zeroes its group
    /// (`PERF_EVENT_IOC_RESET`) once every segment it owns has executed
    /// this many batches, so readings exclude cold-start misses
    /// (compulsory misses on first-touch state, page faults, branch
    /// training). Clamped below `rounds` so a measurement window always
    /// remains; 0 (the default) reproduces whole-run sampling.
    pub warmup_batches: u64,
    /// Attribute counters to individual *segments*, not just workers:
    /// two extra group reads around each sampled batch, differenced
    /// into that segment's [`SegmentCounters`].
    /// Only post-warmup batches are sampled. Off by default (the reads
    /// are cheap — two `read(2)` calls per batch — but not free).
    pub segment_counters: bool,
    /// Sampling stride for per-segment attribution: count every n-th
    /// post-warmup batch (1 = every batch). Bounds the per-batch read
    /// overhead for very small `T`; readings stay unbiased because
    /// normalization divides by batches actually counted. 0 is treated
    /// as 1.
    pub counter_stride: u64,
    /// Warmup reset discipline: the exact epoch barrier (default) or
    /// the legacy per-worker reset. Only consulted when counters are
    /// requested and `warmup_batches > 0`.
    pub warmup_mode: WarmupMode,
    /// Fault in each SPSC ring's pages from its **consumer** worker's
    /// thread (behind a start barrier, after pinning) before any data
    /// flows, so first-touch NUMA policy places ring memory on the
    /// consumer's node instead of wherever the planning thread ran.
    /// Touched ring counts land in [`WorkerStats::rings_touched`].
    pub first_touch_rings: bool,
    /// Record a per-worker event timeline (batch and stall spans,
    /// warmup resets, ring first-touches, window boundaries) into a
    /// private bounded [`ccs_obs::EventRing`]. Off (the default), the
    /// tracer reduces to a single never-taken branch on the hot path;
    /// on, each event is one timestamp read and one slot write, and
    /// ring overflow overwrites the oldest events while counting the
    /// drops ([`ccs_obs::Timeline::dropped`]).
    pub trace: bool,
    /// Close a counter window every this many batches (per worker):
    /// the group is re-read and differenced with
    /// [`ccs_perf::CounterSample::delta_since`] into
    /// [`WorkerStats::windows`], giving the time-resolved miss/IPC
    /// signal end-of-run totals cannot show. 0 (the default) disables
    /// windows; without an open counter group they degrade to
    /// timing-only samples.
    pub window_batches: u64,
    /// Per-worker event ring capacity when tracing; 0 selects
    /// [`ccs_obs::DEFAULT_RING_CAPACITY`].
    pub trace_capacity: usize,
    /// Online adaptive control: run a [`ccs_adapt::Controller`] over the
    /// live window stream and migrate segments between workers — at
    /// batch boundaries, without stopping the stream — when it flags
    /// drift. Requires [`RunConfig::window_batches`]` > 0` (the window
    /// stream is the controller's only input); the run fails with
    /// [`DagExecError::AdaptNeedsWindows`]
    /// otherwise. Migration changes *where* a segment runs, never
    /// *what* it computes: the sink digest stays bit-identical to the
    /// static (and serial) schedule.
    pub adapt: Option<ccs_adapt::AdaptConfig>,
    /// Scripted handoffs executed at fixed batch boundaries, validated
    /// up front — the deterministic test harness behind the
    /// migration-equivalence proofs. Runs fine alongside
    /// [`RunConfig::adapt`] (the forced hops just happen on schedule).
    pub forced_migrations: Vec<Migration>,
}

impl RunConfig {
    pub fn new(workers: usize) -> RunConfig {
        RunConfig {
            workers,
            ..RunConfig::default()
        }
    }

    pub fn with_placement(mut self, placement: Placement) -> RunConfig {
        self.placement = placement;
        self
    }

    pub fn with_topology(mut self, topo: Topology) -> RunConfig {
        self.topology = Some(topo);
        self
    }

    pub fn with_pinning(mut self, pin: bool) -> RunConfig {
        self.pin_cores = pin;
        self
    }

    pub fn with_counters(mut self, counters: bool) -> RunConfig {
        self.counters = counters;
        self
    }

    pub fn with_warmup(mut self, warmup_batches: u64) -> RunConfig {
        self.warmup_batches = warmup_batches;
        self
    }

    pub fn with_segment_counters(mut self, on: bool) -> RunConfig {
        self.segment_counters = on;
        self
    }

    pub fn with_counter_stride(mut self, stride: u64) -> RunConfig {
        self.counter_stride = stride;
        self
    }

    pub fn with_warmup_mode(mut self, mode: WarmupMode) -> RunConfig {
        self.warmup_mode = mode;
        self
    }

    pub fn with_first_touch(mut self, on: bool) -> RunConfig {
        self.first_touch_rings = on;
        self
    }

    pub fn with_trace(mut self, on: bool) -> RunConfig {
        self.trace = on;
        self
    }

    pub fn with_windows(mut self, window_batches: u64) -> RunConfig {
        self.window_batches = window_batches;
        self
    }

    pub fn with_trace_capacity(mut self, capacity: usize) -> RunConfig {
        self.trace_capacity = capacity;
        self
    }

    pub fn with_adapt(mut self, adapt: ccs_adapt::AdaptConfig) -> RunConfig {
        self.adapt = Some(adapt);
        self
    }

    pub fn with_forced_migrations(mut self, migrations: Vec<Migration>) -> RunConfig {
        self.forced_migrations = migrations;
        self
    }

    /// Every batch runs the fused path, so this only accepts `true`.
    /// Kept for callers written when the classic path still existed.
    pub fn with_fused(self, fused: bool) -> RunConfig {
        assert!(fused, "the fused batch path is the only batch executor");
        self
    }
}

/// The per-run observability policy handed to each worker: whether to
/// trace, the window cadence, and the shared run clock all timestamps
/// are taken against.
#[derive(Clone, Copy)]
struct ObsPlan {
    /// Record an event timeline into a bounded per-worker ring.
    trace: bool,
    /// Event ring capacity (0 selects the default).
    capacity: usize,
    /// Close a counter window every this many batches (0 = off).
    window: u64,
    /// Shared monotonic origin, so per-worker timelines merge.
    clock: Clock,
}

/// The per-run counter policy handed to each worker: the counter
/// request plus the effective (clamped) warmup and stride.
#[derive(Clone, Copy)]
struct CounterPlan {
    /// Open a group on each worker thread at all.
    requested: bool,
    /// Effective per-segment warmup batches (already clamped below
    /// `rounds`).
    warmup: u64,
    /// Attribute per-batch windows to segments.
    per_segment: bool,
    /// Sample every n-th post-warmup batch (>= 1).
    stride: u64,
    /// Epoch warmup: cap at `warmup` batches and reset together at the
    /// shared barrier (false = legacy per-worker reset).
    epoch: bool,
}

/// Reusable all-worker rendezvous (generation-counted so it can be
/// passed more than once): used for the epoch warmup reset and, with
/// first-touch ring placement, the pre-run start line.
struct Rendezvous {
    state: parking_lot::Mutex<(usize, u64)>,
    cv: parking_lot::Condvar,
    total: usize,
}

impl Rendezvous {
    fn new(total: usize) -> Rendezvous {
        Rendezvous {
            state: parking_lot::Mutex::new((0, 0)),
            cv: parking_lot::Condvar::new(),
            total,
        }
    }

    /// Block until all `total` workers have arrived.
    fn wait(&self) {
        let mut g = self.state.lock();
        g.0 += 1;
        if g.0 == self.total {
            g.0 = 0;
            g.1 += 1;
            self.cv.notify_all();
        } else {
            let generation = g.1;
            while g.1 == generation {
                self.cv.wait(&mut g);
            }
        }
    }
}

/// One segment's runtime state: kernels and its batch arena, owned
/// exclusively by exactly one worker thread at any instant. Statically
/// that worker is fixed for the whole run; under migration the task —
/// kernels, arena, counter attribution, and (by the SPSC discipline)
/// the segment's ring endpoints — moves whole between workers through a
/// mutex-protected inbox, so the releasing worker's last batch
/// happens-before the receiving worker's first.
struct SegTask {
    seg: usize,
    /// Batches completed so far.
    done: u64,
    /// Kernels, parallel to `plan.segments[seg].nodes`.
    kernels: Vec<Box<dyn Kernel>>,
    /// Batch arena ([`ccs_partition::FiringPlan`] layout). Owned by the
    /// task, so it migrates with the segment like any other per-segment
    /// state — and since a full batch drains every internal stream, it
    /// carries no data across batch (and so migration) boundaries.
    arena: Vec<f32>,
    /// Scripted hops still owed, sorted by boundary; the head is due
    /// once `done` reaches its `after_batches`.
    pending: Vec<Migration>,
    /// Per-segment counter attribution: rides with the segment across
    /// handoffs so a migrated segment's counts stay whole.
    acc: SegmentCounters,
    /// Batch time accumulated in the owning worker's currently open
    /// counter window (adaptive runs only; zeroed at each close).
    win_ns: u64,
    /// Batches in the owning worker's currently open window.
    win_batches: u64,
}

/// Shared state of an adaptive (or forced-migration) run: the handoff
/// mailboxes, the run-wide termination count, and the controller.
struct AdaptRt {
    /// Per-worker migration inboxes: tasks in flight between workers.
    /// The mutex is the handoff's happens-before edge.
    inboxes: Vec<parking_lot::Mutex<Vec<SegTask>>>,
    /// Fast-path flags (set inside the inbox lock): a worker only takes
    /// its inbox lock after seeing its flag nonzero.
    inbox_flags: Vec<AtomicUsize>,
    /// Per-worker queues of controller commands decided on another
    /// worker's window but owed by this one.
    cmd_queues: Vec<parking_lot::Mutex<Vec<ccs_adapt::MigrationCmd>>>,
    /// Fast-path flags for `cmd_queues`.
    cmd_flags: Vec<AtomicUsize>,
    /// Segments that have not yet completed all rounds, run-wide: with
    /// tasks mobile, a worker may only exit once this reaches zero (its
    /// own list being done no longer proves no more work will arrive).
    remaining: AtomicUsize,
    /// The online decision engine; `None` when only forced migrations
    /// are in play.
    controller: Option<parking_lot::Mutex<ccs_adapt::Controller>>,
}

/// Cross-worker progress signal: every completed batch bumps the epoch
/// and wakes sleepers, so a worker whose gate is closed can park
/// instead of spinning indefinitely.
struct ProgressGate {
    epoch: AtomicU64,
    sleepers: AtomicUsize,
    lock: parking_lot::Mutex<()>,
    cv: parking_lot::Condvar,
}

/// Unproductive passes a worker spends yielding before it parks on the
/// condvar. Short stalls (a peer is mid-batch) stay in the spin tier;
/// only genuinely starved workers pay the syscall.
const SPIN_PASSES: u32 = 64;

/// Park timeout: a failsafe re-check so no missed-wakeup scenario (or a
/// peer that exits without a final bump) can wedge a worker.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

impl ProgressGate {
    fn new() -> ProgressGate {
        ProgressGate {
            epoch: AtomicU64::new(0),
            sleepers: AtomicUsize::new(0),
            lock: parking_lot::Mutex::new(()),
            cv: parking_lot::Condvar::new(),
        }
    }

    /// Publish progress: bump the epoch and wake parked workers. The
    /// sleeper check keeps the contended-lock cost off the hot path
    /// when nobody is parked (the common case).
    fn bump(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock());
            self.cv.notify_all();
        }
    }

    /// Park until the epoch moves past `seen` (or the failsafe timeout).
    /// The sleeper count is raised before the epoch re-check, pairing
    /// with [`bump`](Self::bump)'s increment-then-check so one side
    /// always sees the other.
    fn park_if_stale(&self, seen: u64) {
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut guard = self.lock.lock();
        if self.epoch.load(Ordering::SeqCst) == seen {
            self.cv.wait_for(&mut guard, PARK_TIMEOUT);
        }
        drop(guard);
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Execute `rounds` granularity-`T` batches of every segment of `p` on
/// `workers` threads with the default placement and no pinning —
/// shorthand for [`execute_dag_cfg`] with a plain [`RunConfig`].
pub fn execute_dag(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    workers: usize,
    placement: Placement,
) -> Result<DagRunStats, DagExecError> {
    execute_dag_cfg(
        inst,
        ra,
        p,
        m_items,
        rounds,
        &RunConfig::new(workers).with_placement(placement),
    )
}

/// Execute `rounds` granularity-`T` batches of every segment of `p`
/// under `cfg`: segments stay on their assigned worker for the whole
/// run, and workers optionally bind to cores of the configured
/// topology. Fires node `v` exactly `rounds·T·gain(v)` times; returns
/// aggregate and per-worker stats, with the sink digest for
/// equivalence checking.
pub fn execute_dag_cfg(
    inst: Instance,
    ra: &RateAnalysis,
    p: &Partition,
    m_items: u64,
    rounds: u64,
    cfg: &RunConfig,
) -> Result<DagRunStats, DagExecError> {
    let workers = cfg.workers.max(1);
    let g = &inst.graph;
    let plan = ExecPlan::build(g, ra, p, m_items)?;
    let warmup = if rounds == 0 {
        0
    } else {
        cfg.warmup_batches.min(rounds - 1)
    };
    // Adaptive control is driven entirely by the window stream; without
    // windows it would sit blind for the whole run — a config error,
    // not a silent no-op.
    if cfg.adapt.is_some() && cfg.window_batches == 0 {
        return Err(DagExecError::AdaptNeedsWindows);
    }
    for m in &cfg.forced_migrations {
        if m.seg >= plan.segments.len() || m.to_worker >= workers {
            return Err(DagExecError::MigrationTarget {
                seg: m.seg,
                to_worker: m.to_worker,
                workers,
            });
        }
        if warmup > 0 && m.after_batches < warmup {
            return Err(DagExecError::MigrationDuringWarmup {
                seg: m.seg,
                after_batches: m.after_batches,
                warmup,
            });
        }
    }
    // Only pay for host discovery (sysfs walks) when something will
    // actually consume the topology; the flat machine is equivalent for
    // distance-free placements without pinning.
    let topo = match &cfg.topology {
        Some(t) => t.clone(),
        None if cfg.placement == Placement::Llc || cfg.pin_cores => Topology::discover(),
        None => Topology::single_cluster(workers),
    };
    let owner = assign_on(g, ra, &plan, workers, cfg.placement, &topo, cfg.pin_cores);
    let bindings: Vec<Option<CoreBinding>> = if cfg.pin_cores {
        plan_bindings(&topo, workers)
            .into_iter()
            .map(Some)
            .collect()
    } else {
        vec![None; workers]
    };

    let rings = batch_rings(&plan, g);

    // Move kernels out of the instance into per-segment tasks.
    let mut kernel_slots: Vec<Option<Box<dyn Kernel>>> =
        inst.kernels.into_iter().map(Some).collect();
    let mut tasks: Vec<Option<SegTask>> = plan
        .segments
        .iter()
        .enumerate()
        .map(|(si, seg)| {
            let kernels: Vec<Box<dyn Kernel>> = seg
                .nodes
                .iter()
                .map(|&v| kernel_slots[v.idx()].take().expect("each node once"))
                .collect();
            let arena = vec![0.0f32; plan.fused[si].arena_len];
            let mut pending: Vec<Migration> = cfg
                .forced_migrations
                .iter()
                .filter(|m| m.seg == si)
                .copied()
                .collect();
            pending.sort_by_key(|m| m.after_batches);
            Some(SegTask {
                seg: si,
                done: 0,
                kernels,
                arena,
                pending,
                acc: SegmentCounters {
                    seg: si,
                    ..SegmentCounters::default()
                },
                win_ns: 0,
                win_batches: 0,
            })
        })
        .collect();

    // Deal tasks to their pinned workers.
    let mut per_worker: Vec<Vec<SegTask>> = (0..workers).map(|_| Vec::new()).collect();
    for (si, &w) in owner.iter().enumerate() {
        per_worker[w].push(tasks[si].take().expect("each segment once"));
    }

    // The adaptive runtime only exists when something can actually move
    // (a controller or a scripted schedule, and at least one batch);
    // static runs keep an untouched `None` and the exact pre-adaptive
    // hot path.
    let adapt_rt = if (cfg.adapt.is_some() || !cfg.forced_migrations.is_empty()) && rounds > 0 {
        Some(AdaptRt {
            inboxes: (0..workers)
                .map(|_| parking_lot::Mutex::new(Vec::new()))
                .collect(),
            inbox_flags: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            cmd_queues: (0..workers)
                .map(|_| parking_lot::Mutex::new(Vec::new()))
                .collect(),
            cmd_flags: (0..workers).map(|_| AtomicUsize::new(0)).collect(),
            remaining: AtomicUsize::new(plan.segments.len()),
            controller: cfg.adapt.clone().map(|a| {
                parking_lot::Mutex::new(ccs_adapt::Controller::new(a, workers, owner.clone()))
            }),
        })
    } else {
        None
    };
    let adapt_ref = adapt_rt.as_ref();

    let graph = g;
    let plan_ref = &plan;
    let rings_ref: &[SpscRing] = &rings;
    let gate = ProgressGate::new();
    let gate_ref = &gate;
    let cplan = CounterPlan {
        requested: cfg.counters,
        warmup,
        per_segment: cfg.counters && cfg.segment_counters,
        stride: cfg.counter_stride.max(1),
        epoch: cfg.counters && warmup > 0 && cfg.warmup_mode == WarmupMode::Epoch,
    };
    // The epoch reset and the post-first-touch start line are both
    // all-worker rendezvous; each is only awaited when its feature is on.
    let barrier = Rendezvous::new(workers);
    let barrier_ref = &barrier;

    // First-touch ring placement: each ring is faulted in by the worker
    // that owns its consuming segment (every edge has exactly one
    // consumer segment, internal edges included, so each ring gets
    // touched exactly once).
    let touch_lists: Vec<Vec<usize>> = if cfg.first_touch_rings {
        let mut lists: Vec<Vec<usize>> = (0..workers).map(|_| Vec::new()).collect();
        for e in g.edge_ids() {
            let consumer = owner[plan.seg_of_node[g.edge(e).dst.idx()]];
            lists[consumer].push(e.idx());
        }
        lists
    } else {
        (0..workers).map(|_| Vec::new()).collect()
    };
    let first_touch = cfg.first_touch_rings;
    let obs = ObsPlan {
        trace: cfg.trace,
        capacity: cfg.trace_capacity,
        window: cfg.window_batches,
        clock: Clock::start(),
    };

    let start = Instant::now();
    let mut results: Vec<(Vec<SegTask>, WorkerStats)> = Vec::with_capacity(workers);
    crossbeam::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for ((w, my_tasks), touch) in per_worker.into_iter().enumerate().zip(touch_lists) {
            let binding = bindings[w];
            handles.push(scope.spawn(move |_| {
                worker_loop(WorkerCtx {
                    g: graph,
                    plan: plan_ref,
                    rings: rings_ref,
                    gate: gate_ref,
                    barrier: barrier_ref,
                    worker: w,
                    binding,
                    cplan,
                    obs,
                    touch: if first_touch { Some(touch) } else { None },
                    adapt: adapt_ref,
                    tasks: my_tasks,
                    rounds,
                })
            }));
        }
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    })
    .expect("scope failed");
    let wall = start.elapsed();

    // Gather the sink digest and aggregate counts.
    let sink = graph.single_sink();
    let mut digest = None;
    let mut worker_stats = Vec::with_capacity(workers);
    for (tasks, ws) in results {
        if let Some(s) = sink {
            for task in &tasks {
                let seg = &plan.segments[task.seg];
                if let Some(i) = seg.nodes.iter().position(|&v| v == s) {
                    digest = task.kernels[i].digest();
                }
            }
        }
        worker_stats.push(ws);
    }
    worker_stats.sort_by_key(|w| w.worker);

    let firings: u64 = rounds * plan.firings_per_round();
    let sink_items = match sink {
        Some(s) => {
            let consume: u64 = graph
                .in_edges(s)
                .iter()
                .map(|&e| graph.edge(e).consume)
                .sum();
            rounds * plan.quota[s.idx()] * consume
        }
        None => 0,
    };
    let segments = plan.segments.len();
    Ok(DagRunStats {
        run: RunStats {
            wall,
            firings,
            sink_items,
            digest,
        },
        workers: worker_stats,
        t: plan.t,
        rounds,
        segments,
        counters_requested: cfg.counters,
        warmup: cplan.warmup,
        warmup_mode: cfg.warmup_mode,
        first_touch_rings: cfg.first_touch_rings,
        trace_enabled: cfg.trace,
        window_batches: cfg.window_batches,
    })
}

/// The §3 gate, generalized to dags: every input ring holds at least one
/// batch, every output ring has room for one.
#[inline]
fn schedulable(plan: &ExecPlan, rings: &[SpscRing], seg: usize) -> bool {
    let s = &plan.segments[seg];
    s.in_batch
        .iter()
        .all(|&(e, n)| rings[e.idx()].len() as u64 >= n)
        && s.out_batch
            .iter()
            .all(|&(e, n)| rings[e.idx()].space() as u64 >= n)
}

/// Stall attribution: the first failing gate among this worker's
/// unfinished, limit-eligible segments. Mirrors the [`schedulable`]
/// scan but names the edge — which ring starves or backpressures which
/// segment, and which peer segment is on its other end. Only called on
/// the stall path, and only when tracing is enabled, so the gate itself
/// never pays for it.
fn blocking_edge(
    g: &ccs_graph::StreamGraph,
    plan: &ExecPlan,
    rings: &[SpscRing],
    tasks: &[SegTask],
    limit: u64,
) -> Option<Blocked> {
    for task in tasks {
        if task.done >= limit {
            continue;
        }
        let s = &plan.segments[task.seg];
        for &(e, n) in &s.in_batch {
            if (rings[e.idx()].len() as u64) < n {
                return Some(Blocked {
                    edge: e.idx(),
                    seg: task.seg,
                    peer: plan.seg_of_node[g.edge(e).src.idx()],
                    reason: StallReason::ProducerEmpty,
                });
            }
        }
        for &(e, n) in &s.out_batch {
            if (rings[e.idx()].space() as u64) < n {
                return Some(Blocked {
                    edge: e.idx(),
                    seg: task.seg,
                    peer: plan.seg_of_node[g.edge(e).dst.idx()],
                    reason: StallReason::ConsumerFull,
                });
            }
        }
    }
    None
}

/// Everything one worker thread needs, bundled so the spawn site stays
/// readable.
struct WorkerCtx<'a> {
    g: &'a ccs_graph::StreamGraph,
    plan: &'a ExecPlan,
    rings: &'a [SpscRing],
    gate: &'a ProgressGate,
    barrier: &'a Rendezvous,
    worker: usize,
    binding: Option<CoreBinding>,
    cplan: CounterPlan,
    obs: ObsPlan,
    /// Ring indices this worker consumes from, to fault in before the
    /// start line; `None` when first-touch placement is off.
    touch: Option<Vec<usize>>,
    /// Shared migration runtime; `None` for static runs (the entire
    /// adaptive machinery then costs one never-taken branch per pass).
    adapt: Option<&'a AdaptRt>,
    tasks: Vec<SegTask>,
    rounds: u64,
}

fn worker_loop(ctx: WorkerCtx<'_>) -> (Vec<SegTask>, WorkerStats) {
    let WorkerCtx {
        g,
        plan,
        rings,
        gate,
        barrier,
        worker,
        binding,
        cplan,
        obs,
        touch,
        adapt,
        mut tasks,
        rounds,
    } = ctx;
    // The fused loop's port cursors: written every firing, so they live
    // in memory this thread allocates and owns, never next to another
    // worker's hot data. Reset at every batch start, they carry nothing
    // across batches (or migrations).
    let mut cursors: Vec<PortSpan> = Vec::new();
    // Pin first, then open counters: the self-monitoring group then
    // counts this thread on the core the placement chose for it.
    let pinned_cpu = binding.and_then(|b| pin_current_thread(b.cpu).pinned().then_some(b.cpu));
    let mut tracer = if obs.trace {
        Tracer::on(obs.capacity)
    } else {
        Tracer::off()
    };
    // First-touch before anything flows: fault in the rings this worker
    // consumes from, then wait at the start line so no producer can push
    // into a ring a (slower) consumer has not touched yet.
    let rings_touched = match &touch {
        Some(list) => {
            for &r in list {
                rings[r].first_touch();
                tracer.record(obs.clock.now_ns(), 0, EventKind::RingFirstTouch { ring: r });
            }
            barrier.wait();
            list.len() as u64
        }
        None => 0,
    };
    let counter_set = if cplan.requested {
        ccs_perf::CounterBuilder::cache_suite().open_self_thread()
    } else {
        ccs_perf::CounterSet::unavailable("counters not requested")
    };
    let mut stats = WorkerStats {
        worker,
        segments: tasks.iter().map(|t| t.seg).collect(),
        firings: 0,
        batches: 0,
        stalls: 0,
        stall_time: Duration::ZERO,
        busy: Duration::ZERO,
        pinned_cpu,
        counters: None,
        warmup_excluded: 0,
        segment_counters: Vec::new(),
        rings_touched,
        migrations: 0,
        windows: Vec::new(),
        trace: None,
    };
    let mut unproductive = 0u32;
    // Controller commands owed by this worker (decided at one of its own
    // window closes, or routed over from a peer's), plus the stall time
    // of the currently open window — the one controller input the
    // WindowSampler itself does not carry.
    let mut outbox: Vec<ccs_adapt::MigrationCmd> = Vec::new();
    let mut win_stall_ns = 0u64;
    let ctrl_on = adapt.is_some_and(|rt| rt.controller.is_some());
    // Steady-state gate: flips once every owned segment has executed
    // its warmup batches, at which point the group is zeroed so the
    // worker's final sample covers only post-warmup work. Checked at
    // the top of a scheduling pass — never between a counting window's
    // two reads — so per-segment windows always lie inside the
    // post-reset region and their raw sums stay <= the worker total.
    // Under [`WarmupMode::Epoch`] the scan below additionally caps
    // every segment at the warmup window until the all-worker
    // rendezvous, so the reset happens with *every* segment in the run
    // at exactly `warmup` batches and the worker aggregate is exact.
    let mut warmed = cplan.warmup == 0;
    // Counter windows ride on *cumulative* group reads differenced by
    // `delta_since`, so they never reset the group and cannot disturb
    // the end-of-run totals. The only reset in play is the warmup one,
    // which flushes the open window and re-baselines below.
    let mut wins = WindowSampler::new(obs.window);
    counter_set.reset();
    counter_set.enable();
    if wins.enabled() {
        wins.start(obs.clock.now_ns(), counter_set.sample());
    }
    loop {
        // Epoch snapshot *before* scanning: progress a peer makes during
        // the scan moves the epoch past this value, so a post-scan park
        // re-checks immediately instead of sleeping through the wakeup.
        let epoch = gate.epoch.load(Ordering::SeqCst);
        // Adaptive mailboxes first: segments handed to this worker join
        // its set before the scan, and handoffs this worker owes are
        // carried out now — at the same batch boundary the decision
        // quiesced them at (the segment has not run since).
        if let Some(rt) = adapt {
            if rt.inbox_flags[worker].swap(0, Ordering::SeqCst) != 0 {
                let incoming = std::mem::take(&mut *rt.inboxes[worker].lock());
                for t in incoming {
                    if !stats.segments.contains(&t.seg) {
                        stats.segments.push(t.seg);
                    }
                    tasks.push(t);
                }
            }
            if rt.cmd_flags[worker].swap(0, Ordering::SeqCst) != 0 {
                outbox.append(&mut rt.cmd_queues[worker].lock());
            }
            for cmd in std::mem::take(&mut outbox) {
                if cmd.to == worker {
                    continue;
                }
                // A command for a segment that already finished (or
                // moved on) is stale: dropping it is safe, the
                // controller's map self-corrects on the next window.
                if let Some(ti) = tasks.iter().position(|t| t.seg == cmd.seg) {
                    if tasks[ti].done < rounds {
                        hand_off(
                            rt,
                            &mut tasks,
                            ti,
                            cmd.to,
                            worker,
                            &mut stats,
                            &mut tracer,
                            &obs,
                            gate,
                        );
                    }
                }
            }
        }
        if !warmed && tasks.iter().all(|t| t.done >= cplan.warmup) {
            if cplan.epoch {
                // Capped at the window, every worker lands here with all
                // of its segments at exactly `warmup` batches; the
                // rendezvous makes the reset a run-wide instant.
                barrier.wait();
            }
            // The reset zeroes the cumulative reads any open counter
            // window is baselined on: flush the partial window first,
            // then re-baseline on the post-reset (zeroed) group.
            wins.flush(obs.clock.now_ns(), || counter_set.sample());
            counter_set.reset();
            if wins.enabled() {
                wins.rebaseline(obs.clock.now_ns(), counter_set.sample());
            }
            tracer.record(obs.clock.now_ns(), 0, EventKind::WarmupReset);
            stats.warmup_excluded = stats.batches;
            warmed = true;
        }
        // Pre-rendezvous, epoch mode confines segments to the warmup
        // window (a `rounds = warmup` prefix run, so it terminates by
        // the same argument as the run itself).
        let limit = if cplan.epoch && !warmed {
            cplan.warmup
        } else {
            rounds
        };
        let mut progressed = false;
        let mut all_done = true;
        let mut depart = None;
        let mut ti = 0;
        while ti < tasks.len() {
            // A scripted hop that is due quiesces the segment *before*
            // its next batch, so it departs at exactly the configured
            // boundary (including hops that arrived due with the task).
            if adapt.is_some() {
                while let Some(&m) = tasks[ti].pending.first() {
                    if tasks[ti].done < m.after_batches || tasks[ti].done >= rounds {
                        break;
                    }
                    tasks[ti].pending.remove(0);
                    // A hop to the current worker is a no-op, not a
                    // migration; keep scanning for the next due hop.
                    if m.to_worker != worker {
                        depart = Some((ti, m.to_worker));
                        break;
                    }
                }
                if depart.is_some() {
                    all_done = false;
                    break;
                }
            }
            let task = &mut tasks[ti];
            if task.done >= rounds {
                ti += 1;
                continue;
            }
            all_done = false;
            if task.done >= limit || !schedulable(plan, rings, task.seg) {
                ti += 1;
                continue;
            }
            // Per-segment counting window: post-warmup (both this
            // segment's and the worker-level reset), on-stride batches.
            // `sample()` is None when no group opened, so the window
            // quietly disappears on the Unavailable path.
            let window = cplan.per_segment
                && warmed
                && task.done >= cplan.warmup
                && (task.done - cplan.warmup).is_multiple_of(cplan.stride);
            let before = if window { counter_set.sample() } else { None };
            let t0 = Instant::now();
            let fp = &plan.fused[task.seg];
            let SegTask { arena, kernels, .. } = &mut *task;
            run_arena_batch(fp, rings, arena, &mut cursors, |local, ins, outs| {
                kernels[local].fire(ins, outs);
            });
            stats.firings += fp.order().len() as u64;
            let dur = t0.elapsed();
            stats.busy += dur;
            tracer.record(
                obs.clock.offset_ns(t0),
                dur.as_nanos() as u64,
                EventKind::Batch { seg: task.seg },
            );
            if tracer.enabled() {
                // Ring occupancy at the batch boundary: one instant per
                // ring this segment touches, all on one timestamp.
                let now = obs.clock.now_ns();
                let s = &plan.segments[task.seg];
                for &(e, _) in s.in_batch.iter().chain(s.out_batch.iter()) {
                    let r = &rings[e.idx()];
                    tracer.record(
                        now,
                        0,
                        EventKind::RingOccupancy {
                            ring: e.idx(),
                            len: r.len() as u64,
                            cap: r.capacity() as u64,
                        },
                    );
                }
            }
            if let Some(before) = before {
                if let Some(after) = counter_set.sample() {
                    task.acc.sample.merge(&after.delta_since(&before));
                    task.acc.batches_counted += 1;
                }
            }
            if cplan.per_segment {
                task.acc.batches += 1;
            }
            task.done += 1;
            stats.batches += 1;
            if ctrl_on {
                task.win_ns += dur.as_nanos() as u64;
                task.win_batches += 1;
            }
            let finished = task.done >= rounds;
            if let Some(rt) = adapt {
                if finished {
                    rt.remaining.fetch_sub(1, Ordering::SeqCst);
                }
            }
            if wins.enabled() {
                if let Some(index) = wins.on_batch(obs.clock.now_ns(), || counter_set.sample()) {
                    tracer.record(obs.clock.now_ns(), 0, EventKind::Window { index });
                    // Feed the controller on the closed window; its
                    // decisions land in `outbox` (own segments, carried
                    // out at the top of the next pass — no further
                    // batch of theirs runs in between) or a peer's
                    // command queue.
                    if ctrl_on && warmed {
                        if let Some(rt) = adapt {
                            feed_controller(
                                rt,
                                &wins,
                                &mut tasks,
                                worker,
                                win_stall_ns,
                                &mut outbox,
                                gate,
                            );
                            win_stall_ns = 0;
                        }
                    }
                }
            }
            progressed = true;
            gate.bump();
            ti += 1;
        }
        if let (Some(rt), Some((ti, to))) = (adapt, depart) {
            hand_off(
                rt,
                &mut tasks,
                ti,
                to,
                worker,
                &mut stats,
                &mut tracer,
                &obs,
                gate,
            );
            unproductive = 0;
            continue;
        }
        if all_done {
            // With tasks mobile, an empty local plate is not the end of
            // the run: another worker may still hand a segment over.
            // Only the run-wide count proves completion.
            let run_done = match adapt {
                None => true,
                Some(rt) => rt.remaining.load(Ordering::SeqCst) == 0,
            };
            if run_done {
                break;
            }
        }
        if progressed {
            unproductive = 0;
            continue;
        }
        stats.stalls += 1;
        unproductive += 1;
        // Attribute the stall while the blocking ring state is current
        // (before yielding lets a peer drain or fill it).
        let blocked = if tracer.enabled() {
            blocking_edge(g, plan, rings, &tasks, limit)
        } else {
            None
        };
        let t0 = Instant::now();
        let parked = unproductive > SPIN_PASSES;
        if !parked {
            std::thread::yield_now();
        } else {
            gate.park_if_stale(epoch);
        }
        let dur = t0.elapsed();
        stats.stall_time += dur;
        if ctrl_on {
            win_stall_ns += dur.as_nanos() as u64;
        }
        tracer.record(
            obs.clock.offset_ns(t0),
            dur.as_nanos() as u64,
            EventKind::Stall { parked, blocked },
        );
    }
    stats.windows = wins.finish(obs.clock.now_ns(), || counter_set.sample());
    counter_set.disable();
    stats.counters = counter_set.sample();
    stats.segment_counters = if cplan.per_segment {
        tasks.iter().map(|t| t.acc.clone()).collect()
    } else {
        Vec::new()
    };
    stats.trace = tracer.finish();
    (tasks, stats)
}

/// Release `tasks[ti]` to worker `to`: record the migration (an instant
/// on the releasing worker's timeline, at the batch boundary where the
/// segment was quiesced), count it, and push the task — kernels,
/// arena, counter attribution and all — through the target's mutex
/// inbox. The lock is the happens-before edge that makes the segment's
/// SPSC ring endpoints safe to drive from the receiving thread; the
/// receiving worker is already pinned to its own planned core, so under
/// `pin_cores` the segment lands cache-resident on the target core with
/// no re-pinning step.
#[allow(clippy::too_many_arguments)]
fn hand_off(
    rt: &AdaptRt,
    tasks: &mut Vec<SegTask>,
    ti: usize,
    to: usize,
    worker: usize,
    stats: &mut WorkerStats,
    tracer: &mut Tracer,
    obs: &ObsPlan,
    gate: &ProgressGate,
) {
    let task = tasks.remove(ti);
    tracer.record(
        obs.clock.now_ns(),
        0,
        EventKind::Migration {
            seg: task.seg,
            from: worker,
            to,
        },
    );
    stats.migrations += 1;
    {
        let mut inbox = rt.inboxes[to].lock();
        inbox.push(task);
        rt.inbox_flags[to].store(1, Ordering::SeqCst);
    }
    gate.bump();
}

/// Reduce the window that just closed to a [`ccs_adapt::WindowReport`],
/// let the controller absorb it, and route any decided handoffs: this
/// worker's own segments into `outbox`, segments owed by a peer into
/// that peer's command queue (with a wakeup bump so a parked peer acts
/// within the park timeout).
fn feed_controller(
    rt: &AdaptRt,
    wins: &WindowSampler,
    tasks: &mut [SegTask],
    worker: usize,
    stall_ns: u64,
    outbox: &mut Vec<ccs_adapt::MigrationCmd>,
    gate: &ProgressGate,
) {
    let (Some(ctrl), Some(w)) = (&rt.controller, wins.last()) else {
        return;
    };
    let segments: Vec<ccs_adapt::SegCost> = tasks
        .iter()
        .filter(|t| t.win_batches > 0)
        .map(|t| ccs_adapt::SegCost {
            seg: t.seg,
            batches: t.win_batches,
            ns: t.win_ns,
        })
        .collect();
    let report = ccs_adapt::WindowReport {
        worker,
        window_index: w.index,
        mpki: w.sample.as_ref().and_then(|s| s.mpki()),
        span_ns: w.end_ns.saturating_sub(w.start_ns),
        batches: w.batches,
        stall_ns,
        segments,
    };
    for t in tasks.iter_mut() {
        t.win_ns = 0;
        t.win_batches = 0;
    }
    let cmds = ctrl.lock().observe(&report);
    for cmd in cmds {
        if cmd.from == worker {
            outbox.push(cmd);
        } else {
            rt.cmd_queues[cmd.from].lock().push(cmd);
            rt.cmd_flags[cmd.from].store(1, Ordering::SeqCst);
            gate.bump();
        }
    }
}

/// Port arity covered by the fused loop's stack-allocated view arrays.
const FUSED_MAX_PORTS: usize = 8;

/// The fused inner loop: run a compiled firing sequence against its
/// arena, issuing a software prefetch on the next firing's input spans,
/// and dispatch each firing through `fire(local, inputs, outputs)`.
/// `cursors` receives one entry per entry of the plan's port table:
/// reset to the table here, each cursor's `base` then advances by its
/// `rate` after every firing of its member, so the k-th firing sits at
/// `base + k·rate`. The caller keeps the buffer across batches, so its
/// capacity is allocated once.
fn fire_arena_plan<F>(fp: &FiringPlan, arena: &mut [f32], cursors: &mut Vec<PortSpan>, mut fire: F)
where
    F: FnMut(usize, &[&[f32]], &mut [&mut [f32]]),
{
    assert!(arena.len() >= fp.arena_len);
    let (order, node_ports) = (fp.order(), fp.node_ports());
    assert!(node_ports
        .iter()
        .all(|np| np.range().end <= fp.ports().len()));
    cursors.clear();
    cursors.extend_from_slice(fp.ports());
    // Cursors are reached through a raw pointer, not per-port slices:
    // the bounds checks those add cost measurably in this loop.
    //
    // SAFETY (covers every `unsafe` below): every member's port range
    // lies inside `cursors` (checked above; `cursors` mirrors the port
    // table), and `order` entries index `node_ports` through a
    // bounds check. Port views are raw-pointer slices into the arena:
    // only `compile_firing_plan` builds a plan, sizing every port region
    // at `quota·rate` items within `arena_len` and replaying the order so
    // no member fires more than `quota` times, so no cursor leaves its
    // region; regions are pairwise disjoint and a firing's input and
    // output edges are distinct (the graph is a dag, so no self-loops),
    // hence one firing's views never alias; views do not outlive the
    // firing, and nothing else touches the arena while they are live.
    // A view slot array is read only up to the slots written for the
    // firing at hand.
    let base = arena.as_mut_ptr();
    let cursor = cursors.as_mut_ptr();
    let view = |c: *mut PortSpan| unsafe {
        let span = std::slice::from_raw_parts_mut(base.add((*c).base), (*c).rate);
        (*c).base += (*c).rate;
        span
    };
    let mut next = order.iter().skip(1);
    for &local in order {
        let np = node_ports[local as usize];
        let ports = unsafe { cursor.add(np.start as usize) };
        let (n_in, n_out) = (np.inputs as usize, np.outputs as usize);
        // Views first (advancing the cursors), then the prefetch, which
        // reads the next firing's cursors — advanced already if it is
        // this member again.
        if n_in <= FUSED_MAX_PORTS && n_out <= FUSED_MAX_PORTS {
            // Only the slots in use are written: initializing all of
            // them costs measurably per firing.
            let mut ins = [const { MaybeUninit::<&[f32]>::uninit() }; FUSED_MAX_PORTS];
            for (j, slot) in ins[..n_in].iter_mut().enumerate() {
                slot.write(view(unsafe { ports.add(j) }));
            }
            let mut outs = [const { MaybeUninit::<&mut [f32]>::uninit() }; FUSED_MAX_PORTS];
            for (j, slot) in outs[..n_out].iter_mut().enumerate() {
                slot.write(view(unsafe { ports.add(n_in + j) }));
            }
            prefetch_inputs(node_ports, cursor, base, next.next());
            // SAFETY: the first `n_in` and `n_out` slots were written above.
            let ins = unsafe { std::slice::from_raw_parts(ins.as_ptr().cast::<&[f32]>(), n_in) };
            let outs = unsafe {
                std::slice::from_raw_parts_mut(outs.as_mut_ptr().cast::<&mut [f32]>(), n_out)
            };
            fire(local as usize, ins, outs);
        } else {
            let ins: Vec<&[f32]> = (0..n_in).map(|j| &*view(unsafe { ports.add(j) })).collect();
            let mut outs: Vec<&mut [f32]> = (n_in..n_in + n_out)
                .map(|j| view(unsafe { ports.add(j) }))
                .collect();
            prefetch_inputs(node_ports, cursor, base, next.next());
            fire(local as usize, &ins, &mut outs);
        }
    }

    /// Prefetch the input spans of the firing after the current one.
    #[inline]
    fn prefetch_inputs(
        node_ports: &[NodePorts],
        cursor: *const PortSpan,
        base: *const f32,
        next: Option<&u32>,
    ) {
        if let Some(&next) = next {
            let np = node_ports[next as usize];
            for j in 0..np.inputs as usize {
                // SAFETY: as in the loop above; a prefetch is only a hint.
                ccs_runtime::prefetch_read(unsafe {
                    base.add((*cursor.add(np.start as usize + j)).base)
                });
            }
        }
    }
}

/// Execute one batch of a segment: bulk-load every cross input ring
/// into the segment arena (one `peek`/`release` per edge), run the
/// compiled firing sequence through [`fire_arena_plan`], then
/// bulk-store the cross outputs (one `reserve`/`commit` per edge).
/// Internal edges never touch a ring. The one batch protocol of both
/// the worker loop and [`crate::serial_fused`].
pub(crate) fn run_arena_batch<F>(
    fp: &FiringPlan,
    rings: &[SpscRing],
    arena: &mut [f32],
    cursors: &mut Vec<PortSpan>,
    fire: F,
) where
    F: FnMut(usize, &[&[f32]], &mut [&mut [f32]]),
{
    for io in &fp.loads {
        let r = &rings[io.edge.idx()];
        let (a, b) = r.peek(io.items);
        arena[io.offset..io.offset + a.len()].copy_from_slice(a);
        arena[io.offset + a.len()..io.offset + io.items].copy_from_slice(b);
        r.release(io.items);
    }
    fire_arena_plan(fp, arena, cursors, fire);
    for io in &fp.stores {
        let r = &rings[io.edge.idx()];
        let (a, b) = r.reserve(io.items);
        let n = a.len();
        a.copy_from_slice(&arena[io.offset..io.offset + n]);
        b.copy_from_slice(&arena[io.offset + n..io.offset + io.items]);
        r.commit(io.items);
    }
}

/// One ring per edge, indexed by edge id: cross edges at their plan
/// capacity (double-buffered batches), internal edges as one-slot
/// placeholders — their streams live in the segment arenas.
pub(crate) fn batch_rings(plan: &ExecPlan, g: &ccs_graph::StreamGraph) -> Vec<SpscRing> {
    g.edge_ids()
        .map(|e| {
            let edge = g.edge(e);
            let internal = plan.seg_of_node[edge.src.idx()] == plan.seg_of_node[edge.dst.idx()];
            let cap = if internal {
                1
            } else {
                usize::try_from(plan.capacities[e.idx()].max(1)).expect("ring fits")
            };
            SpscRing::new(cap)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccs_graph::gen::{self, LayeredCfg, PipelineCfg, StateDist};
    use ccs_partition::dag_greedy;
    use ccs_sched::partitioned;
    use ccs_topo::TopoSpec;

    /// Serial reference: same number of granularity-T rounds through the
    /// serial executor.
    fn serial_digest(
        g: &ccs_graph::StreamGraph,
        ra: &RateAnalysis,
        p: &Partition,
        m: u64,
        rounds: u64,
    ) -> Option<u64> {
        let run = partitioned::inhomogeneous(g, ra, p, m, rounds).unwrap();
        let mut inst = Instance::synthetic(g.clone());
        ccs_runtime::serial::execute(&mut inst, &run).digest
    }

    #[test]
    fn matches_serial_on_layered_dags() {
        let cfg = LayeredCfg {
            layers: 4,
            max_width: 3,
            density: 0.3,
            state: StateDist::Uniform(8, 48),
            max_q: 3,
        };
        for seed in 0..5u64 {
            let g = gen::layered(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let p = dag_greedy::greedy_topo(&g, 96);
            let want = serial_digest(&g, &ra, &p, 48, 3);
            for workers in [1usize, 2, 4] {
                let inst = Instance::synthetic(g.clone());
                let stats =
                    execute_dag(inst, &ra, &p, 48, 3, workers, Placement::RoundRobin).unwrap();
                assert_eq!(stats.run.digest, want, "seed {seed} workers {workers}");
                assert_eq!(
                    stats.workers.iter().map(|w| w.batches).sum::<u64>(),
                    3 * stats.segments as u64
                );
            }
        }
    }

    #[test]
    fn matches_serial_on_rated_pipelines() {
        for seed in 0..4u64 {
            let cfg = PipelineCfg {
                len: 10,
                state: StateDist::Uniform(8, 48),
                max_q: 3,
                max_rate_scale: 2,
            };
            let g = gen::pipeline(&cfg, seed);
            let ra = RateAnalysis::analyze_single_io(&g).unwrap();
            let pp = ccs_partition::pipeline::greedy_theorem5(&g, &ra, 48).unwrap();
            let want = serial_digest(&g, &ra, &pp.partition, 48, 2);
            for placement in [Placement::RoundRobin, Placement::CommGreedy, Placement::Llc] {
                let inst = Instance::synthetic(g.clone());
                let stats = execute_dag(inst, &ra, &pp.partition, 48, 2, 3, placement).unwrap();
                assert_eq!(
                    stats.run.digest, want,
                    "seed {seed} placement {placement:?}"
                );
            }
        }
    }

    #[test]
    fn firings_and_sink_items_are_exact() {
        let g = gen::pipeline_uniform(8, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 16, 4, 2, Placement::RoundRobin).unwrap();
        // Homogeneous: T = m, every node fires T times per round.
        assert_eq!(stats.t, 16);
        assert_eq!(stats.run.firings, 4 * 16 * g.node_count() as u64);
        assert_eq!(stats.run.sink_items, 4 * 16);
        let total: u64 = stats.workers.iter().map(|w| w.firings).sum();
        assert_eq!(total, stats.run.firings);
    }

    #[test]
    fn single_segment_runs_serially() {
        let g = gen::pipeline_uniform(5, 16);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = Partition::whole(&g);
        let want = serial_digest(&g, &ra, &p, 32, 2);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 32, 2, 4, Placement::CommGreedy).unwrap();
        assert_eq!(stats.segments, 1);
        assert_eq!(stats.run.digest, want);
    }

    #[test]
    fn zero_rounds_is_a_noop() {
        let g = gen::pipeline_uniform(4, 8);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 16);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 8, 0, 2, Placement::RoundRobin).unwrap();
        assert_eq!(stats.run.firings, 0);
        assert_eq!(stats.run.sink_items, 0);
    }

    #[test]
    fn oversubscribed_run_parks_instead_of_spinning() {
        // Far more workers than segments can occupy: the idle workers
        // must fall through the spin tier into the condvar and still
        // terminate with the right digest.
        let g = gen::pipeline_uniform(12, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let want = serial_digest(&g, &ra, &p, 32, 8);
        let inst = Instance::synthetic(g.clone());
        let stats = execute_dag(inst, &ra, &p, 32, 8, 8, Placement::RoundRobin).unwrap();
        assert_eq!(stats.run.digest, want);
        // Stall wall-clock is measured (some worker must have waited).
        assert!(stats.total_stalls() > 0);
        assert!(stats.total_stall_time() > Duration::ZERO);
    }

    #[test]
    fn pinned_run_matches_unpinned_digest() {
        let g = gen::pipeline_uniform(10, 32);
        let ra = RateAnalysis::analyze_single_io(&g).unwrap();
        let p = dag_greedy::greedy_topo(&g, 64);
        let topo = Topology::synthetic(&TopoSpec::new(1, 2, 2));
        let mut digests = Vec::new();
        for pin in [false, true] {
            let cfg = RunConfig::new(3)
                .with_placement(Placement::Llc)
                .with_topology(topo.clone())
                .with_pinning(pin);
            let inst = Instance::synthetic(g.clone());
            let stats = execute_dag_cfg(inst, &ra, &p, 32, 4, &cfg).unwrap();
            digests.push(stats.run.digest);
            if !pin {
                assert!(stats.workers.iter().all(|w| w.pinned_cpu.is_none()));
            }
        }
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn run_config_builder() {
        let topo = Topology::single_cluster(2);
        let cfg = RunConfig::new(4)
            .with_placement(Placement::Llc)
            .with_topology(topo)
            .with_pinning(true);
        assert_eq!(cfg.workers, 4);
        assert_eq!(cfg.placement, Placement::Llc);
        assert!(cfg.pin_cores);
        assert!(cfg.topology.is_some());
    }
}
