//! # ccs-exec — cache-aware multicore DAG executor
//!
//! Where `ccs-runtime::serial` replays one flat firing sequence as the
//! naive oracle, this crate runs an arbitrary well-ordered c-bounded
//! [`ccs_partition::Partition`] of a general streaming dag on real
//! threads:
//!
//! * **Segment affinity.** Every segment (partition component) is
//!   pinned to exactly one worker thread for the whole run, so a
//!   segment's module state stays in the cache of whichever core runs
//!   that worker — the multicore reading of the paper's two-level
//!   schedule, where a "component load" becomes a per-worker working
//!   set. (Affinity is segment→thread; add
//!   [`run::RunConfig::pin_cores`] to also bind threads to cores, so
//!   the OS cannot migrate a worker away from its cache.)
//! * **×T batches.** Each segment executes its local steady-state
//!   schedule in batches of the §3 granularity `T`
//!   ([`ccs_sched::partitioned::granularity_t`]): one batch moves exactly
//!   `T·gain(e)` items over every incident cross edge, so segment loads
//!   amortize over `Ω(M)` items of traffic.
//! * **Half-full/half-empty continuity.** Cross-segment channels are
//!   lock-free [`ccs_runtime::SpscRing`]s of capacity `2·T·gain(e)`
//!   (double-buffered). A segment is *schedulable* when every input ring
//!   holds at least one batch and every output ring has room for one —
//!   exactly the paper's §3 rule, generalized from chains to dags. A
//!   ring's producer and consumer segments run concurrently; the SPSC
//!   protocol plus static pinning (one pushing worker, one popping
//!   worker per ring) makes that safe without locks on the data plane.
//! * **Topology awareness.** [`Placement::Llc`] scores candidate
//!   workers by cross-edge traffic discounted by hardware distance over
//!   a `ccs-topo` machine tree (same core > same LLC > same node >
//!   cross node), and [`run::RunConfig::pin_cores`] binds each worker
//!   to its planned core so the OS can't migrate the working set away.
//! * **Measured cache behavior.** With [`run::RunConfig::counters`],
//!   each worker opens a `ccs-perf` hardware counter group after
//!   pinning and samples it around its firing loop, so per-worker and
//!   run-wide LLC misses/item, MPKI, and IPC are reported per placement
//!   mode — the paper's cache claim, observed rather than inferred
//!   (graceful `counters: None` where `perf_event_open` is denied).
//!   [`run::RunConfig::warmup_batches`] discards a cold-start window so
//!   readings reflect steady state (exact under the default
//!   [`run::WarmupMode::Epoch`] barrier reset, which makes per-worker
//!   aggregates cover exactly the post-warmup batches),
//!   [`run::RunConfig::segment_counters`] attributes counting windows
//!   to individual segments ([`stats::SegmentCounters`]), and
//!   [`run::RunConfig::first_touch_rings`] faults each ring's pages in
//!   from its consumer worker for first-touch NUMA placement;
//!   methodology in `docs/MEASUREMENT.md`.
//! * **Time-resolved observability.** With [`run::RunConfig::trace`],
//!   each worker records batch and stall spans, warmup resets, and
//!   ring first-touches into a private bounded `ccs-obs` event ring
//!   (drops counted, never silent), and
//!   [`run::RunConfig::window_batches`] closes a counter window every
//!   W batches — cumulative group reads differenced by
//!   `delta_since` into [`stats::WorkerStats::windows`] — so warmup
//!   decay and phase behavior are visible, not just end-of-run
//!   aggregates. `ccs trace` exports the merged timelines as Chrome
//!   trace-event JSON; event model in `docs/OBSERVABILITY.md`.
//! * **Online adaptation.** With [`run::RunConfig::adapt`], a
//!   `ccs-adapt` controller consumes the live window stream and hands
//!   segments off between workers at batch boundaries — without
//!   stopping the stream — when counter drift or stall pressure says
//!   the static placement went stale ([`run::Migration`] scripts the
//!   same handoff deterministically for the equivalence proofs;
//!   protocol in `docs/ADAPTIVE.md`).
//! * **One batch executor (the fused path).** Every batch runs through
//!   the segment's precompiled [`ccs_partition::FiringPlan`]: cross
//!   inputs bulk-loaded into a flat per-segment arena (one
//!   `peek`/`release` per ring per batch), firings executing against
//!   arena spans derived from per-port cursors with a software prefetch
//!   on the next firing's inputs, cross outputs bulk-stored (one
//!   `reserve`/`commit` per ring per batch). Internal edges never touch
//!   a ring; their rings are one-slot placeholders.
//!   [`serial_fused::execute_serial_fused`] runs the same batch body on
//!   one thread; layout and measured deltas in `docs/HOTPATH.md`.
//! * **Determinism.** Synchronous dataflow is schedule-deterministic, so
//!   the sink digest is bit-identical to the serial executor's for the
//!   same number of batches, at every worker count, placement, and
//!   pinning mode — the correctness contract the test suite enforces.
//!
//! Layers: [`plan::ExecPlan`] (batch schedules + ring capacities),
//! [`place`] (segment→worker placement, flat or topology-aware),
//! [`run::execute_dag_cfg`] (the worker loop: bounded spin → condvar
//! stall path, optional core pinning), [`stats`] (per-worker and
//! aggregate reports, including wall-clock stall time).

pub mod place;
pub mod plan;
pub mod run;
pub mod serial_fused;
pub mod stats;

#[doc(no_inline)]
pub use ccs_adapt::AdaptConfig;
#[doc(no_inline)]
pub use ccs_obs::{Timeline, WindowSample};
pub use place::{assign_on, fair_share, Placement};
pub use plan::{DagExecError, ExecPlan, SegmentPlan};
pub use run::{execute_dag, execute_dag_cfg, Migration, RunConfig, WarmupMode};
pub use serial_fused::execute_serial_fused;
pub use stats::{DagRunStats, SegmentCounters, WorkerStats};
