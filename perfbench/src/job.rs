//! One job: the whole path from graph bytes to a joined execution,
//! each public call timed from outside.

use crate::host;
use crate::probe::{self, Stamps};
use crate::workload::Workload;
use ccs_core::Planner;
use ccs_exec::{execute_dag_cfg, DagRunStats, RunConfig};
use ccs_graph::{RateAnalysis, StreamGraph};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The executor configuration of every job: `workers` threads on the
/// fused batch path, with placement, pinning, counters and tracing at
/// the library defaults. This is the one place the batch path is
/// selected.
pub fn exec_config(workers: usize) -> RunConfig {
    RunConfig::new(workers).with_fused(true)
}

/// Latency samples aimed for per job.
const STAMPS_PER_JOB: u64 = 10_000;

/// One span of the benchmark's own trace: a public call (or the whole
/// job) with its parent, timed against the run's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// The job this span belongs to.
    pub job: u64,
    pub name: &'static str,
    /// `None` for the job's root span, else the root (`"job"`).
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The steps of the job path, in order; each becomes a child span.
pub const STEPS: [&str; 5] = [
    "graph.parse",
    "graph.rate_analysis",
    "partition.partition",
    "apps.bind",
    "exec.execute",
];

/// What one job measured.
pub struct Job {
    /// Wall time from graph bytes to `execute_dag_cfg` return.
    pub total: Duration,
    /// Outside wall time of each of [`STEPS`], in order.
    pub steps: [Duration; 5],
    /// Process CPU time over the `execute_dag_cfg` call.
    pub cpu: Duration,
    pub stats: DagRunStats,
    /// Exact bandwidth of the chosen partition.
    pub bandwidth: f64,
    pub latencies_ns: Vec<u64>,
    /// Peak resident memory of the process, reset at the job's start
    /// where the kernel allows it.
    pub peak_rss: Option<u64>,
    pub spans: Vec<Span>,
}

impl Job {
    /// Outside wall time of the `execute_dag_cfg` call.
    pub fn execute(&self) -> Duration {
        self.steps[4]
    }
}

/// Everything a job needs besides its own inputs.
pub struct JobCtx<'a> {
    pub workload: &'a Workload,
    pub planner: Planner,
    pub workers: usize,
    /// Input-stream offset selected by the seed.
    pub offset: f32,
    /// Steady-state iterations per round (for latency stamping).
    pub iterations_per_round: u64,
    /// Origin of every span timestamp in the run.
    pub origin: Instant,
}

impl JobCtx<'_> {
    /// Run job `id` for `rounds` rounds; `trace` turns on the
    /// executor's per-worker timeline.
    pub fn run(&self, id: u64, rounds: u64, trace: bool) -> Result<Job, String> {
        let w = self.workload;
        let stamps = (rounds > 0).then(|| {
            Arc::new(Stamps::new(
                rounds * self.iterations_per_round,
                STAMPS_PER_JOB,
            ))
        });
        let cfg = exec_config(self.workers).with_trace(trace);
        host::reset_peak_rss();
        let mut marks = [Instant::now(); 6];

        let bytes = w.graph_json.as_str();
        marks[0] = Instant::now();
        let g: StreamGraph =
            serde_json::from_str(bytes).map_err(|e| format!("graph parse: {e:?}"))?;
        marks[1] = Instant::now();
        let ra = RateAnalysis::analyze_single_io(&g).map_err(|e| format!("rates: {e}"))?;
        marks[2] = Instant::now();
        let (partition, bandwidth, _) = self
            .planner
            .partition(&g, &ra)
            .map_err(|e| format!("partition: {e}"))?;
        marks[3] = Instant::now();
        let inst = probe::wrap(w.bind(g), &ra, self.offset, stamps.clone());
        marks[4] = Instant::now();
        let cpu0 = host::process_cpu_time();
        let stats = execute_dag_cfg(
            inst,
            &ra,
            &partition,
            self.planner.params.capacity,
            rounds,
            &cfg,
        )
        .map_err(|e| format!("execute: {e}"))?;
        marks[5] = Instant::now();
        let cpu = host::process_cpu_time().saturating_sub(cpu0);

        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let mut spans = vec![Span {
            job: id,
            name: "job",
            parent: None,
            start_ns: ns(marks[0]),
            end_ns: ns(marks[5]),
        }];
        let mut steps = [Duration::ZERO; 5];
        for (i, name) in STEPS.iter().enumerate() {
            steps[i] = marks[i + 1] - marks[i];
            spans.push(Span {
                job: id,
                name,
                parent: Some("job"),
                start_ns: ns(marks[i]),
                end_ns: ns(marks[i + 1]),
            });
        }
        Ok(Job {
            total: marks[5] - marks[0],
            steps,
            cpu,
            stats,
            bandwidth: bandwidth.to_f64(),
            latencies_ns: stamps.map_or_else(Vec::new, |s| s.latencies_ns()),
            peak_rss: host::peak_rss_bytes(),
            spans,
        })
    }
}
