//! # ccs-perfbench — the repository benchmark
//!
//! Drives the public API of the workspace crates from outside, one
//! *job* at a time: StreamGraph JSON parse, `RateAnalysis`,
//! `Planner::partition`, kernel binding, and `execute_dag_cfg` on the
//! fused path with at most two workers. Every job's sink digest is
//! checked against the serial oracle, computed once per run outside
//! the timed region.
//!
//! A run with `trace = false` reports the end-to-end metrics
//! ([`END_TO_END`]); a run with `trace = true` reports the per-layer
//! metrics ([`PER_LAYER`]), prints the layer ledger, and writes the
//! benchmark's spans together with the executor's timeline.

pub mod host;
pub mod job;
pub mod layers;
pub mod probe;
pub mod reference;
pub mod stats;
pub mod workload;

use job::{Job, JobCtx};
use reference::Reference;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// End-to-end metrics: name and unit, in report order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("job_s", "s"),
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("cpu_s_per_mitem", "s/Mitem"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("dam_misses_per_input", "misses/input"),
];

/// Per-layer metrics, named by crate: name and unit, in report order.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("graph.parse_ms", "ms"),
    ("graph.rate_analysis_ms", "ms"),
    ("apps.bind_ms", "ms"),
    ("partition.partition_ms", "ms"),
    ("exec.plan_build_ms", "ms"),
    ("exec.place_ms", "ms"),
    ("exec.spawn_join_ms", "ms"),
    ("partition.segments", "count"),
    ("partition.bandwidth", "items/firing"),
    ("partition.max_segment_state_words", "words"),
    ("exec.cross_bytes_per_item", "B/item"),
    ("cachesim.state_misses_per_input", "misses/input"),
    ("cachesim.buffer_misses_per_input", "misses/input"),
    ("exec.arena_words", "words"),
    ("exec.cross_ring_words", "words"),
    ("exec.busy_share", "ratio"),
    ("exec.stall_share", "ratio"),
    ("exec.stalls_per_batch", "stalls/batch"),
    ("runtime.kernel_ns_per_firing", "ns"),
    ("runtime.ring_ns_per_item", "ns"),
    ("exec.serial_fused_items_per_s", "1/s"),
    ("runtime.oracle_items_per_s", "1/s"),
    ("sched.granularity_t", "count"),
    ("exec.firings_per_item", "firings/item"),
    ("cachesim.replay_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("insight.stall_share", "ratio"),
];

/// Workers of every job: two, capped at the host's CPUs.
pub const MAX_WORKERS: usize = 2;

/// Samples the latency percentile needs beyond it.
pub const MIN_BEYOND_P99: usize = 10;

/// Percentile of a run's jobs that `job_s`, `cpu_s_per_mitem` and
/// `latency_p50_ms` report (and, from the other side, `items_per_s`):
/// the least-disturbed decile. On a shared host another tenant's load
/// only ever slows a two-worker job and adds to its spin-waits, in
/// bursts that inflate the median of a run by up to a third; the
/// least-disturbed decile tracks the program's own cost.
pub const FAST_PERCENTILE: f64 = 10.0;

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Override of the layered-DAG seed.
    pub dag_seed: Option<u64>,
    /// Test-sized jobs.
    pub smoke: bool,
    /// Flip the oracle digest, to prove the gate fails the run.
    pub corrupt_oracle: bool,
    /// Where results, traces and the cross-run count records go;
    /// `None` writes nothing.
    pub out_dir: Option<PathBuf>,
}

impl Options {
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Options {
        Options {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            dag_seed: None,
            smoke: false,
            corrupt_oracle: false,
            out_dir: None,
        }
    }
}

/// What a run produced: the result line's fields, plus the report
/// printed above it.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Run-level failures (gate, guard, sample-count), one per line.
    pub errors: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Latency samples of an end-to-end run, and the fewest any one
    /// job's histogram holds beyond its p99 (zero for a traced run).
    pub latency_samples: usize,
    pub latency_beyond_p99: usize,
    /// Human-readable report lines.
    pub report: Vec<String>,
    pub host: Value,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self) -> Value {
        let metrics = Value::Object(
            self.metrics
                .iter()
                .map(|&(name, value, unit)| {
                    (name.to_string(), json!({"value": value, "unit": unit}))
                })
                .collect(),
        );
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        })
    }
}

/// Jobs attempted and failed against the oracle gate.
#[derive(Default)]
pub(crate) struct Gate {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Gate {
    /// Count one job; keep it only if it ran and matches the oracle.
    pub(crate) fn check(
        &mut self,
        job: Result<Job, String>,
        rounds: u64,
        want_digest: Option<u64>,
        r: &Reference,
    ) -> Option<Job> {
        self.attempted += 1;
        let verdict = job.and_then(|j| {
            let (digest, items) = if rounds == 0 {
                (r.empty_digest, 0)
            } else {
                (want_digest, r.sink_items)
            };
            if j.stats.run.digest != digest || j.stats.run.sink_items != items {
                return Err(format!(
                    "oracle mismatch at {rounds} rounds: digest {:?} / {} items, want {:?} / {}",
                    j.stats.run.digest, j.stats.run.sink_items, digest, items
                ));
            }
            if rounds > 0 {
                r.check_job(
                    j.stats.t,
                    j.stats.segments,
                    j.bandwidth,
                    j.stats.run.firings,
                    j.stats.run.sink_items,
                )?;
            }
            Ok(j)
        });
        match verdict {
            Ok(j) => Some(j),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// Count a failure of something checked outside a job.
    pub(crate) fn fail(&mut self, e: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Everything a measured loop needs.
pub(crate) struct Setup<'a> {
    pub opts: &'a Options,
    pub reference: Reference,
    /// The digest every full job must reproduce.
    pub expected_digest: Option<u64>,
    pub ctx: JobCtx<'a>,
    pub min_iterations: usize,
}

impl Setup<'_> {
    pub(crate) fn rounds(&self) -> u64 {
        self.ctx.workload.rounds
    }

    /// True once the loop has run its time and its minimum iterations.
    pub(crate) fn done(&self, start: Instant, iterations: usize) -> bool {
        iterations >= self.min_iterations
            && start.elapsed() >= Duration::from_secs_f64(self.opts.seconds)
    }
}

/// Run the benchmark.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let w = workload::build(&opts.workload, opts.smoke, opts.dag_seed)?;
    let planner = ccs_core::Planner::new(w.params);
    let workers = host::nproc().min(MAX_WORKERS);
    let offset = probe::seed_offset(opts.seed);
    let reference = Reference::compute(&w, &planner, offset)?;
    let expected_digest = if opts.corrupt_oracle {
        Some(reference.digest.unwrap_or(0) ^ 1)
    } else {
        reference.digest
    };
    let mut report = vec![format!(
        "workload {}: {} modules, {} edges, M={} B={}, T={}, {} segments, {} rounds/job, dag seed {}, seed {} (stream offset {offset}), {workers} workers",
        w.name,
        w.graph.node_count(),
        w.graph.edge_count(),
        w.params.capacity,
        w.params.block,
        reference.plan.t,
        reference.plan.segments.len(),
        w.rounds,
        w.dag_seed.map_or("-".to_string(), |s| s.to_string()),
        opts.seed,
    )];
    report.push(format!(
        "deterministic counts: {}",
        reference
            .counts
            .iter()
            .map(|(name, v)| format!("{name}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut gate = Gate::default();
    if let Some(dir) = &opts.out_dir {
        let key = format!(
            "{}-dag{}-seed{}{}",
            w.name,
            w.dag_seed.map_or("none".to_string(), |s| s.to_string()),
            opts.seed,
            if opts.smoke { "-smoke" } else { "" }
        );
        if let Err(e) = reference::guard_across_runs(&dir.join("counts"), &key, &reference.counts) {
            gate.errors.push(e);
        }
    }
    let host = host::metadata(workers, host::reset_peak_rss());
    let setup = Setup {
        opts,
        ctx: JobCtx {
            workload: &w,
            planner,
            workers,
            offset,
            iterations_per_round: reference.iterations_per_round,
            origin: Instant::now(),
        },
        reference,
        expected_digest,
        min_iterations: if opts.smoke { 1 } else { 5 },
    };
    let ticks = host::CpuTicks::now();
    let (metrics, latency_samples, latency_beyond_p99) = if opts.trace {
        (layers::measure(&setup, &mut gate, &mut report)?, 0, 0)
    } else {
        end_to_end(&setup, &mut gate, &mut report)
    };
    // Time the hypervisor gave this machine's CPUs to others while the
    // run measured: the main source of run-to-run spread on a shared VM.
    let steal = ticks
        .zip(host::CpuTicks::now())
        .map(|(a, b)| b.steal_share_since(&a));
    report.push(format!(
        "host CPU steal while measuring: {}",
        steal.map_or("unknown".to_string(), |x| format!("{:.1}%", 100.0 * x))
    ));
    let outcome = Outcome {
        attempted: gate.attempted,
        failed: gate.failed,
        errors: gate.errors,
        metrics,
        latency_samples,
        latency_beyond_p99,
        report,
        host,
    };
    if let Some(dir) = &opts.out_dir {
        let doc = json!({
            "workload": w.name,
            "seed": opts.seed,
            "trace": opts.trace,
            "host": outcome.host.clone(),
            "cpu_steal_share": steal.map_or(Value::Null, |x| json!(x)),
            "errors": outcome.errors.clone(),
            "result": outcome.result_json(),
        });
        let path = dir.join(format!(
            "result-{}-seed{}-trace{}.json",
            w.name, opts.seed, opts.trace as u8
        ));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let text = serde_json::to_string_pretty(&doc).map_err(|e| format!("{e:?}"))?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(outcome)
}

/// The untraced run: alternate a zero-round set-up job and a full job
/// until the time is up, after one warm-up job.
fn end_to_end(
    s: &Setup,
    gate: &mut Gate,
    report: &mut Vec<String>,
) -> (Vec<(&'static str, f64, &'static str)>, usize, usize) {
    let r = &s.reference;
    let rounds = s.rounds();
    let mut id = 0u64;
    let mut next = |rounds: u64, gate: &mut Gate| {
        id += 1;
        gate.check(s.ctx.run(id, rounds, false), rounds, s.expected_digest, r)
    };
    // Warm-up: fills caches and finishes lazy set-up; gated, not timed.
    next(rounds, gate);

    let (mut job_s, mut setup_s, mut ips, mut cpu, mut rss) =
        (vec![], vec![], vec![], vec![], vec![]);
    let (mut p50, mut p90, mut p99) = (vec![], vec![], vec![]);
    let (mut samples, mut beyond) = (0usize, usize::MAX);
    let start = Instant::now();
    let mut iterations = 0;
    while !s.done(start, iterations) {
        iterations += 1;
        if let Some(j) = next(0, gate) {
            setup_s.push(j.total.as_secs_f64());
        }
        if let Some(mut j) = next(rounds, gate) {
            let items = j.stats.run.sink_items as f64;
            job_s.push(j.total.as_secs_f64());
            ips.push(items / j.execute().as_secs_f64());
            cpu.push(j.cpu.as_secs_f64() / (items / 1e6));
            if let Some(b) = j.peak_rss {
                rss.push(b as f64 / (1u64 << 20) as f64);
            }
            // Each job is one latency histogram; the run reports the
            // p50 of its least-disturbed decile of jobs. Their p90 and
            // p99 are printed, not
            // gated: on a shared VM they follow the host's CPU steal
            // more than the program.
            j.latencies_ns.sort_unstable();
            let lat = &j.latencies_ns;
            let ms = |p: f64| stats::percentile_sorted(lat, p).map(|ns| ns as f64 / 1e6);
            p50.extend(ms(50.0));
            p90.extend(ms(90.0));
            p99.extend(ms(99.0));
            samples += lat.len();
            beyond = beyond.min(stats::beyond_percentile(lat, 99.0));
        }
    }
    let beyond = if job_s.is_empty() { 0 } else { beyond };
    report.push(format!(
        "{} full jobs, {} set-up jobs in {:.1} s; {samples} latency samples, at least {beyond} beyond p99 in every job",
        job_s.len(),
        setup_s.len(),
        start.elapsed().as_secs_f64(),
    ));
    for (name, v) in [
        ("job_s", &job_s),
        ("cpu_s_per_mitem", &cpu),
        ("latency p50 (ms)", &p50),
        ("latency p90 (ms)", &p90),
        ("latency p99 (ms)", &p99),
    ] {
        report.push(format!(
            "{name} per job (sorted; median {:.4}, p{FAST_PERCENTILE} {:.4}): {}",
            stats::median(v).unwrap_or(f64::NAN),
            stats::percentile(v, FAST_PERCENTILE).unwrap_or(f64::NAN),
            sorted(v)
        ));
    }
    if beyond < MIN_BEYOND_P99 {
        gate.errors.push(format!(
            "a job has only {beyond} latency samples beyond its p99 (need {MIN_BEYOND_P99})"
        ));
    }
    let values = [
        stats::percentile(&job_s, FAST_PERCENTILE),
        stats::median(&setup_s),
        stats::percentile(&ips, 100.0 - FAST_PERCENTILE),
        stats::percentile(&cpu, FAST_PERCENTILE),
        stats::percentile(&p50, FAST_PERCENTILE),
        stats::median(&rss),
        Some(r.counts["dam_misses_per_input"]),
    ];
    (collect(&END_TO_END, &values, gate), samples, beyond)
}

/// Samples in ascending order, for the report.
fn sorted(xs: &[f64]) -> String {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let v: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
    v.join(" ")
}

/// Pair metric values with their names and units; a value the run
/// could not measure is a run-level error.
pub(crate) fn collect(
    names: &[(&'static str, &'static str)],
    values: &[Option<f64>],
    gate: &mut Gate,
) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = Vec::with_capacity(names.len());
    for (&(name, unit), v) in names.iter().zip(values) {
        match v {
            Some(x) if x.is_finite() => out.push((name, *x, unit)),
            _ => gate.errors.push(format!("metric {name} was not measured")),
        }
    }
    out
}
