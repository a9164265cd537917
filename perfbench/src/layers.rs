//! The traced run: per-layer metrics, isolated layer microbenchmarks,
//! and the ledger that reconciles them with the job's wall time.

use crate::job::{Job, Span, STEPS};
use crate::reference::{max_segment_state_words, Reference};
use crate::stats::median;
use crate::{collect, probe, Gate, Setup, PER_LAYER};
use ccs_exec::{assign_on, execute_serial_fused, ExecPlan, Placement};
use ccs_graph::StreamGraph;
use ccs_obs::chrome::{self, TraceWorker};
use ccs_obs::EventKind;
use ccs_runtime::{fire_ports, ObsConfig, SpscRing};
use serde_json::{json, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Kernel firings the kernel microbenchmark aims for.
const KERNEL_FIRINGS: u64 = 2_000_000;

/// Items per cross edge the ring microbenchmark aims for.
const RING_ITEMS: u64 = 2_000_000;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Each bound kernel fired alone over its rates, `quota·reps` times in
/// a row: nanoseconds per firing over the plan's firing mix.
fn kernel_ns_per_firing(s: &Setup, g: &StreamGraph, plan: &ExecPlan, target: u64) -> f64 {
    let reps = (target / plan.firings_per_round().max(1)).max(1);
    let inst = s.ctx.workload.bind(g.clone());
    let (mut ns, mut firings) = (0u128, 0u64);
    for (v, mut k) in g.node_ids().zip(inst.kernels) {
        let inputs: Vec<Vec<f32>> = g
            .in_edges(v)
            .iter()
            .map(|&e| vec![0.5f32; g.edge(e).consume as usize])
            .collect();
        let mut outputs: Vec<Vec<f32>> = g
            .out_edges(v)
            .iter()
            .map(|&e| vec![0.0f32; g.edge(e).produce as usize])
            .collect();
        let n = plan.quota[v.idx()] * reps;
        let t0 = Instant::now();
        for _ in 0..n {
            fire_ports(k.as_mut(), black_box(&inputs), &mut outputs);
        }
        ns += t0.elapsed().as_nanos();
        black_box(&outputs);
        firings += n;
    }
    ns as f64 / firings.max(1) as f64
}

/// One batch's store and load on every cross ring, one thread: a
/// `reserve`/copy/`commit` then a `peek`/copy/`release` of the plan's
/// batch size, at the plan's ring capacity. Nanoseconds per item.
fn ring_ns_per_item(plan: &ExecPlan, target: u64) -> f64 {
    let (mut ns, mut items) = (0u128, 0u64);
    for seg in &plan.segments {
        for &(e, n) in &seg.out_batch {
            let n = n as usize;
            let ring = SpscRing::new(plan.capacities[e.idx()] as usize);
            let src = vec![1.0f32; n];
            let mut dst = vec![0.0f32; n];
            let reps = (target / n as u64).max(1);
            let t0 = Instant::now();
            for _ in 0..reps {
                let (a, b) = ring.reserve(n);
                let split = a.len();
                a.copy_from_slice(&src[..split]);
                b.copy_from_slice(&src[split..]);
                ring.commit(n);
                let (a, b) = ring.peek(n);
                dst[..a.len()].copy_from_slice(a);
                dst[a.len()..].copy_from_slice(b);
                ring.release(n);
                black_box(&mut dst);
            }
            ns += t0.elapsed().as_nanos();
            items += reps * n as u64;
        }
    }
    ns as f64 / items.max(1) as f64
}

/// Length of the union of `[start, end)` intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let (mut total, mut cur): (u64, Option<(u64, u64)>) = (0, None);
    for (a, b) in iv {
        cur = match cur {
            Some((s, e)) if a <= e => Some((s, e.max(b))),
            Some((s, e)) => {
                total += e - s;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// Time the executor's worker timelines cover (batch and stall spans,
/// any worker): the part of `exec.execute` its children explain.
fn worker_covered_ns(j: &Job) -> u64 {
    let iv = j
        .stats
        .workers
        .iter()
        .filter_map(|w| w.trace.as_ref())
        .flat_map(|t| t.events.iter())
        .filter(|e| matches!(e.kind, EventKind::Batch { .. } | EventKind::Stall { .. }))
        .map(|e| (e.ts_ns, e.ts_ns + e.dur_ns))
        .collect();
    union_ns(iv)
}

fn trace_doc(j: &Job, name: &str) -> Value {
    let tracks: Vec<TraceWorker> = j
        .stats
        .workers
        .iter()
        .map(|w| TraceWorker {
            worker: w.worker,
            name: format!("worker {}", w.worker),
            events: w.trace.as_ref().map_or(&[][..], |t| &t.events),
            dropped: w.trace.as_ref().map_or(0, |t| t.dropped),
            windows: &w.windows,
        })
        .collect();
    let meta = json!({
        "engine": "parallel",
        "workers": j.stats.workers.len() as u64,
        "rounds": j.stats.rounds,
        "wall_ms": ms(j.stats.run.wall),
    });
    chrome::document(name, meta, &tracks)
}

fn span_json(s: &Span) -> Value {
    json!({
        "job": s.job,
        "name": s.name,
        "parent": s.parent.map_or(Value::Null, |p| Value::String(p.to_string())),
        "start_ns": s.start_ns,
        "end_ns": s.end_ns,
    })
}

/// Per-traced-job ledger rows, in nanoseconds: each step's self time,
/// `exec.execute` split into its uncovered self time and the worker
/// spans, and the job's own residue.
fn ledger_rows(j: &Job) -> Vec<(&'static str, f64)> {
    let exec = j.execute().as_nanos() as f64;
    let covered = worker_covered_ns(j) as f64;
    let steps: f64 = j.steps.iter().map(|d| d.as_nanos() as f64).sum();
    let mut rows: Vec<(&'static str, f64)> = STEPS[..4]
        .iter()
        .zip(&j.steps)
        .map(|(&n, d)| (n, d.as_nanos() as f64))
        .collect();
    rows.push((
        "exec.execute (self: plan, rings, spawn, join)",
        exec - covered,
    ));
    rows.push(("exec.workers (batch and stall spans)", covered));
    rows.push((
        "residue (job minus its steps)",
        j.total.as_nanos() as f64 - steps,
    ));
    rows
}

/// The traced run.
pub(crate) fn measure(
    s: &Setup,
    gate: &mut Gate,
    report: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let r: &Reference = &s.reference;
    let w = s.ctx.workload;
    let g = &w.graph;
    let rounds = s.rounds();
    let smoke = s.opts.smoke;
    let scale = |n: u64| if smoke { n / 100 } else { n };

    // Plan build and placement, timed alone.
    let mut builds = vec![ms(r.plan_build)];
    for _ in 0..2 {
        let t0 = Instant::now();
        let plan = ExecPlan::build(g, &r.ra, &r.partition, w.params.capacity)
            .map_err(|e| format!("plan: {e}"))?;
        builds.push(ms(t0.elapsed()));
        black_box(plan);
    }
    let topo = ccs_topo::Topology::single_cluster(s.ctx.workers);
    let mut places = Vec::new();
    let t_place = Instant::now();
    while places.len() < 5 || (places.len() < 200 && t_place.elapsed() < Duration::from_millis(100))
    {
        let t0 = Instant::now();
        let owner = assign_on(
            g,
            &r.ra,
            &r.plan,
            s.ctx.workers,
            Placement::default(),
            &topo,
            false,
        );
        places.push(ms(t0.elapsed()));
        black_box(owner);
    }

    // Layer microbenchmarks and the single-thread baselines.
    let kernel_ns = kernel_ns_per_firing(s, g, &r.plan, scale(KERNEL_FIRINGS));
    let ring_ns = ring_ns_per_item(&r.plan, scale(RING_ITEMS));
    gate.attempted += 1;
    let inst = probe::wrap(w.bind(g.clone()), &r.ra, s.ctx.offset, None);
    let (sf, _) = execute_serial_fused(
        inst,
        &r.ra,
        &r.partition,
        w.params.capacity,
        rounds,
        &ObsConfig::default(),
    )
    .map_err(|e| format!("serial fused: {e}"))?;
    if sf.digest != s.expected_digest || sf.sink_items != r.sink_items {
        gate.fail(format!(
            "execute_serial_fused digest {:?} / {} items, want {:?} / {}",
            sf.digest, sf.sink_items, s.expected_digest, r.sink_items
        ));
    }
    let serial_fused_ips = sf.sink_items as f64 / sf.wall.as_secs_f64();

    // Jobs: traced full, untraced full, traced set-up.
    let mut id = 0u64;
    let mut next = |rounds: u64, trace: bool, gate: &mut Gate| {
        id += 1;
        gate.check(s.ctx.run(id, rounds, trace), rounds, s.expected_digest, r)
    };
    next(rounds, false, gate);
    let (mut traced, mut untraced, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut busy, mut stall, mut per_batch, mut insight) = (vec![], vec![], vec![], vec![]);
    let mut rows: Vec<Vec<(&'static str, f64)>> = Vec::new();
    let (mut check1, mut check2) = (Vec::new(), Vec::new());
    let mut spans: Vec<Value> = Vec::new();
    let mut last_doc = Value::Null;
    let mut last_origin_ns = 0u64;
    let start = Instant::now();
    let mut iterations = 0;
    while !s.done(start, iterations) {
        iterations += 1;
        if let Some(j) = next(rounds, true, gate) {
            let st = &j.stats;
            let lanes = st.workers.len() as f64;
            let wall = st.run.wall.as_secs_f64();
            let busy_s: f64 = st.workers.iter().map(|w| w.busy.as_secs_f64()).sum();
            let stall_s = st.total_stall_time().as_secs_f64();
            let batches: u64 = st.workers.iter().map(|w| w.batches).sum();
            busy.push(busy_s / (lanes * wall));
            stall.push(stall_s / (lanes * wall));
            per_batch.push(st.total_stalls() as f64 / batches.max(1) as f64);
            let doc = trace_doc(&j, w.name);
            let analysis = ccs_insight::analyze_doc(&doc)?;
            if let Some(x) = analysis["summary"]["stall_share"].as_f64() {
                insight.push(x);
            }
            // Check 1: isolated layer costs times in-situ work against
            // worker busy time. Check 2: busy + stall against the
            // workers' share of the execute wall.
            let predicted = kernel_ns * st.run.firings as f64
                + ring_ns * (r.cross_items_per_round * rounds) as f64;
            check1.push((predicted / 1e6, busy_s * 1e3));
            check2.push(((busy_s + stall_s) * 1e3, lanes * wall * 1e3));
            rows.push(ledger_rows(&j));
            spans.extend(j.spans.iter().map(span_json));
            let exec_end = j.spans[0].end_ns;
            last_origin_ns = exec_end.saturating_sub(st.run.wall.as_nanos() as u64);
            last_doc = doc;
            traced.push(j);
        }
        if let Some(j) = next(rounds, false, gate) {
            untraced.push(j.total.as_secs_f64());
        }
        if let Some(j) = next(0, true, gate) {
            setup.push(ms(j.execute()));
            spans.extend(j.spans.iter().map(span_json));
        }
    }

    let step_ms = |i: usize| median(&traced.iter().map(|j| ms(j.steps[i])).collect::<Vec<_>>());
    let traced_s = median(
        &traced
            .iter()
            .map(|j| j.total.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let overhead = match (traced_s, median(&untraced)) {
        (Some(t), Some(u)) => Some(100.0 * (t / u - 1.0)),
        _ => None,
    };
    let plan_build = median(&builds);
    let c = &r.counts;
    let values = [
        step_ms(0),
        step_ms(1),
        step_ms(3),
        step_ms(2),
        plan_build,
        median(&places),
        median(&setup).zip(plan_build).map(|(a, b)| a - b),
        Some(c["partition.segments"]),
        Some(c["partition.bandwidth"]),
        Some(max_segment_state_words(&r.plan) as f64),
        Some(c["exec.cross_bytes_per_item"]),
        Some(c["cachesim.state_misses_per_input"]),
        Some(c["cachesim.buffer_misses_per_input"]),
        Some(c["exec.arena_words"]),
        Some(c["exec.cross_ring_words"]),
        median(&busy),
        median(&stall),
        median(&per_batch),
        Some(kernel_ns),
        Some(ring_ns),
        Some(serial_fused_ips),
        Some(r.oracle_items_per_s),
        Some(c["sched.granularity_t"]),
        Some(c["exec.firings_per_item"]),
        Some(ms(r.replay)),
        overhead,
        median(&insight),
    ];

    // The ledger: each layer's self time and share of the job.
    let job_ms = traced_s.unwrap_or(0.0) * 1e3;
    report.push(format!(
        "ledger {} ({} traced jobs, {} untraced, {} set-up; median job {job_ms:.2} ms)",
        w.name,
        traced.len(),
        untraced.len(),
        setup.len()
    ));
    if let Some(first) = rows.first() {
        for (i, &(name, _)) in first.iter().enumerate() {
            let v = median(&rows.iter().map(|r| r[i].1 / 1e6).collect::<Vec<_>>()).unwrap_or(0.0);
            report.push(format!(
                "  {name:<48} {v:>10.3} ms {:>6.1}%",
                100.0 * v / job_ms.max(f64::MIN_POSITIVE)
            ));
        }
    }
    let pair = |v: &[(f64, f64)]| {
        (
            median(&v.iter().map(|p| p.0).collect::<Vec<_>>()).unwrap_or(0.0),
            median(&v.iter().map(|p| p.1).collect::<Vec<_>>()).unwrap_or(0.0),
        )
    };
    let (pred, meas) = pair(&check1);
    report.push(format!(
        "  check: kernel {kernel_ns:.1} ns x firings + ring {ring_ns:.2} ns x cross items = {pred:.2} ms vs worker busy {meas:.2} ms; residue {:.2} ms ({:.1}%)",
        meas - pred,
        100.0 * (meas - pred) / meas.max(f64::MIN_POSITIVE)
    ));
    let (sum, lanes) = pair(&check2);
    report.push(format!(
        "  check: worker busy + stall = {sum:.2} ms vs workers x execute wall (spawn to join) {lanes:.2} ms; residue {:.2} ms ({:.1}%)",
        lanes - sum,
        100.0 * (lanes - sum) / lanes.max(f64::MIN_POSITIVE)
    ));

    if let Some(dir) = &s.opts.out_dir {
        let doc = json!({
            "schema": "ccs-perfbench-trace/v1",
            "workload": w.name,
            "seed": s.opts.seed,
            "spans": Value::Array(spans),
            "executor_origin_ns": last_origin_ns,
            "executor": last_doc,
        });
        let path = dir.join(format!("trace-{}-seed{}.json", w.name, s.opts.seed));
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let text = serde_json::to_string(&doc).map_err(|e| format!("{e:?}"))?;
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        report.push(format!("  trace written to {}", path.display()));
    }
    Ok(collect(&PER_LAYER, &values, gate))
}

#[cfg(test)]
mod tests {
    use super::union_ns;

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![]), 0);
        assert_eq!(union_ns(vec![(0, 10), (5, 20), (30, 40)]), 30);
        assert_eq!(union_ns(vec![(30, 40), (0, 10), (10, 12)]), 22);
    }
}
