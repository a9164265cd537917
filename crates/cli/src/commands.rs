//! The CLI subcommands.

use crate::args::Args;
use ccs_cachesim::CacheParams;
use ccs_core::compare::{compare_schedulers, format_table};
use ccs_core::report::Report;
use ccs_core::{Horizon, Planner, Strategy};
use ccs_exec::RunConfig;
use ccs_graph::{RateAnalysis, StreamGraph};
use ccs_topo::{format_cpulist, TopoSpec, Topology};
use std::error::Error;

type CliResult = Result<String, Box<dyn Error>>;

/// Dispatch a subcommand; returns the text to print. `--help` after
/// any subcommand prints the usage and runs nothing.
pub fn run(cmd: &str, args: &Args) -> CliResult {
    if args.has("help") {
        return Ok(usage());
    }
    match cmd {
        "gen" => gen(args),
        "analyze" => analyze(args),
        "partition" => partition(args),
        "simulate" => simulate(args),
        "run-dag" => run_dag(args),
        "trace" => trace_cmd(args),
        "sweep" => sweep_cmd(args),
        "bench" => bench_cmd(args),
        "topo" => topo_cmd(args),
        "report" => report_cmd(args),
        "compare" => compare(args),
        "autotune" => autotune_cmd(args),
        "fuse" => fuse_cmd(args),
        "dot" => dot(args),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(format!("unknown command '{other}'\n\n{}", usage()).into()),
    }
}

pub fn usage() -> String {
    "\
ccs — cache-conscious scheduling of streaming applications (SPAA 2012)

USAGE:
  ccs gen pipeline --len N --state S [-o FILE]
  ccs gen layered  --layers N --width W [--max-q Q] [-o FILE]
  ccs gen app NAME [-o FILE]               (see `ccs gen app list`)
  ccs analyze FILE [--json] [-o FILE]
               (structural rate analysis of a StreamGraph; given a
                ccs-trace/v1 document instead, runs the bottleneck
                analysis — per-worker time breakdowns, stall blame per
                edge, ring occupancy, bottleneck ranking with the
                blocking chain, and mpki/stall-share drift — emitting a
                ccs-analysis/v1 document `ccs report` renders)
  ccs analyze FILE --m M [trace flags]
               (live mode: run the StreamGraph with tracing on — the
                same run `ccs trace` exports — and analyze it directly)
  ccs partition FILE --m M [--b B] [--strategy greedy2m|dp|dag|exact]
  ccs simulate FILE --m M [--b B] [--outputs T] [--json]
  ccs run-dag  FILE --m M [--b B] [--workers N] [--rounds R]
               [--placement rr|greedy|llc] [--topo NxCxK | --topo-from DUMP]
               [--pin-cores] [--counters] [--warmup K] [--segment-counters]
               [--stride S] [--per-worker-warmup] [--first-touch]
               [--trace] [--windows W] [--trace-cap C] [--adapt]
               [--warn-residency R] [--strategy ...] [--json]
               (real multicore execution with segment-affine workers;
                llc placement + pinning use the machine topology;
                --counters samples hardware cache counters per worker,
                --warmup K discards the first K batches per segment so
                readings reflect steady state — exact epoch reset by
                default, --per-worker-warmup for the legacy reset —
                --segment-counters attributes misses to individual
                segments sampling every S-th batch, and --first-touch
                faults ring pages in from consumer workers; --trace
                records per-worker event timelines and --windows W
                closes a counter window every W batches; --adapt turns
                on the online drift controller (needs --windows >= 1),
                which migrates segments between workers mid-run while
                the output digest stays bit-identical; every batch runs
                the fused path — bulk ring ops, a flat per-segment
                arena, software prefetch (docs/HOTPATH.md);
                see docs/MEASUREMENT.md, docs/OBSERVABILITY.md, and
                docs/ADAPTIVE.md)
  ccs trace FILE --m M [--b B] [--workers N] [--rounds R] [--serial]
            [--windows W] [--trace-cap C] [--no-counters] [--warmup K]
            [--adapt]
            [--placement rr|greedy|llc] [--topo NxCxK] [--pin-cores]
            [--warn-residency R] [--strategy ...] [--json] [-o FILE]
               (run with event tracing on and export the merged
                per-worker timelines as Chrome trace-event JSON —
                load FILE in Perfetto (ui.perfetto.dev) or render the
                summary with `ccs report`; counter windows every W
                batches [default 1] annotate the timeline, degrading
                to timing-only without a PMU; stalls carry the blocking
                edge and ring occupancy is sampled at batch boundaries,
                so the export feeds `ccs analyze`; --adapt runs the
                online drift controller and its migration instants land
                on the timeline; --warn-residency sets the
                low-PMU-residency warning threshold baked into the
                document; see docs/OBSERVABILITY.md)
  ccs sweep [--spec FILE | --apps A,B --workers N,M --placements rr,llc
             --pin on|off|both [--serial] [--counters] [--segment-counters]
             [--warmup K] [--stride S] [--first-touch] [--per-worker-warmup]
             [--trace] [--windows W] [--adapt] [--topo NxCxK]
             [--repeats R] [--rounds N] [--baseline LABEL]
             [--metrics m1,m2] [--name NAME] [--seed S] [--confidence C]
             [--warn-residency R]]
            [--json] [-o FILE]
               (declarative experiment grid: cells x interleaved repeats
                with digest-equivalence asserted across all cells, per-cell
                mean +/- stddev, and the declared pairwise paired deltas
                with bootstrap CIs under Benjamini-Hochberg correction;
                grid comes from a JSON spec file or from the flags;
                --adapt doubles every parallel cell with an adaptive
                twin (online segment migration; needs --windows >= 1);
                --serial adds the serial oracle, so the digest
                assertion proves the parallel cells match it;
                -o saves the ccs-sweep/v1 document `ccs report` renders)
  ccs bench [--repeats R] [--rounds N] [--apps A,B] [--store FILE]
            [--baseline FILE] [--tolerance T] [--timestamp T]
            [--check] [--no-append] [--json] [-o FILE]
               (continuous performance tracking: run the canonical
                sweep — serial, rr/w2, llc/w2 with counters on — append
                a ccs-bench/v1 record to results/history/bench.ndjson
                [--store overrides], and judge it against the newest
                record with the same machine fingerprint (topology x
                counter availability x warmup x grid): per-metric
                paired bootstrap deltas under BH correction, classified
                regressed / improved / unchanged within a relative
                tolerance band (10% with a PMU, 25% with only
                task-clock or no counters;
                --tolerance overrides); --baseline compares against a
                specific history file, --check exits nonzero on any
                regression (the CI perf gate); see
                docs/BENCHMARKING.md)
  ccs topo [--topo NxCxK | --from DUMP] [--json]
               (print the discovered, synthetic, or replayed machine
                topology plus perf-counter availability; the --json dump
                is what --from / --topo-from replay)
  ccs report FILE
               (render a results document as text, dispatching on its
                schema: ccs-sweep/v1 — per-cell mean +/- stddev,
                per-segment attribution, and the BH-corrected comparison
                family, from `ccs sweep` and the e19..e22 binaries —
                ccs-trace/v1 — per-worker event/window summary with
                drop and PMU-residency warnings, from `ccs trace` —
                ccs-analysis/v1 — the bottleneck/drift analysis from
                `ccs analyze` — or ccs-bench/v1 — one bench history
                record; an NDJSON history file renders as the trend
                view)
  ccs report --history [FILE] [--last N]
               (per-metric trend over the last N bench records —
                sparkline and relative move, grouped by machine
                fingerprint; FILE defaults to the bench history store)
  ccs compare FILE --m M [--b B] [--outputs T]
  ccs autotune FILE --m M [--b B] [--outputs T]
  ccs fuse FILE --m M [--b B] [-o FILE]       (partition, then fuse)
  ccs dot FILE

Sizes are in words (one stream item = one word); M is the cache size,
B the block size. Graphs are StreamGraph JSON (produced by `ccs gen`)."
        .to_string()
}

fn load(path: &str) -> Result<StreamGraph, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let g: StreamGraph = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a StreamGraph JSON: {e}"))?;
    Ok(g)
}

fn emit(args: &Args, content: String) -> CliResult {
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, &content)?;
            Ok(format!("wrote {path}"))
        }
        None => Ok(content),
    }
}

fn gen(args: &Args) -> CliResult {
    let kind = args.positional(0, "kind (pipeline|layered|app)")?;
    let graph = match kind {
        "pipeline" => {
            let len = args.u64_or("len", 16)? as usize;
            let state = args.u64_or("state", 128)?;
            let max_q = args.u64_or("max-q", 1)?;
            if max_q <= 1 {
                ccs_graph::gen::pipeline_uniform(len, state)
            } else {
                ccs_graph::gen::pipeline(
                    &ccs_graph::gen::PipelineCfg {
                        len,
                        state: ccs_graph::gen::StateDist::Fixed(state),
                        max_q,
                        max_rate_scale: args.u64_or("rate-scale", 2)?,
                    },
                    args.u64_or("seed", 0)?,
                )
            }
        }
        "layered" => ccs_graph::gen::layered(
            &ccs_graph::gen::LayeredCfg {
                layers: args.u64_or("layers", 4)? as usize,
                max_width: args.u64_or("width", 4)? as usize,
                density: 0.3,
                state: ccs_graph::gen::StateDist::Uniform(
                    args.u64_or("state-min", 32)?,
                    args.u64_or("state-max", 128)?,
                ),
                max_q: args.u64_or("max-q", 1)?,
            },
            args.u64_or("seed", 0)?,
        ),
        "app" => {
            let name = args.positional(1, "app name")?;
            if name == "list" {
                let names: Vec<String> = ccs_apps::suite()
                    .into_iter()
                    .map(|a| format!("  {:<12} {}", a.name, a.description))
                    .collect();
                return Ok(format!("available apps:\n{}", names.join("\n")));
            }
            ccs_apps::suite()
                .into_iter()
                .find(|a| a.name == name)
                .ok_or_else(|| format!("unknown app '{name}' (try `ccs gen app list`)"))?
                .graph
        }
        other => return Err(format!("unknown generator '{other}'").into()),
    };
    emit(args, serde_json::to_string_pretty(&graph)?)
}

/// `ccs analyze` — dispatch on content. A `ccs-trace/v1` document is
/// analyzed into a `ccs-analysis/v1` one (stall blame, ring occupancy,
/// bottleneck ranking, drift); a StreamGraph with `--m` is run live
/// with tracing on (the same run `ccs trace` makes) and the resulting
/// document analyzed; a plain StreamGraph gets the structural rate
/// analysis.
fn analyze(args: &Args) -> CliResult {
    let path = args.positional(0, "graph or trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if let Ok(v) = serde_json::from_str::<serde_json::Value>(&text) {
        if v["schema"].as_str() == Some(ccs_obs::chrome::SCHEMA) {
            let analysis = ccs_insight::analyze_doc(&v).map_err(|e| format!("{path}: {e}"))?;
            return emit_analysis(args, analysis);
        }
    }
    if args.flag("m").is_some() {
        // Live mode: run the graph with tracing on (the exact run `ccs
        // trace` exports) and analyze the in-memory document, so the
        // file and live paths cannot diverge.
        let doc = build_trace_doc(args)?;
        let analysis = ccs_insight::analyze_doc(&doc).map_err(|e| format!("{path}: {e}"))?;
        return emit_analysis(args, analysis);
    }
    let g: StreamGraph = serde_json::from_str(&text)
        .map_err(|e| format!("{path} is not a StreamGraph JSON: {e}"))?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "nodes        : {}", g.node_count());
    let _ = writeln!(out, "edges        : {}", g.edge_count());
    let _ = writeln!(out, "total state  : {} words", g.total_state());
    let _ = writeln!(out, "max state    : {} words", g.max_state());
    let _ = writeln!(out, "pipeline     : {}", g.is_pipeline());
    let _ = writeln!(out, "homogeneous  : {}", g.is_homogeneous());
    let source = ra.source.expect("single source");
    let sink = ra.sink.expect("single sink");
    let _ = writeln!(out, "source       : {}", g.node(source).name);
    let _ = writeln!(out, "sink         : {}", g.node(sink).name);
    let _ = writeln!(out, "gain(sink)   : {}", ra.gain(sink));
    let q_str: Vec<String> = g
        .node_ids()
        .map(|v| format!("{}={}", g.node(v).name, ra.q(v)))
        .collect();
    let _ = writeln!(out, "repetitions  : {}", q_str.join(" "));
    Ok(out)
}

fn strategy_of(args: &Args) -> Result<Strategy, Box<dyn Error>> {
    Ok(match args.flag("strategy") {
        None | Some("auto") => Strategy::Auto,
        Some("greedy2m") => Strategy::PipelineGreedy2M,
        Some("dp") => Strategy::PipelineDp,
        Some("dag") => Strategy::DagGreedyRefined,
        Some("exact") => Strategy::DagExact,
        Some(other) => return Err(format!("unknown strategy '{other}'").into()),
    })
}

/// `--workers N` (default 2); zero workers is an error, not one worker.
fn workers_of(args: &Args) -> Result<usize, Box<dyn Error>> {
    match args.u64_or("workers", 2)? {
        0 => Err("--workers must be at least 1".into()),
        n => Ok(usize::try_from(n)?),
    }
}

fn params_of(args: &Args) -> Result<CacheParams, Box<dyn Error>> {
    let m = args.required_u64("m")?;
    let b = args.u64_or("b", 16)?;
    Ok(CacheParams::new(m, b))
}

fn partition(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let (p, bw, used) = planner.partition(&g, &ra)?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "strategy   : {used}");
    let _ = writeln!(out, "components : {}", p.num_components());
    let _ = writeln!(out, "bandwidth  : {bw} items/input");
    let _ = writeln!(out, "max state  : {} words", p.max_component_state(&g));
    let _ = writeln!(out, "max degree : {}", p.max_component_degree(&g));
    for (i, comp) in p.components().iter().enumerate() {
        let names: Vec<&str> = comp.iter().map(|&v| g.node(v).name.as_str()).collect();
        let _ = writeln!(
            out,
            "  [{i}] ({} words) {}",
            g.state_of(comp),
            names.join(", ")
        );
    }
    Ok(out)
}

fn simulate(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let params = params_of(args)?;
    let planner = Planner::new(params).with_strategy(strategy_of(args)?);
    let outputs = args.u64_or("outputs", 1000)?;
    let plan = planner.plan(&g, Horizon::SinkFirings(outputs))?;
    let eval = planner.evaluate(&g, &plan)?;
    let report = Report::new(&g, params, &plan, &eval);
    if args.has("json") {
        Ok(report.to_json())
    } else {
        Ok(format!(
            "strategy {} | {} components | bandwidth {:.4} items/input\n\
             {} misses ({} interior) for {} outputs = {:.4} misses/output",
            report.strategy,
            report.components,
            report.bandwidth,
            report.misses,
            report.interior_misses,
            report.outputs,
            report.misses_per_output,
        ))
    }
}

/// Topology from `--topo NxCxK` (synthetic), `--topo-from`/`--from`
/// (replay of a `ccs topo --json` dump), or `None` for host discovery.
fn topo_of(args: &Args) -> Result<Option<Topology>, Box<dyn Error>> {
    let from = args.flag("topo-from").or_else(|| args.flag("from"));
    match (args.flag("topo"), from) {
        (Some(_), Some(_)) => Err("--topo and --topo-from/--from are mutually exclusive".into()),
        (Some(spec), None) => Ok(Some(Topology::synthetic(&spec.parse::<TopoSpec>()?))),
        (None, Some(path)) => Ok(Some(load_topo_dump(path)?)),
        (None, None) => Ok(None),
    }
}

/// Rebuild a machine tree from a `ccs topo --json` dump: each entry of
/// the `clusters` array is one LLC cluster, `(os_node, cpus)` — enough
/// to replay another machine's topology here for placement inspection.
fn load_topo_dump(path: &str) -> Result<Topology, Box<dyn Error>> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let v: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
    let serde_json::Value::Array(clusters) = &v["clusters"] else {
        return Err(format!("{path}: no `clusters` array (want a `ccs topo --json` dump)").into());
    };
    let mut groups = Vec::with_capacity(clusters.len());
    for c in clusters {
        // `os_node` is the authoritative id; older dumps may only have
        // the dense `node` index, which replays equivalently.
        let node = c["os_node"]
            .as_u64()
            .or_else(|| c["node"].as_u64())
            .ok_or_else(|| format!("{path}: cluster without os_node/node"))?
            as usize;
        let serde_json::Value::Array(cpu_vals) = &c["cpus"] else {
            return Err(format!("{path}: cluster without a cpus array").into());
        };
        let cpus = cpu_vals
            .iter()
            .map(|x| {
                x.as_u64()
                    .map(|u| u as usize)
                    .ok_or_else(|| format!("{path}: non-integer cpu id"))
            })
            .collect::<Result<Vec<usize>, String>>()?;
        groups.push((node, cpus));
    }
    if groups.iter().all(|(_, cpus)| cpus.is_empty()) {
        return Err(format!("{path}: dump describes no cpus").into());
    }
    Ok(Topology::from_replay(groups))
}

fn run_dag(args: &Args) -> CliResult {
    let path = args.positional(0, "graph file")?;
    let g = load(path)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let workers = workers_of(args)?;
    let rounds = args.u64_or("rounds", 8)?;
    let placement = match args.flag("placement") {
        None => ccs_exec::Placement::RoundRobin,
        Some(name) => ccs_exec::Placement::parse(name)
            .ok_or_else(|| format!("unknown placement '{name}' (rr|greedy|llc)"))?,
    };
    let segment_counters = args.has("segment-counters");
    // Per-segment attribution is meaningless without counters; asking
    // for it implies them.
    let counters = args.has("counters") || segment_counters;
    let mut cfg = RunConfig::new(workers)
        .with_placement(placement)
        .with_pinning(args.has("pin-cores"))
        .with_counters(counters)
        .with_warmup(args.u64_or("warmup", 0)?)
        .with_segment_counters(segment_counters)
        .with_counter_stride(args.u64_or("stride", 1)?)
        .with_warmup_mode(if args.has("per-worker-warmup") {
            ccs_exec::WarmupMode::PerWorker
        } else {
            ccs_exec::WarmupMode::Epoch
        })
        .with_first_touch(args.has("first-touch"))
        .with_trace(args.has("trace"))
        .with_windows(args.u64_or("windows", 0)?)
        .with_trace_capacity(args.u64_or("trace-cap", 0)? as usize);
    if let Some(topo) = topo_of(args)? {
        cfg = cfg.with_topology(topo);
    }
    let adapt = args.has("adapt");
    if adapt {
        cfg = cfg.with_adapt(ccs_exec::AdaptConfig::default());
    }
    // Workload-aware binding by file stem: a graph saved as
    // `phase-shift.json` (`ccs gen app phase-shift`) gets its seeded
    // perturbation kernels, everything else the synthetic binding.
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("");
    let inst = ccs_apps::bound_instance(stem, g);
    let pr = planner.plan_and_run_parallel(inst, rounds, &cfg)?;
    let stats = &pr.stats;
    let totals = stats.counter_totals();
    if args.has("json") {
        let workers_json: Vec<serde_json::Value> = stats
            .workers
            .iter()
            .map(|w| {
                serde_json::json!({
                    "worker": w.worker,
                    "segments": w.segments,
                    "firings": w.firings,
                    "batches": w.batches,
                    "stalls": w.stalls,
                    "stall_ms": w.stall_time.as_secs_f64() * 1e3,
                    "busy_ms": w.busy.as_secs_f64() * 1e3,
                    "pinned_cpu": w.pinned_cpu,
                    "counters": w.counters.as_ref().map(|s| s.to_json(None)),
                    "warmup_excluded_batches": w.warmup_excluded,
                    "migrations": w.migrations,
                    "windows": w.windows.iter().map(ccs_obs::window_json).collect::<Vec<_>>(),
                    "trace_events": w.trace.as_ref().map_or(0, |t| t.events.len() as u64),
                    "trace_dropped": w.trace.as_ref().map_or(0, |t| t.dropped),
                })
            })
            .collect();
        // Per-segment attribution (only when requested): misses per
        // sink item per segment over the steady-state window.
        let segments_json: Vec<serde_json::Value> = stats
            .segment_counters()
            .iter()
            .map(|sc| {
                let mut v = sc.sample.to_json(None);
                if let serde_json::Value::Object(pairs) = &mut v {
                    pairs.insert(0, ("seg".into(), serde_json::json!(sc.seg)));
                    pairs.insert(1, ("batches".into(), serde_json::json!(sc.batches)));
                    pairs.insert(
                        2,
                        (
                            "batches_counted".into(),
                            serde_json::json!(sc.batches_counted),
                        ),
                    );
                    pairs.insert(
                        3,
                        (
                            "llc_misses_per_item".into(),
                            serde_json::to_value(sc.per_item(
                                ccs_perf::CounterKind::LlcMisses,
                                stats.items_per_round(),
                            ))
                            .unwrap_or(serde_json::Value::Null),
                        ),
                    );
                }
                v
            })
            .collect();
        // Counter tri-state: "off" (not requested), "unavailable"
        // (requested, nothing opened anywhere — containers, paranoid),
        // or the aggregated readings.
        let counters_json = if !counters {
            serde_json::Value::String("off".into())
        } else {
            match &totals {
                // Per-worker samples get no item denominator (items are
                // a sink-level quantity), so only the aggregate carries
                // llc_misses_per_item.
                Some(t) => t.to_json(Some(stats.run.sink_items)),
                None => serde_json::Value::String("unavailable".into()),
            }
        };
        let mut top = serde_json::json!({
            "strategy": pr.strategy_used,
            "placement": placement.name(),
            "pin_cores": cfg.pin_cores,
            "pinned_workers": stats.pinned_workers(),
            "segments": stats.segments,
            "workers": workers,
            "granularity_t": stats.t,
            "rounds": stats.rounds,
            "warmup_batches": stats.warmup,
            "warmup_mode": stats.warmup_mode.name(),
            "first_touch_rings": stats.first_touch_rings,
            "rings_touched": stats.rings_first_touched(),
            "adapt": adapt,
            "migrations": stats.total_migrations(),
            "trace_enabled": stats.trace_enabled,
            "trace_events": stats.trace_events(),
            "trace_dropped": stats.trace_dropped(),
            "window_batches": stats.window_batches,
            // All workers' windows merged onto one time axis.
            "windows": stats.windows().iter().map(|(w, s)| {
                let mut v = ccs_obs::window_json(s);
                if let serde_json::Value::Object(pairs) = &mut v {
                    pairs.insert(0, ("worker".into(), serde_json::json!(*w as u64)));
                }
                v
            }).collect::<Vec<_>>(),
            "measured_sink_items": stats.measured_sink_items(),
            "bandwidth": pr.bandwidth.to_f64(),
            "firings": stats.run.firings,
            "sink_items": stats.run.sink_items,
            "wall_ms": stats.run.wall.as_secs_f64() * 1e3,
            "stall_ms": stats.total_stall_time().as_secs_f64() * 1e3,
            "items_per_sec": stats.items_per_sec(),
            "digest": format!("{:016x}", stats.run.digest.unwrap_or(0)),
            "counters": counters_json,
            "counted_workers": stats.counted_workers(),
            "per_worker": workers_json,
        });
        if segment_counters {
            if let serde_json::Value::Object(pairs) = &mut top {
                pairs.push((
                    "per_segment".to_string(),
                    serde_json::Value::Array(segments_json),
                ));
            }
        }
        return Ok(serde_json::to_string_pretty(&top)?);
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "strategy {} | placement {} | {} segments on {} workers{} | T = {}",
        pr.strategy_used,
        placement.name(),
        stats.segments,
        workers,
        if cfg.pin_cores {
            format!(" ({} pinned)", stats.pinned_workers())
        } else {
            String::new()
        },
        stats.t,
    );
    let _ = writeln!(
        out,
        "{} firings, {} sink items in {:.2} ms = {:.3} M items/s | digest {:016x}",
        stats.run.firings,
        stats.run.sink_items,
        stats.run.wall.as_secs_f64() * 1e3,
        stats.items_per_sec() / 1e6,
        stats.run.digest.unwrap_or(0),
    );
    if counters {
        if stats.warmup > 0 {
            let _ = writeln!(
                out,
                "warmup: first {} of {} batches/segment excluded from counters \
                 ({} steady-state sink items measured)",
                stats.warmup,
                stats.rounds,
                stats.measured_sink_items(),
            );
        }
        match &totals {
            Some(t) => {
                use ccs_perf::CounterKind as K;
                let _ = writeln!(
                    out,
                    "counters ({} worker{}): llc misses {}{} | mpki {} | ipc {}{}",
                    stats.counted_workers(),
                    if stats.counted_workers() == 1 {
                        ""
                    } else {
                        "s"
                    },
                    t.get(K::LlcMisses).map_or("n/a".into(), |v| v.to_string()),
                    stats
                        .llc_misses_per_item()
                        .map_or(String::new(), |v| format!(" ({v:.3}/item)")),
                    t.mpki().map_or("n/a".into(), |v| format!("{v:.3}")),
                    t.ipc().map_or("n/a".into(), |v| format!("{v:.2}")),
                    if t.multiplexed() {
                        " | multiplexed (scaled)"
                    } else {
                        ""
                    },
                );
            }
            None => {
                let probe = ccs_perf::probe();
                let _ = writeln!(
                    out,
                    "counters: unavailable ({})",
                    probe
                        .reason
                        .as_deref()
                        .unwrap_or("no worker opened a group"),
                );
            }
        }
    }
    if adapt || stats.total_migrations() > 0 {
        let _ = writeln!(
            out,
            "migrations: {} live segment handoff(s){}",
            stats.total_migrations(),
            if adapt {
                " (online controller over the counter-window stream)"
            } else {
                ""
            },
        );
    }
    if stats.trace_enabled || stats.window_batches > 0 {
        let _ = writeln!(
            out,
            "obs: {} trace events ({} dropped) | {} counter windows every {} batches \
             ({} timing-only, {} low-residency) — export with `ccs trace`",
            stats.trace_events(),
            stats.trace_dropped(),
            stats.window_count(),
            stats.window_batches,
            stats.windows_timing_only(),
            stats.windows_scaled_below(warn_residency_of(args)?),
        );
    }
    if segment_counters {
        let per_round = stats.items_per_round();
        for sc in stats.segment_counters() {
            let _ = writeln!(
                out,
                "  segment {}: {}/{} batches counted{}",
                sc.seg,
                sc.batches_counted,
                sc.batches,
                match sc.per_item(ccs_perf::CounterKind::LlcMisses, per_round) {
                    Some(v) => format!(", {v:.3} llc misses/item"),
                    None => ", llc misses/item n/a".to_string(),
                },
            );
        }
    }
    for w in &stats.workers {
        let _ = writeln!(
            out,
            "  worker {}{}: segments {:?}, {} firings, {} batches, {} stalls ({:.2} ms), busy {:.2} ms{}",
            w.worker,
            match w.pinned_cpu {
                Some(cpu) => format!(" @cpu{cpu}"),
                None => String::new(),
            },
            w.segments,
            w.firings,
            w.batches,
            w.stalls,
            w.stall_time.as_secs_f64() * 1e3,
            w.busy.as_secs_f64() * 1e3,
            match w.migrations {
                0 => String::new(),
                n => format!(", {n} handoff(s) released"),
            } + &w
                .counters
                .as_ref()
                .and_then(|s| s.get(ccs_perf::CounterKind::LlcMisses))
                .map_or(String::new(), |m| format!(", {m} llc misses")),
        );
    }
    Ok(out)
}

/// `ccs trace` — run a graph with event tracing on and export the
/// per-worker timelines as a Chrome trace-event document
/// (`ccs-trace/v1`). The default output is the text summary; `--json`
/// prints the raw document and `-o FILE` saves it for Perfetto
/// (ui.perfetto.dev) or a later `ccs report`. Counter windows close
/// every W batches (`--windows`, default 1) so each worker's track
/// carries a counter series next to its batch/stall spans; without a
/// usable PMU the windows degrade to timing-only spans.
fn trace_cmd(args: &Args) -> CliResult {
    emit_trace(args, build_trace_doc(args)?)
}

/// The `ccs trace` run itself: execute the graph with tracing on and
/// build the `ccs-trace/v1` document. Shared with `ccs analyze --m`
/// (live analysis), so both subcommands describe the identical run.
fn build_trace_doc(args: &Args) -> Result<serde_json::Value, Box<dyn Error>> {
    use ccs_obs::chrome::{self, TraceWorker};
    let path = args.positional(0, "graph file")?;
    let g = load(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .map_or_else(|| path.to_string(), |s| s.to_string_lossy().into_owned());
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let rounds = args.u64_or("rounds", 8)?.max(1);
    let windows = args.u64_or("windows", 1)?;
    let trace_cap = args.u64_or("trace-cap", 0)? as usize;
    // Tracing is the point of this subcommand, so counters default on
    // (they only annotate; `--no-counters` drops to timing-only).
    let counters = !args.has("no-counters");
    let warmup = args.u64_or("warmup", 0)?;
    let warn_residency = warn_residency_of(args)?;
    // Echo where the machine model came from, so a saved document is
    // self-describing on another machine.
    let topology = match (args.flag("topo"), args.flag("topo-from")) {
        (Some(spec), _) => spec.to_string(),
        (None, Some(_)) => "replay".to_string(),
        (None, None) => "host".to_string(),
    };
    let warmup_mode = if args.has("per-worker-warmup") {
        ccs_exec::WarmupMode::PerWorker
    } else {
        ccs_exec::WarmupMode::Epoch
    };

    if args.has("serial") {
        let plan = planner.plan(&g, Horizon::Rounds(rounds))?;
        let firings_per_round = (plan.run.firings.len() as u64) / rounds;
        let mut inst = ccs_runtime::Instance::synthetic(g);
        let (run, obs) = ccs_runtime::serial::execute_obs(
            &mut inst,
            &plan.run,
            &ccs_runtime::ObsConfig {
                counters,
                warmup_firings: warmup.min(rounds - 1) * firings_per_round,
                window_firings: windows * firings_per_round,
                block_firings: firings_per_round,
                trace: true,
                trace_capacity: trace_cap,
            },
        );
        let tl = obs.trace.as_ref().expect("trace was requested");
        let workers = [TraceWorker {
            worker: 0,
            name: "serial".to_string(),
            events: &tl.events,
            dropped: tl.dropped,
            windows: &obs.windows,
        }];
        let meta = serde_json::json!({
            "engine": "serial",
            "workers": 1u64,
            "rounds": rounds,
            "warmup": warmup.min(rounds - 1),
            "windows_every": windows,
            "wall_ms": run.wall.as_secs_f64() * 1e3,
            "digest": format!("{:016x}", run.digest.unwrap_or(0)),
        });
        return Ok(chrome::document_with(&name, meta, &workers, warn_residency));
    }

    let workers = workers_of(args)?;
    let placement = match args.flag("placement") {
        None => ccs_exec::Placement::RoundRobin,
        Some(p) => ccs_exec::Placement::parse(p)
            .ok_or_else(|| format!("unknown placement '{p}' (rr|greedy|llc)"))?,
    };
    let mut cfg = RunConfig::new(workers)
        .with_placement(placement)
        .with_pinning(args.has("pin-cores"))
        .with_counters(counters)
        .with_warmup(warmup)
        .with_warmup_mode(warmup_mode)
        .with_trace(true)
        .with_windows(windows)
        .with_trace_capacity(trace_cap);
    if args.has("adapt") {
        cfg = cfg.with_adapt(ccs_exec::AdaptConfig::default());
    }
    if let Some(topo) = topo_of(args)? {
        cfg = cfg.with_topology(topo);
    }
    // Bind by file stem so `phase-shift.json` traces with its seeded
    // perturbation kernels — the workload the adaptive controller is
    // built to answer.
    let inst = ccs_apps::bound_instance(&name, g);
    let pr = planner.plan_and_run_parallel(inst, rounds, &cfg)?;
    let stats = &pr.stats;
    let tracks: Vec<TraceWorker> = stats
        .workers
        .iter()
        .map(|w| TraceWorker {
            worker: w.worker,
            name: match w.pinned_cpu {
                Some(cpu) => format!("worker {} @cpu{cpu}", w.worker),
                None => format!("worker {}", w.worker),
            },
            events: w.trace.as_ref().map_or(&[][..], |t| &t.events),
            dropped: w.trace.as_ref().map_or(0, |t| t.dropped),
            windows: &w.windows,
        })
        .collect();
    let meta = serde_json::json!({
        "engine": "parallel",
        "strategy": pr.strategy_used,
        "placement": placement.name(),
        "pin_cores": cfg.pin_cores,
        "topology": topology,
        "warmup_mode": warmup_mode.name(),
        "workers": workers as u64,
        "rounds": rounds,
        "warmup": warmup,
        "windows_every": windows,
        "wall_ms": stats.run.wall.as_secs_f64() * 1e3,
        "digest": format!("{:016x}", stats.run.digest.unwrap_or(0)),
    });
    Ok(chrome::document_with(&name, meta, &tracks, warn_residency))
}

/// Shared tail of `ccs trace`: save with `-o`, print raw JSON with
/// `--json`, otherwise render the text summary.
fn emit_trace(args: &Args, doc: serde_json::Value) -> CliResult {
    let json = serde_json::to_string_pretty(&doc)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        return Ok(json);
    }
    let mut rendered = ccs_obs::chrome::render(&doc)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(
            rendered,
            "wrote {path} — load it at ui.perfetto.dev or chrome://tracing"
        );
    }
    Ok(rendered)
}

/// Shared tail of trace analysis (`ccs analyze`): save the
/// `ccs-analysis/v1` document with `-o`, print it raw with `--json`,
/// otherwise render the text summary.
fn emit_analysis(args: &Args, doc: serde_json::Value) -> CliResult {
    let json = serde_json::to_string_pretty(&doc)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        return Ok(json);
    }
    let mut rendered = ccs_insight::render(&doc)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(rendered, "wrote {path}");
    }
    Ok(rendered)
}

/// `--warn-residency R`: the PMU-residency ratio below which a counter
/// window is flagged as low-residency (default
/// [`ccs_obs::MULTIPLEX_WARN_RATIO`]).
fn warn_residency_of(args: &Args) -> Result<f64, Box<dyn Error>> {
    match args.flag("warn-residency") {
        None => Ok(ccs_obs::MULTIPLEX_WARN_RATIO),
        Some(w) => w
            .parse::<f64>()
            .map_err(|_| format!("--warn-residency: '{w}' is not a number").into()),
    }
}

fn topo_cmd(args: &Args) -> CliResult {
    let topo = match topo_of(args)? {
        Some(t) => t,
        None => Topology::discover(),
    };
    let probe = ccs_perf::probe();
    if args.has("json") {
        let clusters: Vec<serde_json::Value> = topo
            .clusters()
            .iter()
            .map(|c| {
                let cpus: Vec<usize> = c.cores.iter().map(|&i| topo.core(i).cpu).collect();
                serde_json::json!({
                    "node": c.node,
                    "os_node": topo.node(c.node).os_node,
                    "cpus": cpus,
                    "cpulist": format_cpulist(&cpus),
                })
            })
            .collect();
        return Ok(serde_json::to_string_pretty(&serde_json::json!({
            "source": topo.source().name(),
            "nodes": topo.node_count(),
            "llc_clusters": topo.cluster_count(),
            "cores": topo.core_count(),
            "clusters": clusters,
            "perf_counters": serde_json::json!({
                "available": probe.available,
                "events": probe.events,
                "reason": probe.reason,
            }),
        }))?);
    }
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(out, "{}", topo.summary());
    match &probe.reason {
        None => {
            let _ = writeln!(
                out,
                "perf counters: available ({})",
                probe.events.join(", ")
            );
        }
        Some(reason) => {
            let _ = writeln!(out, "perf counters: unavailable ({reason})");
        }
    }
    for (n, node) in topo.nodes().iter().enumerate() {
        if node.os_node == n {
            let _ = writeln!(out, "node {n}:");
        } else {
            // Dense index for placement math, OS id for numactl/lscpu.
            let _ = writeln!(out, "node {n} (os node {}):", node.os_node);
        }
        for &ci in &node.clusters {
            let cpus: Vec<usize> = topo
                .cluster(ci)
                .cores
                .iter()
                .map(|&i| topo.core(i).cpu)
                .collect();
            let _ = writeln!(out, "  llc {ci}: cpus {}", format_cpulist(&cpus));
        }
    }
    Ok(out)
}

/// `ccs report FILE` — render a `ccs-sweep/v1` results document (the
/// schema `ccs sweep` and the e19/e20/e21 binaries emit) as aligned
/// text, via the same renderer the binaries print with. Tolerant of
/// nulls: cells measured where counters were unavailable render as
/// `n/a` rather than erroring, so reports from restricted hosts are
/// still inspectable.
fn report_cmd(args: &Args) -> CliResult {
    use ccs_bench::track;
    // `--history [FILE]`: render the bench trend view instead of a
    // single document; FILE defaults to the history store `ccs bench`
    // appends to.
    if args.has("history") {
        let path = args
            .positionals
            .first()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(track::default_history_path);
        let records = track::load_history(&path)?;
        let last = args.u64_or("last", 10)?.max(1) as usize;
        return Ok(track::render_history(&records, last));
    }
    let path = args.positional(0, "report file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    // Dispatch on the document's schema tag: trace exports render
    // through `ccs-obs`, analysis documents through `ccs-insight`,
    // bench records through the track renderer, everything else
    // through the sweep renderer. A file that is not a single JSON
    // document but parses as NDJSON bench history renders as the
    // trend view.
    let v: serde_json::Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            if let Ok(records) = track::parse_history(&text) {
                if !records.is_empty() {
                    return Ok(track::render_history(&records, 10));
                }
            }
            return Err(format!("{path} is not JSON: {e}").into());
        }
    };
    if v["schema"].as_str() == Some(ccs_obs::chrome::SCHEMA) {
        return ccs_obs::chrome::render(&v).map_err(|e| format!("{path}: {e}").into());
    }
    if v["schema"].as_str() == Some(ccs_insight::SCHEMA) {
        return ccs_insight::render(&v).map_err(|e| format!("{path}: {e}").into());
    }
    if v["schema"].as_str() == Some(track::SCHEMA) {
        return track::render_record(&v).map_err(|e| format!("{path}: {e}").into());
    }
    ccs_bench::sweep::render(&v).map_err(|e| format!("{path}: {e}").into())
}

/// Comma-separated flag values.
fn csv(args: &Args, name: &str, default: &str) -> Vec<String> {
    args.flag(name)
        .unwrap_or(default)
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect()
}

/// `ccs sweep` — declare and run an experiment grid. The grid comes
/// from `--spec FILE` (a JSON sweep spec, see `ccs_bench::sweep`) or
/// from the flags: apps × workers × placements × pinning, with an
/// optional serial baseline cell. Prints the rendered report (or the
/// raw document with `--json`); `-o FILE` saves the `ccs-sweep/v1`
/// JSON for `ccs report`.
fn sweep_cmd(args: &Args) -> CliResult {
    use ccs_bench::sweep::{self, Cell, Metric, Sweep};
    let mut sweep = match args.flag("spec") {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let v: serde_json::Value =
                serde_json::from_str(&text).map_err(|e| format!("{path} is not JSON: {e}"))?;
            sweep::from_spec(&v)?
        }
        None => {
            let mut s = Sweep::new(args.flag("name").unwrap_or("sweep"))
                .with_repeats(args.u64_or("repeats", 3)?.max(1) as usize)
                .with_rounds(args.u64_or("rounds", 8)?.max(1));
            s.seed = args.u64_or("seed", 42)?;
            if let Some(c) = args.flag("confidence") {
                s.confidence = c
                    .parse::<f64>()
                    .map_err(|_| format!("--confidence: '{c}' is not a number"))?;
            }
            for app in csv(args, "apps", "fm-radio,layered-dag") {
                let (name, g) = sweep::workload(&app).ok_or_else(|| {
                    format!("unknown app '{app}' (try `ccs gen app list`, or 'layered-dag')")
                })?;
                s = s.with_workload(name, g);
            }
            let segment_counters = args.has("segment-counters");
            let counters = args.has("counters") || segment_counters;
            let warmup = args.u64_or("warmup", 0)?;
            let stride = args.u64_or("stride", 1)?;
            let warmup_mode = if args.has("per-worker-warmup") {
                ccs_exec::WarmupMode::PerWorker
            } else {
                ccs_exec::WarmupMode::Epoch
            };
            let topo = match args.flag("topo") {
                Some(spec) => Some(spec.parse::<ccs_topo::TopoSpec>()?),
                None => None,
            };
            if args.has("serial") {
                s = s.with_cell(
                    Cell::serial()
                        .with_counters(counters)
                        .with_warmup(warmup)
                        .with_trace(args.has("trace"))
                        .with_windows(args.u64_or("windows", 0)?),
                );
            }
            let pins: &[bool] = match args.flag("pin") {
                None | Some("off") => &[false],
                Some("on") => &[true],
                Some("both") => &[false, true],
                Some(other) => return Err(format!("--pin {other}: want on|off|both").into()),
            };
            for w in csv(args, "workers", "2") {
                let workers = match w.parse::<usize>() {
                    Ok(0) => return Err("--workers must be at least 1".into()),
                    Ok(n) => n,
                    Err(_) => return Err(format!("--workers: '{w}' is not a number").into()),
                };
                for p in csv(args, "placements", "rr,llc") {
                    let placement = ccs_exec::Placement::parse(&p)
                        .ok_or_else(|| format!("unknown placement '{p}' (rr|greedy|llc)"))?;
                    for &pin in pins {
                        let mut cell = Cell::parallel(workers, placement)
                            .with_pinning(pin)
                            .with_counters(counters)
                            .with_segment_counters(segment_counters)
                            .with_counter_stride(stride)
                            .with_warmup(warmup)
                            .with_warmup_mode(warmup_mode)
                            .with_first_touch(args.has("first-touch"))
                            .with_trace(args.has("trace"))
                            .with_windows(args.u64_or("windows", 0)?);
                        if let Some(t) = topo {
                            cell = cell.with_topology(t);
                        }
                        // `--adapt` doubles each parallel cell with an
                        // adaptive twin, so every point of the grid gets
                        // its own pairing.
                        s = s.with_cell(cell.clone());
                        if args.has("adapt") {
                            if args.u64_or("windows", 0)? == 0 {
                                return Err("--adapt requires --windows >= 1 (the controller \
                                            is driven by the counter-window stream)"
                                    .into());
                            }
                            s = s.with_cell(cell.with_adapt(true));
                        }
                    }
                }
            }
            // Comparison family: every cell against the chosen (or
            // first) baseline, on the requested metrics.
            match args.flag("baseline") {
                None => s = sweep::default_comparisons(s),
                Some(baseline) => {
                    for m in csv(args, "metrics", "llc_misses_per_item,wall_ms") {
                        let metric =
                            Metric::parse(&m).ok_or_else(|| format!("unknown metric '{m}'"))?;
                        for cell in s.cells.clone() {
                            let label = cell.label();
                            if label != baseline {
                                s = s.with_comparison(metric, baseline, label);
                            }
                        }
                    }
                }
            }
            s
        }
    };
    // The flag overrides both the flag-built grid and a spec file;
    // absent, a spec's own `warn_residency` (or the default) stands.
    if args.flag("warn-residency").is_some() {
        sweep.warn_residency = warn_residency_of(args)?;
    }
    let out = sweep.run()?;
    let json = serde_json::to_string_pretty(&out)?;
    if let Some(path) = args.flag("out") {
        std::fs::write(path, &json)?;
    }
    if args.has("json") {
        // Machine-readable mode: pure JSON on stdout, like the other
        // --json subcommands.
        return Ok(json);
    }
    let mut rendered = ccs_bench::sweep::render(&out)?;
    if let Some(path) = args.flag("out") {
        use std::fmt::Write as _;
        let _ = write!(rendered, "wrote {path}");
    }
    Ok(rendered)
}

/// `ccs bench` — the continuous-tracking entry point: run the
/// canonical sweep, append a `ccs-bench/v1` record to the NDJSON
/// history, and judge it against the newest record with the same
/// machine fingerprint. With `--check`, a significant
/// beyond-tolerance regression on any metric is an error (exit 1) —
/// the CI perf gate. A run with no matching baseline seeds the
/// history instead of failing, so new machines and grid changes
/// self-initialize.
fn bench_cmd(args: &Args) -> CliResult {
    use ccs_bench::track;
    let smoke = ccs_bench::sweep::smoke();
    let repeats = args
        .u64_or(
            "repeats",
            ccs_bench::sweep::repeats_or(if smoke { 3 } else { 5 }) as u64,
        )?
        .max(2) as usize;
    let rounds = args.u64_or("rounds", if smoke { 4 } else { 24 })?.max(1);
    let apps = csv(args, "apps", "fm-radio,layered-dag");
    let sweep = track::canonical_sweep(repeats, rounds, &apps)?;
    let fp = track::Fingerprint::detect(&sweep);
    let timestamp = match args.flag("timestamp") {
        Some(t) => t
            .parse::<u64>()
            .map_err(|_| format!("--timestamp: '{t}' is not a number"))?,
        None => std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
    };
    let mut cfg = track::CompareCfg::for_fingerprint(&fp);
    if let Some(t) = args.flag("tolerance") {
        cfg.tolerance = t
            .parse::<f64>()
            .map_err(|_| format!("--tolerance: '{t}' is not a number"))?;
    }
    let store = args
        .flag("store")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(track::default_history_path);
    // The baseline search defaults to the store itself; --baseline
    // judges against a different history (e.g. the checked-in CI
    // record) without touching where this run is appended.
    let baseline_path = args
        .flag("baseline")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| store.clone());
    let history = track::load_history(&baseline_path)?;

    let doc = sweep.run()?;
    let record = track::record_from_sweep(&doc, &fp, &track::git_rev(), timestamp)?;
    let baseline = track::latest_matching(&history, &fp);
    let comparison = baseline.map(|b| track::compare_records(b, &record, &cfg));

    let appended = if args.has("no-append") {
        None
    } else {
        track::append_record(&store, &record)
            .map_err(|e| format!("cannot append to {}: {e}", store.display()))?;
        Some(store.display().to_string())
    };

    let mut out = String::new();
    if args.has("json") {
        out = serde_json::to_string_pretty(&serde_json::json!({
            "record": record.clone(),
            "comparison": comparison.clone().unwrap_or(serde_json::Value::Null),
        }))?;
    } else {
        out.push_str(&track::render_record(&record)?);
        match &comparison {
            Some(cmp) => out.push_str(&track::render_comparison(cmp)),
            None => out.push_str(
                "no matching baseline in history — this run seeds it \
                 (fingerprint never seen, or empty history)\n",
            ),
        }
        use std::fmt::Write as _;
        match appended {
            Some(path) => {
                let _ = writeln!(out, "appended to {path}");
            }
            None => {
                let _ = writeln!(out, "not appended (--no-append)");
            }
        }
    }
    if args.has("check") {
        if let Some(cmp) = &comparison {
            let regressed = cmp["regressed"].as_u64().unwrap_or(0);
            if regressed > 0 {
                return Err(format!(
                    "performance REGRESSED — {regressed} metric(s) significantly worse \
                     than the baseline:\n{}",
                    track::render_comparison(cmp),
                )
                .into());
            }
        }
    }
    emit(args, out)
}

fn compare(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let params = params_of(args)?;
    let outputs = args.u64_or("outputs", 1000)?;
    let rows = compare_schedulers(&g, params, outputs);
    if rows.is_empty() {
        return Err("no scheduler could run (is the graph rate matched?)".into());
    }
    Ok(format_table("scheduler comparison", &rows))
}

fn autotune_cmd(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let params = params_of(args)?;
    let planner = Planner::new(params);
    let outputs = args.u64_or("outputs", 1000)?;
    let trial = (outputs / 4).max(50);
    let tuned = ccs_core::autotune::autotune(
        &planner,
        &g,
        Horizon::SinkFirings(trial),
        Horizon::SinkFirings(outputs),
    )?;
    let mut out = String::new();
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{:<22} {:>14} {:>11} {:>11}",
        "strategy", "misses/output", "components", "bandwidth"
    );
    for t in &tuned.trials {
        let _ = writeln!(
            out,
            "{:<22} {:>14.4} {:>11} {:>11.3}",
            t.strategy_used, t.misses_per_output, t.components, t.bandwidth
        );
    }
    let _ = writeln!(out, "winner: {}", tuned.plan.strategy_used);
    Ok(out)
}

fn fuse_cmd(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    let ra = RateAnalysis::analyze_single_io(&g)?;
    let planner = Planner::new(params_of(args)?).with_strategy(strategy_of(args)?);
    let (p, bw, used) = planner.partition(&g, &ra)?;
    let fused = ccs_partition::fusion::fuse(&g, &ra, &p).ok_or("partition is not well ordered")?;
    let summary = format!(
        "fused {} modules into {} via {used} (bandwidth {bw})",
        g.node_count(),
        fused.graph.node_count()
    );
    match args.flag("out") {
        Some(path) => {
            std::fs::write(path, serde_json::to_string_pretty(&fused.graph)?)?;
            Ok(format!("{summary}\nwrote {path}"))
        }
        None => Ok(format!(
            "{summary}\n{}",
            serde_json::to_string_pretty(&fused.graph)?
        )),
    }
}

fn dot(args: &Args) -> CliResult {
    let g = load(args.positional(0, "graph file")?)?;
    emit(args, ccs_graph::dot::to_dot(&g))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("ccs-cli-test-{name}-{}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn gen_analyze_roundtrip() {
        let path = tmp("g1.json");
        let out = run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        assert!(out.contains("wrote"));
        let report = run("analyze", &args(&[&path])).unwrap();
        assert!(report.contains("nodes        : 8"));
        assert!(report.contains("pipeline     : true"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn gen_app_and_partition() {
        let path = tmp("g2.json");
        run("gen", &args(&["app", "fm-radio", "-o", &path])).unwrap();
        let out = run("partition", &args(&[&path, "--m", "1088", "--b", "16"])).unwrap();
        assert!(out.contains("components"));
        assert!(out.contains("bandwidth"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn simulate_json_output() {
        let path = tmp("g3.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "12", "--state", "96", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "simulate",
            &args(&[&path, "--m", "1024", "--outputs", "200", "--json"]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed["misses"].as_u64().unwrap() > 0);
        assert_eq!(parsed["graph_nodes"].as_u64().unwrap(), 12);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_text_and_json() {
        let path = tmp("g7.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "run-dag",
            &args(&[&path, "--m", "1024", "--workers", "2", "--rounds", "3"]),
        )
        .unwrap();
        assert!(out.contains("segments"), "{out}");
        assert!(out.contains("worker 0:"), "{out}");
        let out = run(
            "run-dag",
            &args(&[
                &path,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "3",
                "--placement",
                "greedy",
                "--json",
            ]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["workers"].as_u64(), Some(2));
        assert_eq!(parsed["placement"].as_str(), Some("comm-greedy"));
        assert!(parsed["items_per_sec"].as_f64().unwrap() > 0.0);
        assert!(run(
            "run-dag",
            &args(&[&path, "--m", "256", "--placement", "bogus"]),
        )
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_workers_is_rejected() {
        let path = tmp("g_zero_workers.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "6", "--state", "64", "-o", &path]),
        )
        .unwrap();
        for cmd in ["run-dag", "trace"] {
            let err = run(cmd, &args(&[&path, "--m", "1024", "--workers", "0"]))
                .expect_err(cmd)
                .to_string();
            assert!(err.contains("--workers must be at least 1"), "{cmd}: {err}");
        }
        let err = run("sweep", &args(&["--apps", "fm-radio", "--workers", "2,0"]))
            .expect_err("sweep")
            .to_string();
        assert!(err.contains("--workers must be at least 1"), "sweep: {err}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_llc_with_topology_and_pinning() {
        let path = tmp("g8.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "12", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "4", "--rounds", "2"];
        let mut with_llc: Vec<&str> = base.to_vec();
        with_llc.extend([
            "--placement",
            "llc",
            "--topo",
            "1x2x2",
            "--pin-cores",
            "--json",
        ]);
        let out = run("run-dag", &args(&with_llc)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["placement"].as_str(), Some("llc"));
        assert_eq!(parsed["pin_cores"].as_bool(), Some(true));
        assert!(parsed["stall_ms"].as_f64().is_some());
        assert!(parsed["per_worker"][0]["stall_ms"].as_f64().is_some());
        let llc_digest = parsed["digest"].as_str().unwrap().to_string();
        // Same schedule length under the default placement: digests match.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let out = run("run-dag", &args(&plain)).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(llc_digest.as_str()));
        // Bad topology spec is an error.
        let mut bad: Vec<&str> = base.to_vec();
        bad.extend(["--topo", "0x1"]);
        assert!(run("run-dag", &args(&bad)).is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_adapt_migrates_and_keeps_the_digest() {
        // The file stem is the workload binding: `phase-shift.json`
        // gets the seeded perturbation kernels, so the controller has
        // a real mid-run work step to react to.
        let dir = std::env::temp_dir().join(format!("ccs-cli-adapt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("phase-shift.json").to_string_lossy().into_owned();
        run("gen", &args(&["app", "phase-shift", "-o", &path])).unwrap();
        let base = [
            &path,
            "--m",
            "1024",
            "--workers",
            "2",
            "--rounds",
            "24",
            "--windows",
            "2",
            "--json",
        ];
        let stat: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&base)).unwrap()).unwrap();
        assert_eq!(stat["adapt"].as_bool(), Some(false));
        assert_eq!(stat["migrations"].as_u64(), Some(0));
        let mut adaptive: Vec<&str> = base.to_vec();
        adaptive.push("--adapt");
        let out = run("run-dag", &args(&adaptive)).unwrap();
        let ad: serde_json::Value = serde_json::from_str(&out).unwrap();
        // The seeded work step forces at least one live handoff, and
        // the digest is bit-identical to the static run regardless.
        assert_eq!(ad["adapt"].as_bool(), Some(true));
        assert!(ad["migrations"].as_u64().unwrap() >= 1, "{out}");
        assert_eq!(ad["digest"], stat["digest"]);
        let per_worker: u64 = match &ad["per_worker"] {
            serde_json::Value::Array(ws) => {
                ws.iter().map(|w| w["migrations"].as_u64().unwrap()).sum()
            }
            other => panic!("per_worker is not an array: {other:?}"),
        };
        assert_eq!(per_worker, ad["migrations"].as_u64().unwrap());
        // Adaptive control without the window stream is a loud error,
        // in run-dag and in the flag-built sweep grid alike.
        let err = run(
            "run-dag",
            &args(&[
                &path,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "2",
                "--adapt",
            ]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("windows"), "{err}");
        let err = run(
            "sweep",
            &args(&["--apps", "phase-shift", "--workers", "2", "--adapt"]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("--windows"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn run_dag_matches_the_serial_oracle() {
        let path = tmp("g7f.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [
            &path,
            "--m",
            "1024",
            "--workers",
            "2",
            "--rounds",
            "3",
            "--json",
        ];
        let out: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&base)).unwrap()).unwrap();
        // The same plan, three rounds, through the naive serial oracle.
        let g = load(&path).unwrap();
        let plan = Planner::new(CacheParams::new(1024, 16))
            .plan(&g, Horizon::Rounds(3))
            .unwrap();
        let mut inst = ccs_runtime::Instance::synthetic(g);
        let oracle = ccs_runtime::serial::execute(&mut inst, &plan.run);
        let want = format!("{:016x}", oracle.digest.expect("sink digest"));
        assert_eq!(out["digest"].as_str(), Some(want.as_str()));
        assert_eq!(out["sink_items"].as_u64(), Some(oracle.sink_items));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn help_after_a_subcommand_runs_nothing() {
        // A missing graph file or an unwritable -o path would fail if
        // the subcommand ran; --help must short-circuit before either.
        let out_path = tmp("never-written.json");
        for cmd in ["sweep", "run-dag", "bench"] {
            let out = run(
                cmd,
                &args(&["no-such-graph.json", "--m", "64", "-o", &out_path, "--help"]),
            )
            .unwrap();
            assert!(out.contains("USAGE"), "{cmd}: {out}");
        }
        assert!(!std::path::Path::new(&out_path).exists());
    }

    #[test]
    fn run_dag_counters_tristate() {
        let path = tmp("g9.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "2"];
        // Not requested: explicit "off".
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        assert_eq!(parsed["counters"].as_str(), Some("off"));
        let digest = parsed["digest"].as_str().unwrap().to_string();
        // Requested: either aggregated readings or the explicit
        // "unavailable" fallback — never absent, never a crash; and the
        // digest must be untouched by instrumentation.
        let mut counted: Vec<&str> = base.to_vec();
        counted.extend(["--counters", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&counted)).unwrap()).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        let c = &parsed["counters"];
        if c.as_str() == Some("unavailable") {
            assert_eq!(parsed["counted_workers"].as_u64(), Some(0));
            assert!(parsed["per_worker"][0]["counters"].is_null());
        } else {
            // The object carries the headline metric (possibly null if
            // the LLC event didn't open on this machine).
            assert!(c["multiplexed"].as_bool().is_some(), "{c:?}");
            assert!(parsed["counted_workers"].as_u64().unwrap() > 0);
        }
        // Text mode mentions counters when requested.
        let mut text: Vec<&str> = base.to_vec();
        text.push("--counters");
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("counters"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_warmup_and_segment_counters() {
        let path = tmp("g11.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "8", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "4"];
        // Reference digest without any instrumentation.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        let digest = parsed["digest"].as_str().unwrap().to_string();
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(0));
        // Whole run measured when warmup is off.
        assert_eq!(
            parsed["measured_sink_items"].as_u64(),
            parsed["sink_items"].as_u64()
        );
        assert!(parsed["per_segment"].is_null());

        // Warmup + per-segment attribution: digest untouched, window
        // shrinks, per-segment entries appear (--segment-counters alone
        // implies --counters).
        let mut seg: Vec<&str> = base.to_vec();
        seg.extend(["--warmup", "1", "--segment-counters", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&seg)).unwrap()).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(1));
        let sink_items = parsed["sink_items"].as_u64().unwrap();
        assert_eq!(
            parsed["measured_sink_items"].as_u64(),
            Some(sink_items / 4 * 3)
        );
        let segs = &parsed["per_segment"];
        assert_eq!(
            segs.index(0).unwrap()["batches"].as_u64(),
            Some(4),
            "{segs:?}"
        );
        assert!(segs.index(0).unwrap()["batches_counted"].as_u64().unwrap() <= 3);
        // A huge warmup is clamped so a measured window remains.
        let mut huge: Vec<&str> = base.to_vec();
        huge.extend(["--counters", "--warmup", "999", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&huge)).unwrap()).unwrap();
        assert_eq!(parsed["warmup_batches"].as_u64(), Some(3));
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        // Text mode mentions the warmup window and segments.
        let mut text: Vec<&str> = base.to_vec();
        text.extend(["--segment-counters", "--warmup", "1"]);
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("warmup: first 1 of 4"), "{out}");
        assert!(out.contains("segment 0:"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_dag_trace_and_windows_json() {
        let path = tmp("g12.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &path]),
        )
        .unwrap();
        let base = [&path, "--m", "1024", "--workers", "2", "--rounds", "3"];
        // Reference digest with observability off; the obs fields are
        // present but inert.
        let mut plain: Vec<&str> = base.to_vec();
        plain.push("--json");
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&plain)).unwrap()).unwrap();
        let digest = parsed["digest"].as_str().unwrap().to_string();
        assert_eq!(parsed["trace_enabled"].as_bool(), Some(false));
        assert_eq!(parsed["trace_events"].as_u64(), Some(0));
        assert_eq!(parsed["window_batches"].as_u64(), Some(0));
        // Trace + windows: same digest, a recorded timeline, and the
        // merged per-worker window array.
        let mut traced: Vec<&str> = base.to_vec();
        traced.extend(["--trace", "--windows", "1", "--counters", "--json"]);
        let parsed: serde_json::Value =
            serde_json::from_str(&run("run-dag", &args(&traced)).unwrap()).unwrap();
        assert_eq!(parsed["digest"].as_str(), Some(digest.as_str()));
        assert_eq!(parsed["trace_enabled"].as_bool(), Some(true));
        assert!(parsed["trace_events"].as_u64().unwrap() > 0);
        assert_eq!(parsed["trace_dropped"].as_u64(), Some(0));
        assert_eq!(parsed["window_batches"].as_u64(), Some(1));
        let windows = match &parsed["windows"] {
            serde_json::Value::Array(w) => w,
            other => panic!("windows: {other:?}"),
        };
        assert!(!windows.is_empty());
        assert!(windows[0]["worker"].as_u64().is_some());
        assert!(windows[0]["batches"].as_u64().unwrap() >= 1);
        assert!(parsed["per_worker"][0]["trace_events"].as_u64().is_some());
        // Text mode carries the obs summary line.
        let mut text: Vec<&str> = base.to_vec();
        text.extend(["--trace", "--windows", "1"]);
        let out = run("run-dag", &args(&text)).unwrap();
        assert!(out.contains("obs:"), "{out}");
        assert!(out.contains("export with `ccs trace`"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn trace_exports_chrome_documents() {
        let g = tmp("g13.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &g]),
        )
        .unwrap();
        // Parallel run: save the document, render the text summary.
        let doc_path = tmp("trace-doc.json");
        let rendered = run(
            "trace",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "2",
                "--rounds",
                "3",
                "--windows",
                "1",
                "-o",
                &doc_path,
            ]),
        )
        .unwrap();
        assert!(rendered.contains("engine: \"parallel\""), "{rendered}");
        assert!(rendered.contains("worker 0:"), "{rendered}");
        assert!(
            rendered.contains(&format!("wrote {doc_path}")),
            "{rendered}"
        );
        // The saved document is the versioned trace schema with a
        // non-empty Chrome trace-event array (spans + thread metadata).
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&doc_path).unwrap()).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-trace/v1"));
        let events = match &v["traceEvents"] {
            serde_json::Value::Array(e) => e,
            other => panic!("traceEvents: {other:?}"),
        };
        assert!(!events.is_empty());
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("X")));
        assert!(events.iter().any(|e| e["ph"].as_str() == Some("M")));
        // `ccs report` dispatches on the schema tag and renders the
        // same summary.
        let reported = run("report", &args(&[&doc_path])).unwrap();
        assert!(rendered.starts_with(&reported), "{reported}");
        // Serial path: `--json` prints the raw document.
        let out = run(
            "trace",
            &args(&[&g, "--m", "1024", "--serial", "--rounds", "3", "--json"]),
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-trace/v1"));
        assert_eq!(v["meta"]["engine"].as_str(), Some("serial"));
        match &v["traceEvents"] {
            serde_json::Value::Array(e) => assert!(!e.is_empty()),
            other => panic!("traceEvents: {other:?}"),
        }
        std::fs::remove_file(doc_path).ok();
        std::fs::remove_file(g).ok();
    }

    #[test]
    fn sweep_output_roundtrips_through_report() {
        // A tiny grid from flags: serial baseline + rr/llc at 2
        // workers, 2 interleaved repeats. The engine asserts digest
        // equivalence across all cells; `-o` saves the ccs-sweep/v1
        // document and `ccs report` renders the same text.
        let path = tmp("sweep.json");
        let rendered = run(
            "sweep",
            &args(&[
                "--apps",
                "fm-radio",
                "--workers",
                "2",
                "--placements",
                "rr,llc",
                "--serial",
                "--repeats",
                "2",
                "--rounds",
                "3",
                "--name",
                "cli-test",
                "-o",
                &path,
            ]),
        )
        .unwrap();
        assert!(
            rendered.contains("cli-test: 2 repeats x 3 rounds"),
            "{rendered}"
        );
        assert!(rendered.contains("serial"), "{rendered}");
        assert!(rendered.contains("llc/w2"), "{rendered}");
        assert!(rendered.contains("paired deltas"), "{rendered}");
        assert!(rendered.contains(&format!("wrote {path}")), "{rendered}");
        // Round-trip: the saved document renders to the same report.
        let reported = run("report", &args(&[&path])).unwrap();
        assert!(rendered.starts_with(&reported), "{reported}");
        // The saved document is the versioned schema with digests and
        // the BH-adjusted comparison family.
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-sweep/v1"));
        let cells = match &v["cells"] {
            serde_json::Value::Array(c) => c,
            other => panic!("cells: {other:?}"),
        };
        assert_eq!(cells.len(), 3);
        let d0 = cells[0]["digest"].as_str().unwrap();
        assert!(cells.iter().all(|c| c["digest"].as_str() == Some(d0)));
        let comps = match &v["comparisons"] {
            serde_json::Value::Array(c) => c,
            other => panic!("comparisons: {other:?}"),
        };
        // Default family: serial (first cell) vs each of the two
        // parallel cells on miss/item and wall time. Wall time always
        // measures, so its comparisons carry BH-adjusted p-values.
        assert_eq!(comps.len(), 4);
        assert!(comps
            .iter()
            .filter(|c| c["metric"].as_str() == Some("wall_ms"))
            .all(|c| c["p_adjusted"].as_f64().is_some()));
        // --json emits the document itself — pure JSON on stdout even
        // with -o, like the other --json subcommands.
        let json_path = tmp("sweep-json.json");
        let out = run(
            "sweep",
            &args(&[
                "--apps",
                "fm-radio",
                "--workers",
                "2",
                "--placements",
                "rr",
                "--repeats",
                "1",
                "--rounds",
                "2",
                "--json",
                "-o",
                &json_path,
            ]),
        )
        .unwrap();
        let v: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(v["schema"].as_str(), Some("ccs-sweep/v1"));
        assert_eq!(std::fs::read_to_string(&json_path).unwrap(), out);
        std::fs::remove_file(json_path).ok();
        // Bad declarations are errors, not panics.
        assert!(run("sweep", &args(&["--apps", "nope"])).is_err());
        assert!(run("sweep", &args(&["--pin", "sideways"])).is_err());
        // A percent-style confidence is rejected, not silently voided.
        let err = run(
            "sweep",
            &args(&["--apps", "fm-radio", "--rounds", "2", "--confidence", "95"]),
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("confidence"), "{err}");
        assert!(run(
            "sweep",
            &args(&[
                "--apps",
                "fm-radio",
                "--baseline",
                "rr/w2",
                "--metrics",
                "bogus"
            ])
        )
        .is_err());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_trace_flags_reach_the_cells() {
        // `--trace --windows W` flows into every declared cell (serial
        // baseline included) and the saved document carries the per-cell
        // obs block.
        let path = tmp("sweep-trace.json");
        run(
            "sweep",
            &args(&[
                "--apps",
                "fm-radio",
                "--workers",
                "2",
                "--placements",
                "rr",
                "--serial",
                "--trace",
                "--windows",
                "1",
                "--repeats",
                "1",
                "--rounds",
                "2",
                "-o",
                &path,
            ]),
        )
        .unwrap();
        let v: serde_json::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let cells = match &v["cells"] {
            serde_json::Value::Array(c) => c,
            other => panic!("cells: {other:?}"),
        };
        assert_eq!(cells.len(), 2);
        for c in cells {
            let obs = &c["obs"];
            assert_eq!(obs["trace"].as_bool(), Some(true), "{obs:?}");
            assert_eq!(obs["windows_every"].as_u64(), Some(1));
            assert!(obs["trace_events"].as_u64().unwrap() > 0);
            assert!(obs["windows"].as_u64().unwrap() > 0);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn sweep_runs_from_a_spec_file() {
        let spec = tmp("spec.json");
        std::fs::write(
            &spec,
            r#"{
              "name": "spec-sweep", "repeats": 2, "rounds": 2,
              "apps": ["fm-radio"],
              "cells": [
                {"workers": 2, "placement": "rr"},
                {"workers": 2, "placement": "llc", "topology": "1x2x2",
                 "pin_cores": true, "label": "llc-box"}
              ],
              "comparisons": [
                {"metric": "wall_ms", "baseline": "rr/w2", "treatment": "llc-box"}
              ]
            }"#,
        )
        .unwrap();
        let out = run("sweep", &args(&["--spec", &spec])).unwrap();
        assert!(out.contains("spec-sweep: 2 repeats x 2 rounds"), "{out}");
        assert!(out.contains("llc-box"), "{out}");
        assert!(out.contains("wall_ms: rr/w2 - llc-box"), "{out}");
        std::fs::remove_file(spec).ok();
    }

    #[test]
    fn report_rejects_other_schemas() {
        // Garbage and legacy (pre-sweep) documents are errors with a
        // pointer at the expected schema.
        let bad = tmp("not-a-report.json");
        std::fs::write(&bad, "{\"cells\": 7}").unwrap();
        let err = run("report", &args(&[&bad])).unwrap_err().to_string();
        assert!(err.contains("ccs-sweep/v1"), "{err}");
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn topo_dump_replays_on_another_machine() {
        // Dump a synthetic 2x2x2 box, then replay the dump and place
        // against it — the `--topo-from` path end to end.
        let dump = run("topo", &args(&["--topo", "2x2x2", "--json"])).unwrap();
        let path = tmp("topo-dump.json");
        std::fs::write(&path, &dump).unwrap();
        let out = run("topo", &args(&["--from", &path])).unwrap();
        assert!(
            out.contains("replay: 2 nodes x 4 llc clusters x 8 cores"),
            "{out}"
        );
        let parsed: serde_json::Value =
            serde_json::from_str(&run("topo", &args(&["--from", &path, "--json"])).unwrap())
                .unwrap();
        assert_eq!(parsed["source"].as_str(), Some("replay"));
        assert_eq!(parsed["cores"].as_u64(), Some(8));

        let g = tmp("g10.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "10", "--state", "64", "-o", &g]),
        )
        .unwrap();
        let out = run(
            "run-dag",
            &args(&[
                &g,
                "--m",
                "1024",
                "--workers",
                "4",
                "--placement",
                "llc",
                "--topo-from",
                &path,
                "--json",
            ]),
        )
        .unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["placement"].as_str(), Some("llc"));
        // Mutually exclusive with --topo; garbage files are errors.
        assert!(run("topo", &args(&["--topo", "1x1x1", "--from", &path])).is_err());
        let bad = tmp("not-a-dump.json");
        std::fs::write(&bad, "{\"clusters\": 7}").unwrap();
        assert!(run("topo", &args(&["--from", &bad])).is_err());
        std::fs::remove_file(bad).ok();
        std::fs::remove_file(path).ok();
        std::fs::remove_file(g).ok();
    }

    #[test]
    fn topo_prints_synthetic_and_discovered() {
        let out = run("topo", &args(&["--topo", "2x2x2"])).unwrap();
        assert!(
            out.contains("synthetic: 2 nodes x 4 llc clusters x 8 cores"),
            "{out}"
        );
        assert!(out.contains("llc 0: cpus 0-1"), "{out}");
        let out = run("topo", &args(&["--topo", "2x2x2", "--json"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed["source"].as_str(), Some("synthetic"));
        assert_eq!(parsed["cores"].as_u64(), Some(8));
        assert_eq!(parsed["clusters"][3]["node"].as_u64(), Some(1));
        // Host discovery always yields at least one core.
        let out = run("topo", &args(&["--json"])).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert!(parsed["cores"].as_u64().unwrap() >= 1);
        assert!(run("topo", &args(&["--topo", "junk"])).is_err());
    }

    #[test]
    fn compare_prints_table() {
        let path = tmp("g4.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "16", "--state", "128", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "compare",
            &args(&[&path, "--m", "1024", "--outputs", "300"]),
        )
        .unwrap();
        assert!(out.contains("single-appearance"));
        assert!(out.contains("misses/output"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn app_list_and_errors() {
        let out = run("gen", &args(&["app", "list"])).unwrap();
        assert!(out.contains("fm-radio"));
        assert!(run("gen", &args(&["app", "nope"])).is_err());
        assert!(run("frobnicate", &args(&[])).is_err());
        assert!(run("help", &args(&[])).unwrap().contains("USAGE"));
    }

    #[test]
    fn autotune_and_fuse_commands() {
        let path = tmp("g6.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "16", "--state", "96", "-o", &path]),
        )
        .unwrap();
        let out = run(
            "autotune",
            &args(&[&path, "--m", "1024", "--outputs", "300"]),
        )
        .unwrap();
        assert!(out.contains("winner:"), "{out}");

        let fused_path = tmp("g6-fused.json");
        let out = run("fuse", &args(&[&path, "--m", "1024", "-o", &fused_path])).unwrap();
        assert!(out.contains("fused 16 modules into"), "{out}");
        // Fused graph is loadable and smaller.
        let report = run("analyze", &args(&[&fused_path])).unwrap();
        assert!(report.contains("pipeline     : true"));
        std::fs::remove_file(path).ok();
        std::fs::remove_file(fused_path).ok();
    }

    #[test]
    fn dot_command() {
        let path = tmp("g5.json");
        run(
            "gen",
            &args(&["pipeline", "--len", "3", "--state", "8", "-o", &path]),
        )
        .unwrap();
        let out = run("dot", &args(&[&path])).unwrap();
        assert!(out.starts_with("digraph"));
        std::fs::remove_file(path).ok();
    }

    /// Rebuild a bench record with its timing metrics scaled (wall and
    /// stall × `factor`, throughput ÷ `factor`) — a synthetic
    /// faster/slower baseline for gate tests, built without touching
    /// the environment.
    fn scale_bench_record(record: &serde_json::Value, factor: f64) -> serde_json::Value {
        let series: Vec<serde_json::Value> = match &record["series"] {
            serde_json::Value::Array(s) => s
                .iter()
                .map(|x| {
                    let metric = x["metric"].as_str().unwrap_or("?");
                    let sc = match metric {
                        "wall_ms" | "stall_ms" => factor,
                        "items_per_sec" => 1.0 / factor,
                        _ => 1.0,
                    };
                    let runs: Vec<serde_json::Value> = match &x["runs"] {
                        serde_json::Value::Array(r) => r
                            .iter()
                            .map(|v| match v.as_f64() {
                                Some(f) => serde_json::json!(f * sc),
                                None => serde_json::Value::Null,
                            })
                            .collect(),
                        _ => Vec::new(),
                    };
                    serde_json::json!({
                        "workload": x["workload"].clone(),
                        "cell": x["cell"].clone(),
                        "metric": metric,
                        "runs": runs,
                        "mean": x["mean"].as_f64().unwrap_or(0.0) * sc,
                        "stddev": x["stddev"].clone(),
                    })
                })
                .collect(),
            _ => Vec::new(),
        };
        serde_json::json!({
            "schema": record["schema"].clone(),
            "sweep": record["sweep"].clone(),
            "timestamp": record["timestamp"].clone(),
            "git_rev": record["git_rev"].clone(),
            "fingerprint": record["fingerprint"].clone(),
            "series": series,
        })
    }

    #[test]
    fn bench_seeds_reads_unchanged_and_gates_on_regression() {
        let store = tmp("bench-history.ndjson");
        std::fs::remove_file(&store).ok();
        let base = [
            "--store",
            &store,
            "--apps",
            "fm-radio",
            "--repeats",
            "2",
            "--rounds",
            "2",
            "--timestamp",
            "1",
            "--tolerance",
            "1.5",
        ];
        // First run on an empty store seeds the history.
        let out = run("bench", &args(&base)).unwrap();
        assert!(out.contains("no matching baseline"), "{out}");
        assert!(out.contains("appended to"), "{out}");
        // Second run on the same tree: with a generous tolerance every
        // verdict is unchanged and the gate passes.
        let mut again: Vec<&str> = base.to_vec();
        again.push("--check");
        let out = run("bench", &args(&again)).unwrap();
        assert!(out.contains("verdict: ok"), "{out}");
        assert!(
            !out.contains("regressed,") || out.contains("0 regressed"),
            "{out}"
        );
        // Doctor the recorded history into a 5x-faster baseline: the
        // fresh (honest) run now reads as a large significant
        // regression and `--check` must fail loudly.
        let history = std::fs::read_to_string(&store).unwrap();
        let last = history
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap();
        let record: serde_json::Value = serde_json::from_str(last).unwrap();
        let fast = scale_bench_record(&record, 1.0 / 5.0);
        let doctored = tmp("bench-doctored.ndjson");
        std::fs::write(
            &doctored,
            format!("{}\n", serde_json::to_string(&fast).unwrap()),
        )
        .unwrap();
        let err = run(
            "bench",
            &args(&[
                "--store",
                &store,
                "--baseline",
                &doctored,
                "--apps",
                "fm-radio",
                "--repeats",
                "2",
                "--rounds",
                "2",
                "--timestamp",
                "2",
                "--tolerance",
                "1.5",
                "--no-append",
                "--check",
            ]),
        )
        .unwrap_err();
        assert!(err.to_string().contains("REGRESSED"), "{err}");
        std::fs::remove_file(store).ok();
        std::fs::remove_file(doctored).ok();
    }
}
