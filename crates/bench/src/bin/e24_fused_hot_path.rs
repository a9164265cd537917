//! E24 — the fused hot path as a paired statistical claim.
//!
//! The fused executor promises cheaper batches, not different ones:
//! each granularity-`T` batch bulk-loads its cross inputs into a flat
//! arena (one `peek`/`release` per ring per batch), runs the segment's
//! precompiled firing plan against arena spans from per-port cursors,
//! with a software prefetch on the next firing's inputs, and
//! bulk-stores the cross outputs (one `reserve`/`commit` per ring per
//! batch). Internal edges never touch a ring. If that is a real win it shows up as fewer
//! retired instructions per sink item — the per-firing ring protocol,
//! occupancy checks, and scratch copies disappear from the hot loop —
//! and it must never show up in the output: every fused cell's digest
//! is bit-identical to its classic twin (the sweep engine hard-errors
//! otherwise).
//!
//! Grid: each engine point {serial, 1, 2, 4 workers} twice, classic and
//! fused, counters on. Declared comparisons per engine point, classic
//! (baseline) − fused (treatment): instructions/item, LLC misses/item,
//! and wall time, per workload, paired per repeat, BH-corrected as one
//! family.
//!
//! Results land in `results/e24_fused_hot_path.json` (schema
//! `ccs-sweep/v1`; render any time with `ccs report`). `CCS_SMOKE=1`
//! shrinks for CI; `CCS_REPEATS=n` overrides R.

use ccs_bench::sweep::{self, Cell, Metric, Sweep};
use ccs_exec::Placement;

fn main() {
    let smoke = sweep::smoke();
    let repeats = sweep::repeats_or(if smoke { 2 } else { 7 });
    let rounds: u64 = if smoke { 16 } else { 96 };
    let warmup = (rounds / 4).max(1);
    let worker_counts: &[usize] = if smoke { &[2] } else { &[1, 2, 4] };

    let mut workloads = sweep::builtin_workloads();
    workloads.push(sweep::workload("filterbank").expect("filterbank is a suite app"));

    let mut s = Sweep::new("e24_fused_hot_path")
        .with_repeats(repeats)
        .with_rounds(rounds)
        .with_workloads(workloads)
        .with_cell(Cell::serial().with_counters(true).with_warmup(warmup))
        .with_cell(
            Cell::serial()
                .with_counters(true)
                .with_warmup(warmup)
                .with_fused(true),
        );
    for &w in worker_counts {
        let cell = || {
            Cell::parallel(w, Placement::Llc)
                .with_counters(true)
                .with_warmup(warmup)
        };
        s = s.with_cell(cell());
        s = s.with_cell(cell().with_fused(true));
    }

    // One comparison family: classic (baseline) − fused (treatment) at
    // every engine point. Positive mean on a cost metric = fused wins.
    let mut pairs = vec![("serial".to_string(), "serial+fused".to_string())];
    for &w in worker_counts {
        pairs.push((format!("llc/w{w}"), format!("llc+fused/w{w}")));
    }
    for (base, fused) in pairs {
        for metric in [
            Metric::InstructionsPerItem,
            Metric::LlcMissesPerItem,
            Metric::WallMs,
        ] {
            s = s.with_comparison(metric, base.clone(), fused.clone());
        }
    }

    sweep::run_and_save(&s);
    println!("shape check: digests are identical across every classic/fused twin — fusion");
    println!("changes how a batch executes, never what it computes. Classic - fused on");
    println!("instructions/item is the headline: the per-firing ring protocol and scratch");
    println!("copies leave the hot loop, so fused cells should retire fewer instructions");
    println!("per sink item (and never significantly more) at every worker count.");
}
