//! The three benchmark workloads: their generated graph, kernel
//! binding, cache parameters and run lengths.

use ccs_cachesim::CacheParams;
use ccs_graph::gen::{self, LayeredCfg, StateDist};
use ccs_graph::StreamGraph;
use ccs_runtime::Instance;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["pipeline-fir", "dag-multirate", "dag-large"];

/// Block size `B` in words (one 64-byte line of `f32` items).
pub const BLOCK_WORDS: u64 = 16;

/// How a workload's modules get kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Binding {
    /// Real FIR kernels at the filter stages (`ccs_apps::fir_instance`).
    Fir,
    /// State-streaming synthetic kernels (`Instance::synthetic`).
    Synthetic,
}

/// One workload, fully generated: the graph bytes every job parses,
/// plus the parameters the job path runs them under.
pub struct Workload {
    pub name: &'static str,
    /// The generated graph (reference computations use it directly).
    pub graph: StreamGraph,
    /// StreamGraph JSON: the program's only input.
    pub graph_json: String,
    pub binding: Binding,
    /// Cache parameters `M`, `B` of the planner and the DAM model.
    pub params: CacheParams,
    /// Granularity-`T` rounds per job.
    pub rounds: u64,
    /// Rounds of the DAM-model replay behind `dam_misses_per_input`
    /// (shorter than a job: the LRU replay is orders of magnitude
    /// slower than execution, and misses per input amortize well
    /// before a job's length).
    pub dam_rounds: u64,
    /// The layered-DAG generator seed (`None` for the fixed app graph).
    pub dag_seed: Option<u64>,
}

/// The cache-size rule the repository's sweeps use: a third of the
/// total state (so partitions are non-trivial), at least eight times
/// the largest module, at least 512 words, rounded to a block multiple.
pub fn cache_m(g: &StreamGraph) -> u64 {
    (g.total_state() / 3)
        .max(8 * g.max_state())
        .max(512)
        .next_multiple_of(BLOCK_WORDS)
}

fn layered(layers: usize, seed: u64) -> StreamGraph {
    gen::layered(
        &LayeredCfg {
            layers,
            max_width: 5,
            density: 0.35,
            state: StateDist::Uniform(128, 512),
            max_q: 2,
        },
        seed,
    )
}

/// Generate workload `name`. `smoke` shortens every run length to a
/// test-sized job; `dag_seed` overrides the layered-DAG seed.
pub fn build(name: &str, smoke: bool, dag_seed: Option<u64>) -> Result<Workload, String> {
    let pick = |full: u64, small: u64| if smoke { small } else { full };
    let (name, graph, binding, rounds, dam_rounds, dag_seed) = match name {
        // fm-radio: a 13-module decimating pipeline with real FIR
        // kernels; kernel compute and the worker hand-off set its speed.
        "pipeline-fir" => {
            let app = ccs_apps::suite()
                .into_iter()
                .find(|a| a.name == "fm-radio")
                .ok_or("the app suite has no fm-radio")?;
            let (r, d) = (pick(1500, 16), pick(128, 4));
            ("pipeline-fir", app.graph, Binding::Fir, r, d, None)
        }
        // The sweeps' canonical layered DAG (6 layers, seed 3):
        // fan-in/fan-out gates and multi-rate cross rings over a small
        // working set.
        "dag-multirate" => {
            let seed = dag_seed.unwrap_or(3);
            let (r, d) = (pick(300, 4), pick(8, 1));
            let g = layered(6, seed);
            ("dag-multirate", g, Binding::Synthetic, r, d, Some(seed))
        }
        // About 90 modules from the same distributions, run for a few
        // rounds: set-up is a large share and the footprint exceeds
        // the cache.
        "dag-large" => {
            let seed = dag_seed.unwrap_or(0);
            let g = layered(30, seed);
            (
                "dag-large",
                g,
                Binding::Synthetic,
                pick(4, 1),
                1,
                Some(seed),
            )
        }
        other => {
            return Err(format!(
                "unknown workload '{other}' (expected one of {})",
                NAMES.join(", ")
            ))
        }
    };
    let graph_json = serde_json::to_string(&graph).map_err(|e| format!("{name}: {e:?}"))?;
    Ok(Workload {
        name,
        params: CacheParams::new(cache_m(&graph), BLOCK_WORDS),
        graph,
        graph_json,
        binding,
        rounds,
        dam_rounds,
        dag_seed,
    })
}

impl Workload {
    /// Bind kernels to `g` with this workload's binding.
    pub fn bind(&self, g: StreamGraph) -> Instance {
        match self.binding {
            Binding::Fir => ccs_apps::fir_instance(g),
            Binding::Synthetic => Instance::synthetic(g),
        }
    }
}
