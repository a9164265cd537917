//! # ccs-runtime — real executors for streaming graphs
//!
//! Where `ccs-sched` *simulates* schedules in the DAM model, this crate
//! *runs* them on real memory: module kernels stream through real `f32`
//! state arrays and channels are real ring buffers, so wall-clock
//! measurements reflect genuine cache behavior on the host.
//!
//! * [`kernel`] — the [`kernel::Kernel`] trait plus deterministic kernels
//!   (source generator, digesting sink, FIR filters, synthetic
//!   state-streamers). SDF determinism means every legal schedule
//!   produces a bit-identical output stream — the test suite checks
//!   digests across schedulers and thread counts.
//! * [`instance::Instance`] — a graph bound to kernels.
//! * [`serial`] — executes any firing sequence ([`ccs_sched::SchedRun`]):
//!   the deliberately naive oracle every other execution's sink digest
//!   is checked against. The multicore batch executor lives in
//!   `ccs-exec`.
//! * [`ring`] — serial and lock-free SPSC ring buffers.
//! * [`prefetch`] — the software prefetch hint the fused executor
//!   issues on the next firing's input spans (no-op off x86_64/aarch64).

pub mod instance;
pub mod kernel;
pub mod prefetch;
pub mod ring;
pub mod serial;

pub use instance::Instance;
pub use kernel::{fire_ports, Kernel};
pub use prefetch::prefetch_read;
pub use ring::{Ring, SpscRing};
pub use serial::{execute, execute_obs, ObsConfig, RunStats, SerialObs};
