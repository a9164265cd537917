//! Thin wrappers around a bound instance's source and sink kernels.
//!
//! The source wrapper shifts every produced item by a seed-derived
//! offset, so the seed selects the input stream. Both wrappers can
//! stamp their firings for the latency metric. Everything else is
//! delegated, so the sink digest is still the bound sink's digest.
//!
//! Latency is measured per steady-state iteration `i` (one firing of
//! every module per its repetition count): the source's first firing
//! of `i`, at index `i·q(source)`, is paired with the sink's last
//! firing of `i`, at index `(i+1)·q(sink) − 1`. Without initial tokens
//! that sink firing consumes the last item that depends on the source
//! firing, so the stamp difference is the item's source-to-sink time.

use ccs_graph::RateAnalysis;
use ccs_runtime::kernel::Kernel;
use ccs_runtime::Instance;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Latency stamps of one job: every `every`-th iteration gets a slot
/// for its source start and its sink end, in nanoseconds past `epoch`
/// plus one (zero marks an unset slot).
pub struct Stamps {
    epoch: Instant,
    every: u64,
    src: Vec<AtomicU64>,
    sink: Vec<AtomicU64>,
}

impl Stamps {
    /// Slots for a job of `iterations` iterations, sampled so that about
    /// `target` iterations are stamped.
    pub fn new(iterations: u64, target: u64) -> Stamps {
        let every = (iterations / target.max(1)).max(1);
        let slots = iterations.div_ceil(every) as usize;
        Stamps {
            epoch: Instant::now(),
            every,
            src: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            sink: (0..slots).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn stamp(&self, side: &[AtomicU64], iteration: u64) {
        if iteration.is_multiple_of(self.every) {
            if let Some(slot) = side.get((iteration / self.every) as usize) {
                let ns = self.epoch.elapsed().as_nanos() as u64 + 1;
                // Relaxed: the stamps publish nothing else, and they are
                // read only after the workers are joined.
                slot.store(ns, Ordering::Relaxed);
            }
        }
    }

    /// Source-to-sink latencies of every iteration stamped on both
    /// sides, in nanoseconds.
    pub fn latencies_ns(&self) -> Vec<u64> {
        self.src
            .iter()
            .zip(&self.sink)
            .filter_map(|(s, k)| {
                let (s, k) = (s.load(Ordering::Relaxed), k.load(Ordering::Relaxed));
                (s > 0 && k >= s).then(|| k - s)
            })
            .collect()
    }
}

struct SourceProbe {
    inner: Box<dyn Kernel>,
    offset: f32,
    fires: u64,
    q: u64,
    stamps: Option<Arc<Stamps>>,
}

impl Kernel for SourceProbe {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        if let Some(s) = &self.stamps {
            if self.fires.is_multiple_of(self.q) {
                s.stamp(&s.src, self.fires / self.q);
            }
        }
        self.fires += 1;
        self.inner.fire(inputs, outputs);
        for out in outputs.iter_mut() {
            for x in out.iter_mut() {
                *x += self.offset;
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

struct SinkProbe {
    inner: Box<dyn Kernel>,
    fires: u64,
    q: u64,
    stamps: Option<Arc<Stamps>>,
}

impl Kernel for SinkProbe {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        self.inner.fire(inputs, outputs);
        self.fires += 1;
        if let Some(s) = &self.stamps {
            if self.fires.is_multiple_of(self.q) {
                s.stamp(&s.sink, self.fires / self.q - 1);
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// The input-stream offset a seed selects, in `[0, 1)`.
pub fn seed_offset(seed: u64) -> f32 {
    // splitmix64 finalizer: nearby seeds give unrelated offsets.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Rebind `inst` through [`Instance::with_factory`], wrapping its
/// source and sink kernels; every other kernel moves over unchanged.
pub fn wrap(
    inst: Instance,
    ra: &RateAnalysis,
    offset: f32,
    stamps: Option<Arc<Stamps>>,
) -> Instance {
    let (source, sink) = (ra.source, ra.sink);
    let mut slots: Vec<Option<Box<dyn Kernel>>> = inst.kernels.into_iter().map(Some).collect();
    Instance::with_factory(inst.graph, move |_, v| {
        let inner = slots[v.idx()].take().expect("each node is bound once");
        if Some(v) == source {
            Box::new(SourceProbe {
                inner,
                offset,
                fires: 0,
                q: ra.q(v),
                stamps: stamps.clone(),
            })
        } else if Some(v) == sink {
            Box::new(SinkProbe {
                inner,
                fires: 0,
                q: ra.q(v),
                stamps: stamps.clone(),
            })
        } else {
            inner
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_differ_by_seed_and_stay_in_range() {
        let a = seed_offset(1);
        let b = seed_offset(2);
        assert_ne!(a, b);
        assert!((0.0..1.0).contains(&a) && (0.0..1.0).contains(&b));
        assert_eq!(seed_offset(7), seed_offset(7));
    }

    #[test]
    fn stamps_pair_iterations() {
        let s = Stamps::new(100, 10);
        assert_eq!(s.every, 10);
        for i in 0..100 {
            s.stamp(&s.src, i);
            s.stamp(&s.sink, i);
        }
        assert_eq!(s.latencies_ns().len(), 10);
    }
}
