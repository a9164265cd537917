//! Module kernels: the real computations bound to graph nodes.
//!
//! Synchronous dataflow is deterministic: the k-th firing of a module
//! consumes the same items no matter how firings are interleaved, so any
//! two legal schedules produce bit-identical output streams. The kernels
//! here are all deterministic, which the test suite exploits to check
//! functional equivalence across schedulers and executors.

/// Sum a state array with eight independent accumulators, so the compiler
/// can vectorize and the loop is memory-bound rather than serialized on
/// the FP-add latency chain — state sweeps must run at cache/DRAM speed
/// for wall-clock experiments to reflect memory placement.
#[inline]
pub(crate) fn state_sweep(state: &[f32]) -> f32 {
    let mut acc = [0.0f32; 8];
    let chunks = state.chunks_exact(8);
    let rem = chunks.remainder();
    for c in chunks {
        for i in 0..8 {
            acc[i] += c[i];
        }
    }
    let mut tail = 0.0f32;
    for &x in rem {
        tail += x;
    }
    acc.iter().sum::<f32>() + tail
}

/// Fold one stream item into an FNV-1a digest over its bit pattern —
/// the order-sensitive hash that defines the cross-executor equivalence
/// contract ([`SinkCollect`] and [`ForwardDigest`] must agree on it).
#[inline]
pub(crate) fn fnv1a_fold(hash: u64, x: f32) -> u64 {
    (hash ^ x.to_bits() as u64).wrapping_mul(0x100000001b3)
}

/// The FNV-1a offset basis both digest kernels start from.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// A module implementation. One `fire` consumes `in(e)` items from each
/// input buffer and fills `out(e)` items in each output buffer (buffer
/// lengths are exactly the rates; the executor owns the ring buffers and
/// pre-allocated scratch space, so firing is allocation-free).
///
/// Ports are plain slices so the executor is free to back them with
/// anything contiguous: per-port scratch `Vec`s in the serial oracle
/// (see [`fire_ports`]), or spans of a segment's flat arena in the
/// `ccs-exec` batch executor — no copy either way.
pub trait Kernel: Send {
    /// Words of state this kernel touches per firing (should match the
    /// graph's `s(v)`; one `f32` = one word).
    fn state_words(&self) -> usize;

    /// Execute one firing.
    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]);

    /// A digest of everything this kernel has observed (used by sinks for
    /// cross-scheduler equivalence checks). `None` for kernels that don't
    /// accumulate.
    fn digest(&self) -> Option<u64> {
        None
    }
}

/// Port arity covered by [`fire_ports`]'s stack-allocated fast path.
const MAX_PORTS: usize = 8;

/// Fire a kernel whose scratch lives in per-port `Vec`s — the serial
/// oracle's calling convention. The slice views are built on the
/// stack for arities up to `MAX_PORTS` = 8 (every graph in the suite),
/// so the hot loop stays allocation-free; wider nodes fall back to a
/// heap-built view table.
#[inline]
pub fn fire_ports(k: &mut dyn Kernel, inputs: &[Vec<f32>], outputs: &mut [Vec<f32>]) {
    let (n_in, n_out) = (inputs.len(), outputs.len());
    if n_in <= MAX_PORTS && n_out <= MAX_PORTS {
        let mut ins: [&[f32]; MAX_PORTS] = [&[]; MAX_PORTS];
        for (slot, v) in ins.iter_mut().zip(inputs) {
            *slot = v.as_slice();
        }
        let mut outs: [&mut [f32]; MAX_PORTS] = std::array::from_fn(|_| Default::default());
        for (slot, v) in outs.iter_mut().zip(outputs.iter_mut()) {
            *slot = v.as_mut_slice();
        }
        k.fire(&ins[..n_in], &mut outs[..n_out]);
    } else {
        let ins: Vec<&[f32]> = inputs.iter().map(|v| v.as_slice()).collect();
        let mut outs: Vec<&mut [f32]> = outputs.iter_mut().map(|v| v.as_mut_slice()).collect();
        k.fire(&ins, &mut outs);
    }
}

/// Deterministic source: produces a linear-congruential sample stream.
/// State: the generator registers plus a configurable "coefficient table"
/// to model a source with real state.
pub struct SourceGen {
    next: u64,
    table: Box<[f32]>,
}

impl SourceGen {
    pub fn new(state_words: usize) -> SourceGen {
        SourceGen {
            next: 0x2545F4914F6CDD1D,
            table: (0..state_words.max(1))
                .map(|i| (i as f32 * 0.37).sin())
                .collect(),
        }
    }
}

impl Kernel for SourceGen {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, _inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        // Touch the whole table (models loading the module state).
        let acc = state_sweep(&self.table);
        for out in outputs.iter_mut() {
            for slot in out.iter_mut() {
                // xorshift* keeps the stream deterministic and cheap.
                self.next ^= self.next >> 12;
                self.next ^= self.next << 25;
                self.next ^= self.next >> 27;
                let r = (self.next.wrapping_mul(0x2545F4914F6CDD1D) >> 40) as f32;
                *slot = r * (1.0 / (1 << 24) as f32) + acc * 1e-30;
            }
        }
    }
}

/// Deterministic sink: accumulates an order-sensitive digest of the
/// stream it consumes. Two runs match iff they consumed identical item
/// sequences.
pub struct SinkCollect {
    hash: u64,
    count: u64,
    table: Box<[f32]>,
}

impl SinkCollect {
    pub fn new(state_words: usize) -> SinkCollect {
        SinkCollect {
            hash: FNV_OFFSET,
            count: 0,
            table: (0..state_words.max(1)).map(|i| i as f32 * 0.11).collect(),
        }
    }

    pub fn items(&self) -> u64 {
        self.count
    }
}

impl Kernel for SinkCollect {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], _outputs: &mut [&mut [f32]]) {
        let _ = state_sweep(&self.table);
        for input in inputs {
            for &x in input.iter() {
                self.hash = fnv1a_fold(self.hash, x);
                self.count += 1;
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        Some(self.hash ^ self.count)
    }
}

/// FIR filter with `taps.len()` coefficients over a sliding window;
/// consumes `decimate` items and produces one output per firing
/// (`decimate = 1` for a plain filter).
pub struct FirFilter {
    taps: Box<[f32]>,
    window: Box<[f32]>,
    decimate: usize,
}

impl FirFilter {
    pub fn new(n_taps: usize, decimate: usize) -> FirFilter {
        assert!(n_taps > 0 && decimate > 0);
        FirFilter {
            taps: (0..n_taps)
                .map(|i| ((i as f32 + 1.0) * 0.61).cos() / n_taps as f32)
                .collect(),
            window: vec![0.0; n_taps].into_boxed_slice(),
            decimate,
        }
    }
}

impl Kernel for FirFilter {
    fn state_words(&self) -> usize {
        self.taps.len() + self.window.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        debug_assert_eq!(inputs.len(), 1);
        debug_assert_eq!(inputs[0].len(), self.decimate);
        // Shift the new samples into the window.
        let n = self.window.len();
        let d = self.decimate.min(n);
        self.window.copy_within(d.., 0);
        self.window[n - d..].copy_from_slice(&inputs[0][self.decimate - d..]);
        // Dot product over the full state, 4 accumulators wide so the
        // sweep is memory-bound, not add-latency-bound.
        let mut acc4 = [0.0f32; 4];
        let (wc, tc) = (self.window.chunks_exact(4), self.taps.chunks_exact(4));
        let tail: f32 = wc
            .remainder()
            .iter()
            .zip(tc.remainder())
            .map(|(w, t)| w * t)
            .sum();
        for (w, t) in wc.zip(tc) {
            for i in 0..4 {
                acc4[i] += w[i] * t[i];
            }
        }
        let acc = acc4.iter().sum::<f32>() + tail;
        for out in outputs.iter_mut() {
            for slot in out.iter_mut() {
                *slot = acc;
            }
        }
    }
}

/// Generic state-touching kernel for synthetic graphs: reads its whole
/// state every firing and emits a deterministic function of the inputs.
/// `mutate` adds a state write per firing (dirty-eviction modeling).
pub struct SyntheticKernel {
    state: Box<[f32]>,
    mutate: bool,
    fires: u64,
}

impl SyntheticKernel {
    pub fn new(state_words: usize, mutate: bool) -> SyntheticKernel {
        SyntheticKernel {
            state: (0..state_words.max(1))
                .map(|i| ((i * 2654435761usize) as f32) * 1e-12)
                .collect(),
            mutate,
            fires: 0,
        }
    }
}

impl Kernel for SyntheticKernel {
    fn state_words(&self) -> usize {
        self.state.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        let mut acc = 0.0f32;
        for input in inputs {
            for &x in input.iter() {
                acc += x;
            }
        }
        // Stream through the whole state (the defining cost of a firing).
        let sacc = state_sweep(&self.state);
        if self.mutate {
            let idx = (self.fires % self.state.len() as u64) as usize;
            self.state[idx] += 1e-20;
        }
        self.fires += 1;
        let y = acc * 0.5 + sacc * 1e-6;
        for out in outputs.iter_mut() {
            for slot in out.iter_mut() {
                *slot = y;
            }
        }
    }
}

/// Wraps an original sink's kernel when a super-sink is appended behind
/// it (`Instance::with_super_endpoints`): the inner kernel still
/// consumes the stream and keeps its digest, while the wrapper forwards
/// a running hash of everything consumed on the node's new output edge
/// — so the super-sink's digest stays sensitive to the actual data, not
/// just the item count.
pub struct ForwardDigest {
    inner: Box<dyn Kernel>,
    hash: u64,
}

impl ForwardDigest {
    pub fn new(inner: Box<dyn Kernel>) -> ForwardDigest {
        ForwardDigest {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl Kernel for ForwardDigest {
    fn state_words(&self) -> usize {
        self.inner.state_words()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        for input in inputs {
            for &x in input.iter() {
                self.hash = fnv1a_fold(self.hash, x);
            }
        }
        // The inner kernel was a sink: it expects no output ports.
        self.inner.fire(inputs, &mut []);
        let y = (self.hash >> 40) as f32 * (1.0 / (1 << 24) as f32);
        for out in outputs.iter_mut() {
            for slot in out.iter_mut() {
                *slot = y;
            }
        }
    }

    fn digest(&self) -> Option<u64> {
        self.inner.digest()
    }
}

/// Splitter/mixer for multi-output nodes: forwards a deterministic mix of
/// inputs to every output (rates handled by the executor).
pub struct Mixer {
    table: Box<[f32]>,
}

impl Mixer {
    pub fn new(state_words: usize) -> Mixer {
        Mixer {
            table: (0..state_words.max(1))
                .map(|i| 1.0 / (i as f32 + 2.0))
                .collect(),
        }
    }
}

impl Kernel for Mixer {
    fn state_words(&self) -> usize {
        self.table.len()
    }

    fn fire(&mut self, inputs: &[&[f32]], outputs: &mut [&mut [f32]]) {
        let mut acc = 0.0f32;
        for input in inputs {
            for &x in input.iter() {
                acc += x;
            }
        }
        let t = state_sweep(&self.table);
        let y = acc + t * 1e-9;
        for (k, out) in outputs.iter_mut().enumerate() {
            for (j, slot) in out.iter_mut().enumerate() {
                *slot = y + k as f32 * 1e-3 + j as f32 * 1e-6;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_is_deterministic() {
        let mut a = SourceGen::new(8);
        let mut b = SourceGen::new(8);
        let mut out_a = vec![0.0f32; 16];
        let mut out_b = vec![0.0f32; 16];
        a.fire(&[], &mut [&mut out_a]);
        b.fire(&[], &mut [&mut out_b]);
        assert_eq!(out_a, out_b);
        // Next firing differs from the first (stream advances).
        let mut out_a2 = vec![0.0f32; 16];
        a.fire(&[], &mut [&mut out_a2]);
        assert_ne!(out_a, out_a2);
    }

    #[test]
    fn sink_digest_is_order_sensitive() {
        let mut s1 = SinkCollect::new(4);
        let mut s2 = SinkCollect::new(4);
        s1.fire(&[&[1.0, 2.0]], &mut []);
        s2.fire(&[&[2.0, 1.0]], &mut []);
        assert_ne!(s1.digest(), s2.digest());
        assert_eq!(s1.items(), 2);
    }

    #[test]
    fn sink_digest_matches_for_same_stream_chunked_differently() {
        let mut s1 = SinkCollect::new(4);
        let mut s2 = SinkCollect::new(4);
        s1.fire(&[&[1.0, 2.0, 3.0, 4.0]], &mut []);
        s2.fire(&[&[1.0, 2.0]], &mut []);
        s2.fire(&[&[3.0, 4.0]], &mut []);
        assert_eq!(s1.digest(), s2.digest());
    }

    #[test]
    fn fir_filter_computes_dot_product() {
        let mut f = FirFilter::new(4, 1);
        let mut out = [0.0f32];
        for _ in 0..4 {
            f.fire(&[&[1.0]], &mut [&mut out]);
        }
        // Window now all ones: output = sum of taps.
        let expected: f32 = f.taps.iter().sum();
        assert!((out[0] - expected).abs() < 1e-6);
    }

    #[test]
    fn fir_decimation_consumes_many() {
        let mut f = FirFilter::new(8, 4);
        let mut out = [0.0f32];
        f.fire(&[&[1.0, 2.0, 3.0, 4.0]], &mut [&mut out]);
        assert_eq!(f.state_words(), 16);
    }

    #[test]
    fn synthetic_kernel_state_size() {
        let k = SyntheticKernel::new(100, true);
        assert_eq!(k.state_words(), 100);
        let k0 = SyntheticKernel::new(0, false);
        assert_eq!(k0.state_words(), 1, "state is at least one word");
    }

    #[test]
    fn synthetic_deterministic_across_instances() {
        let mut a = SyntheticKernel::new(32, true);
        let mut b = SyntheticKernel::new(32, true);
        let mut oa = [0.0f32; 3];
        let mut ob = [0.0f32; 3];
        for _ in 0..10 {
            a.fire(&[&[0.5, 0.25]], &mut [&mut oa]);
            b.fire(&[&[0.5, 0.25]], &mut [&mut ob]);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn mixer_distinguishes_outputs() {
        let mut m = Mixer::new(4);
        let mut o0 = [0.0f32; 2];
        let mut o1 = [0.0f32; 2];
        m.fire(&[&[1.0]], &mut [&mut o0, &mut o1]);
        assert_ne!(o0, o1);
    }

    /// The `Vec`-scratch shim builds the same port views the direct
    /// slice call does — digests and outputs agree across both calling
    /// conventions.
    #[test]
    fn fire_ports_matches_direct_slice_call() {
        let mut via_vecs = SinkCollect::new(4);
        let mut direct = SinkCollect::new(4);
        let inputs = vec![vec![1.0f32, 2.0], vec![3.0f32]];
        fire_ports(&mut via_vecs, &inputs, &mut []);
        direct.fire(&[&[1.0, 2.0], &[3.0]], &mut []);
        assert_eq!(via_vecs.digest(), direct.digest());

        let mut m1 = Mixer::new(4);
        let mut m2 = Mixer::new(4);
        let ins = vec![vec![1.0f32]];
        let mut outs = vec![vec![0.0f32; 2], vec![0.0f32; 2]];
        fire_ports(&mut m1, &ins, &mut outs);
        let mut o0 = [0.0f32; 2];
        let mut o1 = [0.0f32; 2];
        m2.fire(&[&[1.0]], &mut [&mut o0, &mut o1]);
        assert_eq!(outs[0], o0);
        assert_eq!(outs[1], o1);
    }
}
