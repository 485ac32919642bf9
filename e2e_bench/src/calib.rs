//! A fixed calibration kernel: Dijkstra over a seeded random graph,
//! written here so no change to the program under test can change it.
//!
//! On a shared host another tenant can slow every core by up to 2× for
//! minutes at a time. Timing this kernel beside the workload measures the
//! host's current speed, so the timings can be restated at reference
//! speed (see `README.md`, "Calibration").

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

const NODES: usize = 2_048;
const DEGREE: usize = 6;
/// Dijkstra runs per sample.
const RUNS: usize = 8;

/// Median kernel sample, in seconds, on the development host (2 vCPUs at
/// 2.1 GHz) while no other tenant was busy. Calibrated timings read as if
/// measured at that speed.
pub const REFERENCE_S: f64 = 2.2e-3;

pub struct Kernel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<u32>,
    dist: Vec<u64>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Every sample taken, in seconds.
    samples: Vec<f64>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut offsets = Vec::with_capacity(NODES + 1);
        let mut targets = Vec::with_capacity(NODES * DEGREE);
        let mut weights = Vec::with_capacity(NODES * DEGREE);
        for v in 0..NODES {
            offsets.push(u32::try_from(targets.len()).expect("edge count fits u32"));
            // A ring keeps the graph connected; the rest are random chords.
            targets.push(u32::try_from((v + 1) % NODES).expect("node fits u32"));
            weights.push(1 + (next() % 100) as u32);
            for _ in 1..DEGREE {
                targets.push((next() % NODES as u64) as u32);
                weights.push(1 + (next() % 100) as u32);
            }
        }
        offsets.push(u32::try_from(targets.len()).expect("edge count fits u32"));
        Kernel {
            offsets,
            targets,
            weights,
            dist: vec![u64::MAX; NODES],
            heap: BinaryHeap::new(),
            samples: Vec::new(),
        }
    }

    /// One sample: the wall time of `RUNS` single-source searches.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        let mut checksum = 0u64;
        for run in 0..RUNS {
            checksum = checksum.wrapping_add(self.dijkstra((run * 257) % NODES));
        }
        std::hint::black_box(checksum);
        let sample = start.elapsed().as_secs_f64();
        self.samples.push(sample);
        sample
    }

    /// One stderr line on the host's speed over the run.
    pub fn report(&self) {
        let mut samples = self.samples.clone();
        eprintln!(
            "calibration kernel: median {:.4} ms over {} samples (reference {:.4} ms)",
            crate::report::median(&mut samples) * 1e3,
            samples.len(),
            REFERENCE_S * 1e3
        );
    }

    fn dijkstra(&mut self, source: usize) -> u64 {
        self.dist.fill(u64::MAX);
        self.dist[source] = 0;
        self.heap.push(Reverse((0, source as u32)));
        let mut settled = 0u64;
        while let Some(Reverse((d, v))) = self.heap.pop() {
            let v = v as usize;
            if d > self.dist[v] {
                continue;
            }
            settled = settled.wrapping_add(d);
            let (lo, hi) = (self.offsets[v] as usize, self.offsets[v + 1] as usize);
            for e in lo..hi {
                let u = self.targets[e] as usize;
                let nd = d + u64::from(self.weights[e]);
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                    self.heap.push(Reverse((nd, u as u32)));
                }
            }
        }
        settled
    }
}

/// `seconds` measured while a kernel sample took `kernel_s`, restated at
/// reference speed.
pub fn at_reference(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_S / kernel_s
}

/// Runs `setup` `reps` times, each right after a kernel sample, and
/// returns the median set-up time at reference speed with the last
/// result.
pub fn calibrated_setup<T>(
    kernel: &mut Kernel,
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut built = None;
    for _ in 0..reps {
        drop(built.take());
        let kernel_s = kernel.sample();
        let start = Instant::now();
        let value = setup()?;
        times.push(at_reference(start.elapsed().as_secs_f64(), kernel_s));
        built = Some(value);
    }
    let built = built.expect("at least one set-up");
    Ok((crate::report::median(&mut times), built))
}

/// The median of `n` kernel samples.
pub fn median_sample(kernel: &mut Kernel, n: usize) -> f64 {
    let mut samples: Vec<f64> = (0..n).map(|_| kernel.sample()).collect();
    crate::report::median(&mut samples)
}
