//! Host speed, measured with a fixed reference kernel that is the
//! benchmark's own code and calls nothing of O2.
//!
//! On a shared host the same work does not take the same CPU time: the
//! CPU time of the same small kernel moved by a factor of 1.5 from one
//! sample to the next, 200 ms apart, in spells of a fraction of a second
//! to a few seconds, and its average over a run drifts with the load on
//! the host's other cores. Each timed piece of work is scaled by the
//! host speed measured just before and just after it, so it reads as CPU
//! time on the reference host, and runs made while the host was slow
//! compare with runs made while it was fast.

use crate::stats;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// The reference kernel of a workload: the kind of work it spends most
/// of its time in. The host does not slow all work alike. In repeated
/// runs of one seed the verdicts per CPU second of `cold-paper` and
/// `mega-origins` moved with the speed of [`Kernel::Analyses`] to within
/// a few per cent, and those of `serve-edits` with that of
/// [`Kernel::RequestParsing`] (a spread of 0.03, against 0.06 with the
/// other kernel and 0.07 unscaled). Dependent loads over 4 and 32 MiB
/// hardly changed speed while the workloads did, so no kernel has them.
#[derive(Clone, Copy, Debug)]
pub enum Kernel {
    /// Validating a 16 KiB buffer from many offsets, then hash-map
    /// updates over scattered keys; both fit in the per-core caches.
    Analyses,
    /// Validating a 96 KiB buffer from every 997th offset to its end,
    /// the access pattern of `o2::serve::parse_flat_json`, which takes
    /// about 90% of the daemon's time per request.
    RequestParsing,
}

impl Kernel {
    /// CPU time of one sample on the reference host, in milliseconds:
    /// about its mean on the 2-vCPU host the benchmark was defined on,
    /// pinned to one CPU.
    fn reference_ms(self) -> f64 {
        match self {
            Kernel::Analyses => 1.1,
            Kernel::RequestParsing => 0.36,
        }
    }

    fn text_len(self) -> usize {
        match self {
            Kernel::Analyses => 16_384,
            Kernel::RequestParsing => 98_304,
        }
    }
}

/// Samples of the reference kernel's CPU time taken through a run.
pub struct HostSpeed {
    kernel: Kernel,
    samples: Vec<f64>,
    /// Input of the byte-scanning part of the kernel.
    text: Vec<u8>,
}

impl HostSpeed {
    pub fn new(kernel: Kernel) -> HostSpeed {
        HostSpeed {
            kernel,
            samples: Vec::new(),
            text: (0..kernel.text_len())
                .map(|i| b"field x.f = y; {}\"\n"[i % 19])
                .collect(),
        }
    }

    /// Runs the kernel once and records its CPU time.
    pub fn sample(&mut self) {
        let c0 = stats::cpu_ms();
        let mut n = 0usize;
        match self.kernel {
            Kernel::Analyses => {
                for k in (0..self.text.len()).step_by(61) {
                    n += std::str::from_utf8(&self.text[k..]).map_or(0, str::len);
                }
                // Fixed hash keys, so every run does the same work.
                let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> =
                    HashMap::default();
                let mut x = 0x2545_F491_4F6C_DD1D_u64;
                for _ in 0..40_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    *map.entry(x >> 52).or_insert(0) += x & 7;
                }
                n += map.len();
            }
            Kernel::RequestParsing => {
                for k in (0..self.text.len()).step_by(997) {
                    n += std::str::from_utf8(&self.text[k..]).map_or(0, str::len);
                }
            }
        }
        std::hint::black_box(n);
        self.samples.push(stats::cpu_ms() - c0);
    }

    /// How many samples were taken so far.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// The host's speed around work that started after sample `k - 1`
    /// and ended before sample `k`: the reference time over the mean of
    /// those two samples. Scaled by it, a CPU time reads as CPU time on
    /// the reference host. In repeated runs of one seed this kept the
    /// median and tail of `mega-origins` within 6% where one factor for
    /// the whole run left them 8-15% apart.
    pub fn factor_around(&self, k: usize) -> f64 {
        self.kernel.reference_ms() * 2.0 / (self.samples[k - 1] + self.samples[k])
    }

    /// The host's speed relative to the reference host over the whole
    /// run: above 1 when it ran the kernel faster. A ratio of means: the
    /// samples of one run fall into a fast and a slow mode, and a median
    /// would jump between them.
    pub fn factor(&self) -> f64 {
        self.kernel.reference_ms() * self.samples.len() as f64 / self.samples.iter().sum::<f64>()
    }

    /// The line each run prints about its host speed.
    pub fn note(&self) -> String {
        let sorted = stats::sorted(self.samples.clone());
        format!(
            "host speed {:.4} of the reference host: {:?} kernel {:.4} ms CPU on average \
             (p10 {:.4}, p90 {:.4}) over {} samples; the timed metrics are scaled by the speed around each",
            self.factor(),
            self.kernel,
            self.kernel.reference_ms() / self.factor(),
            stats::percentile(&sorted, 10.0),
            stats::percentile(&sorted, 90.0),
            sorted.len()
        )
    }
}
