//! Small numeric helpers: percentiles, medians and a seeded generator.

use std::time::{Duration, Instant};

/// Linear-interpolated percentile (`q` in 0..=100) of unsorted samples;
/// 0 for an empty slice.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// SplitMix64: a tiny deterministic generator, so the inputs depend on the
/// seed alone and not on any library's stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// The kernel's median time, in milliseconds, on the machine the benchmark
/// was sized on when it ran at full speed: the speed that scaled times are
/// expressed in.
pub const KERNEL_REF_MS: f64 = 0.2;

/// The speed kernel: a fixed piece of work that runs no program code and,
/// once built, allocates nothing, so neither the program's code nor its heap
/// can change the kernel's time. It hashes short strings, fills an
/// open-addressed table, sorts and binary-searches, like the evaluator's
/// row loops. Its time tracks how fast this machine runs at the moment.
pub struct Kernel {
    text: Vec<u8>,
    input: Vec<u64>,
    sorted: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Kernel {
    fn default() -> Kernel {
        let mut rng = Rng::new(0xCA11B);
        let text = (0..16_000).map(|_| b'a' + rng.below(26) as u8).collect();
        let input: Vec<u64> = (0..8_192).map(|_| rng.next_u64()).collect();
        Kernel {
            text,
            sorted: vec![0; input.len()],
            table: vec![0; 2 * input.len()],
            input,
        }
    }
}

impl Kernel {
    pub fn run(&mut self) -> Duration {
        use std::hash::{Hash, Hasher};
        let start = Instant::now();
        let mut digest = 0u64;
        for word in self.text.chunks(8) {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            word.hash(&mut h);
            digest ^= h.finish();
        }
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut repeats = 0u64;
        for x in &self.input {
            let key = (x % 4_096) + 1;
            let mut slot = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) & mask;
            }
            repeats += u64::from(self.table[slot] == key);
            self.table[slot] = key;
        }
        self.sorted.copy_from_slice(&self.input);
        self.sorted.sort_unstable();
        let found = self
            .input
            .iter()
            .step_by(4)
            .filter(|x| self.sorted.binary_search(&(*x ^ 1)).is_ok())
            .count();
        std::hint::black_box((digest, repeats, found));
        start.elapsed()
    }
}

/// Kernel runs in one burst, between two timed pieces of work.
const BURST: usize = 3;

/// Times work at the reference speed.
///
/// A shared VM switched between a fast and a slow state (1.5-2x apart)
/// every few seconds, and sometimes stayed slow for minutes; the kernel and
/// the program slowed down together. A timed piece of work is therefore run
/// between two bursts of the kernel, and its wall-clock time is multiplied
/// by `KERNEL_REF_MS` over the median kernel time of the two bursts: the
/// time it would have taken at full speed.
#[derive(Default)]
pub struct Speed {
    kernel: Kernel,
    /// The latest burst: the one before the next piece of work.
    last: Vec<f64>,
}

/// A piece of work's result, when it ran, and what its wall-clock time is
/// multiplied by (1 when it ran without a `Speed`).
pub struct Timed<T> {
    pub out: T,
    pub start: Instant,
    pub end: Instant,
    pub scale: f64,
}

impl<T> Timed<T> {
    /// The wall-clock time at the reference speed.
    pub fn scaled(&self) -> Duration {
        (self.end - self.start).mul_f64(self.scale)
    }
}

impl Speed {
    fn burst(&mut self) -> Vec<f64> {
        (0..BURST).map(|_| ms(self.kernel.run())).collect()
    }

    /// Run `work`, between two kernel bursts when there is a `Speed`.
    pub fn time<T>(speed: Option<&mut Speed>, work: impl FnOnce() -> T) -> Timed<T> {
        let Some(speed) = speed else {
            let start = Instant::now();
            let out = work();
            return Timed {
                out,
                start,
                end: Instant::now(),
                scale: 1.0,
            };
        };
        if speed.last.is_empty() {
            speed.last = speed.burst();
        }
        let start = Instant::now();
        let out = work();
        let end = Instant::now();
        let after = speed.burst();
        let mut around = std::mem::replace(&mut speed.last, after.clone());
        around.extend(after);
        Timed {
            out,
            start,
            end,
            scale: KERNEL_REF_MS / median(&around),
        }
    }
}

/// The scale at time `t` from kernel times stamped while other work ran:
/// `KERNEL_REF_MS` over the median of the samples nearest to `t`.
pub fn scale_at(samples: &[(Instant, f64)], t: Instant) -> f64 {
    const NEAREST: usize = 8;
    if samples.is_empty() {
        return 1.0;
    }
    let i = samples.partition_point(|(at, _)| *at < t);
    let lo = i
        .saturating_sub(NEAREST / 2)
        .min(samples.len().saturating_sub(NEAREST));
    let near: Vec<f64> = samples[lo..(lo + NEAREST).min(samples.len())]
        .iter()
        .map(|(_, k)| *k)
        .collect();
    KERNEL_REF_MS / median(&near)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 90.0), 4.6);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn scales_follow_the_nearest_kernel_times() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let slow: Vec<(Instant, f64)> = (0..20).map(|i| (at(i), 2.0 * KERNEL_REF_MS)).collect();
        assert_eq!(scale_at(&slow, at(10)), 0.5);
        assert_eq!(scale_at(&[], at(10)), 1.0);
        let plain = Speed::time(None, || 7);
        assert_eq!((plain.out, plain.scale), (7, 1.0));
    }

    #[test]
    fn the_generator_repeats_per_seed() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
    }
}
