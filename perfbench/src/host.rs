//! Host-time measurement: the frozen reference kernel, the interleaved
//! unit/reference sampler, order statistics, and the host fingerprint.
//!
//! Every host-time metric is `median(unit_s / ref_s) × REF_NOMINAL_S`, where
//! `ref_s` is the mean of the reference-kernel calls timed immediately before
//! and after the unit.  A host regime that slows the whole machine slows both
//! sides of the ratio and cancels; a slower unit on an unchanged host shows
//! in full (see the tests at the end of this file).

use std::hint::black_box;
use std::time::Instant;

/// Nominal duration of one reference-kernel call, in seconds.  It turns the
/// dimensionless `unit / ref` ratio back into seconds: a metric reads as the
/// time the unit would take on a host where the kernel takes exactly this
/// long.
///
/// **Frozen.** Changing this constant, [`REF_ELEMS`], [`REF_ROUNDS`] or the
/// kernel body rescales every host-time metric; it is a benchmark change that
/// re-baselines every workload, never part of a change that claims a gain.
pub const REF_NOMINAL_S: f64 = 0.020;

/// Elements sorted per round: 16 KiB of `u32`, resident in L1.
const REF_ELEMS: usize = 4096;

/// Fill-and-sort rounds per kernel call.
const REF_ROUNDS: usize = 192;

/// The reference kernel: `REF_ROUNDS` rounds of an xorshift fill of an
/// L1-resident buffer followed by an unstable sort.  Single-threaded,
/// allocation-free and independent of the program under test.
pub fn reference_kernel() -> u64 {
    let mut buf = [0u32; REF_ELEMS];
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc = 0u64;
    for _ in 0..REF_ROUNDS {
        for slot in buf.iter_mut() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *slot = x as u32;
        }
        black_box(&mut buf);
        buf.sort_unstable();
        acc = acc.wrapping_add(u64::from(buf[REF_ELEMS / 2]));
    }
    black_box(acc)
}

/// Wall time of one reference-kernel call, in seconds.
pub fn time_reference() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel());
    start.elapsed().as_secs_f64()
}

/// One timed unit: its raw wall time and its time relative to the adjacent
/// reference calls.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Raw wall time of the unit, in seconds (diagnostic only).
    pub raw_s: f64,
    /// `raw_s / mean(ref before, ref after)`.
    pub ratio: f64,
}

/// Times units back to back with the reference kernel: `ref, unit, ref,
/// unit, ref, …`.  Each reference call is shared by the two units around it.
#[derive(Debug)]
pub struct Sampler {
    prev_ref: f64,
    refs: Vec<f64>,
}

impl Sampler {
    /// Warms the kernel up and takes the first reference time.
    pub fn new() -> Self {
        for _ in 0..3 {
            time_reference();
        }
        let first = time_reference();
        Sampler {
            prev_ref: first,
            refs: vec![first],
        }
    }

    /// Runs `unit` once, timed, followed by one reference call.
    pub fn measure<T>(&mut self, unit: impl FnOnce() -> T) -> (T, Timing) {
        let start = Instant::now();
        let out = unit();
        let raw_s = start.elapsed().as_secs_f64();
        let after = time_reference();
        let ratio = raw_s / (0.5 * (self.prev_ref + after));
        self.prev_ref = after;
        self.refs.push(after);
        (out, Timing { raw_s, ratio })
    }

    /// Every reference time taken so far, in seconds.
    pub fn refs(&self) -> &[f64] {
        &self.refs
    }
}

/// Host seconds of a unit whose `unit / ref` ratios are `ratios`.
pub fn normalised_s(ratios: &[f64]) -> f64 {
    median(ratios) * REF_NOMINAL_S
}

/// Median (mean of the two middle values for an even count); `0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Quartiles `(q1, median, q3)` by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)`; the median alone for one value.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => (0.0, 0.0, 0.0),
        1 => (sorted[0], sorted[0], sorted[0]),
        _ => {
            let cut = |k: usize| {
                // Rank k·(n+1)/4, clamped to [1, n-1] and interpolated with
                // the same integer arithmetic as CPython.
                let m = n + 1;
                let j = (k * m / 4).clamp(1, n - 1);
                let delta = (k * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            let mid = if n % 2 == 1 {
                sorted[n / 2]
            } else {
                0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
            };
            (cut(1), mid, cut(3))
        }
    }
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(values: &[f64]) -> f64 {
    let (q1, mid, q3) = quartiles(values);
    if mid == 0.0 {
        0.0
    } else {
        100.0 * (q3 - q1) / mid
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`; `0` when empty.
pub fn nearest_rank(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// What identifies the host a run was measured on.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Logical CPUs available to this process.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
}

impl Fingerprint {
    /// Reads the fingerprint of the current host.
    pub fn current() -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Fingerprint { nproc, cpu_model }
    }
}

/// Peak resident set size (`VmHWM`) of this process in MB, or `0` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("VmHWM:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Normalised seconds of synthetic back-to-back timings: `refs[i]` and
    /// `refs[i + 1]` bracket `units[i]`, as in [`Sampler::measure`].
    fn normalise(units: &[f64], refs: &[f64]) -> f64 {
        let ratios: Vec<f64> = units
            .iter()
            .enumerate()
            .map(|(i, unit)| unit / (0.5 * (refs[i] + refs[i + 1])))
            .collect();
        normalised_s(&ratios)
    }

    fn synthetic() -> (Vec<f64>, Vec<f64>) {
        let units = vec![0.41, 0.40, 0.43, 0.39, 0.42, 0.40, 0.44];
        let refs = vec![0.020, 0.021, 0.019, 0.020, 0.022, 0.020, 0.021, 0.020];
        (units, refs)
    }

    #[test]
    fn a_host_slowdown_of_unit_and_reference_cancels() {
        let (units, refs) = synthetic();
        let base = normalise(&units, &refs);
        let slow_units: Vec<f64> = units.iter().map(|u| u * 2.0).collect();
        let slow_refs: Vec<f64> = refs.iter().map(|r| r * 2.0).collect();
        let slowed = normalise(&slow_units, &slow_refs);
        assert!((slowed / base - 1.0).abs() < 1e-12, "{base} vs {slowed}");
    }

    #[test]
    fn a_slower_unit_alone_shows_in_full() {
        let (units, refs) = synthetic();
        let base = normalise(&units, &refs);
        let slow_units: Vec<f64> = units.iter().map(|u| u * 1.2).collect();
        let slowed = normalise(&slow_units, &refs);
        assert!((slowed / base - 1.2).abs() < 1e-12, "{base} vs {slowed}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(median(&[4.0, 1.0]), 2.5);
        assert_eq!(nearest_rank(&[5.0, 1.0, 3.0, 2.0], 0.5), 2.0);
    }

    #[test]
    fn the_reference_kernel_is_deterministic() {
        assert_eq!(reference_kernel(), reference_kernel());
    }
}
