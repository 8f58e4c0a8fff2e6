//! The run shape every workload shares: a run is a sequence of
//! identical slices; each slice is a bring-up (timed → one `setup_s`
//! sample) followed by one timed pass over the same fixed op sequence;
//! every timing metric is computed per slice and reduced with the
//! best-decile estimators; counts must be identical in every slice.

use crate::estimate::{best_rate, best_time, slice_percentiles_us, tail_supported};
use crate::probe::Probe;
use std::time::Instant;

/// Fewest slices a run may reduce over.
pub const MIN_SLICES: usize = 30;

/// What one slice measured.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceOut {
    /// Bring-up wall time, seconds.
    pub setup_s: f64,
    /// Timed-pass wall time, seconds.
    pub pass_s: f64,
    /// What `ops_per_s` counts in this pass (frames, arrivals).
    pub units: u64,
    /// Counts that must repeat exactly in every slice.
    pub counts: Counts,
}

/// The exact part of a slice's result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Ops attempted in the pass.
    pub attempted: u64,
    /// Ops that failed: a refused admission, a dropped, unanswered or
    /// wrong-valued frame, an invariant violation.
    pub failed: u64,
    /// Digest of the pass's outputs (0 where a workload has none).
    pub digest: u64,
    /// Named layer counters read from the system's public counters.
    pub layer: Vec<(&'static str, u64)>,
}

impl Counts {
    /// The named counter, 0 if absent.
    pub fn get(&self, name: &str) -> u64 {
        self.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// One workload: inputs already generated from the seed; each call
/// builds the system from scratch and runs the fixed op sequence.
pub trait Workload {
    /// The workload's name in `BENCHMARK.json`.
    fn name(&self) -> &'static str;
    /// The tail percentile `op_us_tail` reports (highest of
    /// p99/p95/p90 with at least ten samples beyond it in one slice).
    fn tail_pct(&self) -> f64;
    /// One slice. Pushes one latency (ns) per op into `op_ns`.
    fn slice<P: Probe>(&mut self, probe: &mut P, op_ns: &mut Vec<u64>) -> Result<SliceOut, String>;
}

/// How long a run goes on.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Slices until this many seconds have been measured, and at least
    /// [`MIN_SLICES`].
    Seconds(f64),
    /// Exactly this many slices (the traced run).
    Slices(usize),
}

/// A run's reduced result.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Slices measured.
    pub slices: usize,
    /// Op latency samples per slice (beside every percentile).
    pub ops_per_slice: usize,
    /// Best-decile bring-up time, s.
    pub setup_s: f64,
    /// Best-decile slice rate, units/s.
    pub ops_per_s: f64,
    /// Best-decile per-slice median op latency, µs.
    pub op_us_p50: f64,
    /// Best-decile per-slice tail op latency, µs.
    pub op_us_tail: f64,
    /// Best-decile time inside the timed calls per unit, ns (the pass's
    /// wall minus the generator's refill between ops).
    pub busy_ns_per_unit: f64,
    /// Best-decile per-slice peak resident set size, MB: the high-water
    /// mark is restarted before every slice, so this is what one
    /// bring-up and pass need, without what the allocator happened to
    /// keep from earlier slices or from the input generator.
    pub peak_rss_mb: f64,
    /// 1 − whole-run rate / best-decile rate: how disturbed the run was.
    pub disturbance: f64,
    /// The counts every slice agreed on.
    pub counts: Counts,
    /// Units per slice (`ops_per_s` numerator).
    pub units_per_slice: u64,
}

/// Run `w` for `budget`, checking that every slice reports the same
/// counts.
pub fn run<W: Workload, P: Probe>(
    w: &mut W,
    probe: &mut P,
    budget: Budget,
) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut op_ns: Vec<u64> = Vec::new();
    let (mut setups, mut rates, mut p50s, mut tails, mut busy, mut peaks) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut first: Option<SliceOut> = None;
    let (mut units_total, mut pass_total) = (0u64, 0f64);
    loop {
        let n = setups.len();
        let done = match budget {
            Budget::Seconds(s) => n >= MIN_SLICES && started.elapsed().as_secs_f64() >= s,
            Budget::Slices(k) => n >= k,
        };
        if done {
            break;
        }
        op_ns.clear();
        reset_peak_rss();
        let out = w.slice(probe, &mut op_ns)?;
        peaks.push(peak_rss_mb());
        if !tail_supported(op_ns.len(), w.tail_pct()) {
            return Err(format!(
                "{}: {} ops per slice cannot support p{}",
                w.name(),
                op_ns.len(),
                w.tail_pct() * 100.0
            ));
        }
        busy.push(op_ns.iter().sum::<u64>() as f64 / out.units as f64);
        let (p50, tail) = slice_percentiles_us(&mut op_ns, w.tail_pct());
        setups.push(out.setup_s);
        rates.push(out.units as f64 / out.pass_s);
        p50s.push(p50);
        tails.push(tail);
        units_total += out.units;
        pass_total += out.pass_s;
        match &first {
            None => first = Some(out),
            Some(f) => {
                if f.counts != out.counts || f.units != out.units {
                    return Err(format!(
                        "{}: slice {n} counts differ from slice 0: {:?} vs {:?}",
                        w.name(),
                        out.counts,
                        f.counts
                    ));
                }
            }
        }
    }
    let first = first.ok_or("no slice ran")?;
    let ops_per_s = best_rate(&rates);
    Ok(RunResult {
        slices: setups.len(),
        ops_per_slice: op_ns.len(),
        setup_s: best_time(&setups),
        ops_per_s,
        op_us_p50: best_time(&p50s),
        op_us_tail: best_time(&tails),
        busy_ns_per_unit: best_time(&busy),
        peak_rss_mb: best_time(&peaks),
        disturbance: 1.0 - (units_total as f64 / pass_total) / ops_per_s,
        units_per_slice: first.units,
        counts: first.counts,
    })
}

/// Start the peak-RSS high-water mark afresh. Best effort: where the
/// kernel refuses, the mark keeps counting from process start.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// A `kB` field of `/proc/self/status` (`VmHWM`, `VmRSS`), in kB; 0
/// where it cannot be read.
pub fn proc_status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process since the last reset, MB
/// (`VmHWM`).
fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM") / 1024.0
}
