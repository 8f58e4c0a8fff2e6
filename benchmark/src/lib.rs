#![forbid(unsafe_code)]

//! # The repo benchmark
//!
//! Six sliced workloads over the repository's layers, measured from
//! outside: every number comes from timing calls into the layers'
//! public functions and reading their public counters. See
//! `benchmark/README.md` for the workload and metric tables.
//!
//! A run is a sequence of identical slices (bring-up, then one timed
//! pass over a fixed op sequence generated from `--seed`); timing
//! metrics are reduced across slices with best-decile estimators
//! ([`estimate`]); counts must repeat exactly in every slice.

pub mod cli;
pub mod ctl;
pub mod dp;
pub mod estimate;
pub mod frames;
pub mod harness;
pub mod layers;
pub mod probe;
pub mod report;
pub mod rig;
pub mod sim;

use activermt_core::alloc::MutantPolicy;
use activermt_core::runtime::{ShardedExecutor, SwitchRuntime};
use harness::Workload;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 6] = [
    "dp_short",
    "dp_long",
    "dp_pool",
    "sim_tenants",
    "ctl_churn_mc",
    "ctl_churn_lc",
];

/// Trace repetitions per timed pass (`dp_pool` shares `dp_short`'s).
const SHORT_REPS: usize = 20;
const LONG_REPS: usize = 10;
/// Depart-then-arrive pairs per timed pass.
const MC_PAIRS: usize = 600;
const LC_PAIRS: usize = 120;

/// What a binary does with a generated workload.
pub trait Visitor {
    /// What the visit produces.
    type Out;
    /// Called with the workload and how long its inputs took to
    /// generate.
    fn visit<W: Workload + layers::LayerSource>(self, w: W, gen_s: f64) -> Self::Out;
}

/// Run a generator on a thread of its own. Generators build and drop
/// whole pilot systems; on its own thread that churn lands in an
/// allocator arena that is released when the thread ends, so the
/// slices start from a clean heap and `peak_rss_mb` is theirs alone.
fn generated<T: Send>(generator: impl FnOnce() -> Result<T, String> + Send) -> Result<T, String> {
    std::thread::scope(|s| {
        s.spawn(generator)
            .join()
            .map_err(|_| "the input generator panicked".to_string())?
    })
}

/// Generate workload `name`'s inputs from `seed` and hand it to `v`.
pub fn dispatch<V: Visitor>(name: &str, seed: u64, v: V) -> Result<V::Out, String> {
    let t0 = std::time::Instant::now();
    Ok(match name {
        "dp_short" => {
            let inp = generated(|| dp::generate(dp::DpKind::Short, seed, SHORT_REPS))?;
            let gen_s = inp.gen_s;
            v.visit(
                dp::DpWorkload::<SwitchRuntime>::new("dp_short", 0.99, inp),
                gen_s,
            )
        }
        "dp_long" => {
            let inp = generated(|| dp::generate(dp::DpKind::Long, seed, LONG_REPS))?;
            let gen_s = inp.gen_s;
            v.visit(
                dp::DpWorkload::<SwitchRuntime>::new("dp_long", 0.99, inp),
                gen_s,
            )
        }
        "dp_pool" => {
            let inp = generated(|| dp::generate(dp::DpKind::Pool, seed, SHORT_REPS))?;
            let gen_s = inp.gen_s;
            v.visit(
                dp::DpWorkload::<ShardedExecutor>::new("dp_pool", 0.95, inp),
                gen_s,
            )
        }
        "sim_tenants" => {
            let w = sim::SimWorkload::new(seed);
            v.visit(w, t0.elapsed().as_secs_f64())
        }
        "ctl_churn_mc" => {
            let inp = generated(|| ctl::generate(seed, MC_PAIRS, MutantPolicy::MostConstrained))?;
            v.visit(
                ctl::CtlWorkload::new("ctl_churn_mc", inp),
                t0.elapsed().as_secs_f64(),
            )
        }
        "ctl_churn_lc" => {
            let inp = generated(|| ctl::generate(seed, LC_PAIRS, MutantPolicy::LeastConstrained))?;
            v.visit(
                ctl::CtlWorkload::new("ctl_churn_lc", inp),
                t0.elapsed().as_secs_f64(),
            )
        }
        other => return Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    })
}
