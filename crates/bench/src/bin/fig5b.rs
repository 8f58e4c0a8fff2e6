//! Figure 5b: allocation time for a mixed workload (apps drawn
//! uniformly at random), 500 arrivals × 10 trials, per policy, with the
//! paper's EWMA(α = 0.1) overlay.
//!
//! Output: policy, trial, epoch, app, success; the wall-clock
//! `compute_us` and `ewma_us` go to `fig5b.clock.csv` (policy, trial,
//! epoch, compute_us, ewma_us), which is not committed.

use activermt_bench::csvout::{f, Csv};
use activermt_bench::mixed_arrivals;
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;
use activermt_net::trace::ewma;

fn main() {
    let cfg = SwitchConfig::default();
    let mut csv = Csv::create("fig5b");
    csv.header(&["policy", "trial", "epoch", "app", "success"]);
    let mut clocks = Csv::clocks("fig5b");
    clocks.header(&["policy", "trial", "epoch", "compute_us", "ewma_us"]);
    for (policy, plabel) in [
        (MutantPolicy::MostConstrained, "mc"),
        (MutantPolicy::LeastConstrained, "lc"),
    ] {
        // Mean across trials per epoch, then EWMA as in the paper.
        let mut per_epoch_sum = vec![0.0f64; 500];
        let mut per_epoch_n = vec![0u32; 500];
        for trial in 0..10u64 {
            let recs = mixed_arrivals(trial, 500, policy, Scheme::WorstFit, &cfg);
            let times: Vec<f64> = recs.iter().map(|r| r.compute_us).collect();
            let smooth = ewma(&times, 0.1);
            for (r, s) in recs.iter().zip(&smooth) {
                per_epoch_sum[r.epoch] += r.compute_us;
                per_epoch_n[r.epoch] += 1;
                csv.row(&[
                    plabel.to_string(),
                    trial.to_string(),
                    r.epoch.to_string(),
                    r.kind.label().to_string(),
                    u8::from(r.success).to_string(),
                ]);
                clocks.row(&[
                    plabel.to_string(),
                    trial.to_string(),
                    r.epoch.to_string(),
                    f(r.compute_us),
                    f(*s),
                ]);
            }
        }
        let means: Vec<f64> = per_epoch_sum
            .iter()
            .zip(&per_epoch_n)
            .map(|(s, &n)| if n > 0 { s / f64::from(n) } else { 0.0 })
            .collect();
        let smooth = ewma(&means, 0.1);
        eprintln!(
            "# {plabel}: mean compute at epoch 50 = {:.1} us, 150 = {:.1} us, 450 = {:.1} us",
            smooth[50], smooth[150], smooth[450]
        );
    }
}
