//! Figure 5a: control-plane allocation time for 500 sequential arrivals
//! of each pure application workload, under the most- and
//! least-constrained policies.
//!
//! Output columns: policy, app, epoch, success, mutants; the wall-clock
//! `compute_us` goes to `fig5a.clock.csv` (policy, app, epoch,
//! compute_us), which is not committed.
//! The paper's observable shape: allocation time collapses at the
//! failure onset (failed epochs are "quite brief"), inelastic apps
//! saturate far earlier than the elastic cache, and least-constrained
//! allocations take longer (more mutants considered).

use activermt_bench::csvout::{f, Csv};
use activermt_bench::{pure_arrivals, AppKind};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;

fn main() {
    let cfg = SwitchConfig::default();
    let mut csv = Csv::create("fig5a");
    csv.header(&["policy", "app", "epoch", "success", "mutants"]);
    let mut clocks = Csv::clocks("fig5a");
    clocks.header(&["policy", "app", "epoch", "compute_us"]);
    let mut onsets = Vec::new();
    for (policy, plabel) in [
        (MutantPolicy::MostConstrained, "mc"),
        (MutantPolicy::LeastConstrained, "lc"),
    ] {
        for kind in AppKind::ALL {
            let recs = pure_arrivals(kind, 500, policy, Scheme::WorstFit, &cfg);
            for r in &recs {
                csv.row(&[
                    plabel.to_string(),
                    kind.label().to_string(),
                    r.epoch.to_string(),
                    u8::from(r.success).to_string(),
                    r.mutants.to_string(),
                ]);
                clocks.row(&[
                    plabel.to_string(),
                    kind.label().to_string(),
                    r.epoch.to_string(),
                    f(r.compute_us),
                ]);
            }
            let onset = recs.iter().position(|r| !r.success);
            onsets.push((
                plabel,
                kind.label(),
                onset,
                recs.iter().filter(|r| r.success).count(),
            ));
        }
    }
    eprintln!("# failure onsets (paper: hh 23 mc / 57 lc; lb 368 mc; cache admits all 500):");
    for (p, k, onset, admitted) in onsets {
        eprintln!(
            "#   {p} {k}: onset={} admitted={admitted}",
            onset.map_or_else(|| "none".into(), |o| o.to_string())
        );
    }
}
