//! Figure 12: control-plane allocation time for a sequence of 100
//! applications at varying allocation granularities (512 B – 4 KB
//! blocks), for four workloads (pure cache / hh / lb and the uniform
//! mix), most-constrained policy.
//!
//! The paper's shape: "The finer the granularity, the more complex the
//! allocation problem becomes; the absolute impact varies across
//! application workloads." (Its switch cannot fit 100 heavy hitters at
//! 512 B / 1 KB granularity; failures show as admitted < 100.)
//!
//! The run uses the paper's literal progressive-filling algorithm
//! (whose cost is proportional to the number of blocks); an ablation
//! pass with our closed-form filling shows the dependence vanishing —
//! recorded in EXPERIMENTS.md as an implementation finding.
//!
//! Output: fill, workload, block_bytes, admitted; the wall-clock
//! `total_ms` and `mean_us` go to `fig12.clock.csv` (fill, workload,
//! block_bytes, total_ms, mean_us), which is not committed.

use activermt_bench::csvout::{f, Csv};
use activermt_bench::{mixed_arrivals, pure_arrivals, AppKind};
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::SwitchConfig;

fn main() {
    let mut csv = Csv::create("fig12");
    csv.header(&["fill", "workload", "block_bytes", "admitted"]);
    let mut clocks = Csv::clocks("fig12");
    clocks.header(&["fill", "workload", "block_bytes", "total_ms", "mean_us"]);
    for literal in [true, false] {
        run_mode(&mut csv, &mut clocks, literal);
    }
    eprintln!("# literal fill: total_ms falls as block_bytes grows (the paper's Figure 12 shape);");
    eprintln!("# closed-form fill (ablation): granularity-invariant.");
}

fn run_mode(csv: &mut Csv, clocks: &mut Csv, literal: bool) {
    let fill = if literal { "literal" } else { "closed" };
    let workloads: [&str; 4] = ["cache", "hh", "lb", "mix"];
    for block_bytes in [512u32, 1024, 2048, 4096] {
        let mut cfg = SwitchConfig::default().with_block_bytes(block_bytes);
        cfg.literal_progressive_filling = literal;
        for w in workloads {
            let recs = match w {
                "cache" => pure_arrivals(
                    AppKind::Cache,
                    100,
                    MutantPolicy::MostConstrained,
                    Scheme::WorstFit,
                    &cfg,
                ),
                "hh" => pure_arrivals(
                    AppKind::HeavyHitter,
                    100,
                    MutantPolicy::MostConstrained,
                    Scheme::WorstFit,
                    &cfg,
                ),
                "lb" => pure_arrivals(
                    AppKind::LoadBalancer,
                    100,
                    MutantPolicy::MostConstrained,
                    Scheme::WorstFit,
                    &cfg,
                ),
                _ => mixed_arrivals(
                    0,
                    100,
                    MutantPolicy::MostConstrained,
                    Scheme::WorstFit,
                    &cfg,
                ),
            };
            let total_us: f64 = recs.iter().map(|r| r.compute_us).sum();
            let admitted = recs.iter().filter(|r| r.success).count();
            csv.row(&[
                fill.to_string(),
                w.to_string(),
                block_bytes.to_string(),
                admitted.to_string(),
            ]);
            clocks.row(&[
                fill.to_string(),
                w.to_string(),
                block_bytes.to_string(),
                f(total_us / 1e3),
                f(total_us / recs.len() as f64),
            ]);
        }
    }
}
