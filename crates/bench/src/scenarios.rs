//! Control-plane experiment drivers (Sections 6.1, 6.2, 6.4).
//!
//! These drive the allocator (or the full controller, when provisioning
//! times matter) through the paper's arrival processes:
//!
//! * [`pure_arrivals`] — 500 sequential arrivals of one application
//!   (Figures 5a and 6);
//! * [`mixed_arrivals`] — arrivals drawn uniformly from the three
//!   applications (Figure 5b);
//! * [`churn`] — Poisson(2) arrivals vs. Poisson(1) departures per
//!   epoch (Figures 7, 8a and 11): "we draw a number of application
//!   arrivals at random following a Poisson distribution with mean 2
//!   and departure events from a Poisson distribution with mean 1,
//!   resulting in increasing application population over time."

use crate::patterns::{pattern_of, AppKind};
use activermt_apps::workload::poisson;
use activermt_core::alloc::{jain_index, Allocator, AllocatorConfig, MutantPolicy, Scheme};
use activermt_core::controller::{Controller, ControllerAction, ProvisioningReport};
use activermt_core::runtime::SwitchRuntime;
use activermt_core::types::Fid;
use activermt_core::SwitchConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// One arrival's outcome in a sequential-arrivals experiment.
#[derive(Debug, Clone, Copy)]
pub struct EpochRecord {
    /// Arrival index ("epoch" in Figure 5's terminology).
    pub epoch: usize,
    /// Which application arrived.
    pub kind: AppKind,
    /// Whether it was admitted.
    pub success: bool,
    /// Allocation-computation time, µs (measured wall clock).
    pub compute_us: f64,
    /// Switch memory utilization after the arrival.
    pub utilization: f64,
    /// Mutants enumerated for the request.
    pub mutants: usize,
    /// Feasible candidates found.
    pub feasible: usize,
    /// Incumbents reallocated to admit it.
    pub victims: usize,
}

fn admit_one(
    alloc: &mut Allocator,
    fid: Fid,
    kind: AppKind,
    policy: MutantPolicy,
    block_bytes: u32,
    epoch: usize,
) -> EpochRecord {
    let pattern = pattern_of(kind, block_bytes);
    match alloc.admit(fid, &pattern, policy) {
        Ok(out) => EpochRecord {
            epoch,
            kind,
            success: true,
            compute_us: out.compute_time.as_secs_f64() * 1e6,
            utilization: alloc.utilization(),
            mutants: out.mutants_considered,
            feasible: out.feasible_candidates,
            victims: out.victims_by_fid().len(),
        },
        Err(_) => EpochRecord {
            epoch,
            kind,
            success: false,
            compute_us: 0.0,
            utilization: alloc.utilization(),
            mutants: 0,
            feasible: 0,
            victims: 0,
        },
    }
}

/// 500 sequential arrivals of one application type (Figures 5a / 6).
pub fn pure_arrivals(
    kind: AppKind,
    n: usize,
    policy: MutantPolicy,
    scheme: Scheme,
    cfg: &SwitchConfig,
) -> Vec<EpochRecord> {
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, scheme));
    (0..n)
        .map(|i| admit_one(&mut alloc, i as Fid, kind, policy, cfg.block_regs * 4, i))
        .collect()
}

/// `n` arrivals drawn uniformly among the three applications
/// (Figure 5b).
pub fn mixed_arrivals(
    seed: u64,
    n: usize,
    policy: MutantPolicy,
    scheme: Scheme,
    cfg: &SwitchConfig,
) -> Vec<EpochRecord> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, scheme));
    (0..n)
        .map(|i| {
            let kind = AppKind::ALL[rng.gen_range(0..3usize)];
            admit_one(&mut alloc, i as Fid, kind, policy, cfg.block_regs * 4, i)
        })
        .collect()
}

/// Churn-scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Unit-less time epochs to simulate (paper: 1000 for Figure 7,
    /// 100 for Figure 11).
    pub epochs: usize,
    /// Mean arrivals per epoch (paper: 2).
    pub arrival_lambda: f64,
    /// Mean departure events per epoch (paper: 1).
    pub departure_lambda: f64,
    /// Mutant policy.
    pub policy: MutantPolicy,
    /// Allocation scheme.
    pub scheme: Scheme,
    /// RNG seed (trials use seeds 0..10).
    pub seed: u64,
}

/// Per-epoch metrics from a churn run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChurnRecord {
    /// Epoch index.
    pub epoch: usize,
    /// Utilization at epoch completion (Figure 7a).
    pub utilization: f64,
    /// Resident applications (Figure 7b).
    pub resident: usize,
    /// Arrivals this epoch.
    pub arrivals: usize,
    /// Arrivals admitted.
    pub admitted: usize,
    /// Arrivals rejected.
    pub failed: usize,
    /// Fraction of resident cache instances reallocated this epoch
    /// (Figure 7c).
    pub cache_realloc_fraction: f64,
    /// Jain's index over cache-instance allocations (Figure 7d).
    pub cache_jain: f64,
    /// Mean allocation-computation time this epoch, µs.
    pub mean_compute_us: f64,
}

/// Run the churn scenario against a bare allocator (Figures 7 and 11).
pub fn churn(cfg: &SwitchConfig, churn_cfg: ChurnConfig) -> Vec<ChurnRecord> {
    let mut rng = SmallRng::seed_from_u64(churn_cfg.seed);
    let mut alloc = Allocator::new(AllocatorConfig::from_switch(cfg, churn_cfg.scheme));
    let mut resident: Vec<(Fid, AppKind)> = Vec::new();
    let mut next_fid: Fid = 1;
    let mut out = Vec::with_capacity(churn_cfg.epochs);
    let block_bytes = cfg.block_regs * 4;

    for epoch in 0..churn_cfg.epochs {
        let mut rec = ChurnRecord {
            epoch,
            ..ChurnRecord::default()
        };
        let mut reallocated: std::collections::BTreeSet<Fid> = std::collections::BTreeSet::new();

        // Departures first (uniformly chosen residents).
        let departures = poisson(&mut rng, churn_cfg.departure_lambda) as usize;
        for _ in 0..departures.min(resident.len()) {
            let idx = rng.gen_range(0..resident.len());
            let (fid, _) = resident.swap_remove(idx);
            if let Ok(victims) = alloc.release(fid) {
                for v in victims {
                    reallocated.insert(v.fid);
                }
            }
        }

        // Arrivals.
        let arrivals = poisson(&mut rng, churn_cfg.arrival_lambda) as usize;
        rec.arrivals = arrivals;
        let mut compute_us = Vec::new();
        for _ in 0..arrivals {
            let kind = AppKind::ALL[rng.gen_range(0..3usize)];
            let fid = next_fid;
            next_fid = next_fid.wrapping_add(1).max(1);
            let pattern = pattern_of(kind, block_bytes);
            match alloc.admit(fid, &pattern, churn_cfg.policy) {
                Ok(outcome) => {
                    rec.admitted += 1;
                    compute_us.push(outcome.compute_time.as_secs_f64() * 1e6);
                    for v in &outcome.victims {
                        reallocated.insert(v.fid);
                    }
                    resident.push((fid, kind));
                }
                Err(_) => rec.failed += 1,
            }
        }

        // Epoch metrics.
        let cache_fids: Vec<Fid> = resident
            .iter()
            .filter(|(_, k)| *k == AppKind::Cache)
            .map(|(f, _)| *f)
            .collect();
        let cache_blocks: Vec<u64> = cache_fids.iter().map(|&f| alloc.app_blocks(f)).collect();
        rec.utilization = alloc.utilization();
        rec.resident = resident.len();
        rec.cache_jain = jain_index(&cache_blocks);
        rec.cache_realloc_fraction = if cache_fids.is_empty() {
            0.0
        } else {
            cache_fids
                .iter()
                .filter(|f| reallocated.contains(f))
                .count() as f64
                / cache_fids.len() as f64
        };
        rec.mean_compute_us = if compute_us.is_empty() {
            0.0
        } else {
            compute_us.iter().sum::<f64>() / compute_us.len() as f64
        };
        out.push(rec);
    }
    out
}

/// A churn run against the full controller, collecting provisioning
/// reports (Figure 8a). Clients acknowledge snapshots promptly.
pub fn churn_provisioning(
    cfg: &SwitchConfig,
    churn_cfg: ChurnConfig,
) -> Vec<(usize, ProvisioningReport)> {
    let mut rng = SmallRng::seed_from_u64(churn_cfg.seed);
    let mut runtime = SwitchRuntime::new(*cfg);
    let mut controller = Controller::new(cfg, churn_cfg.scheme);
    let mut resident: Vec<(Fid, AppKind)> = Vec::new();
    let mut next_fid: Fid = 1;
    let mut now_ns: u64 = 0;
    let mut reports = Vec::new();
    let block_bytes = cfg.block_regs * 4;

    let drain = |acts: Vec<ControllerAction>,
                 controller: &mut Controller,
                 runtime: &mut SwitchRuntime,
                 now_ns: &mut u64,
                 reports: &mut Vec<(usize, ProvisioningReport)>,
                 epoch: usize| {
        let mut queue = acts;
        while !queue.is_empty() {
            let mut next = Vec::new();
            for act in queue {
                match act {
                    ControllerAction::Deactivate { fid, at_ns, fence } => {
                        // The client snapshots and acknowledges one
                        // round trip later, echoing the signal's fence.
                        let ack_at = at_ns + 1_000_000;
                        *now_ns = (*now_ns).max(ack_at);
                        next.extend(
                            controller.handle_snapshot_complete_fenced(runtime, fid, fence, ack_at),
                        );
                    }
                    ControllerAction::Report(r) => reports.push((epoch, r)),
                    ControllerAction::Respond { at_ns, .. }
                    | ControllerAction::Reactivate { at_ns, .. } => {
                        *now_ns = (*now_ns).max(at_ns);
                    }
                }
            }
            queue = next;
        }
    };

    for epoch in 0..churn_cfg.epochs {
        now_ns += 1_000_000_000; // one epoch = one second of virtual time
        let departures = poisson(&mut rng, churn_cfg.departure_lambda) as usize;
        for _ in 0..departures.min(resident.len()) {
            let idx = rng.gen_range(0..resident.len());
            let (fid, _) = resident.swap_remove(idx);
            if let Ok(acts) = controller.handle_deallocate(&mut runtime, fid, now_ns) {
                drain(
                    acts,
                    &mut controller,
                    &mut runtime,
                    &mut now_ns,
                    &mut reports,
                    epoch,
                );
            }
        }
        let arrivals = poisson(&mut rng, churn_cfg.arrival_lambda) as usize;
        for _ in 0..arrivals {
            let kind = AppKind::ALL[rng.gen_range(0..3usize)];
            let fid = next_fid;
            next_fid = next_fid.wrapping_add(1).max(1);
            let pattern = pattern_of(kind, block_bytes);
            let acts =
                controller.handle_request(&mut runtime, fid, pattern, churn_cfg.policy, now_ns);
            let before = reports.len();
            drain(
                acts,
                &mut controller,
                &mut runtime,
                &mut now_ns,
                &mut reports,
                epoch,
            );
            let admitted = reports[before..].iter().any(|(_, r)| !r.failed);
            if admitted {
                resident.push((fid, kind));
            }
        }
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SwitchConfig {
        SwitchConfig::default()
    }

    #[test]
    fn pure_cache_admits_everything() {
        // Figure 5a/6: "it can continue to admit all 500 instances."
        let recs = pure_arrivals(
            AppKind::Cache,
            120,
            MutantPolicy::MostConstrained,
            Scheme::WorstFit,
            &cfg(),
        );
        assert!(recs.iter().all(|r| r.success));
        // Utilization saturates quickly (Figure 6) and stays there.
        let early = recs[10].utilization;
        let late = recs[119].utilization;
        assert!((early - late).abs() < 1e-9, "{early} vs {late}");
        // Most-constrained cache reaches 9 of 20 stages.
        assert!((late - 0.45).abs() < 1e-9, "utilization {late}");
    }

    #[test]
    fn pure_hh_hits_a_failure_onset() {
        // Figure 5a: inelastic heavy hitters exhaust resources quickly.
        let recs = pure_arrivals(
            AppKind::HeavyHitter,
            200,
            MutantPolicy::MostConstrained,
            Scheme::WorstFit,
            &cfg(),
        );
        let onset = recs.iter().position(|r| !r.success);
        let onset = onset.expect("HH workload must saturate");
        assert!(
            (10..=120).contains(&onset),
            "HH failure onset {onset} out of plausible range"
        );
        // After the onset, with no departures, everything fails.
        assert!(recs[onset..].iter().all(|r| !r.success));
    }

    #[test]
    fn lc_admits_at_least_as_many_hh_as_mc() {
        let count = |policy| {
            pure_arrivals(AppKind::HeavyHitter, 200, policy, Scheme::WorstFit, &cfg())
                .iter()
                .filter(|r| r.success)
                .count()
        };
        let mc = count(MutantPolicy::MostConstrained);
        let lc = count(MutantPolicy::LeastConstrained);
        assert!(lc > mc, "lc={lc} must beat mc={mc} (paper: 57 vs 23)");
    }

    #[test]
    fn mixed_arrivals_are_deterministic_per_seed() {
        let a = mixed_arrivals(
            3,
            50,
            MutantPolicy::MostConstrained,
            Scheme::WorstFit,
            &cfg(),
        );
        let b = mixed_arrivals(
            3,
            50,
            MutantPolicy::MostConstrained,
            Scheme::WorstFit,
            &cfg(),
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.success, y.success);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.utilization, y.utilization);
        }
    }

    #[test]
    fn churn_population_grows_and_metrics_are_sane() {
        let recs = churn(
            &cfg(),
            ChurnConfig {
                epochs: 120,
                arrival_lambda: 2.0,
                departure_lambda: 1.0,
                policy: MutantPolicy::MostConstrained,
                scheme: Scheme::WorstFit,
                seed: 0,
            },
        );
        assert_eq!(recs.len(), 120);
        // Population grows over time (arrivals dominate departures).
        assert!(recs[119].resident > recs[10].resident);
        for r in &recs {
            assert!(r.utilization >= 0.0 && r.utilization <= 1.0);
            assert!(r.cache_jain >= 0.0 && r.cache_jain <= 1.0 + 1e-9);
            assert!(r.cache_realloc_fraction >= 0.0 && r.cache_realloc_fraction <= 1.0);
        }
        // Utilization climbs to a substantial level (Figure 7a: ~75%).
        assert!(recs[119].utilization > 0.4, "{}", recs[119].utilization);
    }

    #[test]
    fn provisioning_reports_have_the_figure8a_shape() {
        let reports = churn_provisioning(
            &cfg(),
            ChurnConfig {
                epochs: 60,
                arrival_lambda: 2.0,
                departure_lambda: 1.0,
                policy: MutantPolicy::MostConstrained,
                scheme: Scheme::WorstFit,
                seed: 1,
            },
        );
        let ok: Vec<_> = reports.iter().filter(|(_, r)| !r.failed).collect();
        assert!(ok.len() > 20);
        // Table updates dominate provisioning (Section 6.2).
        let mean_table: f64 = ok
            .iter()
            .map(|(_, r)| r.table_update_ns as f64)
            .sum::<f64>()
            / ok.len() as f64;
        let mean_snap: f64 = ok
            .iter()
            .map(|(_, r)| r.snapshot_wait_ns as f64)
            .sum::<f64>()
            / ok.len() as f64;
        assert!(
            mean_table > mean_snap,
            "table {mean_table} must dominate snapshot {mean_snap}"
        );
        // Totals land on the order of a second (Figure 8a).
        let mean_total: f64 =
            ok.iter().map(|(_, r)| r.total_ns as f64).sum::<f64>() / ok.len() as f64;
        assert!(
            mean_total > 50e6 && mean_total < 5e9,
            "mean provisioning {mean_total} ns"
        );
    }
}
