//! The allocator's incremental search against its literal oracle on the
//! deployed services: the cache (3 elastic accesses), the heavy-hitter
//! monitor (6 inelastic accesses, the threshold write aliasing its
//! read) and the Cheetah balancer (4 inelastic accesses), exactly as
//! their clients compile them.
//!
//! `crates/core/tests/alloc_equiv.rs` proves the same equivalence on
//! small stand-in patterns; the monitor's least-constrained space
//! (117 697 mutants, 63 584 candidates) is far beyond what those reach.
//! Every scheme and both policies see seeded arrivals with departures,
//! on the default switch and on one with small stages and a tight
//! protection TCAM, where the cheapest candidates are refused and the
//! search must pop past them. Every outcome field but the wall-clock
//! compute time must match.

use activermt_apps::{CacheApp, CheetahLb, HeavyHitterApp};
use activermt_core::alloc::{AccessPattern, AllocOutcome, AllocatorConfig};
use activermt_core::error::AdmitError;
use activermt_core::{Allocator, MutantPolicy, Scheme, SwitchConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Arrivals per (scheme, policy, switch) run.
const ARRIVALS: u16 = 10;

fn assert_same(
    ctx: &str,
    a: &Result<AllocOutcome, AdmitError>,
    b: &Result<AllocOutcome, AdmitError>,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            assert_eq!(x.fid, y.fid, "{ctx}: fid");
            assert_eq!(x.mutant, y.mutant, "{ctx}: mutant");
            assert_eq!(x.placements, y.placements, "{ctx}: placements");
            assert_eq!(x.victims, y.victims, "{ctx}: victims");
            assert_eq!(
                x.mutants_considered, y.mutants_considered,
                "{ctx}: mutants considered"
            );
            assert_eq!(
                x.feasible_candidates, y.feasible_candidates,
                "{ctx}: feasible candidates"
            );
        }
        (Err(x), Err(y)) => assert_eq!(x, y, "{ctx}: error"),
        (a, b) => panic!("{ctx}: diverged: incremental={a:?} reference={b:?}"),
    }
}

#[test]
fn incremental_search_matches_reference_on_the_deployed_services() {
    let services: [(&str, AccessPattern); 3] = [
        ("cache", CacheApp::service().pattern),
        ("monitor", HeavyHitterApp::service().pattern),
        ("balancer", CheetahLb::service().pattern),
    ];
    // 12 blocks a stage hold one monitor sketch row (8 blocks), and 4
    // protection entries a stage run out after a few tenants' ranges.
    let mut tight = SwitchConfig::default();
    tight.regs_per_stage = 12 * tight.block_regs as usize;
    tight.tcam_entries_per_stage = 4;
    let mut admitted = 0u32;
    let mut refused = 0u32;
    let mut departed = 0u32;
    for (label, switch) in [("default", SwitchConfig::default()), ("tight", tight)] {
        for scheme in Scheme::ALL {
            for policy in [
                MutantPolicy::MostConstrained,
                MutantPolicy::LeastConstrained,
            ] {
                let mut inc = Allocator::new(AllocatorConfig::from_switch(&switch, scheme));
                let mut oracle = inc.clone();
                let mut rng = SmallRng::seed_from_u64(0x5eed ^ u64::from(scheme as u8));
                let mut residents: Vec<u16> = Vec::new();
                for fid in 0..ARRIVALS {
                    if !residents.is_empty() && rng.gen_bool(0.3) {
                        let gone = residents.swap_remove(rng.gen_range(0..residents.len()));
                        assert_eq!(inc.release(gone).unwrap(), oracle.release(gone).unwrap());
                        departed += 1;
                    }
                    let (name, pattern) = &services[rng.gen_range(0..services.len())];
                    let ctx = format!("{label}/{scheme:?}/{policy:?}/fid {fid} ({name})");
                    let a = inc.admit(fid, pattern, policy);
                    let b = oracle.admit_reference(fid, pattern, policy);
                    assert_same(&ctx, &a, &b);
                    if a.is_ok() {
                        residents.push(fid);
                        admitted += 1;
                    } else {
                        refused += 1;
                    }
                }
            }
        }
    }
    assert!(
        admitted > 0 && refused > 0 && departed > 0,
        "admitted {admitted}, refused {refused}, departed {departed}"
    );
}
