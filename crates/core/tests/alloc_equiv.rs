//! Equivalence tests for the incremental allocation search: with the
//! per-arrival memos, the per-stage weight table and the lazy heap
//! selection, [`Allocator::admit`] must select exactly the same winning
//! mutant, placements and victims as the literal oracle
//! ([`Allocator::admit_reference`]: every candidate scored with
//! [`Scheme::cost`], sorted, and probed from scratch) — the fast path
//! may only skip redundant *work*, never change a *decision*. Runs a
//! Figure 12-style arrival sweep (both policies, every scheme, with
//! departures for fragmentation), random patterns, and tight pools
//! where the best-ranked candidates are infeasible.

use activermt_core::alloc::{
    AccessPattern, AllocOutcome, Allocator, AllocatorConfig, MutantPolicy, Scheme,
};
use activermt_core::error::AdmitError;
use proptest::prelude::*;
use std::collections::HashSet;

fn config(scheme: Scheme) -> AllocatorConfig {
    AllocatorConfig {
        num_stages: 20,
        ingress_stages: 10,
        blocks_per_stage: 64,
        block_regs: 256,
        tcam_entries_per_stage: 256,
        scheme,
        max_extra_recircs: 1,
        literal_fill: false,
    }
}

/// The paper's three application shapes, as access patterns.
fn app_pattern(kind: usize) -> AccessPattern {
    match kind % 3 {
        // Cache: three elastic accesses (Listing 1).
        0 => AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        },
        // Heavy hitter: two aliased accesses with a fixed demand.
        1 => AccessPattern {
            min_positions: vec![3, 7],
            demands: vec![4, 4],
            prog_len: 10,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![(0, 1)],
        },
        // Load balancer: one inelastic access.
        _ => AccessPattern {
            min_positions: vec![4],
            demands: vec![2],
            prog_len: 8,
            elastic: false,
            ingress_positions: vec![2],
            aliases: vec![],
        },
    }
}

/// Assert two admission results are decision-identical.
fn assert_same_outcome(
    ctx: &str,
    a: &Result<AllocOutcome, AdmitError>,
    b: &Result<AllocOutcome, AdmitError>,
) {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            prop_assert_eq!(x.fid, y.fid, "{}: fid", ctx);
            prop_assert_eq!(&x.mutant.stages, &y.mutant.stages, "{}: mutant stages", ctx);
            prop_assert_eq!(x.mutant.passes, y.mutant.passes, "{}: passes", ctx);
            prop_assert_eq!(&x.placements, &y.placements, "{}: placements", ctx);
            prop_assert_eq!(&x.victims, &y.victims, "{}: victims", ctx);
            prop_assert_eq!(
                x.feasible_candidates,
                y.feasible_candidates,
                "{}: feasibility counts",
                ctx
            );
            prop_assert_eq!(
                x.mutants_considered,
                y.mutants_considered,
                "{}: mutants considered",
                ctx
            );
        }
        (Err(x), Err(y)) => prop_assert_eq!(x, y, "{}: error", ctx),
        (a, b) => panic!("{ctx}: diverged: incremental={a:?} reference={b:?}"),
    }
}

/// Figure 12-style sweep: keep admitting mixed apps until the pipeline
/// refuses, with periodic departures so later arrivals see fragmented
/// pools; every arrival is decided independently by both searches on
/// identical allocator states.
#[test]
fn incremental_search_matches_reference_across_fig12_sweep() {
    let mut total_rejections = 0u32;
    for scheme in Scheme::ALL {
        for policy in [
            MutantPolicy::MostConstrained,
            MutantPolicy::LeastConstrained,
        ] {
            let mut inc = Allocator::new(config(scheme));
            let mut oracle = inc.clone();
            let mut admitted: Vec<u16> = Vec::new();
            let mut rejections = 0u32;
            for i in 0..60u16 {
                let pattern = app_pattern(i as usize);
                let ctx = format!("{scheme:?}/{policy:?}/arrival {i}");
                let a = inc.admit(i, &pattern, policy);
                let b = oracle.admit_reference(i, &pattern, policy);
                assert_same_outcome(&ctx, &a, &b);
                match a {
                    Ok(_) => admitted.push(i),
                    Err(_) => {
                        rejections += 1;
                        // Departure: free the two oldest residents so
                        // the next arrivals probe fragmented pools.
                        for fid in admitted.drain(..2.min(admitted.len())) {
                            inc.release(fid).unwrap();
                            oracle.release(fid).unwrap();
                        }
                    }
                }
                if rejections > 8 {
                    break;
                }
            }
            total_rejections += rejections;
        }
    }
    assert!(
        total_rejections > 0,
        "the sweep must reach saturation somewhere to exercise \
         infeasible candidates"
    );
}

/// Random small-but-valid access patterns (mirrors alloc_proptests).
fn arb_pattern() -> impl Strategy<Value = AccessPattern> {
    (
        prop::collection::vec((1u16..5, 0u16..8), 1..4),
        any::<bool>(),
        0u16..4,
    )
        .prop_map(|(gaps_demands, elastic, tail)| {
            let mut pos = 0u16;
            let mut min_positions = Vec::new();
            let mut demands = Vec::new();
            for (gap, demand) in gaps_demands {
                pos += gap;
                min_positions.push(pos);
                demands.push(if elastic { 0 } else { demand.max(1) });
            }
            AccessPattern {
                prog_len: pos + tail,
                min_positions,
                demands,
                elastic,
                ingress_positions: vec![],
                aliases: vec![],
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Equivalence under arbitrary admission sequences of random
    /// patterns under both policies and every scheme.
    #[test]
    fn incremental_search_matches_reference_on_random_patterns(
        scheme in 0usize..4,
        patterns in prop::collection::vec((arb_pattern(), any::<bool>()), 1..20),
    ) {
        let mut inc = Allocator::new(config(Scheme::ALL[scheme]));
        let mut oracle = inc.clone();
        for (i, (pattern, mc)) in patterns.iter().enumerate() {
            let policy = if *mc {
                MutantPolicy::MostConstrained
            } else {
                MutantPolicy::LeastConstrained
            };
            let fid = i as u16;
            let a = inc.admit(fid, pattern, policy);
            let b = oracle.admit_reference(fid, pattern, policy);
            assert_same_outcome(&format!("random arrival {i}"), &a, &b);
        }
    }
}

/// How many distinct candidates the literal ranking of `before` (the
/// allocator state the arrival met) puts ahead of the winner — each of
/// them failed the feasibility probe.
fn infeasible_ahead(
    before: &Allocator,
    pattern: &AccessPattern,
    policy: MutantPolicy,
    out: &AllocOutcome,
) -> usize {
    let scheme = before.config().scheme;
    let mut seen = HashSet::new();
    let mut ranked = Vec::new();
    for (idx, m) in before
        .enumerate_mutants(pattern, policy)
        .into_iter()
        .enumerate()
    {
        let stages = m.stage_demands(&pattern.demands);
        if seen.insert((stages.clone(), m.passes)) {
            let cost = scheme.cost(before.pools(), &stages, pattern.elastic);
            ranked.push((cost, m.passes, idx, stages));
        }
    }
    if scheme != Scheme::FirstFit {
        ranked.sort();
    }
    let won = out.mutant.stage_demands(&pattern.demands);
    ranked
        .iter()
        .position(|(_, passes, _, stages)| *passes == out.mutant.passes && *stages == won)
        .expect("the winner is one of the candidates")
}

/// Tight pools (4 blocks a stage) and a tight protection TCAM: the
/// schemes that pack tenants together rank full stages first, so the
/// search must pop past infeasible heads; arrivals run until both
/// `OutOfMemory` and `OutOfTcam` surface. Every decision and every
/// error must match the literal oracle's.
#[test]
fn infeasible_heads_are_skipped_exactly_as_the_oracle_skips_them() {
    let mut deepest = [0usize; 4];
    let mut errors: Vec<AdmitError> = Vec::new();
    for (si, scheme) in Scheme::ALL.into_iter().enumerate() {
        for (blocks, tcam) in [(4, 256), (64, 6)] {
            for policy in [
                MutantPolicy::MostConstrained,
                MutantPolicy::LeastConstrained,
            ] {
                let mut cfg = config(scheme);
                cfg.blocks_per_stage = blocks;
                cfg.tcam_entries_per_stage = tcam;
                let mut inc = Allocator::new(cfg);
                let mut oracle = inc.clone();
                for i in 0..48u16 {
                    let pattern = app_pattern(i as usize);
                    let ctx = format!("{scheme:?}/{blocks}b/{tcam}t/{policy:?}/arrival {i}");
                    let before = oracle.clone();
                    let a = inc.admit(i, &pattern, policy);
                    let b = oracle.admit_reference(i, &pattern, policy);
                    assert_same_outcome(&ctx, &a, &b);
                    match a {
                        Ok(out) => {
                            let ahead = infeasible_ahead(&before, &pattern, policy, &out);
                            deepest[si] = deepest[si].max(ahead);
                        }
                        Err(e) => errors.push(e),
                    }
                }
            }
        }
    }
    assert!(
        deepest.iter().all(|&d| d >= 3),
        "every scheme must pop past several infeasible heads (deepest \
         winner per scheme: {deepest:?})"
    );
    assert!(errors.contains(&AdmitError::OutOfMemory), "{errors:?}");
    assert!(errors.contains(&AdmitError::OutOfTcam), "{errors:?}");
}
