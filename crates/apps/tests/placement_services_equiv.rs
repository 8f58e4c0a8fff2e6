//! Shim placement against its literal oracle on the deployed services:
//! the cache (3 elastic accesses), the heavy-hitter monitor (6
//! inelastic accesses, the threshold write aliasing its read) and the
//! Cheetah balancer (4 inelastic accesses), exactly as their clients
//! compile them, on the default switch.
//!
//! The oracle is `place`'s contract read off the enumeration: among
//! the mutants whose distinct stages are the grant, the one with the
//! fewest passes, ties broken by the least access positions. One pass
//! over `enumerate` groups every mutant by its stage set, so each grant
//! any mutant can reach is checked against its group's minimum, under
//! both policies.

use std::collections::BTreeMap;

use activermt_apps::{CacheApp, CheetahLb, HeavyHitterApp};
use activermt_core::alloc::{place, AccessPattern, Mutant, MutantSpace};
use activermt_core::{MutantPolicy, SwitchConfig};

/// The pass-minimal, lexicographically least mutant of each reachable
/// grant, keyed by the grant's sorted stages.
fn reference(
    space: &MutantSpace,
    pattern: &AccessPattern,
    policy: MutantPolicy,
) -> BTreeMap<Vec<usize>, Mutant> {
    let mut best: BTreeMap<Vec<usize>, Mutant> = BTreeMap::new();
    for m in space.enumerate(pattern, policy) {
        let mut grant = m.stages.clone();
        grant.sort_unstable();
        grant.dedup();
        match best.get_mut(&grant) {
            Some(held) if (m.passes, &m.positions) < (held.passes, &held.positions) => *held = m,
            Some(_) => {}
            None => {
                best.insert(grant, m);
            }
        }
    }
    best
}

#[test]
fn placement_matches_the_enumeration_on_every_reachable_grant() {
    let switch = SwitchConfig::default();
    let space = MutantSpace {
        num_stages: switch.num_stages,
        ingress_stages: switch.ingress_stages,
        max_extra_recircs: switch.max_extra_recircs,
    };
    // Each service with its reachable grant count under the most- and
    // the least-constrained policy.
    let services: [(&str, AccessPattern, [usize; 2]); 3] = [
        ("cache", CacheApp::service().pattern, [10, 1_068]),
        ("monitor", HeavyHitterApp::service().pattern, [144, 12_396]),
        ("balancer", CheetahLb::service().pattern, [544, 4_738]),
    ];
    for (name, pattern, counts) in &services {
        for (policy, count) in [
            MutantPolicy::MostConstrained,
            MutantPolicy::LeastConstrained,
        ]
        .into_iter()
        .zip(counts)
        {
            let grants = reference(&space, pattern, policy);
            assert_eq!(grants.len(), *count, "{name}/{policy:?}: reachable grants");
            for (grant, want) in &grants {
                let placed = place(&space, pattern, policy, grant);
                assert_eq!(placed.as_ref(), Some(want), "{name}/{policy:?}: {grant:?}");
            }
        }
    }
}
