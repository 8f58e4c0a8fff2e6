//! Memory-access placement against a fixed grant: how the shim places
//! its program on the stages the switch granted.
//!
//! Admission and synthesis search one lattice of mutants. Admission
//! walks all of it ([`MutantSpace::for_each`]) while the allocator
//! still has freedom; once the switch has granted a concrete region
//! set, [`place`] walks the same lattice restricted to the granted
//! stages (`MutantSpace::for_each_within`) and keeps the cheapest
//! mutant that uses every one of them. The gap, alias, ingress and pass
//! rules are the walk's own, so the two sides cannot disagree on what a
//! mutant is.

use crate::alloc::constraints::AccessPattern;
use crate::alloc::mutants::{Mutant, MutantPolicy, MutantSpace};

/// Find the cheapest mutant of `pattern` whose distinct physical stages
/// are exactly `granted_stages`: minimal total passes (recirculations
/// plus any ingress-miss penalty under the least-constrained policy),
/// breaking ties by lexicographically least access positions.
///
/// The restricted walk yields the mutants on the granted stages in
/// lexicographic order, so the first one that uses every granted stage
/// with the fewest passes is the answer. Returns `None` when no
/// admissible mutant reaches the granted stages — a grant the program
/// cannot realize.
#[must_use]
pub fn place(
    space: &MutantSpace,
    pattern: &AccessPattern,
    policy: MutantPolicy,
    granted_stages: &[usize],
) -> Option<Mutant> {
    let mut granted: Vec<usize> = granted_stages.to_vec();
    granted.sort_unstable();
    granted.dedup();
    let mut best: Option<(Vec<u16>, u32)> = None;
    let on_grant = |stage| granted.contains(&stage);
    space.for_each_within(pattern, policy, on_grant, &mut |positions, passes| {
        if best.as_ref().is_some_and(|&(_, fewest)| fewest <= passes) {
            return;
        }
        // The walk keeps every access on a granted stage; the grant is
        // matched once every granted stage holds an access.
        let covers = granted
            .iter()
            .all(|&g| positions.iter().any(|&p| space.stage_of(p) == g));
        if covers {
            best = Some((positions.to_vec(), passes));
        }
    });
    best.map(|(positions, passes)| space.mutant(pattern, &positions, passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> MutantSpace {
        MutantSpace {
            num_stages: 20,
            ingress_stages: 10,
            max_extra_recircs: 1,
        }
    }

    /// The Listing 1 cache pattern: LB = [2 5 9], tail 2, RTS at 8.
    fn cache_pattern() -> AccessPattern {
        AccessPattern {
            min_positions: vec![2, 5, 9],
            demands: vec![0, 0, 0],
            prog_len: 11,
            elastic: true,
            ingress_positions: vec![8],
            aliases: vec![],
        }
    }

    /// Reference answer: scan the full enumeration for stage matches
    /// and keep the pass-minimal, lexicographically-least one.
    fn reference(
        space: &MutantSpace,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        granted: &[usize],
    ) -> Option<Mutant> {
        let mut g: Vec<usize> = granted.to_vec();
        g.sort_unstable();
        g.dedup();
        space
            .enumerate(pattern, policy)
            .into_iter()
            .filter(|m| {
                let mut s = m.stages.clone();
                s.sort_unstable();
                s.dedup();
                s == g
            })
            .min_by_key(|m| (m.passes, m.positions.clone()))
    }

    #[test]
    fn compact_grant_places_compactly() {
        let m = place(
            &space(),
            &cache_pattern(),
            MutantPolicy::MostConstrained,
            &[1, 4, 8],
        )
        .unwrap();
        assert_eq!(m.positions, vec![2, 5, 9]);
        assert_eq!(m.passes, 1);
    }

    #[test]
    fn shifted_grant_matches_pinned_shim_expectation() {
        let m = place(
            &space(),
            &cache_pattern(),
            MutantPolicy::MostConstrained,
            &[3, 6, 10],
        )
        .unwrap();
        assert_eq!(m.positions, vec![4, 7, 11]);
        assert_eq!(m.padded_len, 13);
        assert_eq!(m.passes, 1);
    }

    #[test]
    fn unreachable_grant_is_rejected() {
        // Stage 0 would need the first access at position 1, below its
        // lower bound of 2. A grant of the wrong arity (two or four
        // stages for three unaliased accesses) reaches no mutant either.
        for granted in [&[0, 4, 8][..], &[1, 4], &[1, 4, 8, 9]] {
            assert!(
                place(
                    &space(),
                    &cache_pattern(),
                    MutantPolicy::MostConstrained,
                    granted,
                )
                .is_none(),
                "{granted:?}"
            );
        }
    }

    #[test]
    fn agrees_with_enumeration_on_every_mc_grant() {
        let sp = space();
        let pat = cache_pattern();
        let muts = sp.enumerate(&pat, MutantPolicy::MostConstrained);
        for m in &muts {
            let mut g = m.stages.clone();
            g.sort_unstable();
            g.dedup();
            let placed = place(&sp, &pat, MutantPolicy::MostConstrained, &g).unwrap();
            let want = reference(&sp, &pat, MutantPolicy::MostConstrained, &g).unwrap();
            assert_eq!(placed, want, "grant {g:?}");
        }
    }

    #[test]
    fn lc_placement_is_pass_optimal_on_every_grant() {
        let sp = space();
        let pat = cache_pattern();
        let muts = sp.enumerate(&pat, MutantPolicy::LeastConstrained);
        let mut grants: Vec<Vec<usize>> = muts
            .iter()
            .map(|m| {
                let mut g = m.stages.clone();
                g.sort_unstable();
                g.dedup();
                g
            })
            .collect();
        grants.sort_unstable();
        grants.dedup();
        for g in &grants {
            let placed = place(&sp, &pat, MutantPolicy::LeastConstrained, g).unwrap();
            let want = reference(&sp, &pat, MutantPolicy::LeastConstrained, g).unwrap();
            assert_eq!(
                placed.passes, want.passes,
                "grant {g:?}: placed {placed:?} vs reference {want:?}"
            );
            assert_eq!(placed.positions, want.positions, "grant {g:?}");
        }
    }

    #[test]
    fn aliased_pattern_places_partners_in_one_stage() {
        // Two accesses aliased together: the grant names one stage.
        let pat = AccessPattern {
            min_positions: vec![2, 6],
            demands: vec![4, 4],
            prog_len: 8,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![(0, 1)],
        };
        let sp = space();
        let m = place(&sp, &pat, MutantPolicy::LeastConstrained, &[5]).unwrap();
        assert_eq!(m.stages, vec![5, 5]);
        let want = reference(&sp, &pat, MutantPolicy::LeastConstrained, &[5]).unwrap();
        assert_eq!(m, want);
    }

    #[test]
    fn memoryless_program_accepts_only_empty_grant() {
        let pat = AccessPattern {
            min_positions: vec![],
            demands: vec![],
            prog_len: 12,
            elastic: true,
            ingress_positions: vec![3],
            aliases: vec![],
        };
        let sp = space();
        let m = place(&sp, &pat, MutantPolicy::MostConstrained, &[]).unwrap();
        assert!(m.stages.is_empty());
        assert!(place(&sp, &pat, MutantPolicy::MostConstrained, &[2]).is_none());
    }
}
