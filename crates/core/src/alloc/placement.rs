//! Memory-access placement against a fixed grant: how the shim places
//! its program on the stages the switch granted.
//!
//! [`MutantSpace::enumerate`] answers "which stage vectors *could* this
//! program reach?" and is the right tool for admission, where the
//! allocator still has freedom. Once the switch has granted a concrete
//! region set, the client-side question inverts: *given* these stages,
//! which access positions realize them with the fewest recirculations?
//!
//! Naively the shim answered by enumerating every mutant and scanning
//! for a stage match — linear in the (potentially thousands-strong)
//! least-constrained space, and blind to pass counts: the first
//! lexicographic match may recirculate more than a later one. [`place`]
//! instead searches the granted-region geometry directly as a bounded
//! depth-first program over `(access index, previous position, granted
//! stages used)` states, iterating target pass counts in ascending
//! order so the first solution found is pass-optimal and, within that,
//! lexicographically least. Infeasible states are memoized per target
//! so the worst case stays polynomial in `positions × 2^accesses`
//! rather than exponential in access count.

use std::collections::HashSet;

use crate::alloc::constraints::AccessPattern;
use crate::alloc::mutants::{Mutant, MutantPolicy, MutantSpace};

/// Search state shared across one [`place`] call.
struct Search<'a> {
    space: &'a MutantSpace,
    pattern: &'a AccessPattern,
    policy: MutantPolicy,
    /// Granted physical stages, ascending and deduplicated.
    granted: &'a [usize],
    gaps: Vec<u16>,
    tail: u16,
    /// Ingress-bound compact positions grouped by the access whose
    /// segment they ride in (so each is checked as soon as that access
    /// is pinned, letting infeasibility prune whole subtrees).
    ingress_by_access: Vec<Vec<u16>>,
    inherent: u32,
    /// States `(i, prev, used, penalty, alias stamp)` proven to admit
    /// no solution for the current target pass count.
    dead: HashSet<(usize, u16, u16, u32, u64)>,
}

impl Search<'_> {
    /// Stages of already-placed alias sources that some access `>= i`
    /// still needs to land on, packed into a word so it can extend the
    /// memo key (two prefixes reaching the same `(i, prev, used)` state
    /// can differ in where they parked an alias source).
    fn alias_stamp(&self, i: usize, x: &[u16]) -> u64 {
        let mut stamp = 0u64;
        for &(e, l) in &self.pattern.aliases {
            if l >= i && e < i {
                let packed = ((e as u64) << 32) | (self.space.stage_of(x[e]) as u64 + 1);
                stamp = stamp.wrapping_mul(1_000_003).wrapping_add(packed);
            }
        }
        stamp
    }

    /// Ingress misses incurred by pinning access `i` at position `p`.
    /// `None` means infeasible under the most-constrained policy.
    fn ingress_cost(&self, i: usize, p: u16) -> Option<u32> {
        let mut misses = 0u32;
        for &r in &self.ingress_by_access[i] {
            let lb = self.pattern.min_positions[i];
            // Tail instructions sit *after* the last access's lower
            // bound; segment instructions sit at or before it.
            let pos = if r <= lb { p - (lb - r) } else { p + (r - lb) };
            if !self.space.position_is_ingress(pos) {
                match self.policy {
                    MutantPolicy::MostConstrained => return None,
                    MutantPolicy::LeastConstrained => misses += 1,
                }
            }
        }
        Some(misses)
    }

    /// Depth-first search for the lexicographically least position
    /// vector completing prefix `x[..i]` in exactly `target` total
    /// passes. `used` is a bitmask over `granted` indices; `penalty`
    /// the ingress misses already incurred.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        target: u32,
        max_len: u16,
        i: usize,
        x: &mut Vec<u16>,
        used: u16,
        penalty: u32,
    ) -> Option<Mutant> {
        let m = self.pattern.num_accesses();
        if i == m {
            if used.count_ones() as usize != self.granted.len() {
                return None;
            }
            let padded_len = x[m - 1] + self.tail;
            let base = u32::from(padded_len).div_ceil(self.space.num_stages as u32);
            if base + penalty != target {
                return None;
            }
            return Some(Mutant {
                positions: x.clone(),
                stages: x.iter().map(|&p| self.space.stage_of(p)).collect(),
                passes: target,
                padded_len,
            });
        }
        let prev = if i == 0 { 0 } else { x[i - 1] };
        let key = (i, prev, used, penalty, self.alias_stamp(i, x));
        if self.dead.contains(&key) {
            return None;
        }
        let slack_after: u16 = self.gaps[i + 1..].iter().sum::<u16>() + self.tail;
        let lo = if i == 0 {
            self.pattern.min_positions[0]
        } else {
            (prev + self.gaps[i]).max(self.pattern.min_positions[i])
        };
        let hi = max_len.saturating_sub(slack_after);

        let alias_of = self
            .pattern
            .aliases
            .iter()
            .find(|&&(_, l)| l == i)
            .map(|&(e, _)| e);
        let n = self.space.num_stages as u16;
        let (mut p, step) = match alias_of {
            Some(e) => {
                // Aliased follower: only positions congruent with the
                // partner's stage are admissible, stepping by one pass.
                let target_stage = self.space.stage_of(x[e]) as u16;
                let mut first = lo;
                let rem = (first - 1) % n;
                first += (target_stage + n - rem) % n;
                (first, n)
            }
            None => (lo, 1),
        };
        while p <= hi {
            let stage = self.space.stage_of(p);
            let (slot, occupied) = match self.granted.iter().position(|&g| g == stage) {
                Some(s) => (s, used & (1 << s) != 0),
                None => {
                    p += step;
                    continue;
                }
            };
            // A non-aliased access needs a fresh granted stage; a
            // follower reuses its partner's (already-marked) slot.
            if alias_of.is_some() || !occupied {
                if let Some(misses) = self.ingress_cost(i, p) {
                    let penalty2 = penalty + misses;
                    if self.inherent + penalty2 <= target {
                        let used2 = used | (1 << slot);
                        x[i] = p;
                        if let Some(found) = self.dfs(target, max_len, i + 1, x, used2, penalty2) {
                            return Some(found);
                        }
                    }
                }
            }
            p += step;
        }
        x[i] = 0;
        self.dead.insert(key);
        None
    }
}

/// Find the cheapest mutant of `pattern` whose distinct physical stages
/// are exactly `granted_stages`: minimal total passes (recirculations
/// plus any ingress-miss penalty under the least-constrained policy),
/// breaking ties by lexicographically least access positions.
///
/// Returns `None` when no admissible mutant reaches the granted stages
/// — a grant the program cannot realize. Under
/// [`MutantPolicy::MostConstrained`] every admissible mutant has the
/// same (inherent) pass count, so the result coincides with scanning
/// [`MutantSpace::enumerate`] for the first stage match; under
/// [`MutantPolicy::LeastConstrained`] it may strictly improve on that
/// scan by skipping needless recirculations.
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

    let m = pattern.num_accesses();
    if m == 0 {
        // Memoryless programs have one mutant (the compact program);
        // it matches only the empty grant.
        if !granted.is_empty() {
            return None;
        }
        return space.enumerate(pattern, policy).into_iter().next();
    }
    if granted.is_empty() || granted.len() > m || granted.len() > 16 {
        return None;
    }

    let inherent = space.inherent_passes(pattern.prog_len);
    let max_extra = match policy {
        MutantPolicy::MostConstrained => 0,
        MutantPolicy::LeastConstrained => u32::from(space.max_extra_recircs),
    };
    let max_penalty = match policy {
        MutantPolicy::MostConstrained => 0,
        MutantPolicy::LeastConstrained => pattern.ingress_positions.len() as u32,
    };
    let policy_max_len = ((inherent + max_extra) as usize * space.num_stages) as u16;

    // Group ingress-bound instructions by the access that carries them
    // (tail instructions ride with the last access).
    let mut ingress_by_access = vec![Vec::new(); m];
    for &r in &pattern.ingress_positions {
        let j = pattern
            .min_positions
            .iter()
            .position(|&lb| lb >= r)
            .unwrap_or(m - 1);
        ingress_by_access[j].push(r);
    }

    let mut search = Search {
        space,
        pattern,
        policy,
        granted: &granted,
        gaps: pattern.min_gaps(),
        tail: pattern.tail_len(),
        ingress_by_access,
        inherent,
        dead: HashSet::new(),
    };

    for target in inherent..=(inherent + max_extra + max_penalty) {
        let max_len = policy_max_len.min((target as usize * space.num_stages) as u16);
        search.dead.clear();
        let mut x = vec![0u16; m];
        if let Some(found) = search.dfs(target, max_len, 0, &mut x, 0, 0) {
            return Some(found);
        }
    }
    None
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
