//! Allocation schemes (Sections 4.2 and 6.4).
//!
//! "We refer to an allocation scheme as 'worst-fit' if the scheme
//! chooses stages that have the greatest amount of fungible memory and
//! 'best-fit' if it does the opposite. A corresponding 'first-fit'
//! approach greedily selects the first available memory region in the
//! systematic enumeration sequence. ... We also evaluate an allocation
//! scheme that attempts to minimize the number of reallocations required
//! to admit new applications (realloc)." (Sections 4.2, 6.4)
//!
//! A scheme scores each candidate mutant; the search takes the first
//! feasible candidate in `(cost, passes, enumeration order)`
//! lexicographically — the scheme's preference first (least-constrained
//! placement deliberately trades extra recirculation passes for better
//! stages, Section 6.1), then passes, then the systematic order for
//! determinism. First-fit skips the cost and keeps enumeration order.
//!
//! A candidate's cost is the sum of one term per stage it touches
//! ([`Scheme::stage_cost`]); the search relies on that shape to price an
//! arrival's stages once and each candidate by table lookups.

use crate::alloc::pool::StagePool;

/// The candidate-scoring policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Maximize fungible memory across the chosen stages (the paper's
    /// default: "Our prototype uses a worst-fit allocation scheme to
    /// maximize utilization").
    WorstFit,
    /// Minimize fungible memory (pack tightly).
    BestFit,
    /// Take the first feasible candidate in enumeration order.
    FirstFit,
    /// Minimize the number of existing applications that must be
    /// reallocated to admit the newcomer.
    MinRealloc,
}

impl Scheme {
    /// All schemes, for the Figure 11 comparison harness.
    pub const ALL: [Scheme; 4] = [
        Scheme::WorstFit,
        Scheme::BestFit,
        Scheme::FirstFit,
        Scheme::MinRealloc,
    ];

    /// Short label used in result tables (matches the paper's figure
    /// legends).
    pub fn label(self) -> &'static str {
        match self {
            Scheme::WorstFit => "wf",
            Scheme::BestFit => "bf",
            Scheme::FirstFit => "ff",
            Scheme::MinRealloc => "realloc",
        }
    }

    /// The per-tenant fungible memory of a stage: fungible blocks
    /// divided by the prospective number of elastic tenants (incumbents
    /// plus the newcomer). This is what a newcomer can actually expect
    /// to obtain, so "greatest fungible memory" is evaluated per tenant —
    /// otherwise an allocator facing only elastic tenants (whose presence
    /// never reduces raw fungibility) would pile every instance into the
    /// same stages instead of spreading across the pipeline as Figure 6
    /// requires.
    fn per_tenant_fungible(pool: &StagePool) -> i64 {
        i64::from(pool.fungible()) / (pool.elastic_count() as i64 + 1)
    }

    /// Cost of placing a candidate into `stages` (lower = better): the
    /// sum of its [`Scheme::stage_cost`] terms.
    ///
    /// `new_elastic` says whether the incoming application is elastic —
    /// an elastic newcomer resizes every incumbent elastic tenant of a
    /// stage it joins, which is what `MinRealloc` is trying to avoid.
    pub fn cost(self, pools: &[StagePool], stages: &[(usize, u16)], new_elastic: bool) -> i64 {
        stages
            .iter()
            .map(|&(s, demand)| self.stage_cost(&pools[s], demand, new_elastic))
            .sum()
    }

    /// One stage's term of [`Scheme::cost`]: the cost of placing
    /// `demand` blocks (ignored for an elastic newcomer) into `pool`.
    pub fn stage_cost(self, pool: &StagePool, demand: u16, new_elastic: bool) -> i64 {
        match self {
            // Prefer the *greatest* per-tenant fungible memory: negate.
            Scheme::WorstFit => -Self::per_tenant_fungible(pool),
            Scheme::BestFit => Self::per_tenant_fungible(pool),
            // First-fit never compares costs; the search short-circuits.
            Scheme::FirstFit => 0,
            // Every incumbent elastic app in the stage is resized by
            // progressive filling.
            Scheme::MinRealloc if new_elastic => pool.elastic_count() as i64,
            // An inelastic newcomer disturbs elastic tenants only if it
            // must extend the frontier.
            Scheme::MinRealloc => match pool.inelastic_slot(u32::from(demand)) {
                Some(slot) if slot >= pool.frontier() => pool.elastic_count() as i64,
                _ => 0,
            },
        }
    }

    /// Does [`Scheme::stage_cost`] read the demand? Only `MinRealloc`
    /// pricing an inelastic newcomer does; every other term is a
    /// function of the stage alone.
    pub fn reads_demand(self, new_elastic: bool) -> bool {
        self == Scheme::MinRealloc && !new_elastic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> Vec<StagePool> {
        // Stage 0: lots of fungible memory. Stage 1: mostly inelastic.
        // Stage 2: fungible but crowded with elastic tenants.
        let mut p0 = StagePool::new(100);
        p0.insert_inelastic(1, 10);
        let mut p1 = StagePool::new(100);
        p1.insert_inelastic(2, 80);
        let mut p2 = StagePool::new(100);
        p2.insert_elastic(3);
        p2.insert_elastic(4);
        p2.recompute_elastic();
        vec![p0, p1, p2]
    }

    #[test]
    fn worst_fit_prefers_fungible_stages() {
        let pools = pools();
        let a = Scheme::WorstFit.cost(&pools, &[(0, 1)], true);
        let b = Scheme::WorstFit.cost(&pools, &[(1, 1)], true);
        assert!(a < b, "stage 0 (fungible 90) must beat stage 1 (20)");
    }

    #[test]
    fn worst_fit_avoids_crowded_stages() {
        let pools = pools();
        // Stage 2 has 100 fungible blocks but 2 elastic tenants: a
        // newcomer would get ~33; stage 0 offers 90.
        let uncrowded = Scheme::WorstFit.cost(&pools, &[(0, 1)], true);
        let crowded = Scheme::WorstFit.cost(&pools, &[(2, 1)], true);
        assert!(uncrowded < crowded);
    }

    #[test]
    fn best_fit_is_the_mirror_image() {
        let pools = pools();
        let a = Scheme::BestFit.cost(&pools, &[(0, 1)], true);
        let b = Scheme::BestFit.cost(&pools, &[(1, 1)], true);
        assert!(b < a);
    }

    #[test]
    fn min_realloc_counts_displaced_tenants() {
        let pools = pools();
        // Elastic newcomer in stage 2 displaces both tenants.
        assert_eq!(Scheme::MinRealloc.cost(&pools, &[(2, 1)], true), 2);
        // In empty-ish stage 0 it displaces nobody.
        assert_eq!(Scheme::MinRealloc.cost(&pools, &[(0, 1)], true), 0);
        // Inelastic newcomer extending stage 2's frontier displaces both.
        assert_eq!(Scheme::MinRealloc.cost(&pools, &[(2, 5)], false), 2);
        // One that does not fit stage 2 at all disturbs nobody there.
        assert_eq!(Scheme::MinRealloc.cost(&pools, &[(2, 99)], false), 0);
        // Inelastic newcomer fitting stage 0's gap-free low zone at the
        // frontier with no elastic tenants displaces nobody.
        assert_eq!(Scheme::MinRealloc.cost(&pools, &[(0, 5)], false), 0);
    }

    #[test]
    fn costs_sum_over_stages() {
        // The search prices an arrival by per-stage terms, so for every
        // scheme and either kind of newcomer a candidate's cost must be
        // exactly the sum of its stages' terms — and a scheme that says
        // it ignores the demand must price every demand alike.
        let pools = pools();
        let candidates: [&[(usize, u16)]; 4] = [
            &[(0, 1)],
            &[(0, 1), (1, 1)],
            &[(0, 5), (1, 30), (2, 5)],
            &[(1, 2), (2, 99)],
        ];
        for scheme in Scheme::ALL {
            for new_elastic in [true, false] {
                for stages in candidates {
                    let cost = scheme.cost(&pools, stages, new_elastic);
                    let terms: i64 = stages
                        .iter()
                        .map(|&(s, d)| scheme.stage_cost(&pools[s], d, new_elastic))
                        .sum();
                    let singles: i64 = stages
                        .iter()
                        .map(|&st| scheme.cost(&pools, &[st], new_elastic))
                        .sum();
                    let ctx = format!("{scheme:?} elastic={new_elastic} {stages:?}");
                    assert_eq!(cost, terms, "{ctx}");
                    assert_eq!(cost, singles, "{ctx}");
                }
                if !scheme.reads_demand(new_elastic) {
                    for (s, pool) in pools.iter().enumerate() {
                        let t = scheme.stage_cost(pool, 1, new_elastic);
                        for d in [2, 5, 30, 99] {
                            assert_eq!(
                                scheme.stage_cost(pool, d, new_elastic),
                                t,
                                "{scheme:?} elastic={new_elastic} stage {s} demand {d}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(Scheme::WorstFit.label(), "wf");
        assert_eq!(Scheme::BestFit.label(), "bf");
        assert_eq!(Scheme::FirstFit.label(), "ff");
        assert_eq!(Scheme::MinRealloc.label(), "realloc");
    }
}
