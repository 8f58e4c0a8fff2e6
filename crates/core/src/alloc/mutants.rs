//! Mutant enumeration (Section 4.1).
//!
//! "Because each stage is functionally equivalent, we can place any of
//! the MEM_READ instructions into subsequent stages (and fill gaps with
//! NOP instructions) without altering program semantics. We refer to
//! these adjusted programs as *mutants* and exploit this flexibility
//! when performing allocations."
//!
//! ## Model
//!
//! NOPs are inserted immediately before memory accesses; non-access
//! instructions stay rigidly attached to the *following* access (those
//! after the last access, to that access). A mutant is therefore fully
//! described by the access-position vector `x`, subject to
//!
//! * `x[i] >= LB[i]` and `x[i] - x[i-1] >= B[i]` (Section 4.2),
//! * `x[M-1] + tail <= max_len`, where `max_len` is the padded program
//!   length the policy allows,
//! * under [`MutantPolicy::MostConstrained`], every ingress-bound
//!   instruction must land in the ingress half of its pass.
//!
//! Positions beyond the pipeline length wrap onto physical stages
//! (`stage = (pos - 1) % n`): such mutants "push instructions too far
//! ahead [and] require additional packet recirculations".
//!
//! The paper reports mutant counts of 34/1/5 (most-constrained) and
//! 915/587/1149 (least-constrained) for its cache / heavy-hitter /
//! load-balancer programs without specifying the enumeration model; our
//! model is parametric in the extra-recirculation budget and its counts
//! are recorded against the paper's in EXPERIMENTS.md.

use crate::alloc::constraints::AccessPattern;

/// Which mutants the allocator may consider (Section 6.1's two
/// policies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutantPolicy {
    /// "considers only mutants that avoid additional recirculations":
    /// the padded program must fit the program's inherent pass count and
    /// ingress-bound instructions must execute in ingress stages.
    MostConstrained,
    /// "enjoys maximum flexibility at the cost of additional passes":
    /// up to `max_extra_recircs` extra passes, and ingress-bound
    /// instructions in the egress half merely cost one more pass.
    LeastConstrained,
}

/// One NOP-padded variant of a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mutant {
    /// Logical positions of the memory accesses (1-based, may exceed the
    /// pipeline length when recirculating).
    pub positions: Vec<u16>,
    /// Physical stage of each access (0-based).
    pub stages: Vec<usize>,
    /// Total passes through the pipeline this mutant needs (≥ 1),
    /// including any RTS-in-egress penalty pass.
    pub passes: u32,
    /// Padded program length.
    pub padded_len: u16,
}

impl Mutant {
    /// Distinct physical stages touched, ascending, with the demand for
    /// each (the max across accesses mapping there — two accesses in the
    /// same stage on different passes share one region, like Listing 2's
    /// threshold read/write).
    pub fn stage_demands(&self, demands: &[u16]) -> Vec<(usize, u16)> {
        let mut merged: Vec<(usize, u16)> = Vec::new();
        for (i, &s) in self.stages.iter().enumerate() {
            let d = demands.get(i).copied().unwrap_or(0);
            match merged.iter_mut().find(|(st, _)| *st == s) {
                Some((_, dm)) => *dm = (*dm).max(d),
                None => merged.push((s, d)),
            }
        }
        merged.sort_unstable_by_key(|&(s, _)| s);
        merged
    }
}

/// Enumeration parameters derived from the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct MutantSpace {
    /// Logical stages per pass.
    pub num_stages: usize,
    /// Ingress stages per pass.
    pub ingress_stages: usize,
    /// Extra passes the least-constrained policy may add.
    pub max_extra_recircs: u8,
}

impl MutantSpace {
    /// Passes inherently needed by a program of `len` instructions.
    pub fn inherent_passes(&self, len: u16) -> u32 {
        (u32::from(len)).div_ceil(self.num_stages as u32).max(1)
    }

    /// Is 1-based logical position `p` in the ingress half of its pass?
    pub fn position_is_ingress(&self, p: u16) -> bool {
        ((usize::from(p) - 1) % self.num_stages) < self.ingress_stages
    }

    /// Physical 0-based stage of 1-based logical position `p`.
    pub fn stage_of(&self, p: u16) -> usize {
        (usize::from(p) - 1) % self.num_stages
    }

    /// Enumerate every mutant of `pattern` permitted by `policy`, in the
    /// systematic (lexicographic) order the first-fit scheme relies on.
    pub fn enumerate(&self, pattern: &AccessPattern, policy: MutantPolicy) -> Vec<Mutant> {
        let mut out = Vec::new();
        self.for_each(pattern, policy, &mut |positions, passes| {
            out.push(self.mutant(pattern, positions, passes));
        });
        out
    }

    /// The [`Mutant`] that [`MutantSpace::for_each`] describes by its
    /// access positions and pass count.
    pub(crate) fn mutant(&self, pattern: &AccessPattern, positions: &[u16], passes: u32) -> Mutant {
        Mutant {
            positions: positions.to_vec(),
            stages: positions.iter().map(|&p| self.stage_of(p)).collect(),
            passes,
            padded_len: match positions.last() {
                Some(&last) => last + pattern.tail_len(),
                None => pattern.prog_len,
            },
        }
    }

    /// [`MutantSpace::enumerate`] as a visitor: `visit` sees every
    /// mutant once, in the same order, as a borrowed view — its access
    /// positions and its pass count ([`MutantSpace::mutant`] builds the
    /// rest). Nothing is collected or allocated per mutant, so a caller
    /// that keeps only a few (the allocator's dedup keeps one per
    /// distinct stage set) never holds the whole space.
    pub fn for_each(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        visit: &mut impl FnMut(&[u16], u32),
    ) {
        self.for_each_within(pattern, policy, |_| true, visit);
    }

    /// [`MutantSpace::for_each`] restricted to the mutants whose
    /// accesses all sit on stages in the set `usable` holds, in the same
    /// order: the walk never places an access on any other stage, so a
    /// grant's few stages prune the space to the mutants that can run on
    /// it. The set is a membership test so that the unrestricted walk
    /// allocates nothing for it.
    pub(crate) fn for_each_within(
        &self,
        pattern: &AccessPattern,
        policy: MutantPolicy,
        usable: impl Fn(usize) -> bool,
        visit: &mut impl FnMut(&[u16], u32),
    ) {
        let max_len = self.max_len(pattern, policy);
        let m = pattern.num_accesses();
        if m == 0 {
            // Memoryless programs have exactly one "mutant": the compact
            // program itself (padding would be pointless).
            if pattern.prog_len <= max_len {
                if let Some(penalty) = self.ingress_ok(pattern, &[], policy) {
                    visit(&[], self.inherent_passes(pattern.prog_len) + penalty);
                }
            }
            return;
        }
        let gaps = pattern.min_gaps();
        let tail = pattern.tail_len();
        let mut walk = Walk {
            space: self,
            pattern,
            policy,
            tail,
            stage_at: self
                .stage_table(pattern, policy)
                .into_iter()
                .map(|s| if usable(usize::from(s)) { s } else { OFF_STAGE })
                .collect(),
            hi: (0..m)
                .map(|i| max_len.saturating_sub(gaps[i + 1..].iter().sum::<u16>() + tail))
                .collect(),
            partner: (0..m)
                .map(|i| {
                    pattern
                        .aliases
                        .iter()
                        .find(|&&(_, l)| l == i)
                        .map(|&(e, _)| e)
                })
                .collect(),
            aliased: (0..m * m)
                .map(|k| {
                    let (i, j) = (k / m, k % m);
                    pattern
                        .aliases
                        .iter()
                        .any(|&(e, l)| (e, l) == (i, j) || (e, l) == (j, i))
                })
                .collect(),
            gaps,
            x: vec![0; m],
        };
        walk.descend(0, visit);
    }

    /// [`MutantSpace::stage_of`] as a table over every position a
    /// mutant of `pattern` under `policy` can take: `table[p]` is the
    /// stage of position `p` (`table[0]` is unused).
    pub(crate) fn stage_table(&self, pattern: &AccessPattern, policy: MutantPolicy) -> Vec<u16> {
        (0..=self.max_len(pattern, policy))
            .map(|p| if p == 0 { 0 } else { self.stage_of(p) as u16 })
            .collect()
    }

    /// The longest padded program `policy` allows for `pattern`: every
    /// position a mutant of it places is at most this.
    fn max_len(&self, pattern: &AccessPattern, policy: MutantPolicy) -> u16 {
        let inherent = self.inherent_passes(pattern.prog_len);
        let max_passes = match policy {
            MutantPolicy::MostConstrained => inherent,
            MutantPolicy::LeastConstrained => inherent + u32::from(self.max_extra_recircs),
        };
        (max_passes as usize * self.num_stages) as u16
    }

    /// Check the ingress constraints for access vector `x`.
    ///
    /// Returns `None` if the mutant is infeasible (most-constrained
    /// policy with an ingress-bound instruction landing in egress), or
    /// `Some(penalty)` with the number of extra recirculation passes the
    /// ingress misses cost under the least-constrained policy
    /// (Section 3.1: "Otherwise we recirculate packets to change ports
    /// with a corresponding overhead").
    fn ingress_ok(&self, pattern: &AccessPattern, x: &[u16], policy: MutantPolicy) -> Option<u32> {
        let mut penalty = 0u32;
        for &r in &pattern.ingress_positions {
            let pos = self.instruction_position(pattern, x, r);
            if !self.position_is_ingress(pos) {
                match policy {
                    MutantPolicy::MostConstrained => return None,
                    MutantPolicy::LeastConstrained => penalty += 1,
                }
            }
        }
        Some(penalty)
    }

    /// Logical position of the (non-access) instruction at compact
    /// position `r`, under the rigid-attachment model: NOPs are inserted
    /// immediately *before* each access's segment, so an interstitial
    /// instruction moves with the closest memory access at or after it;
    /// tail instructions (after the last access) move with that access.
    ///
    /// This is the model that reproduces the paper's Section 4.2 bounds:
    /// with RTS one line before the third access, `UB = [4 7 11]` —
    /// i.e. `x[2] <= 11` because `pos(RTS) = x[2] - 1 <= 10`.
    pub fn instruction_position(&self, pattern: &AccessPattern, x: &[u16], r: u16) -> u16 {
        match pattern.min_positions.iter().position(|&lb| lb >= r) {
            Some(j) => x[j] - (pattern.min_positions[j] - r),
            None => match pattern.min_positions.last() {
                Some(&last_lb) => x[x.len() - 1] + (r - last_lb),
                None => r,
            },
        }
    }
}

/// [`Walk::stage_at`]'s mark for a position whose stage the walk may
/// not use.
const OFF_STAGE: u16 = u16::MAX;

/// One enumeration's fixed inputs, derived once per call so that the
/// walk reads stages, bounds and alias relations by index instead of
/// recomputing them at every node.
struct Walk<'a> {
    space: &'a MutantSpace,
    pattern: &'a AccessPattern,
    policy: MutantPolicy,
    tail: u16,
    /// The paper's `B`: minimum distances between consecutive accesses.
    gaps: Vec<u16>,
    /// `stage_at[p]` is the physical stage of logical position `p`, or
    /// [`OFF_STAGE`] if that stage is not one the walk may use.
    stage_at: Vec<u16>,
    /// `hi[i]`: the last position access `i` may take and still leave
    /// room for the accesses and the tail after it.
    hi: Vec<u16>,
    /// `partner[i]`: the earlier access whose stage `i` must share.
    partner: Vec<Option<usize>>,
    /// `aliased[i * m + j]`: must accesses `i` and `j` share a stage?
    aliased: Vec<bool>,
    /// The access positions placed so far.
    x: Vec<u16>,
}

impl Walk<'_> {
    fn descend<V: FnMut(&[u16], u32)>(&mut self, i: usize, visit: &mut V) {
        let m = self.x.len();
        if i == m {
            if !self.stage_constraints_ok() {
                return;
            }
            if let Some(penalty) = self.space.ingress_ok(self.pattern, &self.x, self.policy) {
                let padded_len = self.x[m - 1] + self.tail;
                let base = (u32::from(padded_len)).div_ceil(self.space.num_stages as u32);
                visit(&self.x, base + penalty);
            }
            return;
        }
        let lo = if i == 0 {
            self.pattern.min_positions[0]
        } else {
            (self.x[i - 1] + self.gaps[i]).max(self.pattern.min_positions[i])
        };
        let hi = self.hi[i];

        // Constraint-aware pruning: an aliased access may only sit at
        // positions mapping to its partner's stage (step = pipeline
        // length), a non-aliased access must avoid every earlier
        // access's stage, and no access sits on a stage the walk may not
        // use. Without this the least-constrained space for multi-access
        // programs explodes combinatorially.
        let n = self.space.num_stages as u16;
        let (mut p, step) = match self.partner[i] {
            Some(e) => {
                let target = self.stage_at[usize::from(self.x[e])];
                let mut first = lo;
                let rem = (first - 1) % n;
                first += (target + n - rem) % n;
                (first, n)
            }
            None => (lo, 1),
        };
        while p <= hi {
            let stage = self.stage_at[usize::from(p)];
            let blocked = stage == OFF_STAGE
                || (self.partner[i].is_none()
                    && (0..i).any(|j| {
                        self.stage_at[usize::from(self.x[j])] == stage && !self.aliased[j * m + i]
                    }));
            if !blocked {
                self.x[i] = p;
                self.descend(i + 1, visit);
            }
            p += step;
        }
        self.x[i] = 0;
    }

    /// Aliasing and distinctness constraints on physical stages:
    /// aliased access pairs must land in the *same* stage (they share
    /// one region across passes); all other pairs must land in
    /// *distinct* stages (an application owns at most one region per
    /// stage — Section 3.2).
    fn stage_constraints_ok(&self) -> bool {
        let m = self.x.len();
        (0..m).all(|i| {
            (i + 1..m).all(|j| {
                let same =
                    self.stage_at[usize::from(self.x[i])] == self.stage_at[usize::from(self.x[j])];
                self.aliased[i * m + j] == same
            })
        })
    }
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

    #[test]
    fn most_constrained_cache_matches_paper_bounds() {
        // Section 4.2: with RTS restricted to the ingress pipeline the
        // upper bound becomes [4 7 11].
        let muts = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        assert!(!muts.is_empty());
        for m in &muts {
            assert!(
                m.positions[0] >= 2 && m.positions[0] <= 4,
                "{:?}",
                m.positions
            );
            assert!(m.positions[1] >= 5 && m.positions[1] <= 7);
            assert!(m.positions[2] >= 9 && m.positions[2] <= 11);
            assert!(m.positions[1] - m.positions[0] >= 3);
            assert!(m.positions[2] - m.positions[1] >= 4);
            assert_eq!(m.passes, 1);
        }
        // The compact program itself is the first mutant.
        assert_eq!(muts[0].positions, vec![2, 5, 9]);
        assert_eq!(muts[0].stages, vec![1, 4, 8]);
        // Box+gap constraints admit exactly 10 vectors (the paper counts
        // 34 under its unpublished enumeration; see EXPERIMENTS.md).
        assert_eq!(muts.len(), 10);
    }

    #[test]
    fn without_ingress_pin_bounds_widen_to_paper_ub() {
        // Section 4.2: "When targeting a logical pipeline with n = 20
        // stages, the corresponding upper bounds can be computed as
        // UB = [11 14 18]" (ignoring the RTS constraint).
        let mut p = cache_pattern();
        p.ingress_positions.clear();
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        let max0 = muts.iter().map(|m| m.positions[0]).max().unwrap();
        let max1 = muts.iter().map(|m| m.positions[1]).max().unwrap();
        let max2 = muts.iter().map(|m| m.positions[2]).max().unwrap();
        assert_eq!((max0, max1, max2), (11, 14, 18));
    }

    #[test]
    fn least_constrained_is_a_superset() {
        let mc = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        assert!(lc.len() > mc.len() * 10, "lc={} mc={}", lc.len(), mc.len());
        for m in &mc {
            assert!(lc.iter().any(|l| l.positions == m.positions));
        }
    }

    #[test]
    fn recirculating_mutants_wrap_stages_and_cost_passes() {
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        let wrapped = lc.iter().find(|m| m.positions[2] > 20).expect("some wrap");
        assert_eq!(
            wrapped.stages[2],
            (usize::from(wrapped.positions[2]) - 1) % 20
        );
        assert!(wrapped.passes >= 2);
    }

    #[test]
    fn rts_in_egress_costs_a_pass_under_lc() {
        let lc = space().enumerate(&cache_pattern(), MutantPolicy::LeastConstrained);
        // Find a mutant whose RTS (1 before access 3) lands in egress of
        // pass 1 (positions 11..=20) while the program fits one pass.
        let m = lc
            .iter()
            .find(|m| {
                let rts = m.positions[2] - 1;
                m.padded_len <= 20 && !(space().position_is_ingress(rts))
            })
            .expect("an egress-RTS single-pass mutant exists");
        assert_eq!(m.passes, 2, "egress RTS must cost one extra pass");
    }

    #[test]
    fn stage_demands_merge_same_stage_accesses() {
        let m = Mutant {
            positions: vec![5, 25],
            stages: vec![4, 4],
            passes: 2,
            padded_len: 26,
        };
        assert_eq!(m.stage_demands(&[3, 8]), vec![(4, 8)]);
        let m2 = Mutant {
            positions: vec![2, 9],
            stages: vec![1, 8],
            passes: 1,
            padded_len: 9,
        };
        assert_eq!(m2.stage_demands(&[3, 8]), vec![(1, 3), (8, 8)]);
    }

    #[test]
    fn memoryless_program_has_one_mutant() {
        let p = AccessPattern {
            min_positions: vec![],
            demands: vec![],
            prog_len: 12,
            elastic: true,
            ingress_positions: vec![3],
            aliases: vec![],
        };
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        assert_eq!(muts.len(), 1);
        assert!(muts[0].stages.is_empty());
        assert_eq!(muts[0].passes, 1);
    }

    #[test]
    fn impossible_ingress_pin_yields_no_mutants() {
        // An ingress-bound instruction at compact position 15 of a
        // memoryless program can never be moved (no accesses to pad),
        // so most-constrained enumeration is empty.
        let p = AccessPattern {
            min_positions: vec![],
            demands: vec![],
            prog_len: 16,
            elastic: true,
            ingress_positions: vec![15],
            aliases: vec![],
        };
        assert!(space()
            .enumerate(&p, MutantPolicy::MostConstrained)
            .is_empty());
        // Least-constrained accepts it, paying a recirculation.
        let lc = space().enumerate(&p, MutantPolicy::LeastConstrained);
        assert_eq!(lc.len(), 1);
        assert_eq!(lc[0].passes, 2);
    }

    #[test]
    fn long_program_needs_multiple_passes() {
        let p = AccessPattern {
            min_positions: vec![25],
            demands: vec![1],
            prog_len: 29,
            elastic: false,
            ingress_positions: vec![],
            aliases: vec![],
        };
        let muts = space().enumerate(&p, MutantPolicy::MostConstrained);
        assert!(!muts.is_empty());
        for m in &muts {
            assert_eq!(m.passes, 2);
            assert!(m.padded_len <= 40);
        }
    }

    #[test]
    fn visitor_sees_exactly_the_collected_enumeration() {
        for policy in [
            MutantPolicy::MostConstrained,
            MutantPolicy::LeastConstrained,
        ] {
            let collected = space().enumerate(&cache_pattern(), policy);
            let mut visited = Vec::new();
            space().for_each(&cache_pattern(), policy, &mut |positions, passes| {
                visited.push((positions.to_vec(), passes));
            });
            let collected: Vec<(Vec<u16>, u32)> = collected
                .into_iter()
                .map(|m| (m.positions, m.passes))
                .collect();
            assert_eq!(visited, collected);
        }
    }

    #[test]
    fn restricted_walk_is_the_full_walk_filtered_to_its_stages() {
        let full = |policy| {
            let mut all = Vec::new();
            space().for_each(&cache_pattern(), policy, &mut |positions, passes| {
                all.push((positions.to_vec(), passes));
            });
            all
        };
        for policy in [
            MutantPolicy::MostConstrained,
            MutantPolicy::LeastConstrained,
        ] {
            let all = full(policy);
            for stages in [&[1, 4, 8][..], &[2, 3, 5, 6, 9, 10, 11], &[0, 19], &[]] {
                let mut within = Vec::new();
                space().for_each_within(
                    &cache_pattern(),
                    policy,
                    |s| stages.contains(&s),
                    &mut |positions, passes| within.push((positions.to_vec(), passes)),
                );
                let filtered: Vec<(Vec<u16>, u32)> = all
                    .iter()
                    .filter(|(positions, _)| {
                        positions
                            .iter()
                            .all(|&p| stages.contains(&space().stage_of(p)))
                    })
                    .cloned()
                    .collect();
                assert_eq!(within, filtered, "{policy:?} on {stages:?}");
                assert_eq!(within.is_empty(), stages.len() < 3, "{stages:?}");
            }
        }
    }

    #[test]
    fn enumeration_is_lexicographic() {
        let muts = space().enumerate(&cache_pattern(), MutantPolicy::MostConstrained);
        for w in muts.windows(2) {
            assert!(w[0].positions < w[1].positions);
        }
    }
}
