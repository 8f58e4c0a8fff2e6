//! Building an arrival's candidate table costs a bounded number of heap
//! allocations, however many mutants the enumeration walks: the
//! allocator streams the mutants as borrowed position vectors and
//! keeps its candidates in flat pools, so only the growth of those
//! pools allocates — never a `Mutant`, a stage-demand `Vec` or a dedup
//! key per mutant.
//!
//! The counter is process-global, so the binary holds exactly one
//! `#[test]` (see `zero_alloc.rs`).

use activermt_apps::HeavyHitterApp;
use activermt_bench::hotpath::{alloc_count, CountingAlloc};
use activermt_core::alloc::AllocatorConfig;
use activermt_core::{Allocator, MutantPolicy, Scheme, SwitchConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the least-constrained monitor's first admission may
/// cost on a fresh allocator: the candidate table's pools grow by
/// doubling, so this is logarithmic in its 117 697 mutants (a `Mutant`,
/// a stage-demand `Vec` and a hashed key per mutant cost 470 889).
const FIRST_ADMIT_BOUND: u64 = 256;

/// Allocations a later admission of the same service may cost, the
/// candidate table served from the allocator's memo: 21 at the time of
/// writing — the arrival's stage weights, the TCAM probe's trial pools,
/// the winner's mutant and stage demands, the pools' growth, the
/// placements and the application record.
const MEMO_HIT_BOUND: u64 = 23;

#[test]
fn building_the_candidate_table_allocates_per_pool_growth_not_per_mutant() {
    let cfg = AllocatorConfig::from_switch(&SwitchConfig::default(), Scheme::WorstFit);
    let monitor = HeavyHitterApp::service().pattern;
    let mut alloc = Allocator::new(cfg);

    let before = alloc_count();
    let first = alloc
        .admit(1, &monitor, MutantPolicy::LeastConstrained)
        .expect("an empty switch admits a monitor");
    let first_cost = alloc_count() - before;
    assert_eq!(first.mutants_considered, 117_697);

    let before = alloc_count();
    let second = alloc
        .admit(2, &monitor, MutantPolicy::LeastConstrained)
        .expect("a second monitor fits");
    let second_cost = alloc_count() - before;
    assert_eq!(second.mutants_considered, 117_697);

    assert!(
        first_cost <= FIRST_ADMIT_BOUND,
        "the first admission allocated {first_cost} times"
    );
    assert!(
        second_cost <= MEMO_HIT_BOUND,
        "the memo-hit admission allocated {second_cost} times"
    );
}
