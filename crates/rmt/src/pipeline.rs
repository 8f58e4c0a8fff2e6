//! The logical match-action pipeline.
//!
//! ActiveRMT overlays a *homogenized logical architecture* on the
//! physical switch (Figure 1): a linear sequence of logical stages, each
//! with the full instruction-decode table, protection TCAM and one
//! register array. The paper's Tofino exposes 20 logical stages — 10 in
//! the ingress pipeline and 10 in egress — and instruction *i* of a
//! program executes on logical stage *i* of the current pass
//! (Section 3.1).
//!
//! The pipeline itself is policy-free: it owns the per-stage resources
//! and statistics, and exposes them to the `activermt-core` runtime,
//! which decodes instructions and hands its stages to
//! [`run_passes`](crate::step::run_passes), which runs each instruction
//! through [`step`](crate::step::step) on the stage it reaches.

use crate::register::RegisterArray;
use crate::sram::Sram;
use crate::tcam::Tcam;

/// Static dimensions of the simulated pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Total logical stages (paper: 20).
    pub num_stages: usize,
    /// Stages belonging to the ingress pipeline (paper: 10). Ports can
    /// only change here; RTS executed later costs a recirculation.
    pub ingress_stages: usize,
    /// 32-bit registers per stage available to active programs.
    pub regs_per_stage: usize,
    /// TCAM entries per stage (memory protection ranges).
    pub tcam_entries_per_stage: usize,
    /// SRAM exact-match entries per stage (instruction decode +
    /// per-FID translation entries).
    pub sram_entries_per_stage: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        // Defaults sized after the paper's five-year-old Tofino:
        // 20 logical stages, 64K 32-bit registers (256 KB) per stage —
        // i.e. 256 blocks of 1 KB at the default granularity — and a
        // 2K-entry protection TCAM per stage (the admission bottleneck
        // discussed in Sections 3.1 and 6.1).
        PipelineConfig {
            num_stages: 20,
            ingress_stages: 10,
            regs_per_stage: 65_536,
            tcam_entries_per_stage: 2048,
            sram_entries_per_stage: 4096,
        }
    }
}

/// Per-stage execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Instructions executed in this stage.
    pub instructions: u64,
    /// Memory micro-programs executed.
    pub memory_ops: u64,
    /// Protection violations detected (MAR outside every installed
    /// range for the FID).
    pub violations: u64,
    /// Instructions skipped because the packet was disabled/complete.
    pub skipped: u64,
}

impl StageStats {
    /// Fold `other` into `self`, field by field. Used to aggregate
    /// stats across stages and, in the sharded executor, across the
    /// per-worker pipeline replicas.
    pub fn merge(&mut self, other: StageStats) {
        self.instructions += other.instructions;
        self.memory_ops += other.memory_ops;
        self.violations += other.violations;
        self.skipped += other.skipped;
    }
}

/// One logical match-action stage.
#[derive(Debug, Clone)]
pub struct Stage {
    /// Stage-local register memory.
    pub registers: RegisterArray,
    /// Protection TCAM.
    pub tcam: Tcam,
    /// Exact-match decode SRAM.
    pub sram: Sram,
    /// Execution counters.
    pub stats: StageStats,
    /// Per-stage hash seed (distinct CRC functions per stage).
    pub hash_seed: u32,
}

/// The full logical pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PipelineConfig,
    stages: Vec<Stage>,
}

impl Pipeline {
    /// Build a pipeline per `config`, with zeroed memory.
    pub fn new(config: PipelineConfig) -> Pipeline {
        assert!(config.num_stages > 0, "pipeline needs at least one stage");
        assert!(
            config.ingress_stages <= config.num_stages,
            "ingress cannot exceed total stages"
        );
        let stages = (0..config.num_stages)
            .map(|i| Stage {
                registers: RegisterArray::new(config.regs_per_stage),
                tcam: Tcam::new(config.tcam_entries_per_stage),
                sram: Sram::new(config.sram_entries_per_stage),
                stats: StageStats::default(),
                // An arbitrary odd multiplier decorrelates the seeds.
                hash_seed: (i as u32).wrapping_mul(0x9E37_79B9) ^ 0xA5A5_5A5A,
            })
            .collect();
        Pipeline { config, stages }
    }

    /// The pipeline's static configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Number of logical stages.
    pub fn num_stages(&self) -> usize {
        self.config.num_stages
    }

    /// Is 0-based logical stage `s` in the ingress pipeline?
    pub fn is_ingress(&self, s: usize) -> bool {
        s < self.config.ingress_stages
    }

    /// Access a stage immutably.
    pub fn stage(&self, s: usize) -> &Stage {
        &self.stages[s]
    }

    /// Access a stage mutably.
    pub fn stage_mut(&mut self, s: usize) -> &mut Stage {
        &mut self.stages[s]
    }

    /// Iterate over all stages.
    pub fn stages(&self) -> impl Iterator<Item = &Stage> {
        self.stages.iter()
    }

    /// Total register memory across the pipeline, in registers.
    pub fn total_registers(&self) -> usize {
        self.config.num_stages * self.config.regs_per_stage
    }

    /// Aggregate stats across stages.
    pub fn total_stats(&self) -> StageStats {
        let mut agg = StageStats::default();
        for s in &self.stages {
            agg.merge(s.stats);
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_dimensions() {
        let p = Pipeline::new(PipelineConfig::default());
        assert_eq!(p.num_stages(), 20);
        assert!(p.is_ingress(0));
        assert!(p.is_ingress(9));
        assert!(!p.is_ingress(10));
        assert_eq!(p.total_registers(), 20 * 65_536);
    }

    #[test]
    fn stage_seeds_differ() {
        let p = Pipeline::new(PipelineConfig::default());
        let mut seeds: Vec<u32> = p.stages().map(|s| s.hash_seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 20, "hash seeds must be pairwise distinct");
    }

    #[test]
    fn stats_aggregate() {
        let mut p = Pipeline::new(PipelineConfig {
            num_stages: 2,
            ingress_stages: 1,
            regs_per_stage: 8,
            tcam_entries_per_stage: 4,
            sram_entries_per_stage: 4,
        });
        p.stage_mut(0).stats.instructions = 5;
        p.stage_mut(1).stats.instructions = 7;
        p.stage_mut(1).stats.violations = 1;
        let agg = p.total_stats();
        assert_eq!(agg.instructions, 12);
        assert_eq!(agg.violations, 1);
    }

    #[test]
    fn stats_merge_is_fieldwise_sum() {
        let mut a = StageStats {
            instructions: 1,
            memory_ops: 2,
            violations: 3,
            skipped: 4,
        };
        a.merge(StageStats {
            instructions: 10,
            memory_ops: 20,
            violations: 30,
            skipped: 40,
        });
        assert_eq!(
            a,
            StageStats {
                instructions: 11,
                memory_ops: 22,
                violations: 33,
                skipped: 44,
            }
        );
    }

    #[test]
    #[should_panic(expected = "ingress cannot exceed")]
    fn invalid_config_panics() {
        Pipeline::new(PipelineConfig {
            num_stages: 4,
            ingress_stages: 5,
            regs_per_stage: 1,
            tcam_entries_per_stage: 1,
            sram_entries_per_stage: 1,
        });
    }
}
