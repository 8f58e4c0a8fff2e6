//! `capsulelint` — static analysis of the exemplar active programs.
//!
//! Runs the full `activermt-analysis` pipeline over the appendix
//! listings: context-free lints (use-before-def, dead stores,
//! unreachable code, unguarded hashed addresses) plus the admission
//! verifier under several concrete allocations, exercising distinct
//! mutants and placements per program. This is the same analysis the
//! controller applies at admission time; running it here catches
//! findings at build time instead of at the switch.
//!
//! ```text
//! capsulelint [--deny-findings] [--report <path>]
//! ```
//!
//! Exit status: 0 clean, 1 usage error, 2 verification error found,
//! 3 warnings found under `--deny-findings`.

use std::fmt::Write as _;
use std::process::ExitCode;

use activermt_analysis::{
    lint, pad_to_positions, verify, AnalysisContext, Assumptions, Finding, Severity,
};
use activermt_apps::lb::LB_ROUTE_ASM;
use activermt_apps::{CacheApp, CheetahLb, HeavyHitterApp};
use activermt_client::asm::assemble;
use activermt_client::compiler::CompiledService;
use activermt_core::alloc::{AllocatorConfig, MutantPolicy};
use activermt_core::{Allocator, Fid, Scheme, SwitchConfig};
use activermt_isa::Program;

/// One program under analysis: its compact form plus the access
/// pattern the allocator places (stateless programs have none).
struct Target {
    name: &'static str,
    service: Option<CompiledService>,
    program: Program,
}

fn targets() -> Vec<Target> {
    let cache = CacheApp::service();
    let hh = HeavyHitterApp::service();
    let lb = CheetahLb::service();
    vec![
        Target {
            name: "kvstore-cache-query",
            program: cache.spec.program.clone(),
            service: Some(cache),
        },
        Target {
            name: "hh-monitor",
            program: hh.spec.program.clone(),
            service: Some(hh),
        },
        Target {
            name: "lb-syn",
            program: lb.spec.program.clone(),
            service: Some(lb),
        },
        Target {
            name: "lb-route",
            program: assemble(LB_ROUTE_ASM).expect("Listing 4 is valid"),
            service: None,
        },
    ]
}

/// The allocation scenarios each stateful program is verified under.
/// Distinct occupancy and geometry force distinct mutants/placements,
/// so the bounds proof is exercised for several concrete regions.
enum Scenario {
    /// Empty switch, default geometry.
    Pristine,
    /// The other services admitted first; the target lands around them.
    Contended,
    /// Two copies of the target's own pattern admitted first, pushing
    /// the target's regions to nonzero offsets in shared stages.
    Neighbors,
}

impl Scenario {
    const ALL: [Scenario; 3] = [Scenario::Pristine, Scenario::Contended, Scenario::Neighbors];

    fn name(&self) -> &'static str {
        match self {
            Scenario::Pristine => "pristine",
            Scenario::Contended => "contended",
            Scenario::Neighbors => "neighbors",
        }
    }
}

fn push_findings(out: &mut String, findings: &[Finding], indent: &str) {
    for f in findings {
        let _ = writeln!(out, "{indent}{f}");
    }
}

/// Admit `target` (after any scenario occupants) and verify its padded
/// program against the granted regions. Returns `(report_text,
/// worst_severity)`.
fn verify_under(target: &Target, scenario: &Scenario) -> (String, Severity) {
    let mut out = String::new();
    let mut worst = Severity::Note;
    let service = target.service.as_ref().expect("stateful target");
    let cfg = SwitchConfig::default();
    let mut allocator = Allocator::new(AllocatorConfig::from_switch(&cfg, Scheme::WorstFit));

    match scenario {
        Scenario::Pristine => {}
        Scenario::Contended => {
            // Occupy the pipeline with the other exemplar services so
            // the target lands around them.
            let mut fid: Fid = 100;
            for other in targets() {
                let Some(other_service) = other.service else {
                    continue;
                };
                if other.name == target.name {
                    continue;
                }
                let _ = allocator.admit(fid, &other_service.pattern, MutantPolicy::MostConstrained);
                fid += 1;
            }
        }
        Scenario::Neighbors => {
            for fid in [100u16, 101] {
                let _ = allocator.admit(fid, &service.pattern, MutantPolicy::MostConstrained);
            }
        }
    }

    let outcome = match allocator.admit(1, &service.pattern, MutantPolicy::MostConstrained) {
        Ok(o) => o,
        Err(e) => {
            let _ = writeln!(out, "    allocation failed: {e:?}");
            return (out, Severity::Error);
        }
    };
    let padded = match pad_to_positions(&target.program, &outcome.mutant.positions) {
        Ok(p) => p,
        Err(e) => {
            let _ = writeln!(out, "    padding failed: {e}");
            return (out, Severity::Error);
        }
    };
    let block_regs = allocator.config().block_regs;
    let mut ctx = AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
        .with_assumptions(Assumptions::admission());
    let mut regions = String::new();
    for p in &outcome.placements {
        let (start, end) = p.range.to_registers(block_regs);
        ctx = ctx.with_region(p.stage, start, end);
        let _ = write!(regions, " s{}:[{start},{end})", p.stage);
    }
    let report = verify(padded.instructions(), &ctx);
    let _ = writeln!(
        out,
        "    mutant positions {:?}, regions{regions}",
        outcome.mutant.positions
    );
    let _ = writeln!(
        out,
        "    {}: {} proven, {} assumed, worst-case {} pass(es)",
        if report.accepted() {
            "ACCEPTED"
        } else {
            "REJECTED"
        },
        report.proven_accesses,
        report.assumed_accesses,
        report.worst_case_passes,
    );
    push_findings(&mut out, &report.findings, "      ");
    for f in &report.findings {
        worst = worst.max(f.severity);
    }
    if !report.accepted() {
        worst = Severity::Error;
    }
    (out, worst)
}

fn main() -> ExitCode {
    let mut deny_findings = false;
    let mut report_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-findings" => deny_findings = true,
            "--report" => match args.next() {
                Some(p) => report_path = Some(p),
                None => {
                    eprintln!("--report requires a path");
                    return ExitCode::from(1);
                }
            },
            "--help" | "-h" => {
                println!("usage: capsulelint [--deny-findings] [--report <path>]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::from(1);
            }
        }
    }
    let mut out = String::new();
    let mut worst = Severity::Note;
    let _ = writeln!(out, "# capsulelint report");
    let _ = writeln!(out);
    for target in targets() {
        let _ = writeln!(out, "## {}", target.name);
        let findings = lint(target.program.instructions(), 1);
        if findings.is_empty() {
            let _ = writeln!(out, "  lints: clean");
        } else {
            let _ = writeln!(out, "  lints:");
            push_findings(&mut out, &findings, "    ");
            for f in &findings {
                worst = worst.max(f.severity);
            }
        }
        if target.service.is_some() {
            for scenario in &Scenario::ALL {
                let _ = writeln!(out, "  allocation `{}`:", scenario.name());
                let (text, sev) = verify_under(&target, scenario);
                out.push_str(&text);
                worst = worst.max(sev);
            }
        } else {
            // Stateless program: verify with no regions at all — it
            // must be safe on any switch, allocated or not.
            let cfg = SwitchConfig::default();
            let ctx =
                AnalysisContext::new(cfg.num_stages, cfg.ingress_stages, cfg.max_recirculations)
                    .with_assumptions(Assumptions::admission());
            let report = verify(target.program.instructions(), &ctx);
            let _ = writeln!(
                out,
                "  stateless: {}, worst-case {} pass(es)",
                if report.accepted() {
                    "ACCEPTED"
                } else {
                    "REJECTED"
                },
                report.worst_case_passes,
            );
            push_findings(&mut out, &report.findings, "    ");
            for f in &report.findings {
                worst = worst.max(f.severity);
            }
            if !report.accepted() {
                worst = Severity::Error;
            }
        }
        let _ = writeln!(out);
    }

    print!("{out}");
    if let Some(path) = report_path {
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(1);
        }
    }
    if worst >= Severity::Error {
        ExitCode::from(2)
    } else if deny_findings && worst >= Severity::Warning {
        ExitCode::from(3)
    } else {
        ExitCode::SUCCESS
    }
}
