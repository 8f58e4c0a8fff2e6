//! Control-flow graph over the staged execution model.
//!
//! ActiveRMT programs are position-sensitive: instruction *i* (0-based
//! here) executes in physical stage `i % num_stages` during pass
//! `i / num_stages`; crossing from index `k*num_stages - 1` to
//! `k*num_stages` is a recirculation boundary. The CFG annotates every
//! node with this stage/pass geometry so downstream passes (bounds
//! verification, the recirculation budget, lints) can reason about
//! *where* an instruction runs, not only *whether* it runs.
//!
//! Branch semantics follow the data plane exactly (the branch and skip
//! rule in `activermt_rmt::step`): a taken branch disables
//! execution until the first *later* instruction carrying the target
//! label, which itself executes; skipped instructions still consume
//! stages (and therefore recirculations). A taken branch whose label
//! never appears later skips to the end of the program — the packet is
//! forwarded uncompleted, not faulted — which the CFG models as an edge
//! to the exit and the lint pass flags as a dangling branch.
//!
//! [`Program::new`] only admits strictly-forward branch targets, so
//! CFGs built from validated programs are DAGs; the builder still
//! detects backward/self targets defensively (raw wire streams bypass
//! `Program::new`'s check) and reports them instead of looping. Every
//! edge therefore goes forward, which is what lets
//! [`Cfg::sweep_forward`] reach a forward analysis's fixed point in one
//! pass.

use activermt_isa::{Instruction, Opcode};

/// Why control can leave a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// Sequential execution into the next instruction.
    Fallthrough,
    /// A (conditionally) taken branch: skipped instructions up to the
    /// target still consume stages.
    Branch,
    /// Termination: RETURN/CRET/CRETI/DROP or running off the end.
    Exit,
}

/// One outgoing edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Edge {
    /// Destination node (one past the last instruction for termination
    /// edges: the synthetic exit).
    pub(crate) to: usize,
    /// The kind of control transfer.
    pub(crate) kind: EdgeKind,
}

/// A node: one instruction plus its stage geometry.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// The instruction.
    pub(crate) ins: Instruction,
    /// Physical stage this instruction executes (or is skipped) in.
    pub(crate) stage: usize,
    /// Pipeline pass (0 = first transit) this instruction belongs to.
    pub(crate) pass: usize,
    /// Outgoing edges.
    pub(crate) edges: Vec<Edge>,
}

/// Structural problems found while building the CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CfgError {
    /// A branch targets a label at or before itself (impossible via
    /// `Program::new`, possible in a raw wire stream). Executing it
    /// would *not* loop — the data plane only scans forward — but the
    /// program is malformed and analysis results would be misleading.
    BackwardBranch {
        /// Index of the offending branch instruction.
        at: usize,
        /// The label it names.
        label: u8,
    },
    /// The program needs more stages per pass than the pipeline has
    /// (`num_stages == 0`).
    NoStages,
}

/// The control-flow graph of one program under a given pipeline depth.
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    nodes: Vec<Node>,
    /// Branches whose label never appears later in the program (they
    /// skip to the exit at run time).
    dangling: Vec<usize>,
}

impl Cfg {
    /// Build the CFG for `instrs` on a pipeline with `num_stages`
    /// logical stages per pass.
    pub(crate) fn build(instrs: &[Instruction], num_stages: usize) -> Result<Cfg, CfgError> {
        if num_stages == 0 {
            return Err(CfgError::NoStages);
        }
        let exit = instrs.len();
        let mut dangling = Vec::new();
        let mut nodes = Vec::with_capacity(instrs.len());
        for (idx, &ins) in instrs.iter().enumerate() {
            let mut edges = Vec::with_capacity(2);
            let op = ins.opcode;
            if let Some(label) = ins.branch_target() {
                // Resolve to the first *later* instruction carrying the
                // label, mirroring the data plane's forward skip scan.
                match instrs[idx + 1..]
                    .iter()
                    .position(|t| t.label() == Some(label))
                {
                    Some(off) => edges.push(Edge {
                        to: idx + 1 + off,
                        kind: EdgeKind::Branch,
                    }),
                    None => {
                        // Defensive: a label at or before the branch is
                        // a structural error; a label nowhere at all is
                        // a run-time skip-to-end.
                        if instrs[..=idx].iter().any(|t| t.label() == Some(label)) {
                            return Err(CfgError::BackwardBranch { at: idx, label });
                        }
                        dangling.push(idx);
                        edges.push(Edge {
                            to: exit,
                            kind: EdgeKind::Branch,
                        });
                    }
                }
                if op != Opcode::UJUMP {
                    // Conditional branches also fall through.
                    edges.push(Edge {
                        to: idx + 1,
                        kind: EdgeKind::Fallthrough,
                    });
                }
            } else if op.can_terminate() {
                edges.push(Edge {
                    to: exit,
                    kind: EdgeKind::Exit,
                });
                if matches!(op, Opcode::CRET | Opcode::CRETI) {
                    edges.push(Edge {
                        to: idx + 1,
                        kind: EdgeKind::Fallthrough,
                    });
                }
            } else {
                edges.push(Edge {
                    to: idx + 1,
                    kind: EdgeKind::Fallthrough,
                });
            }
            nodes.push(Node {
                ins,
                stage: idx % num_stages,
                pass: idx / num_stages,
                edges,
            });
        }
        Ok(Cfg { nodes, dangling })
    }

    /// The nodes, in instruction order.
    pub(crate) fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Indices of branches whose target label never appears later.
    pub(crate) fn dangling_branches(&self) -> &[usize] {
        &self.dangling
    }

    /// One forward pass in index order: every edge goes forward, so a
    /// node's entry state is final by the time the pass reaches it.
    /// `step` turns a copy of node `idx`'s entry state into its exit
    /// state in place, and returns false when no execution continues past
    /// it; `along` narrows the exit state of a node with the given opcode
    /// to one outgoing edge in place, and returns false when that edge is
    /// infeasible; `join` merges a state arriving at a node into the one
    /// already there. Returns every node's entry state, `None` where
    /// nothing arrives.
    pub(crate) fn sweep_forward<S: Clone>(
        &self,
        entry: S,
        join: impl Fn(&mut S, &S),
        mut step: impl FnMut(usize, &mut S) -> bool,
        along: impl Fn(Opcode, EdgeKind, &mut S) -> bool,
    ) -> Vec<Option<S>> {
        let nodes = &self.nodes;
        let mut state_in: Vec<Option<S>> = vec![None; nodes.len()];
        if let Some(first) = state_in.first_mut() {
            *first = Some(entry);
        }
        for (idx, node) in nodes.iter().enumerate() {
            let Some(mut out) = state_in[idx].clone() else {
                continue;
            };
            if !step(idx, &mut out) {
                continue;
            }
            let mut carry = |e: &Edge, mut s: S| {
                if e.to < nodes.len() && along(node.ins.opcode, e.kind, &mut s) {
                    match &mut state_in[e.to] {
                        Some(prev) => join(prev, &s),
                        slot @ None => *slot = Some(s),
                    }
                }
            };
            // Only the last edge can take the exit state without a copy.
            if let Some((last, rest)) = node.edges.split_last() {
                for e in rest {
                    carry(e, out.clone());
                }
                carry(last, out);
            }
        }
        state_in
    }

    /// Which nodes can execute, walking edges from entry. Exact for the
    /// executed set (edge conditions are ignored, so this overapproxi-
    /// mates *taken* paths but never misses a reachable instruction).
    pub(crate) fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        if self.nodes.is_empty() {
            return seen;
        }
        let mut stack = vec![0usize];
        while let Some(id) = stack.pop() {
            if id >= self.nodes.len() || seen[id] {
                continue;
            }
            seen[id] = true;
            for e in &self.nodes[id].edges {
                stack.push(e.to);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use activermt_isa::{Opcode, ProgramBuilder};

    fn instrs(p: &activermt_isa::Program) -> Vec<Instruction> {
        p.instructions().to_vec()
    }

    #[test]
    fn straightline_geometry() {
        let p = ProgramBuilder::new()
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::NOP)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = Cfg::build(&instrs(&p), 2).unwrap();
        let stages: Vec<_> = cfg.nodes().iter().map(|n| (n.stage, n.pass)).collect();
        assert_eq!(stages, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(
            cfg.nodes()[3].edges,
            vec![Edge {
                to: 4,
                kind: EdgeKind::Exit
            }]
        );
    }

    #[test]
    fn branch_edges_resolve_forward_labels() {
        let p = ProgramBuilder::new()
            .op_arg(Opcode::MBR_LOAD, 0)
            .jump(Opcode::CJUMP, "skip")
            .op(Opcode::MEM_WRITE)
            .label("skip")
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = Cfg::build(&instrs(&p), 20).unwrap();
        let e = &cfg.nodes()[1].edges;
        assert!(e.contains(&Edge {
            to: 3,
            kind: EdgeKind::Branch
        }));
        assert!(e.contains(&Edge {
            to: 2,
            kind: EdgeKind::Fallthrough
        }));
    }

    #[test]
    fn ujump_has_no_fallthrough() {
        let p = ProgramBuilder::new()
            .jump(Opcode::UJUMP, "end")
            .op(Opcode::MEM_WRITE)
            .label("end")
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = Cfg::build(&instrs(&p), 20).unwrap();
        assert_eq!(cfg.nodes()[0].edges.len(), 1);
        let reach = cfg.reachable();
        assert!(!reach[1], "instruction after UJUMP is unreachable");
        assert!(reach[2]);
    }

    #[test]
    fn cret_falls_through_and_exits() {
        let p = ProgramBuilder::new()
            .op(Opcode::CRET)
            .op(Opcode::RETURN)
            .build()
            .unwrap();
        let cfg = Cfg::build(&instrs(&p), 20).unwrap();
        assert_eq!(cfg.nodes()[0].edges.len(), 2);
    }

    #[test]
    fn dangling_branch_goes_to_exit() {
        // Raw instruction stream with an unresolvable label: skipped to
        // the end at run time.
        let jmp = Instruction::with_label(Opcode::CJUMP, 9).unwrap();
        let ret = Instruction::new(Opcode::RETURN);
        let cfg = Cfg::build(&[jmp, ret], 20).unwrap();
        assert_eq!(cfg.dangling_branches(), &[0]);
        assert!(cfg.nodes()[0].edges.contains(&Edge {
            to: 2,
            kind: EdgeKind::Branch
        }));
    }

    #[test]
    fn backward_branch_is_detected() {
        let tgt = Instruction::new(Opcode::NOP).labeled(3).unwrap();
        let jmp = Instruction::with_label(Opcode::UJUMP, 3).unwrap();
        let err = Cfg::build(&[tgt, jmp], 20).unwrap_err();
        assert_eq!(err, CfgError::BackwardBranch { at: 1, label: 3 });
    }

    #[test]
    fn zero_stages_is_an_error() {
        assert_eq!(
            Cfg::build(&[Instruction::new(Opcode::NOP)], 0).unwrap_err(),
            CfgError::NoStages
        );
    }
}
