//! End-to-end data-plane tests: whole active packets through the
//! runtime, exercising the Section 3 execution model.

use activermt_core::runtime::{OutputAction, SwitchRuntime};
use activermt_core::SwitchConfig;
use activermt_isa::wire::{build_program_packet, ActiveHeader, EthernetFrame, RegionEntry};
use activermt_isa::{Opcode, Program, ProgramBuilder};

const CLIENT: [u8; 6] = [0x02, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [0x02, 0, 0, 0, 0, 2];
const FID: u16 = 7;

fn runtime() -> SwitchRuntime {
    SwitchRuntime::new(SwitchConfig::default())
}

/// Listing 1: the in-network cache query program.
fn cache_query(addr: u32, key0: u32, key1: u32) -> Program {
    ProgramBuilder::new()
        .op_arg(Opcode::MAR_LOAD, 3) // $ADDR in args[3]
        .op(Opcode::MEM_READ)
        .op(Opcode::MBR_EQUALS_DATA_1)
        .op(Opcode::CRET)
        .op(Opcode::MEM_READ)
        .op(Opcode::MBR_EQUALS_DATA_2)
        .op(Opcode::CRET)
        .op(Opcode::RTS)
        .op(Opcode::MEM_READ)
        .op_arg(Opcode::MBR_STORE, 2)
        .op(Opcode::RETURN)
        .arg(0, key0)
        .arg(1, key1)
        .arg(3, addr)
        .build()
        .unwrap()
}

/// Install one full-stage region for FID in each of the given stages.
fn grant_stages(rt: &mut SwitchRuntime, fid: u16, stages: &[usize]) {
    for &s in stages {
        rt.install_region(
            s,
            fid,
            RegionEntry {
                start: 0,
                end: 65_536,
            },
        );
    }
}

fn args_of(frame: &[u8]) -> [u32; 4] {
    let layout = activermt_isa::wire::program_packet_layout(frame).unwrap();
    let mut out = [0u32; 4];
    for (i, slot) in out.iter_mut().enumerate() {
        let off = layout.args_off + i * 4;
        *slot = u32::from_be_bytes([frame[off], frame[off + 1], frame[off + 2], frame[off + 3]]);
    }
    out
}

#[test]
fn cache_miss_forwards_to_server() {
    let mut rt = runtime();
    grant_stages(&mut rt, FID, &[1, 4, 8]);
    // Nothing stored at bucket 42: stored key (0,0) != requested key.
    let p = cache_query(42, 0xAAAA, 0xBBBB);
    let frame = build_program_packet(SERVER, CLIENT, FID, 1, &p, b"GET k");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].action, OutputAction::Forward);
    let eth = EthernetFrame::new_checked(&out[0].frame[..]).unwrap();
    assert_eq!(eth.dst(), SERVER, "miss continues to the server");
    let hdr = ActiveHeader::new_checked(&out[0].frame[14..]).unwrap();
    assert!(hdr.flags().complete(), "CRET terminated the program");
    assert!(!hdr.flags().rts_done());
}

#[test]
fn cache_hit_returns_value_to_sender() {
    let mut rt = runtime();
    grant_stages(&mut rt, FID, &[1, 4, 8]);
    // Populate bucket 42: key halves in stages 1 and 4, value in 8.
    rt.reg_write(1, 42, 0xAAAA);
    rt.reg_write(4, 42, 0xBBBB);
    rt.reg_write(8, 42, 0xC0_FFEE);
    let p = cache_query(42, 0xAAAA, 0xBBBB);
    let frame = build_program_packet(SERVER, CLIENT, FID, 2, &p, b"GET k");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].action, OutputAction::ToSender);
    let eth = EthernetFrame::new_checked(&out[0].frame[..]).unwrap();
    assert_eq!(eth.dst(), CLIENT, "hit turns the packet around");
    assert_eq!(eth.src(), SERVER);
    // The cached value was written into data field 2.
    assert_eq!(args_of(&out[0].frame)[2], 0xC0_FFEE);
    let hdr = ActiveHeader::new_checked(&out[0].frame[14..]).unwrap();
    assert!(hdr.flags().complete());
    assert!(hdr.flags().rts_done());
    assert!(hdr.flags().from_switch());
}

#[test]
fn executed_instructions_are_marked() {
    let mut rt = runtime();
    grant_stages(&mut rt, FID, &[1, 4, 8]);
    let p = cache_query(1, 1, 1);
    let frame = build_program_packet(SERVER, CLIENT, FID, 3, &p, b"");
    let out = rt.process_frame(frame);
    let layout = activermt_isa::wire::program_packet_layout(&out[0].frame).unwrap();
    let body = &out[0].frame[layout.instr_off..layout.payload_off];
    // Miss at the first comparison: instructions 1..=4 executed.
    let executed: Vec<bool> = body
        .chunks_exact(2)
        .map(|c| activermt_isa::InstrFlags::from_byte(c[1]).executed)
        .collect();
    assert!(executed[0] && executed[1] && executed[2] && executed[3]);
    assert!(!executed[5], "post-termination instructions untouched");
}

#[test]
fn memory_access_without_grant_is_dropped() {
    let mut rt = runtime();
    // No protection entries installed for FID.
    let p = cache_query(42, 1, 2);
    let frame = build_program_packet(SERVER, CLIENT, FID, 4, &p, b"");
    let out = rt.process_frame(frame);
    assert!(out.is_empty(), "violation packets are dropped");
    assert_eq!(rt.stats().violation_drops, 1);
    assert_eq!(rt.pipeline().total_stats().violations, 1);
}

#[test]
fn out_of_region_access_is_dropped() {
    let mut rt = runtime();
    for s in [1, 4, 8] {
        rt.install_region(s, FID, RegionEntry { start: 0, end: 64 });
    }
    let p = cache_query(100, 1, 2); // beyond register 63
    let frame = build_program_packet(SERVER, CLIENT, FID, 5, &p, b"");
    let out = rt.process_frame(frame);
    assert!(out.is_empty());
    assert_eq!(rt.stats().violation_drops, 1);
}

/// `MBR_LOAD $1; MAR_LOAD $0`, `gap` NOPs, `ADDR_MASK; ADDR_OFFSET`,
/// `pad` NOPs, then `MEM_WRITE` (unless `pad` is `None`) and `RETURN`.
fn translated_write(gap: usize, pad: Option<usize>, addr: u32, value: u32) -> Program {
    let mut b = ProgramBuilder::new()
        .op_arg(Opcode::MBR_LOAD, 1)
        .op_arg(Opcode::MAR_LOAD, 0);
    for _ in 0..gap {
        b = b.op(Opcode::NOP);
    }
    b = b.op(Opcode::ADDR_MASK).op(Opcode::ADDR_OFFSET);
    if let Some(pad) = pad {
        for _ in 0..pad {
            b = b.op(Opcode::NOP);
        }
        b = b.op(Opcode::MEM_WRITE);
    }
    b.op(Opcode::RETURN)
        .arg(0, addr)
        .arg(1, value)
        .build()
        .unwrap()
}

/// Run `program` through both frame paths (optimized, reference) of a
/// runtime holding `regions`;
/// returns each runtime after the frame.
fn both_paths(regions: &[(usize, u32, u32)], program: &Program) -> [SwitchRuntime; 2] {
    let mut rt = runtime();
    for &(s, start, end) in regions {
        rt.install_region(s, FID, RegionEntry { start, end });
    }
    let mut reference = rt.clone();
    let frame = build_program_packet(SERVER, CLIENT, FID, 9, program, b"");
    rt.process_frame(frame.clone());
    reference.process_frame_reference_at(0, frame);
    [rt, reference]
}

#[test]
fn translation_binds_to_the_access_it_guards() {
    // Another of the FID's regions (stage 4) lies in the NOP gap between
    // the translations (stages 2-3) and the access (stage 6): the
    // translations apply stage 6's entry, so 5 lands at 512 + 5.
    let gap = translated_write(0, Some(2), 5, 0xAB);
    for rt in both_paths(&[(4, 0, 256), (6, 512, 768)], &gap) {
        assert_eq!(rt.stats().violation_drops, 0);
        assert_eq!(rt.reg_read(6, 517), Some(0xAB));
    }
    // Translations in stages 18-19 guard an access in stage 0 of the
    // next pass, not the region in stage 19.
    let wrap = translated_write(16, Some(0), 5, 0xCD);
    for rt in both_paths(&[(19, 0, 256), (0, 1024, 1280)], &wrap) {
        assert_eq!(rt.stats().violation_drops, 0);
        assert_eq!(rt.reg_read(0, 1029), Some(0xCD));
    }
    // A translation with no later access has no entry to apply: it
    // faults, though the FID holds a region.
    let unbound = translated_write(0, None, 5, 0);
    for rt in both_paths(&[(2, 0, 256)], &unbound) {
        assert_eq!(rt.stats().violation_drops, 1);
    }
}

#[test]
fn long_programs_recirculate() {
    let mut rt = runtime();
    // 25 NOPs + RETURN: 26 instructions need 2 passes of 20 stages.
    let mut b = ProgramBuilder::new();
    for _ in 0..25 {
        b = b.op(Opcode::NOP);
    }
    let p = b.op(Opcode::RETURN).build().unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 6, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].passes, 2);
    let hdr = ActiveHeader::new_checked(&out[0].frame[14..]).unwrap();
    assert_eq!(hdr.recirc_count(), 1);
    assert_eq!(rt.traffic_stats().recirculations, 1);
    // Latency: two full transits = 4 pipeline halves.
    assert_eq!(out[0].latency_ns, 4 * 500);
}

#[test]
fn recirculation_cap_drops_runaways() {
    let cfg = SwitchConfig {
        max_recirculations: Some(2),
        ..SwitchConfig::default()
    };
    let mut rt = SwitchRuntime::new(cfg);
    // 200 NOPs (no RETURN): would need 10 passes.
    let mut b = ProgramBuilder::new();
    for _ in 0..200 {
        b = b.op(Opcode::NOP);
    }
    let p = b.build().unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 7, &p, b"");
    let out = rt.process_frame(frame);
    assert!(out.is_empty(), "recirculation cap must drop the packet");
    assert_eq!(rt.traffic_stats().recirc_cap_drops, 1);
}

#[test]
fn branch_skips_until_label() {
    let mut rt = runtime();
    grant_stages(&mut rt, FID, &[0, 1, 2, 3, 4, 5, 6]);
    // if (args[0] != 0) skip the MEM_WRITE of 0xDEAD to address 5.
    let p = ProgramBuilder::new()
        .op_arg(Opcode::MBR_LOAD, 0)
        .jump(Opcode::CJUMP, "end")
        .op_arg(Opcode::MAR_LOAD, 1)
        .op_arg(Opcode::MBR_LOAD, 2)
        .op(Opcode::MEM_WRITE)
        .label("end")
        .op(Opcode::RETURN)
        .arg(0, 1) // condition true -> branch taken
        .arg(1, 5)
        .arg(2, 0xDEAD)
        .build()
        .unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 8, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    // The write was skipped.
    assert_eq!(rt.reg_read(4, 5), Some(0));
    let hdr = ActiveHeader::new_checked(&out[0].frame[14..]).unwrap();
    assert!(hdr.flags().complete(), "labelled RETURN executed");
    // Now with the condition false, the write happens.
    let mut p2 = p.clone();
    p2.set_arg(0, 0).unwrap();
    let frame2 = build_program_packet(SERVER, CLIENT, FID, 9, &p2, b"");
    rt.process_frame(frame2);
    assert_eq!(rt.reg_read(4, 5), Some(0xDEAD));
}

#[test]
fn rts_in_egress_costs_an_extra_pass() {
    let mut rt = runtime();
    // 14 NOPs, then RTS at position 15 (egress), then RETURN.
    let mut b = ProgramBuilder::new();
    for _ in 0..14 {
        b = b.op(Opcode::NOP);
    }
    let p = b.op(Opcode::RTS).op(Opcode::RETURN).build().unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 10, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].action, OutputAction::ToSender);
    assert_eq!(out[0].passes, 2, "port change at egress recirculates");
    assert_eq!(rt.traffic_stats().recirculations, 1);
}

#[test]
fn rts_in_ingress_is_cheap() {
    let mut rt = runtime();
    let p = ProgramBuilder::new()
        .op(Opcode::RTS)
        .op(Opcode::RETURN)
        .build()
        .unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 11, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out[0].action, OutputAction::ToSender);
    assert_eq!(out[0].passes, 1);
    // One pipeline half: the packet turned around in ingress.
    assert_eq!(out[0].latency_ns, 500);
}

#[test]
fn fork_emits_a_clone() {
    let mut rt = runtime();
    let p = ProgramBuilder::new()
        .op(Opcode::FORK)
        .op(Opcode::RTS)
        .op(Opcode::RETURN)
        .build()
        .unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 12, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 2);
    // One forwarded clone, one RTS'd original.
    assert!(out.iter().any(|o| o.action == OutputAction::Forward));
    assert!(out.iter().any(|o| o.action == OutputAction::ToSender));
    assert_eq!(rt.traffic_stats().clones, 1);
}

#[test]
fn set_dst_surfaces_override() {
    let mut rt = runtime();
    let p = ProgramBuilder::new()
        .op_arg(Opcode::MBR_LOAD, 0)
        .op(Opcode::SET_DST)
        .op(Opcode::RETURN)
        .arg(0, 33)
        .build()
        .unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 13, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out[0].dst_override, Some(33));
}

#[test]
fn drop_instruction_drops() {
    let mut rt = runtime();
    let p = ProgramBuilder::new().op(Opcode::DROP).build().unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 14, &p, b"");
    assert!(rt.process_frame(frame).is_empty());
    assert_eq!(rt.traffic_stats().dropped, 1);
}

#[test]
fn deactivated_fid_passes_through_unprocessed() {
    let mut rt = runtime();
    grant_stages(&mut rt, FID, &[1, 4, 8]);
    rt.reg_write(1, 42, 0xAAAA);
    rt.reg_write(4, 42, 0xBBBB);
    rt.deactivate(FID);
    let p = cache_query(42, 0xAAAA, 0xBBBB);
    let frame = build_program_packet(SERVER, CLIENT, FID, 15, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].action, OutputAction::Forward, "no active processing");
    let hdr = ActiveHeader::new_checked(&out[0].frame[14..]).unwrap();
    assert!(hdr.flags().deactivated());
    assert!(!hdr.flags().complete());
    assert_eq!(rt.stats().deactivated_passthroughs, 1);
    // Reactivate and the same program executes again.
    rt.reactivate(FID);
    let frame = build_program_packet(SERVER, CLIENT, FID, 16, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out[0].action, OutputAction::ToSender);
}

#[test]
fn non_active_traffic_is_transparent() {
    let mut rt = runtime();
    let mut frame = vec![0u8; 64];
    {
        let mut eth = EthernetFrame::new_unchecked(&mut frame[..]);
        eth.set_dst(SERVER);
        eth.set_src(CLIENT);
        eth.set_ethertype(0x0800); // plain IPv4
    }
    let out = rt.process_frame(frame.clone());
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].frame, frame, "bytes untouched");
    assert_eq!(out[0].action, OutputAction::Forward);
    assert_eq!(rt.stats().transparent_forwards, 1);
}

#[test]
fn latency_grows_linearly_with_program_length() {
    // Figure 8b's shape: NOP programs of 10/20/30 instructions plus
    // RTS; each additional pipeline pass adds the same increment.
    let mut latencies = Vec::new();
    for nops in [9usize, 19, 29] {
        let mut rt = runtime();
        let mut b = ProgramBuilder::new().op(Opcode::RTS);
        for _ in 0..nops {
            b = b.op(Opcode::NOP);
        }
        let p = b.op(Opcode::RETURN).build().unwrap();
        let frame = build_program_packet(SERVER, CLIENT, FID, 1, &p, b"");
        let out = rt.process_frame(frame);
        assert_eq!(out.len(), 1);
        latencies.push(out[0].latency_ns);
    }
    assert!(latencies[0] < latencies[1] && latencies[1] < latencies[2]);
    let d1 = latencies[1] - latencies[0];
    let d2 = latencies[2] - latencies[1];
    assert_eq!(d1, d2, "linear growth per pass: {latencies:?}");
}

#[test]
fn heavy_hitter_minreadinc_sketch_counts() {
    // A miniature frequent-item core: two MEM_MINREADINC rows with
    // hashed addressing, as in Listing 2 lines 5-14.
    let mut rt = runtime();
    for s in [2, 6] {
        rt.install_region(
            s,
            FID,
            RegionEntry {
                start: 0,
                end: 4096,
            },
        );
    }
    // Hash-addressed position juggling is the client compiler's job
    // (tested in activermt-client); here we pin MAR directly and verify
    // the per-stage CMS row counters.
    let q = ProgramBuilder::new()
        .op_arg(Opcode::MAR_LOAD, 0) // 1: bucket
        .op_arg(Opcode::MBR2_LOAD, 1) // 2: current min
        .op(Opcode::MEM_MINREADINC) // 3: row 1 (stage 2)
        .op(Opcode::NOP) // 4
        .op(Opcode::NOP) // 5
        .op(Opcode::NOP) // 6
        .op(Opcode::MEM_MINREADINC) // 7: row 2 (stage 6)
        .op(Opcode::RETURN)
        .arg(0, 9)
        .arg(1, u32::MAX)
        .build()
        .unwrap();
    for i in 0..5 {
        let frame = build_program_packet(SERVER, CLIENT, FID, i, &q, b"");
        let out = rt.process_frame(frame);
        assert_eq!(out.len(), 1);
    }
    assert_eq!(rt.reg_read(2, 9), Some(5), "row 1 counted 5");
    assert_eq!(rt.reg_read(6, 9), Some(5), "row 2 counted 5");
}

#[test]
fn privilege_enforcement_gates_fork_and_set_dst() {
    let cfg = SwitchConfig {
        enforce_privileges: true,
        ..SwitchConfig::default()
    };
    let mut rt = SwitchRuntime::new(cfg);
    let p = ProgramBuilder::new()
        .op_arg(Opcode::MBR_LOAD, 0)
        .op(Opcode::SET_DST)
        .op(Opcode::RETURN)
        .arg(0, 33)
        .build()
        .unwrap();
    // Unprivileged: dropped as a violation.
    let frame = build_program_packet(SERVER, CLIENT, FID, 1, &p, b"");
    assert!(rt.process_frame(frame).is_empty());
    assert_eq!(rt.stats().privilege_drops, 1);
    // Grant privilege: the override works.
    rt.grant_privilege(FID);
    let frame = build_program_packet(SERVER, CLIENT, FID, 2, &p, b"");
    let out = rt.process_frame(frame);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst_override, Some(33));
    // Revoke: gated again.
    rt.revoke_privilege(FID);
    let frame = build_program_packet(SERVER, CLIENT, FID, 3, &p, b"");
    assert!(rt.process_frame(frame).is_empty());
    // Unprivileged opcodes are never affected.
    let benign = ProgramBuilder::new()
        .op(Opcode::RTS)
        .op(Opcode::RETURN)
        .build()
        .unwrap();
    let frame = build_program_packet(SERVER, CLIENT, FID, 4, &benign, b"");
    assert_eq!(rt.process_frame(frame).len(), 1);
}

#[test]
fn recirc_budget_throttles_hungry_services() {
    // 2 recirculations per second, burst of 2.
    let cfg = SwitchConfig {
        recirc_budget: Some((2, 2)),
        ..SwitchConfig::default()
    };
    let mut rt = SwitchRuntime::new(cfg);
    // A 26-instruction program: one recirculation per packet.
    let mut b = ProgramBuilder::new();
    for _ in 0..25 {
        b = b.op(Opcode::NOP);
    }
    let p = b.op(Opcode::RETURN).build().unwrap();
    // Burst: two packets recirculate fine at t=0.
    for seq in 0..2 {
        let frame = build_program_packet(SERVER, CLIENT, FID, seq, &p, b"");
        assert_eq!(rt.process_frame_at(0, frame).len(), 1);
    }
    // The third is denied and dropped.
    let frame = build_program_packet(SERVER, CLIENT, FID, 3, &p, b"");
    assert!(rt.process_frame_at(0, frame).is_empty());
    assert_eq!(rt.stats().recirc_budget_drops, 1);
    // Half a second later one token has refilled.
    let frame = build_program_packet(SERVER, CLIENT, FID, 4, &p, b"");
    assert_eq!(rt.process_frame_at(500_000_000, frame).len(), 1);
    // Another service is unaffected by FID's burn.
    let frame = build_program_packet(SERVER, CLIENT, 99, 5, &p, b"");
    assert_eq!(rt.process_frame_at(500_000_000, frame).len(), 1);
    assert_eq!(rt.recirc_denials(), 1);
}

#[test]
fn single_pass_programs_ignore_the_recirc_budget() {
    let cfg = SwitchConfig {
        recirc_budget: Some((1, 1)),
        ..SwitchConfig::default()
    };
    let mut rt = SwitchRuntime::new(cfg);
    let p = ProgramBuilder::new()
        .op(Opcode::RTS)
        .op(Opcode::RETURN)
        .build()
        .unwrap();
    for seq in 0..10 {
        let frame = build_program_packet(SERVER, CLIENT, FID, seq, &p, b"");
        assert_eq!(rt.process_frame_at(0, frame).len(), 1);
    }
    assert_eq!(rt.stats().recirc_budget_drops, 0);
}

/// 14 NOPs, RTS in stage 14 (egress), then `tail`.
fn egress_rts_then(tail: &[Opcode]) -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..14 {
        b = b.op(Opcode::NOP);
    }
    b = b.op(Opcode::RTS);
    for &op in tail {
        b = b.op(op);
    }
    b.build().unwrap()
}

#[test]
fn egress_turnaround_is_charged_only_to_packets_that_leave() {
    let capped = SwitchConfig {
        max_recirculations: Some(0),
        ..SwitchConfig::default()
    };
    let budgeted = SwitchConfig {
        recirc_budget: Some((1, 1)),
        ..capped
    };
    let cases = [
        // Dropped in the pass RTS fired in: no turnaround.
        (SwitchConfig::default(), egress_rts_then(&[Opcode::DROP]), 0),
        // Refused a second pass by the cap: one cap drop, no turnaround.
        (capped, egress_rts_then(&[Opcode::NOP; 10]), 1),
        // Done in one pass, the turnaround refused by the cap: one cap
        // drop, and the budget is not asked for a pass that never runs
        // (the cap comes first, as for every other pass).
        (budgeted, egress_rts_then(&[Opcode::RETURN]), 1),
    ];
    for (cfg, program, cap_drops) in cases {
        let mut rt = SwitchRuntime::new(cfg);
        let mut reference = rt.clone();
        for seq in 0..2 {
            let frame = build_program_packet(SERVER, CLIENT, FID, seq, &program, b"");
            assert!(rt.process_frame_at(0, frame.clone()).is_empty());
            assert!(reference.process_frame_reference_at(0, frame).is_empty());
        }
        for rt in [rt, reference] {
            let t = rt.traffic_stats();
            assert_eq!(t.dropped, 2, "one drop per packet: {t:?}");
            assert_eq!(t.recirculations, 0, "{t:?}");
            assert_eq!(t.recirc_cap_drops, 2 * cap_drops, "{t:?}");
            assert_eq!(rt.stats().recirc_budget_drops, 0);
            let (_, f) = rt.fid_stats().next().unwrap();
            assert_eq!(f.recirculations, 0);
        }
    }
}
