//! The reference path: decode every frame, cache nothing.
//!
//! [`SwitchRuntime::process_frame_reference_at`] is the frame path
//! without the hot path's machinery: it parses the instruction stream
//! into a fresh `Vec` on every frame, resolves protection through the
//! FID-keyed lookups, and allocates its own output vector. Neither what
//! each stage does nor the pass loop is restated here: both paths hand
//! the packet to the one `activermt_rmt::run_passes` through a
//! `FrameHost` that differs only in where protection entries come from,
//! and both account and emit the result alike. So this path checks what
//! the hot path optimises around the loop: decoding, resumption (the
//! executed-bit prefix against the decode cache's `start_pc`, the
//! pending branch restored from `aux`), the protection lookup and
//! writeback. It exists for two reasons:
//!
//! * the differential proptests pin the optimized path (decode cache,
//!   fixed decode buffer, dense protection slots) to be observationally
//!   identical to this one — frames, stats, and register state;
//! * `benchmark/` replays part of each data-plane trace through it and
//!   requires every output frame to match the optimized path's byte for
//!   byte before any timing is reported.
//!
//! Parsing and writeback here must agree with
//! [`exec`](crate::runtime::exec)'s exactly; any divergence is a bug in
//! one of the two.

use crate::runtime::decode_cache::{MalformedProgram, MAX_INSTRS};
use crate::runtime::exec::{FrameHost, SwitchOutput, SwitchRuntime};
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN, NUM_ARGS};
use activermt_isa::wire::{program_packet_layout, ActiveHeader, EthernetFrame, PacketType};
use activermt_isa::{Instruction, Opcode};
use activermt_rmt::{run_passes, Phv};

impl SwitchRuntime {
    /// Decode an EOF-terminated stream into a fresh `Vec`, mirroring
    /// the cached path's malformed-stream rules (an undecodable word,
    /// a missing EOF, or an over-long program is an error — never a
    /// compaction).
    fn decode_reference(bytes: &[u8]) -> Result<Vec<Instruction>, MalformedProgram> {
        let mut instrs = Vec::new();
        for chunk in bytes.chunks_exact(2) {
            let ins = Instruction::from_bytes(chunk[0], chunk[1]).map_err(|_| MalformedProgram)?;
            if ins.opcode == Opcode::EOF {
                return Ok(instrs);
            }
            if instrs.len() >= MAX_INSTRS {
                return Err(MalformedProgram);
            }
            instrs.push(ins);
        }
        Err(MalformedProgram)
    }

    /// Process one frame with the reference (uncached, allocating)
    /// interpretation path. Observationally identical to
    /// [`SwitchRuntime::process_frame_at`].
    pub fn process_frame_reference_at(
        &mut self,
        now_ns: u64,
        mut frame: Vec<u8>,
    ) -> Vec<SwitchOutput> {
        self.stats.frames.inc();

        let Ok(eth) = EthernetFrame::new_checked(&frame[..]) else {
            self.stats.malformed_drops.inc();
            return Vec::new();
        };
        if eth.ethertype() != ACTIVE_ETHERTYPE {
            self.stats.transparent_forwards.inc();
            return vec![self.forward_untouched(frame)];
        }

        let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) else {
            self.stats.malformed_drops.inc();
            return Vec::new();
        };
        let fid = hdr.fid();
        let ptype = hdr.flags().packet_type();
        if ptype != PacketType::Program {
            return vec![self.forward_untouched(frame)];
        }

        self.stats.active_frames.inc();
        if self.deactivated.contains(&fid) {
            self.stats.deactivated_passthroughs.inc();
            let mut h = ActiveHeader::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
            let mut flags = h.flags();
            flags.set_deactivated(true);
            h.set_flags(flags);
            return vec![self.forward_untouched(frame)];
        }

        if hdr.flags().complete() {
            return vec![self.forward_untouched(frame)];
        }

        let Ok(layout) = program_packet_layout(&frame) else {
            self.stats.malformed_drops.inc();
            self.fid_table.entry(fid).or_default().malformed += 1;
            return Vec::new();
        };

        // Parse instructions and arguments into the PHV — a fresh heap
        // allocation per frame, by design.
        let instrs = match Self::decode_reference(&frame[layout.instr_off..layout.payload_off]) {
            Ok(i) => i,
            Err(MalformedProgram) => {
                self.stats.malformed_drops.inc();
                self.fid_table.entry(fid).or_default().malformed += 1;
                return Vec::new();
            }
        };
        let mut args = [0u32; NUM_ARGS];
        for (i, a) in args.iter_mut().enumerate() {
            let off = layout.args_off + i * 4;
            *a = u32::from_be_bytes([frame[off], frame[off + 1], frame[off + 2], frame[off + 3]]);
        }
        let seq = hdr.seq();
        let mut phv = Phv::new(fid, seq, args);
        phv.recirc_count = hdr.recirc_count();
        let head_start = (layout.payload_off + 1).min(frame.len());
        let head_end = (head_start + 8).min(frame.len());
        phv.five_tuple =
            self.crc.checksum(&frame[..12]) ^ self.crc.checksum(&frame[head_start..head_end]);

        phv.disabled = hdr.flags().disabled();
        phv.rts_done = hdr.flags().rts_done();
        if phv.disabled {
            phv.pending_branch = Some((hdr.aux() & 0x3F) as u8);
        }

        // ----- the pass loop (FID-keyed lookups every instruction) -----
        let protect = &self.protect;
        let mut host = FrameHost {
            pipeline: &mut self.pipeline,
            entry: |s| protect.lookup(s, fid).copied(),
            privileged: !self.config.enforce_privileges || self.privileged.contains(&fid),
            traffic: &mut self.traffic,
            limiter: self.recirc_limiter.as_mut(),
            budget_drops: &self.stats.recirc_budget_drops,
            now_ns,
        };
        let run = run_passes(
            &mut host,
            &mut phv,
            &instrs,
            instrs.iter().take_while(|i| i.flags.executed).count(),
            &self.crc,
            self.config.num_stages,
            self.config.ingress_stages,
        );
        if !self.settle(&phv, &run) {
            return Vec::new();
        }

        // ----- write results back into the frame -----
        for (i, a) in phv.args.iter().enumerate() {
            frame[layout.args_off + i * 4..layout.args_off + i * 4 + 4]
                .copy_from_slice(&a.to_be_bytes());
        }
        for (k, chunk) in frame[layout.instr_off..layout.payload_off]
            .chunks_exact_mut(2)
            .enumerate()
        {
            if k < run.pc {
                let mut fl = activermt_isa::InstrFlags::from_byte(chunk[1]);
                fl.executed = true;
                chunk[1] = fl.to_byte();
            }
        }
        {
            let mut h = ActiveHeader::new_unchecked(&mut frame[ETHERNET_HEADER_LEN..]);
            let mut flags = h.flags();
            flags.set_complete(phv.complete);
            flags.set_disabled(phv.disabled);
            flags.set_rts_done(phv.rts_done);
            flags.set_from_switch(phv.rts_done);
            h.set_flags(flags);
            h.set_recirc_count(phv.recirc_count);
            h.set_aux(u16::from(phv.pending_branch.unwrap_or(0)));
        }

        let mut outputs = Vec::with_capacity(2);
        self.emit(frame, &phv, &run, &mut outputs);
        outputs
    }
}
