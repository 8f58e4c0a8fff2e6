//! The per-frame counts (`runtime.frames`, `runtime.active_frames`,
//! `decode_cache.hits`) are tallied in plain integers on the frame path
//! and published once per `process_frame_into` / `process_frames_into`
//! call. A registry reader can only look between calls, so what it must
//! see there is the *exact* count — for every kind of frame, single or
//! batched, on one runtime or summed over a worker pool.

use activermt_core::runtime::{
    DataPlane, FrameBatch, ShardedExecutor, SwitchRuntime, DEFAULT_BATCH_FRAMES,
};
use activermt_core::SwitchConfig;
use activermt_isa::constants::{ARG_HEADER_LEN, ETHERNET_HEADER_LEN, INITIAL_HEADER_LEN};
use activermt_isa::wire::{build_program_packet, ActiveHeader, RegionEntry};
use activermt_isa::{Opcode, Program, ProgramBuilder};
use activermt_telemetry::Telemetry;

const CLIENT: [u8; 6] = [0x02, 0, 0, 0, 0, 1];
const SERVER: [u8; 6] = [0x02, 0, 0, 0, 0, 2];
const LIVE: u16 = 7;
const QUIESCED: u16 = 9;

fn program(nops: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for _ in 0..nops {
        b = b.op(Opcode::NOP);
    }
    b.op(Opcode::RETURN).build().unwrap()
}

fn active(fid: u16, nops: usize) -> Vec<u8> {
    build_program_packet(SERVER, CLIENT, fid, 1, &program(nops), b"payload")
}

/// What one frame must add to `(frames, active_frames, hits, misses)`.
type Delta = (u64, u64, u64, u64);

/// Every kind of frame the counters distinguish, in an order where the
/// decode-cache outcome of each is known: `(name, frame, delta)`.
fn mix() -> Vec<(&'static str, Vec<u8>, Delta)> {
    let mut undecodable = active(LIVE, 2);
    undecodable[ETHERNET_HEADER_LEN + INITIAL_HEADER_LEN + ARG_HEADER_LEN] = 0xFF; // first opcode
    let mut completed = active(LIVE, 1);
    {
        let mut h = ActiveHeader::new_unchecked(&mut completed[ETHERNET_HEADER_LEN..]);
        let mut flags = h.flags();
        flags.set_complete(true);
        h.set_flags(flags);
    }
    let mut plain = active(LIVE, 1);
    plain[12..14].copy_from_slice(&0x0800u16.to_be_bytes());
    vec![
        ("truncated ethernet", vec![0u8; 9], (1, 0, 0, 0)),
        ("non-active ethertype", plain, (1, 0, 0, 0)),
        (
            "truncated active header",
            active(LIVE, 1)[..20].to_vec(),
            (1, 0, 0, 0),
        ),
        ("deactivated passthrough", active(QUIESCED, 1), (1, 1, 0, 0)),
        ("already complete", completed, (1, 1, 0, 0)),
        ("undecodable word", undecodable, (1, 1, 0, 0)),
        ("cold program", active(LIVE, 1), (1, 1, 0, 1)),
        ("warm program", active(LIVE, 1), (1, 1, 1, 0)),
        ("second program, cold", active(LIVE, 3), (1, 1, 0, 1)),
        ("second program, warm", active(LIVE, 3), (1, 1, 1, 0)),
        ("first program, still warm", active(LIVE, 1), (1, 1, 1, 0)),
    ]
}

fn bound_runtime() -> (SwitchRuntime, Telemetry) {
    let telemetry = Telemetry::new();
    let mut rt = SwitchRuntime::with_telemetry(SwitchConfig::default(), &telemetry);
    rt.install_region(3, LIVE, RegionEntry { start: 0, end: 256 });
    rt.install_region(
        3,
        QUIESCED,
        RegionEntry {
            start: 256,
            end: 512,
        },
    );
    rt.deactivate(QUIESCED);
    (rt, telemetry)
}

fn read(t: &Telemetry) -> Delta {
    let c = |name| t.registry().counter(name).get();
    (
        c("runtime.frames"),
        c("runtime.active_frames"),
        c("decode_cache.hits"),
        c("decode_cache.misses"),
    )
}

fn plus(a: Delta, b: Delta) -> Delta {
    (a.0 + b.0, a.1 + b.1, a.2 + b.2, a.3 + b.3)
}

#[test]
fn registry_is_exact_after_every_single_frame_call() {
    let (mut rt, telemetry) = bound_runtime();
    let mut out = Vec::new();
    let mut expect = (0, 0, 0, 0);
    for (name, frame, delta) in mix() {
        rt.process_frame_into(0, frame, &mut out);
        expect = plus(expect, delta);
        assert_eq!(read(&telemetry), expect, "after `{name}`");
    }
    // The accessor views read the same cells.
    assert_eq!(rt.stats().frames, expect.0);
    assert_eq!(rt.stats().active_frames, expect.1);
    assert_eq!(rt.decode_stats().hits, expect.2);
    assert_eq!(rt.stats().malformed_drops, 3);
    assert_eq!(rt.stats().deactivated_passthroughs, 1);
}

#[test]
fn registry_is_exact_after_a_64_frame_batch() {
    let (mut rt, telemetry) = bound_runtime();
    let mut batch = FrameBatch::with_capacity(64);
    let mut expect = (0, 0, 0, 0);
    let mut tag = 0;
    // The mix, then warm frames up to 64: one call, one publication.
    for (_, frame, delta) in mix() {
        batch.push(tag, 0, frame);
        expect = plus(expect, delta);
        tag += 1;
    }
    while batch.len() < 64 {
        batch.push(tag, 0, active(LIVE, 1));
        expect = plus(expect, (1, 1, 1, 0));
        tag += 1;
    }
    let mut out = Vec::new();
    rt.process_frames_into(&mut batch, &mut out);
    assert_eq!(expect.0, 64);
    assert_eq!(read(&telemetry), expect);
    // An empty batch publishes nothing and disturbs nothing.
    rt.process_frames_into(&mut batch, &mut out);
    assert_eq!(read(&telemetry), expect);
    // A clone taken at a call boundary carries no unpublished residue.
    let mut twin = rt.clone();
    twin.process_frame_into(0, active(LIVE, 1), &mut Vec::new());
    assert_eq!(twin.stats().frames, 65);
    assert_eq!(twin.decode_stats().hits, expect.2 + 1);
    assert_eq!(read(&telemetry), expect, "the clone detached");
}

#[test]
fn pooled_worker_frames_sum_to_the_shared_runtime_counter() {
    const WORKERS: usize = 3;
    const FIDS: u16 = 8;
    let telemetry = Telemetry::new();
    let mut ex = ShardedExecutor::new(SwitchConfig::default(), WORKERS, DEFAULT_BATCH_FRAMES);
    ex.bind_telemetry(&telemetry);
    for fid in 0..FIDS {
        let start = u32::from(fid) * 256;
        ex.install_region(
            3,
            100 + fid,
            RegionEntry {
                start,
                end: start + 256,
            },
        );
    }
    let mut out = Vec::new();
    let mut sent = 0u64;
    // Uneven rounds, so partial batches are flushed by the drain too.
    for round in [1usize, 63, 64, 65, 500] {
        for i in 0..round {
            let fid = 100 + (i as u16 % FIDS);
            ex.enqueue(0, active(fid, 1));
            // Every fifth frame carries no FID: handed off round-robin.
            if i % 5 == 0 {
                ex.enqueue(0, vec![0u8; 9]);
                sent += 1;
            }
            sent += 1;
        }
        out.clear();
        ex.drain_into(&mut out);
        let reg = telemetry.registry();
        let per_worker: u64 = (0..WORKERS)
            .map(|k| reg.counter(&format!("worker.{k}.frames")).get())
            .sum();
        assert_eq!(per_worker, sent, "after a round of {round}");
        assert_eq!(reg.counter("runtime.frames").get(), sent);
        assert_eq!(ex.stats().frames, sent);
    }
    // Each of the 8 FIDs missed once on its own shard, then only hit.
    let reg = telemetry.registry();
    let active_frames = reg.counter("runtime.active_frames").get();
    assert_eq!(reg.counter("decode_cache.misses").get(), u64::from(FIDS));
    assert_eq!(
        reg.counter("decode_cache.hits").get(),
        active_frames - u64::from(FIDS)
    );
}
