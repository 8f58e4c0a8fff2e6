//! The sharded, batched data plane: a shard-by-FID worker pool.
//!
//! ## Sharding model
//!
//! The allocator guarantees per-FID grants are pairwise disjoint (the
//! no-overlap invariant), so register state is naturally partitioned by
//! FID: if every frame of a FID executes on the same worker, no two
//! workers ever touch the same live region. [`ShardedExecutor`]
//! therefore gives each worker a complete [`SwitchRuntime`] replica and
//! routes active frames by `fid % workers`; non-active (and
//! unparseable) traffic carries no FID and is handed off round-robin —
//! it only transits, so any shard may forward it. This *partitions* the
//! per-stage register arrays by shard rather than placing shared stage
//! memory behind striped locks: partitioning keeps the interpreter's
//! `&mut` fast path lock-free per frame, whereas striped locks would
//! charge every register micro-op a synchronization point (see
//! DESIGN.md §15 for the full decision record).
//!
//! ## Batching
//!
//! Frames move to workers in recycled [`FrameBatch`] containers
//! (32–128 frames per dispatch) so one lock acquisition, one condvar
//! wake and one busy-time sample are amortized over the whole batch,
//! and same-FID runs hit the decode cache with a warm branch history.
//! The counter cells every shard shares (`runtime.frames`,
//! `runtime.active_frames`, `decode_cache.hits`) are likewise touched
//! once per batch per worker — `process_frames_into` tallies per frame
//! in plain integers and publishes on return — so the workers' cores do
//! not trade those cache lines on every frame.
//! Batch containers round-trip dispatcher → worker → spares freelist,
//! so the steady state allocates nothing per frame.
//!
//! ## Control-plane coherence (decode-cache fencing)
//!
//! The executor implements [`DataPlane`] by *fencing*: every mutating
//! control-plane call first submits any partially filled batches and
//! waits until every worker inbox is empty and every worker idle, then
//! applies the update to each shard runtime in turn. A decode-cache
//! invalidation therefore never races an in-flight batch — frames
//! enqueued before the fence execute against the old tables to
//! completion, frames after it observe the new tables and a cold cache
//! for the touched FID, exactly as a single-threaded runtime would.
//!
//! ## Determinism
//!
//! Each enqueued frame gets a global sequence tag; [`ShardedExecutor::drain_into`]
//! sorts the collected outputs by `(tag, ord)` (non-allocating unstable
//! sort — the key is unique), so the pooled output sequence is
//! byte-identical to the single-threaded one. Per-FID register end
//! state matches the reference because each FID's frames execute in
//! enqueue order on exactly one shard.

use crate::config::SwitchConfig;
use crate::runtime::exec::{
    FidPacketStats, FrameBatch, RuntimeCounters, RuntimeStats, SwitchRuntime, TaggedOutput,
};
use crate::runtime::plane::DataPlane;
use crate::runtime::protect::ProtectionTables;
use crate::types::{Fid, FidSet};
use activermt_isa::constants::{ACTIVE_ETHERTYPE, ETHERNET_HEADER_LEN};
use activermt_isa::wire::{ActiveHeader, EthernetFrame, RegionEntry};
use activermt_rmt::pipeline::StageStats;
use activermt_rmt::traffic::TrafficStats;
use activermt_telemetry::{Counter, Telemetry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Default frames per dispatched batch (middle of the 32–128 band the
/// amortization analysis in DESIGN.md §15 targets).
pub const DEFAULT_BATCH_FRAMES: usize = 64;

/// A point-in-time view of one worker's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Frames this worker executed.
    pub frames: u64,
    /// Batches this worker drained.
    pub batches: u64,
    /// Frames handed to this worker round-robin because they carried no
    /// FID routing key (non-active or unparseable traffic).
    pub handoffs: u64,
    /// Recirculation events charged on this worker's shard.
    pub recirculations: u64,
    /// Wall-clock nanoseconds this worker spent executing batches.
    pub busy_ns: u64,
}

/// Mutable shard state behind the state mutex: the inbox of submitted
/// batches, collected outputs, and the spares freelist that recycles
/// batch containers back to the dispatcher.
#[derive(Debug, Default)]
struct ShardState {
    inbox: VecDeque<FrameBatch>,
    outbox: Vec<TaggedOutput>,
    spares: Vec<FrameBatch>,
    /// A worker is currently executing a batch (inbox may be empty
    /// while frames are still in flight — the fence must wait for
    /// both).
    active: bool,
    shutdown: bool,
}

/// One shard: a full runtime replica plus its work queue and counters.
#[derive(Debug)]
struct Shard {
    rt: Mutex<SwitchRuntime>,
    state: Mutex<ShardState>,
    /// Signaled when work arrives (or shutdown is requested).
    work_cv: Condvar,
    /// Signaled when a worker goes idle (fence waits on this).
    idle_cv: Condvar,
    frames: Counter,
    batches: Counter,
    handoffs: Counter,
    recirculations: Counter,
    busy_ns: AtomicU64,
}

impl Shard {
    fn worker_loop(&self) {
        let mut done: Vec<TaggedOutput> = Vec::new();
        loop {
            let mut batch = {
                let mut st = self.state.lock().expect("shard state poisoned");
                loop {
                    if let Some(b) = st.inbox.pop_front() {
                        st.active = true;
                        break b;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = self.work_cv.wait(st).expect("shard state poisoned");
                }
            };
            let n = batch.len() as u64;
            let t0 = Instant::now();
            {
                let mut rt = self.rt.lock().expect("shard runtime poisoned");
                let recirc_before = rt.traffic_stats().recirculations;
                rt.process_frames_into(&mut batch, &mut done);
                let recirc_after = rt.traffic_stats().recirculations;
                self.recirculations.add(recirc_after - recirc_before);
            }
            self.busy_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.frames.add(n);
            self.batches.inc();
            {
                let mut st = self.state.lock().expect("shard state poisoned");
                st.outbox.append(&mut done);
                st.spares.push(batch);
                st.active = false;
            }
            self.idle_cv.notify_all();
        }
    }

    /// Is this shard quiescent (no queued work, no batch in flight)?
    fn wait_idle(&self) {
        let mut st = self.state.lock().expect("shard state poisoned");
        while !st.inbox.is_empty() || st.active {
            st = self.idle_cv.wait(st).expect("shard state poisoned");
        }
    }
}

/// The parallel data plane: a pool of worker threads, each owning a
/// [`SwitchRuntime`] shard, fed FID-sharded frame batches by a
/// dispatcher living on the caller's thread. See the module docs for
/// the sharding, batching, fencing and determinism contracts.
#[derive(Debug)]
pub struct ShardedExecutor {
    config: SwitchConfig,
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    /// Per-shard partially filled batches awaiting submission.
    pending: Vec<FrameBatch>,
    batch_frames: usize,
    next_tag: u64,
    rr_next: usize,
    /// Shared handles onto the shard runtimes' counter cells (all
    /// shards share one set, so this view is already global).
    stats: RuntimeCounters,
    // ----- control-plane mirror (authoritative for &self reads) -----
    protect: ProtectionTables,
    deactivated: FidSet,
    skip_decode_invalidation: bool,
}

impl ShardedExecutor {
    /// Bring up `workers` shards over fresh runtime replicas of
    /// `config`, with `batch_frames` frames per dispatched batch.
    pub fn new(config: SwitchConfig, workers: usize, batch_frames: usize) -> ShardedExecutor {
        assert!(workers >= 1, "executor needs at least one worker");
        assert!(batch_frames >= 1, "batches must hold at least one frame");
        let proto = SwitchRuntime::new(config);
        let stats = proto.stats.shared_handle();
        let shards: Vec<Arc<Shard>> = (0..workers)
            .map(|_| {
                Arc::new(Shard {
                    rt: Mutex::new(proto.shard_replica()),
                    state: Mutex::new(ShardState::default()),
                    work_cv: Condvar::new(),
                    idle_cv: Condvar::new(),
                    frames: Counter::default(),
                    batches: Counter::default(),
                    handoffs: Counter::default(),
                    recirculations: Counter::default(),
                    busy_ns: AtomicU64::new(0),
                })
            })
            .collect();
        let handles = shards
            .iter()
            .enumerate()
            .map(|(k, shard)| {
                let sh = Arc::clone(shard);
                std::thread::Builder::new()
                    .name(format!("activermt-worker-{k}"))
                    .spawn(move || sh.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect();
        let pending = (0..workers)
            .map(|_| FrameBatch::with_capacity(batch_frames))
            .collect();
        ShardedExecutor {
            shards,
            workers: handles,
            pending,
            batch_frames,
            next_tag: 0,
            rr_next: 0,
            stats,
            protect: ProtectionTables::new(config.num_stages),
            deactivated: FidSet::default(),
            skip_decode_invalidation: false,
            config,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Frames per dispatched batch.
    #[must_use]
    pub fn batch_frames(&self) -> usize {
        self.batch_frames
    }

    /// The switch configuration.
    #[must_use]
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// The shard an active frame of `fid` executes on.
    #[must_use]
    pub fn shard_of(&self, fid: Fid) -> usize {
        usize::from(fid) % self.shards.len()
    }

    /// Adopt the pool's counters into `telemetry`'s registry: the
    /// global `runtime.*` / `decode_cache.*` cells (shared by every
    /// shard) plus per-worker `worker.<k>.*` counters.
    pub fn bind_telemetry(&self, telemetry: &Telemetry) {
        {
            let rt = self.shards[0].rt.lock().expect("shard runtime poisoned");
            rt.bind_telemetry(telemetry);
        }
        let registry = telemetry.registry();
        for (k, sh) in self.shards.iter().enumerate() {
            registry.register_counter(&format!("worker.{k}.frames"), &sh.frames);
            registry.register_counter(&format!("worker.{k}.batches"), &sh.batches);
            registry.register_counter(&format!("worker.{k}.handoffs"), &sh.handoffs);
            registry.register_counter(&format!("worker.{k}.recirculations"), &sh.recirculations);
        }
    }

    /// Route a frame to its shard: by FID for parseable active frames,
    /// round-robin (counted as a handoff) otherwise.
    fn route(&mut self, frame: &[u8]) -> usize {
        if let Ok(eth) = EthernetFrame::new_checked(frame) {
            if eth.ethertype() == ACTIVE_ETHERTYPE {
                if let Ok(hdr) = ActiveHeader::new_checked(&frame[ETHERNET_HEADER_LEN..]) {
                    return usize::from(hdr.fid()) % self.shards.len();
                }
            }
        }
        let k = self.rr_next;
        self.rr_next = (self.rr_next + 1) % self.shards.len();
        self.shards[k].handoffs.inc();
        k
    }

    /// Queue one frame for execution at virtual time `at_ns`. The frame
    /// is dispatched once its shard's pending batch fills (or at the
    /// next fence/drain). Outputs are collected via
    /// [`ShardedExecutor::drain_into`].
    pub fn enqueue(&mut self, at_ns: u64, frame: Vec<u8>) {
        let k = self.route(&frame);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.pending[k].push(tag, at_ns, frame);
        if self.pending[k].len() >= self.batch_frames {
            self.submit(k);
        }
    }

    /// Hand shard `k`'s pending batch to its worker, swapping in a
    /// recycled container from the spares freelist (steady state: no
    /// allocation).
    fn submit(&mut self, k: usize) {
        if self.pending[k].is_empty() {
            return;
        }
        let shard = &self.shards[k];
        let mut st = shard.state.lock().expect("shard state poisoned");
        let mut replacement = st.spares.pop().unwrap_or_default();
        replacement.clear();
        let batch = std::mem::replace(&mut self.pending[k], replacement);
        st.inbox.push_back(batch);
        drop(st);
        shard.work_cv.notify_all();
    }

    /// Fence, then pre-size every shard for `batches` batches in flight
    /// at once: that many full-capacity containers on the spares
    /// freelist and an inbox that deep. How deep a burst queues depends
    /// on when its worker is scheduled; one no deeper than this
    /// allocates no container whatever the schedule (a deeper one still
    /// grows the pool on demand).
    pub fn reserve_batches(&mut self, batches: usize) {
        self.fence();
        for shard in &self.shards {
            let mut st = shard.state.lock().expect("shard state poisoned");
            st.inbox.reserve(batches);
            let missing = batches.saturating_sub(st.spares.len());
            st.spares.reserve(missing);
            for _ in 0..missing {
                st.spares.push(FrameBatch::with_capacity(self.batch_frames));
            }
        }
    }

    /// Submit every pending batch and wait until all workers are idle.
    /// After `fence()` returns, no frame is in flight: control-plane
    /// updates applied next cannot race an executing batch.
    pub fn fence(&mut self) {
        for k in 0..self.shards.len() {
            self.submit(k);
        }
        for shard in &self.shards {
            shard.wait_idle();
        }
    }

    /// Fence, then move every collected output into `out`, restoring
    /// global enqueue order (sort by unique `(tag, ord)`; unstable sort
    /// allocates nothing).
    pub fn drain_into(&mut self, out: &mut Vec<TaggedOutput>) {
        self.fence();
        for shard in &self.shards {
            let mut st = shard.state.lock().expect("shard state poisoned");
            out.append(&mut st.outbox);
        }
        out.sort_unstable_by_key(|t| (t.tag, t.ord));
    }

    /// Run `f` against shard `k`'s runtime (tests, invariant audits).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn with_runtime<R>(&self, k: usize, f: impl FnOnce(&SwitchRuntime) -> R) -> R {
        let rt = self.shards[k].rt.lock().expect("shard runtime poisoned");
        f(&rt)
    }

    /// Run `f` against every shard runtime in shard order.
    pub fn for_each_runtime(&self, mut f: impl FnMut(usize, &SwitchRuntime)) {
        for (k, shard) in self.shards.iter().enumerate() {
            let rt = shard.rt.lock().expect("shard runtime poisoned");
            f(k, &rt);
        }
    }

    /// Global runtime statistics (the shards share one set of counter
    /// cells, so this is the cross-worker aggregate).
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats.view()
    }

    /// Decode-cache statistics aggregated across shards (shared cells).
    #[must_use]
    pub fn decode_stats(&self) -> crate::runtime::DecodeCacheStats {
        self.with_runtime(0, SwitchRuntime::decode_stats)
    }

    /// Traffic-manager statistics folded across shards.
    #[must_use]
    pub fn traffic_stats(&self) -> TrafficStats {
        let mut agg = TrafficStats::default();
        self.for_each_runtime(|_, rt| agg.merge(rt.traffic_stats()));
        agg
    }

    /// Pipeline stage statistics folded across shards.
    #[must_use]
    pub fn total_stage_stats(&self) -> StageStats {
        let mut agg = StageStats::default();
        self.for_each_runtime(|_, rt| agg.merge(rt.pipeline().total_stats()));
        agg
    }

    /// Per-FID data-plane accounting merged across shards, sorted by
    /// FID. (Active frames of a FID live on one shard; handed-off
    /// malformed attributions may land elsewhere, hence the merge.)
    #[must_use]
    pub fn fid_stats_merged(&self) -> BTreeMap<Fid, FidPacketStats> {
        let mut merged: BTreeMap<Fid, FidPacketStats> = BTreeMap::new();
        self.for_each_runtime(|_, rt| {
            for (fid, s) in rt.fid_stats() {
                let row = merged.entry(fid).or_default();
                row.interpreted += s.interpreted;
                row.recirculations += s.recirculations;
                row.denials += s.denials;
                row.malformed += s.malformed;
            }
        });
        merged
    }

    /// Per-worker counter views, in shard order.
    #[must_use]
    pub fn worker_stats(&self) -> Vec<WorkerStats> {
        self.shards
            .iter()
            .map(|sh| WorkerStats {
                frames: sh.frames.get(),
                batches: sh.batches.get(),
                handoffs: sh.handoffs.get(),
                recirculations: sh.recirculations.get(),
                busy_ns: sh.busy_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Recirculation-budget denials folded across shards.
    #[must_use]
    pub fn recirc_denials(&self) -> u64 {
        let mut total = 0;
        self.for_each_runtime(|_, rt| total += rt.recirc_denials());
        total
    }

    /// Fence and apply a mutating runtime operation to every shard.
    fn broadcast(&mut self, mut f: impl FnMut(&mut SwitchRuntime)) {
        self.fence();
        for shard in &self.shards {
            let mut rt = shard.rt.lock().expect("shard runtime poisoned");
            f(&mut rt);
        }
    }

    /// Grant `fid` privilege on every shard (Section 7.2).
    pub fn grant_privilege(&mut self, fid: Fid) {
        self.broadcast(|rt| rt.grant_privilege(fid));
    }

    /// Revoke `fid`'s privilege on every shard.
    pub fn revoke_privilege(&mut self, fid: Fid) {
        self.broadcast(|rt| rt.revoke_privilege(fid));
    }

    /// Control-plane register read, routed to the owning shard.
    #[must_use]
    pub fn reg_read(&self, fid: Fid, stage: usize, index: u32) -> Option<u32> {
        self.with_runtime(self.shard_of(fid), |rt| rt.reg_read(stage, index))
    }

    /// Control-plane register write, routed to the owning shard. Fences
    /// first so no in-flight batch races the store.
    pub fn reg_write(&mut self, fid: Fid, stage: usize, index: u32, value: u32) -> bool {
        self.fence();
        let k = self.shard_of(fid);
        let mut rt = self.shards[k].rt.lock().expect("shard runtime poisoned");
        rt.reg_write(stage, index, value)
    }

    /// Testing-only: seed the "skip decode invalidation" fault on every
    /// shard (see [`SwitchRuntime::seed_skip_decode_invalidation`]).
    #[doc(hidden)]
    pub fn seed_skip_decode_invalidation(&mut self, on: bool) {
        self.skip_decode_invalidation = on;
        self.broadcast(|rt| rt.seed_skip_decode_invalidation(on));
    }
}

impl DataPlane for ShardedExecutor {
    fn install_region(&mut self, stage: usize, fid: Fid, region: RegionEntry) -> (usize, usize) {
        self.broadcast(|rt| {
            rt.install_region(stage, fid, region);
        });
        self.protect.install(stage, fid, region)
    }

    fn remove_region(&mut self, stage: usize, fid: Fid) -> usize {
        self.broadcast(|rt| {
            rt.remove_region(stage, fid);
        });
        self.protect.remove(stage, fid)
    }

    fn clear_region(&mut self, stage: usize, region: RegionEntry) {
        self.broadcast(|rt| rt.clear_region(stage, region));
    }

    fn deactivate(&mut self, fid: Fid) {
        self.broadcast(|rt| rt.deactivate(fid));
        self.deactivated.insert(fid);
    }

    fn reactivate(&mut self, fid: Fid) {
        self.broadcast(|rt| rt.reactivate(fid));
        self.deactivated.remove(&fid);
    }

    fn is_deactivated(&self, fid: Fid) -> bool {
        self.deactivated.contains(&fid)
    }

    fn deactivated_fids(&self) -> Vec<Fid> {
        let mut fids: Vec<Fid> = self.deactivated.iter().copied().collect();
        fids.sort_unstable();
        fids
    }

    fn decoded_fids(&self) -> Vec<Fid> {
        let mut fids = Vec::new();
        self.for_each_runtime(|_, rt| fids.extend(rt.decoded_fids()));
        fids.sort_unstable();
        fids.dedup();
        fids
    }

    fn invalidate_decode(&mut self, fid: Fid) {
        self.broadcast(|rt| rt.invalidate_decode(fid));
    }

    fn reg_read_for(&self, fid: Fid, stage: usize, index: u32) -> Option<u32> {
        ShardedExecutor::reg_read(self, fid, stage, index)
    }

    fn reg_write_for(&mut self, fid: Fid, stage: usize, index: u32, value: u32) -> bool {
        ShardedExecutor::reg_write(self, fid, stage, index, value)
    }

    fn protection(&self) -> &ProtectionTables {
        &self.protect
    }

    fn decode_invalidation_disabled(&self) -> bool {
        self.skip_decode_invalidation
    }
}

impl Drop for ShardedExecutor {
    fn drop(&mut self) {
        for shard in &self.shards {
            let mut st = shard.state.lock().expect("shard state poisoned");
            st.shutdown = true;
            drop(st);
            shard.work_cv.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
