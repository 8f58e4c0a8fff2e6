//! The control-plane workloads: `ctl_churn_mc`, `ctl_churn_lc`.
//!
//! `Controller` + `SwitchRuntime` + attached `OpLog` + bound
//! `Telemetry`, no network. Bring-up admits the residents; the pass is
//! a seed-drawn sequence of depart-then-arrive pairs, each arrival
//! (bytecode shipped, so static verification runs) driven to
//! quiescence through `poll`, `handle_snapshot_complete_fenced` and
//! `handle_reactivate_ack_fenced`. One op is one arrival, request to
//! quiescence; departures are timed separately as a layer metric.

use crate::harness::{Counts, SliceOut, Workload};
use crate::probe::{NoProbe, Probe};
use crate::rig::{service_of, AppKind};
use activermt_client::CompiledService;
use activermt_core::alloc::{MutantPolicy, Scheme};
use activermt_core::controller::{Controller, ControllerAction, ProvisioningReport};
use activermt_core::runtime::SwitchRuntime;
use activermt_core::{OpLog, SwitchConfig};
use activermt_telemetry::Telemetry;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Residents admitted during bring-up: the monitors first (an empty
/// switch admits exactly seven at most-constrained placement; an
/// eighth is always refused), then caches and balancers in seeded
/// order.
pub const RESIDENTS: usize = 40;
const RESIDENT_MONITORS: usize = 7;
/// The arrivals' mix: five caches and five balancers to two monitors. A
/// monitor costs ~7 ms at least-constrained placement, thirty times a
/// cache; at equal thirds `ctl_churn_lc`'s pass is 0.43 s, too long for a
/// run to hold enough slices that interference spares.
const ARRIVAL_MIX: [AppKind; 12] = {
    use AppKind::{Cache as C, HeavyHitter as H, LoadBalancer as L};
    [C, L, H, C, L, C, L, H, C, L, C, L]
};

/// One scripted step of the pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pair {
    /// Index into the resident list (as it stands at this step) of the
    /// tenant that departs.
    pub depart: usize,
    /// The tenant that arrives.
    pub arrive: (AppKind, u16),
}

/// The generated inputs: who is admitted at bring-up, and the pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtlInputs {
    /// Arrival policy of the pass.
    pub policy: MutantPolicy,
    /// Residents in admission order.
    pub residents: Vec<(AppKind, u16)>,
    /// The pass.
    pub pairs: Vec<Pair>,
}

/// The three services, compiled once per system.
#[derive(Debug)]
struct Services {
    cache: CompiledService,
    hh: CompiledService,
    lb: CompiledService,
}

impl Services {
    fn of(&self, kind: AppKind) -> &CompiledService {
        match kind {
            AppKind::Cache => &self.cache,
            AppKind::HeavyHitter => &self.hh,
            AppKind::LoadBalancer => &self.lb,
        }
    }
}

/// The system under test.
#[derive(Debug)]
pub struct CtlSystem {
    /// The controller.
    pub ctl: Controller,
    /// The data plane it programs.
    pub rt: SwitchRuntime,
    /// The hub both are bound to.
    pub telemetry: Telemetry,
    /// The controller's write-ahead log.
    pub log: OpLog,
    /// Tenants currently admitted, in script order.
    pub residents: Vec<(AppKind, u16)>,
    /// Provisioning reports, in completion order.
    pub reports: Vec<ProvisioningReport>,
    /// Largest controller queue seen after any handler call.
    pub queue_len_max: usize,
    services: Services,
    now_ns: u64,
}

impl CtlSystem {
    /// Construct everything from scratch.
    pub fn new(cfg: &SwitchConfig) -> CtlSystem {
        let telemetry = Telemetry::new();
        let rt = SwitchRuntime::new(*cfg);
        rt.bind_telemetry(&telemetry);
        let mut ctl = Controller::new(cfg, Scheme::WorstFit);
        ctl.bind_telemetry(&telemetry);
        let log = OpLog::new();
        ctl.attach_oplog(log.clone());
        CtlSystem {
            ctl,
            rt,
            telemetry,
            log,
            residents: Vec::new(),
            reports: Vec::new(),
            queue_len_max: 0,
            services: Services {
                cache: service_of(AppKind::Cache),
                hh: service_of(AppKind::HeavyHitter),
                lb: service_of(AppKind::LoadBalancer),
            },
            now_ns: 0,
        }
    }

    /// A detached copy: same controller and data-plane state, its own
    /// log and metric cells (the generator's pilot tries arrivals on
    /// one).
    pub fn fork(&self) -> CtlSystem {
        let ctl = self.ctl.clone();
        CtlSystem {
            log: ctl.oplog().cloned().unwrap_or_default(),
            ctl,
            rt: self.rt.clone(),
            telemetry: Telemetry::new(),
            residents: self.residents.clone(),
            reports: self.reports.clone(),
            queue_len_max: self.queue_len_max,
            services: Services {
                cache: self.services.cache.clone(),
                hh: self.services.hh.clone(),
                lb: self.services.lb.clone(),
            },
            now_ns: self.now_ns,
        }
    }

    /// One arrival, request to quiescence. Returns whether it was
    /// admitted (and then lists it as a resident).
    pub fn arrive<P: Probe>(
        &mut self,
        who: (AppKind, u16),
        policy: MutantPolicy,
        probe: &mut P,
        parent: u32,
    ) -> bool {
        let (kind, fid) = who;
        self.now_ns += 1_000_000;
        let svc = self.services.of(kind);
        let s = probe.begin("controller.request", parent);
        let mut work = self.ctl.handle_request_with_program(
            &mut self.rt,
            fid,
            svc.pattern.clone(),
            policy,
            Some(&svc.spec.program),
            self.now_ns,
        );
        probe.end(s);
        let mut admitted = true;
        while !work.is_empty() {
            self.queue_len_max = self.queue_len_max.max(self.ctl.queue_len());
            let mut next = Vec::new();
            for act in work {
                match act {
                    ControllerAction::Deactivate { fid: v, fence, .. } => {
                        self.now_ns += 1_000;
                        let s = probe.begin("controller.snapshot_ack", parent);
                        next.extend(self.ctl.handle_snapshot_complete_fenced(
                            &mut self.rt,
                            v,
                            fence,
                            self.now_ns,
                        ));
                        probe.end(s);
                    }
                    ControllerAction::Reactivate { fid: v, fence, .. } => {
                        let s = probe.begin("controller.reactivate_ack", parent);
                        self.ctl.handle_reactivate_ack_fenced(v, fence, self.now_ns);
                        probe.end(s);
                    }
                    ControllerAction::Respond { fid: f, failed, .. } => {
                        if f == fid && failed {
                            admitted = false;
                        }
                    }
                    ControllerAction::Report(r) => self.reports.push(r),
                }
            }
            work = next;
        }
        let s = probe.begin("controller.poll", parent);
        let acts = self.ctl.poll(&mut self.rt, self.now_ns);
        probe.end(s);
        assert!(
            acts.is_empty() && !self.ctl.busy() && self.ctl.unacked_reactivations() == 0,
            "arrival did not reach quiescence"
        );
        if admitted {
            self.residents.push(who);
        }
        admitted
    }

    /// The resident at `idx` departs.
    pub fn depart<P: Probe>(&mut self, idx: usize, probe: &mut P, parent: u32) {
        let (_, fid) = self.residents.swap_remove(idx);
        self.now_ns += 1_000_000;
        let s = probe.begin("controller.dealloc", parent);
        let acts = self
            .ctl
            .handle_deallocate(&mut self.rt, fid, self.now_ns)
            .expect("an idle controller releases a resident");
        probe.end(s);
        // Grown survivors are told their new regions; nothing to answer.
        debug_assert!(acts
            .iter()
            .all(|a| matches!(a, ControllerAction::Respond { .. })));
    }
}

/// Generate residents and pairs from `seed`.
///
/// Kinds come from shuffled balanced bags and each departure is of the
/// arriving kind, so every seed holds the same mix at every moment and
/// seeds differ only in order and in who leaves. A pilot system runs
/// the sequence as it is drawn. The static verifier rejects the
/// monitor's program on some grants (and nothing else is ever
/// refused): the pilot tries a monitor on a copy of itself, and on a
/// refusal throws the copy away and defers that monitor to the back of
/// the bag — so the script the slices replay holds no arrival that
/// fails, and the pilot's state is at every step the state a replay
/// will be in.
pub fn generate(seed: u64, pairs: usize, policy: MutantPolicy) -> Result<CtlInputs, String> {
    let cfg = SwitchConfig::default();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC71_0000);
    let mut pilot = CtlSystem::new(&cfg);
    let mut next_fid = 1u16;
    // One step: `depart` (if any) leaves, then `kind` arrives. On a
    // refusal the pilot is left exactly as it was.
    let mut step = |pilot: &mut CtlSystem,
                    depart: Option<usize>,
                    kind: AppKind,
                    policy: MutantPolicy|
     -> Result<Option<(AppKind, u16)>, String> {
        let saved = (kind == AppKind::HeavyHitter).then(|| pilot.fork());
        if let Some(idx) = depart {
            pilot.depart(idx, &mut NoProbe, 0);
        }
        let who = (kind, next_fid);
        next_fid += 1;
        if pilot.arrive(who, policy, &mut NoProbe, 0) {
            return Ok(Some(who));
        }
        *pilot = saved.ok_or(format!(
            "the pilot refused a {kind:?}; only monitors were expected to be"
        ))?;
        Ok(None)
    };

    let mut bag = vec![AppKind::HeavyHitter; RESIDENT_MONITORS];
    bag.extend(
        (RESIDENT_MONITORS..RESIDENTS).map(|i| [AppKind::Cache, AppKind::LoadBalancer][i % 2]),
    );
    let mut residents = Vec::with_capacity(RESIDENTS);
    let mut stalled = 0;
    while !bag.is_empty() {
        match step(&mut pilot, None, bag[0], MutantPolicy::MostConstrained)? {
            Some(who) => {
                residents.push(who);
                bag.remove(0);
                stalled = 0;
            }
            None => {
                bag.rotate_left(1);
                stalled += 1;
                if stalled > bag.len() {
                    return Err("bring-up: the state admits nothing left in the bag".into());
                }
            }
        }
    }

    // The first arrival of each kind comes in a fixed order: the
    // allocator's candidate memo makes a kind's search cost for the
    // rest of the pass depend on which kind it priced first (a
    // balancer costs 1.4 ms or 1.9 ms at least-constrained placement),
    // and that is not what a seed should decide.
    let mut bag = vec![AppKind::LoadBalancer, AppKind::Cache, AppKind::HeavyHitter];
    bag.extend(shuffled_bag(pairs - 3, &ARRIVAL_MIX, &mut rng));
    let mut script = Vec::with_capacity(pairs);
    let mut stalled = 0;
    while !bag.is_empty() {
        let kind = bag[0];
        let same_kind: Vec<usize> = (0..pilot.residents.len())
            .filter(|&i| pilot.residents[i].0 == kind)
            .collect();
        // Never empty: each departure is replaced in kind.
        let depart = same_kind[rng.gen_range(0..same_kind.len())];
        match step(&mut pilot, Some(depart), kind, policy)? {
            Some(arrive) => {
                script.push(Pair { depart, arrive });
                bag.remove(0);
                stalled = 0;
            }
            None => {
                bag.rotate_left(1);
                stalled += 1;
                if stalled > 4 * bag.len() + 8 {
                    return Err("pass: the state admits nothing left in the bag".into());
                }
            }
        }
    }
    Ok(CtlInputs {
        policy,
        residents,
        pairs: script,
    })
}

/// `n` arrivals cycling through `kinds` (so in its proportions), in
/// seeded random order.
fn shuffled_bag(n: usize, kinds: &[AppKind], rng: &mut SmallRng) -> Vec<AppKind> {
    let mut bag: Vec<AppKind> = (0..n).map(|i| kinds[i % kinds.len()]).collect();
    for i in (1..bag.len()).rev() {
        bag.swap(i, rng.gen_range(0..=i));
    }
    bag
}

/// What the most recent slice left behind, for the per-layer table.
#[derive(Debug, Default)]
pub struct CtlDetail {
    /// Departure handler latencies, ns.
    pub depart_ns: Vec<u64>,
    /// Allocator search time over the pass's arrival time (from the
    /// allocator's own `admit_ns` histogram).
    pub alloc_share: f64,
    /// The system at slice end (log, telemetry, allocator).
    pub system: Option<CtlSystem>,
}

/// The workload.
#[derive(Debug)]
pub struct CtlWorkload {
    name: &'static str,
    /// The generated script.
    pub inputs: CtlInputs,
    cfg: SwitchConfig,
    /// Detail of the most recent slice.
    pub detail: CtlDetail,
    /// Keep each slice's final system in `detail` (the traced binary
    /// reads its log and telemetry; the untraced one drops it).
    pub keep_system: bool,
}

impl CtlWorkload {
    /// Wrap generated inputs.
    pub fn new(name: &'static str, inputs: CtlInputs) -> CtlWorkload {
        CtlWorkload {
            name,
            inputs,
            cfg: SwitchConfig::default(),
            detail: CtlDetail::default(),
            keep_system: false,
        }
    }
}

impl Workload for CtlWorkload {
    fn name(&self) -> &'static str {
        self.name
    }

    fn tail_pct(&self) -> f64 {
        0.90
    }

    fn slice<P: Probe>(&mut self, probe: &mut P, op_ns: &mut Vec<u64>) -> Result<SliceOut, String> {
        let mut refused = 0u64;
        self.detail.system = None;
        // ----- bring-up: construct, admit the residents -----
        let t0 = Instant::now();
        let mut sys = CtlSystem::new(&self.cfg);
        for &who in &self.inputs.residents {
            let root = probe.begin("bringup.arrival", 0);
            if !sys.arrive(who, MutantPolicy::MostConstrained, probe, root) {
                refused += 1;
            }
            probe.end(root);
        }
        let setup_s = t0.elapsed().as_secs_f64();

        // ----- timed pass -----
        self.detail.depart_ns.clear();
        let search0 = sys.ctl.allocator().admit_time_histogram().sum();
        let ops0 = op_ns.len();
        let t1 = Instant::now();
        for pair in &self.inputs.pairs {
            let root = probe.begin("departure", 0);
            let t = Instant::now();
            sys.depart(pair.depart, probe, root);
            self.detail.depart_ns.push(t.elapsed().as_nanos() as u64);
            probe.end(root);
            let root = probe.begin("op", 0);
            let t = Instant::now();
            if !sys.arrive(pair.arrive, self.inputs.policy, probe, root) {
                refused += 1;
            }
            op_ns.push(t.elapsed().as_nanos() as u64);
            probe.end(root);
        }
        let pass_s = t1.elapsed().as_secs_f64();
        self.detail.alloc_share = (sys.ctl.allocator().admit_time_histogram().sum() - search0)
            as f64
            / op_ns[ops0..].iter().sum::<u64>().max(1) as f64;

        // ----- untimed: invariants and the admission ledger -----
        let violations = activermt_modelcheck::check_invariants(&sys.ctl, &sys.rt);
        let (arrivals, admitted, rejected) = sys.ctl.allocator().admission_totals();
        let expected = (self.inputs.residents.len() + self.inputs.pairs.len()) as u64;
        let ledger_off = u64::from(admitted + rejected != arrivals || arrivals != expected);
        let (verify_ok, verify_rej) = sys.ctl.verify_counts();
        let mut digest = 0u64;
        for &(_, fid) in &sys.residents {
            for &(stage, r) in sys.ctl.regions_of(fid).unwrap_or(&[]) {
                digest = digest.rotate_left(7)
                    ^ (u64::from(fid) << 48)
                    ^ ((stage as u64) << 40)
                    ^ (u64::from(r.start) << 20)
                    ^ u64::from(r.end);
            }
        }
        let out = SliceOut {
            setup_s,
            pass_s,
            units: self.inputs.pairs.len() as u64,
            counts: Counts {
                attempted: self.inputs.pairs.len() as u64,
                failed: refused + violations.len() as u64 + ledger_off,
                digest,
                layer: vec![
                    ("alloc.arrivals", arrivals),
                    ("alloc.admitted", admitted),
                    ("alloc.rejected", rejected),
                    ("controller.verify_accepted", verify_ok),
                    ("controller.verify_rejected", verify_rej),
                    (
                        "controller.victims",
                        sys.reports.iter().map(|r| r.victim_count as u64).sum(),
                    ),
                    ("oplog.records", sys.log.len() as u64),
                    (
                        "protect.entries",
                        sys.rt.protection().total_entries() as u64,
                    ),
                ],
            },
        };
        self.detail.system = self.keep_system.then_some(sys);
        Ok(out)
    }
}
