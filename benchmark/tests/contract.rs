//! The benchmark's own contract: inputs are a pure function of the
//! seed, `dp_pool` replays `dp_short`'s bytes, what the binaries print
//! is what `BENCHMARK.json` names, and a slice's counts repeat exactly.

use activermt_benchmark::ctl::{self, CtlWorkload};
use activermt_benchmark::dp::{self, DpKind, DpWorkload};
use activermt_benchmark::harness::{run, Budget};
use activermt_benchmark::probe::{NoProbe, SpanProbe};
use activermt_benchmark::report::{END_TO_END, PER_LAYER};
use activermt_benchmark::sim::{self, SimWorkload};
use activermt_benchmark::WORKLOADS;
use activermt_core::alloc::MutantPolicy;
use activermt_core::runtime::{ShardedExecutor, SwitchRuntime};

#[test]
fn generators_are_pure_functions_of_the_seed() {
    for kind in [DpKind::Short, DpKind::Long] {
        let a = dp::generate(kind, 7, 1).unwrap();
        let b = dp::generate(kind, 7, 1).unwrap();
        let c = dp::generate(kind, 8, 1).unwrap();
        assert_eq!(a.trace, b.trace, "{kind:?}: same seed, same bytes");
        assert_eq!(a.populate, b.populate);
        assert_ne!(a.trace, c.trace, "{kind:?}: another seed, other bytes");
        assert_eq!(a.trace.len(), dp::TRACE_FRAMES);
    }
    let mc = |seed| ctl::generate(seed, 60, MutantPolicy::MostConstrained).unwrap();
    assert_eq!(mc(7), mc(7));
    assert_ne!(mc(7).pairs, mc(8).pairs);
    let macs = |seed| -> Vec<u64> { sim::client_configs(seed).iter().map(|c| c.seed).collect() };
    assert_eq!(macs(7), macs(7));
    assert_ne!(macs(7), macs(8));
}

#[test]
fn dp_pool_and_dp_short_consume_byte_identical_traces() {
    let short = dp::generate(DpKind::Short, 3, 1).unwrap();
    let pool = dp::generate(DpKind::Pool, 3, 1).unwrap();
    assert_eq!(short.trace.bytes(), pool.trace.bytes());
    assert_eq!(short.trace, pool.trace);
    assert_eq!(short.tenants, pool.tenants);
    assert!(pool.workers >= 1 && short.workers == 0);
}

/// Every `"key": value` of the objects in section `name` of the file
/// (no JSON library is vendored; the file's shape is fixed).
fn section(json: &str, name: &str) -> Vec<Vec<(String, String)>> {
    let start = json
        .find(&format!("\"{name}\": ["))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split('{')
        .skip(1)
        .map(|obj| {
            let obj = &obj[..obj.find('}').expect("object closes")];
            let mut fields = Vec::new();
            let mut rest = obj;
            while let Some(k0) = rest.find('"') {
                let after = &rest[k0 + 1..];
                let k1 = after.find('"').unwrap();
                let key = after[..k1].to_string();
                let after = after[k1 + 1..]
                    .trim_start()
                    .strip_prefix(':')
                    .unwrap()
                    .trim_start();
                let (value, tail) = if let Some(v) = after.strip_prefix('"') {
                    let end = v.find('"').unwrap();
                    (v[..end].to_string(), &v[end + 1..])
                } else {
                    let end = after.find(',').unwrap_or(after.len());
                    (after[..end].trim().to_string(), &after[end..])
                };
                fields.push((key, value));
                rest = tail;
            }
            fields
        })
        .collect()
}

fn field<'a>(obj: &'a [(String, String)], key: &str) -> &'a str {
    &obj.iter().find(|(k, _)| k == key).expect("key present").1
}

#[test]
fn benchmark_json_names_match_what_the_binaries_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(json.len() <= 64 * 1024);

    let workloads = section(&json, "workloads");
    let names: Vec<&str> = workloads.iter().map(|o| field(o, "name")).collect();
    assert_eq!(names, WORKLOADS);
    for o in &workloads {
        assert_eq!(o.len(), 2, "a workload has exactly a name and a why");
        let why = field(o, "why");
        assert!(why.len() <= 200 && !why.contains('\n'));
    }

    let e2e = section(&json, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (o, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
        assert_eq!(o.len(), 4);
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit);
        assert_eq!(field(o, "better"), better.word());
        assert_eq!(field(o, "bound").parse::<f64>().unwrap(), bound);
        assert!(bound <= 0.25);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.0 == "setup_s")
        .expect("setup_s is reported");
    assert!(
        END_TO_END.iter().all(|m| m.3 <= setup.3),
        "setup_s has the largest bound"
    );

    let layers = section(&json, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (o, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
        assert_eq!(o.len(), 3);
        assert_eq!(field(o, "name"), name);
        assert_eq!(field(o, "unit"), unit);
        assert_eq!(field(o, "better"), better.word());
    }

    // Names: a letter or digit first, then letters, digits, `_.-`, at
    // most 64, used once. Units: letters, digits, `_/%.-`, at most 16.
    let mut seen = std::collections::BTreeSet::new();
    let all = WORKLOADS
        .iter()
        .map(|w| (*w, "count"))
        .chain(END_TO_END.iter().map(|m| (m.0, m.1)))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)));
    for (name, unit) in all {
        assert!(seen.insert(name), "{name} used twice");
        assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{name}"
        );
        assert!(unit.len() <= 16);
        assert!(
            unit.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "{unit}"
        );
    }
}

#[test]
fn counts_repeat_across_slices_and_runs_and_move_with_the_seed() {
    let run_dp = |seed| {
        let inp = dp::generate(DpKind::Long, seed, 1).unwrap();
        let mut w = DpWorkload::<SwitchRuntime>::new("dp_long", 0.95, inp);
        run(&mut w, &mut NoProbe, Budget::Slices(2)).unwrap()
    };
    let (a, b, c) = (run_dp(5), run_dp(5), run_dp(6));
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.counts.failed, 0);
    assert_ne!(a.counts.digest, c.counts.digest);

    // The pool replays dp_short's bytes, so it must produce dp_short's
    // outputs — and a traced slice must count what an untraced one does.
    let short = {
        let inp = dp::generate(DpKind::Short, 5, 1).unwrap();
        let mut w = DpWorkload::<SwitchRuntime>::new("dp_short", 0.95, inp);
        run(&mut w, &mut SpanProbe::new(), Budget::Slices(1)).unwrap()
    };
    let pool = {
        let inp = dp::generate(DpKind::Pool, 5, 1).unwrap();
        let mut w = DpWorkload::<ShardedExecutor>::new("dp_pool", 0.90, inp);
        // 32 rounds a pass here: too few for a tail percentile, which
        // the full-size workload checks; run one slice by hand.
        let mut op_ns = Vec::new();
        use activermt_benchmark::harness::Workload;
        w.slice(&mut NoProbe, &mut op_ns).unwrap()
    };
    assert_eq!(short.counts.failed, 0);
    assert_eq!(short.counts.digest, pool.counts.digest);
    assert_eq!(short.counts.layer, pool.counts.layer);

    let run_ctl = |seed| {
        let inp = ctl::generate(seed, 100, MutantPolicy::MostConstrained).unwrap();
        let mut w = CtlWorkload::new("ctl_churn_mc", inp);
        run(&mut w, &mut NoProbe, Budget::Slices(2)).unwrap()
    };
    let (a, b, c) = (run_ctl(5), run_ctl(5), run_ctl(6));
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.counts.failed, 0);
    assert_ne!(a.counts.digest, c.counts.digest);
}

#[test]
fn the_simulation_serves_every_client_and_repeats() {
    let run_sim = |seed| {
        let mut w = SimWorkload::new(seed);
        run(&mut w, &mut NoProbe, Budget::Slices(1)).unwrap()
    };
    let (a, b, c) = (run_sim(5), run_sim(5), run_sim(6));
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.counts.failed, 0);
    assert!(a.counts.get("client.hits") > 0);
    assert_eq!(a.counts.get("sim.realloc_rounds"), 5);
    assert_ne!(a.counts.digest, c.counts.digest);
}
