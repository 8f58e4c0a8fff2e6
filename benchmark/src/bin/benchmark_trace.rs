//! The traced run: eight slices with spans kept in memory, the
//! isolated layer loops, and a counting allocator. Writes
//! `benchmark/out/trace-<workload>.jsonl` and prints every per-layer
//! metric; end-to-end metrics always come from the untraced binary.

use activermt_benchmark::cli::Args;
use activermt_benchmark::harness::{run, Budget, Workload};
use activermt_benchmark::layers::{
    attribution_table, install_alloc_counter, LayerSource, Layers, TraceContext,
};
use activermt_benchmark::probe::{NoProbe, SpanProbe};
use activermt_benchmark::report::{line, meta, result_json, Metric, PER_LAYER};
use activermt_benchmark::{dispatch, Visitor, WORKLOADS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};

/// Slices per traced run, and per untraced reference run beside it.
const TRACED_SLICES: usize = 8;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting calls (`runtime.allocs_per_frame`).
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only addition is a
// relaxed increment of a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

struct Traced {
    seed: u64,
}

impl Visitor for Traced {
    type Out = Result<bool, String>;

    fn visit<W: Workload + LayerSource>(self, mut w: W, gen_s: f64) -> Self::Out {
        let name = w.name();
        w.prepare_traced();
        let mut probe = SpanProbe::new();
        let traced = run(&mut w, &mut probe, Budget::Slices(TRACED_SLICES))?;
        let reference = run(&mut w, &mut NoProbe, Budget::Slices(TRACED_SLICES))?;

        let mut layers: Layers = PER_LAYER.iter().map(|&(n, _, _)| (n, 0.0)).collect();
        let span_times = probe.self_times();
        let cx = TraceContext {
            seed: self.seed,
            spans: &span_times,
            traced_slices: TRACED_SLICES,
            reference: &reference,
        };
        w.layers(&cx, &mut layers)?;
        layers.insert("bench.disturbance", reference.disturbance);
        layers.insert(
            "bench.trace_overhead",
            1.0 - traced.ops_per_s / reference.ops_per_s,
        );
        layers.insert("bench.gen_s", gen_s);

        let dir = std::env::var("BENCH_OUT_DIR").unwrap_or_else(|_| "benchmark/out".into());
        std::fs::create_dir_all(&dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/trace-{name}.jsonl");
        let file = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        let mut out = BufWriter::new(file);
        probe
            .write_jsonl(&mut out)
            .and_then(|()| out.flush())
            .map_err(|e| format!("{path}: {e}"))?;
        println!("{name}/trace_file {path} ({} spans)", probe.spans().len());

        println!("{name}/spans: name calls total_ms self_ms mean_us");
        for (span, t) in &span_times {
            println!(
                "{name}/span {span} {} {:.3} {:.3} {:.3}",
                t.calls,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6,
                t.mean_ns() / 1e3
            );
        }
        if name.starts_with("dp_") {
            print!("{}", attribution_table(&layers));
        }
        let note = format!("n={TRACED_SLICES}");
        let metrics: Vec<Metric> = PER_LAYER
            .iter()
            .map(|&(n, unit, _)| Metric {
                name: n,
                value: layers[n],
                unit,
                note: note.clone(),
            })
            .collect();
        for m in &metrics {
            println!("{}", line(name, m));
        }
        let c = &reference.counts;
        let correct = c.failed == 0 && traced.counts == reference.counts;
        println!("{}", result_json(correct, c.attempted, c.failed, &metrics));
        Ok(correct)
    }
}

fn main() -> ExitCode {
    install_alloc_counter(|| ALLOCS.load(Ordering::Relaxed));
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark-trace: {e}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in meta(args.seed) {
        println!("meta/{k} {v}");
    }
    let names: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut all_correct = true;
    for w in names {
        match dispatch(w, args.seed, Traced { seed: args.seed }).and_then(|r| r) {
            Ok(correct) => all_correct &= correct,
            Err(e) => {
                eprintln!("benchmark-trace: {w}: {e}");
                return ExitCode::from(1);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
