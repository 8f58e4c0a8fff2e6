//! The one command: runs a workload (or all six) from a seed, checks
//! outputs, prints every end-to-end metric by name with its unit, and
//! ends with a machine-readable JSON line. `--aa` runs the set twice
//! and holds the two against the bounds.

use activermt_benchmark::cli::Args;
use activermt_benchmark::harness::{run, Budget, Workload};
use activermt_benchmark::layers::LayerSource;
use activermt_benchmark::probe::NoProbe;
use activermt_benchmark::report::{
    end_to_end, line, meta, result_json, scalar_in, value_in, END_TO_END,
};
use activermt_benchmark::{dispatch, Visitor, WORKLOADS};
use std::process::{Command, ExitCode};

struct Measure {
    seconds: f64,
}

impl Visitor for Measure {
    /// Did every check pass?
    type Out = Result<bool, String>;

    fn visit<W: Workload + LayerSource>(self, mut w: W, gen_s: f64) -> Self::Out {
        let r = run(&mut w, &mut NoProbe, Budget::Seconds(self.seconds))?;
        let name = w.name();
        let metrics = end_to_end(&r, w.tail_pct());
        for m in &metrics {
            println!("{}", line(name, m));
        }
        println!("{name}/attempted {} count (per slice)", r.counts.attempted);
        println!("{name}/failed {} count (per slice)", r.counts.failed);
        println!("{name}/digest {:016x}", r.counts.digest);
        for (k, v) in &r.counts.layer {
            println!("{name}/count.{k} {v} count (per slice)");
        }
        println!(
            "{name}/bench.disturbance {} ratio (n={})",
            r.disturbance, r.slices
        );
        println!("{name}/bench.gen_s {gen_s} s (n=1)");
        let correct = r.counts.failed == 0;
        println!(
            "{}",
            result_json(correct, r.counts.attempted, r.counts.failed, &metrics)
        );
        Ok(correct)
    }
}

fn print_meta(seed: u64) {
    for (k, v) in meta(seed) {
        println!("meta/{k} {v}");
    }
}

/// Run one workload in a child process (so `peak_rss_mb` is its own)
/// and return its result line.
fn child(workload: &str, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    // The child's meta lines repeat the parent's; everything else passes
    // through.
    for l in text.lines().filter(|l| !l.starts_with("meta/")) {
        println!("{l}");
    }
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = text.lines().last().unwrap_or_default().to_string();
    if !out.status.success() || scalar_in(&last, "correct") != Some("true") {
        return Err(format!("{workload} failed its checks"));
    }
    Ok(last)
}

fn names(args: &Args) -> Vec<&str> {
    match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    }
}

fn run_set(args: &Args) -> Result<Vec<(String, String)>, String> {
    names(args)
        .into_iter()
        .map(|w| Ok((w.to_string(), child(w, args)?)))
        .collect()
}

/// Two full sets from one invocation; every (workload, metric) pair's
/// relative disagreement is held against the metric's bound.
fn aa(args: &Args) -> Result<bool, String> {
    let a = run_set(args)?;
    let b = run_set(args)?;
    let mut ok = true;
    for ((w, ja), (_, jb)) in a.iter().zip(&b) {
        for (name, _, _, bound) in END_TO_END {
            let (va, vb) = (
                value_in(ja, name).ok_or("metric missing")?,
                value_in(jb, name).ok_or("metric missing")?,
            );
            let disagreement = (va - vb).abs() / ((va + vb) / 2.0);
            let verdict = if disagreement <= bound {
                "ok"
            } else {
                "EXCEEDS"
            };
            ok &= disagreement <= bound;
            println!(
                "aa {w}/{name} {va} {vb} disagreement {disagreement:.4} bound {bound} {verdict}"
            );
        }
    }
    println!("{{\"aa_within_bounds\": {ok}}}");
    Ok(ok)
}

fn all(args: &Args) -> Result<bool, String> {
    let set = run_set(args)?;
    let body: Vec<String> = set.iter().map(|(w, j)| format!("\"{w}\": {j}")).collect();
    let m: Vec<String> = meta(args.seed)
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    println!(
        "{{\"meta\": {{{}}}, \"workloads\": {{{}}}}}",
        m.join(", "),
        body.join(", ")
    );
    Ok(true)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) if a.trace => {
            eprintln!("--trace 1 is the benchmark-trace binary's job (run.sh dispatches)");
            return ExitCode::from(2);
        }
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.aa {
        print_meta(args.seed);
        aa(&args)
    } else if let Some(w) = &args.workload {
        print_meta(args.seed);
        dispatch(
            w,
            args.seed,
            Measure {
                seconds: args.seconds,
            },
        )
        .and_then(|r| r)
    } else {
        print_meta(args.seed);
        all(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(1)
        }
    }
}
