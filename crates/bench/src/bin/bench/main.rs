//! The repository's one benchmark: `bench --workload <name> --seed <n>
//! [--seconds <s>] [--trace <0|1>]`, and `bench --check`.
//!
//! Each invocation pins itself to one CPU and runs one
//! workload: set-up (repeated; `setup_s` is the lower decile) including one cold
//! pass kept for the correctness check, burn-in, timed passes with no trace
//! sink attached (every latency is the lower decile of its cell), then — with
//! `--trace 1` — one traced pass for the per-layer split, written to
//! `.bench_out/trace_<workload>.json`. The last line of standard output is
//! the result object `BENCHMARK.json`'s contract prescribes; everything
//! human-readable comes before it. README.md in this directory says why
//! each workload exists and how to read a regression.

mod common;
mod manifest;
mod metrics;
mod panel;
mod pressure;
mod runner;
mod serve;
mod spans;
mod stats;

use common::{memcpy_probe, pin_to_one_cpu, set_memcpy, Outcome, RunConfig};
use std::process::ExitCode;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["tpch_large", "tpch_small", "serve_mixed", "gpu_pressure"];

const USAGE: &str = "usage: bench --workload <tpch_large|tpch_small|serve_mixed|gpu_pressure> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]\n       bench --check";

struct Args {
    workload: Option<String>,
    check: bool,
    cfg: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        check: false,
        cfg: RunConfig { seed: 1, seconds: manifest::run_seconds(), trace: true, check: false },
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--check" {
            parsed.check = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value.clone()),
            "--seed" => parsed.cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.cfg.seconds =
                    value.parse().ok().filter(|s| (0.0..=600.0).contains(s)).ok_or_else(bad)?
            }
            "--trace" => {
                parsed.cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    match &parsed.workload {
        Some(name) if !WORKLOADS.contains(&name.as_str()) => {
            Err(format!("unknown workload `{name}`"))
        }
        None if !parsed.check => Err("--workload is required".to_string()),
        _ => Ok(parsed),
    }
}

/// Runs one workload to its outcome.
fn run_workload(name: &str, cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::new();
    // The memcpy probes hold 128 MiB; they run only with the per-layer
    // split, so `peak_rss_mb` of an end-to-end run is the workload's own.
    let probe = cfg.trace.then(|| memcpy_probe(cfg.check));
    if let Some(start) = probe {
        set_memcpy(&mut out, start, start);
    }
    match name {
        "tpch_large" => panel::run(panel::Panel::Large, cfg, &mut out),
        "tpch_small" => panel::run(panel::Panel::Small, cfg, &mut out),
        "serve_mixed" => serve::run(cfg, &mut out),
        "gpu_pressure" => pressure::run(cfg, &mut out),
        other => unreachable!("workload `{other}` passed argument validation"),
    }
    if let Some(start) = probe {
        set_memcpy(&mut out, start, memcpy_probe(cfg.check));
    }
    out
}

/// `--check`: every workload for one pass at the check scale, then the
/// emitted names and units against `BENCHMARK.json`. Returns the problems.
fn self_check() -> Vec<String> {
    let cfg = RunConfig { seed: 1, seconds: 0.0, trace: true, check: true };
    let mut problems = manifest::check(
        manifest::MANIFEST,
        &WORKLOADS,
        &metrics::end_to_end(),
        &metrics::per_layer(),
    );
    for workload in WORKLOADS {
        let out = run_workload(workload, &cfg);
        for (def, value) in out.e2e.iter() {
            if !(value.is_finite() && value > 0.0) {
                problems.push(format!("{workload}: end-to-end `{}` is {value}", def.name));
            }
        }
        for (def, value) in out.layers.iter() {
            if !value.is_finite() {
                problems.push(format!("{workload}: per-layer `{}` is {value}", def.name));
            }
        }
        if out.failed > 0 || !out.wrong.is_empty() {
            problems.push(format!("{workload}: {} failed ops\n{}", out.failed, out.report));
        }
    }
    problems
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("bench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Before any thread exists: the engine's pools inherit the mask.
    let pinned = pin_to_one_cpu();
    if args.check {
        let problems = self_check();
        for problem in &problems {
            eprintln!("check: {problem}");
        }
        println!("check: {} problem(s)", problems.len());
        return if problems.is_empty() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }

    let workload = args.workload.expect("validated by parse_args");
    let out = run_workload(&workload, &args.cfg);
    println!(
        "== {workload} seed {} seconds {} trace {} ({} hardware threads, {}) ==",
        args.cfg.seed,
        args.cfg.seconds,
        args.cfg.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        pinned.map_or("not pinned".to_string(), |cpu| format!("pinned to CPU {cpu}"))
    );
    print!("{}", out.report);
    println!("-- end-to-end --");
    for (def, value) in out.e2e.iter() {
        println!("{:<28} {value:>14.4} {}", def.name, def.unit);
    }
    if args.cfg.trace {
        println!("-- per layer (0 = the workload bypasses the layer) --");
        for (def, value) in out.layers.iter() {
            println!("{:<28} {value:>14.4} {}", def.name, def.unit);
        }
    }
    println!("ops_attempted {}  ops_failed {}", out.attempted, out.failed);
    if let Some(trace) = &out.trace_json {
        let path = format!(".bench_out/trace_{workload}.json");
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, trace)) {
            Ok(()) => println!("wrote {path}"),
            Err(error) => eprintln!("bench: could not write {path}: {error}"),
        }
    }

    let correct = out.wrong.is_empty();
    let reported = if args.cfg.trace { &out.layers } else { &out.e2e };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        reported.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_follow_the_driver_contract() {
        let parsed =
            args(&["--workload", "tpch_small", "--seed", "42", "--seconds", "10", "--trace", "0"])
                .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("tpch_small"));
        assert_eq!((parsed.cfg.seed, parsed.cfg.seconds, parsed.cfg.trace), (42, 10.0, false));
        assert!(args(&["--check"]).unwrap().check);
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--workload", "tpch_small", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "tpch_small", "--seed"]).is_err());
    }

    /// The tier-1 twin of `bench --check`: every workload runs end to end
    /// at the check scale, emits exactly the catalogue (which a second test
    /// in `manifest` pins to `BENCHMARK.json`), passes its own correctness
    /// gate, and keeps the per-layer partition.
    #[test]
    fn every_workload_runs_and_emits_its_metrics_at_check_scale() {
        let problems = self_check();
        assert!(problems.is_empty(), "{}", problems.join("\n"));
    }

    /// Same seed, same inputs: the dbgen row count and the plan node count
    /// repeat; another seed changes the data but not the metric names.
    #[test]
    fn seed_decides_the_inputs_and_nothing_else() {
        let cfg = |seed| RunConfig { seed, seconds: 0.0, trace: true, check: true };
        let a = run_workload("tpch_small", &cfg(5));
        let b = run_workload("tpch_small", &cfg(5));
        let c = run_workload("tpch_small", &cfg(6));
        // First report line: "sf .. seed ..: N lineitem rows, .. payload, dbgen T s".
        let data = |o: &Outcome| {
            o.report.lines().next().and_then(|l| l.split(", dbgen").next().map(String::from))
        };
        assert_eq!(a.layers.get("engine.nodes"), b.layers.get("engine.nodes"));
        assert_eq!(data(&a), data(&b));
        assert_ne!(data(&a), data(&c));
        let names = |o: &Outcome| o.layers.iter().map(|(d, _)| d.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&c));
    }
}
