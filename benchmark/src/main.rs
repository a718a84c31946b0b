//! The repo's benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! scavenger-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! scavenger-benchmark run [--seed N] [--seconds S] [--runs R] [--quick] every workload, untraced then traced
//! scavenger-benchmark compare A.json B.json                          hold B to A with each metric's bound
//! scavenger-benchmark manifest                                       print BENCHMARK.json from the registry
//! scavenger-benchmark metrics                                        print the glossary: what each metric is / should move
//! ```

mod compare;
mod env;
mod gen;
mod json;
mod measure;
mod metrics;
mod probes;
mod trace;
mod workloads;

use json::quote;
use metrics::{END_TO_END, PER_LAYER, WORKLOADS};
use std::process::ExitCode;
use workloads::{Outcome, Params};

/// What `BENCHMARK.json` gives the driver as `run_seconds`.
const RUN_SECONDS: u32 = 10;
/// `run --quick`: a smoke run of every workload in about half a minute.
const QUICK_SECONDS: f64 = 0.1;

/// `--name value` pairs after the subcommand; unknown names are errors.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], known: &[&str], switches: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            if switches.contains(&name) {
                out.push((name.to_string(), "1".to_string()));
            } else if known.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.push((name.to_string(), v.clone()));
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(Flags(out))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.iter().rev().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, v)) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }
}

/// The metrics a run must print: every end-to-end metric untraced, every
/// per-layer metric traced (0 where the workload bypasses the layer).
fn reported(out: &Outcome, trace: bool) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    if trace {
        Ok(PER_LAYER
            .iter()
            .map(|m| (m.name, m.unit, out.metrics.get(m.name).unwrap_or(0.0)))
            .collect())
    } else {
        END_TO_END
            .iter()
            .map(|m| match out.metrics.get(m.name) {
                Some(v) if v.is_finite() && v > 0.0 => Ok((m.name, m.unit, v)),
                other => Err(format!("end-to-end metric {} reads {other:?}", m.name)),
            })
            .collect()
    }
}

/// The driver's contract: one workload, result as the last line of stdout.
fn one_workload(flags: &Flags) -> Result<ExitCode, String> {
    let workload: String = flags.get("workload")?.ok_or("--workload is required")?;
    let trace = match flags.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        other => return Err(format!("--trace is 0 or 1, not {other}")),
    };
    let p = Params {
        seed: flags.get("seed")?.ok_or("--seed is required")?,
        seconds: flags.get("seconds")?.unwrap_or(f64::from(RUN_SECONDS)),
        trace,
    };
    if !(p.seconds > 0.0 && p.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", p.seconds));
    }
    let out = workloads::run(&workload, &p)?;
    for line in &out.problems {
        eprintln!("FAILED {workload}: {line}");
    }
    let metrics: Vec<String> = reported(&out, trace)?
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                quote(name),
                quote(unit)
            )
        })
        .collect();
    let correct = out.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// One workload in a process of its own, exactly as the driver runs it (so
/// `peak_rss_mb` is that workload's and nothing carries over); returns the
/// parsed result line.
fn run_child(workload: &str, p: &Params) -> Result<json::Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &p.seed.to_string(),
            "--seconds",
            &p.seconds.to_string(),
        ])
        .args(["--trace", if p.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no result line (exit {})", out.status))?;
    json::parse(line).map_err(|e| format!("{workload}: result line: {e}"))
}

/// Every workload, untraced (end-to-end) then traced (per-layer), `runs`
/// times with seeds `seed, seed+1, …`; prints every metric as
/// `workload name unit value samples` and writes `out/results.json` for
/// `compare`.
fn run_all(flags: &Flags) -> Result<ExitCode, String> {
    let seed: u64 = flags.get("seed")?.unwrap_or(1);
    let runs: u64 = flags.get("runs")?.unwrap_or(1).max(1);
    let quick = flags.get::<u8>("quick")?.is_some();
    let seconds = match flags.get("seconds")? {
        Some(s) => s,
        None if quick => QUICK_SECONDS,
        None => f64::from(RUN_SECONDS),
    };
    let mut all_correct = true;
    let mut sections = Vec::new();
    for w in WORKLOADS {
        let mut series: [Vec<(&str, &str, Vec<f64>)>; 2] = [
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, Vec::new()))
                .collect(),
            PER_LAYER
                .iter()
                .map(|m| (m.name, m.unit, Vec::new()))
                .collect(),
        ];
        let (mut attempted, mut failed) = (0.0, 0.0);
        for run in 0..runs {
            let mut untraced_rate = 0.0;
            for trace in [false, true] {
                let result = run_child(
                    w.name,
                    &Params {
                        seed: seed + run,
                        seconds,
                        trace,
                    },
                )?;
                let field = |name: &str| {
                    result
                        .get(name)
                        .and_then(json::Value::as_f64)
                        .ok_or_else(|| format!("{}: no {name:?}", w.name))
                };
                let metric = |name: &str| result.get("metrics")?.get(name)?.get("value")?.as_f64();
                let samples = field("attempted")?;
                attempted += samples;
                failed += field("failed")?;
                for (name, unit, values) in &mut series[usize::from(trace)] {
                    let mut v =
                        metric(name).ok_or_else(|| format!("{}: no metric {name}", w.name))?;
                    match *name {
                        "ops_per_s" => untraced_rate = v,
                        // Across the two runs, as the guide defines it; the
                        // traced run's own figure is within-run.
                        "bench.trace_overhead_pct" => {
                            let traced_rate = metric("bench.traced_ops_per_s").unwrap_or(0.0);
                            v = 100.0 * (untraced_rate - traced_rate) / untraced_rate;
                        }
                        _ => {}
                    }
                    println!("{} {name} {unit} {v} {samples}", w.name);
                    values.push(v);
                }
            }
        }
        all_correct &= failed == 0.0;
        let block = |s: &[(&str, &str, Vec<f64>)]| {
            let rows: Vec<String> = s
                .iter()
                .map(|(name, _, v)| {
                    format!(
                        "      {}: [{}]",
                        quote(name),
                        v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
                    )
                })
                .collect();
            rows.join(",\n")
        };
        sections.push(format!(
            "  {}: {{\n    \"attempted\": {attempted}, \"failed\": {failed}, \"fail_ratio\": {},\n    \"end_to_end\": {{\n{}\n    }},\n    \"per_layer\": {{\n{}\n    }}\n  }}",
            quote(w.name),
            failed / attempted.max(1.0),
            block(&series[0]),
            block(&series[1]),
        ));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\"seed\": {seed}, \"runs\": {runs}, \"seconds\": {seconds}, \"cores\": {cores}, \"clients\": {}, \"correct\": {all_correct},\n \"workloads\": {{\n{}\n }}}}\n",
        workloads::clients(),
        sections.join(",\n")
    );
    let path = workloads::out_dir()?.join("results.json");
    std::fs::write(&path, doc).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json`, from the registry (a test holds the file to this).
fn manifest() -> String {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    let list = |rows: Vec<String>| rows.join(",\n    ");
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {}\n  ],\n  \"end_to_end\": [\n    {}\n  ],\n  \"per_layer\": [\n    {}\n  ]\n}}\n",
        command.map(quote).join(", "),
        list(WORKLOADS.iter().map(|w| format!("{{\"name\": {}, \"why\": {}}}", quote(w.name), quote(w.why))).collect()),
        list(
            END_TO_END
                .iter()
                .map(|m| format!(
                    "{{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                    quote(m.name),
                    quote(m.unit),
                    quote(m.better.as_str()),
                    m.bound
                ))
                .collect()
        ),
        list(
            PER_LAYER
                .iter()
                .map(|m| format!("{{\"name\": {}, \"unit\": {}, \"better\": {}}}", quote(m.name), quote(m.unit), quote(m.better.as_str())))
                .collect()
        ),
    )
}

/// The glossary `BENCHMARK.json` has no room for: what each end-to-end
/// metric means, and for each per-layer metric its layer and the
/// end-to-end metric it is predicted to move.
fn glossary() -> String {
    let mut out = String::new();
    for m in END_TO_END {
        out.push_str(&format!(
            "{} [{}] {} is better, bound {}%: {}\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "{} [{}] layer {}, {} is better; moves {}\n",
            m.name,
            m.unit,
            m.layer(),
            m.better.as_str(),
            m.moves
        ));
    }
    out
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    match args.first().map(String::as_str) {
        Some("run") => run_all(&Flags::parse(
            &args[1..],
            &["seed", "seconds", "runs"],
            &["quick"],
        )?),
        Some("compare") => match &args[1..] {
            [a, b] => Ok(if compare::run(a, b)? {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }),
            _ => Err("usage: compare <a.json> <b.json>".into()),
        },
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("metrics") => {
            print!("{}", glossary());
            Ok(ExitCode::SUCCESS)
        }
        _ => one_workload(&Flags::parse(
            args,
            &["workload", "seed", "seconds", "trace"],
            &[],
        )?),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("scavenger-benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_and_switches_and_reject_the_rest() {
        let args: Vec<String> = ["--seed", "7", "--quick", "--seed", "9"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let f = Flags::parse(&args, &["seed"], &["quick"]).unwrap();
        assert_eq!(f.get::<u64>("seed").unwrap(), Some(9), "last one wins");
        assert!(f.get::<u8>("quick").unwrap().is_some());
        assert_eq!(f.get::<u64>("runs").unwrap(), None);
        assert!(Flags::parse(&args, &["seed"], &[]).is_err());
        assert!(Flags::parse(&["--seed".to_string()], &["seed"], &[]).is_err());
        assert!(Flags::parse(&["--seed".into(), "x".into()], &["seed"], &[])
            .unwrap()
            .get::<u64>("seed")
            .is_err());
    }

    #[test]
    fn untraced_results_must_carry_every_end_to_end_metric_and_none_may_be_zero() {
        let mut out = Outcome::default();
        for m in END_TO_END {
            out.metrics.set(m.name, 1.5);
        }
        assert_eq!(reported(&out, false).unwrap().len(), END_TO_END.len());
        out.metrics.set("device_s", 0.0);
        assert!(reported(&out, false).is_err());
        assert_eq!(
            reported(&Outcome::default(), true).unwrap().len(),
            PER_LAYER.len(),
            "traced: absent reads 0"
        );
    }

    #[test]
    fn checked_in_manifest_is_what_the_registry_generates() {
        let on_disk =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap();
        assert_eq!(on_disk, manifest(), "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json");
    }

    /// Acceptance: a wrong output makes the command fail. The model of
    /// `update_gc` is corrupted in one place before the final audit.
    #[test]
    fn one_corrupted_expected_value_fails_the_run() {
        let p = Params {
            seed: 3,
            seconds: 0.05,
            trace: false,
        };
        let clean = workloads::update_gc::run(&p).unwrap();
        assert_eq!((clean.failed, clean.problems.len()), (0, 0));
        let bad = workloads::update_gc::run_tampered(&p, |versions| versions[17] += 1).unwrap();
        assert_eq!(bad.failed, 1);
        assert_eq!(bad.attempted, clean.attempted);
        assert!(
            bad.problems[0].contains("final audit"),
            "{:?}",
            bad.problems
        );
    }
}
