//! `perf_ledger` — the repository's wall-clock benchmark.
//!
//! Six workloads on the real-threads backend with zero emulated cost
//! (`ThreadRuntime` + `ThreadConfig::fast()`): real arithmetic, real
//! rendezvous, real rank death. End-to-end metrics are taken with tracing
//! off through the unmodified public presets; `--trace 1` adds one traced
//! repetition that decomposes the time by layer. `BENCHMARK.json` at the
//! repository root names the workloads, the metrics and their regression
//! bounds; `README.md` beside this file says why each workload exists.
//!
//! ```text
//! perf_ledger --workload NAME [--seed S] [--seconds T] [--trace 0|1]
//!             [--trace-out PATH] [--smoke]      one run, result as last line
//! perf_ledger [--runs N] [--trace] [--json PATH] [--seed S] [--seconds T]
//!             [--trace-out PREFIX] [--smoke]    every workload, each run in
//!                                               its own process
//! perf_ledger --compare A.json B.json           two ledgers against the bounds
//! ```

mod compare;
mod probe;
mod report;
mod trace;
mod workloads;
mod wrappers;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use report::{median, obj, Json};
use workloads::{Outcome, RunCfg, WORKLOADS};

/// The contract this binary is written to; also the source of every unit
/// and bound it prints.
const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One metric declared in `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The metrics of section `key` (`end_to_end` or `per_layer`), in file order.
pub fn declared_metrics(key: &str) -> Vec<MetricSpec> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get(key)
        .expect("BENCHMARK.json lists its metrics")
        .as_arr()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                higher_is_better: text("better") == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The workloads `BENCHMARK.json` gates on. The others run on request and
/// in the full ledger, but no bound is held against them (see `README.md`).
fn gated_workloads() -> Vec<String> {
    let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
    doc.get("workloads")
        .expect("BENCHMARK.json lists its workloads")
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
    json: Option<String>,
    runs: usize,
    smoke: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str =
    "usage: perf_ledger [--workload NAME] [--seed S] [--seconds T] [--trace [0|1]] \
[--trace-out PATH] [--runs N] [--json PATH] [--smoke] | --compare A.json B.json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let default_seconds = Json::parse(BENCHMARK_JSON)
        .ok()
        .and_then(|d| d.get("run_seconds").and_then(Json::as_f64))
        .unwrap_or(10.0);
    let mut args = Args {
        seed: 2013,
        seconds: default_seconds,
        runs: 1,
        ..Args::default()
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--runs" => {
                args.runs = value("a count")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".into());
                }
            }
            "--trace-out" => args.trace_out = Some(value("a path")?),
            "--json" => args.json = Some(value("a path")?),
            "--smoke" => args.smoke = true,
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => {
                args.compare = Some((value("two ledger files")?, value("two ledger files")?))
            }
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.compare, &args.workload) {
        (Some((a, b)), _) => compare::run(a, b),
        (None, Some(name)) => one_run(name, &args),
        (None, None) => all_workloads(&args),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf_ledger: {message}");
            ExitCode::FAILURE
        }
    }
}

/// The result object of one run: the end-to-end metrics of an untraced run,
/// the per-layer metrics of a traced one — exactly the declared names.
fn result_json(outcome: &Outcome, traced: bool) -> Json {
    let section = if traced { "per_layer" } else { "end_to_end" };
    let metrics = declared_metrics(section)
        .into_iter()
        .map(|m| {
            // A layer a workload never enters reads 0.
            let value = outcome.metrics.get(&m.name).copied().unwrap_or(0.0);
            (
                m.name,
                obj([("value", Json::Num(value)), ("unit", Json::Str(m.unit))]),
            )
        })
        .collect();
    obj([
        (
            "correct",
            Json::Bool(outcome.failed == 0 && outcome.silent_wrong.is_empty()),
        ),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ])
}

/// CPU time the hypervisor gave to someone else, and all CPU time, in clock
/// ticks since boot (the aggregate `cpu` line of `/proc/stat`).
fn steal_and_total_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// `--workload NAME`: run it in this process, print every metric by name
/// with its unit, and the result object as the last line of stdout.
fn one_run(name: &str, args: &Args) -> Result<ExitCode, String> {
    let ticks_before = steal_and_total_ticks();
    let cfg = RunCfg {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        smoke: args.smoke,
        shrink: if args.smoke { 4 } else { 1 },
        trace: args.trace,
        trace_out: args.trace_out.clone(),
    };
    let outcome = workloads::run(name, &cfg)?;
    if !outcome.silent_wrong.is_empty() {
        for line in &outcome.silent_wrong {
            eprintln!("{line}");
        }
        return Ok(ExitCode::FAILURE);
    }
    // Not a metric, but the first thing to look at when a run disagrees
    // with its neighbours: a guest cannot see its noisy neighbours otherwise.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, steal_and_total_ticks()) {
        if t1 > t0 {
            println!(
                "  cpu time stolen by the hypervisor during the run: {:.1} %",
                (s1 - s0) / (t1 - t0) * 100.0
            );
        }
    }
    if args.trace {
        println!("  per-layer metrics:");
        for m in declared_metrics("per_layer") {
            let value = outcome.metrics.get(&m.name).copied().unwrap_or(0.0);
            println!("    {:<42} {value:>16.6} {}", m.name, m.unit);
        }
    }
    println!("{}", result_json(&outcome, args.trace).render());
    Ok(ExitCode::SUCCESS)
}

/// Run `perf_ledger --workload …` as a child and parse its last line.
fn child_run(name: &str, args: &Args, seed: u64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(prefix)) = (traced, &args.trace_out) {
        cmd.args(["--trace-out", &format!("{prefix}.{name}.json")]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !out.status.success() {
        return Err(format!(
            "the {name} run (seed {seed}) exited with {}",
            out.status
        ));
    }
    Json::parse(last).map_err(|e| format!("the {name} run printed no result: {e}"))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// No `--workload`: every workload, each run in a process of its own so
/// `peak_rss_mb` is that workload's alone; `--runs N` repeats each with
/// seeds `S, S+1, …` (what the spread in `--compare` is computed from).
fn all_workloads(args: &Args) -> Result<ExitCode, String> {
    let end_to_end = declared_metrics("end_to_end");
    let per_layer = declared_metrics("per_layer");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perf_ledger: {} workloads x {} run(s), seed {}, {} s per run, nproc {nproc}{}",
        WORKLOADS.len(),
        args.runs,
        args.seed,
        args.seconds,
        if args.smoke { ", smoke sizes" } else { "" }
    );
    println!(
        "  gated by BENCHMARK.json: {}",
        gated_workloads().join(", ")
    );
    let mut ledger = BTreeMap::new();
    let mut summary = Vec::new();
    let mut all_correct = true;
    for name in WORKLOADS {
        let mut runs: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        for run in 0..args.runs {
            let result = child_run(name, args, args.seed + run as u64, false)?;
            tally(&result);
            for m in &end_to_end {
                let value = metric_value(&result, &m.name)
                    .ok_or_else(|| format!("the {name} run did not report {}", m.name))?;
                runs.entry(&m.name).or_default().push(value);
            }
        }
        let mut layers = BTreeMap::new();
        if args.trace {
            let result = child_run(name, args, args.seed, true)?;
            tally(&result);
            for m in &per_layer {
                let value = metric_value(&result, &m.name)
                    .ok_or_else(|| format!("the {name} run did not report {}", m.name))?;
                layers.insert(m.name.clone(), Json::Num(value));
            }
        }
        all_correct &= failed == 0.0;
        let medians: String = end_to_end
            .iter()
            .map(|m| format!(" {:>16.6}", median(&runs[m.name.as_str()])))
            .collect();
        summary.push(format!("  {name:<12}{medians} {failed:>4}/{attempted:<5}"));
        let runs = runs
            .into_iter()
            .map(|(k, v)| {
                (
                    k.to_string(),
                    Json::Arr(v.into_iter().map(Json::Num).collect()),
                )
            })
            .collect();
        ledger.insert(
            name.to_string(),
            obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::Obj(runs)),
                ("per_layer", Json::Obj(layers)),
            ]),
        );
    }

    println!("\nend-to-end medians over {} run(s):", args.runs);
    print!("  {:<12}", "workload");
    for m in &end_to_end {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>10}", "failed");
    for row in summary {
        println!("{row}");
    }
    if let Some(path) = &args.json {
        let doc = obj([
            ("benchmark", Json::Str("perf_ledger".into())),
            ("nproc", Json::Num(nproc as f64)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("runs", Json::Num(args.runs as f64)),
            ("smoke", Json::Bool(args.smoke)),
            ("workloads", Json::Obj(ledger)),
        ]);
        std::fs::write(path, doc.render() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("ledger written to {path}");
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "bj_pcg",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("bj_pcg"), 7, 10.0, false)
        );
        assert!(args(&["--trace", "1"]).unwrap().trace);
        // A bare `--trace` must not swallow the next flag.
        let a = args(&["--trace", "--smoke"]).unwrap();
        assert!(a.trace && a.smoke);
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        assert!(args(&["--runs", "0"]).is_err());
    }

    #[test]
    fn benchmark_json_meets_the_contract() {
        let doc = Json::parse(BENCHMARK_JSON).unwrap();
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.chars().next().unwrap().is_ascii_alphanumeric()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let declared = gated_workloads();
        assert!((2..=8).contains(&declared.len()));
        for name in &declared {
            assert!(name_ok(name), "bad workload name {name:?}");
            assert!(
                WORKLOADS.contains(&name.as_str()),
                "BENCHMARK.json gates on `{name}`, which this binary does not run"
            );
        }
        for w in doc.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let end_to_end = declared_metrics("end_to_end");
        let per_layer = declared_metrics("per_layer");
        assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
        let mut seen = std::collections::BTreeSet::new();
        for m in end_to_end.iter().chain(&per_layer) {
            assert!(name_ok(&m.name), "bad metric name {:?}", m.name);
            assert!(unit_ok(&m.unit), "bad unit {:?}", m.unit);
            assert!(seen.insert(m.name.clone()), "duplicate name {}", m.name);
        }
        for m in &end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        let setup = end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(end_to_end.iter().all(|m| m.bound <= setup.bound));
        let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    /// Every workload end to end at smoke size, traced: the run verifies its
    /// outputs, the traced re-compositions repeat the presets bit for bit
    /// (`workloads::run` fails otherwise), and the metrics it produces are
    /// exactly the ones `BENCHMARK.json` declares.
    #[test]
    fn smoke_runs_produce_exactly_the_declared_metrics() {
        let _sink = trace::SINK_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let declared: std::collections::BTreeSet<String> = declared_metrics("end_to_end")
            .into_iter()
            .chain(declared_metrics("per_layer"))
            .map(|m| m.name)
            .collect();
        let mut nonzero = std::collections::BTreeSet::new();
        for name in WORKLOADS {
            let cfg = RunCfg {
                seed: 2013,
                seconds: 0.0,
                smoke: true,
                // Half the `--smoke` size: this runs unoptimised.
                shrink: 8,
                trace: true,
                trace_out: None,
            };
            let outcome = workloads::run(name, &cfg).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                outcome.silent_wrong.is_empty(),
                "{name}: {:?}",
                outcome.silent_wrong
            );
            assert_eq!(outcome.failed, 0, "{name}: failed solves");
            assert!(
                outcome.attempted >= 9,
                "{name}: {} solves",
                outcome.attempted
            );
            for (metric, value) in &outcome.metrics {
                assert!(
                    declared.contains(metric),
                    "{name} reports undeclared {metric}"
                );
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                if *value != 0.0 {
                    nonzero.insert(metric.clone());
                }
            }
            let untraced = result_json(&outcome, false);
            for m in declared_metrics("end_to_end") {
                let v = metric_value(&untraced, &m.name).unwrap();
                assert!(v > 0.0, "{name}: end-to-end {} must never be 0", m.name);
            }
            assert_eq!(outcome.metrics["trace.dropped_spans"], 0.0);
            match name {
                "bj_pcg" => {
                    assert_eq!(outcome.metrics["core.kernel.cache.hits"], 2.0);
                    assert_eq!(outcome.metrics["core.kernel.cache.misses"], 1.0);
                }
                "sdc_cg" => assert_eq!(outcome.metrics["core.kernel.policy.injections"], 1.0),
                "lflr_kill" => {
                    assert_eq!(outcome.metrics["core.kernel.lflr.failures_seen"], 1.0);
                    assert!(outcome.metrics["core.kernel.lflr.resumed_from"] > 0.0);
                }
                _ => {}
            }
        }
        // No declared name is dead: some workload moves each of them.
        // (`p90_s` needs 100 samples and `dropped_spans`/`false_positives`/
        // `fallback_restores` read 0 when all is well.)
        let quiet = [
            "core.kernel.solve.p90_s",
            "trace.dropped_spans",
            "core.kernel.policy.false_positives",
            "core.kernel.lflr.fallback_restores",
        ];
        for name in &declared {
            assert!(
                nonzero.contains(name) || quiet.contains(&name.as_str()),
                "no workload reports {name}"
            );
        }
    }
}
