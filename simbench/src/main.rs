//! `simbench` — the simulator's end-to-end benchmark.
//!
//! ```text
//! simbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs the workload through the public
//! `workflow::run_scenario` with no instrumentation and reports the
//! end-to-end metrics: requests simulated per host second, set-up time and
//! peak resident memory. Host times are scaled to a fixed reference speed
//! (see `reference`), so the figures do not drift with the load on a shared
//! host. With `--trace 1` it replays the same traffic
//! through a benchmark-owned replayer that times every layer boundary from
//! outside the program and reports the per-layer metrics (see `traced`).
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}`.
//! Any failed correctness check is printed to standard error and exits with
//! code 1. `run.py` builds this binary and runs it under a watchdog.

mod reference;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use workflow::{run_scenario, ScenarioReport};

use workloads::Workload;

/// Set-up-only repetitions before each whole-workload repetition. Set-up
/// takes about half a millisecond, so its median needs many samples, and
/// spreading them over the run makes them sample the same stretch of host
/// time as `req_per_s` rather than one instant of it.
const SETUP_BATCH: usize = 25;

/// Every run repeats the full workload at least this often, so the
/// bit-identical-report check always has two reports to compare.
const MIN_REPS: usize = 2;

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Collects metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

/// What one run of the benchmark produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| bad(&e))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Request accounting of one `run_scenario` report: `(issued, failed)`,
/// after checking `issued == completed + failed == requests` per generator.
pub fn check_accounting(w: &Workload, report: &ScenarioReport) -> Result<(u64, u64), String> {
    let traffic = report
        .traffic
        .as_ref()
        .ok_or("run_scenario returned no traffic report")?;
    if traffic.generators.len() != w.traffic.len() {
        return Err(format!(
            "{} generator reports for {} generators",
            traffic.generators.len(),
            w.traffic.len()
        ));
    }
    let (mut issued, mut failed) = (0, 0);
    for (spec, gen) in w.traffic.iter().zip(&traffic.generators) {
        let requests = spec.requests as u64;
        if gen.issued != gen.completed + gen.failed || gen.issued != requests {
            return Err(format!(
                "generator {}: issued {} completed {} failed {} of {} requests",
                gen.name, gen.issued, gen.completed, gen.failed, requests
            ));
        }
        issued += gen.issued;
        failed += gen.failed;
    }
    Ok((issued, failed))
}

/// Everything a report predicts, printed exactly (`{:?}` of an `f64` is its
/// shortest round-trip form), for bit-identity checks between repetitions.
pub fn fingerprint(report: &ScenarioReport) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        report.traffic,
        report.run_stats(),
        report.net,
        report.writeback,
        report.simulated_duration
    )
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The untraced end-to-end run: whole-workload repetitions for `seconds` of
/// host time, each preceded by a batch of set-up-only repetitions. Every
/// cycle of set-up batch and repetition is followed by reference runs, and
/// its host times are scaled by `reference::NOMINAL_S` over the mean of the
/// reference times on either side (the first cycle has only the one after),
/// so a slow or fast stretch of a shared host cancels out. Peak memory is
/// read after the first repetition: the peak of the set-up batch and one
/// whole repetition in a fresh process.
fn end_to_end(w: &Workload, seconds: f64) -> Result<Outcome, String> {
    let setup = w.setup_only();
    let setup_scenario = setup.scenario();
    let scenario = w.scenario();
    let (mut attempted, mut failed) = (0, 0);
    let mut setup_times = Vec::new();
    let mut rates = Vec::new();
    let mut raw_rates = Vec::new();
    let mut references = Vec::new();
    let mut cycles = Vec::new();
    let mut first: Option<String> = None;
    let window = Instant::now();
    let mut before = None;
    let mut peak_rss = None;
    loop {
        let cycle = Instant::now();
        let mut batch = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let start = Instant::now();
            let report = run_scenario(&setup_scenario).map_err(|e| e.to_string())?;
            batch.push(start.elapsed().as_secs_f64());
            check_accounting(&setup, &report)?;
        }
        let start = Instant::now();
        let report = run_scenario(&scenario).map_err(|e| e.to_string())?;
        let elapsed = start.elapsed().as_secs_f64();
        // Read the peak before the first reference run, whose memory the
        // repetitions reuse but would otherwise add to the peak. That first
        // run also pays the page faults, so it is not counted.
        if peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb()?);
            reference::run();
        }
        let after = reference::measure(elapsed);
        cycles.push(cycle.elapsed().as_secs_f64());
        let (issued, fails) = check_accounting(w, &report)?;
        let print = fingerprint(&report);
        match &first {
            None => first = Some(print),
            Some(expected) if *expected != print => {
                return Err(format!(
                    "repetition {} of one workload and seed gave a different report",
                    rates.len() + 1
                ))
            }
            Some(_) => {}
        }
        attempted += issued;
        failed += fails;
        let scale = reference::NOMINAL_S / before.map_or(after, |b: f64| (b + after) / 2.0);
        setup_times.extend(batch.iter().map(|t| t * scale));
        rates.push((issued - fails) as f64 / (elapsed * scale));
        raw_rates.push((issued - fails) as f64 / elapsed);
        references.push(after);
        before = Some(after);
        // Start another cycle only if a typical one still fits.
        let used = window.elapsed().as_secs_f64();
        if rates.len() >= MIN_REPS && used + median(&cycles) > seconds {
            break;
        }
    }
    let show = |v: &[f64]| {
        v.iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    eprintln!(
        "{}: {} repetitions of {} requests at [{}] req/s, [{}] raw; reference {:.4} s \
         (nominal {}); {} set-up repetitions",
        w.name,
        rates.len(),
        w.requests(),
        show(&rates),
        show(&raw_rates),
        median(&references),
        reference::NOMINAL_S,
        setup_times.len()
    );

    let mut metrics = Metrics::default();
    metrics.push("req_per_s", median(&rates), "1/s");
    metrics.push("setup_s", median(&setup_times), "s");
    metrics.push("peak_rss_mb", peak_rss.expect("one repetition ran"), "MB");
    Ok(Outcome {
        attempted,
        failed,
        metrics,
    })
}

fn print_result(outcome: &Outcome) -> Result<(), String> {
    let mut fields = Vec::new();
    for m in &outcome.metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        // Human-readable line first; the JSON line below is what tools read.
        println!("{:<32} {:>20} {}", m.name, m.value, m.unit);
        // `{:?}` quotes the ASCII names and units, and prints a float with
        // every digit in a form JSON accepts.
        fields.push(format!(
            "{:?}: {{\"value\": {:?}, \"unit\": {:?}}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let workload = Workload::new(&args.workload, args.seed).ok_or_else(|| {
        format!(
            "unknown workload {} (benchmark workloads: {}; defect repros: {})",
            args.workload,
            workloads::BENCHMARK_WORKLOADS.join(", "),
            workloads::LIVELOCK_REPROS.join(", ")
        )
    })?;
    let outcome = if args.trace {
        traced::per_layer(&workload, args.seconds)?
    } else {
        end_to_end(&workload, args.seconds)?
    };
    print_result(&outcome)
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("simbench: {e}");
            ExitCode::FAILURE
        }
    }
}
