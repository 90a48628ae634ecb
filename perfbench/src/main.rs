//! Wall-clock, layer-by-layer benchmark of RATest-rs.
//!
//! ```text
//! perfbench --workload <course-pool|tpch-agg|serve-semester> --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints a slowest-request report, then, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero when an output check fails. Spans of a traced run are written
//! to `.bench_out/<workload>-<seed>.spans.ndjson`. See `README.md` for why
//! each workload exists and what each metric should move.

mod pools;
mod relabel;
mod report;
mod semester;
mod stats;
mod trace;

use report::{peak_rss_mb, result_line, Metrics};
use stats::median;
use std::process::ExitCode;
use std::time::Duration;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a workload hands back to be printed.
pub struct RunResult {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    pub report: Vec<String>,
    /// Spans to write, as JSON lines.
    pub spans: Option<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match args.workload.as_str() {
        "course-pool" => run_pool(pools::course_pool, &args),
        "tpch-agg" => run_pool(pools::tpch_pool, &args),
        "serve-semester" => semester::run(&args),
        other => Err(format!("unknown workload {other}")),
    };
    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        run.metrics.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if let Some(spans) = &run.spans {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("{}-{}.spans.ndjson", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans)) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        } else {
            run.report
                .push(format!("spans written to {}", path.display()));
        }
    }
    for line in &run.report {
        println!("{line}");
    }
    println!(
        "{}",
        result_line(run.correct, run.attempted, run.failed, &run.metrics)
    );
    if run.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set-up repeats between passes or cycles, spread over the whole run,
/// while it has taken less than `1 / SETUP_SHARE` of the run's time.
/// `setup_s` is their median at the reference speed (see `stats::Speed`).
pub const SETUP_SHARE: u32 = 10;

/// `course-pool`'s pinned output: the counterexample size sum and the
/// number of agreeing pairs of one pass. Its algorithms are exact, so
/// minimal sizes are unique, and every seed explains an isomorphic copy of
/// one instance, so the pin holds for every seed.
const COURSE_PIN: (usize, usize) = (169, 11);

fn run_pool(build: fn(u64) -> pools::Pool, args: &Args) -> Result<RunResult, String> {
    let (mut setups, mut restarts) = (Vec::new(), Vec::new());
    let (mut datagen, mut mutate) = (Vec::new(), Vec::new());
    let mut speed = stats::Speed::default();
    let mut setup = || -> Result<pools::Pool, String> {
        let timed = stats::Speed::time(Some(&mut speed), || {
            let p = build(args.seed);
            let built = std::time::Instant::now();
            p.sessions(0, None).map(|_| (p, built.elapsed()))
        });
        setups.push(timed.scaled().as_secs_f64());
        let (p, sessions) = timed.out?;
        restarts.push(sessions.as_secs_f64() * timed.scale);
        datagen.push(stats::ms(p.datagen));
        mutate.push(stats::ms(p.mutate));
        Ok(p)
    };
    let pool = setup()?;

    let origin = std::time::Instant::now();
    let deadline = origin + Duration::from_secs(args.seconds);
    let registry = std::sync::Arc::new(ratest_telemetry::MetricsRegistry::new());
    let mut trace = trace::Trace::new(origin);
    // The traced run alternates untraced and traced passes, so the tracing
    // overhead is measured inside one run.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut setup_time = Duration::ZERO;
    loop {
        while setup_time < origin.elapsed() / SETUP_SHARE {
            let start = std::time::Instant::now();
            setup()?;
            setup_time += start.elapsed();
        }
        let instance = (plain.len() + traced.len()) % pool.instances();
        if args.trace && plain.len() > traced.len() {
            let base = (traced.len() * (pool.pairs.len() + 1)) as u32;
            let pass = pool.pass(instance, Some(&registry), Some((&mut trace, base)))?;
            traced.push((base, pass));
        } else {
            plain.push(pool.pass(instance, None, None)?);
        }
        // Every instance is seen at least once (twice in a traced run).
        let enough = plain.len() + traced.len() >= pool.instances()
            && (!args.trace || traced.len() == plain.len());
        if enough && std::time::Instant::now() >= deadline {
            break;
        }
    }

    let traced_passes: Vec<&pools::Pass> = traced.iter().map(|(_, p)| p).collect();
    let all: Vec<&pools::Pass> = plain.iter().chain(traced_passes.iter().copied()).collect();
    let attempted = all.len() * pool.pairs.len();
    let failed = all
        .iter()
        .map(|p| p.results.iter().filter(|r| r.outcome.is_err()).count())
        .sum();
    let mut report = Vec::new();
    let mut correct = true;
    match pool.check(&all) {
        Ok((size_sum, agreeing)) => {
            report.push(format!(
                "{} pairs x {} passes; counterexample sizes sum to {size_sum}, {agreeing} pairs agree",
                pool.pairs.len(),
                all.len()
            ));
            if args.workload == "course-pool" && (size_sum, agreeing) != COURSE_PIN {
                correct = false;
                report.push(format!(
                    "CHECK FAILED: expected the pinned (size sum, agreeing pairs) {COURSE_PIN:?}"
                ));
            }
        }
        Err(e) => {
            correct = false;
            report.push(format!("CHECK FAILED: {e}"));
        }
    }

    let mut metrics = Metrics::default();
    let pairs = pool.pairs.len();
    if !args.trace {
        let plain_refs: Vec<&pools::Pass> = plain.iter().collect();
        metrics.put("setup_s", median(&setups), "s");
        pools::end_to_end(&mut metrics, &plain_refs, pairs, &restarts);
        report.push(format!(
            "times are at the reference speed: wall-clock x {:.3} (median factor; see stats::Speed)",
            pools::median_scale(&plain_refs)
        ));
        report.push(pools::slowest(&pool, &plain_refs, None).render(&args.workload));
        return Ok(RunResult {
            correct,
            attempted,
            failed,
            metrics,
            report,
            spans: None,
        });
    }

    let n = traced.len() as f64;
    let self_ms = trace.self_ms();
    let layer = |l: trace::Layer| self_ms.get(&l).copied().unwrap_or(0.0) / n;
    let counter = |name: &str| registry.counter(name) as f64 / n;
    let explains = (pairs * traced.len()) as f64;
    let explain_ms = trace.total_ms("explain") / n;
    let cexes = traced_passes
        .iter()
        .flat_map(|p| &p.results)
        .filter(|r| matches!(&r.outcome, Ok(o) if o.counterexample.is_some()))
        .count() as f64;
    let sum_ms = |passes: &[&pools::Pass]| -> Vec<f64> {
        passes
            .iter()
            .map(|p| p.results.iter().map(|r| stats::ms(r.elapsed)).sum())
            .collect()
    };
    let plain_refs: Vec<&pools::Pass> = plain.iter().collect();
    let overhead = median(&sum_ms(&traced_passes)) / median(&sum_ms(&plain_refs));
    let delta_inc = counter("delta.candidates_incremental");
    let delta_fallback = counter("delta.fallbacks_scratch");
    let solver_events: usize = traced_passes.iter().map(|p| p.solver_events).sum();
    let solver_sat: usize = traced_passes.iter().map(|p| p.solver_sat).sum();
    let sat_ratio = if solver_events > 0 {
        solver_sat as f64 / solver_events as f64
    } else {
        0.0
    };

    metrics.put("ratest.prepare_ms", trace.total_ms("prepare") / n, "ms");
    metrics.put("ratest.explain_ms", explain_ms, "ms");
    metrics.put(
        "ratest.verify_ms",
        explain_ms
            - layer(trace::Layer::Ra)
            - layer(trace::Layer::Provenance)
            - layer(trace::Layer::Solver),
        "ms",
    );
    metrics.put(
        "ratest.candidates",
        trace.count("candidate") as f64 / n,
        "count",
    );
    metrics.put(
        "ratest.candidates_per_explain",
        trace.count("candidate") as f64 / explains,
        "ratio",
    );
    metrics.put("ratest.cex_ratio", cexes / explains, "ratio");
    metrics.put("ra.raw_eval_ms", layer(trace::Layer::Ra), "ms");
    metrics.put(
        "ra.eval.rows_scanned",
        counter("ra.eval.rows_scanned"),
        "count",
    );
    metrics.put("ra.eval.calls", counter("ra.eval.calls"), "count");
    metrics.put("provenance.ms", layer(trace::Layer::Provenance), "ms");
    metrics.put(
        "provenance.annotate.rows",
        counter("provenance.annotate.rows"),
        "count",
    );
    metrics.put(
        "provenance.annotate.calls",
        counter("provenance.annotate.calls"),
        "count",
    );
    metrics.put("solver.ms", layer(trace::Layer::Solver), "ms");
    metrics.put("solver.calls", counter("solver.calls"), "count");
    metrics.put("solver.decisions", counter("solver.decisions"), "count");
    metrics.put("solver.conflicts", counter("solver.conflicts"), "count");
    metrics.put(
        "solver.propagations",
        counter("solver.propagations"),
        "count",
    );
    metrics.put("solver.sat_ratio", sat_ratio, "ratio");
    metrics.put("delta.rows_touched", counter("delta.rows_touched"), "count");
    metrics.put("delta.candidates_incremental", delta_inc, "count");
    metrics.put(
        "delta.fallback_ratio",
        if delta_inc + delta_fallback > 0.0 {
            delta_fallback / (delta_inc + delta_fallback)
        } else {
            0.0
        },
        "ratio",
    );
    semester::put_serve_layers(&mut metrics, None);
    metrics.put("datagen.ms", median(&datagen), "ms");
    metrics.put("queries.mutate_ms", median(&mutate), "ms");
    metrics.put("bench.trace_overhead", overhead, "ratio");
    metrics.put("bench.generator_late_ms.p99", 0.0, "ms");
    metrics.put("bench.queue_wait_ms.p99", 0.0, "ms");
    metrics.put_shares(&self_ms);

    let (base, last) = traced.last().expect("one traced pass");
    report.push(pools::slowest(&pool, &[last], Some((&trace, *base))).render(&args.workload));
    Ok(RunResult {
        correct,
        attempted,
        failed,
        metrics,
        report,
        spans: Some(trace.to_ndjson()),
    })
}
