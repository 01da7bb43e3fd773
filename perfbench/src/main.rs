//! Benchmark of the all-to-all planning pipeline: topology → MCF → LP →
//! lowering → event simulation → replanning.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <route-plan|ts-plan|replan|sim-whatif> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop (one caller; the next
//! operation starts when the previous one returns). With `--trace 0` it times
//! operations with tracing off and prints the end-to-end metrics; with
//! `--trace 1` it runs every operation twice, untraced and then with `a2a_obs`
//! tracing on, and prints per-layer self times, exact counts and the tracing
//! overhead. The last stdout line is the JSON result. Why each workload and metric exists: `README.md` next to this file.

mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use trace::{counter, Attribution, LAYERS, TSMCF_SOLVE};
use workloads::{Counts, Op, Replan, RoutePlan, SimWhatIf, TsPlan, Workload};

const USAGE: &str = "usage: perfbench --workload <route-plan|ts-plan|replan|sim-whatif> \
                     --seed <u64> --seconds <1..=3600> --trace <0|1>";

/// Set-up runs this often; `setup_s` is the median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| bad(&e))?;
                    if !(1..=3600).contains(&s) {
                        return Err(bad(&"out of range"));
                    }
                    seconds = Some(s as f64);
                }
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(bad(&"expected 0 or 1")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One named metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Report {
    attempted: usize,
    failed: usize,
    /// Run-level checks that failed (trace shape, count repeats).
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.problems.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The outcomes of a sequence of operations `0..walls.len()`.
#[derive(Default)]
struct Ops {
    walls: Vec<f64>,
    results: Vec<Result<Op, String>>,
}

impl Ops {
    fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.is_err()).count()
    }

    fn ok(&self) -> impl Iterator<Item = (f64, &Op)> {
        self.walls
            .iter()
            .zip(&self.results)
            .filter_map(|(&w, r)| r.as_ref().ok().map(|op| (w, op)))
    }

    /// Records one operation and returns its wall time.
    fn push(&mut self, (wall, result): (f64, Result<Op, String>)) -> f64 {
        self.walls.push(wall);
        self.results.push(result);
        wall
    }

    fn counts(&self, n: usize) -> Counts {
        let mut c = Counts::default();
        for op in self.results.iter().take(n).flatten() {
            c += op.counts;
        }
        c
    }
}

/// Runs operation `index`, turning a panic into a failed operation.
fn run_op<W: Workload>(w: &W, index: usize) -> (f64, Result<Op, String>) {
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| w.op(index)))
        .unwrap_or_else(|_| Err(format!("operation {index} panicked")));
    (start.elapsed().as_secs_f64(), result)
}

/// Closed loop: runs `step(i)` for `i = 0, 1, …` while the next step is
/// predicted (from the median step so far) to end within `budget` seconds,
/// and until at least `min_steps` have run. `step` returns its wall time.
fn closed_loop(budget: f64, min_steps: usize, mut step: impl FnMut(usize) -> f64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        let n = walls.len();
        let elapsed = start.elapsed().as_secs_f64();
        if n >= min_steps && (n > 0 && elapsed + median(&walls) > budget || elapsed >= budget) {
            return;
        }
        walls.push(step(n));
    }
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (0 for no samples).
fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn setup<W: Workload>(seed: u64) -> Result<(W, f64), String> {
    let mut walls = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        built = Some(W::setup(seed)?);
        walls.push(t.elapsed().as_secs_f64());
    }
    Ok((built.expect("SETUP_REPS > 0"), median(&walls)))
}

fn report_failures(ops: &Ops) {
    for (i, r) in ops.results.iter().enumerate() {
        if let Err(e) = r {
            eprintln!("perfbench: operation {i} failed: {e}");
        }
    }
}

fn end_to_end<W: Workload>(w: &W, setup_s: f64, seconds: f64) -> Report {
    let mut ops = Ops::default();
    closed_loop(seconds, W::SAMPLE, |i| ops.push(run_op(w, i)));
    report_failures(&ops);
    let walls: Vec<f64> = ops.ok().map(|(wall, _)| wall).collect();
    let ratios: Vec<f64> = ops.results[..W::SAMPLE]
        .iter()
        .flatten()
        .map(|op| op.makespan_ratio)
        .collect();
    println!(
        "# {} ops ({}), {} failed; {} threads available",
        ops.walls.len(),
        W::OP,
        ops.failed(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    Report {
        attempted: ops.walls.len(),
        failed: ops.failed(),
        problems: Vec::new(),
        metrics: vec![
            metric("setup_s", setup_s, "s"),
            metric("op_s_p50", median(&walls), "s"),
            metric("op_s_p90", quantile(&walls, 0.9), "s"),
            metric("makespan_ratio", median(&ratios), "ratio"),
        ],
    }
}

/// Each operation runs untraced and then traced, back to back, so both runs
/// see the same machine state and `trace_overhead` compares like with like.
/// Counts come from the first `W::SAMPLE` operations.
fn traced<W: Workload>(w: &W, seconds: f64) -> Report {
    let k = W::SAMPLE;
    let (mut untraced, mut traced) = (Ops::default(), Ops::default());
    let mut sample = None;
    a2a_obs::reset();
    closed_loop(seconds, k, |i| {
        let wall = untraced.push(run_op(w, i));
        a2a_obs::enable();
        let traced_wall = traced.push(run_op(w, i));
        a2a_obs::disable();
        if i + 1 == k {
            sample = Some(a2a_obs::flush());
        }
        wall + traced_wall
    });
    let sample = sample.expect("the loop runs at least the count sample");
    let rest = a2a_obs::flush();
    let n = untraced.walls.len();
    let mut problems = Vec::new();

    let (sample_attr, attribution) = match (
        Attribution::of(&sample, "bench.check"),
        Attribution::of(&rest, "bench.check"),
    ) {
        (Ok(s), Ok(mut all)) => {
            all.merge(s.clone());
            (s, all)
        }
        (Err(e), _) | (_, Err(e)) => {
            problems.push(format!("trace: {e}"));
            Default::default()
        }
    };
    let pricing_speedup = match w.serial_pricing_s() {
        None => 0.0,
        Some(Err(e)) => {
            problems.push(format!("serial-pricing pass: {e}"));
            0.0
        }
        Some(Ok(serial)) => match untraced.results.first() {
            Some(Ok(op)) if op.pricing_s > 0.0 => serial / op.pricing_s,
            _ => 0.0,
        },
    };

    report_failures(&untraced);
    report_failures(&traced);
    let (cu, ct) = (untraced.counts(k), traced.counts(k));
    if cu != ct {
        problems.push(format!(
            "counts differ between the untraced and the traced run: {cu:?} vs {ct:?}"
        ));
    }

    let per_op = 1.0 / n as f64;
    let wall: f64 = traced.walls.iter().sum();
    let untraced_wall: f64 = untraced.walls.iter().sum();
    let unattributed = wall - attribution.total_self_s();
    // Self times of the benchmark thread lie inside the operations' windows.
    if unattributed < -1e-6 * n as f64 {
        problems.push(format!(
            "spans cover {}s more than the traced wall",
            -unattributed
        ));
    }
    let layers: f64 = LAYERS.iter().map(|l| attribution.layer_s(l)).sum();
    if (layers + unattributed - wall).abs() > 1e-9 * wall.max(1.0) {
        problems.push(format!(
            "layer self times {layers}s + unattributed {unattributed}s != traced wall {wall}s"
        ));
    }

    let per_sample = 1.0 / k as f64;
    let sampled = |c: &str| counter(&sample, c) as f64 * per_sample;
    let priced = sample_attr.spans("colgen.price_source");
    let added = counter(&sample, "colgen.columns_added");
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let a = &attribution;
    let s = |names: &[&str]| a.self_s(names) * per_op;
    let incl = |names: &[&str]| a.inclusive_s(names) * per_op;

    println!(
        "# {n} ops run untraced and traced ({}); counts over the first {k}; {} failed",
        W::OP,
        untraced.failed() + traced.failed()
    );
    let metrics = vec![
        metric("trace.wall_s", wall * per_op, "s"),
        metric("unattributed_s", unattributed * per_op, "s"),
        metric("trace_overhead", wall / untraced_wall, "ratio"),
        metric("topology.build_s", a.layer_s("topology") * per_op, "s"),
        metric("mcf.self_s", a.layer_s("mcf") * per_op, "s"),
        metric("lp.self_s", a.layer_s("lp") * per_op, "s"),
        metric("schedule.self_s", a.layer_s("schedule") * per_op, "s"),
        metric("simnet.self_s", a.layer_s("simnet") * per_op, "s"),
        metric("bench.check_s", a.layer_s("bench") * per_op, "s"),
        metric("mcf.solve_s", incl(&["mcf.solve_path", TSMCF_SOLVE]), "s"),
        metric("mcf.colgen.master_s", s(&["colgen.master"]), "s"),
        metric(
            "mcf.colgen.pricing_s",
            s(&["colgen.pricing", "colgen.price_source"]),
            "s",
        ),
        metric("lp.lu.factor_s", s(&["lp.lu.factor"]), "s"),
        metric("lp.lu.ftran_s", s(&["lp.lu.ftran"]), "s"),
        metric("lp.lu.btran_s", s(&["lp.lu.btran"]), "s"),
        metric("lp.lu.ft_update_s", s(&["lp.lu.ft_update"]), "s"),
        metric(
            "lp.simplex_s",
            s(&["lp.phase1", "lp.phase2", "lp.dual"]),
            "s",
        ),
        metric("schedule.lower_s", incl(&["schedule.lower"]), "s"),
        metric("schedule.validate_s", incl(&["schedule.validate"]), "s"),
        metric("schedule.xml_s", incl(&["schedule.xml"]), "s"),
        metric("simnet.sync_s", incl(&["simnet.sync"]), "s"),
        metric("simnet.dep_s", incl(&["simnet.dep"]), "s"),
        metric("simnet.replan.detect_s", incl(&["replan.detect"]), "s"),
        metric("simnet.replan.resolve_s", incl(&["replan.resolve"]), "s"),
        metric("simnet.replan.splice_s", incl(&["replan.splice"]), "s"),
        metric("mcf.colgen.rounds", sampled("colgen.rounds"), "count"),
        metric("mcf.colgen.columns", added as f64 * per_sample, "count"),
        metric(
            "mcf.master_iterations",
            cu.master_iterations as f64 * per_sample,
            "count",
        ),
        metric("lp.iterations", sampled("lp.iterations"), "count"),
        metric(
            "lp.refactorizations",
            sampled("lp.refactorizations"),
            "count",
        ),
        metric("mcf.colgen.useful_ratio", ratio(added, priced), "ratio"),
        metric("mcf.colgen.pricing_speedup", pricing_speedup, "ratio"),
        metric(
            "mcf.tsmcf.dense_share",
            ratio(
                sample_attr.tsmcf_solves - sample_attr.tsmcf_colgen_solves,
                sample_attr.tsmcf_solves,
            ),
            "ratio",
        ),
        metric("schedule.routes", cu.routes as f64 * per_sample, "count"),
        metric(
            "schedule.transfers",
            cu.transfers as f64 * per_sample,
            "count",
        ),
        metric(
            "schedule.xml_bytes",
            cu.xml_bytes as f64 * per_sample,
            "bytes",
        ),
        metric("simnet.jobs", cu.jobs as f64 * per_sample, "count"),
        metric(
            "simnet.replan.warm_seeds",
            cu.warm_seeds as f64 * per_sample,
            "count",
        ),
    ];
    Report {
        attempted: 2 * n,
        failed: untraced.failed() + traced.failed(),
        problems,
        metrics,
    }
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let (w, setup_s) = setup::<W>(args.seed)?;
    let mut report = if args.trace {
        traced(&w, args.seconds)
    } else {
        end_to_end(&w, setup_s, args.seconds)
    };
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report.problems.push(format!("{} is not finite", m.name));
            m.value = 0.0;
        }
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "route-plan" => run::<RoutePlan>(&args),
        "ts-plan" => run::<TsPlan>(&args),
        "replan" => run::<Replan>(&args),
        "sim-whatif" => run::<SimWhatIf>(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            for p in &report.problems {
                eprintln!("perfbench: check failed: {p}");
            }
            for m in &report.metrics {
                println!("{:<28} {:>16.9} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
