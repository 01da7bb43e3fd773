//! The four workloads: what each builds before the timed loop, what one timed
//! operation does, and the checks every operation must pass. Every call into a
//! layer sits inside a benchmark-side span named `<layer>.<call>`, so the
//! traced run can attribute time per layer without spans inside the crates.

use a2a_mcf::decomposed::solve_decomposed_mcf_among;
use a2a_mcf::tsmcf::minimum_steps;
use a2a_mcf::{
    solve_path_mcf_colgen_among, solve_tsmcf_among, solve_tsmcf_colgen_auto, ColGenOptions,
    CommoditySet,
};
use a2a_schedule::{lower_path_schedule, to_msccl_xml, ChunkedSchedule, LashVariant};
use a2a_simnet::{
    replan_run, simulate_chunked_event, simulate_chunked_timeline, EventReport, EventSimOptions,
    ExecutionModel, IncumbentPool, ReplanOptions, Scenario, ScenarioTimeline, SimParams,
    TimelineRun, SIM_VS_LP_AGREEMENT_WINDOW,
};
use a2a_topology::{generators, EdgeId, Topology};

/// Exact counts an operation's layers return. They depend only on the
/// operation's inputs, so an operation replayed must reproduce them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Colgen master simplex iterations (route-plan, replan).
    pub master_iterations: u64,
    /// Routes of the lowered route tables (route-plan).
    pub routes: u64,
    /// Transfers of the lowered chunked schedules (ts-plan).
    pub transfers: u64,
    /// Bytes of the MSCCL XML programs (ts-plan).
    pub xml_bytes: u64,
    /// Fluid jobs the event engine ran (ts-plan, replan, sim-whatif).
    pub jobs: u64,
    /// Warm-start seeds harvested from the incumbent pool (replan).
    pub warm_seeds: u64,
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, o: Self) {
        self.master_iterations += o.master_iterations;
        self.routes += o.routes;
        self.transfers += o.transfers;
        self.xml_bytes += o.xml_bytes;
        self.jobs += o.jobs;
        self.warm_seeds += o.warm_seeds;
    }
}

/// What one successful operation reports besides its wall time.
#[derive(Clone, Debug, Default)]
pub struct Op {
    /// The workload's makespan ratio for this operation (lower is better):
    /// route-plan optimal ÷ planned concurrent flow (planned ÷ optimal
    /// makespan), ts-plan simulated ÷ LP-bound makespan, replan replanned ÷
    /// nominal makespan, sim-whatif dependency-driven ÷ synchronized makespan.
    /// Plan passes report their worst fabric.
    pub makespan_ratio: f64,
    pub counts: Counts,
    /// Colgen pricing wall inside the operation (route-plan).
    pub pricing_s: f64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// What the timed operation is, for the report header.
    const OP: &'static str;
    /// Leading operations whose counts and makespan ratios are reported. They
    /// get the same inputs in every run of one seed, so those figures repeat
    /// exactly.
    const SAMPLE: usize;
    /// Everything the timed loop needs (timed as `setup_s`).
    fn setup(seed: u64) -> Result<Self, String>;
    /// Timed operation `index`; its inputs depend only on the seed and index.
    fn op(&self, index: usize) -> Result<Op, String>;
    /// Colgen pricing wall of one operation with single-threaded pricing, for
    /// workloads that call colgen with their own options.
    fn serial_pricing_s(&self) -> Option<Result<f64, String>> {
        None
    }
}

/// Runs `f` inside a benchmark-side span named after the layer it calls.
fn layer<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = a2a_obs::span(name);
    f()
}

/// SplitMix64 stream keyed by (seed, stream, index): the benchmark draws every
/// seeded input itself and hands the program only the result.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, stream: u64, index: u64) -> Self {
        let mut d = Draw(seed ^ stream.rotate_left(32));
        d.0 ^= d.next_u64() ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
        d
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Seeded inputs spread evenly over every prefix of the operation sequence.
/// Operation `i` takes item `order[i % n]` of a seeded permutation and point
/// `i` of the golden-ratio sequence from a seeded offset, so any run covers the
/// items and the range about evenly and its medians stay steady across seeds.
struct Strata {
    order: Vec<usize>,
    offset: f64,
}

impl Strata {
    fn new(seed: u64, stream: u64, items: usize) -> Self {
        let mut draw = Draw::new(seed, stream, u64::MAX);
        let mut order: Vec<usize> = (0..items).collect();
        for i in (1..items).rev() {
            order.swap(i, draw.below(i + 1));
        }
        Strata {
            order,
            offset: draw.unit(),
        }
    }

    fn item(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    /// Point `i` of the sequence, scaled to `[lo, hi)`.
    fn point(&self, i: usize, (lo, hi): (f64, f64)) -> f64 {
        const GOLDEN_RATIO_INV: f64 = 0.618_033_988_749_894_9;
        lo + (hi - lo) * (self.offset + i as f64 * GOLDEN_RATIO_INV).fract()
    }
}

/// Evaluates a check inside the `bench.check` span.
fn check(ok: impl FnOnce() -> bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    layer("bench.check", || if ok() { Ok(()) } else { Err(msg()) })
}

fn issues_ok(what: &str, issues: &[String]) -> Result<(), String> {
    check(
        || issues.is_empty(),
        || format!("{what}: {} issues, first: {}", issues.len(), issues[0]),
    )
}

fn simulate(
    name: &'static str,
    topo: &Topology,
    schedule: &ChunkedSchedule,
    shard_bytes: f64,
    model: ExecutionModel,
    scenario: Scenario,
) -> Result<EventReport, String> {
    let options = EventSimOptions { model, scenario };
    layer(name, || {
        simulate_chunked_event(topo, schedule, shard_bytes, &SimParams::default(), &options)
    })
    .map_err(|e| format!("{}: {name}: {e}", topo.name()))
}

// ---------------------------------------------------------------- route-plan

/// Chunk resolution of the lowered route tables.
const ROUTE_CHUNKS: usize = 16;

/// Tolerance on the planned concurrent flow against the decomposed optimum.
const ROUTE_F_REL_TOL: f64 = 1e-6;

/// Cut-through planning on vertex-transitive fabrics of 32–36 endpoints.
fn route_fabrics() -> Vec<Topology> {
    vec![
        generators::torus(&[4, 8]),
        generators::torus(&[6, 6]),
        generators::hypercube(5),
    ]
}

/// route-plan: production path-MCF colgen, then LASH-sequential lowering and
/// route-table validation, for every fabric in one pass. Seed-independent.
pub struct RoutePlan {
    /// Decomposed-MCF optimum `F` per fabric.
    reference: Vec<f64>,
}

impl RoutePlan {
    fn pass(&self, options: &ColGenOptions) -> Result<Op, String> {
        let fabrics = layer("topology.build", route_fabrics);
        let mut op = Op::default();
        for (topo, &f_ref) in fabrics.iter().zip(&self.reference) {
            let name = topo.name();
            let commodities = CommoditySet::all_pairs(topo.num_nodes());
            let solved = layer("mcf.solve_path", || {
                solve_path_mcf_colgen_among(topo, commodities, options)
            })
            .map_err(|e| format!("{name}: path-MCF colgen: {e}"))?;
            let table = layer("schedule.lower", || {
                lower_path_schedule(
                    topo,
                    &solved.schedule,
                    ROUTE_CHUNKS,
                    LashVariant::Sequential,
                )
            });
            let issues = layer("schedule.validate", || table.validate());
            issues_ok(name, &issues)?;
            let f = solved.schedule.flow_value;
            check(
                || solved.stats.proved_optimal,
                || format!("{name}: colgen stopped without its optimality certificate"),
            )?;
            check(
                || (f - f_ref).abs() <= ROUTE_F_REL_TOL * f_ref,
                || format!("{name}: colgen F = {f} vs decomposed optimum {f_ref}"),
            )?;
            op.makespan_ratio = op.makespan_ratio.max(f_ref / f);
            op.counts.master_iterations += solved.stats.total_master_iterations() as u64;
            op.counts.routes += table.total_routes() as u64;
            op.pricing_s += solved.stats.total_pricing_wall_secs();
        }
        Ok(op)
    }
}

impl Workload for RoutePlan {
    const OP: &'static str = "plan pass over torus-4x8, torus-6x6, hypercube-5d";
    const SAMPLE: usize = 1;

    fn setup(_seed: u64) -> Result<Self, String> {
        let reference = route_fabrics()
            .iter()
            .map(|topo| {
                solve_decomposed_mcf_among(topo, CommoditySet::all_pairs(topo.num_nodes()))
                    .map(|d| d.solution.flow_value)
                    .map_err(|e| format!("{}: decomposed reference: {e}", topo.name()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { reference })
    }

    fn op(&self, _index: usize) -> Result<Op, String> {
        self.pass(&ColGenOptions::default())
    }

    fn serial_pricing_s(&self) -> Option<Result<f64, String>> {
        let serial = ColGenOptions {
            pricing_threads: Some(1),
            ..ColGenOptions::default()
        };
        Some(self.pass(&serial).map(|op| op.pricing_s))
    }
}

// ------------------------------------------------------------------- ts-plan

/// Chunk granularity of the lowered ts-plan schedules.
const TS_CHUNKS: usize = 128;

/// Shard size of the simulated ts-plan schedules.
const TS_SHARD_BYTES: f64 = 8.0 * 1024.0 * 1024.0;

const STREAM_RANDOM_REGULAR: u64 = 1;
const STREAM_FAILURE: u64 = 2;
const STREAM_WHATIF: u64 = 3;

/// Store-and-forward fabrics on both sides of the dense/colgen cutover
/// (`DENSE_COLGEN_CUTOVER_VARS`): hypercube-3d and torus-3x3 solve dense,
/// hypercube-4d and the random-regular 16×4 by colgen.
fn ts_fabrics(rr_seed: u64) -> Vec<Topology> {
    vec![
        generators::hypercube(3),
        generators::torus(&[3, 3]),
        generators::hypercube(4),
        generators::random_regular(16, 4, rr_seed),
    ]
}

/// Tolerance on `Σ_t U_t` against the colgen reference optimum (the dense ==
/// colgen tsMCF equivalence of the test suites).
const TS_U_TOL: f64 = 1e-5;

/// ts-plan: auto-dispatching tsMCF, prune, exact chunk lowering, validation,
/// MSCCL XML and a synchronized event simulation, for every fabric in one pass.
pub struct TsPlan {
    rr_seed: u64,
    /// Colgen-certified optimum `Σ_t U_t` per fabric.
    reference: Vec<f64>,
}

impl Workload for TsPlan {
    const OP: &'static str =
        "plan pass over hypercube-3d, torus-3x3, hypercube-4d, random-regular-16-d4";
    const SAMPLE: usize = 1;

    /// Draws the random-regular instance and solves every fabric's reference
    /// optimum by column generation.
    fn setup(seed: u64) -> Result<Self, String> {
        let rr_seed = Draw::new(seed, STREAM_RANDOM_REGULAR, 0).next_u64();
        let reference = ts_fabrics(rr_seed)
            .iter()
            .map(|topo| {
                let cg = solve_tsmcf_colgen_auto(topo)
                    .map_err(|e| format!("{}: colgen reference: {e}", topo.name()))?;
                if !cg.stats.proved_optimal {
                    return Err(format!("{}: colgen reference not certified", topo.name()));
                }
                Ok(cg.solution.total_utilization())
            })
            .collect::<Result<_, _>>()?;
        Ok(Self { rr_seed, reference })
    }

    fn op(&self, _index: usize) -> Result<Op, String> {
        let fabrics = layer("topology.build", || ts_fabrics(self.rr_seed));
        let p = SimParams::default();
        let mut op = Op::default();
        for (topo, &u_ref) in fabrics.iter().zip(&self.reference) {
            let name = topo.name();
            let solution = layer("mcf.solve_tsmcf", || {
                let commodities = CommoditySet::all_pairs(topo.num_nodes());
                let steps = minimum_steps(topo, &commodities)?;
                solve_tsmcf_among(topo, commodities, steps)
            })
            .map_err(|e| format!("{name}: tsMCF: {e}"))?;
            let u = solution.total_utilization();
            check(
                || (u - u_ref).abs() <= TS_U_TOL * (1.0 + u_ref),
                || format!("{name}: tsMCF U = {u} vs colgen reference {u_ref}"),
            )?;
            let pruned = layer("mcf.prune", || solution.pruned(topo));
            let schedule = layer("schedule.lower", || {
                ChunkedSchedule::from_tsmcf_exact(topo, &pruned, TS_CHUNKS)
            })
            .map_err(|e| format!("{name}: lowering: {e}"))?;
            let issues = layer("schedule.validate", || schedule.validate(topo));
            issues_ok(name, &issues)?;
            let xml = layer("schedule.xml", || to_msccl_xml(&schedule, name));
            let report = simulate(
                "simnet.sync",
                topo,
                &schedule,
                TS_SHARD_BYTES,
                ExecutionModel::Synchronized,
                Scenario::nominal(),
            )?;
            let bound = pruned.predicted_completion_seconds(
                TS_SHARD_BYTES,
                p.link_bandwidth_gbps,
                p.step_sync_latency_s,
            );
            let ratio = report.report.completion_seconds / bound;
            let (lo, hi) = SIM_VS_LP_AGREEMENT_WINDOW;
            check(
                || (lo..=hi).contains(&ratio),
                || format!("{name}: simulated ÷ LP bound = {ratio} outside [{lo}, {hi}]"),
            )?;
            op.makespan_ratio = op.makespan_ratio.max(ratio);
            op.counts.transfers += schedule.total_transfers() as u64;
            op.counts.xml_bytes += xml.len() as u64;
            op.counts.jobs += report.num_jobs as u64;
        }
        Ok(op)
    }
}

// -------------------------------------------------------------------- replan

/// Chunk granularity of the nominal replan schedule.
const REPLAN_CHUNKS: usize = 8;

/// Shard size of the replan workload.
const REPLAN_SHARD_BYTES: f64 = 64.0 * 1024.0 * 1024.0;

/// Failure instants, as fractions of the nominal makespan.
const REPLAN_FAILURE_WINDOW: (f64, f64) = (0.15, 0.85);

/// replan: one seeded link failure per operation on the nominal torus-4x4
/// schedule, repaired by `replan_run` warm-started from the incumbent pool.
pub struct Replan {
    topo: Topology,
    schedule: ChunkedSchedule,
    pool: IncumbentPool,
    nominal_s: f64,
    /// Links that carry at least one transfer of the nominal schedule.
    links: Vec<EdgeId>,
    /// Order of the failing links and failure instants.
    strata: Strata,
}

impl Workload for Replan {
    const OP: &'static str = "replan_run after one failure on torus-4x4";
    const SAMPLE: usize = 50;

    fn setup(seed: u64) -> Result<Self, String> {
        let topo = generators::torus(&[4, 4]);
        let cg = solve_tsmcf_colgen_auto(&topo).map_err(|e| format!("nominal solve: {e}"))?;
        let schedule = ChunkedSchedule::from_tsmcf_exact(&topo, &cg.solution, REPLAN_CHUNKS)
            .map_err(|e| format!("nominal lowering: {e}"))?;
        let run = simulate_chunked_timeline(
            &topo,
            &schedule,
            REPLAN_SHARD_BYTES,
            &SimParams::default(),
            &ScenarioTimeline::nominal(),
            ExecutionModel::Synchronized,
        )
        .map_err(|e| format!("nominal run: {e}"))?;
        let TimelineRun::Completed(nominal) = run else {
            return Err("nominal run interrupted without a failure".into());
        };
        let mut links: Vec<EdgeId> = schedule
            .steps
            .iter()
            .flat_map(|s| &s.transfers)
            .filter_map(|t| topo.find_edge(t.from, t.to))
            .collect();
        links.sort_unstable();
        links.dedup();
        let pool = IncumbentPool {
            columns: cg.columns,
            commodities: cg.solution.commodities,
            steps: cg.solution.steps,
        };
        Ok(Self {
            topo,
            schedule,
            pool,
            nominal_s: nominal.report.completion_seconds,
            strata: Strata::new(seed, STREAM_FAILURE, links.len()),
            links,
        })
    }

    fn op(&self, index: usize) -> Result<Op, String> {
        let link = self.links[self.strata.item(index)];
        let at = self.strata.point(index, REPLAN_FAILURE_WINDOW) * self.nominal_s;
        let timeline = ScenarioTimeline::new(Scenario::nominal()).with_link_failure_at(at, link);
        let what = format!("link {link} failing at {at:.6}s");
        let run = layer("simnet.replan", || {
            replan_run(
                &self.topo,
                &self.schedule,
                REPLAN_SHARD_BYTES,
                &SimParams::default(),
                &timeline,
                Some(&self.pool),
                &ReplanOptions::default(),
            )
        })
        .map_err(|e| format!("{what}: {e}"))?;
        let issues = layer("schedule.validate", || run.schedule.validate(&self.topo));
        issues_ok(&what, &issues)?;
        check(
            || run.attempts.iter().all(|a| !a.used_fallback),
            || format!("{what}: repaired by the greedy fallback"),
        )?;
        Ok(Op {
            makespan_ratio: run.completion_seconds() / self.nominal_s,
            counts: Counts {
                master_iterations: run
                    .attempts
                    .iter()
                    .map(|a| a.master_iterations as u64)
                    .sum(),
                warm_seeds: run.attempts.iter().map(|a| a.warm_seeds as u64).sum(),
                jobs: run.report.num_jobs as u64,
                ..Counts::default()
            },
            ..Op::default()
        })
    }
}

// ---------------------------------------------------------------- sim-whatif

/// Chunk granularity of the what-if schedule.
const WHATIF_CHUNKS: usize = 128;

/// Shard size of the what-if workload.
const WHATIF_SHARD_BYTES: f64 = 8.0 * 1024.0 * 1024.0;

/// Links slowed per scenario, and the range of their bandwidth factors.
const WHATIF_SLOW_LINKS: usize = 6;
const WHATIF_SLOWDOWN: (f64, f64) = (0.3, 0.9);

/// Bandwidth factor range of the straggler node.
const WHATIF_STRAGGLER: (f64, f64) = (0.25, 0.75);

/// Per-message α jitter range.
const WHATIF_ALPHA_JITTER: (f64, f64) = (0.5, 2.0);

/// Relative slack of the physical checks on simulated times.
const SIM_TIME_REL_TOL: f64 = 1e-9;

/// sim-whatif: one seeded degradation scenario per operation, simulated under
/// both execution models on a fixed hypercube-4d schedule.
pub struct SimWhatIf {
    seed: u64,
    topo: Topology,
    schedule: ChunkedSchedule,
    /// Fluid jobs of the nominal run; every scenario must run the same jobs.
    jobs: usize,
    /// Order of the straggler nodes and their bandwidth factors.
    strata: Strata,
}

impl SimWhatIf {
    /// Checks a degraded run against bounds that hold whatever the engine's
    /// sharing policy: every link drains its bytes no faster than its nominal
    /// rate, is busy no longer than the run, and runs every job.
    fn check_report(&self, what: &str, report: &EventReport) -> Result<(), String> {
        layer("bench.check", || {
            let t = report.report.completion_seconds;
            let bw = SimParams::default().link_bandwidth_gbps * 1e9;
            let drain = self
                .topo
                .edges()
                .iter()
                .zip(&report.per_link)
                .map(|(e, u)| u.bytes / (bw * e.capacity))
                .fold(0.0, f64::max);
            let busiest = report
                .per_link
                .iter()
                .map(|u| u.busy_secs)
                .fold(0.0, f64::max);
            if t.is_finite()
                && t >= drain * (1.0 - SIM_TIME_REL_TOL)
                && busiest <= t * (1.0 + SIM_TIME_REL_TOL)
                && report.num_jobs == self.jobs
            {
                return Ok(());
            }
            Err(format!(
                "{what}: makespan {t}s, busiest link {busiest}s, nominal drain {drain}s, \
                 {} of {} jobs",
                report.num_jobs, self.jobs
            ))
        })
    }
}

impl Workload for SimWhatIf {
    const OP: &'static str = "what-if scenario on hypercube-4d, synchronized + dependency-driven";
    const SAMPLE: usize = 50;

    fn setup(seed: u64) -> Result<Self, String> {
        let topo = generators::hypercube(4);
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        let steps = minimum_steps(&topo, &commodities).map_err(|e| e.to_string())?;
        let solution = solve_tsmcf_among(&topo, commodities, steps)
            .map_err(|e| format!("what-if plan: {e}"))?
            .pruned(&topo);
        let schedule = ChunkedSchedule::from_tsmcf_exact(&topo, &solution, WHATIF_CHUNKS)
            .map_err(|e| format!("what-if lowering: {e}"))?;
        let nominal = simulate_chunked_event(
            &topo,
            &schedule,
            WHATIF_SHARD_BYTES,
            &SimParams::default(),
            &EventSimOptions::default(),
        )
        .map_err(|e| format!("nominal what-if run: {e}"))?;
        Ok(Self {
            seed,
            jobs: nominal.num_jobs,
            strata: Strata::new(seed, STREAM_WHATIF, topo.num_nodes()),
            topo,
            schedule,
        })
    }

    fn op(&self, index: usize) -> Result<Op, String> {
        let mut draw = Draw::new(self.seed, STREAM_WHATIF, index as u64);
        let (slow_seed, jitter_seed) = (draw.next_u64(), draw.next_u64());
        let straggler = self.strata.item(index);
        let factor = self.strata.point(index, WHATIF_STRAGGLER);
        let scenario = layer("simnet.scenario", || {
            let (lo, hi) = WHATIF_SLOWDOWN;
            let (jlo, jhi) = WHATIF_ALPHA_JITTER;
            Scenario::seeded_slowdowns(&self.topo, slow_seed, WHATIF_SLOW_LINKS, lo, hi)
                .with_straggler(straggler, factor)
                .with_alpha_jitter(jitter_seed, jlo, jhi)
        });
        let what = format!("what-if {index}");
        let sync = simulate(
            "simnet.sync",
            &self.topo,
            &self.schedule,
            WHATIF_SHARD_BYTES,
            ExecutionModel::Synchronized,
            scenario.clone(),
        )?;
        let dep = simulate(
            "simnet.dep",
            &self.topo,
            &self.schedule,
            WHATIF_SHARD_BYTES,
            ExecutionModel::DependencyDriven,
            scenario,
        )?;
        self.check_report(&format!("{what} synchronized"), &sync)?;
        self.check_report(&format!("{what} dependency-driven"), &dep)?;
        Ok(Op {
            makespan_ratio: dep.report.completion_seconds / sync.report.completion_seconds,
            counts: Counts {
                jobs: (sync.num_jobs + dep.num_jobs) as u64,
                ..Counts::default()
            },
            ..Op::default()
        })
    }
}
