//! The workloads. Each one times a stream of jobs, checks every distinct
//! job output outside the timed sections, and reports the end-to-end
//! metrics.

use std::collections::hash_map::{DefaultHasher, Entry, HashMap};
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use br_adaptive::{AdaptOptions, AdaptiveRuntime};
use br_ir::Module;
use br_minic::HeuristicSet;
use br_vm::ExecStats;
use br_workloads::{InputSpec, Workload};

use crate::check::{self, Behaviour};
use crate::pipeline::{self, Config};
use crate::stats::{geomean, median, percentile};
use crate::Report;

/// Training input bytes per pipeline job (the ROADMAP baseline's size).
pub const TRAIN_SIZE: usize = 4096;
/// Held-out test input bytes per program.
pub const TEST_SIZE: usize = 4096;
/// Bytes per phase (and of the training input) of an `adapt` job.
pub const PHASE_SIZE: usize = 32 * 1024;
/// Set-up repetitions (the median is reported).
const SETUPS: usize = 21;

/// Arguments shared by every workload.
pub struct Args {
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// The `brc` binary (for the traced run's cluster).
    pub brc: PathBuf,
    /// This run's scratch directory.
    pub work: PathBuf,
}

/// A seed for input `index` of a stream, mixed from the run's seed.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut x = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5851_f42d_4c95_7f2d;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x
}

/// A held-out test input for a program, drawn from the run's seed.
pub fn test_input(w: &Workload, seed: u64) -> Vec<u8> {
    InputSpec::new(w.test.kind, w.test.seed ^ mix(seed, 0xbeef)).generate(TEST_SIZE)
}

/// A 64-bit digest of a job output, to recognise outputs already checked
/// without keeping them.
fn digest(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Deployed-over-unreordered ratios of one job.
#[derive(Clone, Copy, Debug)]
struct Ratios {
    insts: f64,
    taken: f64,
    code: f64,
}

impl Ratios {
    fn of(deployed: &ExecStats, original: &ExecStats, deployed_size: usize, size: usize) -> Ratios {
        Ratios {
            insts: deployed.insts as f64 / original.insts as f64,
            taken: deployed.taken_branches as f64 / original.taken_branches.max(1) as f64,
            code: deployed_size as f64 / size as f64,
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `timed` is the
/// time spent inside the timed jobs.
fn end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    latency_ms: &[f64],
    timed: Duration,
    peak_rss_mb: f64,
    ratios: &[Ratios],
) {
    let gm = |f: fn(&Ratios) -> f64| geomean(&ratios.iter().map(f).collect::<Vec<_>>());
    report.metric("setup_s", median(setup_s).unwrap_or(0.0), "s");
    report.metric(
        "jobs_per_s",
        (latency_ms.len() - report.failed as usize) as f64 / timed.as_secs_f64(),
        "jobs/s",
    );
    report.metric(
        "job_p50_ms",
        percentile(latency_ms, 50.0).unwrap_or(0.0),
        "ms",
    );
    report.metric(
        "job_p90_ms",
        percentile(latency_ms, 90.0).unwrap_or(0.0),
        "ms",
    );
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    report.metric("insts_ratio", gm(|r| r.insts).unwrap_or(0.0), "ratio");
    report.metric("taken_ratio", gm(|r| r.taken).unwrap_or(0.0), "ratio");
    report.metric("code_growth", gm(|r| r.code).unwrap_or(0.0), "ratio");
}

/// Time `f` `n` times and return the seconds of each, with the last
/// result. Each result is dropped before the next is built, so set-up
/// never holds two generations of inputs.
fn repeat_setup<T>(
    n: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        drop(last.take());
        let t = Instant::now();
        let value = f()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((times, last.expect("at least one set-up")))
}

/// This process's peak resident memory after the timed jobs, logged
/// beside the peak right after set-up.
fn peak_rss(workload: &str, after_setup: f64) -> f64 {
    let rss = crate::rss::self_peak_mb();
    eprintln!("{workload}: peak RSS {after_setup:.1} MB after set-up, {rss:.1} MB after the jobs");
    rss
}

/// Check a deployed module against the unreordered one on a test
/// input; `wc` is also checked against the benchmark's own counts.
fn check_job(
    w: &Workload,
    expected: &Behaviour,
    original: &ExecStats,
    original_size: usize,
    deployed: &Module,
    input: &[u8],
) -> Result<Ratios, String> {
    let stats = check::check_deployed(expected, deployed, input)?;
    if w.name == "wc" {
        check::check_wc(input, &expected.output)?;
    }
    Ok(Ratios::of(
        &stats,
        original,
        deployed.static_size(),
        original_size,
    ))
}

/// Training inputs per pipeline configuration: a round of the
/// `pipeline` workload is `POOL` distinct jobs per configuration.
pub const POOL: usize = 12;

/// The configuration left out of the `pipeline` stream: whether the
/// independent checker accepts ptx's Set II certificates depends on the
/// training bytes (4 to 10 of a seed's 12 inputs are rejected), so its
/// failed jobs would be another share of every run. The traced run and
/// the tests still run it.
pub const LEFT_OUT: (&str, &str) = ("ptx", "II");

/// The configurations of the `pipeline` workload: all 34 but
/// [`LEFT_OUT`].
pub fn pipeline_configs() -> Vec<Config> {
    Config::all()
        .into_iter()
        .filter(|c| (c.workload.name, c.set.name) != LEFT_OUT)
        .collect()
}

/// The training input of variant `k` of a pipeline configuration.
pub fn pipeline_training(c: &Config, seed: u64, k: usize) -> Vec<u8> {
    let spec = c.workload.training;
    InputSpec::new(spec.kind, spec.seed ^ mix(seed, k as u64)).generate(TRAIN_SIZE)
}

/// `pipeline`: closed-loop rounds over the pipeline configurations, each
/// with `POOL` seeded training inputs, in process. Every distinct output
/// of a job (printed module and certificates) is checked once, right
/// after the job and outside its timing: behaviour against the reference
/// interpreter, then every certificate against the independent checker.
/// A job whose certificate is rejected counts as failed.
pub fn pipeline(args: &Args) -> Result<Report, String> {
    let configs = pipeline_configs();
    let (setup, (trains, tests)) = repeat_setup(SETUPS, || {
        let trains: Vec<Vec<u8>> = (0..POOL * configs.len())
            .map(|j| pipeline_training(&configs[j % configs.len()], args.seed, j / configs.len()))
            .collect();
        let tests: Vec<Vec<u8>> = configs
            .iter()
            .map(|c| test_input(&c.workload, args.seed))
            .collect();
        Ok((trains, tests))
    })?;
    let setup_rss = crate::rss::self_peak_mb();

    let mut report = Report::default();
    let mut latency = Vec::new();
    let mut timed = Duration::ZERO;
    let mut references: Vec<Option<(Behaviour, ExecStats)>> = vec![None; configs.len()];
    // Per job and distinct output: whether its certificates passed.
    let mut verdicts: HashMap<(usize, u64), bool> = HashMap::new();
    let mut ratios: Vec<Option<Ratios>> = vec![None; trains.len()];
    let mut rejected: BTreeMap<String, String> = BTreeMap::new();
    let mut rounds = 0u64;
    while rounds == 0 || timed.as_secs_f64() < args.seconds {
        for (j, train) in trains.iter().enumerate() {
            let ci = j % configs.len();
            let c = &configs[ci];
            let t = Instant::now();
            let out = pipeline::run_job(c, train);
            let elapsed = t.elapsed();
            timed += elapsed;
            latency.push(elapsed.as_secs_f64() * 1e3);
            let out = match out {
                Ok(out) => out,
                Err(e) => {
                    report.failed += 1;
                    eprintln!("pipeline: job failed: {e}");
                    continue;
                }
            };
            let key = (j, digest(&(&out.printed, &out.certificates)));
            let passed = match verdicts.get(&key) {
                Some(&passed) => passed,
                None => {
                    if references[ci].is_none() {
                        references[ci] = Some(check::reference_run(&out.original, &tests[ci])?);
                    }
                    let (expected, stats) = references[ci].as_ref().expect("computed above");
                    let size = out.original.static_size();
                    let checked = check_job(
                        &c.workload,
                        expected,
                        stats,
                        size,
                        &out.deployed,
                        &tests[ci],
                    );
                    let certs =
                        check::check_certificates(out.certificates.iter().map(String::as_str));
                    let passed = match (checked, certs) {
                        (Err(e), _) => {
                            report.problem(format!("{}: {e}", c.label()));
                            true
                        }
                        (Ok(r), Ok(())) => {
                            ratios[j].get_or_insert(r);
                            true
                        }
                        (Ok(_), Err(e)) => {
                            rejected.entry(c.label()).or_insert(e);
                            false
                        }
                    };
                    verdicts.insert(key, passed);
                    passed
                }
            };
            if !passed {
                report.failed += 1;
            }
        }
        rounds += 1;
    }
    let rss = peak_rss("pipeline", setup_rss);
    report.attempted = rounds * trains.len() as u64;
    for (label, e) in &rejected {
        eprintln!("pipeline: {label}: job failed: {e}");
    }
    let ratios: Vec<Ratios> = ratios.into_iter().flatten().collect();
    end_to_end(&mut report, &setup, &latency, timed, rss, &ratios);
    Ok(report)
}

/// One `adapt` input stream: a scenario's program with a training input
/// and its phase inputs.
pub struct AdaptStream {
    /// Scenario name.
    pub scenario: &'static str,
    /// The optimized, unreordered program, shared by the scenario's
    /// streams.
    pub module: Arc<Module>,
    /// Training input.
    pub train: Vec<u8>,
    /// Phase inputs, in stream order.
    pub phases: Vec<Vec<u8>>,
}

/// Input streams per scenario: a round of the `adapt` workload runs
/// every stream under the chain and the opttree setting, 4 x
/// `ADAPT_POOL` distinct jobs.
pub const ADAPT_POOL: usize = 16;

/// `variants` input streams of each scenario, drawn from `seed`.
pub fn adapt_streams(seed: u64, variants: usize) -> Result<Vec<AdaptStream>, String> {
    let scenarios = br_workloads::scenarios();
    let mut modules = Vec::new();
    for s in &scenarios {
        let mut module = br_minic::compile(
            s.source,
            &br_minic::Options::with_heuristics(HeuristicSet::SET_I),
        )
        .map_err(|e| format!("{}: {e}", s.name))?;
        br_opt::optimize(&mut module);
        modules.push(Arc::new(module));
    }
    let mut out = Vec::new();
    for v in 0..variants {
        for (s, module) in scenarios.iter().zip(&modules) {
            let draw = |spec: InputSpec, k: usize| {
                InputSpec::new(spec.kind, spec.seed ^ mix(seed, (v * 16 + k) as u64))
                    .generate(PHASE_SIZE)
            };
            out.push(AdaptStream {
                scenario: s.name,
                module: Arc::clone(module),
                train: draw(s.training, 0),
                phases: s
                    .phases
                    .iter()
                    .enumerate()
                    .map(|(k, p)| draw(p.input, k + 1))
                    .collect(),
            });
        }
    }
    Ok(out)
}

/// What one adaptive job did, for the checks.
#[derive(Clone, Debug, PartialEq, Hash)]
pub struct AdaptRun {
    /// Per phase: behaviour and event counts of the adaptive segment.
    pub segments: Vec<(Behaviour, u64, u64)>,
    /// Static size of the final deployed module.
    pub static_size: usize,
    /// Epochs, swaps, certificate admissions, aborted swaps.
    pub counters: [u64; 4],
}

/// Build the runtime on the stream's training input and run every phase.
pub fn run_adapt_job(stream: &AdaptStream, opt_tree: bool) -> Result<AdaptRun, String> {
    let opts = AdaptOptions {
        opt_tree,
        ..AdaptOptions::default()
    };
    let mut rt = AdaptiveRuntime::new(&stream.module, Some(&stream.train), &opts)
        .map_err(|t| format!("training run trapped: {t}"))?;
    let mut segments = Vec::new();
    for input in &stream.phases {
        let out = rt
            .run_segment(input)
            .map_err(|t| format!("segment trapped: {t}"))?;
        segments.push((
            Behaviour {
                exit: out.exit,
                output: out.output,
            },
            out.stats.insts,
            out.stats.taken_branches,
        ));
    }
    Ok(AdaptRun {
        segments,
        static_size: rt.module().static_size(),
        counters: [
            rt.epochs(),
            rt.swaps(),
            rt.cert_admissions(),
            rt.aborted_swaps(),
        ],
    })
}

/// Check an adaptive job: every segment must behave like the
/// unreordered program under the reference interpreter (`expected`, one
/// entry per phase), and no swap may have been aborted. Returns the
/// job's ratios.
fn check_adapt(
    stream: &AdaptStream,
    run: &AdaptRun,
    expected: &[(Behaviour, ExecStats)],
) -> Result<Ratios, String> {
    if run.counters[3] != 0 {
        return Err(format!("{} aborted swaps", run.counters[3]));
    }
    let (mut insts, mut taken, mut base_insts, mut base_taken) = (0u64, 0u64, 0u64, 0u64);
    for (k, ((got, i, t), (want, stats))) in run.segments.iter().zip(expected).enumerate() {
        check::same_behaviour(want, got).map_err(|e| format!("phase {k}: {e}"))?;
        insts += i;
        taken += t;
        base_insts += stats.insts;
        base_taken += stats.taken_branches;
    }
    Ok(Ratios {
        insts: insts as f64 / base_insts as f64,
        taken: taken as f64 / base_taken.max(1) as f64,
        code: run.static_size as f64 / stream.module.static_size() as f64,
    })
}

/// `adapt`: closed-loop rounds over every stream under the chain and the
/// opttree setting. Every distinct output of a job is checked once,
/// right after the job and outside its timing.
pub fn adapt(args: &Args) -> Result<Report, String> {
    let (setup, streams) = repeat_setup(SETUPS, || adapt_streams(args.seed, ADAPT_POOL))?;
    let setup_rss = crate::rss::self_peak_mb();
    let mut report = Report::default();
    // The reference runs of a stream's phases, kept until both of the
    // stream's jobs have passed.
    let mut references: HashMap<usize, Vec<(Behaviour, ExecStats)>> = HashMap::new();
    let mut checked: HashSet<(usize, u64)> = HashSet::new();
    let mut ratios: Vec<Option<Ratios>> = vec![None; 2 * streams.len()];
    let mut latency = Vec::new();
    let mut timed = Duration::ZERO;
    let mut rounds = 0u64;
    while rounds == 0 || timed.as_secs_f64() < args.seconds {
        for (i, stream) in streams.iter().enumerate() {
            for opt_tree in [false, true] {
                let j = 2 * i + opt_tree as usize;
                let t = Instant::now();
                let run = run_adapt_job(stream, opt_tree);
                let elapsed = t.elapsed();
                timed += elapsed;
                latency.push(elapsed.as_secs_f64() * 1e3);
                let run = match run {
                    Ok(run) => run,
                    Err(e) => {
                        report.failed += 1;
                        eprintln!("adapt: {}: job failed: {e}", stream.scenario);
                        continue;
                    }
                };
                if !checked.insert((j, digest(&run))) {
                    continue;
                }
                if let Entry::Vacant(e) = references.entry(i) {
                    e.insert(
                        stream
                            .phases
                            .iter()
                            .map(|input| check::reference_run(&stream.module, input))
                            .collect::<Result<_, _>>()?,
                    );
                }
                match check_adapt(stream, &run, &references[&i]) {
                    Ok(r) => {
                        ratios[j].get_or_insert(r);
                    }
                    Err(e) => {
                        report.problem(format!("{}/opttree={opt_tree}: {e}", stream.scenario))
                    }
                }
                if ratios[2 * i].is_some() && ratios[2 * i + 1].is_some() {
                    references.remove(&i);
                }
            }
        }
        rounds += 1;
    }
    let rss = peak_rss("adapt", setup_rss);
    report.attempted = rounds * 2 * streams.len() as u64;
    let ratios: Vec<Ratios> = ratios.into_iter().flatten().collect();
    end_to_end(&mut report, &setup, &latency, timed, rss, &ratios);
    Ok(report)
}
