//! The traced run: per-layer self times and counts, measured with
//! spans around calls into each layer's public API.
//!
//! Times of the pipeline stages are summed over the 34 pipeline jobs of
//! one round (the median round is reported); the other probes report
//! the median of their samples, or a sum over the 17 programs where the
//! name says so in `README.md`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use br_ir::{print_module, Module};
use br_reorder::reorder_module_with_inputs;
use br_serve::endpoints::Endpoints;
use br_serve::proto::{Frame, Section};
use br_serve::proto2::{self, Client2};
use br_sweep::cache::ArtifactCache;
use br_vm::{EpochHook, Image, PredictorConfig, Scheme, VmOptions};
use br_workloads::InputSpec;

use crate::check;
use crate::pipeline::{self, Config};
use crate::serve::{self, Cluster, Request};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, Args};
use crate::Report;

/// Traced pipeline rounds (each runs all 34 jobs traced and untraced).
const ROUNDS: usize = 5;
/// Repetitions of each VM and cache probe.
const REPS: usize = 5;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// An epoch hook that never changes the module.
struct Idle;

impl EpochHook for Idle {
    fn on_epoch(&mut self, _: &mut Module, _: &mut [Vec<u64>]) -> bool {
        false
    }
}

/// Run every probe and report each per-layer metric.
pub fn traced(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let spans = args.work.join("spans.txt");
    let configs = Config::all();

    // workloads: training input generation for the 34 pipeline jobs.
    let mut gen = Vec::new();
    let mut trains = Vec::new();
    for _ in 0..ROUNDS {
        let t = Instant::now();
        trains = configs
            .iter()
            .map(|c| workloads::pipeline_training(c, args.seed, 0))
            .collect();
        gen.push(ms(t.elapsed()));
    }

    // Pipeline: untraced and traced replay of the same jobs, alternating
    // which goes first; the replay must print byte-identical modules.
    let mut stage_ms: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut counts = BTreeMap::new();
    let mut certificates = Vec::new();
    for round in 0..ROUNDS {
        let mut t = Tracer::default();
        let (mut plain_time, mut traced_time) = (Duration::ZERO, Duration::ZERO);
        let mut traced_out = Vec::new();
        for pass in 0..2 {
            if (pass + round) % 2 == 0 {
                let start = Instant::now();
                for (c, train) in configs.iter().zip(&trains) {
                    pipeline::run_job(c, train)?;
                }
                plain_time = start.elapsed();
            } else {
                let start = Instant::now();
                for (i, (c, train)) in configs.iter().zip(&trains).enumerate() {
                    t.set_job(i as u64);
                    traced_out.push(pipeline::run_job_traced(&mut t, c, train)?);
                }
                traced_time = start.elapsed();
            }
        }
        report.attempted += 2 * configs.len() as u64;
        // The replay must print what `reorder_module_with_inputs` prints
        // for the same optimized module. Both start from the traced job's
        // module because `br_opt::optimize` does not always print the
        // same bytes twice.
        for ((c, train), traced) in configs.iter().zip(&trains).zip(&traced_out) {
            let direct = reorder_module_with_inputs(&traced.original, &[train], &c.options())
                .map_err(|e| format!("{}: training run trapped: {e}", c.label()))?;
            if print_module(&direct.module) != traced.printed {
                report.problem(format!(
                    "{}: the traced replay printed a different module",
                    c.label()
                ));
            }
        }
        plain_ms.push(ms(plain_time));
        traced_ms.push(ms(traced_time));
        for (name, d) in t.self_times() {
            stage_ms.entry(name).or_default().push(ms(d));
        }
        counts = t.counts().clone();
        t.write(&spans, round > 0)
            .map_err(|e| format!("write spans: {e}"))?;
        certificates = traced_out
            .into_iter()
            .flat_map(|o| o.certificates)
            .collect();
    }
    for name in [
        "minic.compile",
        "opt.optimize",
        "opt.cleanup",
        "reorder.detect",
        "reorder.instrument",
        "vm.train",
        "reorder.plan",
        "reorder.emit",
        "analysis.certify",
        "vm.reprofile",
        "layout.exttsp",
        "analysis.check_layout",
        "ir.verify",
        "ir.print",
        "ir.parse",
    ] {
        let value = stage_ms.get(name).and_then(|v| median(v)).unwrap_or(0.0);
        report.metric(format!("{name}_ms"), value, "ms");
    }
    for name in [
        "reorder.sequences",
        "reorder.reordered",
        "reorder.dispatch_trees",
        "reorder.dispatch_tables",
        "analysis.certificates",
        "layout.functions_applied",
    ] {
        report.metric(name, counts.get(name).copied().unwrap_or(0) as f64, "count");
    }
    let minst = |name| counts.get(name).copied().unwrap_or(0) as f64 / 1e6;
    report.metric("vm.train_minst", minst("vm.train_insts"), "Minst");
    report.metric("vm.reprofile_minst", minst("vm.reprofile_insts"), "Minst");

    let mut probe = Tracer::default();
    // The independent certificate checker, per certificate.
    let mut rejected = 0;
    for _ in 0..REPS {
        for c in &certificates {
            rejected += probe
                .span("analysis.cert_check", |_| br_analysis::cert::check(c))
                .is_err() as usize;
        }
    }
    eprintln!(
        "traced: {} of {} certificates rejected by the independent checker",
        rejected / REPS,
        certificates.len()
    );
    report.metric(
        "analysis.cert_check_us",
        median_of(&probe, "analysis.cert_check", us),
        "us",
    );

    vm_probes(&mut report, &mut probe, args.seed)?;
    adaptive_probes(&mut report, &mut probe, args.seed)?;
    sweep_probes(&mut report, args)?;
    serve_probes(&mut report, &mut probe, args)?;

    report.metric("workloads.input_gen_ms", median(&gen).unwrap_or(0.0), "ms");
    let overhead = median(&traced_ms).unwrap_or(0.0) / median(&plain_ms).unwrap_or(1.0);
    report.metric("trace.overhead_ratio", overhead, "ratio");
    probe
        .write(&spans, true)
        .map_err(|e| format!("write spans: {e}"))?;
    Ok(report)
}

/// Median duration of the spans called `name`, converted by `unit`.
fn median_of(t: &Tracer, name: &str, unit: fn(Duration) -> f64) -> f64 {
    median(&t.durations(name).into_iter().map(unit).collect::<Vec<_>>()).unwrap_or(0.0)
}

/// Per-round sums of the spans called `name` over `per_round`
/// consecutive spans, median round, converted by `unit`.
fn median_round(t: &Tracer, name: &str, per_round: usize, unit: fn(Duration) -> f64) -> f64 {
    let rounds: Vec<f64> = t
        .durations(name)
        .chunks(per_round)
        .map(|c| unit(c.iter().sum()))
        .collect();
    median(&rounds).unwrap_or(0.0)
}

/// The VM on the 17 programs under Set II and their test inputs.
fn vm_probes(report: &mut Report, t: &mut Tracer, seed: u64) -> Result<(), String> {
    let programs = br_workloads::all();
    let mut modules = Vec::new();
    let mut tests = Vec::new();
    for w in &programs {
        modules.push(pipeline::build(w, br_minic::HeuristicSet::SET_II)?);
        tests.push(workloads::test_input(w, seed));
    }
    let opts = VmOptions::default();
    let mut predictors = PredictorConfig::sweep(Scheme::OneBit);
    predictors.extend(PredictorConfig::sweep(Scheme::TwoBit));
    let predicted = VmOptions {
        predictors,
        ..VmOptions::default()
    };
    let hooked_opts = VmOptions {
        epoch_blocks: 1_000,
        ..VmOptions::default()
    };
    let (mut image_insts, mut hooked_insts) = (0u64, 0u64);
    for _ in 0..REPS {
        for (m, input) in modules.iter().zip(&tests) {
            let image = t.span("vm.decode", |_| Image::decode(m));
            let out = t
                .span("vm.image", |_| br_vm::run_image(&image, input, &opts))
                .map_err(|e| format!("run_image trapped: {e}"))?;
            image_insts += out.stats.insts;
            t.span("vm.empty_run", |_| br_vm::run(m, b"", &opts))
                .map_err(|e| format!("empty run trapped: {e}"))?;
            t.span("vm.measure_plain", |_| br_vm::run(m, input, &opts))
                .map_err(|e| format!("measure run trapped: {e}"))?;
            t.span("vm.measure_predicted", |_| br_vm::run(m, input, &predicted))
                .map_err(|e| format!("predictor run trapped: {e}"))?;
            let mut hooked = m.clone();
            let out = t
                .span("vm.hooked", |_| {
                    br_vm::run_hooked(&mut hooked, input, &hooked_opts, &mut Idle)
                })
                .map_err(|e| format!("run_hooked trapped: {e}"))?;
            hooked_insts += out.stats.insts;
        }
    }
    let n = modules.len();
    let total = |name| t.durations(name).iter().sum::<Duration>().as_secs_f64();
    report.metric(
        "vm.image_minst_per_s",
        image_insts as f64 / 1e6 / total("vm.image"),
        "Minst/s",
    );
    report.metric("vm.decode_us", median_round(t, "vm.decode", n, us), "us");
    report.metric("vm.empty_run_us", median_of(t, "vm.empty_run", us), "us");
    let predictor =
        median_round(t, "vm.measure_predicted", n, ms) - median_round(t, "vm.measure_plain", n, ms);
    report.metric("vm.predictor_ms", predictor, "ms");
    report.metric(
        "vm.hooked_minst_per_s",
        hooked_insts as f64 / 1e6 / total("vm.hooked"),
        "Minst/s",
    );
    Ok(())
}

/// The adaptive runtime on the four `adapt` jobs of one stream per
/// scenario.
fn adaptive_probes(report: &mut Report, t: &mut Tracer, seed: u64) -> Result<(), String> {
    let streams = workloads::adapt_streams(seed, 1)?;
    let mut counters = [0u64; 4];
    for (stream, opt_tree) in streams.iter().flat_map(|s| [false, true].map(|o| (s, o))) {
        let opts = br_adaptive::AdaptOptions {
            opt_tree,
            ..br_adaptive::AdaptOptions::default()
        };
        let mut rt = t
            .span("adaptive.train", |_| {
                br_adaptive::AdaptiveRuntime::new(&stream.module, Some(&stream.train), &opts)
            })
            .map_err(|e| format!("adaptive training trapped: {e}"))?;
        t.span("adaptive.segments", |_| {
            for input in &stream.phases {
                rt.run_segment(input)
                    .map_err(|e| format!("segment trapped: {e}"))?;
            }
            Ok::<_, String>(())
        })?;
        for (c, v) in counters.iter_mut().zip([
            rt.epochs(),
            rt.swaps(),
            rt.cert_admissions(),
            rt.aborted_swaps(),
        ]) {
            *c += v;
        }
    }
    let sum_ms = |name| ms(t.durations(name).iter().sum());
    report.metric("adaptive.train_ms", sum_ms("adaptive.train"), "ms");
    report.metric("adaptive.segment_ms", sum_ms("adaptive.segments"), "ms");
    for (name, v) in [
        "adaptive.epochs",
        "adaptive.swaps",
        "adaptive.cert_admissions",
        "adaptive.aborted_swaps",
    ]
    .into_iter()
    .zip(counters)
    {
        report.metric(name, v as f64, "count");
    }
    Ok(())
}

/// The sweep engine on its smoke grid with both layouts, two threads,
/// no cache.
fn sweep_probes(report: &mut Report, args: &Args) -> Result<(), String> {
    let out = serve::fresh_dir(args.work.join("trace-sweep"))?;
    let config = br_sweep::SweepConfig {
        layouts: vec![br_layout::LayoutMode::Greedy, br_layout::LayoutMode::ExtTsp],
        out_dir: out,
        cache_dir: None,
        ..br_sweep::SweepConfig::smoke()
    };
    let outcome = br_sweep::run_sweep(&config).map_err(|e| e.to_string())?;
    if !outcome.failed.is_empty() {
        report.problem(format!(
            "smoke sweep: {} cells failed",
            outcome.failed.len()
        ));
    }
    let reorder: Duration = outcome.metrics.iter().map(|m| m.reorder_time).sum();
    let measure: Duration = outcome.metrics.iter().map(|m| m.measure_time).sum();
    report.metric("sweep.reorder_stage_ms", ms(reorder), "ms");
    report.metric("sweep.measure_stage_ms", ms(measure), "ms");
    let busy =
        (reorder + measure).as_secs_f64() / (outcome.elapsed.as_secs_f64() * config.threads as f64);
    report.metric("sweep.busy_ratio", busy, "ratio");
    Ok(())
}

/// Training input bytes per served `reorder` request.
const SERVE_TRAIN_SIZE: usize = 2048;

/// `reorder` requests for the 17 programs under Set II, each with a
/// training input drawn from `salt`.
fn requests(seed: u64, salt: u64) -> Result<Vec<(Frame, Request)>, String> {
    let mut out = Vec::new();
    for (i, w) in br_workloads::all().iter().enumerate() {
        let module = pipeline::build(w, br_minic::HeuristicSet::SET_II)?;
        let text: Arc<String> = print_module(&module).into();
        let train = InputSpec::new(w.training.kind, workloads::mix(seed, salt + i as u64))
            .generate(SERVE_TRAIN_SIZE);
        let frame = Frame::structured(
            "reorder",
            &[
                Section {
                    name: "module",
                    bytes: text.as_bytes(),
                },
                Section {
                    name: "train",
                    bytes: &train,
                },
            ],
        );
        let request = Request {
            kind: proto2::kind::REORDER,
            modules: vec![proto2::ModuleRef::new(proto2::sec::MODULE, text)],
            plain: vec![(proto2::sec::TRAIN, train)],
        };
        out.push((frame, request));
    }
    Ok(out)
}

/// Serve endpoints in process, the response cache, then the same
/// requests over brs2 straight to a shard and through the router.
fn serve_probes(report: &mut Report, t: &mut Tracer, args: &Args) -> Result<(), String> {
    let reqs = requests(args.seed, 3_000_000)?;
    let metrics = Arc::new(br_serve::metrics::Metrics::default());
    let cold = Endpoints::new(None, Arc::clone(&metrics)).map_err(|e| e.to_string())?;
    let cache_dir = serve::fresh_dir(args.work.join("trace-endpoints"))?;
    let warm = Endpoints::new(Some(&cache_dir), metrics).map_err(|e| e.to_string())?;
    let mut payloads = Vec::new();
    for (frame, _) in &reqs {
        let r = t.span("serve.handle_cold", |_| cold.handle(frame));
        if r.frame.kind != "ok" {
            return Err(format!(
                "in-process reorder failed: {}",
                r.frame.payload_text()
            ));
        }
        if let Err(e) = check::check_reorder_response(&r.frame.payload) {
            report.problem(format!("in-process reorder: {e}"));
        }
        warm.handle(frame);
        payloads.push(String::from_utf8(r.frame.payload).map_err(|e| e.to_string())?);
    }
    for _ in 0..REPS {
        for ((frame, _), cold) in reqs.iter().zip(&payloads) {
            let r = t.span("serve.handle_warm", |_| warm.handle(frame));
            if let Err(e) = check::check_warm(cold.as_bytes(), &r.frame.payload) {
                report.problem(format!("in-process warm reorder: {e}"));
            }
        }
    }
    report.metric(
        "serve.handle_cold_ms",
        median_of(t, "serve.handle_cold", ms),
        "ms",
    );
    report.metric(
        "serve.handle_warm_us",
        median_of(t, "serve.handle_warm", us),
        "us",
    );

    let cache = ArtifactCache::at(&serve::fresh_dir(args.work.join("trace-cache"))?)
        .map_err(|e| e.to_string())?;
    for rep in 0..REPS as u64 {
        for (i, p) in payloads.iter().enumerate() {
            let key = workloads::mix(rep, i as u64);
            t.span("cache.put", |_| cache.put(key, p));
            let got = t.span("cache.get", |_| cache.get(key));
            if got.as_deref() != Some(p.as_str()) {
                report.problem("artifact cache returned a different entry");
            }
        }
    }
    report.metric("cache.put_us", median_of(t, "cache.put", us), "us");
    report.metric("cache.get_us", median_of(t, "cache.get", us), "us");

    let cluster = Cluster::start(
        &args.brc,
        &serve::fresh_dir(args.work.join("trace-cluster"))?,
        &args.work.join("trace-cluster.log"),
    )?;
    let mut wrong = Vec::new();
    let result = (|| {
        let shard_reqs = requests(args.seed, 4_000_000)?;
        let router_reqs = requests(args.seed, 5_000_000)?;
        for (addr, reqs, cold, warm) in [
            (
                &cluster.shards[0],
                &shard_reqs,
                "serve.shard_cold",
                "serve.shard_warm",
            ),
            (
                &cluster.router,
                &router_reqs,
                "cluster.router_cold",
                "cluster.router_warm",
            ),
        ] {
            let mut client = Client2::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            // Upload every module once so the timed calls send hashes.
            for (_, r) in reqs.iter() {
                let mut r = r.clone();
                r.plain[0].1.push(b'\n');
                r.send(&mut client).map_err(|e| e.to_string())?;
            }
            let mut answers: Vec<Vec<u8>> = Vec::new();
            for pass in 0..=REPS {
                let name = if pass == 0 { cold } else { warm };
                for (i, (_, r)) in reqs.iter().enumerate() {
                    let response = t
                        .span(name, |_| r.send(&mut client))
                        .map_err(|e| e.to_string())?;
                    if response.kind != proto2::kind::OK {
                        return Err(format!("{name}: {}", response.payload_text()));
                    }
                    let checked = match answers.get(i) {
                        None => check::check_reorder_response(&response.payload).map(|_| ()),
                        Some(first) => check::check_warm(first, &response.payload),
                    };
                    if let Err(e) = checked {
                        wrong.push(format!("{name}: {e}"));
                    }
                    if pass == 0 {
                        answers.push(response.payload);
                    }
                }
            }
        }
        Ok::<_, String>(())
    })();
    for e in wrong {
        report.problem(e);
    }
    let counters = cluster.counters();
    let stopped = cluster.stop();
    result?;
    stopped?;
    report.metric(
        "serve.shard_cold_ms",
        median_of(t, "serve.shard_cold", ms),
        "ms",
    );
    report.metric(
        "serve.shard_warm_us",
        median_of(t, "serve.shard_warm", us),
        "us",
    );
    report.metric(
        "cluster.router_cold_ms",
        median_of(t, "cluster.router_cold", ms),
        "ms",
    );
    report.metric(
        "cluster.router_warm_us",
        median_of(t, "cluster.router_warm", us),
        "us",
    );
    let counters = counters?;
    for (metric, exported) in [
        ("serve.cache_hits", "br_serve_cache_hits_total"),
        ("serve.cache_misses", "br_serve_cache_misses_total"),
        ("serve.shed", "br_serve_shed_total"),
        ("serve.expired", "br_serve_deadline_expired_total"),
        ("serve.need_module", "br_serve_need_module_total"),
        ("cluster.memo_hits", "br_cluster_memo_hits_total"),
        ("cluster.forwarded", "br_cluster_forwarded_total"),
        ("cluster.replications", "br_cluster_replications_total"),
        ("cluster.failovers", "br_cluster_failovers_total"),
    ] {
        report.metric(
            metric,
            counters.get(exported).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    Ok(())
}
