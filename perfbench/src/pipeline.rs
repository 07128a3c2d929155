//! The `brc --reorder` path as benchmark jobs, plus a traced replay of
//! `reorder_module_with_inputs` built from the same public stage
//! functions, called in the same order, with a span around each stage.

use br_ir::{print_module, FuncId, Module};
use br_layout::{EdgeWeights, LayoutMode, LayoutParams};
use br_minic::{compile, HeuristicSet, Options};
use br_reorder::dispatch::{apply_dispatch, check_dispatch, plan_dispatch, DispatchStructure};
use br_reorder::profile::{detect_all, instrument_module, profiles_from_run};
use br_reorder::validate::{certify_sequence, check_ordering};
use br_reorder::{plan_for_profile, reorder_module_with_inputs, ReorderOptions};
use br_workloads::Workload;

use crate::trace::Tracer;

/// One of the 34 pipeline configurations: a program under Set II with
/// greedy layout, or under Set IV with ext-TSP layout.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// The program.
    pub workload: Workload,
    /// Front-end heuristic set.
    pub set: HeuristicSet,
    /// Layout pass.
    pub layout: LayoutMode,
}

impl Config {
    /// All 34 configurations, Set II/greedy first.
    pub fn all() -> Vec<Config> {
        let mut out = Vec::new();
        for (set, layout) in [
            (HeuristicSet::SET_II, LayoutMode::Greedy),
            (HeuristicSet::SET_IV, LayoutMode::ExtTsp),
        ] {
            for workload in br_workloads::all() {
                out.push(Config {
                    workload,
                    set,
                    layout,
                });
            }
        }
        out
    }

    /// `program/set/layout`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.workload.name,
            self.set.name,
            self.layout.name()
        )
    }

    /// The certified pipeline's options for this configuration.
    pub fn options(&self) -> ReorderOptions {
        ReorderOptions {
            certify: true,
            opt_tree: self.set.opt_tree,
            layout: self.layout,
            ..ReorderOptions::default()
        }
    }
}

/// Compile and optimize a program under a heuristic set.
pub fn build(w: &Workload, set: HeuristicSet) -> Result<Module, String> {
    let mut m = compile(w.source, &Options::with_heuristics(set))
        .map_err(|e| format!("{}: compile error: {e}", w.name))?;
    br_opt::optimize(&mut m);
    Ok(m)
}

/// What one pipeline job produced.
#[derive(Clone, Debug)]
pub struct JobOutput {
    /// The optimized, unreordered module.
    pub original: Module,
    /// The deployed module.
    pub deployed: Module,
    /// The deployed module, printed.
    pub printed: String,
    /// Proof certificates of every committed reordering.
    pub certificates: Vec<String>,
}

/// One untraced job: compile, optimize, certified reorder, print.
pub fn run_job(c: &Config, train: &[u8]) -> Result<JobOutput, String> {
    let original = build(&c.workload, c.set)?;
    let report = reorder_module_with_inputs(&original, &[train], &c.options())
        .map_err(|t| format!("{}: training run trapped: {t}", c.label()))?;
    let summary = report
        .validation
        .as_ref()
        .ok_or_else(|| format!("{}: no validation summary", c.label()))?;
    if !summary.is_clean() {
        return Err(format!("{}: validation failed:\n{summary}", c.label()));
    }
    let certificates = summary
        .certificates
        .iter()
        .map(|c| c.text.clone())
        .collect();
    let printed = print_module(&report.module);
    Ok(JobOutput {
        original,
        deployed: report.module,
        printed,
        certificates,
    })
}

/// The same job, traced: every stage of `reorder_module_with_inputs`
/// is replayed from its public function inside a span, and the result
/// is printed and parsed back.
pub fn run_job_traced(t: &mut Tracer, c: &Config, train: &[u8]) -> Result<JobOutput, String> {
    let mut original = t.span("minic.compile", |_| {
        compile(c.workload.source, &Options::with_heuristics(c.set))
            .map_err(|e| format!("{}: compile error: {e}", c.workload.name))
    })?;
    t.span("opt.optimize", |_| br_opt::optimize(&mut original));
    let (deployed, certificates) =
        replay(t, &original, &[train], &c.options()).map_err(|e| format!("{}: {e}", c.label()))?;
    let printed = t.span("ir.print", |_| print_module(&deployed));
    let parsed = t
        .span("ir.parse", |_| br_ir::parse_module(&printed))
        .map_err(|e| format!("{}: printed module does not parse: {e}", c.label()))?;
    if parsed != deployed {
        return Err(format!("{}: printed module does not round-trip", c.label()));
    }
    Ok(JobOutput {
        original,
        deployed,
        printed,
        certificates,
    })
}

/// `reorder_module_with_inputs` for range-condition sequences (the
/// common-successor extension is off in every benchmark configuration),
/// stage by stage. Returns the deployed module and its certificates.
pub fn replay(
    t: &mut Tracer,
    optimized: &Module,
    inputs: &[&[u8]],
    options: &ReorderOptions,
) -> Result<(Module, Vec<String>), String> {
    assert!(
        !options.common_successor && !options.static_heuristic && !options.exhaustive,
        "the replay covers the benchmark's configurations only"
    );
    let validate = options.validate || options.certify;
    let detections = t.span("reorder.detect", |_| detect_all(optimized));
    t.count("reorder.sequences", detections.len() as u64);
    let (instrumented, ids) = t.span("reorder.instrument", |_| {
        let mut m = optimized.clone();
        let ids = instrument_module(&mut m, &detections);
        (m, ids)
    });
    let mut merged: Vec<Vec<u64>> = instrumented
        .profile_plans
        .iter()
        .map(|p| vec![0; p.counter_count()])
        .collect();
    for input in inputs {
        let outcome = t
            .span("vm.train", |_| {
                br_vm::run(&instrumented, input, &options.vm)
            })
            .map_err(|e| format!("training run trapped: {e}"))?;
        t.count("vm.train_insts", outcome.stats.insts);
        for (acc, got) in merged.iter_mut().zip(&outcome.profiles) {
            for (a, g) in acc.iter_mut().zip(got) {
                *a += g;
            }
        }
    }
    let profiles = t.span("reorder.plan", |_| profiles_from_run(&ids, &merged));

    let mut module = optimized.clone();
    let mut certificates = Vec::new();
    for ((fid, seq), profile) in detections.iter().zip(&profiles) {
        if profile.total() == 0 {
            continue;
        }
        let planned = t.span("reorder.plan", |_| {
            let plan = plan_for_profile(seq, profile, false).expect("profile total is nonzero");
            if validate {
                check_ordering(&plan.items, &plan.ordering)
                    .map_err(|p| format!("order check failed: {p:?}"))?;
            }
            let dispatch = if options.opt_tree {
                plan_dispatch(&plan.items).filter(|d| d.cost() + 1e-9 < plan.ordering.cost)
            } else {
                None
            };
            if let (Some(d), true) = (&dispatch, validate) {
                check_dispatch(&plan.items, d)
                    .map_err(|p| format!("dispatch check failed: {p:?}"))?;
            }
            Ok::<_, String>((plan, dispatch))
        });
        let (plan, dispatch) = planned?;
        let new_cost = dispatch.as_ref().map_or(plan.ordering.cost, |d| d.cost());
        if new_cost + 1e-9 >= plan.original_cost {
            continue;
        }
        let f = module.function_mut(*fid);
        let pre = t.span("analysis.certify", |_| validate.then(|| f.clone()));
        let replica_start = f.blocks.len() as u32;
        t.span("reorder.emit", |_| match &dispatch {
            Some(d) => apply_dispatch(f, seq, &plan.items, d),
            None => br_reorder::apply::apply_reordering(f, seq, &plan.items, &plan.ordering),
        });
        t.count("reorder.reordered", 1);
        match dispatch.as_ref().map(|d| d.structure()) {
            Some(DispatchStructure::Tree) => t.count("reorder.dispatch_trees", 1),
            Some(DispatchStructure::Table) => t.count("reorder.dispatch_tables", 1),
            _ => {}
        }
        if let (Some(pre), true) = (&pre, options.certify) {
            let proof = t
                .span("analysis.certify", |_| {
                    certify_sequence(*fid, pre, f, seq, replica_start)
                })
                .map_err(|e| format!("certification failed: {}", e.failure))?;
            t.count("analysis.certificates", 1);
            certificates.push(proof.certificate);
        }
    }
    t.span("opt.cleanup", |_| match options.layout {
        LayoutMode::Off => br_opt::cleanup_keep_order(&mut module),
        LayoutMode::Greedy | LayoutMode::ExtTsp => br_opt::cleanup(&mut module),
    });
    if options.layout == LayoutMode::ExtTsp {
        exttsp(t, &mut module, inputs, options, validate)?;
    }
    if validate {
        t.span("ir.verify", |_| {
            for (i, f) in module.functions.iter().enumerate() {
                br_ir::verify_function(f, Some(&module)).map_err(|e| {
                    format!("function {} fails verification: {e}", FuncId(i as u32).0)
                })?;
            }
            Ok::<_, String>(())
        })?;
    }
    Ok((module, certificates))
}

/// The ext-TSP stage: re-profile, derive edge weights, lay out, check.
fn exttsp(
    t: &mut Tracer,
    module: &mut Module,
    inputs: &[&[u8]],
    options: &ReorderOptions,
    validate: bool,
) -> Result<(), String> {
    let mut counts: Vec<Vec<[u64; 2]>> = module
        .functions
        .iter()
        .map(|f| vec![[0u64; 2]; f.blocks.len()])
        .collect();
    for input in inputs {
        let outcome = t
            .span("vm.reprofile", |_| br_vm::run(module, input, &options.vm))
            .map_err(|e| format!("re-profile run trapped: {e}"))?;
        t.count("vm.reprofile_insts", outcome.stats.insts);
        for (acc, got) in counts.iter_mut().zip(&outcome.block_counts) {
            for (a, g) in acc.iter_mut().zip(got) {
                a[0] += g[0];
                a[1] += g[1];
            }
        }
    }
    let params = LayoutParams::default();
    for (i, f) in module.functions.iter_mut().enumerate() {
        let (pre, outcome) = t.span("layout.exttsp", |_| {
            let weights = EdgeWeights::from_block_counts(f, &counts[i]);
            let pre = validate.then(|| f.clone());
            (pre, br_layout::layout_function(f, &weights, &params))
        });
        let Some(order) = &outcome.applied else {
            continue;
        };
        t.count("layout.functions_applied", 1);
        if let Some(pre) = &pre {
            let diags = t.span("analysis.check_layout", |_| {
                br_analysis::check_layout(pre, f, order)
            });
            if !diags.is_empty() {
                return Err(format!("layout check failed in function {i}: {diags:?}"));
            }
        }
    }
    Ok(())
}
