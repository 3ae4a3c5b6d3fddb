//! The three campaign workloads: their configs, generated from the seed;
//! their set-up; and one timed campaign, run from a fresh runner.

use crate::sys::CpuTimes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tdfm_core::distributed::{AggregatorKind, ShardFaultResult, ShardFaultRunner, ShardFaultSweep};
use tdfm_core::experiment::{ExperimentConfig, ExperimentResult, Runner};
use tdfm_core::model_fault::{ModelFaultResult, ModelFaultRunner, ModelFaultSweep};
use tdfm_core::technique::{TechniqueKind, TrainContext};
use tdfm_data::{DatasetKind, Scale};
use tdfm_inject::model::{BitRange, FaultSite, InjectionMode, ModelFaultPlan, TensorSelector};
use tdfm_inject::{FaultKind, FaultPlan, ShardFaultPlan};
use tdfm_nn::models::ModelKind;
use tdfm_obs::MetricsSnapshot;

/// Models of the data-fault grid.
pub const GRID_MODELS: [ModelKind; 2] = [ModelKind::ConvNet, ModelKind::MobileNet];
/// Mislabelling rates (%) of the data-fault grid.
pub const GRID_RATES: [f32; 2] = [10.0, 50.0];
/// Repetitions per data-fault cell.
pub const GRID_REPETITIONS: usize = 1;
/// Techniques of the SEU sweep (single-model, so exhaustive plans apply).
pub const SEU_TECHNIQUES: [TechniqueKind; 2] = [TechniqueKind::Baseline, TechniqueKind::RobustLoss];
/// Parameter tensors (flat `params_mut()` order) swept exhaustively.
pub const SEU_PARAMS: [usize; 4] = [0, 1, 3, 5];
/// Flips per hooked activation of the SEU sweep's stochastic plans.
pub const SEU_ACTIVATION_FLIPS: [usize; 2] = [1, 4];
/// Logical workers of the sharded workload.
pub const SHARD_WORKERS: usize = 8;
/// Mislabelling rates (%) applied to shard 1.
pub const SHARD_RATES: [f32; 3] = [10.0, 30.0, 50.0];
/// Repetitions per sharded cell.
pub const SHARD_REPETITIONS: usize = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Runner::run_grid` over a Fig. 3 slice.
    DatafaultGrid,
    /// `ModelFaultRunner::run_sweep` with exhaustive exponent-bit plans.
    SeuExhaustive,
    /// `ShardFaultRunner::run_sweep` over the standard aggregators.
    ShardedByzantine,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::DatafaultGrid,
        Workload::SeuExhaustive,
        Workload::ShardedByzantine,
    ];

    /// Name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DatafaultGrid => "datafault_grid",
            Workload::SeuExhaustive => "seu_exhaustive",
            Workload::ShardedByzantine => "sharded_byzantine",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one counted operation is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::DatafaultGrid => "cell-repetition",
            Workload::SeuExhaustive => "fault trial (weight or activation)",
            Workload::ShardedByzantine => "sharded fit",
        }
    }

    /// Experiment scale of the workload.
    pub fn scale(self) -> Scale {
        match self {
            Workload::DatafaultGrid => Scale::Tiny,
            Workload::SeuExhaustive | Workload::ShardedByzantine => Scale::Smoke,
        }
    }
}

/// The configs handed to the program.
#[derive(Debug, Clone)]
pub enum Spec {
    /// Data-fault cells for `Runner::run_grid`.
    Grid(Vec<ExperimentConfig>),
    /// One model-fault sweep.
    Seu(ModelFaultSweep),
    /// One shard-fault sweep.
    Sharded(ShardFaultSweep),
}

/// The SEU sweep's plans: one exhaustive exponent-bit plan per swept
/// parameter tensor, then the stochastic activation plans.
pub fn seu_plans() -> Vec<ModelFaultPlan> {
    let weights = SEU_PARAMS.iter().map(|&p| {
        ModelFaultPlan::weights()
            .select(TensorSelector::Params(vec![p]))
            .bits(BitRange::EXPONENT)
            .mode(InjectionMode::Exhaustive)
    });
    let activations = SEU_ACTIVATION_FLIPS.iter().map(|&flips| {
        ModelFaultPlan::activations().mode(InjectionMode::Stochastic {
            flips,
            seed: 40 + flips as u64,
        })
    });
    weights.chain(activations).collect()
}

/// Generates the workload's configs from the seed. Only the program's own
/// seeds derive from it; shapes are fixed, so every seed costs the same.
pub fn spec(workload: Workload, seed: u64) -> Spec {
    let scale = workload.scale();
    match workload {
        Workload::DatafaultGrid => {
            let mut cells = Vec::new();
            for model in GRID_MODELS {
                for technique in TechniqueKind::ALL {
                    for rate in GRID_RATES {
                        cells.push(ExperimentConfig {
                            dataset: DatasetKind::Gtsrb,
                            model,
                            technique,
                            fault_plan: FaultPlan::single(FaultKind::Mislabelling, rate),
                            scale,
                            repetitions: GRID_REPETITIONS,
                            seed,
                        });
                    }
                }
            }
            Spec::Grid(cells)
        }
        Workload::SeuExhaustive => Spec::Seu(ModelFaultSweep {
            dataset: DatasetKind::Gtsrb,
            model: ModelKind::ConvNet,
            techniques: SEU_TECHNIQUES.to_vec(),
            plans: seu_plans(),
            scale,
            repetitions: 1,
            seed,
        }),
        Workload::ShardedByzantine => {
            let mut plans = vec![ShardFaultPlan::clean()];
            plans.extend(SHARD_RATES.iter().map(|&r| ShardFaultPlan::mislabel(1, r)));
            Spec::Sharded(ShardFaultSweep {
                dataset: DatasetKind::Cifar10,
                model: ModelKind::ConvNet,
                aggregators: AggregatorKind::standard_set(),
                plans,
                workers: SHARD_WORKERS,
                scale,
                repetitions: SHARD_REPETITIONS,
                seed,
            })
        }
    }
}

/// The repetition seed every runner derives for repetition `r`.
pub fn rep_seed(seed: u64, r: usize) -> u64 {
    seed.wrapping_add(1 + r as u64).wrapping_mul(0x9E37_79B9)
}

/// A workload's configs and what a correct campaign of them produces: the
/// ops each result cell stands for and the runner counters it ends with.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed the configs came from.
    pub seed: u64,
    /// The configs.
    pub spec: Spec,
    /// Ops per result cell, in the runner's output order.
    pub cell_ops: Vec<u64>,
    /// `(runner counter, expected value)` pairs.
    pub expected_counters: Vec<(&'static str, u64)>,
}

impl Prepared {
    /// Ops of one whole campaign.
    pub fn ops(&self) -> u64 {
        self.cell_ops.iter().sum()
    }
}

/// Generates the configs and derives what a correct campaign of them
/// produces. This is the gate's work, not the campaign's set-up: deriving
/// the exhaustive trial count generates data and builds the model, so a
/// campaign process calls it only after its campaign has ended.
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let spec = spec(workload, seed);
    let (cell_ops, expected_counters) = match &spec {
        Spec::Grid(cells) => {
            let mut goldens = std::collections::BTreeSet::new();
            let mut shared = std::collections::BTreeSet::new();
            let mut fits = 0u64;
            for c in cells {
                let technique = c.technique.build();
                for r in 0..c.repetitions {
                    let rs = rep_seed(c.seed, r);
                    goldens.insert((c.dataset.name(), c.model.name(), rs));
                    if technique.model_independent() {
                        shared.insert((
                            technique.name(),
                            c.dataset.name(),
                            rs,
                            c.fault_plan.label(),
                        ));
                    } else {
                        fits += 1;
                    }
                }
            }
            let lookups: u64 = cells.iter().map(|c| c.repetitions as u64).sum();
            (
                cells.iter().map(|c| c.repetitions as u64).collect(),
                vec![
                    ("golden_lookups", lookups),
                    ("golden_trainings", goldens.len() as u64),
                    ("technique_fits", fits + shared.len() as u64),
                    ("cells_completed", cells.len() as u64),
                ],
            )
        }
        Spec::Seu(sweep) => {
            let data = sweep.dataset.generate(sweep.scale, rep_seed(seed, 0));
            let ctx = TrainContext::new(sweep.scale, rep_seed(seed, 0));
            let mut net = sweep.model.build(&ctx.model_config(&data.train));
            let reps = sweep.repetitions as u64;
            let per_plan: Vec<u64> = sweep
                .plans
                .iter()
                .map(|plan| match (plan.site, plan.mode) {
                    (FaultSite::Weights, InjectionMode::Exhaustive) => {
                        plan.weight_instances(&mut net).len() as u64
                    }
                    _ => 1,
                })
                .collect();
            let weight: u64 = sweep
                .plans
                .iter()
                .zip(&per_plan)
                .filter(|(p, _)| p.site == FaultSite::Weights)
                .map(|(_, n)| n)
                .sum();
            let activation = sweep
                .plans
                .iter()
                .filter(|p| p.site == FaultSite::Activations)
                .count() as u64;
            let techniques = sweep.techniques.len() as u64;
            (
                sweep
                    .techniques
                    .iter()
                    .flat_map(|_| per_plan.iter().map(|n| n * reps))
                    .collect(),
                vec![
                    ("technique_fits", techniques * reps),
                    ("weight_trials", techniques * reps * weight),
                    ("activation_trials", techniques * reps * activation),
                ],
            )
        }
        Spec::Sharded(sweep) => {
            let reps = sweep.repetitions as u64;
            let faulty = sweep.plans.iter().filter(|p| !p.is_clean()).count() as u64;
            let aggregators = sweep.aggregators.len() as u64;
            (
                // A clean cell reuses its repetition's reference fit; the
                // reference fit is counted there.
                vec![reps; sweep.aggregators.len() * sweep.plans.len()],
                vec![("sharded_fits", aggregators * reps * (1 + faulty))],
            )
        }
    };
    Prepared {
        workload,
        seed,
        spec,
        cell_ops,
        expected_counters,
    }
}

/// A runner with cold in-memory caches and no disk cache.
pub enum Engine {
    /// Data-fault runner.
    Grid(Runner),
    /// Model-fault runner.
    Seu(ModelFaultRunner),
    /// Shard-fault runner.
    Sharded(ShardFaultRunner),
}

impl Engine {
    /// A runner for `spec` with cold caches.
    pub fn fresh(spec: &Spec) -> Self {
        match spec {
            Spec::Grid(_) => Engine::Grid(Runner::new()),
            Spec::Seu(_) => Engine::Seu(ModelFaultRunner::new()),
            Spec::Sharded(_) => Engine::Sharded(ShardFaultRunner::new()),
        }
    }

    /// Runs the whole campaign.
    pub fn run(&self, spec: &Spec) -> Results {
        match (self, spec) {
            (Engine::Grid(r), Spec::Grid(c)) => Results::Grid(r.run_grid(c)),
            (Engine::Seu(r), Spec::Seu(s)) => Results::Seu(r.run_sweep(s)),
            (Engine::Sharded(r), Spec::Sharded(s)) => Results::Sharded(r.run_sweep(s)),
            _ => unreachable!("engine built from this spec"),
        }
    }

    /// The runner's private counters and timings.
    pub fn metrics(&self) -> MetricsSnapshot {
        match self {
            Engine::Grid(r) => r.metrics_snapshot(),
            Engine::Seu(r) => r.metrics_snapshot(),
            Engine::Sharded(r) => r.metrics_snapshot(),
        }
    }

    /// The run manifest as JSON.
    pub fn manifest_json(&self, name: &str, results: &Results) -> String {
        match (self, results) {
            (Engine::Grid(e), Results::Grid(r)) => e.manifest(name, r).to_json(),
            (Engine::Seu(e), Results::Seu(r)) => e.manifest(name, r).to_json(),
            (Engine::Sharded(e), Results::Sharded(r)) => e.manifest(name, r).to_json(),
            _ => unreachable!("results come from this engine"),
        }
    }
}

/// A campaign's results, as the runner returned them.
pub enum Results {
    /// Data-fault cells.
    Grid(Vec<ExperimentResult>),
    /// Model-fault cells.
    Seu(Vec<ModelFaultResult>),
    /// Shard-fault cells.
    Sharded(Vec<ShardFaultResult>),
}

/// One result cell after timing normalisation.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// `normalize_timings`, then pretty JSON.
    pub json: String,
    /// Every accuracy of every repetition.
    pub accuracies: Vec<f32>,
    /// Every accuracy delta of every repetition.
    pub deltas: Vec<f32>,
}

impl Results {
    /// Normalised cells, in output order.
    pub fn cells(&self) -> Vec<Cell> {
        let raw: Vec<(String, Vec<f32>, Vec<f32>)> = match self {
            Results::Grid(rs) => rs
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.normalize_timings();
                    let acc = r
                        .repetitions
                        .iter()
                        .flat_map(|p| [p.golden_accuracy, p.faulty_accuracy])
                        .collect();
                    let ad = r.repetitions.iter().map(|p| p.accuracy_delta).collect();
                    (r.to_json(), acc, ad)
                })
                .collect(),
            Results::Seu(rs) => rs
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.normalize_timings();
                    let acc = r
                        .repetitions
                        .iter()
                        .flat_map(|p| [p.clean_accuracy, p.faulty_accuracy])
                        .collect();
                    let ad = r.repetitions.iter().map(|p| p.accuracy_delta).collect();
                    (r.to_json(), acc, ad)
                })
                .collect(),
            Results::Sharded(rs) => rs
                .iter()
                .map(|r| {
                    let mut r = r.clone();
                    r.normalize_timings();
                    let acc = r
                        .repetitions
                        .iter()
                        .flat_map(|p| [p.clean_accuracy, p.faulty_accuracy])
                        .collect();
                    let ad = r.repetitions.iter().map(|p| p.accuracy_delta).collect();
                    (r.to_json(), acc, ad)
                })
                .collect(),
        };
        raw.into_iter()
            .map(|(json, accuracies, deltas)| Cell {
                json,
                accuracies,
                deltas,
            })
            .collect()
    }
}

/// Process-global instruments read around a campaign.
pub const GLOBAL_COUNTERS: [&str; 4] = [
    "batches_trained",
    "grad_clip_activations",
    "aggregator_trims",
    "shard_worker_drops",
];

/// Process-global duration histograms read around a campaign: the tensor
/// kernels' `OpTimer`s (recorded only with obs timing on) and the sharded
/// trainer's per-worker gradient time.
pub const GLOBAL_HISTOGRAMS: [&str; 6] = [
    "op.conv2d_forward",
    "op.conv2d_backward",
    "op.matmul",
    "op.matmul_at_b",
    "op.matmul_a_bt",
    "shard_worker_seconds",
];

/// Values of the global instruments: counters, then (count, seconds) per
/// histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tally {
    /// Parallel to [`GLOBAL_COUNTERS`].
    pub counters: Vec<u64>,
    /// Parallel to [`GLOBAL_HISTOGRAMS`]: (recordings, summed seconds).
    pub histograms: Vec<(u64, f64)>,
}

impl Tally {
    /// Reads the global registry now.
    pub fn read() -> Self {
        let g = tdfm_obs::global();
        Tally {
            counters: GLOBAL_COUNTERS.iter().map(|n| g.counter(n).get()).collect(),
            histograms: GLOBAL_HISTOGRAMS
                .iter()
                .map(|n| {
                    let h = g.histogram(n);
                    (h.count(), h.count() as f64 * h.mean_seconds())
                })
                .collect(),
        }
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Tally) -> Tally {
        Tally {
            counters: self
                .counters
                .iter()
                .zip(&earlier.counters)
                .map(|(a, b)| a - b)
                .collect(),
            histograms: self
                .histograms
                .iter()
                .zip(&earlier.histograms)
                .map(|(a, b)| (a.0 - b.0, a.1 - b.1))
                .collect(),
        }
    }

    /// A global counter's value by name.
    pub fn counter(&self, name: &str) -> u64 {
        GLOBAL_COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counters[i])
    }

    /// A global histogram's (count, seconds) by name.
    pub fn histogram(&self, name: &str) -> (u64, f64) {
        GLOBAL_HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .map_or((0, 0.0), |i| self.histograms[i])
    }
}

/// One timed campaign.
pub struct Campaign {
    /// Wall seconds of the runner call.
    pub wall_s: f64,
    /// CPU seconds (user + kernel) of the process over the runner call.
    pub cpu: CpuTimes,
    /// `VmHWM` when the campaign ended, bytes: the process's peak so far.
    pub peak_rss_bytes: u64,
    /// Normalised cells; empty when the campaign panicked.
    pub cells: Vec<Cell>,
    /// The runner's own counters.
    pub counters: MetricsSnapshot,
    /// Global instruments accumulated during the campaign.
    pub tally: Tally,
    /// `true` when the runner panicked.
    pub panicked: bool,
    /// The runner and its raw results, kept for serialisation.
    pub output: Option<(Engine, Results)>,
}

/// Runs the whole campaign once on `engine`, which should be fresh. A panic
/// fails the campaign instead of the process.
pub fn run_campaign(engine: Engine, spec: &Spec) -> Campaign {
    let tally0 = Tally::read();
    let cpu0 = CpuTimes::read();
    let started = crate::sys::clock();
    let results = catch_unwind(AssertUnwindSafe(|| engine.run(spec)));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu = CpuTimes::read().since(cpu0);
    let tally = Tally::read().since(&tally0);
    let peak_rss_bytes = tdfm_obs::memory::peak_rss_bytes();
    let counters = engine.metrics();
    let (cells, output) = match results {
        Ok(results) => (results.cells(), Some((engine, results))),
        Err(_) => (Vec::new(), None),
    };
    Campaign {
        wall_s,
        cpu,
        peak_rss_bytes,
        panicked: output.is_none(),
        cells,
        counters,
        tally,
        output,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn grid_expectations_follow_the_cache_keys() {
        let p = prepare(Workload::DatafaultGrid, 3);
        let cells = GRID_MODELS.len() * 6 * GRID_RATES.len();
        assert_eq!(p.cell_ops.len(), cells);
        assert_eq!(p.ops(), (cells * GRID_REPETITIONS) as u64);
        let expect = |n: &str| p.expected_counters.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(
            expect("golden_trainings"),
            (GRID_MODELS.len() * GRID_REPETITIONS) as u64
        );
        // Ens is model-independent: one fit per (rate, repetition) shared
        // by every model.
        let ens = GRID_RATES.len() * GRID_REPETITIONS;
        let others = GRID_MODELS.len() * 5 * GRID_RATES.len() * GRID_REPETITIONS;
        assert_eq!(expect("technique_fits"), (ens + others) as u64);
    }

    #[test]
    fn seu_trials_are_the_exhaustive_instance_count() {
        let p = prepare(Workload::SeuExhaustive, 0);
        let expect = |n: &str| p.expected_counters.iter().find(|(k, _)| *k == n).unwrap().1;
        // ConvNet at smoke scale: params 0, 1, 3, 5 hold 108 + 4 + 8 + 16
        // weights; eight exponent bits each; two techniques.
        assert_eq!(expect("weight_trials"), 2 * 8 * (108 + 4 + 8 + 16));
        assert_eq!(
            expect("activation_trials"),
            2 * SEU_ACTIVATION_FLIPS.len() as u64
        );
        assert_eq!(
            p.ops(),
            expect("weight_trials") + expect("activation_trials")
        );
    }

    #[test]
    fn sharded_ops_are_fits() {
        let p = prepare(Workload::ShardedByzantine, 0);
        assert_eq!(
            p.ops(),
            4 * (1 + SHARD_RATES.len() as u64) * SHARD_REPETITIONS as u64
        );
        assert_eq!(p.expected_counters, vec![("sharded_fits", p.ops())]);
    }

    #[test]
    fn same_seed_same_configs_other_seed_other_inputs() {
        let a = format!("{:?}", spec(Workload::SeuExhaustive, 5));
        let b = format!("{:?}", spec(Workload::SeuExhaustive, 5));
        assert_eq!(a, b);
        let d5 = DatasetKind::Gtsrb.generate(Scale::Tiny, rep_seed(5, 0));
        let d5b = DatasetKind::Gtsrb.generate(Scale::Tiny, rep_seed(5, 0));
        let d6 = DatasetKind::Gtsrb.generate(Scale::Tiny, rep_seed(6, 0));
        assert_eq!(d5.train.images().data(), d5b.train.images().data());
        assert_ne!(d5.train.images().data(), d6.train.images().data());
    }
}
