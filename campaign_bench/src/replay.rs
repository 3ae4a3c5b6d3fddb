//! The traced replay: each workload's cells re-run layer by layer through
//! the same public functions the runners call, with a span from this file
//! around every call into a layer.
//!
//! The replay mirrors the runners' seeding, caching and thread fan-out, so
//! its normalised results must equal the campaign's byte for byte — the
//! benchmark checks that, which keeps the replay honest about measuring
//! the same work. Span names are `<layer>.<what>`:
//!
//! | span | wraps |
//! |---|---|
//! | `data.generate` | `DatasetKind::generate` |
//! | `data.shards` | `LabeledDataset::shards` and the hold-out split |
//! | `inject.apply` | `Injector::apply`, `split_clean` |
//! | `inject.weight_flip` | `apply_weight_faults` (apply and revert) |
//! | `inject.activation_hook` | installing/clearing activation hooks |
//! | `inject.shard_apply` | `ShardFaultPlan::apply` |
//! | `nn.predict` | `FittedModel::predict`, `Network::predict` |
//! | `core.fit.<abbrev>` | `Mitigation::fit` |
//! | `core.golden_fit` | the golden model's `Mitigation::fit` |
//! | `core.fit_sharded` | `fit_sharded` |
//! | `core.aggregate.<agg>` | `Aggregator::aggregate`, inside `fit_sharded` |
//! | `core.localize` | `localize_faulty_shards` |
//! | `core.metrics` | `accuracy`, `accuracy_delta`, `ConfidenceInterval::t95` |
//! | `core.repetition` | one cell-repetition (a new cell id) |
//! | `core.cell`, `core.technique`, `core.aggregator` | grouping |
//! | `json.serialize` | `normalize_timings` + `to_json`, manifest `to_json` |

use crate::spans::Recorder;
use crate::workload::{rep_seed, Results, Spec};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use tdfm_core::distributed::{
    fit_sharded, Aggregated, Aggregator, AggregatorKind, ShardFaultRepetition, ShardFaultResult,
    ShardFaultSweep, WorkerGrads,
};
use tdfm_core::experiment::{ExperimentConfig, ExperimentResult, RepetitionResult};
use tdfm_core::model_fault::{ModelFaultRepetition, ModelFaultResult, ModelFaultSweep};
use tdfm_core::technique::{FittedModel, TechniqueKind, TrainContext, EVAL_BATCH};
use tdfm_core::{accuracy, accuracy_delta, localize_faulty_shards, ConfidenceInterval};
use tdfm_data::{DatasetKind, LabeledDataset, Scale};
use tdfm_inject::model::{
    apply_weight_faults, counting_activation_hook, FaultSite, InjectionMode, ModelFaultPlan,
};
use tdfm_inject::{split_clean, Injector};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::trainer::FitConfig;
use tdfm_tensor::parallel::with_inner_threads;

/// Counts the replay makes where the work happens.
#[derive(Debug, Default)]
pub struct Counts {
    /// Images passed through `nn.predict` spans.
    pub predict_images: AtomicU64,
    /// Single-bit weight flips written (apply and revert both count).
    pub weight_flips: AtomicU64,
}

/// Replays the workload's campaign, recording spans into `rec`.
pub fn replay(spec: &Spec, threads: usize, rec: &Recorder, counts: &Counts) -> Results {
    let r = Replay {
        rec,
        counts,
        threads,
    };
    match spec {
        Spec::Grid(cells) => Results::Grid(r.grid(cells)),
        Spec::Seu(sweep) => Results::Seu(r.seu(sweep)),
        Spec::Sharded(sweep) => Results::Sharded(r.sharded(sweep)),
    }
}

struct Replay<'a> {
    rec: &'a Recorder,
    counts: &'a Counts,
    threads: usize,
}

/// A cache computing each key's value once, with concurrent requests for
/// one key waiting on the first — the runner's golden/shared-fit cache.
struct OnceMap<K, V> {
    slots: Mutex<HashMap<K, Arc<OnceLock<Arc<V>>>>>,
}

impl<K: Hash + Eq + Clone, V> OnceMap<K, V> {
    fn new() -> Self {
        Self {
            slots: Mutex::new(HashMap::new()),
        }
    }

    fn get_or_compute(&self, key: &K, compute: impl FnOnce() -> V) -> Arc<V> {
        let slot = {
            let mut map = self.slots.lock().expect("cache lock poisoned");
            Arc::clone(map.entry(key.clone()).or_default())
        };
        Arc::clone(slot.get_or_init(|| Arc::new(compute())))
    }
}

/// Wraps an aggregator so each `aggregate` call inside `fit_sharded` is a
/// span.
struct TimedAggregator<'a> {
    inner: Box<dyn Aggregator>,
    rec: &'a Recorder,
    span: String,
}

impl Aggregator for TimedAggregator<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn aggregate(&mut self, workers: &[WorkerGrads<'_>]) -> Aggregated {
        self.rec.span(&self.span, || self.inner.aggregate(workers))
    }

    fn replaces_server_momentum(&self) -> bool {
        self.inner.replaces_server_momentum()
    }
}

/// Short aggregator name used in metric names.
pub fn aggregator_label(kind: AggregatorKind) -> &'static str {
    match kind {
        AggregatorKind::Mean => "Mean",
        AggregatorKind::TrimmedMean { .. } => "TrimmedMean",
        AggregatorKind::Median => "Median",
        AggregatorKind::Ctma { .. } => "CTMA",
    }
}

/// The sharded runner's per-fit hyperparameters.
fn sharded_fit_config(scale: Scale, shard_len: usize, seed: u64) -> FitConfig {
    let batch_size = (shard_len / 8).clamp(4, 32).min(shard_len);
    let rounds_per_epoch = shard_len.div_ceil(batch_size).max(1);
    let epochs = scale.epochs().max(160usize.div_ceil(rounds_per_epoch));
    FitConfig {
        epochs,
        batch_size,
        shuffle_seed: seed,
        ..FitConfig::default()
    }
}

/// Splits each shard into training and hold-out parts, as the sharded
/// runner does.
fn split_holdouts(shards: &[LabeledDataset]) -> (Vec<LabeledDataset>, Vec<LabeledDataset>) {
    shards
        .iter()
        .map(|shard| {
            let k = shard.len() - (shard.len() / 5).max(1);
            shard.split_at(k.max(1))
        })
        .unzip()
}

fn t95(values: impl Iterator<Item = f32>) -> ConfidenceInterval {
    ConfidenceInterval::t95(&values.collect::<Vec<_>>())
}

impl Replay<'_> {
    /// Runs `work(0..count)` over up to `threads` workers with the
    /// runners' two-level budget, results in index order. Workers adopt
    /// the caller's open span as their parent.
    fn fan_out<T: Send>(&self, count: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.min(count);
        if workers <= 1 {
            return (0..count).map(work).collect();
        }
        let inner = (self.threads / workers).max(1);
        let parent = self.rec.current();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    self.rec.adopt(parent, || {
                        with_inner_threads(inner, || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= count {
                                break;
                            }
                            let out = work(i);
                            *slots[i].lock().expect("slot poisoned") = Some(out);
                        })
                    })
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("slot poisoned").expect("slot filled"))
            .collect()
    }

    fn generate(&self, dataset: DatasetKind, scale: Scale, seed: u64) -> tdfm_data::TrainTest {
        self.rec
            .span("data.generate", || dataset.generate(scale, seed))
    }

    fn predict(&self, fitted: &mut FittedModel, test: &LabeledDataset) -> Vec<u32> {
        self.counts
            .predict_images
            .fetch_add(test.len() as u64, Ordering::Relaxed);
        self.rec
            .span("nn.predict", || fitted.predict(test.images()))
    }

    fn grid(&self, cells: &[ExperimentConfig]) -> Vec<ExperimentResult> {
        type GoldenKey = (DatasetKind, ModelKind, Scale, u64);
        type SharedKey = (&'static str, DatasetKind, Scale, u64, String);
        let goldens: OnceMap<GoldenKey, (Vec<u32>, f32)> = OnceMap::new();
        let shared: OnceMap<SharedKey, Vec<u32>> = OnceMap::new();
        self.fan_out(cells.len(), |i| {
            let config = &cells[i];
            let technique = config.technique.build();
            self.rec.span("core.cell", || {
                let reps: Vec<RepetitionResult> = (0..config.repetitions)
                    .map(|r| {
                        self.rec.cell("core.repetition", || {
                            let rs = rep_seed(config.seed, r);
                            let data = self.generate(config.dataset, config.scale, rs);
                            let labels = data.test.labels();
                            let key = (config.dataset, config.model, config.scale, rs);
                            let golden = goldens.get_or_compute(&key, || {
                                let mut ctx = TrainContext::new(config.scale, rs);
                                ctx.tune_for(data.train.len());
                                let mut fitted = self.rec.span("core.golden_fit", || {
                                    TechniqueKind::Baseline.build().fit(
                                        config.model,
                                        &data.train,
                                        &ctx,
                                    )
                                });
                                let preds = self.predict(&mut fitted, &data.test);
                                let acc =
                                    self.rec.span("core.metrics", || accuracy(&preds, labels));
                                (preds, acc)
                            });
                            let mut ctx = TrainContext::new(config.scale, rs);
                            ctx.tune_for(data.train.len());
                            let injector = Injector::new(rs ^ 0xFA_17);
                            let faulty = self.rec.span("inject.apply", || {
                                if technique.wants_clean_subset() {
                                    let (clean, rest) = split_clean(&data.train, 0.1, rs ^ 0xC1EA);
                                    ctx.clean_subset = Some(clean);
                                    injector.apply(&rest, &config.fault_plan).0
                                } else {
                                    injector.apply(&data.train, &config.fault_plan).0
                                }
                            });
                            let fit_name = format!("core.fit.{}", config.technique.abbrev());
                            let fit_once = || {
                                let mut fitted = self
                                    .rec
                                    .span(&fit_name, || technique.fit(config.model, &faulty, &ctx));
                                self.predict(&mut fitted, &data.test)
                            };
                            let preds = if technique.model_independent() {
                                let key = (
                                    technique.name(),
                                    config.dataset,
                                    config.scale,
                                    rs,
                                    config.fault_plan.label(),
                                );
                                shared.get_or_compute(&key, fit_once)
                            } else {
                                Arc::new(fit_once())
                            };
                            self.rec.span("core.metrics", || RepetitionResult {
                                golden_accuracy: golden.1,
                                faulty_accuracy: accuracy(&preds, labels),
                                accuracy_delta: accuracy_delta(&golden.0, &preds, labels),
                                train_seconds: 0.0,
                                infer_seconds: 0.0,
                            })
                        })
                    })
                    .collect();
                self.rec.span("core.metrics", || ExperimentResult {
                    fault_label: config.fault_plan.label(),
                    ad: t95(reps.iter().map(|r| r.accuracy_delta)),
                    golden_accuracy: t95(reps.iter().map(|r| r.golden_accuracy)),
                    faulty_accuracy: t95(reps.iter().map(|r| r.faulty_accuracy)),
                    repetitions: reps,
                    config: config.clone(),
                })
            })
        })
    }

    fn seu(&self, sweep: &ModelFaultSweep) -> Vec<ModelFaultResult> {
        self.fan_out(sweep.techniques.len(), |t| {
            self.rec.span("core.technique", || {
                self.seu_technique(sweep, sweep.techniques[t])
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn seu_technique(&self, sweep: &ModelFaultSweep, kind: TechniqueKind) -> Vec<ModelFaultResult> {
        let technique = kind.build();
        let mut reps_per_plan: Vec<Vec<ModelFaultRepetition>> = vec![Vec::new(); sweep.plans.len()];
        for r in 0..sweep.repetitions {
            let rs = rep_seed(sweep.seed, r);
            let data = self.generate(sweep.dataset, sweep.scale, rs);
            let mut ctx = TrainContext::new(sweep.scale, rs);
            ctx.tune_for(data.train.len());
            let train = if technique.wants_clean_subset() {
                let (clean, rest) = self.rec.span("inject.apply", || {
                    split_clean(&data.train, 0.1, rs ^ 0xC1EA)
                });
                ctx.clean_subset = Some(clean);
                rest
            } else {
                data.train.clone()
            };
            let fit_name = format!("core.fit.{}", kind.abbrev());
            let mut fitted = self
                .rec
                .span(&fit_name, || technique.fit(sweep.model, &train, &ctx));
            let clean_preds = self.predict(&mut fitted, &data.test);
            let clean_accuracy = self.rec.span("core.metrics", || {
                accuracy(&clean_preds, data.test.labels())
            });
            for (p, plan) in sweep.plans.iter().enumerate() {
                let plan = plan.clone().reseed(match plan.mode {
                    InjectionMode::Stochastic { seed, .. } => seed ^ rs ^ ((p as u64) << 32),
                    InjectionMode::Exhaustive => 0,
                });
                let rep = self.rec.cell("core.repetition", || {
                    let scored = match plan.site {
                        FaultSite::Weights => {
                            self.score_weights(&mut fitted, &plan, &data.test, &clean_preds)
                        }
                        FaultSite::Activations => {
                            self.score_activations(&mut fitted, &plan, &data.test, &clean_preds)
                        }
                    };
                    let (faulty_accuracy, accuracy_delta, made_nonfinite) = scored;
                    ModelFaultRepetition {
                        clean_accuracy,
                        faulty_accuracy,
                        accuracy_delta,
                        made_nonfinite,
                    }
                });
                reps_per_plan[p].push(rep);
            }
        }
        sweep
            .plans
            .iter()
            .zip(reps_per_plan)
            .map(|(plan, reps)| {
                self.rec.span("core.metrics", || ModelFaultResult {
                    dataset: sweep.dataset,
                    model: sweep.model,
                    technique: kind,
                    fault_label: plan.label(),
                    scale: sweep.scale,
                    seed: sweep.seed,
                    clean_accuracy: t95(reps.iter().map(|r| r.clean_accuracy)),
                    faulty_accuracy: t95(reps.iter().map(|r| r.faulty_accuracy)),
                    ad: t95(reps.iter().map(|r| r.accuracy_delta)),
                    repetitions: reps,
                    wall_seconds: 0.0,
                })
            })
            .collect()
    }

    fn flip(
        &self,
        net: &mut tdfm_nn::Network,
        instance: &tdfm_inject::model::FaultInstance,
    ) -> usize {
        self.counts
            .weight_flips
            .fetch_add(instance.flips.len() as u64, Ordering::Relaxed);
        self.rec
            .span("inject.weight_flip", || apply_weight_faults(net, instance))
            .made_nonfinite
    }

    /// Scores a weight plan as the model-fault runner does; returns
    /// (faulty accuracy, accuracy delta, weights made non-finite).
    fn score_weights(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
    ) -> (f32, f32, usize) {
        let labels = test.labels();
        match plan.mode {
            InjectionMode::Exhaustive => {
                assert_eq!(
                    fitted.member_count(),
                    1,
                    "exhaustive plans need one network"
                );
                let instances = plan.weight_instances(fitted.networks_mut()[0]);
                let (mut acc_sum, mut ad_sum, mut made_nonfinite) = (0.0f64, 0.0f64, 0usize);
                for instance in &instances {
                    made_nonfinite += self.flip(fitted.networks_mut()[0], instance);
                    let preds = self.predict(fitted, test);
                    self.flip(fitted.networks_mut()[0], instance);
                    self.rec.span("core.metrics", || {
                        acc_sum += accuracy(&preds, labels) as f64;
                        ad_sum += accuracy_delta(clean_preds, &preds, labels) as f64;
                    });
                }
                let k = instances.len() as f64;
                ((acc_sum / k) as f32, (ad_sum / k) as f32, made_nonfinite)
            }
            InjectionMode::Stochastic { seed, .. } => {
                let mut made_nonfinite = 0;
                let mut applied = Vec::new();
                for (m, net) in fitted.networks_mut().into_iter().enumerate() {
                    let member = plan
                        .clone()
                        .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let instance = member.weight_instances(net).swap_remove(0);
                    made_nonfinite += self.flip(net, &instance);
                    applied.push(instance);
                }
                let preds = self.predict(fitted, test);
                for (net, instance) in fitted.networks_mut().into_iter().zip(&applied) {
                    self.flip(net, instance);
                }
                self.rec.span("core.metrics", || {
                    (
                        accuracy(&preds, labels),
                        accuracy_delta(clean_preds, &preds, labels),
                        made_nonfinite,
                    )
                })
            }
        }
    }

    /// Scores an activation plan: hook every member, predict, unhook.
    fn score_activations(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
    ) -> (f32, f32, usize) {
        let InjectionMode::Stochastic { seed, .. } = plan.mode else {
            panic!("activation plans are stochastic")
        };
        self.rec.span("inject.activation_hook", || {
            let fired = Arc::new(AtomicU64::new(0));
            for (m, net) in fitted.networks_mut().into_iter().enumerate() {
                let member = plan
                    .clone()
                    .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                net.set_activation_hook(counting_activation_hook(&member, Arc::clone(&fired)));
            }
        });
        let preds = self.predict(fitted, test);
        self.rec.span("inject.activation_hook", || {
            for net in fitted.networks_mut() {
                net.clear_activation_hook();
            }
        });
        let labels = test.labels();
        self.rec.span("core.metrics", || {
            (
                accuracy(&preds, labels),
                accuracy_delta(clean_preds, &preds, labels),
                0,
            )
        })
    }

    fn sharded(&self, sweep: &ShardFaultSweep) -> Vec<ShardFaultResult> {
        self.fan_out(sweep.aggregators.len(), |a| {
            self.rec.span("core.aggregator", || {
                self.sharded_aggregator(sweep, sweep.aggregators[a])
            })
        })
        .into_iter()
        .flatten()
        .collect()
    }

    fn fit_sharded(
        &self,
        sweep: &ShardFaultSweep,
        kind: AggregatorKind,
        config: &ModelConfig,
        train: &[LabeledDataset],
        cfg: &FitConfig,
    ) -> (tdfm_nn::Network, tdfm_core::ShardedFitReport) {
        let mut agg = TimedAggregator {
            inner: kind.build(),
            rec: self.rec,
            span: format!("core.aggregate.{}", aggregator_label(kind)),
        };
        self.rec.span("core.fit_sharded", || {
            fit_sharded(sweep.model, config, train, cfg, &mut agg)
        })
    }

    fn predict_net(&self, net: &mut tdfm_nn::Network, test: &LabeledDataset) -> Vec<u32> {
        self.counts
            .predict_images
            .fetch_add(test.len() as u64, Ordering::Relaxed);
        self.rec
            .span("nn.predict", || net.predict(test.images(), EVAL_BATCH))
    }

    fn sharded_aggregator(
        &self,
        sweep: &ShardFaultSweep,
        kind: AggregatorKind,
    ) -> Vec<ShardFaultResult> {
        let mut reps_per_plan: Vec<Vec<ShardFaultRepetition>> = vec![Vec::new(); sweep.plans.len()];
        for r in 0..sweep.repetitions {
            let rs = rep_seed(sweep.seed, r);
            let data = self.generate(sweep.dataset, sweep.scale, rs);
            let labels = data.test.labels();
            let shards = self
                .rec
                .span("data.shards", || data.train.shards(sweep.workers));
            let cfg = sharded_fit_config(sweep.scale, shards[0].len(), rs);
            let (c, h, w) = data.train.image_shape();
            let model_config = ModelConfig {
                in_shape: (c, h, w),
                classes: data.train.classes(),
                width: sweep.scale.model_width(),
                seed: rs,
            };
            let (clean_train, clean_holdouts) =
                self.rec.span("data.shards", || split_holdouts(&shards));
            let (mut clean_net, clean_report, clean_preds, clean_accuracy) =
                self.rec.cell("core.repetition", || {
                    let (mut net, report) =
                        self.fit_sharded(sweep, kind, &model_config, &clean_train, &cfg);
                    let preds = self.predict_net(&mut net, &data.test);
                    let acc = self.rec.span("core.metrics", || accuracy(&preds, labels));
                    (net, report, preds, acc)
                });
            for (p, plan) in sweep.plans.iter().enumerate() {
                let rep = self.rec.cell("core.repetition", || {
                    if plan.is_clean() {
                        let loc = self.rec.span("core.localize", || {
                            localize_faulty_shards(&mut clean_net, &clean_holdouts)
                        });
                        return ShardFaultRepetition {
                            clean_accuracy,
                            faulty_accuracy: clean_accuracy,
                            accuracy_delta: 0.0,
                            suspect: loc.top() as u64,
                            suspect_score: loc.scores[loc.top()],
                            localizer_hit: false,
                            trimmed: clean_report.trimmed_contributions,
                            dropped: clean_report.dropped_contributions,
                        };
                    }
                    let inject_seed = sweep.seed ^ rs ^ ((p as u64) << 32);
                    let (faulty, _) = self
                        .rec
                        .span("inject.shard_apply", || plan.apply(&shards, inject_seed));
                    let (train, holdouts) =
                        self.rec.span("data.shards", || split_holdouts(&faulty));
                    let (mut net, report) =
                        self.fit_sharded(sweep, kind, &model_config, &train, &cfg);
                    let preds = self.predict_net(&mut net, &data.test);
                    let loc = self.rec.span("core.localize", || {
                        localize_faulty_shards(&mut net, &holdouts)
                    });
                    self.rec.span("core.metrics", || ShardFaultRepetition {
                        clean_accuracy,
                        faulty_accuracy: accuracy(&preds, labels),
                        accuracy_delta: accuracy_delta(&clean_preds, &preds, labels),
                        suspect: loc.top() as u64,
                        suspect_score: loc.scores[loc.top()],
                        localizer_hit: loc.top() == plan.shard,
                        trimmed: report.trimmed_contributions,
                        dropped: report.dropped_contributions,
                    })
                });
                reps_per_plan[p].push(rep);
            }
        }
        let name = kind.name();
        sweep
            .plans
            .iter()
            .zip(reps_per_plan)
            .map(|(plan, reps)| {
                self.rec.span("core.metrics", || ShardFaultResult {
                    dataset: sweep.dataset,
                    model: sweep.model,
                    aggregator: name.clone(),
                    workers: sweep.workers,
                    fault_label: plan.label(),
                    scale: sweep.scale,
                    seed: sweep.seed,
                    clean_accuracy: t95(reps.iter().map(|r| r.clean_accuracy)),
                    faulty_accuracy: t95(reps.iter().map(|r| r.faulty_accuracy)),
                    ad: t95(reps.iter().map(|r| r.accuracy_delta)),
                    localization_hits: reps.iter().filter(|r| r.localizer_hit).count(),
                    repetitions: reps,
                    wall_seconds: 0.0,
                })
            })
            .collect()
    }
}
