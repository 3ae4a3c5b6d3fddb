//! The model-fault experiment protocol (ROADMAP item 1): how well does
//! each mitigation technique tolerate SEU bit-flips in the *model*?
//!
//! The data-fault protocol of [`crate::experiment`] trains a technique on
//! faulty data and compares against a clean-trained golden model. The
//! model-fault protocol inverts the axes: every technique trains on
//! *clean* data, and faults strike the fitted model at inference time —
//! weight bits flipped in place (and reverted bit-exactly between trials,
//! exploiting the XOR involution) or activation bits flipped mid-forward
//! through the [`tdfm_nn::Network`] hook. The reference point is the
//! fitted model's own fault-free predictions, so the reported AD isolates
//! the damage the fault does, not the technique's clean-data skill.
//!
//! One technique fit is shared by every fault plan in a sweep — the
//! model-fault analogue of the golden cache: a sweep of `P` plans at `R`
//! repetitions costs `R` trainings per technique, not `P·R`.

use crate::experiment::run_indexed;
use crate::metrics::{accuracy, accuracy_delta, ConfidenceInterval};
use crate::technique::{FittedModel, TechniqueKind, TrainContext, EVAL_BATCH};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tdfm_data::{DatasetKind, LabeledDataset, Scale};
use tdfm_inject::model::{
    apply_weight_faults, counting_activation_hook, FaultInstance, FaultSite, InjectionMode,
    ModelFaultPlan, TensorSelector,
};
use tdfm_inject::provenance::weight_provenance;
use tdfm_inject::{split_clean, ProvenanceBuilder};
use tdfm_json::json_struct;
use tdfm_nn::models::ModelKind;
use tdfm_nn::{Network, Replay};
use tdfm_obs::{event, Level, ManifestCell, ProvenanceRecord, RunManifest};
use tdfm_tensor::ops::argmax_rows;
use tdfm_tensor::parallel::num_threads;
use tdfm_tensor::Tensor;

/// A model-fault sweep: every listed technique scored against every
/// listed fault plan, sharing one fit per (technique, repetition).
#[derive(Debug, Clone)]
pub struct ModelFaultSweep {
    /// Dataset techniques train on (clean — faults hit the model).
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Techniques to score (typically [`TechniqueKind::ALL_EXTENDED`]).
    pub techniques: Vec<TechniqueKind>,
    /// Fault plans to score each technique against.
    pub plans: Vec<ModelFaultPlan>,
    /// Experiment scale.
    pub scale: Scale,
    /// Repetitions per (technique, plan) cell.
    pub repetitions: usize,
    /// Base seed; repetition `r` derives its own seed exactly like the
    /// data-fault runner, and stochastic plans are re-seeded per
    /// repetition so fault sets are independent draws.
    pub seed: u64,
}

/// Raw outcome of one repetition of one (technique, plan) cell.
#[derive(Debug, Clone)]
pub struct ModelFaultRepetition {
    /// Fault-free test accuracy of the fitted model.
    pub clean_accuracy: f32,
    /// Test accuracy under the fault plan (mean over trials for
    /// exhaustive campaigns).
    pub faulty_accuracy: f32,
    /// Accuracy delta of the faulted model against its own fault-free
    /// predictions.
    pub accuracy_delta: f32,
    /// Weights driven non-finite by the applied flips (0 for activation
    /// plans, whose faults never persist in the model).
    pub made_nonfinite: usize,
}

json_struct!(ModelFaultRepetition {
    clean_accuracy,
    faulty_accuracy,
    accuracy_delta,
    made_nonfinite
});

/// Aggregated outcome of one (technique, plan) cell.
#[derive(Debug, Clone)]
pub struct ModelFaultResult {
    /// Dataset trained on.
    pub dataset: DatasetKind,
    /// Architecture under study.
    pub model: ModelKind,
    /// Technique protecting the model.
    pub technique: TechniqueKind,
    /// The fault plan's label (see [`ModelFaultPlan::label`]).
    pub fault_label: String,
    /// Experiment scale.
    pub scale: Scale,
    /// Base seed of the sweep.
    pub seed: u64,
    /// Per-repetition raw results.
    pub repetitions: Vec<ModelFaultRepetition>,
    /// Fault-free accuracy mean and 95% CI.
    pub clean_accuracy: ConfidenceInterval,
    /// Faulted accuracy mean and CI.
    pub faulty_accuracy: ConfidenceInterval,
    /// AD mean and CI.
    pub ad: ConfidenceInterval,
    /// Wall-clock spent scoring this cell's fault trials, seconds
    /// (training time is shared across the technique's cells and reported
    /// in the manifest metrics instead).
    pub wall_seconds: f64,
}

json_struct!(ModelFaultResult {
    dataset,
    model,
    technique,
    fault_label,
    scale,
    seed,
    repetitions,
    clean_accuracy,
    faulty_accuracy,
    ad,
    wall_seconds
});

impl ModelFaultResult {
    /// Serialises the result as pretty JSON.
    pub fn to_json(&self) -> String {
        tdfm_json::to_string_pretty(self)
    }

    /// Zeroes the wall-clock field — everything else is a deterministic
    /// function of the sweep, so normalised results diff byte-for-byte.
    pub fn normalize_timings(&mut self) {
        self.wall_seconds = 0.0;
    }
}

/// Runs model-fault sweeps, sharing one technique fit across fault plans.
///
/// Like [`crate::experiment::Runner`], each runner owns a private metrics
/// registry so fit counters and scoring timings stay exact when several
/// runners share a process; [`ModelFaultRunner::manifest`] snapshots it.
#[derive(Default)]
pub struct ModelFaultRunner {
    metrics: tdfm_obs::Registry,
    /// Model-fault provenance per cell identity (technique | fault
    /// label): which (tensor, bit) pairs the applied instances hit, and
    /// how many activation flips actually fired, summed over
    /// repetitions. [`ModelFaultRunner::manifest`] joins it with each
    /// cell's AD.
    provenance: Mutex<BTreeMap<String, ProvenanceBuilder>>,
}

/// Trials scored by a full forward pass (the `trials.*` and
/// `trial_seconds.*` metrics name the path).
const PATH_FULL: &str = "full";

/// The scoring path a replay takes.
fn replay_path(replay: Replay) -> &'static str {
    match replay {
        Replay::Channel { .. } => "channel_sparse",
        Replay::Suffix { layer: 0 } => PATH_FULL,
        Replay::Suffix { .. } => "suffix_replay",
    }
}

/// Where each weight-fault instance's evaluation can start.
///
/// A single flip lands in one top-level layer (found through
/// [`Network::layer_param_counts`]) and one output channel: parameter
/// tensors of channel-computing layers lead with the output channel, so a
/// conv weight element `e` feeds channel `e / (C/groups·KH·KW)` and a bias
/// element `e` channel `e`. Several flips replay from the earliest layer
/// they touch.
pub fn weight_replays(net: &mut Network, instances: &[FaultInstance]) -> Vec<Replay> {
    let layer_of: Vec<usize> = net
        .layer_param_counts()
        .into_iter()
        .enumerate()
        .flat_map(|(layer, count)| std::iter::repeat_n(layer, count))
        .collect();
    let per_channel: Vec<usize> = net
        .params_mut()
        .iter()
        .map(|p| p.numel() / p.value.shape().dim(0))
        .collect();
    instances
        .iter()
        .map(|instance| match instance.flips.as_slice() {
            [flip] => net.replay_for(
                layer_of[flip.tensor],
                flip.element / per_channel[flip.tensor],
            ),
            flips => Replay::Suffix {
                layer: flips.iter().map(|f| layer_of[f.tensor]).min().unwrap_or(0),
            },
        })
        .collect()
}

/// The provenance-map key of a (technique, plan) cell.
fn cell_key(technique: TechniqueKind, fault_label: &str) -> String {
    format!("{}|{fault_label}", technique.full_name())
}

impl ModelFaultRunner {
    /// Creates a runner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of technique fits performed (the sharing regression guard:
    /// a sweep costs `techniques × repetitions` fits however many plans
    /// it scores).
    pub fn technique_fits(&self) -> usize {
        self.metrics.counter("technique_fits").get() as usize
    }

    /// Snapshot of this runner's private metrics.
    pub fn metrics_snapshot(&self) -> tdfm_obs::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Runs the sweep, returning one result per (technique, plan) pair in
    /// technique-major order.
    ///
    /// Techniques fan out across worker threads (they are independent);
    /// within a technique, repetitions run sequentially and every plan is
    /// scored against the same fitted model. Output is deterministic in
    /// the sweep's seeds — see [`ModelFaultResult::normalize_timings`].
    ///
    /// # Panics
    ///
    /// Panics if the sweep has no techniques, no plans or no repetitions.
    pub fn run_sweep(&self, sweep: &ModelFaultSweep) -> Vec<ModelFaultResult> {
        assert!(!sweep.techniques.is_empty(), "sweep needs techniques");
        assert!(!sweep.plans.is_empty(), "sweep needs fault plans");
        assert!(sweep.repetitions > 0, "need at least one repetition");
        let per_technique = run_indexed(sweep.techniques.len(), |t| {
            let kind = sweep.techniques[t];
            let started = Instant::now();
            let results = self.run_technique(sweep, kind);
            self.metrics
                .histogram("technique_seconds")
                .record(started.elapsed());
            event!(
                Level::Info,
                "model_fault_progress",
                technique = kind.full_name(),
                done = t + 1,
                total = sweep.techniques.len()
            );
            results
        });
        per_technique.into_iter().flatten().collect()
    }

    /// Fits `kind` once per repetition and scores every plan against it.
    fn run_technique(&self, sweep: &ModelFaultSweep, kind: TechniqueKind) -> Vec<ModelFaultResult> {
        let technique = kind.build();
        let mut reps_per_plan: Vec<Vec<ModelFaultRepetition>> =
            vec![Vec::with_capacity(sweep.repetitions); sweep.plans.len()];
        let mut walls = vec![0.0f64; sweep.plans.len()];
        let mut prov_per_plan = vec![ProvenanceBuilder::new(); sweep.plans.len()];
        for r in 0..sweep.repetitions {
            let rep_seed = sweep
                .seed
                .wrapping_add(1 + r as u64)
                .wrapping_mul(0x9E37_79B9);
            let data = sweep.dataset.generate(sweep.scale, rep_seed);
            let mut ctx = TrainContext::new(sweep.scale, rep_seed);
            ctx.tune_for(data.train.len());
            // Training data stays clean (faults hit the model), but label
            // correction still runs its clean-subset machinery.
            let train = if technique.wants_clean_subset() {
                let (clean, rest) = split_clean(&data.train, 0.1, rep_seed ^ 0xC1EA);
                ctx.clean_subset = Some(clean);
                rest
            } else {
                data.train.clone()
            };
            self.metrics.counter("technique_fits").inc();
            let mut fitted = technique.fit(sweep.model, &train, &ctx);
            let clean_preds = fitted.predict(data.test.images());
            let clean_accuracy = accuracy(&clean_preds, data.test.labels());
            for (p, plan) in sweep.plans.iter().enumerate() {
                let started = Instant::now();
                // Repetition r of plan p samples its own fault set; the
                // plan's original seed keeps distinct plans distinct.
                let plan = plan.clone().reseed(match plan.mode {
                    InjectionMode::Stochastic { seed, .. } => seed ^ rep_seed ^ ((p as u64) << 32),
                    InjectionMode::Exhaustive => 0,
                });
                let rep = match plan.site {
                    FaultSite::Weights => self.score_weight_plan(
                        &mut fitted,
                        &plan,
                        &data.test,
                        &clean_preds,
                        clean_accuracy,
                        &mut prov_per_plan[p],
                    ),
                    FaultSite::Activations => self.score_activation_plan(
                        &mut fitted,
                        &plan,
                        &data.test,
                        &clean_preds,
                        clean_accuracy,
                        &mut prov_per_plan[p],
                    ),
                };
                walls[p] += started.elapsed().as_secs_f64();
                reps_per_plan[p].push(rep);
            }
        }
        {
            let mut provenance = self.provenance.lock().expect("provenance lock poisoned");
            for (plan, prov) in sweep.plans.iter().zip(&prov_per_plan) {
                if !prov.is_empty() {
                    provenance
                        .entry(cell_key(kind, &plan.label()))
                        .or_default()
                        .extend(&prov.records());
                }
            }
        }
        sweep
            .plans
            .iter()
            .zip(reps_per_plan)
            .zip(walls)
            .map(|((plan, reps), wall_seconds)| {
                let clean: Vec<f32> = reps.iter().map(|r| r.clean_accuracy).collect();
                let faulty: Vec<f32> = reps.iter().map(|r| r.faulty_accuracy).collect();
                let ad: Vec<f32> = reps.iter().map(|r| r.accuracy_delta).collect();
                ModelFaultResult {
                    dataset: sweep.dataset,
                    model: sweep.model,
                    technique: kind,
                    fault_label: plan.label(),
                    scale: sweep.scale,
                    seed: sweep.seed,
                    clean_accuracy: ConfidenceInterval::t95(&clean),
                    faulty_accuracy: ConfidenceInterval::t95(&faulty),
                    ad: ConfidenceInterval::t95(&ad),
                    repetitions: reps,
                    wall_seconds,
                }
            })
            .collect()
    }

    /// Counts `trials` fault trials scored on `path` by one evaluation
    /// (as `weight_trials`/`activation_trials` count them: one per member
    /// instance of a stochastic weight plan) and records how long the
    /// evaluation took.
    fn trial_scored(&self, path: &str, trials: usize, started: Instant) {
        self.metrics
            .counter(&format!("trials.{path}"))
            .add(trials as u64);
        self.metrics
            .histogram(&format!("trial_seconds.{path}"))
            .record(started.elapsed());
    }

    /// Scores a weight plan: apply flips, predict, undo via XOR.
    ///
    /// Stochastic plans inject one independently-drawn fault set into
    /// *every* member network (an upset per replica — the pessimistic
    /// reading for ensembles). Exhaustive plans score every single-flip
    /// instance in turn and report the mean.
    fn score_weight_plan(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
        clean_accuracy: f32,
        prov: &mut ProvenanceBuilder,
    ) -> ModelFaultRepetition {
        match plan.mode {
            InjectionMode::Exhaustive => {
                assert_eq!(
                    fitted.member_count(),
                    1,
                    "exhaustive weight campaigns require a single-model technique"
                );
                let instances = plan.weight_instances(fitted.networks_mut()[0]);
                prov.extend(&weight_provenance(&instances));
                let mut acc_sum = 0.0f64;
                let mut ad_sum = 0.0f64;
                let mut made_nonfinite = 0usize;
                // The one network's argmax is the prediction (a
                // one-member ensemble votes exactly that).
                let net = fitted.networks_mut().swap_remove(0);
                let replays = weight_replays(net, &instances);
                let cache = net.prefix_cache(test.images(), EVAL_BATCH, &replays);
                self.metrics
                    .counter("prefix_cache_peak_bytes")
                    .raise_to(cache.bytes() as u64);
                let mut logits = Tensor::zeros(&[test.len(), net.classes()]);
                for (instance, &replay) in instances.iter().zip(&replays) {
                    let started = Instant::now();
                    made_nonfinite += apply_weight_faults(net, instance).made_nonfinite;
                    net.replay_logits(test.images(), &cache, replay, &mut logits);
                    apply_weight_faults(net, instance);
                    let preds = argmax_rows(&logits);
                    acc_sum += accuracy(&preds, test.labels()) as f64;
                    ad_sum += accuracy_delta(clean_preds, &preds, test.labels()) as f64;
                    self.trial_scored(replay_path(replay), 1, started);
                }
                let k = instances.len() as f64;
                self.metrics
                    .counter("weight_trials")
                    .add(instances.len() as u64);
                ModelFaultRepetition {
                    clean_accuracy,
                    faulty_accuracy: (acc_sum / k) as f32,
                    accuracy_delta: (ad_sum / k) as f32,
                    made_nonfinite,
                }
            }
            InjectionMode::Stochastic { seed, .. } => {
                // One trial per plan: a prefix cache would cost the full
                // forward it saves, so the trial runs the full forward.
                let started = Instant::now();
                let mut made_nonfinite = 0usize;
                let mut applied = Vec::new();
                for (m, net) in fitted.networks_mut().into_iter().enumerate() {
                    let member_plan = plan
                        .clone()
                        .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let instance = member_plan.weight_instances(net).swap_remove(0);
                    let report = apply_weight_faults(net, &instance);
                    made_nonfinite += report.made_nonfinite;
                    applied.push(instance);
                    self.metrics.counter("weight_trials").inc();
                }
                let preds = fitted.predict(test.images());
                for (net, instance) in fitted.networks_mut().into_iter().zip(&applied) {
                    apply_weight_faults(net, instance);
                }
                prov.extend(&weight_provenance(&applied));
                self.trial_scored(PATH_FULL, applied.len(), started);
                ModelFaultRepetition {
                    clean_accuracy,
                    faulty_accuracy: accuracy(&preds, test.labels()),
                    accuracy_delta: accuracy_delta(clean_preds, &preds, test.labels()),
                    made_nonfinite,
                }
            }
        }
    }

    /// Scores an activation plan: hook every member, predict, unhook.
    ///
    /// The hooks count the flips they actually inject (the activation
    /// fault space depends on the evaluation batching, so the count is
    /// only knowable at forward time); the total lands in `prov` keyed by
    /// the plan's layer scope and bit range.
    fn score_activation_plan(
        &self,
        fitted: &mut FittedModel,
        plan: &ModelFaultPlan,
        test: &LabeledDataset,
        clean_preds: &[u32],
        clean_accuracy: f32,
        prov: &mut ProvenanceBuilder,
    ) -> ModelFaultRepetition {
        let InjectionMode::Stochastic { seed, .. } = plan.mode else {
            panic!("activation fault spaces depend on the data; use stochastic mode")
        };
        let started = Instant::now();
        let fired = Arc::new(AtomicU64::new(0));
        for (m, net) in fitted.networks_mut().into_iter().enumerate() {
            let member_plan = plan
                .clone()
                .reseed(seed ^ (m as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            net.set_activation_hook(counting_activation_hook(&member_plan, Arc::clone(&fired)));
        }
        let preds = fitted.predict(test.images());
        for net in fitted.networks_mut() {
            net.clear_activation_hook();
        }
        let target = match &plan.selector {
            TensorSelector::All => "all layers".to_string(),
            TensorSelector::Layers(l) => format!("layers{l:?}"),
            TensorSelector::Params(_) => unreachable!("rejected by the hook builder"),
        };
        prov.add(
            "bitflip",
            &target,
            plan.bits.lo(),
            plan.bits.hi(),
            "-",
            fired.load(Ordering::Relaxed),
        );
        self.metrics.counter("activation_trials").inc();
        self.trial_scored(PATH_FULL, 1, started);
        ModelFaultRepetition {
            clean_accuracy,
            faulty_accuracy: accuracy(&preds, test.labels()),
            accuracy_delta: accuracy_delta(clean_preds, &preds, test.labels()),
            made_nonfinite: 0,
        }
    }

    /// Builds the run manifest for a batch of sweep results: one
    /// [`ManifestCell`] per (technique, plan) cell plus this runner's
    /// metrics merged with the process-global registry — the same shape
    /// [`crate::experiment::Runner::manifest`] produces, so `tdfm report`
    /// reads both.
    pub fn manifest(&self, name: &str, results: &[ModelFaultResult]) -> RunManifest {
        let scale = match results {
            [] => "-".to_string(),
            [first, rest @ ..] => {
                if rest.iter().any(|r| r.scale != first.scale) {
                    "mixed".to_string()
                } else {
                    first.scale.name().to_string()
                }
            }
        };
        let mut manifest = RunManifest::new(name, scale, num_threads());
        manifest.cells = results
            .iter()
            .enumerate()
            .map(|(index, result)| ManifestCell {
                index,
                dataset: result.dataset.name().to_string(),
                model: result.model.name().to_string(),
                technique: result.technique.full_name().to_string(),
                fault: result.fault_label.clone(),
                scale: result.scale.name().to_string(),
                repetitions: result.repetitions.len(),
                seed: result.seed,
                wall_seconds: result.wall_seconds,
            })
            .collect();
        let provenance = self.provenance.lock().expect("provenance lock poisoned");
        for (index, result) in results.iter().enumerate() {
            // tdfm-lint: allow(lock-held-across-call, cell_key is a pure string formatter)
            let Some(builder) = provenance.get(&cell_key(result.technique, &result.fault_label))
            else {
                continue;
            };
            let source = if result.fault_label.starts_with("activations") {
                "activations"
            } else {
                "weights"
            };
            // tdfm-lint: allow(lock-held-across-call, records() clones out of the builder without taking any lock)
            for r in builder.records() {
                manifest.provenance.push(ProvenanceRecord {
                    cell: index,
                    source: source.to_string(),
                    kind: r.kind,
                    target: r.target,
                    bit_lo: r.bit_lo,
                    bit_hi: r.bit_hi,
                    bucket: r.bucket,
                    count: r.count,
                    ad_mean: result.ad.mean as f64,
                });
            }
        }
        drop(provenance);
        let mut metrics = self.metrics.snapshot();
        metrics.merge(&tdfm_obs::global().snapshot());
        manifest.metrics = metrics;
        manifest
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdfm_inject::model::BitRange;

    fn tiny_sweep(techniques: Vec<TechniqueKind>, plans: Vec<ModelFaultPlan>) -> ModelFaultSweep {
        ModelFaultSweep {
            dataset: DatasetKind::Pneumonia,
            model: ModelKind::ConvNet,
            techniques,
            plans,
            scale: Scale::Tiny,
            repetitions: 2,
            seed: 42,
        }
    }

    fn low_mantissa_weights() -> ModelFaultPlan {
        ModelFaultPlan::weights()
            .bits(BitRange::new(0, 10))
            .mode(InjectionMode::Stochastic { flips: 1, seed: 7 })
    }

    #[test]
    fn sweep_is_technique_major_and_shares_fits() {
        let runner = ModelFaultRunner::new();
        let plans = vec![
            low_mantissa_weights(),
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic { flips: 1, seed: 7 }),
        ];
        let sweep = tiny_sweep(
            vec![TechniqueKind::Baseline, TechniqueKind::LabelSmoothing],
            plans.clone(),
        );
        let results = runner.run_sweep(&sweep);
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].technique, TechniqueKind::Baseline);
        assert_eq!(results[0].fault_label, plans[0].label());
        assert_eq!(results[1].fault_label, plans[1].label());
        assert_eq!(results[2].technique, TechniqueKind::LabelSmoothing);
        // One fit per (technique, repetition), however many plans.
        assert_eq!(runner.technique_fits(), 4);
        for result in &results {
            assert_eq!(result.repetitions.len(), 2);
            assert!((0.0..=1.0).contains(&result.ad.mean));
            assert!((0.0..=1.0).contains(&result.clean_accuracy.mean));
        }
    }

    #[test]
    fn low_mantissa_flip_is_benign() {
        let runner = ModelFaultRunner::new();
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let result = &runner.run_sweep(&sweep)[0];
        // A single low-mantissa flip perturbs one weight by < 0.05%: the
        // model's predictions cannot move.
        assert_eq!(result.ad.mean, 0.0, "AD {}", result.ad.mean);
        assert_eq!(result.faulty_accuracy.mean, result.clean_accuracy.mean);
    }

    #[test]
    fn sweeps_are_deterministic() {
        let plans = vec![
            ModelFaultPlan::weights().mode(InjectionMode::Stochastic { flips: 4, seed: 3 }),
            ModelFaultPlan::activations()
                .bits(BitRange::EXPONENT)
                .mode(InjectionMode::Stochastic { flips: 2, seed: 3 }),
        ];
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], plans);
        let run = || {
            let mut results = ModelFaultRunner::new().run_sweep(&sweep);
            for r in &mut results {
                r.normalize_timings();
            }
            results.iter().map(|r| r.to_json()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn weight_faults_are_undone_between_plans() {
        // A catastrophic plan scored before a benign plan must not leak
        // flipped bits into the benign plan's trials: the benign result
        // matches a sweep that never saw the catastrophic plan.
        let catastrophic = ModelFaultPlan::weights()
            .bits(BitRange::EXPONENT)
            .mode(InjectionMode::Stochastic { flips: 16, seed: 1 });
        let both = tiny_sweep(
            vec![TechniqueKind::Baseline],
            vec![catastrophic, low_mantissa_weights()],
        );
        let alone = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let from_both = &ModelFaultRunner::new().run_sweep(&both)[1];
        let from_alone = &ModelFaultRunner::new().run_sweep(&alone)[0];
        assert_eq!(
            from_both.faulty_accuracy.mean,
            from_alone.faulty_accuracy.mean
        );
        assert_eq!(from_both.ad.mean, from_alone.ad.mean);
    }

    #[test]
    fn exhaustive_campaign_scores_every_instance() {
        let runner = ModelFaultRunner::new();
        // Sign-bit-only campaign over one small parameter tensor keeps the
        // instance count bounded while exercising the exhaustive path.
        let plan = ModelFaultPlan::weights()
            .select(tdfm_inject::model::TensorSelector::Params(vec![1]))
            .bits(BitRange::new(31, 31))
            .mode(InjectionMode::Exhaustive);
        let mut sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![plan]);
        sweep.repetitions = 1;
        let results = runner.run_sweep(&sweep);
        assert_eq!(results.len(), 1);
        let trials = runner.metrics_snapshot().counter("weight_trials");
        assert!(trials.unwrap_or(0) > 0, "no trials recorded");
        assert!((0.0..=1.0).contains(&results[0].faulty_accuracy.mean));
    }

    #[test]
    fn trials_are_counted_by_scoring_path() {
        let runner = ModelFaultRunner::new();
        let exhaustive = |tensor: usize| {
            ModelFaultPlan::weights()
                .select(TensorSelector::Params(vec![tensor]))
                .bits(BitRange::new(31, 31))
                .mode(InjectionMode::Exhaustive)
        };
        // Conv0 bias (channel-sparse), the classifier bias (suffix), and
        // two one-trial plans scored by the full forward.
        let plans = vec![
            exhaustive(1),
            exhaustive(11),
            low_mantissa_weights(),
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic { flips: 1, seed: 7 }),
        ];
        let mut sweep = tiny_sweep(vec![TechniqueKind::Baseline], plans);
        sweep.repetitions = 1;
        runner.run_sweep(&sweep);
        let m = runner.metrics_snapshot();
        let count = |name: &str| m.counter(name).unwrap_or(0);
        let (channel, suffix, full) = (
            count("trials.channel_sparse"),
            count("trials.suffix_replay"),
            count("trials.full"),
        );
        assert!(channel > 0 && suffix > 0, "{channel} {suffix}");
        assert_eq!(full, 2);
        assert_eq!(
            channel + suffix + full,
            count("weight_trials") + count("activation_trials")
        );
        for (path, n) in [
            ("channel_sparse", channel),
            ("suffix_replay", suffix),
            ("full", full),
        ] {
            let name = format!("trial_seconds.{path}");
            let h = m.histograms.iter().find(|h| h.name == name).expect("timed");
            assert_eq!(h.count, n, "{path}");
        }
        assert!(count("prefix_cache_peak_bytes") > 0);
    }

    #[test]
    fn manifest_records_weight_and_activation_provenance() {
        let runner = ModelFaultRunner::new();
        let plans = vec![
            ModelFaultPlan::weights()
                .bits(BitRange::EXPONENT)
                .mode(InjectionMode::Stochastic { flips: 3, seed: 7 }),
            ModelFaultPlan::activations().mode(InjectionMode::Stochastic { flips: 2, seed: 7 }),
        ];
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], plans);
        let results = runner.run_sweep(&sweep);
        let manifest = runner.manifest("unit", &results);

        let weight: Vec<_> = manifest
            .provenance
            .iter()
            .filter(|r| r.source == "weights")
            .collect();
        let activation: Vec<_> = manifest
            .provenance
            .iter()
            .filter(|r| r.source == "activations")
            .collect();
        assert!(!weight.is_empty() && !activation.is_empty());

        // Weight records: one per (tensor, bit) hit; 3 flips x 2 reps.
        assert!(weight.iter().all(|r| r.cell == 0
            && r.kind == "bitflip"
            && r.target.starts_with("tensor ")
            && (23..=30).contains(&r.bit_lo)
            && r.bit_lo == r.bit_hi));
        assert_eq!(weight.iter().map(|r| r.count).sum::<u64>(), 3 * 2);

        // Activation records: the counted flips that actually fired.
        assert!(activation.iter().all(|r| r.cell == 1
            && r.kind == "bitflip"
            && r.target == "all layers"
            && (r.bit_lo, r.bit_hi) == (0, 31)
            && r.count > 0));
        // Each cell's records carry that cell's AD.
        for r in &manifest.provenance {
            assert_eq!(r.ad_mean, results[r.cell].ad.mean as f64);
        }
    }

    #[test]
    fn results_round_trip_through_json_and_manifest() {
        let runner = ModelFaultRunner::new();
        let sweep = tiny_sweep(vec![TechniqueKind::Baseline], vec![low_mantissa_weights()]);
        let results = runner.run_sweep(&sweep);
        let json = tdfm_json::to_string_pretty(&results);
        let back: Vec<ModelFaultResult> = tdfm_json::from_str(&json).unwrap();
        assert_eq!(back.len(), results.len());
        assert_eq!(back[0].fault_label, results[0].fault_label);
        assert_eq!(back[0].ad.mean, results[0].ad.mean);

        let manifest = runner.manifest("unit", &results);
        assert_eq!(manifest.name, "unit");
        assert_eq!(manifest.scale, "tiny");
        assert_eq!(manifest.cells.len(), 1);
        assert_eq!(manifest.cells[0].technique, "Baseline");
        assert_eq!(manifest.cells[0].fault, results[0].fault_label);
        assert_eq!(manifest.metrics.counter("technique_fits"), Some(2));
    }
}
