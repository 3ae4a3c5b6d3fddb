//! Prefix-reuse scoring vs the full forward, flip by flip.
//!
//! The model-fault runner scores an exhaustive weight campaign by
//! replaying only what each flip can change: the flipped output channel
//! through its channel-local run (`Replay::Channel`), or the layers from
//! the flipped one on (`Replay::Suffix`), starting from the clean
//! forward's cached activations. The claim is byte-identity: after every
//! single flip the replayed logits equal `Network::logits` on the faulted
//! network bit for bit — NaN positions included — so `model_faults.json`
//! cannot move.
//!
//! ConvNet gets every exponent bit of every parameter tensor at every SIMD
//! level; a residual network and a depthwise/batch-norm network cover the
//! fallbacks (residual blocks, batch-norm parameters, dense layers) on a
//! slice of their layers.

use tdfm_core::model_fault::weight_replays;
use tdfm_inject::model::{
    apply_weight_faults, BitRange, InjectionMode, ModelFaultPlan, TensorSelector,
};
use tdfm_nn::models::{ModelConfig, ModelKind};
use tdfm_nn::{Network, Replay};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::Tensor;

use std::sync::{Mutex, MutexGuard, OnceLock};

/// Evaluation batch of the tests: 5 images make two full batches and a
/// partial one.
const BATCH: usize = 2;

fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Raw bits with NaN payloads canonicalised (positions stay pinned; see
/// DESIGN.md §2.1a on NaN payloads).
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

fn network(kind: ModelKind) -> (Network, Tensor) {
    let cfg = ModelConfig {
        in_shape: (3, 8, 8),
        classes: 4,
        width: 1,
        seed: 11,
    };
    let mut rng = Rng::seed_from(12);
    let images = Tensor::randn(&[5, 3, 8, 8], 1.0, &mut rng);
    let mut net = kind.build(&cfg);
    // Fresh biases, batch-norm scales/shifts and running statistics are
    // 0/1, which would hide a reassociated formula; trained ones are not.
    for p in net.params_mut() {
        if p.value.shape().rank() == 1 {
            p.value = Tensor::randn(p.value.shape().dims(), 0.5, &mut rng);
        }
    }
    for state in net.state_mut() {
        for v in state {
            *v = 0.5 + rng.below(1000) as f32 / 1000.0;
        }
    }
    (net, images)
}

/// Scores every instance of `plan` both ways and returns how many took
/// each path: (channel-sparse, suffix from a later layer, full forward).
fn assert_replays_match(net: &mut Network, images: &Tensor, plan: &ModelFaultPlan) -> [usize; 3] {
    let instances = plan.weight_instances(net);
    let replays = weight_replays(net, &instances);
    let cache = net.prefix_cache(images, BATCH, &replays);
    let mut replayed = Tensor::zeros(&[images.shape().dim(0), net.classes()]);
    let mut paths = [0; 3];
    for (instance, &replay) in instances.iter().zip(&replays) {
        apply_weight_faults(net, instance);
        net.replay_logits(images, &cache, replay, &mut replayed);
        let full = net.logits(images, BATCH);
        apply_weight_faults(net, instance);
        assert_eq!(
            bits(replayed.data()),
            bits(full.data()),
            "{} {instance:?} via {replay:?}",
            net.name()
        );
        paths[match replay {
            Replay::Channel { .. } => 0,
            Replay::Suffix { layer: 0 } => 2,
            Replay::Suffix { .. } => 1,
        }] += 1;
    }
    paths
}

#[test]
fn convnet_exponent_sweep_replays_bit_for_bit_at_every_level() {
    let _guard = level_lock();
    let (mut net, images) = network(ModelKind::ConvNet);
    let tensors = net.params_mut().len();
    for level in available_levels() {
        force_simd(Some(level));
        let mut paths = [0; 3];
        for tensor in 0..tensors {
            let plan = ModelFaultPlan::weights()
                .select(TensorSelector::Params(vec![tensor]))
                .bits(BitRange::EXPONENT)
                .mode(InjectionMode::Exhaustive);
            let got = assert_replays_match(&mut net, &images, &plan);
            for (p, g) in paths.iter_mut().zip(got) {
                *p += g;
            }
        }
        // Conv weights and biases go channel-sparse, dense layers replay
        // their suffix; nothing needs the full forward.
        assert!(paths[0] > 0 && paths[1] > 0, "{paths:?}");
        assert_eq!(paths[2], 0, "{paths:?}");
    }
    force_simd(None);
}

#[test]
fn residual_and_batch_norm_networks_fall_back_bit_for_bit() {
    let _guard = level_lock();
    // ResNet18: stem conv (channel run through BN + ReLU), stem BN
    // parameters, the first residual block, the classifier.
    // MobileNet: stem, a depthwise conv, its BN, a pointwise conv, a
    // strided depthwise conv, the classifier.
    for (kind, layers) in [
        (ModelKind::ResNet18, vec![0, 1, 3]),
        (ModelKind::MobileNet, vec![0, 3, 4, 6, 9]),
    ] {
        let (mut net, images) = network(kind);
        let last = net.layer_names().len() - 1;
        let plan = ModelFaultPlan::weights()
            .select(TensorSelector::Layers(
                layers.into_iter().chain([last]).collect(),
            ))
            .bits(BitRange::new(28, 30))
            .mode(InjectionMode::Exhaustive);
        let paths = assert_replays_match(&mut net, &images, &plan);
        assert!(paths[0] > 0 && paths[1] > 0, "{kind:?} {paths:?}");
    }
}

#[test]
fn multi_flip_instances_replay_from_their_earliest_layer() {
    let (mut net, images) = network(ModelKind::ConvNet);
    let plan = ModelFaultPlan::weights()
        .bits(BitRange::EXPONENT)
        .mode(InjectionMode::Stochastic { flips: 3, seed: 5 });
    let instances = plan.weight_instances(&mut net);
    let replays = weight_replays(&mut net, &instances);
    assert!(matches!(replays[0], Replay::Suffix { .. }), "{replays:?}");
    assert_replays_match(&mut net, &images, &plan);
}
