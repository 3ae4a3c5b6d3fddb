//! The [`Layer`] trait and trainable [`Param`]s.

use tdfm_tensor::{ScratchHandle, Tensor};

/// Whether a forward pass is part of training or evaluation.
///
/// Dropout and batch normalisation behave differently between the two —
/// exactly the distinction the paper's overhead study (Section IV-E) draws
/// between training time and inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Training: dropout active, batch statistics collected.
    Train,
    /// Inference: deterministic, running statistics used.
    Eval,
}

/// One trainable tensor with its gradient accumulator.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current parameter values.
    pub value: Tensor,
    /// Gradient accumulated by the latest backward pass.
    pub grad: Tensor,
}

impl Param {
    /// Wraps initial values with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape().dims());
        Self { value, grad }
    }

    /// Resets the gradient to zero (called once per optimiser step).
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }

    /// Number of scalar parameters.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }
}

/// How a layer's output channels can be computed one at a time — the seam
/// channel-sparse fault replay uses (see [`crate::replay`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channels {
    /// Not addressable per channel (the default): the layer mixes
    /// channels into features, changes layout, or nests other layers.
    Opaque,
    /// Output channel `c` is computed from the whole input (convolution).
    /// Every parameter tensor's leading dimension is the output channel,
    /// so a parameter element feeds exactly one output channel.
    Mixed,
    /// Output channel `c` depends on input channel `c` alone (ReLU,
    /// pooling, evaluation-mode batch norm and dropout).
    Local,
}

/// A differentiable network component.
///
/// Layers own their parameters and the activation caches backpropagation
/// needs; `forward` must be called before the matching `backward`. All
/// layers are `Send` so ensemble members can train on worker threads.
pub trait Layer: Send {
    /// Computes the layer output, caching whatever `backward` will need.
    fn forward(&mut self, input: &Tensor, mode: Mode) -> Tensor;

    /// Propagates the output gradient, accumulating parameter gradients and
    /// returning the input gradient.
    ///
    /// # Panics
    ///
    /// Implementations may panic if called before `forward`.
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to the layer's trainable parameters (may be empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Mutable access to non-trainable state that must survive
    /// checkpointing (batch-norm running statistics). Most layers have
    /// none.
    fn state_mut(&mut self) -> Vec<&mut [f32]> {
        Vec::new()
    }

    /// Rebinds the layer onto a scratch arena for activation and gradient
    /// buffers. Layers default to the process-wide shared arena, so calling
    /// this is only needed to isolate a training run (e.g. one arena per
    /// ensemble member). Container layers must forward the call to their
    /// children.
    fn bind_scratch(&mut self, _scratch: &ScratchHandle) {}

    /// How this layer's output channels can be computed one at a time.
    fn channels(&self) -> Channels {
        Channels::Opaque
    }

    /// Evaluation-mode output channel `channel` alone, as `[N, 1, OH, OW]`:
    /// bit for bit what [`Layer::forward`] in [`Mode::Eval`] writes into
    /// that channel. `input` is the whole input for a [`Channels::Mixed`]
    /// layer and input channel `channel` alone (`[N, 1, H, W]`) for a
    /// [`Channels::Local`] one. Leaves backward caches as they were.
    ///
    /// # Panics
    ///
    /// The default panics: only layers whose [`Layer::channels`] is not
    /// [`Channels::Opaque`] implement it.
    fn forward_channel(&mut self, input: &Tensor, channel: usize) -> Tensor {
        let _ = (input, channel);
        panic!("{} is not channel-addressable", self.name())
    }

    /// Short human-readable layer name for summaries.
    fn name(&self) -> &'static str;

    /// Total scalar parameter count (for Table III style summaries).
    fn param_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.numel()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_starts_with_zero_grad() {
        let p = Param::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.grad.data(), &[0.0; 6]);
        assert_eq!(p.numel(), 6);
    }

    #[test]
    fn zero_grad_clears() {
        let mut p = Param::new(Tensor::ones(&[2]));
        p.grad.fill(5.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
