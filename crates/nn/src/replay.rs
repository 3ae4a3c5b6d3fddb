//! Prefix-reuse evaluation: score a fault by re-running only what it can
//! change.
//!
//! A weight fault in top-level layer `L` leaves every activation before
//! `L` bit-identical to the clean forward's. A fault confined to output
//! channel `c` of a convolution also leaves every other channel of its
//! output identical, through every following layer that maps channel `c`
//! to channel `c` alone (ReLU, pooling, evaluation-mode batch norm and
//! dropout — [`Channels::Local`](crate::layer::Channels::Local)). So an evaluation of the faulted network
//! can start from the clean forward's activations:
//!
//! * [`Replay::Channel`] recomputes channel `c` through the convolution
//!   and its channel-local run, patches it into a copy of the clean
//!   activation at the run's end, and runs the remaining layers;
//! * [`Replay::Suffix`] runs layers `L..` from the clean activation
//!   entering `L` (`L = 0` is the full forward).
//!
//! The clean activations come from a [`PrefixCache`]: one clean forward
//! per evaluation batch, keeping only the top-level boundaries the planned
//! replays read. Replays run the same kernels on the same inputs as the
//! full forward, so their logits are bit-identical to
//! [`Network::logits`] on the faulted network.

use crate::layer::Mode;
use crate::network::Network;
use tdfm_tensor::{Tensor, MAX_RANK};

/// Where an evaluation of a faulted network starts, resolved against the
/// layer stack by [`Network::replay_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replay {
    /// Recompute output channel `channel` of the
    /// [`Channels::Mixed`](crate::layer::Channels::Mixed)
    /// layer `layer` and the channel-local layers `layer + 1..end`, patch
    /// it into the clean activation entering `end`, and run layers
    /// `end..` (none when `end` is the layer count).
    Channel {
        /// The layer whose output channel changed.
        layer: usize,
        /// That output channel.
        channel: usize,
        /// The first layer after the channel-local run.
        end: usize,
    },
    /// Run layers `layer..` from the clean activation entering `layer`;
    /// `layer == 0` is the full forward.
    Suffix {
        /// The first layer whose output can differ.
        layer: usize,
    },
}

impl Replay {
    /// The first layer the replay runs.
    pub(crate) fn layer(self) -> usize {
        match self {
            Replay::Channel { layer, .. } | Replay::Suffix { layer } => layer,
        }
    }

    /// The top-level boundaries (boundary `b` = the activation entering
    /// layer `b`) whose clean activations the replay reads. Boundary 0 is
    /// the network input, which is never cached.
    pub(crate) fn boundaries(self) -> impl Iterator<Item = usize> {
        let (first, end) = match self {
            Replay::Channel { layer, end, .. } => (layer, Some(end)),
            Replay::Suffix { layer } => (layer, None),
        };
        std::iter::once(first).chain(end).filter(|&b| b > 0)
    }
}

/// The clean forward's top-level activations at chosen boundaries, per
/// evaluation batch — what [`Network::replay_logits`] starts from.
#[derive(Debug)]
pub struct PrefixCache {
    rows: usize,
    batch: usize,
    /// Sorted, deduplicated, all in `1..=layer count`.
    boundaries: Vec<usize>,
    /// Batch-major: batch `b`'s activation at `boundaries[i]` is
    /// `acts[b * boundaries.len() + i]`.
    acts: Vec<Tensor>,
}

impl PrefixCache {
    /// Bytes of cached activations.
    pub fn bytes(&self) -> usize {
        self.acts
            .iter()
            .map(|t| t.numel() * std::mem::size_of::<f32>())
            .sum()
    }

    fn act(&self, batch_index: usize, boundary: usize) -> &Tensor {
        let i = self
            .boundaries
            .binary_search(&boundary)
            .unwrap_or_else(|_| panic!("boundary {boundary} is not cached"));
        &self.acts[batch_index * self.boundaries.len() + i]
    }
}

impl Network {
    /// How a weight change confined to output channel `channel` of
    /// top-level layer `layer` replays (see [`Replay`]). `channel` only
    /// matters when the layer is
    /// [`Channels::Mixed`](crate::layer::Channels::Mixed).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range.
    pub fn replay_for(&self, layer: usize, channel: usize) -> Replay {
        self.body().replay_for(layer, channel)
    }

    /// Runs the clean forward once per evaluation batch of `batch` rows
    /// and keeps the activations every replay in `replays` reads.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or an activation hook is installed (the
    /// cache must hold the fault-free forward).
    pub fn prefix_cache(
        &mut self,
        inputs: &Tensor,
        batch: usize,
        replays: &[Replay],
    ) -> PrefixCache {
        assert!(batch > 0, "batch size must be positive");
        assert!(
            !self.has_activation_hook(),
            "the prefix cache holds the fault-free forward; clear the activation hook first"
        );
        let mut boundaries: Vec<usize> = replays.iter().flat_map(|r| r.boundaries()).collect();
        boundaries.sort_unstable();
        boundaries.dedup();
        let rows = inputs.shape().dim(0);
        let mut acts = Vec::with_capacity(rows.div_ceil(batch) * boundaries.len());
        let mut keep = |layer: usize, _: &'static str, t: &mut Tensor| {
            if boundaries.binary_search(&(layer + 1)).is_ok() {
                acts.push(t.clone());
            }
        };
        let mut start = 0;
        while start < rows {
            let end = (start + batch).min(rows);
            let chunk = rows_of(self, inputs, start, end);
            let body = self.body_mut();
            let out = body.forward_from(0, &chunk, Mode::Eval, Some(&mut keep));
            body.scratch().recycle(out);
            body.scratch().recycle(chunk);
            start = end;
        }
        PrefixCache {
            rows,
            batch,
            boundaries,
            acts,
        }
    }

    /// Evaluation-mode logits of the (faulted) network over `inputs`,
    /// written into `out` (`[N, classes]`), starting from `cache` as
    /// `replay` says. Bit-identical to [`Network::logits`] at the cache's
    /// batch size when every difference from the network the cache was
    /// built on lies where `replay` says; allocates nothing once the
    /// scratch arena is warm.
    ///
    /// # Panics
    ///
    /// Panics if an activation hook is installed, if `inputs` or `out`
    /// do not match the cache, or if `cache` lacks a boundary `replay`
    /// reads.
    pub fn replay_logits(
        &mut self,
        inputs: &Tensor,
        cache: &PrefixCache,
        replay: Replay,
        out: &mut Tensor,
    ) {
        assert!(
            !self.has_activation_hook(),
            "replays score weight faults on the fault-free forward; clear the activation hook first"
        );
        assert_eq!(
            inputs.shape().dim(0),
            cache.rows,
            "inputs do not match the cache"
        );
        let classes = self.classes();
        assert_eq!(
            out.shape().dims(),
            &[cache.rows, classes],
            "logits buffer shape"
        );
        let mut start = 0;
        let mut b = 0;
        while start < cache.rows {
            let end = (start + cache.batch).min(cache.rows);
            let chunk = (replay.layer() == 0).then(|| rows_of(self, inputs, start, end));
            let input = chunk
                .as_ref()
                .unwrap_or_else(|| cache.act(b, replay.layer()));
            let clean_end = match replay {
                Replay::Channel { end, .. } => Some(cache.act(b, end)),
                Replay::Suffix { .. } => None,
            };
            let body = self.body_mut();
            let logits = body.replay(replay, input, clean_end);
            assert_eq!(
                logits.shape().dims(),
                &[end - start, classes],
                "network produced wrong logits shape"
            );
            out.data_mut()[start * classes..end * classes].copy_from_slice(logits.data());
            body.scratch().recycle(logits);
            if let Some(chunk) = chunk {
                body.scratch().recycle(chunk);
            }
            start = end;
            b += 1;
        }
    }
}

/// Rows `start..end` of `inputs`, copied into a buffer from the network's
/// scratch arena.
pub(crate) fn rows_of(net: &Network, inputs: &Tensor, start: usize, end: usize) -> Tensor {
    let src = inputs.shape().dims();
    let mut dims = [0usize; MAX_RANK];
    dims[..src.len()].copy_from_slice(src);
    dims[0] = end - start;
    let row = inputs.numel() / src[0];
    let mut chunk = net.body().scratch().tensor_uninit(&dims[..src.len()]);
    chunk
        .data_mut()
        .copy_from_slice(&inputs.data()[start * row..end * row]);
    chunk
}
