//! One output channel on its own vs the full convolution, and the weight
//! gradient across thread counts.
//!
//! `conv2d_channel_with` computes a single output channel, the kernel
//! channel-sparse fault replay runs. The claim is byte-identity with the
//! same channel of `conv2d_forward_with`, whichever GEMM route (direct,
//! pointwise, gathered) the full forward takes, at every SIMD level the
//! host supports — including infinite weights multiplied against padding,
//! which must give NaN exactly where the full forward gives it.
//!
//! The weight gradient of `conv2d_backward_with` must not depend on the
//! kernel thread count.
//!
//! `force_simd` and `set_num_threads` flip process-global state, so every
//! test in this binary runs under one shared lock.

use tdfm_tensor::ops::{
    conv2d_backward_with, conv2d_channel_with, conv2d_forward_with, Conv2dSpec,
};
use tdfm_tensor::parallel::{set_num_threads, SERIAL_THRESHOLD};
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::{Scratch, Tensor};

use std::sync::{Mutex, MutexGuard, OnceLock};

fn global_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Raw bit patterns with NaN payloads canonicalised: NaN positions are
/// pinned, payloads are not (two NaNs meeting in an add keep whichever
/// operand the compiler put first; DESIGN.md §2.1a).
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

/// One convolution shape: `cg` input and `og` output channels per group.
#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    cg: usize,
    og: usize,
    groups: usize,
    h: usize,
    w: usize,
    k: usize,
    stride: usize,
    pad: usize,
}

impl Case {
    fn spec(&self) -> Conv2dSpec {
        Conv2dSpec {
            stride: self.stride,
            pad: self.pad,
            groups: self.groups,
        }
    }

    fn inputs(&self, seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = Rng::seed_from(seed);
        let (c, o) = (self.cg * self.groups, self.og * self.groups);
        let x = Tensor::randn(&[self.n, c, self.h, self.w], 1.0, &mut rng);
        let w = Tensor::randn(&[o, self.cg, self.k, self.k], 0.5, &mut rng);
        let b = Tensor::randn(&[o], 0.1, &mut rng);
        (x, w, b)
    }
}

/// Channel `oc` of an `[N, O, OH, OW]` tensor, sample-major.
fn channel_of(y: &Tensor, oc: usize) -> Vec<f32> {
    let (n, o) = (y.shape().dim(0), y.shape().dim(1));
    let plane = y.numel() / (n * o);
    (0..n)
        .flat_map(|s| y.data()[(s * o + oc) * plane..(s * o + oc + 1) * plane].to_vec())
        .collect()
}

/// Every output channel of `case`, with and without bias, against the
/// full forward at every SIMD level.
fn assert_channels_match(case: &Case, x: &Tensor, w: &Tensor, b: &Tensor) {
    let spec = case.spec();
    for level in available_levels() {
        force_simd(Some(level));
        let scratch = Scratch::new();
        for bias in [Some(b), None] {
            let full = conv2d_forward_with(x, w, bias, spec, &scratch);
            for oc in 0..case.og * case.groups {
                let one = conv2d_channel_with(x, w, bias, spec, oc, &scratch);
                assert_eq!(one.shape().dims()[..2], [case.n, 1]);
                assert_eq!(
                    bits(one.data()),
                    bits(&channel_of(&full, oc)),
                    "{case:?} channel {oc} bias {} at {level:?}",
                    bias.is_some()
                );
            }
        }
    }
    force_simd(None);
}

#[test]
fn channel_matches_full_forward_over_geometries() {
    let _guard = global_lock();
    let mut i = 0;
    for k in [1, 3, 5] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                for (n, groups, cg, og, h, w) in [
                    (2, 1, 3, 4, 7, 10),
                    (3, 2, 2, 3, 9, 6),
                    (2, 4, 1, 1, 11, 13), // depthwise
                    (4, 1, 3, 8, 8, 8),   // gathered route
                ] {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    let case = Case {
                        n,
                        cg,
                        og,
                        groups,
                        h,
                        w,
                        k,
                        stride,
                        pad,
                    };
                    let (x, wt, b) = case.inputs(0xC4A1 + i);
                    assert_channels_match(&case, &x, &wt, &b);
                    i += 1;
                }
            }
        }
    }
}

#[test]
fn non_finite_values_next_to_padding_match_full_forward() {
    let _guard = global_lock();
    for (i, (k, stride, pad)) in [(3, 1, 1), (5, 1, 2), (3, 2, 2), (1, 1, 1)]
        .into_iter()
        .enumerate()
    {
        let case = Case {
            n: 3,
            cg: 2,
            og: 4,
            groups: 1,
            h: 6,
            w: 9,
            k,
            stride,
            pad,
        };
        let (mut x, mut w, b) = case.inputs(0xBAD0 + i as u64);
        // Border pixels share windows with padding.
        let plane = case.h * case.w;
        for (j, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY]
            .into_iter()
            .enumerate()
        {
            let corner = [0, case.w - 1, (case.h - 1) * case.w][j];
            x.data_mut()[(j % case.n) * 2 * plane + (j % 2) * plane + corner] = v;
        }
        // Exponent-flipped weights: an infinite tap times a padding zero
        // is NaN, a skipped tap would not be.
        let kdim = case.cg * k * k;
        w.data_mut()[0] = f32::INFINITY;
        w.data_mut()[kdim + kdim - 1] = f32::NEG_INFINITY;
        w.data_mut()[2 * kdim + 1] = f32::NAN;
        assert_channels_match(&case, &x, &w, &b);

        let y = conv2d_channel_with(&x, &w, Some(&b), case.spec(), 0, &Scratch::new());
        assert!(
            y.data().iter().any(|v| v.is_nan()),
            "an infinite tap over padding must reach the output ({case:?})"
        );
    }
}

#[test]
fn weight_gradient_is_identical_at_every_thread_count() {
    let _guard = global_lock();
    let case = Case {
        n: 16,
        cg: 3,
        og: 8,
        groups: 1,
        h: 8,
        w: 8,
        k: 3,
        stride: 1,
        pad: 1,
    };
    // Above the serial threshold, so more threads really split the work.
    assert!(case.n * case.og * 64 * case.cg * 9 >= SERIAL_THRESHOLD);
    let (x, w, b) = case.inputs(0x7EAD);
    let y = conv2d_forward_with(&x, &w, Some(&b), case.spec(), &Scratch::new());
    let grads_at = |threads: usize| {
        set_num_threads(threads);
        let g = conv2d_backward_with(&x, &w, &y, case.spec(), &Scratch::new());
        (
            bits(g.grad_weight.data()),
            bits(g.grad_bias.data()),
            bits(g.grad_input.data()),
        )
    };
    let one = grads_at(1);
    for threads in [2, 4] {
        assert!(
            grads_at(threads) == one,
            "gradients differ at {threads} threads"
        );
    }
    set_num_threads(0);
}
