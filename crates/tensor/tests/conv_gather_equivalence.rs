//! Gather-packed convolution vs the two-pass im2col reference.
//!
//! When the packed GEMM runs, `conv2d_forward` and the weight gradient of
//! `conv2d_backward` fill the GEMM's packed panels straight from the input
//! through a gather plan instead of materialising im2col's column matrix
//! and packing it. The claim is byte-identity: the same f32 values land in
//! the same packed slots, so the result must equal im2col followed by the
//! plain GEMM (`ops::matmul` / `ops::matmul_a_bt`, which pack through
//! `pack_b` / `pack_bt` under the same cost model) bit for bit, at every
//! SIMD level the host supports.
//!
//! `force_simd` flips a process-global, so every test in this binary runs
//! under one shared lock. Weight gradients are compared at one kernel
//! thread, where the batch reduction is a plain ascending-sample sum the
//! reference can replay.

use tdfm_tensor::ops::{
    self, conv2d_backward_with, conv2d_forward_with, conv_out_dim, im2col, Conv2dSpec,
};
use tdfm_tensor::parallel::with_inner_threads;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::simd::{available_levels, force_simd};
use tdfm_tensor::{Scratch, Tensor};

use std::sync::{Mutex, MutexGuard, OnceLock};

fn level_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Raw bit patterns, with every NaN collapsed to one canonical pattern.
///
/// NaN *positions* are pinned exactly; NaN *payloads* are not, because
/// when two NaNs meet in an accumulator x86 returns the first operand's
/// payload and the reference's scalar `+=` and the kernel's vector add
/// may order their operands differently (DESIGN.md §2.1a). Finite values
/// are compared raw.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| if v.is_nan() { 0x7fc0_0000 } else { v.to_bits() })
        .collect()
}

/// One convolution shape.
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

    fn out_hw(&self) -> (usize, usize) {
        (
            conv_out_dim(self.h, self.k, self.stride, self.pad),
            conv_out_dim(self.w, self.k, self.stride, self.pad),
        )
    }

    fn kdim(&self) -> usize {
        self.cg * self.k * self.k
    }

    /// Mirrors the kernel's routing: packed GEMM (`og >= 2`, at least
    /// half a panel of columns, at least 1024 MACs) on a non-pointwise
    /// conv means the gather runs. Used only to check the sweep covers
    /// the gathered route, never to pick the reference.
    fn gathers_forward(&self) -> bool {
        let (oh, ow) = self.out_hw();
        let pointwise = self.k == 1 && self.stride == 1 && self.pad == 0;
        !pointwise && self.og >= 2 && oh * ow >= 4 && self.og * self.kdim() * oh * ow >= 1024
    }

    fn inputs(&self, seed: u64) -> (Tensor, Tensor, Tensor) {
        let mut rng = Rng::seed_from(seed);
        let (c, o) = (self.cg * self.groups, self.og * self.groups);
        let x = Tensor::randn(&[self.n, c, self.h, self.w], 1.0, &mut rng);
        let w = Tensor::randn(&[o, self.cg, self.k, self.k], 0.5, &mut rng);
        let b = Tensor::randn(&[o], 0.1, &mut rng);
        (x, w, b)
    }

    /// im2col of group `g` of sample `s`, as a `[kdim, oh*ow]` tensor.
    fn columns(&self, x: &Tensor, s: usize, g: usize) -> Tensor {
        let (oh, ow) = self.out_hw();
        let group_in = self.cg * self.h * self.w;
        let sample_in = group_in * self.groups;
        let start = s * sample_in + g * group_in;
        let mut col = vec![0.0; self.kdim() * oh * ow];
        im2col(
            &x.data()[start..start + group_in],
            (self.cg, self.h, self.w),
            (self.k, self.k),
            self.stride,
            self.pad,
            &mut col,
        );
        Tensor::from_vec(col, &[self.kdim(), oh * ow])
    }

    /// Rows `[og, kdim]` of `w` belonging to group `g`.
    fn group_weight(&self, w: &Tensor, g: usize) -> Tensor {
        let len = self.og * self.kdim();
        Tensor::from_vec(
            w.data()[g * len..(g + 1) * len].to_vec(),
            &[self.og, self.kdim()],
        )
    }

    /// Two-pass forward: im2col, then the plain GEMM, then the bias.
    fn reference_forward(&self, x: &Tensor, w: &Tensor, b: &Tensor) -> Vec<f32> {
        let (oh, ow) = self.out_hw();
        let mut out = Vec::with_capacity(self.n * self.og * self.groups * oh * ow);
        for s in 0..self.n {
            for g in 0..self.groups {
                let y = ops::matmul(&self.group_weight(w, g), &self.columns(x, s, g));
                for (r, plane) in y.data().chunks(oh * ow).enumerate() {
                    let bias = b.data()[g * self.og + r];
                    out.extend(plane.iter().map(|v| v + bias));
                }
            }
        }
        out
    }

    /// Two-pass weight gradient at one thread: per sample and group,
    /// `gy_g · im2col(x_g)ᵀ` added into the running sum.
    fn reference_grad_weight(&self, x: &Tensor, gy: &Tensor) -> Vec<f32> {
        let (oh, ow) = self.out_hw();
        let ohow = oh * ow;
        let mut gw = vec![0.0f32; self.groups * self.og * self.kdim()];
        for s in 0..self.n {
            for g in 0..self.groups {
                let start = (s * self.groups + g) * self.og * ohow;
                let gy_g = Tensor::from_vec(
                    gy.data()[start..start + self.og * ohow].to_vec(),
                    &[self.og, ohow],
                );
                let prod = ops::matmul_a_bt(&gy_g, &self.columns(x, s, g));
                let gw_g = &mut gw[g * self.og * self.kdim()..(g + 1) * self.og * self.kdim()];
                for (acc, v) in gw_g.iter_mut().zip(prod.data()) {
                    *acc += *v;
                }
            }
        }
        gw
    }

    fn label(&self) -> String {
        format!(
            "n{} cg{} og{} g{} {}x{} k{} s{} p{}",
            self.n, self.cg, self.og, self.groups, self.h, self.w, self.k, self.stride, self.pad
        )
    }
}

/// Checks forward output and weight gradient of `case` against the
/// two-pass reference at every available SIMD level.
fn assert_matches_reference(case: Case, x: &Tensor, w: &Tensor, b: &Tensor) {
    let spec = case.spec();
    for level in available_levels() {
        force_simd(Some(level));
        with_inner_threads(1, || {
            let scratch = Scratch::new();
            let y = conv2d_forward_with(x, w, Some(b), spec, &scratch);
            assert_eq!(
                bits(y.data()),
                bits(&case.reference_forward(x, w, b)),
                "forward {} at {level:?}",
                case.label()
            );
            // The forward output doubles as a dense, sign-mixed gradient.
            let grads = conv2d_backward_with(x, w, &y, spec, &scratch);
            assert_eq!(
                bits(grads.grad_weight.data()),
                bits(&case.reference_grad_weight(x, &y)),
                "weight gradient {} at {level:?}",
                case.label()
            );
        });
    }
    force_simd(None);
}

/// The sweep's shapes: every kernel/stride/pad combination that fits, over
/// non-square inputs whose output planes mostly leave a panel tail, plus
/// batch and group variations.
fn sweep_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let geometries = [(7, 10), (9, 6), (11, 13)];
    for k in [1, 3, 5] {
        for stride in [1, 2] {
            for pad in [0, 1, 2] {
                for (i, &(h, w)) in geometries.iter().enumerate() {
                    if h + 2 * pad < k || w + 2 * pad < k {
                        continue;
                    }
                    let (n, groups, cg, og) = match i {
                        0 => (1, 1, 3, 4),
                        1 => (3, 2, 2, 3),
                        _ => (3, 3, 1, 2),
                    };
                    cases.push(Case {
                        n,
                        cg,
                        og,
                        groups,
                        h,
                        w,
                        k,
                        stride,
                        pad,
                    });
                }
            }
        }
    }
    // A training-sized batch through the first layer's shape.
    cases.push(Case {
        n: 64,
        cg: 3,
        og: 4,
        groups: 1,
        h: 8,
        w: 8,
        k: 3,
        stride: 1,
        pad: 1,
    });
    cases
}

#[test]
fn gathered_conv_matches_im2col_reference_bit_for_bit() {
    let _guard = level_lock();
    let cases = sweep_cases();
    let gathered = cases.iter().filter(|c| c.gathers_forward()).count();
    assert!(
        gathered * 2 > cases.len(),
        "sweep must mostly exercise the gathered route ({gathered} of {})",
        cases.len()
    );
    assert!(
        cases.iter().any(|c| {
            let (oh, ow) = c.out_hw();
            c.gathers_forward() && (oh * ow) % 8 != 0
        }),
        "sweep must cover panel tails"
    );
    for (i, case) in cases.into_iter().enumerate() {
        let (x, w, b) = case.inputs(0x6A7E + i as u64);
        assert_matches_reference(case, &x, &w, &b);
    }
}

#[test]
fn non_finite_inputs_next_to_padding_match_reference() {
    let _guard = level_lock();
    for (i, (k, pad)) in [(3, 1), (5, 2), (3, 2)].into_iter().enumerate() {
        let case = Case {
            n: 3,
            cg: 2,
            og: 3,
            groups: 2,
            h: 6,
            w: 9,
            k,
            stride: 1 + i % 2,
            pad,
        };
        let (mut x, w, b) = case.inputs(0xBAD + i as u64);
        // Border pixels sit in every window that also reads padding.
        let plane = case.h * case.w;
        let poison = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
        for (j, &v) in poison.iter().enumerate() {
            let channel = j % (case.cg * case.groups);
            let corner = [0, case.w - 1, (case.h - 1) * case.w][j];
            let sample = (j % case.n) * case.cg * case.groups * plane;
            x.data_mut()[sample + channel * plane + corner] = v;
        }
        assert!(case.gathers_forward(), "{}", case.label());
        assert_matches_reference(case, &x, &w, &b);

        // The faults must actually reach the output.
        let y = conv2d_forward_with(&x, &w, Some(&b), case.spec(), &Scratch::new());
        assert!(y.data().iter().any(|v| v.is_nan()), "{}", case.label());
    }
}
