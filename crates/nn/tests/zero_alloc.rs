//! Proof that the dense/conv hot paths allocate nothing per batch.
//!
//! A counting global allocator wraps the system allocator; each test warms
//! a scratch arena with a few passes, switches the counter on, and asserts
//! that further passes perform zero heap allocations. One test drives
//! training passes (forward + backward) through a conv → relu → max-pool →
//! flatten → dense stack; the other drives the evaluation-mode forward
//! pass that fault-injection campaigns repeat per trial, over a stack of
//! convolutions; the third drives the prefix-reuse replays an exhaustive
//! weight campaign scores each trial with.
//!
//! The tests pin the thread count to 1 so the parallel helpers take their
//! inline (allocation-free) serial path, and each uses a private scratch
//! arena so concurrently-running tests cannot donate or steal buffers.
//! Only the measuring thread's allocations count, and the measured regions
//! are serialised, so the test harness and the other test cannot leak
//! into a count.
//!
//! The gate flag and counter live in `tdfm_obs::memory` (shared with run
//! manifests); only the unavoidable unsafe shim around the `System`
//! allocator lives here.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

use tdfm_nn::layer::{Layer, Mode};
use tdfm_nn::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sequential};
use tdfm_nn::{Network, Replay};
use tdfm_obs::memory;
use tdfm_tensor::ops::Conv2dSpec;
use tdfm_tensor::rng::Rng;
use tdfm_tensor::{parallel, Scratch, Tensor};

/// Counts allocations (and growing reallocations) made by a measuring
/// thread while the `tdfm_obs::memory` gate is open. Deallocations are
/// deliberately not counted: returning warm buffers is fine, taking new
/// ones is the bug this test exists to catch.
struct CountingAlloc;

thread_local! {
    /// Set on the thread whose allocations a test is counting.
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn note_if_measuring() {
    if MEASURING.try_with(Cell::get).unwrap_or(false) {
        memory::note_alloc();
    }
}

/// Heap allocations performed by `f` on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    memory::reset_allocations();
    MEASURING.with(|m| m.set(true));
    memory::set_counting(true);
    f();
    memory::set_counting(false);
    MEASURING.with(|m| m.set(false));
    memory::allocations()
}

// SAFETY: every method forwards verbatim to the `System` allocator and only
// adds side-effect-free atomic bookkeeping, so `GlobalAlloc`'s contract
// (layout fidelity, no unwinding, no allocator reentrancy) is exactly
// `System`'s, which upholds it.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_if_measuring();
        // SAFETY: `layout` is the caller's, forwarded untouched.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was produced by `alloc`/`realloc` above, which
        // always return `System` pointers with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: caller obligations are passed through unchanged to `System`.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_if_measuring();
        // SAFETY: `ptr`/`layout` come from this allocator's own alloc path
        // (which is `System`'s), and `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_conv_dense_passes_do_not_allocate() {
    parallel::set_num_threads(1);

    let mut rng = Rng::seed_from(0x5EED);
    let arena = Arc::new(Scratch::new());
    let mut net = Sequential::new()
        .push(Conv2d::new(1, 2, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Flatten::new())
        .push(Dense::new(8, 2, &mut rng));
    net.bind_scratch(&arena);

    let x = Tensor::randn(&[4, 1, 4, 4], 1.0, &mut rng);
    let grad = Tensor::ones(&[4, 2]);

    // Warm up: the first passes fill the scratch arena and size the
    // per-layer mask/dims buffers.
    for _ in 0..3 {
        let y = net.forward(&x, Mode::Train);
        let gx = net.backward(&grad);
        arena.recycle(y);
        arena.recycle(gx);
    }

    let allocs = allocations_in(|| {
        for _ in 0..2 {
            let y = net.forward(&x, Mode::Train);
            let gx = net.backward(&grad);
            arena.recycle(y);
            arena.recycle(gx);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state forward/backward passes performed {allocs} heap allocations"
    );
    assert!(arena.stats().hits > 0, "arena was never used");
}

#[test]
fn steady_state_eval_conv_forward_does_not_allocate() {
    parallel::set_num_threads(1);

    let mut rng = Rng::seed_from(0xE7A1);
    let arena = Arc::new(Scratch::new());
    // ConvNet's shape at small scale: padded 3×3 convolutions wide enough
    // for the packed GEMM (so the gathered panels run), pooling between.
    let mut net = Sequential::new()
        .push(Conv2d::new(3, 4, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 8, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(Flatten::new())
        .push(Dense::new(8 * 4 * 4, 5, &mut rng));
    net.bind_scratch(&arena);

    let x = Tensor::randn(&[6, 3, 8, 8], 1.0, &mut rng);
    for _ in 0..3 {
        let y = net.forward(&x, Mode::Eval);
        arena.recycle(y);
    }

    let allocs = allocations_in(|| {
        for _ in 0..2 {
            let y = net.forward(&x, Mode::Eval);
            arena.recycle(y);
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state evaluation forward passes performed {allocs} heap allocations"
    );
}

#[test]
fn steady_state_fault_replays_do_not_allocate() {
    parallel::set_num_threads(1);

    let mut rng = Rng::seed_from(0x9E91);
    let arena = Arc::new(Scratch::new());
    let body = Sequential::new()
        .push(Conv2d::new(3, 4, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(MaxPool2d::new(2, 2))
        .push(Conv2d::new(4, 8, 3, Conv2dSpec::same(3), &mut rng))
        .push(ReLU::new())
        .push(Flatten::new())
        .push(Dense::new(8 * 4 * 4, 5, &mut rng));
    let mut net = Network::new("replay", 5, body);
    net.bind_scratch(&arena);

    // Seven images in batches of three: two full batches and a partial.
    let x = Tensor::randn(&[7, 3, 8, 8], 1.0, &mut rng);
    let replays = [
        net.replay_for(0, 2),        // conv → ReLU → pool, then the suffix
        net.replay_for(3, 5),        // conv → ReLU, then the classifier
        net.replay_for(6, 0),        // the classifier alone
        net.replay_for(1, 0),        // from the first ReLU on
        Replay::Suffix { layer: 0 }, // the full forward
    ];
    let cache = net.prefix_cache(&x, 3, &replays);
    let mut logits = Tensor::zeros(&[7, 5]);
    for _ in 0..3 {
        for &replay in &replays {
            net.replay_logits(&x, &cache, replay, &mut logits);
        }
    }

    let allocs = allocations_in(|| {
        for _ in 0..2 {
            for &replay in &replays {
                net.replay_logits(&x, &cache, replay, &mut logits);
            }
        }
    });
    assert_eq!(
        allocs, 0,
        "steady-state fault replays performed {allocs} heap allocations"
    );
}
