//! Process memory accounting for run manifests: peak RSS and an opt-in
//! heap-allocation counter.
//!
//! Peak RSS comes from `/proc/self/status` (`VmHWM`, the resident-set
//! high-water mark), so it needs no allocator cooperation; on platforms
//! without procfs it reads as 0 and the manifest field stays at its
//! default.
//!
//! The allocation counter is the other way around: this crate only owns
//! the (safe) bookkeeping — a gate flag and an atomic counter — because
//! installing a `#[global_allocator]` requires `unsafe`, which this crate
//! forbids. A binary or test that wants counting wraps the system
//! allocator in a shim whose `alloc`/`realloc` call [`note_alloc`], then
//! brackets the region of interest with [`set_counting`]. See
//! `crates/nn/tests/zero_alloc.rs` for the canonical shim.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static EVER_COUNTED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Records one heap allocation (or growing reallocation) if counting is
/// on. Called from allocator shims; a no-op (one relaxed load) otherwise,
/// so shims can forward unconditionally.
pub fn note_alloc() {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Opens or closes the counting gate. Allocations only accumulate while
/// the gate is open.
pub fn set_counting(on: bool) {
    if on {
        EVER_COUNTED.store(true, Ordering::SeqCst);
    }
    COUNTING.store(on, Ordering::SeqCst);
}

/// Whether the counting gate was ever opened in this process — i.e.
/// whether [`allocations`] measured anything. A zero count without it
/// means "not counted", not "allocation-free".
pub fn counting_was_enabled() -> bool {
    EVER_COUNTED.load(Ordering::SeqCst)
}

/// Allocations observed since the last [`reset_allocations`]. Zero when no
/// shim ever counted — the manifest default for runs without one.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Zeroes the allocation counter.
pub fn reset_allocations() {
    ALLOCS.store(0, Ordering::SeqCst);
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or 0 where procfs is unavailable.
pub fn peak_rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| parse_vm_hwm(&text))
        .unwrap_or(0)
}

/// Extracts `VmHWM` (reported in kB) from a `/proc/self/status` document.
fn parse_vm_hwm(text: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_status_document() {
        let status = "Name:\ttdfm\nVmPeak:\t  999999 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm(status), Some(12345 * 1024));
        assert_eq!(parse_vm_hwm("Name:\ttdfm\n"), None);
        assert_eq!(parse_vm_hwm("VmHWM:\tgarbage kB\n"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_is_positive_on_linux() {
        assert!(peak_rss_bytes() > 0);
    }

    #[test]
    fn counter_only_moves_while_gate_is_open() {
        // Serialise against any other test touching the global counter.
        reset_allocations();
        note_alloc();
        assert_eq!(allocations(), 0, "gate closed: note_alloc must not count");
        set_counting(true);
        note_alloc();
        note_alloc();
        set_counting(false);
        note_alloc();
        assert_eq!(allocations(), 2);
        assert!(counting_was_enabled(), "opening the gate is remembered");
        reset_allocations();
        assert_eq!(allocations(), 0);
    }
}
