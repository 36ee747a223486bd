//! Integer atomics for kernels whose writes may collide.
//!
//! OpenCL 1.x provides atomic operations on 32-bit integers only; the paper
//! emulates floating-point ones "through atomic compare-and-swap operations
//! on integer values" (§4.1.7, footnote 7). This runtime does not: a CAS
//! loop adds floats in whatever order the threads interleave, so the result
//! is not reproducible. Grouped aggregation folds floats in private
//! per-work-group tables instead (`ocelot-core`'s `ops::aggregate`), and
//! `xlint`'s `float-atomic-in-ops` rule keeps float atomics out of the
//! operator library. What remains here are the integer helpers and the CAS
//! the hash-table build's pessimistic round needs.

use std::sync::atomic::{AtomicU32, Ordering};

/// Atomically adds `value` to the `i32` stored (as bits) in `cell` and
/// returns the previous value.
pub fn atomic_add_i32(cell: &AtomicU32, value: i32) -> i32 {
    cell.fetch_add(value as u32, Ordering::AcqRel) as i32
}

/// Atomically stores the minimum of `value` and the `i32` stored in `cell`.
pub fn atomic_min_i32(cell: &AtomicU32, value: i32) -> i32 {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let old = current as i32;
        if old <= value {
            return old;
        }
        match cell.compare_exchange_weak(current, value as u32, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => return old,
            Err(actual) => current = actual,
        }
    }
}

/// Atomically stores the maximum of `value` and the `i32` stored in `cell`.
pub fn atomic_max_i32(cell: &AtomicU32, value: i32) -> i32 {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let old = current as i32;
        if old >= value {
            return old;
        }
        match cell.compare_exchange_weak(current, value as u32, Ordering::AcqRel, Ordering::Relaxed)
        {
            Ok(_) => return old,
            Err(actual) => current = actual,
        }
    }
}

/// Atomic compare-and-swap on a raw 32-bit word. Returns the previous value.
///
/// This is the primitive the parallel hash-table insertion (paper §4.1.4)
/// uses during its pessimistic round.
pub fn atomic_cas_u32(cell: &AtomicU32, expected: u32, new: u32) -> u32 {
    match cell.compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire) {
        Ok(prev) => prev,
        Err(prev) => prev,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn min_max_i32_handles_negatives() {
        let cell = AtomicU32::new((-5i32) as u32);
        atomic_min_i32(&cell, -10);
        assert_eq!(cell.load(Ordering::Relaxed) as i32, -10);
        atomic_max_i32(&cell, 7);
        assert_eq!(cell.load(Ordering::Relaxed) as i32, 7);
        atomic_max_i32(&cell, -100);
        assert_eq!(cell.load(Ordering::Relaxed) as i32, 7);
    }

    #[test]
    fn cas_returns_previous() {
        let cell = AtomicU32::new(1);
        assert_eq!(atomic_cas_u32(&cell, 1, 2), 1);
        assert_eq!(cell.load(Ordering::Relaxed), 2);
        // Failed CAS leaves the value untouched and reports it.
        assert_eq!(atomic_cas_u32(&cell, 1, 3), 2);
        assert_eq!(cell.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn concurrent_int_add() {
        let cell = Arc::new(AtomicU32::new(0));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        atomic_add_i32(&cell, 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(cell.load(Ordering::Relaxed), 40_000);
    }
}
