//! Process-wide recycling of large `f64` buffers.
//!
//! The batched EM path retires multi-megabyte buffers every partition of
//! every iteration (packed `YtX` slabs, latent-block scratch, merged
//! accumulators). Fresh allocations of that size are served by `mmap` and
//! repay a page fault per 4 KiB on first touch; at the paper's shapes the
//! faults cost more than the arithmetic on the buffer. This bounded
//! freelist hands retired buffers back pre-faulted — `take_zeroed` clears
//! them with an in-place memset, several times cheaper than faulting a
//! fresh mapping.
//!
//! Small buffers stay out of it: below [`MIN_RECYCLED_LEN`] the allocator
//! serves a request from its own bins without a fault, which is cheaper
//! than this list's lock and best-fit scan — a fit over thousands of
//! few-row partitions takes and retires a buffer per task.
//!
//! Recycling cannot affect results: every buffer handed out is fully
//! cleared, so contents never leak across uses, and buffer identity is
//! invisible to the arithmetic.

use std::sync::{Mutex, MutexGuard};

/// Requests and retirements under this many `f64`s (32 KiB) bypass the
/// freelist.
const MIN_RECYCLED_LEN: usize = 4_096;

/// Upper bound on retained buffer count (keeps the best-fit scan short).
const MAX_BUFFERS: usize = 128;

/// Upper bound on retained bytes across all buffers.
const MAX_RETAINED_BYTES: usize = 256 << 20;

static POOL: Mutex<Pool> = Mutex::new(Pool { buffers: Vec::new(), bytes: 0 });

struct Pool {
    buffers: Vec<Vec<f64>>,
    bytes: usize,
}

fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A buffer of exactly `len` zeros, reusing a retired allocation when one
/// is large enough.
pub fn take_zeroed(len: usize) -> Vec<f64> {
    let mut v = take_cleared(len);
    v.resize(len, 0.0);
    v
}

/// An empty buffer with capacity at least `min_capacity`: the smallest
/// retired buffer that fits, or a fresh allocation if none does.
pub fn take_cleared(min_capacity: usize) -> Vec<f64> {
    if min_capacity < MIN_RECYCLED_LEN {
        return Vec::with_capacity(min_capacity);
    }
    let mut p = pool();
    let mut best: Option<usize> = None;
    for (i, b) in p.buffers.iter().enumerate() {
        if b.capacity() >= min_capacity
            && best.map_or(true, |j| b.capacity() < p.buffers[j].capacity())
        {
            best = Some(i);
        }
    }
    match best {
        Some(i) => {
            let v = p.buffers.swap_remove(i);
            p.bytes -= v.capacity() * 8;
            v
        }
        None => Vec::with_capacity(min_capacity),
    }
}

/// Retires a buffer into the freelist (silently dropped once the list is
/// at its count or byte bound).
pub fn recycle(v: Vec<f64>) {
    let cap = v.capacity();
    if cap < MIN_RECYCLED_LEN {
        return;
    }
    let mut p = pool();
    if p.buffers.len() >= MAX_BUFFERS || p.bytes + cap * 8 > MAX_RETAINED_BYTES {
        return;
    }
    p.bytes += cap * 8;
    let mut v = v;
    v.clear();
    p.buffers.push(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_is_all_zeros_even_after_recycling_dirty_buffer() {
        let v = vec![7.0; 2 * MIN_RECYCLED_LEN];
        recycle(v);
        let z = take_zeroed(2 * MIN_RECYCLED_LEN);
        assert_eq!(z.len(), 2 * MIN_RECYCLED_LEN);
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn recycled_capacity_is_reused() {
        let mut v = Vec::with_capacity(4096);
        v.resize(4096, 1.0);
        recycle(v);
        let t = take_cleared(4000);
        assert!(t.capacity() >= 4000);
        assert!(t.is_empty());
    }

    #[test]
    fn small_buffers_bypass_the_freelist() {
        recycle(Vec::new());
        // A capacity no other test retires, so finding it means it was kept.
        let odd = MIN_RECYCLED_LEN - 3;
        recycle(Vec::with_capacity(odd));
        assert!(pool().buffers.iter().all(|b| b.capacity() != odd));
        // A small take is a fresh allocation, never a (larger) retired one.
        let t = take_cleared(8);
        assert!(t.capacity() >= 8 && t.capacity() < MIN_RECYCLED_LEN);
    }
}
