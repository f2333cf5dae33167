//! The retired flat byte-size estimate, kept as a bare trait.
//!
//! Every meter charges real encoded lengths from the [`crate::wire`] codec.
//! No type in the workspace implements this trait any more; it stays only
//! because the frozen benchmark replay (`benchmark/src/replay.rs`) still
//! implements it for its own payload type. ROADMAP item 1(a) retires the
//! replay, and this module goes with it.

/// A flat per-value byte estimate. Only the frozen benchmark replay
/// implements it; ROADMAP item 1(a) deletes it.
pub trait ByteSized {
    /// Estimated bytes this value occupies on the (simulated) wire.
    fn size_bytes(&self) -> u64;
}
