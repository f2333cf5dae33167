//! Precision ladder for the EM compute arms.
//!
//! The paper's workloads are communication-bound, but once the wire is
//! metered honestly the next lever is the arithmetic itself: the hot
//! kernels (`Y·CM`, `XᵀX`, `YᵀX`) tolerate reduced precision because EM
//! is a fixed-point iteration — rounding error perturbs the iterate, not
//! the attractor. Randomized-sketch results (Halko et al.) show the same
//! headroom for subspace recovery.
//!
//! Three arms:
//!
//! * [`Precision::F64`] — the default; bit-identical to every previous
//!   release, and the reference the divergence meter compares against.
//! * [`Precision::F32`] — inputs are narrowed once per block, the
//!   kernels (the one family of [`crate::kernels`], instantiated over
//!   `f32`) multiply *and accumulate* in `f32` — half the memory traffic,
//!   twice the SIMD lanes — and per-block results widen back into the
//!   `f64` cross-partition accumulators.
//! * [`Precision::Bf16AccF64`] — inputs are rounded to bfloat16 (8-bit
//!   exponent, 7-bit mantissa, round-to-nearest-even) but the existing
//!   `f64` kernels do the arithmetic. This isolates the *representation*
//!   error from the *accumulation* error: it models fitting from
//!   bf16-stored data with wide accumulators, the common accelerator
//!   contract.
//!
//! Every arm keeps the kernels' determinism contract: chunk splits are a
//! function of the problem shape only and reductions merge in chunk
//! order, so each arm is bitwise reproducible across worker counts —
//! the arms differ from *each other*, never from themselves.

/// Which arithmetic the EM inner loop runs in. Selected on
/// `SpcaConfig::with_precision`; the default is full `f64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full double precision — the reference arm, byte-for-byte identical
    /// to the pre-precision-ladder code path.
    #[default]
    F64,
    /// Narrow inputs once per block, multiply and accumulate in `f32`,
    /// widen per-block results into the `f64` partials.
    F32,
    /// Round inputs to bfloat16, accumulate in `f64` via the unchanged
    /// double-precision kernels.
    Bf16AccF64,
}

impl Precision {
    /// Short stable label used in traces, JSON artifacts and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
            Precision::Bf16AccF64 => "bf16",
        }
    }

    /// Parses the CLI spelling (`f64`, `f32`, `bf16`).
    pub fn parse(s: &str) -> Option<Precision> {
        match s {
            "f64" => Some(Precision::F64),
            "f32" => Some(Precision::F32),
            "bf16" | "bf16accf64" => Some(Precision::Bf16AccF64),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Rounds `v` to the nearest bfloat16 value (round-to-nearest-even) and
/// returns it widened back to `f64`.
///
/// bf16 is the top 16 bits of an `f32`, so the rounding happens on the
/// `f32` bit pattern: add `0x7FFF` plus the ties-to-even bit, then drop
/// the low 16 bits. Mantissa overflow carries into the exponent, which
/// is exactly how RNE overflows to the next binade (and to infinity at
/// the top). NaN passes through unrounded so payload bits never turn
/// into infinities.
pub fn bf16_round(v: f64) -> f64 {
    let f = v as f32;
    if f.is_nan() {
        return f as f64;
    }
    let bits = f.to_bits();
    let rounded = bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) & 0xFFFF_0000;
    f32::from_bits(rounded) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_labels_roundtrip() {
        for p in [Precision::F64, Precision::F32, Precision::Bf16AccF64] {
            assert_eq!(Precision::parse(p.label()), Some(p));
        }
        assert_eq!(Precision::parse("f16"), None);
        assert_eq!(Precision::default(), Precision::F64);
    }

    #[test]
    fn bf16_round_known_values() {
        // Exactly representable values pass through.
        for v in [0.0, 1.0, -2.0, 0.5, 1.5, 256.0] {
            assert_eq!(bf16_round(v), v, "{v} is exact in bf16");
        }
        // 1 + 2^-8 is halfway between 1.0 and the next bf16 (1 + 2^-7);
        // ties-to-even rounds down to 1.0.
        assert_eq!(bf16_round(1.0 + 1.0 / 256.0), 1.0);
        // 1 + 3·2^-8 is halfway between 1+2^-7 and 1+2^-6; even mantissa
        // rounds up to 1+2^-6.
        assert_eq!(bf16_round(1.0 + 3.0 / 256.0), 1.0 + 1.0 / 64.0);
        // Just above halfway rounds up.
        assert_eq!(bf16_round(1.0 + 1.5 / 256.0), 1.0 + 1.0 / 128.0);
        // Sign is preserved, including on zero.
        assert_eq!(bf16_round(-0.0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(bf16_round(-1.0 - 1.5 / 256.0), -1.0 - 1.0 / 128.0);
    }

    #[test]
    fn bf16_round_extremes() {
        assert!(bf16_round(f64::NAN).is_nan());
        assert_eq!(bf16_round(f64::INFINITY), f64::INFINITY);
        assert_eq!(bf16_round(f64::NEG_INFINITY), f64::NEG_INFINITY);
        // Mantissa all-ones overflows the binade cleanly.
        let v = f32::from_bits(0x3FFF_FFFF) as f64; // just under 2.0
        assert_eq!(bf16_round(v), 2.0);
        // The largest finite bf16-adjacent f32 rounds to infinity.
        assert_eq!(bf16_round(f32::MAX as f64), f64::INFINITY);
        // bf16 keeps f32's 8-bit exponent range: tiny values survive.
        let tiny = bf16_round(1e-38);
        assert!(tiny > 0.0 && (tiny - 1e-38).abs() < 1e-39);
    }

    #[test]
    fn bf16_round_is_idempotent() {
        let mut rng = crate::Prng::seed_from_u64(9);
        for _ in 0..1000 {
            let v = rng.normal() * 1e3;
            let once = bf16_round(v);
            assert_eq!(bf16_round(once), once, "rounding {v} twice moved");
        }
    }
}
