//! Random-variate sampling helpers for the kinetic Monte-Carlo simulator and
//! the noise processes.
//!
//! These wrap `rand` with the specific distributions the orthodox-theory
//! Monte-Carlo loop needs: exponential waiting times, discrete selection
//! proportional to rates, and Gaussian noise via Box–Muller (kept local to
//! avoid depending on `rand_distr`).

use crate::error::NumericError;
use rand::Rng;

/// High bits of `sqrt(2)/2`, the re-centering offset of [`ln_unit`]'s
/// range reduction (the classic fdlibm constant, widened to the 64-bit
/// representation).
const LN_UNIT_OFFSET: u64 = 0x3fe6_a09e << 32;
/// `ln 2` split into a high part exact in ~45 bits and its tail, so
/// `k * LN2_HI` is exact for every exponent `k` the reduction produces
/// and the tail is folded in separately (Cody–Waite, the same split
/// discipline as the Boltzmann exponential kernel in `se-orthodox`).
/// Written with the full fdlibm digit string — the bits, not the decimal
/// shorthand, are the contract.
#[allow(clippy::excessive_precision)]
const LN2_HI: f64 = 6.931_471_803_691_238_16e-1;
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Minimax coefficients of the `ln(1+f)` core polynomial (fdlibm `Lg1` …
/// `Lg7`): `ln(1+f) = f - f²/2 + s·(f²/2 + R(z))` with `s = f/(2+f)`,
/// `z = s²` and `R` the Horner evaluation below, accurate to well under
/// 1 ulp over the reduced interval `m ∈ [√2/2, √2)`.
const LG1: f64 = 6.666_666_666_666_735e-1;
const LG2: f64 = 3.999_999_999_940_942e-1;
const LG3: f64 = 2.857_142_874_366_239e-1;
const LG4: f64 = 2.222_219_843_214_978_4e-1;
const LG5: f64 = 1.818_357_216_161_805e-1;
const LG6: f64 = 1.531_383_769_920_937_3e-1;
const LG7: f64 = 1.479_819_860_511_658_6e-1;

/// Deterministic polynomial natural logarithm over the waiting-time draw
/// domain `u ∈ (0, 1]` (any positive *normal* finite input is accepted).
///
/// The event clock of the Monte-Carlo hot loop is `dt = -ln(u) / Γ_total`.
/// This kernel is the `ln` sibling of the Boltzmann exponential in
/// `se-orthodox`: exponent-bit range reduction to `u = 2^k · m` with
/// `m ∈ [√2/2, √2)`, a fixed-degree Horner polynomial for `ln m`, and a
/// Cody–Waite reassembly of `k·ln 2 + ln m` — pure elementwise arithmetic
/// (one division, no branches, no table lookups) whose result is a
/// deterministic function of the input bits on every platform, unlike the
/// libm `ln` the replay traces must not depend on.
///
/// Accuracy: within 2 ulp of `f64::ln` over the full draw domain (the
/// property tests pin this); `ln_unit(1.0)` is exactly `0.0`.
#[inline(always)]
#[must_use]
pub fn ln_unit(u: f64) -> f64 {
    debug_assert!(
        u >= f64::MIN_POSITIVE && u.is_finite(),
        "ln_unit expects a positive normal input, got {u}"
    );
    // Range reduction: shift the exponent boundary to √2/2 so the reduced
    // mantissa straddles 1 symmetrically (m ∈ [√2/2, √2), |f| ≤ √2 − 1).
    // The offset add only touches the exponent/high-mantissa bits; the low
    // mantissa bits ride through untouched.
    let adjusted = u
        .to_bits()
        .wrapping_add(0x3ff0_0000_0000_0000 - LN_UNIT_OFFSET);
    let k = ((adjusted >> 52) as i64 - 0x3ff) as f64;
    let m = f64::from_bits((adjusted & 0x000f_ffff_ffff_ffff) + LN_UNIT_OFFSET);
    // ln m via the fdlibm core: s = f/(2+f) maps the reduced interval to
    // |s| ≤ 3−2√2, where the odd artanh series converges fast enough for
    // a degree-7 minimax polynomial in z = s².
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let r = t2 + t1;
    let hfsq = 0.5 * f * f;
    // Cody–Waite reassembly, in the exact operation order the accuracy
    // bound was derived for.
    s * (hfsq + r) + k * LN2_LO - hfsq + f + k * LN2_HI
}

/// Draws a uniform variate from the open-below unit interval
/// `(MIN_POSITIVE, 1]` — the guarded draw the exponential waiting time and
/// the Box–Muller radius are built on (`u = 0` would give an infinite
/// logarithm, and subnormal `u` sits outside [`ln_unit`]'s reduced domain).
#[inline]
fn unit_interval_open<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let mut u: f64 = rng.gen();
    while u <= f64::MIN_POSITIVE {
        u = rng.gen();
    }
    u
}

/// Samples an exponentially distributed waiting time with the given total
/// `rate` (in events per second).
///
/// The logarithm is the deterministic [`ln_unit`] kernel, so waiting times
/// are a pure function of the RNG stream and the rate on every platform.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] if `rate` is not strictly
/// positive and finite.
pub fn exponential_waiting_time<R: Rng + ?Sized>(
    rng: &mut R,
    rate: f64,
) -> Result<f64, NumericError> {
    if !(rate > 0.0) || !rate.is_finite() {
        return Err(NumericError::InvalidArgument(format!(
            "waiting-time rate must be positive and finite, got {rate}"
        )));
    }
    let u = unit_interval_open(rng);
    Ok(-ln_unit(u) / rate)
}

/// Selects an index with probability proportional to `weights[i]`.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] if the slice is empty, contains
/// a negative or non-finite weight, or sums to zero.
pub fn select_weighted<R: Rng + ?Sized>(
    rng: &mut R,
    weights: &[f64],
) -> Result<usize, NumericError> {
    if weights.is_empty() {
        return Err(NumericError::InvalidArgument(
            "cannot select from an empty weight list".into(),
        ));
    }
    let mut total = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if w < 0.0 || !w.is_finite() {
            return Err(NumericError::InvalidArgument(format!(
                "weight {i} is invalid: {w}"
            )));
        }
        total += w;
    }
    if total <= 0.0 {
        return Err(NumericError::InvalidArgument(
            "total weight is zero; no event can be selected".into(),
        ));
    }
    let target = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if target < acc {
            return Ok(i);
        }
    }
    // Floating-point round-off can leave `target` marginally above the last
    // accumulated value; return the last non-zero weight index.
    Ok(weights
        .iter()
        .rposition(|&w| w > 0.0)
        .expect("total weight was positive"))
}

/// Samples a standard normal variate using the Box–Muller transform.
///
/// The logarithm goes through [`ln_unit`] so noise streams share the
/// waiting-time clock's platform-independence.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = unit_interval_open(rng);
    let u2: f64 = rng.gen();
    (-2.0 * ln_unit(u1)).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples a normal variate with the given mean and standard deviation.
///
/// # Errors
///
/// Returns [`NumericError::InvalidArgument`] if `std_dev` is negative or not
/// finite.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std_dev: f64) -> Result<f64, NumericError> {
    if std_dev < 0.0 || !std_dev.is_finite() {
        return Err(NumericError::InvalidArgument(format!(
            "standard deviation must be non-negative and finite, got {std_dev}"
        )));
    }
    Ok(mean + std_dev * standard_normal(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Distance in representable doubles between two finite values of the
    /// same sign (the units-in-the-last-place metric the kernel's accuracy
    /// contract is stated in).
    fn ulp_distance(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64 - b.to_bits() as i64).unsigned_abs()
    }

    #[test]
    fn ln_unit_is_exact_at_the_interval_endpoints() {
        assert_eq!(ln_unit(1.0).to_bits(), 0.0_f64.to_bits());
        assert!(ulp_distance(ln_unit(0.5), 0.5_f64.ln()) <= 2);
        assert!(ulp_distance(ln_unit(f64::MIN_POSITIVE), f64::MIN_POSITIVE.ln()) <= 2);
    }

    #[test]
    fn ln_unit_tracks_libm_near_one() {
        // Near u = 1 the result crosses zero — the regime where a sloppy
        // reduction loses all relative accuracy. The √2/2 re-centering
        // keeps k = 0 there, so no cancellation occurs.
        for i in 1..=1000 {
            let u = 1.0 - i as f64 * 1e-6;
            let d = ulp_distance(ln_unit(u), u.ln());
            assert!(d <= 2, "u = {u}: {d} ulp from libm");
        }
    }

    #[test]
    fn exponential_waiting_time_matches_the_kernel_expression() {
        // The recorded traces pin the clock bits: this pins that the helper
        // is exactly -ln_unit(u)/rate over the guarded draw.
        let rate = 3.25e9;
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let dt = exponential_waiting_time(&mut a, rate).unwrap();
            let u = unit_interval_open(&mut b);
            assert_eq!(dt.to_bits(), (-ln_unit(u) / rate).to_bits());
        }
    }

    #[test]
    fn exponential_waiting_time_has_correct_mean() {
        let mut rng = StdRng::seed_from_u64(7);
        let rate = 2.0e9;
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| exponential_waiting_time(&mut rng, rate).unwrap())
            .sum::<f64>()
            / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} vs expected {expected}"
        );
    }

    #[test]
    fn exponential_rejects_bad_rate() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(exponential_waiting_time(&mut rng, 0.0).is_err());
        assert!(exponential_waiting_time(&mut rng, -1.0).is_err());
        assert!(exponential_waiting_time(&mut rng, f64::INFINITY).is_err());
    }

    #[test]
    fn weighted_selection_respects_proportions() {
        let mut rng = StdRng::seed_from_u64(42);
        let weights = [1.0, 3.0, 6.0];
        let mut counts = [0u32; 3];
        let n = 60_000;
        for _ in 0..n {
            counts[select_weighted(&mut rng, &weights).unwrap()] += 1;
        }
        let f1 = counts[1] as f64 / n as f64;
        let f2 = counts[2] as f64 / n as f64;
        assert!((f1 - 0.3).abs() < 0.02, "fraction {f1}");
        assert!((f2 - 0.6).abs() < 0.02, "fraction {f2}");
    }

    #[test]
    fn weighted_selection_skips_zero_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            let idx = select_weighted(&mut rng, &[0.0, 5.0, 0.0]).unwrap();
            assert_eq!(idx, 1);
        }
    }

    #[test]
    fn weighted_selection_rejects_invalid_inputs() {
        let mut rng = StdRng::seed_from_u64(3);
        assert!(select_weighted(&mut rng, &[]).is_err());
        assert!(select_weighted(&mut rng, &[0.0, 0.0]).is_err());
        assert!(select_weighted(&mut rng, &[-1.0, 2.0]).is_err());
        assert!(select_weighted(&mut rng, &[f64::NAN]).is_err());
    }

    #[test]
    fn standard_normal_has_zero_mean_unit_variance() {
        let mut rng = StdRng::seed_from_u64(11);
        let samples: Vec<f64> = (0..50_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = crate::stats::mean(&samples);
        let var = crate::stats::variance(&samples);
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn normal_rejects_negative_std_dev() {
        let mut rng = StdRng::seed_from_u64(5);
        assert!(normal(&mut rng, 0.0, -1.0).is_err());
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StdRng::seed_from_u64(13);
        let samples: Vec<f64> = (0..50_000)
            .map(|_| normal(&mut rng, 5.0, 0.1).unwrap())
            .collect();
        assert!((crate::stats::mean(&samples) - 5.0).abs() < 0.01);
        assert!((crate::stats::std_dev(&samples) - 0.1).abs() < 0.01);
    }
}
