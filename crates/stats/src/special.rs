//! Special functions needed for NIST SP 800-22 p-values.
//!
//! Implemented from scratch: log-gamma (Lanczos approximation), the
//! regularized incomplete gamma functions `P(a, x)` / `Q(a, x)` (series
//! and continued-fraction forms), the complementary error function, and
//! the standard normal CDF.

/// Natural log of the gamma function, Lanczos approximation (g = 7,
/// n = 9); accurate to ~15 significant digits for positive arguments.
///
/// # Panics
///
/// Panics for non-positive `x`.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma domain: x > 0");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        return std::f64::consts::PI.ln()
            - (std::f64::consts::PI * x).sin().ln()
            - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma `P(a, x) = γ(a, x) / Γ(a)`.
///
/// # Panics
///
/// Panics for `a <= 0` or `x < 0`.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_p domain");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma `Q(a, x) = 1 - P(a, x)` — the
/// `igamc` of the NIST test suite.
///
/// # Panics
///
/// Panics for `a <= 0` or `x < 0`.
pub fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0 && x >= 0.0, "gamma_q domain");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

/// Series expansion of `P(a, x)`, converges fast for `x < a + 1`.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut term = 1.0 / a;
    let mut sum = term;
    let mut n = a;
    for _ in 0..500 {
        n += 1.0;
        term *= x / n;
        sum += term;
        if term.abs() < sum.abs() * 1e-16 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Continued fraction (modified Lentz) for `Q(a, x)`, `x >= a + 1`.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / TINY;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < TINY {
            d = TINY;
        }
        c = b + an / c;
        if c.abs() < TINY {
            c = TINY;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < 1e-16 {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Complementary error function, `erfc(x) = 2/√π ∫ₓ^∞ e^{-t²} dt`.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        2.0 - gamma_q(0.5, x * x)
    }
}

/// Error function.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Standard normal cumulative distribution function Φ(x).
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9), refined with one Newton step.
///
/// # Panics
///
/// Panics for `p` outside the open interval `(0, 1)`.
pub fn normal_quantile(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "normal_quantile domain: 0 < p < 1");
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Newton refinement using the forward CDF.
    let e = normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), (24.0f64).ln(), 1e-12); // Γ(5) = 4!
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Half-integer: Γ(3.5) = 15/8 √π.
        close(
            ln_gamma(3.5),
            (15.0 / 8.0 * std::f64::consts::PI.sqrt()).ln(),
            1e-12,
        );
    }

    #[test]
    fn incomplete_gamma_special_cases() {
        // Q(1, x) = e^{-x}.
        for x in [0.1, 1.0, 3.0, 10.0] {
            close(gamma_q(1.0, x), (-x).exp(), 1e-12);
        }
        // Q(2, x) = e^{-x} (1 + x).
        for x in [0.5, 2.0, 8.0] {
            close(gamma_q(2.0, x), (-x).exp() * (1.0 + x), 1e-12);
        }
        // P + Q = 1.
        for (a, x) in [(0.5, 0.3), (3.0, 2.0), (10.0, 14.0)] {
            close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
        }
    }

    #[test]
    fn incomplete_gamma_boundaries() {
        assert_eq!(gamma_p(2.0, 0.0), 0.0);
        assert_eq!(gamma_q(2.0, 0.0), 1.0);
        // Monotone in x.
        assert!(gamma_p(3.0, 1.0) < gamma_p(3.0, 2.0));
    }

    #[test]
    fn erfc_known_values() {
        close(erfc(0.0), 1.0, 1e-14);
        close(erfc(1.0), 0.157_299_207_050_285, 1e-12);
        close(erfc(2.0), 0.004_677_734_981_063_1, 1e-12);
        close(erfc(-1.0), 2.0 - 0.157_299_207_050_285, 1e-12);
        close(erf(0.5), 0.520_499_877_813_047, 1e-12);
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-14);
        close(normal_cdf(1.96), 0.975_002_104_851_78, 1e-9);
        close(normal_cdf(-1.0), 0.158_655_253_931_457, 1e-11);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for p in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = normal_quantile(p);
            close(normal_cdf(x), p, 1e-10);
        }
        close(normal_quantile(0.975), 1.959_963_984_540_054, 1e-8);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    #[should_panic(expected = "domain")]
    fn quantile_rejects_one() {
        let _ = normal_quantile(1.0);
    }
}
