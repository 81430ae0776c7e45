//! Elementwise activations computed in this crate rather than by the host
//! libm: a bit-exact, branch-free `tanh` and the GELU built on it.
//!
//! [`tanh`] returns, for every `f32` input, the bits of fdlibm's
//! single-precision `tanhf` with its `expm1f` (glibc 2.36's
//! `sysdeps/ieee754/flt-32/s_tanhf.c` and `s_expm1f.c`; neither has an FMA
//! variant).  Instead of branching it runs one argument reduction, one
//! polynomial and one `k`-reconstruction on every input and selects the
//! result, so an elementwise loop over it compiles to SIMD on the baseline
//! SSE2 target.

/// `√(2/π)` of GELU's tanh form.
const GELU_C: f32 = 0.797_884_6;
/// GELU's cubic coefficient.
const GELU_A: f32 = 0.044715;

// expm1f's constants, by the bits its source lists beside the decimals.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07
/// `1.5·2²³`: adding it rounds any `|v| < 2²²` to an integer, which the
/// low mantissa bits then hold (an `as i32` cast would saturate, and its
/// range checks keep the loop scalar).
const SHIFTER: f32 = 12_582_912.0;

/// Hyperbolic tangent, bit for bit fdlibm's `tanhf` as glibc 2.36 computes
/// it on x86-64, NaN payloads included (a NaN comes back quieted).
///
/// `tanhf` computes `t = expm1(2|x|)`, `z = 1 − 2/(t + 2)` for `|x| ≥ 1`
/// and `t = expm1(−2|x|)`, `z = −t/(t + 2)` below, returns `x` itself
/// under `2⁻⁵⁵` and `±1` from 22 on.  The expm1 argument lies in `(−2, 44)`,
/// so `expm1f`'s overflow branches and its `k = 1` case never run.
// `always`: at its size a plain `#[inline]` leaves calls from other crates
// out of line, and their loops scalar.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    let ax = f32::from_bits(bits & 0x7fff_ffff);
    let big = ax >= 1.0;
    let a = 2.0 * ax;
    let arg = if big { a } else { -a };

    // expm1f's reduction `arg = k·ln2 + r`: k is 0 up to ½ln2, ±1 up to
    // 1½ln2, else `(int)(arg/ln2 ± ½)`.  The shifter rounds to nearest;
    // stepping back where that rounded up gives the cast's truncation.
    let m = INVLN2 * a + 0.5;
    let rounded = (m + SHIFTER) - SHIFTER;
    let trunc = if rounded > m { rounded - 1.0 } else { rounded };
    let kmag = if a <= f32::from_bits(0x3eb1_7218) {
        0.0
    } else if a < f32::from_bits(0x3f85_1592) {
        1.0
    } else {
        trunc
    };
    let k = if big { kmag } else { -kmag };
    // `k << 23`: adding it to a float's bits scales the float by 2^k.
    let k_exp =
        (((k + SHIFTER).to_bits() as i32).wrapping_sub(SHIFTER.to_bits() as i32) << 23) as u32;
    let hi = arg - k * LN2_HI;
    let lo = k * LN2_LO;
    let r = hi - lo;
    let c = (hi - r) - lo;

    let hfx = 0.5 * r;
    let hxs = r * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - r * t));
    let expm1_k0 = r - (r * e - hxs);
    let e = r * (e - c) - c - hxs;
    let expm1_km1 = 0.5 * (r - e) - 0.5;
    // k ≤ −2 or k > 56: 2^k·(1 − (e − r)) − 1; 2 ≤ k ≤ 22: 2^k·((1 − 2^−k)
    // − (e − r)); 23 ≤ k ≤ 56: 2^k·((r − (e + 2^−k)) + 1).
    let wide = k <= -2.0 || k > 56.0;
    let two_neg_k = f32::from_bits(0x3f80_0000u32.wrapping_sub(k_exp));
    let y = if wide || k < 23.0 {
        (if wide { 1.0 } else { 1.0 - two_neg_k }) - (e - r)
    } else {
        (r - (e + two_neg_k)) + 1.0
    };
    let y = f32::from_bits(y.to_bits().wrapping_add(k_exp));
    let expm1 = if k == 0.0 {
        expm1_k0
    } else if k == -1.0 {
        expm1_km1
    } else if wide {
        y - 1.0
    } else {
        y
    };
    // expm1f returns arguments under 2⁻²⁵ unchanged.
    let expm1 = if a < f32::from_bits(0x3300_0000) { arg } else { expm1 };

    let q = (if big { 2.0 } else { -expm1 }) / (expm1 + 2.0);
    let z = if big { 1.0 - q } else { q };
    let out = f32::from_bits(z.to_bits() ^ sign);
    let out = if ax < f32::from_bits(0x2400_0000) { x * (1.0 + x) } else { out };
    let out = if ax >= 22.0 { f32::from_bits(0x3f80_0000 | sign) } else { out };
    if x.is_nan() {
        f32::from_bits(bits | 0x0040_0000)
    } else {
        out
    }
}

/// GELU's tanh form, `½x(1 + tanh(√(2/π)(x + 0.044715x³)))` (Hendrycks &
/// Gimpel, arXiv:1606.08415), returned with that inner `tanh`, which the
/// graph op's backward reuses.
#[inline(always)]
pub fn gelu(x: f32) -> (f32, f32) {
    let t = tanh(GELU_C * (x + GELU_A * x * x * x));
    (0.5 * x * (1.0 + t), t)
}

/// `d gelu/dx` at `x`, given the `tanh` that [`gelu`] returned with it.
#[inline]
pub(crate) fn gelu_grad(x: f32, t: f32) -> f32 {
    let dinner = GELU_C * (1.0 + 3.0 * GELU_A * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

#[cfg(test)]
mod tests {
    use super::*;

    /// fdlibm's `expm1f`, ported line for line from glibc 2.36's
    /// `sysdeps/ieee754/flt-32/s_expm1f.c` (errno and inexact-flag
    /// bookkeeping dropped).
    #[allow(clippy::excessive_precision)]
    fn fdlibm_expm1f(mut x: f32) -> f32 {
        // The source's decimals, so that they check the bits `tanh` uses.
        const HUGE: f32 = 1.0e+30;
        const TINY: f32 = 1.0e-30;
        const O_THRESHOLD: f32 = 8.8721679688e+01; // 0x42b17180
        const LN2_HI: f32 = 6.9313812256e-01; // 0x3f317180
        const LN2_LO: f32 = 9.0580006145e-06; // 0x3717f7d1
        const INVLN2: f32 = 1.4426950216e+00; // 0x3fb8aa3b
        const Q1: f32 = -3.3333335072e-02; // 0xbd088889
        const Q2: f32 = 1.5873016091e-03; // 0x3ad00d01
        const Q3: f32 = -7.9365076090e-05; // 0xb8a670cd
        const Q4: f32 = 4.0082177293e-06; // 0x36867e54
        const Q5: f32 = -2.0109921195e-07; // 0xb457edbb

        let mut hx = x.to_bits();
        let xsb = hx & 0x8000_0000; // sign bit of x
        hx &= 0x7fff_ffff; // high word of |x|

        // filter out huge and non-finite argument
        if hx >= 0x4195_b844 {
            // if |x|>=27*ln2
            if hx >= 0x42b1_7218 {
                // if |x|>=88.721...
                if hx > 0x7f80_0000 {
                    return x + x; // NaN
                }
                if hx == 0x7f80_0000 {
                    return if xsb == 0 { x } else { -1.0 }; // exp(+-inf)={inf,-1}
                }
                if x > O_THRESHOLD {
                    return HUGE * HUGE; // overflow
                }
            }
            if xsb != 0 {
                // x < -27*ln2, return -1.0 with inexact
                return TINY - 1.0;
            }
        }

        // argument reduction
        let k: i32;
        let mut c = 0.0f32;
        if hx > 0x3eb1_7218 {
            // if  |x| > 0.5 ln2
            let (hi, lo);
            if hx < 0x3f85_1592 {
                // and |x| < 1.5 ln2
                if xsb == 0 {
                    hi = x - LN2_HI;
                    lo = LN2_LO;
                    k = 1;
                } else {
                    hi = x + LN2_HI;
                    lo = -LN2_LO;
                    k = -1;
                }
            } else {
                k = (INVLN2 * x + if xsb == 0 { 0.5 } else { -0.5 }) as i32;
                let t = k as f32;
                hi = x - t * LN2_HI; // t*ln2_hi is exact here
                lo = t * LN2_LO;
            }
            x = hi - lo;
            c = (hi - x) - lo;
        } else if hx < 0x3300_0000 {
            // when |x|<2**-25, return x
            let t = HUGE + x; // return x with inexact flags when x!=0
            return x - (t - (HUGE + x));
        } else {
            k = 0;
        }

        // x is now in primary range
        let hfx = 0.5 * x;
        let hxs = x * hfx;
        let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
        let mut t = 3.0 - r1 * hfx;
        let mut e = hxs * ((r1 - t) / (6.0 - x * t));
        if k == 0 {
            return x - (x * e - hxs); // c is 0
        }
        e = x * (e - c) - c;
        e -= hxs;
        if k == -1 {
            return 0.5 * (x - e) - 0.5;
        }
        if k == 1 {
            if x < -0.25 {
                return -2.0 * (e - (x + 0.5));
            }
            return 1.0 + 2.0 * (x - e);
        }
        let add_k = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
        if k <= -2 || k > 56 {
            // suffice to return exp(x)-1
            let y = add_k(1.0 - (e - x)); // add k to y's exponent
            return y - 1.0;
        }
        if k < 23 {
            t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k)); // t=1-2^-k
            add_k(t - (e - x))
        } else {
            t = f32::from_bits(((0x7f - k) << 23) as u32); // 2^-k
            let mut y = x - (e + t);
            y += 1.0;
            add_k(y)
        }
    }

    /// fdlibm's `tanhf`, ported line for line from glibc 2.36's
    /// `sysdeps/ieee754/flt-32/s_tanhf.c`.
    fn fdlibm_tanhf(x: f32) -> f32 {
        const TINY: f32 = 1.0e-30;

        let jx = x.to_bits() as i32;
        let ix = jx & 0x7fff_ffff;

        // x is INF or NaN
        if ix >= 0x7f80_0000 {
            return if jx >= 0 {
                1.0 / x + 1.0 // tanh(+-inf)=+-1
            } else {
                1.0 / x - 1.0 // tanh(NaN) = NaN
            };
        }

        let z;
        if ix < 0x41b0_0000 {
            // |x|<22
            if ix == 0 {
                return x; // x == +-0
            }
            if ix < 0x2400_0000 {
                // |x|<2**-55
                return x * (1.0 + x); // tanh(small) = small
            }
            if ix >= 0x3f80_0000 {
                // |x|>=1
                let t = fdlibm_expm1f(2.0 * x.abs());
                z = 1.0 - 2.0 / (t + 2.0);
            } else {
                let t = fdlibm_expm1f(-2.0 * x.abs());
                z = -t / (t + 2.0);
            }
        } else {
            // |x| > 22, return +-1
            z = 1.0 - TINY; // raised inexact flag
        }
        if jx >= 0 {
            z
        } else {
            -z
        }
    }

    /// Checks `tanh` against the reference on each bit pattern, returning
    /// how many differ and the first that does.  `tanh` runs over chunks,
    /// in SIMD lanes as in the models.
    fn mismatches(patterns: impl Iterator<Item = u32>) -> (u64, Option<u32>) {
        let mut count = 0;
        let mut first = None;
        let mut xs = Vec::with_capacity(4096);
        let mut ys = vec![0.0f32; 4096];
        let mut patterns = patterns.peekable();
        while patterns.peek().is_some() {
            xs.clear();
            xs.extend(patterns.by_ref().take(4096).map(f32::from_bits));
            for (y, &x) in ys.iter_mut().zip(&xs) {
                *y = tanh(x);
            }
            for (y, &x) in ys.iter().zip(&xs) {
                if y.to_bits() != fdlibm_tanhf(x).to_bits() {
                    count += 1;
                    first.get_or_insert(x.to_bits());
                }
            }
        }
        (count, first)
    }

    fn assert_matches(what: &str, patterns: impl Iterator<Item = u32>) {
        let (count, first) = mismatches(patterns);
        if let Some(b) = first {
            let x = f32::from_bits(b);
            panic!(
                "{what}: {count} inputs differ, first {b:#010x} ({x:e}): tanh {:#010x}, fdlibm {:#010x}",
                tanh(x).to_bits(),
                fdlibm_tanhf(x).to_bits()
            );
        }
    }

    /// `±512` ulps around `|x| = edge`, both signs.
    fn around(edge: f32) -> impl Iterator<Item = u32> {
        let e = edge.to_bits();
        (e - 512..=e + 512).flat_map(|b| [b, b | 0x8000_0000])
    }

    #[test]
    fn tanh_matches_fdlibm_at_every_branch_edge() {
        // tanhf's cut-offs on |x|.
        assert_matches("|x| = 2^-55", around(f32::from_bits(0x2400_0000)));
        assert_matches("|x| = 1", around(1.0));
        assert_matches("|x| = 22", around(22.0));
        // expm1f's reduction edges on its argument |2x|: 2^-25, ½ln2, 1½ln2.
        for edge in [0x3300_0000, 0x3eb1_7218, 0x3f85_1592] {
            assert_matches("expm1 reduction", around(0.5 * f32::from_bits(edge)));
        }
        // Where k = round(2|x|/ln2) steps: −2/−3 for |x| < 1, then the
        // 22/23 and 56/57 reconstruction switches.
        for k_half in [2.5f64, 22.5, 56.5] {
            let edge = (k_half * std::f64::consts::LN_2 / 2.0) as f32;
            assert_matches("k switch", around(edge));
        }
        // ±0, subnormals, ±inf, and quiet and signalling NaN payloads.
        let specials = [
            0x0000_0000,
            0x0000_0001,
            0x0000_1234,
            0x007f_ffff,
            0x0080_0000,
            0x7f7f_ffff,
            0x7f80_0000,
            0x7f80_0001,
            0x7fa0_5a5a,
            0x7fc0_0000,
            0x7fc0_0001,
            0x7fff_ffff,
        ];
        assert_matches("specials", specials.into_iter().flat_map(|b| [b, b | 0x8000_0000]));
        assert_eq!(tanh(-0.0).to_bits(), 0x8000_0000);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(tanh(f32::from_bits(0xff80_0001)).to_bits(), 0xffc0_0001);
    }

    #[test]
    fn tanh_matches_fdlibm_on_a_strided_sample() {
        // 4099 is prime, so the ~1.05M samples walk every exponent and
        // vary the low mantissa bits.
        assert_matches("strided sample", (0..=u32::MAX).step_by(4099));
    }

    /// Every one of the 2³² inputs, bits compared (about a minute in
    /// release on a 2-vCPU host): `cargo test --release -p irs_tensor --
    /// --ignored tanh_matches_fdlibm_on_every_input`.
    #[test]
    #[ignore = "sweeps all 2^32 inputs; run in release"]
    fn tanh_matches_fdlibm_on_every_input() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let span = (1u64 << 32).div_ceil(threads);
        let (count, first) = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|i| {
                    let lo = i * span;
                    let hi = ((i + 1) * span).min(1 << 32);
                    s.spawn(move || mismatches((lo..hi).map(|b| b as u32)))
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("sweep worker panicked"))
                .fold((0, None), |(n, f), (wn, wf)| (n + wn, f.or(wf)))
        });
        assert_eq!(count, 0, "{count} inputs differ, first {first:#010x?}");
    }
}
