//! Constellation mapping and demapping (hard decisions and max-log LLRs)
//! for BPSK, QPSK, 16-QAM and 64-QAM with Gray coding and the standard
//! K_mod normalization.

use crate::params::Modulation;
use crate::viterbi::Llr;
use wlan_dsp::Complex;

/// Gray-coded amplitude for a group of per-axis bits
/// (1 bit → ±1, 2 bits → ±1/±3, 3 bits → ±1..±7 per §17.3.5.7).
fn axis_level(bits: &[u8]) -> f64 {
    match bits.len() {
        1 => {
            if bits[0] == 0 {
                -1.0
            } else {
                1.0
            }
        }
        2 => match (bits[0], bits[1]) {
            (0, 0) => -3.0,
            (0, 1) => -1.0,
            (1, 1) => 1.0,
            (1, 0) => 3.0,
            _ => unreachable!(),
        },
        3 => match (bits[0], bits[1], bits[2]) {
            (0, 0, 0) => -7.0,
            (0, 0, 1) => -5.0,
            (0, 1, 1) => -3.0,
            (0, 1, 0) => -1.0,
            (1, 1, 0) => 1.0,
            (1, 1, 1) => 3.0,
            (1, 0, 1) => 5.0,
            (1, 0, 0) => 7.0,
            _ => unreachable!(),
        },
        n => panic!("unsupported bits per axis: {n}"),
    }
}

/// Per-axis Gray levels of 16-QAM (un-normalized), lowest first.
const LEVELS_2: [f64; 4] = [-3.0, -1.0, 1.0, 3.0];
/// The bit group of each entry of [`LEVELS_2`].
const GRAY_2: [[u8; 2]; 4] = [[0, 0], [0, 1], [1, 1], [1, 0]];
/// Per-axis Gray levels of 64-QAM (un-normalized), lowest first.
const LEVELS_3: [f64; 8] = [-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0];
/// The bit group of each entry of [`LEVELS_3`].
const GRAY_3: [[u8; 3]; 8] = [
    [0, 0, 0],
    [0, 0, 1],
    [0, 1, 1],
    [0, 1, 0],
    [1, 1, 0],
    [1, 1, 1],
    [1, 0, 1],
    [1, 0, 0],
];

/// The level nearest `y`: the first minimum of `|l − y|`, so a tie goes
/// to the lower level. A select chain with a strict `<` instead of a
/// comparator scan: no branch, and a NaN `y` (every distance NaN) picks
/// the lowest level instead of panicking.
#[inline]
fn nearest_level<const N: usize>(levels: &[f64; N], y: f64) -> f64 {
    let mut best = levels[0];
    let mut best_d = (best - y).abs();
    for &l in &levels[1..] {
        let d = (l - y).abs();
        let closer = d < best_d;
        best = if closer { l } else { best };
        best_d = if closer { d } else { best_d };
    }
    best
}

/// The index of odd integer level `l` in the `N` levels `−(N−1), …,
/// N−1` (exact: small integers).
fn level_index<const N: usize>(l: f64) -> usize {
    ((l + (N - 1) as f64) / 2.0) as usize
}

/// Hard Gray decision for one axis: appends the bit group of the level
/// nearest to the (un-normalized) value `y`.
fn axis_bits(y: f64, bits_per_axis: usize, out: &mut Vec<u8>) {
    let l = axis_nearest(y, bits_per_axis);
    match bits_per_axis {
        1 => out.push((l > 0.0) as u8),
        2 => out.extend_from_slice(&GRAY_2[level_index::<4>(l)]),
        _ => out.extend_from_slice(&GRAY_3[level_index::<8>(l)]),
    }
}

/// Max-log LLRs for one axis value `y` (un-normalized level domain).
/// Convention: positive LLR favors bit 0.
fn axis_llrs(y: f64, bits_per_axis: usize, weight: f64, out: &mut Vec<Llr>) {
    match bits_per_axis {
        1 => out.push(-y * weight),
        2 => {
            out.push(-y * weight);
            out.push((y.abs() - 2.0) * weight);
        }
        3 => {
            out.push(-y * weight);
            out.push((y.abs() - 4.0) * weight);
            out.push(((y.abs() - 4.0).abs() - 2.0) * weight);
        }
        n => panic!("unsupported bits per axis: {n}"),
    }
}

/// Maps a bit slice onto constellation symbols.
///
/// BPSK consumes 1 bit per symbol (imaginary part zero); the quadrature
/// schemes split their bit group evenly between I (first half) and Q.
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of the bits-per-symbol count.
///
/// ```
/// use wlan_phy::{modulation::map_bits, params::Modulation};
/// let syms = map_bits(&[1, 0], Modulation::Bpsk);
/// assert_eq!(syms[0].re, 1.0);
/// assert_eq!(syms[1].re, -1.0);
/// ```
pub fn map_bits(bits: &[u8], modulation: Modulation) -> Vec<Complex> {
    let mut out = Vec::new();
    map_bits_into(bits, modulation, &mut out);
    out
}

/// [`map_bits`] writing into a caller-owned buffer (cleared first), so
/// per-symbol mapping in the transmitter reuses one allocation.
///
/// # Panics
///
/// Panics if `bits.len()` is not a multiple of the bits-per-symbol count.
pub fn map_bits_into(bits: &[u8], modulation: Modulation, out: &mut Vec<Complex>) {
    let bps = modulation.bits_per_carrier();
    assert!(
        bits.len().is_multiple_of(bps),
        "bit count {} not a multiple of {bps}",
        bits.len()
    );
    let kmod = modulation.kmod();
    out.clear();
    out.reserve(bits.len() / bps);
    out.extend(bits.chunks_exact(bps).map(|group| {
        if bps == 1 {
            Complex::new(axis_level(group) * kmod, 0.0)
        } else {
            let half = bps / 2;
            let i = axis_level(&group[..half]);
            let q = axis_level(&group[half..]);
            Complex::new(i * kmod, q * kmod)
        }
    }));
}

/// Hard-demaps symbols back to bits.
pub fn demap_hard(symbols: &[Complex], modulation: Modulation) -> Vec<u8> {
    let bps = modulation.bits_per_carrier();
    let inv_kmod = 1.0 / modulation.kmod();
    let mut out = Vec::with_capacity(symbols.len() * bps);
    for s in symbols {
        if bps == 1 {
            axis_bits(s.re * inv_kmod, 1, &mut out);
        } else {
            let half = bps / 2;
            axis_bits(s.re * inv_kmod, half, &mut out);
            axis_bits(s.im * inv_kmod, half, &mut out);
        }
    }
    out
}

/// Soft-demaps symbols to max-log LLRs (positive favors bit 0).
///
/// `csi` optionally supplies a per-symbol reliability weight (e.g. the
/// squared channel magnitude after zero-forcing equalization); pass `None`
/// for unit weights.
///
/// # Panics
///
/// Panics if `csi` is provided with a different length than `symbols`.
pub fn demap_soft(symbols: &[Complex], modulation: Modulation, csi: Option<&[f64]>) -> Vec<Llr> {
    let mut out = Vec::new();
    demap_soft_into(symbols, modulation, csi, &mut out);
    out
}

/// [`demap_soft`] writing into a caller-owned buffer (cleared first), so
/// the per-symbol receiver loop reuses one LLR allocation.
///
/// # Panics
///
/// Panics if `csi` is provided with a different length than `symbols`.
pub fn demap_soft_into(
    symbols: &[Complex],
    modulation: Modulation,
    csi: Option<&[f64]>,
    out: &mut Vec<Llr>,
) {
    if let Some(w) = csi {
        assert_eq!(w.len(), symbols.len(), "CSI length mismatch");
    }
    let bps = modulation.bits_per_carrier();
    let inv_kmod = 1.0 / modulation.kmod();
    out.clear();
    out.reserve(symbols.len() * bps);
    for (n, s) in symbols.iter().enumerate() {
        let w = csi.map_or(1.0, |c| c[n]);
        if bps == 1 {
            axis_llrs(s.re * inv_kmod, 1, w, out);
        } else {
            let half = bps / 2;
            axis_llrs(s.re * inv_kmod, half, w, out);
            axis_llrs(s.im * inv_kmod, half, w, out);
        }
    }
}

/// The ideal constellation points of a modulation (for EVM references).
pub fn constellation(modulation: Modulation) -> Vec<Complex> {
    let bps = modulation.bits_per_carrier();
    let n = 1usize << bps;
    (0..n)
        .map(|v| {
            let bits: Vec<u8> = (0..bps).map(|i| ((v >> (bps - 1 - i)) & 1) as u8).collect();
            map_bits(&bits, modulation)[0]
        })
        .collect()
}

/// Nearest Gray level for one axis (un-normalized domain); ties snap to
/// the lower level. [`demap_hard`] and [`nearest_point`] both slice
/// through it.
#[inline]
fn axis_nearest(y: f64, bits_per_axis: usize) -> f64 {
    match bits_per_axis {
        1 => {
            if y >= 0.0 {
                1.0
            } else {
                -1.0
            }
        }
        2 => nearest_level(&LEVELS_2, y),
        3 => nearest_level(&LEVELS_3, y),
        n => panic!("unsupported bits per axis: {n}"),
    }
}

/// Nearest ideal constellation point to `y` (for EVM measurement).
///
/// Allocation-free: snaps each axis directly to its nearest Gray level
/// (identical result to hard-demapping and re-mapping, which the EVM
/// loop used to do through two transient vectors per point).
#[inline]
pub fn nearest_point(y: Complex, modulation: Modulation) -> Complex {
    let bps = modulation.bits_per_carrier();
    let kmod = modulation.kmod();
    let inv_kmod = 1.0 / kmod;
    if bps == 1 {
        // BPSK hard decision: y.re >= 0 → +1, else −1 (bit 1 / bit 0).
        Complex::new(axis_nearest(y.re * inv_kmod, 1) * kmod, 0.0)
    } else {
        let half = bps / 2;
        Complex::new(
            axis_nearest(y.re * inv_kmod, half) * kmod,
            axis_nearest(y.im * inv_kmod, half) * kmod,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlan_dsp::rng::Rng;

    const ALL: [Modulation; 4] = [
        Modulation::Bpsk,
        Modulation::Qpsk,
        Modulation::Qam16,
        Modulation::Qam64,
    ];

    #[test]
    fn map_demap_roundtrip() {
        let mut rng = Rng::new(1);
        for m in ALL {
            let mut bits = vec![0u8; m.bits_per_carrier() * 100];
            rng.bits(&mut bits);
            let syms = map_bits(&bits, m);
            assert_eq!(demap_hard(&syms, m), bits, "{m:?}");
        }
    }

    #[test]
    fn unit_average_power() {
        for m in ALL {
            let pts = constellation(m);
            let p: f64 = pts.iter().map(|z| z.norm_sqr()).sum::<f64>() / pts.len() as f64;
            assert!((p - 1.0).abs() < 1e-12, "{m:?}: {p}");
        }
    }

    #[test]
    fn constellation_sizes() {
        assert_eq!(constellation(Modulation::Bpsk).len(), 2);
        assert_eq!(constellation(Modulation::Qpsk).len(), 4);
        assert_eq!(constellation(Modulation::Qam16).len(), 16);
        assert_eq!(constellation(Modulation::Qam64).len(), 64);
    }

    #[test]
    fn constellation_points_distinct() {
        for m in ALL {
            let pts = constellation(m);
            for i in 0..pts.len() {
                for j in 0..i {
                    assert!((pts[i] - pts[j]).abs() > 1e-6, "{m:?}: {i} == {j}");
                }
            }
        }
    }

    #[test]
    fn gray_neighbors_differ_by_one_bit() {
        // Along each axis, adjacent levels must differ in exactly one bit.
        for bpa in [2usize, 3] {
            let levels: Vec<f64> = match bpa {
                2 => vec![-3.0, -1.0, 1.0, 3.0],
                _ => vec![-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0],
            };
            let bits_of = |lvl: f64| {
                let mut v = Vec::new();
                axis_bits(lvl, bpa, &mut v);
                v
            };
            for w in levels.windows(2) {
                let a = bits_of(w[0]);
                let b = bits_of(w[1]);
                let diff: usize = a.iter().zip(&b).filter(|(x, y)| x != y).count();
                assert_eq!(diff, 1, "levels {w:?}");
            }
        }
    }

    #[test]
    fn bpsk_standard_mapping() {
        // Bit 0 → −1, bit 1 → +1 (Table 80).
        let s = map_bits(&[0, 1], Modulation::Bpsk);
        assert_eq!(s[0], Complex::new(-1.0, 0.0));
        assert_eq!(s[1], Complex::new(1.0, 0.0));
    }

    #[test]
    fn qam16_corner_point() {
        // Bits 1 0 1 0 → I = +3, Q = +3 (scaled by 1/√10).
        let s = map_bits(&[1, 0, 1, 0], Modulation::Qam16)[0];
        let k = 1.0 / 10f64.sqrt();
        assert!((s.re - 3.0 * k).abs() < 1e-12);
        assert!((s.im - 3.0 * k).abs() < 1e-12);
    }

    #[test]
    fn soft_llr_signs_match_hard_decisions() {
        let mut rng = Rng::new(2);
        for m in ALL {
            let mut bits = vec![0u8; m.bits_per_carrier() * 64];
            rng.bits(&mut bits);
            let syms = map_bits(&bits, m);
            let llrs = demap_soft(&syms, m, None);
            for (i, (&b, &l)) in bits.iter().zip(llrs.iter()).enumerate() {
                // Positive LLR ↔ bit 0 for noiseless symbols.
                assert!(
                    (b == 0 && l > 0.0) || (b == 1 && l < 0.0),
                    "{m:?} bit {i}: b={b} llr={l}"
                );
            }
        }
    }

    #[test]
    fn csi_scales_llrs() {
        let syms = map_bits(&[1, 1, 0, 0], Modulation::Qam16);
        let l1 = demap_soft(&syms, Modulation::Qam16, None);
        let l2 = demap_soft(&syms, Modulation::Qam16, Some(&[2.0]));
        for (a, b) in l1.iter().zip(l2.iter()) {
            assert!((b - 2.0 * a).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_point_snaps_noise() {
        let p = map_bits(&[1, 0, 0, 1, 1, 1], Modulation::Qam64)[0];
        let noisy = p + Complex::new(0.02, -0.02);
        assert_eq!(nearest_point(noisy, Modulation::Qam64), p);
    }

    #[test]
    fn slicer_matches_scan_reference() {
        // The select chain against the comparator scan it replaced, on
        // ties (midpoints between levels), signed zeros, tiny, huge and
        // infinite values and noise: the same level, bit for bit. Hard
        // decisions re-map to the same point `nearest_point` gives.
        use wlan_conformance::refimpl::nearest_level_reference;
        let mut rng = Rng::new(9);
        let mut ys = vec![
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::MIN_POSITIVE,
            1e-300,
            9_007_199_254_740_993.0,
            -1e17,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for t in [2.0, 4.0, 6.0, 8.0, 1.0, 3.0] {
            ys.extend([t, -t, t + 1e-15, -t - 1e-15]);
        }
        ys.extend((0..2000).map(|_| 5.0 * rng.gaussian()));
        for &y in &ys {
            for l in [nearest_level(&LEVELS_2, y), axis_nearest(y, 2)] {
                let want = nearest_level_reference(&LEVELS_2, y);
                assert_eq!(l.to_bits(), want.to_bits(), "16-QAM axis at {y:e}");
            }
            for l in [nearest_level(&LEVELS_3, y), axis_nearest(y, 3)] {
                let want = nearest_level_reference(&LEVELS_3, y);
                assert_eq!(l.to_bits(), want.to_bits(), "64-QAM axis at {y:e}");
            }
        }
        ys.push(f64::NAN);
        for m in ALL {
            let k = m.kmod();
            for &y in &ys {
                let z = Complex::new(y * k, -y * k);
                let p = nearest_point(z, m);
                let remapped = map_bits(&demap_hard(&[z], m), m)[0];
                let same = |a: f64, b: f64| a.to_bits() == b.to_bits();
                assert!(
                    same(p.re, remapped.re) && same(p.im, remapped.im),
                    "{m:?} at {y:e}: {p} vs {remapped}"
                );
            }
        }
    }

    #[test]
    fn nan_slices_to_the_lowest_level() {
        // The comparator scan panicked on a NaN; the chain keeps the
        // first level, as it does when every distance ties.
        assert_eq!(nearest_level(&LEVELS_2, f64::NAN), -3.0);
        assert_eq!(nearest_level(&LEVELS_3, f64::NAN), -7.0);
        let nan = Complex::new(f64::NAN, f64::NAN);
        let k = Modulation::Qam64.kmod();
        assert_eq!(
            nearest_point(nan, Modulation::Qam64),
            Complex::new(-7.0 * k, -7.0 * k)
        );
        assert_eq!(demap_hard(&[nan], Modulation::Qam16), vec![0, 0, 0, 0]);
        assert!(std::panic::catch_unwind(|| {
            wlan_conformance::refimpl::nearest_level_reference(&LEVELS_2, f64::NAN)
        })
        .is_err());
    }

    #[test]
    #[should_panic]
    fn wrong_bit_count_panics() {
        let _ = map_bits(&[1, 0, 1], Modulation::Qpsk);
    }

    #[test]
    fn prop_roundtrip_with_small_noise() {
        // Noise below half the minimum distance never causes errors.
        for seed in 0..64u64 {
            let mut rng = Rng::new(seed);
            for m in ALL {
                let mut bits = vec![0u8; m.bits_per_carrier() * 16];
                rng.bits(&mut bits);
                let dmin_half = match m {
                    Modulation::Bpsk => 1.0,
                    Modulation::Qpsk => 1.0 / 2f64.sqrt(),
                    Modulation::Qam16 => 1.0 / 10f64.sqrt(),
                    Modulation::Qam64 => 1.0 / 42f64.sqrt(),
                };
                let syms: Vec<Complex> = map_bits(&bits, m)
                    .into_iter()
                    .map(|s| {
                        let dx = (rng.uniform() - 0.5) * 0.9 * dmin_half;
                        let dy = (rng.uniform() - 0.5) * 0.9 * dmin_half;
                        s + Complex::new(dx, dy)
                    })
                    .collect();
                assert_eq!(demap_hard(&syms, m), bits, "seed {seed}");
            }
        }
    }
}
