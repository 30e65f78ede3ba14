//! Puncturing of the rate-1/2 mother code to rates 2/3 and 3/4
//! (IEEE 802.11a-1999 §17.3.5.6, figure 113).

use crate::params::CodeRate;
use crate::viterbi::Llr;

/// Positions kept in each puncturing period of the interleaved coded
/// stream `A₀B₀A₁B₁…` at rate 1/2: all of them.
const KEEP_12: [usize; 2] = [0, 1];
/// Period A₁B₁ A₂(B₂ stolen): keep A1 B1 A2, drop B2.
const KEEP_23: [usize; 3] = [0, 1, 2];
/// Period A₁B₁ A₂B₂ A₃B₃: transmit A1 B1 A2 B3, drop B2 and A3.
const KEEP_34: [usize; 4] = [0, 1, 2, 5];

/// The puncturing period (coded bits) and the positions it keeps.
fn pattern(rate: CodeRate) -> (usize, &'static [usize]) {
    match rate {
        CodeRate::R12 => (2, &KEEP_12),
        CodeRate::R23 => (4, &KEEP_23),
        CodeRate::R34 => (6, &KEEP_34),
    }
}

/// Punctures a rate-1/2 coded stream down to `rate`.
///
/// The input length must be a whole number of puncturing periods (always
/// true for 802.11a OFDM symbols).
///
/// # Panics
///
/// Panics if `coded.len()` is not a multiple of the puncturing period.
pub fn puncture(coded: &[u8], rate: CodeRate) -> Vec<u8> {
    let mut out = Vec::new();
    puncture_into(coded, rate, &mut out);
    out
}

/// [`puncture`] writing into a caller-owned buffer (cleared first), so
/// the per-packet transmit path reuses one allocation.
///
/// # Panics
///
/// Panics if `coded.len()` is not a multiple of the puncturing period.
pub fn puncture_into(coded: &[u8], rate: CodeRate, out: &mut Vec<u8>) {
    let (period, kept) = pattern(rate);
    assert!(
        coded.len().is_multiple_of(period),
        "coded length {} is not a multiple of the puncturing period {period}",
        coded.len(),
    );
    out.clear();
    out.reserve(coded.len() / period * kept.len());
    match rate {
        CodeRate::R12 => keep_periods::<2, 2>(coded, KEEP_12, out),
        CodeRate::R23 => keep_periods::<4, 3>(coded, KEEP_23, out),
        CodeRate::R34 => keep_periods::<6, 4>(coded, KEEP_34, out),
    }
}

/// Appends positions `keep` of each `P`-bit period of `coded`.
fn keep_periods<const P: usize, const K: usize>(coded: &[u8], keep: [usize; K], out: &mut Vec<u8>) {
    for period in coded.chunks_exact(P) {
        out.extend_from_slice(&keep.map(|j| period[j]));
    }
}

/// Re-inserts erasures (zero LLRs) at the punctured positions so the
/// Viterbi decoder sees a full-rate stream.
///
/// # Panics
///
/// Panics if `llrs.len()` is not a multiple of the kept-bits-per-period
/// count.
pub fn depuncture(llrs: &[Llr], rate: CodeRate) -> Vec<Llr> {
    let mut out = Vec::new();
    depuncture_into(llrs, rate, &mut out);
    out
}

/// [`depuncture`] writing into a caller-owned buffer (cleared first), so
/// the per-packet receive path reuses one allocation.
///
/// # Panics
///
/// Panics if `llrs.len()` is not a multiple of the kept-bits-per-period
/// count.
pub fn depuncture_into(llrs: &[Llr], rate: CodeRate, out: &mut Vec<Llr>) {
    let (period, kept) = pattern(rate);
    assert!(
        llrs.len().is_multiple_of(kept.len()),
        "punctured length {} is not a multiple of {}",
        llrs.len(),
        kept.len()
    );
    out.clear();
    out.reserve(llrs.len() / kept.len() * period);
    match rate {
        CodeRate::R12 => erase_periods::<2, 2>(llrs, KEEP_12, out),
        CodeRate::R23 => erase_periods::<4, 3>(llrs, KEEP_23, out),
        CodeRate::R34 => erase_periods::<6, 4>(llrs, KEEP_34, out),
    }
}

/// Appends one `P`-LLR period per `K` LLRs of `llrs`: each at its
/// position in `keep`, zeros elsewhere.
fn erase_periods<const P: usize, const K: usize>(
    llrs: &[Llr],
    keep: [usize; K],
    out: &mut Vec<Llr>,
) {
    for sent in llrs.chunks_exact(K) {
        let mut period = [0.0; P];
        for (&j, &l) in keep.iter().zip(sent) {
            period[j] = l;
        }
        out.extend_from_slice(&period);
    }
}

/// Number of transmitted bits per period / coded bits per period.
pub fn expansion(rate: CodeRate) -> (usize, usize) {
    let (period, kept) = pattern(rate);
    (kept.len(), period)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convolutional::encode;
    use crate::viterbi::decode_soft;
    use wlan_dsp::rng::Rng;

    #[test]
    fn rate12_is_identity() {
        let coded = vec![1u8, 0, 1, 1, 0, 0];
        assert_eq!(puncture(&coded, CodeRate::R12), coded);
    }

    #[test]
    fn rate23_drops_every_fourth() {
        let coded: Vec<u8> = (0..8).map(|i| (i % 2) as u8).collect(); // A=0,B=1 pattern
        let p = puncture(&coded, CodeRate::R23);
        assert_eq!(p.len(), 6);
        // Positions kept: 0,1,2, 4,5,6.
        assert_eq!(p, vec![0, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn rate34_length() {
        let coded = vec![0u8; 12];
        assert_eq!(puncture(&coded, CodeRate::R34).len(), 8);
    }

    #[test]
    fn rates_match_fractions() {
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            let (kept, period) = expansion(rate);
            let (num, den) = rate.as_fraction();
            // info bits per period = period/2; transmitted = kept;
            // code rate = (period/2)/kept must equal num/den.
            assert_eq!((period / 2) * den, kept * num, "{rate:?}");
        }
    }

    #[test]
    fn depuncture_restores_positions() {
        let llrs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let d = depuncture(&llrs, CodeRate::R23);
        assert_eq!(d, vec![1.0, 2.0, 3.0, 0.0, 4.0, 5.0, 6.0, 0.0]);
        // Rate 3/4: period keeps indices 0,1,2,5 of every 6.
        let llrs = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        let d = depuncture(&llrs, CodeRate::R34);
        assert_eq!(
            d,
            vec![1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 6.0, 7.0, 0.0, 0.0, 8.0]
        );
    }

    #[test]
    fn punctured_roundtrip_decodes() {
        let mut rng = Rng::new(7);
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            // Message length that makes the coded length a period multiple.
            let mut msg = vec![0u8; 96];
            rng.bits(&mut msg[..90]);
            let coded = encode(&msg);
            let tx = puncture(&coded, rate);
            let llrs: Vec<Llr> = tx
                .iter()
                .map(|&b| if b == 1 { -1.0 } else { 1.0 })
                .collect();
            let full = depuncture(&llrs, rate);
            assert_eq!(full.len(), coded.len());
            assert_eq!(decode_soft(&full), msg, "{rate:?}");
        }
    }

    /// The keep-mask forms `puncture_into` and `depuncture_into` had
    /// before their per-period loops.
    fn mask(rate: CodeRate) -> &'static [bool] {
        match rate {
            CodeRate::R12 => &[true, true],
            CodeRate::R23 => &[true, true, true, false],
            CodeRate::R34 => &[true, true, true, false, false, true],
        }
    }

    #[test]
    fn per_period_loops_match_mask_forms() {
        let mut rng = Rng::new(11);
        let (mut out, mut full) = (Vec::new(), Vec::new());
        for rate in [CodeRate::R12, CodeRate::R23, CodeRate::R34] {
            let m = mask(rate);
            let kept = m.iter().filter(|&&k| k).count();
            for periods in [0usize, 1, 2, 7, 408] {
                let mut coded = vec![0u8; periods * m.len()];
                rng.bits(&mut coded);
                let want: Vec<u8> = coded
                    .iter()
                    .zip(m.iter().cycle())
                    .filter(|(_, &keep)| keep)
                    .map(|(&b, _)| b)
                    .collect();
                puncture_into(&coded, rate, &mut out);
                assert_eq!(out, want, "{rate:?} {periods}");

                let llrs: Vec<Llr> = (0..periods * kept)
                    .map(|i| if i % 5 == 0 { -0.0 } else { rng.gaussian() })
                    .collect();
                let mut it = llrs.iter();
                let want: Vec<Llr> = (0..periods)
                    .flat_map(|_| m.iter())
                    .map(|&keep| if keep { *it.next().unwrap() } else { 0.0 })
                    .collect();
                depuncture_into(&llrs, rate, &mut full);
                let bits = |v: &[Llr]| v.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&full), bits(&want), "{rate:?} {periods}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn bad_period_panics() {
        let _ = puncture(&[1, 0, 1], CodeRate::R23);
    }
}
