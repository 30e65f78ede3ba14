//! The receiver's stage-major chain against the sample-by-sample
//! reference front end in `wlan_conformance::refimpl`.

use wlan_conformance::refimpl::RfChainReference;
use wlan_dsp::math::dbm_to_watts;
use wlan_dsp::Complex;
use wlan_rf::receiver::{DoubleConversionReceiver, RfConfig, RfScratch};

#[test]
fn fused_chain_matches_staged_bit_exact() {
    // Noise ON: identical seeds must give byte-identical outputs, so
    // the stage-major chain draws RNGs in exactly the reference's
    // order. Split the input in two to also cover carried state
    // (filters, decimator phase) across frames.
    let amp = (2.0 * dbm_to_watts(-45.0)).sqrt();
    let x: Vec<Complex> = (0..8001)
        .map(|i| Complex::from_polar(amp, 2.0 * std::f64::consts::PI * 2e6 * i as f64 / 80e6))
        .collect();
    let mut fused = DoubleConversionReceiver::new(RfConfig::default(), 42);
    let mut staged = RfChainReference::new(&RfConfig::default(), 42);
    let mut scratch = RfScratch::default();
    let mut y_fused = Vec::new();
    let mut got = Vec::new();
    for part in [&x[..3000], &x[3000..]] {
        fused.process_into(part, &mut scratch, &mut y_fused);
        got.extend_from_slice(&y_fused);
    }
    let mut want = staged.process(&x[..3000]);
    want.extend(staged.process(&x[3000..]));
    assert_eq!(got.len(), want.len());
    for (a, b) in got.iter().zip(want.iter()) {
        assert!(a.re == b.re && a.im == b.im, "{a:?} != {b:?}");
    }
}
