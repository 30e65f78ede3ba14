//! Zero-cost dimension-safe newtypes for the RF quantities the
//! workspace computes with: relative decibels ([`Db`]), absolute power
//! in dBm ([`Dbm`]), power spectral density in dBm/Hz ([`DbmPerHz`]),
//! frequency ([`Hz`]), and the two linear-domain quantities they convert
//! to — watts ([`PowerW`]) and envelope amplitude ([`Amplitude`]).
//!
//! Every type is a `#[repr(transparent)]` wrapper around one `f64`, so
//! the refactor that threads them through the RF layers is bit-identical
//! to the raw-`f64` code it replaces: the operator impls below compile
//! to exactly the same floating-point instructions.
//!
//! # The algebra
//!
//! Only the dimensionally meaningful operations exist:
//!
//! | expression        | result  | meaning                         |
//! |-------------------|---------|---------------------------------|
//! | `Dbm + Db`        | `Dbm`   | apply a gain to a level         |
//! | `Dbm - Db`        | `Dbm`   | apply a loss to a level         |
//! | `Dbm - Dbm`       | `Db`    | ratio of two levels             |
//! | `Db + Db`         | `Db`    | cascade two gains               |
//! | `Db - Db`         | `Db`    | back one gain out of another    |
//! | `DbmPerHz + Db`   | `DbmPerHz` | apply a gain to a density    |
//! | `Hz * f64`, `Hz / f64` | `Hz` | scale a frequency            |
//! | `Hz / Hz`         | `f64`   | dimensionless frequency ratio   |
//!
//! Adding two absolute levels is meaningless and does not compile:
//!
//! ```compile_fail
//! use wlan_units::Dbm;
//! let _ = Dbm(-40.0) + Dbm(-40.0); // no Add<Dbm> for Dbm
//! ```
//!
//! Nor does mixing a gain with a frequency:
//!
//! ```compile_fail
//! use wlan_units::{Db, Hz};
//! let _ = Db(3.0) + Hz(20e6); // no Add<Hz> for Db
//! ```
//!
//! Or silently treating a relative gain as an absolute level:
//!
//! ```compile_fail
//! use wlan_units::{Db, Dbm};
//! let x: Dbm = Db(3.0); // distinct types, no coercion
//! ```
//!
//! # The blessed conversions
//!
//! The dB↔linear boundary crossings live *here and only here* — the
//! `wlan-lint units` pass rejects raw `10^(x/10)`-style expressions
//! anywhere else in the workspace. The formulas are the classic ones
//! under the workspace 1 Ω convention (`P = A²/2` watts; see DESIGN.md):
//!
//! * [`Db::to_linear`] / [`Db::from_linear`] — power ratio, `10^(x/10)`
//! * [`Db::to_amplitude_ratio`] / [`Db::from_amplitude_ratio`] —
//!   voltage ratio, `10^(x/20)`
//! * [`Dbm::to_watts`] / [`Dbm::from_watts`] — absolute power
//! * [`Dbm::to_amplitude`] / [`Dbm::from_amplitude`] — tone amplitude
//!   carrying that power (`A = √(2P)`)
//! * [`DbmPerHz::integrate`] — density × bandwidth → level

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A relative quantity in decibels: a gain, a loss, a noise figure, an
/// SNR, a ratio of two levels.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Db(pub f64);

/// An absolute power level in dBm (dB relative to 1 mW).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Dbm(pub f64);

/// A power spectral density in dBm/Hz.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct DbmPerHz(pub f64);

/// A frequency in hertz (also used for bandwidths and sample rates).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Hz(pub f64);

/// A linear power in watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct PowerW(pub f64);

/// A linear envelope amplitude (volts under the 1 Ω convention).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
#[repr(transparent)]
pub struct Amplitude(pub f64);

// ---------------------------------------------------------------------
// Blessed conversions — the only dB↔linear crossings in the workspace.
// ---------------------------------------------------------------------

impl Db {
    /// Zero gain / unity ratio.
    pub const ZERO: Db = Db(0.0);

    /// Decibels → power ratio: `10^(x/10)`.
    ///
    /// ```
    /// use wlan_units::Db;
    /// assert!((Db(3.0103).to_linear() - 2.0).abs() < 1e-3);
    /// ```
    #[inline]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Power ratio → decibels: `10·log10(ratio)`.
    ///
    /// ```
    /// use wlan_units::Db;
    /// assert!((Db::from_linear(100.0).0 - 20.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn from_linear(ratio: f64) -> Db {
        Db(10.0 * ratio.log10())
    }

    /// Decibels → amplitude (voltage) ratio: `10^(x/20)`.
    #[inline]
    pub fn to_amplitude_ratio(self) -> f64 {
        10f64.powf(self.0 / 20.0)
    }

    /// Amplitude (voltage) ratio → decibels: `20·log10(ratio)`.
    #[inline]
    pub fn from_amplitude_ratio(ratio: f64) -> Db {
        Db(20.0 * ratio.log10())
    }
}

impl Dbm {
    /// dBm → watts: `1 mW · 10^(x/10)`.
    ///
    /// ```
    /// use wlan_units::Dbm;
    /// assert!((Dbm(0.0).to_watts().0 - 1e-3).abs() < 1e-18);
    /// assert!((Dbm(30.0).to_watts().0 - 1.0).abs() < 1e-12);
    /// ```
    #[inline]
    pub fn to_watts(self) -> PowerW {
        PowerW(1e-3 * 10f64.powf(self.0 / 10.0))
    }

    /// Watts → dBm: `10·log10(P / 1 mW)`.
    #[inline]
    pub fn from_watts(p: PowerW) -> Dbm {
        Dbm(10.0 * (p.0 / 1e-3).log10())
    }

    /// The envelope amplitude of a tone carrying this power under the
    /// 1 Ω `P = A²/2` convention: `A = √(2P)`.
    #[inline]
    pub fn to_amplitude(self) -> Amplitude {
        Amplitude((2.0 * self.to_watts().0).sqrt())
    }

    /// The power of a tone with envelope amplitude `a`: `P = a²/2`.
    #[inline]
    pub fn from_amplitude(a: Amplitude) -> Dbm {
        Dbm::from_watts(PowerW(a.0 * a.0 / 2.0))
    }
}

impl DbmPerHz {
    /// Density → level over a bandwidth: `x + 10·log10(B)` dBm.
    ///
    /// ```
    /// use wlan_units::{DbmPerHz, Hz};
    /// // −174 dBm/Hz over 20 MHz ≈ −101 dBm.
    /// let p = DbmPerHz(-173.98).integrate(Hz(20e6));
    /// assert!((p.0 - (-100.97)).abs() < 0.02);
    /// ```
    #[inline]
    pub fn integrate(self, bandwidth: Hz) -> Dbm {
        Dbm(self.0) + Db::from_linear(bandwidth.0)
    }

    /// Level over a bandwidth → density: `x − 10·log10(B)` dBm/Hz.
    #[inline]
    pub fn from_level(level: Dbm, bandwidth: Hz) -> DbmPerHz {
        DbmPerHz((level - Db::from_linear(bandwidth.0)).0)
    }
}

impl PowerW {
    /// The level of this power in dBm.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm::from_watts(self)
    }
}

impl Amplitude {
    /// The power this amplitude carries, in dBm.
    #[inline]
    pub fn to_dbm(self) -> Dbm {
        Dbm::from_amplitude(self)
    }
}

// ---------------------------------------------------------------------
// The legal arithmetic.
// ---------------------------------------------------------------------

impl Add for Db {
    type Output = Db;
    #[inline]
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl Sub for Db {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl AddAssign for Db {
    #[inline]
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl SubAssign for Db {
    #[inline]
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    #[inline]
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

/// Scale a gain: `Db * 2.0` is "twice the decibels" (e.g. the 3:1 IM3
/// slope), not "twice the ratio".
impl Mul<f64> for Db {
    type Output = Db;
    #[inline]
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl Mul<Db> for f64 {
    type Output = Db;
    #[inline]
    fn mul(self, rhs: Db) -> Db {
        Db(self * rhs.0)
    }
}

impl Div<f64> for Db {
    type Output = Db;
    #[inline]
    fn div(self, rhs: f64) -> Db {
        Db(self.0 / rhs)
    }
}

impl Add<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn add(self, rhs: Db) -> Dbm {
        Dbm(self.0 + rhs.0)
    }
}

impl Sub<Db> for Dbm {
    type Output = Dbm;
    #[inline]
    fn sub(self, rhs: Db) -> Dbm {
        Dbm(self.0 - rhs.0)
    }
}

impl Sub for Dbm {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: Dbm) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl AddAssign<Db> for Dbm {
    #[inline]
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl SubAssign<Db> for Dbm {
    #[inline]
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Add<Db> for DbmPerHz {
    type Output = DbmPerHz;
    #[inline]
    fn add(self, rhs: Db) -> DbmPerHz {
        DbmPerHz(self.0 + rhs.0)
    }
}

impl Sub<Db> for DbmPerHz {
    type Output = DbmPerHz;
    #[inline]
    fn sub(self, rhs: Db) -> DbmPerHz {
        DbmPerHz(self.0 - rhs.0)
    }
}

impl Sub for DbmPerHz {
    type Output = Db;
    #[inline]
    fn sub(self, rhs: DbmPerHz) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl Add for Hz {
    type Output = Hz;
    #[inline]
    fn add(self, rhs: Hz) -> Hz {
        Hz(self.0 + rhs.0)
    }
}

impl Sub for Hz {
    type Output = Hz;
    #[inline]
    fn sub(self, rhs: Hz) -> Hz {
        Hz(self.0 - rhs.0)
    }
}

impl Mul<f64> for Hz {
    type Output = Hz;
    #[inline]
    fn mul(self, rhs: f64) -> Hz {
        Hz(self.0 * rhs)
    }
}

impl Mul<Hz> for f64 {
    type Output = Hz;
    #[inline]
    fn mul(self, rhs: Hz) -> Hz {
        Hz(self * rhs.0)
    }
}

impl Div<f64> for Hz {
    type Output = Hz;
    #[inline]
    fn div(self, rhs: f64) -> Hz {
        Hz(self.0 / rhs)
    }
}

/// Dimensionless ratio of two frequencies.
impl Div for Hz {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Hz) -> f64 {
        self.0 / rhs.0
    }
}

impl Neg for Hz {
    type Output = Hz;
    #[inline]
    fn neg(self) -> Hz {
        Hz(-self.0)
    }
}

impl Add for PowerW {
    type Output = PowerW;
    #[inline]
    fn add(self, rhs: PowerW) -> PowerW {
        PowerW(self.0 + rhs.0)
    }
}

impl Sub for PowerW {
    type Output = PowerW;
    #[inline]
    fn sub(self, rhs: PowerW) -> PowerW {
        PowerW(self.0 - rhs.0)
    }
}

impl Mul<f64> for PowerW {
    type Output = PowerW;
    #[inline]
    fn mul(self, rhs: f64) -> PowerW {
        PowerW(self.0 * rhs)
    }
}

/// Dimensionless ratio of two powers (feed it to [`Db::from_linear`]).
impl Div for PowerW {
    type Output = f64;
    #[inline]
    fn div(self, rhs: PowerW) -> f64 {
        self.0 / rhs.0
    }
}

impl Mul<f64> for Amplitude {
    type Output = Amplitude;
    #[inline]
    fn mul(self, rhs: f64) -> Amplitude {
        Amplitude(self.0 * rhs)
    }
}

/// Dimensionless ratio of two amplitudes (feed it to
/// [`Db::from_amplitude_ratio`]).
impl Div for Amplitude {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Amplitude) -> f64 {
        self.0 / rhs.0
    }
}

// ---------------------------------------------------------------------
// Display.
// ---------------------------------------------------------------------

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dB", self.0)
    }
}

impl fmt::Display for Dbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dBm", self.0)
    }
}

impl fmt::Display for DbmPerHz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} dBm/Hz", self.0)
    }
}

impl fmt::Display for Hz {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_layout() {
        use std::mem::{align_of, size_of};
        assert_eq!(size_of::<Db>(), size_of::<f64>());
        assert_eq!(size_of::<Dbm>(), size_of::<f64>());
        assert_eq!(size_of::<DbmPerHz>(), size_of::<f64>());
        assert_eq!(size_of::<Hz>(), size_of::<f64>());
        assert_eq!(size_of::<PowerW>(), size_of::<f64>());
        assert_eq!(size_of::<Amplitude>(), size_of::<f64>());
        assert_eq!(size_of::<Option<Dbm>>(), size_of::<Option<f64>>());
        assert_eq!(align_of::<Dbm>(), align_of::<f64>());
    }

    #[test]
    fn level_algebra() {
        // Apply a 16 dB adjacent-channel margin to a −40 dBm wanted level.
        assert_eq!((Dbm(-40.0) + Db(16.0)).0, -24.0);
        assert_eq!((Dbm(-23.0) - Dbm(-88.0)).0, 65.0);
        assert_eq!((Dbm(-40.0) - Db(10.0)).0, -50.0);
        let mut l = Dbm(-88.0);
        l += Db(3.0);
        l -= Db(1.0);
        assert_eq!(l.0, -86.0);
    }

    #[test]
    fn gain_algebra() {
        assert_eq!((Db(15.0) + Db(6.0)).0, 21.0);
        assert_eq!((Db(15.0) - Db(6.0)).0, 9.0);
        assert_eq!((-Db(3.0)).0, -3.0);
        // The IM3 3:1 slope: dBc = 2·(Pin − IIP3).
        let dbc = 2.0 * (Dbm(-30.0) - Dbm(-10.0));
        assert_eq!(dbc.0, -40.0);
    }

    #[test]
    fn conversions_match_classic_formulas() {
        for x in [-30.0, -3.0, 0.0, 3.0, 10.0, 33.3] {
            assert_eq!(Db(x).to_linear(), 10f64.powf(x / 10.0));
            assert_eq!(Db(x).to_amplitude_ratio(), 10f64.powf(x / 20.0));
            assert_eq!(Dbm(x).to_watts().0, 1e-3 * 10f64.powf(x / 10.0));
        }
        assert_eq!(Db::from_linear(100.0).0, 10.0 * 100f64.log10());
        assert_eq!(
            Dbm::from_watts(PowerW(0.5)).0,
            10.0 * (0.5f64 / 1e-3).log10()
        );
    }

    #[test]
    fn roundtrips() {
        for x in [-88.0, -23.0, -3.0, 0.0, 16.0, 30.0] {
            assert!((Db::from_linear(Db(x).to_linear()).0 - x).abs() < 1e-9);
            assert!((Db::from_amplitude_ratio(Db(x).to_amplitude_ratio()).0 - x).abs() < 1e-9);
            assert!((Dbm::from_watts(Dbm(x).to_watts()).0 - x).abs() < 1e-9);
            assert!((Dbm::from_amplitude(Dbm(x).to_amplitude()).0 - x).abs() < 1e-9);
        }
    }

    #[test]
    fn density_integration() {
        // kT₀ ≈ −173.98 dBm/Hz; over 1 Hz the level equals the density.
        let d = DbmPerHz(-173.98);
        assert!((d.integrate(Hz(1.0)).0 - d.0).abs() < 1e-12);
        let level = d.integrate(Hz(20e6));
        let back = DbmPerHz::from_level(level, Hz(20e6));
        assert!((back.0 - d.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_algebra() {
        assert_eq!((Hz(20e6) * 4.0).0, 80e6);
        assert_eq!((4.0 * Hz(20e6)).0, 80e6);
        assert_eq!((Hz(80e6) / 4.0).0, 20e6);
        assert_eq!(Hz(80e6) / Hz(20e6), 4.0);
        assert_eq!((Hz(5.2e9) + Hz(20e6)).0, 5.22e9);
    }

    #[test]
    fn display_carries_unit() {
        assert_eq!(format!("{}", Db(3.0)), "3 dB");
        assert_eq!(format!("{}", Dbm(-88.0)), "-88 dBm");
        assert_eq!(format!("{}", Hz(20e6)), "20000000 Hz");
    }
}
