//! The vector width the PHY's two wide kernels run at: the Viterbi
//! decode loop and the LTF timing search's cross-correlation.
//!
//! Each kernel is one `#[inline(always)]` body compiled three times:
//! for the target's baseline, for AVX2 and for AVX-512F. The widest
//! form this CPU runs is picked once, with `is_x86_feature_detected!`,
//! and every form returns the same bits (the kernels use only IEEE
//! operations that are exact per lane, and Rust never contracts to FMA).

/// One compiled form of a wide kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SimdLevel {
    /// The target's baseline: SSE2 (two `f64` lanes) on x86-64.
    Portable,
    /// AVX2: four `f64` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx2,
    /// AVX-512F: eight `f64` lanes.
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

impl SimdLevel {
    /// Every level, widest first.
    pub(crate) const ALL: &'static [SimdLevel] = &[
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx512,
        #[cfg(target_arch = "x86_64")]
        SimdLevel::Avx2,
        SimdLevel::Portable,
    ];

    /// Whether this CPU can run the level's clones.
    pub(crate) fn is_supported(self) -> bool {
        match self {
            SimdLevel::Portable => true,
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            SimdLevel::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
        }
    }

    /// The widest level this CPU supports.
    pub(crate) fn detect() -> SimdLevel {
        SimdLevel::ALL
            .iter()
            .copied()
            .find(|level| level.is_supported())
            .unwrap_or(SimdLevel::Portable)
    }
}
