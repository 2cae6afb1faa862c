//! Branch-free lane-chunked (max,+) fold kernels for the batched sweep.
//!
//! The batched engine keeps one row of `B` lane accumulators per schedule
//! slot. This module folds whole rows at once, in fixed chunks of
//! [`CHUNK`] = 8 raw `i64` encodings (`[u64; 8]`-shaped loops), with the
//! epsilon identities *pre-encoded* in the integer representation instead of
//! branched on per lane:
//!
//! * `ε` encodes as `i64::MIN` (see [`MaxPlus::raw`]), so plain integer
//!   `max` **is** `⊕` — `max(ε, x) = x` falls out of two's-complement
//!   ordering with no select.
//! * `⊗` by a finite arc lag is a wrapping add plus three data-parallel
//!   selects (overflow saturation, finite-range clamp, `ε`-absorption), all
//!   expressible as compares + blends — no per-lane control flow.
//!
//! Three implementations exist and are pinned bitwise-identical, by the
//! differential tests at the bottom of this file, to a per-element
//! reference built directly on [`MaxPlus::oplus`] / [`MaxPlus::otimes`]
//! (compiled for the tests only):
//!
//! 1. a **narrow-row** path, a plain loop over the same branch-free
//!    select the chunked loops use, for rows narrower than a chunk;
//! 2. a **portable chunked** path written over `[i64; CHUNK]` blocks so LLVM
//!    auto-vectorizes it on stable Rust; and
//! 3. an **AVX2** path (`#[target_feature(enable = "avx2")]`) that emulates
//!    the missing 64-bit `max`/saturating-add with `cmpgt`/`blendv`, gated
//!    behind a cached runtime `is_x86_feature_detected!("avx2")` probe.
//!
//! Dispatch is purely by row length: rows whose length is a positive
//! multiple of [`CHUNK`] take path 3 when available, else path 2; everything
//! else takes path 1. [`lane_stride`] is how the batched engine chooses its
//! padded row length so that wide batches land on the chunked paths.

// The one module in the crate that uses `unsafe`: raw-pointer SIMD
// loads/stores, the runtime-feature-gated AVX2 call, and the
// `repr(transparent)` slice reinterpretation. Each site carries a SAFETY
// comment; operations inside `unsafe fn`s still need their own blocks.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

use evolve_maxplus::MaxPlus;

/// Fixed lane-chunk width: folds walk rows in `[i64; 8]` blocks (two AVX2
/// vectors of four 64-bit lanes each).
pub const CHUNK: usize = 8;

const RAW_EPSILON: i64 = i64::MIN;
const RAW_FINITE_MIN: i64 = i64::MIN + 1;
const RAW_FINITE_MAX: i64 = i64::MAX - 1;
const RAW_E: i64 = 0;

/// Returns `true` when a row of `len` lanes is folded by the chunked
/// (vectorizable) kernels rather than the narrow-row loop.
#[inline]
pub fn is_chunked(len: usize) -> bool {
    len >= CHUNK && len.is_multiple_of(CHUNK)
}

/// Padded row length for a batch of `lanes` lanes.
///
/// Batches of at least one full chunk are rounded up to a multiple of
/// [`CHUNK`] so every fold runs the branch-free chunked path; the padded
/// tail lanes hold harmless saturating values and are never offered,
/// observed, or read back. Narrow batches keep their natural width and use
/// the narrow-row loop.
#[inline]
pub fn lane_stride(lanes: usize) -> usize {
    if lanes >= CHUNK {
        lanes.next_multiple_of(CHUNK)
    } else {
        lanes
    }
}

/// Which SIMD implementation backs the chunked dispatch on this host:
/// `"avx2"` or `"portable"`.
pub fn simd_level() -> &'static str {
    if avx2_active() {
        "avx2"
    } else {
        "portable"
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_active() -> bool {
    use std::sync::OnceLock;
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_active() -> bool {
    false
}

/// `dst[i] = dst[i] ⊕ (src[i] ⊗ lag)` — the fold step of a constant or
/// pre-history arc across a full lane row.
///
/// `lag` must be finite (arc lags are by construction; `ε`-weighted arcs do
/// not exist in a lowered graph).
#[inline]
pub fn fold_max_otimes(dst: &mut [MaxPlus], src: &[MaxPlus], lag: MaxPlus) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(lag.is_finite(), "arc lags are finite by construction");
    let len = dst.len();
    if is_chunked(len) {
        // Identity lag (`weight E`, the dominant arc kind in padding-heavy
        // graphs): `src ⊗ 0 = src` for finite `src` and `ε` for `ε`, and
        // `dst ⊕ ε = dst`, so the whole fold collapses to an elementwise
        // integer `max` — bitwise identical, a fraction of the ⊗ chain.
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` proved the CPU supports AVX2 at runtime.
            unsafe {
                if lag.raw() == RAW_E {
                    avx2::fold_max_identity(raw_mut(dst), raw(src));
                } else {
                    avx2::fold_max_otimes(raw_mut(dst), raw(src), lag.raw());
                }
            };
            return;
        }
        if lag.raw() == RAW_E {
            portable::fold_max_identity(raw_mut(dst), raw(src));
        } else {
            portable::fold_max_otimes(raw_mut(dst), raw(src), lag.raw());
        }
    } else {
        for (d, &s) in raw_mut(dst).iter_mut().zip(raw(src)) {
            *d = (*d).max(otimes_lag_raw(s, lag.raw()));
        }
    }
}

/// `dst[i] = e ⊕ (src[i] ⊗ lag)` — single-pass evaluation of a slot whose
/// only contribution is one constant arc, folded against the process-start
/// baseline `e = 0`. Replaces a fill + fold + copy triple pass.
#[inline]
pub fn store_base_otimes(dst: &mut [MaxPlus], src: &[MaxPlus], lag: MaxPlus) {
    debug_assert_eq!(dst.len(), src.len());
    debug_assert!(lag.is_finite(), "arc lags are finite by construction");
    let len = dst.len();
    if is_chunked(len) {
        // Identity lag: `E ⊕ (src ⊗ 0)` is `max(0, src)` elementwise —
        // `ε` (= `i64::MIN`) maxes up to the baseline `0` exactly as the
        // reference computes it. See `fold_max_otimes` for the reduction.
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` proved the CPU supports AVX2 at runtime.
            unsafe {
                if lag.raw() == RAW_E {
                    avx2::store_base_identity(raw_mut(dst), raw(src));
                } else {
                    avx2::store_base_otimes(raw_mut(dst), raw(src), lag.raw());
                }
            };
            return;
        }
        if lag.raw() == RAW_E {
            portable::store_base_identity(raw_mut(dst), raw(src));
        } else {
            portable::store_base_otimes(raw_mut(dst), raw(src), lag.raw());
        }
    } else {
        for (d, &s) in raw_mut(dst).iter_mut().zip(raw(src)) {
            *d = RAW_E.max(otimes_lag_raw(s, lag.raw()));
        }
    }
}

/// `dst[i] = dst[i] ⊕ v` — uniform fold of one value across a lane row
/// (pre-history contributions of delayed arcs before the ring is deep
/// enough).
#[inline]
pub fn fold_max_value(dst: &mut [MaxPlus], v: MaxPlus) {
    let len = dst.len();
    if is_chunked(len) {
        #[cfg(target_arch = "x86_64")]
        if avx2_active() {
            // SAFETY: `avx2_active` proved the CPU supports AVX2 at runtime.
            unsafe { avx2::fold_max_value(raw_mut(dst), v.raw()) };
            return;
        }
        portable::fold_max_value(raw_mut(dst), v.raw());
    } else {
        for d in raw_mut(dst) {
            *d = (*d).max(v.raw());
        }
    }
}

/// Reinterprets a `MaxPlus` row as its raw `i64` encodings.
#[inline]
fn raw(xs: &[MaxPlus]) -> &[i64] {
    // SAFETY: `MaxPlus` is `repr(transparent)` over `i64`, so the layouts
    // (size, alignment, validity) coincide element-for-element.
    unsafe { core::slice::from_raw_parts(xs.as_ptr().cast(), xs.len()) }
}

/// Reinterprets a mutable `MaxPlus` row as its raw `i64` encodings. Every
/// `i64` is a valid encoding (`i64::MIN` decodes to `ε`), so writes cannot
/// forge an invalid element.
#[inline]
fn raw_mut(xs: &mut [MaxPlus]) -> &mut [i64] {
    // SAFETY: as in `raw`; additionally any bit pattern is a valid
    // `MaxPlus`, so arbitrary `i64` writes keep the slice well-formed.
    unsafe { core::slice::from_raw_parts_mut(xs.as_mut_ptr().cast(), xs.len()) }
}

/// `src ⊗ lag` on raw encodings, branch-free, for finite `lag`.
///
/// Bitwise identical to [`MaxPlus::otimes`]: a wrapping add, saturation on
/// signed overflow (toward `i64::MIN`/`i64::MAX`, matching
/// `saturating_add`), the finite-range clamp, then `ε`-absorption. The
/// conditionals compile to selects, which is what lets the `[i64; CHUNK]`
/// loops below auto-vectorize.
#[inline(always)]
fn otimes_lag_raw(v: i64, lag: i64) -> i64 {
    let sum = v.wrapping_add(lag);
    // Signed overflow iff the operands share a sign the sum does not.
    let overflow = ((v ^ sum) & (lag ^ sum)) < 0;
    let saturated = if v < 0 { i64::MIN } else { i64::MAX };
    let sum = if overflow { saturated } else { sum };
    let sum = sum.clamp(RAW_FINITE_MIN, RAW_FINITE_MAX);
    if v == RAW_EPSILON {
        RAW_EPSILON
    } else {
        sum
    }
}

/// Per-element reference path, straight off the semiring operators: the
/// oracle of the differential tests.
#[cfg(test)]
mod reference {
    use super::MaxPlus;

    pub(super) fn fold_max_otimes(dst: &mut [MaxPlus], src: &[MaxPlus], lag: MaxPlus) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = d.oplus(s.otimes(lag));
        }
    }

    pub(super) fn store_base_otimes(dst: &mut [MaxPlus], src: &[MaxPlus], lag: MaxPlus) {
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = MaxPlus::E.oplus(s.otimes(lag));
        }
    }
}

/// Portable chunked path: fixed `[i64; CHUNK]` loops with select-only
/// control flow, shaped for LLVM auto-vectorization on stable Rust.
mod portable {
    use super::{otimes_lag_raw, CHUNK, RAW_E};

    pub(super) fn fold_max_otimes(dst: &mut [i64], src: &[i64], lag: i64) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        for (dc, sc) in dst.chunks_exact_mut(CHUNK).zip(src.chunks_exact(CHUNK)) {
            for i in 0..CHUNK {
                dc[i] = dc[i].max(otimes_lag_raw(sc[i], lag));
            }
        }
    }

    pub(super) fn store_base_otimes(dst: &mut [i64], src: &[i64], lag: i64) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        for (dc, sc) in dst.chunks_exact_mut(CHUNK).zip(src.chunks_exact(CHUNK)) {
            for i in 0..CHUNK {
                dc[i] = RAW_E.max(otimes_lag_raw(sc[i], lag));
            }
        }
    }

    pub(super) fn fold_max_value(dst: &mut [i64], v: i64) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        for dc in dst.chunks_exact_mut(CHUNK) {
            for d in dc {
                *d = (*d).max(v);
            }
        }
    }

    pub(super) fn fold_max_identity(dst: &mut [i64], src: &[i64]) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        for (dc, sc) in dst.chunks_exact_mut(CHUNK).zip(src.chunks_exact(CHUNK)) {
            for i in 0..CHUNK {
                dc[i] = dc[i].max(sc[i]);
            }
        }
    }

    pub(super) fn store_base_identity(dst: &mut [i64], src: &[i64]) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        for (dc, sc) in dst.chunks_exact_mut(CHUNK).zip(src.chunks_exact(CHUNK)) {
            for i in 0..CHUNK {
                dc[i] = RAW_E.max(sc[i]);
            }
        }
    }
}

/// AVX2 path. AVX2 has no 64-bit `max` or saturating add, so both are
/// emulated with `cmpgt_epi64` masks and `blendv` selects; the semantics
/// mirror `otimes_lag_raw` step for step and the differential tests pin the
/// two paths bitwise-equal.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{CHUNK, RAW_EPSILON, RAW_FINITE_MAX, RAW_FINITE_MIN};
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_and_si256, _mm256_blendv_epi8, _mm256_cmpeq_epi64,
        _mm256_cmpgt_epi64, _mm256_loadu_si256, _mm256_set1_epi64x, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    const LANES: usize = 4;

    /// 64-bit signed max: `a > b ? a : b` via compare + blend
    /// (`cmpgt_epi64` masks are all-ones per 64-bit lane, exactly what
    /// `blendv_epi8` selects on).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn max_epi64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b))
    }

    /// 64-bit signed min: `a > b ? b : a`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn min_epi64(a: __m256i, b: __m256i) -> __m256i {
        _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b))
    }

    /// Vector `v ⊗ lag` for finite `lag`: wrapping add, overflow
    /// saturation, finite clamp, `ε`-absorption — the vector transcription
    /// of `otimes_lag_raw`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn otimes_lag_vec(v: __m256i, lag: __m256i) -> __m256i {
        let zero = _mm256_setzero_si256();
        let sum = _mm256_add_epi64(v, lag);
        // Signed overflow iff operands share a sign the sum does not: the
        // sign bit of (v ^ sum) & (lag ^ sum).
        let overflow = _mm256_and_si256(_mm256_xor_si256(v, sum), _mm256_xor_si256(lag, sum));
        let overflow_mask = _mm256_cmpgt_epi64(zero, overflow);
        let v_negative = _mm256_cmpgt_epi64(zero, v);
        let saturated = _mm256_blendv_epi8(
            _mm256_set1_epi64x(i64::MAX),
            _mm256_set1_epi64x(i64::MIN),
            v_negative,
        );
        let sum = _mm256_blendv_epi8(sum, saturated, overflow_mask);
        let sum = max_epi64(sum, _mm256_set1_epi64x(RAW_FINITE_MIN));
        let sum = min_epi64(sum, _mm256_set1_epi64x(RAW_FINITE_MAX));
        let epsilon = _mm256_set1_epi64x(RAW_EPSILON);
        _mm256_blendv_epi8(sum, epsilon, _mm256_cmpeq_epi64(v, epsilon))
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_max_otimes(dst: &mut [i64], src: &[i64], lag: i64) {
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len() % CHUNK, 0);
        let lag = _mm256_set1_epi64x(lag);
        let mut i = 0;
        while i + LANES <= dst.len() {
            // SAFETY: `i + LANES <= len`, so the unaligned 4×i64 loads and
            // store stay inside the borrowed slices.
            unsafe {
                let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                let folded = max_epi64(d, otimes_lag_vec(v, lag));
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), folded);
            }
            i += LANES;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn store_base_otimes(dst: &mut [i64], src: &[i64], lag: i64) {
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len() % CHUNK, 0);
        let lag = _mm256_set1_epi64x(lag);
        let base = _mm256_setzero_si256();
        let mut i = 0;
        while i + LANES <= dst.len() {
            // SAFETY: `i + LANES <= len`, so the unaligned 4×i64 load and
            // store stay inside the borrowed slices.
            unsafe {
                let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let folded = max_epi64(base, otimes_lag_vec(v, lag));
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), folded);
            }
            i += LANES;
        }
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn fold_max_value(dst: &mut [i64], v: i64) {
        debug_assert_eq!(dst.len() % CHUNK, 0);
        let v = _mm256_set1_epi64x(v);
        let mut i = 0;
        while i + LANES <= dst.len() {
            // SAFETY: `i + LANES <= len`, so the unaligned 4×i64 load and
            // store stay inside the borrowed slice.
            unsafe {
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), max_epi64(d, v));
            }
            i += LANES;
        }
    }

    /// Identity-lag fold: `dst[i] = max(dst[i], src[i])` — the `lag = 0`
    /// reduction of `fold_max_otimes` (see the dispatch site).
    #[target_feature(enable = "avx2")]
    pub(super) fn fold_max_identity(dst: &mut [i64], src: &[i64]) {
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len() % CHUNK, 0);
        let mut i = 0;
        while i + LANES <= dst.len() {
            // SAFETY: `i + LANES <= len`, so the unaligned 4×i64 loads and
            // store stay inside the borrowed slices.
            unsafe {
                let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                let d = _mm256_loadu_si256(dst.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), max_epi64(d, v));
            }
            i += LANES;
        }
    }

    /// Identity-lag base store: `dst[i] = max(0, src[i])` — the `lag = 0`
    /// reduction of `store_base_otimes` (see the dispatch site).
    #[target_feature(enable = "avx2")]
    pub(super) fn store_base_identity(dst: &mut [i64], src: &[i64]) {
        debug_assert_eq!(dst.len(), src.len());
        debug_assert_eq!(dst.len() % CHUNK, 0);
        let base = _mm256_setzero_si256();
        let mut i = 0;
        while i + LANES <= dst.len() {
            // SAFETY: `i + LANES <= len`, so the unaligned 4×i64 load and
            // store stay inside the borrowed slices.
            unsafe {
                let v = _mm256_loadu_si256(src.as_ptr().add(i).cast());
                _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), max_epi64(base, v));
            }
            i += LANES;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Raw encodings that exercise every edge of the kernels: `ε`, both
    /// finite extremes, values that overflow when lagged, and ordinary
    /// magnitudes.
    fn raw_value() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(RAW_EPSILON),
            Just(RAW_FINITE_MIN),
            Just(RAW_FINITE_MAX),
            Just(0i64),
            -1_000_000i64..1_000_000,
            (i64::MAX - 1_000)..=(i64::MAX - 1),
            (i64::MIN + 1)..(i64::MIN + 1_000),
        ]
    }

    fn finite_lag() -> impl Strategy<Value = i64> {
        prop_oneof![
            Just(0i64),
            -1_000_000i64..1_000_000,
            (i64::MAX - 1_000)..=(i64::MAX - 1),
            (i64::MIN + 1)..(i64::MIN + 1_000),
        ]
    }

    fn rows() -> impl Strategy<Value = (Vec<i64>, Vec<i64>, i64)> {
        (1usize..6).prop_flat_map(|chunks| {
            let len = chunks * CHUNK;
            (
                proptest::collection::vec(raw_value(), len),
                proptest::collection::vec(raw_value(), len),
                finite_lag(),
            )
        })
    }

    fn decode(xs: &[i64]) -> Vec<MaxPlus> {
        xs.iter().map(|&x| MaxPlus::from_raw(x)).collect()
    }

    fn oracle_fold(dst: &[i64], src: &[i64], lag: i64) -> Vec<i64> {
        let mut out = decode(dst);
        reference::fold_max_otimes(&mut out, &decode(src), MaxPlus::from_raw(lag));
        out.iter().map(|x| x.raw()).collect()
    }

    fn oracle_base(src: &[i64], lag: i64) -> Vec<i64> {
        let mut out = decode(src);
        reference::store_base_otimes(&mut out, &decode(src), MaxPlus::from_raw(lag));
        out.iter().map(|x| x.raw()).collect()
    }

    #[test]
    fn scalar_step_matches_otimes_on_edges() {
        let lags = [0, 1, -1, i64::MAX - 1, i64::MIN + 1, 37, -9_000];
        let vals = [
            RAW_EPSILON,
            RAW_FINITE_MIN,
            RAW_FINITE_MAX,
            0,
            1,
            -1,
            i64::MAX / 2,
            i64::MIN / 2,
        ];
        for &lag in &lags {
            for &v in &vals {
                let expect = MaxPlus::from_raw(v).otimes(MaxPlus::from_raw(lag)).raw();
                assert_eq!(otimes_lag_raw(v, lag), expect, "v={v} lag={lag}");
            }
        }
    }

    #[test]
    fn stride_rounds_up_to_whole_chunks() {
        for (lanes, stride) in [(1, 1), (3, 3), (7, 7), (8, 8), (9, 16), (15, 16), (33, 40)] {
            assert_eq!(lane_stride(lanes), stride, "lanes={lanes}");
            assert_eq!(is_chunked(stride), lanes >= CHUNK);
        }
    }

    #[test]
    fn dispatch_level_is_reported() {
        // On any host the level is one of the two spellings; on x86-64 CI
        // with AVX2 the vector path must actually be selected.
        let level = simd_level();
        assert!(level == "avx2" || level == "portable");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(level, "avx2");
        }
    }

    proptest! {
        #[test]
        fn portable_fold_matches_reference((dst, src, lag) in rows()) {
            let mut got = dst.clone();
            portable::fold_max_otimes(&mut got, &src, lag);
            prop_assert_eq!(got, oracle_fold(&dst, &src, lag));
        }

        #[test]
        fn portable_base_matches_reference((dst, src, lag) in rows()) {
            let mut got = dst;
            portable::store_base_otimes(&mut got, &src, lag);
            prop_assert_eq!(got, oracle_base(&src, lag));
        }

        #[cfg(target_arch = "x86_64")]
        #[test]
        fn avx2_matches_portable((dst, src, lag) in rows(), v in raw_value()) {
            if avx2_active() {
                let mut fold_avx = dst.clone();
                let mut fold_portable = dst.clone();
                // SAFETY: guarded by the runtime AVX2 probe above.
                unsafe { avx2::fold_max_otimes(&mut fold_avx, &src, lag) };
                portable::fold_max_otimes(&mut fold_portable, &src, lag);
                prop_assert_eq!(&fold_avx, &fold_portable);

                let mut base_avx = dst.clone();
                let mut base_portable = dst.clone();
                // SAFETY: guarded by the runtime AVX2 probe above.
                unsafe { avx2::store_base_otimes(&mut base_avx, &src, lag) };
                portable::store_base_otimes(&mut base_portable, &src, lag);
                prop_assert_eq!(&base_avx, &base_portable);

                let mut max_avx = dst.clone();
                let mut max_portable = dst.clone();
                // SAFETY: guarded by the runtime AVX2 probe above.
                unsafe { avx2::fold_max_value(&mut max_avx, v) };
                portable::fold_max_value(&mut max_portable, v);
                prop_assert_eq!(&max_avx, &max_portable);
            }
        }

        #[test]
        fn identity_lag_kernels_match_the_oracle((dst, src, _) in rows()) {
            // The `lag = 0` specializations must stay bitwise identical to
            // the generic ⊗ fold they shortcut.
            let mut ident = dst.clone();
            portable::fold_max_identity(&mut ident, &src);
            prop_assert_eq!(&ident, &oracle_fold(&dst, &src, RAW_E));
            let mut base = dst.clone();
            portable::store_base_identity(&mut base, &src);
            prop_assert_eq!(&base, &oracle_base(&src, RAW_E));
            #[cfg(target_arch = "x86_64")]
            if avx2_active() {
                let mut ident_avx = dst.clone();
                let mut base_avx = dst.clone();
                // SAFETY: guarded by the runtime AVX2 probe above.
                unsafe {
                    avx2::fold_max_identity(&mut ident_avx, &src);
                    avx2::store_base_identity(&mut base_avx, &src);
                }
                prop_assert_eq!(&ident_avx, &ident);
                prop_assert_eq!(&base_avx, &base);
            }
        }

        #[test]
        fn public_dispatch_matches_reference((dst, src, lag) in rows()) {
            // The dispatched entry points (whatever path the host selects)
            // agree with the per-element reference on chunk-multiple rows.
            let mut got = decode(&dst);
            fold_max_otimes(&mut got, &decode(&src), MaxPlus::from_raw(lag));
            prop_assert_eq!(got, decode(&oracle_fold(&dst, &src, lag)));

            let mut base = decode(&dst);
            store_base_otimes(&mut base, &decode(&src), MaxPlus::from_raw(lag));
            prop_assert_eq!(base, decode(&oracle_base(&src, lag)));
        }

        #[test]
        fn narrow_rows_use_the_same_semantics(
            len in 1usize..CHUNK,
            lag in finite_lag(),
            v in raw_value(),
            seed in proptest::collection::vec(raw_value(), CHUNK),
        ) {
            // Rows shorter than a chunk take the narrow-row loop; pin it to
            // the reference so the two dispatch arms cannot drift.
            let dst: Vec<i64> = seed.iter().take(len).copied().collect();
            let src: Vec<i64> = seed.iter().rev().take(len).copied().collect();
            let mut got = decode(&dst);
            fold_max_otimes(&mut got, &decode(&src), MaxPlus::from_raw(lag));
            prop_assert_eq!(got, decode(&oracle_fold(&dst, &src, lag)));

            let mut base = decode(&dst);
            store_base_otimes(&mut base, &decode(&src), MaxPlus::from_raw(lag));
            prop_assert_eq!(base, decode(&oracle_base(&src, lag)));

            let mut max = decode(&dst);
            fold_max_value(&mut max, MaxPlus::from_raw(v));
            let expect: Vec<MaxPlus> =
                dst.iter().map(|&d| MaxPlus::from_raw(d).oplus(MaxPlus::from_raw(v))).collect();
            prop_assert_eq!(max, expect);
        }

        #[test]
        fn fold_max_value_is_elementwise_oplus(
            (dst, _, _) in rows(),
            v in raw_value(),
        ) {
            let mut got = decode(&dst);
            fold_max_value(&mut got, MaxPlus::from_raw(v));
            let expect: Vec<MaxPlus> = dst
                .iter()
                .map(|&d| MaxPlus::from_raw(d).oplus(MaxPlus::from_raw(v)))
                .collect();
            prop_assert_eq!(got, expect);
        }
    }
}
