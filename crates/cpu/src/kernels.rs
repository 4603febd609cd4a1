//! Batch-columnar operator kernels: portable scalar and AVX2 variants.
//!
//! Every operator evaluates each expression node over a whole gathered
//! column ([`saber_types::ColumnarBatch`]) rather than interpreting the
//! expression tree once per tuple, which turns the evaluation into tight
//! per-column loops that the AVX2 variants process four `f64` lanes at a
//! time.
//!
//! **The scalar variants are the source of truth.** Every AVX2 kernel is
//! required to produce *bit-identical* results to its scalar counterpart
//! (`tests/simd_differential.rs` enforces this over random batches):
//!
//! * element-wise arithmetic and comparisons use one IEEE-754 operation per
//!   lane in the same order as the scalar loop, so lanes are trivially
//!   identical (including the `x/0 → 0` and `x%0 → 0` guards of
//!   [`Expr::eval`], implemented by compute-and-blend);
//! * reductions fix the association: both variants accumulate into four
//!   lane accumulators over chunks of four, combine them as
//!   `(l0+l1)+(l2+l3)`, then fold the tail elements in index order —
//!   so the scalar fallback reproduces the SIMD summation order exactly;
//! * `Mod` has no vector instruction and stays a scalar loop in both.
//!
//! Which variant runs is a platform property ([`KernelKind::best`], read
//! once per plan in [`crate::plan::CompiledPlan::compile`]) based on
//! [`saber_types::cpu_features`] — which honours `SABER_FORCE_SCALAR=1`, the
//! switch CI uses to keep the portable path exercised.
//!
//! saber-lint: hot-path

use saber_query::{BinaryOp, CompareOp, Expr};
use saber_types::{cpu_features, ColumnarBatch};

/// Which variant of the columnar kernels a compiled plan runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Portable scalar kernels (the reference the AVX2 variant must match).
    Scalar,
    /// AVX2 kernels (4 × `f64` lanes).
    Simd,
}

impl KernelKind {
    /// The best variant this machine runs (scalar when AVX2 is absent or
    /// `SABER_FORCE_SCALAR=1` is set).
    pub fn best() -> Self {
        if cpu_features::has_avx2() {
            KernelKind::Simd
        } else {
            KernelKind::Scalar
        }
    }

    /// True when the AVX2 kernels should be used.
    pub fn simd(self) -> bool {
        matches!(self, KernelKind::Simd)
    }
}

/// True when the AVX2 code path may actually be taken: requested *and*
/// supported (a plan pinned to [`KernelKind::Simd`] on non-AVX2 hardware
/// silently degrades to the scalar kernels rather than faulting).
#[inline]
fn use_avx2(simd: bool) -> bool {
    simd && cpu_features::has_avx2()
}

/// Collects the union of columns referenced by `exprs` (sorted, deduped) —
/// the gather set for a columnar batch.
pub fn referenced_columns<'a>(exprs: impl IntoIterator<Item = &'a Expr>) -> Vec<usize> {
    let mut cols: Vec<usize> = Vec::new();
    for e in exprs {
        cols.extend(e.referenced_columns());
    }
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// Evaluates `expr` over every row of `batch`, producing one `f64` per row.
///
/// Semantics match [`Expr::eval`] exactly, per element: comparisons and
/// boolean operators yield `1.0`/`0.0`, truthiness is `!= 0.0`, and division
/// or modulo by zero yields `0.0`.
pub fn eval(expr: &Expr, batch: &ColumnarBatch, simd: bool) -> Vec<f64> {
    match expr {
        Expr::Column(i) => batch.column(*i).to_vec(),
        Expr::Literal(v) => vec![*v; batch.rows()],
        Expr::Arith(op, l, r) => {
            let mut a = eval(l, batch, simd);
            let b = eval(r, batch, simd);
            apply_arith(*op, &mut a, &b, simd);
            a
        }
        Expr::Compare(op, l, r) => {
            let mut a = eval(l, batch, simd);
            let b = eval(r, batch, simd);
            apply_compare(*op, &mut a, &b, simd);
            a
        }
        Expr::And(l, r) => {
            let mut a = eval(l, batch, simd);
            let b = eval(r, batch, simd);
            apply_and(&mut a, &b, simd);
            a
        }
        Expr::Or(l, r) => {
            let mut a = eval(l, batch, simd);
            let b = eval(r, batch, simd);
            apply_or(&mut a, &b, simd);
            a
        }
        Expr::Not(e) => {
            let mut a = eval(e, batch, simd);
            apply_not(&mut a, simd);
            a
        }
    }
}

/// `a[i] = a[i] op b[i]` element-wise.
pub fn apply_arith(op: BinaryOp, a: &mut [f64], b: &[f64], simd: bool) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe {
            match op {
                BinaryOp::Add => avx2::add(a, b),
                BinaryOp::Sub => avx2::sub(a, b),
                BinaryOp::Mul => avx2::mul(a, b),
                BinaryOp::Div => avx2::div(a, b),
                BinaryOp::Mod => modulo(a, b),
            }
        }
        return;
    }
    let _ = simd;
    match op {
        BinaryOp::Add => binop(a, b, |x, y| x + y),
        BinaryOp::Sub => binop(a, b, |x, y| x - y),
        BinaryOp::Mul => binop(a, b, |x, y| x * y),
        BinaryOp::Div => binop(a, b, |x, y| if y == 0.0 { 0.0 } else { x / y }),
        BinaryOp::Mod => modulo(a, b),
    }
}

/// `a[i] = (a[i] op b[i]) as 1.0/0.0` element-wise.
pub fn apply_compare(op: CompareOp, a: &mut [f64], b: &[f64], simd: bool) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe {
            match op {
                CompareOp::Eq => avx2::cmp_eq(a, b),
                CompareOp::Ne => avx2::cmp_ne(a, b),
                CompareOp::Lt => avx2::cmp_lt(a, b),
                CompareOp::Le => avx2::cmp_le(a, b),
                CompareOp::Gt => avx2::cmp_gt(a, b),
                CompareOp::Ge => avx2::cmp_ge(a, b),
            }
        }
        return;
    }
    let _ = simd;
    match op {
        CompareOp::Eq => binop(a, b, |x, y| bool_to_f64(x == y)),
        CompareOp::Ne => binop(a, b, |x, y| bool_to_f64(x != y)),
        CompareOp::Lt => binop(a, b, |x, y| bool_to_f64(x < y)),
        CompareOp::Le => binop(a, b, |x, y| bool_to_f64(x <= y)),
        CompareOp::Gt => binop(a, b, |x, y| bool_to_f64(x > y)),
        CompareOp::Ge => binop(a, b, |x, y| bool_to_f64(x >= y)),
    }
}

/// `a[i] = (a[i] != 0.0 && b[i] != 0.0) as 1.0/0.0`.
///
/// [`Expr::eval_bool`] short-circuits `&&`, but expressions are pure, so
/// evaluating both operands over the column is semantics-preserving.
pub fn apply_and(a: &mut [f64], b: &[f64], simd: bool) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe { avx2::and(a, b) };
        return;
    }
    let _ = simd;
    binop(a, b, |x, y| bool_to_f64(x != 0.0 && y != 0.0));
}

/// `a[i] = (a[i] != 0.0 || b[i] != 0.0) as 1.0/0.0`.
pub fn apply_or(a: &mut [f64], b: &[f64], simd: bool) {
    debug_assert_eq!(a.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe { avx2::or(a, b) };
        return;
    }
    let _ = simd;
    binop(a, b, |x, y| bool_to_f64(x != 0.0 || y != 0.0));
}

/// `a[i] = (a[i] == 0.0) as 1.0/0.0` (boolean negation under truthiness).
pub fn apply_not(a: &mut [f64], simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe { avx2::not(a) };
        return;
    }
    let _ = simd;
    for x in a.iter_mut() {
        *x = bool_to_f64(*x == 0.0);
    }
}

/// Masked sum with the fixed lane-split association (see module docs):
/// four accumulators over chunks of four, combined `(l0+l1)+(l2+l3)`, tail
/// folded in index order. Masked-out elements contribute `+0.0`.
// hot-path-ok: `i < n4 ≤ values.len()` by the loop bounds; `acc` is a fixed
// four-slot array indexed with constants.
pub fn sum_masked(values: &[f64], mask: Option<&[f64]>, simd: bool) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        return unsafe { avx2::sum_masked(values, mask) };
    }
    let _ = simd;
    let n4 = values.len() / 4 * 4;
    let mut acc = [0.0f64; 4];
    for c in (0..n4).step_by(4) {
        for (j, slot) in acc.iter_mut().enumerate() {
            let i = c + j;
            *slot += if keep(mask, i) { values[i] } else { 0.0 };
        }
    }
    let mut total = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (i, &v) in values.iter().enumerate().skip(n4) {
        if keep(mask, i) {
            total += v;
        }
    }
    total
}

/// Masked minimum under the strict-compare update rule of
/// [`saber_query::aggregate::AggState::update`] (`if v < min`), with the
/// same lane-split shape as [`sum_masked`]. Empty or fully masked input
/// yields `+∞` (the `AggState` initial value).
// hot-path-ok: `i < n4 ≤ values.len()` by the loop bounds.
pub fn min_masked(values: &[f64], mask: Option<&[f64]>, simd: bool) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        return unsafe { avx2::min_masked(values, mask) };
    }
    let _ = simd;
    let n4 = values.len() / 4 * 4;
    let mut acc = [f64::INFINITY; 4];
    for c in (0..n4).step_by(4) {
        for (j, slot) in acc.iter_mut().enumerate() {
            let i = c + j;
            let x = if keep(mask, i) {
                values[i]
            } else {
                f64::INFINITY
            };
            if x < *slot {
                *slot = x;
            }
        }
    }
    let mut m = f64::INFINITY;
    for lane in acc {
        if lane < m {
            m = lane;
        }
    }
    for (i, &v) in values.iter().enumerate().skip(n4) {
        if keep(mask, i) && v < m {
            m = v;
        }
    }
    m
}

/// Masked maximum; the mirror of [`min_masked`] (`if v > max`, identity
/// `-∞`).
// hot-path-ok: `i < n4 ≤ values.len()` by the loop bounds.
pub fn max_masked(values: &[f64], mask: Option<&[f64]>, simd: bool) -> f64 {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        return unsafe { avx2::max_masked(values, mask) };
    }
    let _ = simd;
    let n4 = values.len() / 4 * 4;
    let mut acc = [f64::NEG_INFINITY; 4];
    for c in (0..n4).step_by(4) {
        for (j, slot) in acc.iter_mut().enumerate() {
            let i = c + j;
            let x = if keep(mask, i) {
                values[i]
            } else {
                f64::NEG_INFINITY
            };
            if x > *slot {
                *slot = x;
            }
        }
    }
    let mut m = f64::NEG_INFINITY;
    for lane in acc {
        if lane > m {
            m = lane;
        }
    }
    for (i, &v) in values.iter().enumerate().skip(n4) {
        if keep(mask, i) && v > m {
            m = v;
        }
    }
    m
}

/// Number of truthy (`!= 0.0`) elements of `mask` in `range` — the masked
/// row count. Integer counting is order-independent, so one implementation
/// serves both kernel variants.
pub fn count_truthy(mask: &[f64]) -> u64 {
    mask.iter().filter(|v| **v != 0.0).count() as u64
}

/// Appends to `out` the indices `j` (ascending) where `keys[j] == key`
/// under IEEE `f64` equality — the vectorized equi-join probe scan.
pub fn scan_eq(keys: &[f64], key: f64, simd: bool, out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if use_avx2(simd) {
        // SAFETY: `use_avx2` verified AVX2 support at runtime.
        unsafe { avx2::scan_eq(keys, key, out) };
        return;
    }
    let _ = simd;
    for (j, &k) in keys.iter().enumerate() {
        if k == key {
            out.push(j as u32);
        }
    }
}

#[inline]
fn bool_to_f64(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

#[inline]
// hot-path-ok: callers index the mask with positions below the values
// length, and gather produced mask/value columns of equal length.
fn keep(mask: Option<&[f64]>, i: usize) -> bool {
    mask.is_none_or(|m| m[i] != 0.0)
}

#[inline]
fn binop(a: &mut [f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for (x, y) in a.iter_mut().zip(b) {
        *x = f(*x, *y);
    }
}

/// `x % 0 → 0` guarded modulo; no vector instruction exists, so this scalar
/// loop *is* the SIMD variant as well (keeping the two bit-identical).
fn modulo(a: &mut [f64], b: &[f64]) {
    binop(a, b, |x, y| if y == 0.0 { 0.0 } else { x % y });
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2 kernels. Every function requires the caller to have verified
    //! AVX2 support at runtime (`cpu_features::has_avx2()`); all loads and
    //! stores are unaligned (`loadu`/`storeu`), so no alignment obligations.

    use std::arch::x86_64::*;

    macro_rules! binop_kernel {
        ($name:ident, $vec:expr, $tail:expr) => {
            /// # Safety
            /// Requires AVX2, verified by the caller at runtime.
            // hot-path-ok: the tail loop indexes `n4..a.len()` and the
            // caller guarantees `b.len() == a.len()`.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(a: &mut [f64], b: &[f64]) {
                let n4 = a.len() / 4 * 4;
                let mut i = 0;
                while i < n4 {
                    let va = _mm256_loadu_pd(a.as_ptr().add(i));
                    let vb = _mm256_loadu_pd(b.as_ptr().add(i));
                    _mm256_storeu_pd(a.as_mut_ptr().add(i), $vec(va, vb));
                    i += 4;
                }
                #[allow(clippy::redundant_closure_call)]
                for i in n4..a.len() {
                    a[i] = $tail(a[i], b[i]);
                }
            }
        };
    }

    binop_kernel!(add, |x, y| _mm256_add_pd(x, y), |x: f64, y: f64| x + y);
    binop_kernel!(sub, |x, y| _mm256_sub_pd(x, y), |x: f64, y: f64| x - y);
    binop_kernel!(mul, |x, y| _mm256_mul_pd(x, y), |x: f64, y: f64| x * y);
    binop_kernel!(
        div,
        |x, y| {
            // Compute the quotient in all lanes, then blend 0.0 into the
            // lanes where the divisor is zero — the branchless form of the
            // scalar `if y == 0.0 { 0.0 } else { x / y }` (IEEE ±0.0
            // compares equal to 0.0, matching the scalar `==`).
            let q = _mm256_div_pd(x, y);
            let zero = _mm256_setzero_pd();
            let div_by_zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(y, zero);
            _mm256_blendv_pd(q, zero, div_by_zero)
        },
        |x: f64, y: f64| if y == 0.0 { 0.0 } else { x / y }
    );

    macro_rules! cmp_kernel {
        ($name:ident, $imm:ident, $tail:expr) => {
            binop_kernel!(
                $name,
                |x, y| {
                    let m = _mm256_cmp_pd::<$imm>(x, y);
                    _mm256_and_pd(m, _mm256_set1_pd(1.0))
                },
                $tail
            );
        };
    }

    // Predicate choice mirrors Rust's `f64` comparison semantics on NaN:
    // `!=` is true when either side is NaN (unordered → true, `NEQ_UQ`);
    // all others are false on NaN (ordered, `*_OQ`).
    cmp_kernel!(cmp_eq, _CMP_EQ_OQ, |x: f64, y: f64| super::bool_to_f64(
        x == y
    ));
    cmp_kernel!(cmp_ne, _CMP_NEQ_UQ, |x: f64, y: f64| super::bool_to_f64(
        x != y
    ));
    cmp_kernel!(cmp_lt, _CMP_LT_OQ, |x: f64, y: f64| super::bool_to_f64(
        x < y
    ));
    cmp_kernel!(cmp_le, _CMP_LE_OQ, |x: f64, y: f64| super::bool_to_f64(
        x <= y
    ));
    cmp_kernel!(cmp_gt, _CMP_GT_OQ, |x: f64, y: f64| super::bool_to_f64(
        x > y
    ));
    cmp_kernel!(cmp_ge, _CMP_GE_OQ, |x: f64, y: f64| super::bool_to_f64(
        x >= y
    ));

    binop_kernel!(
        and,
        |x, y| {
            let zero = _mm256_setzero_pd();
            let tx = _mm256_cmp_pd::<_CMP_NEQ_UQ>(x, zero);
            let ty = _mm256_cmp_pd::<_CMP_NEQ_UQ>(y, zero);
            _mm256_and_pd(_mm256_and_pd(tx, ty), _mm256_set1_pd(1.0))
        },
        |x: f64, y: f64| super::bool_to_f64(x != 0.0 && y != 0.0)
    );
    binop_kernel!(
        or,
        |x, y| {
            let zero = _mm256_setzero_pd();
            let tx = _mm256_cmp_pd::<_CMP_NEQ_UQ>(x, zero);
            let ty = _mm256_cmp_pd::<_CMP_NEQ_UQ>(y, zero);
            _mm256_and_pd(_mm256_or_pd(tx, ty), _mm256_set1_pd(1.0))
        },
        |x: f64, y: f64| super::bool_to_f64(x != 0.0 || y != 0.0)
    );

    /// # Safety
    /// Requires AVX2, verified by the caller at runtime.
    // hot-path-ok: `a[n4..]` slices with `n4 ≤ a.len()` by construction.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn not(a: &mut [f64]) {
        let zero = _mm256_setzero_pd();
        let one = _mm256_set1_pd(1.0);
        let n4 = a.len() / 4 * 4;
        let mut i = 0;
        while i < n4 {
            let va = _mm256_loadu_pd(a.as_ptr().add(i));
            let m = _mm256_cmp_pd::<_CMP_EQ_OQ>(va, zero);
            _mm256_storeu_pd(a.as_mut_ptr().add(i), _mm256_and_pd(m, one));
            i += 4;
        }
        for x in a[n4..].iter_mut() {
            *x = super::bool_to_f64(*x == 0.0);
        }
    }

    /// Loads chunk `i..i+4` of the mask as an all-ones/all-zeros lane mask
    /// (truthiness is `!= 0.0`; `NEQ_UQ` makes NaN truthy like the scalar
    /// comparison does).
    ///
    /// # Safety
    /// Requires AVX2 and `i + 4 <= mask.len()`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn mask_lanes(mask: &[f64], i: usize) -> __m256d {
        let m = _mm256_loadu_pd(mask.as_ptr().add(i));
        _mm256_cmp_pd::<_CMP_NEQ_UQ>(m, _mm256_setzero_pd())
    }

    /// # Safety
    /// Requires AVX2, verified by the caller at runtime.
    // hot-path-ok: `lanes` is a fixed four-slot array indexed with
    // constants; the tail loop stays below `values.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn sum_masked(values: &[f64], mask: Option<&[f64]>) -> f64 {
        let n4 = values.len() / 4 * 4;
        let mut vacc = _mm256_setzero_pd();
        let mut i = 0;
        while i < n4 {
            let mut x = _mm256_loadu_pd(values.as_ptr().add(i));
            if let Some(m) = mask {
                // Masked-out lanes become +0.0 (all-zero bits), matching the
                // scalar `+= 0.0`.
                x = _mm256_and_pd(x, mask_lanes(m, i));
            }
            vacc = _mm256_add_pd(vacc, x);
            i += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), vacc);
        let mut total = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
        for (i, &v) in values.iter().enumerate().skip(n4) {
            if super::keep(mask, i) {
                total += v;
            }
        }
        total
    }

    macro_rules! minmax_kernel {
        ($name:ident, $identity:expr, $cmp:ident, $wins:expr) => {
            /// # Safety
            /// Requires AVX2, verified by the caller at runtime.
            // hot-path-ok: `i < n4 ≤ values.len()` by the loop bounds.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name(values: &[f64], mask: Option<&[f64]>) -> f64 {
                let identity = $identity;
                let vid = _mm256_set1_pd(identity);
                let n4 = values.len() / 4 * 4;
                let mut vacc = vid;
                let mut i = 0;
                while i < n4 {
                    let mut x = _mm256_loadu_pd(values.as_ptr().add(i));
                    if let Some(m) = mask {
                        x = _mm256_blendv_pd(vid, x, mask_lanes(m, i));
                    }
                    // `if x wins over acc { acc = x }`; the ordered compare
                    // is false on NaN, keeping the accumulator — exactly the
                    // strict scalar update rule.
                    let better = _mm256_cmp_pd::<$cmp>(x, vacc);
                    vacc = _mm256_blendv_pd(vacc, x, better);
                    i += 4;
                }
                let mut lanes = [0.0f64; 4];
                _mm256_storeu_pd(lanes.as_mut_ptr(), vacc);
                let mut best = identity;
                #[allow(clippy::redundant_closure_call)]
                for lane in lanes {
                    if $wins(lane, best) {
                        best = lane;
                    }
                }
                #[allow(clippy::redundant_closure_call)]
                for i in n4..values.len() {
                    if super::keep(mask, i) && $wins(values[i], best) {
                        best = values[i];
                    }
                }
                best
            }
        };
    }

    minmax_kernel!(
        min_masked,
        f64::INFINITY,
        _CMP_LT_OQ,
        |x: f64, best: f64| { x < best }
    );
    minmax_kernel!(
        max_masked,
        f64::NEG_INFINITY,
        _CMP_GT_OQ,
        |x: f64, best: f64| { x > best }
    );

    /// # Safety
    /// Requires AVX2, verified by the caller at runtime.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scan_eq(keys: &[f64], key: f64, out: &mut Vec<u32>) {
        let vkey = _mm256_set1_pd(key);
        let mut i = 0;
        // 16 keys per iteration: matches are rare in a probe scan, so the
        // common case is four compares folded into one combined mask that
        // tests zero. Bit j of the combined mask is key `i + j`, so the
        // trailing-zeros walk still emits candidates in ascending order.
        let n16 = keys.len() / 16 * 16;
        while i < n16 {
            let p = keys.as_ptr().add(i);
            let m0 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(p), vkey));
            let m1 =
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(p.add(4)), vkey));
            let m2 =
                _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(_mm256_loadu_pd(p.add(8)), vkey));
            let m3 = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(
                _mm256_loadu_pd(p.add(12)),
                vkey,
            ));
            let mut hits =
                (m0 as u32) | ((m1 as u32) << 4) | ((m2 as u32) << 8) | ((m3 as u32) << 12);
            while hits != 0 {
                out.push(i as u32 + hits.trailing_zeros());
                hits &= hits - 1;
            }
            i += 16;
        }
        let n4 = keys.len() / 4 * 4;
        while i < n4 {
            let vk = _mm256_loadu_pd(keys.as_ptr().add(i));
            let mut hits = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(vk, vkey)) as u32;
            while hits != 0 {
                out.push(i as u32 + hits.trailing_zeros());
                hits &= hits - 1;
            }
            i += 4;
        }
        for (j, &k) in keys.iter().enumerate().skip(n4) {
            if k == key {
                out.push(j as u32);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use saber_query::Expr;

    /// Both kernel variants, so every test covers the scalar fallback and —
    /// on AVX2 hardware — the vectorized path too.
    const VARIANTS: [bool; 2] = [false, true];

    fn series(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64) * 0.75 - (n as f64) / 3.0)
            .collect()
    }

    #[test]
    fn arithmetic_matches_scalar_semantics_on_all_lengths() {
        for n in [0, 1, 3, 4, 5, 8, 17] {
            let a0 = series(n);
            let mut b = series(n);
            b.reverse();
            // Put a zero divisor somewhere to exercise the guard.
            if n > 2 {
                b[2] = 0.0;
            }
            for op in [
                BinaryOp::Add,
                BinaryOp::Sub,
                BinaryOp::Mul,
                BinaryOp::Div,
                BinaryOp::Mod,
            ] {
                for simd in VARIANTS {
                    let mut a = a0.clone();
                    apply_arith(op, &mut a, &b, simd);
                    for i in 0..n {
                        let expected = Expr::Arith(
                            op,
                            Box::new(Expr::literal(a0[i])),
                            Box::new(Expr::literal(b[i])),
                        )
                        .eval(&dummy_tuple());
                        assert_eq!(
                            a[i].to_bits(),
                            expected.to_bits(),
                            "{op:?} simd={simd} i={i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn comparisons_produce_zero_one_columns() {
        let a0 = vec![1.0, 2.0, 2.0, f64::NAN, -0.0, 5.5, 7.0];
        let b = vec![2.0, 2.0, 1.0, 2.0, 0.0, 5.5, f64::NAN];
        for op in [
            CompareOp::Eq,
            CompareOp::Ne,
            CompareOp::Lt,
            CompareOp::Le,
            CompareOp::Gt,
            CompareOp::Ge,
        ] {
            for simd in VARIANTS {
                let mut a = a0.clone();
                apply_compare(op, &mut a, &b, simd);
                for i in 0..a.len() {
                    let expected = Expr::Compare(
                        op,
                        Box::new(Expr::literal(a0[i])),
                        Box::new(Expr::literal(b[i])),
                    )
                    .eval(&dummy_tuple());
                    assert_eq!(
                        a[i].to_bits(),
                        expected.to_bits(),
                        "{op:?} simd={simd} i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn boolean_kernels_follow_truthiness() {
        let a0 = vec![0.0, 1.0, -3.0, 0.0, f64::NAN];
        let b = vec![0.0, 0.0, 2.0, 7.0, 0.0];
        for simd in VARIANTS {
            let mut a = a0.clone();
            apply_and(&mut a, &b, simd);
            assert_eq!(a, vec![0.0, 0.0, 1.0, 0.0, 0.0]);
            let mut o = a0.clone();
            apply_or(&mut o, &b, simd);
            assert_eq!(o, vec![0.0, 1.0, 1.0, 1.0, 1.0]);
            let mut n = a0.clone();
            apply_not(&mut n, simd);
            assert_eq!(n, vec![1.0, 0.0, 0.0, 1.0, 0.0]);
        }
    }

    #[test]
    fn reductions_agree_across_variants_bit_for_bit() {
        for n in [0, 1, 4, 7, 31, 100] {
            let v = series(n);
            let mask: Vec<f64> = (0..n).map(|i| ((i % 3) != 0) as u8 as f64).collect();
            for m in [None, Some(mask.as_slice())] {
                let scalar = (
                    sum_masked(&v, m, false),
                    min_masked(&v, m, false),
                    max_masked(&v, m, false),
                );
                let simd = (
                    sum_masked(&v, m, true),
                    min_masked(&v, m, true),
                    max_masked(&v, m, true),
                );
                assert_eq!(scalar.0.to_bits(), simd.0.to_bits(), "sum n={n}");
                assert_eq!(scalar.1.to_bits(), simd.1.to_bits(), "min n={n}");
                assert_eq!(scalar.2.to_bits(), simd.2.to_bits(), "max n={n}");
            }
        }
        assert_eq!(count_truthy(&[0.0, 1.0, -2.0, 0.0]), 2);
    }

    #[test]
    fn equi_scan_finds_ascending_matches() {
        let keys = vec![3.0, 1.0, 3.0, 3.0, 2.0, 3.0, 1.0, 3.0, 3.0];
        for simd in VARIANTS {
            let mut out = Vec::new();
            scan_eq(&keys, 3.0, simd, &mut out);
            assert_eq!(out, vec![0, 2, 3, 5, 7, 8], "simd={simd}");
            out.clear();
            scan_eq(&keys, 9.0, simd, &mut out);
            assert!(out.is_empty());
        }
        // NaN keys never match (IEEE equality), same as `Expr::eval`.
        let mut out = Vec::new();
        scan_eq(&[f64::NAN, 1.0], f64::NAN, true, &mut out);
        assert!(out.is_empty());
    }

    /// An arbitrary 1-column tuple for driving `Expr::eval` on literals.
    fn dummy_tuple() -> saber_types::TupleRef<'static> {
        use std::sync::OnceLock;
        static SCHEMA: OnceLock<saber_types::Schema> = OnceLock::new();
        static BYTES: [u8; 8] = [0; 8];
        let schema = SCHEMA.get_or_init(|| {
            saber_types::Schema::from_pairs(&[("ts", saber_types::DataType::Timestamp)]).unwrap()
        });
        saber_types::TupleRef::new(schema, &BYTES)
    }
}
