//! 16-bit fixed-point quantization (the paper's Q15-style deployment format).
//!
//! Model parameters are trained in 32-bit floating point and quantized to a
//! 16-bit fixed-point representation for deployment on the MSP430 device
//! (Section IV-A). We use per-tensor power-of-two scales: a [`QFormat`] with
//! `frac_bits = f` represents value `x` as `round(x * 2^f)` saturated to
//! `i16`. Power-of-two scales keep requantization a pure arithmetic shift,
//! exactly what the LEA-style accelerator performs.

use crate::Tensor;

/// A power-of-two fixed-point format: `f` fractional bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    frac_bits: u8,
}

impl QFormat {
    /// Maximum representable fractional bits for i16.
    pub const MAX_FRAC_BITS: u8 = 15;

    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 15`.
    pub fn new(frac_bits: u8) -> Self {
        assert!(frac_bits <= Self::MAX_FRAC_BITS, "at most 15 fractional bits");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// The scale factor `2^frac_bits`.
    pub fn scale(&self) -> f32 {
        (1i32 << self.frac_bits) as f32
    }

    /// Chooses the largest format that represents `max_abs` without
    /// saturation, leaving one bit of headroom.
    ///
    /// For `max_abs < 1` this picks Q0.15-style `frac_bits = 15`; larger
    /// dynamic ranges get fewer fractional bits.
    pub fn for_max_abs(max_abs: f32) -> Self {
        let mut f = Self::MAX_FRAC_BITS;
        while f > 0 {
            let limit = 32767.0 / (1i64 << f) as f32;
            if max_abs <= limit * 0.999 {
                return Self::new(f);
            }
            f -= 1;
        }
        Self::new(0)
    }

    /// Quantizes a single value with round-to-nearest and saturation.
    #[inline]
    pub fn quantize(&self, x: f32) -> i16 {
        let v = (x * self.scale()).round();
        v.clamp(i16::MIN as f32, i16::MAX as f32) as i16
    }

    /// Dequantizes a single value.
    #[inline]
    pub fn dequantize(&self, q: i16) -> f32 {
        q as f32 / self.scale()
    }
}

/// Requantizes a 32-bit accumulator holding a product/sum in
/// `(in_frac + w_frac)` fractional bits down to `out_frac` bits, with
/// round-to-nearest and i16 saturation.
///
/// This mirrors the arithmetic-shift requantization performed after each
/// accelerator accumulation on the device.
#[inline]
pub fn requantize(acc: i64, in_frac: u8, w_frac: u8, out_frac: u8) -> i16 {
    let shift = in_frac as i32 + w_frac as i32 - out_frac as i32;
    let v = if shift > 0 {
        let half = 1i64 << (shift - 1);
        (acc + half) >> shift
    } else {
        acc << (-shift)
    };
    v.clamp(i16::MIN as i64, i16::MAX as i64) as i16
}

/// A power-of-two 8-bit fixed-point format: `f` fractional bits in an i8.
///
/// The deploy-style int8 tier (`models::qeval`'s Q8 engine) stores weights and
/// activations as i8 with per-tensor power-of-two scales — the same
/// shift-only requantization discipline as [`QFormat`], at half the
/// payload and a quarter of the multiplier width. Biases are *not* stored
/// in i8: the Q8 engine preloads them directly at accumulator scale as
/// i32 (see [`crate::qgemm::q8_gemm`]), the standard int8 deployment
/// layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Q8Format {
    frac_bits: u8,
}

impl Q8Format {
    /// Maximum representable fractional bits for i8.
    pub const MAX_FRAC_BITS: u8 = 7;

    /// Creates a format with `frac_bits` fractional bits.
    ///
    /// # Panics
    ///
    /// Panics if `frac_bits > 7`.
    pub fn new(frac_bits: u8) -> Self {
        assert!(frac_bits <= Self::MAX_FRAC_BITS, "at most 7 fractional bits");
        Self { frac_bits }
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u8 {
        self.frac_bits
    }

    /// The scale factor `2^frac_bits`.
    pub fn scale(&self) -> f32 {
        (1i32 << self.frac_bits) as f32
    }

    /// Chooses the largest format that represents `max_abs` without
    /// saturation, with the same 0.999 headroom rule as
    /// [`QFormat::for_max_abs`].
    pub fn for_max_abs(max_abs: f32) -> Self {
        let mut f = Self::MAX_FRAC_BITS;
        while f > 0 {
            let limit = 127.0 / (1i64 << f) as f32;
            if max_abs <= limit * 0.999 {
                return Self::new(f);
            }
            f -= 1;
        }
        Self::new(0)
    }

    /// Quantizes a single value with round-to-nearest and saturation.
    #[inline]
    pub fn quantize(&self, x: f32) -> i8 {
        let v = (x * self.scale()).round();
        v.clamp(i8::MIN as f32, i8::MAX as f32) as i8
    }

    /// Dequantizes a single value.
    #[inline]
    pub fn dequantize(&self, q: i8) -> f32 {
        q as f32 / self.scale()
    }
}

/// Requantizes a 32-bit Q8 accumulator holding a product/sum in
/// `(in_frac + w_frac)` fractional bits down to `out_frac` bits, with
/// round-to-nearest and i8 saturation — the 8-bit twin of [`requantize`]
/// (the rounding shift happens in i64, so no intermediate can overflow).
#[inline]
pub fn requantize8(acc: i32, in_frac: u8, w_frac: u8, out_frac: u8) -> i8 {
    let shift = in_frac as i32 + w_frac as i32 - out_frac as i32;
    let acc = acc as i64;
    let v = if shift > 0 {
        let half = 1i64 << (shift - 1);
        (acc + half) >> shift
    } else {
        acc << (-shift)
    };
    v.clamp(i8::MIN as i64, i8::MAX as i64) as i8
}

/// A quantized tensor: i16 values plus their [`QFormat`].
#[derive(Debug, Clone, PartialEq)]
pub struct QTensor {
    dims: Vec<usize>,
    data: Vec<i16>,
    format: QFormat,
}

impl QTensor {
    /// Quantizes a float tensor, picking the format from its max-abs value.
    pub fn quantize(t: &Tensor) -> Self {
        let format = QFormat::for_max_abs(t.max_abs());
        Self::quantize_with(t, format)
    }

    /// Quantizes a float tensor with an explicit format.
    pub fn quantize_with(t: &Tensor, format: QFormat) -> Self {
        let data = t.data().iter().map(|&x| format.quantize(x)).collect();
        Self { dims: t.dims().to_vec(), data, format }
    }

    /// Builds a quantized tensor from raw parts.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `dims`.
    pub fn from_raw(dims: &[usize], data: Vec<i16>, format: QFormat) -> Self {
        let numel: usize = dims.iter().product();
        assert_eq!(data.len(), numel, "data length does not match dims");
        Self { dims: dims.to_vec(), data, format }
    }

    /// The dimension list.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// The i16 payload.
    pub fn data(&self) -> &[i16] {
        &self.data
    }

    /// The fixed-point format.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Dequantizes back to floats.
    pub fn dequantize(&self) -> Tensor {
        let data = self.data.iter().map(|&q| self.format.dequantize(q)).collect();
        Tensor::from_vec(&self.dims, data)
    }

    /// Size in bytes of the dense payload (2 bytes per element).
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * 2
    }

    /// Number of exactly-zero elements.
    pub fn count_zeros(&self) -> usize {
        self.data.iter().filter(|&&q| q == 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn format_selection_small_values() {
        assert_eq!(QFormat::for_max_abs(0.5).frac_bits(), 15);
        assert_eq!(QFormat::for_max_abs(1.5).frac_bits(), 14);
        assert_eq!(QFormat::for_max_abs(3.0).frac_bits(), 13);
    }

    #[test]
    fn quantize_saturates() {
        let q = QFormat::new(15);
        assert_eq!(q.quantize(10.0), i16::MAX);
        assert_eq!(q.quantize(-10.0), i16::MIN);
    }

    #[test]
    fn requantize_shift_math() {
        // 0.5 (Q15) * 0.5 (Q15) accumulated in Q30, requantized to Q15 = 0.25
        let a = (0.5f32 * 32768.0) as i64;
        let acc = a * a;
        let out = requantize(acc, 15, 15, 15);
        assert_eq!(out, (0.25f32 * 32768.0) as i16);
    }

    #[test]
    fn requantize_negative_shift_scales_up() {
        assert_eq!(requantize(4, 2, 2, 6), 16);
    }

    #[test]
    fn qtensor_roundtrip_error_bounded() {
        let t = Tensor::from_vec(&[4], vec![0.1, -0.25, 0.7, -0.9]);
        let q = QTensor::quantize(&t);
        let back = q.dequantize();
        for (a, b) in t.data().iter().zip(back.data().iter()) {
            assert!((a - b).abs() <= 1.0 / q.format().scale());
        }
    }

    #[test]
    fn payload_bytes_is_two_per_element() {
        let q = QTensor::quantize(&Tensor::zeros(&[3, 5]));
        assert_eq!(q.payload_bytes(), 30);
        assert_eq!(q.count_zeros(), 15);
    }

    proptest! {
        #[test]
        fn roundtrip_error_within_half_ulp(xs in proptest::collection::vec(-0.999f32..0.999, 1..64)) {
            let t = Tensor::from_vec(&[xs.len()], xs.clone());
            let q = QTensor::quantize_with(&t, QFormat::new(15));
            let back = q.dequantize();
            for (a, b) in t.data().iter().zip(back.data().iter()) {
                prop_assert!((a - b).abs() <= 0.5 / 32768.0 + 1e-9);
            }
        }

        #[test]
        fn chosen_format_never_saturates(xs in proptest::collection::vec(-100.0f32..100.0, 1..64)) {
            let t = Tensor::from_vec(&[xs.len()], xs.clone());
            let fmt = QFormat::for_max_abs(t.max_abs());
            for &x in t.data() {
                let q = fmt.quantize(x);
                prop_assert!(q != i16::MAX && q != i16::MIN || x.abs() >= 0.9 * 32767.0 / fmt.scale());
            }
        }

        // quantize -> dequantize is within half a quantization step for any
        // in-range value, at every format width.
        #[test]
        fn roundtrip_error_bounded_at_every_format(
            x in -40_000.0f32..40_000.0,
            f in 0u8..=15,
        ) {
            let fmt = QFormat::new(f);
            let limit = 32767.0 / fmt.scale();
            let x = x.clamp(-limit, limit);
            let err = (x - fmt.dequantize(fmt.quantize(x))).abs();
            prop_assert!(
                err <= 0.5 / fmt.scale() + 1e-6,
                "f={} x={} err={}", f, x, err
            );
        }

        // Out-of-range values saturate at exactly the i16 bounds — never
        // wrap — and the bound dequantizes to the format's extreme value.
        #[test]
        fn out_of_range_saturates_at_i16_bounds(
            mag in 0.0f32..1.0e6,
            f in 0u8..=15,
        ) {
            let fmt = QFormat::new(f);
            let limit = 32767.0 / fmt.scale();
            let x = limit + mag + 1.0 / fmt.scale();
            prop_assert_eq!(fmt.quantize(x), i16::MAX, "f={} x={}", f, x);
            prop_assert_eq!(fmt.quantize(-x), i16::MIN, "f={} x={}", f, x);
            // non-finite inputs also clamp rather than wrap
            prop_assert_eq!(fmt.quantize(f32::INFINITY), i16::MAX);
            prop_assert_eq!(fmt.quantize(f32::NEG_INFINITY), i16::MIN);
        }

        // Q8: quantize -> dequantize is within half a quantization step
        // for any in-range value, at every i8 format width.
        #[test]
        fn q8_roundtrip_error_bounded_at_every_format(
            x in -300.0f32..300.0,
            f in 0u8..=7,
        ) {
            let fmt = Q8Format::new(f);
            let limit = 127.0 / fmt.scale();
            let x = x.clamp(-limit, limit);
            let err = (x - fmt.dequantize(fmt.quantize(x))).abs();
            prop_assert!(err <= 0.5 / fmt.scale() + 1e-6, "f={} x={} err={}", f, x, err);
        }

        // Q8: out-of-range values saturate at exactly the i8 bounds.
        #[test]
        fn q8_out_of_range_saturates_at_i8_bounds(
            mag in 0.0f32..1.0e4,
            f in 0u8..=7,
        ) {
            let fmt = Q8Format::new(f);
            let limit = 127.0 / fmt.scale();
            let x = limit + mag + 1.0 / fmt.scale();
            prop_assert_eq!(fmt.quantize(x), i8::MAX, "f={} x={}", f, x);
            prop_assert_eq!(fmt.quantize(-x), i8::MIN, "f={} x={}", f, x);
            prop_assert_eq!(fmt.quantize(f32::INFINITY), i8::MAX);
            prop_assert_eq!(fmt.quantize(f32::NEG_INFINITY), i8::MIN);
        }

        // Q8: the chosen format never saturates in-range data, mirroring
        // the i16 contract (weights quantized this way stay off i8::MIN).
        #[test]
        fn q8_chosen_format_never_saturates(xs in proptest::collection::vec(-50.0f32..50.0, 1..64)) {
            let max_abs = xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
            let fmt = Q8Format::for_max_abs(max_abs.max(1e-6));
            for &x in &xs {
                let q = fmt.quantize(x);
                prop_assert!(q != i8::MIN, "for_max_abs headroom keeps weights off i8::MIN");
            }
        }

        // Q8: requantize8 up-then-down is the exact arithmetic shift.
        #[test]
        fn q8_requantize_shift_is_exact_for_representable_values(
            q in -128i32..=127,
            in_frac in 0u8..=7,
            d in 0u8..=7,
        ) {
            let acc = q << d;
            prop_assert_eq!(requantize8(acc, in_frac, d, in_frac) as i32, q);
        }

        // Q8: rounding in requantize8 is round-half-up on the shifted-out
        // bits, and saturation clamps instead of wrapping.
        #[test]
        fn q8_requantize_rounds_and_saturates(acc in i32::MIN/2..i32::MAX/2, shift in 1u8..=7) {
            let out = requantize8(acc, shift, 0, 0) as i64;
            let exact = (acc as i64 + (1i64 << (shift - 1))) >> shift;
            prop_assert_eq!(out, exact.clamp(i8::MIN as i64, i8::MAX as i64));
        }

        // A pure format change through `requantize` is the exact arithmetic
        // shift: scaling up by `2^d` then shifting back down reproduces the
        // value bit-for-bit (round-to-nearest leaves exact multiples alone).
        #[test]
        fn requantize_shift_is_exact_for_representable_values(
            q in -32_768i64..=32_767,
            in_frac in 0u8..=15,
            d in 0u8..=15,
        ) {
            // up then down: acc = q << d in (in_frac + d) frac bits
            let acc = q << d;
            prop_assert_eq!(requantize(acc, in_frac, d, in_frac) as i64, q);
            // down then up on an already-exact accumulator
            let up = requantize(q, in_frac, 0, (in_frac + d).min(15));
            let back = requantize(up as i64, (in_frac + d).min(15), 0, in_frac);
            if up as i64 == q << ((in_frac + d).min(15) - in_frac) {
                prop_assert_eq!(back as i64, q, "no saturation -> exact round trip");
            }
        }
    }
}
