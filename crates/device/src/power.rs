//! Power supply and capacitor/EMU model.
//!
//! The BQ25504 EMU buffers harvested energy into a capacitor and gates the
//! device through a power switch: on when the capacitor reaches `V_on`,
//! off when it falls to `V_off` (Section IV-A). The usable budget per power
//! cycle is therefore `½·C·(V_on² − V_off²)` ≈ 104 µJ on the paper's board.
//!
//! [`Supply::power_at`] is the definition of the harvested input power.
//! `Supply::span_at` returns the same value together with the half-open
//! time span on which `power_at` keeps returning it, so the simulator can
//! memoise its lookups exactly (`PowerTrace::span_at` says why the span is
//! exact).

use crate::spec::DeviceSpec;

/// The three supply configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PowerStrength {
    /// 1.65 W bench supply: the device never browns out (but HAWAII⁺ still
    /// preserves progress — it assumes no knowledge of the supply).
    Continuous,
    /// 8 mW: emulates strong solar input; insufficient for continuous
    /// operation.
    Strong,
    /// 4 mW: emulates weak solar input.
    Weak,
}

impl PowerStrength {
    /// Input power in watts.
    pub fn watts(&self) -> f64 {
        match self {
            PowerStrength::Continuous => 1.65,
            PowerStrength::Strong => 8.0e-3,
            PowerStrength::Weak => 4.0e-3,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            PowerStrength::Continuous => "continuous",
            PowerStrength::Strong => "strong (8 mW)",
            PowerStrength::Weak => "weak (4 mW)",
        }
    }

    /// All strengths in the paper's presentation order.
    pub fn all() -> [PowerStrength; 3] {
        [PowerStrength::Continuous, PowerStrength::Strong, PowerStrength::Weak]
    }
}

/// A time-varying harvested-power profile: piecewise-constant samples at a
/// fixed interval, repeating periodically. Used to emulate realistic
/// ambient sources (the paper emulates solar conditions with constant
/// levels; traces extend that to moving clouds and day cycles).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    samples: Vec<f64>,
    dt_s: f64,
    /// Mean of `samples`, summed once here rather than per power failure.
    mean_w: f64,
}

/// A supply's power on a half-open time span: `power_at(x)` returns `w`
/// for every `x` in `[lo, hi)`. A span with `lo == hi` holds no time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PowerSpan {
    /// First time of the span.
    pub(crate) lo: f64,
    /// First time past the span.
    pub(crate) hi: f64,
    /// The power (W) throughout the span.
    pub(crate) w: f64,
}

impl PowerSpan {
    /// Whether `t` lies in the span (never for NaN).
    #[inline]
    pub(crate) fn contains(&self, t: f64) -> bool {
        self.lo <= t && t < self.hi
    }
}

/// Cap on the one-ulp steps `PowerTrace::span_at` takes from its guessed
/// span end to the exact one; the guess is off by a few ulps at most.
const SPAN_ULP_STEPS: u32 = 64;

impl PowerTrace {
    /// Creates a trace from samples (watts) spaced `dt_s` seconds apart.
    /// The trace repeats after `samples.len() * dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty, `dt_s` is not positive, or any sample
    /// is negative.
    pub fn new(samples: Vec<f64>, dt_s: f64) -> Self {
        assert!(!samples.is_empty(), "trace needs at least one sample");
        assert!(dt_s > 0.0, "sample interval must be positive");
        assert!(samples.iter().all(|&w| w >= 0.0), "power cannot be negative");
        let mean_w = samples.iter().sum::<f64>() / samples.len() as f64;
        Self { samples, dt_s, mean_w }
    }

    /// A synthetic "solar" profile: a clipped sinusoid of period
    /// `period_s` peaking at `peak_w`, with deterministic pseudo-random
    /// cloud dips derived from `seed`.
    pub fn solar(peak_w: f64, period_s: f64, samples: usize, seed: u64) -> Self {
        let dt = period_s / samples as f64;
        let data: Vec<f64> = (0..samples)
            .map(|i| {
                let phase = i as f64 / samples as f64 * std::f64::consts::TAU;
                let sun = (phase.sin()).max(0.0) * peak_w;
                // hash the sample index into an occasional cloud factor
                let mut h = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                h ^= h >> 31;
                let cloud = if h.is_multiple_of(5) { 0.3 } else { 1.0 };
                sun * cloud
            })
            .collect();
        Self::new(data, dt)
    }

    /// SplitMix64-style finalizer: hashes `(seed, i)` with full avalanche so
    /// nearby seeds produce uncorrelated streams.
    fn mix(seed: u64, i: u64) -> u64 {
        let mut h = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^ (h >> 31)
    }

    /// A synthetic RF-harvesting profile: a low idle trickle punctuated by
    /// deterministic pseudo-random transmitter bursts at `peak_w`. Bursts
    /// occupy whole windows of `burst_len` samples; whether a window bursts
    /// is hashed from `seed`, so the trace is a pure function of its
    /// arguments.
    pub fn rf_bursts(
        peak_w: f64,
        idle_w: f64,
        period_s: f64,
        samples: usize,
        burst_len: usize,
        seed: u64,
    ) -> Self {
        assert!(burst_len > 0, "burst windows need at least one sample");
        assert!(peak_w >= idle_w, "burst power must dominate the idle trickle");
        let dt = period_s / samples as f64;
        let data: Vec<f64> = (0..samples)
            .map(|i| {
                let window = (i / burst_len) as u64;
                // roughly one window in four carries a transmission burst
                if Self::mix(seed, window).is_multiple_of(4) {
                    peak_w
                } else {
                    idle_w
                }
            })
            .collect();
        Self::new(data, dt)
    }

    /// A synthetic thermal-gradient profile: a TEG output drifting slowly
    /// around `base_w` with amplitude `swing_w` over `period_s`, plus small
    /// seeded sample-level jitter (airflow noise). Clamped at zero.
    pub fn thermal_drift(
        base_w: f64,
        swing_w: f64,
        period_s: f64,
        samples: usize,
        seed: u64,
    ) -> Self {
        let dt = period_s / samples as f64;
        let data: Vec<f64> = (0..samples)
            .map(|i| {
                let phase = i as f64 / samples as f64 * std::f64::consts::TAU;
                let drift = base_w + swing_w * phase.sin();
                // jitter in [-10%, +10%] of the swing amplitude
                let frac = (Self::mix(seed, i as u64) >> 11) as f64 / (1u64 << 53) as f64;
                let jitter = (frac - 0.5) * 0.2 * swing_w;
                (drift + jitter).max(0.0)
            })
            .collect();
        Self::new(data, dt)
    }

    /// Power at absolute time `t` (periodic).
    pub fn power_at(&self, t: f64) -> f64 {
        self.samples[self.index(t)]
    }

    /// Length of one period (s).
    fn period(&self) -> f64 {
        self.samples.len() as f64 * self.dt_s
    }

    /// The sample [`Self::power_at`] reads at time `t`.
    fn index(&self, t: f64) -> usize {
        let tt = t.rem_euclid(self.period());
        ((tt / self.dt_s) as usize).min(self.samples.len() - 1)
    }

    /// [`Self::power_at`]`(t)` and the span `[t, hi)` on which it holds.
    ///
    /// Exactness: for `x ≥ 0` in one period `[nP, (n+1)P)`,
    /// `x.rem_euclid(P)` is exactly `x − nP` (fmod is exact), so the sample
    /// index `min(⌊RN(tt/dt)⌋, L−1)` never decreases as `x` grows there.
    /// From a guessed `hi`, one-ulp steps find the `hi > t` with
    /// `index(hi) ≠ i` and `index(prev(hi)) == i`. If `prev(hi)` is in
    /// `t`'s period, monotonicity puts every `x` of `[t, prev(hi)]` on
    /// sample `i`; it is when `prev(hi) − t < P` and its offset into the
    /// period is not below `t`'s. Anything else (negative or non-finite
    /// `t`, the step cap, another period) gives the empty span `[t, t)`,
    /// which is exact too. A one-sample trace holds everywhere.
    pub(crate) fn span_at(&self, t: f64) -> PowerSpan {
        let i = self.index(t);
        let w = self.samples[i];
        if self.samples.len() == 1 {
            return PowerSpan { lo: f64::NEG_INFINITY, hi: f64::INFINITY, w };
        }
        let empty = PowerSpan { lo: t, hi: t, w };
        // below zero `rem_euclid` rounds, and NaN or ±inf has no period
        if !(0.0..f64::INFINITY).contains(&t) {
            return empty;
        }
        let period = self.period();
        let tt = t.rem_euclid(period);
        let mut hi = ((t - tt) + (i + 1) as f64 * self.dt_s).max(t.next_up());
        for _ in 0..SPAN_ULP_STEPS {
            if self.index(hi) == i {
                hi = hi.next_up();
                continue;
            }
            // `last >= t`: the search only steps down while `last` is off `i`
            let last = hi.next_down();
            if self.index(last) != i {
                hi = last;
                continue;
            }
            let same_period = last - t < period && last.rem_euclid(period) >= tt;
            return if same_period { PowerSpan { lo: t, hi, w } } else { empty };
        }
        empty
    }

    /// Mean power over one period.
    pub fn mean_w(&self) -> f64 {
        self.mean_w
    }

    /// Sample interval in seconds.
    pub fn dt_s(&self) -> f64 {
        self.dt_s
    }
}

/// The power source driving the EMU: a constant bench-supply level or a
/// repeating harvested trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Supply {
    /// Constant input power (the paper's emulated levels).
    Constant(f64),
    /// Time-varying harvested power.
    Trace(PowerTrace),
}

impl Supply {
    /// Input power at time `t`.
    pub fn power_at(&self, t: f64) -> f64 {
        match self {
            Supply::Constant(w) => *w,
            Supply::Trace(tr) => tr.power_at(t),
        }
    }

    /// [`Self::power_at`]`(t)` with a span holding `t` on which it holds
    /// (a constant supply's span is all of time).
    pub(crate) fn span_at(&self, t: f64) -> PowerSpan {
        match self {
            Supply::Constant(w) => PowerSpan { lo: f64::NEG_INFINITY, hi: f64::INFINITY, w: *w },
            Supply::Trace(tr) => tr.span_at(t),
        }
    }

    /// Whether this supply can ever brown the device out (used for
    /// fast-path checks; traces are always treated as intermittent).
    pub fn is_bench_supply(&self) -> bool {
        matches!(self, Supply::Constant(w) if *w >= 1.0)
    }
}

impl From<PowerStrength> for Supply {
    fn from(s: PowerStrength) -> Self {
        Supply::Constant(s.watts())
    }
}

/// Capacitor state between `V_off` (empty, device cuts out) and `V_on`
/// (full). Tracks the usable energy above the cut-out voltage.
#[derive(Debug, Clone)]
pub struct Capacitor {
    span_j: f64,
    energy_j: f64,
}

impl Capacitor {
    /// A fully-charged capacitor for the given device spec.
    pub fn full(spec: &DeviceSpec) -> Self {
        let span = spec.energy_span_j();
        Self { span_j: span, energy_j: span }
    }

    /// Usable energy remaining (joules above the cut-out threshold).
    pub fn energy_j(&self) -> f64 {
        self.energy_j
    }

    /// Total usable span (joules between `V_off` and `V_on`).
    pub fn span_j(&self) -> f64 {
        self.span_j
    }

    /// Applies a net energy delta (positive = charging), clamped to
    /// `[0, span]`. Returns `true` if the capacitor hit empty (power fails).
    pub fn apply(&mut self, delta_j: f64) -> bool {
        self.energy_j = (self.energy_j + delta_j).min(self.span_j);
        if self.energy_j <= 0.0 {
            self.energy_j = 0.0;
            true
        } else {
            false
        }
    }

    /// Recharges to full and returns the off-time needed at input power
    /// `p_in_w` (seconds).
    pub fn recharge(&mut self, p_in_w: f64) -> f64 {
        let deficit = self.span_j - self.energy_j;
        self.energy_j = self.span_j;
        deficit / p_in_w
    }

    /// Energy missing to full (joules).
    pub fn deficit_j(&self) -> f64 {
        self.span_j - self.energy_j
    }

    /// Marks the capacitor full (used with externally-integrated recharge).
    pub fn refill(&mut self) {
        self.energy_j = self.span_j;
    }
}

/// A labeled supply point in the shared bench/campaign sweep.
#[derive(Debug, Clone)]
pub struct SupplyPoint {
    /// Row label (the paper's names for the constant levels).
    pub label: String,
    /// The supply itself, ready for `DeviceSim::with_supply`.
    pub supply: Supply,
}

/// The deterministic solar trace used across benches and campaigns: a
/// 2-second day cycle peaking at the paper's strong-solar 8 mW, with seeded
/// cloud dips.
pub fn solar_trace() -> PowerTrace {
    PowerTrace::solar(8.0e-3, 2.0, 64, 3)
}

/// The three paper supply levels plus the repeating solar trace, in
/// presentation order. Every labeled point is deterministic, so harness
/// rows keyed by label are reproducible run to run. Shared by `fig5`, the
/// fault campaigns, and the fleet subsystem as the single source of truth
/// for the supply axis.
pub fn sweep_supplies() -> Vec<SupplyPoint> {
    let mut points: Vec<SupplyPoint> = PowerStrength::all()
        .into_iter()
        .map(|s| SupplyPoint { label: s.label().to_string(), supply: Supply::from(s) })
        .collect();
    points.push(SupplyPoint {
        label: "solar trace".to_string(),
        supply: Supply::Trace(solar_trace()),
    });
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn strengths_match_table1() {
        assert_eq!(PowerStrength::Continuous.watts(), 1.65);
        assert_eq!(PowerStrength::Strong.watts(), 8.0e-3);
        assert_eq!(PowerStrength::Weak.watts(), 4.0e-3);
    }

    #[test]
    fn trace_is_periodic_and_nonnegative() {
        let tr = PowerTrace::new(vec![1.0, 2.0, 3.0], 0.5);
        assert_eq!(tr.power_at(0.0), 1.0);
        assert_eq!(tr.power_at(0.6), 2.0);
        assert_eq!(tr.power_at(1.4), 3.0);
        // periodic wrap
        assert_eq!(tr.power_at(1.5), 1.0);
        assert_eq!(tr.power_at(3.1), 1.0); // 2 periods + 0.1 s → sample 0
        assert_eq!(tr.power_at(3.6), 2.0);
        assert!((tr.mean_w() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solar_trace_has_dark_and_bright_phases() {
        let tr = PowerTrace::solar(10.0e-3, 60.0, 120, 7);
        let bright = tr.power_at(15.0); // quarter period: sin peak
        let dark = tr.power_at(45.0); // three quarters: clipped to 0
        assert!(bright > 5.0e-3, "bright {bright}");
        assert_eq!(dark, 0.0);
        assert!(tr.mean_w() > 0.0 && tr.mean_w() < 10.0e-3);
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn empty_trace_panics() {
        let _ = PowerTrace::new(vec![], 1.0);
    }

    #[test]
    fn supply_conversions() {
        let s = Supply::from(PowerStrength::Strong);
        assert_eq!(s.power_at(123.0), 8.0e-3);
        assert!(!s.is_bench_supply());
        assert!(Supply::from(PowerStrength::Continuous).is_bench_supply());
    }

    #[test]
    fn capacitor_drains_and_fails() {
        let spec = DeviceSpec::msp430fr5994();
        let mut cap = Capacitor::full(&spec);
        let span = cap.span_j();
        assert!(!cap.apply(-span * 0.5));
        assert!(cap.apply(-span * 0.6), "should fail past empty");
        assert_eq!(cap.energy_j(), 0.0);
    }

    #[test]
    fn charging_clamps_at_full() {
        let spec = DeviceSpec::msp430fr5994();
        let mut cap = Capacitor::full(&spec);
        assert!(!cap.apply(1.0)); // massive charge
        assert_eq!(cap.energy_j(), cap.span_j());
    }

    #[test]
    fn sweep_covers_constants_and_trace() {
        let points = sweep_supplies();
        assert_eq!(points.len(), 4);
        assert!(points[0].supply.is_bench_supply());
        assert!(points[1..].iter().all(|p| !p.supply.is_bench_supply()));
        assert!(matches!(points[3].supply, Supply::Trace(_)));
    }

    #[test]
    fn solar_trace_is_deterministic_and_sub_bench() {
        let a = solar_trace();
        assert_eq!(a, solar_trace());
        assert!(a.mean_w() > 0.0 && a.mean_w() < 8.0e-3);
    }

    #[test]
    fn rf_bursts_alternate_between_idle_and_peak() {
        let tr = PowerTrace::rf_bursts(20.0e-3, 0.5e-3, 4.0, 128, 8, 11);
        let mut saw_idle = false;
        let mut saw_peak = false;
        for i in 0..128 {
            let w = tr.power_at(i as f64 * tr.dt_s());
            assert!(w == 0.5e-3 || w == 20.0e-3, "sample {i} is {w}");
            saw_idle |= w == 0.5e-3;
            saw_peak |= w == 20.0e-3;
        }
        assert!(saw_idle && saw_peak);
    }

    #[test]
    fn thermal_drift_stays_near_base_level() {
        let tr = PowerTrace::thermal_drift(5.0e-3, 2.0e-3, 60.0, 240, 4);
        assert!(tr.mean_w() > 3.0e-3 && tr.mean_w() < 7.0e-3, "mean {}", tr.mean_w());
        for i in 0..240 {
            let w = tr.power_at(i as f64 * tr.dt_s());
            assert!((0.0..=5.0e-3 + 2.0e-3 * 1.1).contains(&w), "sample {i} is {w}");
        }
    }

    #[test]
    fn seeded_traces_vary_across_seeds() {
        let rf_distinct = (0..8)
            .map(|s| PowerTrace::rf_bursts(10.0e-3, 1.0e-3, 2.0, 64, 4, s))
            .collect::<Vec<_>>();
        assert!(rf_distinct.iter().any(|t| *t != rf_distinct[0]));
        let th_distinct = (0..8)
            .map(|s| PowerTrace::thermal_drift(5.0e-3, 1.0e-3, 2.0, 64, s))
            .collect::<Vec<_>>();
        assert!(th_distinct.iter().any(|t| *t != th_distinct[0]));
    }

    proptest! {
        // Every harvest-trace constructor is a pure function of its
        // arguments: rebuilding with the same seed reproduces the trace
        // bit for bit, sample by sample.
        #[test]
        fn solar_is_deterministic_per_seed(seed in 0u64..1_000_000, n in 8usize..96) {
            let a = PowerTrace::solar(8.0e-3, 2.0, n, seed);
            let b = PowerTrace::solar(8.0e-3, 2.0, n, seed);
            prop_assert_eq!(&a, &b);
            for i in 0..n {
                let t = i as f64 * a.dt_s();
                prop_assert_eq!(a.power_at(t).to_bits(), b.power_at(t).to_bits());
            }
        }

        #[test]
        fn rf_bursts_are_deterministic_per_seed(seed in 0u64..1_000_000, n in 8usize..96) {
            let a = PowerTrace::rf_bursts(15.0e-3, 1.0e-3, 2.0, n, 4, seed);
            let b = PowerTrace::rf_bursts(15.0e-3, 1.0e-3, 2.0, n, 4, seed);
            prop_assert_eq!(&a, &b);
            for i in 0..n {
                let t = i as f64 * a.dt_s();
                prop_assert_eq!(a.power_at(t).to_bits(), b.power_at(t).to_bits());
            }
        }

        #[test]
        fn thermal_drift_is_deterministic_per_seed(seed in 0u64..1_000_000, n in 8usize..96) {
            let a = PowerTrace::thermal_drift(5.0e-3, 2.0e-3, 30.0, n, seed);
            let b = PowerTrace::thermal_drift(5.0e-3, 2.0e-3, 30.0, n, seed);
            prop_assert_eq!(&a, &b);
            for i in 0..n {
                let t = i as f64 * a.dt_s();
                prop_assert_eq!(a.power_at(t).to_bits(), b.power_at(t).to_bits());
            }
        }

        // Traces never emit negative power, and bursts never exceed the peak.
        #[test]
        fn traces_stay_within_physical_bounds(seed in 0u64..1_000_000) {
            for tr in [
                PowerTrace::solar(8.0e-3, 2.0, 64, seed),
                PowerTrace::rf_bursts(15.0e-3, 1.0e-3, 2.0, 64, 4, seed),
                PowerTrace::thermal_drift(5.0e-3, 2.0e-3, 30.0, 64, seed),
            ] {
                for i in 0..64 {
                    let w = tr.power_at(i as f64 * tr.dt_s());
                    prop_assert!((0.0..=20.0e-3).contains(&w), "seed {} sample {} = {}", seed, i, w);
                }
            }
        }
    }

    #[test]
    fn mean_is_summed_once_in_the_same_order() {
        let samples: Vec<f64> = (0..97).map(|i| (i as f64 * 0.37).sin().abs() * 1e-3).collect();
        let tr = PowerTrace::new(samples.clone(), 0.01);
        let resummed = samples.iter().sum::<f64>() / samples.len() as f64;
        assert_eq!(tr.mean_w().to_bits(), resummed.to_bits());
    }

    #[test]
    fn constant_and_one_sample_supplies_hold_for_all_time() {
        let all = |s: PowerSpan| s.lo == f64::NEG_INFINITY && s.hi == f64::INFINITY;
        assert!(all(Supply::Constant(4.0e-3).span_at(17.0)));
        let one = PowerTrace::new(vec![3.0e-3], 0.5);
        for t in [-1.0, 0.0, 0.25, 1.0e9] {
            assert!(all(one.span_at(t)));
            assert_eq!(one.span_at(t).w, 3.0e-3);
        }
        // a NaN time is never inside a span, so it is always recomputed
        assert!(!Supply::Constant(4.0e-3).span_at(0.0).contains(f64::NAN));
    }

    #[test]
    fn spans_outside_the_nonnegative_reals_are_empty() {
        let tr = PowerTrace::new(vec![1.0, 2.0, 3.0], 0.5);
        for t in [-0.1, -2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let s = tr.span_at(t);
            assert!(!s.contains(t), "t = {t}: {s:?}");
            assert_eq!(s.w.to_bits(), tr.power_at(t).to_bits());
        }
    }

    /// Checks the span at `t` against the definition: its value has
    /// `power_at(t)`'s bits and, unless it is empty, every probed `x` of
    /// `[t, hi)` reads `t`'s sample while `hi` reads another one.
    fn check_span(tr: &PowerTrace, t: f64, mut probe: impl FnMut() -> u64) {
        let s = tr.span_at(t);
        assert_eq!(s.w.to_bits(), tr.power_at(t).to_bits(), "t = {t:e}");
        if s.lo == s.hi {
            return;
        }
        if tr.samples.len() == 1 {
            assert!(s.lo == f64::NEG_INFINITY && s.hi == f64::INFINITY);
            return;
        }
        assert_eq!(s.lo, t, "span must start at the looked-up time");
        assert!(s.hi > t);
        let i = tr.index(t);
        let last = s.hi.next_down();
        let mut xs = vec![t, t.next_up().min(last), last, last.next_down().max(t)];
        for _ in 0..8 {
            let f = (probe() >> 11) as f64 / (1u64 << 53) as f64;
            xs.push((t + f * (s.hi - t)).clamp(t, last));
        }
        for x in xs {
            assert_eq!(tr.index(x), i, "x = {x:e} in span [{t:e}, {:e}) of sample {i}", s.hi);
            assert_eq!(tr.power_at(x).to_bits(), s.w.to_bits(), "x = {x:e}");
        }
        assert_ne!(tr.index(s.hi), i, "span end {:e} still reads sample {i} (t = {t:e})", s.hi);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        // The span function agrees with `power_at` on random traces, at the
        // fleet's sample intervals and random ones, many periods out, and
        // one ulp either side of every kind of boundary.
        #[test]
        fn spans_read_one_sample_and_end_where_it_ends(
            n in 1usize..131,
            seed in any::<u64>(),
            dt_pick in 0usize..6,
            dt_rand in 1.0e-4f64..0.7,
            periods in 0u64..2_000_000,
            frac in 0.0f64..1.0,
            k_pick in any::<u64>(),
        ) {
            // few distinct levels, so neighbouring samples often repeat
            let samples: Vec<f64> =
                (0..n).map(|i| (PowerTrace::mix(seed, i as u64) % 4) as f64 * 1.0e-3).collect();
            // the fleet's and the sweep's intervals, then random ones
            let dt = [2.0 / 64.0, 1.0 / 64.0, 4.0 / 64.0, 0.1, dt_rand, dt_rand / 3.0][dt_pick];
            let tr = PowerTrace::new(samples, dt);
            let period = tr.period();
            let k = (k_pick % n as u64) as f64;
            let mut draws = seed;
            let mut probe = || {
                draws = PowerTrace::mix(draws, 1);
                draws
            };
            let far = periods as f64 * period;
            let boundaries = [
                k * dt,
                (k + 1.0) * dt,
                far,
                far + k * dt,
                (periods + 1) as f64 * period,
            ];
            check_span(&tr, far + frac * period, &mut probe);
            check_span(&tr, frac * period, &mut probe);
            for b in boundaries {
                for t in [b.next_down(), b, b.next_up()] {
                    check_span(&tr, t, &mut probe);
                }
            }
        }
    }

    #[test]
    fn spans_are_found_for_nonnegative_times() {
        // the ulp search must land, not fall back to empty spans: fleet
        // traces over a long, jittered walk of times
        for tr in [
            PowerTrace::solar(8.0e-3, 2.0, 64, 9),
            PowerTrace::rf_bursts(20.0e-3, 1.0e-3, 1.0, 64, 4, 9),
            PowerTrace::thermal_drift(5.0e-3, 2.0e-3, 4.0, 64, 9),
        ] {
            let mut t = 0.0f64;
            for step in 0..20_000u64 {
                let s = tr.span_at(t);
                assert!(s.lo < s.hi, "empty span at t = {t:e}");
                t = if step % 3 == 0 { s.hi } else { t + (step % 7) as f64 * 1.3e-4 };
            }
        }
    }

    #[test]
    fn recharge_time_scales_inversely_with_power() {
        let spec = DeviceSpec::msp430fr5994();
        let mut cap = Capacitor::full(&spec);
        cap.apply(-cap.span_j() * 0.999999);
        let mut cap2 = cap.clone();
        let t_strong = cap.recharge(PowerStrength::Strong.watts());
        let t_weak = cap2.recharge(PowerStrength::Weak.watts());
        assert!((t_weak / t_strong - 2.0).abs() < 1e-6);
        // ~13 ms at 8 mW for the full 104 uJ span
        assert!((t_strong - 13.0e-3).abs() < 1.0e-3, "got {t_strong}");
    }
}
