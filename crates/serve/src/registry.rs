//! The pruned-model registry: one lazily-loaded, `Arc`-shared
//! [`LoadedVariant`] per (workload, device profile, power strength) key.
//!
//! A variant is built deterministically on first request: the app's model is
//! constructed from its seeded initializer, pruned to the key's target
//! density with per-layer magnitude masks, and its layer dispatch plan (GEMM
//! shapes, sparse-dispatch decisions, integer MAC costs) is cached. Its Q15
//! twin for device-numerics serving is calibrated on the first Q15 request
//! only. After that the variant is immutable: any number of in-flight
//! requests execute against the same weights through per-request
//! [`iprune_tensor::exec::ExecCtx`] scratch — zero weight clones per
//! request, which `tests/serving_determinism.rs` pins against the
//! `tensor.weight_clones` counter.

use iprune_device::power::PowerStrength;
use iprune_models::qeval::{QuantizedModel, DEFAULT_CALIBRATION};
use iprune_models::zoo::App;
use iprune_models::Model;
use iprune_obs::metrics::{self, Counter};
use iprune_tensor::layer::Layer;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};

/// Device hardware profile, mirroring the fleet population's variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceProfile {
    /// Reference MSP430 configuration.
    Nominal,
    /// Smaller storage capacitor — tighter progress windows, prune harder.
    SmallCap,
    /// Larger capacitor — can afford a denser model.
    BigCap,
    /// Slow FRAM — checkpoint traffic is pricier, prune slightly harder.
    SlowFram,
}

impl DeviceProfile {
    /// All profiles, in deterministic order.
    pub fn all() -> [DeviceProfile; 4] {
        [Self::Nominal, Self::SmallCap, Self::BigCap, Self::SlowFram]
    }

    /// Stable name (matches `iprune_fleet::population` variant names).
    pub fn name(&self) -> &'static str {
        match self {
            Self::Nominal => "nominal",
            Self::SmallCap => "small-cap",
            Self::BigCap => "big-cap",
            Self::SlowFram => "slow-fram",
        }
    }

    /// Density adjustment in ppm applied on top of the power-strength base.
    fn keep_adjust_ppm(&self) -> i64 {
        match self {
            Self::Nominal => 0,
            Self::SmallCap => -100_000,
            Self::BigCap => 100_000,
            Self::SlowFram => -50_000,
        }
    }
}

/// Registry key: which pruned variant a request wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VariantKey {
    /// The workload (application model).
    pub app: App,
    /// Device hardware profile.
    pub profile: DeviceProfile,
    /// Harvested-power strength.
    pub power: PowerStrength,
}

impl VariantKey {
    /// Creates a key.
    pub fn new(app: App, profile: DeviceProfile, power: PowerStrength) -> Self {
        Self { app, profile, power }
    }

    /// Target kept-weight fraction in ppm: weaker power and tighter device
    /// profiles get sparser variants. Clamped to `[100_000, 1_000_000]`.
    pub fn keep_ppm(&self) -> u32 {
        let base: i64 = match self.power {
            PowerStrength::Continuous => 1_000_000,
            PowerStrength::Strong => 500_000,
            PowerStrength::Weak => 300_000,
        };
        (base + self.profile.keep_adjust_ppm()).clamp(100_000, 1_000_000) as u32
    }

    /// The next key down the degrade ladder (same app/profile, weaker
    /// power → sparser, cheaper variant), if any.
    pub fn degraded(&self) -> Option<VariantKey> {
        let power = match self.power {
            PowerStrength::Continuous => PowerStrength::Strong,
            PowerStrength::Strong => PowerStrength::Weak,
            PowerStrength::Weak => return None,
        };
        Some(Self { power, ..*self })
    }

    /// Deterministic sort key (label-based, stable across runs).
    pub fn sort_key(&self) -> (String, &'static str, &'static str) {
        (self.app.name().to_string(), self.profile.name(), self.power.label())
    }
}

impl fmt::Display for VariantKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.app.name(), self.profile.name(), self.power.label())
    }
}

/// One prunable layer's entry in the cached dispatch plan.
#[derive(Debug, Clone)]
pub struct PlanRow {
    /// Prunable layer id.
    pub layer_id: usize,
    /// Layer name from the model description.
    pub name: String,
    /// `"conv"` or `"fc"`.
    pub kind: &'static str,
    /// GEMM rows (output channels / features).
    pub m: usize,
    /// GEMM depth (inputs per output).
    pub k: usize,
    /// Output positions per sample (1 for fc).
    pub spatial: usize,
    /// Kept (unpruned) weights.
    pub kept: u64,
    /// Total weights.
    pub total: u64,
    /// Kept MACs per sample — the layer's integer service cost.
    pub alive_macs: u64,
    /// Whether the Auto dispatch policy routes this layer through the
    /// block-sparse kernels.
    pub sparse: bool,
}

/// The per-variant execution plan, cached at load time: integer costs drive
/// the deadline-admission estimates, so scheduling decisions never depend on
/// wall-clock measurements (thread-count invariance).
#[derive(Debug, Clone)]
pub struct DispatchPlan {
    /// Per-layer rows, sorted by layer id.
    pub rows: Vec<PlanRow>,
    /// Total kept MACs per sample — the variant's service cost unit.
    pub cost: u64,
    /// Dense (unpruned) MACs per sample, for reference.
    pub dense_macs: u64,
}

impl DispatchPlan {
    /// Builds the plan from a loaded (masked) model.
    pub fn of(model: &Model) -> Self {
        let mut rows = Vec::with_capacity(model.info.prunables.len());
        let mut kept_by_id: HashMap<usize, u64> = HashMap::new();
        let mut sparse_by_id: HashMap<usize, bool> = HashMap::new();
        model.visit_params_ref(&mut |p| {
            if p.name.ends_with(".w") {
                let kept = match &p.mask {
                    Some(m) => m.data().iter().filter(|&&v| v != 0.0).count() as u64,
                    None => p.value.numel() as u64,
                };
                kept_by_id.insert(p.layer_id, kept);
                sparse_by_id.insert(
                    p.layer_id,
                    p.sparse_index().is_some_and(|i| i.below_dispatch_threshold()),
                );
            }
        });
        let mut cost = 0u64;
        let mut dense_macs = 0u64;
        for info in &model.info.prunables {
            let total = info.weights() as u64;
            let kept = *kept_by_id.get(&info.layer_id).unwrap_or(&total);
            let per_weight = (info.macs() / info.weights()) as u64;
            let alive_macs = kept * per_weight;
            cost += alive_macs;
            dense_macs += info.macs() as u64;
            rows.push(PlanRow {
                layer_id: info.layer_id,
                name: info.name.clone(),
                kind: if info.is_conv() { "conv" } else { "fc" },
                m: info.weights() / info.k_len(),
                k: info.k_len(),
                spatial: per_weight as usize,
                kept,
                total,
                alive_macs,
                sparse: *sparse_by_id.get(&info.layer_id).unwrap_or(&false),
            });
        }
        rows.sort_by_key(|r| r.layer_id);
        Self { rows, cost, dense_macs }
    }

    /// How many layers dispatch through the sparse kernels.
    pub fn sparse_layers(&self) -> usize {
        self.rows.iter().filter(|r| r.sparse).count()
    }
}

/// A loaded, immutable variant: `Arc`-shared model (params + mask
/// `SparseIndex` strips), cached dispatch plan, and a lazily built Q15 twin.
pub struct LoadedVariant {
    /// The registry key this variant serves.
    pub key: VariantKey,
    /// The shared model; all requests execute against this one copy.
    pub model: Arc<Model>,
    /// Cached execution plan.
    pub plan: DispatchPlan,
    qmodel: OnceLock<QuantizedModel>,
}

/// Seed of the deterministic Q15 calibration subset.
const CALIB_SEED: u64 = 0xCA_11B;

impl LoadedVariant {
    /// The Q15-quantized twin (calibration tables + i16 weights) for
    /// device-numerics serving. The first call calibrates it from one
    /// clone of the shared model; f32 serving never builds it.
    pub fn qmodel(&self) -> &QuantizedModel {
        self.qmodel.get_or_init(|| {
            let calib = self.key.app.dataset(DEFAULT_CALIBRATION, CALIB_SEED);
            QuantizedModel::quantize(&mut Model::clone(&self.model), &calib, DEFAULT_CALIBRATION)
        })
    }
}

/// Registry configuration. It has no settings: Q15 twins are built on
/// first use.
#[derive(Debug, Clone, Default)]
pub struct RegistryConfig {}

/// Lazily-loading registry of pruned model variants.
///
/// Loads happen under the registry lock, so each variant is built exactly
/// once and every caller gets the same `Arc`. Builds are deterministic
/// (seeded initializers + magnitude masks), so two processes loading the
/// same key hold bitwise-identical weights.
pub struct ModelRegistry {
    slots: Mutex<Slots>,
}

#[derive(Default)]
struct Slots {
    variants: HashMap<VariantKey, Arc<LoadedVariant>>,
    loads: u64,
}

fn load_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("serve.registry.loads"))
}

fn hit_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| metrics::counter("serve.registry.hits"))
}

impl Default for ModelRegistry {
    fn default() -> Self {
        Self::new(RegistryConfig::default())
    }
}

impl ModelRegistry {
    /// Creates an empty registry.
    pub fn new(_cfg: RegistryConfig) -> Self {
        Self { slots: Mutex::default() }
    }

    /// Returns the variant for `key`, building it on first use.
    pub fn get_or_load(&self, key: VariantKey) -> Arc<LoadedVariant> {
        let mut slots = self.slots.lock().expect("registry lock");
        if let Some(v) = slots.variants.get(&key) {
            hit_counter().inc();
            return Arc::clone(v);
        }
        load_counter().inc();
        slots.loads += 1;
        let v = Arc::new(Self::build(key));
        slots.variants.insert(key, Arc::clone(&v));
        v
    }

    /// Variants this registry has built (each key at most once).
    pub fn loads(&self) -> u64 {
        self.slots.lock().expect("registry lock").loads
    }

    /// All loaded variants, sorted by key (deterministic report order).
    pub fn loaded(&self) -> Vec<Arc<LoadedVariant>> {
        let slots = self.slots.lock().expect("registry lock");
        let mut out: Vec<Arc<LoadedVariant>> = slots.variants.values().cloned().collect();
        out.sort_by_key(|v| v.key.sort_key());
        out
    }

    fn build(key: VariantKey) -> LoadedVariant {
        let mut model = key.app.build();
        let keep = key.keep_ppm();
        if keep < 1_000_000 {
            // block-granular masks so pruned variants actually dispatch
            // through the sparse GEMM kernels, not just skip multiplies
            let masks = model.block_magnitude_masks(keep);
            model.set_masks(&masks);
        }
        let plan = DispatchPlan::of(&model);
        LoadedVariant { key, model: Arc::new(model), plan, qmodel: OnceLock::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keep_ppm_orders_power_and_profile() {
        let k = |profile, power| VariantKey::new(App::Har, profile, power).keep_ppm();
        assert_eq!(k(DeviceProfile::Nominal, PowerStrength::Continuous), 1_000_000);
        assert!(
            k(DeviceProfile::Nominal, PowerStrength::Strong)
                > k(DeviceProfile::Nominal, PowerStrength::Weak)
        );
        assert!(
            k(DeviceProfile::BigCap, PowerStrength::Strong)
                > k(DeviceProfile::SmallCap, PowerStrength::Strong)
        );
        assert!(k(DeviceProfile::SmallCap, PowerStrength::Weak) >= 100_000);
    }

    #[test]
    fn degrade_ladder_descends_to_weak() {
        let key = VariantKey::new(App::Cks, DeviceProfile::Nominal, PowerStrength::Continuous);
        let s = key.degraded().unwrap();
        assert_eq!(s.power, PowerStrength::Strong);
        let w = s.degraded().unwrap();
        assert_eq!(w.power, PowerStrength::Weak);
        assert!(w.degraded().is_none());
        assert!(key.keep_ppm() > s.keep_ppm() && s.keep_ppm() > w.keep_ppm());
    }

    #[test]
    fn registry_loads_once_and_shares() {
        let reg = ModelRegistry::default();
        let key = VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Strong);
        let a = reg.get_or_load(key);
        let b = reg.get_or_load(key);
        assert!(Arc::ptr_eq(&a, &b), "same Arc for the same key");
        assert_eq!(reg.loads(), 1, "one load, then hits");
        assert!(a.plan.cost < a.plan.dense_macs, "pruned variant costs less than dense");
        assert!(a.qmodel.get().is_none(), "no Q15 twin before the first Q15 use");
        assert!(std::ptr::eq(a.qmodel(), b.qmodel()), "one Q15 twin per variant");
    }

    /// The lazily built twin is the quantizer's output on the registry's
    /// calibration set, bit for bit.
    #[test]
    fn lazy_q15_twin_matches_direct_quantization() {
        let reg = ModelRegistry::default();
        let v =
            reg.get_or_load(VariantKey::new(App::Cks, DeviceProfile::Nominal, PowerStrength::Weak));
        let calib = App::Cks.dataset(DEFAULT_CALIBRATION, CALIB_SEED);
        let mut model = Model::clone(&v.model);
        let direct = QuantizedModel::quantize(&mut model, &calib, DEFAULT_CALIBRATION);
        let x = calib.sample(0);
        let bits = |l: Vec<f32>| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(v.qmodel().forward_q15(&x)), bits(direct.forward_q15(&x)));
    }

    #[test]
    fn plan_costs_follow_density() {
        let reg = ModelRegistry::default();
        let strong = reg.get_or_load(VariantKey::new(
            App::Har,
            DeviceProfile::Nominal,
            PowerStrength::Strong,
        ));
        let weak =
            reg.get_or_load(VariantKey::new(App::Har, DeviceProfile::Nominal, PowerStrength::Weak));
        assert!(weak.plan.cost < strong.plan.cost, "sparser variant is cheaper");
        assert_eq!(strong.plan.rows.len(), strong.model.info.prunables.len());
        for row in &strong.plan.rows {
            assert!(row.kept <= row.total);
            assert_eq!(row.alive_macs, row.kept * row.spatial as u64);
        }
    }
}
