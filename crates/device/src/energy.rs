//! Power-draw and per-operation energy model.
//!
//! The paper profiles its device's energy model with micro-benchmarks
//! (footnote 1, citing the intermittent-aware NAS work \[13\]); here the model
//! is a small table of activity power draws from which per-operation
//! energies are derived. The same table feeds two consumers:
//!
//! 1. the capacitor integration inside [`crate::sim::DeviceSim`], which
//!    decides *when power fails*, and
//! 2. the ePrune baseline's energy criterion, which estimates *per-layer
//!    energy* exactly the way an energy-aware pruning framework would.

use crate::timing::TimingModel;

/// Activity power draws in watts.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyModel {
    /// Baseline MCU active draw (clock tree, SRAM, regulator).
    pub p_base_w: f64,
    /// Additional draw while the LEA crunches.
    pub p_lea_w: f64,
    /// Additional draw during NVM reads (SPI + FRAM read current).
    pub p_nvm_read_w: f64,
    /// Additional draw during NVM writes (SPI + FRAM write current).
    pub p_nvm_write_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            p_base_w: 3.0e-3,      // ~0.9 mA @ 3.3 V MCU active
            p_lea_w: 4.0e-3,       // LEA + SRAM banks busy
            p_nvm_read_w: 3.5e-3,  // SPI master + FRAM read
            p_nvm_write_w: 6.0e-3, // SPI master + FRAM write current
        }
    }
}

impl EnergyModel {
    /// Energy of one MAC on the LEA.
    pub fn e_mac_j(&self, t: &TimingModel) -> f64 {
        (self.p_base_w + self.p_lea_w) * t.lea_mac_s
    }

    /// Energy of reading one byte from NVM (marginal, overheads excluded).
    pub fn e_nvm_read_byte_j(&self, t: &TimingModel) -> f64 {
        (self.p_base_w + self.p_nvm_read_w) * t.nvm_read_byte_s
    }

    /// Energy of writing one byte to NVM (marginal, overheads excluded).
    pub fn e_nvm_write_byte_j(&self, t: &TimingModel) -> f64 {
        (self.p_base_w + self.p_nvm_write_w) * t.nvm_write_byte_s
    }

    /// Energy of an accelerator job: `macs` MACs plus `write_bytes` of
    /// progress preservation plus `read_bytes` of input fetch.
    pub fn e_activity_j(
        &self,
        t: &TimingModel,
        macs: usize,
        read_bytes: usize,
        write_bytes: usize,
    ) -> f64 {
        let t_lea = t.lea_s(macs);
        let t_rd = t.nvm_read_s(read_bytes);
        let t_wr = t.nvm_write_s(write_bytes);
        (self.p_base_w + self.p_lea_w) * t_lea
            + (self.p_base_w + self.p_nvm_read_w) * t_rd
            + (self.p_base_w + self.p_nvm_write_w) * t_wr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_cost_more_than_reads_per_byte() {
        let e = EnergyModel::default();
        let t = TimingModel::default();
        assert!(e.e_nvm_write_byte_j(&t) > e.e_nvm_read_byte_j(&t));
    }

    #[test]
    fn write_energy_dominates_mac_energy() {
        // The motivating observation: preserving one 2-byte accelerator
        // output costs far more energy than computing it.
        let e = EnergyModel::default();
        let t = TimingModel::default();
        let preserve_two_bytes = 2.0 * e.e_nvm_write_byte_j(&t);
        let three_macs = 3.0 * e.e_mac_j(&t);
        assert!(preserve_two_bytes > 5.0 * three_macs);
    }

    #[test]
    fn activity_energy_is_additive() {
        let e = EnergyModel::default();
        let t = TimingModel::default();
        let a = e.e_activity_j(&t, 100, 0, 0);
        let b = e.e_activity_j(&t, 0, 64, 0);
        let c = e.e_activity_j(&t, 0, 0, 32);
        let all = e.e_activity_j(&t, 100, 64, 32);
        assert!((all - (a + b + c)).abs() < 1e-15);
    }
}
