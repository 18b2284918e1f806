//! The fine-grained (Eq. 1–2) and CPU-only (Eq. 3) power models.

use eadt_endsys::Utilization;
use serde::{Deserialize, Serialize};

/// Eq. 2: the per-utilization-point CPU power coefficient as a function of
/// the number of active cores:
///
/// ```text
/// C_cpu,n = 0.011·n² − 0.082·n + 0.344
/// ```
///
/// The parabola bottoms out near n ≈ 3.7, which is why four-core transfer
/// nodes are most energy-proportional with all four cores busy (the §3
/// observation that "energy consumption per core decreases as the number of
/// active cores increases" up to the core count).
///
/// ```
/// use eadt_power::cpu_coefficient;
/// assert!((cpu_coefficient(1) - 0.273).abs() < 1e-12);
/// assert!(cpu_coefficient(4) < cpu_coefficient(2)); // four cores run cheaper
/// assert!(cpu_coefficient(8) > cpu_coefficient(4)); // … until oversupply
/// ```
#[inline]
pub fn cpu_coefficient(active_cores: u32) -> f64 {
    let n = f64::from(active_cores.max(1));
    0.011 * n * n - 0.082 * n + 0.344
}

/// Per-component split of one power prediction, Watts. Produced by
/// [`PowerModel::power_components`] for the energy-attribution profiler;
/// the component view is approximate (it apportions by the model's own
/// utilization terms) while the phase ledger carries the exact total.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerBreakdown {
    /// CPU share, Watts.
    pub cpu_w: f64,
    /// NIC share, Watts.
    pub nic_w: f64,
    /// Disk share, Watts.
    pub disk_w: f64,
    /// Everything else the model tracks (memory, unmodeled).
    pub other_w: f64,
}

impl PowerBreakdown {
    /// Sum of the four components.
    pub fn total(&self) -> f64 {
        self.cpu_w + self.nic_w + self.disk_w + self.other_w
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &PowerBreakdown) {
        self.cpu_w += other.cpu_w;
        self.nic_w += other.nic_w;
        self.disk_w += other.disk_w;
        self.other_w += other.other_w;
    }
}

/// Anything that predicts instantaneous server power from utilization.
pub trait PowerModel {
    /// Predicted power draw in Watts for the given utilization snapshot.
    fn power_watts(&self, util: &Utilization) -> f64;

    /// The same prediction split by hardware component. The default
    /// books everything under `other_w`; models that know their terms
    /// override this.
    fn power_components(&self, util: &Utilization) -> PowerBreakdown {
        PowerBreakdown {
            other_w: self.power_watts(util),
            ..PowerBreakdown::default()
        }
    }

    /// Short label for reports.
    fn name(&self) -> &str;
}

/// The fine-grained model (Eq. 1):
///
/// ```text
/// P_t = C_cpu,n·u_cpu + C_mem·u_mem + C_disk·u_disk + C_nic·u_nic
/// ```
///
/// All coefficients are Watts per utilization percentage point. The CPU
/// coefficient is `cpu_scale × C_cpu(n)` so a calibration fit can stretch
/// the published curve to a concrete machine while keeping its shape.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FineGrainedModel {
    /// Multiplier on the Eq. 2 CPU curve (1.0 = the published curve).
    pub cpu_scale: f64,
    /// Memory coefficient (W per %).
    pub c_memory: f64,
    /// Disk coefficient (W per %).
    pub c_disk: f64,
    /// NIC coefficient (W per %).
    pub c_nic: f64,
}

impl FineGrainedModel {
    /// The coefficients used throughout the reproduction (calibrated so the
    /// three testbeds land in the paper's Joule range; see DESIGN.md).
    ///
    /// CPU carries most of the dynamic power — the regime in which the
    /// paper's CPU-only model can be accurate at all (its §2.2 correlation
    /// figure is 89.71%).
    pub fn paper_default() -> Self {
        FineGrainedModel {
            cpu_scale: 1.0,
            c_memory: 0.03,
            c_disk: 0.06,
            c_nic: 0.05,
        }
    }

    /// The effective CPU coefficient for `n` active cores.
    #[inline]
    pub(crate) fn c_cpu(&self, active_cores: u32) -> f64 {
        self.cpu_scale * cpu_coefficient(active_cores)
    }

    /// Eq. 1 evaluated once: its four products, summed in the equation's
    /// order (cpu, memory, disk, nic) into the Watts of
    /// [`PowerModel::power_watts`], and split by component as
    /// [`PowerModel::power_components`] (memory under `other_w`).
    #[inline]
    pub fn evaluate(&self, util: &Utilization) -> (f64, PowerBreakdown) {
        let cpu = self.c_cpu(util.active_cores) * util.cpu;
        let memory = self.c_memory * util.memory;
        let disk = self.c_disk * util.disk;
        let nic = self.c_nic * util.nic;
        let split = PowerBreakdown {
            cpu_w: cpu,
            nic_w: nic,
            disk_w: disk,
            other_w: memory,
        };
        (cpu + memory + disk + nic, split)
    }
}

impl PowerModel for FineGrainedModel {
    fn power_watts(&self, util: &Utilization) -> f64 {
        self.evaluate(util).0
    }

    fn power_components(&self, util: &Utilization) -> PowerBreakdown {
        self.evaluate(util).1
    }

    fn name(&self) -> &str {
        "fine-grained"
    }
}

/// The CPU-only model (Eq. 3):
///
/// ```text
/// P_t = (C_cpu,n · u_cpu) × TDP_SR / TDP_SL
/// ```
///
/// `effective_cpu_weight` absorbs the share of total power that tracks CPU
/// utilization on the *local* calibration machine (where the model is
/// built); the TDP ratio then extends it to a remote machine `SR`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuOnlyModel {
    /// Multiplier on the Eq. 2 curve fitted on the local machine. Because
    /// the CPU predictor must also absorb the disk/NIC power it cannot see,
    /// this is larger than the fine-grained `cpu_scale`.
    pub cpu_weight: f64,
    /// TDP of the local (calibration) server, Watts.
    pub local_tdp: f64,
    /// TDP of the server being predicted, Watts.
    pub remote_tdp: f64,
}

impl CpuOnlyModel {
    /// Model for the machine it was calibrated on (TDP ratio = 1).
    pub fn local(cpu_weight: f64, tdp: f64) -> Self {
        CpuOnlyModel {
            cpu_weight,
            local_tdp: tdp,
            remote_tdp: tdp,
        }
    }

    /// Extends this model to a remote server with a different TDP, the
    /// paper's "extendable power model".
    pub fn extend_to(&self, remote_tdp: f64) -> CpuOnlyModel {
        CpuOnlyModel {
            remote_tdp,
            ..*self
        }
    }

    /// The TDP scaling factor `TDP_SR / TDP_SL`.
    pub(crate) fn tdp_ratio(&self) -> f64 {
        if self.local_tdp <= 0.0 {
            1.0
        } else {
            self.remote_tdp / self.local_tdp
        }
    }
}

impl PowerModel for CpuOnlyModel {
    fn power_watts(&self, util: &Utilization) -> f64 {
        self.cpu_weight * cpu_coefficient(util.active_cores) * util.cpu * self.tdp_ratio()
    }

    fn power_components(&self, util: &Utilization) -> PowerBreakdown {
        // The CPU-only predictor sees nothing but CPU utilization.
        PowerBreakdown {
            cpu_w: self.power_watts(util),
            ..PowerBreakdown::default()
        }
    }

    fn name(&self) -> &str {
        "cpu-only"
    }
}

/// A serialisable choice of power model — what a monitoring agent would be
/// configured with. Fine-grained needs all four component counters;
/// CPU-only needs just CPU utilization (the restricted-access case Eq. 3
/// exists for).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerModelKind {
    /// The four-component model of Eq. 1.
    FineGrained(FineGrainedModel),
    /// The CPU-only model of Eq. 3 (with TDP extension).
    CpuOnly(CpuOnlyModel),
}

impl PowerModel for PowerModelKind {
    fn power_watts(&self, util: &Utilization) -> f64 {
        match self {
            PowerModelKind::FineGrained(m) => m.power_watts(util),
            PowerModelKind::CpuOnly(m) => m.power_watts(util),
        }
    }

    fn power_components(&self, util: &Utilization) -> PowerBreakdown {
        match self {
            PowerModelKind::FineGrained(m) => m.power_components(util),
            PowerModelKind::CpuOnly(m) => m.power_components(util),
        }
    }

    fn name(&self) -> &str {
        match self {
            PowerModelKind::FineGrained(m) => m.name(),
            PowerModelKind::CpuOnly(m) => m.name(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn util(cpu: f64, mem: f64, disk: f64, nic: f64, cores: u32) -> Utilization {
        Utilization {
            cpu,
            memory: mem,
            disk,
            nic,
            active_cores: cores,
        }
    }

    #[test]
    fn eq2_matches_published_values() {
        // Spot-check the published quadratic.
        assert!((cpu_coefficient(1) - 0.273).abs() < 1e-12);
        assert!((cpu_coefficient(2) - 0.224).abs() < 1e-12);
        assert!((cpu_coefficient(4) - 0.192).abs() < 1e-12);
        assert!((cpu_coefficient(8) - 0.392).abs() < 1e-12);
    }

    #[test]
    fn eq2_minimum_is_near_four_cores() {
        // d/dn = 0 at n = 0.082/0.022 ≈ 3.73.
        let c3 = cpu_coefficient(3);
        let c4 = cpu_coefficient(4);
        let c5 = cpu_coefficient(5);
        assert!(c4 < c3);
        assert!(c4 < c5);
    }

    #[test]
    fn zero_cores_is_guarded() {
        assert_eq!(cpu_coefficient(0), cpu_coefficient(1));
    }

    #[test]
    fn fine_grained_is_linear_in_each_component() {
        let m = FineGrainedModel::paper_default();
        let p0 = m.power_watts(&util(0.0, 0.0, 0.0, 0.0, 1));
        assert_eq!(p0, 0.0);
        let p = m.power_watts(&util(50.0, 40.0, 30.0, 20.0, 4));
        let expect = 0.192 * 50.0 + 0.03 * 40.0 + 0.06 * 30.0 + 0.05 * 20.0;
        assert!((p - expect).abs() < 1e-9);
    }

    #[test]
    fn fine_grained_full_tilt_is_realistic_server_power() {
        // A maxed-out 4-core transfer node should land in the tens of
        // Watts of *dynamic* power, not kW.
        let m = FineGrainedModel::paper_default();
        let p = m.power_watts(&util(100.0, 100.0, 100.0, 100.0, 4));
        assert!((20.0..80.0).contains(&p), "p={p}");
    }

    #[test]
    fn cpu_scale_stretches_curve() {
        let m = FineGrainedModel {
            cpu_scale: 2.0,
            ..FineGrainedModel::paper_default()
        };
        assert!((m.c_cpu(1) - 0.546).abs() < 1e-12);
    }

    #[test]
    fn cpu_only_ignores_other_components() {
        let m = CpuOnlyModel::local(1.5, 115.0);
        let a = m.power_watts(&util(60.0, 0.0, 0.0, 0.0, 4));
        let b = m.power_watts(&util(60.0, 90.0, 90.0, 90.0, 4));
        assert_eq!(a, b);
    }

    #[test]
    fn tdp_extension_scales_linearly() {
        // Intel 115 W → AMD 95 W: predictions shrink by the TDP ratio.
        let local = CpuOnlyModel::local(1.5, 115.0);
        let remote = local.extend_to(95.0);
        let u = util(70.0, 0.0, 0.0, 0.0, 4);
        let ratio = remote.power_watts(&u) / local.power_watts(&u);
        assert!((ratio - 95.0 / 115.0).abs() < 1e-12);
    }

    #[test]
    fn zero_local_tdp_does_not_blow_up() {
        let m = CpuOnlyModel {
            cpu_weight: 1.0,
            local_tdp: 0.0,
            remote_tdp: 95.0,
        };
        assert_eq!(m.tdp_ratio(), 1.0);
    }

    #[test]
    fn model_names() {
        assert_eq!(FineGrainedModel::paper_default().name(), "fine-grained");
        assert_eq!(CpuOnlyModel::local(1.0, 100.0).name(), "cpu-only");
    }

    #[test]
    fn component_split_sums_to_the_total_prediction() {
        let u = util(50.0, 40.0, 30.0, 20.0, 4);
        let fine = FineGrainedModel::paper_default();
        let parts = fine.power_components(&u);
        assert!((parts.total() - fine.power_watts(&u)).abs() < 1e-12);
        assert!((parts.cpu_w - 0.192 * 50.0).abs() < 1e-9);
        assert!((parts.nic_w - 0.05 * 20.0).abs() < 1e-12);
        assert!((parts.disk_w - 0.06 * 30.0).abs() < 1e-12);
        assert!((parts.other_w - 0.03 * 40.0).abs() < 1e-12);

        let cpu = CpuOnlyModel::local(1.4, 115.0);
        let parts = cpu.power_components(&u);
        assert_eq!(parts.cpu_w, cpu.power_watts(&u));
        assert_eq!(parts.nic_w + parts.disk_w + parts.other_w, 0.0);

        let kind = PowerModelKind::FineGrained(fine);
        assert_eq!(kind.power_components(&u), fine.power_components(&u));
    }

    #[test]
    fn kind_dispatches_to_inner_model() {
        let u = util(60.0, 40.0, 30.0, 20.0, 4);
        let fine = FineGrainedModel::paper_default();
        let kind = PowerModelKind::FineGrained(fine);
        assert_eq!(kind.power_watts(&u), fine.power_watts(&u));
        assert_eq!(kind.name(), "fine-grained");
        let cpu = CpuOnlyModel::local(1.4, 115.0);
        let kind = PowerModelKind::CpuOnly(cpu);
        assert_eq!(kind.power_watts(&u), cpu.power_watts(&u));
        assert_eq!(kind.name(), "cpu-only");
    }

    proptest::proptest! {
        /// `evaluate` computes Eq. 1's four products once; its total must
        /// be the one-expression sum `power_watts` used to compute, and
        /// its split the four products, bit for bit.
        #[test]
        fn one_evaluation_gives_both_views_bits(
            cpu in 0.0f64..100.0,
            mem in 0.0f64..100.0,
            disk in 0.0f64..100.0,
            nic in 0.0f64..100.0,
            cores in 0u32..64,
            scale in 0.1f64..3.0,
        ) {
            let m = FineGrainedModel {
                cpu_scale: scale,
                ..FineGrainedModel::paper_default()
            };
            let u = util(cpu, mem, disk, nic, cores);
            let one_expression = m.c_cpu(u.active_cores) * u.cpu
                + m.c_memory * u.memory
                + m.c_disk * u.disk
                + m.c_nic * u.nic;
            let (watts, split) = m.evaluate(&u);
            proptest::prop_assert_eq!(watts.to_bits(), one_expression.to_bits());
            proptest::prop_assert_eq!(m.power_watts(&u).to_bits(), watts.to_bits());
            proptest::prop_assert_eq!(m.power_components(&u), split);
            proptest::prop_assert_eq!(split.cpu_w.to_bits(), (m.c_cpu(cores) * cpu).to_bits());
            proptest::prop_assert_eq!(split.other_w.to_bits(), (m.c_memory * mem).to_bits());
            proptest::prop_assert_eq!(split.disk_w.to_bits(), (m.c_disk * disk).to_bits());
            proptest::prop_assert_eq!(split.nic_w.to_bits(), (m.c_nic * nic).to_bits());
        }
    }
}
