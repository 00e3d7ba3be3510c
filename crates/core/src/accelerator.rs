//! Accelerator-level area model (paper Table VI).
//!
//! The accelerator tiles: thermometer multiply-accumulate arrays for the
//! MSA and MLP linears (truth-table multipliers + BSN adder trees),
//! gate-assisted-SI GELU banks, re-scaling/normalization logic, the
//! residual-stream registers — plus `k` parallel iterative-softmax blocks
//! ("in an accelerator, there are k softmax blocks to ensure the fully
//! parallel", Table VI note). Everything is costed with the `sc-hw`
//! analytic model from the *actual* compiled blocks of a [`ScEngine`].

use ascend_vit::VitConfig;
use sc_hw::{blocks, CellKind, CellLibrary, HwCost};

use crate::engine::ScEngine;

/// The Table VI configuration quadruple plus the array geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceleratorConfig {
    /// Softmax state BSL (`By`).
    pub softmax_by: usize,
    /// `sum(z)` sub-sample rate (`s1`).
    pub softmax_s1: usize,
    /// `y·sum(z)` sub-sample rate (`s2`).
    pub softmax_s2: usize,
    /// Iterations = parallel softmax block count (`k`).
    pub softmax_k: usize,
    /// Rows of the MAC array processed in parallel (tokens per wave).
    pub array_rows: usize,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            softmax_by: 8,
            softmax_s1: 32,
            softmax_s2: 8,
            softmax_k: 3,
            array_rows: 8,
        }
    }
}

/// Area breakdown of one accelerator instance, µm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// Thermometer MAC arrays (MSA + MLP linears).
    pub mac_array: f64,
    /// BSN accumulation trees.
    pub accumulators: f64,
    /// Gate-assisted-SI GELU banks.
    pub gelu: f64,
    /// `k` parallel softmax blocks.
    pub softmax: f64,
    /// Residual registers + re-scaling taps.
    pub residual: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.mac_array + self.accumulators + self.gelu + self.softmax + self.residual
    }

    /// Softmax share of the total, in percent.
    pub fn softmax_share_pct(&self) -> f64 {
        100.0 * self.softmax / self.total()
    }
}

/// The accelerator model: costed from a compiled engine.
pub struct AcceleratorModel {
    breakdown: AreaBreakdown,
    softmax_unit: HwCost,
}

impl AcceleratorModel {
    /// Costs the accelerator hosting `engine`'s blocks for the given model
    /// geometry.
    pub fn cost(
        lib: &CellLibrary,
        engine: &ScEngine,
        vit: &VitConfig,
        acc: &AcceleratorConfig,
    ) -> Self {
        let d = vit.dim;
        let hidden = vit.dim * vit.mlp_ratio;
        let rows = acc.array_rows.max(1);

        // --- MAC arrays ---
        // One ternary (2b×2b) thermometer MAC = a small truth table; the
        // array processes `rows` tokens × `d` outputs in parallel, reused
        // across the four MSA projections and the two MLP linears.
        let mac_cost = 4.0 * lib.area(CellKind::And2) + 2.0 * lib.area(CellKind::Or2);
        let msa_macs = rows * d * 4; // q,k,v,proj lanes
        let mlp_macs = rows * hidden * 2; // fc1/fc2 lanes
        let mac_array = (msa_macs + mlp_macs) as f64 * mac_cost * lib.wire_factor();

        // --- Accumulators: one BSN per output lane over the d (or hidden)
        // partial products at 2-bit streams.
        let bsn_msa = blocks::bsn(lib, 2 * d).area_um2 * (rows * 4) as f64;
        let bsn_mlp = blocks::bsn(lib, 2 * hidden).area_um2 * (rows * 2) as f64;
        let accumulators = bsn_msa + bsn_mlp;

        // --- GELU banks: one gate-SI block per hidden lane.
        let gelu_unit = engine
            .gelu_blocks()
            .first()
            .map(|b| blocks::gate_si(lib, b))
            .unwrap_or_else(|| HwCost::combinational(0.0, 0.0));
        let gelu = gelu_unit.area_um2 * (rows * hidden) as f64 / 8.0; // banked 8:1

        // --- Softmax: k parallel blocks (Table VI note).
        let softmax_unit = blocks::iter_softmax(lib, engine.softmax_block());
        let softmax = softmax_unit.area_um2 * acc.softmax_k as f64;

        // --- Residual registers (R16 per lane) + rescale taps.
        let residual = (rows * d * 16) as f64 * lib.area(CellKind::Dff) * lib.wire_factor() / 4.0; // 4:1 time-multiplexed

        AcceleratorModel {
            breakdown: AreaBreakdown {
                mac_array,
                accumulators,
                gelu,
                softmax,
                residual,
            },
            softmax_unit,
        }
    }

    /// The area breakdown.
    pub fn breakdown(&self) -> &AreaBreakdown {
        &self.breakdown
    }

    /// Cost of a single softmax block (before ×k replication).
    pub fn softmax_unit(&self) -> &HwCost {
        &self.softmax_unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use ascend_vit::data::synth_cifar;
    use ascend_vit::train::{train_model, TrainConfig};
    use ascend_vit::{PrecisionPlan, VitModel};

    fn engine_for(by: usize, k: usize) -> (ScEngine, VitConfig) {
        let cfg = VitConfig {
            image: 8,
            patch: 4,
            dim: 16,
            layers: 2,
            heads: 2,
            classes: 4,
            ..Default::default()
        };
        let mut model = VitModel::new(cfg);
        let (train, test) = synth_cifar(4, 48, 24, 8, 5);
        let tc = TrainConfig {
            epochs: 1,
            batch: 16,
            lr: 2e-3,
            ..Default::default()
        };
        train_model(&mut model, None, &train, &test, &tc);
        model.set_plan(PrecisionPlan::w2_a2_r16());
        let calib = train.patches(&(0..8).collect::<Vec<_>>(), 4);
        model.calibrate_steps(&calib, 8);
        let engine =
            ScEngine::compile(&model, EngineConfig::from_quad(by, 8, 4, k), &calib, 8).unwrap();
        (engine, cfg)
    }

    #[test]
    fn softmax_share_is_small_for_small_configs_at_paper_scale() {
        // Use the paper-scale array geometry (the test engine's blocks are
        // small, but the arrays dominate at real ViT dimensions).
        let (engine, _) = engine_for(4, 2);
        let vit = VitConfig {
            dim: 256,
            mlp_ratio: 2,
            ..VitConfig::default()
        };
        let lib = CellLibrary::tsmc28_like();
        let acc = AcceleratorConfig {
            softmax_by: 4,
            softmax_k: 2,
            array_rows: 16,
            ..Default::default()
        };
        let model = AcceleratorModel::cost(&lib, &engine, &vit, &acc);
        let share = model.breakdown().softmax_share_pct();
        assert!(
            share < 15.0,
            "small softmax config should be a minor share, got {share}%"
        );
        assert!(model.breakdown().total() > 0.0);
        assert!(model.softmax_unit().area_um2 > 0.0);
    }

    #[test]
    fn softmax_area_grows_with_by_and_k() {
        let lib = CellLibrary::tsmc28_like();
        let (e_small, vit) = engine_for(4, 2);
        let acc_small = AcceleratorConfig {
            softmax_by: 4,
            softmax_k: 2,
            ..Default::default()
        };
        let small = AcceleratorModel::cost(&lib, &e_small, &vit, &acc_small);
        let (e_big, _) = engine_for(16, 4);
        let acc_big = AcceleratorConfig {
            softmax_by: 16,
            softmax_k: 4,
            ..Default::default()
        };
        let big = AcceleratorModel::cost(&lib, &e_big, &vit, &acc_big);
        assert!(
            big.breakdown().softmax > 4.0 * small.breakdown().softmax,
            "Table VI: softmax area grows drastically: {} vs {}",
            big.breakdown().softmax,
            small.breakdown().softmax
        );
        // Non-softmax area unchanged.
        let other_small = small.breakdown().total() - small.breakdown().softmax;
        let other_big = big.breakdown().total() - big.breakdown().softmax;
        assert!((other_small - other_big).abs() / other_small < 0.05);
    }
}
