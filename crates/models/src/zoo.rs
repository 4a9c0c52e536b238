//! The three TinyML applications of the paper's Table II, each one
//! [`NetBuilder`] chain.
//!
//! Architectures are calibrated so that parameter counts (→ 16-bit model
//! size), MAC counts, and layer tallies land on the paper's numbers:
//!
//! | App | Paper layers        | Paper size | Paper MACs | Ours (dense)      |
//! |-----|---------------------|-----------|------------|--------------------|
//! | SQN | CONV×11, POOL×2     | 147 KB    | 4442 K     | ~146 KB, ~4605 K   |
//! | HAR | CONV×3, POOL×3, FC×1| 28 KB     | 321 K      | ~27.5 KB, ~319 K   |
//! | CKS | CONV×2, FC×3        | 131 KB    | 2811 K     | ~131 KB, ~2770 K   |

use crate::builder::NetBuilder;
use crate::model::Model;
use iprune_datasets::keywords::KeywordSpec;
use iprune_datasets::motion::MotionSpec;
use iprune_datasets::synth_image::SynthImageSpec;
use iprune_datasets::Dataset;

/// The three evaluated applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// SqueezeNet-style image recognition (CIFAR-10 stand-in).
    Sqn,
    /// Human-activity detection on tri-axial accelerometer windows.
    Har,
    /// Speech keyword spotting on MFCC-like spectrograms.
    Cks,
}

impl App {
    /// All apps in the paper's presentation order.
    pub fn all() -> [App; 3] {
        [App::Sqn, App::Har, App::Cks]
    }

    /// Short name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            App::Sqn => "SQN",
            App::Har => "HAR",
            App::Cks => "CKS",
        }
    }

    /// Builds the trainable model.
    pub fn build(&self) -> Model {
        match self {
            // 11 CONV, 2 POOL; 74 598 weights+biases ≈ 146 KB, ≈ 4605 K MACs
            App::Sqn => NetBuilder::new("SQN", [3, 32, 32], 10)
                .conv(24, 3, 2, true)
                .fire(20, 40, 40)
                .maxpool(2, 2)
                .fire(32, 72, 72)
                .maxpool(2, 2)
                .fire(40, 80, 80)
                .conv(10, 1, 1, false)
                .global_avg_pool()
                .build(),
            // 3 CONV, 3 POOL, 1 FC; 14 086 weights+biases ≈ 27.5 KB, ≈ 319 K MACs
            App::Har => NetBuilder::new("HAR", [3, 128, 1], 6)
                .conv_shaped(16, 3, 1, 1, 1, 0, true)
                .maxpool(2, 1)
                .conv_shaped(32, 3, 1, 1, 1, 0, true)
                .maxpool(2, 1)
                .conv_shaped(64, 3, 1, 1, 1, 0, true)
                .maxpool(2, 1)
                .flatten()
                .fc(6, false)
                .build(),
            // 2 CONV, 3 FC; 67 186 weights+biases ≈ 131 KB, ≈ 2770 K MACs
            App::Cks => NetBuilder::new("CKS", [1, 61, 13], 10)
                .conv(32, 3, 1, true)
                .maxpool(2, 2)
                .conv(48, 3, 1, true)
                .maxpool(2, 2)
                .flatten()
                .fc(24, true)
                .fc(32, true)
                .fc(10, false)
                .build(),
        }
    }

    /// The initial (server-side) training recipe for this app. SQN — the
    /// deepest network, trained without normalization layers — needs a
    /// gentler learning rate than the shallow HAR/CKS models.
    pub fn train_recipe(&self) -> crate::train::TrainConfig {
        use crate::train::TrainConfig;
        match self {
            App::Sqn => TrainConfig { epochs: 14, lr: 0.01, lr_decay: 0.9, ..Default::default() },
            App::Har => TrainConfig { epochs: 10, lr: 0.05, lr_decay: 0.8, ..Default::default() },
            App::Cks => TrainConfig { epochs: 12, lr: 0.05, lr_decay: 0.75, ..Default::default() },
        }
    }

    /// The fine-tuning recipe used between pruning iterations.
    pub fn finetune_recipe(&self) -> crate::train::TrainConfig {
        use crate::train::TrainConfig;
        match self {
            App::Sqn => TrainConfig { epochs: 4, lr: 0.005, lr_decay: 0.85, ..Default::default() },
            App::Har => TrainConfig { epochs: 6, lr: 0.04, lr_decay: 0.75, ..Default::default() },
            App::Cks => TrainConfig { epochs: 5, lr: 0.03, lr_decay: 0.8, ..Default::default() },
        }
    }

    /// Generates the synthetic dataset for this app (`n` samples).
    pub fn dataset(&self, n: usize, seed: u64) -> Dataset {
        match self {
            App::Sqn => SynthImageSpec::default().generate(n, seed),
            App::Har => MotionSpec::default().generate(n, seed),
            App::Cks => KeywordSpec::default().generate(n, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_tensor::exec::ExecCtx;
    use iprune_tensor::Tensor;

    #[test]
    fn sqn_matches_table2_budgets() {
        let m = App::Sqn.build();
        let (convs, pools, fcs) = m.info.layer_tally();
        assert_eq!((convs, pools, fcs), (11, 2, 0));
        let params = m.info.total_weights() + m.info.total_biases();
        assert_eq!(params, 74_598);
        // paper: 147 KB, 4442 K MACs
        let kb = m.info.dense_size_bytes() as f64 / 1024.0;
        assert!((kb - 145.7).abs() < 1.0, "size {kb} KB");
        let macs = m.info.total_macs();
        assert!((macs as f64 - 4_605_000.0).abs() < 50_000.0, "MACs {macs}");
    }

    #[test]
    fn har_matches_table2_budgets() {
        let m = App::Har.build();
        let (convs, pools, fcs) = m.info.layer_tally();
        assert_eq!((convs, pools, fcs), (3, 3, 1));
        let params = m.info.total_weights() + m.info.total_biases();
        assert_eq!(params, 14_086);
        let macs = m.info.total_macs();
        assert!((macs as f64 - 319_000.0).abs() < 10_000.0, "MACs {macs}");
    }

    #[test]
    fn cks_matches_table2_budgets() {
        let m = App::Cks.build();
        let (convs, pools, fcs) = m.info.layer_tally();
        assert_eq!((convs, pools, fcs), (2, 2, 3));
        let params = m.info.total_weights() + m.info.total_biases();
        assert_eq!(params, 67_186);
        let kb = m.info.dense_size_bytes() as f64 / 1024.0;
        assert!((kb - 131.2).abs() < 1.0, "size {kb} KB");
        let macs = m.info.total_macs();
        assert!((macs as f64 - 2_770_000.0).abs() < 50_000.0, "MACs {macs}");
    }

    #[test]
    fn forward_shapes_reach_logits() {
        for app in App::all() {
            let m = app.build();
            let [c, h, w] = m.info.input_dims;
            let x = Tensor::zeros(&[2, c, h, w]);
            let y = m.infer(&x, &mut ExecCtx::new());
            assert_eq!(y.dims(), &[2, m.info.classes], "{}", app.name());
        }
    }

    #[test]
    fn extract_weights_covers_all_layers() {
        for app in App::all() {
            let mut m = app.build();
            let ws = m.extract_weights();
            assert_eq!(ws.len(), m.info.prunables.len());
            for (i, lw) in ws.iter().enumerate() {
                assert_eq!(lw.layer_id, i);
                assert_eq!(lw.w.numel(), m.info.prunables[i].weights());
            }
        }
    }

    #[test]
    fn datasets_match_input_dims() {
        for app in App::all() {
            let m = app.build();
            let ds = app.dataset(4, 1);
            assert_eq!(ds.sample_dims(), &m.info.input_dims, "{}", app.name());
            assert_eq!(ds.classes(), m.info.classes);
        }
    }
}
