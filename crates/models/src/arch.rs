//! Architecture metadata shared by training, deployment, and pruning.
//!
//! A [`ModelInfo`] is the single source of truth about a model's structure:
//! the list of prunable layers with their geometry (used by the pruning
//! criterion and strategy), and a flat execution graph over explicit buffers
//! (used by the HAWAII⁺ engine to build per-layer execution plans — fire
//! modules appear as three convolutions whose expand halves write disjoint
//! channel ranges of one output buffer).

use iprune_tensor::pack::ConvShape;

/// Geometry of a prunable (weight-bearing) layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrunableKind {
    /// 2-D convolution.
    Conv {
        /// Input channels.
        cin: usize,
        /// Output channels.
        cout: usize,
        /// Kernel height.
        kh: usize,
        /// Kernel width.
        kw: usize,
        /// Stride (same in both dimensions).
        stride: usize,
        /// Padding in height.
        pad_h: usize,
        /// Padding in width.
        pad_w: usize,
        /// Input spatial height.
        in_h: usize,
        /// Input spatial width.
        in_w: usize,
    },
    /// Fully-connected layer.
    Fc {
        /// Input features.
        din: usize,
        /// Output features.
        dout: usize,
    },
}

/// One prunable layer: identity plus geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunableInfo {
    /// Stable layer id; matches `Param::layer_id` in the trainable network.
    pub layer_id: usize,
    /// Human-readable name (e.g. `"fire2.expand3x3"`).
    pub name: String,
    /// Layer geometry.
    pub kind: PrunableKind,
}

impl PrunableInfo {
    /// Output spatial size (1×1 for FC layers).
    pub fn out_hw(&self) -> (usize, usize) {
        match &self.kind {
            PrunableKind::Conv { kh, kw, stride, pad_h, pad_w, in_h, in_w, .. } => {
                ((in_h + 2 * pad_h - kh) / stride + 1, (in_w + 2 * pad_w - kw) / stride + 1)
            }
            PrunableKind::Fc { .. } => (1, 1),
        }
    }

    /// The im2col geometry of a convolution for one sample; `None` for a
    /// fully-connected layer.
    pub fn conv_shape(&self) -> Option<ConvShape> {
        let PrunableKind::Conv { cin, kh, kw, stride, pad_h, pad_w, in_h, in_w, .. } = self.kind
        else {
            return None;
        };
        let (out_h, out_w) = self.out_hw();
        Some(ConvShape { cin, kh, kw, stride, pad_h, pad_w, in_h, in_w, out_h, out_w })
    }

    /// Number of weight parameters (biases excluded).
    pub fn weights(&self) -> usize {
        match &self.kind {
            PrunableKind::Conv { cin, cout, kh, kw, .. } => cout * cin * kh * kw,
            PrunableKind::Fc { din, dout } => din * dout,
        }
    }

    /// Number of output elements produced per inference.
    pub fn out_elems(&self) -> usize {
        match &self.kind {
            PrunableKind::Conv { cout, .. } => {
                let (oh, ow) = self.out_hw();
                cout * oh * ow
            }
            PrunableKind::Fc { dout, .. } => *dout,
        }
    }

    /// Dense reduction length per output element (`cin·kh·kw` or `din`).
    pub fn k_len(&self) -> usize {
        match &self.kind {
            PrunableKind::Conv { cin, kh, kw, .. } => cin * kh * kw,
            PrunableKind::Fc { din, .. } => *din,
        }
    }

    /// Dense MAC count per inference.
    pub fn macs(&self) -> usize {
        self.out_elems() * self.k_len()
    }

    /// True for convolutions.
    pub fn is_conv(&self) -> bool {
        matches!(self.kind, PrunableKind::Conv { .. })
    }
}

/// Index of an activation buffer in [`ModelInfo::buffers`].
pub type BufId = usize;

/// Shape of an activation buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufDesc {
    /// Dimensions: `[c, h, w]` for feature maps, `[d]` for vectors.
    pub dims: Vec<usize>,
}

impl BufDesc {
    /// Total element count.
    pub fn numel(&self) -> usize {
        self.dims.iter().product()
    }
}

/// One operation of the flat execution graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphOp {
    /// Convolution `layer_id` from `src` into channels
    /// `[dst_c_off, dst_c_off + cout)` of `dst`, optionally fused with ReLU.
    Conv {
        /// Prunable layer id.
        layer_id: usize,
        /// Input buffer.
        src: BufId,
        /// Output buffer.
        dst: BufId,
        /// First output channel written in `dst` (for fire-module concat).
        dst_c_off: usize,
        /// Fused ReLU on the outputs.
        relu: bool,
    },
    /// Fully-connected `layer_id` from `src` into `dst`, optionally with
    /// fused ReLU.
    Fc {
        /// Prunable layer id.
        layer_id: usize,
        /// Input buffer.
        src: BufId,
        /// Output buffer.
        dst: BufId,
        /// Fused ReLU on the outputs.
        relu: bool,
    },
    /// Non-overlapping max pooling.
    MaxPool {
        /// Input buffer.
        src: BufId,
        /// Output buffer.
        dst: BufId,
        /// Pool height.
        kh: usize,
        /// Pool width.
        kw: usize,
    },
    /// Global average pooling `[c,h,w] → [c]`.
    GlobalAvgPool {
        /// Input buffer.
        src: BufId,
        /// Output buffer.
        dst: BufId,
    },
    /// Reinterpret `[c,h,w]` as `[c·h·w]` (no data movement).
    Flatten {
        /// Input buffer.
        src: BufId,
        /// Output buffer.
        dst: BufId,
    },
}

/// Complete structural description of a model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelInfo {
    /// Application name as used in the paper (SQN / HAR / CKS).
    pub name: String,
    /// Number of output classes.
    pub classes: usize,
    /// Input dims `[c, h, w]`.
    pub input_dims: [usize; 3],
    /// Prunable layers, indexed by `layer_id`.
    pub prunables: Vec<PrunableInfo>,
    /// Flat execution graph.
    pub graph: Vec<GraphOp>,
    /// Activation buffers referenced by the graph. Buffer 0 is the input;
    /// the last buffer is the logits.
    pub buffers: Vec<BufDesc>,
}

impl ModelInfo {
    /// Total weight parameters across prunable layers (biases excluded).
    pub fn total_weights(&self) -> usize {
        self.prunables.iter().map(|p| p.weights()).sum()
    }

    /// Total dense MACs per inference.
    pub fn total_macs(&self) -> usize {
        self.prunables.iter().map(|p| p.macs()).sum()
    }

    /// Total bias parameters (one per output channel/feature).
    pub fn total_biases(&self) -> usize {
        self.prunables
            .iter()
            .map(|p| match &p.kind {
                PrunableKind::Conv { cout, .. } => *cout,
                PrunableKind::Fc { dout, .. } => *dout,
            })
            .sum()
    }

    /// Dense deployed model size in bytes (16-bit weights and biases).
    pub fn dense_size_bytes(&self) -> usize {
        2 * (self.total_weights() + self.total_biases())
    }

    /// `(convs, pools, fcs)` — the layer tally reported in Table II.
    pub fn layer_tally(&self) -> (usize, usize, usize) {
        let mut convs = 0;
        let mut pools = 0;
        let mut fcs = 0;
        for op in &self.graph {
            match op {
                GraphOp::Conv { .. } => convs += 1,
                GraphOp::MaxPool { .. } => pools += 1,
                GraphOp::Fc { .. } => fcs += 1,
                _ => {}
            }
        }
        (convs, pools, fcs)
    }

    /// Validates internal consistency: contiguous layer ids, buffer
    /// references in range, conv/fc geometry matching buffer shapes.
    ///
    /// # Panics
    ///
    /// Panics with a description of the first inconsistency. Intended for
    /// tests and debug assertions on hand-built graphs.
    pub fn validate(&self) {
        for (i, p) in self.prunables.iter().enumerate() {
            assert_eq!(p.layer_id, i, "layer ids must be contiguous");
        }
        for op in &self.graph {
            match op {
                GraphOp::Conv { layer_id, src, dst, dst_c_off, .. } => {
                    let p = &self.prunables[*layer_id];
                    let (oh, ow) = p.out_hw();
                    let (cin, cout) = match &p.kind {
                        PrunableKind::Conv { cin, cout, .. } => (*cin, *cout),
                        _ => panic!("layer {layer_id} is not a conv"),
                    };
                    let sdims = &self.buffers[*src].dims;
                    let ddims = &self.buffers[*dst].dims;
                    assert_eq!(sdims[0], cin, "conv {layer_id} cin vs src buffer");
                    assert!(dst_c_off + cout <= ddims[0], "conv {layer_id} channel range");
                    assert_eq!((ddims[1], ddims[2]), (oh, ow), "conv {layer_id} spatial dims");
                }
                GraphOp::Fc { layer_id, src, dst, .. } => {
                    let p = &self.prunables[*layer_id];
                    let (din, dout) = match &p.kind {
                        PrunableKind::Fc { din, dout } => (*din, *dout),
                        _ => panic!("layer {layer_id} is not fc"),
                    };
                    assert_eq!(self.buffers[*src].numel(), din, "fc {layer_id} din");
                    assert_eq!(self.buffers[*dst].numel(), dout, "fc {layer_id} dout");
                }
                GraphOp::MaxPool { src, dst, kh, kw } => {
                    let s = &self.buffers[*src].dims;
                    let d = &self.buffers[*dst].dims;
                    assert_eq!(s[0], d[0], "pool channels");
                    assert_eq!(s[1] / kh, d[1], "pool height");
                    assert_eq!(s[2] / kw, d[2], "pool width");
                }
                GraphOp::GlobalAvgPool { src, dst } => {
                    assert_eq!(self.buffers[*src].dims[0], self.buffers[*dst].numel());
                }
                GraphOp::Flatten { src, dst } => {
                    assert_eq!(self.buffers[*src].numel(), self.buffers[*dst].numel());
                }
            }
        }
        let last = self.buffers.last().expect("at least one buffer");
        assert_eq!(last.numel(), self.classes, "final buffer must hold the logits");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv_info() -> PrunableInfo {
        PrunableInfo {
            layer_id: 0,
            name: "c".into(),
            kind: PrunableKind::Conv {
                cin: 3,
                cout: 8,
                kh: 3,
                kw: 3,
                stride: 2,
                pad_h: 1,
                pad_w: 1,
                in_h: 32,
                in_w: 32,
            },
        }
    }

    #[test]
    fn conv_geometry() {
        let p = conv_info();
        assert_eq!(p.out_hw(), (16, 16));
        assert_eq!(p.weights(), 8 * 3 * 9);
        assert_eq!(p.k_len(), 27);
        assert_eq!(p.out_elems(), 8 * 256);
        assert_eq!(p.macs(), 8 * 256 * 27);
    }

    #[test]
    fn fc_geometry() {
        let p = PrunableInfo {
            layer_id: 0,
            name: "f".into(),
            kind: PrunableKind::Fc { din: 100, dout: 10 },
        };
        assert_eq!(p.out_hw(), (1, 1));
        assert_eq!(p.weights(), 1000);
        assert_eq!(p.macs(), 1000);
        assert!(!p.is_conv());
    }
}
