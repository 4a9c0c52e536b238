//! The one way to put a [`Model`] together.
//!
//! [`NetBuilder`] assembles the trainable network *and* the structural
//! [`ModelInfo`] the deployment/pruning stack consumes from one sequence of
//! layer specs, so the two representations agree by construction. The
//! paper's three applications ([`crate::zoo`]) are builder chains, and a
//! custom network is built the same way.
//!
//! ```
//! use iprune_models::builder::NetBuilder;
//!
//! let model = NetBuilder::new("tiny", [1, 8, 8], 4)
//!     .conv(6, 3, 1, true)
//!     .maxpool(2, 2)
//!     .fire(4, 6, 6)
//!     .flatten()
//!     .fc(4, false)
//!     .build();
//! assert_eq!(model.info.classes, 4);
//! ```

use crate::arch::{BufDesc, GraphOp, ModelInfo, PrunableInfo, PrunableKind};
use crate::fire::Fire;
use crate::model::Model;
use iprune_tensor::layer::{
    Conv2d, Flatten, GlobalAvgPool, Layer, Linear, MaxPool2d, Relu, Sequential,
};

/// Incrementally builds a sequential model plus its structural description.
pub struct NetBuilder {
    name: String,
    classes: usize,
    input_dims: [usize; 3],
    prunables: Vec<PrunableInfo>,
    graph: Vec<GraphOp>,
    buffers: Vec<BufDesc>,
    layers: Vec<Box<dyn Layer>>,
    /// Current shape: Some([c,h,w]) for feature maps, None after flatten
    /// (then `flat_dim` holds the vector length).
    cur_map: Option<[usize; 3]>,
    flat_dim: usize,
}

impl NetBuilder {
    /// Starts a model with the given input shape `[c, h, w]` and class
    /// count.
    pub fn new(name: impl Into<String>, input_dims: [usize; 3], classes: usize) -> Self {
        Self {
            name: name.into(),
            classes,
            input_dims,
            prunables: Vec::new(),
            graph: Vec::new(),
            buffers: vec![BufDesc { dims: input_dims.to_vec() }],
            layers: Vec::new(),
            cur_map: Some(input_dims),
            flat_dim: 0,
        }
    }

    fn cur_buf(&self) -> usize {
        self.buffers.len() - 1
    }

    fn map(&self) -> [usize; 3] {
        self.cur_map.expect("operation requires a feature map (did you flatten already?)")
    }

    /// Appends a square-kernel convolution (`cout` filters, `k`×`k`,
    /// stride `stride`, 'same'-style padding `k/2`), optionally fused with
    /// ReLU.
    pub fn conv(self, cout: usize, k: usize, stride: usize, relu: bool) -> Self {
        self.conv_shaped(cout, k, k, stride, k / 2, k / 2, relu)
    }

    /// Appends a rectangular-kernel convolution.
    #[allow(clippy::too_many_arguments)]
    pub fn conv_shaped(
        mut self,
        cout: usize,
        kh: usize,
        kw: usize,
        stride: usize,
        pad_h: usize,
        pad_w: usize,
        relu: bool,
    ) -> Self {
        let [cin, h, w] = self.map();
        let layer_id = self.prunables.len();
        let info = PrunableInfo {
            layer_id,
            name: format!("conv{layer_id}"),
            kind: PrunableKind::Conv { cin, cout, kh, kw, stride, pad_h, pad_w, in_h: h, in_w: w },
        };
        let (oh, ow) = info.out_hw();
        let src = self.cur_buf();
        self.prunables.push(info);
        self.buffers.push(BufDesc { dims: vec![cout, oh, ow] });
        self.graph.push(GraphOp::Conv { layer_id, src, dst: src + 1, dst_c_off: 0, relu });
        self.layers
            .push(Box::new(Conv2d::with_shape(layer_id, cin, cout, kh, kw, stride, pad_h, pad_w)));
        if relu {
            self.layers.push(Box::new(Relu::new()));
        }
        self.cur_map = Some([cout, oh, ow]);
        self
    }

    /// Appends a SqueezeNet-style fire module (squeeze 1×1 → expand 1×1 ‖
    /// expand 3×3, all ReLU). Its convolutions are prunable layers
    /// `fire{id}.squeeze`, `fire{id}.expand1x1` and `fire{id}.expand3x3`,
    /// with `id` the squeeze's layer id.
    pub fn fire(mut self, squeeze: usize, e1: usize, e3: usize) -> Self {
        let [cin, h, w] = self.map();
        let sq_id = self.prunables.len();
        let conv = |layer_id: usize, part: &str, cin: usize, cout: usize, k: usize| PrunableInfo {
            layer_id,
            name: format!("fire{sq_id}.{part}"),
            kind: PrunableKind::Conv {
                cin,
                cout,
                kh: k,
                kw: k,
                stride: 1,
                pad_h: k / 2,
                pad_w: k / 2,
                in_h: h,
                in_w: w,
            },
        };
        self.prunables.extend([
            conv(sq_id, "squeeze", cin, squeeze, 1),
            conv(sq_id + 1, "expand1x1", squeeze, e1, 1),
            conv(sq_id + 2, "expand3x3", squeeze, e3, 3),
        ]);
        // squeeze buffer, then concat buffer
        let src = self.cur_buf();
        let (sq_buf, cat_buf) = (src + 1, src + 2);
        self.buffers.push(BufDesc { dims: vec![squeeze, h, w] });
        self.buffers.push(BufDesc { dims: vec![e1 + e3, h, w] });
        let op = |layer_id, src, dst, dst_c_off| GraphOp::Conv {
            layer_id,
            src,
            dst,
            dst_c_off,
            relu: true,
        };
        self.graph.extend([
            op(sq_id, src, sq_buf, 0),
            op(sq_id + 1, sq_buf, cat_buf, 0),
            op(sq_id + 2, sq_buf, cat_buf, e1),
        ]);
        self.layers.push(Box::new(Fire::new(sq_id, cin, squeeze, e1, e3)));
        self.cur_map = Some([e1 + e3, h, w]);
        self
    }

    /// Appends non-overlapping max pooling with window `kh`×`kw`.
    pub fn maxpool(mut self, kh: usize, kw: usize) -> Self {
        let [c, h, w] = self.map();
        let src = self.cur_buf();
        let (oh, ow) = (h / kh, w / kw);
        assert!(oh > 0 && ow > 0, "pool window larger than the map");
        self.buffers.push(BufDesc { dims: vec![c, oh, ow] });
        self.graph.push(GraphOp::MaxPool { src, dst: src + 1, kh, kw });
        self.layers.push(Box::new(MaxPool2d::with_window(kh, kw)));
        self.cur_map = Some([c, oh, ow]);
        self
    }

    /// Appends global average pooling (`[c,h,w] → [c]`).
    pub fn global_avg_pool(mut self) -> Self {
        let [c, _, _] = self.map();
        let src = self.cur_buf();
        self.buffers.push(BufDesc { dims: vec![c] });
        self.graph.push(GraphOp::GlobalAvgPool { src, dst: src + 1 });
        self.layers.push(Box::new(GlobalAvgPool::new()));
        self.cur_map = None;
        self.flat_dim = c;
        self
    }

    /// Reinterprets the feature map as a flat vector.
    pub fn flatten(mut self) -> Self {
        let [c, h, w] = self.map();
        let src = self.cur_buf();
        self.buffers.push(BufDesc { dims: vec![c * h * w] });
        self.graph.push(GraphOp::Flatten { src, dst: src + 1 });
        self.layers.push(Box::new(Flatten::new()));
        self.cur_map = None;
        self.flat_dim = c * h * w;
        self
    }

    /// Appends a fully-connected layer, optionally fused with ReLU.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Self::flatten`] or
    /// [`Self::global_avg_pool`].
    pub fn fc(mut self, dout: usize, relu: bool) -> Self {
        assert!(self.cur_map.is_none(), "fc requires a flattened input");
        let din = self.flat_dim;
        let layer_id = self.prunables.len();
        let src = self.cur_buf();
        self.prunables.push(PrunableInfo {
            layer_id,
            name: format!("fc{layer_id}"),
            kind: PrunableKind::Fc { din, dout },
        });
        self.buffers.push(BufDesc { dims: vec![dout] });
        self.graph.push(GraphOp::Fc { layer_id, src, dst: src + 1, relu });
        self.layers.push(Box::new(Linear::new(din, dout, layer_id)));
        if relu {
            self.layers.push(Box::new(Relu::new()));
        }
        self.flat_dim = dout;
        self
    }

    /// Finalizes the model.
    ///
    /// # Panics
    ///
    /// Panics if the final buffer does not hold exactly `classes` values,
    /// or any internal inconsistency is detected.
    pub fn build(self) -> Model {
        let info = ModelInfo {
            name: self.name,
            classes: self.classes,
            input_dims: self.input_dims,
            prunables: self.prunables,
            graph: self.graph,
            buffers: self.buffers,
        };
        Model::new(info, Sequential::new(self.layers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iprune_tensor::exec::ExecCtx;
    use iprune_tensor::Tensor;

    #[test]
    fn builder_fire_and_gap() {
        let m = NetBuilder::new("mini-squeeze", [3, 16, 16], 5)
            .conv(8, 3, 2, true)
            .fire(4, 8, 8)
            .maxpool(2, 2)
            .conv(5, 1, 1, false)
            .global_avg_pool()
            .build();
        let y = m.infer(&Tensor::zeros(&[2, 3, 16, 16]), &mut ExecCtx::new());
        assert_eq!(y.dims(), &[2, 5]);
    }

    #[test]
    #[should_panic(expected = "fc requires a flattened input")]
    fn fc_before_flatten_panics() {
        let _ = NetBuilder::new("bad", [1, 4, 4], 2).conv(2, 3, 1, true).fc(2, false);
    }

    #[test]
    #[should_panic(expected = "final buffer must hold the logits")]
    fn wrong_class_count_panics() {
        let _ = NetBuilder::new("bad", [1, 4, 4], 3).flatten().fc(2, false).build();
    }
}
