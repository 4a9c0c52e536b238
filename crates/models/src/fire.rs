//! SqueezeNet-style fire module: squeeze 1×1 → (expand 1×1 ‖ expand 3×3),
//! channel-concatenated, each convolution followed by ReLU.

use iprune_tensor::exec::ExecCtx;
use iprune_tensor::layer::{Conv2d, Layer, Param, Relu};
use iprune_tensor::Tensor;

/// A fire module built from three prunable convolutions.
#[derive(Clone)]
pub struct Fire {
    squeeze: Conv2d,
    relu_s: Relu,
    expand1: Conv2d,
    relu_e1: Relu,
    expand3: Conv2d,
    relu_e3: Relu,
    e1_out: usize,
    e3_out: usize,
}

impl Fire {
    /// Creates a fire module. The three convolutions get consecutive
    /// prunable layer ids `sq_id`, `sq_id + 1`, `sq_id + 2`.
    pub fn new(sq_id: usize, cin: usize, squeeze: usize, e1: usize, e3: usize) -> Self {
        Self {
            squeeze: Conv2d::new(sq_id, cin, squeeze, 1, 1, 0),
            relu_s: Relu::new(),
            expand1: Conv2d::new(sq_id + 1, squeeze, e1, 1, 1, 0),
            relu_e1: Relu::new(),
            expand3: Conv2d::new(sq_id + 2, squeeze, e3, 3, 1, 1),
            relu_e3: Relu::new(),
            e1_out: e1,
            e3_out: e3,
        }
    }

    /// Total output channels (`e1 + e3`).
    pub fn out_channels(&self) -> usize {
        self.e1_out + self.e3_out
    }
}

/// Concatenates two NCHW tensors along the channel dimension.
fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, ca, h, w) = (a.dims()[0], a.dims()[1], a.dims()[2], a.dims()[3]);
    let cb = b.dims()[1];
    assert_eq!(&a.dims()[2..], &b.dims()[2..], "spatial dims must match");
    assert_eq!(a.dims()[0], b.dims()[0], "batch must match");
    let mut out = Tensor::zeros(&[n, ca + cb, h, w]);
    let plane = h * w;
    for s in 0..n {
        let dst = &mut out.data_mut()[s * (ca + cb) * plane..(s + 1) * (ca + cb) * plane];
        dst[..ca * plane].copy_from_slice(&a.data()[s * ca * plane..(s + 1) * ca * plane]);
        dst[ca * plane..].copy_from_slice(&b.data()[s * cb * plane..(s + 1) * cb * plane]);
    }
    out
}

/// Splits an NCHW tensor into `[.., 0..ca)` and `[.., ca..)` channel halves.
fn split_channels(g: &Tensor, ca: usize) -> (Tensor, Tensor) {
    let (n, c, h, w) = (g.dims()[0], g.dims()[1], g.dims()[2], g.dims()[3]);
    let cb = c - ca;
    let plane = h * w;
    let mut a = Tensor::zeros(&[n, ca, h, w]);
    let mut b = Tensor::zeros(&[n, cb, h, w]);
    for s in 0..n {
        let src = &g.data()[s * c * plane..(s + 1) * c * plane];
        a.data_mut()[s * ca * plane..(s + 1) * ca * plane].copy_from_slice(&src[..ca * plane]);
        b.data_mut()[s * cb * plane..(s + 1) * cb * plane].copy_from_slice(&src[ca * plane..]);
    }
    (a, b)
}

impl Layer for Fire {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let s = self.relu_s.forward(&self.squeeze.forward(x));
        let a = self.relu_e1.forward(&self.expand1.forward(&s));
        let b = self.relu_e3.forward(&self.expand3.forward(&s));
        concat_channels(&a, &b)
    }

    fn infer(&self, x: &Tensor, ctx: &mut ExecCtx) -> Tensor {
        let s = self.relu_s.infer(&self.squeeze.infer(x, ctx), ctx);
        let a = self.relu_e1.infer(&self.expand1.infer(&s, ctx), ctx);
        let b = self.relu_e3.infer(&self.expand3.infer(&s, ctx), ctx);
        concat_channels(&a, &b)
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (ga, gb) = split_channels(grad, self.e1_out);
        let gs1 = self.expand1.backward(&self.relu_e1.backward(&ga));
        let gs2 = self.expand3.backward(&self.relu_e3.backward(&gb));
        let mut gs = gs1;
        gs.add_assign(&gs2);
        self.squeeze.backward(&self.relu_s.backward(&gs))
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.squeeze.visit_params(f);
        self.expand1.visit_params(f);
        self.expand3.visit_params(f);
    }

    fn visit_params_ref(&self, f: &mut dyn FnMut(&Param)) {
        self.squeeze.visit_params_ref(f);
        self.expand1.visit_params_ref(f);
        self.expand3.visit_params_ref(f);
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_concats_expands() {
        let mut fire = Fire::new(0, 8, 4, 6, 10);
        let x = Tensor::zeros(&[2, 8, 5, 5]);
        let y = fire.forward(&x);
        assert_eq!(y.dims(), &[2, 16, 5, 5]);
        assert_eq!(fire.out_channels(), 16);
    }

    #[test]
    fn visits_six_params() {
        let mut fire = Fire::new(3, 8, 4, 6, 10);
        let mut ids = Vec::new();
        fire.visit_params(&mut |p| ids.push(p.layer_id));
        assert_eq!(ids, vec![3, 3, 4, 4, 5, 5]); // w+b per conv
    }

    #[test]
    fn concat_split_roundtrip() {
        let a = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[1, 1, 1, 2], vec![5.0, 6.0]);
        let c = concat_channels(&a, &b);
        assert_eq!(c.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let (a2, b2) = split_channels(&c, 2);
        assert_eq!(a2.data(), a.data());
        assert_eq!(b2.data(), b.data());
    }

    #[test]
    fn backward_gradient_matches_numeric() {
        let mut fire = Fire::new(0, 3, 2, 3, 3);
        // Push every pre-activation well above zero so the finite-difference
        // probe never crosses a ReLU kink; the test then tightly validates
        // the concat/split/sum plumbing of the composite backward.
        fire.visit_params(&mut |p| {
            if p.name.ends_with(".b") {
                p.value = Tensor::full(p.value.dims(), 5.0);
            }
        });
        let n: usize = 3 * 4 * 4;
        let x = Tensor::from_vec(
            &[1, 3, 4, 4],
            (0..n).map(|i| ((i * 5 % 11) as f32 - 5.0) / 5.0).collect(),
        );
        let out = fire.forward(&x);
        let gout = Tensor::full(out.dims(), 1.0);
        let gx = fire.backward(&gout);
        let eps = 1e-2f32;
        for i in (0..x.numel()).step_by(7) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let sp: f32 = fire.infer(&xp, &mut ExecCtx::new()).data().iter().sum();
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let sm: f32 = fire.infer(&xm, &mut ExecCtx::new()).data().iter().sum();
            let num = (sp - sm) / (2.0 * eps);
            assert!(
                (num - gx.data()[i]).abs() < 3e-2,
                "mismatch at {i}: {num} vs {}",
                gx.data()[i]
            );
        }
    }
}
