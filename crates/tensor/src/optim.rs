//! Optimizers: SGD with momentum and Adam.
//!
//! Optimizers keep per-parameter state keyed by visit order, which is stable
//! for a fixed network structure. After every update the parameter's pruning
//! mask (if any) is re-applied so pruned weights stay at exactly zero.

use crate::layer::{Layer, Param};

/// Stochastic gradient descent with classical momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32) -> Self {
        Self { lr, momentum, velocity: Vec::new() }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f32 {
        self.lr
    }

    /// Replaces the learning rate (e.g. for decay schedules).
    pub fn set_lr(&mut self, lr: f32) {
        self.lr = lr;
    }

    /// Applies one update step to every parameter of `net` and zeroes the
    /// gradients.
    pub fn step(&mut self, net: &mut dyn Layer) {
        let mut idx = 0;
        let (lr, momentum) = (self.lr, self.momentum);
        let velocity = &mut self.velocity;
        net.visit_params(&mut |p: &mut Param| {
            if velocity.len() == idx {
                velocity.push(vec![0.0; p.value.numel()]);
            }
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.value.numel(), "parameter set changed between steps");
            p.apply_mask();
            for ((val, g), vel) in
                p.value.data_mut().iter_mut().zip(p.grad.data().iter()).zip(v.iter_mut())
            {
                *vel = momentum * *vel + g;
                *val -= lr * *vel;
            }
            p.apply_mask();
            p.zero_grad();
            idx += 1;
        });
    }
}

/// Adam optimizer.
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: i32,
    m: Vec<Vec<f32>>,
    v: Vec<Vec<f32>>,
}

impl Adam {
    /// Creates an Adam optimizer with the usual defaults for the betas.
    pub fn new(lr: f32) -> Self {
        Self { lr, beta1: 0.9, beta2: 0.999, eps: 1e-8, t: 0, m: Vec::new(), v: Vec::new() }
    }

    /// Applies one update step to every parameter of `net` and zeroes the
    /// gradients.
    pub fn step(&mut self, net: &mut dyn Layer) {
        self.t += 1;
        let (lr, b1, b2, eps, t) = (self.lr, self.beta1, self.beta2, self.eps, self.t);
        let bc1 = 1.0 - b1.powi(t);
        let bc2 = 1.0 - b2.powi(t);
        let mut idx = 0;
        let (ms, vs) = (&mut self.m, &mut self.v);
        net.visit_params(&mut |p: &mut Param| {
            if ms.len() == idx {
                ms.push(vec![0.0; p.value.numel()]);
                vs.push(vec![0.0; p.value.numel()]);
            }
            p.apply_mask();
            let (m, v) = (&mut ms[idx], &mut vs[idx]);
            for (((val, g), mi), vi) in p
                .value
                .data_mut()
                .iter_mut()
                .zip(p.grad.data().iter())
                .zip(m.iter_mut())
                .zip(v.iter_mut())
            {
                *mi = b1 * *mi + (1.0 - b1) * g;
                *vi = b2 * *vi + (1.0 - b2) * g * g;
                let mh = *mi / bc1;
                let vh = *vi / bc2;
                *val -= lr * mh / (vh.sqrt() + eps);
            }
            p.apply_mask();
            p.zero_grad();
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::{Linear, Sequential};
    use crate::loss::softmax_cross_entropy;
    use crate::Tensor;

    fn toy_net() -> Sequential {
        Sequential::new(vec![Box::new(Linear::new(2, 2, 0))])
    }

    fn toy_batch() -> (Tensor, Vec<usize>) {
        (Tensor::from_vec(&[4, 2], vec![1.0, 0.0, 0.9, 0.1, 0.0, 1.0, 0.1, 0.9]), vec![0, 0, 1, 1])
    }

    fn train_loss(opt_kind: &str) -> (f32, f32) {
        let mut net = toy_net();
        let (x, t) = toy_batch();
        let mut sgd = Sgd::new(0.5, 0.9);
        let mut adam = Adam::new(0.05);
        let (first, _) = {
            let y = net.forward(&x);
            softmax_cross_entropy(&y, &t)
        };
        let mut last = first;
        for _ in 0..50 {
            let y = net.forward(&x);
            let (loss, grad) = softmax_cross_entropy(&y, &t);
            net.backward(&grad);
            match opt_kind {
                "sgd" => sgd.step(&mut net),
                _ => adam.step(&mut net),
            }
            last = loss;
        }
        (first, last)
    }

    #[test]
    fn sgd_reduces_loss() {
        let (first, last) = train_loss("sgd");
        assert!(last < first * 0.5, "sgd failed to learn: {first} -> {last}");
    }

    #[test]
    fn adam_reduces_loss() {
        let (first, last) = train_loss("adam");
        assert!(last < first * 0.5, "adam failed to learn: {first} -> {last}");
    }

    #[test]
    fn masked_weights_stay_zero_through_training() {
        let mut net = toy_net();
        let mask = Tensor::from_vec(&[2, 2], vec![1.0, 0.0, 0.0, 1.0]);
        net.visit_params(&mut |p| {
            if p.name.ends_with(".w") {
                p.set_mask(mask.clone());
            }
        });
        let (x, t) = toy_batch();
        let mut opt = Sgd::new(0.5, 0.9);
        for _ in 0..20 {
            let y = net.forward(&x);
            let (_, grad) = softmax_cross_entropy(&y, &t);
            net.backward(&grad);
            opt.step(&mut net);
        }
        net.visit_params(&mut |p| {
            if p.name.ends_with(".w") {
                assert_eq!(p.value.data()[1], 0.0);
                assert_eq!(p.value.data()[2], 0.0);
                assert_ne!(p.value.data()[0], 0.0);
            }
        });
    }

    #[test]
    fn step_zeroes_gradients() {
        let mut net = toy_net();
        let (x, t) = toy_batch();
        let y = net.forward(&x);
        let (_, grad) = softmax_cross_entropy(&y, &t);
        net.backward(&grad);
        let mut opt = Sgd::new(0.1, 0.0);
        opt.step(&mut net);
        net.visit_params(&mut |p| {
            assert!(p.grad.data().iter().all(|&g| g == 0.0));
        });
    }
}
