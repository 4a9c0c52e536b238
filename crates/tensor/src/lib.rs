//! Minimal trainable neural-network substrate for the iPrune reproduction.
//!
//! The iPrune paper performs its server-side work (training, sensitivity
//! analysis, fine-tuning) in an off-the-shelf deep-learning framework. This
//! crate is the from-scratch Rust equivalent: just enough of a tensor and
//! layer library to train the paper's three TinyML models, prune them, and
//! fine-tune them — plus the 16-bit fixed-point quantization used when a
//! model is deployed to the (simulated) MSP430 device.
//!
//! # Example
//!
//! ```
//! use iprune_tensor::{Tensor, layer::{Linear, Relu, Sequential, Layer}};
//! use iprune_tensor::optim::Sgd;
//! use iprune_tensor::loss::softmax_cross_entropy;
//!
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 8, 1)),
//!     Box::new(Relu::new()),
//!     Box::new(Linear::new(8, 3, 2)),
//! ]);
//! let x = Tensor::zeros(&[2, 4]);
//! let logits = net.forward(&x);
//! let (loss, grad) = softmax_cross_entropy(&logits, &[0, 2]);
//! net.backward(&grad);
//! let mut opt = Sgd::new(0.01, 0.9);
//! opt.step(&mut net);
//! assert!(loss > 0.0);
//! ```

pub mod exec;
pub mod init;
pub mod layer;
pub mod loss;
pub mod matmul;
pub mod metrics;
pub mod optim;
pub mod pack;
pub mod par;
pub mod pool;
pub mod qgemm;
pub mod quant;
pub mod simd;
pub mod sparse;
pub mod tensor;

pub use quant::{Q8Format, QFormat, QTensor};
pub use tensor::Tensor;
