//! From-scratch neural-network substrate for the MandiPass reproduction.
//!
//! The paper builds its biometric extractor in PyTorch; no comparable Rust
//! framework fits this reproduction's constraints, so this crate implements
//! exactly the pieces the extractor needs, with full backpropagation:
//!
//! * a dense row-major [`Tensor`](tensor::Tensor),
//! * [`Conv2d`](conv::Conv2d) with padding and rectangular stride (the
//!   paper uses 3×3 kernels with stride 1×2),
//! * [`BatchNorm2d`](batchnorm::BatchNorm2d) with running statistics,
//! * [`ReLU`](activation::ReLU) and [`Sigmoid`](activation::Sigmoid),
//! * [`Linear`](linear::Linear) and [`Flatten`](flatten::Flatten),
//! * softmax [`cross_entropy`](loss::cross_entropy) loss,
//! * [`Adam`](optim::Adam) and [`Sgd`](optim::Sgd) optimisers,
//! * binary parameter (de)serialisation ([`serialize`]),
//! * mini-batch helpers ([`data`]),
//! * a zero-allocation inference fast path: scratch arenas ([`infer`])
//!   and one row-blocked, AVX2-dispatched GEMM ([`gemm`]) behind the
//!   im2col convolution and the linear head, equal bit for bit to each
//!   layer's evaluation-mode `forward`.
//!
//! # Example
//!
//! ```
//! use mandipass_nn::prelude::*;
//!
//! // A small MLP on 4-dimensional inputs, 3 classes.
//! let mut net = Sequential::new(vec![
//!     Box::new(Linear::new(4, 16, 1)),
//!     Box::new(ReLU::new()),
//!     Box::new(Linear::new(16, 3, 2)),
//! ]);
//! let x = Tensor::from_vec(vec![2, 4], vec![0.1; 8]).unwrap();
//! let logits = net.forward(&x, true);
//! assert_eq!(logits.shape(), &[2, 3]);
//! ```

// The GEMM's AVX2 dispatch is the crate's one `unsafe` call; every
// unsafe operation must sit in its own block with a `// SAFETY:` note.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod activation;
pub mod batchnorm;
pub mod conv;
pub mod data;
pub mod error;
pub mod flatten;
pub mod gemm;
pub mod infer;
pub mod init;
pub mod layer;
pub mod linear;
pub mod loss;
pub mod optim;
pub mod sequential;
pub mod serialize;
pub mod tensor;

pub use error::NnError;

/// Convenient glob import of the common types.
pub mod prelude {
    pub use crate::activation::{ReLU, Sigmoid};
    pub use crate::batchnorm::BatchNorm2d;
    pub use crate::conv::Conv2d;
    pub use crate::flatten::Flatten;
    pub use crate::infer::{ArenaStats, InferCtx, Shape};
    pub use crate::layer::Layer;
    pub use crate::linear::Linear;
    pub use crate::loss::cross_entropy;
    pub use crate::optim::{Adam, Optimizer, Sgd};
    pub use crate::sequential::Sequential;
    pub use crate::tensor::Tensor;
}
