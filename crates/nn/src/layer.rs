//! The [`Layer`] trait and parameter access for optimisers.

use crate::infer::{InferCtx, Shape};
use crate::tensor::Tensor;

/// A mutable view of one learnable parameter tensor and its gradient
/// accumulator, handed to optimisers.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter values.
    pub value: &'a mut Tensor,
    /// The accumulated gradient of the loss with respect to `value`.
    pub grad: &'a mut Tensor,
    /// Stable name for serialisation, unique within a model
    /// (e.g. `"conv1.weight"`).
    pub name: String,
}

/// A differentiable network layer.
///
/// Layers cache whatever they need during [`Layer::forward`] and consume
/// that cache in [`Layer::backward`]. Gradients accumulate into the layer's
/// grad buffers; call [`Layer::zero_grad`] between optimiser steps.
///
/// `forward(x, false)` is the scalar reference for inference; the
/// deployed path, [`Layer::infer_fast`], must equal it bit for bit.
///
/// Layers are `Send + Sync`: [`Layer::infer_fast`] takes `&self` and a
/// trained model is shared read-only across verify-server worker
/// threads, so every layer must be plain data (no `Rc`/`RefCell`-style
/// interior mutability).
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// A short stable kind label (e.g. `"conv2d"`), used as the
    /// telemetry span name for per-layer inference timing.
    fn name(&self) -> &'static str {
        "layer"
    }

    /// Computes the layer output. `train` selects training behaviour
    /// (e.g. batch statistics in batch norm) and enables caching for the
    /// backward pass. With `train == false` it touches no state (no
    /// backward cache, no running-statistic updates) and is the scalar
    /// reference that [`Layer::infer_fast`] reproduces.
    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_output` (gradient of the loss with respect to
    /// this layer's output), accumulating parameter gradients and returning
    /// the gradient with respect to the layer input.
    ///
    /// # Panics
    ///
    /// Implementations may panic when called without a preceding
    /// training-mode `forward` (no cache).
    fn backward(&mut self, grad_output: &Tensor) -> Tensor;

    /// Mutable access to all learnable parameters, in a stable order.
    fn params(&mut self) -> Vec<Param<'_>>;

    /// Mutable access to everything that must persist across
    /// serialisation: the learnable parameters plus any non-learnable
    /// buffers (e.g. batch-norm running statistics). Optimisers use
    /// [`Layer::params`]; (de)serialisation uses this.
    fn state_params(&mut self) -> Vec<Param<'_>> {
        self.params()
    }

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grad.zero();
        }
    }

    /// Number of learnable scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Clones this layer into a fresh boxed trait object, duplicating
    /// parameters, buffers and caches. Makes `Box<dyn Layer>` (and thus
    /// whole models) cloneable, so one trained network can be handed to
    /// several consumers without retraining.
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Evaluation-mode forward on the scratch arena: consumes a
    /// ctx-owned input buffer and returns a ctx-owned output buffer
    /// (possibly the input itself, for in-place layers). Equals
    /// `forward(input, false)` bit for bit, with kernels that allocate
    /// nothing once `ctx` is warm.
    fn infer_fast(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape);

    /// One-time deployment hook: precomputes derived inference-only
    /// data (e.g. a transposed weight copy for the GEMM kernel). Safe to
    /// call repeatedly; layers invalidate the derived data whenever
    /// their parameters are exposed mutably ([`Layer::params`] /
    /// [`Layer::state_params`]), so call this again after any training
    /// step or parameter load.
    fn prepare_inference(&mut self) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
