//! Fully connected (dense) layer.

use mandipass_util::rand::rngs::StdRng;
use mandipass_util::rand::SeedableRng;

use crate::gemm::gemm_acc;
use crate::infer::{InferCtx, Shape};
use crate::init::kaiming_normal;
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A fully connected layer: `y = x · Wᵀ + b`.
///
/// Input shape `[N, in_features]`, output shape `[N, out_features]`.
#[derive(Debug, Clone)]
pub struct Linear {
    in_features: usize,
    out_features: usize,
    weight: Tensor, // [out, in]
    bias: Tensor,   // [out]
    grad_weight: Tensor,
    grad_bias: Tensor,
    cached_input: Option<Tensor>,
    // Deployment-only transposed weight copy `[in, out]` built by
    // `prepare_inference`, letting the fast path run as a k-outer GEMM
    // (contiguous, vectorized) instead of latency-bound scalar dot
    // products. Invalidated whenever the weights are exposed mutably.
    packed_t: Option<Vec<f32>>,
}

impl Linear {
    /// Creates a linear layer with Kaiming-normal weights and zero bias,
    /// deterministically initialised from `seed`.
    pub fn new(in_features: usize, out_features: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Tensor::from_vec(
            vec![out_features, in_features],
            kaiming_normal(&mut rng, in_features, in_features * out_features),
        )
        .expect("weight shape matches generated data");
        Linear {
            in_features,
            out_features,
            weight,
            bias: Tensor::zeros(vec![out_features]),
            grad_weight: Tensor::zeros(vec![out_features, in_features]),
            grad_bias: Tensor::zeros(vec![out_features]),
            cached_input: None,
            packed_t: None,
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Read access to the weight matrix `[out, in]`.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// The scalar reference loop: `y[i, o] = b[o] + Σ_k x[i, k]·W[o, k]`
    /// over `n` rows, bias first and `k` ascending — the accumulation
    /// order the packed GEMM reproduces bit for bit.
    fn scalar_dense(&self, n: usize, x: &[f32], y: &mut [f32]) {
        let (w, b) = (self.weight.data(), self.bias.data());
        for i in 0..n {
            let xi = &x[i * self.in_features..(i + 1) * self.in_features];
            let yi = &mut y[i * self.out_features..(i + 1) * self.out_features];
            for (o, yv) in yi.iter_mut().enumerate() {
                let wo = &w[o * self.in_features..(o + 1) * self.in_features];
                let mut acc = b[o];
                for (xv, wv) in xi.iter().zip(wo) {
                    acc += xv * wv;
                }
                *yv = acc;
            }
        }
    }
}

impl Layer for Linear {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "linear"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        assert_eq!(input.shape().len(), 2, "linear expects [N, in] input");
        assert_eq!(input.shape()[1], self.in_features, "input feature mismatch");
        let n = input.shape()[0];
        let mut out = Tensor::zeros(vec![n, self.out_features]);
        self.scalar_dense(n, input.data(), out.data_mut());
        if train {
            self.cached_input = Some(input.clone());
        }
        out
    }

    fn infer_fast(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape) {
        let dims = shape.dims();
        assert_eq!(dims.len(), 2, "linear expects [N, in] input");
        assert_eq!(dims[1], self.in_features, "input feature mismatch");
        let n = dims[0];
        let mut out = ctx.acquire(n * self.out_features);
        match &self.packed_t {
            Some(wt) => {
                {
                    let _span = mandipass_telemetry::span("bias_act");
                    for row in out.chunks_exact_mut(self.out_features) {
                        row.copy_from_slice(self.bias.data());
                    }
                }
                // Same per-output accumulation order as the scalar dot
                // (bias first, k ascending) — bit-exact against `forward`.
                let _span = mandipass_telemetry::span("gemm");
                gemm_acc(n, self.in_features, self.out_features, &input, wt, &mut out);
            }
            // No packed copy (training just touched the weights): run
            // the reference loop into the arena buffer.
            None => self.scalar_dense(n, &input, &mut out),
        }
        ctx.release(input);
        (out, Shape::d2(n, self.out_features))
    }

    fn prepare_inference(&mut self) {
        let w = self.weight.data();
        let mut packed = vec![0.0f32; w.len()];
        for o in 0..self.out_features {
            for k in 0..self.in_features {
                packed[k * self.out_features + o] = w[o * self.in_features + k];
            }
        }
        self.packed_t = Some(packed);
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .take()
            .expect("backward requires a preceding training-mode forward");
        let n = input.shape()[0];
        assert_eq!(grad_output.shape(), &[n, self.out_features]);
        let x = input.data();
        let go = grad_output.data();
        let w = self.weight.data();

        // Parameter gradients.
        {
            let gw = self.grad_weight.data_mut();
            let gb = self.grad_bias.data_mut();
            for i in 0..n {
                let xi = &x[i * self.in_features..(i + 1) * self.in_features];
                let gi = &go[i * self.out_features..(i + 1) * self.out_features];
                for o in 0..self.out_features {
                    let g = gi[o];
                    gb[o] += g;
                    let gwo = &mut gw[o * self.in_features..(o + 1) * self.in_features];
                    for (gw_v, x_v) in gwo.iter_mut().zip(xi) {
                        *gw_v += g * x_v;
                    }
                }
            }
        }

        // Input gradient: dL/dx = dL/dy · W.
        let mut grad_input = Tensor::zeros(vec![n, self.in_features]);
        let gx = grad_input.data_mut();
        for i in 0..n {
            let gi = &go[i * self.out_features..(i + 1) * self.out_features];
            let gxi = &mut gx[i * self.in_features..(i + 1) * self.in_features];
            for o in 0..self.out_features {
                let g = gi[o];
                let wo = &w[o * self.in_features..(o + 1) * self.in_features];
                for (gx_v, w_v) in gxi.iter_mut().zip(wo) {
                    *gx_v += g * w_v;
                }
            }
        }
        grad_input
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        // Mutable parameter access (optimiser step, parameter load)
        // invalidates the inference-only packed transpose; the fast
        // path falls back to the scalar kernel until the next
        // `prepare_inference`.
        self.packed_t = None;
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.grad_weight,
                name: "weight".into(),
            },
            Param {
                value: &mut self.bias,
                grad: &mut self.grad_bias,
                name: "bias".into(),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::cross_entropy;

    #[test]
    fn forward_matches_hand_computation() {
        let mut layer = Linear::new(2, 2, 0);
        layer.weight = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        layer.bias = Tensor::from_vec(vec![2], vec![0.5, -0.5]).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = layer.forward(&x, false);
        assert_eq!(y.data(), &[3.5, 6.5]);
    }

    #[test]
    fn param_count_is_correct() {
        let mut layer = Linear::new(10, 4, 0);
        assert_eq!(layer.param_count(), 44);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut layer = Linear::new(3, 2, 42);
        let x = Tensor::from_vec(vec![2, 3], vec![0.3, -0.1, 0.5, 0.7, 0.2, -0.4]).unwrap();
        let labels = [0usize, 1usize];

        // Analytic gradients.
        layer.zero_grad();
        let logits = layer.forward(&x, true);
        let (_, grad) = cross_entropy(&logits, &labels);
        let grad_input = layer.backward(&grad);

        let eps = 1e-3f32;
        // Check weight gradients via central differences.
        let analytic_gw = layer.grad_weight.clone();
        for idx in 0..6 {
            let orig = layer.weight.data()[idx];
            layer.weight.data_mut()[idx] = orig + eps;
            let (lp, _) = cross_entropy(&layer.forward(&x, false), &labels);
            layer.weight.data_mut()[idx] = orig - eps;
            let (lm, _) = cross_entropy(&layer.forward(&x, false), &labels);
            layer.weight.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic_gw.data()[idx]).abs() < 2e-3,
                "weight[{idx}]: fd {fd} vs analytic {}",
                analytic_gw.data()[idx]
            );
        }

        // Check input gradients the same way.
        let mut x_var = x.clone();
        for idx in 0..6 {
            let orig = x_var.data()[idx];
            x_var.data_mut()[idx] = orig + eps;
            let (lp, _) = cross_entropy(&layer.forward(&x_var, false), &labels);
            x_var.data_mut()[idx] = orig - eps;
            let (lm, _) = cross_entropy(&layer.forward(&x_var, false), &labels);
            x_var.data_mut()[idx] = orig;
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - grad_input.data()[idx]).abs() < 2e-3,
                "input[{idx}]: fd {fd} vs analytic {}",
                grad_input.data()[idx]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut layer = Linear::new(2, 2, 1);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 2.0]).unwrap();
        let g = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        layer.forward(&x, true);
        layer.backward(&g);
        let after_one = layer.grad_bias.clone();
        layer.forward(&x, true);
        layer.backward(&g);
        for (a, b) in layer.grad_bias.data().iter().zip(after_one.data()) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        layer.zero_grad();
        assert!(layer.grad_bias.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "backward requires a preceding training-mode forward")]
    fn backward_without_forward_panics() {
        let mut layer = Linear::new(2, 2, 0);
        let g = Tensor::zeros(vec![1, 2]);
        let _ = layer.backward(&g);
    }

    #[test]
    fn deterministic_initialisation() {
        let a = Linear::new(5, 3, 99);
        let b = Linear::new(5, 3, 99);
        assert_eq!(a.weight(), b.weight());
    }

    #[test]
    fn packed_fast_path_is_bit_exact() {
        let mut layer = Linear::new(48, 17, 5);
        layer.prepare_inference();
        let x = Tensor::from_vec(
            vec![3, 48],
            (0..3 * 48).map(|i| ((i as f32) * 0.17).cos()).collect(),
        )
        .unwrap();
        let reference = layer.forward(&x, false);
        let mut ctx = InferCtx::new();
        let mut buf = ctx.acquire(x.len());
        buf.copy_from_slice(x.data());
        let (fast, shape) = layer.infer_fast(buf, Shape::d2(3, 48), &mut ctx);
        assert_eq!(shape.dims(), reference.shape());
        assert_eq!(&fast[..], reference.data());
    }

    #[test]
    fn params_access_invalidates_packed_weights() {
        let mut layer = Linear::new(4, 2, 0);
        layer.prepare_inference();
        assert!(layer.packed_t.is_some());
        let _ = layer.params();
        assert!(
            layer.packed_t.is_none(),
            "stale packed weights would desync from trained weights"
        );
        // The unpacked fallback still matches the reference path.
        let x = Tensor::from_vec(vec![1, 4], vec![0.1, -0.2, 0.3, -0.4]).unwrap();
        let reference = layer.forward(&x, false);
        let mut ctx = InferCtx::new();
        let mut buf = ctx.acquire(4);
        buf.copy_from_slice(x.data());
        let (fast, _) = layer.infer_fast(buf, Shape::d2(1, 4), &mut ctx);
        assert_eq!(&fast[..], reference.data());
    }
}
