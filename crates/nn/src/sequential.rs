//! A sequential container of layers.

use crate::infer::{InferCtx, Shape};
use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// A stack of layers applied in order; itself a [`Layer`], so sequentials
/// compose (the two-branch extractor uses one sequential per branch plus a
/// sequential head).
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a sequential model from layers applied front to back.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Sequential { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the container holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let mut cur = input.clone();
        for layer in &mut self.layers {
            cur = layer.forward(&cur, train);
        }
        cur
    }

    fn infer_fast(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape) {
        let mut cur = (input, shape);
        for layer in &self.layers {
            let _span = mandipass_telemetry::span(layer.name());
            cur = layer.infer_fast(cur.0, cur.1, ctx);
        }
        cur
    }

    fn prepare_inference(&mut self) {
        for layer in &mut self.layers {
            layer.prepare_inference();
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let mut cur = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.backward(&cur);
        }
        cur
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for mut p in layer.params() {
                p.name = format!("{i}.{}", p.name);
                out.push(p);
            }
        }
        out
    }

    fn state_params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            for mut p in layer.state_params() {
                p.name = format!("{i}.{}", p.name);
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::ReLU;
    use crate::linear::Linear;
    use crate::loss::cross_entropy;
    use crate::optim::{Adam, Optimizer};

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(vec![4, 2], vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn params_are_uniquely_named() {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 4, 0)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(4, 2, 1)),
        ]);
        let names: Vec<String> = net.params().into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["0.weight", "0.bias", "2.weight", "2.bias"]);
    }

    #[test]
    fn learns_xor() {
        let mut net = Sequential::new(vec![
            Box::new(Linear::new(2, 16, 10)),
            Box::new(ReLU::new()),
            Box::new(Linear::new(16, 2, 11)),
        ]);
        let (x, labels) = xor_data();
        let mut adam = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..300 {
            net.zero_grad();
            let logits = net.forward(&x, true);
            let (loss, grad) = cross_entropy(&logits, &labels);
            final_loss = loss;
            net.backward(&grad);
            adam.step(&mut net.params());
        }
        assert!(final_loss < 0.05, "loss {final_loss}");
        let logits = net.forward(&x, false);
        assert!((crate::loss::accuracy(&logits, &labels) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sequential_is_identity() {
        let mut net = Sequential::new(vec![]);
        assert!(net.is_empty());
        let x = Tensor::from_vec(vec![1, 3], vec![1.0, 2.0, 3.0]).unwrap();
        let y = net.forward(&x, true);
        assert_eq!(x, y);
        let g = net.backward(&y);
        assert_eq!(g, x);
    }

    #[test]
    fn len_reports_layer_count() {
        let net = Sequential::new(vec![Box::new(ReLU::new()), Box::new(ReLU::new())]);
        assert_eq!(net.len(), 2);
    }

    /// One of every layer kind, in the extractor's order: two
    /// [Conv → BatchNorm → ReLU] blocks, then Flatten → Linear → Sigmoid.
    fn conv_bn_stack() -> (Sequential, Tensor) {
        use crate::activation::Sigmoid;
        use crate::batchnorm::BatchNorm2d;
        use crate::conv::Conv2d;
        use crate::flatten::Flatten;
        let mut net = Sequential::new(vec![
            Box::new(Conv2d::new(1, 3, (3, 3), (1, 2), (1, 1), 40)),
            Box::new(BatchNorm2d::new(3)),
            Box::new(ReLU::new()),
            Box::new(Conv2d::new(3, 2, (3, 3), (1, 1), (1, 1), 41)),
            Box::new(BatchNorm2d::new(2)),
            Box::new(ReLU::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(2 * 4 * 5, 6, 42)),
            Box::new(Sigmoid::new()),
        ]);
        let x = Tensor::from_vec(
            vec![2, 1, 4, 10],
            (0..80).map(|i| ((i as f32) * 0.43).sin()).collect(),
        )
        .unwrap();
        // A few training passes move the weights and running statistics
        // off their init values.
        for _ in 0..5 {
            let y = net.forward(&x, true);
            let g = Tensor::full(y.shape().to_vec(), 0.1);
            net.backward(&g);
        }
        (net, x)
    }

    /// `infer_fast` equals `forward(x, false)` bit for bit through every
    /// layer kind, with the Linear on its packed GEMM kernel (prepared)
    /// and on its scalar fallback (unprepared).
    #[test]
    fn fast_path_traverses_all_layers() {
        let (mut net, x) = conv_bn_stack();
        for prepared in [false, true] {
            if prepared {
                net.prepare_inference();
            }
            let reference = net.forward(&x, false);
            let mut ctx = crate::infer::InferCtx::new();
            let mut buf = ctx.acquire(x.len());
            buf.copy_from_slice(x.data());
            let (fast, shape) = net.infer_fast(buf, Shape::from_dims(x.shape()), &mut ctx);
            assert_eq!(shape.dims(), reference.shape(), "prepared: {prepared}");
            assert_eq!(&fast[..], reference.data(), "prepared: {prepared}");
        }
    }
}
