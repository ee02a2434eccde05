//! The §V.B biometric extractor: a two-branch CNN.
//!
//! Each direction plane of the gradient array feeds its own branch of
//! three [Conv 3×3, stride 1×2 → BatchNorm → ReLU] blocks; the branch
//! outputs are flattened, concatenated, passed through a fully connected
//! layer and a Sigmoid to yield the *MandiblePrint* vector (paper default
//! 512-d). During training a further fully connected layer projects the
//! biometric onto person-id classes for cross-entropy learning; at
//! deployment the classifier head is ignored and the sigmoid output is
//! the biometric.

use std::cell::{Cell, RefCell};

use mandipass_nn::activation::{ReLU, Sigmoid};
use mandipass_nn::batchnorm::BatchNorm2d;
use mandipass_nn::conv::Conv2d;
use mandipass_nn::flatten::Flatten;
use mandipass_nn::infer::{ArenaStats, InferCtx, Shape};
use mandipass_nn::layer::{Layer, Param};
use mandipass_nn::linear::Linear;
use mandipass_nn::loss::{accuracy, cross_entropy};
use mandipass_nn::sequential::Sequential;
use mandipass_nn::tensor::Tensor;

use crate::error::MandiPassError;
use crate::gradient_array::GradientArray;
use crate::template::MandiblePrint;

thread_local! {
    /// Per-worker scratch arena for the inference fast path. Thread-local
    /// so concurrent verifications never contend on buffers, and the
    /// steady-state zero-allocation property holds per worker.
    static INFER_CTX: RefCell<InferCtx> = RefCell::new(InferCtx::new());
    /// Growth events already published to the telemetry counter, so each
    /// publish adds only the delta.
    static PUBLISHED_GROWTH: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's inference arena (for benchmarks and
/// steady-state assertions; serve workers export the same numbers through
/// telemetry gauges after every batch).
pub fn arena_stats() -> ArenaStats {
    INFER_CTX.with(|c| c.borrow().stats())
}

/// Zeroes the calling thread's arena growth counter, marking the start of
/// a steady-state observation window (call after warm-up).
pub fn reset_arena_growth() {
    INFER_CTX.with(|c| c.borrow_mut().reset_growth());
    PUBLISHED_GROWTH.with(|c| c.set(0));
}

/// Exports the arena's high-water mark and pool occupancy as gauges and
/// its growth events as a counter delta.
fn publish_arena_metrics(ctx: &InferCtx) {
    let stats = ctx.stats();
    mandipass_telemetry::gauge!("nn.arena.high_water_bytes").set(stats.high_water_bytes as f64);
    mandipass_telemetry::gauge!("nn.arena.pooled_bytes").set(stats.pooled_bytes as f64);
    mandipass_telemetry::gauge!("nn.arena.pooled_buffers").set(stats.pooled_buffers as f64);
    PUBLISHED_GROWTH.with(|c| {
        let delta = stats.growth_events.saturating_sub(c.get());
        if delta > 0 {
            mandipass_telemetry::counter!("nn.arena.growth_events").add(delta);
        }
        c.set(stats.growth_events);
    });
}

/// Architecture parameters of the biometric extractor.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtractorConfig {
    /// Axis rows per direction plane (6 for a full IMU).
    pub axes: usize,
    /// Gradient samples per direction stream (`n/2`; paper: 30).
    pub half_n: usize,
    /// Output channels of the three convolution blocks.
    pub channels: [usize; 3],
    /// MandiblePrint dimensionality (paper default: 512; Fig. 11(c)
    /// sweeps 32–512).
    pub embedding_dim: usize,
    /// Person-id classes of the training head.
    pub classes: usize,
    /// Weight-initialisation seed.
    pub seed: u64,
    /// Whether to use the paper's two-branch architecture (one branch per
    /// vibration direction). `false` builds an equal-parameter-budget
    /// single branch fed both direction planes as channels — the
    /// `ablation_branches` experiment's comparator.
    pub two_branch: bool,
}

impl ExtractorConfig {
    /// The paper's architecture for a cohort of `classes` hired people.
    pub fn paper(classes: usize) -> Self {
        ExtractorConfig {
            axes: 6,
            half_n: 30,
            channels: [8, 16, 32],
            embedding_dim: 512,
            classes,
            seed: 0x6d61_6e64,
            two_branch: true,
        }
    }

    /// A tiny configuration for unit tests (fast to train).
    pub fn tiny(classes: usize) -> Self {
        ExtractorConfig {
            axes: 6,
            half_n: 30,
            channels: [2, 4, 4],
            embedding_dim: 32,
            classes,
            seed: 7,
            two_branch: true,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::InvalidConfig`] for zero-sized fields.
    pub fn validate(&self) -> Result<(), MandiPassError> {
        let bad = |reason: &str| {
            Err(MandiPassError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.axes == 0 || self.half_n == 0 {
            return bad("axes and half_n must be positive");
        }
        if self.channels.contains(&0) {
            return bad("channel counts must be positive");
        }
        if self.embedding_dim == 0 {
            return bad("embedding dimension must be positive");
        }
        if self.classes < 2 {
            return bad("training requires at least two classes");
        }
        Ok(())
    }

    /// Temporal width after the three stride-2 convolutions.
    fn final_width(&self) -> usize {
        let w1 = (self.half_n + 2 - 3) / 2 + 1;
        let w2 = (w1 + 2 - 3) / 2 + 1;
        (w2 + 2 - 3) / 2 + 1
    }

    /// Flattened feature size of one branch.
    fn branch_features(&self) -> usize {
        self.channels[2] * self.axes * self.final_width()
    }
}

/// The two-branch CNN biometric extractor.
#[derive(Debug, Clone)]
pub struct BiometricExtractor {
    config: ExtractorConfig,
    branch_positive: Sequential,
    branch_negative: Option<Sequential>,
    head: Linear,
    head_act: Sigmoid,
    classifier: Linear,
    cached_batch: Option<usize>,
}

/// Splits the stacked `[N, 2, axes, half_n]` input into its positive- and
/// negative-direction planes, one `[N, 1, axes, half_n]` tensor each.
fn split_directions(config: &ExtractorConfig, input: &Tensor) -> (Tensor, Tensor) {
    let n = input.shape()[0];
    let plane = config.axes * config.half_n;
    let mut pos = Tensor::zeros(vec![n, 1, config.axes, config.half_n]);
    let mut neg = Tensor::zeros(vec![n, 1, config.axes, config.half_n]);
    for i in 0..n {
        let base = i * 2 * plane;
        pos.data_mut()[i * plane..(i + 1) * plane]
            .copy_from_slice(&input.data()[base..base + plane]);
        neg.data_mut()[i * plane..(i + 1) * plane]
            .copy_from_slice(&input.data()[base + plane..base + 2 * plane]);
    }
    (pos, neg)
}

fn build_branch(config: &ExtractorConfig, in_channels: usize, seed: u64) -> Sequential {
    let [c1, c2, c3] = config.channels;
    Sequential::new(vec![
        Box::new(Conv2d::new(in_channels, c1, (3, 3), (1, 2), (1, 1), seed)),
        Box::new(BatchNorm2d::new(c1)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(c1, c2, (3, 3), (1, 2), (1, 1), seed + 1)),
        Box::new(BatchNorm2d::new(c2)),
        Box::new(ReLU::new()),
        Box::new(Conv2d::new(c2, c3, (3, 3), (1, 2), (1, 1), seed + 2)),
        Box::new(BatchNorm2d::new(c3)),
        Box::new(ReLU::new()),
        Box::new(Flatten::new()),
    ])
}

impl BiometricExtractor {
    /// Builds an untrained extractor.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::InvalidConfig`] when `config` is invalid.
    pub fn new(config: ExtractorConfig) -> Result<Self, MandiPassError> {
        config.validate()?;
        let branch_features = config.branch_features();
        if config.two_branch {
            Ok(BiometricExtractor {
                branch_positive: build_branch(&config, 1, config.seed),
                branch_negative: Some(build_branch(&config, 1, config.seed + 100)),
                head: Linear::new(2 * branch_features, config.embedding_dim, config.seed + 200),
                head_act: Sigmoid::new(),
                classifier: Linear::new(config.embedding_dim, config.classes, config.seed + 300),
                config,
                cached_batch: None,
            })
        } else {
            // Single branch on the stacked (2-channel) gradient array.
            // With kernel fan-in doubled by the extra input channel, the
            // convolution budget roughly matches; the head keeps the same
            // width by duplicating the branch features.
            Ok(BiometricExtractor {
                branch_positive: build_branch(&config, 2, config.seed),
                branch_negative: None,
                head: Linear::new(branch_features, config.embedding_dim, config.seed + 200),
                head_act: Sigmoid::new(),
                classifier: Linear::new(config.embedding_dim, config.classes, config.seed + 300),
                config,
                cached_batch: None,
            })
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> &ExtractorConfig {
        &self.config
    }

    /// MandiblePrint dimensionality.
    pub fn embedding_dim(&self) -> usize {
        self.config.embedding_dim
    }

    /// Batches gradient arrays into the CNN input tensor
    /// `[N, 2, axes, half_n]`.
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::DimensionMismatch`] when an array's shape
    /// differs from the configuration.
    pub fn batch_input(&self, arrays: &[&GradientArray]) -> Result<Tensor, MandiPassError> {
        let per = 2 * self.config.axes * self.config.half_n;
        let mut data = Vec::with_capacity(arrays.len() * per);
        for a in arrays {
            if a.axes() != self.config.axes || a.half_n() != self.config.half_n {
                return Err(MandiPassError::DimensionMismatch {
                    expected: per,
                    got: 2 * a.axes() * a.half_n(),
                });
            }
            data.extend(a.to_f32());
        }
        Tensor::from_vec(
            vec![arrays.len(), 2, self.config.axes, self.config.half_n],
            data,
        )
        .map_err(MandiPassError::from)
    }

    /// Forward pass: returns `(embeddings [N, D], logits [N, classes])`.
    /// With `train == false` this uses the batch-norm running statistics
    /// and leaves every backward cache untouched; it is the scalar
    /// reference the deployed fast path
    /// ([`BiometricExtractor::extract_prints_batch`]) matches bit for bit.
    pub fn forward(&mut self, input: &Tensor, train: bool) -> (Tensor, Tensor) {
        let features = match &mut self.branch_negative {
            Some(branch_negative) => {
                let (pos, neg) = split_directions(&self.config, input);
                let fp = self.branch_positive.forward(&pos, train);
                let fn_ = branch_negative.forward(&neg, train);
                Tensor::concat_cols(&[&fp, &fn_])
            }
            None => self.branch_positive.forward(input, train),
        };
        let pre = self.head.forward(&features, train);
        let embedding = self.head_act.forward(&pre, train);
        let logits = self.classifier.forward(&embedding, train);
        if train {
            self.cached_batch = Some(input.shape()[0]);
        }
        (embedding, logits)
    }

    /// Backward pass from the loss gradient with respect to the logits.
    ///
    /// # Panics
    ///
    /// Panics when called without a preceding training-mode forward.
    pub fn backward(&mut self, grad_logits: &Tensor) {
        assert!(
            self.cached_batch.take().is_some(),
            "backward requires a preceding training-mode forward"
        );
        let grad_embedding = self.classifier.backward(grad_logits);
        let grad_pre = self.head_act.backward(&grad_embedding);
        let grad_features = self.head.backward(&grad_pre);
        match &mut self.branch_negative {
            Some(branch_negative) => {
                let branch_features = self.config.branch_features();
                let parts = grad_features.split_cols(&[branch_features, branch_features]);
                self.branch_positive.backward(&parts[0]);
                branch_negative.backward(&parts[1]);
            }
            None => {
                self.branch_positive.backward(&grad_features);
            }
        }
    }

    /// One optimisation step over a batch: zero grads, forward, loss,
    /// backward. Returns `(loss, accuracy)`; the caller applies the
    /// optimiser to [`BiometricExtractor::params`].
    pub fn train_batch(&mut self, input: &Tensor, labels: &[usize]) -> (f32, f64) {
        self.zero_grad();
        let (_, logits) = self.forward(input, true);
        let (loss, grad) = cross_entropy(&logits, labels);
        let acc = accuracy(&logits, labels);
        self.backward(&grad);
        (loss, acc)
    }

    /// Fast-path embeddings: consumes a flat `[N, 2, axes, half_n]` arena
    /// buffer and returns the `[N, embedding_dim]` embedding buffer (the
    /// caller releases it). Skips the classifier head — deployment never
    /// reads the logits. Emits the stage spans `cnn_forward`,
    /// `branch_positive`/`branch_negative` and `embedding_head`, with the
    /// per-layer and kernel-level `im2col`/`gemm`/`bias_act` spans
    /// beneath them.
    fn infer_embeddings_fast(&self, input: Vec<f32>, n: usize, ctx: &mut InferCtx) -> Vec<f32> {
        let _span = mandipass_telemetry::span("cnn_forward");
        let axes = self.config.axes;
        let half_n = self.config.half_n;
        let plane = axes * half_n;
        let (features, fshape) = match &self.branch_negative {
            Some(branch_negative) => {
                let mut pos = ctx.acquire(n * plane);
                let mut neg = ctx.acquire(n * plane);
                for i in 0..n {
                    let base = i * 2 * plane;
                    pos[i * plane..(i + 1) * plane].copy_from_slice(&input[base..base + plane]);
                    neg[i * plane..(i + 1) * plane]
                        .copy_from_slice(&input[base + plane..base + 2 * plane]);
                }
                ctx.release(input);
                let shape = Shape::d4(n, 1, axes, half_n);
                let (fp, fp_shape) = {
                    let _span = mandipass_telemetry::span("branch_positive");
                    self.branch_positive.infer_fast(pos, shape, ctx)
                };
                let (fneg, fneg_shape) = {
                    let _span = mandipass_telemetry::span("branch_negative");
                    branch_negative.infer_fast(neg, shape, ctx)
                };
                let pc = fp_shape.dims()[1];
                let nc = fneg_shape.dims()[1];
                let mut cat = ctx.acquire(n * (pc + nc));
                for i in 0..n {
                    let dst = i * (pc + nc);
                    cat[dst..dst + pc].copy_from_slice(&fp[i * pc..(i + 1) * pc]);
                    cat[dst + pc..dst + pc + nc].copy_from_slice(&fneg[i * nc..(i + 1) * nc]);
                }
                ctx.release(fp);
                ctx.release(fneg);
                (cat, Shape::d2(n, pc + nc))
            }
            None => {
                let _span = mandipass_telemetry::span("branch_positive");
                self.branch_positive
                    .infer_fast(input, Shape::d4(n, 2, axes, half_n), ctx)
            }
        };
        let _head_span = mandipass_telemetry::span("embedding_head");
        let (pre, pre_shape) = self.head.infer_fast(features, fshape, ctx);
        let (embedding, _) = self.head_act.infer_fast(pre, pre_shape, ctx);
        embedding
    }

    /// Extracts MandiblePrints from gradient arrays (evaluation mode —
    /// running batch-norm statistics, no caching). Delegates to
    /// [`BiometricExtractor::extract_prints_batch`]: one probe is a batch
    /// of one.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from [`BiometricExtractor::batch_input`].
    pub fn extract(&self, arrays: &[&GradientArray]) -> Result<Vec<MandiblePrint>, MandiPassError> {
        self.extract_prints_batch(arrays)
    }

    /// Batched probe extraction through the zero-allocation fast path:
    /// pushes all `N` probes through one `[N, 2, axes, half_n]` forward
    /// using the calling thread's scratch arena, so retried verifications
    /// amortise the per-forward fixed costs. Bit-exact with
    /// [`BiometricExtractor::extract_naive`] (the im2col+GEMM kernel
    /// accumulates in the same order as the scalar loop nest).
    ///
    /// # Errors
    ///
    /// Returns [`MandiPassError::DimensionMismatch`] when an array's shape
    /// differs from the configuration.
    pub fn extract_prints_batch(
        &self,
        arrays: &[&GradientArray],
    ) -> Result<Vec<MandiblePrint>, MandiPassError> {
        if arrays.is_empty() {
            return Ok(Vec::new());
        }
        let per = 2 * self.config.axes * self.config.half_n;
        for a in arrays {
            if a.axes() != self.config.axes || a.half_n() != self.config.half_n {
                return Err(MandiPassError::DimensionMismatch {
                    expected: per,
                    got: 2 * a.axes() * a.half_n(),
                });
            }
        }
        INFER_CTX.with(|cell| {
            let ctx = &mut *cell.borrow_mut();
            let mut input = ctx.acquire(arrays.len() * per);
            for (i, a) in arrays.iter().enumerate() {
                a.write_f32_into(&mut input[i * per..(i + 1) * per]);
            }
            let embeddings = self.infer_embeddings_fast(input, arrays.len(), ctx);
            let d = self.config.embedding_dim;
            let prints = (0..arrays.len())
                .map(|i| MandiblePrint::new(embeddings[i * d..(i + 1) * d].to_vec()))
                .collect();
            ctx.release(embeddings);
            publish_arena_metrics(ctx);
            Ok(prints)
        })
    }

    /// Reference extraction through the tensor-per-layer
    /// `forward(input, false)` — the parity oracle for the fast path.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches from [`BiometricExtractor::batch_input`].
    pub fn extract_naive(
        &mut self,
        arrays: &[&GradientArray],
    ) -> Result<Vec<MandiblePrint>, MandiPassError> {
        if arrays.is_empty() {
            return Ok(Vec::new());
        }
        let input = self.batch_input(arrays)?;
        let (embeddings, _) = self.forward(&input, false);
        let d = self.config.embedding_dim;
        Ok((0..arrays.len())
            .map(|i| MandiblePrint::new(embeddings.data()[i * d..(i + 1) * d].to_vec()))
            .collect())
    }

    /// Pre-packs weights for the inference fast path (transposed linear
    /// weights). Bit-exact — safe to call on every deployed extractor;
    /// invalidated automatically when an optimiser touches the params.
    pub fn prepare_inference(&mut self) {
        self.branch_positive.prepare_inference();
        if let Some(branch_negative) = &mut self.branch_negative {
            branch_negative.prepare_inference();
        }
        self.head.prepare_inference();
    }
}

impl Layer for BiometricExtractor {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let (_, logits) = BiometricExtractor::forward(self, input, train);
        logits
    }

    fn infer_fast(&self, input: Vec<f32>, shape: Shape, ctx: &mut InferCtx) -> (Vec<f32>, Shape) {
        let n = shape.dims()[0];
        let embeddings = self.infer_embeddings_fast(input, n, ctx);
        self.classifier
            .infer_fast(embeddings, Shape::d2(n, self.config.embedding_dim), ctx)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        BiometricExtractor::backward(self, grad_output);
        // The input gradient is not needed by any caller (this is the
        // first layer of the model); return a zero placeholder of the
        // right logical meaning.
        Tensor::zeros(vec![1, 1])
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        let mut layers: Vec<(&str, &mut dyn Layer)> =
            vec![("branch_pos", &mut self.branch_positive as &mut dyn Layer)];
        if let Some(branch_negative) = &mut self.branch_negative {
            layers.push(("branch_neg", branch_negative as &mut dyn Layer));
        }
        layers.push(("head", &mut self.head as &mut dyn Layer));
        layers.push(("classifier", &mut self.classifier as &mut dyn Layer));
        for (prefix, layer) in layers {
            for mut p in layer.params() {
                p.name = format!("{prefix}.{}", p.name);
                out.push(p);
            }
        }
        out
    }

    fn state_params(&mut self) -> Vec<Param<'_>> {
        let mut out = Vec::new();
        let mut layers: Vec<(&str, &mut dyn Layer)> =
            vec![("branch_pos", &mut self.branch_positive as &mut dyn Layer)];
        if let Some(branch_negative) = &mut self.branch_negative {
            layers.push(("branch_neg", branch_negative as &mut dyn Layer));
        }
        layers.push(("head", &mut self.head as &mut dyn Layer));
        layers.push(("classifier", &mut self.classifier as &mut dyn Layer));
        for (prefix, layer) in layers {
            for mut p in layer.state_params() {
                p.name = format!("{prefix}.{}", p.name);
                out.push(p);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mandipass_dsp::SignalArray;
    use mandipass_nn::optim::{Adam, Optimizer};

    fn toy_gradient_array(shift: f64) -> GradientArray {
        let rows: Vec<Vec<f64>> = (0..6)
            .map(|j| {
                (0..61)
                    .map(|i| ((i as f64 * (0.5 + 0.1 * j as f64) + shift).sin() + 1.0) / 2.0)
                    .collect()
            })
            .collect();
        let arr = SignalArray::new(rows).unwrap();
        GradientArray::from_signal_array(&arr, 30).unwrap()
    }

    #[test]
    fn paper_config_param_count_is_plausible() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::paper(33)).unwrap();
        let count = ex.param_count();
        // FC dominates: 2·32·6·4 = 1536 inputs × 512 ≈ 786k parameters.
        assert!(count > 700_000 && count < 1_100_000, "params {count}");
    }

    #[test]
    fn forward_shapes_are_correct() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::tiny(4)).unwrap();
        let a = toy_gradient_array(0.0);
        let b = toy_gradient_array(1.0);
        let input = ex.batch_input(&[&a, &b]).unwrap();
        assert_eq!(input.shape(), &[2, 2, 6, 30]);
        let (embed, logits) = ex.forward(&input, false);
        assert_eq!(embed.shape(), &[2, 32]);
        assert_eq!(logits.shape(), &[2, 4]);
    }

    #[test]
    fn embeddings_are_in_unit_interval() {
        let ex = BiometricExtractor::new(ExtractorConfig::tiny(4)).unwrap();
        let a = toy_gradient_array(0.3);
        let prints = ex.extract(&[&a]).unwrap();
        assert_eq!(prints.len(), 1);
        assert!(prints[0]
            .as_slice()
            .iter()
            .all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn training_reduces_loss_on_separable_toy_data() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::tiny(2)).unwrap();
        let a = toy_gradient_array(0.0);
        let b = toy_gradient_array(2.0);
        let input = ex.batch_input(&[&a, &b]).unwrap();
        let labels = [0usize, 1usize];
        let mut adam = Adam::new(0.01);
        let (first_loss, _) = ex.train_batch(&input, &labels);
        adam.step(&mut ex.params());
        let mut last_loss = first_loss;
        for _ in 0..30 {
            let (loss, _) = ex.train_batch(&input, &labels);
            adam.step(&mut ex.params());
            last_loss = loss;
        }
        assert!(
            last_loss < first_loss * 0.5,
            "loss {first_loss} -> {last_loss}"
        );
    }

    #[test]
    fn extract_empty_is_empty() {
        let ex = BiometricExtractor::new(ExtractorConfig::tiny(2)).unwrap();
        assert!(ex.extract(&[]).unwrap().is_empty());
    }

    #[test]
    fn mismatched_array_shape_is_rejected() {
        let ex = BiometricExtractor::new(ExtractorConfig::tiny(2)).unwrap();
        let arr = SignalArray::new(vec![vec![0.1, 0.9, 0.2, 0.8]; 6]).unwrap();
        let small = GradientArray::from_signal_array(&arr, 10).unwrap(); // half_n 10 ≠ 30
        assert!(matches!(
            ex.extract(&[&small]),
            Err(MandiPassError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut c = ExtractorConfig::tiny(2);
        c.embedding_dim = 0;
        assert!(BiometricExtractor::new(c).is_err());
        let mut c = ExtractorConfig::tiny(2);
        c.classes = 1;
        assert!(BiometricExtractor::new(c).is_err());
    }

    #[test]
    fn serialization_round_trip_preserves_behaviour() {
        use mandipass_nn::serialize::{load_params, save_params};
        let mut a = BiometricExtractor::new(ExtractorConfig::tiny(3)).unwrap();
        let mut b = BiometricExtractor::new(ExtractorConfig {
            seed: 999,
            ..ExtractorConfig::tiny(3)
        })
        .unwrap();
        let arr = toy_gradient_array(0.5);
        let blob = save_params(&mut a);
        load_params(&mut b, &blob).unwrap();
        let pa = a.extract(&[&arr]).unwrap();
        let pb = b.extract(&[&arr]).unwrap();
        assert_eq!(pa[0].as_slice(), pb[0].as_slice());
    }

    #[test]
    fn fast_batch_extraction_matches_naive_oracle_bitwise() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::tiny(3)).unwrap();
        ex.prepare_inference();
        let arrays = [
            toy_gradient_array(0.0),
            toy_gradient_array(0.9),
            toy_gradient_array(2.1),
        ];
        let refs: Vec<&GradientArray> = arrays.iter().collect();
        let naive = ex.extract_naive(&refs).unwrap();
        let fast = ex.extract_prints_batch(&refs).unwrap();
        assert_eq!(naive.len(), fast.len());
        for (a, b) in naive.iter().zip(&fast) {
            assert_eq!(a.as_slice(), b.as_slice(), "fast path diverged");
        }
    }

    #[test]
    fn single_branch_fast_path_matches_naive() {
        let mut config = ExtractorConfig::tiny(3);
        config.two_branch = false;
        let mut ex = BiometricExtractor::new(config).unwrap();
        ex.prepare_inference();
        let a = toy_gradient_array(0.4);
        let naive = ex.extract_naive(&[&a]).unwrap();
        let fast = ex.extract_prints_batch(&[&a]).unwrap();
        assert_eq!(naive[0].as_slice(), fast[0].as_slice());
    }

    #[test]
    fn layer_infer_fast_logits_match_infer() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::tiny(3)).unwrap();
        ex.prepare_inference();
        let arrays = [toy_gradient_array(0.1), toy_gradient_array(1.7)];
        let input = ex.batch_input(&[&arrays[0], &arrays[1]]).unwrap();
        let logits = Layer::forward(&mut ex, &input, false);
        let mut ctx = InferCtx::default();
        let (fast, shape) = Layer::infer_fast(
            &ex,
            input.data().to_vec(),
            Shape::from_dims(input.shape()),
            &mut ctx,
        );
        assert_eq!(shape.dims(), logits.shape());
        assert_eq!(fast, logits.data());
    }

    #[test]
    fn batched_extraction_is_batch_invariant() {
        // Batch sizes 1–9 put the head GEMM through every 4-row block
        // and each 3/2/1 remainder; the tiny convs (2 output channels)
        // run a remainder block too. The paper config has a 512-wide head.
        let bits = |p: &MandiblePrint| p.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for config in [ExtractorConfig::tiny(3), ExtractorConfig::paper(3)] {
            let mut ex = BiometricExtractor::new(config).unwrap();
            ex.prepare_inference();
            let arrays: Vec<GradientArray> = (0..9)
                .map(|i| toy_gradient_array(0.35 * i as f64))
                .collect();
            let mut singles = Vec::new();
            for a in &arrays {
                let fast = ex.extract_prints_batch(&[a]).unwrap();
                let naive = ex.extract_naive(&[a]).unwrap();
                assert_eq!(bits(&fast[0]), bits(&naive[0]), "single probe vs naive");
                singles.push(bits(&fast[0]));
            }
            for size in 1..=arrays.len() {
                let refs: Vec<&GradientArray> = arrays[..size].iter().collect();
                let batched = ex.extract_prints_batch(&refs).unwrap();
                for (i, print) in batched.iter().enumerate() {
                    assert_eq!(bits(print), singles[i], "probe {i} of batch {size}");
                }
            }
        }
    }

    #[test]
    fn arena_reaches_steady_state_across_extractions() {
        let mut ex = BiometricExtractor::new(ExtractorConfig::tiny(2)).unwrap();
        ex.prepare_inference();
        let a = toy_gradient_array(0.5);
        // Warm up, then demand zero growth over a steady-state window.
        for _ in 0..2 {
            ex.extract_prints_batch(&[&a]).unwrap();
        }
        reset_arena_growth();
        for _ in 0..5 {
            ex.extract_prints_batch(&[&a]).unwrap();
        }
        let stats = arena_stats();
        assert_eq!(stats.growth_events, 0, "steady-state extraction grew");
        assert!(stats.high_water_bytes > 0);
    }

    #[test]
    fn deterministic_construction() {
        let a = BiometricExtractor::new(ExtractorConfig::tiny(3)).unwrap();
        let b = BiometricExtractor::new(ExtractorConfig::tiny(3)).unwrap();
        let arr = toy_gradient_array(0.7);
        assert_eq!(
            a.extract(&[&arr]).unwrap()[0].as_slice(),
            b.extract(&[&arr]).unwrap()[0].as_slice()
        );
    }
}
