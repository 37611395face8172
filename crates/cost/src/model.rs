use serde::{Deserialize, Serialize};

#[cfg(test)]
use crate::LayerKind;
use crate::LayerSpec;

/// Analytic description of a full model as an ordered list of weighted
/// layers.
///
/// The order matters: ComDML offloads a *suffix* of the layer list to the
/// fast agent, so prefix/suffix cost queries are the primitive operations.
///
/// # Example
///
/// ```
/// use comdml_cost::ModelSpec;
///
/// let r56 = ModelSpec::resnet56();
/// let r110 = ModelSpec::resnet110();
/// assert!(r110.train_flops_per_sample() > 1.9 * r56.train_flops_per_sample());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelSpec {
    name: String,
    layers: Vec<LayerSpec>,
    num_classes: usize,
    input_elems: usize,
    /// Whole-model totals, summed once here because the estimator reads
    /// them for every agent it prices.
    train_flops: f64,
    params: usize,
}

impl ModelSpec {
    /// Builds a spec from parts.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty — a model must have at least one weighted
    /// layer for the split machinery to be meaningful.
    pub fn new(
        name: impl Into<String>,
        layers: Vec<LayerSpec>,
        num_classes: usize,
        input_elems: usize,
    ) -> Self {
        assert!(!layers.is_empty(), "a model needs at least one weighted layer");
        let train_flops = layers.iter().map(LayerSpec::flops_train).sum();
        let params = layers.iter().map(|l| l.params).sum();
        Self { name: name.into(), layers, num_classes, input_elems, train_flops, params }
    }

    /// The CIFAR-style ResNet-56: stem conv + 3 stages × 9 basic blocks
    /// (2 convs each) + final FC = 56 weighted layers.
    pub fn resnet56() -> Self {
        Self::resnet_cifar(9, "resnet56")
    }

    /// The CIFAR-style ResNet-110 (18 blocks per stage, 110 weighted layers).
    pub fn resnet110() -> Self {
        Self::resnet_cifar(18, "resnet110")
    }

    /// The CIFAR-style ResNet-20 (3 blocks per stage), handy for fast tests.
    pub fn resnet20() -> Self {
        Self::resnet_cifar(3, "resnet20")
    }

    /// Generic CIFAR ResNet with `n` basic blocks per stage (depth `6n + 2`).
    ///
    /// Stage shapes follow He et al.: 16×32×32, 32×16×16, 64×8×8 on
    /// 32×32×3 inputs, with 10-way classification.
    pub fn resnet_cifar(n: usize, name: &str) -> Self {
        let mut layers = Vec::with_capacity(6 * n + 2);
        layers.push(LayerSpec::conv("stem", 3, 3, 16, 32, 32));
        let stages: [(usize, usize, usize); 3] = [(16, 32, 32), (32, 16, 16), (64, 8, 8)];
        let mut c_in = 16;
        for (s, &(c_out, h, w)) in stages.iter().enumerate() {
            for b in 0..n {
                // First conv of the first block in stages 2/3 downsamples.
                let cin_here = if b == 0 { c_in } else { c_out };
                layers.push(LayerSpec::conv(
                    format!("stage{}.block{}.conv1", s + 1, b + 1),
                    3,
                    cin_here,
                    c_out,
                    h,
                    w,
                ));
                layers.push(LayerSpec::conv(
                    format!("stage{}.block{}.conv2", s + 1, b + 1),
                    3,
                    c_out,
                    c_out,
                    h,
                    w,
                ));
            }
            c_in = c_out;
        }
        layers.push(LayerSpec::dense("fc", 64, 10));
        Self::new(name, layers, 10, 3 * 32 * 32)
    }

    /// A BERT-base-class transformer encoder (§V-A notes ComDML "can
    /// effectively support various models, from MLPs and CNNs to large
    /// language models (LLMs) like BERT").
    ///
    /// Each encoder block is modelled as one weighted layer aggregating its
    /// attention projections and feed-forward network; activations crossing
    /// a cut are the `[seq, hidden]` token states. Defaults: 12 layers,
    /// hidden 768, FFN 3072, sequence length 128.
    pub fn bert_base(seq_len: usize, num_classes: usize) -> Self {
        assert!(seq_len > 0, "sequence length must be positive");
        let (hidden, ffn, layers_n) = (768usize, 3072usize, 12usize);
        let mut layers = Vec::with_capacity(layers_n + 1);
        for i in 0..layers_n {
            // QKV + output projections: 4 * hidden^2 per token; attention
            // scores: 2 * seq * hidden per token; FFN: 2 * hidden * ffn.
            let per_token = 4.0 * (hidden * hidden) as f64
                + 2.0 * (seq_len * hidden) as f64
                + 2.0 * (hidden * ffn) as f64;
            let flops_fwd = 2.0 * per_token * seq_len as f64;
            let params = 4 * hidden * hidden + 2 * hidden * ffn + 4 * hidden;
            layers.push(LayerSpec {
                name: format!("encoder{}", i + 1),
                kind: crate::LayerKind::Dense,
                flops_fwd,
                params,
                out_elems: seq_len * hidden,
                out_channels: 0,
            });
        }
        layers.push(LayerSpec::dense("classifier", hidden, num_classes));
        Self::new("bert-base", layers, num_classes, seq_len * hidden)
    }

    /// A small MLP spec used by unit tests and the real-training examples.
    pub fn mlp(name: &str, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| LayerSpec::dense(format!("fc{}", i + 1), w[0], w[1]))
            .collect();
        Self::new(name, layers, *dims.last().expect("nonempty"), dims[0])
    }

    /// Model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered weighted layers.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of weighted layers (56 for ResNet-56, 110 for ResNet-110).
    pub fn num_weighted_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Elements in one input sample.
    pub fn input_elems(&self) -> usize {
        self.input_elems
    }

    /// Forward FLOPs for one sample through the whole model.
    pub fn fwd_flops_per_sample(&self) -> f64 {
        self.layers.iter().map(|l| l.flops_fwd).sum()
    }

    /// Training (forward + backward) FLOPs for one sample.
    pub fn train_flops_per_sample(&self) -> f64 {
        self.train_flops
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.params
    }

    /// Model payload in bytes when exchanged as `f32`s — the `b` in the
    /// paper's AllReduce cost `2·(K−1)/K·b`.
    pub fn model_bytes(&self) -> usize {
        self.num_params() * std::mem::size_of::<f32>()
    }

    /// Training FLOPs of the first `prefix_len` layers for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len > num_weighted_layers()`.
    pub fn prefix_train_flops(&self, prefix_len: usize) -> f64 {
        assert!(prefix_len <= self.layers.len(), "prefix longer than model");
        self.layers[..prefix_len].iter().map(LayerSpec::flops_train).sum()
    }

    /// Training FLOPs of the last `suffix_len` layers for one sample.
    ///
    /// # Panics
    ///
    /// Panics if `suffix_len > num_weighted_layers()`.
    pub fn suffix_train_flops(&self, suffix_len: usize) -> f64 {
        assert!(suffix_len <= self.layers.len(), "suffix longer than model");
        self.layers[self.layers.len() - suffix_len..].iter().map(LayerSpec::flops_train).sum()
    }

    /// Parameter bytes held by the last `suffix_len` layers.
    ///
    /// # Panics
    ///
    /// Panics if `suffix_len > num_weighted_layers()`.
    pub fn suffix_param_bytes(&self, suffix_len: usize) -> usize {
        assert!(suffix_len <= self.layers.len(), "suffix longer than model");
        self.layers[self.layers.len() - suffix_len..].iter().map(LayerSpec::param_bytes).sum()
    }

    /// The activation produced at the cut when the last `offload` layers are
    /// offloaded, i.e. the output of layer `L - offload - 1`, in bytes per
    /// sample. An offload of zero transfers nothing.
    ///
    /// # Panics
    ///
    /// Panics if `offload >= num_weighted_layers()` — the slow agent always
    /// keeps at least one layer.
    pub fn cut_activation_bytes(&self, offload: usize) -> usize {
        assert!(offload < self.layers.len(), "the slow agent must keep at least one layer");
        if offload == 0 {
            0
        } else {
            self.layers[self.layers.len() - offload - 1].activation_bytes()
        }
    }

    /// Output channels at the cut (for sizing the auxiliary head).
    ///
    /// Returns the out-channels of the last kept layer, falling back to its
    /// element count for dense layers.
    ///
    /// # Panics
    ///
    /// Panics if `offload >= num_weighted_layers()`.
    pub fn cut_channels(&self, offload: usize) -> usize {
        assert!(offload < self.layers.len(), "the slow agent must keep at least one layer");
        let l = &self.layers[self.layers.len() - offload - 1];
        if l.out_channels > 0 {
            l.out_channels
        } else {
            l.out_elems
        }
    }

    /// The auxiliary network cost for a cut with the given channels: a global
    /// average pool (negligible FLOPs) followed by a fully connected layer to
    /// the class logits, as in §V-A "Model Architecture".
    pub fn aux_head_flops(&self, offload: usize) -> f64 {
        if offload == 0 {
            return 0.0;
        }
        let c = self.cut_channels(offload);
        LayerSpec::dense("aux_fc", c, self.num_classes).flops_train()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resnet56_has_56_weighted_layers() {
        let spec = ModelSpec::resnet56();
        assert_eq!(spec.num_weighted_layers(), 56);
        assert_eq!(spec.layers()[0].name, "stem");
        assert_eq!(spec.layers()[55].kind, LayerKind::Dense);
    }

    #[test]
    fn resnet110_has_110_weighted_layers() {
        assert_eq!(ModelSpec::resnet110().num_weighted_layers(), 110);
    }

    #[test]
    fn resnet56_flops_match_published_magnitude() {
        // The CIFAR ResNet-56 forward pass is ~125 M multiply-accumulates
        // per sample; at 2 FLOPs per MAC that is ~250 MFLOPs.
        let f = ModelSpec::resnet56().fwd_flops_per_sample();
        assert!((2.0e8..3.2e8).contains(&f), "forward flops {f}");
    }

    #[test]
    fn resnet56_params_match_published_magnitude() {
        // Published parameter count is ~0.85 M.
        let p = ModelSpec::resnet56().num_params();
        assert!((700_000..1_000_000).contains(&p), "params {p}");
    }

    #[test]
    fn prefix_plus_suffix_covers_everything() {
        let spec = ModelSpec::resnet56();
        for cut in [0, 1, 10, 28, 55, 56] {
            let total = spec.prefix_train_flops(cut) + spec.suffix_train_flops(56 - cut);
            assert!((total - spec.train_flops_per_sample()).abs() < 1.0);
        }
    }

    #[test]
    fn cut_activation_tracks_stage_shapes() {
        let spec = ModelSpec::resnet56();
        // Offloading 55 layers cuts after the stem: 16x32x32 activations.
        assert_eq!(spec.cut_activation_bytes(55), 16 * 32 * 32 * 4);
        // Offloading 1 layer cuts before the FC: 64x8x8 activations.
        assert_eq!(spec.cut_activation_bytes(1), 64 * 8 * 8 * 4);
        // No offload, no transfer.
        assert_eq!(spec.cut_activation_bytes(0), 0);
    }

    #[test]
    fn deeper_cuts_move_work_to_the_fast_side() {
        let spec = ModelSpec::resnet56();
        let mut prev = 0.0;
        for k in 0..56 {
            let suffix = spec.suffix_train_flops(k);
            assert!(suffix >= prev);
            prev = suffix;
        }
    }

    #[test]
    fn aux_head_sized_by_cut_channels() {
        let spec = ModelSpec::resnet56();
        assert_eq!(spec.aux_head_flops(0), 0.0);
        // Cut after stem: 16 channels -> aux fc is 16x10.
        assert_eq!(spec.aux_head_flops(55), LayerSpec::dense("a", 16, 10).flops_train());
        // Cut before fc: 64 channels.
        assert_eq!(spec.aux_head_flops(1), LayerSpec::dense("a", 64, 10).flops_train());
    }

    #[test]
    fn bert_base_matches_published_magnitudes() {
        let spec = ModelSpec::bert_base(128, 2);
        assert_eq!(spec.num_weighted_layers(), 13);
        // BERT-base encoder stack is ~85 M parameters (embeddings excluded).
        let p = spec.num_params();
        assert!((70_000_000..100_000_000).contains(&p), "params {p}");
        // ~11 GFLOPs forward at seq 128 (2 FLOPs/MAC convention, no embeds).
        let f = spec.fwd_flops_per_sample();
        assert!((5e9..4e10).contains(&f), "flops {f}");
        // Cutting anywhere in the stack ships [seq, hidden] activations.
        assert_eq!(spec.cut_activation_bytes(6), 128 * 768 * 4);
    }

    #[test]
    fn bert_split_profile_works() {
        let spec = ModelSpec::bert_base(128, 2);
        let profile = crate::SplitProfile::new(&spec, 8);
        assert_eq!(profile.len(), 13);
        // Encoder layers are homogeneous: slow share falls linearly.
        let e4 = profile.entry(4).unwrap();
        let e8 = profile.entry(8).unwrap();
        assert!(e8.t_slow_rel < e4.t_slow_rel);
    }

    #[test]
    fn mlp_builder() {
        let spec = ModelSpec::mlp("m", &[32, 64, 10]);
        assert_eq!(spec.num_weighted_layers(), 2);
        assert_eq!(spec.num_classes(), 10);
        assert_eq!(spec.input_elems(), 32);
    }

    #[test]
    fn cached_totals_equal_the_layer_sums() {
        let specs = [
            ModelSpec::resnet20(),
            ModelSpec::resnet56(),
            ModelSpec::resnet110(),
            ModelSpec::bert_base(128, 2),
            ModelSpec::mlp("m", &[32, 64, 10]),
        ];
        for spec in specs {
            let flops: f64 = spec.layers().iter().map(LayerSpec::flops_train).sum();
            let params: usize = spec.layers().iter().map(|l| l.params).sum();
            let name = spec.name();
            assert_eq!(spec.train_flops_per_sample().to_bits(), flops.to_bits(), "{name}");
            assert_eq!(spec.num_params(), params, "{name}");
        }
    }

    #[test]
    fn model_bytes_is_4x_params() {
        let spec = ModelSpec::resnet20();
        assert_eq!(spec.model_bytes(), spec.num_params() * 4);
    }
}
