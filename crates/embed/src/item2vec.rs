//! Skip-gram with negative sampling (SGNS) over interaction sequences.

use irs_data::ItemId;
use rand::{Rng, SeedableRng};

/// item2vec training configuration.
#[derive(Debug, Clone)]
pub struct Item2VecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Context window radius.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Number of passes over the corpus.
    pub epochs: usize,
    /// Initial learning rate (linearly decayed to `lr_end`).
    pub lr_start: f32,
    /// Final learning rate.
    pub lr_end: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Item2VecConfig {
    fn default() -> Self {
        Item2VecConfig {
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 4,
            lr_start: 0.05,
            lr_end: 0.005,
            seed: 0xe2b,
        }
    }
}

/// Trained item embeddings (the SGNS input vectors).
#[derive(Debug, Clone)]
pub struct ItemEmbeddings {
    num_items: usize,
    dim: usize,
    /// Row-major `[num_items, dim]`.
    vectors: Vec<f32>,
}

impl ItemEmbeddings {
    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.num_items
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The vector of one item.
    pub fn vector(&self, item: ItemId) -> &[f32] {
        &self.vectors[item * self.dim..(item + 1) * self.dim]
    }

    /// All vectors as a flat row-major slice.
    pub fn as_flat(&self) -> &[f32] {
        &self.vectors
    }

    /// Cosine similarity between two items (0 when either vector is 0).
    pub fn cosine_similarity(&self, a: ItemId, b: ItemId) -> f32 {
        cosine(self.vector(a), self.vector(b))
    }

    /// Cosine distance `1 − cos(a, b)` in `[0, 2]`.
    pub fn cosine_distance(&self, a: ItemId, b: ItemId) -> f32 {
        1.0 - self.cosine_similarity(a, b)
    }

    /// The `k` nearest items to `item` by cosine similarity (excluding
    /// itself).
    pub fn nearest(&self, item: ItemId, k: usize) -> Vec<(ItemId, f32)> {
        let mut sims: Vec<(ItemId, f32)> = (0..self.num_items)
            .filter(|&i| i != item)
            .map(|i| (i, self.cosine_similarity(item, i)))
            .collect();
        sims.sort_unstable_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        sims.truncate(k);
        sims
    }
}

/// Cosine similarity of two equal-length slices.
pub(crate) fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let mut dot = 0.0;
    let mut na = 0.0;
    let mut nb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        // Clamp: rounding can push |cos| an ulp past 1, which would make
        // derived distances slightly negative.
        (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0)
    }
}

/// Train item2vec on user sequences.
pub fn train_item2vec(
    sequences: &[Vec<ItemId>],
    num_items: usize,
    config: &Item2VecConfig,
) -> ItemEmbeddings {
    assert!(config.dim > 0 && config.window > 0 && config.epochs > 0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let dim = config.dim;
    let scale = 0.5 / dim as f32;
    let mut w_in: Vec<f32> =
        (0..num_items * dim).map(|_| (rng.random::<f32>() - 0.5) * scale).collect();
    let mut w_out: Vec<f32> = vec![0.0; num_items * dim];

    // Unigram^0.75 negative-sampling table.
    let mut counts = vec![0f64; num_items];
    for seq in sequences {
        for &i in seq {
            counts[i] += 1.0;
        }
    }
    let mut cum = Vec::with_capacity(num_items);
    let mut acc = 0.0f64;
    for &c in &counts {
        acc += c.powf(0.75);
        cum.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    let sample_negative = |rng: &mut rand::rngs::StdRng| -> ItemId {
        let x = rng.random::<f64>() * total;
        cum.partition_point(|&c| c < x).min(num_items - 1)
    };

    let total_pairs: usize =
        sequences.iter().map(|s| s.len()).sum::<usize>().max(1) * config.epochs;
    let mut seen_pairs = 0usize;
    let mut grad_in = vec![0.0f32; dim];

    for _epoch in 0..config.epochs {
        for seq in sequences {
            for (pos, &center) in seq.iter().enumerate() {
                seen_pairs += 1;
                let progress = seen_pairs as f32 / total_pairs as f32;
                let lr = config.lr_start + (config.lr_end - config.lr_start) * progress;
                let win = 1 + rng.random_range(0..config.window);
                let lo = pos.saturating_sub(win);
                let hi = (pos + win + 1).min(seq.len());
                for (ctx_pos, &context) in seq.iter().enumerate().take(hi).skip(lo) {
                    if ctx_pos == pos {
                        continue;
                    }
                    grad_in.iter_mut().for_each(|g| *g = 0.0);
                    // Positive pair + negatives; label 1 for the true pair.
                    for sample in 0..=config.negatives {
                        let (target, label) = if sample == 0 {
                            (context, 1.0)
                        } else {
                            let n = sample_negative(&mut rng);
                            if n == context {
                                continue;
                            }
                            (n, 0.0)
                        };
                        // `w_in` and `w_out` are separate buffers: the centre
                        // row is read in place while the target row updates.
                        let vin = &w_in[center * dim..(center + 1) * dim];
                        let vout = &mut w_out[target * dim..(target + 1) * dim];
                        let dot: f32 = vin.iter().zip(vout.iter()).map(|(&a, &b)| a * b).sum();
                        let pred = 1.0 / (1.0 + (-dot).exp());
                        let g = (pred - label) * lr;
                        // Each gradient term reads the target element before
                        // its update.
                        for ((gk, vo), &vi) in grad_in.iter_mut().zip(vout.iter_mut()).zip(vin) {
                            *gk += g * *vo;
                            *vo -= g * vi;
                        }
                    }
                    let vin_mut = &mut w_in[center * dim..(center + 1) * dim];
                    for k in 0..dim {
                        vin_mut[k] -= grad_in[k];
                    }
                }
            }
        }
    }

    ItemEmbeddings { num_items, dim, vectors: w_in }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_data::synth::{generate, SynthConfig};

    fn toy_sequences() -> Vec<Vec<ItemId>> {
        // Two disjoint "genres": items 0..4 co-occur, items 5..9 co-occur.
        let mut seqs = Vec::new();
        for r in 0..60 {
            let base = if r % 2 == 0 { 0 } else { 5 };
            seqs.push((0..5).map(|k| base + (k + r) % 5).collect());
        }
        seqs
    }

    #[test]
    fn cosine_helper_bounds() {
        assert!((cosine(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((cosine(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-6);
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn cooccurring_items_end_up_closer() {
        let cfg = Item2VecConfig { dim: 16, epochs: 8, ..Default::default() };
        let emb = train_item2vec(&toy_sequences(), 10, &cfg);
        // Average within-cluster vs cross-cluster similarity.
        let mut within = 0.0;
        let mut cross = 0.0;
        let mut nw = 0;
        let mut nc = 0;
        for a in 0..10 {
            for b in 0..10 {
                if a == b {
                    continue;
                }
                let s = emb.cosine_similarity(a, b);
                if (a < 5) == (b < 5) {
                    within += s;
                    nw += 1;
                } else {
                    cross += s;
                    nc += 1;
                }
            }
        }
        let within = within / nw as f32;
        let cross = cross / nc as f32;
        assert!(
            within > cross + 0.2,
            "within-cluster similarity {within} must clearly exceed cross {cross}"
        );
    }

    #[test]
    fn nearest_neighbours_come_from_same_cluster() {
        let cfg = Item2VecConfig { dim: 16, epochs: 8, ..Default::default() };
        let emb = train_item2vec(&toy_sequences(), 10, &cfg);
        let nn = emb.nearest(0, 3);
        assert_eq!(nn.len(), 3);
        for (item, _) in nn {
            assert!(item < 5, "nearest neighbours of item 0 must be in its cluster");
        }
    }

    #[test]
    fn training_is_deterministic() {
        let seqs = toy_sequences();
        let cfg = Item2VecConfig::default();
        let a = train_item2vec(&seqs, 10, &cfg);
        let b = train_item2vec(&seqs, 10, &cfg);
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn works_on_synthetic_dataset() {
        let out = generate(&SynthConfig::tiny(33));
        let cfg = Item2VecConfig { dim: 12, epochs: 3, ..Default::default() };
        let emb = train_item2vec(&out.dataset.sequences, out.dataset.num_items, &cfg);
        assert_eq!(emb.num_items(), out.dataset.num_items);
        assert!(emb.as_flat().iter().all(|v| v.is_finite()));
        // Same-genre items should on average be more similar than
        // different-genre items.
        let d = &out.dataset;
        let mut same = Vec::new();
        let mut diff = Vec::new();
        for a in 0..d.num_items {
            for b in (a + 1)..d.num_items {
                let s = emb.cosine_similarity(a, b);
                if d.genres[a][0] == d.genres[b][0] {
                    same.push(s);
                } else {
                    diff.push(s);
                }
            }
        }
        let ms: f32 = same.iter().sum::<f32>() / same.len() as f32;
        let md: f32 = diff.iter().sum::<f32>() / diff.len() as f32;
        assert!(ms > md, "genre structure must be reflected in embeddings: {ms} vs {md}");
    }
}
