//! Shared experiment infrastructure: dataset construction, model training
//! and influence-path generation.

use irs_baselines::{
    Bert4Rec, Bert4RecConfig, BprConfig, BprMf, Caser, CaserConfig, Gru4Rec, Gru4RecConfig,
    NeuralTrainConfig, Pop, SasRec, SasRecConfig, TransRec, TransRecConfig,
};
use irs_core::{generate_influence_paths, InfluenceRecommender, Irn, IrnConfig, PathRequest};
use irs_data::preprocess::{preprocess_dataset, PreprocessConfig};
use irs_data::split::{sample_objectives, split_dataset, DataSplit, SplitConfig, TestCase};
use irs_data::synth::{generate, SynthConfig};
use irs_data::{Dataset, ItemId};
use irs_embed::{
    train_item2vec, EmbeddingDistance, GenreDistance, Item2VecConfig, ItemDistance, ItemEmbeddings,
};
use irs_eval::PathRecord;

/// Which of the two paper datasets the harness emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// Lastfm-like synthetic data (item2vec distances in Rec2Inf).
    LastfmLike,
    /// MovieLens-1M-like synthetic data (genre-vector distances).
    MovielensLike,
}

impl DatasetKind {
    /// Display name matching the paper's column headers.
    pub fn label(self) -> &'static str {
        match self {
            DatasetKind::LastfmLike => "Lastfm-like",
            DatasetKind::MovielensLike => "Movielens-like",
        }
    }
}

/// Harness configuration: dataset scale, split bounds and training budget.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Which dataset to emulate.
    pub kind: DatasetKind,
    /// Synthetic-generator scale (fraction of the paper's user/item count).
    pub scale: f32,
    /// Subsequence split bounds.
    pub l_min: usize,
    /// Maximum subsequence length.
    pub l_max: usize,
    /// Model input length (`l_max` is clipped to this at batch time).
    pub max_len: usize,
    /// Influence-path budget `M` (paper tables use 20).
    pub m: usize,
    /// Cap on evaluated test users (0 = all) — path generation is the
    /// dominant cost of the big tables.
    pub test_users: usize,
    /// Training epochs for all neural models.
    pub epochs: usize,
    /// Model width used by the neural models.
    pub dim: usize,
    /// Master seed.
    pub seed: u64,
}

impl HarnessConfig {
    /// Sub-second-scale configuration for unit tests: the synthetic
    /// generators bottom out at their minimum user/item floors, so the
    /// savings come from the training budget (1 epoch, width 8, length 8)
    /// and the evaluation span (8 users, M = 6).  Experiment unit tests
    /// assert report *structure*, not metric values, so this preset trades
    /// model quality for wall-clock without losing coverage.
    pub fn tiny(kind: DatasetKind) -> Self {
        HarnessConfig {
            kind,
            scale: 0.01,
            l_min: 4,
            l_max: 8,
            max_len: 8,
            m: 6,
            test_users: 8,
            epochs: 1,
            dim: 8,
            seed: 0x9e2,
        }
    }

    /// Seconds-scale configuration for tests.
    pub fn quick(kind: DatasetKind) -> Self {
        HarnessConfig {
            kind,
            scale: 0.03,
            l_min: 6,
            l_max: 14,
            max_len: 14,
            m: 10,
            test_users: 20,
            epochs: 2,
            dim: 16,
            seed: 0x9e2,
        }
    }

    /// The minutes-scale preset (the target configuration for a future
    /// standard-preset `EXPERIMENTS.md` run; the current report uses
    /// `quick`).  `IRS_SCALE` multiplies the dataset scale.
    pub fn standard(kind: DatasetKind) -> Self {
        let mult: f32 = std::env::var("IRS_SCALE").ok().and_then(|v| v.parse().ok()).unwrap_or(1.0);
        let base_scale = match kind {
            DatasetKind::LastfmLike => 0.15,
            DatasetKind::MovielensLike => 0.05,
        };
        HarnessConfig {
            kind,
            scale: (base_scale * mult).clamp(0.005, 1.0),
            l_min: 8,
            l_max: 20,
            max_len: 20,
            m: 20,
            test_users: 80,
            epochs: 6,
            dim: 32,
            seed: 0x9e1,
        }
    }

    fn train_cfg(&self) -> NeuralTrainConfig {
        NeuralTrainConfig {
            epochs: self.epochs,
            batch_size: 16,
            lr: 2e-3,
            clip: 5.0,
            seed: self.seed ^ 0x7777,
            verbose: false,
        }
    }

    /// IRN configuration derived from the harness configuration alone —
    /// also the architecture key for loading saved `IRSP` models (e.g.
    /// `irs serve` rebuilds it without training anything).  IRN gets a
    /// larger training budget and learning rate than the baselines: it
    /// must learn the objective conditioning on top of the next-item
    /// signal (the paper trains IRN for 1–2 GPU-hours with lr 8e-3 and
    /// plateau decay).
    pub fn irn_config(&self) -> IrnConfig {
        let mut train = self.train_cfg();
        train.epochs += self.epochs;
        train.lr = 3e-3;
        IrnConfig {
            dim: self.dim,
            user_dim: 8,
            layers: 2,
            heads: 2,
            max_len: self.max_len,
            dropout: 0.1,
            wt: 1.0,
            mask_type: irs_core::MaskType::ObjectivePersonalized,
            padding: irs_data::split::PaddingScheme::Pre,
            layout: irs_core::EncodingLayout::PrePadded,
            train,
        }
    }
}

/// Item distance dispatch (the paper uses genre vectors on MovieLens and
/// item2vec embeddings on Lastfm).
pub enum AnyDistance {
    /// Genre-feature cosine distance.
    Genre(GenreDistance),
    /// item2vec cosine distance.
    Embedding(EmbeddingDistance),
}

impl ItemDistance for AnyDistance {
    fn distance(&self, a: ItemId, b: ItemId) -> f32 {
        match self {
            AnyDistance::Genre(d) => d.distance(a, b),
            AnyDistance::Embedding(d) => d.distance(a, b),
        }
    }
}

/// A fully prepared experiment environment.
pub struct Harness {
    /// The configuration that built this harness.
    pub config: HarnessConfig,
    /// The preprocessed dataset.
    pub dataset: Dataset,
    /// Train/validation/test split.
    pub split: DataSplit,
    /// One sampled objective per test case (§IV-B1).
    pub objectives: Vec<ItemId>,
    /// Trained item2vec embeddings.
    pub embeddings: ItemEmbeddings,
}

impl Harness {
    /// Generate and preprocess the synthetic dataset a configuration
    /// describes — public so `irs serve` can rebuild the exact catalogue
    /// (item/user counts are part of the snapshot architecture check)
    /// without paying for the split and item2vec training.
    pub fn synth_dataset(config: &HarnessConfig) -> Dataset {
        let synth_cfg = match config.kind {
            DatasetKind::LastfmLike => SynthConfig::lastfm_like(config.scale),
            DatasetKind::MovielensLike => SynthConfig::movielens_like(config.scale),
        };
        let out = generate(&synth_cfg);
        let pre_cfg = PreprocessConfig { min_count: 5, dedup_consecutive: true };
        preprocess_dataset(&out.dataset, &out.interactions, &pre_cfg)
    }

    /// Generate, preprocess, split and embed one synthetic dataset.
    pub fn build(config: HarnessConfig) -> Self {
        let dataset = Self::synth_dataset(&config);
        Self::build_with_dataset(config, dataset)
    }

    /// Build the harness around an already-assembled dataset — the entry
    /// point for real MovieLens/Lastfm dumps loaded through
    /// `irs_data::loaders` (`irs train --ratings …`).  Splitting,
    /// objective sampling and item2vec run exactly as for synthetic data;
    /// `config.scale` is ignored (the dataset is whatever was loaded).
    pub fn build_with_dataset(config: HarnessConfig, dataset: Dataset) -> Self {
        let split_cfg = SplitConfig {
            l_min: config.l_min,
            l_max: config.l_max,
            val_fraction: 0.1,
            seed: config.seed,
        };
        let split = split_dataset(&dataset, &split_cfg);
        let objectives = sample_objectives(&dataset, &split.test, 5, config.seed ^ 0xabc);

        let embeddings = train_item2vec(
            &dataset.sequences,
            dataset.num_items,
            &Item2VecConfig { dim: config.dim, epochs: 3, ..Default::default() },
        );
        Harness { config, dataset, split, objectives, embeddings }
    }

    /// The evaluated test cases with their objectives (capped at
    /// `config.test_users`).
    pub fn test_slice(&self) -> (Vec<TestCase>, Vec<ItemId>) {
        let cap = if self.config.test_users == 0 {
            self.split.test.len()
        } else {
            self.config.test_users.min(self.split.test.len())
        };
        (self.split.test[..cap].to_vec(), self.objectives[..cap].to_vec())
    }

    /// The item-distance function matching the paper's per-dataset choice.
    pub fn distance(&self) -> AnyDistance {
        match self.config.kind {
            DatasetKind::MovielensLike => {
                AnyDistance::Genre(GenreDistance::from_dataset(&self.dataset))
            }
            DatasetKind::LastfmLike => {
                AnyDistance::Embedding(EmbeddingDistance::new(self.embeddings.clone()))
            }
        }
    }

    // ------------------------------------------------------------------
    // Model training
    // ------------------------------------------------------------------

    /// Popularity baseline.
    pub fn train_pop(&self) -> Pop {
        Pop::fit(&self.dataset)
    }

    /// BPR matrix factorisation.
    pub fn train_bpr(&self) -> BprMf {
        BprMf::fit(
            &self.dataset,
            &BprConfig {
                dim: self.config.dim.min(24),
                epochs: 6,
                seed: self.config.seed,
                ..Default::default()
            },
        )
    }

    /// TransRec.
    pub fn train_transrec(&self) -> TransRec {
        TransRec::fit(
            &self.dataset,
            &TransRecConfig {
                dim: self.config.dim.min(24),
                epochs: 6,
                seed: self.config.seed,
                ..Default::default()
            },
        )
    }

    /// GRU4Rec.
    pub fn train_gru4rec(&self) -> Gru4Rec {
        Gru4Rec::fit(
            &self.split.train,
            self.dataset.num_items,
            &Gru4RecConfig {
                dim: self.config.dim,
                hidden: self.config.dim,
                max_len: self.config.max_len,
                train: self.config.train_cfg(),
            },
        )
    }

    /// Caser.
    pub fn train_caser(&self) -> Caser {
        Caser::fit(
            &self.split.train,
            self.dataset.num_items,
            self.dataset.num_users,
            &CaserConfig {
                dim: self.config.dim,
                l_window: 5,
                heights: vec![2, 3],
                n_h: 8,
                n_v: 4,
                dropout: 0.1,
                train: self.config.train_cfg(),
            },
        )
    }

    /// SASRec.
    pub fn train_sasrec(&self) -> SasRec {
        SasRec::fit(
            &self.split.train,
            self.dataset.num_items,
            &SasRecConfig {
                dim: self.config.dim,
                layers: 2,
                heads: 2,
                max_len: self.config.max_len,
                dropout: 0.1,
                train: self.config.train_cfg(),
            },
        )
    }

    /// Bert4Rec (the paper's evaluator).
    pub fn train_bert4rec(&self) -> Bert4Rec {
        Bert4Rec::fit(
            &self.split.train,
            self.dataset.num_items,
            &Bert4RecConfig {
                dim: self.config.dim,
                layers: 2,
                heads: 2,
                max_len: self.config.max_len,
                dropout: 0.1,
                mask_prob: 0.3,
                train: self.config.train_cfg(),
            },
        )
    }

    /// IRN configuration derived from the harness (see
    /// [`HarnessConfig::irn_config`]).
    pub fn irn_config(&self) -> IrnConfig {
        self.config.irn_config()
    }

    /// Train IRN with optional config overrides (item2vec-initialised).
    pub fn train_irn_with(&self, cfg: &IrnConfig) -> Irn {
        Irn::fit(
            &self.split.train,
            &self.split.val,
            self.dataset.num_items,
            self.dataset.num_users,
            cfg,
            Some(&self.embeddings),
        )
    }

    /// Train IRN with the default harness configuration.
    pub fn train_irn(&self) -> Irn {
        self.train_irn_with(&self.irn_config())
    }

    // ------------------------------------------------------------------
    // Path generation
    // ------------------------------------------------------------------

    /// Generate one influence path per evaluated test case.
    ///
    /// All users advance in lockstep through the batched Algorithm 1
    /// ([`generate_influence_paths`]): model-backed recommenders pay one
    /// batched forward per path step instead of one forward per user per
    /// step.  On multi-core hosts the test users are additionally split
    /// over cores by [`irs_tensor::fan_out`] (one lockstep batch per
    /// worker, whose kernels then run serially — trained models are
    /// `Sync`; gradient accumulators sit behind a `Mutex`).
    pub fn generate_paths<R: InfluenceRecommender + Sync + ?Sized>(
        &self,
        rec: &R,
        m: usize,
    ) -> Vec<PathRecord> {
        let (test, objectives) = self.test_slice();
        let requests: Vec<PathRequest<'_>> = test
            .iter()
            .zip(&objectives)
            .map(|(tc, &obj)| PathRequest { user: tc.user, history: &tc.history, objective: obj })
            .collect();
        // Each worker keeps a lockstep batch of at least MIN_LOCKSTEP_BATCH
        // users: the batched forward is where the throughput comes from,
        // and tiny per-worker batches would forfeit it.
        const MIN_LOCKSTEP_BATCH: usize = 16;
        let paths = irs_tensor::fan_out(requests.len(), MIN_LOCKSTEP_BATCH, |users| {
            generate_influence_paths(rec, &requests[users], m)
        });
        test.iter()
            .zip(&objectives)
            .zip(paths.into_iter().flatten())
            .map(|((tc, &obj), path)| PathRecord {
                user: tc.user,
                history: tc.history.clone(),
                objective: obj,
                path,
            })
            .collect()
    }

    /// The item co-occurrence graph built from the *training* sequences.
    pub fn item_graph(&self) -> irs_graph::ItemGraph {
        let train_seqs: Vec<Vec<ItemId>> =
            self.split.train.iter().map(|s| s.items.clone()).collect();
        irs_graph::ItemGraph::from_sequences(self.dataset.num_items, &train_seqs)
    }
}

/// Blanket scorer adapter so `&Harness`-owned models plug into frameworks
/// without cloning (re-exported for binaries).
pub use irs_baselines::rank_of;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_harness_builds_consistently() {
        let h = Harness::build(HarnessConfig::quick(DatasetKind::LastfmLike));
        h.dataset.check_invariants().unwrap();
        let (test, obj) = h.test_slice();
        assert_eq!(test.len(), obj.len());
        assert!(!test.is_empty());
        assert!(h.embeddings.num_items() == h.dataset.num_items);
    }

    #[test]
    fn paths_are_generated_for_every_test_user() {
        let h = Harness::build(HarnessConfig::quick(DatasetKind::MovielensLike));
        let pop = h.train_pop();
        let rec = irs_core::Vanilla::new(&pop);
        let paths = h.generate_paths(&rec, 5);
        let (test, _) = h.test_slice();
        assert_eq!(paths.len(), test.len());
        for p in &paths {
            assert!(p.path.len() <= 5);
        }
    }

    #[test]
    fn paths_do_not_depend_on_the_worker_count() {
        let mut h = Harness::build(HarnessConfig::quick(DatasetKind::MovielensLike));
        h.config.test_users = 0;
        let mut cfg = h.irn_config();
        cfg.train.epochs = 1;
        let irn = h.train_irn_with(&cfg);
        let paths_with = |workers| {
            irs_tensor::set_kernel_threads(Some(workers));
            let paths = h.generate_paths(&irn, h.config.m);
            irs_tensor::set_kernel_threads(None);
            paths.into_iter().map(|p| (p.user, p.history, p.objective, p.path)).collect::<Vec<_>>()
        };
        let (serial, fanned) = (paths_with(1), paths_with(3));
        assert!(serial.len() >= 3 * 16, "{} users cannot fill three workers", serial.len());
        assert_eq!(serial, fanned);
    }
}
