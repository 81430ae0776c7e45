//! Beam-search influence-path generation — an extension of Algorithm 1's
//! greedy argmax decoding.
//!
//! IRN generates paths token-by-token; the paper decodes greedily.  Beam
//! search keeps the `beam_width` most probable partial paths and scores
//! complete candidates by mean log-probability plus a bonus for reaching
//! the objective, trading extra compute for smoother and more successful
//! paths.  The ablation experiment (`run_all -- ablations`) compares the
//! two.

use irs_data::{ItemId, UserId};

use crate::irn::Irn;

/// Beam-search configuration.
#[derive(Debug, Clone)]
pub struct BeamConfig {
    /// Number of partial paths kept per step.
    pub beam_width: usize,
    /// Branching factor: candidate successors expanded per beam entry.
    pub branch: usize,
    /// Maximum path length `M`.
    pub max_len: usize,
    /// Additive log-space bonus for paths that reach the objective.
    pub success_bonus: f32,
}

impl Default for BeamConfig {
    fn default() -> Self {
        BeamConfig { beam_width: 3, branch: 3, max_len: 20, success_bonus: 2.0 }
    }
}

/// Fixed-size membership bitmask over the item catalogue: the candidate
/// filter tests every item against every hypothesis each step, so this is
/// an O(1) lookup instead of an O(|path|) `Vec::contains` scan.
#[derive(Clone)]
struct ItemMask {
    words: Vec<u64>,
}

impl ItemMask {
    fn new(num_items: usize) -> Self {
        ItemMask { words: vec![0; num_items.div_ceil(64)] }
    }

    fn from_items(num_items: usize, items: &[ItemId]) -> Self {
        let mut m = ItemMask::new(num_items);
        for &i in items {
            m.insert(i);
        }
        m
    }

    fn insert(&mut self, i: ItemId) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w |= 1u64 << (i % 64);
        }
    }

    #[inline]
    fn contains(&self, i: ItemId) -> bool {
        self.words.get(i / 64).is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }
}

#[derive(Clone)]
struct Hypothesis {
    path: Vec<ItemId>,
    /// Bitmask over `path` (history has its own shared mask).
    path_mask: ItemMask,
    log_prob_sum: f32,
    finished: bool,
}

impl Hypothesis {
    fn score(&self, bonus: f32) -> f32 {
        let mean =
            if self.path.is_empty() { 0.0 } else { self.log_prob_sum / self.path.len() as f32 };
        mean + if self.finished { bonus } else { 0.0 }
    }
}

/// Generate an influence path with beam search over IRN's next-item
/// distribution.  Returns the best-scoring path.
///
/// All open hypotheses of a step are scored in a single
/// [`Irn::score_next_batch`] forward, and candidate filtering uses
/// precomputed bitmasks instead of per-item `contains` scans over the
/// history and path.
pub fn beam_search_path(
    irn: &Irn,
    user: UserId,
    history: &[ItemId],
    objective: ItemId,
    config: &BeamConfig,
) -> Vec<ItemId> {
    assert!(config.beam_width >= 1 && config.branch >= 1);
    let history_mask = ItemMask::from_items(irn.num_items(), history);
    let mut beams = vec![Hypothesis {
        path: Vec::new(),
        path_mask: ItemMask::new(irn.num_items()),
        log_prob_sum: 0.0,
        finished: false,
    }];

    for _step in 0..config.max_len {
        let open: Vec<usize> = (0..beams.len()).filter(|&i| !beams[i].finished).collect();
        if open.is_empty() {
            break;
        }
        // One batched forward for every open hypothesis.
        let contexts: Vec<Vec<ItemId>> = open
            .iter()
            .map(|&i| {
                let mut c = history.to_vec();
                c.extend_from_slice(&beams[i].path);
                c
            })
            .collect();
        let ctx_refs: Vec<&[ItemId]> = contexts.iter().map(Vec::as_slice).collect();
        let users = vec![user; open.len()];
        let objectives = vec![objective; open.len()];
        let batch_scores = irn.score_next_batch(&users, &ctx_refs, &objectives);

        // Rebuild `expanded` in the original per-hypothesis order (each
        // finished clone interleaved with each open hypothesis's
        // expansions) so exact-score ties at the truncation boundary break
        // the same way as the pre-batching sequential loop.
        let mut expanded: Vec<Hypothesis> = Vec::new();
        let mut batch_row = 0usize;
        for hyp in &beams {
            if hyp.finished {
                expanded.push(hyp.clone());
                continue;
            }
            let scores = &batch_scores[batch_row];
            batch_row += 1;
            // Log-softmax for calibrated accumulation.
            let lse = irs_tensor::log_sum_exp(scores);
            let mut candidates: Vec<(ItemId, f32)> = scores
                .iter()
                .enumerate()
                .filter(|&(item, _)| {
                    !history_mask.contains(item)
                        && (!hyp.path_mask.contains(item) || item == objective)
                })
                .map(|(item, &s)| (item, s - lse))
                .collect();
            candidates.sort_unstable_by(|a, b| {
                b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal)
            });
            for &(item, lp) in candidates.iter().take(config.branch) {
                let mut path = hyp.path.clone();
                path.push(item);
                let mut path_mask = hyp.path_mask.clone();
                path_mask.insert(item);
                expanded.push(Hypothesis {
                    finished: item == objective,
                    log_prob_sum: hyp.log_prob_sum + lp,
                    path,
                    path_mask,
                });
            }
        }
        if expanded.is_empty() {
            break;
        }
        expanded.sort_unstable_by(|a, b| {
            b.score(config.success_bonus)
                .partial_cmp(&a.score(config.success_bonus))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        expanded.truncate(config.beam_width);
        let done = expanded.iter().all(|h| h.finished);
        beams = expanded;
        if done {
            break;
        }
    }

    beams
        .into_iter()
        .max_by(|a, b| a.score(2.0).partial_cmp(&b.score(2.0)).unwrap_or(std::cmp::Ordering::Equal))
        .map(|h| h.path)
        .unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::irn::{Irn, IrnConfig, MaskType};
    use irs_baselines::NeuralTrainConfig;
    use irs_data::split::SubSeq;

    fn tiny_irn() -> Irn {
        let mut seqs = Vec::new();
        for s in 0..24 {
            let items: Vec<ItemId> = (0..8).map(|k| (s + k) % 10).collect();
            seqs.push(SubSeq { user: s % 4, items });
        }
        Irn::fit(
            &seqs,
            &[],
            10,
            4,
            &IrnConfig {
                dim: 16,
                user_dim: 4,
                layers: 1,
                heads: 2,
                max_len: 10,
                dropout: 0.0,
                wt: 1.0,
                mask_type: MaskType::ObjectivePersonalized,
                padding: irs_data::split::PaddingScheme::Pre,
                layout: crate::EncodingLayout::PrePadded,
                train: NeuralTrainConfig { epochs: 3, ..Default::default() },
            },
            None,
        )
    }

    #[test]
    fn beam_paths_respect_budget_and_dedup() {
        let irn = tiny_irn();
        let cfg = BeamConfig { beam_width: 2, branch: 2, max_len: 5, success_bonus: 2.0 };
        let path = beam_search_path(&irn, 0, &[0, 1], 7, &cfg);
        assert!(path.len() <= 5);
        let mut seen = vec![0usize, 1];
        for &i in &path {
            assert!(!seen.contains(&i) || i == 7, "repeated item {i}");
            seen.push(i);
        }
    }

    #[test]
    fn beam_width_one_is_greedy_like() {
        let irn = tiny_irn();
        let cfg = BeamConfig { beam_width: 1, branch: 1, max_len: 4, success_bonus: 0.0 };
        let beam = beam_search_path(&irn, 0, &[0, 1], 7, &cfg);
        let greedy = crate::generate_influence_path(&irn, 0, &[0, 1], 7, 4);
        assert_eq!(beam, greedy, "width-1 branch-1 beam must equal greedy decoding");
    }

    #[test]
    fn beam_stops_at_objective() {
        let irn = tiny_irn();
        let cfg = BeamConfig::default();
        let path = beam_search_path(&irn, 0, &[5, 6], 7, &cfg);
        if let Some(pos) = path.iter().position(|&i| i == 7) {
            assert_eq!(pos, path.len() - 1, "objective must terminate the path");
        }
    }
}
