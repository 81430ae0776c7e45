//! Property tests pinning IRN's incremental context cache to its cold
//! full re-encode, **bitwise**.
//!
//! The serving cache only holds if a cached serve step is *unobservable*
//! in the scores: the incremental path must accumulate every float in
//! the same order over the same visible keys as a from-scratch encode.
//! These tests drive random sessions — growing prefixes, window hops
//! past `max_len`, mid-prefix mutations that force a rebuild — through
//! IRN in [`EncodingLayout::AppendOnly`] (per-layer context K/V rows plus
//! the objective ladder) via [`Irn::score_next_cached`], at one layer and
//! at the two layers every preset serves, where each block's appended
//! row feeds the next block's.

use std::sync::OnceLock;

use irs_baselines::{hopping_window_start, NeuralTrainConfig};
use irs_core::{EncodingLayout, Irn, IrnConfig};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use proptest::prelude::*;

const ITEM_BOUND: usize = 60; // SynthConfig::tiny catalogue size

struct Fixture {
    num_items: usize,
    num_users: usize,
    /// Append-only IRNs at one and at two layers.
    irns: [Irn; 2],
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&SynthConfig::tiny(0x1cc)).dataset;
        let split = split_dataset(&dataset, &SplitConfig::small());
        let n = dataset.num_items;
        let irns = [1, 2].map(|layers| {
            let config = IrnConfig {
                dim: 16,
                user_dim: 4,
                layers,
                heads: 2,
                max_len: 8,
                layout: EncodingLayout::AppendOnly,
                train: NeuralTrainConfig { epochs: 1, ..Default::default() },
                ..Default::default()
            };
            Irn::fit(&split.train, &[], n, dataset.num_users, &config, None)
        });
        Fixture { num_items: n, num_users: dataset.num_users, irns }
    })
}

fn assert_bitwise(label: &str, step: usize, incremental: &[f32], cold: &[f32]) {
    assert_eq!(incremental.len(), cold.len(), "{label}: score length at step {step}");
    for (idx, (a, b)) in incremental.iter().zip(cold).enumerate() {
        assert!(
            a.to_bits() == b.to_bits(),
            "{label}: item {idx} at step {step}: cached {a} vs cold {b}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The IRN append-only cache — context K/V rows *plus* the pinned
    /// objective ladder — replays a growing session bitwise against the
    /// cold append encode, across random users and objectives, at every
    /// fixture depth.  Sessions run up to 23 items, several hops past the
    /// 7-item window at `max_len = 8`, and exactly the steps on which the
    /// window start stays put reuse the cached prefix.
    #[test]
    fn irn_incremental_matches_cold_bitwise(
        session in proptest::collection::vec(0usize..ITEM_BOUND, 0..24),
        user in 0usize..12,
        objective in 0usize..ITEM_BOUND,
        (mutate, flip_at, flip_to) in (0usize..2, 0usize..24, 0usize..ITEM_BOUND),
    ) {
        let f = fixture();
        let session: Vec<ItemId> = session.iter().map(|&i| i % f.num_items).collect();
        let user = user % f.num_users;
        let objective = objective % f.num_items;
        for irn in &f.irns {
            let label = format!("IRN, {} layers", irn.config().layers);
            let window = irn.config().max_len - 1;
            let mut cache = irn.new_append_cache();
            for step in 0..=session.len() {
                let ctx = &session[..step];
                let (inc, hit) = irn.score_next_cached(user, ctx, objective, &mut cache);
                assert_bitwise(&label, step, &inc, &irn.score_next(user, ctx, objective));
                // Step 0 primes and step 1 replaces the PAD placeholder;
                // after that exactly the hops rebuild (a hop shortens the
                // window, so the stored tokens can never be its prefix).
                let reuses = step >= 2
                    && hopping_window_start(step, window) == hopping_window_start(step - 1, window);
                prop_assert_eq!(hit, reuses, "{}: hit flag at step {}", label, step);
            }
            if mutate == 1 && !session.is_empty() {
                let mut mutated = session.clone();
                let at = flip_at % mutated.len();
                mutated[at] = flip_to % f.num_items;
                let (inc, _hit) = irn.score_next_cached(user, &mutated, objective, &mut cache);
                assert_bitwise(&label, usize::MAX, &inc, &irn.score_next(user, &mutated, objective));
            }
        }
    }
}
