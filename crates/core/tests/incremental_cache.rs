//! Cross-family property tests pinning every incremental context-cache
//! path to its cold full re-encode, **bitwise**.
//!
//! The serving cache (PR "incremental per-session context cache") only
//! holds if a cached serve step is *unobservable* in the scores: the
//! incremental path must accumulate every float in the same order over
//! the same visible keys as a from-scratch encode.  These tests drive
//! random session mixes — growing prefixes, window hops past
//! `max_len`, mid-prefix mutations that force a rebuild — through all
//! four cached families:
//!
//! * IRN in [`EncodingLayout::AppendOnly`] (per-layer context K/V rows
//!   plus the objective ladder), via [`Irn::score_next_cached`];
//! * SASRec in the append-only layout (per-layer K/V rows), GRU4Rec
//!   (carried hidden state) and Caser (rolling embedded window), via
//!   [`SequentialScorer::score_incremental`].

use std::sync::OnceLock;

use irs_baselines::{
    hopping_window_start, Caser, CaserConfig, Gru4Rec, Gru4RecConfig, NeuralTrainConfig, SasRec,
    SasRecConfig, SequentialScorer,
};
use irs_core::{EncodingLayout, Irn, IrnConfig};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use proptest::prelude::*;

const ITEM_BOUND: usize = 60; // SynthConfig::tiny catalogue size

struct Fixture {
    num_items: usize,
    num_users: usize,
    irn: Irn,
    /// The cached baseline families (each answers
    /// `new_incremental_state() == Some(..)`).
    scorers: Vec<Box<dyn SequentialScorer + Send + Sync>>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = generate(&SynthConfig::tiny(0x1cc)).dataset;
        let split = split_dataset(&dataset, &SplitConfig::small());
        let n = dataset.num_items;
        let train = NeuralTrainConfig { epochs: 1, ..Default::default() };
        let irn = Irn::fit(
            &split.train,
            &[],
            n,
            dataset.num_users,
            &IrnConfig {
                dim: 16,
                user_dim: 4,
                layers: 1,
                heads: 2,
                max_len: 8,
                layout: EncodingLayout::AppendOnly,
                train: train.clone(),
                ..Default::default()
            },
            None,
        );
        let scorers: Vec<Box<dyn SequentialScorer + Send + Sync>> = vec![
            Box::new(SasRec::fit(
                &split.train,
                n,
                &SasRecConfig {
                    dim: 8,
                    layers: 2,
                    heads: 2,
                    max_len: 8,
                    dropout: 0.0,
                    layout: EncodingLayout::AppendOnly,
                    train: train.clone(),
                },
            )),
            Box::new(Gru4Rec::fit(
                &split.train,
                n,
                &Gru4RecConfig { dim: 8, hidden: 8, max_len: 8, train: train.clone() },
            )),
            Box::new(Caser::fit(
                &split.train,
                n,
                dataset.num_users,
                &CaserConfig {
                    dim: 8,
                    l_window: 4,
                    heights: vec![2, 3],
                    n_h: 4,
                    n_v: 2,
                    dropout: 0.0,
                    train,
                },
            )),
        ];
        Fixture { num_items: n, num_users: dataset.num_users, irn, scorers }
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

    /// Every cached baseline family scores a growing session — including
    /// window hops past `max_len` — exactly like its cold path, then
    /// survives a mid-prefix mutation (forced rebuild) still bitwise.
    #[test]
    fn baseline_incremental_matches_cold_bitwise(
        session in proptest::collection::vec(0usize..ITEM_BOUND, 1..16),
        user in 0usize..40,
        (mutate, flip_at, flip_to) in (0usize..2, 0usize..16, 0usize..ITEM_BOUND),
    ) {
        let f = fixture();
        let session: Vec<ItemId> = session.iter().map(|&i| i % f.num_items).collect();
        for scorer in &f.scorers {
            let mut state = scorer
                .new_incremental_state()
                .unwrap_or_else(|| panic!("{} must expose an incremental state", scorer.name()));
            for step in 1..=session.len() {
                let ctx = &session[..step];
                let (inc, _hit) = scorer.score_incremental(user, ctx, state.as_mut());
                assert_bitwise(scorer.name(), step, &inc, &scorer.score(user, ctx));
            }
            prop_assert!(state.resident_bytes() > 0, "{}: empty state after encoding", scorer.name());
            if mutate == 1 {
                let mut mutated = session.clone();
                let at = flip_at % mutated.len();
                mutated[at] = flip_to % f.num_items;
                let (inc, _hit) = scorer.score_incremental(user, &mutated, state.as_mut());
                assert_bitwise(scorer.name(), usize::MAX, &inc, &scorer.score(user, &mutated));
            }
        }
    }

    /// The IRN append-only cache — context K/V rows *plus* the pinned
    /// objective ladder — replays a growing session bitwise against the
    /// cold append encode, across random users and objectives.  Sessions
    /// run up to 23 items, several hops past the 7-item window at
    /// `max_len = 8`, and exactly the steps on which the window start
    /// stays put reuse the cached prefix.
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
        let window = f.irn.config().max_len - 1;
        let mut cache = f.irn.new_append_cache();
        for step in 0..=session.len() {
            let ctx = &session[..step];
            let (inc, hit) = f.irn.score_next_cached(user, ctx, objective, &mut cache);
            assert_bitwise("IRN", step, &inc, &f.irn.score_next(user, ctx, objective));
            // Step 0 primes and step 1 replaces the PAD placeholder; after
            // that exactly the hops rebuild (a hop shortens the window, so
            // the stored tokens can never be its prefix).
            let reuses = step >= 2
                && hopping_window_start(step, window) == hopping_window_start(step - 1, window);
            prop_assert_eq!(hit, reuses, "IRN: hit flag at step {}", step);
        }
        if mutate == 1 && !session.is_empty() {
            let mut mutated = session;
            let at = flip_at % mutated.len();
            mutated[at] = flip_to % f.num_items;
            let (inc, _hit) = f.irn.score_next_cached(user, &mutated, objective, &mut cache);
            assert_bitwise("IRN", usize::MAX, &inc, &f.irn.score_next(user, &mutated, objective));
        }
    }
}
