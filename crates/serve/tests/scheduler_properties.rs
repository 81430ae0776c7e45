//! Scheduler-layer batched≡scalar pins: for random session mixes and
//! arrival orders, micro-batched serving must return *bitwise-identical*
//! recommendations to per-session scalar `next_item` calls.
//!
//! This extends the PR 2 property tests (score_next_batch ≡ score_next,
//! next_items_into ≡ next_item) up through the serving stack: the dynamic
//! micro-batching scheduler regroups concurrent requests by arrival
//! timing, so batch *composition* is nondeterministic — these tests
//! assert that composition never leaks into the answers.  Item ids are
//! integers, so equality of recommendations is exactly bitwise equality
//! of the underlying argmax — any score divergence in the batched path
//! would flip an argmax somewhere in these mixes.

use std::sync::{Arc, OnceLock};

use irs_core::{
    run_interactive_session, InfluenceRecommender, InteractiveSession, Irn, IrnConfig,
    NeuralTrainConfig, UserModel,
};
use irs_data::split::{split_dataset, SplitConfig};
use irs_data::synth::{generate, SynthConfig};
use irs_data::ItemId;
use irs_serve::{BatchPolicy, Engine, ModelSnapshot, SnapshotRegistry};
use proptest::prelude::*;

struct World {
    registry: Arc<SnapshotRegistry>,
    /// A second handle to the same trained weights for scalar reference
    /// calls (the registry owns the served copy).
    reference: Irn,
    num_items: usize,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let dataset = generate(&SynthConfig::tiny(0x5e4e)).dataset;
        let split = split_dataset(&dataset, &SplitConfig::small());
        let train = NeuralTrainConfig { epochs: 1, ..Default::default() };
        let config = IrnConfig {
            dim: 8,
            user_dim: 4,
            layers: 1,
            heads: 2,
            max_len: 10,
            train,
            ..Default::default()
        };
        let model =
            Irn::fit(&split.train, &[], dataset.num_items, dataset.num_users, &config, None);
        // Serialise → reload to get an independent model with identical
        // weights: the served copy and the reference copy must not share
        // a PIM cache for the comparison to mean anything.
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let reference =
            Irn::load(&bytes[..], dataset.num_items, dataset.num_users, &config).unwrap();
        let registry = Arc::new(SnapshotRegistry::new(ModelSnapshot::in_memory_with_catalogue(
            "prop",
            Box::new(model),
            dataset.num_items,
        )));
        World { registry, reference, num_items: dataset.num_items }
    })
}

/// Strategy: a mix of sessions (user, history, objective seed, path seed).
fn session_mix() -> impl Strategy<Value = Vec<(usize, Vec<usize>, usize)>> {
    proptest::collection::vec(
        (0usize..30, proptest::collection::vec(0usize..1000, 0..8), 0usize..1000),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Single proposals: random concurrent mixes answered through the
    /// scheduler equal scalar next_item calls, request by request.
    #[test]
    fn scheduler_answers_equal_scalar_next_item(
        mix in session_mix(),
        max_batch in 1usize..6,
        workers in 1usize..3,
    ) {
        let w = world();
        let engine = Arc::new(Engine::start(
            w.registry.clone(),
            BatchPolicy { max_batch, workers, queue_capacity: 64 },
        ));
        // Normalise ids into the catalogue and dedupe histories so the
        // no-repeat contract has room to answer.
        let queries: Vec<(usize, Vec<ItemId>, ItemId)> = mix
            .iter()
            .map(|(u, h, o)| {
                let mut hist: Vec<ItemId> = h.iter().map(|&i| i % w.num_items).collect();
                hist.dedup();
                (*u, hist, o % w.num_items)
            })
            .collect();
        // Arrival order = spawn order; the scheduler regroups at will.
        let batched: Vec<Option<ItemId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = queries
                .iter()
                .map(|(u, h, o)| {
                    let engine = engine.clone();
                    scope.spawn(move || engine.next_item(*u, h.clone(), *o, Vec::new()))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("request thread")).collect()
        });
        engine.shutdown();
        for ((u, h, o), got) in queries.iter().zip(&batched) {
            let want = w.reference.next_item(*u, h, *o, &[]);
            prop_assert_eq!(
                *got, want,
                "user {} objective {} history {:?}: scheduler {:?} vs scalar {:?}",
                u, o, h, got, want
            );
        }
    }

    /// Whole sessions: concurrent interactive sessions driven through the
    /// scheduler produce exactly the outcomes the scalar driver produces
    /// session by session (passive user, so outcomes are deterministic).
    #[test]
    fn concurrent_sessions_match_scalar_driver(
        mix in session_mix(),
        max_batch in 2usize..8,
    ) {
        let w = world();
        let engine = Arc::new(Engine::start(
            w.registry.clone(),
            BatchPolicy { max_batch, workers: 2, queue_capacity: 64 },
        ));
        let cases: Vec<(usize, Vec<ItemId>, ItemId)> = mix
            .iter()
            .map(|(u, h, o)| {
                let mut hist: Vec<ItemId> = h.iter().map(|&i| i % w.num_items).collect();
                hist.dedup();
                (*u, hist, o % w.num_items)
            })
            .collect();
        const MAX_LEN: usize = 4;
        const PATIENCE: usize = 2;
        let served: Vec<Vec<ItemId>> = std::thread::scope(|scope| {
            let handles: Vec<_> = cases
                .iter()
                .map(|(u, h, o)| {
                    let engine = engine.clone();
                    scope.spawn(move || {
                        let mut session = InteractiveSession::new(
                            *u,
                            h.clone(),
                            *o,
                            MAX_LEN,
                            PATIENCE,
                        );
                        while !session.is_done() {
                            match engine.propose(&session) {
                                Some(item) => session.record(item, true),
                                None => session.record_give_up(),
                            }
                        }
                        session.outcome().accepted
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("session thread")).collect()
        });
        engine.shutdown();
        // The served sessions accept every proposal; the scalar driver
        // must be run with the same passive user.
        struct Agreeable;
        impl UserModel for Agreeable {
            fn accepts(&mut self, _u: usize, _c: &[ItemId], _i: ItemId) -> bool {
                true
            }
        }
        for ((u, h, o), got) in cases.iter().zip(&served) {
            let scalar = run_interactive_session(
                &w.reference,
                &mut Agreeable,
                *u,
                h,
                *o,
                MAX_LEN,
                PATIENCE,
            );
            prop_assert_eq!(
                got.clone(), scalar.accepted,
                "user {} objective {}: served path diverged from scalar driver",
                u, o
            );
        }
    }
}
