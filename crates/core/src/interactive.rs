//! Stepwise user dynamics — the paper's future-work direction §V-(4).
//!
//! The offline protocol assumes the user passively accepts every
//! recommendation.  This module drops that assumption: a [`UserModel`]
//! accepts or rejects each recommended item, and
//! [`run_interactive_session`] lets the recommender *re-plan* after a
//! rejection ("the IRS needs to alter its strategy by recommending another
//! item to persuade the user towards the objective").
//!
//! Rejected items are excluded from subsequent proposals via the
//! [`InfluenceRecommender`] path argument trick: the driver keeps a
//! blocklist and asks for alternatives until the user accepts, the
//! per-step patience runs out, or the path budget is exhausted.

use irs_data::{ItemId, UserId};

use crate::{InfluenceRecommender, NextQuery, PathRequest};

/// A simulated user deciding whether to accept a recommended item.
pub trait UserModel {
    /// Decide on `item` given the accepted context so far (history ⊕
    /// accepted path items).  Implementations may be stochastic but should
    /// be deterministic for a fixed internal seed to keep experiments
    /// reproducible.
    fn accepts(&mut self, user: UserId, context: &[ItemId], item: ItemId) -> bool;
}

/// Accepts an item iff its probability under a scoring function exceeds a
/// threshold percentile of the score distribution.
///
/// `quantile = 0.0` accepts everything (the paper's passive assumption);
/// higher quantiles simulate pickier users.
pub struct ThresholdUser<F> {
    score_fn: F,
    quantile: f32,
}

impl<F> ThresholdUser<F>
where
    F: FnMut(UserId, &[ItemId]) -> Vec<f32>,
{
    /// Create a user that accepts items scoring above the given quantile
    /// of the candidate distribution.
    pub fn new(score_fn: F, quantile: f32) -> Self {
        assert!((0.0..1.0).contains(&quantile), "quantile must be in [0,1)");
        ThresholdUser { score_fn, quantile }
    }
}

impl<F> UserModel for ThresholdUser<F>
where
    F: FnMut(UserId, &[ItemId]) -> Vec<f32>,
{
    fn accepts(&mut self, user: UserId, context: &[ItemId], item: ItemId) -> bool {
        let scores = (self.score_fn)(user, context);
        if item >= scores.len() {
            return false;
        }
        let mut sorted = scores.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((sorted.len() as f32 - 1.0) * self.quantile) as usize;
        scores[item] >= sorted[idx]
    }
}

/// Outcome of one interactive persuasion session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionOutcome {
    /// Items the user accepted, in order (the realised influence path).
    pub accepted: Vec<ItemId>,
    /// Items the user rejected, in order of proposal.
    pub rejected: Vec<ItemId>,
    /// Whether the objective was accepted.
    pub reached_objective: bool,
    /// Total number of proposals made (accepted + rejected).
    pub proposals: usize,
}

impl SessionOutcome {
    /// Rejection rate over all proposals.
    pub fn rejection_rate(&self) -> f64 {
        if self.proposals == 0 {
            0.0
        } else {
            self.rejected.len() as f64 / self.proposals as f64
        }
    }
}

/// The state machine of one interactive persuasion session.
///
/// Owns everything the drivers ([`run_interactive_session`],
/// [`run_interactive_sessions`]) and the online serving subsystem
/// (`irs_serve`) need between proposals: the accepted prefix, the
/// per-step rejection blocklist, and the `accepted ⊕ rejected` virtual
/// path shown to the recommender so rejected items are never proposed
/// again.
///
/// Protocol: while [`InteractiveSession::is_done`] is false, ask the
/// recommender for the next item of [`InteractiveSession::query`], then
/// report the user's verdict with [`InteractiveSession::record`] (or
/// [`InteractiveSession::record_give_up`] when the recommender returned
/// `None`).  The session closes when the objective is accepted, the
/// budget of `max_len` accepted items is reached, per-step patience is
/// exhausted, or the recommender gives up.
#[derive(Debug, Clone)]
pub struct InteractiveSession {
    user: UserId,
    history: Vec<ItemId>,
    objective: ItemId,
    max_len: usize,
    patience: usize,
    accepted: Vec<ItemId>,
    rejected: Vec<ItemId>,
    proposals: usize,
    step_rejections: usize,
    reached_objective: bool,
    /// `accepted ⊕ rejected`, the virtual path shown to the recommender.
    virtual_path: Vec<ItemId>,
    done: bool,
}

impl InteractiveSession {
    /// Open a session for `user` with the given viewing history and
    /// persuasion objective.  `max_len` bounds accepted items, `patience`
    /// bounds consecutive rejections within one step.
    pub fn new(
        user: UserId,
        history: Vec<ItemId>,
        objective: ItemId,
        max_len: usize,
        patience: usize,
    ) -> Self {
        InteractiveSession {
            user,
            history,
            objective,
            max_len,
            patience,
            accepted: Vec::new(),
            rejected: Vec::new(),
            proposals: 0,
            step_rejections: 0,
            reached_objective: false,
            virtual_path: Vec::new(),
            done: max_len == 0,
        }
    }

    /// The session's user.
    pub fn user(&self) -> UserId {
        self.user
    }

    /// The persuasion objective.
    pub fn objective(&self) -> ItemId {
        self.objective
    }

    /// The original viewing history.
    pub fn history(&self) -> &[ItemId] {
        &self.history
    }

    /// Items accepted so far (the realised influence path prefix).
    pub fn accepted(&self) -> &[ItemId] {
        &self.accepted
    }

    /// Items rejected so far, in proposal order.
    pub fn rejected(&self) -> &[ItemId] {
        &self.rejected
    }

    /// Whether the session is closed (objective reached, budget or
    /// patience exhausted, or recommender gave up).
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the objective has been accepted.
    pub fn reached_objective(&self) -> bool {
        self.reached_objective
    }

    /// Total proposals made so far (accepted + rejected).
    pub fn proposals(&self) -> usize {
        self.proposals
    }

    /// The context the user decides against: `history ⊕ accepted`.
    pub fn context(&self) -> Vec<ItemId> {
        let mut c = self.history.clone();
        c.extend_from_slice(&self.accepted);
        c
    }

    /// The recommender query for the next proposal.  Must not be called on
    /// a closed session (there is nothing left to ask).
    pub fn query(&self) -> NextQuery<'_> {
        debug_assert!(!self.done, "query() on a closed session");
        NextQuery {
            user: self.user,
            history: &self.history,
            objective: self.objective,
            path: &self.virtual_path,
        }
    }

    /// The recommender could not extend the path: close the session.
    pub fn record_give_up(&mut self) {
        self.done = true;
    }

    /// Record the user's verdict on a proposed `item` and advance the
    /// state machine exactly as the offline drivers do.
    pub fn record(&mut self, item: ItemId, accepted: bool) {
        debug_assert!(!self.done, "record() on a closed session");
        self.proposals += 1;
        if accepted {
            self.accepted.push(item);
            self.step_rejections = 0;
            if item == self.objective {
                self.reached_objective = true;
                self.done = true;
            } else if self.accepted.len() >= self.max_len {
                self.done = true;
            } else {
                self.virtual_path.clear();
                self.virtual_path.extend_from_slice(&self.accepted);
                self.virtual_path.extend_from_slice(&self.rejected);
            }
        } else {
            self.rejected.push(item);
            self.step_rejections += 1;
            if self.step_rejections > self.patience {
                self.done = true;
            } else {
                self.virtual_path.push(item);
            }
        }
    }

    /// Snapshot the session as a [`SessionOutcome`].
    pub fn outcome(&self) -> SessionOutcome {
        SessionOutcome {
            accepted: self.accepted.clone(),
            rejected: self.rejected.clone(),
            reached_objective: self.reached_objective,
            proposals: self.proposals,
        }
    }
}

/// Run an interactive persuasion session.
///
/// At each step the recommender proposes the next path item for the
/// *accepted* context; if the user rejects it, the item joins a blocklist
/// and the recommender is asked again (up to `patience` rejections per
/// step).  The session ends when the objective is accepted, the budget of
/// `max_len` accepted items is reached, per-step patience is exhausted, or
/// the recommender gives up.
pub fn run_interactive_session<R, U>(
    rec: &R,
    user_model: &mut U,
    user: UserId,
    history: &[ItemId],
    objective: ItemId,
    max_len: usize,
    patience: usize,
) -> SessionOutcome
where
    R: InfluenceRecommender + ?Sized,
    U: UserModel + ?Sized,
{
    let mut session = InteractiveSession::new(user, history.to_vec(), objective, max_len, patience);
    while !session.is_done() {
        let q = session.query();
        let Some(item) = rec.next_item(q.user, q.history, q.objective, q.path) else {
            session.record_give_up();
            break;
        };
        let context = session.context();
        let verdict = user_model.accepts(user, &context, item);
        session.record(item, verdict);
    }
    session.outcome()
}

/// Run many interactive persuasion sessions in lockstep: each round every
/// live session requests one proposal, and all requests share a single
/// [`InfluenceRecommender::next_items_into`] call (one batched forward
/// per round for model-backed recommenders).
///
/// Each session follows exactly the [`run_interactive_session`] protocol —
/// for a deterministic user model the outcomes are identical — but the
/// user model is consulted in round-robin order across sessions rather
/// than session by session.
pub fn run_interactive_sessions<R, U>(
    rec: &R,
    user_model: &mut U,
    requests: &[PathRequest<'_>],
    max_len: usize,
    patience: usize,
) -> Vec<SessionOutcome>
where
    R: InfluenceRecommender + ?Sized,
    U: UserModel + ?Sized,
{
    let mut sessions: Vec<InteractiveSession> = requests
        .iter()
        .map(|r| {
            InteractiveSession::new(r.user, r.history.to_vec(), r.objective, max_len, patience)
        })
        .collect();
    let mut live: Vec<usize> =
        sessions.iter().enumerate().filter(|(_, s)| !s.is_done()).map(|(i, _)| i).collect();

    let mut answers = Vec::with_capacity(live.len());
    while !live.is_empty() {
        answers.clear();
        let queries: Vec<NextQuery<'_>> = live.iter().map(|&i| sessions[i].query()).collect();
        rec.next_items_into(&queries, &mut answers);
        let mut still_live = Vec::with_capacity(live.len());
        for (&i, &answer) in live.iter().zip(&answers) {
            let s = &mut sessions[i];
            let Some(item) = answer else {
                s.record_give_up();
                continue;
            };
            let context = s.context();
            let verdict = user_model.accepts(s.user(), &context, item);
            s.record(item, verdict);
            if !s.is_done() {
                still_live.push(i);
            }
        }
        live = still_live;
    }

    sessions.iter().map(InteractiveSession::outcome).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Recommender that proposes items 10, 11, 12, … skipping anything in
    /// the path, and finally the objective.
    struct Counting {
        objective_after: usize,
    }

    impl InfluenceRecommender for Counting {
        fn name(&self) -> String {
            "counting".into()
        }
        fn next_item(
            &self,
            _user: UserId,
            _history: &[ItemId],
            objective: ItemId,
            path: &[ItemId],
        ) -> Option<ItemId> {
            if path.len() >= self.objective_after {
                return Some(objective);
            }
            let mut candidate = 10;
            while path.contains(&candidate) {
                candidate += 1;
            }
            Some(candidate)
        }
    }

    /// Accepts everything.
    struct Agreeable;

    impl UserModel for Agreeable {
        fn accepts(&mut self, _u: UserId, _c: &[ItemId], _i: ItemId) -> bool {
            true
        }
    }

    /// Rejects a fixed set of items.
    struct Picky(Vec<ItemId>);

    impl UserModel for Picky {
        fn accepts(&mut self, _u: UserId, _c: &[ItemId], i: ItemId) -> bool {
            !self.0.contains(&i)
        }
    }

    #[test]
    fn passive_user_reproduces_offline_protocol() {
        let rec = Counting { objective_after: 3 };
        let mut user = Agreeable;
        let out = run_interactive_session(&rec, &mut user, 0, &[1], 99, 10, 3);
        assert!(out.reached_objective);
        assert_eq!(out.accepted.len(), 4); // 3 fillers + objective
        assert!(out.rejected.is_empty());
        assert_eq!(out.rejection_rate(), 0.0);
    }

    #[test]
    fn rejected_items_are_replaced_not_repeated() {
        let rec = Counting { objective_after: 2 };
        let mut user = Picky(vec![10]); // rejects the first proposal
        let out = run_interactive_session(&rec, &mut user, 0, &[1], 99, 10, 3);
        assert!(out.reached_objective);
        assert_eq!(out.rejected, vec![10]);
        assert!(!out.accepted.contains(&10));
        // The replacement proposal (11) was accepted instead.
        assert!(out.accepted.contains(&11));
    }

    #[test]
    fn patience_bounds_per_step_rejections() {
        let rec = Counting { objective_after: 100 };
        // Rejects everything the recommender can propose.
        struct Never;
        impl UserModel for Never {
            fn accepts(&mut self, _u: UserId, _c: &[ItemId], _i: ItemId) -> bool {
                false
            }
        }
        let out = run_interactive_session(&rec, &mut Never, 0, &[1], 99, 10, 2);
        assert!(!out.reached_objective);
        assert!(out.accepted.is_empty());
        assert_eq!(out.rejected.len(), 3); // patience 2 => 3 proposals then stop
    }

    #[test]
    fn budget_caps_accepted_items() {
        let rec = Counting { objective_after: 100 };
        let out = run_interactive_session(&rec, &mut Agreeable, 0, &[1], 99, 4, 3);
        assert_eq!(out.accepted.len(), 4);
        assert!(!out.reached_objective);
    }

    #[test]
    fn lockstep_sessions_match_scalar_driver() {
        // Deterministic recommender + user model: the batched driver must
        // reproduce the scalar outcomes exactly, session by session.
        let rec = Counting { objective_after: 3 };
        let histories: Vec<Vec<ItemId>> = vec![vec![1], vec![2, 3], vec![4]];
        let requests: Vec<PathRequest<'_>> = histories
            .iter()
            .enumerate()
            .map(|(u, h)| PathRequest { user: u, history: h, objective: 99 })
            .collect();
        let batched = run_interactive_sessions(&rec, &mut Picky(vec![10, 12]), &requests, 10, 3);
        for (req, out) in requests.iter().zip(&batched) {
            let scalar = run_interactive_session(
                &rec,
                &mut Picky(vec![10, 12]),
                req.user,
                req.history,
                req.objective,
                10,
                3,
            );
            assert_eq!(*out, scalar, "session for user {} diverged", req.user);
        }
    }

    #[test]
    fn lockstep_sessions_respect_patience_and_budget() {
        struct Never;
        impl UserModel for Never {
            fn accepts(&mut self, _u: UserId, _c: &[ItemId], _i: ItemId) -> bool {
                false
            }
        }
        let rec = Counting { objective_after: 100 };
        let h = vec![1];
        let requests = [PathRequest { user: 0, history: &h, objective: 99 }];
        let out = run_interactive_sessions(&rec, &mut Never, &requests, 10, 2);
        assert_eq!(out[0].rejected.len(), 3);
        assert!(!out[0].reached_objective);

        let out = run_interactive_sessions(&rec, &mut Agreeable, &requests, 4, 2);
        assert_eq!(out[0].accepted.len(), 4);
    }

    #[test]
    fn threshold_user_accepts_top_items_only() {
        // Scores favour small item ids; a 0.5-quantile user accepts the
        // upper half.
        let mut user =
            ThresholdUser::new(|_u, _c: &[ItemId]| vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.0], 0.5);
        assert!(user.accepts(0, &[], 0));
        assert!(user.accepts(0, &[], 2));
        assert!(!user.accepts(0, &[], 5));
    }
}
