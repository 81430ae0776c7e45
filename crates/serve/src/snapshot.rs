//! Model snapshot registry with atomic hot-swap.
//!
//! A [`ModelSnapshot`] owns one immutable trained recommender plus its
//! metadata.  For IRN snapshots the model's PIM cache (shared base mask +
//! per-user `r_u`) lives *inside* the model, so every request scheduled
//! against a snapshot shares one cache, and swapping snapshots swaps the
//! cache with the weights — no stale-mask hazard.
//!
//! [`SnapshotRegistry::swap`] publishes a new snapshot atomically: the
//! scheduler grabs `current()` once per micro-batch, so a batch is always
//! scored by exactly one snapshot, and in-flight batches finish on the
//! snapshot they started with (the `Arc` keeps it alive until the last
//! batch drops it).
//!
//! ## Arms
//!
//! The registry holds [`NUM_ARMS`] independently swappable slots so a
//! server can split traffic between a *stable* model (arm 0, what
//! `current()`/`swap()` have always addressed) and a *canary* (arm
//! [`CANARY_ARM`], where the online trainer publishes).  Versions are
//! allocated from one shared counter, so a version number identifies a
//! unique parameter set across arms — per-session context caches tag
//! their generation with it and stay sound when a session's arm slot is
//! republished or promoted.  [`SnapshotRegistry::promote`] copies the
//! canary's `(snapshot, version)` pair into the stable slot (sharing the
//! `Arc` and the version is exactly right: the weights are identical, so
//! caches minted against the canary stay valid); `rollback` overwrites
//! the canary with the stable slot the same way.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use irs_core::{InfluenceRecommender, Irn, IrnConfig};
use irs_nn::IrspRecord;

/// The recommender trait object a snapshot serves.
pub type ServedModel = Box<dyn InfluenceRecommender + Send + Sync>;

/// One immutable model snapshot.
pub struct ModelSnapshot {
    /// Operator-facing label (e.g. the source file name).
    pub label: String,
    /// The served model.
    pub model: ServedModel,
    /// IRSP parameter summary when loaded from a file (empty for
    /// in-memory models).
    pub params: Vec<IrspRecord>,
    /// Catalogue size when known — lets the frontend reject requests with
    /// out-of-catalogue item ids before they reach an embedding lookup.
    pub num_items: Option<usize>,
}

impl ModelSnapshot {
    /// Wrap an in-memory recommender (tests, load generators).
    pub fn in_memory(label: impl Into<String>, model: ServedModel) -> Self {
        ModelSnapshot { label: label.into(), model, params: Vec::new(), num_items: None }
    }

    /// Wrap an in-memory recommender over a known catalogue size.
    pub fn in_memory_with_catalogue(
        label: impl Into<String>,
        model: ServedModel,
        num_items: usize,
    ) -> Self {
        ModelSnapshot { label: label.into(), model, params: Vec::new(), num_items: Some(num_items) }
    }

    /// Total scalar parameter count of the snapshot.
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(IrspRecord::numel).sum()
    }
}

/// Everything needed to materialise IRN snapshots from `IRSP` files: the
/// architecture is fixed at server start, and every swap is checked
/// against it (name/shape matching in `ParamStore::load_parameters`), so
/// a mismatched file is rejected instead of served.
#[derive(Clone)]
pub struct IrnArchitecture {
    /// Catalogue size the model was trained for.
    pub num_items: usize,
    /// User count the model was trained for.
    pub num_users: usize,
    /// Model hyperparameters.
    pub config: IrnConfig,
}

impl IrnArchitecture {
    /// Load an `IRSP` file into a fresh model of this architecture.
    pub fn load_snapshot(&self, path: &str) -> io::Result<ModelSnapshot> {
        let bytes = std::fs::read(path)?;
        let params = irs_nn::irsp_summary(&bytes[..])?;
        let model = Irn::load(&bytes[..], self.num_items, self.num_users, &self.config)?;
        Ok(ModelSnapshot {
            label: path.to_string(),
            model: Box::new(model),
            params,
            num_items: Some(self.num_items),
        })
    }
}

/// A function that turns a snapshot path into a loaded [`ModelSnapshot`]
/// (the HTTP frontend's hot-swap hook; [`IrnArchitecture::load_snapshot`]
/// is the standard implementation).
pub type SnapshotLoader = Arc<dyn Fn(&str) -> io::Result<ModelSnapshot> + Send + Sync>;

/// Number of traffic arms a registry holds (stable + canary).
pub const NUM_ARMS: usize = 2;

/// The arm the online trainer publishes to.
pub const CANARY_ARM: usize = 1;

/// One arm's consistently-versioned snapshot slot.
struct ArmSlot {
    snapshot: Arc<ModelSnapshot>,
    version: u64,
}

/// Atomically swappable registry of the currently served snapshots, one
/// slot per traffic arm (see module docs).
pub struct SnapshotRegistry {
    arms: [RwLock<ArmSlot>; NUM_ARMS],
    /// Shared allocator: every publish to any arm draws a globally
    /// unique version, so cache generations never collide across arms.
    next_version: AtomicU64,
    swaps: AtomicU64,
}

impl SnapshotRegistry {
    /// Create a registry serving `initial` as version 1 on every arm
    /// (all arms share the one `Arc` until something is published).
    pub fn new(initial: ModelSnapshot) -> Self {
        let shared = Arc::new(initial);
        SnapshotRegistry {
            arms: std::array::from_fn(|_| {
                RwLock::new(ArmSlot { snapshot: shared.clone(), version: 1 })
            }),
            next_version: AtomicU64::new(2),
            swaps: AtomicU64::new(0),
        }
    }

    /// The currently served stable snapshot (cheap `Arc` clone under a
    /// read lock; the lock is never held across a forward pass).
    pub fn current(&self) -> Arc<ModelSnapshot> {
        self.arm(0)
    }

    /// Read-lock the slot of `arm`, clamped into range.
    fn slot(&self, arm: usize) -> RwLockReadGuard<'_, ArmSlot> {
        self.arms[arm.min(NUM_ARMS - 1)].read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The snapshot served on `arm` (indices clamp into range so a
    /// corrupt arm id degrades to the stable model, never a panic).
    pub fn arm(&self, arm: usize) -> Arc<ModelSnapshot> {
        self.slot(arm).snapshot.clone()
    }

    /// The arm's snapshot together with its version, read consistently:
    /// the read lock covers both, and every publish replaces them under
    /// the write guard, so the pair can never mix an old snapshot with a
    /// new version.  Per-session context caches are tagged with this
    /// version (their generation) so a publish invalidates them instead
    /// of replaying them against new weights.
    pub fn arm_versioned(&self, arm: usize) -> (Arc<ModelSnapshot>, u64) {
        let guard = self.slot(arm);
        (guard.snapshot.clone(), guard.version)
    }

    /// Version currently served on `arm`.
    pub fn arm_version(&self, arm: usize) -> u64 {
        self.slot(arm).version
    }

    /// Publish a new snapshot to an arm; returns its new (globally
    /// unique) version number.
    pub fn publish(&self, arm: usize, snapshot: ModelSnapshot) -> u64 {
        let slot =
            &mut *self.arms[arm.min(NUM_ARMS - 1)].write().unwrap_or_else(PoisonError::into_inner);
        // Allocated under the write guard so versions are monotonic per
        // arm even under concurrent publishes.
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        slot.snapshot = Arc::new(snapshot);
        slot.version = version;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// Publish a new snapshot to the stable arm (the historical
    /// single-arm entry point — `POST /v1/admin/swap`); returns the new
    /// version number.
    pub fn swap(&self, snapshot: ModelSnapshot) -> u64 {
        self.publish(0, snapshot)
    }

    /// Promote `arm` to stable: the stable slot takes the winner's
    /// `(snapshot, version)` pair.  Sharing the `Arc` and version is
    /// sound — identical weights mean caches minted on either arm stay
    /// valid.  Returns the promoted version.  A no-op returning the
    /// current stable version when `arm` is already 0.
    pub fn promote(&self, arm: usize) -> u64 {
        let arm = arm.min(NUM_ARMS - 1);
        if arm == 0 {
            return self.arm_version(0);
        }
        // Lock order: stable (0) before canary — promote and rollback
        // both take them in this order, so they cannot deadlock.
        let mut stable = self.arms[0].write().unwrap_or_else(PoisonError::into_inner);
        let winner = self.arms[arm].read().unwrap_or_else(PoisonError::into_inner);
        stable.snapshot = winner.snapshot.clone();
        stable.version = winner.version;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        stable.version
    }

    /// Roll the canary back to the stable snapshot (same `(snapshot,
    /// version)` sharing as promote, in the other direction).  Returns
    /// the version now served on the canary.
    pub fn rollback(&self) -> u64 {
        let stable = self.arms[0].write().unwrap_or_else(PoisonError::into_inner);
        let mut canary = self.arms[CANARY_ARM].write().unwrap_or_else(PoisonError::into_inner);
        canary.snapshot = stable.snapshot.clone();
        canary.version = stable.version;
        self.swaps.fetch_add(1, Ordering::Relaxed);
        canary.version
    }

    /// Version of the stable snapshot (1 for the initial model, bumped
    /// by every publish anywhere).
    pub fn version(&self) -> u64 {
        self.arm_version(0)
    }

    /// Number of completed publish/promote/rollback operations.
    pub fn swap_count(&self) -> u64 {
        self.swaps.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_data::{ItemId, UserId};

    struct Fixed(ItemId);
    impl InfluenceRecommender for Fixed {
        fn name(&self) -> String {
            "fixed".into()
        }
        fn next_item(
            &self,
            _user: UserId,
            _history: &[ItemId],
            _objective: ItemId,
            _path: &[ItemId],
        ) -> Option<ItemId> {
            Some(self.0)
        }
    }

    #[test]
    fn swap_publishes_atomically_and_bumps_version() {
        let reg = SnapshotRegistry::new(ModelSnapshot::in_memory("v1", Box::new(Fixed(1))));
        assert_eq!(reg.version(), 1);
        let before = reg.current();
        assert_eq!(before.model.next_item(0, &[], 9, &[]), Some(1));

        let v = reg.swap(ModelSnapshot::in_memory("v2", Box::new(Fixed(2))));
        assert_eq!(v, 2);
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.swap_count(), 1);
        // The old Arc still answers with the old model (in-flight batches
        // finish on the snapshot they started with).
        assert_eq!(before.model.next_item(0, &[], 9, &[]), Some(1));
        assert_eq!(reg.current().model.next_item(0, &[], 9, &[]), Some(2));
        assert_eq!(reg.current().label, "v2");
        // The stable swap left the canary untouched.
        assert_eq!(reg.arm(CANARY_ARM).label, "v1");
        assert_eq!(reg.arm_version(CANARY_ARM), 1);
    }

    #[test]
    fn arms_publish_promote_and_roll_back_independently() {
        let reg = SnapshotRegistry::new(ModelSnapshot::in_memory("base", Box::new(Fixed(1))));
        // Both arms start on the shared initial snapshot, version 1.
        assert_eq!(reg.arm_version(0), 1);
        assert_eq!(reg.arm_version(CANARY_ARM), 1);

        let v = reg.publish(CANARY_ARM, ModelSnapshot::in_memory("canary", Box::new(Fixed(7))));
        assert_eq!(v, 2);
        assert_eq!(reg.arm_version(CANARY_ARM), 2);
        assert_eq!(reg.arm_version(0), 1, "stable arm unaffected by a canary publish");
        assert_eq!(reg.arm(CANARY_ARM).model.next_item(0, &[], 9, &[]), Some(7));
        assert_eq!(reg.current().model.next_item(0, &[], 9, &[]), Some(1));

        // Promote: stable takes the canary's (snapshot, version) pair.
        let promoted = reg.promote(CANARY_ARM);
        assert_eq!(promoted, 2);
        assert_eq!(reg.version(), 2);
        assert_eq!(reg.current().label, "canary");
        let (snap0, v0) = reg.arm_versioned(0);
        let (snap1, v1) = reg.arm_versioned(CANARY_ARM);
        assert_eq!(v0, v1, "promote shares the version (identical weights)");
        assert!(Arc::ptr_eq(&snap0, &snap1), "promote shares the Arc");

        // A later canary publish gets a fresh global version…
        let v = reg.publish(CANARY_ARM, ModelSnapshot::in_memory("bad", Box::new(Fixed(9))));
        assert_eq!(v, 3);
        // …and rollback restores the stable pair on the canary.
        let rolled = reg.rollback();
        assert_eq!(rolled, 2);
        assert_eq!(reg.arm(CANARY_ARM).label, "canary");
        assert_eq!(reg.arm_version(CANARY_ARM), reg.arm_version(0));

        // Promoting arm 0 onto itself is a no-op.
        assert_eq!(reg.promote(0), reg.version());
        // Out-of-range arm ids clamp to the last arm instead of panicking.
        assert_eq!(reg.arm_version(99), reg.arm_version(NUM_ARMS - 1));
    }

    #[test]
    fn irn_architecture_round_trips_and_rejects_mismatch() {
        use irs_data::split::SubSeq;
        let seqs: Vec<SubSeq> = (0..8)
            .map(|s| SubSeq { user: s % 3, items: (0..6).map(|k| (s + k) % 8).collect() })
            .collect();
        let train = irs_core::NeuralTrainConfig { epochs: 1, ..Default::default() };
        let config = IrnConfig {
            dim: 8,
            user_dim: 4,
            layers: 1,
            heads: 2,
            max_len: 8,
            train,
            ..Default::default()
        };
        let model = Irn::fit(&seqs, &[], 8, 3, &config, None);
        let dir = std::env::temp_dir().join("irs_serve_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.irsp");
        model.save(std::fs::File::create(&path).unwrap()).unwrap();

        let arch = IrnArchitecture { num_items: 8, num_users: 3, config: config.clone() };
        let snap = arch.load_snapshot(path.to_str().unwrap()).unwrap();
        assert!(!snap.params.is_empty());
        assert!(snap.num_scalars() > 0);
        assert_eq!(
            snap.model.next_item(0, &[0, 1], 5, &[]),
            model.next_item(0, &[0, 1], 5, &[]),
            "loaded snapshot must answer like the original"
        );

        let mut wrong = arch.clone();
        wrong.config.dim = 16;
        assert!(wrong.load_snapshot(path.to_str().unwrap()).is_err());
    }
}
