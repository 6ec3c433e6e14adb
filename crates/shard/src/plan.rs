//! Landmark → shard partition plans.
//!
//! A plan is a pure description: it never touches simulation state and
//! never affects outcomes (the differential battery proves that). The
//! constructors cover the layouts the tests exercise — balanced
//! contiguous ranges (the default), round-robin striping, and arbitrary
//! maps for adversarial partitions (all landmarks in one shard, one
//! landmark per shard).

/// Why a partition map was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlanError {
    /// A plan must have at least one shard.
    ZeroShards,
    /// An assignment named a shard outside `0..num_shards`.
    ShardOutOfRange {
        /// The offending landmark index.
        landmark: usize,
        /// The shard it was assigned to.
        shard: usize,
        /// The declared shard count.
        num_shards: usize,
    },
}

impl std::fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ShardPlanError::ZeroShards => write!(f, "shard plan needs at least one shard"),
            ShardPlanError::ShardOutOfRange {
                landmark,
                shard,
                num_shards,
            } => write!(
                f,
                "landmark {landmark} assigned to shard {shard}, \
                 but the plan has only {num_shards} shards"
            ),
        }
    }
}

impl std::error::Error for ShardPlanError {}

/// A validated partition of landmark indexes into shards.
///
/// Shards may be empty (a plan with more shards than landmarks is legal;
/// the adversarial tests rely on it). Every landmark belongs to exactly
/// one shard, and [`ShardPlan::landmarks_of`] lists each shard's
/// landmarks in ascending index order — the order the commit phase
/// walks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    /// `assign[landmark] = shard`.
    assign: Vec<usize>,
    /// `groups[shard]` = that shard's landmarks, ascending.
    groups: Vec<Vec<usize>>,
}

impl ShardPlan {
    /// Everything in one shard: the sequential layout every other plan
    /// must reproduce byte-for-byte.
    pub fn single(num_landmarks: usize) -> ShardPlan {
        ShardPlan {
            assign: vec![0; num_landmarks],
            groups: vec![(0..num_landmarks).collect()],
        }
    }

    /// Balanced contiguous ranges: the first `num_landmarks % shards`
    /// shards hold one extra landmark. `shards == 0` is clamped to 1;
    /// shards beyond the landmark count stay empty.
    pub fn contiguous(num_landmarks: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let base = num_landmarks / shards;
        let extra = num_landmarks % shards;
        let mut assign = Vec::with_capacity(num_landmarks);
        let mut groups = vec![Vec::new(); shards];
        let mut next = 0usize;
        for (s, group) in groups.iter_mut().enumerate() {
            let len = base + usize::from(s < extra);
            for _ in 0..len {
                assign.push(s);
                group.push(next);
                next += 1;
            }
        }
        ShardPlan { assign, groups }
    }

    /// Round-robin striping (`landmark % shards`): deliberately scatters
    /// neighbouring landmarks across shards, so commits interleave across
    /// shard boundaries — a stress layout for the ascending-id reduction.
    pub fn round_robin(num_landmarks: usize, shards: usize) -> ShardPlan {
        let shards = shards.max(1);
        let mut assign = Vec::with_capacity(num_landmarks);
        let mut groups = vec![Vec::new(); shards];
        for lm in 0..num_landmarks {
            let s = lm % shards;
            assign.push(s);
            groups[s].push(lm);
        }
        ShardPlan { assign, groups }
    }

    /// An arbitrary partition map (`assign[landmark] = shard`) with an
    /// explicit shard count, which may exceed the highest shard actually
    /// used — that is how the adversarial "all landmarks in one shard of
    /// eight" layout is built.
    pub fn from_assignment(
        assign: Vec<usize>,
        num_shards: usize,
    ) -> Result<ShardPlan, ShardPlanError> {
        if num_shards == 0 {
            return Err(ShardPlanError::ZeroShards);
        }
        let mut groups = vec![Vec::new(); num_shards];
        for (landmark, &shard) in assign.iter().enumerate() {
            if shard >= num_shards {
                return Err(ShardPlanError::ShardOutOfRange {
                    landmark,
                    shard,
                    num_shards,
                });
            }
            groups[shard].push(landmark);
        }
        Ok(ShardPlan { assign, groups })
    }

    /// Number of shards (≥ 1; some may be empty).
    pub fn num_shards(&self) -> usize {
        self.groups.len()
    }

    /// Number of partitioned landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.assign.len()
    }

    /// The landmarks of `shard`, ascending.
    pub fn landmarks_of(&self, shard: usize) -> &[usize] {
        self.groups.get(shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All shard groups, ascending shard index (each group ascending by
    /// landmark index).
    pub fn groups(&self) -> &[Vec<usize>] {
        &self.groups
    }

    /// True when the plan is the degenerate single-shard layout.
    pub fn is_single(&self) -> bool {
        self.groups.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_owns_everything() {
        let p = ShardPlan::single(5);
        assert_eq!(p.num_shards(), 1);
        assert!(p.is_single());
        assert_eq!(p.landmarks_of(0), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn contiguous_is_balanced_and_covers() {
        let p = ShardPlan::contiguous(10, 4);
        assert_eq!(p.num_shards(), 4);
        assert_eq!(p.landmarks_of(0), &[0, 1, 2]);
        assert_eq!(p.landmarks_of(1), &[3, 4, 5]);
        assert_eq!(p.landmarks_of(2), &[6, 7]);
        assert_eq!(p.landmarks_of(3), &[8, 9]);
        let total: usize = p.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn contiguous_with_more_shards_than_landmarks_leaves_empties() {
        let p = ShardPlan::contiguous(3, 8);
        assert_eq!(p.num_shards(), 8);
        assert_eq!(p.landmarks_of(0), &[0]);
        assert_eq!(p.landmarks_of(2), &[2]);
        assert!(p.landmarks_of(3).is_empty());
        assert!(p.landmarks_of(7).is_empty());
    }

    #[test]
    fn zero_shards_clamps_in_layouts_and_errors_in_maps() {
        assert_eq!(ShardPlan::contiguous(4, 0).num_shards(), 1);
        assert_eq!(ShardPlan::round_robin(4, 0).num_shards(), 1);
        assert_eq!(
            ShardPlan::from_assignment(vec![0], 0),
            Err(ShardPlanError::ZeroShards)
        );
    }

    #[test]
    fn round_robin_stripes() {
        let p = ShardPlan::round_robin(7, 3);
        assert_eq!(p.landmarks_of(0), &[0, 3, 6]);
        assert_eq!(p.landmarks_of(1), &[1, 4]);
        assert_eq!(p.landmarks_of(2), &[2, 5]);
    }

    #[test]
    fn from_assignment_validates_range() {
        let p = ShardPlan::from_assignment(vec![7, 7, 7], 8).unwrap();
        assert_eq!(p.num_shards(), 8);
        assert_eq!(p.landmarks_of(7), &[0, 1, 2]);
        assert!(p.landmarks_of(0).is_empty());

        let err = ShardPlan::from_assignment(vec![0, 3], 3).unwrap_err();
        assert_eq!(
            err,
            ShardPlanError::ShardOutOfRange {
                landmark: 1,
                shard: 3,
                num_shards: 3
            }
        );
        assert!(err.to_string().contains("landmark 1"));
    }
}
