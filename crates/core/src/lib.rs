#![warn(missing_docs, clippy::missing_errors_doc, clippy::missing_panics_doc)]

//! **Skyline with presorting** — a full implementation of the SFS
//! (Sort-Filter-Skyline) algorithm of Chomicki, Godfrey, Gryz & Liang
//! (ICDE 2003), its baselines, and the theory underneath.
//!
//! # Two tiers
//!
//! *In-memory*: [`builder::SkylineBuilder`] is the friendly API —
//! declare `max`/`min`/`diff` criteria over any item type and compute
//! skylines, strata, or labels. The algorithm cores live in [`algo`]
//! (SFS, BNL, divide-and-conquer, and the naive O(n²) oracle) over flat
//! [`keys::KeyMatrix`] rows.
//!
//! *External / relational*: [`external::Sfs`] and [`external::Bnl`] are
//! Volcano operators over fixed-width record streams with windows measured
//! in buffer pages and overflow to temp heap files — the paper's actual
//! algorithms, instrumented with [`metrics::SkylineMetrics`] (dominance
//! comparisons, passes, temp records). [`planner`] wires the sort phase
//! (any monotone order from [`score`]) and the filter phase together the
//! way the paper's experiments do.
//!
//! # The theory, as code
//!
//! * [`dominance`] — the dominance partial order, MIN/MAX/DIFF specs.
//! * [`score`] — monotone scoring functions (Definition 1): entropy
//!   (§4.3), positive linear (Definition 3, Theorem 4), composed witnesses
//!   (Theorem 5), and the sort comparators whose orders are topological
//!   w.r.t. dominance (Theorems 6 & 7).
//! * [`cardinality`] — expected skyline size, exact recurrence and the
//!   `Θ((ln n)^{d−1}/(d−1)!)` asymptotic the paper cites.
//! * [`strata`] — skyline strata (§4.4), external and in-memory.

pub mod algebra;
pub mod algo;
pub mod audit;
pub mod builder;
pub mod cardinality;
pub mod dominance;
pub mod dominance_block;
pub mod external;
pub mod histogram;
pub mod keys;
pub mod lowdim;
pub mod maintain;
pub mod metrics;
pub mod par;
pub mod planner;
pub mod preference;
pub mod score;
pub mod skyband;
pub mod strata;
pub mod winnow;

pub use builder::{MemAlgorithm, SkylineBuilder};
pub use dominance::{dom_rel, dominates, Criterion, Direction, DomRel, SkylineSpec};
pub use dominance_block::{
    BlockVerdict, BlockWindow, PrefixArena, ProbeCost, ReplaceWindow, BLOCK_LANES,
};
pub use external::{
    batch_presort, batch_skyband, batch_strata, batch_top_n, parallel_batch_filter,
    parallel_sfs_filter, sharded_skyline, BatchBnl, BatchConfig, BatchFilterOutcome, BatchSfs, Bnl,
    KeySumScore, MaterializeRows, NarrowCmp, ParFilterOutcome, Sfs, SfsConfig, ShardConfig,
    ShardOutcome, ShardStats, ShardStrategy, SpecKeys,
};
pub use keys::KeyMatrix;
pub use metrics::{MetricsSnapshot, SkylineMetrics};
pub use par::{
    parallel_skyline, parallel_skyline_cancellable, parallel_skyline_heap, AlgoError, ParError,
};
pub use score::{EntropyScore, LinearScore, MonotoneScore, SkylineOrderCmp, SortOrder};
