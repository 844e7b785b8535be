//! Memory-hierarchy substrate for the NDC manycore.
//!
//! Four pieces, composed by the simulator:
//!
//! * [`cache::SetAssocCache`] — a timed, LRU, set-associative cache used
//!   for both the per-core L1s and the static-NUCA L2 banks (Table 1
//!   geometries). Lines carry their fill timestamp so the simulator can
//!   measure L2-residency arrival windows.
//! * [`sharers::SharerFilter`] — L1 coherence read from L1 residency:
//!   a write invalidates every other L1 copy of its line, found through
//!   a fixed-size candidate filter over the L1 tags. The resulting
//!   *coherence misses* are exactly what the paper's CME estimator does
//!   not model, driving the Table 2 accuracy gap.
//! * [`directory::Directory`] — the full-map sharer directory the
//!   filter replaced, kept for the lane engine's deferred directory log
//!   and as the reference the filter is checked against.
//! * [`dram::MemoryController`] — a banked DRAM channel with open-row
//!   buffers and FR-FCFS-flavoured timing: row hits, row misses
//!   (activations) and row conflicts (precharge+activate) cost
//!   different latencies, banks serialize on their busy horizon, and
//!   the shared data channel serializes bursts.

pub mod cache;
pub mod directory;
pub mod dram;
pub mod sharers;

pub use cache::{AccessOutcome, CacheStats, SetAssocCache};
pub use directory::{DirStats, Directory, MAX_CORES};
pub use dram::{McAccess, McStats, MemoryController, RowOutcome};
pub use sharers::SharerFilter;
