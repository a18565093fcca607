//! # qt-dist — distributed substrate and communication schemes
//!
//! A thread-backed MPI-like world with exact byte accounting, the paper's
//! two data distributions (OMEN's momentum×energy and DaCe's energy×atom
//! tiling), and runnable implementations of both SSE communication schemes
//! whose measured volumes follow the closed forms of §4.1.

pub mod comm;
pub mod decomp;
pub mod fault;
pub mod pool;
pub mod runner;
pub mod schemes;
pub mod volume;

pub use comm::{run_elastic_world, run_world, CommError, LivenessConfig, ThreadComm};
pub use decomp::ElasticTiling;
pub use pool::{RankLease, RankPool};
pub use runner::{maybe_rebalance, DistSse, REBALANCE_THRESHOLD};
pub use schemes::{ca_exchange, BalanceStats, ElasticExchange, ElasticPolicy};
