//! # qt-sdfg — a data-centric intermediate representation
//!
//! A from-scratch reimplementation of the Stateful DataFlow multiGraph
//! (SDFG) machinery the paper builds on: symbolic integer expressions,
//! symbolic memlet subsets, memlet propagation through map scopes
//! (including performance-engineer-supplied indirection models, §4.1), a
//! transformable scope-tree representation, the six graph transformations of
//! §4.2 (map tiling, fission, redundancy removal, data layout,
//! expansion/GEMM substitution, fusion), data-movement statistics, and
//! GraphViz export of the flat node/edge view used in the paper's figures.

pub mod frontend;
pub mod graph;
mod json;
pub mod library;
pub mod propagate;
pub mod sdfg;
pub mod stree;
pub mod subset;
pub mod symexpr;
pub mod transforms;

pub use frontend::{parse_program, ParseError, FIG5_SSE_SIGMA};
pub use graph::StateGraph;
pub use propagate::{propagate_index, propagate_subset, IndirectionModel, ParamRange};
pub use sdfg::{qt_simulation_sdfg, InterstateEdge, Sdfg};
pub use stree::{Access, ArrayDesc, Dtype, Node, OpKind, ScopeTree, TreeStats};
pub use subset::{Dim, Range, Subset};
pub use symexpr::{Bindings, SymExpr};
pub use transforms::TileSpec;
