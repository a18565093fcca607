//! # qt-linalg — numeric substrate for the quantum-transport simulator
//!
//! From-scratch complex linear algebra tailored to what the NEGF solver
//! needs: dense row-major matrices on a BLIS-style packed, cache-blocked,
//! register-tiled GEMM (see [`gemm`] and DESIGN.md "GEMM substrate"), batched
//! small GEMMs (the SSE hot loop), LU factorization (RGF block inverses), CSR
//! sparse kernels (the Table 6 design space), block tri-diagonal containers,
//! N-D tensors with layout permutation, global flop accounting (our
//! substitute for the paper's `nvprof` counts), and [`par`] — the one
//! thread fan-out every layer above shares.

pub mod block_tridiag;
pub mod complex;
pub mod csr;
pub mod dense;
pub mod eig;
pub mod flops;
pub mod gemm;
pub mod lu;
pub mod par;
pub mod tensor;
pub mod workspace;

pub use block_tridiag::BlockTridiag;
pub use complex::{c64, Complex64};
pub use csr::CsrMatrix;
pub use dense::Matrix;
pub use eig::{eigh, psd_project_scaled_in_place, psd_projection, Eigh};
pub use flops::{add_flops, count_flops, flop_count};
pub use lu::{invert, invert_ws, solve, Lu, SingularMatrix};
pub use tensor::Tensor;
