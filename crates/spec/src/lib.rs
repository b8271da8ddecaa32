//! # cosa-spec
//!
//! Problem and architecture specifications for the CoSA reproduction
//! (Huang et al., *CoSA: Scheduling by Constrained Optimization for Spatial
//! Accelerators*, ISCA 2021).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Dim`] — the seven loop dimensions `R, S, P, Q, C, K, N` of a
//!   convolution / matmul operator (Sec. III-A.1 of the paper).
//! * [`Layer`] — a DNN layer specification with strides, plus the
//!   `R_P_C_K_Stride` naming convention used by the paper's figures.
//! * [`DataTensor`] — the three data tensors (weights, input activations,
//!   output activations) together with the constant dimension–tensor
//!   relevance matrix `A` (Table IV, left).
//! * [`Arch`] / [`MemLevel`] — the spatial-accelerator template of Fig. 2 and
//!   Table V: a multi-level memory hierarchy, a PE array on a 2-D mesh NoC,
//!   and the memory-level-to-tensor matrix `B` (Table IV, right).
//! * [`Schedule`] — the loop-nest schedule representation of Listing 1:
//!   per-memory-level loops with bounds, spatial/temporal mapping and
//!   permutation order.
//! * [`workloads`] — the four DNN benchmark suites evaluated in the paper
//!   (AlexNet, ResNet-50, ResNeXt-50 (32x4d), DeepBench).
//! * [`Network`] / [`Suite`] — execution-ordered whole-network workloads
//!   with per-layer repeat counts, the batch-scheduling unit of the
//!   umbrella crate's `Engine`.
//! * [`fanout`] — the caller-inclusive thread fan-out the engine and the
//!   NoC simulator share.
//!
//! # Example
//!
//! ```
//! use cosa_spec::{Layer, Arch, Dim};
//!
//! // ResNet-50 layer "3_7_512_512_1" (R=S=3, P=Q=7, C=512, K=512, stride 1).
//! let layer = Layer::parse_paper_name("3_7_512_512_1")?;
//! assert_eq!(layer.dim(Dim::C), 512);
//!
//! let arch = Arch::simba_baseline();
//! assert_eq!(arch.num_pes(), 16);
//! # Ok::<(), cosa_spec::SpecError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
pub mod canon;
mod dims;
mod error;
pub mod fanout;
mod layer;
pub mod mapspace;
pub mod network;
pub mod primes;
mod schedule;
mod tensor;
pub mod workloads;

pub use arch::{Arch, ArchBuilder, MemLevel, NocParams};
pub use dims::{Dim, DimMap};
pub use error::SpecError;
pub use layer::Layer;
pub use network::{InterlayerEdge, Network, NetworkLayer, Suite};
pub use schedule::{Loop, LoopNest, Schedule, TileShape};
pub use tensor::{DataTensor, TensorSizes};
