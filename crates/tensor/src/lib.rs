//! # gaudi-tensor
//!
//! A small, self-contained CPU tensor library that serves as the *numeric
//! substrate* of the Gaudi simulator workspace.
//!
//! The Habana Gaudi processor accepts tensors with **1 to 5 dimensions** (a
//! constraint of its TPC tensor-addressing hardware); this library enforces
//! the same limit so that any graph that executes here would also be
//! expressible on the real device.
//!
//! Compute is always performed in `f32`. Lower-precision dtypes (`bf16`,
//! integer types) are emulated: values are rounded through the narrow format
//! on request and the dtype determines how many bytes the simulator's memory
//! model charges for the tensor.
//!
//! The library provides exactly the operator set exercised by the paper
//! (Table 1 plus the operators the Transformer builders need):
//! element-wise arithmetic, (batched) matrix multiplication, reductions,
//! numerically-stable softmax, layer normalization, and the activation
//! functions evaluated in Figure 7 (ReLU, LeakyReLU, GELU, GLU) plus ELU
//! (Linear Transformer) and the exponential map (Performer).

pub mod dtype;
pub mod error;
pub mod ops;
pub mod rng;
pub mod shape;
pub mod tensor;

pub use dtype::DType;
pub use error::{Result, TensorError};
pub use rng::SeededRng;
pub use shape::Shape;
pub use tensor::Tensor;
