//! The workspace-level error type.

use gaudi_graph::GraphError;
use gaudi_hw::fault::FaultError;
use gaudi_hw::memory::OutOfMemory;
use gaudi_runtime::RuntimeError;
use gaudi_serving::ServingError;
use gaudi_tensor::TensorError;

/// Any error the workspace can produce, so application code (examples,
/// benches, downstream users) can write `Result<T, GaudiError>` and `?`
/// through every layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum GaudiError {
    /// Graph construction, validation, or compilation failed.
    Graph(GraphError),
    /// Tensor numerics failed (shape mismatch, bad dtype…).
    Tensor(TensorError),
    /// The runtime could not execute a compiled plan.
    Runtime(RuntimeError),
    /// The serving simulator rejected its configuration or workload.
    Serving(ServingError),
    /// A modelled HBM allocation overflowed device capacity.
    OutOfMemory(OutOfMemory),
    /// The session's fault plan is malformed (unknown device, bad factor…).
    Fault(FaultError),
    /// The session's overload-protection policy is malformed (negative
    /// deadline, jitter outside `[0, 1]`, zero-size queue bound…).
    Robustness(String),
    /// The session configuration is inconsistent (e.g. a parallelism plan
    /// needing more cards than the session has).
    Config(String),
}

impl std::fmt::Display for GaudiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GaudiError::Graph(e) => write!(f, "graph: {e}"),
            GaudiError::Tensor(e) => write!(f, "tensor: {e}"),
            GaudiError::Runtime(e) => write!(f, "runtime: {e}"),
            GaudiError::Serving(e) => write!(f, "serving: {e}"),
            GaudiError::OutOfMemory(e) => write!(f, "out of device memory: {e}"),
            GaudiError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            GaudiError::Robustness(msg) => write!(f, "invalid robustness policy: {msg}"),
            GaudiError::Config(msg) => write!(f, "invalid session config: {msg}"),
        }
    }
}

impl std::error::Error for GaudiError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GaudiError::Graph(e) => Some(e),
            GaudiError::Tensor(e) => Some(e),
            GaudiError::Runtime(e) => Some(e),
            GaudiError::Serving(e) => Some(e),
            GaudiError::OutOfMemory(e) => Some(e),
            GaudiError::Fault(e) => Some(e),
            GaudiError::Robustness(_) => None,
            GaudiError::Config(_) => None,
        }
    }
}

impl From<GraphError> for GaudiError {
    fn from(e: GraphError) -> Self {
        GaudiError::Graph(e)
    }
}

impl From<TensorError> for GaudiError {
    fn from(e: TensorError) -> Self {
        GaudiError::Tensor(e)
    }
}

impl From<RuntimeError> for GaudiError {
    fn from(e: RuntimeError) -> Self {
        GaudiError::Runtime(e)
    }
}

impl From<ServingError> for GaudiError {
    fn from(e: ServingError) -> Self {
        GaudiError::Serving(e)
    }
}

impl From<OutOfMemory> for GaudiError {
    fn from(e: OutOfMemory) -> Self {
        GaudiError::OutOfMemory(e)
    }
}

impl From<FaultError> for GaudiError {
    fn from(e: FaultError) -> Self {
        GaudiError::Fault(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn wraps_and_sources_every_layer() {
        let e: GaudiError = GraphError::Autograd("maximum").into();
        assert!(e.source().is_some());
        assert!(e.to_string().starts_with("graph:"));

        let e: GaudiError = ServingError::InvalidConfig("x".into()).into();
        assert!(matches!(e, GaudiError::Serving(_)));
        assert!(e.to_string().contains("invalid serving config"));
    }

    #[test]
    fn question_mark_composes_across_layers() {
        fn build() -> Result<(), GaudiError> {
            let mut g = gaudi_graph::Graph::new();
            let x = g.input("x", &[2, 3])?;
            let y = g.input("y", &[4, 5])?;
            g.matmul(x, y)?; // 3 != 4 → shape error via GraphError
            Ok(())
        }
        assert!(matches!(build(), Err(GaudiError::Graph(_))));
    }
}
