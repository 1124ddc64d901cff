//! Serving-layer errors.

use gaudi_graph::GraphError;
use gaudi_hw::fault::FaultError;
use gaudi_hw::memory::OutOfMemory;

/// Anything that can go wrong while setting up or running a serving
/// simulation.
#[derive(Debug)]
pub enum ServingError {
    /// A phase graph failed to build or compile.
    Graph(GraphError),
    /// The model weights alone exceed device HBM.
    WeightsDontFit(OutOfMemory),
    /// A single request can never fit on the device (prompt + output KV
    /// larger than HBM minus weights), so no amount of queueing helps.
    RequestTooLarge {
        /// Offending request id.
        id: u64,
        /// Its total token footprint.
        tokens: usize,
        /// The largest admissible footprint.
        max_tokens: u64,
    },
    /// Configuration rejected before simulation (empty trace, zero batch…).
    InvalidConfig(String),
    /// The fault plan is malformed (unknown device, bad factor…).
    Fault(FaultError),
    /// The fault plan kills every replica while work is still outstanding,
    /// so graceful degradation has nowhere left to re-queue.
    AllReplicasDead {
        /// Requests orphaned with no surviving replica to take them.
        unserved: usize,
    },
}

impl std::fmt::Display for ServingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServingError::Graph(e) => write!(f, "phase graph error: {e}"),
            ServingError::WeightsDontFit(e) => write!(f, "model weights do not fit HBM: {e}"),
            ServingError::RequestTooLarge {
                id,
                tokens,
                max_tokens,
            } => write!(
                f,
                "request {id} needs {tokens} KV tokens but the device fits at most {max_tokens}"
            ),
            ServingError::InvalidConfig(msg) => write!(f, "invalid serving config: {msg}"),
            ServingError::Fault(e) => write!(f, "invalid fault plan: {e}"),
            ServingError::AllReplicasDead { unserved } => write!(
                f,
                "every replica is killed by the fault plan with {unserved} requests unserved"
            ),
        }
    }
}

impl std::error::Error for ServingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServingError::Graph(e) => Some(e),
            ServingError::WeightsDontFit(e) => Some(e),
            ServingError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for ServingError {
    fn from(e: GraphError) -> Self {
        ServingError::Graph(e)
    }
}

impl From<FaultError> for ServingError {
    fn from(e: FaultError) -> Self {
        ServingError::Fault(e)
    }
}
