//! The classical single-threaded MPI model (the SISC baseline).
//!
//! Section 2 of the paper explains why plain MPI was abandoned for AIAC
//! implementations: message receipts must be explicitly localised in the
//! program sequence, so asynchronous receptions "at any time" are awkward and
//! inefficient. In this workspace the model is therefore used for the
//! *synchronous* baseline rows of Tables 2 and 3 and the `sync MPI` curve of
//! Figure 3: low per-message overhead (it is a thin layer over TCP), but no
//! multi-threading, which forces the runtime into synchronous iterations with
//! a global exchange/barrier at the end of every iteration.

use crate::deploy::{ConnectionGraph, DeploymentProfile};
use crate::env::{CommStyle, EnvKind, Environment, MessageCost};
use crate::threads::{ProblemKind, ThreadConfig};
use aiac_netsim::time::SimTime;

/// Model of a classical mono-threaded MPI implementation.
#[derive(Debug, Clone, Default)]
pub struct MpiSync {
    _private: (),
}

impl MpiSync {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Environment for MpiSync {
    fn kind(&self) -> EnvKind {
        EnvKind::MpiSync
    }

    fn name(&self) -> &str {
        "MPI (single-threaded, synchronous baseline)"
    }

    fn comm_style(&self) -> CommStyle {
        CommStyle::ExplicitMessage
    }

    fn supports_async(&self) -> bool {
        false
    }

    fn message_cost(&self, payload_bytes: u64) -> MessageCost {
        MessageCost {
            // A thin copy in/out of MPI buffers.
            sender_cpu: SimTime::from_micros(20.0 + payload_bytes as f64 * 0.3e-3),
            receiver_cpu: SimTime::from_micros(20.0 + payload_bytes as f64 * 0.3e-3),
            protocol_bytes: 64,
            dispatch_latency: SimTime::from_micros(5.0),
        }
    }

    fn thread_config(&self, _problem: ProblemKind, _num_procs: usize) -> ThreadConfig {
        // Mono-threaded: the single program thread both sends and receives.
        ThreadConfig::dedicated(1, 1)
    }

    fn deployment(&self) -> DeploymentProfile {
        DeploymentProfile {
            connection_graph: ConnectionGraph::Complete,
            auto_data_conversion: false,
            needs_runtime_service: false,
            multi_protocol: false,
            config_files: 1,
            launch_commands: 1,
            notes: "machine file + mpirun; all machines must reach each other",
        }
    }

    fn ease_of_programming(&self) -> u8 {
        // Easy for synchronous algorithms, but the paper stresses it is not
        // convenient for AIACs.
        4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::ReceiveDiscipline;

    #[test]
    fn is_the_synchronous_baseline() {
        let env = MpiSync::new();
        assert_eq!(env.kind(), EnvKind::MpiSync);
        assert!(!env.supports_async());
        assert_eq!(env.comm_style(), CommStyle::ExplicitMessage);
    }

    #[test]
    fn single_thread_for_everything() {
        let env = MpiSync::new();
        for problem in [ProblemKind::SparseLinear, ProblemKind::NonLinearChemical] {
            let cfg = env.thread_config(problem, 16);
            assert_eq!(cfg.sending_threads, 1);
            assert!(matches!(cfg.receive, ReceiveDiscipline::Dedicated(1)));
        }
    }

    #[test]
    fn message_cost_has_the_lowest_protocol_overhead() {
        let env = MpiSync::new();
        let c = env.message_cost(10_000);
        assert_eq!(c.protocol_bytes, 64);
        assert!(c.sender_cpu < SimTime::from_millis(1.0));
    }
}
