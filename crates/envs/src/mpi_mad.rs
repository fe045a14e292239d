//! The MPICH/Madeleine model.
//!
//! MPICH/Madeleine is a multi-protocol, thread-safe MPI built on the Marcel
//! thread package and the Madeleine communication layer. The paper found it
//! "probably the easiest to program" (communications keep the familiar MPI
//! form, threads are provided by Marcel) and observed its implementations use
//! one or two *dedicated* receiving threads (Table 4): arrivals are handled by
//! a fixed pool, so simultaneous receptions from many peers serialise, which
//! is the behaviour this model exposes to the runtime.

use crate::deploy::{ConnectionGraph, DeploymentProfile};
use crate::env::{CommStyle, EnvKind, Environment, MessageCost};
use crate::threads::{ProblemKind, ThreadConfig};
use aiac_netsim::time::SimTime;

/// Model of the MPICH/Madeleine environment.
#[derive(Debug, Clone, Default)]
pub struct MpiMadeleine {
    _private: (),
}

impl MpiMadeleine {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Environment for MpiMadeleine {
    fn kind(&self) -> EnvKind {
        EnvKind::MpiMadeleine
    }

    fn name(&self) -> &str {
        "MPICH/Madeleine (thread-safe multi-protocol MPI)"
    }

    fn comm_style(&self) -> CommStyle {
        CommStyle::ExplicitMessage
    }

    fn supports_async(&self) -> bool {
        true
    }

    fn message_cost(&self, payload_bytes: u64) -> MessageCost {
        MessageCost {
            // Same thin per-byte handling as plain MPI plus a small
            // thread-safety toll on the fixed part.
            sender_cpu: SimTime::from_micros(25.0 + payload_bytes as f64 * 0.3e-3),
            receiver_cpu: SimTime::from_micros(25.0 + payload_bytes as f64 * 0.3e-3),
            protocol_bytes: 96,
            dispatch_latency: SimTime::from_micros(8.0),
        }
    }

    fn thread_config(&self, problem: ProblemKind, _num_procs: usize) -> ThreadConfig {
        match problem {
            // Table 4: "one sending thread, one receiving thread".
            ProblemKind::SparseLinear => ThreadConfig::dedicated(1, 1),
            // Table 4: "two sending threads, two receiving threads".
            ProblemKind::NonLinearChemical => ThreadConfig::dedicated(2, 2),
        }
    }

    fn deployment(&self) -> DeploymentProfile {
        DeploymentProfile {
            connection_graph: ConnectionGraph::Complete,
            auto_data_conversion: false,
            needs_runtime_service: false,
            multi_protocol: true,
            config_files: 2,
            launch_commands: 1,
            notes: "two protocol/machine files; can mix TCP, Myrinet, SCI in one run",
        }
    }

    fn ease_of_programming(&self) -> u8 {
        // "MPI/Mad is probably the easiest to program".
        5
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::ReceiveDiscipline;

    #[test]
    fn supports_async_with_explicit_messages() {
        let env = MpiMadeleine::new();
        assert!(env.supports_async());
        assert_eq!(env.comm_style(), CommStyle::ExplicitMessage);
    }

    #[test]
    fn thread_config_matches_table4() {
        let env = MpiMadeleine::new();
        let sparse = env.thread_config(ProblemKind::SparseLinear, 12);
        assert_eq!(
            sparse.describe(),
            "one sending thread, one receiving thread"
        );
        let chem = env.thread_config(ProblemKind::NonLinearChemical, 12);
        assert_eq!(
            chem.describe(),
            "two sending threads, two receiving threads"
        );
    }

    #[test]
    fn it_is_the_easiest_to_program() {
        let env = MpiMadeleine::new();
        assert_eq!(env.ease_of_programming(), 5);
        for other in [EnvKind::Pm2, EnvKind::OmniOrb] {
            assert!(env.ease_of_programming() >= other.build().ease_of_programming());
        }
    }

    #[test]
    fn receives_are_handled_by_a_dedicated_pool() {
        let env = MpiMadeleine::new();
        let cfg = env.thread_config(ProblemKind::SparseLinear, 8);
        // A single receiving thread: simultaneous arrivals serialise on
        // the host's receive pool in the simulator.
        assert!(matches!(cfg.receive, ReceiveDiscipline::Dedicated(1)));
    }
}
