//! The OmniORB 4 (CORBA) model.
//!
//! OmniORB is a CORBA 2.1-compliant object request broker. Using an ORB for
//! parallel iterative computing is unusual, but the paper shows it provides
//! the two required ingredients — inter-machine communication and
//! multi-threading — and is even the fastest environment on the sparse linear
//! problem over the distant grid, thanks to its aggressive per-request
//! threading (one sending thread per peer, handler threads created on
//! demand). The price is the IIOP marshalling overhead on every invocation
//! and a slightly lower efficiency on fast local networks, both captured by
//! this model, plus the naming-service requirement recorded in the
//! deployment profile.

use crate::deploy::{ConnectionGraph, DeploymentProfile};
use crate::env::{CommStyle, EnvKind, Environment, MessageCost};
use crate::threads::{ProblemKind, ThreadConfig};
use aiac_netsim::time::SimTime;

/// Model of the OmniORB 4 environment.
#[derive(Debug, Clone, Default)]
pub struct OmniOrb {
    _private: (),
}

impl OmniOrb {
    /// Creates the model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cost of spawning a request-handler thread in the ORB.
    fn spawn_cost() -> SimTime {
        SimTime::from_micros(60.0)
    }
}

impl Environment for OmniOrb {
    fn kind(&self) -> EnvKind {
        EnvKind::OmniOrb
    }

    fn name(&self) -> &str {
        "OmniORB 4 (CORBA object request broker)"
    }

    fn comm_style(&self) -> CommStyle {
        CommStyle::ObjectInvocation
    }

    fn supports_async(&self) -> bool {
        true
    }

    fn message_cost(&self, payload_bytes: u64) -> MessageCost {
        MessageCost {
            // CDR marshalling of the invocation arguments on both sides.
            sender_cpu: SimTime::from_micros(60.0 + payload_bytes as f64 * 1.0e-3),
            receiver_cpu: SimTime::from_micros(55.0 + payload_bytes as f64 * 1.0e-3),
            // GIOP/IIOP request header + object key + alignment padding.
            protocol_bytes: 288,
            dispatch_latency: SimTime::from_micros(25.0),
        }
    }

    fn thread_config(&self, problem: ProblemKind, num_procs: usize) -> ThreadConfig {
        match problem {
            // Table 4: "N sending threads, receiving threads created on
            // demand" where N is the number of processors.
            ProblemKind::SparseLinear => {
                ThreadConfig::on_demand(num_procs.max(1), Self::spawn_cost())
            }
            // Table 4: "two sending threads, receiving threads created on demand".
            ProblemKind::NonLinearChemical => ThreadConfig::on_demand(2, Self::spawn_cost()),
        }
    }

    fn deployment(&self) -> DeploymentProfile {
        DeploymentProfile {
            connection_graph: ConnectionGraph::IncompleteAllowed,
            auto_data_conversion: true,
            needs_runtime_service: true,
            multi_protocol: false,
            config_files: 1,
            launch_commands: 2,
            notes: "portable, client/server architecture bypasses firewalls; \
                    a naming service must run on one site",
        }
    }

    fn ease_of_programming(&self) -> u8 {
        // Client/server initialisation boilerplate, but reusable.
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threads::ReceiveDiscipline;

    #[test]
    fn omniorb_is_an_object_invocation_environment() {
        let env = OmniOrb::new();
        assert!(env.supports_async());
        assert_eq!(env.comm_style(), CommStyle::ObjectInvocation);
    }

    #[test]
    fn sparse_linear_uses_one_sending_thread_per_processor() {
        let env = OmniOrb::new();
        let cfg = env.thread_config(ProblemKind::SparseLinear, 24);
        assert_eq!(cfg.sending_threads, 24);
        assert!(matches!(cfg.receive, ReceiveDiscipline::OnDemand { .. }));
        // with so many senders, outgoing packings never queue
        let pack = SimTime::from_millis(1.0);
        assert_eq!(cfg.send_queue_delay(23, pack), SimTime::ZERO);
    }

    #[test]
    fn nonlinear_uses_two_sending_threads() {
        let env = OmniOrb::new();
        let cfg = env.thread_config(ProblemKind::NonLinearChemical, 24);
        assert_eq!(cfg.sending_threads, 2);
        assert!(matches!(cfg.receive, ReceiveDiscipline::OnDemand { .. }));
    }

    #[test]
    fn marshalling_is_the_heaviest_of_the_tested_environments() {
        let orb = OmniOrb::new().message_cost(200_000);
        for other in [EnvKind::MpiSync, EnvKind::MpiMadeleine, EnvKind::Pm2] {
            let c = other.build().message_cost(200_000);
            assert!(orb.sender_cpu > c.sender_cpu, "vs {other}");
            assert!(orb.protocol_bytes > c.protocol_bytes, "vs {other}");
        }
    }

    #[test]
    fn deployment_is_flexible_but_needs_a_naming_service() {
        let p = OmniOrb::new().deployment();
        assert_eq!(p.connection_graph, ConnectionGraph::IncompleteAllowed);
        assert!(p.auto_data_conversion);
        assert!(p.needs_runtime_service);
    }
}
