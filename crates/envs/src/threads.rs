//! Thread configurations (Table 4 of the paper).
//!
//! The paper could not use the exact same threading scheme in every
//! environment ("we have been confronted with some thread management problems
//! in the PM2 and MPI/Mad environments"), so Table 4 records, per environment
//! and per problem, how many sending threads were used and how receptions
//! were handled. Those configurations are what [`ThreadConfig`] encodes; the
//! simulated runtime uses them to decide which per-message CPU costs are
//! serialised on a processor and which overlap.

use aiac_netsim::time::SimTime;
use serde::{Deserialize, Serialize};

/// The two benchmark problems, which use different thread configurations in
/// Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProblemKind {
    /// The banded sparse linear system (all-to-all dependency communications).
    SparseLinear,
    /// The non-linear advection–diffusion chemical problem (neighbour-only
    /// communications).
    NonLinearChemical,
}

/// How message receptions are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReceiveDiscipline {
    /// A fixed pool of dedicated receiving threads; concurrent arrivals beyond
    /// the pool size are dispatched one after the other.
    Dedicated(usize),
    /// A receiving thread is created on demand for every incoming message
    /// (the OmniORB and PM2 scheme); arrivals are handled concurrently at the
    /// price of a per-message thread-creation cost.
    OnDemand {
        /// CPU cost of creating/waking the handler thread, in
        /// reference-machine seconds.
        spawn_cost: SimTime,
    },
}

/// The thread configuration of one environment for one problem.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThreadConfig {
    /// Number of threads available to perform sends; packing costs of
    /// messages in excess of this number are serialised.
    pub sending_threads: usize,
    /// How receptions are handled.
    pub receive: ReceiveDiscipline,
}

impl ThreadConfig {
    /// Builds a configuration with a dedicated receiver pool.
    pub fn dedicated(sending_threads: usize, receiving_threads: usize) -> Self {
        assert!(sending_threads > 0, "need at least one sending thread");
        assert!(receiving_threads > 0, "need at least one receiving thread");
        Self {
            sending_threads,
            receive: ReceiveDiscipline::Dedicated(receiving_threads),
        }
    }

    /// Builds a configuration with receiving threads created on demand.
    pub fn on_demand(sending_threads: usize, spawn_cost: SimTime) -> Self {
        assert!(sending_threads > 0, "need at least one sending thread");
        Self {
            sending_threads,
            receive: ReceiveDiscipline::OnDemand { spawn_cost },
        }
    }

    /// Time at which the packing of the `k`-th concurrent outgoing message
    /// (0-based) can *start*, given that packing one message costs
    /// `pack_cost` CPU seconds and only `sending_threads` packings can run
    /// concurrently.
    ///
    /// This is the quantity the simulated runtime adds to a send initiated
    /// while `k` other sends are already in flight on the same processor.
    pub fn send_queue_delay(&self, k: usize, pack_cost: SimTime) -> SimTime {
        let rounds = k / self.sending_threads;
        pack_cost * rounds as f64
    }

    /// A human-readable description matching the wording of Table 4.
    pub fn describe(&self) -> String {
        let send = match self.sending_threads {
            1 => "one sending thread".to_string(),
            2 => "two sending threads".to_string(),
            n => format!("{n} sending threads"),
        };
        let recv = match self.receive {
            ReceiveDiscipline::Dedicated(1) => "one receiving thread".to_string(),
            ReceiveDiscipline::Dedicated(2) => "two receiving threads".to_string(),
            ReceiveDiscipline::Dedicated(n) => format!("{n} receiving threads"),
            ReceiveDiscipline::OnDemand { .. } => "receiving threads created on demand".to_string(),
        };
        format!("{send}, {recv}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_config_reports_pool_size() {
        let c = ThreadConfig::dedicated(1, 2);
        assert_eq!(c.receive, ReceiveDiscipline::Dedicated(2));
    }

    #[test]
    fn on_demand_config_carries_its_spawn_cost() {
        let spawn = SimTime::from_micros(50.0);
        let c = ThreadConfig::on_demand(2, spawn);
        assert_eq!(c.receive, ReceiveDiscipline::OnDemand { spawn_cost: spawn });
    }

    #[test]
    fn send_queue_delay_serialises_beyond_thread_count() {
        let c = ThreadConfig::dedicated(2, 1);
        let pack = SimTime::from_millis(1.0);
        assert_eq!(c.send_queue_delay(0, pack), SimTime::ZERO);
        assert_eq!(c.send_queue_delay(1, pack), SimTime::ZERO);
        assert_eq!(c.send_queue_delay(2, pack), pack);
        assert_eq!(c.send_queue_delay(5, pack), pack * 2.0);
    }

    #[test]
    fn single_sender_serialises_everything() {
        let c = ThreadConfig::dedicated(1, 1);
        let pack = SimTime::from_millis(2.0);
        assert_eq!(c.send_queue_delay(3, pack), pack * 3.0);
    }

    #[test]
    fn describe_matches_table4_wording() {
        assert_eq!(
            ThreadConfig::dedicated(1, 1).describe(),
            "one sending thread, one receiving thread"
        );
        assert_eq!(
            ThreadConfig::on_demand(2, SimTime::ZERO).describe(),
            "two sending threads, receiving threads created on demand"
        );
        assert_eq!(
            ThreadConfig::on_demand(8, SimTime::ZERO).describe(),
            "8 sending threads, receiving threads created on demand"
        );
    }

    #[test]
    #[should_panic(expected = "at least one sending thread")]
    fn zero_sending_threads_rejected() {
        ThreadConfig::dedicated(0, 1);
    }
}
