//! Named environment profiles — the sweep axis of the benchmark harness.
//!
//! The paper's evaluation runs every problem under five execution
//! environments: the mono-threaded synchronous MPI baseline, the three
//! multi-threaded AIAC middleware stacks (PM2, MPICH/Madeleine, OmniORB 4),
//! and the shared-memory threads implementation used on a single SMP
//! machine. [`EnvProfile`] gives each of those a stable name so experiment
//! specs can declare "sweep these profiles" as data instead of hard-coding
//! runtime/environment pairs, and so benchmark records key their cells by a
//! slug that stays meaningful across PRs.
//!
//! A profile answers two questions the harness runner asks:
//!
//! 1. *Which back-end executes it?* — the four grid profiles run on the
//!    simulated runtime over an [`EnvKind`] cost model; the threads profile
//!    runs on the real threaded executor ([`EnvProfile::is_simulated`]).
//! 2. *Which algorithm does it run?* — the synchronous profile runs SISC,
//!    everything else runs AIAC ([`EnvProfile::is_synchronous`]).

use crate::env::EnvKind;
use serde::{Deserialize, Serialize};

/// One of the five named execution environments of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnvProfile {
    /// Synchronous SISC baseline over mono-threaded MPI (simulated grid).
    SyncMpi,
    /// Asynchronous AIAC over PM2 (simulated grid).
    AsyncPm2,
    /// Asynchronous AIAC over MPICH/Madeleine (simulated grid).
    AsyncMpiMad,
    /// Asynchronous AIAC over OmniORB 4 (simulated grid).
    AsyncOmniOrb,
    /// Shared-memory execution on the real threaded back-end (one SMP
    /// machine, OS threads reading each other's published fronts instead
    /// of a network).
    LocalThreads,
}

impl EnvProfile {
    /// Every profile, in the order the harness sweeps them: the synchronous
    /// reference first (records compute speed ratios against it), then the
    /// asynchronous grid environments, then the shared-memory profile.
    pub const ALL: [EnvProfile; 5] = [
        EnvProfile::SyncMpi,
        EnvProfile::AsyncPm2,
        EnvProfile::AsyncMpiMad,
        EnvProfile::AsyncOmniOrb,
        EnvProfile::LocalThreads,
    ];

    /// The four profiles that execute on the simulated grid (deterministic
    /// virtual-clock metrics, the only ones the regression gate compares).
    pub const SIMULATED: [EnvProfile; 4] = [
        EnvProfile::SyncMpi,
        EnvProfile::AsyncPm2,
        EnvProfile::AsyncMpiMad,
        EnvProfile::AsyncOmniOrb,
    ];

    /// Stable slug used in benchmark-record keys and CLIs.
    pub fn slug(self) -> &'static str {
        match self {
            EnvProfile::SyncMpi => "sync-mpi",
            EnvProfile::AsyncPm2 => "async-pm2",
            EnvProfile::AsyncMpiMad => "async-mpi-mad",
            EnvProfile::AsyncOmniOrb => "async-omniorb4",
            EnvProfile::LocalThreads => "local-threads",
        }
    }

    /// Human-readable label matching the paper's table wording.
    pub fn label(self) -> &'static str {
        match self {
            EnvProfile::LocalThreads => "local threads",
            other => other
                .env_kind()
                .expect("grid profiles map to an EnvKind")
                .label(),
        }
    }

    /// The environment cost model backing this profile, when it runs on the
    /// simulated grid (`None` for the shared-memory threads profile).
    pub fn env_kind(self) -> Option<EnvKind> {
        match self {
            EnvProfile::SyncMpi => Some(EnvKind::MpiSync),
            EnvProfile::AsyncPm2 => Some(EnvKind::Pm2),
            EnvProfile::AsyncMpiMad => Some(EnvKind::MpiMadeleine),
            EnvProfile::AsyncOmniOrb => Some(EnvKind::OmniOrb),
            EnvProfile::LocalThreads => None,
        }
    }

    /// True for the profiles executed by the simulated (virtual-time)
    /// runtime; false for the real threaded back-end.
    pub fn is_simulated(self) -> bool {
        self.env_kind().is_some()
    }

    /// True for the synchronous (SISC) baseline; every other profile runs
    /// the asynchronous AIAC algorithm.
    pub fn is_synchronous(self) -> bool {
        self == EnvProfile::SyncMpi
    }

    /// Default solver-service sizing for this profile.
    ///
    /// The service front end (`aiac-service`) schedules many concurrent
    /// solves over one shared pool; how much concurrency an environment can
    /// absorb differs the same way the paper's environments differ. The
    /// synchronous baseline admits little (every job's supersteps convoy
    /// behind the slowest), the asynchronous middleware stacks admit more,
    /// and the shared-memory profile — the one the real service runs on —
    /// admits the most.
    pub fn service_knobs(self) -> ServiceKnobs {
        match self {
            EnvProfile::SyncMpi => ServiceKnobs {
                workers: 4,
                max_in_flight: 256,
                tenant_queue_depth: 64,
                drr_quantum: 1,
            },
            EnvProfile::AsyncPm2 | EnvProfile::AsyncMpiMad | EnvProfile::AsyncOmniOrb => {
                ServiceKnobs {
                    workers: 8,
                    max_in_flight: 1024,
                    tenant_queue_depth: 256,
                    drr_quantum: 2,
                }
            }
            EnvProfile::LocalThreads => ServiceKnobs {
                workers: 8,
                max_in_flight: 4096,
                tenant_queue_depth: 1024,
                drr_quantum: 4,
            },
        }
    }
}

/// Per-profile sizing knobs for the multi-tenant solver service.
///
/// Consumed by `aiac-service` when building a service configuration for a
/// given [`EnvProfile`]; every field maps one-to-one onto a field of the
/// service's own config type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceKnobs {
    /// Workers in the shared solve pool.
    pub workers: usize,
    /// Global bound on admitted-but-unfinished jobs.
    pub max_in_flight: usize,
    /// Bound on each tenant's pending queue.
    pub tenant_queue_depth: usize,
    /// Deficit-round-robin quantum (jobs per tenant per dispatcher round).
    pub drr_quantum: usize,
}

impl std::fmt::Display for EnvProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

impl std::str::FromStr for EnvProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let lowered = s.to_ascii_lowercase();
        EnvProfile::ALL
            .into_iter()
            .find(|p| p.slug() == lowered || p.label().eq_ignore_ascii_case(s))
            .ok_or_else(|| {
                format!(
                    "unknown environment profile {s:?} (expected one of: {})",
                    EnvProfile::ALL.map(|p| p.slug()).join(", ")
                )
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_five_profiles_with_unique_slugs() {
        assert_eq!(EnvProfile::ALL.len(), 5);
        let mut slugs: Vec<&str> = EnvProfile::ALL.iter().map(|p| p.slug()).collect();
        slugs.sort_unstable();
        slugs.dedup();
        assert_eq!(slugs.len(), 5, "slugs must be unique");
    }

    #[test]
    fn simulated_profiles_map_to_env_kinds() {
        for p in EnvProfile::SIMULATED {
            assert!(p.is_simulated());
            assert!(p.env_kind().is_some());
        }
        assert!(!EnvProfile::LocalThreads.is_simulated());
        assert_eq!(EnvProfile::LocalThreads.env_kind(), None);
    }

    #[test]
    fn only_the_mpi_baseline_is_synchronous() {
        assert!(EnvProfile::SyncMpi.is_synchronous());
        for p in [
            EnvProfile::AsyncPm2,
            EnvProfile::AsyncMpiMad,
            EnvProfile::AsyncOmniOrb,
            EnvProfile::LocalThreads,
        ] {
            assert!(!p.is_synchronous(), "{p} must run AIAC");
        }
    }

    #[test]
    fn labels_match_the_paper_and_slugs_parse_back() {
        assert_eq!(EnvProfile::SyncMpi.label(), "sync MPI");
        assert_eq!(EnvProfile::AsyncOmniOrb.label(), "async OmniORB 4");
        for p in EnvProfile::ALL {
            assert_eq!(p.slug().parse::<EnvProfile>().unwrap(), p);
            assert_eq!(p.label().parse::<EnvProfile>().unwrap(), p);
        }
        assert!("corba".parse::<EnvProfile>().is_err());
    }

    #[test]
    fn service_knobs_scale_up_with_asynchrony() {
        let sync = EnvProfile::SyncMpi.service_knobs();
        let grid = EnvProfile::AsyncPm2.service_knobs();
        let smp = EnvProfile::LocalThreads.service_knobs();
        assert!(sync.max_in_flight < grid.max_in_flight);
        assert!(grid.max_in_flight < smp.max_in_flight);
        assert!(sync.tenant_queue_depth < smp.tenant_queue_depth);
        for p in EnvProfile::ALL {
            let k = p.service_knobs();
            assert!(k.workers > 0 && k.drr_quantum > 0, "{p}: degenerate knobs");
            assert!(
                k.tenant_queue_depth <= k.max_in_flight,
                "{p}: one tenant's queue cannot exceed the global bound"
            );
        }
    }

    #[test]
    fn profiles_round_trip_through_json() {
        for p in EnvProfile::ALL {
            let text = serde_json::to_string(&p).unwrap();
            let back: EnvProfile = serde_json::from_str(&text).unwrap();
            assert_eq!(back, p);
        }
    }
}
