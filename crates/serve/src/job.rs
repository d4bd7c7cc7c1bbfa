//! Job vocabulary of the resident service: what can be submitted
//! ([`JobSpec`]), how urgently ([`Priority`]), what streams back while it
//! runs ([`JobEvent`]) and what comes out the other end ([`JobOutput`] /
//! [`JobError`]).
//!
//! Everything here is plain data — the scheduling and execution machinery
//! lives in [`crate::service`], the campaign vocabulary in
//! [`crate::campaign`].

use crate::campaign::{CampaignResult, CampaignSpec};
use aedb::params::AedbParams;
use manet::world::WorldSpec;

/// Opaque job identifier handed out by
/// [`SimService::submit`](crate::service::SimService::submit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// Scheduling class. The service drains strictly by priority and FIFO
/// within one class, so a `High` job submitted late still overtakes every
/// queued `Normal` campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Interactive probes (single simulations, quick checks).
    High,
    /// The default for campaigns.
    #[default]
    Normal,
    /// Background sweeps that should never delay interactive work.
    Low,
}

impl Priority {
    /// Queue index, highest priority first.
    pub(crate) fn index(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// Which broadcast protocol a [`Simulate`](JobSpec::Simulate) job runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ProtocolSpec {
    /// AEDB with a fixed parameter configuration.
    Aedb(AedbParams),
    /// Blind flooding with the given forwarding-jitter interval (s).
    Flooding {
        /// Uniform forwarding delay interval; `(0.0, 0.0)` re-broadcasts
        /// immediately.
        jitter: (f64, f64),
    },
    /// Only the source transmits (coverage lower bound).
    SourceOnly,
}

/// A batch of raw simulator runs: the same world, one run per seed.
#[derive(Debug, Clone)]
pub struct SimulateSpec {
    /// The scenario; its own `seed` field is overridden per run by
    /// [`seeds`](Self::seeds).
    pub world: WorldSpec,
    /// The protocol under test.
    pub protocol: ProtocolSpec,
    /// One independent simulation per seed, reported in order.
    pub seeds: Vec<u64>,
}

/// Headline numbers of one simulation run (a flattened
/// [`SimReport`](manet::sim::SimReport)).
#[derive(Debug, Clone, PartialEq)]
pub struct SimSummary {
    /// The seed this run used.
    pub seed: u64,
    /// Nodes simulated.
    pub n_nodes: usize,
    /// Devices (≠ source) that received the broadcast.
    pub coverage: usize,
    /// Last reception minus source send (s); `0` if nobody received.
    pub broadcast_time: f64,
    /// Message forwardings (source's own send excluded).
    pub forwardings: usize,
    /// Sum of forwarding transmit powers (dBm), the paper's energy proxy.
    pub energy_dbm_sum: f64,
    /// Beacons transmitted network-wide.
    pub beacons_sent: u64,
    /// Data frames transmitted network-wide.
    pub data_sent: u64,
    /// Frames lost to collisions.
    pub collision_losses: u64,
}

/// What a job asks the service to do.
#[derive(Debug, Clone)]
pub enum JobSpec {
    /// Run the simulator directly: one world, one run per seed.
    Simulate(SimulateSpec),
    /// Run a full tuning campaign (algorithm × seeded repetitions) on a
    /// scenario; the result is archived and replayed on resubmission.
    Campaign(CampaignSpec),
}

/// Terminal payload of a successful job.
#[derive(Debug, Clone)]
pub enum JobOutput {
    /// Per-seed summaries of a [`JobSpec::Simulate`] job, in seed order.
    Simulated(Vec<SimSummary>),
    /// The repetition results of a [`JobSpec::Campaign`] job.
    Campaign(CampaignResult),
}

impl JobOutput {
    /// The campaign result, if this was a campaign job.
    pub fn campaign(&self) -> Option<&CampaignResult> {
        match self {
            JobOutput::Campaign(c) => Some(c),
            JobOutput::Simulated(_) => None,
        }
    }

    /// The simulation summaries, if this was a simulate job.
    pub fn simulated(&self) -> Option<&[SimSummary]> {
        match self {
            JobOutput::Simulated(s) => Some(s),
            JobOutput::Campaign(_) => None,
        }
    }
}

/// Why a job did not produce a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Cancelled by [`SimService::cancel`](crate::service::SimService::cancel)
    /// or a non-draining shutdown.
    Cancelled,
    /// The spec was refused before execution (e.g. no seeds, zero reps).
    Rejected(String),
    /// Execution started but failed (e.g. the storage backend errored).
    Execution(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::Rejected(why) => write!(f, "job rejected: {why}"),
            JobError::Execution(why) => write!(f, "job failed: {why}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Progress stream of one job, delivered in order on the submitting
/// handle's channel. Every job ends with exactly one terminal event
/// ([`Finished`](JobEvent::Finished) or [`Failed`](JobEvent::Failed)).
#[derive(Debug, Clone)]
pub enum JobEvent {
    /// The spec passed validation and was queued.
    Accepted {
        /// The job.
        job: JobId,
    },
    /// The worker picked the job up.
    Started {
        /// The job.
        job: JobId,
    },
    /// A campaign repetition finished a generation; `front` holds the
    /// objective vectors of the current non-dominated set. Replayed
    /// campaigns emit no `Generation` events (nothing is simulated).
    Generation {
        /// The job.
        job: JobId,
        /// Repetition index within the campaign.
        rep: usize,
        /// Generation index (0 = evaluated initial population).
        generation: u64,
        /// Evaluations consumed so far in this repetition.
        evaluations: u64,
        /// Objective vectors of the current front snapshot.
        front: Vec<Vec<f64>>,
    },
    /// An [`Island`](crate::campaign::AlgorithmKind::Island) campaign
    /// repetition finished an epoch; `front` holds the objective vectors
    /// of the **global anytime archive** — the best-so-far front, whose
    /// hypervolume is non-decreasing over epochs (the island crate's
    /// deterministic-merge contract). Island campaigns emit this instead
    /// of [`Generation`](Self::Generation); replays emit neither.
    AnytimeFront {
        /// The job.
        job: JobId,
        /// Repetition index within the campaign.
        rep: usize,
        /// Epoch index (0 = merged initial island populations).
        epoch: u64,
        /// Evaluations consumed so far in this repetition.
        evaluations: u64,
        /// Objective vectors of the anytime front.
        front: Vec<Vec<f64>>,
    },
    /// Coarse progress: `completed` of `total` work rows done (campaign
    /// repetitions, or seeds of a simulate job). A simulate job's seeds
    /// run concurrently, so `completed` counts finished seeds, not the
    /// position of the seed that just finished.
    Progress {
        /// The job.
        job: JobId,
        /// Rows finished.
        completed: usize,
        /// Total rows.
        total: usize,
    },
    /// Terminal: the job succeeded. `replayed` marks a campaign answered
    /// from the archive without re-simulating.
    Finished {
        /// The job.
        job: JobId,
        /// Whether the result came from the campaign archive.
        replayed: bool,
        /// The payload.
        output: JobOutput,
    },
    /// Terminal: the job did not produce a result.
    Failed {
        /// The job.
        job: JobId,
        /// Why.
        error: JobError,
    },
}

impl JobEvent {
    /// The job this event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Accepted { job }
            | JobEvent::Started { job }
            | JobEvent::Generation { job, .. }
            | JobEvent::AnytimeFront { job, .. }
            | JobEvent::Progress { job, .. }
            | JobEvent::Finished { job, .. }
            | JobEvent::Failed { job, .. } => *job,
        }
    }

    /// Whether this is a terminal event.
    pub fn is_terminal(&self) -> bool {
        matches!(self, JobEvent::Finished { .. } | JobEvent::Failed { .. })
    }
}
