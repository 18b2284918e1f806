//! Job descriptions: what one transfer of a batch should run.

use eadt_core::AlgorithmKind;
use eadt_dataset::Dataset;
use eadt_testbeds::Environment;
use eadt_transfer::FaultPlan;

/// How a job treats the environment's fault plan.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum FaultOverride {
    /// Run with whatever plan the environment declares (the default).
    #[default]
    Inherit,
    /// Strip fault injection for this job even if the environment has a
    /// plan.
    Disable,
    /// Replace the environment's plan for this job.
    Replace(FaultPlan),
}

/// One transfer of a batch: algorithm, environment, dataset scale and
/// tuning knobs.
///
/// Non-exhaustive: build one with [`JobSpec::new`] plus the `with_*`
/// setters, so new knobs can land without breaking downstream specs. A
/// spec is `Clone + Send` — it carries an [`AlgorithmKind`], not a boxed
/// trait object — which is what lets the session hand it to any worker.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct JobSpec {
    /// Display label; defaults to `"<testbed>/<algorithm>@<max_channel>"`.
    pub label: Option<String>,
    /// Which algorithm runs.
    pub kind: AlgorithmKind,
    /// The testbed the transfer runs on (environment + dataset spec +
    /// partition thresholds + reference concurrency).
    pub env: Environment,
    /// Dataset scale factor applied to the testbed's paper dataset.
    pub scale: f64,
    /// Explicit dataset override. `None` (the default) generates the
    /// testbed's paper dataset at `scale` from the job seed — the
    /// deterministic path; set a dataset to replay a fixed file listing
    /// (the seed then only drives fault streams).
    pub dataset: Option<Dataset>,
    /// Channel budget for the tuned algorithms.
    pub max_channel: u32,
    /// SLA level for SLAEE (fraction of the reference maximum).
    pub sla_level: f64,
    /// Wraps the controller in the fault-aware adapter where supported.
    pub fault_aware: bool,
    /// Fault-plan handling for this job.
    pub faults: FaultOverride,
    /// Pipelining depth for `AlgorithmKind::Manual`.
    pub pipelining: u32,
    /// TCP parallelism for `AlgorithmKind::Manual`.
    pub parallelism: u32,
    /// Explicit seed override. `None` (the default) derives the seed from
    /// the session's root seed and the job's index — the deterministic
    /// path; set an explicit seed only to replay a single job.
    pub seed: Option<u64>,
}

impl JobSpec {
    /// A job with the workspace defaults: full-scale dataset, 8-channel
    /// budget, 90 % SLA, inherited fault plan.
    pub fn new(kind: AlgorithmKind, env: Environment) -> Self {
        JobSpec {
            label: None,
            kind,
            env,
            scale: 1.0,
            dataset: None,
            max_channel: 8,
            sla_level: 0.9,
            fault_aware: false,
            faults: FaultOverride::Inherit,
            pipelining: 1,
            parallelism: 1,
            seed: None,
        }
    }

    /// Sets the dataset scale factor.
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// Pins an explicit dataset, bypassing seeded generation for this job.
    pub fn with_dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Sets the channel budget.
    pub fn with_max_channel(mut self, max_channel: u32) -> Self {
        self.max_channel = max_channel;
        self
    }

    /// Sets the SLAEE level.
    pub fn with_sla_level(mut self, sla_level: f64) -> Self {
        self.sla_level = sla_level;
        self
    }

    /// Enables the fault-aware controller wrapper.
    pub fn with_fault_aware(mut self, fault_aware: bool) -> Self {
        self.fault_aware = fault_aware;
        self
    }

    /// Replaces the environment's fault plan for this job.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = FaultOverride::Replace(plan);
        self
    }

    /// Sets manual pipelining / parallelism (only `Manual` reads these).
    pub fn with_manual_params(mut self, pipelining: u32, parallelism: u32) -> Self {
        self.pipelining = pipelining;
        self.parallelism = parallelism;
        self
    }

    /// Pins an explicit seed, bypassing root-seed derivation for this job.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// The job's display label (explicit, or derived from its contents).
    pub fn display_label(&self) -> String {
        match &self.label {
            Some(l) => l.clone(),
            None => format!(
                "{}/{}@{}",
                self.env.name,
                self.kind.name(),
                self.max_channel
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_label_names_testbed_algorithm_and_budget() {
        let spec = JobSpec::new(AlgorithmKind::Htee, eadt_testbeds::didclab()).with_max_channel(4);
        assert_eq!(spec.display_label(), "DIDCLAB/HTEE@4");
        let named = JobSpec {
            label: Some("my-run".into()),
            ..spec
        };
        assert_eq!(named.display_label(), "my-run");
    }
}
