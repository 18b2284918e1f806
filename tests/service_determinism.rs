//! Fleet *service* determinism: a multi-tenant workload's report and
//! journal are pure functions of (root seed, workload, policy, quantum) —
//! worker count must leave no trace in the bytes, even when the schedule
//! preempts and resumes jobs mid-simulation (DESIGN.md §16).

use eadt::core::AlgorithmKind;
use eadt::endsys::{ArbitrationPolicy, PoolCapacity};
use eadt::fleet::{JobSpec, ServiceJob, ServiceRun, ServiceSession, Session, Workload};
use eadt::sim::SimDuration;
use eadt::telemetry::{Event, Journal};
use eadt::transfer::{FaultModel, FaultPlan};

fn pool(slots: u32) -> PoolCapacity {
    let tb = eadt::testbeds::didclab();
    PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, slots)
}

fn spec(kind: AlgorithmKind, scale: f64) -> JobSpec {
    JobSpec::new(kind, eadt::testbeds::didclab())
        .with_scale(scale)
        .with_max_channel(2)
}

/// Two tenants contending for one site; slots for both, so contention is
/// purely in the bandwidth/disk arbitration.
fn contended_workload() -> Workload {
    Workload::new()
        .site("didclab", pool(2))
        .job(ServiceJob::new(spec(AlgorithmKind::Sc, 0.01), "didclab").with_tenant(0))
        .job(
            ServiceJob::new(spec(AlgorithmKind::ProMc, 0.01), "didclab")
                .with_tenant(1)
                .with_priority(5),
        )
}

/// One core slot and a late-arriving high-priority job: under strict
/// priority the low-priority incumbent is preempted mid-transfer and
/// later resumed from its engine checkpoint.
fn preemption_workload() -> Workload {
    Workload::new()
        .site("didclab", pool(1))
        .arrival_gap_s(20.0)
        .job(
            ServiceJob::new(spec(AlgorithmKind::Sc, 0.05), "didclab")
                .with_tenant(0)
                .with_priority(1),
        )
        .job(
            ServiceJob::new(spec(AlgorithmKind::ProMc, 0.01), "didclab")
                .with_tenant(1)
                .with_priority(9),
        )
}

/// Eight jobs of four algorithms from three priority tenants, arriving
/// over time at one 3-slot site: rounds with three residents make one
/// thread advance two legs at 2 workers and leave a helper idle at 4.
fn three_slot_workload() -> Workload {
    let kinds = [
        AlgorithmKind::Sc,
        AlgorithmKind::MinE,
        AlgorithmKind::ProMc,
        AlgorithmKind::Htee,
    ];
    let mut workload = Workload::new().site("didclab", pool(3)).arrival_gap_s(5.0);
    for i in 0..8u32 {
        workload = workload.job(
            ServiceJob::new(spec(kinds[i as usize % 4], 0.03), "didclab")
                .with_tenant(i % 3)
                .with_priority(i % 3),
        );
    }
    workload
}

/// The most residents any round advanced, read from the journal. A
/// round's admissions and preemptions carry its start time, and the
/// previous round's finishes come first at that time, so the jobs
/// admitted or resumed and not since preempted or finished after the
/// last record at a time are the residents of the round starting then.
fn most_residents(journal: &Journal) -> usize {
    let records = journal.records();
    let mut resident = Vec::new();
    let mut most = 0;
    for (k, record) in records.iter().enumerate() {
        match &record.event {
            Event::JobAdmitted { job, .. } | Event::JobResumed { job, .. } => resident.push(*job),
            Event::JobPreempted { job, .. } | Event::JobFinished { job, .. } => {
                resident.retain(|r| r != job);
            }
            _ => {}
        }
        if records
            .get(k + 1)
            .is_none_or(|next| next.t_us != record.t_us)
        {
            most = most.max(resident.len());
        }
    }
    most
}

fn run(workload: &Workload, seed: u64, workers: usize, policy: ArbitrationPolicy) -> ServiceRun {
    ServiceSession::builder()
        .root_seed(seed)
        .workers(workers)
        .policy(policy)
        .quantum(100)
        .build()
        .run(workload)
        .expect("workload is valid")
}

#[test]
fn service_report_and_journal_are_identical_across_worker_counts() {
    let inputs = [
        (contended_workload(), 7, ArbitrationPolicy::FairShare, 2),
        (
            three_slot_workload(),
            4,
            ArbitrationPolicy::StrictPriority,
            3,
        ),
    ];
    for (workload, seed, policy, residents) in inputs {
        let baseline = run(&workload, seed, 1, policy);
        let base_json = baseline.report.to_json();
        let base_journal = baseline.journal.to_jsonl();
        assert!(
            base_json.contains(&format!("\"root_seed\": {seed}")),
            "{base_json}"
        );
        assert_eq!(baseline.report.completed_count(), workload.jobs().len());
        assert_eq!(
            most_residents(&baseline.journal),
            residents,
            "{base_journal}"
        );
        for workers in [2, 3, 4] {
            let got = run(&workload, seed, workers, policy);
            assert_eq!(
                base_json,
                got.report.to_json(),
                "{workers}-worker service report diverged from serial"
            );
            assert_eq!(
                base_journal,
                got.journal.to_jsonl(),
                "{workers}-worker service journal diverged from serial"
            );
        }
    }
}

#[test]
fn preemption_and_resume_leave_no_worker_count_trace() {
    let workload = preemption_workload();
    let baseline = run(&workload, 5, 1, ArbitrationPolicy::StrictPriority);
    let journal = baseline.journal.to_jsonl();
    assert!(
        baseline.report.jobs.iter().any(|j| j.preemptions > 0),
        "scenario must actually preempt: {}",
        baseline.report.to_json()
    );
    assert!(journal.contains("\"ev\":\"job_preempted\""), "{journal}");
    assert!(journal.contains("\"ev\":\"job_resumed\""), "{journal}");
    assert_eq!(baseline.report.completed_count(), 2, "victim must finish");
    for workers in [2, 4] {
        let got = run(&workload, 5, workers, ArbitrationPolicy::StrictPriority);
        assert_eq!(
            baseline.report.to_json(),
            got.report.to_json(),
            "{workers}-worker preempting schedule diverged from serial"
        );
        assert_eq!(
            journal,
            got.journal.to_jsonl(),
            "{workers}-worker journal diverged from serial"
        );
    }
}

#[test]
fn contended_tenants_differ_from_isolated_baseline() {
    let shared = run(&contended_workload(), 3, 2, ArbitrationPolicy::FairShare).report;
    // Same specs and explicit seeds, each alone on an identical site.
    let mut isolated = Vec::new();
    for job in contended_workload().jobs() {
        let solo = Workload::new()
            .site("didclab", pool(2))
            .job(ServiceJob::new(
                job.spec
                    .clone()
                    .with_seed(shared.jobs[isolated.len()].outcome.seed),
                "didclab",
            ));
        isolated.push(run(&solo, 3, 1, ArbitrationPolicy::FairShare).report);
    }
    let shared_site = &shared.sites[0];
    let solo_energy: f64 = isolated.iter().map(|r| r.sites[0].energy_j).sum();
    assert!(
        (shared_site.energy_j - solo_energy).abs() > 1e-6,
        "sharing the site must change aggregate energy: shared {} vs isolated {}",
        shared_site.energy_j,
        solo_energy
    );
    for (j, solo) in shared.jobs.iter().zip(&isolated) {
        assert!(
            (j.outcome.throughput_mbps - solo.jobs[0].outcome.throughput_mbps).abs() > 1e-6,
            "tenant {} throughput unchanged by contention",
            j.tenant
        );
    }
}

#[test]
fn fair_and_priority_schedules_differ_but_each_is_deterministic() {
    let workload = preemption_workload();
    let fair = run(&workload, 11, 2, ArbitrationPolicy::FairShare);
    let strict = run(&workload, 11, 2, ArbitrationPolicy::StrictPriority);
    assert_ne!(
        fair.report.to_json(),
        strict.report.to_json(),
        "arbitration policy must reach the report"
    );
    assert_ne!(fair.journal.to_jsonl(), strict.journal.to_jsonl());
    for (name, first) in [("fair", &fair), ("priority", &strict)] {
        let policy = match name {
            "fair" => ArbitrationPolicy::FairShare,
            _ => ArbitrationPolicy::StrictPriority,
        };
        let again = run(&workload, 11, 2, policy);
        assert_eq!(
            first.report.to_json(),
            again.report.to_json(),
            "{name} policy rerun diverged"
        );
        assert_eq!(first.journal.to_jsonl(), again.journal.to_jsonl());
    }
}

/// A job served alone on an uncontended one-slot pool is stepped one
/// quantum at a time, yet its outcome must equal the same job run in a
/// one-job batch: pausing a run is invisible. Every algorithm on both
/// testbeds, with and without a channel-fault plan under `fault_aware`,
/// at a quantum that puts step boundaries inside many macro-stepped
/// windows (7) and at the benchmark's (100).
#[test]
fn lone_served_job_equals_its_batch_run_for_every_algorithm() {
    let faults = FaultPlan::channel_only(FaultModel::new(SimDuration::from_secs(20), 9));
    let mut injected = 0;
    for tb in [eadt::testbeds::didclab(), eadt::testbeds::xsede()] {
        let pool = PoolCapacity::from_servers(tb.env.link.bandwidth, &tb.env.src.servers, 1);
        for kind in AlgorithmKind::ALL {
            for faulted in [false, true] {
                let mut spec = JobSpec::new(kind, tb.clone())
                    .with_scale(0.02)
                    .with_max_channel(4);
                if faulted {
                    spec = spec.with_faults(faults.clone()).with_fault_aware(true);
                }
                let batch = Session::builder()
                    .root_seed(13)
                    .workers(1)
                    .build()
                    .run(std::slice::from_ref(&spec));
                let batch = serde_json::to_string_pretty(&batch.jobs[0]).unwrap();
                for quantum in [7, 100] {
                    let workload = Workload::new()
                        .site("site", pool)
                        .job(ServiceJob::new(spec.clone(), "site"));
                    let served = ServiceSession::builder()
                        .root_seed(13)
                        .workers(1)
                        .quantum(quantum)
                        .build()
                        .run(&workload)
                        .expect("workload is valid");
                    let outcome = &served.report.jobs[0].outcome;
                    injected += outcome.failures;
                    assert_eq!(
                        serde_json::to_string_pretty(outcome).unwrap(),
                        batch,
                        "{}/{kind}/faults {faulted}/quantum {quantum}",
                        tb.name
                    );
                }
            }
        }
    }
    assert!(injected > 0, "the fault plan must fire");
}
