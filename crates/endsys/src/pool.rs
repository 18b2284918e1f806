//! Shared per-site resource pools and arbitration.
//!
//! A real transfer site serves many tenants at once: their channels
//! compete for the same NIC uplink, the same disk arrays and the same
//! CPU cores. This module models that contention surface as a capacity
//! vector ([`PoolCapacity`]) shared by the transfers currently resident
//! at the site ([`PoolMember`]), and resolves it each scheduling round
//! with [`arbitrate`], which grants
//! every member a share of the bandwidth and disk capacity under one of
//! two [`ArbitrationPolicy`]s:
//!
//! * **fair-share** — weighted max-min water-filling, the multi-tenant
//!   generalization of `eadt_net::fair_share`: capacity is split in
//!   proportion to tenant weight, members that demand less than their
//!   share keep their demand, and the leftover refills the rest;
//! * **strict-priority** — members are served in descending priority
//!   order, each taking `min(demand, remaining)`; equal priorities
//!   split their class's remainder max-min fairly. Low-priority members
//!   can be granted **zero** — starvation handling (requeue, preempt)
//!   is the scheduler's job, not the arbiter's.
//!
//! Core slots are the third, *integral* dimension: they are not
//! arbitrated fractionally each round but consumed whole at admission
//! time and released on finish/preemption ([`PoolCapacity::core_slots`];
//! the service layer in `eadt-fleet` does that accounting).
//!
//! Everything here is pure arithmetic over the inputs — no RNG, no
//! clocks — so a scheduler built on it stays deterministic.

use crate::ServerSpec;
use eadt_sim::Rate;
use serde::{Deserialize, Serialize};

/// How a site's pooled capacity is split across resident transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArbitrationPolicy {
    /// Weighted max-min fair sharing across all residents.
    FairShare,
    /// Descending-priority service; higher [`PoolMember::priority`]
    /// values win, ties share their class max-min fairly.
    StrictPriority,
}

impl ArbitrationPolicy {
    /// Canonical lower-case name (CLI flag value, report field).
    pub fn name(self) -> &'static str {
        match self {
            ArbitrationPolicy::FairShare => "fair",
            ArbitrationPolicy::StrictPriority => "priority",
        }
    }

    /// Parses a policy name as written on the CLI.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fair" | "fair-share" | "fairshare" => Ok(ArbitrationPolicy::FairShare),
            "priority" | "strict" | "strict-priority" => Ok(ArbitrationPolicy::StrictPriority),
            other => Err(format!(
                "unknown arbitration policy `{other}` (expected `fair` or `priority`)"
            )),
        }
    }
}

/// The shared capacity of one site, as seen by its resident transfers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolCapacity {
    /// NIC uplink capacity shared by every resident transfer.
    pub bandwidth: Rate,
    /// Aggregate disk throughput shared across residents.
    pub disk: Rate,
    /// Concurrent-transfer slots (the integral core dimension): how many
    /// transfers may be resident at once.
    pub core_slots: u32,
}

impl PoolCapacity {
    /// Derives a site's pooled capacity from its server inventory:
    /// bandwidth from the given uplink, disk as the sum of each server's
    /// peak aggregate ceiling, and the requested slot count.
    pub fn from_servers(uplink: Rate, servers: &[ServerSpec], core_slots: u32) -> Self {
        let disk_bps: f64 = servers.iter().map(|s| s.disk.peak_rate().as_bps()).sum();
        PoolCapacity {
            bandwidth: uplink,
            disk: Rate::from_bps(disk_bps),
            core_slots,
        }
    }
}

/// One transfer resident at a site, as the arbiter sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolMember {
    /// Caller-side identifier (job index); echoed in the grant.
    pub id: u32,
    /// Fair-share weight (> 0); proportional share under
    /// [`ArbitrationPolicy::FairShare`].
    pub weight: f64,
    /// Priority class; **higher wins** under
    /// [`ArbitrationPolicy::StrictPriority`].
    pub priority: u32,
    /// Bandwidth the member could use running alone (its link ceiling).
    pub bandwidth_demand: Rate,
    /// Disk throughput the member could use running alone.
    pub disk_demand: Rate,
}

/// The arbiter's verdict for one member, index-aligned with the input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolGrant {
    /// The member's [`PoolMember::id`].
    pub id: u32,
    /// Granted share of the pooled bandwidth.
    pub bandwidth: Rate,
    /// Granted share of the pooled disk throughput.
    pub disk: Rate,
}

impl PoolGrant {
    /// Bandwidth grant as a fraction of the member's standalone demand,
    /// clamped to `[0, 1]` — the factor a transfer engine multiplies
    /// into its private link capacity to simulate the contention.
    pub fn bandwidth_fraction(&self, demand: Rate) -> f64 {
        fraction(self.bandwidth, demand)
    }

    /// Disk grant as a fraction of the member's standalone demand.
    pub fn disk_fraction(&self, demand: Rate) -> f64 {
        fraction(self.disk, demand)
    }
}

fn fraction(grant: Rate, demand: Rate) -> f64 {
    if demand.as_bps() <= 0.0 {
        return 1.0;
    }
    (grant.as_bps() / demand.as_bps()).clamp(0.0, 1.0)
}

/// Splits `capacity` across `members` under `policy`, returning one
/// grant per member in input order.
///
/// Bandwidth and disk are arbitrated independently (a member can be
/// disk-bound at its full bandwidth share). Grants never exceed the
/// member's demand, never exceed capacity in total, and are a pure
/// function of the inputs.
pub fn arbitrate(
    capacity: &PoolCapacity,
    members: &[PoolMember],
    policy: ArbitrationPolicy,
) -> Vec<PoolGrant> {
    let bw = arbitrate_dim(capacity.bandwidth.as_bps(), members, policy, |m| {
        m.bandwidth_demand.as_bps()
    });
    let disk = arbitrate_dim(capacity.disk.as_bps(), members, policy, |m| {
        m.disk_demand.as_bps()
    });
    members
        .iter()
        .enumerate()
        .map(|(i, m)| PoolGrant {
            id: m.id,
            bandwidth: Rate::from_bps(bw[i]),
            disk: Rate::from_bps(disk[i]),
        })
        .collect()
}

/// Arbitrates one capacity dimension; `demand_of` projects a member's
/// demand in that dimension.
fn arbitrate_dim(
    capacity: f64,
    members: &[PoolMember],
    policy: ArbitrationPolicy,
    demand_of: impl Fn(&PoolMember) -> f64,
) -> Vec<f64> {
    let n = members.len();
    let mut grants = vec![0.0f64; n];
    if n == 0 || capacity <= 0.0 {
        return grants;
    }
    let demands: Vec<f64> = members.iter().map(&demand_of).collect();
    match policy {
        ArbitrationPolicy::FairShare => {
            let weights: Vec<f64> = members
                .iter()
                .map(|m| m.weight.max(f64::MIN_POSITIVE))
                .collect();
            let idx: Vec<usize> = (0..n).collect();
            weighted_water_fill(capacity, &demands, &weights, &idx, &mut grants);
        }
        ArbitrationPolicy::StrictPriority => {
            // Classes in descending priority; within a class, members
            // split the remainder max-min fairly (unit weights). Sort is
            // stable on input order, so ties resolve deterministically.
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| members[b].priority.cmp(&members[a].priority));
            let mut remaining = capacity;
            let mut start = 0;
            while start < order.len() {
                let class_priority = members[order[start]].priority;
                let mut end = start;
                while end < order.len() && members[order[end]].priority == class_priority {
                    end += 1;
                }
                if remaining <= 0.0 {
                    break;
                }
                let class = &order[start..end];
                let weights = vec![1.0f64; n];
                let granted =
                    weighted_water_fill(remaining, &demands, &weights, class, &mut grants);
                remaining -= granted;
                start = end;
            }
        }
    }
    grants
}

/// Weighted max-min water-filling over the member subset `idx`: each
/// member's fair share is proportional to its weight; members demanding
/// less keep their demand and the leftover refills the rest. Writes
/// grants in place and returns the total granted.
fn weighted_water_fill(
    capacity: f64,
    demands: &[f64],
    weights: &[f64],
    idx: &[usize],
    grants: &mut [f64],
) -> f64 {
    let mut remaining = capacity;
    let mut unsat: Vec<usize> = idx.iter().copied().filter(|&i| demands[i] > 0.0).collect();
    // Each pass finalizes every member whose demand fits under its
    // weighted share; at least one member finalizes per pass (or the
    // remainder is split and the loop ends), so this terminates in at
    // most |idx| passes.
    loop {
        if unsat.is_empty() || remaining <= 0.0 {
            break;
        }
        let weight_sum: f64 = unsat.iter().map(|&i| weights[i]).sum();
        let mut finalized = false;
        let mut next: Vec<usize> = Vec::with_capacity(unsat.len());
        for &i in &unsat {
            let share = remaining * weights[i] / weight_sum;
            if demands[i] <= share {
                grants[i] = demands[i];
                finalized = true;
            } else {
                next.push(i);
            }
        }
        if finalized {
            // Remove the satisfied demand before refilling the rest.
            let satisfied: f64 = unsat
                .iter()
                .filter(|i| !next.contains(i))
                .map(|&i| demands[i])
                .sum();
            remaining -= satisfied;
            unsat = next;
            continue;
        }
        // Everyone left wants more than its share: split by weight.
        for &i in &unsat {
            grants[i] = remaining * weights[i] / weight_sum;
        }
        remaining = 0.0;
        break;
    }
    capacity - remaining.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskSubsystem;

    fn gbps(v: f64) -> Rate {
        Rate::from_gbps(v)
    }

    fn member(id: u32, weight: f64, priority: u32, bw_gbps: f64) -> PoolMember {
        PoolMember {
            id,
            weight,
            priority,
            bandwidth_demand: gbps(bw_gbps),
            disk_demand: gbps(bw_gbps),
        }
    }

    fn cap(bw_gbps: f64, slots: u32) -> PoolCapacity {
        PoolCapacity {
            bandwidth: gbps(bw_gbps),
            disk: gbps(bw_gbps),
            core_slots: slots,
        }
    }

    #[test]
    fn policy_names_round_trip() {
        for p in [
            ArbitrationPolicy::FairShare,
            ArbitrationPolicy::StrictPriority,
        ] {
            assert_eq!(ArbitrationPolicy::parse(p.name()).unwrap(), p);
        }
        assert!(ArbitrationPolicy::parse("wfq").is_err());
    }

    #[test]
    fn fair_share_splits_equal_weights_evenly() {
        let members = vec![member(0, 1.0, 0, 10.0), member(1, 1.0, 0, 10.0)];
        let g = arbitrate(&cap(10.0, 4), &members, ArbitrationPolicy::FairShare);
        assert!((g[0].bandwidth.as_gbps() - 5.0).abs() < 1e-9);
        assert!((g[1].bandwidth.as_gbps() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_respects_weights() {
        let members = vec![member(0, 3.0, 0, 10.0), member(1, 1.0, 0, 10.0)];
        let g = arbitrate(&cap(8.0, 4), &members, ArbitrationPolicy::FairShare);
        assert!((g[0].bandwidth.as_gbps() - 6.0).abs() < 1e-9);
        assert!((g[1].bandwidth.as_gbps() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fair_share_small_demand_keeps_its_demand() {
        let members = vec![
            member(0, 1.0, 0, 1.0),
            member(1, 1.0, 0, 10.0),
            member(2, 1.0, 0, 10.0),
        ];
        let g = arbitrate(&cap(9.0, 4), &members, ArbitrationPolicy::FairShare);
        assert!((g[0].bandwidth.as_gbps() - 1.0).abs() < 1e-9);
        assert!((g[1].bandwidth.as_gbps() - 4.0).abs() < 1e-9);
        assert!((g[2].bandwidth.as_gbps() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn strict_priority_serves_high_class_first() {
        let members = vec![member(0, 1.0, 1, 10.0), member(1, 1.0, 5, 10.0)];
        let g = arbitrate(&cap(10.0, 4), &members, ArbitrationPolicy::StrictPriority);
        assert!((g[1].bandwidth.as_gbps() - 10.0).abs() < 1e-9, "high wins");
        assert_eq!(g[0].bandwidth.as_bps(), 0.0, "low is starved");
    }

    #[test]
    fn strict_priority_residual_flows_down() {
        let members = vec![member(0, 1.0, 1, 10.0), member(1, 1.0, 5, 4.0)];
        let g = arbitrate(&cap(10.0, 4), &members, ArbitrationPolicy::StrictPriority);
        assert!((g[1].bandwidth.as_gbps() - 4.0).abs() < 1e-9);
        assert!((g[0].bandwidth.as_gbps() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn strict_priority_ties_share_fairly() {
        let members = vec![member(0, 1.0, 3, 10.0), member(1, 1.0, 3, 10.0)];
        let g = arbitrate(&cap(6.0, 4), &members, ArbitrationPolicy::StrictPriority);
        assert!((g[0].bandwidth.as_gbps() - 3.0).abs() < 1e-9);
        assert!((g[1].bandwidth.as_gbps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn grants_never_exceed_demand_or_capacity() {
        let members = vec![
            member(0, 2.0, 2, 3.0),
            member(1, 1.0, 7, 0.5),
            member(2, 0.5, 2, 8.0),
            member(3, 1.0, 0, 0.0),
        ];
        for policy in [
            ArbitrationPolicy::FairShare,
            ArbitrationPolicy::StrictPriority,
        ] {
            let g = arbitrate(&cap(4.0, 8), &members, policy);
            let total: f64 = g.iter().map(|g| g.bandwidth.as_bps()).sum();
            assert!(total <= gbps(4.0).as_bps() * (1.0 + 1e-12), "{policy:?}");
            for (grant, m) in g.iter().zip(&members) {
                assert!(
                    grant.bandwidth.as_bps() <= m.bandwidth_demand.as_bps() * (1.0 + 1e-12),
                    "{policy:?} member {}",
                    m.id
                );
            }
        }
    }

    #[test]
    fn under_subscription_grants_all_demands() {
        let members = vec![member(0, 1.0, 0, 2.0), member(1, 1.0, 9, 3.0)];
        for policy in [
            ArbitrationPolicy::FairShare,
            ArbitrationPolicy::StrictPriority,
        ] {
            let g = arbitrate(&cap(10.0, 4), &members, policy);
            assert!((g[0].bandwidth.as_gbps() - 2.0).abs() < 1e-9, "{policy:?}");
            assert!((g[1].bandwidth.as_gbps() - 3.0).abs() < 1e-9, "{policy:?}");
        }
    }

    #[test]
    fn empty_pool_and_zero_capacity_grant_nothing() {
        assert!(arbitrate(&cap(10.0, 4), &[], ArbitrationPolicy::FairShare).is_empty());
        let members = vec![member(0, 1.0, 0, 5.0)];
        let g = arbitrate(&cap(0.0, 4), &members, ArbitrationPolicy::FairShare);
        assert_eq!(g[0].bandwidth.as_bps(), 0.0);
    }

    #[test]
    fn grant_fractions_clamp_and_default() {
        let g = PoolGrant {
            id: 0,
            bandwidth: gbps(5.0),
            disk: gbps(2.0),
        };
        assert!((g.bandwidth_fraction(gbps(10.0)) - 0.5).abs() < 1e-12);
        assert_eq!(g.bandwidth_fraction(Rate::ZERO), 1.0);
        assert_eq!(g.disk_fraction(gbps(1.0)), 1.0, "over-grant clamps to 1");
    }

    #[test]
    fn capacity_from_servers_sums_disk_ceilings() {
        let server = ServerSpec::new(
            "dtn",
            4,
            115.0,
            gbps(10.0),
            DiskSubsystem::Array {
                per_access: Rate::from_mbps(1200.0),
                aggregate: gbps(2.0),
            },
        );
        let cap = PoolCapacity::from_servers(gbps(10.0), &[server.clone(), server], 3);
        assert_eq!(cap.core_slots, 3);
        assert!((cap.disk.as_gbps() - 4.0).abs() < 1e-9);
        assert!((cap.bandwidth.as_gbps() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn arbitration_is_deterministic() {
        let members = vec![
            member(0, 1.0, 2, 7.0),
            member(1, 2.0, 2, 7.0),
            member(2, 1.0, 4, 7.0),
        ];
        for policy in [
            ArbitrationPolicy::FairShare,
            ArbitrationPolicy::StrictPriority,
        ] {
            let a = arbitrate(&cap(9.0, 8), &members, policy);
            let b = arbitrate(&cap(9.0, 8), &members, policy);
            assert_eq!(a, b, "{policy:?}");
        }
    }
}
