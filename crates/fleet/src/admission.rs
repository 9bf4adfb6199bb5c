//! Plan-time admission control over the fleet's shared resources.
//!
//! The orchestrator's shared resources — the `thermal-par` worker
//! pool, the fleet memory budget, and the sysid Gram-cache arena —
//! are finite; a fleet asked to serve more demand than they cover
//! must shed load instead of stalling everyone. Two properties make
//! shedding safe to assert on:
//!
//! * **deterministic** — admission decisions are a pure function of
//!   the building specs and the policy, computed *before* any
//!   building runs. Runtime health never feeds back into admission,
//!   so a building's admission fate is identical between a clean run
//!   and a faulted run — which is exactly what the blast-radius
//!   byte-compare needs.
//! * **counted** — every refusal is recorded per building with the
//!   demand that was refused, so overload is observable, not silent.
//!
//! The demand model is intentionally simple: a building costs one
//! memory unit per instrumented sensor (its dominant steady-state
//! footprint: channel registries, reorder buffers, health machines
//! all scale with sensor count). The policy also fixes the per-
//! building Gram-cache size so the cache arena grows linearly and
//! boundedly with admitted buildings.

use crate::spec::BuildingSpec;

/// Static resource policy the fleet plans against.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Hard cap on concurrently served buildings (shard supervisors).
    pub max_buildings: usize,
    /// Fleet-wide memory budget, in sensor-units (see module docs).
    pub memory_budget_units: u64,
    /// log2 of each admitted building's Gram-cache capacity in blocks
    /// ([`thermal_sysid::GramCache::with_slot_bits`]); the cache arena
    /// therefore holds at most `admitted × 2^bits` blocks, bounded by
    /// construction.
    pub cache_slot_bits: u32,
}

impl Default for AdmissionPolicy {
    /// Generous defaults: admit up to 1024 buildings and 64k
    /// sensor-units — soaks shed nothing unless a test narrows the
    /// budget on purpose.
    fn default() -> Self {
        AdmissionPolicy {
            max_buildings: 1024,
            memory_budget_units: 65_536,
            cache_slot_bits: 6,
        }
    }
}

/// One refused building, with the demand that was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShedRecord {
    /// Building id.
    pub building: u32,
    /// Sensor-units the building would have cost.
    pub demand_units: u64,
    /// Which budget refused it.
    pub reason: ShedReason,
}

/// Which resource bound a shed building hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The `max_buildings` concurrency cap.
    BuildingCap,
    /// The fleet memory budget.
    MemoryBudget,
}

impl ShedReason {
    /// Stable report label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ShedReason::BuildingCap => "building_cap",
            ShedReason::MemoryBudget => "memory_budget",
        }
    }
}

/// The deterministic admission decision for a whole fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionPlan {
    /// Ids admitted to fit and serve, ascending.
    pub admitted: Vec<u32>,
    /// Refusals, ascending id, each with its counted demand.
    pub shed: Vec<ShedRecord>,
    /// Units consumed by the admitted set.
    pub admitted_units: u64,
    /// The budget the plan was computed against.
    pub budget_units: u64,
}

impl AdmissionPlan {
    /// Plans admission for `specs` under `policy`: buildings are
    /// considered in ascending id order and admitted while both the
    /// concurrency cap and the memory budget hold. First-fit in id
    /// order keeps the plan a pure function of `(specs, policy)`.
    #[must_use]
    pub fn plan(specs: &[BuildingSpec], policy: &AdmissionPolicy) -> Self {
        let mut admitted = Vec::new();
        let mut shed = Vec::new();
        let mut used = 0_u64;
        for spec in specs {
            let demand = spec.sensor_count() as u64 + 2; // + thermostats
            if admitted.len() >= policy.max_buildings {
                shed.push(ShedRecord {
                    building: spec.id,
                    demand_units: demand,
                    reason: ShedReason::BuildingCap,
                });
                continue;
            }
            if used + demand > policy.memory_budget_units {
                shed.push(ShedRecord {
                    building: spec.id,
                    demand_units: demand,
                    reason: ShedReason::MemoryBudget,
                });
                continue;
            }
            used += demand;
            admitted.push(spec.id);
        }
        AdmissionPlan {
            admitted,
            shed,
            admitted_units: used,
            budget_units: policy.memory_budget_units,
        }
    }

    /// True when `building` was admitted.
    #[must_use]
    pub fn is_admitted(&self, building: u32) -> bool {
        self.admitted.binary_search(&building).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: u32) -> Vec<BuildingSpec> {
        (0..n).map(|i| BuildingSpec::generate(7, i)).collect()
    }

    #[test]
    fn generous_policy_admits_everything() {
        let plan = AdmissionPlan::plan(&specs(32), &AdmissionPolicy::default());
        assert_eq!(plan.admitted.len(), 32);
        assert!(plan.shed.is_empty());
        assert!(plan.admitted_units > 0);
    }

    #[test]
    fn building_cap_sheds_the_tail_with_counted_records() {
        let policy = AdmissionPolicy {
            max_buildings: 3,
            ..AdmissionPolicy::default()
        };
        let plan = AdmissionPlan::plan(&specs(8), &policy);
        assert_eq!(plan.admitted, vec![0, 1, 2]);
        assert_eq!(plan.shed.len(), 5);
        assert!(plan
            .shed
            .iter()
            .all(|s| s.reason == ShedReason::BuildingCap && s.demand_units > 0));
        assert!(plan.is_admitted(1));
        assert!(!plan.is_admitted(5));
    }

    #[test]
    fn memory_budget_sheds_deterministically() {
        let all = specs(8);
        let first_demand = all[0].sensor_count() as u64 + 2;
        let policy = AdmissionPolicy {
            memory_budget_units: first_demand,
            ..AdmissionPolicy::default()
        };
        let a = AdmissionPlan::plan(&all, &policy);
        let b = AdmissionPlan::plan(&all, &policy);
        assert_eq!(a, b, "planning is pure");
        assert_eq!(a.admitted, vec![0]);
        assert_eq!(a.shed.len(), 7);
        assert!(a.shed.iter().all(|s| s.reason == ShedReason::MemoryBudget));
        assert_eq!(a.admitted_units, first_demand);
    }
}
