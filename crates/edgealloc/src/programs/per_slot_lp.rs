//! Per-slot linear programs shared by the greedy and atomistic baselines.
//!
//! All of them allocate over variables `x_{i,j} ≥ 0` (indexed `i·J + j`)
//! subject to demand `Σ_i x_{i,j} ≥ λ_j` and capacity `Σ_j x_{i,j} ≤ C_i`,
//! and differ only in the objective:
//!
//! * **perf-opt** — service-quality cost only,
//! * **oper-opt** — operation cost only,
//! * **stat-opt** — both static costs,
//! * **online-greedy** — the full ℙ₀ objective of the slot, including the
//!   reconfiguration and bidirectional migration costs relative to the
//!   previous slot (with auxiliary variables `u_i`, `v^{in}_{ij}`,
//!   `v^{out}_{ij}`).

use crate::algorithms::SlotInput;
use crate::allocation::Allocation;
use crate::Result;
use optim::lp::{ConstraintSense, IpmOptions, LpProblem};
use optim::resilience::{solve_lp_with_retry, RetryPolicy, SolveReport};

/// Which static cost components the objective includes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticTerms {
    /// Include operation cost `ã_{i,t} x_{ij}`.
    pub operation: bool,
    /// Include service-quality cost `(w_q d(l_{j,t}, i)/λ_j) x_{ij}`.
    pub quality: bool,
}

/// Builds the base per-slot LP (variables + demand + capacity rows) and the
/// selected static objective; returns the problem and the index of the
/// first `x` variable (always 0).
pub fn base_lp(input: &SlotInput<'_>, terms: StaticTerms) -> LpProblem {
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let w = input.weights;
    let mut lp = LpProblem::new();
    // x variables with static costs.
    for i in 0..num_clouds {
        for j in 0..num_users {
            let mut cost = 0.0;
            if terms.operation {
                cost += w.operation * input.operation_prices[i];
            }
            if terms.quality {
                let l = input.attachment[j];
                cost += w.quality * input.system.delay(l, i) / input.workloads[j];
            }
            lp.add_var(cost);
        }
    }
    // Demand rows.
    for j in 0..num_users {
        let terms: Vec<(usize, f64)> = (0..num_clouds).map(|i| (i * num_users + j, 1.0)).collect();
        lp.add_row(ConstraintSense::Ge, input.workloads[j], &terms);
    }
    // Capacity rows.
    for i in 0..num_clouds {
        let terms: Vec<(usize, f64)> = (0..num_users).map(|j| (i * num_users + j, 1.0)).collect();
        lp.add_row(ConstraintSense::Le, input.system.capacity(i), &terms);
    }
    lp
}

/// Appends the dynamic (reconfiguration + bidirectional migration) cost of
/// transitioning from `prev` to the LP built by [`base_lp`].
pub fn add_dynamic_terms(lp: &mut LpProblem, input: &SlotInput<'_>, prev: &Allocation) {
    let num_clouds = input.num_clouds();
    let num_users = input.num_users();
    let w = input.weights;
    // u_i ≥ Σ_j x_ij − Σ_j prev_ij, u_i ≥ 0 — reconfiguration.
    for i in 0..num_clouds {
        let u = lp.add_var(w.reconfig * input.reconfig_prices[i]);
        let mut terms: Vec<(usize, f64)> = vec![(u, 1.0)];
        terms.extend((0..num_users).map(|j| (i * num_users + j, -1.0)));
        lp.add_row(ConstraintSense::Ge, -prev.cloud_total(i), &terms);
    }
    // v^{in}_{ij} ≥ x_ij − prev_ij and v^{out}_{ij} ≥ prev_ij − x_ij.
    for i in 0..num_clouds {
        for j in 0..num_users {
            let k = i * num_users + j;
            let vin = lp.add_var(w.migration * input.migration_in[i]);
            lp.add_row(
                ConstraintSense::Ge,
                -prev.get(i, j),
                &[(vin, 1.0), (k, -1.0)],
            );
            let vout = lp.add_var(w.migration * input.migration_out[i]);
            lp.add_row(
                ConstraintSense::Ge,
                prev.get(i, j),
                &[(vout, 1.0), (k, 1.0)],
            );
        }
    }
}

/// Solves a per-slot LP and extracts the allocation from its first
/// `I·J` variables.
///
/// # Errors
///
/// Propagates LP solver failures.
pub fn solve_to_allocation(lp: &LpProblem, input: &SlotInput<'_>) -> Result<Allocation> {
    let sol = lp.solve()?;
    let n = input.num_clouds() * input.num_users();
    Ok(Allocation::from_flat(
        input.num_clouds(),
        input.num_users(),
        sol.x[..n].to_vec(),
    ))
}

/// [`solve_to_allocation`] under the default [`RetryPolicy`]: interior-point
/// attempts escalate through relaxed options and may finish on the
/// exact-simplex rung. Returns the allocation (or the last error) together
/// with the [`SolveReport`] describing which rung produced it.
pub fn solve_to_allocation_resilient(
    lp: &LpProblem,
    input: &SlotInput<'_>,
) -> (Result<Allocation>, SolveReport) {
    solve_to_allocation_resilient_with(lp, input, &IpmOptions::default())
}

/// [`solve_to_allocation_resilient`] with explicit base [`IpmOptions`] —
/// the degradation ladder passes a remaining-slot-time
/// [`optim::budget::SolveBudget`] through here so even the LP rung respects
/// the slot deadline.
pub fn solve_to_allocation_resilient_with(
    lp: &LpProblem,
    input: &SlotInput<'_>,
    opts: &IpmOptions,
) -> (Result<Allocation>, SolveReport) {
    let (result, report) = solve_lp_with_retry(lp, opts, &RetryPolicy::default());
    let n = input.num_clouds() * input.num_users();
    let allocation = result.map_err(crate::Error::from).map(|sol| {
        Allocation::from_flat(input.num_clouds(), input.num_users(), sol.x[..n].to_vec())
    });
    (allocation, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    #[test]
    fn base_lp_has_expected_shape() {
        let inst = Instance::fig1_example(2.1, true);
        let input = crate::algorithms::SlotInput::from_instance(&inst, 0);
        let lp = base_lp(
            &input,
            StaticTerms {
                operation: true,
                quality: true,
            },
        );
        assert_eq!(lp.num_vars(), 2); // 2 clouds × 1 user
        assert_eq!(lp.num_rows(), 3); // 1 demand + 2 capacity
    }

    #[test]
    fn dynamic_terms_add_u_and_v_vars() {
        let inst = Instance::fig1_example(2.1, true);
        let input = crate::algorithms::SlotInput::from_instance(&inst, 0);
        let mut lp = base_lp(
            &input,
            StaticTerms {
                operation: true,
                quality: true,
            },
        );
        let prev = Allocation::zeros(2, 1);
        add_dynamic_terms(&mut lp, &input, &prev);
        // +2 u vars, +2 vin, +2 vout.
        assert_eq!(lp.num_vars(), 2 + 2 + 4);
    }

    #[test]
    fn solution_satisfies_demand_and_capacity() {
        let inst = Instance::fig1_example(2.1, true);
        let input = crate::algorithms::SlotInput::from_instance(&inst, 0);
        let lp = base_lp(
            &input,
            StaticTerms {
                operation: true,
                quality: true,
            },
        );
        let x = solve_to_allocation(&lp, &input).unwrap();
        assert!(x.demand_shortfall(inst.workloads()) < 1e-6);
        assert!(x.capacity_excess(inst.system().capacities()) < 1e-6);
        // Serving the user from its own cloud (0) is strictly cheaper here.
        assert!(x.get(0, 0) > 0.99);
    }
}
