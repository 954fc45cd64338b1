//! Input sanitization for corrupted instances.
//!
//! Fault injection (and real telemetry) can hand the online pipeline
//! non-finite prices, negative delays, or vanished capacities. Feeding
//! those to the solvers produces NaN objectives, panics in comparison
//! sorts, or silent garbage. This module repairs a [`SlotInput`] into a
//! well-formed copy *before* any solver sees it, reporting exactly what
//! was changed so the slot can be flagged in its
//! [`crate::health::SlotHealth`].
//!
//! Sanitization is deliberately conservative:
//!
//! * a **non-finite price** is replaced by the *largest* finite price of
//!   its vector (corrupted entries become unattractive, never free);
//! * a **negative price or delay** is clamped to zero;
//! * a **non-finite or negative capacity** becomes zero (the cloud is
//!   treated as down, which the degradation ladder then handles) — an
//!   exact zero is kept as-is, since "cloud down" is a legitimate state,
//!   not corruption;
//! * a **non-finite or non-positive workload** becomes 1 (the paper's
//!   minimum `λ_j ∈ ℤ⁺`).

use crate::algorithms::SlotInput;
use crate::system::EdgeCloudSystem;

/// Replacement for a corrupted price: the largest finite entry of the
/// vector, so the corrupted option never looks artificially cheap.
fn price_ceiling(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .fold(f64::NAN, f64::max)
        .max(1.0)
}

/// Whether a price, delay or capacity is corrupted: non-finite or negative.
fn bad_value(v: f64) -> bool {
    !v.is_finite() | (v < 0.0)
}

/// Whether a workload is corrupted: non-finite or not positive.
fn bad_workload(l: f64) -> bool {
    !l.is_finite() | !(l > 0.0)
}

/// Fixes one price vector in place; appends a note per change.
pub(crate) fn fix_prices(values: &mut [f64], what: &str, notes: &mut Vec<String>) {
    let ceiling = price_ceiling(values);
    for (i, v) in values.iter_mut().enumerate() {
        if !bad_value(*v) {
            continue;
        }
        if v.is_finite() {
            notes.push(format!("{what}[{i}] was {v}, clamped to 0"));
            *v = 0.0;
        } else {
            notes.push(format!("{what}[{i}] was {v}, set to {ceiling}"));
            *v = ceiling;
        }
    }
}

/// Fixes workloads in place (finite and positive, minimum 1).
pub(crate) fn fix_workloads(values: &mut [f64], notes: &mut Vec<String>) {
    for (j, l) in values.iter_mut().enumerate() {
        if bad_workload(*l) {
            notes.push(format!("workload[{j}] was {l}, set to 1"));
            *l = 1.0;
        }
    }
}

/// Fixes access delays in place (corrupted ones become 0).
fn fix_access_delays(values: &mut [f64], notes: &mut Vec<String>) {
    for (j, d) in values.iter_mut().enumerate() {
        if bad_value(*d) {
            notes.push(format!("access_delay[{j}] was {d}, clamped to 0"));
            *d = 0.0;
        }
    }
}

/// A copy of `values` repaired by `fix`, made only once an entry is `bad`:
/// clean vectors are not copied.
fn repaired(
    values: &[f64],
    bad: impl Fn(f64) -> bool,
    fix: impl FnOnce(&mut [f64]),
) -> Option<Vec<f64>> {
    // A chunk at a time, each without an early exit, so the check
    // vectorizes: at a million users a per-entry exit costs milliseconds.
    let corrupted = values
        .chunks(64)
        .any(|chunk| chunk.iter().fold(false, |any, &v| any | bad(v)));
    corrupted.then(|| {
        let mut copy = values.to_vec();
        fix(&mut copy);
        copy
    })
}

/// Hardens a workload vector emitted by a generator (finite and positive,
/// minimum 1 — the paper's `λ_j ∈ ℤ⁺` floor), returning a note per
/// repaired entry. This is the public entry point hostile scenario
/// generators run *before* their surged demand reaches the sentinel, so a
/// NaN or negative surge factor cannot smuggle ill-formed demand into the
/// feasibility classification.
pub fn harden_workloads(values: &mut [f64]) -> Vec<String> {
    let mut notes = Vec::new();
    fix_workloads(values, &mut notes);
    notes
}

/// Clamps a multiplicative demand/capacity scaling factor to a safe value:
/// non-finite factors become 1 (no scaling), negative factors become 0
/// (full loss). Generators use this so a corrupted surge spec degrades to
/// a no-op instead of poisoning every downstream sum.
pub fn clamp_factor(v: f64) -> f64 {
    if !v.is_finite() {
        1.0
    } else if v < 0.0 {
        0.0
    } else {
        v
    }
}

/// Whether a cloud's delay to itself is corrupted (anything but 0).
fn bad_self_delay(d: f64) -> bool {
    d != 0.0
}

/// Whether any capacity or delay of `system` is corrupted.
fn system_is_corrupted(system: &EdgeCloudSystem) -> bool {
    let num_clouds = system.num_clouds();
    (0..num_clouds).any(|i| {
        bad_value(system.capacity(i))
            || (0..num_clouds).any(|k| {
                let d = system.delay(i, k);
                if i == k {
                    bad_self_delay(d)
                } else {
                    bad_value(d)
                }
            })
    })
}

/// Fixes a system's capacities and delays in place through the unchecked
/// injectors: sanitized capacities may legitimately be zero, which
/// [`EdgeCloudSystem::new`] rejects.
pub(crate) fn fix_system(system: &mut EdgeCloudSystem, notes: &mut Vec<String>) {
    let num_clouds = system.num_clouds();
    let delay_ceiling = {
        let mut m = 0.0f64;
        for i in 0..num_clouds {
            for k in 0..num_clouds {
                let d = system.delay(i, k);
                if d.is_finite() && d > m {
                    m = d;
                }
            }
        }
        m
    };
    for i in 0..num_clouds {
        let c = system.capacity(i);
        if bad_value(c) {
            notes.push(format!("capacity[{i}] was {c}, set to 0"));
            system.inject_capacity(i, 0.0);
        }
        for k in 0..num_clouds {
            let d = system.delay(i, k);
            if i == k {
                if bad_self_delay(d) {
                    notes.push(format!("delay[{i}][{i}] was {d}, set to 0"));
                    system.inject_delay(i, k, 0.0);
                }
            } else if bad_value(d) {
                if d.is_finite() {
                    notes.push(format!("delay[{i}][{k}] was {d}, clamped to 0"));
                    system.inject_delay(i, k, 0.0);
                } else {
                    notes.push(format!("delay[{i}][{k}] was {d}, set to {delay_ceiling}"));
                    system.inject_delay(i, k, delay_ceiling);
                }
            }
        }
    }
}

/// An owned, well-formed copy of one slot's inputs. Borrow it back into a
/// [`SlotInput`] with [`SanitizedSlot::as_input`].
#[derive(Debug, Clone)]
pub struct SanitizedSlot {
    system: EdgeCloudSystem,
    workloads: Vec<f64>,
    operation_prices: Vec<f64>,
    access_delay: Vec<f64>,
    reconfig_prices: Vec<f64>,
    migration_out: Vec<f64>,
    migration_in: Vec<f64>,
}

impl SanitizedSlot {
    /// The slot view over the sanitized data, preserving the original
    /// slot index, attachments, and weights.
    pub fn as_input<'a>(&'a self, raw: &SlotInput<'a>) -> SlotInput<'a> {
        SlotInput {
            t: raw.t,
            system: &self.system,
            workloads: &self.workloads,
            operation_prices: &self.operation_prices,
            attachment: raw.attachment,
            access_delay: &self.access_delay,
            reconfig_prices: &self.reconfig_prices,
            migration_out: &self.migration_out,
            migration_in: &self.migration_in,
            weights: raw.weights,
            multiplicity: raw.multiplicity,
        }
    }
}

/// Checks a slot's inputs and, when anything is corrupted, returns a
/// repaired copy plus a note per repaired value. Returns `None` for clean
/// inputs so the common path stays allocation-free: each vector (and the
/// system) is only read until its first corrupted entry, and copied from
/// there on only if one exists.
pub fn sanitize_slot(input: &SlotInput<'_>) -> Option<(SanitizedSlot, Vec<String>)> {
    let mut notes = Vec::new();
    let workloads = repaired(input.workloads, bad_workload, |w| {
        fix_workloads(w, &mut notes)
    });
    let mut prices = |values: &[f64], what: &str| {
        repaired(values, bad_value, |v| fix_prices(v, what, &mut notes))
    };
    let operation_prices = prices(input.operation_prices, "operation_price");
    let reconfig_prices = prices(input.reconfig_prices, "reconfig_price");
    let migration_out = prices(input.migration_out, "migration_out");
    let migration_in = prices(input.migration_in, "migration_in");
    let access_delay = repaired(input.access_delay, bad_value, |d| {
        fix_access_delays(d, &mut notes)
    });
    let system = system_is_corrupted(input.system).then(|| {
        let mut system = input.system.clone();
        fix_system(&mut system, &mut notes);
        system
    });

    if notes.is_empty() {
        return None;
    }
    let or_copy =
        |fixed: Option<Vec<f64>>, values: &[f64]| fixed.unwrap_or_else(|| values.to_vec());
    Some((
        SanitizedSlot {
            system: system.unwrap_or_else(|| input.system.clone()),
            workloads: or_copy(workloads, input.workloads),
            operation_prices: or_copy(operation_prices, input.operation_prices),
            access_delay: or_copy(access_delay, input.access_delay),
            reconfig_prices: or_copy(reconfig_prices, input.reconfig_prices),
            migration_out: or_copy(migration_out, input.migration_out),
            migration_in: or_copy(migration_in, input.migration_in),
        },
        notes,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    #[test]
    fn clean_input_needs_no_sanitization() {
        let inst = Instance::fig1_example(2.1, true);
        let input = SlotInput::from_instance(&inst, 0);
        assert!(sanitize_slot(&input).is_none());
    }

    #[test]
    fn nan_price_becomes_the_row_ceiling() {
        let inst = Instance::fig1_example(2.1, true);
        let mut bad = inst.clone();
        bad.inject_operation_price(0, 1, f64::NAN);
        let input = SlotInput::from_instance(&bad, 0);
        let (clean, notes) = sanitize_slot(&input).expect("corruption detected");
        let fixed = clean.as_input(&input);
        assert!(fixed.operation_prices.iter().all(|p| p.is_finite()));
        // The surviving finite price is 1.0, so the ceiling is 1.0.
        assert_eq!(fixed.operation_prices[1], 1.0);
        assert_eq!(notes.len(), 1);
    }

    #[test]
    fn negative_price_clamps_to_zero() {
        let inst = Instance::fig1_example(2.1, true);
        let mut bad = inst.clone();
        bad.inject_operation_price(0, 0, -5.0);
        let input = SlotInput::from_instance(&bad, 0);
        let (clean, _) = sanitize_slot(&input).unwrap();
        assert_eq!(clean.as_input(&input).operation_prices[0], 0.0);
    }

    #[test]
    fn corrupted_capacity_becomes_zero_but_exact_zero_is_kept_clean() {
        let inst = Instance::fig1_example(2.1, true);
        let mut bad = inst.clone();
        bad.system_mut().inject_capacity(0, f64::INFINITY);
        let input = SlotInput::from_instance(&bad, 0);
        let (clean, _) = sanitize_slot(&input).unwrap();
        assert_eq!(clean.as_input(&input).system.capacity(0), 0.0);

        // A cloud that is down (capacity exactly 0) is a state, not a fault.
        let mut down = inst.clone();
        down.system_mut().inject_capacity(0, 0.0);
        let input = SlotInput::from_instance(&down, 0);
        assert!(sanitize_slot(&input).is_none());
    }

    #[test]
    fn harden_workloads_repairs_generator_output() {
        let mut w = vec![2.0, f64::NAN, -3.0, f64::INFINITY, 0.0, 5.5];
        let notes = harden_workloads(&mut w);
        assert_eq!(w, vec![2.0, 1.0, 1.0, 1.0, 1.0, 5.5]);
        assert_eq!(notes.len(), 4);
        let mut clean = vec![1.0, 2.0];
        assert!(harden_workloads(&mut clean).is_empty());
    }

    #[test]
    fn clamp_factor_neutralizes_bad_scaling() {
        assert_eq!(clamp_factor(2.5), 2.5);
        assert_eq!(clamp_factor(0.0), 0.0);
        assert_eq!(clamp_factor(-1.0), 0.0);
        assert_eq!(clamp_factor(f64::NAN), 1.0);
        assert_eq!(clamp_factor(f64::INFINITY), 1.0);
    }

    #[test]
    fn nan_workload_becomes_one() {
        let inst = Instance::fig1_example(2.1, true);
        let mut bad = inst.clone();
        bad.inject_workload(0, f64::NAN);
        let input = SlotInput::from_instance(&bad, 0);
        let (clean, _) = sanitize_slot(&input).unwrap();
        assert_eq!(clean.as_input(&input).workloads[0], 1.0);
    }
}
