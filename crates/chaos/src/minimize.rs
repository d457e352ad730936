//! Failure minimization.
//!
//! Given a plan that produced a violation, [`minimize`] searches for a
//! structurally smaller plan that still reproduces the *same kind* of
//! violation: delta-debugging (ddmin-style chunked removal) over the
//! operation list, one-at-a-time removal of crashes, Byzantine
//! assignments, exports and the partition, and neutralization of the
//! network fault model. Every candidate is re-executed, so the result
//! is a plan known — not assumed — to reproduce.

use crate::executor::{execute, ViolationKind};
use crate::plan::{ChaosPlan, NetPlan};

/// Minimizes `plan` while preserving a violation of `kind`, running at
/// most `max_runs` candidate executions. Returns the smallest
/// reproducing plan found (possibly `plan` itself).
pub fn minimize(plan: &ChaosPlan, kind: ViolationKind, max_runs: usize) -> ChaosPlan {
    let mut budget = Budget {
        remaining: max_runs,
    };
    let mut best = plan.clone();
    loop {
        let before = size_of(&best);

        // Ops carry most of the schedule; shrink them with ddmin.
        let ops = best.ops.clone();
        let shrunk = shrink_list(&ops, &mut |candidate| {
            let mut trial = best.clone();
            trial.ops = candidate.to_vec();
            budget.reproduces(&trial, kind)
        });
        best.ops = shrunk;

        // Fault-schedule entries are few; try dropping them one by one.
        let crashes = best.crashes.clone();
        let shrunk = shrink_list(&crashes, &mut |candidate| {
            let mut trial = best.clone();
            trial.crashes = candidate.to_vec();
            budget.reproduces(&trial, kind)
        });
        best.crashes = shrunk;

        let byzantine = best.byzantine.clone();
        let shrunk = shrink_list(&byzantine, &mut |candidate| {
            let mut trial = best.clone();
            trial.byzantine = candidate.to_vec();
            budget.reproduces(&trial, kind)
        });
        best.byzantine = shrunk;

        let exports = best.exports.clone();
        let shrunk = shrink_list(&exports, &mut |candidate| {
            let mut trial = best.clone();
            trial.exports = candidate.to_vec();
            budget.reproduces(&trial, kind)
        });
        best.exports = shrunk;

        if best.partition.is_some() {
            let mut trial = best.clone();
            trial.partition = None;
            if budget.reproduces(&trial, kind) {
                best.partition = None;
            }
        }

        if best.prepare_loss.is_some() {
            let mut trial = best.clone();
            trial.prepare_loss = None;
            if budget.reproduces(&trial, kind) {
                best.prepare_loss = None;
            }
        }

        // Is batching relevant? Try the unbatched protocol.
        if best.max_batch_size > 1 {
            let mut trial = best.clone();
            trial.max_batch_size = 1;
            trial.batch_delay_ms = 0;
            if budget.reproduces(&trial, kind) {
                best.max_batch_size = 1;
                best.batch_delay_ms = 0;
            }
        }

        if best.net != NetPlan::RELIABLE {
            let mut trial = best.clone();
            trial.net = NetPlan::RELIABLE;
            if budget.reproduces(&trial, kind) {
                best.net = NetPlan::RELIABLE;
            }
        }

        // Simplify surviving crashes: no disk damage, or no restart gap.
        for i in 0..best.crashes.len() {
            if best.crashes[i].truncate_blocks > 0 || best.crashes[i].drop_proofs {
                let mut trial = best.clone();
                trial.crashes[i].truncate_blocks = 0;
                trial.crashes[i].drop_proofs = false;
                if budget.reproduces(&trial, kind) {
                    best = trial;
                }
            }
        }

        if size_of(&best) >= before || budget.remaining == 0 {
            break;
        }
    }
    best
}

struct Budget {
    remaining: usize,
}

impl Budget {
    /// Executes `plan` if budget remains; a candidate only counts as a
    /// reduction when it yields the same violation kind.
    fn reproduces(&mut self, plan: &ChaosPlan, kind: ViolationKind) -> bool {
        if self.remaining == 0 {
            return false;
        }
        self.remaining -= 1;
        execute(plan).violation.map(|v| v.kind) == Some(kind)
    }
}

/// Structural size: what the minimizer is driving down.
fn size_of(plan: &ChaosPlan) -> usize {
    plan.ops.len()
        + plan.crashes.len()
        + plan.byzantine.len()
        + plan.exports.len()
        + usize::from(plan.partition.is_some())
        + usize::from(plan.prepare_loss.is_some())
        + usize::from(plan.max_batch_size > 1)
        + usize::from(plan.net != NetPlan::RELIABLE)
}

/// ddmin-style chunked removal: tries dropping ever-smaller chunks while
/// `test` keeps reporting the violation reproduces.
fn shrink_list<T: Clone>(items: &[T], test: &mut dyn FnMut(&[T]) -> bool) -> Vec<T> {
    let mut current = items.to_vec();
    if current.is_empty() {
        return current;
    }
    let mut chunk = current.len().div_ceil(2);
    loop {
        let mut index = 0;
        while index < current.len() {
            let mut candidate = current.clone();
            let end = (index + chunk).min(candidate.len());
            candidate.drain(index..end);
            if test(&candidate) {
                current = candidate;
                // Re-test from the same index: the next chunk slid in.
            } else {
                index += chunk;
            }
        }
        if chunk == 1 || current.is_empty() {
            break;
        }
        chunk = chunk.div_ceil(2).min(current.len().max(1));
        if chunk == 0 {
            break;
        }
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_list_finds_single_culprit() {
        let items: Vec<u32> = (0..37).collect();
        let shrunk = shrink_list(&items, &mut |candidate| candidate.contains(&23));
        assert_eq!(shrunk, vec![23]);
    }

    #[test]
    fn shrink_list_keeps_interacting_pair() {
        let items: Vec<u32> = (0..16).collect();
        let shrunk = shrink_list(&items, &mut |candidate| {
            candidate.contains(&3) && candidate.contains(&12)
        });
        assert_eq!(shrunk, vec![3, 12]);
    }

    #[test]
    fn shrink_list_handles_never_reproducing() {
        let items: Vec<u32> = (0..8).collect();
        let shrunk = shrink_list(&items, &mut |_| false);
        assert_eq!(shrunk, items);
    }
}
