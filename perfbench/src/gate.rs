//! The correctness gate: cell status, the paper-shape invariants, and the
//! distance to the recorded reference series.
//!
//! The gate never compares digests. Every check is a tolerance on
//! accuracies, so a change that legitimately reorders float sums (and
//! therefore trains a slightly different baseline) still passes, while a
//! broken fault model, a corrupted cache or a failed cell does not.

use crate::workloads::{PlanRun, Workload};
use falvolt::campaign::{AxisValue, CellResult};

/// FalVolt >= FaPIT >= FaP must hold on the mean over fault rates and
/// repetitions up to this much accuracy. FalVolt and FaPIT end close after
/// the eight retraining epochs: over the 64 recorded seeds FalVolt led
/// FaPIT by 0.011 on average (standard deviation 0.021) but trailed it by up
/// to 0.067 on a single repetition's three chips, and by up to 0.021 on the
/// mean of three consecutive seeds. That is why the order is checked over a
/// whole run, not per repetition.
pub const STRATEGY_TOL: f32 = 0.05;
/// Largest allowed per-cell distance to the reference accuracy.
pub const REFERENCE_CELL_TOL: f32 = 0.25;
/// Largest allowed distance between a plan's mean accuracy and the
/// reference plan mean.
pub const REFERENCE_MEAN_TOL: f32 = 0.08;

/// The reference series: repetition 0 of each recorded `(workload, seed)`,
/// cell accuracies in plan order.
const REFERENCE: &str = include_str!("../reference.txt");

/// Every cell accuracy of a figure repetition, in plan order.
pub fn accuracies(runs: &[PlanRun]) -> Vec<f32> {
    runs.iter()
        .flat_map(|p| p.run.cells().iter().map(|c| c.accuracy))
        .collect()
}

/// Checks one figure repetition (cell status, Figures 5a and 5b); returns
/// one message per violation. The Figure 7 order is a run-level check, see
/// [`StrategyMeans`].
pub fn check_figure(runs: &[PlanRun]) -> Vec<String> {
    let mut violations = Vec::new();
    for plan in runs {
        for cell in plan.run.cells() {
            if !cell.status.is_completed() {
                violations.push(format!(
                    "{} cell {}: {:?}",
                    plan.plan,
                    coords(cell),
                    cell.status
                ));
            }
        }
        match plan.plan {
            "5a" => check_msb_worse_than_lsb(plan, &mut violations),
            "5b" => check_faults_do_not_help(plan, &mut violations),
            _ => {}
        }
    }
    violations
}

fn coords(cell: &CellResult) -> String {
    cell.coords()
        .iter()
        .map(|c| format!("{}={}", c.axis, c.value))
        .collect::<Vec<_>>()
        .join(",")
}

/// Figure 5a: per polarity, stuck-at faults in the accumulator MSB cost
/// more accuracy than faults in the LSB.
fn check_msb_worse_than_lsb(plan: &PlanRun, violations: &mut Vec<String>) {
    let cells = plan.run.cells();
    let bit = |c: &CellResult| match c.coord("bit") {
        Some(AxisValue::Bit(b)) => Some(*b),
        _ => None,
    };
    let (Some(lsb), Some(msb)) = (
        cells.iter().filter_map(bit).min(),
        cells.iter().filter_map(bit).max(),
    ) else {
        violations.push("5a: plan has no bit axis".to_string());
        return;
    };
    for polarity in ["sa0", "sa1"] {
        let at = |b: u32| {
            cells.iter().find(|c| {
                bit(c) == Some(b)
                    && matches!(c.coord("polarity"), Some(AxisValue::Polarity(p)) if p == polarity)
            })
        };
        match (at(lsb), at(msb)) {
            (Some(l), Some(m)) if m.accuracy < l.accuracy => {}
            (Some(l), Some(m)) => violations.push(format!(
                "5a {polarity}: MSB accuracy {:.4} is not below LSB accuracy {:.4}",
                m.accuracy, l.accuracy
            )),
            _ => violations.push(format!("5a {polarity}: missing LSB or MSB cell")),
        }
    }
}

/// Figure 5b: the largest faulty-PE count is no better than the fault-free
/// cell.
fn check_faults_do_not_help(plan: &PlanRun, violations: &mut Vec<String>) {
    let pes = |c: &&CellResult| match c.coord("faulty_pes") {
        Some(AxisValue::Pes(p)) => *p,
        _ => 0,
    };
    let cells = plan.run.cells();
    let clean = cells.iter().min_by_key(pes);
    let worst = cells.iter().max_by_key(pes);
    match (clean, worst) {
        (Some(c), Some(w)) if w.accuracy <= c.accuracy => {}
        (Some(c), Some(w)) => violations.push(format!(
            "5b: {} faulty PEs give {:.4}, above the fault-free {:.4}",
            pes(&w),
            w.accuracy,
            c.accuracy
        )),
        _ => violations.push("5b: empty plan".to_string()),
    }
}

/// Figure 7's accuracies per strategy, summed over every fault rate of every
/// repetition added.
#[derive(Debug, Default)]
pub struct StrategyMeans {
    sums: [(f32, usize); 3],
}

impl StrategyMeans {
    const STRATEGIES: [&'static str; 3] = ["FaP", "FaPIT", "FalVolt"];

    /// Adds the Figure 7 cells of one repetition.
    pub fn add(&mut self, runs: &[PlanRun]) {
        for cell in runs
            .iter()
            .filter(|p| p.plan == "7")
            .flat_map(|p| p.run.cells())
        {
            if let Some(AxisValue::Strategy(s)) = cell.coord("strategy") {
                if let Some(i) = Self::STRATEGIES.iter().position(|name| name == s) {
                    self.sums[i].0 += cell.accuracy;
                    self.sums[i].1 += 1;
                }
            }
        }
    }

    /// FalVolt >= FaPIT >= FaP on the means, within [`STRATEGY_TOL`]; no
    /// violation when no Figure 7 cell was added.
    pub fn check(&self) -> Vec<String> {
        if self.sums.iter().any(|&(_, n)| n == 0) {
            return Vec::new();
        }
        let [fap, fapit, falvolt] = self.sums.map(|(sum, n)| sum / n as f32);
        if falvolt + STRATEGY_TOL < fapit || fapit + STRATEGY_TOL < fap {
            vec![format!(
                "7: mean accuracy FalVolt {falvolt:.4} / FaPIT {fapit:.4} / FaP {fap:.4} over \
                 {} chips each breaks FalVolt >= FaPIT >= FaP by more than {STRATEGY_TOL}",
                self.sums[0].1
            )]
        } else {
            Vec::new()
        }
    }
}

/// The recorded reference accuracies of repetition 0 for `(workload, seed)`,
/// if that seed was recorded.
pub fn reference(workload: Workload, seed: u64) -> Option<Vec<f32>> {
    REFERENCE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        if fields.next()? != workload.name() || fields.next()?.parse::<u64>().ok()? != seed {
            return None;
        }
        fields.map(|f| f.parse().ok()).collect()
    })
}

/// One line of `reference.txt` for repetition 0 of `(workload, seed)`.
pub fn reference_line(workload: Workload, seed: u64, runs: &[PlanRun]) -> String {
    let accs: Vec<String> = accuracies(runs).iter().map(|a| format!("{a:.4}")).collect();
    format!("{} {} {}", workload.name(), seed, accs.join(" "))
}

/// Compares repetition 0 against the reference series: every cell within
/// [`REFERENCE_CELL_TOL`] and every plan mean within [`REFERENCE_MEAN_TOL`].
pub fn check_reference(runs: &[PlanRun], reference: &[f32]) -> Vec<String> {
    let measured = accuracies(runs);
    if measured.len() != reference.len() {
        return vec![format!(
            "reference has {} cells, the figure has {}",
            reference.len(),
            measured.len()
        )];
    }
    let mut violations = Vec::new();
    let mut offset = 0;
    for plan in runs {
        let n = plan.run.len();
        let (got, want) = (
            &measured[offset..offset + n],
            &reference[offset..offset + n],
        );
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if (g - w).abs() > REFERENCE_CELL_TOL {
                violations.push(format!(
                    "{} cell {}: accuracy {g:.4}, reference {w:.4}",
                    plan.plan,
                    coords(&plan.run.cells()[i])
                ));
            }
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / n.max(1) as f32;
        if (mean(got) - mean(want)).abs() > REFERENCE_MEAN_TOL {
            violations.push(format!(
                "{}: mean accuracy {:.4}, reference {:.4}",
                plan.plan,
                mean(got),
                mean(want)
            ));
        }
        offset += n;
    }
    violations
}
