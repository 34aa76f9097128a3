//! The three figure workloads: which context each prepares and which
//! campaign plans one figure repetition runs.

use falvolt::campaign::{Axis, Campaign, CampaignRun};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use falvolt_systolic::StuckAt;
use std::time::Instant;

/// Seed of every context: the one `reproduce` prepares with. The workload
/// seed drives the fault maps instead; a per-seed dataset and baseline
/// would change the network's spike density, and with it the figure's
/// work, by up to 40% between seeds (measured on `dvs_fig5b`).
pub const CONTEXT_SEED: u64 = 42;
/// Fault maps drawn per cell in the evaluation sweeps.
pub const MAPS_PER_CELL: usize = 3;
/// Fault rates of the mitigation figure.
pub const FIG7_RATES: [f64; 3] = [0.10, 0.30, 0.60];
/// Faulty-PE counts of the Figure 5b plans (0 is the fault-free cell).
pub const FIG5B_PES: [usize; 4] = [0, 4, 16, 64];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 5a, 5b and 5c back to back on MNIST (evaluation only).
    MnistFig5,
    /// Figure 7: fault rate x {FaP, FaPIT, FalVolt} retraining on MNIST.
    MnistFig7,
    /// Figure 5b on DVS-Gesture (temporal input, deeper network).
    DvsFig5b,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::MnistFig5, Workload::MnistFig7, Workload::DvsFig5b];

    /// Parses a workload name as passed to `--workload`.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MnistFig5 => "mnist_fig5",
            Workload::MnistFig7 => "mnist_fig7",
            Workload::DvsFig5b => "dvs_fig5b",
        }
    }

    /// The dataset the context is prepared on.
    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::MnistFig5 | Workload::MnistFig7 => DatasetKind::Mnist,
            Workload::DvsFig5b => DatasetKind::DvsGesture,
        }
    }

    /// `true` for the workload whose figure retrains instead of evaluating.
    pub fn retrains(self) -> bool {
        self == Workload::MnistFig7
    }

    /// Prepares the experiment context (dataset generation + baseline
    /// training) exactly as `reproduce --scale tiny` does, from the same
    /// fixed seed.
    pub fn prepare(self) -> falvolt::Result<ExperimentContext> {
        ExperimentContext::prepare(self.dataset(), ExperimentScale::Tiny, CONTEXT_SEED)
    }

    /// Retraining epochs per FaPIT / FalVolt cell in the mitigation figure:
    /// the Tiny-scale count `reproduce --scale tiny` retrains Figure 7 with.
    pub fn retrain_epochs() -> usize {
        ExperimentScale::Tiny.retrain_epochs()
    }

    /// Runs one figure repetition: every plan of the workload, in order,
    /// with fault maps drawn from `campaign_seed`.
    pub fn run_figure(
        self,
        ctx: &mut ExperimentContext,
        campaign_seed: u64,
    ) -> falvolt::Result<Vec<PlanRun>> {
        let msb = ctx.systolic_config().accumulator_format().msb();
        let epochs = Self::retrain_epochs();
        let plans: Vec<(&'static str, Vec<Axis>, usize)> = match self {
            Workload::MnistFig5 => vec![
                (
                    "5a",
                    vec![
                        Axis::Polarity(StuckAt::ALL.to_vec()),
                        Axis::BitPosition(vec![0, 8, msb]),
                        Axis::FaultyPes(vec![8]),
                    ],
                    MAPS_PER_CELL,
                ),
                (
                    "5b",
                    vec![Axis::FaultyPes(FIG5B_PES.to_vec())],
                    MAPS_PER_CELL,
                ),
                (
                    "5c",
                    vec![Axis::ArraySize(vec![8, 16, 32]), Axis::FaultyPes(vec![4])],
                    MAPS_PER_CELL,
                ),
            ],
            Workload::MnistFig7 => vec![(
                "7",
                vec![
                    Axis::FaultRate(FIG7_RATES.to_vec()),
                    Axis::Mitigation(vec![
                        MitigationStrategy::FaP,
                        MitigationStrategy::fapit(epochs),
                        MitigationStrategy::falvolt(epochs),
                    ]),
                ],
                1,
            )],
            Workload::DvsFig5b => {
                vec![(
                    "5b",
                    vec![Axis::FaultyPes(FIG5B_PES.to_vec())],
                    MAPS_PER_CELL,
                )]
            }
        };
        let mut runs = Vec::with_capacity(plans.len());
        for (plan, axes, maps) in plans {
            let mut campaign = Campaign::new(ctx)
                .scenarios_per_cell(maps)
                .seed(campaign_seed);
            for axis in axes {
                campaign = campaign.axis(axis);
            }
            let started = Instant::now();
            let run = campaign.run()?;
            runs.push(PlanRun {
                plan,
                run,
                seconds: started.elapsed().as_secs_f64(),
            });
        }
        Ok(runs)
    }
}

/// One executed plan of a figure repetition.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// The figure panel the plan reproduces (`"5a"`, `"5b"`, `"5c"`, `"7"`).
    pub plan: &'static str,
    /// The campaign's cells.
    pub run: CampaignRun,
    /// Wall time of the plan's `Campaign::run` call.
    pub seconds: f64,
}

/// Per-repetition campaign seed: repetition `rep` of a run with workload
/// seed `seed` draws its own fault maps, so later repetitions see fresh
/// scenarios while scenario-invariant work can still hit the caches.
pub fn campaign_seed(seed: u64, rep: usize) -> u64 {
    let mut z = seed ^ (rep as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17_B0A7;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
