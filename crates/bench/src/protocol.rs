//! The paper's evaluation protocol, assembled once and shared by
//! every experiment: simulate the campaign, account usable days,
//! split train/validation halves, and build the mode masks.

use thermal_linalg::cast;
use thermal_sim::{run, Scenario, SimOutput};
use thermal_timeseries::{split, Mask};

use crate::error::{BenchError, Result};

/// Samples per hour on the campaign grid.
pub fn steps_per_hour(output: &SimOutput) -> usize {
    // The grid step divides the hour by construction; u32 → usize is
    // lossless on every supported target.
    usize::try_from(60 / output.dataset.grid().step_minutes()).unwrap_or(1)
}

/// The paper's occupied-mode prediction window (13.5 h), in samples.
pub fn occupied_horizon(output: &SimOutput) -> usize {
    cast::floor_to_index(13.5 * steps_per_hour(output) as f64, usize::MAX - 1)
}

/// The unoccupied-mode prediction window (one night ≈ 7.5 h of the
/// 9-hour off period after warmup), in samples.
pub fn unoccupied_horizon(output: &SimOutput) -> usize {
    cast::floor_to_index(7.5 * steps_per_hour(output) as f64, usize::MAX - 1)
}

/// Everything the experiments need about one campaign.
#[derive(Debug, Clone)]
pub struct Protocol {
    /// The simulated campaign, without its ground truth
    /// ([`SimOutput::discard_truth`]): every experiment reads the
    /// measured dataset, and a caller that needs the truth runs
    /// [`thermal_sim::run`] itself.
    pub output: SimOutput,
    /// Days with sufficient joint coverage (the paper's 64-of-98).
    pub usable_days: Vec<i64>,
    /// First-half / second-half split of the usable days.
    pub split: split::DaySplit,
    /// Occupied mode (06:00–21:00) over the whole grid.
    pub occupied: Mask,
    /// Unoccupied mode (the complement).
    pub unoccupied: Mask,
    /// Occupied ∩ training days.
    pub train_occupied: Mask,
    /// Occupied ∩ validation days.
    pub val_occupied: Mask,
    /// Unoccupied ∩ training days.
    pub train_unoccupied: Mask,
    /// Unoccupied ∩ validation days.
    pub val_unoccupied: Mask,
}

impl Protocol {
    /// Runs the scenario and assembles the protocol around it, then
    /// discards the campaign's ground truth.
    ///
    /// # Errors
    ///
    /// Returns an error when the scenario fails to run or leaves
    /// fewer than two usable days — the experiment harness treats
    /// that as fatal mis-configuration.
    pub fn new(scenario: &Scenario) -> Result<Self> {
        let mut output = run(scenario)?;
        let dataset = &output.dataset;
        let grid = dataset.grid();

        let mut temp_idx = Vec::new();
        for name in output.temperature_channels() {
            temp_idx.push(dataset.channel_index(&name).ok_or(BenchError::Protocol {
                context: "simulator output is missing a temperature channel",
            })?);
        }
        let usable_days = dataset.usable_days(&temp_idx, 0.5)?;
        let split = split::halves(&usable_days)?;

        let occupied = Mask::daily_window(grid, 6 * 60, 21 * 60)?;
        let unoccupied = occupied.not();
        let train_days = Mask::days(grid, &split.train);
        let val_days = Mask::days(grid, &split.validation);
        output.discard_truth();

        Ok(Protocol {
            train_occupied: train_days.and(&occupied)?,
            val_occupied: val_days.and(&occupied)?,
            train_unoccupied: train_days.and(&unoccupied)?,
            val_unoccupied: val_days.and(&unoccupied)?,
            occupied,
            unoccupied,
            usable_days,
            split,
            output,
        })
    }

    /// The paper-scale campaign (98 days, ≈64+ usable).
    ///
    /// # Errors
    ///
    /// Propagates [`Protocol::new`] failures.
    pub fn paper(seed: u64) -> Result<Self> {
        Protocol::new(&Scenario::paper().with_seed(seed))
    }

    /// A reduced campaign for quick runs (40 days).
    ///
    /// # Errors
    ///
    /// Propagates [`Protocol::new`] failures.
    pub fn quick(seed: u64) -> Result<Self> {
        let mut scenario = Scenario::paper().with_days(40).with_seed(seed);
        scenario.min_usable_days = 26;
        Protocol::new(&scenario)
    }

    /// Temperature channel names (27: wireless + thermostats).
    pub fn temperature_channels(&self) -> Vec<String> {
        self.output.temperature_channels()
    }

    /// Wireless-only channel names (25).
    pub fn wireless_channels(&self) -> Vec<String> {
        self.output.wireless_channels()
    }

    /// Exogenous input channel names in the paper's order.
    pub fn input_channels(&self) -> Vec<String> {
        self.output.input_channels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_protocol_is_coherent() {
        let p = Protocol::quick(7).unwrap();
        assert!(p.usable_days.len() >= 26);
        assert_eq!(
            p.split.train.len() + p.split.validation.len(),
            p.usable_days.len()
        );
        // Masks partition cleanly.
        assert_eq!(
            p.occupied.count() + p.unoccupied.count(),
            p.output.dataset.grid().len()
        );
        assert_eq!(
            p.train_occupied.and(&p.val_occupied).unwrap().count(),
            0,
            "train and validation must not overlap"
        );
        assert_eq!(p.temperature_channels().len(), 27);
        assert_eq!(p.wireless_channels().len(), 25);
        assert_eq!(p.input_channels().len(), 7);
        assert!(occupied_horizon(&p.output) > 100);
        assert!(unoccupied_horizon(&p.output) < occupied_horizon(&p.output));
        assert_eq!(
            p.output.clean_dataset(),
            Err(thermal_sim::SimError::TruthDiscarded)
        );
    }

    #[test]
    fn invalid_scenario_is_reported_not_panicked() {
        let scenario = Scenario::paper().with_days(0);
        assert!(matches!(
            Protocol::new(&scenario),
            Err(BenchError::Sim(_)) | Err(BenchError::TimeSeries(_))
        ));
    }
}
