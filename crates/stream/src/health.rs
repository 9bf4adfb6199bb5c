//! Per-sensor health supervision: Live → Suspect → Dead → Recovered.
//!
//! A heartbeat watchdog and the plausibility rules of
//! [`thermal_timeseries::ValidationConfig`] drive a four-state
//! machine per channel:
//!
//! ```text
//!            silence > suspect_after          silence > dead_after
//!   Live ────────────────────────▶ Suspect ────────────────────▶ Dead
//!    ▲ ▲   (or implausible streak)    │                           │
//!    │ │                              │ plausible reading         │ plausible reading
//!    │ └──────────────────────────────┘                           ▼
//!    │        recovery_readings consecutive plausible        Recovered
//!    └───────────────────────────────────────────────────────────┘
//!              (implausible reading or renewed silence → Dead)
//! ```
//!
//! The asymmetry is deliberate hysteresis: one bad reading can start
//! a demotion, but a dead sensor must *prove itself* with
//! `recovery_readings` consecutive plausible samples before its data
//! feeds predictions again — a flapping sensor stays quarantined.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Snapshot};
use thermal_timeseries::ValidationConfig;

use crate::{Result, StreamError};

/// The four supervision states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Reporting plausibly and on time; data feeds predictions.
    Live,
    /// Missed heartbeats or a short implausible streak; last known
    /// value still usable, fresh data pending.
    Suspect,
    /// Silent too long (or collapsed while on probation); data does
    /// not feed predictions.
    Dead,
    /// A dead sensor has resumed reporting but is on probation until
    /// it proves itself; data does not yet feed predictions.
    Recovered,
}

impl HealthState {
    /// `true` when this channel's data may feed predictions (its last
    /// known value is trusted).
    pub fn is_usable(self) -> bool {
        matches!(self, HealthState::Live | HealthState::Suspect)
    }

    /// Stable lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            HealthState::Live => "live",
            HealthState::Suspect => "suspect",
            HealthState::Dead => "dead",
            HealthState::Recovered => "recovered",
        }
    }

    /// Inverse of [`HealthState::label`] (snapshot restore path).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "live" => Some(HealthState::Live),
            "suspect" => Some(HealthState::Suspect),
            "dead" => Some(HealthState::Dead),
            "recovered" => Some(HealthState::Recovered),
            _ => None,
        }
    }
}

/// Watchdog and hysteresis knobs of the health machine.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthConfig {
    /// Minutes of silence before a Live channel turns Suspect.
    pub suspect_after: i64,
    /// Minutes of silence before a channel turns Dead (from any
    /// state). Must exceed `suspect_after`.
    pub dead_after: i64,
    /// Consecutive implausible readings that demote Live to Suspect.
    pub implausible_streak: u32,
    /// Consecutive plausible readings a Recovered channel needs to be
    /// promoted back to Live.
    pub recovery_readings: u32,
    /// Plausibility rules (value band and per-step jump) shared with
    /// the batch validation layer.
    pub plausibility: ValidationConfig,
}

impl Default for HealthConfig {
    /// Watchdogs tuned for 5-minute telemetry: Suspect after three
    /// missed slots, Dead after an hour of silence, two implausible
    /// readings to demote, three plausible ones to rehabilitate.
    fn default() -> Self {
        HealthConfig {
            suspect_after: 15,
            dead_after: 60,
            implausible_streak: 2,
            recovery_readings: 3,
            plausibility: ValidationConfig::default(),
        }
    }
}

impl HealthConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] when the watchdog
    /// ordering or hysteresis counts are inconsistent, and propagates
    /// plausibility-band validation failures.
    pub fn validate(&self) -> Result<()> {
        if self.suspect_after <= 0 || self.dead_after <= self.suspect_after {
            return Err(StreamError::InvalidConfig {
                reason: "watchdogs need 0 < suspect_after < dead_after".to_owned(),
            });
        }
        if self.implausible_streak == 0 || self.recovery_readings == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "implausible_streak and recovery_readings must be at least 1".to_owned(),
            });
        }
        self.plausibility.validate()?;
        Ok(())
    }
}

/// One supervised channel's health machine.
#[derive(Debug, Clone)]
pub struct HealthMachine {
    state: HealthState,
    /// Minutes-since-epoch of the last accepted (plausible) reading.
    last_good_at: Option<i64>,
    /// Value of the last accepted reading (spike baseline).
    last_good_value: Option<f64>,
    /// Current run of consecutive implausible readings.
    implausible_run: u32,
    /// Current run of consecutive plausible readings while Recovered.
    probation_run: u32,
    /// Lifetime state-change count (flap indicator).
    transitions: u64,
    /// Lifetime implausible-reading count.
    implausible_total: u64,
}

impl HealthMachine {
    /// Creates a machine in the Live state with no history.
    pub fn new() -> Self {
        HealthMachine {
            state: HealthState::Live,
            last_good_at: None,
            last_good_value: None,
            implausible_run: 0,
            probation_run: 0,
            transitions: 0,
            implausible_total: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Lifetime state-change count.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Lifetime implausible-reading count.
    pub fn implausible_total(&self) -> u64 {
        self.implausible_total
    }

    /// Last accepted value, if any (what predictions use while the
    /// channel is Suspect).
    pub fn last_good_value(&self) -> Option<f64> {
        self.last_good_value
    }

    fn transition(&mut self, to: HealthState) {
        if self.state != to {
            self.state = to;
            self.transitions += 1;
        }
    }

    /// `true` when `value` passes the plausibility rules given the
    /// last accepted value: inside the configured band, and (when a
    /// baseline exists and step checking is enabled) not jumping more
    /// than `max_step` per elapsed minute-step from it.
    fn plausible(&self, config: &HealthConfig, at_minutes: i64, value: f64) -> bool {
        let p = &config.plausibility;
        if !value.is_finite() || value < p.min_value || value > p.max_value {
            return false;
        }
        if p.max_step > 0.0 {
            if let (Some(prev_at), Some(prev)) = (self.last_good_at, self.last_good_value) {
                // Scale the per-slot step budget with the elapsed
                // time, so a legitimate change across a long silence
                // is not mistaken for a spike. One "slot" of budget
                // is granted per suspect_after window, minimum one.
                let elapsed = (at_minutes - prev_at).max(1);
                // A gap within one window (the common case) needs no
                // division.
                let windows = if elapsed <= config.suspect_after {
                    1
                } else {
                    (elapsed + config.suspect_after - 1) / config.suspect_after
                };
                let budget = p.max_step * windows.max(1) as f64;
                if (value - prev).abs() > budget {
                    return false;
                }
            }
        }
        true
    }

    /// Feeds one in-order reading (already past the reorder stage).
    /// Returns `true` when the reading was accepted as plausible and
    /// should update the channel's value store.
    pub fn on_reading(&mut self, config: &HealthConfig, at_minutes: i64, value: f64) -> bool {
        if self.plausible(config, at_minutes, value) {
            self.implausible_run = 0;
            self.last_good_at = Some(at_minutes);
            self.last_good_value = Some(value);
            match self.state {
                HealthState::Live => {}
                HealthState::Suspect => self.transition(HealthState::Live),
                HealthState::Dead => {
                    self.probation_run = 1;
                    self.transition(HealthState::Recovered);
                }
                HealthState::Recovered => {
                    self.probation_run += 1;
                    if self.probation_run >= config.recovery_readings {
                        self.probation_run = 0;
                        self.transition(HealthState::Live);
                    }
                }
            }
            return true;
        }
        self.implausible_total += 1;
        self.implausible_run += 1;
        match self.state {
            HealthState::Live => {
                if self.implausible_run >= config.implausible_streak {
                    self.transition(HealthState::Suspect);
                }
            }
            HealthState::Suspect => {
                if self.implausible_run >= config.implausible_streak.saturating_mul(2) {
                    self.transition(HealthState::Dead);
                }
            }
            // Probation tolerates nothing: one implausible reading
            // sends a Recovered channel straight back to Dead.
            HealthState::Recovered => {
                self.probation_run = 0;
                self.transition(HealthState::Dead);
            }
            HealthState::Dead => {}
        }
        false
    }

    /// Advances the heartbeat watchdog to simulated time
    /// `now_minutes`.
    pub fn on_tick(&mut self, config: &HealthConfig, now_minutes: i64) {
        let Some(last) = self.last_good_at else {
            // Never heard from: silence is measured from the epoch of
            // the run, which the service seeds by calling on_tick
            // from the first slot onwards; a channel that stays
            // silent long enough still dies below once last_good_at
            // is seeded by its first reading. Until then it idles in
            // Live/Suspect per the initial state.
            return;
        };
        let silence = now_minutes - last;
        if silence > config.dead_after {
            if self.state != HealthState::Dead {
                self.probation_run = 0;
                self.transition(HealthState::Dead);
            }
        } else if silence > config.suspect_after {
            if self.state == HealthState::Live {
                self.transition(HealthState::Suspect);
            } else if self.state == HealthState::Recovered {
                // Probation interrupted by renewed silence.
                self.probation_run = 0;
                self.transition(HealthState::Dead);
            }
        }
    }
}

impl Default for HealthMachine {
    fn default() -> Self {
        HealthMachine::new()
    }
}

/// Full machine state: ladder position, last-good anchors, hysteresis
/// runs, and lifetime counters. The config is construction context.
impl Snapshot for HealthMachine {
    const TAG: &'static str = "stream-health";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        let last_at: Vec<i64> = self.last_good_at.into_iter().collect();
        let last_value: Vec<f64> = self.last_good_value.into_iter().collect();
        rec.put("state", self.state.label())
            .put_i64_slice("last_good_at", &last_at)
            .put_f64_slice("last_good_value", &last_value)
            .put_u64("implausible_run", u64::from(self.implausible_run))
            .put_u64("probation_run", u64::from(self.probation_run))
            .put_u64("transitions", self.transitions)
            .put_u64("implausible_total", self.implausible_total);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let state_label = rec.get("state")?;
        let state = HealthState::from_label(&state_label).ok_or_else(|| {
            CkptError::decode("health snapshot", format!("unknown state {state_label:?}"))
        })?;
        let opt_i64 = |key: &str| -> std::result::Result<Option<i64>, CkptError> {
            match rec.get_i64_slice(key)?.as_slice() {
                [] => Ok(None),
                [v] => Ok(Some(*v)),
                _ => Err(CkptError::decode(
                    "health snapshot",
                    format!("{key} must hold zero or one element"),
                )),
            }
        };
        let last_good_at = opt_i64("last_good_at")?;
        let last_good_value = match rec.get_f64_slice("last_good_value")?.as_slice() {
            [] => None,
            [v] => Some(*v),
            _ => {
                return Err(CkptError::decode(
                    "health snapshot",
                    "last_good_value must hold zero or one element",
                ))
            }
        };
        let implausible_run = u32::try_from(rec.get_u64("implausible_run")?)
            .map_err(|e| CkptError::decode("health snapshot", e))?;
        let probation_run = u32::try_from(rec.get_u64("probation_run")?)
            .map_err(|e| CkptError::decode("health snapshot", e))?;
        let transitions = rec.get_u64("transitions")?;
        let implausible_total = rec.get_u64("implausible_total")?;
        self.state = state;
        self.last_good_at = last_good_at;
        self.last_good_value = last_good_value;
        self.implausible_run = implausible_run;
        self.probation_run = probation_run;
        self.transitions = transitions;
        self.implausible_total = implausible_total;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> HealthConfig {
        HealthConfig::default()
    }

    /// Walks the machine to a given state deterministically.
    fn machine_in(state: HealthState) -> (HealthMachine, i64) {
        let cfg = config();
        let mut m = HealthMachine::new();
        // Seed with one good reading at t=0.
        assert!(m.on_reading(&cfg, 0, 21.0));
        let now = match state {
            HealthState::Live => 0,
            HealthState::Suspect => {
                m.on_tick(&cfg, 20);
                20
            }
            HealthState::Dead => {
                m.on_tick(&cfg, 100);
                100
            }
            HealthState::Recovered => {
                m.on_tick(&cfg, 100);
                assert!(m.on_reading(&cfg, 105, 21.1));
                105
            }
        };
        assert_eq!(m.state(), state, "fixture failed to reach {state:?}");
        (m, now)
    }

    #[test]
    fn config_validation() {
        assert!(config().validate().is_ok());
        let mut bad = config();
        bad.dead_after = bad.suspect_after;
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.recovery_readings = 0;
        assert!(bad.validate().is_err());
        let mut bad = config();
        bad.plausibility.min_value = 50.0;
        assert!(bad.validate().is_err());
    }

    // ── Transition table: every edge of the diagram. ──────────────

    #[test]
    fn live_to_suspect_on_silence() {
        let (mut m, now) = machine_in(HealthState::Live);
        m.on_tick(&config(), now + 16);
        assert_eq!(m.state(), HealthState::Suspect);
    }

    #[test]
    fn live_to_suspect_on_implausible_streak() {
        let (mut m, now) = machine_in(HealthState::Live);
        let cfg = config();
        assert!(!m.on_reading(&cfg, now + 5, 90.0));
        assert_eq!(m.state(), HealthState::Live, "one bad reading tolerated");
        assert!(!m.on_reading(&cfg, now + 10, 90.0));
        assert_eq!(m.state(), HealthState::Suspect);
        assert_eq!(m.implausible_total(), 2);
    }

    #[test]
    fn live_stays_live_on_plausible_readings() {
        let (mut m, now) = machine_in(HealthState::Live);
        let cfg = config();
        for k in 1..10 {
            assert!(m.on_reading(&cfg, now + 5 * k, 21.0 + 0.01 * k as f64));
            m.on_tick(&cfg, now + 5 * k);
            assert_eq!(m.state(), HealthState::Live);
        }
        assert_eq!(m.transitions(), 0);
    }

    #[test]
    fn suspect_back_to_live_on_good_reading() {
        let (mut m, now) = machine_in(HealthState::Suspect);
        assert!(m.on_reading(&config(), now + 1, 21.2));
        assert_eq!(m.state(), HealthState::Live);
    }

    #[test]
    fn suspect_to_dead_on_continued_silence() {
        let (mut m, now) = machine_in(HealthState::Suspect);
        m.on_tick(&config(), now + 100);
        assert_eq!(m.state(), HealthState::Dead);
    }

    #[test]
    fn suspect_to_dead_on_persistent_garbage() {
        let (mut m, mut now) = machine_in(HealthState::Live);
        let cfg = config();
        for _ in 0..4 {
            now += 5;
            m.on_reading(&cfg, now, 99.0);
        }
        assert_eq!(m.state(), HealthState::Dead);
    }

    #[test]
    fn dead_to_recovered_on_plausible_reading() {
        let (mut m, now) = machine_in(HealthState::Dead);
        assert!(m.on_reading(&config(), now + 5, 21.0));
        assert_eq!(m.state(), HealthState::Recovered);
        assert!(!m.state().is_usable(), "probation data must not be used");
    }

    #[test]
    fn recovered_to_live_after_hysteresis() {
        let (mut m, now) = machine_in(HealthState::Recovered);
        let cfg = config();
        // Already has 1 probation reading; needs recovery_readings=3.
        assert!(m.on_reading(&cfg, now + 5, 21.0));
        assert_eq!(m.state(), HealthState::Recovered);
        assert!(m.on_reading(&cfg, now + 10, 21.05));
        assert_eq!(m.state(), HealthState::Live);
    }

    #[test]
    fn recovered_back_to_dead_on_implausible_reading() {
        let (mut m, now) = machine_in(HealthState::Recovered);
        assert!(!m.on_reading(&config(), now + 5, 99.0));
        assert_eq!(m.state(), HealthState::Dead);
        // Probation starts over from scratch.
        let cfg = config();
        assert!(m.on_reading(&cfg, now + 10, 21.0));
        assert_eq!(m.state(), HealthState::Recovered);
        assert!(m.on_reading(&cfg, now + 15, 21.0));
        assert!(m.on_reading(&cfg, now + 20, 21.0));
        assert_eq!(m.state(), HealthState::Live);
    }

    #[test]
    fn recovered_back_to_dead_on_renewed_silence() {
        let (mut m, now) = machine_in(HealthState::Recovered);
        m.on_tick(&config(), now + 20);
        assert_eq!(m.state(), HealthState::Dead);
    }

    #[test]
    fn dead_stays_dead_under_garbage_and_silence() {
        let (mut m, now) = machine_in(HealthState::Dead);
        let cfg = config();
        assert!(!m.on_reading(&cfg, now + 5, 99.0));
        assert_eq!(m.state(), HealthState::Dead);
        m.on_tick(&cfg, now + 500);
        assert_eq!(m.state(), HealthState::Dead);
    }

    // ── Plausibility details. ─────────────────────────────────────

    #[test]
    fn step_budget_scales_with_elapsed_silence() {
        let cfg = config();
        let mut m = HealthMachine::new();
        assert!(m.on_reading(&cfg, 0, 20.0));
        // A 6 °C jump in one slot is a spike...
        assert!(!m.on_reading(&cfg, 5, 26.0));
        // ...but the same jump after a 45-minute gap (3 windows of
        // 4 °C budget) is accepted.
        let mut m = HealthMachine::new();
        assert!(m.on_reading(&cfg, 0, 20.0));
        assert!(m.on_reading(&cfg, 45, 26.0));
    }

    #[test]
    fn step_budget_is_one_window_per_started_suspect_after() {
        // The division-free branch for gaps within one window must
        // agree with the ceiling division at every gap and jump.
        let cfg = config();
        let mut m = HealthMachine::new();
        assert!(m.on_reading(&cfg, 0, 20.0));
        for elapsed in -5..=70_i64 {
            let gap = elapsed.max(1);
            let windows = (gap + cfg.suspect_after - 1) / cfg.suspect_after;
            let budget = cfg.plausibility.max_step * windows as f64;
            for tenths in 0..=200 {
                let value = 20.0 + f64::from(tenths) / 10.0;
                assert_eq!(
                    m.plausible(&cfg, elapsed, value),
                    value - 20.0 <= budget,
                    "elapsed {elapsed}, value {value}"
                );
            }
        }
    }

    #[test]
    fn first_reading_has_no_step_baseline() {
        let cfg = config();
        let mut m = HealthMachine::new();
        // In-band is enough for the very first sample.
        assert!(m.on_reading(&cfg, 0, 44.0));
        assert_eq!(m.last_good_value(), Some(44.0));
    }

    #[test]
    fn silent_from_birth_stays_initial_until_first_reading() {
        let cfg = config();
        let mut m = HealthMachine::new();
        m.on_tick(&cfg, 1_000);
        assert_eq!(m.state(), HealthState::Live, "no heartbeat baseline yet");
        assert!(m.on_reading(&cfg, 1_000, 21.0));
        m.on_tick(&cfg, 2_000);
        assert_eq!(m.state(), HealthState::Dead);
    }
}
