//! Drift detection over one-step-ahead residuals: the escalation path
//! from "residuals look wrong" to "a refit has landed and held".
//!
//! The served model's coefficients were fitted on one operating
//! regime. When the auditorium's physics change mid-deployment (a VAV
//! damper fails, the occupancy schedule shifts, the envelope changes),
//! the one-step-ahead residuals of the served predictions grow and
//! *stay* grown — a sustained mean shift, exactly what the
//! [Page–Hinkley test](PageHinkley) detects with O(1) state and zero
//! allocations. One [`DriftMachine`] per cluster turns detector alarms
//! into the typed [`ModelHealth`] lifecycle
//! `Stable → Drifting → Refitting → Recovered → Stable`.
//!
//! **Threshold/hysteresis coupling** (see DESIGN.md §15): the drift
//! detector reacts to *model* mismatch, while the per-sensor
//! [`crate::HealthMachine`] reacts to *sensor* silence and
//! implausibility, with its own hysteresis
//! ([`crate::HealthConfig::recovered_hold`]). The two machines are
//! deliberately decoupled — residuals are only fed to the detector on
//! slots where the cluster's outputs were served
//! [`Healthy`](thermal_core::FallbackAction::Healthy), so a dying
//! sensor exercises the fallback ladder without ever looking like
//! regime drift — but their time constants must nest:
//! [`DriftConfig::min_samples`] sits above the reorder lateness budget
//! (so watermark churn cannot alarm), and
//! [`DriftConfig::recovered_hold`] sits above the sensor machine's
//! probation so a recovering sensor and a recovering model cannot
//! flap each other.

use thermal_ckpt::codec::Record;
use thermal_ckpt::{CkptError, Fields, Snapshot};
use thermal_core::ModelHealth;

use crate::{Result, StreamError};

/// Tuning of the Page–Hinkley drift detector and the health machine's
/// hysteresis around it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Page–Hinkley tolerance `δ` (°C): the residual-magnitude noise
    /// floor. Slots whose mean residual sits below this drain the
    /// detector; slots above it charge it toward an alarm.
    pub delta: f64,
    /// Page–Hinkley alarm threshold `λ` (°C·slots): the cumulative
    /// exceedance at which drift is declared. Larger values trade
    /// detection delay for false-alarm resistance.
    pub lambda: f64,
    /// Residual samples the detector must see before it may alarm —
    /// the warmup that keeps the first few slots from alarming on
    /// their own.
    pub min_samples: u64,
    /// Slots a cluster must remain [`ModelHealth::Drifting`] before a
    /// supervised refit may launch — the confirmation dwell that makes
    /// the degraded window externally observable and keeps a one-slot
    /// glitch from triggering a re-identification.
    pub confirm_dwell: u64,
    /// Quiet slots a cluster must hold in [`ModelHealth::Recovered`]
    /// before it is called [`ModelHealth::Stable`] again (the
    /// hysteresis that stops alarm/refit flapping).
    pub recovered_hold: u64,
    /// Multiplier applied to the published uncertainty band while a
    /// cluster's health [`is_degraded`](ModelHealth::is_degraded).
    pub widening: f64,
}

impl Default for DriftConfig {
    /// Tuned for 5-minute telemetry: a sustained residual shift of
    /// ~0.5 °C alarms in about a dozen slots (an hour), while the
    /// 24-slot warmup and hold (two hours) sit far above the reorder
    /// lateness budget and the sensor machines' probation windows.
    fn default() -> Self {
        DriftConfig {
            delta: 0.05,
            lambda: 3.0,
            min_samples: 24,
            confirm_dwell: 2,
            recovered_hold: 24,
            widening: 3.0,
        }
    }
}

impl DriftConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for a negative or
    /// non-finite `delta`, a non-positive `lambda`, a zero
    /// `min_samples`, or a `widening` below 1.
    pub fn validate(&self) -> Result<()> {
        if !self.delta.is_finite() || self.delta < 0.0 {
            return Err(StreamError::InvalidConfig {
                reason: "drift delta must be finite and non-negative".to_owned(),
            });
        }
        if !self.lambda.is_finite() || self.lambda <= 0.0 {
            return Err(StreamError::InvalidConfig {
                reason: "drift lambda must be finite and positive".to_owned(),
            });
        }
        if self.min_samples == 0 {
            return Err(StreamError::InvalidConfig {
                reason: "drift min_samples must be at least 1".to_owned(),
            });
        }
        if !self.widening.is_finite() || self.widening < 1.0 {
            return Err(StreamError::InvalidConfig {
                reason: "drift widening must be finite and at least 1".to_owned(),
            });
        }
        Ok(())
    }
}

/// One-sided Page–Hinkley test for a sustained *increase* in the mean
/// of a non-negative signal (here: one-step-ahead residual
/// magnitudes).
///
/// This is the fixed-reference variant: under a healthy model the
/// residual magnitude hovers at the noise floor, and
/// [`DriftConfig::delta`] *is* that floor's allowance — so the
/// cumulative sum drains while residuals sit below `δ` and climbs
/// while they sit above it, and the test statistic `m_t − min m`
/// measures the climb since the best point. (The self-referencing
/// variant that tracks a running mean would adapt *to* a regime shift
/// and never alarm on a model that was wrong from the start.)
///
/// State is three numbers; every update is O(1) and allocation-free,
/// and the statistic is a pure function of the observation sequence —
/// the same residual stream alarms on the same slot, every run, every
/// thread count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PageHinkley {
    /// Observations folded in.
    count: u64,
    /// Cumulative exceedance `Σ (x_i − δ)`.
    cumulative: f64,
    /// Running minimum of `cumulative`.
    minimum: f64,
}

impl PageHinkley {
    /// A fresh detector with no history.
    pub fn new() -> Self {
        PageHinkley::default()
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The current test statistic `m_t − min m` (0 while empty).
    pub fn statistic(&self) -> f64 {
        self.cumulative - self.minimum
    }

    /// Folds one observation in and reports whether the test alarms.
    /// Non-finite observations are ignored (the caller's gating should
    /// make them impossible; ignoring keeps the detector total).
    pub fn observe(&mut self, config: &DriftConfig, x: f64) -> bool {
        if !x.is_finite() {
            return false;
        }
        self.count += 1;
        self.cumulative += x - config.delta;
        self.minimum = self.minimum.min(self.cumulative);
        self.count >= config.min_samples && self.statistic() > config.lambda
    }

    /// Forgets all history (after a refit lands: the new coefficients
    /// define a new residual baseline).
    pub fn reset(&mut self) {
        *self = PageHinkley::default();
    }
}

/// Lifetime counters of one [`DriftMachine`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriftStats {
    /// Residual observations fed to the detector.
    pub observed: u64,
    /// Drift alarms raised (Stable/Recovered → Drifting).
    pub alarms: u64,
    /// Refits that completed and were installed.
    pub refits: u64,
    /// Health-state transitions of any kind.
    pub transitions: u64,
}

thermal_ckpt::fields!(DriftStats: observed, alarms, refits, transitions);

/// Per-cluster supervisor translating detector alarms into the
/// [`ModelHealth`] lifecycle.
///
/// Transitions:
///
/// * `Stable → Drifting` — the Page–Hinkley test alarms,
/// * `Drifting → Refitting` — [`begin_refit`](DriftMachine::begin_refit)
///   (the runtime launched a supervised re-identification),
/// * `Refitting → Recovered` —
///   [`complete_refit`](DriftMachine::complete_refit) (new
///   coefficients installed; the detector is reset),
/// * `Refitting → Drifting` —
///   [`abort_refit`](DriftMachine::abort_refit) (the refit was
///   quarantined; the old model keeps serving, still degraded),
/// * `Recovered → Stable` — residuals stayed quiet for
///   [`DriftConfig::recovered_hold`] slots,
/// * `Recovered → Drifting` — the detector re-alarms during the hold
///   (the refit did not actually fix the regime).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriftMachine {
    health: ModelHealth,
    detector: PageHinkley,
    /// Consecutive quiet slots while `Recovered`.
    quiet: u64,
    /// Slots observed while `Drifting` since the alarm (the refit
    /// confirmation dwell).
    dwell: u64,
    stats: DriftStats,
}

impl DriftMachine {
    /// A fresh machine in [`ModelHealth::Stable`].
    pub fn new() -> Self {
        DriftMachine::default()
    }

    /// Current health state.
    pub fn health(&self) -> ModelHealth {
        self.health
    }

    /// Lifetime counters.
    pub fn stats(&self) -> DriftStats {
        self.stats
    }

    /// The detector's current test statistic (for reports).
    pub fn statistic(&self) -> f64 {
        self.detector.statistic()
    }

    /// Slots this cluster has sat in [`ModelHealth::Drifting`] since
    /// its alarm — the supervisor launches a refit only once this
    /// reaches [`DriftConfig::confirm_dwell`].
    pub fn dwell(&self) -> u64 {
        self.dwell
    }

    fn set(&mut self, health: ModelHealth) {
        if self.health != health {
            self.health = health;
            self.stats.transitions += 1;
        }
    }

    /// Feeds one residual magnitude observed on a cleanly-served slot.
    /// Returns the health state after the observation.
    pub fn observe(&mut self, config: &DriftConfig, residual: f64) -> ModelHealth {
        self.stats.observed += 1;
        match self.health {
            ModelHealth::Stable => {
                if self.detector.observe(config, residual.abs()) {
                    self.stats.alarms += 1;
                    self.dwell = 0;
                    self.set(ModelHealth::Drifting);
                }
            }
            // Residuals are known-bad while drift is confirmed and the
            // refit is in flight; feeding them would only saturate the
            // detector it no longer drives. Drifting slots still count
            // toward the confirmation dwell.
            ModelHealth::Drifting => self.dwell += 1,
            ModelHealth::Refitting => {}
            ModelHealth::Recovered => {
                if self.detector.observe(config, residual.abs()) {
                    self.stats.alarms += 1;
                    self.quiet = 0;
                    self.dwell = 0;
                    self.set(ModelHealth::Drifting);
                } else {
                    self.quiet += 1;
                    if self.quiet >= config.recovered_hold {
                        self.quiet = 0;
                        self.set(ModelHealth::Stable);
                    }
                }
            }
        }
        self.health
    }

    /// Marks the start of a supervised refit. Only meaningful from
    /// [`ModelHealth::Drifting`]; returns whether the transition was
    /// taken.
    pub fn begin_refit(&mut self) -> bool {
        if self.health == ModelHealth::Drifting {
            self.set(ModelHealth::Refitting);
            true
        } else {
            false
        }
    }

    /// Marks a refit as installed: the detector restarts against the
    /// new coefficients and the recovered hold begins.
    pub fn complete_refit(&mut self) {
        if self.health == ModelHealth::Refitting {
            self.detector.reset();
            self.quiet = 0;
            self.stats.refits += 1;
            self.set(ModelHealth::Recovered);
        }
    }

    /// Marks a refit as failed/quarantined: back to
    /// [`ModelHealth::Drifting`], old model still serving.
    pub fn abort_refit(&mut self) {
        if self.health == ModelHealth::Refitting {
            // The dwell restarts: a fresh confirmation window (plus
            // the supervisor's cooldown) gates the retry.
            self.dwell = 0;
            self.set(ModelHealth::Drifting);
        }
    }
}

/// Three numbers: the whole detector.
impl Snapshot for PageHinkley {
    const TAG: &'static str = "stream-page-hinkley";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put_u64("count", self.count)
            .put_f64("cumulative", self.cumulative)
            .put_f64("minimum", self.minimum);
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let count = rec.get_u64("count")?;
        let cumulative = rec.get_f64("cumulative")?;
        let minimum = rec.get_f64("minimum")?;
        self.count = count;
        self.cumulative = cumulative;
        self.minimum = minimum;
        Ok(())
    }
}

/// Ladder position, nested detector, hysteresis counters, and
/// lifetime stats.
impl Snapshot for DriftMachine {
    const TAG: &'static str = "stream-drift";
    const VERSION: u32 = 1;

    fn capture(&self, rec: &mut Record) {
        rec.put("health", self.health.name());
        thermal_ckpt::snapshot::put_nested(rec, "detector", &self.detector);
        rec.put_u64("quiet", self.quiet)
            .put_u64("dwell", self.dwell);
        self.stats.put_fields(rec, "");
    }

    fn restore(&mut self, rec: &Record) -> std::result::Result<(), CkptError> {
        let health_name = rec.get("health")?;
        let health = ModelHealth::from_name(&health_name).ok_or_else(|| {
            CkptError::decode("drift snapshot", format!("unknown health {health_name:?}"))
        })?;
        let mut detector = PageHinkley::default();
        thermal_ckpt::snapshot::get_nested(rec, "detector", &mut detector)?;
        let quiet = rec.get_u64("quiet")?;
        let dwell = rec.get_u64("dwell")?;
        let stats = DriftStats::get_fields(rec, "")?;
        self.health = health;
        self.detector = detector;
        self.quiet = quiet;
        self.dwell = dwell;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DriftConfig {
        DriftConfig {
            delta: 0.05,
            lambda: 1.0,
            min_samples: 5,
            confirm_dwell: 2,
            recovered_hold: 4,
            widening: 3.0,
        }
    }

    #[test]
    fn config_validation() {
        assert!(DriftConfig::default().validate().is_ok());
        let bad = [
            DriftConfig {
                delta: -0.1,
                ..DriftConfig::default()
            },
            DriftConfig {
                delta: f64::NAN,
                ..DriftConfig::default()
            },
            DriftConfig {
                lambda: 0.0,
                ..DriftConfig::default()
            },
            DriftConfig {
                min_samples: 0,
                ..DriftConfig::default()
            },
            DriftConfig {
                widening: 0.5,
                ..DriftConfig::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "accepted {c:?}");
        }
    }

    #[test]
    fn page_hinkley_ignores_noise_and_catches_shifts() {
        let cfg = config();
        let mut ph = PageHinkley::new();
        // Stationary small residuals: never alarms.
        for k in 0..200 {
            let x = 0.02 + 0.01 * ((k % 7) as f64 / 7.0);
            assert!(!ph.observe(&cfg, x), "false alarm at {k}");
        }
        // A sustained 0.5 °C shift alarms within a handful of slots.
        let mut fired = None;
        for k in 0..50 {
            if ph.observe(&cfg, 0.5) {
                fired = Some(k);
                break;
            }
        }
        let fired = fired.expect("shift never detected");
        assert!(fired < 10, "detection took {fired} slots");
    }

    #[test]
    fn page_hinkley_respects_min_samples() {
        let cfg = config();
        let mut ph = PageHinkley::new();
        // Massive residuals immediately — but fewer than min_samples.
        for _ in 0..(cfg.min_samples - 1) {
            assert!(!ph.observe(&cfg, 10.0), "alarmed during warmup");
        }
        assert!(ph.observe(&cfg, 10.0), "should alarm at min_samples");
    }

    #[test]
    fn page_hinkley_is_deterministic_and_resettable() {
        let cfg = config();
        let run = || {
            let mut ph = PageHinkley::new();
            for k in 0..100 {
                ph.observe(&cfg, 0.1 * ((k % 13) as f64));
            }
            ph.statistic().to_bits()
        };
        assert_eq!(run(), run());
        let mut ph = PageHinkley::new();
        ph.observe(&cfg, 5.0);
        ph.reset();
        assert_eq!(ph, PageHinkley::new());
        assert!(!ph.observe(&cfg, f64::NAN), "non-finite must be ignored");
        assert_eq!(ph.count(), 0);
    }

    #[test]
    fn machine_walks_the_full_recovery_arc() {
        let cfg = config();
        let mut m = DriftMachine::new();
        assert_eq!(m.health(), ModelHealth::Stable);
        // Quiet service.
        for _ in 0..20 {
            assert_eq!(m.observe(&cfg, 0.01), ModelHealth::Stable);
        }
        // Regime shift: residuals jump and stay up.
        while m.health() == ModelHealth::Stable {
            m.observe(&cfg, 0.8);
        }
        assert_eq!(m.health(), ModelHealth::Drifting);
        assert_eq!(m.stats().alarms, 1);
        // Refit supervision.
        assert!(m.begin_refit());
        assert_eq!(m.health(), ModelHealth::Refitting);
        assert!(!m.begin_refit(), "begin_refit only fires from Drifting");
        m.complete_refit();
        assert_eq!(m.health(), ModelHealth::Recovered);
        assert_eq!(m.stats().refits, 1);
        // Quiet hold returns to Stable.
        for _ in 0..cfg.recovered_hold {
            m.observe(&cfg, 0.01);
        }
        assert_eq!(m.health(), ModelHealth::Stable);
    }

    #[test]
    fn quarantined_refit_falls_back_to_drifting() {
        let cfg = config();
        let mut m = DriftMachine::new();
        for _ in 0..40 {
            m.observe(&cfg, 0.9);
        }
        assert_eq!(m.health(), ModelHealth::Drifting);
        assert!(m.begin_refit());
        m.abort_refit();
        assert_eq!(m.health(), ModelHealth::Drifting);
        assert_eq!(m.stats().refits, 0);
        // A later attempt can still complete.
        assert!(m.begin_refit());
        m.complete_refit();
        assert_eq!(m.health(), ModelHealth::Recovered);
    }

    #[test]
    fn relapse_during_hold_returns_to_drifting() {
        let cfg = config();
        let mut m = DriftMachine::new();
        for _ in 0..40 {
            m.observe(&cfg, 0.9);
        }
        assert!(m.begin_refit());
        m.complete_refit();
        assert_eq!(m.health(), ModelHealth::Recovered);
        // The refit did not fix the physics: residuals stay large.
        for _ in 0..40 {
            m.observe(&cfg, 0.9);
            if m.health() == ModelHealth::Drifting {
                break;
            }
        }
        assert_eq!(m.health(), ModelHealth::Drifting);
        assert_eq!(m.stats().alarms, 2);
    }

    #[test]
    fn drifting_holds_until_supervision_acts() {
        let cfg = config();
        let mut m = DriftMachine::new();
        for _ in 0..40 {
            m.observe(&cfg, 0.9);
        }
        assert_eq!(m.health(), ModelHealth::Drifting);
        let transitions = m.stats().transitions;
        // Residuals calming down does NOT clear Drifting on its own:
        // only an installed refit does (the coefficients are still the
        // old regime's).
        for _ in 0..50 {
            m.observe(&cfg, 0.01);
        }
        assert_eq!(m.health(), ModelHealth::Drifting);
        assert_eq!(m.stats().transitions, transitions);
    }
}
