//! Deterministic fault injection: seeded node crash/recover schedules,
//! regional outages, and time-windowed link degradation.
//!
//! A [`FaultPlan`] is part of the [`ScenarioConfig`](crate::ScenarioConfig),
//! so a faulty run stays a pure function of `(scenario, seed)` — two runs
//! with the same plan produce byte-identical traces. An empty plan (the
//! default) leaves the simulation bit-for-bit identical to a world without
//! fault support: no fault events are scheduled, no extra RNG draws occur.
//!
//! The model follows what NS-2 MANET studies script via the node
//! energy/failure model: a crashed node transmits nothing, receives
//! nothing, stops beaconing (so neighbors evict it after the staleness
//! window), and loses its volatile runtime state. On recovery it rejoins
//! with a wiped neighbor table, a new timer incarnation (timers set before
//! the crash never fire), and a re-run of the protocol's `on_start` — a
//! warm reboot.

use crate::config::ScenarioError;

/// One scheduled node crash, with an optional recovery time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeCrash {
    /// The node to crash (ground-truth index).
    pub node: usize,
    /// Crash time in simulated seconds.
    pub at_s: f64,
    /// Recovery time; `None` means the node stays down for the rest of
    /// the run.
    pub recover_s: Option<f64>,
}

/// A rectangular outage: every node positioned inside the rectangle when
/// the outage starts crashes, and that same set recovers when it ends
/// (models a localized jammer or power failure).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionOutage {
    /// Rectangle origin x in metres.
    pub x: f64,
    /// Rectangle origin y in metres.
    pub y: f64,
    /// Rectangle width in metres.
    pub w: f64,
    /// Rectangle height in metres.
    pub h: f64,
    /// Outage start time in simulated seconds.
    pub start_s: f64,
    /// Outage end time in simulated seconds.
    pub end_s: f64,
}

/// A time window during which the channel degrades: the base
/// `mac.loss_probability` is scaled by `factor` and then increased by
/// `add`, clamped to `[0, 1]` (models interference bursts; the NS-2
/// counterpart is a scripted `ErrorModel` rate change).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDegradation {
    /// Window start time in simulated seconds.
    pub start_s: f64,
    /// Window end time in simulated seconds.
    pub end_s: f64,
    /// Multiplier on the base loss probability inside the window.
    pub factor: f64,
    /// Additive loss probability inside the window.
    pub add: f64,
}

/// A deterministic fault schedule for one run. The default (empty) plan
/// injects nothing and perturbs nothing.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Individual node crash/recover schedules.
    pub crashes: Vec<NodeCrash>,
    /// Rectangular regional outages.
    pub regional_outages: Vec<RegionOutage>,
    /// Time-windowed channel degradations.
    pub link_degradations: Vec<LinkDegradation>,
}

alert_trace::json_struct!(NodeCrash {
    node,
    at_s,
    recover_s = None,
});

alert_trace::json_struct!(RegionOutage {
    x,
    y,
    w,
    h,
    start_s,
    end_s,
});

alert_trace::json_struct!(LinkDegradation {
    start_s,
    end_s,
    factor = 1.0,
    add = 0.0,
});

alert_trace::json_struct!(FaultPlan {
    crashes = Vec::new(),
    regional_outages = Vec::new(),
    link_degradations = Vec::new(),
});

impl FaultPlan {
    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.regional_outages.is_empty()
            && self.link_degradations.is_empty()
    }

    /// The channel loss probability in effect at `now`: the base rate run
    /// through every active degradation window, clamped to `[0, 1]`.
    /// With no windows this returns `base` unchanged.
    pub fn effective_loss(&self, base: f64, now: f64) -> f64 {
        if self.link_degradations.is_empty() {
            return base;
        }
        let mut loss = base;
        for d in &self.link_degradations {
            if now >= d.start_s && now < d.end_s {
                loss = loss * d.factor + d.add;
            }
        }
        loss.clamp(0.0, 1.0)
    }

    /// Seeded random churn: crashes `crash_fraction` of the population at
    /// staggered times across the middle half of the run, each outage
    /// lasting a quarter of the run (nodes recover only if that completes
    /// before the scenario ends).
    ///
    /// The victim order is a seeded shuffle and crash times depend only on
    /// a victim's index, so for a fixed `(nodes, duration_s, seed)` a
    /// higher `crash_fraction` produces a strict superset of a lower one's
    /// outages — which is what makes delivery-vs-crash-rate sweeps
    /// near-monotone instead of re-rolling the victim set per point.
    pub fn churn(nodes: usize, crash_fraction: f64, duration_s: f64, seed: u64) -> FaultPlan {
        let count = (crash_fraction.clamp(0.0, 1.0) * nodes as f64).round() as usize;
        let count = count.min(nodes);
        let mut order: Vec<usize> = (0..nodes).collect();
        let mut state = seed ^ 0xC4A5_4ED5_EED5_0B0B;
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let crashes = order
            .into_iter()
            .take(count)
            .enumerate()
            .map(|(k, node)| {
                let phase = (k % 8) as f64 / 8.0;
                let at_s = duration_s * (0.25 + 0.5 * phase);
                let rec = at_s + 0.25 * duration_s;
                NodeCrash {
                    node,
                    at_s,
                    recover_s: (rec < duration_s).then_some(rec),
                }
            })
            .collect();
        FaultPlan {
            crashes,
            ..FaultPlan::default()
        }
    }

    /// Checks the plan against a population of `nodes`; called from
    /// [`ScenarioConfig::validate`](crate::ScenarioConfig::validate).
    pub fn validate(&self, nodes: usize) -> Result<(), ScenarioError> {
        for c in &self.crashes {
            if c.node >= nodes {
                return Err(ScenarioError::FaultNodeOutOfRange {
                    node: c.node,
                    nodes,
                });
            }
            let end = c.recover_s.unwrap_or(f64::INFINITY);
            if !c.at_s.is_finite() || c.at_s < 0.0 || end <= c.at_s {
                return Err(ScenarioError::InvalidFaultWindow { start: c.at_s, end });
            }
        }
        for r in &self.regional_outages {
            if !(r.x.is_finite() && r.y.is_finite() && r.w.is_finite() && r.h.is_finite())
                || r.w < 0.0
                || r.h < 0.0
            {
                return Err(ScenarioError::InvalidFaultWindow {
                    start: r.start_s,
                    end: r.end_s,
                });
            }
            if !r.start_s.is_finite()
                || r.start_s < 0.0
                || !r.end_s.is_finite()
                || r.end_s <= r.start_s
            {
                return Err(ScenarioError::InvalidFaultWindow {
                    start: r.start_s,
                    end: r.end_s,
                });
            }
        }
        for d in &self.link_degradations {
            if !d.start_s.is_finite()
                || d.start_s < 0.0
                || !d.end_s.is_finite()
                || d.end_s <= d.start_s
            {
                return Err(ScenarioError::InvalidFaultWindow {
                    start: d.start_s,
                    end: d.end_s,
                });
            }
            if !d.factor.is_finite() || d.factor < 0.0 {
                return Err(ScenarioError::InvalidFaultLoss(d.factor));
            }
            if !d.add.is_finite() || !(0.0..=1.0).contains(&d.add) {
                return Err(ScenarioError::InvalidFaultLoss(d.add));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_empty());
        assert_eq!(p.validate(10), Ok(()));
        assert_eq!(p.effective_loss(0.25, 5.0), 0.25);
    }

    #[test]
    fn effective_loss_applies_active_windows_and_clamps() {
        let p = FaultPlan {
            link_degradations: vec![
                LinkDegradation {
                    start_s: 10.0,
                    end_s: 20.0,
                    factor: 2.0,
                    add: 0.1,
                },
                LinkDegradation {
                    start_s: 15.0,
                    end_s: 25.0,
                    factor: 1.0,
                    add: 0.9,
                },
            ],
            ..FaultPlan::default()
        };
        assert_eq!(p.effective_loss(0.1, 5.0), 0.1);
        assert!((p.effective_loss(0.1, 12.0) - 0.3).abs() < 1e-12);
        // Both windows active: (0.1*2 + 0.1) + 0.9 clamps to 1.
        assert_eq!(p.effective_loss(0.1, 16.0), 1.0);
        assert_eq!(p.effective_loss(0.1, 25.0), 0.1);
    }

    #[test]
    fn churn_is_deterministic_with_prefix_property() {
        let small = FaultPlan::churn(100, 0.1, 100.0, 42);
        let large = FaultPlan::churn(100, 0.3, 100.0, 42);
        assert_eq!(small.crashes.len(), 10);
        assert_eq!(large.crashes.len(), 30);
        assert_eq!(&large.crashes[..10], &small.crashes[..]);
        assert_eq!(small, FaultPlan::churn(100, 0.1, 100.0, 42));
        assert_ne!(small, FaultPlan::churn(100, 0.1, 100.0, 43));
        for c in &large.crashes {
            assert!(c.at_s >= 25.0 && c.at_s < 75.0);
            if let Some(r) = c.recover_s {
                assert!(r > c.at_s && r < 100.0);
            }
        }
        assert!(FaultPlan::churn(100, 0.0, 100.0, 42).is_empty());
        assert_eq!(large.validate(100), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_plans() {
        let p = FaultPlan {
            crashes: vec![NodeCrash {
                node: 10,
                at_s: 1.0,
                recover_s: None,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(
            p.validate(10),
            Err(ScenarioError::FaultNodeOutOfRange {
                node: 10,
                nodes: 10
            })
        );

        let p = FaultPlan {
            crashes: vec![NodeCrash {
                node: 0,
                at_s: 5.0,
                recover_s: Some(5.0),
            }],
            ..FaultPlan::default()
        };
        assert_eq!(
            p.validate(10),
            Err(ScenarioError::InvalidFaultWindow {
                start: 5.0,
                end: 5.0
            })
        );

        let p = FaultPlan {
            regional_outages: vec![RegionOutage {
                x: 0.0,
                y: 0.0,
                w: -5.0,
                h: 10.0,
                start_s: 1.0,
                end_s: 2.0,
            }],
            ..FaultPlan::default()
        };
        assert!(p.validate(10).is_err());

        let p = FaultPlan {
            link_degradations: vec![LinkDegradation {
                start_s: 1.0,
                end_s: 2.0,
                factor: 1.0,
                add: 1.5,
            }],
            ..FaultPlan::default()
        };
        assert_eq!(p.validate(10), Err(ScenarioError::InvalidFaultLoss(1.5)));
    }
}
