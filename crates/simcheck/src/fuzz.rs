//! The seeded scenario fuzzer: deterministic, biased generation of
//! `(protocol, ScenarioConfig × FaultPlan, seed)` cases.
//!
//! Everything is a pure function of `(master seed, case index)` — no
//! entropy, no wall clock — so `simcheck --cases N --seed S` enumerates
//! the same cases on every machine, and any case can be regenerated in
//! isolation for shrinking.
//!
//! The generators are biased toward the corners where simulators break:
//! one-node worlds, zero traffic, saturated loss, partition-heavy fault
//! plans, and budget-truncated runs — alongside a bulk of ordinary
//! mid-size scenarios.

use alert_bench::ProtocolChoice;
use alert_core::AlertConfig;
use alert_rng::{Rng, SeedableRng, StdRng};
use alert_sim::{
    FaultPlan, InsiderConfig, InsiderMode, LinkDegradation, MobilityKind, Placement, RegionOutage,
    ScenarioConfig,
};

/// One fuzz case: everything needed to run (and re-run) it.
#[derive(Debug, Clone)]
pub struct Case {
    /// Position in the enumeration (for reporting).
    pub index: usize,
    /// Protocol under test.
    pub protocol: ProtocolChoice,
    /// Generated scenario.
    pub cfg: ScenarioConfig,
    /// Run seed (also the generation seed — one number regenerates the
    /// case).
    pub seed: u64,
}

/// Whether the enumeration interleaves planted-defect protocols.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Plant {
    /// Honest protocols only (the CI posture).
    None,
    /// Every fourth case (including case 0) runs the NodeId-leaking
    /// plant, proving the oracle suite catches it.
    Leak,
    /// Every fourth case (including case 0) runs the insider drill: a
    /// fixed well-connected GPSR scenario in which *every* relay is a
    /// stealth-tampering insider, proving the `insider-containment`
    /// oracle catches undetected modification.
    Insider,
}

/// SplitMix64 — the standard seed mixer; decorrelates adjacent case
/// indices without drawing from a generator.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The nine honest protocols the fuzzer cycles through. Parameterized
/// choices use their `simrun` defaults so every case is replayable by
/// protocol name alone.
fn honest_protocol(rng: &mut StdRng) -> ProtocolChoice {
    match rng.gen_range(0u32..9) {
        0 => ProtocolChoice::Alert(AlertConfig::default()),
        1 => ProtocolChoice::Gpsr,
        2 => ProtocolChoice::Alarm,
        3 => ProtocolChoice::Ao2p,
        4 => ProtocolChoice::Zap { growth: 1.0 },
        5 => ProtocolChoice::Anodr,
        6 => ProtocolChoice::Prism,
        7 => ProtocolChoice::Mask,
        _ => ProtocolChoice::Mapcp,
    }
}

/// Generates case `index` of the enumeration seeded by `master_seed`.
/// The returned scenario always passes [`ScenarioConfig::validate`].
pub fn gen_case(master_seed: u64, index: usize, plant: Plant) -> Case {
    let seed = splitmix64(master_seed ^ splitmix64(index as u64));
    let mut rng = StdRng::seed_from_u64(seed);
    // Geometry: mostly small-to-mid worlds (fast cases), with a
    // degenerate-corner bias toward 1–3 nodes.
    let mut cfg = ScenarioConfig {
        nodes: if rng.gen_bool(0.15) {
            rng.gen_range(1..=3)
        } else {
            rng.gen_range(4..=60)
        },
        ..ScenarioConfig::default()
    };
    cfg.traffic.pairs = if cfg.nodes < 2 || rng.gen_bool(0.10) {
        0 // zero-traffic corner: beacons, rotations and faults only
    } else {
        rng.gen_range(1..=cfg.nodes / 2)
    };
    cfg.duration_s = rng.gen_range(2..=15) as f64;
    cfg.speed = rng.gen_range(0.5..10.0);
    cfg.mobility = match rng.gen_range(0u32..6) {
        0 => MobilityKind::Static,
        1 => MobilityKind::Group {
            groups: rng.gen_range(1..=cfg.nodes.min(4)),
            range: rng.gen_range(50.0..200.0),
        },
        2 | 3 => {
            // Manhattan grid, biased toward the degenerate single-street
            // city and the never-turn / always-turn corners.
            let (h_streets, v_streets) = if rng.gen_bool(0.2) {
                (1, 1)
            } else {
                (rng.gen_range(2..=6), rng.gen_range(2..=6))
            };
            let turn_prob = match rng.gen_range(0u32..6) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.gen_range(0.0..1.0),
            };
            MobilityKind::ManhattanGrid {
                h_streets,
                v_streets,
                turn_prob,
                speed_classes: rng.gen_range(1..=3),
            }
        }
        _ => MobilityKind::RandomWaypoint,
    };

    // Initial placement, orthogonal to mobility: mostly uniform, with a
    // convoy line or small-teams clusters a quarter of the time. The
    // team-size draw reaches both the 1-node-team corner and the
    // everyone-in-one-team corner; spread 0 stacks a team on one point.
    cfg.placement = match rng.gen_range(0u32..8) {
        0 => Placement::Convoy,
        1 => Placement::SmallTeams {
            team_size: rng.gen_range(1..=cfg.nodes),
            spread_m: if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(5.0..60.0)
            },
        },
        _ => Placement::Uniform,
    };

    // Channel: half the cases run lossless; the rest sample moderate
    // loss, with a rare near-blackout channel.
    cfg.mac.loss_probability = if rng.gen_bool(0.5) {
        0.0
    } else if rng.gen_bool(0.1) {
        0.9
    } else {
        rng.gen_range(0.0..0.5)
    };
    cfg.mac.arq_max_retries = rng.gen_range(0..=3);

    // Keep pseudonym lifetimes >= 1 s: sub-second lifetimes would rotate
    // inside the construction-time warmup where the trace sink is not
    // yet attached, which is a harness blind spot, not a simulator bug.
    if rng.gen_bool(0.3) {
        cfg.pseudonym_lifetime_s = rng.gen_range(2.0..10.0);
    }

    // Faults: none / random churn / a half-field outage (partition
    // pressure) / a mid-run link blackout.
    cfg.faults = match rng.gen_range(0u32..5) {
        0 | 1 => FaultPlan::default(),
        2 => FaultPlan::churn(
            cfg.nodes,
            rng.gen_range(0.1..0.5),
            cfg.duration_s,
            rng.gen(),
        ),
        3 => FaultPlan {
            regional_outages: vec![RegionOutage {
                x: 0.0,
                y: 0.0,
                w: cfg.field_w / 2.0,
                h: cfg.field_h,
                start_s: cfg.duration_s * 0.25,
                end_s: cfg.duration_s * 0.75,
            }],
            ..FaultPlan::default()
        },
        _ => FaultPlan {
            link_degradations: vec![LinkDegradation {
                start_s: cfg.duration_s * 0.3,
                end_s: cfg.duration_s * 0.6,
                factor: 1.0,
                add: 0.9,
            }],
            ..FaultPlan::default()
        },
    };

    // Energy metering: a quarter of the cases run on a battery, with a
    // zero-energy-start corner (everyone dead at t=0) and occasional
    // cluster-head election / idle drain.
    if rng.gen_bool(0.25) {
        cfg.energy.initial_j = Some(if rng.gen_bool(0.10) {
            0.0
        } else {
            rng.gen_range(20.0..2_000.0)
        });
        if rng.gen_bool(0.3) {
            cfg.energy.idle_watts = rng.gen_range(0.0..0.2);
        }
        if rng.gen_bool(0.3) {
            cfg.energy.cluster_head_fraction = 0.12;
        }
    }

    // Insider adversaries: a fifth of the cases compromise some relays.
    // Honest fuzzing never draws ModifyStealth — tampering that evades
    // the integrity check is exactly the defect the containment oracle
    // exists to catch, so it is reserved for the planted drill.
    if rng.gen_bool(0.2) {
        cfg.insiders = InsiderConfig {
            fraction: if rng.gen_bool(0.1) {
                1.0 // all-relays-compromised corner
            } else {
                rng.gen_range(0.05..0.5)
            },
            mode: match rng.gen_range(0u32..3) {
                0 => InsiderMode::Log,
                1 => InsiderMode::Drop,
                _ => InsiderMode::Modify,
            },
        };
    }

    // Budget-truncation corner: the run aborts mid-flight and the
    // oracles must still hold on the prefix.
    if rng.gen_bool(0.1) {
        cfg.budget.max_events = Some(rng.gen_range(500..5_000));
    }

    let protocol = match plant {
        Plant::Leak if index.is_multiple_of(4) => ProtocolChoice::LeakyNodeId,
        Plant::Insider if index.is_multiple_of(4) => {
            cfg = insider_drill_scenario();
            ProtocolChoice::Gpsr
        }
        _ => honest_protocol(&mut rng),
    };
    Case {
        index,
        protocol,
        cfg,
        seed,
    }
}

/// The insider-drill scenario: a fixed, well-connected, static GPSR
/// world with every relay compromised in stealth-tamper mode. Traffic
/// gets delivered, every forwarded frame is modified undetected, and the
/// `insider-containment` oracle must fire — and nothing else.
pub fn insider_drill_scenario() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::default().with_nodes(40).with_duration(8.0);
    cfg.traffic.pairs = 3;
    cfg.mobility = MobilityKind::Static;
    cfg.mac.loss_probability = 0.0;
    cfg.insiders = InsiderConfig {
        fraction: 1.0,
        mode: InsiderMode::ModifyStealth,
    };
    cfg
}

impl Case {
    /// One deterministic line describing the case (the report row).
    pub fn describe(&self) -> String {
        let mob = match self.cfg.mobility {
            MobilityKind::RandomWaypoint => "rwp".to_string(),
            MobilityKind::Static => "static".to_string(),
            MobilityKind::Group { groups, .. } => format!("group{groups}"),
            MobilityKind::ManhattanGrid {
                h_streets,
                v_streets,
                ..
            } => format!("manhattan{h_streets}x{v_streets}"),
        };
        let place = match self.cfg.placement {
            Placement::Uniform => String::new(),
            Placement::Convoy => " place=convoy".to_string(),
            Placement::SmallTeams { team_size, .. } => format!(" place=teams{team_size}"),
        };
        let energy = match self.cfg.energy.initial_j {
            Some(j) => format!(" energy={j:.0}J"),
            None => String::new(),
        };
        let insiders = if self.cfg.insiders.is_active() {
            format!(
                " insiders={:.2}/{}",
                self.cfg.insiders.fraction, self.cfg.insiders.mode
            )
        } else {
            String::new()
        };
        let faults = if self.cfg.faults.is_empty() {
            "none".to_string()
        } else {
            format!(
                "c{}o{}l{}",
                self.cfg.faults.crashes.len(),
                self.cfg.faults.regional_outages.len(),
                self.cfg.faults.link_degradations.len()
            )
        };
        let budget = match self.cfg.budget.max_events {
            Some(n) => format!(" budget={n}"),
            None => String::new(),
        };
        format!(
            "{} nodes={} pairs={} dur={} mob={mob} loss={:.2} arq={} faults={faults}{place}{energy}{insiders}{budget} seed={}",
            self.protocol.name(),
            self.cfg.nodes,
            self.cfg.traffic.pairs,
            self.cfg.duration_s,
            self.cfg.mac.loss_probability,
            self.cfg.mac.arq_max_retries,
            self.seed
        )
    }

    /// The one-line `simrun` command replaying this case (exact when the
    /// scenario is [`flag_encodable`]; otherwise the geometry flags are
    /// right but the scenario JSON artifact is needed for the rest).
    pub fn replay_command(&self) -> String {
        format!(
            "simrun --protocol {} --nodes {} --pairs {} --duration {} --seed {}",
            self.protocol.name().to_lowercase(),
            self.cfg.nodes,
            self.cfg.traffic.pairs,
            self.cfg.duration_s,
            self.seed
        )
    }
}

/// Whether a scenario is fully expressible as `simrun` geometry flags —
/// i.e. it is the default scenario except for nodes, pairs, and
/// duration, so [`Case::replay_command`] reproduces it exactly.
pub fn flag_encodable(cfg: &ScenarioConfig) -> bool {
    let mut canon = ScenarioConfig::default()
        .with_nodes(cfg.nodes)
        .with_duration(cfg.duration_s);
    canon.traffic.pairs = cfg.traffic.pairs;
    canon == *cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for i in 0..50 {
            let a = gen_case(0, i, Plant::None);
            let b = gen_case(0, i, Plant::None);
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.cfg, b.cfg);
            assert_eq!(a.protocol, b.protocol);
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn every_generated_scenario_validates() {
        for plant in [Plant::Leak, Plant::Insider] {
            for i in 0..300 {
                let c = gen_case(0xDEAD_BEEF, i, plant);
                assert!(
                    c.cfg.validate().is_ok(),
                    "case {i} invalid: {:?} / {:?}",
                    c.cfg.validate(),
                    c.cfg
                );
            }
        }
    }

    #[test]
    fn corners_are_reachable() {
        let cases: Vec<Case> = (0..300).map(|i| gen_case(1, i, Plant::None)).collect();
        assert!(cases.iter().any(|c| c.cfg.nodes == 1), "no 1-node world");
        assert!(
            cases.iter().any(|c| c.cfg.traffic.pairs == 0),
            "no zero-pair case"
        );
        assert!(
            cases.iter().any(|c| c.cfg.budget.max_events.is_some()),
            "no budget-truncated case"
        );
        assert!(
            cases
                .iter()
                .any(|c| !c.cfg.faults.regional_outages.is_empty()),
            "no partition-heavy plan"
        );
        assert!(
            cases.iter().any(|c| c.cfg.mac.loss_probability > 0.8),
            "no near-blackout channel"
        );
    }

    #[test]
    fn new_scenario_knobs_and_their_corners_are_reachable() {
        let cases: Vec<Case> = (0..400).map(|i| gen_case(2, i, Plant::None)).collect();
        assert!(
            cases.iter().any(|c| matches!(
                c.cfg.mobility,
                MobilityKind::ManhattanGrid {
                    h_streets: 1,
                    v_streets: 1,
                    ..
                }
            )),
            "no single-street city"
        );
        assert!(
            cases.iter().any(|c| matches!(
                c.cfg.mobility,
                MobilityKind::ManhattanGrid { turn_prob, .. } if turn_prob == 0.0
            )),
            "no never-turn corner"
        );
        assert!(
            cases.iter().any(|c| matches!(
                c.cfg.mobility,
                MobilityKind::ManhattanGrid { turn_prob, .. } if turn_prob == 1.0
            )),
            "no always-turn corner"
        );
        assert!(
            cases.iter().any(|c| c.cfg.placement == Placement::Convoy),
            "no convoy placement"
        );
        assert!(
            cases
                .iter()
                .any(|c| matches!(c.cfg.placement, Placement::SmallTeams { team_size: 1, .. })),
            "no 1-node-team corner"
        );
        assert!(
            cases.iter().any(|c| c.cfg.energy.initial_j == Some(0.0)),
            "no zero-energy start"
        );
        assert!(
            cases
                .iter()
                .any(|c| c.cfg.energy.metered() && c.cfg.energy.cluster_head_fraction > 0.0),
            "no cluster-head election"
        );
        assert!(
            cases
                .iter()
                .any(|c| c.cfg.insiders.is_active() && c.cfg.insiders.fraction == 1.0),
            "no all-relays-compromised corner"
        );
        assert!(
            cases
                .iter()
                .all(|c| c.cfg.insiders.mode != InsiderMode::ModifyStealth),
            "honest fuzzing must never draw the stealth plant"
        );
    }

    #[test]
    fn insider_plant_interleaves_the_drill() {
        let c0 = gen_case(0, 0, Plant::Insider);
        assert_eq!(c0.protocol, ProtocolChoice::Gpsr);
        assert_eq!(c0.cfg, insider_drill_scenario());
        assert_eq!(c0.cfg.insiders.mode, InsiderMode::ModifyStealth);
        assert!(c0.cfg.validate().is_ok());
        // Non-planted cases are untouched by the plant choice.
        let honest = gen_case(0, 1, Plant::Insider);
        assert_eq!(honest.cfg, gen_case(0, 1, Plant::None).cfg);
    }

    #[test]
    fn plant_mode_interleaves_the_leaky_protocol() {
        let c0 = gen_case(0, 0, Plant::Leak);
        assert_eq!(c0.protocol, ProtocolChoice::LeakyNodeId);
        let honest = gen_case(0, 1, Plant::Leak);
        assert_ne!(honest.protocol, ProtocolChoice::LeakyNodeId);
        // Plant choice does not perturb the scenario itself.
        assert_eq!(c0.cfg, gen_case(0, 0, Plant::None).cfg);
    }

    #[test]
    fn flag_encodable_detects_non_default_knobs() {
        let mut cfg = ScenarioConfig::default().with_nodes(10).with_duration(3.0);
        cfg.traffic.pairs = 2;
        assert!(flag_encodable(&cfg));
        cfg.mac.loss_probability = 0.2;
        assert!(!flag_encodable(&cfg));
    }
}
