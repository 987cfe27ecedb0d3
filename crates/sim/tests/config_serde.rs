//! Scenario configurations are the unit of experiment description; they
//! must survive serialization round-trips bit for bit so experiment specs
//! can be stored and replayed.

use alert_sim::{
    InsiderConfig, InsiderMode, LocationPolicy, MobilityKind, Placement, RunBudget, ScenarioConfig,
};
use alert_trace::json::{self, ToJson, Val};

fn roundtrip(cfg: &ScenarioConfig) -> ScenarioConfig {
    let json = json::to_string(cfg);
    json::from_str(&json).expect("deserialize")
}

#[test]
fn default_scenario_roundtrips() {
    let cfg = ScenarioConfig::default();
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn exotic_scenario_roundtrips() {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(321)
        .with_speed(7.25)
        .with_duration(12.5)
        .with_location(LocationPolicy::SessionStart)
        .with_mobility(MobilityKind::Group {
            groups: 7,
            range: 123.0,
        });
    cfg.mac.loss_probability = 0.03;
    cfg.traffic.packet_bytes = 1024;
    cfg.pseudonym_lifetime_s = 12.0;
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn budgeted_scenario_roundtrips() {
    let cfg = ScenarioConfig {
        budget: RunBudget {
            max_events: Some(1_000_000),
            max_sim_seconds: Some(300.0),
            max_wall_seconds: Some(60.0),
            max_events_per_instant: Some(10_000),
        },
        ..ScenarioConfig::default()
    };
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn scenarios_without_a_budget_field_parse_as_unlimited() {
    // Back-compat: every scenario JSON written before guardrails existed
    // must keep parsing, with all budgets off.
    let mut json = json::to_string(&ScenarioConfig::default());
    let mut start = json.find("\"budget\"").expect("budget serialized");
    // Strip the budget object (it is a flat object, so find its '}'),
    // plus whichever comma joins it to its neighbors.
    let mut end = start + json[start..].find('}').unwrap() + 1;
    if json.as_bytes().get(end) == Some(&b',') {
        end += 1;
    } else if start > 0 && json.as_bytes()[start - 1] == b',' {
        start -= 1;
    }
    json.replace_range(start..end, "");
    let cfg: ScenarioConfig = json::from_str(&json).expect("budget-less scenario parses");
    assert!(cfg.budget.is_unlimited());
    assert_eq!(cfg, ScenarioConfig::default());
}

#[test]
fn scenario_diversity_knobs_roundtrip() {
    let mut cfg = ScenarioConfig::default()
        .with_nodes(80)
        .with_duration(30.0)
        .with_mobility(MobilityKind::ManhattanGrid {
            h_streets: 5,
            v_streets: 3,
            turn_prob: 0.25,
            speed_classes: 3,
        });
    cfg.placement = Placement::SmallTeams {
        team_size: 4,
        spread_m: 35.0,
    };
    cfg.energy.initial_j = Some(750.0);
    cfg.energy.idle_watts = 0.05;
    cfg.energy.cluster_head_fraction = 0.12;
    cfg.energy.cluster_head_range_boost = 1.4;
    cfg.energy.relay_threshold_fraction = 0.1;
    cfg.insiders = InsiderConfig {
        fraction: 0.2,
        mode: InsiderMode::Drop,
    };
    cfg.validate().expect("a diverse scenario must validate");
    assert_eq!(roundtrip(&cfg), cfg);
}

#[test]
fn legacy_scenarios_parse_with_the_new_knobs_defaulted() {
    // Back-compat: scenario JSON written before placement, insiders, the
    // per-node energy meter, or Manhattan mobility existed must keep
    // parsing — and must mean exactly what it meant then: uniform
    // placement, no insiders, unlimited batteries.
    let mut v: Val = ScenarioConfig::default().to_json();
    assert!(v.remove("placement").is_some(), "placement serialized");
    assert!(v.remove("insiders").is_some(), "insiders serialized");
    // The energy block predates the meter but not the aggregate watts
    // fields, so strip only the meter-era keys inside it.
    let energy = v.get_mut("energy").expect("energy block");
    for field in [
        "initial_j",
        "idle_watts",
        "cluster_head_fraction",
        "cluster_head_range_boost",
        "relay_threshold_fraction",
    ] {
        assert!(energy.remove(field).is_some(), "{field} serialized");
    }
    let cfg: ScenarioConfig = json::FromJson::from_json(&v).expect("legacy scenario parses");
    assert_eq!(cfg.placement, Placement::Uniform);
    assert!(!cfg.insiders.is_active());
    assert!(!cfg.energy.metered());
    assert_eq!(cfg, ScenarioConfig::default());
}

#[test]
fn serialized_form_is_human_editable() {
    let json = json::to_string_pretty(&ScenarioConfig::default());
    for field in [
        "field_w",
        "nodes",
        "speed",
        "mobility",
        "range_m",
        "duration_s",
    ] {
        assert!(json.contains(field), "missing field {field} in\n{json}");
    }
}
