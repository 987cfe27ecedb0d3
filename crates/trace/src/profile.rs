//! Run profiles: where wall-clock time and event volume went.
//!
//! A [`RunProfile`] is what `simrun --profile` writes and what future
//! optimisation PRs compare `BENCH_*.json` trajectories against. Only
//! wall-clock fields vary between same-seed runs; everything derived
//! from the simulation itself (event counts, FEL high-water mark,
//! registry counters) is deterministic.

use crate::registry::RegistrySnapshot;
use std::collections::BTreeMap;

/// Time spent inside one class of event callback.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CallbackProfile {
    /// Number of events of this class dispatched.
    pub count: u64,
    /// Total wall-clock seconds spent in the callback.
    pub seconds: f64,
}

/// Performance summary of one simulator run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunProfile {
    /// Wall-clock duration of building the world (`World::try_new`: key
    /// generation, placement, the first hello round), in seconds. Absent
    /// from older profiles, which read as 0.
    pub setup_s: f64,
    /// Wall-clock duration of the `run_until` loop, in seconds.
    pub wall_clock_s: f64,
    /// Simulated time covered by the run, in seconds.
    pub sim_time_s: f64,
    /// Logical events dispatched: one per FEL entry, except that a
    /// frame's delivery counts once per receiver.
    pub events_dispatched: u64,
    /// Events dispatched per wall-clock second (0 if instantaneous).
    pub events_per_sec: f64,
    /// Maximum number of entries simultaneously pending in the FEL (a
    /// frame in flight is one entry, whatever its receiver count).
    pub fel_high_water: u64,
    /// Wall-clock accounting per event class ("deliver", "timer", …),
    /// plus "start": the deferred `on_start` sweep before the first
    /// event, counted once and not a dispatched event.
    pub callbacks: BTreeMap<String, CallbackProfile>,
    /// Wall-clock accounting per protocol callback ("on_frame",
    /// "on_timer", "on_data_request", "on_start", "on_neighbor_lost") —
    /// the slice of each event class spent inside protocol code rather
    /// than in the engine itself.
    pub spans: BTreeMap<String, CallbackProfile>,
    /// Snapshot of the run's counter/histogram registry.
    pub registry: RegistrySnapshot,
}

crate::json_struct!(CallbackProfile { count, seconds });

crate::json_struct!(RunProfile {
    setup_s = 0.0,
    wall_clock_s,
    sim_time_s,
    events_dispatched,
    events_per_sec,
    fel_high_water,
    callbacks,
    spans = BTreeMap::new(),
    registry,
});

impl RunProfile {
    /// Fills in `events_per_sec` from the dispatch count and wall clock.
    pub fn finalize(&mut self) {
        self.events_per_sec = if self.wall_clock_s > 0.0 {
            self.events_dispatched as f64 / self.wall_clock_s
        } else {
            0.0
        };
    }

    /// Adds one dispatched event of class `kind` taking `seconds`.
    pub fn record_callback(&mut self, kind: &str, seconds: f64) {
        let entry = self.callbacks.entry(kind.to_owned()).or_default();
        entry.count += 1;
        entry.seconds += seconds;
    }

    /// Adds one protocol-callback span named `span` taking `seconds`.
    pub fn record_span(&mut self, span: &str, seconds: f64) {
        let entry = self.spans.entry(span.to_owned()).or_default();
        entry.count += 1;
        entry.seconds += seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finalize_computes_rate() {
        let mut p = RunProfile {
            wall_clock_s: 2.0,
            events_dispatched: 1000,
            ..RunProfile::default()
        };
        p.finalize();
        assert_eq!(p.events_per_sec, 500.0);
        p.wall_clock_s = 0.0;
        p.finalize();
        assert_eq!(p.events_per_sec, 0.0);
    }

    #[test]
    fn setup_s_round_trips_and_defaults_to_zero() {
        let p = RunProfile {
            setup_s: 0.125,
            wall_clock_s: 2.0,
            ..RunProfile::default()
        };
        let back: RunProfile = crate::json::from_str(&crate::json::to_string(&p)).unwrap();
        assert_eq!(back, p);
        // A profile written before the field existed still parses.
        let mut old = crate::json::to_string(&p);
        old = old.replace("\"setup_s\":0.125,", "");
        assert!(!old.contains("setup_s"), "{old}");
        let back: RunProfile = crate::json::from_str(&old).unwrap();
        assert_eq!(back.setup_s, 0.0);
        assert_eq!(back.wall_clock_s, 2.0);
    }

    #[test]
    fn callbacks_accumulate() {
        let mut p = RunProfile::default();
        p.record_callback("deliver", 0.25);
        p.record_callback("deliver", 0.75);
        p.record_callback("timer", 0.5);
        assert_eq!(p.callbacks["deliver"].count, 2);
        assert_eq!(p.callbacks["deliver"].seconds, 1.0);
        assert_eq!(p.callbacks["timer"].count, 1);
    }

    #[test]
    fn spans_accumulate_independently_of_callbacks() {
        let mut p = RunProfile::default();
        p.record_span("on_frame", 0.25);
        p.record_span("on_frame", 0.25);
        p.record_span("on_timer", 0.1);
        assert_eq!(p.spans["on_frame"].count, 2);
        assert_eq!(p.spans["on_frame"].seconds, 0.5);
        assert_eq!(p.spans["on_timer"].count, 1);
        assert!(p.callbacks.is_empty());
    }
}
