//! Insider adversaries: compromised relays that stay *in* the protocol
//! (paper §2.1's node-intrusion attacker, taken beyond the blackhole of
//! [`crate::compromise`]).
//!
//! An insider keeps beaconing and routing so it looks legitimate, but
//! applies its [`InsiderMode`] to every frame it is asked to process:
//! log it for later traffic analysis, drop it, or modify its payload.
//! Modification models per-hop integrity protection: a tampered frame is
//! caught at the insider and dies there ([`InsiderMode::Modify`]), unless
//! the deliberately broken stealth variant is selected
//! ([`InsiderMode::ModifyStealth`]), which exists so the simcheck
//! `insider-containment` oracle can prove it catches undetected
//! tampering.
//!
//! Everything an insider sees lands in a shared [`TamperLog`]; the
//! per-packet observer sets can then be scored with the §3.3
//! intersection attacker ([`TamperLog::choke_points`]) to ask the
//! paper's question: does any single compromised relay see *every*
//! packet of a session?

use crate::intersection::IntersectionAttack;
use alert_sim::{Api, DataRequest, Frame, InsiderMode, NodeId, ProtocolNode, TimerToken};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// Everything the insider cohort observed and did during one run, shared
/// by every compromised wrapper instance.
#[derive(Debug, Default)]
pub struct TamperLog {
    /// Frames received by compromised relays (their observation feed).
    pub observed: u64,
    /// Frames swallowed by [`InsiderMode::Drop`] insiders.
    pub dropped: u64,
    /// Frames whose payload an insider corrupted (both modify variants).
    pub modified: u64,
    /// Packet ids of tampered frames, when the wire format exposes one
    /// to the harness's extractor.
    pub tampered_packets: BTreeSet<u64>,
    /// `(insider node, packet id)` sightings, for intersection scoring.
    pub sightings: Vec<(u64, Option<u64>)>,
}

impl TamperLog {
    /// Scores the observation log with the §3.3 intersection attacker:
    /// each packet's set of observing insiders is one round, so the
    /// surviving candidate set is exactly the relays that saw *every*
    /// observed packet — the choke points whose compromise intercepts
    /// the whole session.
    pub fn choke_points(&self) -> IntersectionAttack {
        let mut per_packet: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        for &(node, pid) in &self.sightings {
            if let Some(p) = pid {
                per_packet
                    .entry(p)
                    .or_default()
                    .insert(NodeId(node as usize));
            }
        }
        let mut attack = IntersectionAttack::new();
        for set in per_packet.values() {
            attack.observe(set);
        }
        attack
    }
}

/// Shared handle to a run's [`TamperLog`].
pub type TamperHandle = Arc<Mutex<TamperLog>>;

/// Creates an empty shared tamper log for one run.
pub fn tamper_log() -> TamperHandle {
    Arc::new(Mutex::new(TamperLog::default()))
}

/// Wraps a routing protocol; compromised instances apply `mode` to every
/// frame they receive while behaving normally otherwise. `extract` pulls
/// an application packet id out of a wire message *for the log only* —
/// insider behavior never depends on its result, so a protocol whose
/// frames carry no extractable id is attacked identically, just scored
/// more coarsely.
pub struct Insider<P, F> {
    inner: P,
    node: u64,
    mode: InsiderMode,
    compromised: bool,
    log: TamperHandle,
    extract: F,
}

impl<P, F> Insider<P, F> {
    /// Wraps `inner` running on `node`; only `compromised` instances
    /// deviate from the honest protocol.
    pub fn new(
        inner: P,
        node: u64,
        mode: InsiderMode,
        compromised: bool,
        log: TamperHandle,
        extract: F,
    ) -> Self {
        Insider {
            inner,
            node,
            mode,
            compromised,
            log,
            extract,
        }
    }

    /// Whether this node is under attacker control.
    pub fn is_compromised(&self) -> bool {
        self.compromised
    }

    /// Access to the wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P, F> ProtocolNode for Insider<P, F>
where
    P: ProtocolNode,
    F: Fn(&P::Msg) -> Option<u64>,
{
    type Msg = P::Msg;

    fn name() -> &'static str {
        P::name()
    }

    fn on_start(&mut self, api: &mut Api<'_, Self::Msg>) {
        // Insiders look legitimate: normal startup, beacons keep flowing.
        self.inner.on_start(api);
    }

    fn on_data_request(&mut self, api: &mut Api<'_, Self::Msg>, req: &DataRequest) {
        // A compromised *source* still originates its own traffic — the
        // attack targets what the node forwards for others.
        self.inner.on_data_request(api, req);
    }

    fn on_frame(&mut self, api: &mut Api<'_, Self::Msg>, frame: Frame<Self::Msg>) {
        if !self.compromised {
            self.inner.on_frame(api, frame);
            return;
        }
        let pid = (self.extract)(&frame.msg);
        {
            let mut log = self.log.lock().expect("tamper log poisoned");
            log.observed += 1;
            log.sightings.push((self.node, pid));
        }
        match self.mode {
            InsiderMode::Log => self.inner.on_frame(api, frame),
            InsiderMode::Drop => {
                self.log.lock().expect("tamper log poisoned").dropped += 1;
                api.mark_drop("insider_dropped");
            }
            InsiderMode::Modify => {
                {
                    let mut log = self.log.lock().expect("tamper log poisoned");
                    log.modified += 1;
                    if let Some(p) = pid {
                        log.tampered_packets.insert(p);
                    }
                }
                // Per-hop integrity protection catches the corruption
                // immediately: the tampered frame dies here, attributed.
                api.mark_drop("insider_modified");
            }
            InsiderMode::ModifyStealth => {
                {
                    let mut log = self.log.lock().expect("tamper log poisoned");
                    log.modified += 1;
                    if let Some(p) = pid {
                        log.tampered_packets.insert(p);
                    }
                }
                // The planted defect: tampered data flows on undetected.
                self.inner.on_frame(api, frame);
            }
        }
    }

    fn on_timer(&mut self, api: &mut Api<'_, Self::Msg>, token: TimerToken) {
        self.inner.on_timer(api, token);
    }

    fn on_neighbor_lost(
        &mut self,
        api: &mut Api<'_, Self::Msg>,
        neighbor: &alert_sim::NeighborEntry,
    ) {
        self.inner.on_neighbor_lost(api, neighbor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn choke_point_scoring_finds_the_relay_on_every_packet() {
        let log = TamperLog {
            sightings: vec![
                (5, Some(0)),
                (6, Some(0)),
                (5, Some(1)),
                (7, Some(1)),
                (5, Some(2)),
            ],
            ..TamperLog::default()
        };
        let attack = log.choke_points();
        assert_eq!(attack.rounds(), 3);
        let c = attack.candidates();
        assert_eq!(c.len(), 1);
        assert!(c.contains(&NodeId(5)));
    }

    #[test]
    fn choke_point_scoring_ignores_unextractable_sightings() {
        let log = TamperLog {
            sightings: vec![(5, None), (6, None)],
            ..TamperLog::default()
        };
        assert_eq!(log.choke_points().rounds(), 0);
    }
}
