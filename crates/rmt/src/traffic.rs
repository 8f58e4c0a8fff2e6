//! The traffic manager: recirculation, cloning and turnaround.
//!
//! Three things force a packet back through the pipeline (Section 3.1):
//!
//! 1. **Program length** — more instructions than logical stages;
//! 2. **Instruction position** — e.g. RTS executing past the ingress
//!    pipeline ("ports cannot be changed at egress on devices such as
//!    the Tofino");
//! 3. **Cloning** — FORK requires the clone to re-enter the pipeline.
//!
//! The traffic manager also implements the paper's recirculation cap
//! (Section 7.2: "ActiveRMT can impose limits on the number of
//! recirculations" to bound the bandwidth one service can inflate), and
//! counts each packet's fate. The latency a pass costs ("approximately
//! 0.5 µs" per Figure 8b) is the switch configuration's
//! `pass_latency_ns`, not this module's.

/// Verdict accounting and recirculation policy.
#[derive(Debug, Clone)]
pub struct TrafficManager {
    /// Hard cap on recirculations per packet (None = unlimited).
    pub max_recirculations: Option<u8>,
    stats: TrafficStats,
}

/// Aggregate traffic-manager statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Packets that completed and were forwarded.
    pub forwarded: u64,
    /// Packets turned around by RTS.
    pub returned_to_sender: u64,
    /// Packets dropped (DROP instruction, violations, recirc cap).
    pub dropped: u64,
    /// Total recirculation events.
    pub recirculations: u64,
    /// Clones created by FORK.
    pub clones: u64,
    /// Packets dropped specifically by the recirculation cap.
    pub recirc_cap_drops: u64,
}

impl TrafficStats {
    /// Fold `other` into `self`, field by field. The sharded executor
    /// uses this to present one aggregate traffic view over the
    /// per-worker traffic managers.
    pub fn merge(&mut self, other: TrafficStats) {
        self.forwarded += other.forwarded;
        self.returned_to_sender += other.returned_to_sender;
        self.dropped += other.dropped;
        self.recirculations += other.recirculations;
        self.clones += other.clones;
        self.recirc_cap_drops += other.recirc_cap_drops;
    }
}

/// The fate of a packet after a pass, as decided by the traffic manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Forward toward the (possibly overridden) destination.
    Forward,
    /// Send back to the source port (RTS).
    ReturnToSender,
    /// Re-inject at ingress for another pass.
    Recirculate,
    /// Discard.
    Drop,
}

impl TrafficManager {
    /// A traffic manager enforcing `max_recirculations`.
    pub fn new(max_recirculations: Option<u8>) -> TrafficManager {
        TrafficManager {
            max_recirculations,
            stats: TrafficStats::default(),
        }
    }

    /// May a packet with `recirc_count` completed passes recirculate
    /// again?
    pub fn may_recirculate(&self, recirc_count: u8) -> bool {
        match self.max_recirculations {
            Some(cap) => recirc_count < cap,
            None => true,
        }
    }

    /// Record a verdict.
    pub fn account(&mut self, verdict: Verdict) {
        match verdict {
            Verdict::Forward => self.stats.forwarded += 1,
            Verdict::ReturnToSender => self.stats.returned_to_sender += 1,
            Verdict::Recirculate => self.stats.recirculations += 1,
            Verdict::Drop => self.stats.dropped += 1,
        }
    }

    /// Record that the recirculation cap refused a pass. The packet's
    /// drop itself is accounted once, as a [`Verdict::Drop`].
    pub fn account_cap_drop(&mut self) {
        self.stats.recirc_cap_drops += 1;
    }

    /// Record a FORK clone.
    pub fn account_clone(&mut self) {
        self.stats.clones += 1;
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> TrafficStats {
        self.stats
    }
}

impl Default for TrafficManager {
    fn default() -> Self {
        TrafficManager::new(Some(8))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recirculation_cap_is_enforced() {
        let tm = TrafficManager::new(Some(2));
        assert!(tm.may_recirculate(0));
        assert!(tm.may_recirculate(1));
        assert!(!tm.may_recirculate(2));
        let unlimited = TrafficManager::new(None);
        assert!(unlimited.may_recirculate(255));
    }

    #[test]
    fn verdicts_are_accounted() {
        let mut tm = TrafficManager::default();
        tm.account(Verdict::Forward);
        tm.account(Verdict::Recirculate);
        tm.account(Verdict::Recirculate);
        tm.account(Verdict::ReturnToSender);
        tm.account(Verdict::Drop);
        tm.account_cap_drop();
        tm.account_clone();
        let s = tm.stats();
        assert_eq!(s.forwarded, 1);
        assert_eq!(s.recirculations, 2);
        assert_eq!(s.returned_to_sender, 1);
        assert_eq!(s.dropped, 1, "a cap drop is one Verdict::Drop, not two");
        assert_eq!(s.recirc_cap_drops, 1);
        assert_eq!(s.clones, 1);
    }

    #[test]
    fn traffic_stats_merge_is_fieldwise_sum() {
        let mut a = TrafficStats {
            forwarded: 1,
            returned_to_sender: 2,
            dropped: 3,
            recirculations: 4,
            clones: 5,
            recirc_cap_drops: 6,
        };
        a.merge(TrafficStats {
            forwarded: 10,
            returned_to_sender: 20,
            dropped: 30,
            recirculations: 40,
            clones: 50,
            recirc_cap_drops: 60,
        });
        assert_eq!(
            a,
            TrafficStats {
                forwarded: 11,
                returned_to_sender: 22,
                dropped: 33,
                recirculations: 44,
                clones: 55,
                recirc_cap_drops: 66,
            }
        );
    }
}
