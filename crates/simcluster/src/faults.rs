//! Deterministic fault injection for the simulated cluster runtime.
//!
//! A [`FaultPlan`] is a seeded, reproducible description of what goes wrong
//! during a run: per-edge message drops, delays, duplications and reorders,
//! plus rank kills at named phase boundaries. The plan is threaded through
//! every [`Comm`](crate::Comm) by [`run_with_faults`](crate::run_with_faults);
//! each rank carries a [`FaultSession`] whose per-message decisions depend
//! only on `(seed, src, dst, tag, per-destination sequence number)`, so a
//! given plan replays the *same* faults on every run regardless of how the
//! OS interleaves the rank threads.
//!
//! Scope: only **user-tagged point-to-point** messages are injectable.
//! Collective traffic (`allgather`, `alltoallv`, `barrier`)
//! is exempt — it stands in for MPI collectives over reliable transport,
//! and a silently lost collective deadlocks every rank by construction,
//! which is not a recoverable failure mode. The supported way to break a
//! collective's assumptions is a rank kill at a phase boundary before it.
//!
//! ## Bounded-burst drops ("fair-lossy" links)
//!
//! Each rule caps *consecutive* drops on one `(src, dst)` edge at
//! [`FaultRule::burst`] (default 3): after `burst` messages in a row have
//! been dropped on an edge, the next one is forcibly delivered. This makes
//! every link fair-lossy, which is what lets the framework's retry layer be
//! provably exactly-once: a sender that retransmits a bundle up to
//! `(burst + 1)²` times is guaranteed an acknowledged delivery to a live
//! peer (each group of `burst + 1` transmissions lands at least one copy,
//! and each group of `burst + 1` acknowledgements returns at least one —
//! see `DESIGN.md`, "Fault model & recovery").

use std::sync::Arc;
use std::time::Duration;

/// Counters of the fault events a rank's [`Comm`](crate::Comm) injected,
/// exposed via [`Comm::fault_stats`](crate::Comm::fault_stats).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Messages silently discarded at send time.
    pub dropped: u64,
    /// Extra copies delivered (one per duplicated send).
    pub duplicated: u64,
    /// Messages delivered with an added latency.
    pub delayed: u64,
    /// Messages held back past the sender's next send (overtaken).
    pub reordered: u64,
    /// Whether this rank was killed at a phase boundary.
    pub killed: bool,
}

impl FaultStats {
    /// Total injected message events (kills not included).
    pub fn total_events(&self) -> u64 {
        self.dropped + self.duplicated + self.delayed + self.reordered
    }
}

/// One injection rule: a `(src, dst, tag)` scope (each `None` = wildcard)
/// and the per-message probabilities of each fault kind. Probabilities are
/// evaluated in the order drop → duplicate → delay → reorder against a
/// single deterministic draw, so their sum must stay ≤ 1.
#[derive(Clone, Debug)]
pub struct FaultRule {
    src: Option<usize>,
    dst: Option<usize>,
    tag: Option<u32>,
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_for: Duration,
    reorder_p: f64,
    burst: u32,
}

impl FaultRule {
    /// A rule matching every user-tagged message, with no faults enabled.
    pub fn all() -> FaultRule {
        FaultRule {
            src: None,
            dst: None,
            tag: None,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_for: Duration::from_millis(2),
            reorder_p: 0.0,
            burst: 3,
        }
    }

    /// Restrict the rule to messages sent by `src`.
    pub fn from_src(mut self, src: usize) -> FaultRule {
        self.src = Some(src);
        self
    }

    /// Restrict the rule to messages addressed to `dst`.
    pub fn to_dst(mut self, dst: usize) -> FaultRule {
        self.dst = Some(dst);
        self
    }

    /// Restrict the rule to one user tag.
    pub fn on_tag(mut self, tag: u32) -> FaultRule {
        self.tag = Some(tag);
        self
    }

    /// Drop each matching message with probability `p` (subject to the
    /// [`burst`](FaultRule::burst) cap).
    pub fn drop(mut self, p: f64) -> FaultRule {
        self.drop_p = checked_p(p);
        self
    }

    /// Deliver an extra copy of each matching message with probability `p`.
    pub fn duplicate(mut self, p: f64) -> FaultRule {
        self.dup_p = checked_p(p);
        self
    }

    /// Delay each matching message by `by` with probability `p`.
    pub fn delay(mut self, p: f64, by: Duration) -> FaultRule {
        self.delay_p = checked_p(p);
        self.delay_for = by;
        self
    }

    /// Hold each matching message back past the sender's next send with
    /// probability `p`, so later traffic overtakes it.
    pub fn reorder(mut self, p: f64) -> FaultRule {
        self.reorder_p = checked_p(p);
        self
    }

    /// Cap consecutive drops per `(src, dst)` edge (default 3). After
    /// `burst` drops in a row the next matching message passes, making the
    /// link fair-lossy (see the module docs).
    pub fn burst(mut self, n: u32) -> FaultRule {
        self.burst = n;
        self
    }

    fn matches(&self, src: usize, dst: usize, tag: u32) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.tag.is_none_or(|t| t == tag)
    }

    fn is_inert(&self) -> bool {
        self.drop_p == 0.0 && self.dup_p == 0.0 && self.delay_p == 0.0 && self.reorder_p == 0.0
    }
}

/// Validate a fault probability, panicking on values outside `[0, 1]`.
/// Shared vocabulary with the socket-level injector in `dtfe-service`'s
/// `chaos` module, which builds its rules on the same primitive.
pub fn checked_p(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "fault probability {p} not in [0,1]"
    );
    p
}

/// A seeded, reproducible fault schedule for one cluster run.
///
/// Build with [`FaultPlan::seeded`] plus [`rule`](FaultPlan::rule) /
/// [`kill`](FaultPlan::kill); pass to
/// [`run_with_faults`](crate::run_with_faults). The default
/// ([`FaultPlan::none`]) injects nothing and adds no per-message overhead
/// beyond one branch on the send path.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
    kills: Vec<(usize, String)>,
}

impl FaultPlan {
    /// The empty plan: nothing is injected.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// An empty plan with a seed; add [`rule`](FaultPlan::rule)s and
    /// [`kill`](FaultPlan::kill)s to it.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Add an injection rule. The **first** matching rule decides each
    /// message's fate.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// Kill `rank` when it reaches the phase boundary labeled `phase`
    /// (see [`Comm::phase_boundary`](crate::Comm::phase_boundary)). A
    /// killed rank stops executing and stops responding; peers must detect
    /// it by timeout.
    pub fn kill(mut self, rank: usize, phase: &str) -> FaultPlan {
        self.kills.push((rank, phase.to_string()));
        self
    }

    /// True when the plan can never inject anything — the harness then
    /// skips attaching fault state to the ranks entirely.
    pub fn is_noop(&self) -> bool {
        self.kills.is_empty() && self.rules.iter().all(FaultRule::is_inert)
    }

    pub(crate) fn kills_at(&self, rank: usize, phase: &str) -> bool {
        self.kills.iter().any(|(r, p)| *r == rank && p == phase)
    }
}

/// What the injector decided for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Action {
    Deliver,
    Drop,
    Duplicate,
    Delay(Duration),
    Hold,
}

/// Per-rank fault state: the shared plan plus this rank's deterministic
/// per-edge counters.
#[derive(Debug)]
pub(crate) struct FaultSession {
    plan: Arc<FaultPlan>,
    pub(crate) stats: FaultStats,
    /// Per-destination send sequence (drives the deterministic draw).
    seq: Vec<u64>,
    /// Consecutive drops per destination (for the burst cap).
    drop_run: Vec<u32>,
}

impl FaultSession {
    pub(crate) fn new(plan: Arc<FaultPlan>, size: usize) -> FaultSession {
        FaultSession {
            plan,
            stats: FaultStats::default(),
            seq: vec![0; size],
            drop_run: vec![0; size],
        }
    }

    pub(crate) fn kills_at(&self, rank: usize, phase: &str) -> bool {
        self.plan.kills_at(rank, phase)
    }

    /// Decide the fate of one user-tagged message and update counters.
    pub(crate) fn decide(&mut self, src: usize, dst: usize, tag: u32) -> Action {
        let seq = self.seq[dst];
        self.seq[dst] += 1;
        let Some(rule) = self.plan.rules.iter().find(|r| r.matches(src, dst, tag)) else {
            self.drop_run[dst] = 0;
            return Action::Deliver;
        };
        let u = unit_draw(self.plan.seed, src as u64, dst as u64, tag as u64, seq);
        let action = if u < rule.drop_p {
            if self.drop_run[dst] >= rule.burst {
                Action::Deliver // burst cap: the link is fair-lossy
            } else {
                Action::Drop
            }
        } else if u < rule.drop_p + rule.dup_p {
            Action::Duplicate
        } else if u < rule.drop_p + rule.dup_p + rule.delay_p {
            Action::Delay(rule.delay_for)
        } else if u < rule.drop_p + rule.dup_p + rule.delay_p + rule.reorder_p {
            Action::Hold
        } else {
            Action::Deliver
        };
        match action {
            Action::Drop => {
                self.drop_run[dst] += 1;
                self.stats.dropped += 1;
            }
            other => {
                self.drop_run[dst] = 0;
                match other {
                    Action::Duplicate => self.stats.duplicated += 1,
                    Action::Delay(_) => self.stats.delayed += 1,
                    Action::Hold => self.stats.reordered += 1,
                    _ => {}
                }
            }
        }
        action
    }
}

/// One deterministic uniform draw in `[0, 1)` from an event identity
/// (splitmix64 finalizer over the four mixed-in fields).
///
/// This is the deterministic heart of every injector in the workspace:
/// the message-level fault plan here keys it on
/// `(seed, src, dst, tag, seq)`, and the socket-level chaos proxy in
/// `dtfe-service::chaos` keys it on
/// `(seed, connection, direction, kind, frame-seq)`. Identical inputs give
/// identical draws on every platform, which is what makes fault schedules
/// replayable from a seed alone.
pub fn unit_draw(seed: u64, a: u64, b: u64, c: u64, seq: u64) -> f64 {
    let mut z = seed
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB)
        ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_noop() {
        assert!(FaultPlan::none().is_noop());
        assert!(FaultPlan::seeded(3).rule(FaultRule::all()).is_noop());
        assert!(!FaultPlan::seeded(3)
            .rule(FaultRule::all().drop(0.1))
            .is_noop());
        assert!(!FaultPlan::seeded(3).kill(0, "exec").is_noop());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = Arc::new(
            FaultPlan::seeded(42).rule(
                FaultRule::all()
                    .drop(0.2)
                    .duplicate(0.1)
                    .delay(0.1, Duration::from_millis(1))
                    .reorder(0.1),
            ),
        );
        let mut a = FaultSession::new(Arc::clone(&plan), 4);
        let mut b = FaultSession::new(plan, 4);
        for i in 0..500 {
            let dst = i % 4;
            assert_eq!(a.decide(0, dst, 7), b.decide(0, dst, 7));
        }
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.total_events() > 0, "plan injected nothing");
    }

    #[test]
    fn burst_cap_bounds_consecutive_drops() {
        // Drop probability 1.0 with burst 3: every 4th message must pass.
        let plan = Arc::new(FaultPlan::seeded(1).rule(FaultRule::all().drop(1.0).burst(3)));
        let mut s = FaultSession::new(plan, 2);
        let mut consecutive = 0u32;
        let mut delivered = 0;
        for _ in 0..100 {
            match s.decide(0, 1, 9) {
                Action::Drop => {
                    consecutive += 1;
                    assert!(consecutive <= 3, "burst cap violated");
                }
                Action::Deliver => {
                    consecutive = 0;
                    delivered += 1;
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert_eq!(delivered, 25, "exactly every 4th message passes");
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = Arc::new(
            FaultPlan::seeded(5)
                .rule(FaultRule::all().on_tag(1).drop(1.0).burst(u32::MAX))
                .rule(FaultRule::all().duplicate(1.0)),
        );
        let mut s = FaultSession::new(plan, 2);
        assert_eq!(s.decide(0, 1, 1), Action::Drop);
        assert_eq!(s.decide(0, 1, 2), Action::Duplicate);
    }

    #[test]
    fn scoped_rules_only_touch_their_edge() {
        let plan =
            Arc::new(FaultPlan::seeded(5).rule(FaultRule::all().from_src(2).to_dst(3).drop(1.0)));
        let mut s = FaultSession::new(plan, 8);
        assert_eq!(s.decide(0, 3, 1), Action::Deliver);
        assert_eq!(s.decide(2, 1, 1), Action::Deliver);
        assert_eq!(s.decide(2, 3, 1), Action::Drop);
    }

    #[test]
    fn kill_points_match_rank_and_phase() {
        let plan = FaultPlan::seeded(0).kill(2, "exec");
        assert!(plan.kills_at(2, "exec"));
        assert!(!plan.kills_at(1, "exec"));
        assert!(!plan.kills_at(2, "model"));
    }
}
