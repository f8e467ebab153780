//! The crash fault model of the extended synchronous system (Section 2.1).
//!
//! A process may crash at any point of a round, and *where* it crashes
//! determines what the other processes see:
//!
//! * crash during the **data sending step** — an *arbitrary subset* of the
//!   data messages it was supposed to send is actually received (the usual
//!   assumption of the crash-prone synchronous model), and **no** control
//!   message is sent (the control step never starts);
//! * crash during the **control sending step** — all data messages were
//!   already sent, and the one-bit control message reaches an ordered
//!   **prefix** of the destination sequence: if `p` sends to `q₁, q₂, …` in
//!   that order and crashes, it is impossible for `q₂` to receive the
//!   message while `q₁` does not;
//! * crash at the **end of the round** — the process participated fully
//!   (it sent everything, received, computed, and possibly *decided*) and is
//!   gone from the next round on.  This stage matters for *uniform*
//!   agreement: a process may decide and then crash, and its decision must
//!   still agree with everyone else's.
//!
//! The adversary's entire power over a run is captured by a
//! [`CrashSchedule`]: at most `t` processes get a [`CrashPoint`], i.e. a
//! round plus a [`CrashStage`] with the concrete delivery choice.

use crate::config::SystemConfig;
use crate::pid::{PidSet, ProcessId};
use crate::round::Round;
use std::fmt;

/// Where, within its crash round, a process stops — together with the
/// adversary's concrete delivery choice for that stage.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum CrashStage {
    /// Crashes before sending anything: no data, no control, and the
    /// process does not take part in the receive/compute phase.
    BeforeSend,
    /// Crashes during the data sending step: exactly the destinations in
    /// `delivered` (intersected with the actual send plan) receive their
    /// data message; the control step never starts.
    MidData {
        /// The subset of destinations the adversary lets receive data.
        delivered: PidSet,
    },
    /// Crashes during the control sending step: every data message was
    /// delivered, and the control message reaches the first `prefix_len`
    /// destinations of the protocol's *ordered* control list (clamped to
    /// the list length).
    MidControl {
        /// Length of the delivered prefix of the ordered control sequence.
        prefix_len: usize,
    },
    /// Crashes at the very end of the round: full participation in the
    /// round (including receive/compute — the process may decide!) and
    /// crashed from the next round on.
    EndOfRound,
}

/// The canonical effect of a crash stage on the crashing process's round:
/// what gets delivered and whether the process still receives/computes.
///
/// Produced by [`CrashStage::effect`]; consumed by every execution substrate
/// (the round simulator, the threaded runtime, the model checker) so that
/// all of them enforce identical semantics.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DeliveryOutcome {
    /// Which destinations of the *data* step receive their message:
    /// `None` means "no filtering — everything is delivered".
    pub data_filter: Option<PidSet>,
    /// How many entries of the ordered *control* list are delivered:
    /// `None` means "all of them".
    pub control_prefix: Option<usize>,
    /// Whether the process still executes the receive + compute phase of
    /// this round (and may therefore decide before dying).
    pub receives_this_round: bool,
}

impl DeliveryOutcome {
    /// The outcome of a round with **no** crash: everything delivered,
    /// full participation.
    pub fn unimpeded() -> Self {
        DeliveryOutcome {
            data_filter: None,
            control_prefix: None,
            receives_this_round: true,
        }
    }
}

impl CrashStage {
    /// The delivery outcome this stage imposes on the crashing process's
    /// round (Section 2.1 semantics, see module docs).
    #[inline]
    pub fn effect(&self, universe: usize) -> DeliveryOutcome {
        let (data_filter, control_prefix) = match self {
            CrashStage::BeforeSend => (Some(PidSet::empty(universe)), Some(0)),
            CrashStage::MidData { delivered } => (Some(delivered.clone()), Some(0)),
            CrashStage::MidControl { prefix_len } => (None, Some(*prefix_len)),
            CrashStage::EndOfRound => (None, None),
        };
        DeliveryOutcome {
            data_filter,
            control_prefix,
            receives_this_round: self.receives_this_round(),
        }
    }

    /// Whether a process crashing at this stage still executes the
    /// receive + compute phase of its crash round (and may therefore
    /// decide before dying): only a crash at the very end of the round
    /// leaves it that far.
    #[inline]
    pub fn receives_this_round(&self) -> bool {
        matches!(self, CrashStage::EndOfRound)
    }

    /// Whether this stage lets the process complete its entire send phase.
    ///
    /// Figure 1's coordinator decides (line 6) only if it "executes
    /// entirely" lines 4–5; a crash in `BeforeSend`, `MidData` or
    /// `MidControl` interrupts the send phase, so a decision scheduled for
    /// after the send must not be recorded.
    #[inline]
    pub fn completes_send_phase(&self) -> bool {
        matches!(self, CrashStage::EndOfRound)
    }
}

/// A crash point: the round in which a process crashes plus the stage
/// within that round.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CrashPoint {
    /// The round during which the crash happens.
    pub round: Round,
    /// The stage within the round, with the adversary's delivery choice.
    pub stage: CrashStage,
}

impl CrashPoint {
    /// Convenience constructor.
    pub fn new(round: Round, stage: CrashStage) -> Self {
        CrashPoint { round, stage }
    }
}

/// Errors produced when validating a [`CrashSchedule`] against a
/// [`SystemConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// More crashes scheduled than the resilience bound `t` allows.
    TooManyCrashes {
        /// Scheduled number of crashes `f`.
        scheduled: usize,
        /// The configuration's resilience bound `t`.
        bound: usize,
    },
    /// The schedule was built for a different system size.
    WrongUniverse {
        /// The schedule's universe.
        schedule_n: usize,
        /// The configuration's `n`.
        config_n: usize,
    },
    /// A `MidData` delivery subset ranges over the wrong universe.
    SubsetUniverseMismatch {
        /// Process whose crash stage is malformed.
        pid: ProcessId,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::TooManyCrashes { scheduled, bound } => {
                write!(f, "schedule crashes {scheduled} processes but t={bound}")
            }
            ScheduleError::WrongUniverse {
                schedule_n,
                config_n,
            } => {
                write!(f, "schedule universe n={schedule_n} != config n={config_n}")
            }
            ScheduleError::SubsetUniverseMismatch { pid } => {
                write!(f, "MidData subset of {pid} ranges over the wrong universe")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// The adversary's complete plan for a run: an optional [`CrashPoint`] per
/// process, with at most `t` processes crashing.
///
/// `CrashSchedule` is `Eq + Hash` so the model checker can memoize over
/// (configuration, schedule-prefix) pairs.
///
/// # Examples
///
/// The paper's signature scenario — the first coordinator crashes during
/// its ordered commit step, delivering a prefix of length 1:
///
/// ```
/// use twostep_model::{
///     CrashPoint, CrashSchedule, CrashStage, ProcessId, Round, SystemConfig,
/// };
///
/// let schedule = CrashSchedule::none(5).with_crash(
///     ProcessId::new(1),
///     CrashPoint::new(Round::FIRST, CrashStage::MidControl { prefix_len: 1 }),
/// );
/// assert_eq!(schedule.f(), 1);
/// assert!(schedule.validate(&SystemConfig::new(5, 2).unwrap()).is_ok());
/// assert!(schedule.faulty().contains(ProcessId::new(1)));
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CrashSchedule {
    n: usize,
    points: Vec<Option<CrashPoint>>,
}

impl CrashSchedule {
    /// The failure-free schedule for `n` processes.
    pub fn none(n: usize) -> Self {
        CrashSchedule {
            n,
            points: vec![None; n],
        }
    }

    /// Clears every crash point in place — a reusable schedule buffer
    /// returns to the failure-free state without reallocating (the
    /// model checker rebuilds a pseudo-schedule per explored terminal).
    pub fn reset(&mut self) {
        for point in &mut self.points {
            *point = None;
        }
    }

    /// Adds (or replaces) a crash point for `pid`, builder style.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is outside the universe.
    pub fn with_crash(mut self, pid: ProcessId, point: CrashPoint) -> Self {
        self.set(pid, Some(point));
        self
    }

    /// Sets or clears the crash point of `pid`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is outside the universe.
    pub fn set(&mut self, pid: ProcessId, point: Option<CrashPoint>) {
        assert!(pid.idx() < self.n, "{pid} outside universe 1..={}", self.n);
        self.points[pid.idx()] = point;
    }

    /// The universe size `n` the schedule was built for.
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The crash point of `pid`, if it is scheduled to crash.
    #[inline]
    pub fn crash_point(&self, pid: ProcessId) -> Option<&CrashPoint> {
        self.points[pid.idx()].as_ref()
    }

    /// The number of processes that crash in this schedule — the paper's
    /// `f` (actual failures in the run).
    pub fn f(&self) -> usize {
        self.points.iter().filter(|p| p.is_some()).count()
    }

    /// The set of faulty processes (those with a crash point).
    pub fn faulty(&self) -> PidSet {
        PidSet::from_iter(
            self.n,
            self.points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| ProcessId::from_idx(i)),
        )
    }

    /// The set of correct processes (complement of [`faulty`](Self::faulty)).
    pub fn correct(&self) -> PidSet {
        let mut s = PidSet::full(self.n);
        s.difference_with(&self.faulty());
        s
    }

    /// Processes whose crash round is exactly `round`.
    pub fn crashing_in(&self, round: Round) -> impl Iterator<Item = ProcessId> + '_ {
        self.points
            .iter()
            .enumerate()
            .filter(move |(_, p)| p.as_ref().is_some_and(|cp| cp.round == round))
            .map(|(i, _)| ProcessId::from_idx(i))
    }

    /// The largest crash round in the schedule, if any process crashes.
    pub fn last_crash_round(&self) -> Option<Round> {
        self.points
            .iter()
            .filter_map(|p| p.as_ref().map(|cp| cp.round))
            .max()
    }

    /// Validates the schedule against a configuration: matching universe,
    /// at most `t` crashes, well-formed delivery subsets.
    pub fn validate(&self, config: &SystemConfig) -> Result<(), ScheduleError> {
        if self.n != config.n() {
            return Err(ScheduleError::WrongUniverse {
                schedule_n: self.n,
                config_n: config.n(),
            });
        }
        let f = self.f();
        if f > config.t() {
            return Err(ScheduleError::TooManyCrashes {
                scheduled: f,
                bound: config.t(),
            });
        }
        for (i, p) in self.points.iter().enumerate() {
            if let Some(CrashPoint {
                stage: CrashStage::MidData { delivered },
                ..
            }) = p
            {
                if delivered.universe() != self.n {
                    return Err(ScheduleError::SubsetUniverseMismatch {
                        pid: ProcessId::from_idx(i),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(r: u32) -> ProcessId {
        ProcessId::new(r)
    }

    #[test]
    fn unimpeded_outcome() {
        let o = DeliveryOutcome::unimpeded();
        assert_eq!(o.data_filter, None);
        assert_eq!(o.control_prefix, None);
        assert!(o.receives_this_round);
    }

    #[test]
    fn before_send_delivers_nothing() {
        let e = CrashStage::BeforeSend.effect(4);
        assert_eq!(e.data_filter, Some(PidSet::empty(4)));
        assert_eq!(e.control_prefix, Some(0));
        assert!(!e.receives_this_round);
        assert!(!CrashStage::BeforeSend.completes_send_phase());
    }

    #[test]
    fn mid_data_delivers_subset_and_no_control() {
        // Section 2.1: crash during the data step ⇒ arbitrary subset of data
        // delivered, control step never starts.
        let subset = PidSet::from_iter(5, [pid(2), pid(4)]);
        let stage = CrashStage::MidData {
            delivered: subset.clone(),
        };
        let e = stage.effect(5);
        assert_eq!(e.data_filter, Some(subset));
        assert_eq!(e.control_prefix, Some(0), "control step never starts");
        assert!(!e.receives_this_round);
        assert!(!stage.completes_send_phase());
    }

    #[test]
    fn mid_control_delivers_all_data_and_prefix() {
        // Section 2.1: crash during the control step ⇒ all data delivered,
        // control delivered to an ordered prefix.
        let stage = CrashStage::MidControl { prefix_len: 2 };
        let e = stage.effect(5);
        assert_eq!(e.data_filter, None, "data step already completed");
        assert_eq!(e.control_prefix, Some(2));
        assert!(!e.receives_this_round);
        assert!(!stage.completes_send_phase());
    }

    #[test]
    fn end_of_round_participates_fully() {
        let e = CrashStage::EndOfRound.effect(5);
        assert_eq!(e.data_filter, None);
        assert_eq!(e.control_prefix, None);
        assert!(
            e.receives_this_round,
            "may decide before dying — uniform agreement must cover it"
        );
        assert!(CrashStage::EndOfRound.completes_send_phase());
    }

    #[test]
    fn schedule_f_and_sets() {
        let mut s = CrashSchedule::none(4);
        assert_eq!(s.f(), 0);
        assert!(s.faulty().is_empty());
        assert!(s.correct().is_full());

        s.set(
            pid(1),
            Some(CrashPoint::new(Round::new(1), CrashStage::BeforeSend)),
        );
        s.set(
            pid(3),
            Some(CrashPoint::new(
                Round::new(2),
                CrashStage::MidControl { prefix_len: 1 },
            )),
        );
        assert_eq!(s.f(), 2);
        assert_eq!(s.faulty(), PidSet::from_iter(4, [pid(1), pid(3)]));
        assert_eq!(s.correct(), PidSet::from_iter(4, [pid(2), pid(4)]));
        assert_eq!(s.last_crash_round(), Some(Round::new(2)));
        let in_r2: Vec<_> = s.crashing_in(Round::new(2)).collect();
        assert_eq!(in_r2, vec![pid(3)]);
    }

    #[test]
    fn builder_style() {
        let s = CrashSchedule::none(3).with_crash(
            pid(2),
            CrashPoint::new(Round::FIRST, CrashStage::EndOfRound),
        );
        assert_eq!(s.f(), 1);
        assert!(s.crash_point(pid(2)).is_some());
        assert!(s.crash_point(pid(1)).is_none());
    }

    #[test]
    fn validation_catches_too_many_crashes() {
        let config = SystemConfig::new(4, 1).unwrap();
        let s = CrashSchedule::none(4)
            .with_crash(
                pid(1),
                CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
            )
            .with_crash(
                pid(2),
                CrashPoint::new(Round::FIRST, CrashStage::BeforeSend),
            );
        assert_eq!(
            s.validate(&config),
            Err(ScheduleError::TooManyCrashes {
                scheduled: 2,
                bound: 1
            })
        );
    }

    #[test]
    fn validation_catches_wrong_universe() {
        let config = SystemConfig::new(5, 2).unwrap();
        let s = CrashSchedule::none(4);
        assert!(matches!(
            s.validate(&config),
            Err(ScheduleError::WrongUniverse {
                schedule_n: 4,
                config_n: 5
            })
        ));
    }

    #[test]
    fn validation_catches_subset_mismatch() {
        let config = SystemConfig::new(4, 2).unwrap();
        let bad_subset = PidSet::empty(7); // wrong universe
        let s = CrashSchedule::none(4).with_crash(
            pid(2),
            CrashPoint::new(
                Round::FIRST,
                CrashStage::MidData {
                    delivered: bad_subset,
                },
            ),
        );
        assert_eq!(
            s.validate(&config),
            Err(ScheduleError::SubsetUniverseMismatch { pid: pid(2) })
        );
    }

    #[test]
    fn validation_accepts_well_formed() {
        let config = SystemConfig::new(4, 2).unwrap();
        let s = CrashSchedule::none(4)
            .with_crash(
                pid(1),
                CrashPoint::new(
                    Round::FIRST,
                    CrashStage::MidData {
                        delivered: PidSet::from_iter(4, [pid(3)]),
                    },
                ),
            )
            .with_crash(
                pid(2),
                CrashPoint::new(Round::new(2), CrashStage::MidControl { prefix_len: 0 }),
            );
        assert_eq!(s.validate(&config), Ok(()));
    }
}
