//! The agent's `current_view` of an ongoing game (paper §IV-C).
//!
//! Each agent in the paper maintains a `current_view`: its perspective of the
//! moves made by both players in the last *n* rounds. During each round the
//! agent "determines the current state by searching the list of defined
//! potential states for a match to the current_view". [`HistoryView`] keeps
//! that explicit window *and* a rolling O(1) state index.
//!
//! The game loop in [`crate::game`] does not use it: each player's view
//! there is only its packed state id, rolled forward by
//! [`StateSpace::advance`]. [`HistoryView`] now serves only the
//! paper-faithful [`StateLookup::LinearScan`](crate::game::StateLookup)
//! ablation, which the `state_lookup` bench and `cluster::perf`
//! calibration use to measure the gap that explains the paper's Fig 4
//! runtime growth.

use crate::payoff::Move;
use crate::state::{StateId, StateSpace, StateTable};

/// A rolling window over the last *n* rounds of a game from one player's
/// perspective, with an incrementally maintained state id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryView {
    space: StateSpace,
    /// Explicit rounds, most recent first — the paper's `current_view`.
    rounds: Vec<(Move, Move)>,
    /// Rolling state id equal to `space.encode(&rounds)` at all times.
    state: StateId,
}

impl HistoryView {
    /// A fresh view at game start: all rounds initialised to mutual
    /// cooperation (the paper zero-initialises `current_view`, and the first
    /// play of each agent "is arbitrarily set to 0").
    pub fn new(space: StateSpace) -> Self {
        HistoryView {
            space,
            rounds: vec![(Move::Cooperate, Move::Cooperate); space.mem_steps()],
            state: space.initial_state(),
        }
    }

    /// The state space this view lives in.
    #[inline]
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The explicit rounds of the view, most recent first.
    #[inline]
    pub fn rounds(&self) -> &[(Move, Move)] {
        &self.rounds
    }

    /// O(1) current state id, maintained incrementally. Equal to what
    /// [`HistoryView::find_state_linear`] computes by scanning.
    #[inline]
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Paper-faithful state lookup: linear scan of the materialised state
    /// table for a row matching this view. O(n · 4^n).
    pub fn find_state_linear(&self, table: &StateTable) -> StateId {
        table
            .find_state(&self.rounds)
            .expect("a well-formed view always matches exactly one state")
    }

    /// Record one completed round: my move `me`, opponent's move `opp`.
    /// Shifts the window and updates the rolling state id.
    pub fn record(&mut self, me: Move, opp: Move) {
        if self.space.mem_steps() == 0 {
            return;
        }
        self.rounds.rotate_right(1);
        self.rounds[0] = (me, opp);
        self.state = self.space.advance(self.state, me, opp);
    }

    /// The opponent's mirrored view of the same game history. The paper
    /// notes each agent's `current_view` "will be the opposite of its
    /// opponent" (§IV-C).
    pub fn mirrored(&self) -> HistoryView {
        HistoryView {
            space: self.space,
            rounds: self.rounds.iter().map(|&(a, b)| (b, a)).collect(),
            state: self.space.swap_perspective(self.state),
        }
    }

    /// Reset to the game-start view.
    pub fn reset(&mut self) {
        self.rounds
            .iter_mut()
            .for_each(|r| *r = (Move::Cooperate, Move::Cooperate));
        self.state = self.space.initial_state();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StateTable;
    use Move::{Cooperate as C, Defect as D};

    #[test]
    fn new_view_is_initial_state() {
        for n in 0..=6 {
            let sp = StateSpace::new(n).unwrap();
            let v = HistoryView::new(sp);
            assert_eq!(v.state(), sp.initial_state());
            assert_eq!(v.rounds().len(), n);
        }
    }

    #[test]
    fn rolling_state_matches_encode_after_each_record() {
        let sp = StateSpace::new(3).unwrap();
        let mut v = HistoryView::new(sp);
        let plays = [(D, C), (C, D), (D, D), (C, C), (D, C), (D, D), (C, D)];
        for &(a, b) in &plays {
            v.record(a, b);
            assert_eq!(v.state(), sp.encode(v.rounds()), "rolling state diverged");
        }
    }

    #[test]
    fn linear_lookup_equals_rolling_index() {
        for n in 1..=4 {
            let sp = StateSpace::new(n).unwrap();
            let table = StateTable::new(sp);
            let mut v = HistoryView::new(sp);
            let plays = [(D, D), (C, D), (D, C), (C, C), (D, D), (D, C)];
            for &(a, b) in &plays {
                v.record(a, b);
                assert_eq!(v.find_state_linear(&table), v.state(), "memory-{n}");
            }
        }
    }

    #[test]
    fn mirrored_view_swaps_roles() {
        let sp = StateSpace::new(2).unwrap();
        let mut v = HistoryView::new(sp);
        v.record(D, C);
        v.record(C, D);
        let m = v.mirrored();
        assert_eq!(m.rounds(), &[(D, C), (C, D)][..]);
        assert_eq!(m.state(), sp.swap_perspective(v.state()));
        // Mirroring twice restores the original.
        assert_eq!(m.mirrored(), v);
    }

    #[test]
    fn mirrored_views_stay_consistent_during_play() {
        // If A records (a,b) and B records (b,a) each round, B's view must
        // always equal A's mirrored view.
        let sp = StateSpace::new(3).unwrap();
        let mut a = HistoryView::new(sp);
        let mut b = HistoryView::new(sp);
        let plays = [(D, C), (D, D), (C, C), (C, D), (D, C)];
        for &(pa, pb) in &plays {
            a.record(pa, pb);
            b.record(pb, pa);
            assert_eq!(a.mirrored(), b);
        }
    }

    #[test]
    fn memory_zero_record_is_noop() {
        let sp = StateSpace::new(0).unwrap();
        let mut v = HistoryView::new(sp);
        v.record(D, D);
        assert_eq!(v.state(), 0);
        assert!(v.rounds().is_empty());
    }

    #[test]
    fn reset_restores_initial_view() {
        let sp = StateSpace::new(2).unwrap();
        let mut v = HistoryView::new(sp);
        v.record(D, D);
        v.record(D, C);
        v.reset();
        assert_eq!(v, HistoryView::new(sp));
    }

    #[test]
    fn window_drops_oldest_round() {
        let sp = StateSpace::new(2).unwrap();
        let mut v = HistoryView::new(sp);
        v.record(D, D);
        v.record(D, C);
        v.record(C, C); // (D,D) must now be forgotten
        assert_eq!(v.rounds(), &[(C, C), (D, C)][..]);
    }
}
