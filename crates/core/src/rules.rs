//! Line-by-line transcription of Algorithm 1 (paper §IV-A).
//!
//! Every branch below carries the pseudocode line number it implements.
//! Labels are the relative coordinates of Fig. 48: the observing robot
//! is `(0,0)`, its east neighbour `(2,0)`, the node two east `(4,0)`,
//! NE-NE is `(2,2)`, and so on — identical to `trigrid` doubled
//! coordinates, so labels are used directly.
//!
//! The printed pseudocode is the *explained* part of the algorithm; the
//! paper explicitly omits "several robot behaviors that avoid a
//! collision or an unconnected configuration". [`RuleOptions`] names
//! each completion/fix this reproduction needed in order to pass the
//! exhaustive 3652-configuration verification; `RuleOptions::PAPER`
//! disables them all (verbatim pseudocode), `RuleOptions::VERIFIED`
//! enables them all. Each flag is documented where it is used and in
//! DESIGN.md §6.

use crate::base::{determine, BaseDecision};
use robots::View;
use serde::{Deserialize, Serialize};
use trigrid::{Coord, Dir};

/// Named deviations of the verified rule set from the printed
/// pseudocode. See DESIGN.md §6 for the full rationale of each flag.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct RuleOptions {
    /// Line 25 as printed demands node `(1,-1)` be simultaneously a
    /// robot node and an empty node, so the branch can never fire. By
    /// mirror symmetry with line 15 the empty node should be `(-1,1)`
    /// (this is also what the Fig. 53 discussion describes). When this
    /// flag is off the misprint is kept and the branch is dead code.
    pub fix_line25_misprint: bool,
    /// Veto any printed move that fails the view-local connectivity
    /// check of [`crate::safety::connectivity_safe`]. Closes the
    /// disconnection holes of the printed retreat rules (lines 19/29 can
    /// orphan a pendant dependent the guards never look at).
    pub connectivity_guard: bool,
    /// Filter **every** move (printed and completion) through the shared
    /// entry-priority protocol of [`crate::completion::wins_target`]:
    /// since all rules target empty nodes and at most one robot can win
    /// any node, the algorithm becomes collision-free by construction —
    /// the uniform version of the paper's Fig. 51/52 tie-breaks.
    pub priority_guard: bool,
    /// Enable the [`crate::completion`] fallback moves — the paper's
    /// omitted "several robot behaviors"; without them roughly half of
    /// the 3652 classes strand in non-gathered fixpoints.
    pub completion: bool,
    /// Add the missing `(0,2) is empty` conjunct to line 23. Line 13
    /// (the south-side mirror of line 23) requires `(0,-2)` to be empty;
    /// line 23 as printed lacks the mirrored guard. Without it, a robot
    /// descending into a contested slot from the north can never rule
    /// out — within its visibility horizon — that the robot below might
    /// fire line 23 into the same node, and the completion deadlocks on
    /// the most common stuck shapes.
    pub mirror_line23_guard: bool,
}

impl RuleOptions {
    /// The pseudocode exactly as printed.
    pub const PAPER: RuleOptions = RuleOptions {
        fix_line25_misprint: false,
        connectivity_guard: false,
        priority_guard: false,
        completion: false,
        mirror_line23_guard: false,
    };

    /// The completed rule set (passes the exhaustive verification).
    ///
    /// `priority_guard` stays **off**: the printed rules are already
    /// mutually collision-free (their occupancy guards choreograph who
    /// moves), and filtering them through the generic entry-priority
    /// protocol vetoes the standstill-breaking retreats (lines 15/25),
    /// collapsing progress: `sweep --algo fix25+conn+prio+compl+mirror
    /// --sched fsync` gathers 1488 of the 3652 classes, against 1850
    /// without `prio` (E2's pinned rung,
    /// `experiments::tests::e2_layer_counts_are_stable`).
    pub const VERIFIED: RuleOptions = RuleOptions {
        fix_line25_misprint: true,
        connectivity_guard: true,
        priority_guard: false,
        completion: true,
        mirror_line23_guard: true,
    };
}

/// The *level-0* decision: printed rules plus the (optional) priority
/// and connectivity vetoes, with no completion fallback. This is the
/// behaviour the completion layer must reason about adversarially.
#[must_use]
pub fn level0(v: &View, opts: RuleOptions) -> Option<Dir> {
    let mut mv = printed(v, opts);
    if opts.priority_guard {
        if let Some(d) = mv {
            if !crate::completion::wins_target(v, d) {
                mv = None;
            }
        }
    }
    if opts.connectivity_guard {
        if let Some(d) = mv {
            if !crate::safety::connectivity_safe(v, d) {
                mv = None;
            }
        }
    }
    mv
}

/// The full decision table of [`level0`] over all 2^18 radius-2 views
/// for the given options, built once per option combination.
#[must_use]
pub fn level0_table(opts: RuleOptions) -> &'static [u8] {
    use std::sync::OnceLock;
    const N: usize = 16;
    static TABLES: [OnceLock<Vec<u8>>; N] = [const { OnceLock::new() }; N];
    let key = usize::from(opts.fix_line25_misprint)
        | (usize::from(opts.priority_guard) << 1)
        | (usize::from(opts.connectivity_guard) << 2)
        | (usize::from(opts.mirror_line23_guard) << 3);
    TABLES[key]
        .get_or_init(|| {
            (0u64..(1 << 18))
                .map(|bits| encode_decision(level0(&View::from_bits(2, bits), opts)))
                .collect()
        })
        .as_slice()
}

/// Algorithm 1 with the selected options: the level-0 decision, then
/// the completion fallback.
#[must_use]
pub fn compute(v: &View, opts: RuleOptions) -> Option<Dir> {
    let mut mv = level0(v, opts);
    if mv.is_none() && opts.completion {
        mv = crate::completion::compute(v, opts);
    }
    mv
}

/// Encodes a move decision in one byte for the rule tables:
/// `0` = stay, `1 + dir.index()` = move.
#[must_use]
pub fn encode_decision(d: Option<Dir>) -> u8 {
    d.map_or(0, |d| 1 + d.index() as u8)
}

/// Inverse of [`encode_decision`].
#[must_use]
pub fn decode_decision(b: u8) -> Option<Dir> {
    (b != 0).then(|| Dir::from_index((b - 1) as usize))
}

/// The printed pseudocode of Algorithm 1 (lines 1–33), verbatim up to
/// the `fix_line25_misprint` flag.
#[must_use]
pub fn printed(v: &View, opts: RuleOptions) -> Option<Dir> {
    debug_assert_eq!(v.radius(), 2);
    let r = |x: i32, y: i32| v.is_robot(Coord::new(x, y));
    let e = |x: i32, y: i32| v.is_empty_node(Coord::new(x, y));

    let base = determine(v);
    let base_is = |x: i32, y: i32| base == BaseDecision::Base(Coord::new(x, y));

    // ---- Lines 1–3: the base node is (2,0) but it is an empty node ----
    // Guard (line 1): "(node (2,0) is an empty node) ∧ (nodes (1,1) and
    // (1,-1) are robot nodes) ∧ (the other robot nodes have x-elements of
    // the labels at most 0)" — i.e. the SelfPromotion base decision.
    if base == BaseDecision::SelfPromotion && e(2, 0) {
        // Line 3: "(node (-2,0) is an empty node) ∨ ((node (-2,0) is a
        // robot node) ∧ (node (-1,1) or (-1,-1) is a robot node))".
        if e(-2, 0) || (r(-2, 0) && (r(-1, 1) || r(-1, -1))) {
            return Some(Dir::E); // move to (2,0)
        }
        return None;
    }

    // ---- Lines 5–9: the base node is (4,0) (possibly the virtual base:
    // "(node (4,0) is an empty node) ∧ (nodes (3,1) and (3,-1) are robot
    // nodes)") ----
    if base_is(4, 0) || base == BaseDecision::VirtualEast {
        // Line 7: move east to (2,0).
        if e(2, 0)
            && ((e(-1, 1) && e(-2, 0) && e(-1, -1))
                || (r(1, -1) && e(-2, 0) && e(-1, 1))
                || (r(1, 1) && e(-2, 0) && e(-1, -1))
                || (r(1, -1) && r(-1, -1) && r(-2, 0) && e(-1, 1))
                || (r(-2, 0) && r(-1, 1) && r(1, 1) && e(-1, -1)))
        {
            return Some(Dir::E);
        }
        // Line 8: move northeast to (1,1).
        if r(2, 0)
            && e(1, 1)
            && e(-2, 0)
            && e(-1, 1)
            && ((e(-1, -1) && e(2, 2)) || (r(2, 2) && r(3, 1) && r(3, -1) && r(-2, -2)))
        {
            return Some(Dir::NE);
        }
        // Line 9: move southeast to (1,-1). (The printed trailing
        // disjunct "(node (1,1) is a robot node) ∨ (node (2,2) is a robot
        // node)" is subsumed by the leading "(nodes (2,0) and (1,1) are
        // robot nodes)" and is kept verbatim.)
        if r(2, 0)
            && r(1, 1)
            && e(1, -1)
            && e(-1, -1)
            && e(-2, 0)
            && e(-1, 1)
            && e(2, -2)
            && (r(1, 1) || r(2, 2))
        {
            return Some(Dir::SE);
        }
        return None;
    }

    // ---- Lines 11–15: the base node is (3,-1) ----
    if base_is(3, -1) {
        // Line 13: move southeast to (1,-1).
        if e(1, -1)
            && e(-1, -1)
            && e(0, -2)
            && ((e(-2, 0) && e(-1, 1)) || (r(-1, 1) && r(1, 1) && e(0, 2)))
        {
            return Some(Dir::SE);
        }
        // Line 14: move east to (2,0).
        if r(1, -1) && e(2, 0) && e(-1, 1) && (e(-2, 0) || (r(-2, 0) && r(-1, -1))) {
            return Some(Dir::E);
        }
        // Line 15: the "retreat" move southwest to (-1,-1), freeing the
        // observer's node for the robot at (1,1) (Fig. 53's standstill
        // breaker, southern mirror).
        if r(1, -1) && r(2, 0) && r(1, 1) && e(-1, -1) && e(-2, 0) && e(-2, -2) {
            return Some(Dir::SW);
        }
        return None;
    }

    // ---- Lines 17–19: the base node is (2,-2) ----
    if base_is(2, -2) {
        // Line 19: move southwest to (-1,-1).
        if e(-1, -1) && e(-2, 0) && e(-3, -1) && e(-1, 1) {
            return Some(Dir::SW);
        }
        return None;
    }

    // ---- Lines 21–25: the base node is (3,1) ----
    if base_is(3, 1) {
        // Line 23: move northeast to (1,1). (`mirror_line23_guard`
        // additionally demands (0,2) be empty, mirroring line 13's
        // printed (0,-2) guard; see RuleOptions.)
        if e(1, 1)
            && ((e(-1, 1) && e(-2, 0) && e(-1, -1))
                || (r(1, -1) && r(-1, -1) && e(0, -2) && e(-1, 1)))
            && (!opts.mirror_line23_guard || e(0, 2))
        {
            return Some(Dir::NE);
        }
        // Line 24: move east to (2,0).
        if r(1, 1) && e(2, 0) && ((e(-2, 0) && e(-1, -1)) || (e(-1, -1) && r(-2, 0) && r(-1, 1))) {
            return Some(Dir::E);
        }
        // Line 25: the retreat move northwest to (-1,1) (Fig. 53's
        // standstill breaker). As printed the guard demands (1,-1) be
        // both a robot node and empty — unsatisfiable; the verified rule
        // set reads the empty node as (-1,1), mirroring line 15.
        let line25_empty_ok =
            if opts.fix_line25_misprint { e(-1, 1) } else { r(1, -1) && e(1, -1) };
        if r(1, 1) && r(2, 0) && r(1, -1) && line25_empty_ok && e(-2, 0) && e(-2, 2) {
            return Some(Dir::NW);
        }
        return None;
    }

    // ---- Lines 27–29: the base node is (2,2) ----
    if base_is(2, 2) {
        // Line 29: move northwest to (-1,1).
        if e(-1, 1) && e(-3, 1) && e(-2, 0) && e(-1, -1) {
            return Some(Dir::NW);
        }
        return None;
    }

    // ---- Lines 31–33: base is (0,0), (2,0), (1,-1), (1,1), or no base
    // (tie): "robot ri is close to the base node and it does not need to
    // leave the current node" ----
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use robots::{Configuration, View};
    use trigrid::ORIGIN;

    fn view_of(cells: &[(i32, i32)]) -> View {
        let mut nodes = vec![ORIGIN];
        nodes.extend(cells.iter().map(|&(x, y)| Coord::new(x, y)));
        View::observe(&Configuration::new(nodes), ORIGIN, 2)
    }

    const P: RuleOptions = RuleOptions::PAPER;
    const V: RuleOptions = RuleOptions::VERIFIED;

    #[test]
    fn gathered_hexagon_is_a_fixpoint_for_every_robot() {
        // Centre of the hexagon: base is (2,0) -> stay (line 31).
        let centre = view_of(&[(2, 0), (1, 1), (-1, 1), (-2, 0), (-1, -1), (1, -1)]);
        assert_eq!(compute(&centre, V), None);
        // East pole: everyone is west; base is self -> stay.
        let east = view_of(&[(-2, 0), (-1, 1), (-1, -1), (-3, 1), (-3, -1), (-4, 0)]);
        assert_eq!(compute(&east, V), None);
        // North-east petal: base is (1,-1)... robots at E? Compute from a
        // real configuration instead, for all seven robots.
        let hexagon = robots::hexagon(ORIGIN);
        for &p in hexagon.positions() {
            let v = View::observe(&hexagon, p, 2);
            assert_eq!(compute(&v, V), None, "robot at {p} must stay in the hexagon");
            assert_eq!(compute(&v, P), None, "paper rules agree on the fixpoint");
        }
    }

    #[test]
    fn line1_self_promotion_moves_east() {
        // (1,1) and (1,-1) are the rightmost robots; (2,0) and (-2,0) empty.
        let v = view_of(&[(1, 1), (1, -1), (-1, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line3_guard_blocks_when_west_would_disconnect() {
        // Fig. 55 (a): west neighbour occupied, no (-1,±1) support — the
        // move east could disconnect the west robot; stay.
        let v = view_of(&[(1, 1), (1, -1), (-2, 0)]);
        assert_eq!(compute(&v, V), None);
        // Fig. 55 (b): with (-1,-1) also occupied the move is safe.
        let v = view_of(&[(1, 1), (1, -1), (-2, 0), (-1, -1)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line7_east_toward_base_4_0() {
        // Base (4,0) real robot; path east is clear and the west side empty.
        let v = view_of(&[(4, 0), (3, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line7_blocked_when_sw_support_missing() {
        // Fig. 56 (a): (-1,-1) robot with nothing else west — moving east
        // may disconnect it; the printed disjuncts all fail.
        let v = view_of(&[(4, 0), (3, 1), (-1, -1)]);
        assert_eq!(compute(&v, V), None);
        // Fig. 56 (b): with (1,-1) a robot the move is allowed... line 7's
        // fourth disjunct also wants (-2,0) robot; use that full shape.
        let v = view_of(&[(4, 0), (3, 1), (1, -1), (-1, -1), (-2, 0)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line8_northeast_when_east_is_blocked() {
        let v = view_of(&[(4, 0), (2, 0)]);
        assert_eq!(compute(&v, V), Some(Dir::NE));
    }

    #[test]
    fn line9_southeast_when_east_and_ne_blocked() {
        let v = view_of(&[(4, 0), (2, 0), (1, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::SE));
    }

    #[test]
    fn line13_southeast_toward_base_3_m1() {
        let v = view_of(&[(3, -1)]);
        assert_eq!(compute(&v, V), Some(Dir::SE));
    }

    #[test]
    fn line14_east_when_se_occupied() {
        let v = view_of(&[(3, -1), (1, -1)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line15_retreat_southwest() {
        // The observer blocks the hexagon slot needed by the robot at
        // (1,1); it steps aside to (-1,-1).
        let v = view_of(&[(3, -1), (1, -1), (2, 0), (1, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::SW));
    }

    #[test]
    fn line19_southwest_toward_base_2_m2() {
        let v = view_of(&[(2, -2)]);
        assert_eq!(compute(&v, V), Some(Dir::SW));
    }

    #[test]
    fn line23_northeast_toward_base_3_1() {
        let v = view_of(&[(3, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::NE));
    }

    #[test]
    fn line24_east_when_ne_occupied() {
        let v = view_of(&[(3, 1), (1, 1)]);
        assert_eq!(compute(&v, V), Some(Dir::E));
    }

    #[test]
    fn line25_retreat_fires_only_with_the_fix() {
        // Fig. 53: base (3,1); (1,1),(2,0),(1,-1) robots; (-1,1) empty.
        let v = view_of(&[(3, 1), (1, 1), (2, 0), (1, -1)]);
        assert_eq!(compute(&v, P), None, "printed guard is unsatisfiable");
        assert_eq!(compute(&v, V), Some(Dir::NW), "verified rules step aside NW");
    }

    #[test]
    fn line29_northwest_toward_base_2_2() {
        let v = view_of(&[(2, 2)]);
        assert_eq!(compute(&v, V), Some(Dir::NW));
    }

    #[test]
    fn line31_stay_cases() {
        for cells in [
            &[(2, 0)][..],         // base east neighbour
            &[(1, 1)][..],         // base NE neighbour
            &[(1, -1)][..],        // base SE neighbour
            &[(-2, 0)][..],        // base is self
            &[(2, 0), (2, 2)][..], // tie -> no base
        ] {
            let v = view_of(cells);
            assert_eq!(compute(&v, V), None, "must stay with robots {cells:?}");
        }
    }

    #[test]
    fn translation_invariance_by_construction() {
        // Views carry no absolute position, so the same view from two
        // different absolute positions yields the same decision.
        let cfg_a = Configuration::new([ORIGIN, Coord::new(2, 0), Coord::new(4, 0)]);
        let cfg_b = cfg_a.translate(Coord::new(7, 3));
        let va = View::observe(&cfg_a, ORIGIN, 2);
        let vb = View::observe(&cfg_b, Coord::new(7, 3), 2);
        assert_eq!(va, vb);
        assert_eq!(compute(&va, V), compute(&vb, V));
    }
}

#[cfg(test)]
mod table_tests {
    use super::*;
    use robots::View;

    #[test]
    fn encode_decode_roundtrip() {
        assert_eq!(decode_decision(encode_decision(None)), None);
        for d in Dir::ALL {
            assert_eq!(decode_decision(encode_decision(Some(d))), Some(d));
        }
    }

    #[test]
    fn level0_table_reflects_the_connectivity_guard() {
        let base = RuleOptions { fix_line25_misprint: true, ..RuleOptions::PAPER };
        let guarded = RuleOptions { connectivity_guard: true, ..base };
        let tb = level0_table(base);
        let tg = level0_table(guarded);
        // The guard only ever turns moves into stays.
        let mut vetoed = 0usize;
        for i in 0..tb.len() {
            if tb[i] != tg[i] {
                assert_ne!(tb[i], 0, "guard cannot introduce a move");
                assert_eq!(tg[i], 0, "guard can only veto");
                vetoed += 1;
            }
        }
        assert!(vetoed > 0, "the guard must bite somewhere");
    }

    #[test]
    fn priority_guard_only_vetoes() {
        let base = RuleOptions { fix_line25_misprint: true, ..RuleOptions::PAPER };
        let prio = RuleOptions { priority_guard: true, ..base };
        let tb = level0_table(base);
        let tp = level0_table(prio);
        for i in 0..tb.len() {
            if tb[i] != tp[i] {
                assert_eq!(tp[i], 0, "priority guard can only veto");
            }
        }
    }

    #[test]
    fn no_printed_rule_moves_west() {
        let opts = RuleOptions { fix_line25_misprint: true, ..RuleOptions::PAPER };
        for bits in 0..(1u64 << 18) {
            assert_ne!(printed(&View::from_bits(2, bits), opts), Some(Dir::W), "view {bits:#x}");
        }
    }
}
