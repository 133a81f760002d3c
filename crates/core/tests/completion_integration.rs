//! Integration tests of the completed rule set's moving parts: the
//! adversarial horizon checks, the synthesized overrides, and the
//! dominant stuck clusters they resolve.

use gathering::rules::{self, RuleOptions};
use gathering::{base, completion, SevenGather};
use robots::{engine, Algorithm, Configuration, Limits, View};
use trigrid::{Coord, Dir, ORIGIN};

fn cfg(cells: &[(i32, i32)]) -> Configuration {
    Configuration::new(cells.iter().map(|&(x, y)| Coord::new(x, y)))
}

/// The dominant stuck cluster of the printed rules (471 initial classes
/// end here): a near-hexagon with a north-west overhang.
fn cluster_a() -> Configuration {
    cfg(&[(0, 0), (-3, 1), (-1, 1), (1, 1), (0, 2), (-3, 3), (-1, 3)])
}

#[test]
fn printed_rules_strand_cluster_a() {
    let printed = SevenGather::with_options(RuleOptions {
        fix_line25_misprint: true,
        connectivity_guard: true,
        ..RuleOptions::PAPER
    });
    let moves = engine::compute_moves(&cluster_a(), &printed);
    assert!(moves.iter().all(Option::is_none), "cluster A is a printed-rules fixpoint");
}

#[test]
fn verified_rules_resolve_cluster_a() {
    let ex = engine::run(&cluster_a(), &SevenGather::verified(), Limits::default());
    assert!(ex.outcome.is_gathered(), "{:?}", ex.outcome);
}

#[test]
fn adversarial_printed_check_is_conservative_about_the_horizon() {
    // From the north overhang of cluster A, the descending robot at
    // (-3,3) cannot see two cells that decide whether the west pole
    // fires line 8's virtual-base branch into the contested slot
    // (rel-west-pole (3,-1) and (-2,-2) are beyond the observer's
    // disk). The checker must therefore answer "may enter" — which is
    // exactly why the completion cannot descend here and a synthesized
    // override carries the progress instead.
    let c = cluster_a();
    let v = View::observe(&c, Coord::new(-3, 3), 2);
    let target = Coord::new(1, -1); // abs (-2,2), relative to (-3,3)
    let west_pole = Coord::new(0, -2); // abs (-3,1)
    assert!(v.is_robot(west_pole));
    assert!(
        completion::may_printed_enter(&v, west_pole, target, RuleOptions::VERIFIED),
        "the virtual-base line 8 might fire for all the observer knows"
    );
    // Consequently the completion must stay...
    assert_eq!(completion::compute(&v, RuleOptions::VERIFIED), None);
    // ...while the full verified algorithm (with overrides) still makes
    // progress somewhere in the configuration.
    let moves = engine::compute_moves(&c, &SevenGather::verified());
    assert!(moves.iter().any(Option::is_some), "an override unsticks cluster A");
}

#[test]
fn entry_priorities_serialise_all_six_directions() {
    let mut seen = std::collections::HashSet::new();
    for d in Dir::ALL {
        assert!(seen.insert(completion::entry_priority(d)));
    }
}

#[test]
fn overrides_only_fire_on_stay_views() {
    // Every synthesized override replaces a *stay* verdict of the
    // underlying rule set (they unstick fixpoints, never redirect an
    // existing move).
    for &(bits, _code) in gathering::overrides::OVERRIDES {
        let v = View::from_bits(2, bits as u64);
        assert_eq!(
            rules::compute(&v, RuleOptions::VERIFIED),
            None,
            "override on view {bits:#x} must shadow a stay verdict"
        );
    }
}

#[test]
fn overrides_move_to_empty_nodes_only() {
    for &(bits, code) in gathering::overrides::OVERRIDES {
        let v = View::from_bits(2, bits as u64);
        let d = rules::decode_decision(code).expect("overrides always move");
        assert!(v.is_empty_node(d.delta()), "override {bits:#x} targets an occupied node");
    }
}

#[test]
fn base_table_matches_direct_determination() {
    let table = base::base_table();
    for bits in (0..(1u64 << 18)).step_by(7919) {
        let v = View::from_bits(2, bits);
        assert_eq!(base::decode(table[bits as usize]), base::determine(&v), "{bits:#x}");
    }
}

#[test]
fn dependents_hug_target_examples() {
    let view_of = |cells: &[(i32, i32)]| {
        let mut nodes = vec![ORIGIN];
        nodes.extend(cells.iter().map(|&(x, y)| Coord::new(x, y)));
        View::observe(&Configuration::new(nodes), ORIGIN, 2)
    };
    // Neighbour at E, moving NE: (2,0) is adjacent to (1,1) — hugs.
    assert!(completion::dependents_hug_target(&view_of(&[(2, 0)]), Dir::NE));
    // Neighbour at W, moving E: (-2,0) is not adjacent to (2,0) — no hug.
    assert!(!completion::dependents_hug_target(&view_of(&[(-2, 0)]), Dir::E));
    // Two neighbours NE+SE, moving E: both adjacent to (2,0) — hugs.
    assert!(completion::dependents_hug_target(&view_of(&[(1, 1), (1, -1)]), Dir::E));
}

#[test]
fn paper_and_verified_agree_on_the_gathered_fixpoint() {
    let h = robots::hexagon(ORIGIN);
    for &p in h.positions() {
        let v = View::observe(&h, p, 2);
        assert_eq!(SevenGather::paper().compute(&v), None);
        assert_eq!(SevenGather::verified().compute(&v), None);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "full reachability sweep is release-only")]
fn every_override_view_is_reached_by_some_execution() {
    // The overrides are not dead weight: each synthesized view occurs in
    // at least one of the 3652 executions (otherwise the synthesizer
    // could never have improved the gathered count by adding it).
    use std::collections::HashSet;
    let algo = SevenGather::verified();
    let mut reached: HashSet<u32> = HashSet::new();
    for cells in polyhex::enumerate_fixed(7) {
        let initial = Configuration::new(cells.iter().copied());
        let ex = engine::run_traced(&initial, &algo, Limits::default());
        for cfg in ex.trace.expect("traced") {
            for &p in cfg.positions() {
                reached.insert(View::observe(&cfg, p, 2).bits() as u32);
            }
        }
    }
    for &(bits, _) in gathering::overrides::OVERRIDES {
        assert!(reached.contains(&bits), "override view {bits:#x} is never exercised");
    }
    // Perspective: how much of the 2^18 view space real executions touch.
    assert!(reached.len() < (1 << 18) / 4, "executions touch a small corner of the view space");
}
