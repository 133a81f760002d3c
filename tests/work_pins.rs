//! Work pins: the exploration work each model checker does over a whole
//! cell, summed from the public per-class reports.
//!
//! The golden digests (`verdict_digest`) hash verdicts and refutation
//! schedules only, so they cannot see a checker that reaches the same
//! verdicts by exploring more or fewer states. These pins hold the
//! summed `states` (`classes` for the SSYNC adversary), `edges` and
//! `deduped` of every cell still, so a change to the exploration core
//! that alters its search order, its interning or its budget sites
//! shows up here even when every verdict survives. The verified
//! algorithm has no nontrivial equivariance, so nothing is deduped.
//!
//! Three symmetric rules are pinned too, with a digest of their
//! verdicts. The verified rules are chiral, so only rules like these
//! exercise the stabilizer dedup and the symmetry argument of
//! DESIGN.md §7, and nothing else holds their `check` results still
//! from one build to the next.
//!
//! Two rows arm a byte budget on the shared checker. The memory drill
//! hashes verdicts only, so these rows are what hold still where a
//! search polls its budgets.
//!
//! The n = 8 rows are release-only (`cargo test --release`).

use gathering::SevenGather;
use robots::adversary::{self, AdversaryOptions, AdversaryVerdict, Checker, Fnv64};
use robots::async_model::{AsyncChecker, AsyncOptions};
use robots::faults::{self, CrashChecker, CrashOptions, CrashVerdict};
use robots::{Algorithm, Configuration, FnAlgorithm, StayAlgorithm, View};
use trigrid::Dir;

/// `(states, edges, deduped)` summed over every class of a cell.
type Work = (usize, usize, usize);

/// One class's row: its work, its verdict kind (1 proof, 2 undecided,
/// 3 refuted) and, for a refutation, its schedule hash.
type Row = (Work, u8, u64);

fn crash_row(r: faults::CrashReport) -> Row {
    let (kind, hash) = match &r.verdict {
        CrashVerdict::Proof => (1, 0),
        CrashVerdict::Undecided { .. } => (2, 0),
        CrashVerdict::Refuted { schedule, .. } => (3, faults::schedule_hash(schedule)),
    };
    ((r.states, r.edges, r.deduped), kind, hash)
}

/// Every class's row of `algo`'s `n`-robot cell under `sched`
/// (`adversary`, `crash:1` or `lcm-async`), in class order, with the
/// sweep's checker construction, one checker shared by the whole cell
/// and the byte budget `mem_budget` armed on it.
fn cell_rows<A: Algorithm + ?Sized>(
    algo: &A,
    n: usize,
    sched: &str,
    mem_budget: Option<usize>,
) -> Vec<Row> {
    let classes = polyhex::enumerate_fixed(n);
    let initial = |cells: &Vec<trigrid::Coord>| Configuration::new(cells.iter().copied());
    let capacity = n.max(8);
    match sched {
        "adversary" => {
            let mut checker = Checker::for_robots(algo, AdversaryOptions::for_robots(n), capacity);
            checker.set_mem_budget(mem_budget);
            parallel::par_map(&classes, 0, |cells| {
                let r = checker.check(&initial(cells));
                let (kind, hash) = match &r.verdict {
                    AdversaryVerdict::Proof => (1, 0),
                    AdversaryVerdict::Undecided { .. } => (2, 0),
                    AdversaryVerdict::Refuted { schedule, .. } => {
                        (3, adversary::schedule_hash(schedule))
                    }
                };
                ((r.classes, r.edges, r.deduped), kind, hash)
            })
        }
        "crash:1" => {
            let mut checker = CrashChecker::for_robots(algo, CrashOptions::new(1, 0), capacity);
            checker.set_mem_budget(mem_budget);
            parallel::par_map(&classes, 0, |cells| crash_row(checker.check(&initial(cells))))
        }
        "lcm-async" => {
            let mut checker = AsyncChecker::for_robots(algo, AsyncOptions::default(), capacity);
            checker.set_mem_budget(mem_budget);
            parallel::par_map(&classes, 0, |cells| crash_row(checker.check(&initial(cells))))
        }
        other => panic!("no work pin for {other}"),
    }
}

/// The summed work of `rows`.
fn total(rows: &[Row]) -> Work {
    rows.iter().fold((0, 0, 0), |w, &((states, edges, deduped), _, _)| {
        (w.0 + states, w.1 + edges, w.2 + deduped)
    })
}

/// The summed work of `algo`'s unbudgeted `n`-robot cell under `sched`,
/// and an FNV digest of every class's verdict kind and schedule hash in
/// class order.
fn cell_work<A: Algorithm + ?Sized>(algo: &A, n: usize, sched: &str) -> (Work, u64) {
    let rows = cell_rows(algo, n, sched, None);
    let mut digest = Fnv64::new();
    for &(_, kind, hash) in &rows {
        digest.write(kind);
        digest.write_all(&hash.to_le_bytes());
    }
    (total(&rows), digest.finish())
}

/// The summed work and the undecided count of `algo`'s `n`-robot cell
/// under `sched` with a 4 KiB byte budget. A search polls the budget
/// after every edge it records, so where it stops — and so the work a
/// budget-stopped class reports — moves with the poll sites.
fn budgeted_work<A: Algorithm + ?Sized>(algo: &A, n: usize, sched: &str) -> (Work, usize) {
    let rows = cell_rows(algo, n, sched, Some(4 << 10));
    (total(&rows), rows.iter().filter(|&&(_, kind, _)| kind == 2).count())
}

#[test]
fn n7_adversary_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 7, "adversary").0, (318_817, 778_269, 0));
}

#[test]
fn n7_crash_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 7, "crash:1").0, (78_885, 113_048, 0));
}

#[test]
fn n7_async_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 7, "lcm-async").0, (358_085, 622_274, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_adversary_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 8, "adversary").0, (1_974_779, 5_629_101, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_crash_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 8, "crash:1").0, (5_475_073, 22_457_559, 0));
}

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 8 cells are release-only; run cargo test --release")]
fn n8_async_work_is_pinned() {
    assert_eq!(cell_work(&SevenGather::verified(), 8, "lcm-async").0, (2_315_018, 4_441_421, 0));
}

#[test]
fn n6_async_budget_polls_are_pinned() {
    let work = budgeted_work(&SevenGather::verified(), 6, "lcm-async");
    assert_eq!(work, ((35_941, 52_163, 0), 372));
}

#[test]
fn n6_crash_budget_polls_are_pinned() {
    let work = budgeted_work(&SevenGather::verified(), 6, "crash:1");
    assert_eq!(work, ((11_797, 15_086, 0), 32));
}

/// Asserts `algo`'s cells at n = 1..=5 under adversary, crash:1 and
/// lcm-async (in that order within each n) against `pins`.
fn assert_symmetric_pins<A: Algorithm + ?Sized>(algo: &A, pins: &[(Work, u64); 15]) {
    let scheds = ["adversary", "crash:1", "lcm-async"];
    let cells = (1..=5).flat_map(|n| scheds.map(|sched| (n, sched)));
    for ((n, sched), want) in cells.zip(pins) {
        assert_eq!(&cell_work(algo, n, sched), want, "{} n={n} {sched}", algo.name());
    }
}

#[test]
fn spin_work_and_verdicts_are_pinned() {
    // Rotation-equivariant: group C6.
    let spin = FnAlgorithm::new(1, "spin", |v: &View| {
        (v.robot_count() == 1).then(|| {
            Dir::ALL.into_iter().find(|&d| v.neighbor(d)).expect("one neighbour").rotate_ccw(1)
        })
    });
    assert_symmetric_pins(&spin, &SPIN);
}

#[test]
fn march_work_and_verdicts_are_pinned() {
    // Commutes with the mirror that fixes E: a 2-element group.
    let march = FnAlgorithm::new(1, "march", |_: &View| Some(Dir::E));
    assert_symmetric_pins(&march, &MARCH);
}

#[test]
fn stay_work_and_verdicts_are_pinned() {
    // Never moves, so it commutes with all of D6.
    assert_symmetric_pins(&StayAlgorithm, &STAY);
}

// In the order `assert_symmetric_pins` walks: n = 1..=5, each under
// adversary, crash:1 and lcm-async.

const SPIN: [(Work, u64); 15] = [
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((6, 6, 3), 0x30da_c128_28b1_5b66),
    ((6, 6, 3), 0x1133_82d8_4712_ca4d),
    ((26, 26, 9), 0xba91_e386_4867_5aa7),
    ((101, 216, 27), 0x9e53_628c_7278_759c),
    ((344, 891, 108), 0x7fcb_ea03_50e8_fc41),
    ((398, 648, 54), 0x43b3_ec4b_fead_3d54),
    ((254, 343, 58), 0x8e01_4374_3c7f_b9d4),
    ((1049, 2095, 282), 0xfde7_c6a3_9f92_fdeb),
    ((731, 1025, 100), 0x5992_fc65_a36e_5071),
    ((1266, 2028, 42), 0x4dce_6655_44ea_37af),
    ((6171, 15408, 285), 0x4dce_6655_44ea_37af),
    ((3513, 5544, 84), 0x4dce_6655_44ea_37af),
];

const MARCH: [(Work, u64); 15] = [
    ((1, 1, 0), 0xbb8f_0ea2_d141_fbf5),
    ((2, 2, 0), 0xba14_1b79_bbe4_e939),
    ((2, 2, 0), 0xb801_f306_0056_21c3),
    ((4, 3, 0), 0x25a9_c4ed_aabf_1d50),
    ((4, 3, 0), 0x36ce_1d19_dcd2_f3ed),
    ((11, 11, 0), 0xe73b_5c20_d764_8a26),
    ((15, 9, 0), 0x3a7e_860f_8b1e_24d7),
    ((15, 9, 0), 0x6a7d_fad2_7db3_0a49),
    ((54, 52, 2), 0x700d_5e93_ef5e_7d71),
    ((61, 36, 0), 0x3c7d_8bbe_7bf6_91d8),
    ((61, 36, 0), 0xde55_3ee7_e6b7_fdb1),
    ((285, 277, 3), 0x4b9f_ac65_dea0_74a8),
    ((267, 160, 0), 0xacf9_aaac_64cb_54be),
    ((267, 160, 0), 0xd39f_c8ef_7dbb_65ac),
    ((1485, 1459, 18), 0x5d81_f2f7_e910_8f31),
];

const STAY: [(Work, u64); 15] = [
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((1, 0, 0), 0x529a_2cdc_8ff5_33ac),
    ((3, 0, 0), 0x3c14_a359_4164_1ce2),
    ((3, 0, 0), 0x3c14_a359_4164_1ce2),
    ((3, 0, 0), 0x3c14_a359_4164_1ce2),
    ((11, 0, 0), 0xfb14_1b68_80ed_441a),
    ((11, 0, 0), 0xfb14_1b68_80ed_441a),
    ((11, 0, 0), 0xfb14_1b68_80ed_441a),
    ((44, 0, 0), 0xc8d4_58db_7215_53b6),
    ((44, 0, 0), 0xc8d4_58db_7215_53b6),
    ((44, 0, 0), 0xc8d4_58db_7215_53b6),
    ((186, 0, 0), 0x48a8_d8d0_8f8f_ecde),
    ((186, 0, 0), 0x48a8_d8d0_8f8f_ecde),
    ((186, 0, 0), 0x48a8_d8d0_8f8f_ecde),
];
