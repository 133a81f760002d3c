//! One [`Explorer`] shared across threads — the sweep's access pattern,
//! where every worker of the across-class pool checks classes through
//! the same explorer and its class table. Each report must equal the
//! one a one-thread run produces, whichever thread meets a class first
//! and so whatever ids the table hands out, and the table must end up
//! holding the same classes: each class is added exactly once.

use gathering::SevenGather;
use robots::explore::{CrashSemantics, ExploreOptions, ExploreReport, Explorer};
use robots::Configuration;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};

fn gathered_goal(cfg: &Configuration, _crashed: u16) -> bool {
    cfg.is_gathered()
}

/// Checks every configuration of `work` through one explorer shared by
/// `threads` scoped threads, which start together at a barrier (so the
/// first checks race into the same cold cache entries) and pull indices
/// from a common counter. Returns the reports in `work` order and the
/// number of classes the explorer's class table holds afterwards.
fn check_shared(
    work: &[Configuration],
    budget: u8,
    opts: ExploreOptions,
    threads: usize,
) -> (Vec<ExploreReport>, u64) {
    let algo = SevenGather::verified();
    let explorer = Explorer::new(&algo, opts, CrashSemantics::new(budget, gathered_goal), 8);
    let next = AtomicUsize::new(0);
    let start = Barrier::new(threads);
    let reports: Vec<Mutex<Option<ExploreReport>>> =
        work.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                start.wait();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(initial) = work.get(i) else { break };
                    *reports[i].lock().unwrap() = Some(explorer.check(initial));
                }
            });
        }
    });

    let classes = explorer.metrics_snapshot().counter("explore.classes");
    let reports =
        reports.into_iter().map(|r| r.into_inner().unwrap().expect("every item checked")).collect();
    (reports, classes)
}

/// Asserts that 2 and 8 threads sharing one explorer reproduce the
/// one-thread reports of `work` and fill the class table with as many
/// classes, and returns those reports.
fn assert_thread_invariant(
    work: &[Configuration],
    budget: u8,
    opts: ExploreOptions,
) -> Vec<ExploreReport> {
    let (reference, classes) = check_shared(work, budget, opts, 1);
    assert!(classes > 0, "the class table counts its classes");
    for threads in [2, 8] {
        let (got, got_classes) = check_shared(work, budget, opts, threads);
        for (i, (want, got)) in reference.iter().zip(&got).enumerate() {
            assert_eq!(want, got, "item {i}: {threads} threads sharing one explorer changed it");
        }
        assert_eq!(got_classes, classes, "{threads} threads: the class table added a class twice");
    }
    reference
}

/// `copies` copies of enumeration class `index` of the `n`-robot space,
/// so the threads check the same class concurrently.
fn repeated(n: usize, index: usize, copies: usize) -> Vec<Configuration> {
    let classes = polyhex::enumerate_fixed(n);
    vec![Configuration::new(classes[index].iter().copied()); copies]
}

#[test]
fn adversary_reports_are_shared_explorer_invariant_on_the_largest_n8_class() {
    // Class 2898 drives the deepest n = 8 SSYNC adversary search
    // (727 states).
    let reports = assert_thread_invariant(&repeated(8, 2898, 16), 0, ExploreOptions::default());
    assert!(reports[0].states >= 500, "expected the deep search");
}

#[test]
fn crash_reports_are_shared_explorer_invariant_on_a_deep_n7_class() {
    // Class 1704 drives the deepest crash f = 1 search of the n = 7
    // space (252 states across the crash placements).
    assert_thread_invariant(&repeated(7, 1704, 16), 1, ExploreOptions::crash());
}

#[test]
fn refutation_schedules_are_shared_explorer_invariant_across_a_class_sample() {
    // Every 97th n = 7 class under the budget-0 adversary: the refuted
    // ones must reproduce the exact counterexample schedule (the golden
    // digests hash these) however the classes spread over the threads.
    let classes = polyhex::enumerate_fixed(7);
    let work: Vec<Configuration> = (0..classes.len())
        .step_by(97)
        .map(|index| Configuration::new(classes[index].iter().copied()))
        .collect();
    assert_thread_invariant(&work, 0, ExploreOptions::default());
}
