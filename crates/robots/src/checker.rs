//! One exhaustive model checker over the explorer.
//!
//! The SSYNC adversary ([`crate::adversary::Checker`]), the crash-fault
//! adversary ([`crate::faults::CrashChecker`]) and the ASYNC adversary
//! ([`crate::async_model::AsyncChecker`]) are one [`ModelChecker`]: an
//! [`Explorer`] over a [`Semantics`], named by a small [`Model`] type
//! that supplies only what differs between them — the options a checker
//! is built from, the semantics and goal they describe, and the report
//! a check returns. Every check runs the explorer's own monomorphized
//! code, so a checker adds nothing to a verdict.
//!
//! [`ModelChecker::check`] is the one per-class query of every model. A
//! checker over the crash semantics can first label its cell's state
//! graph ([`ModelChecker::label`]); `check` then settles the roots a walk
//! reached from their labels, with the plain search's verdicts
//! (DESIGN.md §19).

use crate::explore::{CrashSemantics, ExploreOptions, ExploreReport, Explorer, Semantics};
use crate::{Algorithm, Configuration};
use std::borrow::Borrow;
use std::marker::PhantomData;
use std::time::Duration;
use trigrid::transform::PointSymmetry;

/// What one exhaustive model contributes to a [`ModelChecker`]. The
/// crate's models are uninhabited types: [`crate::adversary::SsyncModel`],
/// [`crate::faults::CrashModel`] and [`crate::async_model::AsyncModel`].
pub trait Model {
    /// The options a checker of this model is built from.
    type Options;
    /// The transition system the explorer searches.
    type Semantics: Semantics;
    /// What a check reports.
    type Report;

    /// The explorer budgets and the semantics, goal included, that
    /// `opts` describe.
    fn explorer(opts: Self::Options) -> (ExploreOptions, Self::Semantics);

    /// This model's view of an explorer report.
    fn report(report: ExploreReport) -> Self::Report;
}

/// An exhaustive checker of model `M` for one algorithm.
///
/// Construction computes the algorithm's equivariance subgroup once (it
/// scans every view of the algorithm's radius); reuse one checker across
/// many [`check`](Self::check) calls.
pub struct ModelChecker<'a, A: Algorithm + ?Sized, M: Model> {
    explorer: Explorer<'a, A, M::Semantics>,
    model: PhantomData<fn() -> M>,
}

impl<'a, A: Algorithm + ?Sized, M: Model> ModelChecker<'a, A, M> {
    /// Builds a checker for `algo` accepting configurations of up to 8
    /// robots; use [`for_robots`](Self::for_robots) for larger spaces.
    ///
    /// # Panics
    /// As [`for_robots`](Self::for_robots).
    #[must_use]
    pub fn new(algo: &'a A, opts: M::Options) -> Self {
        Self::for_robots(algo, opts, 8)
    }

    /// Builds a checker accepting configurations of up to `max_robots`
    /// robots (see [`Explorer::new`]).
    ///
    /// # Panics
    /// Panics if `max_robots` exceeds [`crate::PackedClass::MAX_ROBOTS`],
    /// or if a crash budget would allow crashing every robot.
    #[must_use]
    pub fn for_robots(algo: &'a A, opts: M::Options, max_robots: usize) -> Self {
        let (opts, semantics) = M::explorer(opts);
        ModelChecker {
            explorer: Explorer::new(algo, opts, semantics, max_robots),
            model: PhantomData,
        }
    }

    /// The algorithm's equivariance subgroup (always contains the
    /// identity).
    #[must_use]
    pub fn group(&self) -> &[PointSymmetry] {
        self.explorer.group()
    }

    /// Accepted and ignored: a class's search runs on the calling
    /// thread, and parallelism belongs to the caller's across-class
    /// pool (the sweep's `--threads`). Kept so existing callers keep
    /// compiling.
    pub fn set_threads(&mut self, _threads: usize) {}

    /// Arms (or clears) the cooperative per-class wall-clock deadline
    /// (see [`Explorer::set_class_timeout`]): an expired deadline
    /// degrades the class to `Undecided` with
    /// [`UndecidedReason::Timeout`](crate::explore::UndecidedReason::Timeout).
    pub fn set_class_timeout(&mut self, timeout: Option<Duration>) {
        self.explorer.set_class_timeout(timeout);
    }

    /// Arms (or clears) the deterministic per-class byte budget (see
    /// [`Explorer::set_mem_budget`]): an overrun degrades the class to
    /// `Undecided` with
    /// [`UndecidedReason::MemBudget`](crate::explore::UndecidedReason::MemBudget).
    pub fn set_mem_budget(&mut self, budget: Option<usize>) {
        self.explorer.set_mem_budget(budget);
    }

    /// A point-in-time telemetry snapshot of the underlying explorer
    /// (see [`Explorer::metrics_snapshot`]). Strictly out-of-band:
    /// verdicts and digests never depend on it.
    #[must_use]
    pub fn metrics_snapshot(&self) -> telemetry::Snapshot {
        self.explorer.metrics_snapshot()
    }

    /// Classifies `initial` under the model's exhaustive adversary.
    ///
    /// # Panics
    /// Panics if `initial` is disconnected or holds more robots than
    /// the checker was built for.
    #[must_use]
    pub fn check(&self, initial: &Configuration) -> M::Report {
        M::report(self.explorer.check(initial))
    }
}

/// The cell labels of DESIGN.md §19, for the models over the crash
/// semantics (the SSYNC and crash-fault adversaries).
impl<A: Algorithm + ?Sized, M: Model<Semantics = CrashSemantics>> ModelChecker<'_, A, M> {
    /// The crash budget `f` (0 for the SSYNC adversary).
    #[must_use]
    pub fn crashes(&self) -> u8 {
        self.explorer.budget()
    }

    /// Builds the class data a walk from `initial` reads first (see
    /// [`Explorer::prepare`]); safe to run from a pool.
    pub fn prepare(&self, initial: &Configuration) {
        self.explorer.prepare(initial);
    }

    /// Labels the cell's state graph from `roots` (see
    /// [`Explorer::label`]), so that [`check`](Self::check) can settle
    /// them from their labels.
    pub fn label<C: Borrow<Configuration>>(&mut self, roots: impl IntoIterator<Item = C>) {
        self.explorer.label(roots);
    }
}
