//! Reusable solver sessions: one object owning everything a repeated
//! sparse solve amortizes.
//!
//! PR 1 grew three parallel caching designs — `ThermalWorkspace`,
//! `PdnWorkspace` and the transient stepper's private buffers — each
//! reinventing "pattern + Krylov scratch + warm start". A
//! [`SolverSession`] consolidates them: it owns
//!
//! * the numeric [`CsrMatrix`] of the operator it solves,
//! * a [`KrylovWorkspace`] of scratch vectors,
//! * the warm-start/solution vector,
//! * a pluggable [`Preconditioner`] (built from a [`PrecondSpec`]),
//!   set up lazily and re-set-up only when the operator's values change,
//! * an internal RHS buffer for allocation-free per-solve assembly.
//!
//! Domain solvers name their operator with an *(operator tag, epoch)*
//! pair: the tag (allocate with [`next_operator_tag`]) names the
//! operator identity, the epoch counts value refreshes. Before each
//! solve they hand the session their operator with
//! [`SolverSession::load`], which does nothing for a current session,
//! copies the values (O(nnz), warm start kept) into a session holding
//! the same tag, and adopts a copy of the operator otherwise — never a
//! symbolic re-assembly. A time stepper keeps its shifted operator
//! `G + C/Δt` on `G`'s own pattern with [`SolverSession::load_shifted`].
//!
//! Sessions are `Clone` (for fan-out across sweep workers; the
//! preconditioner factorization is rebuilt lazily in the clone) and
//! track [`SessionStats`] so benches and tests can assert how much work
//! was actually amortized.
//!
//! # Failure recovery
//!
//! Every solve runs under a [`RecoveryPolicy`] (on by default): when an
//! attempt ends in [`NumError::NotConverged`] or [`NumError::Breakdown`]
//! — or when the post-solve NaN/Inf scan of the solution and Krylov
//! workspace fails — the session climbs an escalation ladder of
//! [`RecoveryRung`]s: a cold restart with the warm start discarded, the
//! preconditioner fallback chain ([`PrecondSpec::fallback_chain`],
//! skipping the configured spec; a fallback is used for that one solve
//! only and never installed), then a widened iteration budget. The one
//! exception: while the configured preconditioner's setup stands
//! refused, the fallback that served is kept, set up on the current
//! values, and the next solve starts from it with its warm start; it
//! goes when the preconditioner goes stale (a load or a spec change).
//! Each step lands in the [`SessionStats`] recovery counters, and
//! [`SolverSession::last_recovery`] names the rung that produced the
//! last answer. If the ladder is exhausted *and* non-finite values are
//! still present in the scratch state, the session is marked
//! *poisoned*: [`SolverSession::is_current`] reports false and further
//! solves are refused until a [`SolverSession::load`] cold-rebuilds the
//! numeric state.
//!
//! # Examples
//!
//! Load once, then solve repeatedly — the second solve warm-starts from
//! the first solution and converges immediately:
//!
//! ```
//! use bright_num::session::next_operator_tag;
//! use bright_num::{SolverSession, TripletMatrix};
//!
//! let mut t = TripletMatrix::new(3, 3);
//! for i in 0..3 {
//!     t.push(i, i, 2.0)?;
//! }
//! let mut session = SolverSession::default();
//! session.load(&t.to_csr(), next_operator_tag(), 0)?;
//! let cold = session.solve_spd(&[2.0, 4.0, 6.0])?;
//! assert_eq!(session.solution(), &[1.0, 2.0, 3.0]);
//! let warm = session.solve_spd(&[2.0, 4.0, 6.0])?;
//! assert!(warm.iterations <= cold.iterations);
//! assert_eq!(session.stats().solves, 2);
//! # Ok::<(), bright_num::NumError>(())
//! ```

use crate::faults::{self, FaultSite};
use crate::precond::{PrecondSpec, Preconditioner};
use crate::vec_ops::all_finite;
use crate::solvers::{
    bicgstab_preconditioned, conjugate_gradient_preconditioned, IterOptions, KrylovWorkspace,
    SolveStats,
};
use crate::sparse::CsrMatrix;
use crate::NumError;
use std::sync::atomic::{AtomicU64, Ordering};

static OPERATOR_TAGS: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique operator tag (never 0, which marks an
/// unbound session). Domain solvers draw one per assembled operator so
/// [`SolverSession::load`] can tell "same operator, new coefficients"
/// (epoch bump → value copy) from "different operator" (tag change →
/// adopt a copy).
#[must_use]
pub fn next_operator_tag() -> u64 {
    OPERATOR_TAGS.fetch_add(1, Ordering::Relaxed)
}

/// The kernel path every solve runs: the in-order scalar row loop for
/// matvecs and the sequential SSOR/IC(0) sweeps. Kept only so the
/// benchmark's kernel labels keep printing; it goes when those labels
/// do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// The in-order scalar row loop, the only kernel path.
    #[default]
    Scalar,
}

impl Backend {
    /// Always `"scalar"`. Kept only for the benchmark's kernel label.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Scalar => "scalar",
        }
    }
}

/// Counters of the work a session performed (the count fields are
/// monotonically increasing over the session's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Operators adopted: a [`SolverSession::load`] of a tag the session
    /// did not hold, or a [`SolverSession::load_shifted`] of an unbound
    /// session.
    pub binds: u64,
    /// O(nnz) value copies into the held operator: a
    /// [`SolverSession::load`] of the held tag at another epoch (or into
    /// a poisoned session), or a [`SolverSession::load_shifted`] of a
    /// bound session.
    pub refreshes: u64,
    /// Preconditioner setups (factorizations).
    pub precond_setups: u64,
    /// Linear solves performed.
    pub solves: u64,
    /// Krylov iterations of the successful solves, recovered ones
    /// included (the attempt that served each).
    pub iterations: u64,
    /// Always 1 when read through [`SolverSession::stats`]: every solve
    /// runs on the caller's thread. Kept only for the benchmark's
    /// kernel-threads label; it goes when that label does.
    pub kernel_threads: u32,
    /// Solves that succeeded only after climbing the recovery ladder.
    pub recovered_solves: u64,
    /// Individual ladder retries attempted (each non-first rung tried
    /// counts once, whether or not it succeeded).
    pub recovery_retries: u64,
    /// Retries that swapped in a fallback preconditioner.
    pub precond_fallbacks: u64,
    /// Retries that widened the iteration budget.
    pub budget_widenings: u64,
    /// Times the session was marked poisoned by the post-solve
    /// non-finite state scan.
    pub poisonings: u64,
    /// Multigrid hierarchy (pattern + values) builds, when the active
    /// preconditioner is [`PrecondSpec::Multigrid`] (0 otherwise).
    pub mg_hierarchy_builds: u64,
    /// Multigrid O(nnz) value-only refreshes into the cached
    /// hierarchy pattern.
    pub mg_refreshes: u64,
    /// Multigrid V-cycles applied across all solves.
    pub mg_cycles: u64,
    /// Levels in the current multigrid hierarchy (0 when multigrid is
    /// not active).
    pub mg_levels: u32,
    /// Unknowns on the coarsest multigrid level.
    pub mg_coarse_rows: u32,
    /// Resolved multigrid smoother (`"chebyshev"` /
    /// `"weighted-jacobi"`; empty when multigrid is not active).
    pub mg_smoother: &'static str,
}

impl SessionStats {
    /// Always `"scalar"` (see [`Backend`]). Kept only for the
    /// benchmark's kernel label; it goes when that label does.
    #[must_use]
    pub fn kernel_digest(&self) -> String {
        Backend::Scalar.name().to_string()
    }

    /// Compact multigrid hierarchy digest, e.g.
    /// `"mg(4 levels, coarse 144, chebyshev)"`; `None` when the
    /// session has not solved through a multigrid preconditioner.
    #[must_use]
    pub fn mg_digest(&self) -> Option<String> {
        if self.mg_levels == 0 {
            return None;
        }
        Some(format!(
            "mg({} levels, coarse {}, {})",
            self.mg_levels, self.mg_coarse_rows, self.mg_smoother
        ))
    }
}

/// Whether a session climbs the escalation ladder when a solve fails
/// recoverably (see the [module docs](self), "Failure recovery"). The
/// ladder's rungs are fixed: a cold restart, the preconditioner fallback
/// chain, then a 4× iteration budget. The default climbs them;
/// [`RecoveryPolicy::disabled`] restores the fail-fast behaviour of
/// earlier revisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryPolicy {
    enabled: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self { enabled: true }
    }
}

impl RecoveryPolicy {
    /// A policy with the ladder off: failures surface immediately (the
    /// pre-recovery behaviour; benches use this as the baseline).
    #[must_use]
    pub fn disabled() -> Self {
        Self { enabled: false }
    }
}

/// The widened-budget rung's multiple of the configured
/// `max_iterations`.
const WIDEN_BUDGET_BY: usize = 4;

/// The ladder rung that produced a solve's answer.
/// [`RecoveryRung::Clean`] is the ordinary first attempt; everything
/// else marks a degraded (but converged and validated) solve.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum RecoveryRung {
    /// First attempt, no recovery involved.
    #[default]
    Clean,
    /// Retried with the warm start discarded.
    ColdRestart,
    /// Retried under a fallback preconditioner (the configured one was
    /// left installed for future solves).
    PrecondFallback(PrecondSpec),
    /// Retried with a widened iteration budget.
    WidenedBudget,
}

impl RecoveryRung {
    /// Short human-readable description for degraded-result reporting;
    /// `None` for a clean solve.
    #[must_use]
    pub fn describe(&self) -> Option<String> {
        match self {
            Self::Clean => None,
            Self::ColdRestart => Some("cold-restart".into()),
            Self::PrecondFallback(spec) => Some(format!("precond-fallback({})", spec.name())),
            Self::WidenedBudget => Some("widened-budget".into()),
        }
    }
}

/// A reusable solve context: numeric operator, Krylov workspace, warm
/// start and preconditioner. See the [module docs](self) for the
/// amortization contract.
#[derive(Debug)]
pub struct SolverSession {
    matrix: CsrMatrix,
    opts: IterOptions,
    precond: Option<Box<dyn Preconditioner>>,
    precond_stale: bool,
    /// The error of the configured preconditioner's last setup, while
    /// it stands: a refused setup is not retried until the operator
    /// values or the spec change (both mark the preconditioner stale).
    precond_refused: Option<NumError>,
    /// The fallback that served the last solve while the configured
    /// preconditioner's setup stands refused, set up on the current
    /// values; dropped when the preconditioner goes stale.
    kept_fallback: Option<Box<dyn Preconditioner>>,
    ws: KrylovWorkspace,
    x: Vec<f64>,
    rhs: Vec<f64>,
    operator_tag: u64,
    epoch: u64,
    last: SolveStats,
    stats: SessionStats,
    policy: RecoveryPolicy,
    poisoned: bool,
    last_rung: RecoveryRung,
}

impl Default for SolverSession {
    fn default() -> Self {
        Self::new(IterOptions::default())
    }
}

impl Clone for SolverSession {
    /// Clones the operator, warm start and options. The
    /// preconditioner factorization is *not* cloned — the clone rebuilds
    /// it lazily on its first solve — so cloned sessions are cheap to
    /// fan out across sweep workers. [`SessionStats`] restart at zero:
    /// the clone reports only the work *it* performs (summing stats
    /// across workers must not double-count the parent's).
    fn clone(&self) -> Self {
        Self {
            matrix: self.matrix.clone(),
            opts: self.opts.clone(),
            precond: None,
            precond_stale: true,
            precond_refused: None,
            kept_fallback: None,
            ws: KrylovWorkspace::new(),
            x: self.x.clone(),
            rhs: Vec::new(),
            operator_tag: self.operator_tag,
            epoch: self.epoch,
            last: self.last,
            stats: SessionStats::default(),
            policy: self.policy,
            // Poison is conservative state, carried so a clone of a
            // poisoned session also demands a load before serving.
            poisoned: self.poisoned,
            last_rung: self.last_rung,
        }
    }
}

impl SolverSession {
    /// Creates an unbound session with the given solve options
    /// (tolerance, iteration budget, preconditioner choice).
    #[must_use]
    pub fn new(opts: IterOptions) -> Self {
        Self {
            matrix: CsrMatrix::empty(),
            opts,
            precond: None,
            precond_stale: true,
            precond_refused: None,
            kept_fallback: None,
            ws: KrylovWorkspace::new(),
            x: Vec::new(),
            rhs: Vec::new(),
            operator_tag: 0,
            epoch: 0,
            last: SolveStats::default(),
            stats: SessionStats::default(),
            policy: RecoveryPolicy::default(),
            poisoned: false,
            last_rung: RecoveryRung::Clean,
        }
    }

    /// Creates an unbound session with default options and the given
    /// preconditioner.
    #[must_use]
    pub fn with_preconditioner(spec: PrecondSpec) -> Self {
        Self::new(IterOptions {
            preconditioner: spec,
            ..IterOptions::default()
        })
    }

    /// The solve options in effect.
    #[inline]
    pub fn options(&self) -> &IterOptions {
        &self.opts
    }

    /// Compact digest of the preconditioner that served the last solve:
    /// the fallback spec's name when the recovery ladder served it, the
    /// multigrid hierarchy digest (`"mg(4 levels, coarse 144,
    /// chebyshev)"`) when a multigrid solve has run, the configured
    /// spec's name otherwise.
    #[must_use]
    pub fn precond_digest(&self) -> String {
        if let RecoveryRung::PrecondFallback(spec) = self.last_rung {
            return spec.name().to_string();
        }
        self.stats
            .mg_digest()
            .unwrap_or_else(|| self.opts.preconditioner.name().to_string())
    }

    /// Replaces the preconditioner choice; the new operator is built on
    /// the next solve.
    pub fn set_preconditioner(&mut self, spec: PrecondSpec) {
        if self.opts.preconditioner != spec {
            self.opts.preconditioner = spec;
            self.precond = None;
            self.precond_stale = true;
        }
    }

    /// True once the session has been bound to an operator.
    #[inline]
    pub fn is_bound(&self) -> bool {
        self.operator_tag != 0
    }

    /// True when the session is current for the operator identified by
    /// `(tag, epoch)` — the check [`SolverSession::load`] runs before
    /// deciding between a no-op, a value copy and adopting the operator.
    /// A poisoned session is never current: the next load is what clears
    /// the poison.
    #[must_use]
    pub fn is_current(&self, tag: u64, epoch: u64) -> bool {
        !self.poisoned && self.is_bound() && self.operator_tag == tag && self.epoch == epoch
    }

    /// The operator tag this session is bound to (0 when unbound).
    #[inline]
    pub fn operator_tag(&self) -> u64 {
        self.operator_tag
    }

    /// The coefficient epoch the session's values are at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Brings the session up to date with the operator `matrix`, named
    /// by `(tag, epoch)`:
    ///
    /// * current for `(tag, epoch)` already: nothing to do;
    /// * holding `tag` (at another epoch, or poisoned): copies
    ///   `matrix`'s values into the held operator — O(nnz), no
    ///   allocation, counted as a refresh — and keeps the warm start;
    /// * otherwise: adopts a copy of `matrix`, counted as a bind, and
    ///   drops the warm start (a new operator's solution space is
    ///   unrelated).
    ///
    /// Either change marks the preconditioner for re-setup and clears a
    /// poisoned session's numeric state.
    ///
    /// # Errors
    ///
    /// * [`NumError::InvalidInput`] for tag 0, which names no operator,
    /// * [`NumError::DimensionMismatch`] if the session holds `tag` with
    ///   another shape or nnz.
    ///
    /// A rejected load leaves the session as it was.
    pub fn load(&mut self, matrix: &CsrMatrix, tag: u64, epoch: u64) -> Result<(), NumError> {
        if tag == 0 {
            return Err(NumError::InvalidInput(
                "operator tag 0 names no operator".into(),
            ));
        }
        if self.is_current(tag, epoch) {
            return Ok(());
        }
        self.reload(matrix, tag, epoch)
    }

    /// [`SolverSession::load`]'s value copy or adoption, without the
    /// currency check.
    fn reload(&mut self, matrix: &CsrMatrix, tag: u64, epoch: u64) -> Result<(), NumError> {
        if self.is_bound() && self.operator_tag == tag {
            self.matrix.copy_values_from(matrix)?;
            self.stats.refreshes += 1;
        } else {
            self.matrix = matrix.clone();
            self.operator_tag = tag;
            self.x.clear();
            self.stats.binds += 1;
        }
        self.clear_poison();
        self.epoch = epoch;
        self.precond_stale = true;
        Ok(())
    }

    /// Drops the held operator: the session is unbound until the next
    /// load adopts one.
    fn unbind(&mut self) {
        self.matrix = CsrMatrix::empty();
        self.operator_tag = 0;
        self.epoch = 0;
        self.precond_stale = true;
        self.x.clear();
    }

    /// Makes the session's operator `base + diag(shift)` — the shifted
    /// system `G + C/Δt` of an implicit time step — on `base`'s own
    /// pattern: an unbound session adopts a copy of `base` (counted as a
    /// bind, under a fresh operator tag), a bound one copies `base`'s
    /// values (counted as a refresh). Either way `shift[i]` is then
    /// added to row `i`'s diagonal entry, the sum a triplet scatter of
    /// `base`'s rows followed by the diagonal forms. O(nnz); no
    /// allocation once bound.
    ///
    /// # Errors
    ///
    /// [`NumError::DimensionMismatch`] if `base` does not match the
    /// bound operator's shape (the session is then left as it was),
    /// `shift` is not one entry per row, or a row has no diagonal entry
    /// (the session is then unbound: it never holds a part-shifted
    /// operator).
    pub fn load_shifted(
        &mut self,
        base: &CsrMatrix,
        shift: &[f64],
        epoch: u64,
    ) -> Result<(), NumError> {
        let tag = if self.is_bound() {
            self.operator_tag
        } else {
            next_operator_tag()
        };
        self.reload(base, tag, epoch)?;
        let shifted = self.matrix.add_to_diagonal(shift);
        if shifted.is_err() {
            self.unbind();
        }
        shifted
    }

    /// The bound operator.
    #[inline]
    pub fn matrix(&self) -> &CsrMatrix {
        &self.matrix
    }

    /// Clears and returns the internal RHS buffer for the caller to
    /// fill, then solve with [`SolverSession::solve_spd_in_place`] /
    /// [`SolverSession::solve_general_in_place`].
    pub fn rhs_mut(&mut self) -> &mut Vec<f64> {
        self.rhs.clear();
        &mut self.rhs
    }

    /// The warm-start/solution vector (empty = cold start next solve).
    #[inline]
    pub fn solution(&self) -> &[f64] {
        &self.x
    }

    /// Seeds the warm start for the next solve.
    pub fn set_warm_start(&mut self, x: &[f64]) {
        self.x.clear();
        self.x.extend_from_slice(x);
    }

    /// Fills the warm start with `n` copies of `value` — the uniform
    /// initial field domain solvers use for cold starts.
    pub fn seed_uniform(&mut self, n: usize, value: f64) {
        self.x.clear();
        self.x.resize(n, value);
    }

    /// Drops the warm start so the next solve is cold (used when the
    /// next point is unrelated to the previous one).
    pub fn reset_warm_start(&mut self) {
        self.x.clear();
    }

    /// Statistics of the last completed solve.
    #[inline]
    pub fn last_stats(&self) -> SolveStats {
        self.last
    }

    /// Lifetime counters (binds, refreshes, preconditioner setups,
    /// solves, recovery activity).
    #[inline]
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            kernel_threads: 1,
            ..self.stats
        }
    }

    /// The failure-recovery policy in effect.
    #[inline]
    pub fn recovery_policy(&self) -> RecoveryPolicy {
        self.policy
    }

    /// Replaces the failure-recovery policy for subsequent solves.
    pub fn set_recovery_policy(&mut self, policy: RecoveryPolicy) {
        self.policy = policy;
    }

    /// True when the post-solve state validation found non-finite values
    /// it could not recover from. A poisoned session refuses to solve
    /// and reports not-current until a [`SolverSession::load`] rebuilds
    /// the numeric state (see the [module docs](self)).
    #[inline]
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// The ladder rung that produced the most recent successful solve
    /// ([`RecoveryRung::Clean`] before the first solve).
    #[inline]
    pub fn last_recovery(&self) -> RecoveryRung {
        self.last_rung
    }

    /// Cold-rebuilds the numeric scratch state when poisoned: drops the
    /// preconditioner, workspace and warm start so nothing non-finite
    /// survives into the next solve. Called by every load, each of which
    /// also overwrites the operator values wholesale, completing the
    /// cold re-assembly.
    fn clear_poison(&mut self) {
        if self.poisoned {
            self.poisoned = false;
            self.precond = None;
            self.precond_stale = true;
            self.ws = KrylovWorkspace::new();
            self.x.clear();
        }
    }

    /// Sets the configured preconditioner up for the bound values, once
    /// per change of values or spec. A refused setup (a multigrid
    /// hierarchy the contraction guard turns away, IC(0) off SPD) is
    /// refused again without a retry until one of them changes; the
    /// fallback kept for a refused setup goes with the change.
    fn ensure_precond(&mut self) -> Result<(), NumError> {
        if self.precond.is_none() {
            self.precond = Some(self.opts.preconditioner.build());
            self.precond_stale = true;
        }
        if self.precond_stale {
            self.precond_stale = false;
            self.kept_fallback = None;
            let setup = self
                .precond
                .as_mut()
                .expect("preconditioner built above")
                .setup(&self.matrix);
            if let Err(e) = setup {
                self.precond_refused = Some(e.clone());
                return Err(e);
            }
            self.precond_refused = None;
            self.stats.precond_setups += 1;
        }
        match &self.precond_refused {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The rungs to attempt for this solve, in order. On a configured
    /// preconditioner whose setup failed (`precond_broken`), the clean
    /// and cold-restart attempts are unusable and the ladder starts
    /// directly at the fallback chain.
    fn ladder(&self, precond_broken: bool) -> Vec<RecoveryRung> {
        let mut rungs = Vec::with_capacity(6);
        if !precond_broken {
            rungs.push(RecoveryRung::Clean);
        }
        if self.policy.enabled {
            if !precond_broken {
                rungs.push(RecoveryRung::ColdRestart);
            }
            for spec in PrecondSpec::fallback_chain() {
                if spec != self.opts.preconditioner {
                    rungs.push(RecoveryRung::PrecondFallback(spec));
                }
            }
            if !precond_broken {
                rungs.push(RecoveryRung::WidenedBudget);
            }
        }
        rungs
    }

    fn solve_with(&mut self, b_is_internal: bool, spd: bool, b: &[f64]) -> Result<SolveStats, NumError> {
        if !self.is_bound() {
            return Err(NumError::InvalidInput("solve on an unbound session".into()));
        }
        if self.poisoned {
            return Err(NumError::InvalidInput(
                "solve on a poisoned session (load the operator to recover)".into(),
            ));
        }
        // A configured preconditioner whose setup collapses (IC(0) on an
        // operator that drifted off SPD) is itself recoverable through
        // the fallback chain; anything else is terminal.
        let mut precond_broken = false;
        if let Err(e) = self.ensure_precond() {
            let fallback_can_help = self.policy.enabled
                && matches!(e, NumError::Breakdown(_) | NumError::SingularMatrix { .. });
            if !fallback_can_help {
                return Err(e);
            }
            precond_broken = true;
        }

        // Fault-injection gates, sampled once per solve and applied to
        // the first attempt only (so the ladder can always recover).
        // No-ops unless a plan is armed; see `crate::faults`.
        let forced_breakdown = faults::inject(FaultSite::Breakdown);
        let truncated_budget = faults::inject(FaultSite::BudgetTruncation);
        let corrupt_state = faults::inject(FaultSite::NanCorruption);

        let mut last_err: Option<NumError> = if precond_broken {
            Some(NumError::Breakdown(
                "configured preconditioner setup failed".into(),
            ))
        } else {
            None
        };
        // A fallback kept from the last solve (only while the configured
        // setup stands refused) is tried first, warm, before the ladder.
        let mut kept = self.kept_fallback.take();
        let mut rungs = self.ladder(precond_broken);
        if let Some(m) = &kept {
            rungs.insert(0, RecoveryRung::PrecondFallback(m.spec()));
        }
        for rung in rungs {
            let first = matches!(rung, RecoveryRung::Clean);
            let mut fallback = kept.take_if(|m| rung == RecoveryRung::PrecondFallback(m.spec()));
            if !first {
                self.stats.recovery_retries += 1;
                // Every retry but the kept fallback's discards the
                // (possibly misleading) warm start and restarts cold.
                if fallback.is_none() {
                    self.x.clear();
                }
            }
            let mut opts = self.opts.clone();
            if truncated_budget && first {
                opts.max_iterations = 1;
            }
            match rung {
                RecoveryRung::PrecondFallback(spec) => {
                    self.stats.precond_fallbacks += 1;
                    if fallback.is_none() {
                        let mut m = spec.build();
                        if m.setup(&self.matrix).is_err() {
                            // E.g. IC(0) on a non-SPD operator: skip to
                            // the next, weaker rung.
                            continue;
                        }
                        self.stats.precond_setups += 1;
                        fallback = Some(m);
                    }
                }
                RecoveryRung::WidenedBudget => {
                    self.stats.budget_widenings += 1;
                    opts.max_iterations = self
                        .opts
                        .max_iterations
                        .saturating_mul(WIDEN_BUDGET_BY);
                }
                RecoveryRung::Clean | RecoveryRung::ColdRestart => {}
            }

            let result = if forced_breakdown && first {
                Err(NumError::Breakdown(
                    "injected rho breakdown (bright_num::faults)".into(),
                ))
            } else {
                // `b` aliases `self.rhs` on the in-place path; reborrow
                // it from the field so the borrow checker sees disjoint
                // fields.
                let rhs = if b_is_internal { &self.rhs } else { b };
                let m: &mut dyn Preconditioner = match fallback.as_mut() {
                    Some(m) => m.as_mut(),
                    None => self
                        .precond
                        .as_mut()
                        .expect("preconditioner ensured above")
                        .as_mut(),
                };
                if spd {
                    conjugate_gradient_preconditioned(
                        &self.matrix,
                        rhs,
                        &mut self.x,
                        &opts,
                        &mut self.ws,
                        m,
                    )
                } else {
                    bicgstab_preconditioned(
                        &self.matrix,
                        rhs,
                        &mut self.x,
                        &opts,
                        &mut self.ws,
                        m,
                    )
                }
            };

            match result {
                Ok(stats) => {
                    if corrupt_state && first {
                        if let Some(slot) = self.x.first_mut() {
                            *slot = f64::NAN;
                        }
                        self.ws.corrupt_residual();
                    }
                    if all_finite(&self.x) && self.ws.all_finite() {
                        self.last = stats;
                        self.stats.solves += 1;
                        self.stats.iterations += stats.iterations as u64;
                        if !first {
                            self.stats.recovered_solves += 1;
                        }
                        self.last_rung = rung;
                        if precond_broken {
                            self.kept_fallback = fallback;
                        }
                        if let Some(mg) =
                            self.precond.as_ref().and_then(|p| p.mg_counters())
                        {
                            self.stats.mg_hierarchy_builds = mg.hierarchy_builds;
                            self.stats.mg_refreshes = mg.value_refreshes;
                            self.stats.mg_cycles = mg.cycles;
                            self.stats.mg_levels = mg.levels;
                            self.stats.mg_coarse_rows = mg.coarse_rows;
                            self.stats.mg_smoother = mg.smoother;
                        }
                        return Ok(stats);
                    }
                    // The iterate converged but left non-finite state
                    // behind: treat it like a breakdown and keep
                    // climbing.
                    last_err = Some(NumError::Breakdown(
                        "post-solve validation found non-finite state".into(),
                    ));
                    self.x.clear();
                }
                Err(e @ (NumError::NotConverged { .. } | NumError::Breakdown(_))) => {
                    // A failed iterate must not become the next solve's
                    // warm start.
                    last_err = Some(e);
                    self.x.clear();
                }
                Err(e) => {
                    self.x.clear();
                    return Err(e);
                }
            }
        }

        // Ladder exhausted (or recovery disabled). If non-finite values
        // are still sitting in the scratch state, quarantine the session
        // until the owner loads the operator again.
        self.x.clear();
        if !self.ws.all_finite() {
            self.poisoned = true;
            self.stats.poisonings += 1;
        }
        Err(last_err.expect("at least one attempt ran"))
    }

    /// Solves `A·x = b` with preconditioned CG (SPD operators),
    /// warm-starting from the current solution vector. On success the
    /// solution is in [`SolverSession::solution`].
    ///
    /// # Errors
    ///
    /// As [`crate::solvers::conjugate_gradient`], plus
    /// [`NumError::InvalidInput`] on an unbound session.
    pub fn solve_spd(&mut self, b: &[f64]) -> Result<SolveStats, NumError> {
        self.solve_with(false, true, b)
    }

    /// Solves `A·x = b` with preconditioned BiCGSTAB (general
    /// operators); otherwise as [`SolverSession::solve_spd`].
    ///
    /// # Errors
    ///
    /// As [`crate::solvers::bicgstab`], plus [`NumError::InvalidInput`]
    /// on an unbound session.
    pub fn solve_general(&mut self, b: &[f64]) -> Result<SolveStats, NumError> {
        self.solve_with(false, false, b)
    }

    /// As [`SolverSession::solve_spd`], reading the RHS from the
    /// internal buffer filled via [`SolverSession::rhs_mut`].
    ///
    /// # Errors
    ///
    /// As [`SolverSession::solve_spd`].
    pub fn solve_spd_in_place(&mut self) -> Result<SolveStats, NumError> {
        self.solve_with(true, true, &[])
    }

    /// As [`SolverSession::solve_general`], reading the RHS from the
    /// internal buffer filled via [`SolverSession::rhs_mut`].
    ///
    /// # Errors
    ///
    /// As [`SolverSession::solve_general`].
    pub fn solve_general_in_place(&mut self) -> Result<SolveStats, NumError> {
        self.solve_with(true, false, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletMatrix;

    /// Stamps a 1-D conduction chain with link conductance `g`.
    fn chain(n: usize, g: f64) -> TripletMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 * g + 1.0).unwrap();
            if i > 0 {
                t.push(i, i - 1, -g).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -g).unwrap();
            }
        }
        t
    }

    #[test]
    fn bind_solve_and_warm_restart() {
        let n = 40;
        let t = chain(n, 1.0);
        let mut s = SolverSession::default();
        assert!(!s.is_bound());
        assert!(s.solve_spd(&vec![1.0; n]).is_err());

        s.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        assert!(s.is_bound());
        let b = vec![1.0; n];
        let cold = s.solve_spd(&b).unwrap();
        assert!(cold.relative_residual <= s.options().tolerance);
        assert!(cold.iterations > 0);
        // Same system again: the warm start converges immediately.
        let warm = s.solve_spd(&b).unwrap();
        assert!(warm.iterations <= 1, "warm took {}", warm.iterations);
        assert_eq!(s.stats().solves, 2);
        assert_eq!(
            s.stats().iterations,
            (cold.iterations + warm.iterations) as u64
        );
        assert_eq!(s.stats().binds, 1);
        assert_eq!(s.stats().precond_setups, 1);
    }

    #[test]
    fn load_shifted_binds_then_restamps_the_triplet_scatter_values() {
        // `G + diag(shift)` loaded through G's pattern equals, value for
        // value, the scatter of G's rows followed by the diagonal.
        let n = 12;
        let shifted = |g: &CsrMatrix, shift: &[f64]| {
            let mut t = TripletMatrix::new(n, n);
            for (i, s) in shift.iter().enumerate() {
                for (j, v) in g.row(i) {
                    t.push(i, j, v).unwrap();
                }
                t.push(i, i, *s).unwrap();
            }
            t.to_csr()
        };
        let g = chain(n, 1.0).to_csr();
        let shift: Vec<f64> = (0..n).map(|i| 0.1 * (i + 1) as f64).collect();
        let mut s = SolverSession::default();
        s.load_shifted(&g, &shift, 0).unwrap();
        assert!(s.is_bound());
        assert_eq!(s.matrix(), &shifted(&g, &shift));
        assert_eq!((s.stats().binds, s.stats().refreshes), (1, 0));

        let g2 = chain(n, 3.0).to_csr();
        let shift2: Vec<f64> = shift.iter().map(|v| v * 7.0).collect();
        s.load_shifted(&g2, &shift2, 1).unwrap();
        assert_eq!(s.matrix(), &shifted(&g2, &shift2));
        assert_eq!((s.stats().binds, s.stats().refreshes), (1, 1));
        assert_eq!(s.epoch(), 1);
        assert!(s.load_shifted(&g2, &shift2[1..], 2).is_err());
    }

    #[test]
    fn a_rejected_shifted_load_leaves_no_part_shifted_operator_current() {
        let n = 10;
        let g = chain(n, 1.0).to_csr();
        let shift: Vec<f64> = (0..n).map(|i| 0.5 + i as f64).collect();
        let b = vec![1.0; n];
        let mut s = SolverSession::default();
        s.load_shifted(&g, &shift, 0).unwrap();
        let (tag, held) = (s.operator_tag(), s.matrix().clone());
        // One shift short: refused, and the session holds the previous
        // shifted operator or none at all.
        assert!(s.load_shifted(&g, &shift[1..], 1).is_err());
        assert!(!s.is_current(tag, 1));
        if s.is_bound() {
            assert_eq!(s.matrix(), &held);
        } else {
            assert!(s.solve_general(&b).is_err());
        }
        // A row without a diagonal entry fails part-way through the
        // shift: an unbound session is not left holding the base.
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(1, 0, 1.0).unwrap();
        let mut fresh = SolverSession::default();
        assert!(fresh.load_shifted(&t.to_csr(), &[1.0, 1.0], 0).is_err());
        assert!(!fresh.is_bound());
        // The next good load serves the shifted operator again.
        s.load_shifted(&g, &shift, 2).unwrap();
        assert_eq!(s.matrix(), &held);
        s.solve_general(&b).unwrap();
    }

    #[test]
    fn load_is_a_no_op_a_value_copy_or_an_adoption() {
        let n = 16;
        let b = vec![1.0; n];
        let tag = next_operator_tag();
        let mut s = SolverSession::default();
        assert!(s.load(&chain(n, 1.0).to_csr(), 0, 0).is_err(), "tag 0");
        assert!(!s.is_bound());
        s.load(&chain(n, 1.0).to_csr(), tag, 0).unwrap();
        s.solve_spd(&b).unwrap();
        // Current already: nothing moves.
        s.load(&chain(n, 2.0).to_csr(), tag, 0).unwrap();
        assert_eq!(s.matrix(), &chain(n, 1.0).to_csr());
        assert_eq!((s.stats().binds, s.stats().refreshes), (1, 0));
        // The held tag at a new epoch: a value copy, warm start kept.
        s.load(&chain(n, 2.0).to_csr(), tag, 1).unwrap();
        assert_eq!(s.matrix(), &chain(n, 2.0).to_csr());
        assert_eq!((s.stats().binds, s.stats().refreshes), (1, 1));
        assert_eq!(s.solution().len(), n);
        // The held tag in another shape is refused, and the session
        // stays as it was.
        assert!(s.load(&chain(n + 1, 2.0).to_csr(), tag, 2).is_err());
        assert!(s.is_current(tag, 1));
        assert_eq!(s.matrix(), &chain(n, 2.0).to_csr());
        // Another tag: adopted, warm start dropped.
        let other = next_operator_tag();
        s.load(&chain(n + 1, 3.0).to_csr(), other, 0).unwrap();
        assert!(s.is_current(other, 0));
        assert_eq!((s.stats().binds, s.stats().refreshes), (2, 1));
        assert!(s.solution().is_empty());
    }

    #[test]
    fn refresh_values_updates_operator_and_precond() {
        let n = 30;
        let mut s = SolverSession::with_preconditioner(PrecondSpec::Ic0);
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        s.solve_spd(&b).unwrap();
        let x1: Vec<f64> = s.solution().to_vec();

        // New coefficients through the cached pattern.
        s.load(&chain(n, 5.0).to_csr(), s.operator_tag(), 1).unwrap();
        assert_eq!(s.epoch(), 1);
        s.solve_spd(&b).unwrap();
        let x2: Vec<f64> = s.solution().to_vec();
        // Stiffer chain → solution closer to b/diag, definitely different.
        assert!(x1.iter().zip(&x2).any(|(a, b)| (a - b).abs() > 1e-6));
        // Reference: a fresh session on the refreshed coefficients.
        let mut fresh = SolverSession::with_preconditioner(PrecondSpec::Ic0);
        fresh.load(&chain(n, 5.0).to_csr(), next_operator_tag(), 0).unwrap();
        fresh.solve_spd(&b).unwrap();
        for (a, b) in x2.iter().zip(fresh.solution()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        assert_eq!(s.stats().refreshes, 1);
        assert_eq!(s.stats().precond_setups, 2);
    }

    #[test]
    fn in_place_rhs_path_matches_external() {
        let n = 25;
        let t = chain(n, 2.0);
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut s1 = SolverSession::default();
        s1.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        s1.solve_general(&b).unwrap();
        let mut s2 = SolverSession::default();
        s2.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        s2.rhs_mut().extend_from_slice(&b);
        s2.solve_general_in_place().unwrap();
        for (a, c) in s1.solution().iter().zip(s2.solution()) {
            assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn clone_rebuilds_preconditioner_lazily() {
        let n = 20;
        let mut s = SolverSession::with_preconditioner(PrecondSpec::ssor());
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        s.solve_spd(&b).unwrap();
        let mut c = s.clone();
        // The clone carries the warm start, so it converges immediately —
        // after silently rebuilding its own preconditioner.
        let stats = c.solve_spd(&b).unwrap();
        assert!(stats.iterations <= 1);
        assert!(c.is_current(s.operator_tag(), s.epoch()));
    }

    #[test]
    fn currency_check_distinguishes_tag_and_epoch() {
        let mut s = SolverSession::default();
        s.load(&chain(8, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let tag = s.operator_tag();
        assert!(s.is_current(tag, 0));
        assert!(!s.is_current(tag + 1, 0));
        assert!(!s.is_current(tag, 3));
        s.load(&chain(8, 2.0).to_csr(), s.operator_tag(), 3).unwrap();
        assert!(s.is_current(tag, 3));
        // Unique tags.
        assert_ne!(next_operator_tag(), next_operator_tag());
    }

    #[test]
    fn failed_solve_drops_warm_start() {
        let n = 12;
        let mut s = SolverSession::new(IterOptions {
            max_iterations: 1,
            tolerance: 1e-14,
            preconditioner: PrecondSpec::Jacobi,
        });
        // Recovery off: this test pins the clean-path failure contract.
        s.set_recovery_policy(RecoveryPolicy::disabled());
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        assert!(s.solve_spd(&vec![1.0; n]).is_err());
        assert!(s.solution().is_empty());
        assert!(!s.poisoned(), "a finite non-converged iterate must not poison");
    }

    #[test]
    fn ladder_recovers_a_truncated_budget() {
        let n = 12;
        // Four Jacobi iterations at 1e-12 cannot converge; with the
        // ladder on, the IC(0) fallback rung (exact for a tridiagonal
        // chain) rescues the solve within the same budget.
        let mut s = SolverSession::new(IterOptions {
            max_iterations: 4,
            tolerance: 1e-12,
            preconditioner: PrecondSpec::Jacobi,
        });
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let stats = s.solve_spd(&vec![1.0; n]).unwrap();
        assert!(stats.relative_residual <= 1e-12);
        let session = s.stats();
        assert_eq!(session.recovered_solves, 1);
        assert!(session.recovery_retries >= 1);
        assert!(session.precond_fallbacks >= 1);
        assert_eq!(
            s.last_recovery(),
            RecoveryRung::PrecondFallback(PrecondSpec::Ic0)
        );
        assert!(s.last_recovery().describe().unwrap().contains("ic0"));
        // A recovered solve leaves the *configured* spec installed: the
        // next solve starts clean again.
        assert_eq!(s.options().preconditioner, PrecondSpec::Jacobi);
    }

    #[test]
    fn injected_breakdown_recovers_on_the_cold_restart_rung() {
        use crate::faults::{self, FaultPlan};
        let _serial = faults::test_serial_guard();
        let n = 24;
        let mut s = SolverSession::default();
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        let clean = {
            let mut reference = SolverSession::default();
            reference.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
            reference.solve_spd(&b).unwrap();
            reference.solution().to_vec()
        };
        // Breakdown injected on every solve opportunity: the clean
        // attempt fails synthetically, the cold restart succeeds.
        let plan = FaultPlan { seed: 0, breakdown: 1, ..FaultPlan::default() };
        faults::with_plan(Some(plan), || {
            s.solve_spd(&b).unwrap();
        });
        assert_eq!(s.stats().recovered_solves, 1);
        assert_eq!(s.last_recovery(), RecoveryRung::ColdRestart);
        for (a, c) in s.solution().iter().zip(&clean) {
            assert!((a - c).abs() < 1e-8);
        }
    }

    #[test]
    fn nan_injection_without_recovery_poisons_until_resync() {
        use crate::faults::{self, FaultPlan};
        let _serial = faults::test_serial_guard();
        let n = 16;
        let t = chain(n, 1.0);
        let mut s = SolverSession::default();
        s.set_recovery_policy(RecoveryPolicy::disabled());
        s.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        let tag = s.operator_tag();
        let plan = FaultPlan { seed: 0, nan: 1, ..FaultPlan::default() };
        faults::with_plan(Some(plan), || {
            assert!(s.solve_spd(&b).is_err());
        });
        assert!(s.poisoned());
        assert_eq!(s.stats().poisonings, 1);
        assert!(!s.is_current(tag, 0), "poisoned sessions are never current");
        // Solving while poisoned is refused even with faults gone.
        assert!(s.solve_spd(&b).is_err());
        // A value reload is a cold re-assembly: poison clears and the
        // result matches a fresh session bitwise.
        s.load(&t.to_csr(), s.operator_tag(), 1).unwrap();
        assert!(!s.poisoned());
        s.solve_spd(&b).unwrap();
        let mut fresh = SolverSession::default();
        fresh.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        fresh.solve_spd(&b).unwrap();
        let got: Vec<u64> = s.solution().iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = fresh.solution().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn broken_configured_preconditioner_falls_back() {
        // A non-SPD operator breaks the configured IC(0) setup; the
        // ladder serves the solve through a fallback instead.
        let n = 20;
        // tridiag(-5, 4, -0.5): real positive spectrum (fine for
        // BiCGSTAB), but the IC(0) pivot goes negative on row 1
        // (4 - (5/2)² < 0), so the configured setup breaks down.
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 4.0).unwrap();
            if i > 0 {
                t.push(i, i - 1, -5.0).unwrap();
            }
            if i + 1 < n {
                t.push(i, i + 1, -0.5).unwrap();
            }
        }
        let mut s = SolverSession::with_preconditioner(PrecondSpec::Ic0);
        s.load(&t.to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        let stats = s.solve_general(&b).unwrap();
        assert!(stats.relative_residual <= s.options().tolerance);
        assert_eq!(s.stats().recovered_solves, 1);
        assert!(matches!(s.last_recovery(), RecoveryRung::PrecondFallback(_)));
    }

    #[test]
    fn injected_breakdown_recovers_through_the_mg_rung() {
        use crate::faults::{self, FaultPlan};
        use crate::multigrid::MgConfig;
        let _serial = faults::test_serial_guard();
        let n = 24;
        let spec = PrecondSpec::Multigrid(MgConfig::for_grid(n, 1, 1));
        let mut s = SolverSession::with_preconditioner(spec);
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        // Breakdown injected on the first attempt only: the clean MG
        // attempt fails synthetically, the cold restart (still MG)
        // succeeds — MG never falls back to itself, and the fallback
        // chain below it is the usual IC(0) → SSOR → Jacobi.
        let plan = FaultPlan { seed: 0, breakdown: 1, ..FaultPlan::default() };
        faults::with_plan(Some(plan), || {
            s.solve_spd(&b).unwrap();
        });
        assert_eq!(s.stats().recovered_solves, 1);
        assert_eq!(s.last_recovery(), RecoveryRung::ColdRestart);
        assert_eq!(s.options().preconditioner, spec);
        assert!(
            PrecondSpec::fallback_chain().iter().all(|f| *f != spec),
            "multigrid must not appear in its own fallback chain"
        );
    }

    #[test]
    fn mg_geometry_mismatch_falls_back_down_the_chain() {
        use crate::multigrid::MgConfig;
        let n = 20;
        // Config names a grid twice the operator's size: MG setup is a
        // recoverable Breakdown, so the ladder starts at the fallback
        // chain and the solve still lands.
        let spec = PrecondSpec::Multigrid(MgConfig::for_grid(2 * n, 1, 1));
        let mut s = SolverSession::with_preconditioner(spec);
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        let stats = s.solve_spd(&b).unwrap();
        assert!(stats.relative_residual <= s.options().tolerance);
        assert_eq!(s.stats().recovered_solves, 1);
        assert!(matches!(s.last_recovery(), RecoveryRung::PrecondFallback(_)));
    }

    #[test]
    fn mg_counters_surface_in_session_stats() {
        use crate::multigrid::MgConfig;
        let n = 48;
        let spec = PrecondSpec::Multigrid(MgConfig::for_grid(n, 1, 1));
        let mut s = SolverSession::with_preconditioner(spec);
        s.load(&chain(n, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        s.solve_spd(&b).unwrap();
        assert_eq!(s.stats().mg_hierarchy_builds, 1);
        assert_eq!(s.stats().mg_refreshes, 0);
        assert!(s.stats().mg_levels >= 1);
        // Coefficient retarget through the cached pattern: the MG
        // hierarchy refreshes in place, no rebuild.
        s.load(&chain(n, 3.0).to_csr(), s.operator_tag(), 1).unwrap();
        s.solve_spd(&b).unwrap();
        assert_eq!(s.stats().mg_hierarchy_builds, 1);
        assert_eq!(s.stats().mg_refreshes, 1);
        assert!(s.stats().mg_cycles > 0);
        let digest = s.precond_digest();
        assert!(digest.starts_with("mg("), "{digest}");
        // Non-MG sessions report the plain spec name.
        let mut plain = SolverSession::default();
        plain.load(&chain(8, 1.0).to_csr(), next_operator_tag(), 0).unwrap();
        plain.solve_spd(&[1.0; 8]).unwrap();
        assert_eq!(plain.precond_digest(), "jacobi");
        assert_eq!(plain.stats().mg_digest(), None);
    }

    #[test]
    fn preconditioner_swap_takes_effect() {
        let n = 50;
        let mut s = SolverSession::with_preconditioner(PrecondSpec::Jacobi);
        s.load(&chain(n, 10.0).to_csr(), next_operator_tag(), 0).unwrap();
        let b = vec![1.0; n];
        let jac = s.solve_spd(&b).unwrap();
        s.set_preconditioner(PrecondSpec::Ic0);
        s.reset_warm_start();
        let ic0 = s.solve_spd(&b).unwrap();
        assert!(ic0.iterations < jac.iterations, "{} vs {}", ic0.iterations, jac.iterations);
        assert_eq!(s.stats().precond_setups, 2);
    }
}
