//! Deadline propagation and cooperative cancellation.
//!
//! A [`Deadline`] is a shared, cheaply-cloneable handle carrying a time
//! budget and a [`CancelToken`]. It is created where a request enters the
//! system (the service's submit path, a harness, a test) and threaded
//! down through the retry layer and the mask search, which *check* it at
//! their natural yield points — between retry attempts, between
//! neighborhoods, between decoy batches — and stop early instead of
//! doing work nobody will wait for.
//!
//! # Virtual vs wall time
//!
//! Two clocks feed a deadline. *Charged* (virtual) time is added
//! explicitly via [`Deadline::charge_ms`] — the resilient executor
//! charges every backoff delay whether or not it actually sleeps. *Wall*
//! time is the real elapsed time since the deadline was created.
//! [`Deadline::within_ms`] counts both; [`Deadline::virtual_only`]
//! counts only charged time, making expiry a pure function of the seeded
//! execution schedule — the determinism mode used by tests and the chaos
//! harness, where two identical runs must cancel at the same points.

use crate::executor::ExecError;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Process-wide anchor so wall-clock deadlines created at different
/// moments still compare on one absolute axis (see
/// [`Deadline::edf_key_us`]).
fn process_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// A shared cancellation flag. Cloning hands out another handle to the
/// *same* flag: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

#[derive(Debug)]
struct DeadlineInner {
    /// Wall-clock anchor (only consulted when `wall` is set).
    start: Instant,
    /// Total budget in milliseconds; `None` means unbounded.
    budget_ms: Option<u64>,
    /// Count real elapsed time toward the budget.
    wall: bool,
    /// Explicitly charged (virtual) time, in microseconds.
    charged_us: AtomicU64,
    token: CancelToken,
}

/// A time budget plus cancellation flag, threaded through an execution.
///
/// Cloning is cheap and shares state: all clones see the same charged
/// time and the same cancellation flag.
///
/// # Examples
///
/// ```
/// use machine::{Deadline, ExecError};
///
/// let d = Deadline::virtual_only(50);
/// assert!(d.check().is_ok());
/// d.charge_ms(60.0);
/// assert!(matches!(
///     d.check(),
///     Err(ExecError::DeadlineExceeded { budget_ms: 50, .. })
/// ));
/// ```
#[derive(Debug, Clone)]
pub struct Deadline(Arc<DeadlineInner>);

impl Default for Deadline {
    fn default() -> Self {
        Deadline::none()
    }
}

impl Deadline {
    fn build(budget_ms: Option<u64>, wall: bool) -> Self {
        Deadline(Arc::new(DeadlineInner {
            start: Instant::now(),
            budget_ms,
            wall,
            charged_us: AtomicU64::new(0),
            token: CancelToken::new(),
        }))
    }

    /// An unbounded deadline (still cancellable via its token).
    pub fn none() -> Self {
        Self::build(None, false)
    }

    /// A deadline of `budget_ms` counting both wall-clock elapsed time
    /// and charged virtual time.
    pub fn within_ms(budget_ms: u64) -> Self {
        Self::build(Some(budget_ms), true)
    }

    /// A deadline of `budget_ms` counting *only* charged virtual time —
    /// expiry is then a pure function of the seeded execution schedule,
    /// independent of host speed and scheduling.
    pub fn virtual_only(budget_ms: u64) -> Self {
        Self::build(Some(budget_ms), false)
    }

    /// The budget, if bounded.
    pub fn budget_ms(&self) -> Option<u64> {
        self.0.budget_ms
    }

    /// Adds `ms` of virtual time (e.g. a backoff delay that was charged
    /// rather than slept). Negative or non-finite charges are ignored.
    /// Charges are quantized to whole microseconds.
    pub fn charge_ms(&self, ms: f64) {
        if ms.is_finite() && ms > 0.0 {
            self.charge_us((ms * 1000.0) as u64);
        }
    }

    /// Adds `us` microseconds of virtual time.
    pub fn charge_us(&self, us: u64) {
        self.0.charged_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Elapsed time counted against the budget, in milliseconds:
    /// charged virtual time, plus wall-clock time for wall deadlines.
    pub fn elapsed_ms(&self) -> u64 {
        let charged = self.0.charged_us.load(Ordering::Relaxed) / 1000;
        let wall = if self.0.wall {
            self.0.start.elapsed().as_millis() as u64
        } else {
            0
        };
        charged + wall
    }

    /// Budget left, in milliseconds. `None` when unbounded; saturates
    /// at 0 once expired.
    pub fn remaining_ms(&self) -> Option<u64> {
        self.0
            .budget_ms
            .map(|b| b.saturating_sub(self.elapsed_ms()))
    }

    /// Budget left at sub-millisecond precision — what backoff clamping
    /// uses, so fractional charges can never sum past the budget.
    pub fn remaining_ms_f64(&self) -> Option<f64> {
        self.0.budget_ms.map(|b| {
            let charged = self.0.charged_us.load(Ordering::Relaxed) as f64 / 1000.0;
            let wall = if self.0.wall {
                self.0.start.elapsed().as_secs_f64() * 1000.0
            } else {
                0.0
            };
            (b as f64 - charged - wall).max(0.0)
        })
    }

    /// An earliest-deadline-first sort key in microseconds: smaller
    /// means more urgent. Unbounded deadlines sort last (`u64::MAX`).
    ///
    /// Wall deadlines map to their absolute expiry instant on a
    /// process-wide axis (creation time + budget − already-charged
    /// virtual time), so two requests admitted at different moments
    /// compare by *when they will actually expire*, not by raw budget
    /// size. Virtual-only deadlines have no meaningful wall anchor;
    /// their key is the remaining virtual budget, which is a pure
    /// function of the schedule and keeps replay-mode EDF
    /// deterministic.
    pub fn edf_key_us(&self) -> u64 {
        let Some(budget_ms) = self.0.budget_ms else {
            return u64::MAX;
        };
        let budget_us = budget_ms.saturating_mul(1000);
        let charged_us = self.0.charged_us.load(Ordering::Relaxed);
        if self.0.wall {
            let created_us = self
                .0
                .start
                .saturating_duration_since(process_epoch())
                .as_micros() as u64;
            created_us
                .saturating_add(budget_us)
                .saturating_sub(charged_us)
        } else {
            budget_us.saturating_sub(charged_us)
        }
    }

    /// Whether the budget has been used up (never true when unbounded).
    pub fn expired(&self) -> bool {
        self.remaining_ms() == Some(0) && self.0.budget_ms.is_some()
    }

    /// Raises the cancellation flag on every clone of this deadline.
    pub fn cancel(&self) {
        self.0.token.cancel();
    }

    /// Whether the cancellation flag has been raised.
    pub fn cancelled(&self) -> bool {
        self.0.token.is_cancelled()
    }

    /// A handle to the shared cancellation flag.
    pub fn token(&self) -> CancelToken {
        self.0.token.clone()
    }

    /// The cooperative check: `Err(Cancelled)` if the flag is raised,
    /// `Err(DeadlineExceeded)` if the budget is used up, `Ok` otherwise.
    /// Layers call this at their yield points and stop early on `Err`.
    pub fn check(&self) -> Result<(), ExecError> {
        if self.cancelled() {
            return Err(ExecError::Cancelled);
        }
        if let Some(budget_ms) = self.0.budget_ms {
            let elapsed_ms = self.elapsed_ms();
            if elapsed_ms >= budget_ms {
                return Err(ExecError::DeadlineExceeded {
                    elapsed_ms,
                    budget_ms,
                });
            }
        }
        Ok(())
    }
}

/// The in-band wire form of a [`Deadline`]: the total budget plus the
/// time already counted against it on the sending side. Carrying both
/// (rather than a pre-subtracted remainder) keeps the receiving side's
/// `DeadlineExceeded { elapsed_ms, budget_ms }` errors meaningful
/// end-to-end — the numbers a downstream shard reports refer to the
/// *request's* budget, not to whatever slice of it crossed the hop.
/// Both fields are whole milliseconds, so the fleet wire carries them
/// as two `u64`s with no lossy unit conversion.
///
/// # Examples
///
/// ```
/// use machine::{Deadline, WireDeadline};
///
/// let upstream = Deadline::virtual_only(100);
/// upstream.charge_ms(30.0);
/// let wire = WireDeadline::capture(&upstream);
/// assert_eq!(wire.remaining_ms(), Some(70));
/// let downstream = wire.rebuild(true);
/// assert_eq!(downstream.budget_ms(), Some(100));
/// assert_eq!(downstream.remaining_ms(), Some(70));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireDeadline {
    /// Total budget in milliseconds; `None` means unbounded.
    pub budget_ms: Option<u64>,
    /// Time already counted against the budget upstream, in ms.
    pub elapsed_ms: u64,
}

impl WireDeadline {
    /// An unbounded deadline (nothing charged).
    pub fn unbounded() -> Self {
        WireDeadline {
            budget_ms: None,
            elapsed_ms: 0,
        }
    }

    /// A fresh bounded budget with nothing charged yet — what a client
    /// that never built a local [`Deadline`] sends.
    pub fn fresh(budget_ms: Option<u64>) -> Self {
        WireDeadline {
            budget_ms,
            elapsed_ms: 0,
        }
    }

    /// Snapshot a live deadline for the wire: its budget and whatever
    /// wall/virtual time it has already consumed.
    pub fn capture(deadline: &Deadline) -> Self {
        WireDeadline {
            budget_ms: deadline.budget_ms(),
            elapsed_ms: deadline.elapsed_ms(),
        }
    }

    /// Budget left after the upstream spend, saturating at 0. `None`
    /// when unbounded.
    pub fn remaining_ms(&self) -> Option<u64> {
        self.budget_ms.map(|b| b.saturating_sub(self.elapsed_ms))
    }

    /// Whether the budget was already gone when it was captured.
    pub fn expired(&self) -> bool {
        self.remaining_ms() == Some(0)
    }

    /// Rebuild a live deadline on the receiving side: same total budget,
    /// with the sender's elapsed time pre-charged, so every upstream hop
    /// shrinks the downstream budget. `virtual_only` selects the
    /// receiving clock ([`Deadline::virtual_only`] vs
    /// [`Deadline::within_ms`]).
    pub fn rebuild(&self, virtual_only: bool) -> Deadline {
        let d = match (self.budget_ms, virtual_only) {
            (None, _) => Deadline::none(),
            (Some(b), true) => Deadline::virtual_only(b),
            (Some(b), false) => Deadline::within_ms(b),
        };
        if self.budget_ms.is_some() && self.elapsed_ms > 0 {
            d.charge_us(self.elapsed_ms * 1000);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_deadline_never_expires() {
        let d = Deadline::none();
        d.charge_ms(1e12);
        assert!(!d.expired());
        assert!(d.check().is_ok());
        assert_eq!(d.remaining_ms(), None);
    }

    #[test]
    fn virtual_deadline_expires_exactly_on_charged_time() {
        let d = Deadline::virtual_only(100);
        d.charge_ms(99.0);
        assert!(d.check().is_ok());
        assert_eq!(d.remaining_ms(), Some(1));
        d.charge_ms(1.0);
        assert!(d.expired());
        let err = d.check().unwrap_err();
        assert_eq!(
            err,
            ExecError::DeadlineExceeded {
                elapsed_ms: 100,
                budget_ms: 100
            }
        );
        assert!(!err.is_transient());
    }

    #[test]
    fn zero_budget_is_born_expired() {
        let d = Deadline::virtual_only(0);
        assert!(d.expired());
        assert!(matches!(
            d.check(),
            Err(ExecError::DeadlineExceeded {
                elapsed_ms: 0,
                budget_ms: 0
            })
        ));
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let d = Deadline::within_ms(1_000_000);
        let clone = d.clone();
        let token = d.token();
        assert!(clone.check().is_ok());
        token.cancel();
        assert!(d.cancelled() && clone.cancelled());
        assert_eq!(clone.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn charges_are_shared_across_clones() {
        let d = Deadline::virtual_only(10);
        let clone = d.clone();
        clone.charge_ms(10.0);
        assert!(d.expired());
    }

    #[test]
    fn negative_and_nan_charges_are_ignored() {
        let d = Deadline::virtual_only(10);
        d.charge_ms(-5.0);
        d.charge_ms(f64::NAN);
        assert_eq!(d.elapsed_ms(), 0);
    }

    #[test]
    fn wall_deadline_counts_real_time() {
        let d = Deadline::within_ms(1);
        std::thread::sleep(std::time::Duration::from_millis(3));
        assert!(d.expired());
    }

    #[test]
    fn edf_key_orders_tighter_budgets_first() {
        let tight = Deadline::virtual_only(50);
        let loose = Deadline::virtual_only(5_000);
        let unbounded = Deadline::none();
        assert!(tight.edf_key_us() < loose.edf_key_us());
        assert!(loose.edf_key_us() < unbounded.edf_key_us());
        assert_eq!(unbounded.edf_key_us(), u64::MAX);
        // Wall deadlines land on the same absolute axis: one created now
        // with a tight budget beats one created now with a loose budget.
        let wall_tight = Deadline::within_ms(50);
        let wall_loose = Deadline::within_ms(5_000);
        assert!(wall_tight.edf_key_us() < wall_loose.edf_key_us());
    }

    #[test]
    fn edf_key_is_schedule_pure_for_virtual_deadlines() {
        let d = Deadline::virtual_only(100);
        assert_eq!(d.edf_key_us(), 100_000);
        d.charge_ms(40.0);
        assert_eq!(d.edf_key_us(), 60_000);
        d.charge_ms(100.0);
        assert_eq!(d.edf_key_us(), 0);
    }

    #[test]
    fn wire_deadline_propagates_upstream_spend() {
        let upstream = Deadline::virtual_only(100);
        upstream.charge_ms(40.0);
        let wire = WireDeadline::capture(&upstream);
        assert_eq!(wire.remaining_ms(), Some(60));
        let downstream = wire.rebuild(true);
        assert_eq!(downstream.budget_ms(), Some(100));
        assert_eq!(downstream.remaining_ms(), Some(60));
        // Spending the rest downstream reports against the original budget.
        downstream.charge_ms(60.0);
        assert!(matches!(
            downstream.check(),
            Err(ExecError::DeadlineExceeded {
                elapsed_ms: 100,
                budget_ms: 100
            })
        ));
    }

    #[test]
    fn wire_deadline_born_expired_stays_expired() {
        let wire = WireDeadline {
            budget_ms: Some(10),
            elapsed_ms: 10,
        };
        assert!(wire.expired());
        assert!(wire.rebuild(true).expired());
    }
}
