//! Multi-tenant identity, priority classes, and per-tenant rate limits.
//!
//! Every [`Request`](crate::Request) carries a [`Tenancy`]: which tenant
//! submitted it and which [`PriorityClass`] it rides in. The service
//! config holds a [`TenancyConfig`] mapping tenants to fairness weights
//! and optional token-bucket quotas; admission consults a [`QuotaBook`]
//! built from that config, and the worker pool's scheduler
//! (`sched::TenantScheduler`) uses the weights for deterministic
//! weighted-fair round-robin within each class.
//!
//! # Clocks
//!
//! Token buckets refill on wall-clock time by default. For deterministic
//! replay (the trace-replay harness, tests) the service's single virtual
//! clock (`ServiceConfig::virtual_time`) builds the book in virtual mode
//! and drives the bucket clock explicitly via [`QuotaBook::advance_ms`]
//! — refill then becomes a pure function of the replayed schedule, so
//! two identical runs reject the exact same requests.

use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// A tenant identity. Tenant 0 is the anonymous/default tenant that
/// un-labelled requests (and v1 wire peers) fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TenantId(pub u32);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Strictly-ordered priority classes. The scheduler always serves a
/// higher class before a lower one; the refine lane sits below all
/// three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PriorityClass {
    /// Latency-sensitive interactive traffic; served first.
    Interactive,
    /// The default class for ordinary requests.
    #[default]
    Standard,
    /// Throughput-oriented background work; served only when the two
    /// classes above are drained.
    Batch,
}

impl PriorityClass {
    /// All classes, highest priority first — the scheduler's scan order.
    pub const ALL: [PriorityClass; 3] = [
        PriorityClass::Interactive,
        PriorityClass::Standard,
        PriorityClass::Batch,
    ];

    /// Dense index for per-class arrays: Interactive = 0, Batch = 2.
    pub fn index(self) -> usize {
        match self {
            PriorityClass::Interactive => 0,
            PriorityClass::Standard => 1,
            PriorityClass::Batch => 2,
        }
    }

    /// Stable lowercase name used in metrics and bench output.
    pub fn name(self) -> &'static str {
        match self {
            PriorityClass::Interactive => "interactive",
            PriorityClass::Standard => "standard",
            PriorityClass::Batch => "batch",
        }
    }
}

impl fmt::Display for PriorityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Who a request belongs to and how urgently it should be served.
/// Defaults to the anonymous tenant in the standard class, so existing
/// single-tenant callers keep their behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Tenancy {
    /// Owning tenant.
    pub tenant: TenantId,
    /// Priority class within that tenant.
    pub class: PriorityClass,
}

impl Tenancy {
    /// Tenancy for `tenant` in the default (standard) class.
    pub fn tenant(id: u32) -> Self {
        Tenancy {
            tenant: TenantId(id),
            class: PriorityClass::default(),
        }
    }

    /// Tenancy for `tenant` in `class`.
    pub fn with_class(id: u32, class: PriorityClass) -> Self {
        Tenancy {
            tenant: TenantId(id),
            class,
        }
    }
}

/// A token-bucket rate limit: sustained `rate_per_s` with bursts up to
/// `burst` tokens. Each admitted request costs one token.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuota {
    /// Sustained refill rate, tokens per second.
    pub rate_per_s: f64,
    /// Bucket capacity — the largest burst admitted from a full bucket.
    pub burst: f64,
}

/// Per-tenant scheduling weight and optional admission quota.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Weighted-fair share: a tenant with weight `w` gets up to `w`
    /// consecutive dequeues per round-robin turn within its class.
    pub weight: u32,
    /// Admission rate limit; `None` means unlimited.
    pub quota: Option<TenantQuota>,
}

impl Default for TenantSpec {
    fn default() -> Self {
        TenantSpec {
            weight: 1,
            quota: None,
        }
    }
}

/// Tenancy policy for a service: a default spec for unknown tenants
/// plus per-tenant overrides.
#[derive(Debug, Clone, Default)]
pub struct TenancyConfig {
    /// Spec applied to tenants without an explicit entry.
    pub default_spec: TenantSpec,
    /// Per-tenant overrides.
    pub tenants: BTreeMap<TenantId, TenantSpec>,
}

impl TenancyConfig {
    /// The spec governing `tenant` (explicit entry or the default).
    pub fn spec(&self, tenant: TenantId) -> TenantSpec {
        self.tenants
            .get(&tenant)
            .copied()
            .unwrap_or(self.default_spec)
    }

    /// Convenience: the fairness weight for `tenant`.
    pub fn weight(&self, tenant: TenantId) -> u32 {
        self.spec(tenant).weight
    }

    /// Rejects specs the scheduler or bucket math cannot honor: zero
    /// weights (the round-robin turn would serve nothing) and
    /// non-finite or non-positive rates, or bursts below one token
    /// (no single request could ever be admitted).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first invalid spec.
    pub fn validate(&self) -> Result<(), String> {
        let check = |who: &str, spec: &TenantSpec| -> Result<(), String> {
            if spec.weight == 0 {
                return Err(format!("{who}: weight must be >= 1"));
            }
            if let Some(q) = spec.quota {
                if !q.rate_per_s.is_finite() || q.rate_per_s <= 0.0 {
                    return Err(format!(
                        "{who}: quota rate_per_s {} must be finite and > 0",
                        q.rate_per_s
                    ));
                }
                if !q.burst.is_finite() || q.burst < 1.0 {
                    return Err(format!(
                        "{who}: quota burst {} must be finite and >= 1",
                        q.burst
                    ));
                }
            }
            Ok(())
        };
        check("default tenant spec", &self.default_spec)?;
        for (tenant, spec) in &self.tenants {
            check(&format!("tenant {tenant}"), spec)?;
        }
        Ok(())
    }
}

/// One tenant's live token bucket.
#[derive(Debug)]
struct Bucket {
    /// Tokens currently available (fractional between refills).
    tokens: f64,
    /// Clock reading of the last refill (see [`QuotaBook::now_ms`]).
    last_ms: f64,
}

/// Live admission state: lazily-created token buckets per tenant,
/// refilled from wall or virtual time.
///
/// Callers hold this behind the service queue lock, so the methods take
/// `&mut self` and do no internal locking.
#[derive(Debug)]
pub struct QuotaBook {
    config: TenancyConfig,
    buckets: BTreeMap<TenantId, Bucket>,
    /// Creation instant of a wall-clock book; `None` runs the book on
    /// the virtual clock alone.
    wall_start: Option<Instant>,
    /// The virtual clock, in milliseconds since book creation.
    virtual_now_ms: f64,
}

impl QuotaBook {
    /// A book enforcing `config`, refilling from wall time or, with
    /// `virtual_time`, only from [`Self::advance_ms`]. Buckets start full
    /// and are created on a tenant's first request.
    pub fn new(config: TenancyConfig, virtual_time: bool) -> Self {
        QuotaBook {
            config,
            buckets: BTreeMap::new(),
            wall_start: (!virtual_time).then(Instant::now),
            virtual_now_ms: 0.0,
        }
    }

    /// Advances the virtual clock by `ms`. No-op in wall mode.
    pub fn advance_ms(&mut self, ms: f64) {
        if ms.is_finite() && ms > 0.0 {
            self.virtual_now_ms += ms;
        }
    }

    /// Milliseconds since book creation on the book's clock.
    fn now_ms(&self) -> f64 {
        self.wall_start.map_or(self.virtual_now_ms, |start| {
            start.elapsed().as_secs_f64() * 1000.0
        })
    }

    /// Takes one token from `tenant`'s bucket.
    ///
    /// # Errors
    ///
    /// `Err(retry_after_ms)` when the bucket is empty: the time until
    /// one full token will have refilled, rounded up, at least 1 ms.
    pub fn try_take(&mut self, tenant: TenantId) -> Result<(), u64> {
        let Some(quota) = self.config.spec(tenant).quota else {
            return Ok(());
        };
        let now_ms = self.now_ms();
        let bucket = self.buckets.entry(tenant).or_insert(Bucket {
            tokens: quota.burst,
            last_ms: now_ms,
        });
        let elapsed_ms = (now_ms - bucket.last_ms).max(0.0);
        bucket.last_ms = now_ms;
        bucket.tokens = (bucket.tokens + elapsed_ms * quota.rate_per_s / 1000.0).min(quota.burst);
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let retry_ms = (deficit * 1000.0 / quota.rate_per_s).ceil() as u64;
            Err(retry_ms.max(1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limited(rate_per_s: f64, burst: f64) -> TenancyConfig {
        TenancyConfig {
            default_spec: TenantSpec {
                weight: 1,
                quota: Some(TenantQuota { rate_per_s, burst }),
            },
            tenants: BTreeMap::new(),
        }
    }

    #[test]
    fn unlimited_tenant_always_admitted() {
        let mut book = QuotaBook::new(TenancyConfig::default(), true);
        for _ in 0..10_000 {
            assert_eq!(book.try_take(TenantId(7)), Ok(()));
        }
    }

    #[test]
    fn burst_then_reject_then_refill() {
        let mut book = QuotaBook::new(limited(10.0, 3.0), true);
        let t = TenantId(1);
        assert_eq!(book.try_take(t), Ok(()));
        assert_eq!(book.try_take(t), Ok(()));
        assert_eq!(book.try_take(t), Ok(()));
        // Bucket empty; 10/s means one token per 100 ms.
        let retry = book.try_take(t).unwrap_err();
        assert_eq!(retry, 100);
        book.advance_ms(50.0);
        assert_eq!(book.try_take(t).unwrap_err(), 50);
        book.advance_ms(50.0);
        assert_eq!(book.try_take(t), Ok(()));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut book = QuotaBook::new(limited(1000.0, 2.0), true);
        let t = TenantId(2);
        assert_eq!(book.try_take(t), Ok(()));
        book.advance_ms(3_600_000.0);
        // An hour refills to the 2-token cap, not 3.6M tokens.
        assert_eq!(book.try_take(t), Ok(()));
        assert_eq!(book.try_take(t), Ok(()));
        assert!(book.try_take(t).is_err());
    }

    #[test]
    fn buckets_are_per_tenant() {
        let mut book = QuotaBook::new(limited(1.0, 1.0), true);
        assert_eq!(book.try_take(TenantId(1)), Ok(()));
        assert!(book.try_take(TenantId(1)).is_err());
        // Tenant 2's bucket is untouched.
        assert_eq!(book.try_take(TenantId(2)), Ok(()));
    }

    #[test]
    fn virtual_replay_rejects_identically() {
        let run = || {
            let mut book = QuotaBook::new(limited(20.0, 2.0), true);
            let mut outcomes = Vec::new();
            for step in 0..50u32 {
                book.advance_ms(17.0);
                outcomes.push(book.try_take(TenantId(0)).is_ok());
                if step % 3 == 0 {
                    outcomes.push(book.try_take(TenantId(0)).is_ok());
                }
            }
            outcomes
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut cfg = TenancyConfig::default();
        cfg.default_spec.weight = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = TenancyConfig::default();
        cfg.tenants.insert(
            TenantId(3),
            TenantSpec {
                weight: 2,
                quota: Some(TenantQuota {
                    rate_per_s: 0.0,
                    burst: 5.0,
                }),
            },
        );
        assert!(cfg.validate().is_err());

        let mut cfg = TenancyConfig::default();
        cfg.tenants.insert(
            TenantId(3),
            TenantSpec {
                weight: 2,
                quota: Some(TenantQuota {
                    rate_per_s: 10.0,
                    burst: 0.5,
                }),
            },
        );
        assert!(cfg.validate().is_err());

        assert!(TenancyConfig::default().validate().is_ok());
    }

    #[test]
    fn class_order_is_strict() {
        assert!(PriorityClass::Interactive < PriorityClass::Standard);
        assert!(PriorityClass::Standard < PriorityClass::Batch);
        assert_eq!(PriorityClass::ALL[0], PriorityClass::Interactive);
        assert_eq!(format!("{}", TenantId(4)), "t4");
        assert_eq!(format!("{}", PriorityClass::Batch), "batch");
    }
}
