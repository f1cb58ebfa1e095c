//! Per-client token-bucket rate limiting.
//!
//! One bucket per client IP: `capacity` tokens of burst, refilled at
//! `capacity` tokens per second. A request costs one token; an empty
//! bucket means 429 with a `Retry-After` hint (whole seconds, at least
//! 1, per RFC 9110). `GET /healthz` is exempted by the caller so fleet
//! health probes can never be throttled into a false outage.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::http::{Request, Response};
use crate::metrics::Counter;

/// Bound on distinct client IPs tracked; beyond it, stale buckets (full
/// ones first — they carry no throttling state worth keeping) are
/// evicted so an address-rotating client cannot grow the map without
/// bound.
const MAX_TRACKED_CLIENTS: usize = 8192;

/// Minimum spacing between full-map eviction scans. The scan is O(map)
/// under the global mutex; without this floor, an address-rotating
/// flood that keeps the map full would trigger it per request and the
/// growth guard would itself become the contention bottleneck. Between
/// scans, requests from untracked clients on a full map are simply
/// throttled — the correct degradation under that kind of flood.
const PURGE_INTERVAL: Duration = Duration::from_secs(1);

/// The bucket key used when a request carries no peer address (requests
/// built in-process); they all share one bucket rather than bypassing
/// the limiter.
pub const ANONYMOUS_CLIENT: IpAddr = IpAddr::V4(Ipv4Addr::UNSPECIFIED);

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// The mutex-guarded interior: the per-client buckets plus the eviction
/// throttle state.
struct Buckets {
    map: HashMap<IpAddr, Bucket>,
    last_purge: Option<Instant>,
}

/// A thread-safe token-bucket limiter keyed by client IP.
pub struct RateLimiter {
    capacity: f64,
    refill_per_sec: f64,
    buckets: Mutex<Buckets>,
}

impl std::fmt::Debug for RateLimiter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RateLimiter")
            .field("capacity", &self.capacity)
            .field("refill_per_sec", &self.refill_per_sec)
            .finish()
    }
}

impl RateLimiter {
    /// A limiter allowing `per_second` sustained requests per second per
    /// client, with a burst of the same size.
    pub fn new(per_second: u32) -> Self {
        let rate = f64::from(per_second.max(1));
        Self {
            capacity: rate,
            refill_per_sec: rate,
            buckets: Mutex::new(Buckets {
                map: HashMap::new(),
                last_purge: None,
            }),
        }
    }

    /// Takes one token from `client`'s bucket. `Err(retry_after)` (whole
    /// seconds, >= 1) means the client is over its budget.
    pub fn try_acquire(&self, client: IpAddr) -> Result<(), u64> {
        let now = Instant::now();
        let mut buckets = self.buckets.lock();
        if buckets.map.len() >= MAX_TRACKED_CLIENTS && !buckets.map.contains_key(&client) {
            // The scan is amortized: at most one per PURGE_INTERVAL, so
            // a map kept full by rotating addresses costs one O(map)
            // pass per second, not per request.
            let may_purge = buckets
                .last_purge
                .is_none_or(|prev| now.duration_since(prev) >= PURGE_INTERVAL);
            if may_purge {
                buckets.last_purge = Some(now);
                // Full buckets are clients that went quiet long enough
                // to refill completely; forgetting them is lossless.
                let cap = self.capacity;
                let rate = self.refill_per_sec;
                buckets.map.retain(|_, b| {
                    let refilled =
                        b.tokens + now.duration_since(b.last_refill).as_secs_f64() * rate;
                    refilled < cap
                });
            }
            if buckets.map.len() >= MAX_TRACKED_CLIENTS {
                // No room (or purge throttled): treat the newcomer as
                // throttled instead of growing the map.
                return Err(1);
            }
        }
        let bucket = buckets.map.entry(client).or_insert(Bucket {
            tokens: self.capacity,
            last_refill: now,
        });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        bucket.last_refill = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - bucket.tokens;
            let secs = (deficit / self.refill_per_sec).ceil().max(1.0);
            Err(secs as u64)
        }
    }
}

/// Applies the per-client rate limit to `req`, returning the 429 to send
/// (and counting it in `rate_limited`) when its client is over budget.
/// Health checks are exempt: a throttled client must still look *alive*
/// to the fleet's ring prober, just busy.
pub fn throttle(
    limiter: Option<&RateLimiter>,
    req: &Request,
    rate_limited: &Counter,
) -> Option<Response> {
    let limiter = limiter?;
    if req.path == "/healthz" {
        return None;
    }
    let retry_after = limiter
        .try_acquire(req.peer.map_or(ANONYMOUS_CLIENT, |p| p.ip()))
        .err()?;
    rate_limited.inc();
    Some(
        Response::new(429, r#"{"error":"rate limit exceeded"}"#)
            .with_header("Retry-After", retry_after.to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_A: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1));
    const CLIENT_B: IpAddr = IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2));

    #[test]
    fn burst_then_throttle_then_refill() {
        let limiter = RateLimiter::new(2);
        assert!(limiter.try_acquire(CLIENT_A).is_ok());
        assert!(limiter.try_acquire(CLIENT_A).is_ok());
        let retry = limiter.try_acquire(CLIENT_A).unwrap_err();
        assert!(retry >= 1, "Retry-After must be at least one second");
        // A different client has its own bucket.
        assert!(limiter.try_acquire(CLIENT_B).is_ok());
    }

    #[test]
    fn tokens_refill_over_time() {
        let limiter = RateLimiter::new(1000);
        for _ in 0..1000 {
            limiter.try_acquire(CLIENT_A).unwrap();
        }
        assert!(limiter.try_acquire(CLIENT_A).is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        // ~20 tokens refilled in 20ms at 1000/s.
        assert!(limiter.try_acquire(CLIENT_A).is_ok());
    }

    #[test]
    fn anonymous_requests_share_one_bucket() {
        let limiter = RateLimiter::new(1);
        assert!(limiter.try_acquire(ANONYMOUS_CLIENT).is_ok());
        assert!(limiter.try_acquire(ANONYMOUS_CLIENT).is_err());
    }
}
