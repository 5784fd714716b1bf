//! Deterministic fault injection and retry policy.
//!
//! A production declustered store must keep answering partial-match
//! queries when devices stall, return garbage, or die — and a *simulator*
//! of one must produce those failures **reproducibly**, or no chaos
//! experiment can ever be compared run-to-run. This module provides the
//! two policy objects the storage layer consumes:
//!
//! * [`FaultPlan`] — a pure function from `(device, bucket, attempt)` to a
//!   fault decision, driven entirely by a seed (`PMR_SEED` by
//!   convention) through [`crate::rng::Rng::stream`]. Nothing is sampled
//!   statefully: the same plan asked the same question always gives the
//!   same answer, on any thread, in any order. Supported faults: read
//!   errors, page corruption, latency spikes (in **simulated**
//!   microseconds), and full device outages.
//! * [`RetryPolicy`] — capped exponential backoff with seeded jitter,
//!   denominated in simulated microseconds and bounded by a total
//!   per-bucket budget. Backoff never sleeps: delays are *charged to the
//!   simulated clock* by the executor, so a chaos sweep over thousands of
//!   queries runs as fast as the hardware allows while still reporting
//!   realistic response-time inflation.
//!
//! Both carry a small `key=value` spec grammar for the CLI
//! ([`FaultPlan::parse`], [`RetryPolicy::parse`]).

use crate::rng::{splitmix64, Rng};

/// Stream-domain tags keeping per-device outage draws, per-read fault
/// draws, and retry jitter statistically independent of each other.
const DOMAIN_OUTAGE: u64 = 0x6f75_7461_6765; // "outage"
const DOMAIN_READ: u64 = 0x7265_6164; // "read"
const DOMAIN_JITTER: u64 = 0x6a69_7474_6572; // "jitter"

/// One injected fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The read fails outright (transient I/O error); a retry re-rolls.
    ReadError,
    /// The page comes back as garbage (decode failure); a retry re-rolls,
    /// modelling a transient bus/DMA corruption rather than bit rot at
    /// rest (use the device's `inject_corruption` for the persistent
    /// kind).
    Corruption,
    /// The read succeeds after an extra delay of this many *simulated*
    /// microseconds.
    LatencySpike(u64),
    /// The whole device is down: every read fails, retries never help.
    Outage,
}

/// A deterministic fault plan: rates plus a seed.
///
/// # Examples
///
/// ```
/// use pmr_rt::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new(42).with_read_error(0.5);
/// // Decisions are pure: same (device, bucket, attempt) → same answer.
/// assert_eq!(plan.decide(0, 7, 0), plan.decide(0, 7, 0));
/// let injected = (0..1000).filter(|&b| plan.decide(0, b, 0).is_some()).count();
/// assert!((300..700).contains(&injected), "rate 0.5 gave {injected}/1000");
/// assert_eq!(FaultPlan::new(1).decide(3, 9, 2), None); // all-zero rates
/// assert_eq!(
///     FaultPlan::new(1).with_dead_device(3).decide(3, 9, 2),
///     Some(FaultKind::Outage)
/// );
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    read_error: f64,
    corruption: f64,
    latency: f64,
    /// Inclusive bounds of an injected latency spike, in simulated µs.
    latency_us: (u64, u64),
    /// Per-device probability of a full outage (decided once per device).
    outage: f64,
    /// Devices declared dead outright (sorted, deduped).
    dead_devices: Vec<u64>,
}

impl FaultPlan {
    /// A plan with every rate at zero (injects nothing) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            read_error: 0.0,
            corruption: 0.0,
            latency: 0.0,
            latency_us: (50, 500),
            outage: 0.0,
            dead_devices: Vec::new(),
        }
    }

    /// The seed every decision derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the per-read transient read-error probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]` (same contract as
    /// [`Rng::gen_bool`]).
    pub fn with_read_error(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.read_error = p;
        self
    }

    /// Sets the per-read transient corruption probability.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_corruption(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.corruption = p;
        self
    }

    /// Sets the per-read latency-spike probability and the spike's
    /// inclusive simulated-µs bounds.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]` or `lo > hi`.
    pub fn with_latency(mut self, p: f64, lo_us: u64, hi_us: u64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        assert!(lo_us <= hi_us, "empty latency range {lo_us}..={hi_us}");
        self.latency = p;
        self.latency_us = (lo_us, hi_us);
        self
    }

    /// Sets the per-device outage probability (each device's fate is
    /// decided once, deterministically, from the seed).
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    pub fn with_outage_rate(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        self.outage = p;
        self
    }

    /// Declares a device dead outright (composable; duplicates collapse).
    pub fn with_dead_device(mut self, device: u64) -> Self {
        self.dead_devices.push(device);
        self.dead_devices.sort_unstable();
        self.dead_devices.dedup();
        self
    }

    /// `true` when the plan can inject anything at all — the storage
    /// layer's read hook short-circuits on `false`.
    pub fn is_active(&self) -> bool {
        self.read_error > 0.0
            || self.corruption > 0.0
            || self.latency > 0.0
            || self.outage > 0.0
            || !self.dead_devices.is_empty()
    }

    /// Is `device` fully down? Decided once per device from the seed (or
    /// by an explicit [`FaultPlan::with_dead_device`] declaration), so an
    /// outage is a property of the run, not of one read.
    pub fn device_out(&self, device: u64) -> bool {
        if self.dead_devices.binary_search(&device).is_ok() {
            return true;
        }
        if self.outage <= 0.0 {
            return false;
        }
        Rng::stream(self.seed, splitmix64(DOMAIN_OUTAGE ^ device)).gen_bool(self.outage)
    }

    /// The fault decision for one read attempt, or `None` for a clean
    /// read. Pure: derived entirely from the seed and the
    /// `(device, bucket, attempt)` key, so concurrent workers and
    /// replayed runs agree bit-for-bit.
    pub fn decide(&self, device: u64, bucket: u64, attempt: u32) -> Option<FaultKind> {
        if self.device_out(device) {
            return Some(FaultKind::Outage);
        }
        let per_read = self.read_error + self.corruption + self.latency;
        if per_read <= 0.0 {
            return None;
        }
        let key = splitmix64(DOMAIN_READ ^ device)
            ^ splitmix64(bucket.wrapping_add(1))
            ^ splitmix64((attempt as u64).wrapping_mul(0x9e37_79b9));
        let mut rng = Rng::stream(self.seed, key);
        let u = rng.gen_f64();
        if u < self.read_error {
            Some(FaultKind::ReadError)
        } else if u < self.read_error + self.corruption {
            Some(FaultKind::Corruption)
        } else if u < per_read {
            let (lo, hi) = self.latency_us;
            Some(FaultKind::LatencySpike(rng.gen_range(lo..=hi)))
        } else {
            None
        }
    }

    /// Parses the CLI fault spec: comma-separated `key=value` pairs.
    ///
    /// * `read=P` — transient read-error probability
    /// * `corrupt=P` — transient corruption probability
    /// * `latency=P:US` or `latency=P:LO..HI` — spike probability and
    ///   simulated-µs bound(s)
    /// * `outage=D` — device `D` is dead (repeatable)
    /// * `outage-rate=P` — per-device outage probability
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use pmr_rt::fault::FaultPlan;
    ///
    /// let plan = FaultPlan::parse("read=0.01,corrupt=0.005,latency=0.1:200..2000", 42).unwrap();
    /// assert!(plan.is_active());
    /// assert!(FaultPlan::parse("read=2.0", 42).is_err());
    /// ```
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new(seed);
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault spec pair {pair:?} is not key=value"))?;
            match key.trim() {
                "read" => plan.read_error = parse_probability(key, value)?,
                "corrupt" | "corruption" => plan.corruption = parse_probability(key, value)?,
                "latency" => {
                    let (p, range) = value
                        .split_once(':')
                        .ok_or_else(|| format!("latency spec {value:?} is not P:US or P:LO..HI"))?;
                    plan.latency = parse_probability(key, p)?;
                    let (lo, hi) = match range.split_once("..") {
                        Some((lo, hi)) => (parse_us(key, lo)?, parse_us(key, hi)?),
                        None => (1, parse_us(key, range)?),
                    };
                    if lo > hi {
                        return Err(format!("latency range {lo}..{hi} is empty"));
                    }
                    plan.latency_us = (lo, hi);
                }
                "outage" => {
                    let device = value
                        .trim()
                        .parse::<u64>()
                        .map_err(|e| format!("bad outage device {value:?}: {e}"))?;
                    plan = plan.with_dead_device(device);
                }
                "outage-rate" => plan.outage = parse_probability(key, value)?,
                other => {
                    return Err(format!(
                        "unknown fault key {other:?} (expected read|corrupt|latency|outage|outage-rate)"
                    ))
                }
            }
        }
        Ok(plan)
    }
}

fn parse_probability(key: &str, value: &str) -> Result<f64, String> {
    let p = value
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("bad {key} probability {value:?}: {e}"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{key} probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_us(key: &str, value: &str) -> Result<u64, String> {
    value
        .trim()
        .parse::<u64>()
        .map_err(|e| format!("bad {key} microseconds {value:?}: {e}"))
}

/// Retry policy: capped exponential backoff in *simulated* microseconds.
///
/// `attempt` numbering is zero-based: attempt 0 is the initial read, so a
/// policy with `max_attempts == 1` never retries. Backoff delays are
/// drawn once per retry with jitter in `[delay/2, delay]` (decorrelated
/// enough to avoid thundering herds, deterministic enough to replay) and
/// are *charged to the simulated clock*, never slept.
///
/// # Examples
///
/// ```
/// use pmr_rt::fault::RetryPolicy;
///
/// let policy = RetryPolicy::default();
/// let d1 = policy.backoff_us(1, 42, 0, 7);
/// assert_eq!(d1, policy.backoff_us(1, 42, 0, 7)); // deterministic
/// assert!(d1 >= policy.base_us / 2 && d1 <= policy.base_us);
/// assert_eq!(RetryPolicy::none().max_attempts, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total read attempts per copy, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) starts from
    /// `base_us · 2^(k−1)`, pre-jitter.
    pub base_us: u64,
    /// Per-retry backoff ceiling, pre-jitter.
    pub cap_us: u64,
    /// Total simulated-µs backoff budget per bucket read; once spent,
    /// remaining attempts are forfeited (the deadline of a read).
    pub budget_us: u64,
}

impl Default for RetryPolicy {
    /// Three attempts, 100 µs base doubling to a 10 ms cap, 1 s budget.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_us: 100,
            cap_us: 10_000,
            budget_us: 1_000_000,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: one attempt, zero backoff.
    pub const fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_us: 0,
            cap_us: 0,
            budget_us: 0,
        }
    }

    /// The jittered backoff before retry `attempt` (1-based) of
    /// `(device, bucket)` under `seed`: capped exponential, uniform
    /// jitter in `[delay/2, delay]`. Pure — same arguments, same delay.
    pub fn backoff_us(&self, attempt: u32, seed: u64, device: u64, bucket: u64) -> u64 {
        if self.base_us == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let delay = self
            .base_us
            .saturating_mul(1u64 << exp)
            .min(self.cap_us.max(self.base_us));
        let key = splitmix64(DOMAIN_JITTER ^ device)
            ^ splitmix64(bucket.wrapping_add(1))
            ^ splitmix64(attempt as u64);
        Rng::stream(seed, key).gen_range(delay / 2..=delay)
    }

    /// Parses the CLI retry spec: comma-separated `key=value` pairs of
    /// `attempts=N`, `base=US`, `cap=US`, `budget=US`; omitted keys keep
    /// their [`RetryPolicy::default`] values. `attempts=1` disables
    /// retries; the literal `none` is [`RetryPolicy::none`].
    ///
    /// # Errors
    ///
    /// A human-readable message naming the offending pair.
    pub fn parse(spec: &str) -> Result<RetryPolicy, String> {
        if spec.trim() == "none" {
            return Ok(RetryPolicy::none());
        }
        let mut policy = RetryPolicy::default();
        for pair in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("retry spec pair {pair:?} is not key=value"))?;
            let parsed = value
                .trim()
                .parse::<u64>()
                .map_err(|e| format!("bad retry {key} value {value:?}: {e}"))?;
            match key.trim() {
                "attempts" => {
                    if parsed == 0 {
                        return Err("retry attempts must be at least 1".into());
                    }
                    policy.max_attempts = parsed as u32;
                }
                "base" => policy.base_us = parsed,
                "cap" => policy.cap_us = parsed,
                "budget" => policy.budget_us = parsed,
                other => {
                    return Err(format!(
                        "unknown retry key {other:?} (expected attempts|base|cap|budget)"
                    ))
                }
            }
        }
        Ok(policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_pure_and_seeded() {
        let plan = FaultPlan::new(7)
            .with_read_error(0.3)
            .with_latency(0.2, 10, 100);
        let other_seed = FaultPlan::new(8)
            .with_read_error(0.3)
            .with_latency(0.2, 10, 100);
        let mut same = 0;
        for bucket in 0..512u64 {
            for attempt in 0..3 {
                let a = plan.decide(1, bucket, attempt);
                assert_eq!(a, plan.decide(1, bucket, attempt), "purity");
                if a == other_seed.decide(1, bucket, attempt) {
                    same += 1;
                }
            }
        }
        // Different seeds must actually change the decision stream.
        assert!(same < 512 * 3, "seed had no effect");
    }

    #[test]
    fn rates_are_roughly_honoured() {
        let plan = FaultPlan::new(99)
            .with_read_error(0.1)
            .with_corruption(0.1)
            .with_latency(0.1, 50, 500);
        let mut read = 0;
        let mut corrupt = 0;
        let mut latency = 0;
        let n = 10_000u64;
        for bucket in 0..n {
            match plan.decide(0, bucket, 0) {
                Some(FaultKind::ReadError) => read += 1,
                Some(FaultKind::Corruption) => corrupt += 1,
                Some(FaultKind::LatencySpike(us)) => {
                    assert!((50..=500).contains(&us));
                    latency += 1;
                }
                Some(FaultKind::Outage) => panic!("no outage configured"),
                None => {}
            }
        }
        for (name, count) in [("read", read), ("corrupt", corrupt), ("latency", latency)] {
            assert!(
                (700..1300).contains(&count),
                "{name} rate 0.1 gave {count}/{n}"
            );
        }
    }

    #[test]
    fn attempts_reroll_transient_faults() {
        let plan = FaultPlan::new(5).with_read_error(0.5);
        // With rate 0.5 per attempt, some bucket that fails at attempt 0
        // must succeed at a later attempt (transience), and the joint
        // pattern must be reproducible.
        let recovered =
            (0..64u64).any(|b| plan.decide(2, b, 0).is_some() && plan.decide(2, b, 1).is_none());
        assert!(recovered, "no transient recovery in 64 buckets");
    }

    #[test]
    fn outages_are_per_device_constants() {
        let plan = FaultPlan::new(3).with_outage_rate(0.5);
        let dead: Vec<u64> = (0..64).filter(|&d| plan.device_out(d)).collect();
        assert!(
            !dead.is_empty() && dead.len() < 64,
            "outage rate 0.5 gave {dead:?}"
        );
        for &d in &dead {
            // An outage holds for every bucket and attempt.
            assert_eq!(plan.decide(d, 9, 0), Some(FaultKind::Outage));
            assert_eq!(plan.decide(d, 1234, 7), Some(FaultKind::Outage));
        }
        let explicit = FaultPlan::new(3).with_dead_device(2).with_dead_device(2);
        assert!(explicit.device_out(2));
        assert!(!explicit.device_out(3));
        assert_eq!(explicit.dead_devices, vec![2]);
    }

    #[test]
    fn inactive_plan_injects_nothing() {
        let plan = FaultPlan::new(1);
        assert!(!plan.is_active());
        assert!((0..256u64).all(|b| plan.decide(0, b, 0).is_none()));
        assert!(FaultPlan::new(1).with_read_error(0.01).is_active());
        assert!(FaultPlan::new(1).with_dead_device(0).is_active());
    }

    #[test]
    fn spec_parsing_round_trips() {
        let plan = FaultPlan::parse(
            "read=0.01, corrupt=0.02, latency=0.1:200..2000, outage=3, outage=1",
            42,
        )
        .unwrap();
        assert_eq!(plan.read_error, 0.01);
        assert_eq!(plan.corruption, 0.02);
        assert_eq!(plan.latency, 0.1);
        assert_eq!(plan.latency_us, (200, 2000));
        assert_eq!(plan.dead_devices, vec![1, 3]);
        let single = FaultPlan::parse("latency=0.5:700,outage-rate=0.25", 42).unwrap();
        assert_eq!(single.latency_us, (1, 700));
        assert_eq!(single.outage, 0.25);
        assert_eq!(FaultPlan::parse("", 42).unwrap(), FaultPlan::new(42));

        for bad in [
            "read",             // not key=value
            "read=2.0",         // probability out of range
            "latency=0.1",      // missing :US
            "latency=0.1:9..3", // empty range
            "outage=x",         // not a device id
            "flaky=0.5",        // unknown key
        ] {
            assert!(
                FaultPlan::parse(bad, 42).is_err(),
                "{bad:?} should not parse"
            );
        }
    }

    #[test]
    fn backoff_grows_caps_and_jitters() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_us: 100,
            cap_us: 1000,
            budget_us: 1 << 20,
        };
        let mut last = 0;
        for attempt in 1..=6 {
            let d = policy.backoff_us(attempt, 42, 0, 0);
            let nominal = (100u64 << (attempt - 1)).min(1000);
            assert!(
                d >= nominal / 2 && d <= nominal,
                "attempt {attempt}: {d} vs {nominal}"
            );
            assert!(d >= last / 2, "backoff should not collapse");
            last = d;
        }
        // Capped at 1000 from attempt 5 on.
        assert!(policy.backoff_us(7, 42, 0, 0) <= 1000);
        // Deterministic in all arguments, sensitive to the bucket.
        assert_eq!(
            policy.backoff_us(2, 42, 1, 9),
            policy.backoff_us(2, 42, 1, 9)
        );
        let differs =
            (0..32u64).any(|b| policy.backoff_us(2, 42, 1, b) != policy.backoff_us(2, 42, 1, 0));
        assert!(differs, "jitter ignores the bucket");
        assert_eq!(RetryPolicy::none().backoff_us(1, 42, 0, 0), 0);
    }

    #[test]
    fn huge_attempt_does_not_overflow() {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base_us: u64::MAX / 2,
            cap_us: u64::MAX,
            budget_us: u64::MAX,
        };
        // Saturates instead of panicking.
        let _ = policy.backoff_us(u32::MAX, 1, 2, 3);
    }

    #[test]
    fn retry_spec_parsing() {
        let p = RetryPolicy::parse("attempts=5,base=50,cap=2000,budget=100000").unwrap();
        assert_eq!(
            p,
            RetryPolicy {
                max_attempts: 5,
                base_us: 50,
                cap_us: 2000,
                budget_us: 100_000
            }
        );
        assert_eq!(RetryPolicy::parse("none").unwrap(), RetryPolicy::none());
        let partial = RetryPolicy::parse("attempts=2").unwrap();
        assert_eq!(partial.max_attempts, 2);
        assert_eq!(partial.base_us, RetryPolicy::default().base_us);
        for bad in ["attempts=0", "base=x", "turbo=9", "base"] {
            assert!(RetryPolicy::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
