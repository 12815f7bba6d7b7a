//! Multi-tenant quality of service for the batch server and the net
//! gateway: weighted fair-share scheduling (deficit round-robin over
//! bounded per-tenant lanes), token-bucket rate/cost admission, and a
//! hysteretic brownout controller that cheapens work stepwise under
//! overload instead of refusing it outright (see DESIGN.md §15).
//!
//! The cost currency everywhere is the governor's cost model: one unit
//! is one DP cell, so a query charges `|q| × Σ|db|` units against its
//! tenant's bucket and its lane's deficit counter. Fidelity reductions
//! taken under brownout are **typed** ([`Fidelity`]) — a result is
//! either exact-and-full or exact-with-declared-reductions, never
//! silently degraded.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use swsimd_obs::{Counter, Gauge};

/// Longest tenant name accepted anywhere (admission, wire decode).
/// Hostile frames claiming longer names are rejected before any
/// allocation is sized from the claim.
pub const MAX_TENANT_LEN: usize = 64;

/// The metric label under which a tenant's series are filed: the empty
/// (anonymous) tenant shares the `"default"` lane and label.
pub fn tenant_label(name: &str) -> &str {
    if name.is_empty() {
        "default"
    } else {
        name
    }
}

/// Clamp an in-process tenant name to [`MAX_TENANT_LEN`] bytes (on a
/// char boundary), so a misbehaving local caller cannot mint unbounded
/// metric labels. Wire decode rejects oversized names outright.
pub fn clamp_tenant(name: &str) -> &str {
    if name.len() <= MAX_TENANT_LEN {
        return name;
    }
    let mut end = MAX_TENANT_LEN;
    while !name.is_char_boundary(end) {
        end -= 1;
    }
    &name[..end]
}

/// Typed result fidelity: which work the brownout controller suspended
/// while computing an (always exact-score) answer. Levels are ordered —
/// merging replies takes the worst — and every reduction is declared on
/// the result, never applied silently.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Fidelity {
    /// Nothing suspended: full verification and detail.
    #[default]
    Full,
    /// Brownout level 1: shadow verification sampling suspended.
    NoShadow,
    /// Brownout level 2: score-only service — traceback work and
    /// per-query flight-recorder stage detail dropped.
    ScoreOnly,
    /// Brownout level 3: deadline headroom shrunk — jobs predicted to
    /// come near their deadline are shed pre-compute instead of risking
    /// an overrun.
    TightDeadline,
}

impl Fidelity {
    /// Stable wire/JSON tag.
    pub fn as_u8(self) -> u8 {
        match self {
            Fidelity::Full => 0,
            Fidelity::NoShadow => 1,
            Fidelity::ScoreOnly => 2,
            Fidelity::TightDeadline => 3,
        }
    }

    /// Total decode: unknown (future) levels map to the strongest known
    /// degradation marker so a newer peer's reduction is never silently
    /// read back as [`Fidelity::Full`].
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => Fidelity::Full,
            1 => Fidelity::NoShadow,
            2 => Fidelity::ScoreOnly,
            _ => Fidelity::TightDeadline,
        }
    }

    /// Human/metric label.
    pub fn as_str(self) -> &'static str {
        match self {
            Fidelity::Full => "full",
            Fidelity::NoShadow => "no_shadow",
            Fidelity::ScoreOnly => "score_only",
            Fidelity::TightDeadline => "tight_deadline",
        }
    }
}

impl std::fmt::Display for Fidelity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Token-bucket refill policy, in cost units (DP cells).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RateConfig {
    /// Sustained refill rate, cost units per second.
    pub rate: u64,
    /// Bucket capacity: the largest burst admitted at once.
    pub burst: u64,
}

impl RateConfig {
    /// A bucket sustaining `rate` units/second with a one-second burst.
    pub fn per_second(rate: u64) -> Self {
        Self { rate, burst: rate }
    }
}

/// A token bucket in cost units. Refill is computed lazily from the
/// elapsed time at each take, so an idle bucket costs nothing.
#[derive(Debug)]
pub struct TokenBucket {
    cfg: RateConfig,
    tokens: u64,
    last: Instant,
}

impl TokenBucket {
    /// A bucket born full (the initial burst is admitted immediately).
    pub fn new(cfg: RateConfig) -> Self {
        Self {
            cfg,
            tokens: cfg.burst,
            last: Instant::now(),
        }
    }

    fn refill(&mut self, now: Instant) {
        let elapsed = now.saturating_duration_since(self.last);
        if elapsed.is_zero() {
            return;
        }
        let refill = (elapsed.as_nanos() * u128::from(self.cfg.rate) / 1_000_000_000) as u64;
        if refill > 0 {
            self.tokens = self.tokens.saturating_add(refill).min(self.cfg.burst);
            self.last = now;
        }
    }

    /// Take `cost` units, or compute how long until they will exist.
    /// `Err(retry_after_ms)` is the backoff hint propagated to clients
    /// ([`crate::ServeError::RateLimited`]); a cost that can *never*
    /// fit (above `burst`) still yields the time to fill the bucket,
    /// so hammering retries stay bounded rather than instant.
    pub fn try_take(&mut self, cost: u64, now: Instant) -> Result<(), u64> {
        self.refill(now);
        if cost <= self.tokens {
            self.tokens -= cost;
            return Ok(());
        }
        let deficit = cost.min(self.cfg.burst).saturating_sub(self.tokens);
        let ms = if self.cfg.rate == 0 {
            // No refill configured: signal a long, bounded backoff.
            60_000
        } else {
            (u128::from(deficit) * 1000).div_ceil(u128::from(self.cfg.rate)) as u64
        };
        Err(ms.max(1))
    }
}

/// Per-tenant policy knobs.
#[derive(Clone, Debug)]
pub struct TenantPolicy {
    /// Fair-share weight: a lane with weight 3 drains three cost units
    /// for every one a weight-1 lane drains. Minimum effective 1.
    pub weight: u32,
    /// Token-bucket admission; `None` leaves the tenant unmetered.
    pub rate: Option<RateConfig>,
}

impl Default for TenantPolicy {
    fn default() -> Self {
        Self {
            weight: 1,
            rate: None,
        }
    }
}

/// Server-side QoS configuration ([`crate::ServerConfig::qos`]).
#[derive(Clone, Debug)]
pub struct QosConfig {
    /// Named tenant policies. Tenants not listed here get
    /// `default_weight` and no rate limit.
    pub tenants: HashMap<String, TenantPolicy>,
    /// Weight for tenants without an explicit policy.
    pub default_weight: u32,
    /// Bound on jobs queued per tenant lane; `0` inherits the server's
    /// global `queue_depth`. A full lane sheds with
    /// [`crate::ServeError::QueueFull`] carrying a backoff hint.
    pub lane_depth: usize,
    /// Deficit round-robin quantum in cost units added per visit per
    /// weight unit. Larger quanta approach per-visit FIFO bursts;
    /// smaller quanta interleave more finely at slightly more
    /// scheduling work.
    pub quantum: u64,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            tenants: HashMap::new(),
            default_weight: 1,
            lane_depth: 0,
            quantum: 1 << 20,
        }
    }
}

/// One tenant's shared admission state: lane occupancy (bounded by
/// `lane_depth`), its token bucket, and its labelled metric series.
pub(crate) struct TenantShared {
    /// Lane key (the raw tenant name; empty = anonymous/default).
    pub name: String,
    pub weight: u32,
    /// Jobs admitted and not yet picked into a batch.
    pub queued: AtomicUsize,
    pub bucket: Option<Mutex<TokenBucket>>,
    /// `swsimd_tenant_queue_depth{tenant}`.
    pub queue_depth: Arc<Gauge>,
    /// `swsimd_tenant_shed_total{tenant}`.
    pub shed: Arc<Counter>,
    /// `swsimd_rate_limited_total{tenant}`.
    pub rate_limited: Arc<Counter>,
}

/// Admission-side QoS state shared between every [`crate::ServerClient`]
/// clone and the worker: tenant registry, lane bound, and the worker's
/// published queue-delay estimate (the source of `retry_after_ms`
/// hints on shed).
pub(crate) struct QosShared {
    cfg: QosConfig,
    instance: String,
    lane_depth: usize,
    tenants: Mutex<HashMap<String, Arc<TenantShared>>>,
    /// Queue-delay EWMA in ns, published by the worker after each job.
    pub queue_delay_ewma_ns: AtomicU64,
}

impl QosShared {
    pub fn new(cfg: QosConfig, instance: &str, queue_depth: usize) -> Arc<Self> {
        let lane_depth = if cfg.lane_depth == 0 {
            queue_depth.max(1)
        } else {
            cfg.lane_depth
        };
        Arc::new(Self {
            cfg,
            instance: instance.to_string(),
            lane_depth,
            tenants: Mutex::new(HashMap::new()),
            queue_delay_ewma_ns: AtomicU64::new(0),
        })
    }

    pub fn lane_depth(&self) -> usize {
        self.lane_depth
    }

    /// Resolve (creating on first sight) the shared state for `name`.
    pub fn tenant(&self, name: &str) -> Arc<TenantShared> {
        let name = clamp_tenant(name);
        let mut map = self.tenants.lock().expect("tenant registry lock");
        if let Some(t) = map.get(name) {
            return t.clone();
        }
        let policy = self.cfg.tenants.get(name).cloned().unwrap_or(TenantPolicy {
            weight: self.cfg.default_weight,
            rate: None,
        });
        let label = tenant_label(name);
        let r = swsimd_obs::global();
        let labels: &[(&str, &str)] = &[("instance", &self.instance), ("tenant", label)];
        let t = Arc::new(TenantShared {
            name: name.to_string(),
            weight: policy.weight.max(1),
            queued: AtomicUsize::new(0),
            bucket: policy.rate.map(|cfg| Mutex::new(TokenBucket::new(cfg))),
            queue_depth: r.gauge(
                "swsimd_tenant_queue_depth",
                "Jobs waiting in this tenant's fair-share lane.",
                labels,
            ),
            shed: r.counter(
                "swsimd_tenant_shed_total",
                "Queries shed because the tenant's lane was full.",
                labels,
            ),
            rate_limited: r.counter(
                "swsimd_rate_limited_total",
                "Queries refused by the tenant's token bucket.",
                labels,
            ),
        });
        map.insert(name.to_string(), t.clone());
        t
    }

    /// Backoff hint for shed work: the worker's queue-delay EWMA,
    /// rounded up to a millisecond — "come back once the queue you
    /// could not join has likely drained".
    pub fn retry_hint_ms(&self) -> u64 {
        let ns = self.queue_delay_ewma_ns.load(Relaxed);
        (u128::from(ns).div_ceil(1_000_000) as u64).max(1)
    }

    /// Fold one observed queue delay into the published EWMA.
    pub fn observe_queue_delay(&self, ns: u64) {
        let prev = self.queue_delay_ewma_ns.load(Relaxed);
        let next = if prev == 0 {
            ns
        } else {
            (prev / 5) * 4 + ns / 5
        };
        self.queue_delay_ewma_ns.store(next, Relaxed);
    }
}

/// Brownout watermarks ([`crate::ServerConfig::brownout`]). The
/// controller steps the degradation level up one notch when the
/// queue-delay EWMA sits above `high`, back down when it falls below
/// `low`, and never transitions twice within `dwell` (hysteresis), so
/// a noisy delay signal cannot flap the ladder.
#[derive(Clone, Copy, Debug)]
pub struct BrownoutConfig {
    /// Queue-delay EWMA above this steps the level up.
    pub high: Duration,
    /// Queue-delay EWMA below this steps the level down.
    pub low: Duration,
    /// Minimum time between transitions in either direction.
    pub dwell: Duration,
    /// Ceiling on the ladder (1..=3; see [`Fidelity`]).
    pub max_level: u8,
}

impl Default for BrownoutConfig {
    fn default() -> Self {
        Self {
            high: Duration::from_millis(50),
            low: Duration::from_millis(10),
            dwell: Duration::from_millis(250),
            max_level: 3,
        }
    }
}

/// The brownout state machine. Lives on the worker thread; the current
/// level is published to the `swsimd_brownout_level` gauge on
/// transitions, which [`crate::BatchServer::brownout_level`] reads.
pub struct Brownout {
    cfg: Option<BrownoutConfig>,
    ewma_ns: f64,
    level: u8,
    last_transition: Option<Instant>,
    gauge: Option<Arc<Gauge>>,
}

impl Brownout {
    /// `None` disables the controller: [`Brownout::observe`] is then a
    /// single branch (the idle-path cost gated by `obs_overhead`).
    pub fn new(cfg: Option<BrownoutConfig>) -> Self {
        Self {
            cfg,
            ewma_ns: 0.0,
            level: 0,
            last_transition: None,
            gauge: None,
        }
    }

    /// Publish level changes to `gauge`.
    pub(crate) fn publish(mut self, gauge: Arc<Gauge>) -> Self {
        self.gauge = Some(gauge);
        self
    }

    /// Current degradation level (0 = full fidelity).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Predictive-skip safety factor: at level 3 the deadline headroom
    /// shrinks (jobs predicted to land within 4× of their remaining
    /// budget are shed pre-compute, instead of the usual 2×).
    pub fn skip_factor(&self) -> u32 {
        if self.level >= 3 {
            4
        } else {
            2
        }
    }

    /// Is shadow verification suspended at the current level?
    pub fn shadow_suspended(&self) -> bool {
        self.level >= 1
    }

    /// The typed fidelity marker for results computed at the current
    /// level. `shadow_enabled` keeps level 1 honest: if sampling was
    /// never configured, suspending it reduced nothing.
    pub fn fidelity(&self, shadow_enabled: bool) -> Fidelity {
        match self.level {
            0 => Fidelity::Full,
            1 if shadow_enabled => Fidelity::NoShadow,
            1 => Fidelity::Full,
            2 => Fidelity::ScoreOnly,
            _ => Fidelity::TightDeadline,
        }
    }

    /// Fold one job's queue delay into the EWMA and run the watermark
    /// state machine. Returns the (possibly new) level.
    pub fn observe(&mut self, queue_delay_ns: u64) -> u8 {
        let Some(cfg) = self.cfg else {
            return 0;
        };
        let sample = queue_delay_ns as f64;
        self.ewma_ns = if self.ewma_ns > 0.0 {
            0.8 * self.ewma_ns + 0.2 * sample
        } else {
            sample
        };
        let dwell_ok = self
            .last_transition
            .is_none_or(|t| t.elapsed() >= cfg.dwell);
        if !dwell_ok {
            return self.level;
        }
        let max_level = cfg.max_level.clamp(1, 3);
        if self.ewma_ns > cfg.high.as_nanos() as f64 && self.level < max_level {
            self.transition(self.level + 1, "brownout_raised");
        } else if self.ewma_ns < cfg.low.as_nanos() as f64 && self.level > 0 {
            self.transition(self.level - 1, "brownout_lowered");
        }
        self.level
    }

    fn transition(&mut self, to: u8, event: &'static str) {
        let from = self.level;
        self.level = to;
        self.last_transition = Some(Instant::now());
        if let Some(gauge) = &self.gauge {
            gauge.set(i64::from(to));
        }
        swsimd_obs::event!(
            event,
            "from" => u64::from(from),
            "to" => u64::from(to),
            "queue_delay_ewma_ms" => (self.ewma_ns / 1e6) as u64
        );
    }
}

/// Deficit round-robin over per-tenant lanes. Generic over the queued
/// item so the server's (private) job type can ride it; the `u64`
/// alongside each item is its cost in DP cells — the currency deficits
/// are charged in.
pub(crate) struct Drr<T> {
    lanes: Vec<Lane<T>>,
    by_name: HashMap<String, usize>,
    cursor: usize,
    /// Has the lane under the cursor received its quantum this visit?
    charged: bool,
    quantum: u64,
    len: usize,
}

struct Lane<T> {
    weight: u32,
    deficit: u64,
    jobs: VecDeque<(u64, T)>,
}

impl<T> Drr<T> {
    pub fn new(quantum: u64) -> Self {
        Self {
            lanes: Vec::new(),
            by_name: HashMap::new(),
            cursor: 0,
            charged: false,
            quantum: quantum.max(1),
            len: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Get or create the lane for `name`.
    pub fn lane(&mut self, name: &str, weight: u32) -> usize {
        if let Some(&idx) = self.by_name.get(name) {
            return idx;
        }
        let idx = self.lanes.len();
        self.lanes.push(Lane {
            weight: weight.max(1),
            deficit: 0,
            jobs: VecDeque::new(),
        });
        self.by_name.insert(name.to_string(), idx);
        idx
    }

    pub fn push(&mut self, lane: usize, cost: u64, item: T) {
        self.lanes[lane].jobs.push_back((cost, item));
        self.len += 1;
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.lanes.len().max(1);
        self.charged = false;
    }

    /// Dequeue the next item under DRR: each visit grants the lane
    /// `quantum × weight` deficit; the lane drains jobs while its
    /// deficit covers their cost, then the cursor moves on. Empty
    /// lanes forfeit their deficit (a lane cannot bank credit while
    /// idle).
    pub fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        loop {
            let lane = &mut self.lanes[self.cursor];
            if lane.jobs.is_empty() {
                lane.deficit = 0;
                self.advance();
                continue;
            }
            if !self.charged {
                lane.deficit = lane
                    .deficit
                    .saturating_add(self.quantum.saturating_mul(u64::from(lane.weight)));
                self.charged = true;
            }
            let cost = lane.jobs.front().expect("non-empty lane").0;
            if cost <= lane.deficit {
                lane.deficit -= cost;
                self.len -= 1;
                return lane.jobs.pop_front().map(|(_, item)| item);
            }
            self.advance();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drr_interleaves_equal_weights_fairly() {
        let mut drr: Drr<&'static str> = Drr::new(100);
        let a = drr.lane("a", 1);
        let b = drr.lane("b", 1);
        for _ in 0..4 {
            drr.push(a, 100, "a");
            drr.push(b, 100, "b");
        }
        let order: Vec<_> = std::iter::from_fn(|| drr.pop()).collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn drr_honors_weights_in_cost_units() {
        let mut drr: Drr<&'static str> = Drr::new(100);
        let a = drr.lane("a", 3);
        let b = drr.lane("b", 1);
        for _ in 0..8 {
            drr.push(a, 100, "a");
            drr.push(b, 100, "b");
        }
        // First 4 dequeues: lane a drains 3 (deficit 300) for lane b's 1.
        let first: Vec<_> = (0..4).map(|_| drr.pop().unwrap()).collect();
        assert_eq!(first.iter().filter(|s| **s == "a").count(), 3);
        assert_eq!(first.iter().filter(|s| **s == "b").count(), 1);
        // The full drain preserves the 3:1 ratio while both lanes hold.
        let mut served_a = 3;
        let mut served_b = 1;
        while let Some(s) = drr.pop() {
            if s == "a" {
                served_a += 1;
            } else {
                served_b += 1;
            }
            if served_a < 8 && served_b < 8 {
                assert!(
                    served_a <= 3 * served_b + 3 && served_b <= served_a,
                    "ratio drifted: {served_a}:{served_b}"
                );
            }
        }
        assert_eq!((served_a, served_b), (8, 8));
    }

    #[test]
    fn drr_idle_lane_banks_no_credit() {
        let mut drr: Drr<&'static str> = Drr::new(100);
        let a = drr.lane("a", 1);
        let b = drr.lane("b", 1);
        for _ in 0..6 {
            drr.push(a, 100, "a");
        }
        // Lane b idles through three rounds…
        for _ in 0..3 {
            assert_eq!(drr.pop(), Some("a"));
        }
        // …then bursts: it must not have banked three quanta.
        for _ in 0..6 {
            drr.push(b, 100, "b");
        }
        let next: Vec<_> = (0..4).map(|_| drr.pop().unwrap()).collect();
        assert_eq!(
            next.iter().filter(|s| **s == "b").count(),
            2,
            "idle lane must not burst ahead: {next:?}"
        );
    }

    #[test]
    fn drr_large_job_waits_for_deficit_but_is_not_starved() {
        let mut drr: Drr<&'static str> = Drr::new(10);
        let a = drr.lane("a", 1);
        let b = drr.lane("b", 1);
        drr.push(a, 100, "big");
        for _ in 0..5 {
            drr.push(b, 10, "small");
        }
        let order: Vec<_> = std::iter::from_fn(|| drr.pop()).collect();
        assert_eq!(order.len(), 6);
        assert!(order.contains(&"big"), "large job eventually served");
    }

    #[test]
    fn token_bucket_admits_burst_then_meters() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(RateConfig {
            rate: 1000,
            burst: 500,
        });
        assert_eq!(b.try_take(500, t0), Ok(()));
        let err = b.try_take(250, t0).expect_err("bucket drained");
        assert_eq!(err, 250, "250 units at 1000/s is 250ms");
        // After 300ms the 250 units exist again.
        assert_eq!(b.try_take(250, t0 + Duration::from_millis(300)), Ok(()));
    }

    #[test]
    fn token_bucket_never_exceeds_burst() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(RateConfig {
            rate: 1_000_000,
            burst: 100,
        });
        assert_eq!(b.try_take(100, t0), Ok(()));
        // A long idle refills to burst, not beyond.
        let later = t0 + Duration::from_secs(60);
        assert_eq!(b.try_take(100, later), Ok(()));
        assert!(b.try_take(1, later).is_err());
    }

    #[test]
    fn token_bucket_oversized_cost_yields_bounded_hint() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(RateConfig {
            rate: 1000,
            burst: 100,
        });
        let hint = b.try_take(u64::MAX, t0).expect_err("can never fit");
        assert!(hint <= 1000, "hint bounded by time-to-full-burst: {hint}");
        let zero = TokenBucket::new(RateConfig { rate: 0, burst: 0 })
            .try_take(1, t0)
            .expect_err("zero-rate bucket");
        assert_eq!(zero, 60_000);
    }

    #[test]
    fn brownout_steps_up_and_recovers_with_hysteresis() {
        let mut b = Brownout::new(Some(BrownoutConfig {
            high: Duration::from_millis(10),
            low: Duration::from_millis(2),
            dwell: Duration::ZERO,
            max_level: 3,
        }));
        assert_eq!(b.level(), 0);
        // Sustained 50ms queue delay climbs the ladder one step per
        // observation (dwell is zero here).
        let mut seen = vec![];
        for _ in 0..5 {
            seen.push(b.observe(50_000_000));
        }
        assert_eq!(seen, [1, 2, 3, 3, 3], "capped at max_level");
        assert!(b.shadow_suspended());
        assert_eq!(b.skip_factor(), 4);
        assert_eq!(b.fidelity(true), Fidelity::TightDeadline);
        // Delay between the watermarks: the level holds (hysteresis).
        assert_eq!(b.observe(5_000_000), 3);
        // Sustained recovery steps back down to zero.
        let mut down = vec![];
        for _ in 0..40 {
            down.push(b.observe(0));
        }
        assert_eq!(*down.last().unwrap(), 0);
        assert_eq!(b.fidelity(true), Fidelity::Full);
        assert_eq!(b.skip_factor(), 2);
    }

    #[test]
    fn brownout_dwell_blocks_rapid_transitions() {
        let mut b = Brownout::new(Some(BrownoutConfig {
            high: Duration::from_millis(1),
            low: Duration::from_micros(1),
            dwell: Duration::from_secs(3600),
            max_level: 3,
        }));
        assert_eq!(b.observe(50_000_000), 1);
        for _ in 0..10 {
            assert_eq!(b.observe(50_000_000), 1, "dwell must pin the level");
        }
    }

    #[test]
    fn disabled_brownout_is_inert() {
        let mut b = Brownout::new(None);
        for _ in 0..100 {
            assert_eq!(b.observe(u64::MAX), 0);
        }
        assert_eq!(b.fidelity(true), Fidelity::Full);
        assert!(!b.shadow_suspended());
    }

    #[test]
    fn fidelity_round_trips_and_orders() {
        for f in [
            Fidelity::Full,
            Fidelity::NoShadow,
            Fidelity::ScoreOnly,
            Fidelity::TightDeadline,
        ] {
            assert_eq!(Fidelity::from_u8(f.as_u8()), f);
        }
        assert_eq!(Fidelity::from_u8(200), Fidelity::TightDeadline);
        assert!(Fidelity::Full < Fidelity::NoShadow);
        assert!(Fidelity::ScoreOnly < Fidelity::TightDeadline);
    }

    #[test]
    fn tenant_label_defaults_anonymous() {
        assert_eq!(tenant_label(""), "default");
        assert_eq!(tenant_label("acme"), "acme");
    }

    #[test]
    fn clamp_tenant_respects_char_boundaries() {
        let long = "x".repeat(200);
        assert_eq!(clamp_tenant(&long).len(), MAX_TENANT_LEN);
        let multi = "é".repeat(64); // 128 bytes, boundary at 64 splits a char
        let clamped = clamp_tenant(&multi);
        assert!(clamped.len() <= MAX_TENANT_LEN);
        assert!(multi.starts_with(clamped));
    }
}
