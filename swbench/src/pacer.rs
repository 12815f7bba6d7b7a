//! Open-loop load: requests due on a seeded Poisson schedule.
//!
//! Requests are never dropped. When every client is busy at a request's
//! due time, it is sent late, and its latency still counts from the due
//! time, so a stall shows up in the latency of every request it delays.
//! The lateness itself is reported so a reader can tell a slow system
//! from a slow load generator.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Due offsets, from the start of the phase, of a Poisson arrival
/// process at `rate` requests per second over `span`.
pub fn poisson_schedule(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        t += -u.ln() / rate;
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// How one paced request went.
#[derive(Clone, Copy, Debug)]
pub struct Paced {
    /// Request index into the schedule.
    pub index: usize,
    /// From due time to completion.
    pub latency: Duration,
    /// From due time to send (zero when a client was free in time).
    pub late: Duration,
    /// The target's verdict.
    pub ok: bool,
}

/// Send every request of `schedule` from `clients` threads: each free
/// client takes the next request, waits for its due time if it is
/// early, and calls `target(index)`. Returns the outcomes in schedule
/// order.
pub fn run_paced<F>(schedule: &[Duration], clients: usize, target: F) -> Vec<Paced>
where
    F: Fn(usize) -> bool + Sync,
{
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(schedule.len()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..clients.max(1) {
            s.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(&offset) = schedule.get(index) else {
                    return;
                };
                let due = start + offset;
                let now = Instant::now();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let ok = target(index);
                let done = Instant::now();
                out.lock().expect("pacer results poisoned").push(Paced {
                    index,
                    latency: done.saturating_duration_since(due),
                    late: sent.saturating_duration_since(due),
                    ok,
                });
            });
        }
    });
    let mut out = out.into_inner().expect("pacer results poisoned");
    out.sort_by_key(|p| p.index);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_has_the_requested_rate() {
        let a = poisson_schedule(200.0, Duration::from_secs(10), 3);
        assert_eq!(a, poisson_schedule(200.0, Duration::from_secs(10), 3));
        assert_ne!(a, poisson_schedule(200.0, Duration::from_secs(10), 4));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(10));
        // 2000 expected arrivals; a Poisson count stays within ±10%.
        assert!((1800..2200).contains(&a.len()), "{}", a.len());
    }

    /// A target that stalls on its first request: with one client every
    /// later request is sent late, its latency is measured from its due
    /// time (so it includes the wait behind the stall), and the
    /// lateness is reported.
    #[test]
    fn latency_counts_from_due_time_behind_a_stall() {
        let stall = Duration::from_millis(60);
        let schedule: Vec<Duration> = (0..4).map(|i| Duration::from_millis(10 * i)).collect();
        let out = run_paced(&schedule, 1, |i| {
            if i == 0 {
                std::thread::sleep(stall);
            }
            true
        });
        assert_eq!(out.len(), 4);
        assert!(out.iter().all(|p| p.ok));
        assert!(out[0].latency >= stall);
        for p in &out[1..] {
            let due = schedule[p.index];
            // Sent no earlier than the stall ended...
            assert!(p.late + due >= stall, "{p:?}");
            // ...and the latency includes that wait.
            assert!(p.latency >= p.late, "{p:?}");
            assert!(p.latency + due >= stall, "{p:?}");
        }
    }

    #[test]
    fn every_request_runs_once_and_keeps_its_verdict() {
        let schedule: Vec<Duration> = (0..20).map(Duration::from_millis).collect();
        let seen = Mutex::new(Vec::new());
        let out = run_paced(&schedule, 2, |i| {
            seen.lock().unwrap().push(i);
            i % 2 == 0
        });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen, (0..20).collect::<Vec<_>>());
        assert_eq!(out.iter().filter(|p| p.ok).count(), 10);
        assert!(out.iter().all(|p| p.latency >= p.late));
    }
}
