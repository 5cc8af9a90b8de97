//! The open-loop schedule: operation `i` is *due* at `i × interval`
//! whatever happened to the operations before it. An operation that could
//! not go out when due because the one before it was still in flight is
//! timed from its due instant, so a stall shows in every request it
//! delayed, not only in the one that happened to be in flight. An operation
//! nothing held up is timed from the instant the generator's timer actually
//! fired: how late a sleeping thread wakes on a shared host is the
//! generator's lateness (reported as lag), not the system's latency.

use std::time::{Duration, Instant};

/// Time as the schedule sees it; the tests drive a fake one.
pub trait Clock {
    /// Time since the clock's origin.
    fn now(&self) -> Duration;
    /// Returns no earlier than `t` (immediately when `t` has passed).
    fn sleep_until(&self, t: Duration);
}

/// The wall clock, with its origin at construction.
pub struct WallClock(Instant);

impl WallClock {
    /// A clock reading zero now.
    pub fn start() -> Self {
        Self(Instant::now())
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.0.elapsed()
    }

    fn sleep_until(&self, t: Duration) {
        // Sleeping, not spinning: the serve workloads pin the whole
        // process to one CPU, and a spinning generator would take that
        // CPU from the server it is measuring.
        if let Some(wait) = t.checked_sub(self.now()) {
            std::thread::sleep(wait);
        }
    }
}

/// One scheduled operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// When the schedule wanted it sent.
    pub due: Duration,
    /// When it was actually sent.
    pub sent: Duration,
    /// When its latency starts to count: `due` if the previous operation
    /// was still in flight then, else `sent`.
    pub start: Duration,
    /// When its reply was complete.
    pub done: Duration,
    /// Whether the operation succeeded.
    pub ok: bool,
}

impl Sample {
    /// What a user who arrived on schedule waited: from `start`.
    pub fn latency(&self) -> Duration {
        self.done - self.start
    }

    /// Latency from the actual send — the service time alone.
    pub fn service_time(&self) -> Duration {
        self.done - self.sent
    }

    /// How late the generator sent it.
    pub fn lag(&self) -> Duration {
        self.sent - self.due
    }
}

/// Runs `op(i)` for every `i` whose due time `i × interval` falls before
/// `until`, one at a time on the calling thread. Operations that fall due
/// during a slow one are sent back to back once it returns, each still
/// timed from its own due instant.
pub fn run<C: Clock>(
    clock: &C,
    interval: Duration,
    until: Duration,
    mut op: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples: Vec<Sample> = Vec::new();
    for i in 0.. {
        let due = interval * i as u32;
        if due >= until {
            break;
        }
        clock.sleep_until(due);
        let sent = clock.now();
        let held_up = samples.last().is_some_and(|prev| prev.done > due);
        let ok = op(i);
        samples.push(Sample {
            due,
            sent,
            start: if held_up { due } else { sent },
            done: clock.now(),
            ok,
        });
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A clock that only moves when told to, and whose sleeps overshoot
    /// by a fixed amount (a timer that fires late).
    struct FakeClock {
        now: Cell<Duration>,
        overshoot: Duration,
    }

    impl FakeClock {
        fn exact() -> Self {
            Self {
                now: Cell::new(Duration::ZERO),
                overshoot: Duration::ZERO,
            }
        }

        fn advance(&self, d: Duration) {
            self.now.set(self.now.get() + d);
        }
    }

    impl Clock for FakeClock {
        fn now(&self) -> Duration {
            self.now.get()
        }
        fn sleep_until(&self, t: Duration) {
            if t > self.now.get() {
                self.now.set(t + self.overshoot);
            }
        }
    }

    const MS: Duration = Duration::from_millis(1);
    const US100: Duration = Duration::from_micros(100);

    #[test]
    fn a_stall_is_charged_to_every_request_it_delays() {
        let clock = FakeClock::exact();
        // One request per millisecond for 8 ms; each takes 100 µs, except
        // request 2, which stalls for 4 ms (an ingest holding the lock).
        let samples = run(&clock, MS, MS * 8, |i| {
            clock.advance(if i == 2 { MS * 4 } else { US100 });
            true
        });
        assert_eq!(samples.len(), 8);
        let from_due: Vec<u128> = samples.iter().map(|s| s.latency().as_micros()).collect();
        // 0 and 1 run on schedule. 2 is due at 2 ms and done at 6 ms.
        // 3, 4, 5 were due at 3, 4, 5 ms but go out back to back from 6 ms:
        // done at 6.1, 6.2, 6.3 ms. 6 is due at 6 ms, sent at 6.3 ms.
        // 7 is on schedule again.
        assert_eq!(from_due, [100, 100, 4000, 3100, 2200, 1300, 400, 100]);
        // From the actual send, the stall would have shown once.
        let service: Vec<u128> = samples
            .iter()
            .map(|s| s.service_time().as_micros())
            .collect();
        assert_eq!(service, [100, 100, 4000, 100, 100, 100, 100, 100]);
        let lag: Vec<u128> = samples.iter().map(|s| s.lag().as_micros()).collect();
        assert_eq!(lag, [0, 0, 0, 3000, 2100, 1200, 300, 0]);
        // Four requests missed a 1 ms limit; timed from the send, one would.
        assert_eq!(from_due.iter().filter(|&&us| us > 1000).count(), 4);
        assert_eq!(service.iter().filter(|&&us| us > 1000).count(), 1);
    }

    #[test]
    fn a_late_timer_is_lag_not_latency_unless_a_stall_caused_it() {
        // Every sleep overshoots by 150 µs; each request takes 100 µs,
        // except request 1, which stalls for 2.5 ms.
        let clock = FakeClock {
            now: Cell::new(Duration::ZERO),
            overshoot: Duration::from_micros(150),
        };
        let samples = run(&clock, MS, MS * 5, |i| {
            clock.advance(if i == 1 { MS * 5 / 2 } else { US100 });
            true
        });
        let latency: Vec<u128> = samples.iter().map(|s| s.latency().as_micros()).collect();
        let lag: Vec<u128> = samples.iter().map(|s| s.lag().as_micros()).collect();
        // 0 starts at t=0 without sleeping. 1 wakes 150 µs late, nothing in
        // flight: timed from its send. 2 and 3 fell due (2 ms, 3 ms) while 1
        // was in flight until 3.65 ms: timed from due. 4 wakes late again.
        assert_eq!(latency, [100, 2500, 1750, 850, 100]);
        assert_eq!(lag, [0, 150, 1650, 750, 150]);
    }

    #[test]
    fn schedule_ends_at_the_deadline_and_reports_failures() {
        let clock = FakeClock::exact();
        let samples = run(&clock, MS * 400, MS * 1000, |i| {
            clock.advance(MS);
            i != 1
        });
        let due: Vec<u128> = samples.iter().map(|s| s.due.as_millis()).collect();
        assert_eq!(due, [0, 400, 800]);
        let ok: Vec<bool> = samples.iter().map(|s| s.ok).collect();
        assert_eq!(ok, [true, false, true]);
    }
}
