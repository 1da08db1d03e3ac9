//! Open-loop load: requests are sent on a fixed schedule whatever the
//! server's state, and each is timed from when it was due, so a stall
//! also charges the wait it imposes on every later request.

use crate::common::ms;
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Gap between the schedule's creation and its first due time, so the
/// first request is not late before the generator starts.
const LEAD: Duration = Duration::from_millis(50);

/// Request `i` is due `i / rate` seconds after `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    period: Duration,
}

impl Schedule {
    pub fn new(start: Instant, rate_per_s: f64) -> Self {
        Schedule {
            start,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + self.offset(i)
    }

    /// Request `i`'s due time relative to `start`.
    pub fn offset(&self, i: usize) -> Duration {
        self.period * u32::try_from(i).expect("request index fits u32")
    }
}

/// How one request ended, as seen by whoever waited for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    pub done: Instant,
    /// The server's own queue-to-completion time for the request.
    pub server: Duration,
    /// Requests fused into the forward pass that answered this one.
    pub batch: usize,
    /// The error kind when the request was refused or failed.
    pub error: Option<&'static str>,
    /// Whether the output matched the reference (false when it failed).
    pub output_ok: bool,
}

/// One request's timeline, as offsets from the schedule's start.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub due: Duration,
    /// When the generator began the submit call.
    pub sent: Duration,
    /// When the submit call returned.
    pub submitted: Duration,
    pub done: Duration,
    pub server: Duration,
    pub batch: usize,
    pub error: Option<&'static str>,
    pub output_ok: bool,
}

impl Record {
    /// Time from due to completion: what a user who issued the request
    /// on schedule waits.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent the request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends `n` requests at `rate_per_s` from the calling thread (the single
/// generator) while one collector thread waits for each in turn.
/// `submit(i)` sends request `i` and must not block; `finish(i, handle)`
/// blocks until that request ends. Returns the schedule's start, which
/// the records' offsets count from.
pub fn drive<H: Send>(
    rate_per_s: f64,
    n: usize,
    mut submit: impl FnMut(usize) -> H,
    finish: impl Fn(usize, H) -> Completion + Sync,
) -> (Instant, Vec<Record>) {
    let schedule = Schedule::new(Instant::now() + LEAD, rate_per_s);
    let at = |t: Instant| t.saturating_duration_since(schedule.start);
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, H)>();
        let finish = &finish;
        let collector = scope.spawn(move || {
            let mut records = Vec::with_capacity(n);
            for (i, sent, submitted, handle) in rx {
                let c = finish(i, handle);
                records.push(Record {
                    due: schedule.offset(i),
                    sent: at(sent),
                    submitted: at(submitted),
                    done: at(c.done),
                    server: c.server,
                    batch: c.batch,
                    error: c.error,
                    output_ok: c.output_ok,
                });
            }
            records
        });
        for i in 0..n {
            let due = schedule.due(i);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let handle = submit(i);
            let submitted = Instant::now();
            tx.send((i, sent, submitted, handle))
                .expect("the collector outlives the generator");
        }
        drop(tx);
        let records = collector.join().expect("collector thread panicked");
        (schedule.start, records)
    })
}

/// The figures one open-loop phase yields.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Latency from due, in ms, of every request; a failed one never
    /// completes and counts as infinitely late.
    pub latency_ms: Vec<f64>,
    /// Generator lateness of every request, in ms.
    pub late_ms: Vec<f64>,
    /// Requests that succeeded within the latency limit.
    pub within_limit: usize,
    pub attempted: usize,
    pub failed: usize,
    /// Failures by error kind.
    pub errors: BTreeMap<&'static str, u64>,
}

impl Summary {
    /// Share of attempted requests that succeeded within the limit, in %.
    /// A refused or failed request counts as a miss.
    pub fn within_limit_pct(&self) -> f64 {
        100.0 * self.within_limit as f64 / self.attempted.max(1) as f64
    }
}

pub fn summarize(records: &[Record], limit: Duration) -> Summary {
    let mut s = Summary {
        latency_ms: Vec::new(),
        late_ms: Vec::new(),
        within_limit: 0,
        attempted: records.len(),
        failed: 0,
        errors: BTreeMap::new(),
    };
    for r in records {
        s.late_ms.push(ms(r.late()));
        match r.error {
            Some(kind) => {
                s.failed += 1;
                *s.errors.entry(kind).or_default() += 1;
                s.latency_ms.push(f64::INFINITY);
            }
            None => {
                s.latency_ms.push(ms(r.latency()));
                if r.latency() <= limit {
                    s.within_limit += 1;
                }
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due_ms: u64, sent_ms: u64, done_ms: u64, error: Option<&'static str>) -> Record {
        let d = Duration::from_millis;
        Record {
            due: d(due_ms),
            sent: d(sent_ms),
            submitted: d(sent_ms),
            done: d(done_ms),
            server: d(done_ms - sent_ms),
            batch: 1,
            error,
            output_ok: error.is_none(),
        }
    }

    #[test]
    fn due_times_follow_the_rate() {
        let start = Instant::now();
        let s = Schedule::new(start, 20.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.offset(3), Duration::from_millis(150));
        assert_eq!(s.due(40) - start, Duration::from_secs(2));
    }

    #[test]
    fn latency_counts_from_due_so_a_stall_charges_later_requests() {
        // The generator stalled 100 ms before request 1, so request 1 went
        // out 100 ms late and request 2, due at 100 ms, right after it. The
        // server took 10 and 20 ms, yet users waited 110 and 70 ms.
        let records = [
            rec(0, 0, 10, None),
            rec(50, 150, 160, None),
            rec(100, 150, 170, None),
        ];
        let s = summarize(&records, Duration::from_millis(60));
        assert_eq!(s.latency_ms, vec![10.0, 110.0, 70.0]);
        assert_eq!(s.late_ms, vec![0.0, 100.0, 50.0]);
        assert_eq!(s.within_limit, 1);
    }

    #[test]
    fn refused_requests_miss_the_limit_and_count_as_failed() {
        let records = [
            rec(0, 0, 5, None),
            rec(10, 10, 10, Some("ServeOverflow")),
            rec(20, 20, 25, None),
            rec(30, 30, 30, Some("ServeOverflow")),
        ];
        let s = summarize(&records, Duration::from_secs(1));
        assert_eq!((s.attempted, s.failed), (4, 2));
        assert_eq!(s.errors["ServeOverflow"], 2);
        assert_eq!(s.latency_ms, vec![5.0, f64::INFINITY, 5.0, f64::INFINITY]);
        assert_eq!(s.within_limit_pct(), 50.0);
    }

    #[test]
    fn drive_reports_generator_lateness_after_a_blocking_submit() {
        // Submit 1 blocks for 30 ms at 500 req/s (2 ms apart), so
        // requests 2.. are sent late and their latency includes it.
        let (_, records) = drive(
            500.0,
            6,
            |i| {
                if i == 1 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                i
            },
            |_, _| Completion {
                done: Instant::now(),
                server: Duration::ZERO,
                batch: 1,
                error: None,
                output_ok: true,
            },
        );
        assert_eq!(records.len(), 6);
        assert!(records[2].late() >= Duration::from_millis(25));
        assert!(records[2].latency() >= records[2].late());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.due, Duration::from_millis(2 * i as u64));
            assert!(r.sent >= r.due && r.submitted >= r.sent);
        }
    }
}
