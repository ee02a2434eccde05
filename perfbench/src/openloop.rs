//! Load generation: an open loop timed from each request's due time,
//! and a closed loop for saturation throughput.
//!
//! Both drive a fixed set of senders (one thread each, typically one
//! persistent connection each). Senders take requests from a shared
//! counter in due order, so a request waits for the first free sender.
//! Open-loop latency runs from the request's due time to its reply:
//! time spent waiting behind a slow or stalled request counts against
//! every request it delays.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// One open-loop request as the generator saw it.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Index into the planned requests.
    pub index: usize,
    /// Send time minus due time: how late the generator issued it
    /// (including any wait for a free sender).
    pub late: Duration,
    /// Reply time minus due time.
    pub latency: Duration,
    /// What the call returned.
    pub result: R,
}

/// Evenly spaced due times: request `i` is due `i / rate` seconds after
/// the phase starts.
pub fn schedule(count: usize, rate_per_s: f64) -> Vec<Duration> {
    (0..count)
        .map(|i| Duration::from_secs_f64(i as f64 / rate_per_s))
        .collect()
}

/// Runs one open-loop phase: request `i` is due at `start + due[i]`,
/// where `start` is when this call begins. Each sender waits until its
/// next request is due, issues it with `call(sender, i, due_at)`, and
/// blocks for the reply. Returns one sample per request, in index
/// order.
pub fn run<S, R>(
    senders: &mut [S],
    due: &[Duration],
    call: impl Fn(&mut S, usize, Instant) -> R + Sync,
) -> Vec<Sample<R>>
where
    S: Send,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut samples: Vec<Sample<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = senders
            .iter_mut()
            .map(|sender| {
                let (next, call) = (&next, &call);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = due.get(index) else {
                            return out;
                        };
                        let due_at = start + *offset;
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let result = call(sender, index, due_at);
                        let done = Instant::now();
                        out.push(Sample {
                            index,
                            late: sent.saturating_duration_since(due_at),
                            latency: done.saturating_duration_since(due_at),
                            result,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop sender panicked"))
            .collect()
    });
    samples.sort_by_key(|s| s.index);
    samples
}

/// Runs a closed loop for `length`: each sender issues its next request
/// (indices `0, 1, 2, …` shared across senders) as soon as the previous
/// reply arrives, until the phase ends. Returns the results in index
/// order and the time from the start to the last reply.
pub fn closed<S, R>(
    senders: &mut [S],
    length: Duration,
    call: impl Fn(&mut S, usize) -> R + Sync,
) -> (Vec<R>, Duration)
where
    S: Send,
    R: Send,
{
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + length;
    let (mut results, last): (Vec<(usize, R)>, Instant) = std::thread::scope(|scope| {
        let workers: Vec<_> = senders
            .iter_mut()
            .map(|sender| {
                let (next, call) = (&next, &call);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut last = start;
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        out.push((index, call(sender, index)));
                        last = Instant::now();
                    }
                    (out, last)
                })
            })
            .collect();
        let mut all = Vec::new();
        let mut last = start;
        for worker in workers {
            let (out, done) = worker.join().expect("closed-loop sender panicked");
            all.extend(out);
            last = last.max(done);
        }
        (all, last)
    });
    results.sort_by_key(|(index, _)| *index);
    (results.into_iter().map(|(_, r)| r).collect(), last - start)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_spaces_requests_evenly() {
        let due = schedule(3, 4.0);
        assert_eq!(due, [0.0, 0.25, 0.5].map(Duration::from_secs_f64));
    }

    #[test]
    fn a_stall_counts_against_the_requests_it_delays() {
        // One sender, a request due every 10 ms; request 2 stalls for
        // 80 ms. Requests 3..=9 fall due during the stall: their service
        // time is ~0, but they leave late, so due-time latency charges
        // them for the wait.
        let ms = Duration::from_millis;
        let due = schedule(12, 100.0);
        let samples = run(&mut [()], &due, |_, i, _| {
            if i == 2 {
                std::thread::sleep(ms(80));
            }
            i
        });
        assert_eq!(samples.len(), 12);
        assert!(samples
            .iter()
            .enumerate()
            .all(|(i, s)| s.index == i && s.result == i));
        assert!(samples[1].latency < ms(10), "{:?}", samples[1].latency);
        assert!(samples[2].latency >= ms(80));
        // Request 3 was due at 30 ms and sent at ~100 ms.
        assert!(samples[3].late >= ms(60), "{:?}", samples[3].late);
        assert!(samples[3].latency >= ms(60), "{:?}", samples[3].latency);
        // Lateness shrinks as the backlog drains at ~0 service time.
        assert!(samples[8].latency < samples[3].latency);
        assert!(samples[11].latency < ms(10), "{:?}", samples[11].latency);
    }

    #[test]
    fn a_free_sender_takes_over_from_a_stalled_one() {
        let ms = Duration::from_millis;
        let due = schedule(6, 100.0);
        let samples = run(&mut [(), ()], &due, |_, i, _| {
            if i == 0 {
                std::thread::sleep(ms(60));
            }
        });
        // With a second sender free, request 1 leaves on time.
        assert!(samples[1].late < ms(10), "{:?}", samples[1].late);
        assert!(samples[0].latency >= ms(60));
    }

    #[test]
    fn closed_loop_issues_fresh_indices_until_the_phase_ends() {
        let (results, elapsed) = closed(&mut [(), ()], Duration::from_millis(30), |_, i| {
            std::thread::sleep(Duration::from_millis(2));
            i
        });
        assert!(results.len() >= 4);
        assert!(results.iter().enumerate().all(|(i, &r)| r == i));
        assert!(elapsed >= Duration::from_millis(30));
    }
}
