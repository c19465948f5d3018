//! Load generators: an open loop on a fixed schedule and a closed loop with
//! a fixed window of outstanding requests.
//!
//! Both drive a [`Service`] from the calling thread only. The open loop
//! submits each request when it falls due, whether or not earlier ones
//! have completed, and times every request from its *due* time — so a
//! stall inflates the latency of every request queued behind it, and how
//! late the generator itself ran is reported separately. The closed loop
//! submits a new request only when one completes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Something that serves numbered requests.
pub trait Service {
    /// Submits request `seq`. `false` means the service refused it (shed
    /// or draining): it will never complete.
    fn submit(&mut self, seq: u64) -> bool;
    /// Waits at most `timeout` for one completion and returns its `seq`.
    fn wait(&mut self, timeout: Duration) -> Option<u64>;
}

/// How long a loop waits for an answer after its last submission before it
/// gives the missing ones up as failed.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

/// What one open-loop phase saw, indexed by request sequence number.
#[derive(Debug, Clone, Default)]
pub struct OpenLoop {
    /// Completion time minus due time, for every completed request.
    pub latency_ns: Vec<u64>,
    /// Submission time minus due time, for every submitted request: how
    /// late the generator ran.
    pub late_ns: Vec<u64>,
    /// Completion time (ns since phase start) per request; `None` if the
    /// request was refused or never answered.
    pub done_at: Vec<Option<u64>>,
}

/// Runs the open loop: request `i` falls due `due_ns[i]` nanoseconds after
/// the start (`due_ns` ascending).
pub fn open_loop<S: Service>(svc: &mut S, due_ns: &[u64]) -> OpenLoop {
    let n = due_ns.len();
    let mut out = OpenLoop {
        done_at: vec![None; n],
        ..OpenLoop::default()
    };
    let start = Instant::now();
    let since = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
    let mut next = 0usize;
    let mut outstanding = 0usize;
    let mut last_submit = start;
    while next < n || outstanding > 0 {
        let now = since(Instant::now());
        while next < n && due_ns[next] <= now {
            out.late_ns
                .push(since(Instant::now()).saturating_sub(due_ns[next]));
            if svc.submit(next as u64) {
                outstanding += 1;
            }
            next += 1;
            last_submit = Instant::now();
        }
        let timeout = if next < n {
            Duration::from_nanos(due_ns[next].saturating_sub(since(Instant::now())))
        } else if last_submit.elapsed() > ANSWER_TIMEOUT {
            break;
        } else {
            Duration::from_millis(100)
        };
        if let Some(seq) = svc.wait(timeout) {
            let done = since(Instant::now());
            let i = seq as usize;
            out.done_at[i] = Some(done);
            out.latency_ns.push(done.saturating_sub(due_ns[i]));
            outstanding -= 1;
        }
    }
    out
}

/// What one closed-loop round saw.
#[derive(Debug, Clone, Default)]
pub struct ClosedLoop {
    /// Requests submitted (sequence numbers `0..submitted`).
    pub submitted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Submission to completion, per completed request.
    pub latency_ns: Vec<u64>,
    /// Wall time from the first submission to the last completion.
    pub elapsed: Duration,
}

/// Runs the closed loop: keeps `window` requests outstanding until
/// `duration` has passed, then waits for the stragglers.
pub fn closed_loop<S: Service>(svc: &mut S, window: usize, duration: Duration) -> ClosedLoop {
    let mut out = ClosedLoop::default();
    let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(window);
    let start = Instant::now();
    let mut last_progress = start;
    loop {
        while sent_at.len() < window && start.elapsed() < duration {
            let seq = out.submitted;
            out.submitted += 1;
            let t = Instant::now();
            if svc.submit(seq) {
                sent_at.insert(seq, t);
            }
        }
        if sent_at.is_empty() || last_progress.elapsed() > ANSWER_TIMEOUT {
            break;
        }
        if let Some(seq) = svc.wait(Duration::from_millis(100)) {
            if let Some(t) = sent_at.remove(&seq) {
                out.latency_ns.push(t.elapsed().as_nanos() as u64);
            }
            out.completed += 1;
            last_progress = Instant::now();
        }
    }
    out.elapsed = start.elapsed();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::{channel, Receiver, Sender};

    /// A one-thread FIFO server that answers instantly except for one
    /// request, on which it stalls.
    struct Stub {
        tx: Option<Sender<u64>>,
        rx: Receiver<u64>,
        worker: Option<std::thread::JoinHandle<()>>,
    }

    impl Stub {
        fn new(stall_on: u64, stall: Duration) -> Stub {
            let (req_tx, req_rx) = channel::<u64>();
            let (done_tx, done_rx) = channel::<u64>();
            let worker = std::thread::spawn(move || {
                for seq in req_rx {
                    if seq == stall_on {
                        std::thread::sleep(stall);
                    }
                    if done_tx.send(seq).is_err() {
                        return;
                    }
                }
            });
            Stub {
                tx: Some(req_tx),
                rx: done_rx,
                worker: Some(worker),
            }
        }

        fn stop(&mut self) {
            self.tx = None;
            self.worker
                .take()
                .expect("stopped once")
                .join()
                .expect("stub worker");
        }
    }

    impl Service for Stub {
        fn submit(&mut self, seq: u64) -> bool {
            self.tx.as_ref().expect("running").send(seq).is_ok()
        }
        fn wait(&mut self, timeout: Duration) -> Option<u64> {
            self.rx.recv_timeout(timeout).ok()
        }
    }

    #[test]
    fn open_loop_times_requests_queued_behind_a_stall_from_their_due_time() {
        let stall = Duration::from_millis(60);
        let mut svc = Stub::new(2, stall);
        // Requests every 5 ms: 3..=12 fall due while request 2 stalls.
        let due: Vec<u64> = (0..20).map(|i| i * 5_000_000).collect();
        let run = open_loop(&mut svc, &due);
        svc.stop();
        assert!(run.done_at.iter().all(Option::is_some));
        let lat = |i: usize| run.done_at[i].expect("answered") - due[i];
        // The stalled request and every one queued behind it carry the
        // remaining stall in their latency, measured from when they fell
        // due, not from when the stalled server finally took them.
        assert!(lat(2) >= 55_000_000, "stalled: {}", lat(2));
        assert!(lat(3) >= 50_000_000, "queued: {}", lat(3));
        assert!(lat(6) >= 35_000_000, "queued: {}", lat(6));
        // Long after the stall drained, answers are quick again.
        assert!(lat(19) < 20_000_000, "recovered: {}", lat(19));
        assert_eq!(run.late_ns.len(), 20);
        assert_eq!(run.latency_ns.len(), 20);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_answers_everything() {
        let mut svc = Stub::new(u64::MAX, Duration::ZERO);
        let run = closed_loop(&mut svc, 4, Duration::from_millis(30));
        svc.stop();
        assert!(run.submitted > 4);
        assert_eq!(run.completed, run.submitted);
        assert_eq!(run.latency_ns.len() as u64, run.completed);
    }
}
