//! The event-level station behind the engine's event and auto
//! fidelities: `servers` identical servers with a constant service time
//! over a bounded FIFO waiting room.
//!
//! A constant service time means requests finish in the order they
//! start, so the requests in service are a FIFO of completion times and
//! no event kernel is needed. Each tick merges that FIFO with the tick's
//! sorted arrivals in the order a `(time, seq)` event kernel runs them
//! when every arrival is scheduled at the start of its tick and every
//! completion when its service begins:
//!
//! * a completion scheduled in an earlier tick runs before an arrival at
//!   the same instant;
//! * a completion scheduled in the current tick runs after every arrival
//!   of that tick at the same instant;
//! * events at the tick's end instant run within the tick.
//!
//! `events` counts arrivals plus completions, as a kernel counts the
//! events it executed. The crate's tests check the station against the
//! same station driven by `elc_simcore::Simulation`.

use std::collections::VecDeque;
use std::iter::repeat_n;

use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use crate::engine::EngineConfig;

/// One tick's arrivals as sorted nanosecond offsets from the tick's
/// start, with the buffers reused from tick to tick.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    offsets: Vec<u64>,
    scratch: Vec<u64>,
}

impl Arrivals {
    /// Samples a Poisson count with mean `lambda`, places each arrival
    /// uniformly over `tick` and returns the sorted offsets.
    pub(crate) fn sample(&mut self, rng: &mut SimRng, lambda: f64, tick: SimDuration) -> &[u64] {
        let n = Poisson::new(lambda.max(0.0))
            .expect("rate is finite and non-negative")
            .sample(rng);
        self.offsets.clear();
        self.offsets
            .reserve(usize::try_from(n).unwrap_or(usize::MAX));
        // `SimDuration::from_secs_f64(rng.range_f64(0.0, span))` without
        // the argument checks, which cost as much as the arithmetic.
        let span = tick.as_secs_f64();
        for _ in 0..n {
            let secs = span * rng.next_f64();
            self.offsets.push((secs * 1e9).round() as u64);
        }
        radix_sort(&mut self.offsets, &mut self.scratch);
        &self.offsets
    }
}

/// Digit width of [`radix_sort`]: E18's offsets stay below 2³⁶ ns, which
/// three passes of 12 bits cover.
const RADIX_BITS: u32 = 12;

/// Sorts `keys` ascending with a least-significant-digit radix sort,
/// skipping the digits above the largest key; `scratch` is the second
/// buffer of the ping-pong. Equal keys cannot be told apart, so the
/// result equals `sort_unstable`'s.
fn radix_sort(keys: &mut Vec<u64>, scratch: &mut Vec<u64>) {
    let max = keys.iter().copied().max().unwrap_or(0);
    let passes = (u64::BITS - max.leading_zeros()).div_ceil(RADIX_BITS);
    let mask = (1u64 << RADIX_BITS) - 1;
    let mut counts = vec![0usize; 1 << RADIX_BITS];
    scratch.clear();
    scratch.resize(keys.len(), 0);
    for pass in 0..passes {
        let shift = pass * RADIX_BITS;
        let digit = |k: u64| ((k >> shift) & mask) as usize;
        counts.fill(0);
        for &k in keys.iter() {
            counts[digit(k)] += 1;
        }
        let mut next = 0;
        for c in &mut counts {
            next += std::mem::replace(c, next);
        }
        for &k in keys.iter() {
            let slot = &mut counts[digit(k)];
            scratch[*slot] = k;
            *slot += 1;
        }
        std::mem::swap(keys, scratch);
    }
}

/// The station's state and tallies.
#[derive(Debug)]
pub(crate) struct Station {
    servers: usize,
    service: SimDuration,
    queue_limit: usize,
    /// The start of the next tick.
    now: SimTime,
    /// Completion times of the requests in service, earliest first.
    in_service: VecDeque<SimTime>,
    /// Arrival times of the waiting requests, earliest first.
    waiting: VecDeque<SimTime>,
    pub(crate) offered: u64,
    pub(crate) served: u64,
    pub(crate) shed: u64,
    pub(crate) peak_queue: usize,
    pub(crate) events: u64,
    /// Requests that started service without waiting. Their latency is
    /// the service time; [`Station::latency`] records them in one go.
    unqueued: u64,
    latency: Histogram,
}

impl Station {
    /// An empty station with the configuration's servers, service time
    /// and waiting room, its clock at zero.
    pub(crate) fn new(cfg: &EngineConfig) -> Self {
        Station {
            servers: usize::try_from(cfg.servers).unwrap_or(usize::MAX),
            service: cfg.service_time,
            queue_limit: usize::try_from(cfg.queue_limit).unwrap_or(usize::MAX),
            now: SimTime::ZERO,
            in_service: VecDeque::new(),
            waiting: VecDeque::new(),
            offered: 0,
            served: 0,
            shed: 0,
            peak_queue: 0,
            events: 0,
            unqueued: 0,
            latency: Histogram::new(),
        }
    }

    /// A station holding `backlog` requests that arrived at time zero:
    /// the first `servers` of them are in service, and their completions
    /// count as scheduled before the first tick.
    pub(crate) fn with_backlog(cfg: &EngineConfig, backlog: u64) -> Self {
        let mut st = Station::new(cfg);
        let backlog = usize::try_from(backlog).expect("backlog fits in memory");
        let starters = backlog.min(st.servers);
        st.peak_queue = backlog;
        st.waiting
            .extend(repeat_n(SimTime::ZERO, backlog - starters));
        st.in_service
            .extend(repeat_n(SimTime::ZERO + st.service, starters));
        st.unqueued = starters as u64;
        st
    }

    /// Requests waiting or in service.
    pub(crate) fn in_system(&self) -> u64 {
        (self.waiting.len() + self.in_service.len()) as u64
    }

    /// The latency histogram (wait + service, seconds), with the
    /// requests that never waited recorded into it.
    pub(crate) fn latency(&mut self) -> &Histogram {
        let n = std::mem::take(&mut self.unqueued);
        self.latency.record_n(self.service.as_secs_f64(), n);
        &self.latency
    }

    /// Runs one tick: `offsets` are the tick's arrivals in nanoseconds
    /// from its start, sorted and none past `tick`.
    pub(crate) fn run_tick(&mut self, offsets: &[u64], tick: SimDuration) {
        let start = self.now;
        let end = start + tick;
        // Everything in service now was scheduled by an earlier tick.
        let mut carried = self.in_service.len();
        for &offset in offsets {
            debug_assert!(offset <= tick.as_nanos(), "arrival past the tick");
            let at = start + SimDuration::from_nanos(offset);
            while let Some(&done) = self.in_service.front() {
                // A same-instant completion precedes the arrival only if
                // an earlier tick scheduled it.
                if done > at || (done == at && carried == 0) {
                    break;
                }
                carried = carried.saturating_sub(1);
                self.complete(done);
            }
            self.arrive(at);
        }
        while let Some(&done) = self.in_service.front() {
            if done > end {
                break;
            }
            self.complete(done);
        }
        self.now = end;
    }

    #[inline]
    fn arrive(&mut self, at: SimTime) {
        self.events += 1;
        self.offered += 1;
        if self.in_service.len() < self.servers {
            self.unqueued += 1;
            self.in_service.push_back(at + self.service);
        } else if self.waiting.len() < self.queue_limit {
            self.waiting.push_back(at);
            self.peak_queue = self.peak_queue.max(self.waiting.len());
        } else {
            self.shed += 1;
        }
    }

    /// Completes the request at the front of `in_service` at `done`.
    #[inline]
    fn complete(&mut self, done: SimTime) {
        self.events += 1;
        self.served += 1;
        self.in_service.pop_front();
        if let Some(arrived) = self.waiting.pop_front() {
            let wait = done.saturating_since(arrived);
            self.latency.record((wait + self.service).as_secs_f64());
            self.in_service.push_back(done + self.service);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radix_sort_equals_sort_unstable() {
        let mut rng = SimRng::seed(17).derive("radix");
        let mut scratch = Vec::new();
        for (len, max) in [
            (0, 1),
            (10, 100),
            (300, 1),
            (1_000, 60_000_000_000),
            (5_000, u64::MAX),
            (20_000, 1 << 40),
        ] {
            let keys: Vec<u64> = (0..len).map(|_| rng.next_u64() % max).collect();
            let mut expect = keys.clone();
            expect.sort_unstable();
            let mut got = keys;
            radix_sort(&mut got, &mut scratch);
            assert_eq!(got, expect, "len {len}, max {max}");
        }
    }

    #[test]
    fn a_backlog_fills_the_servers_first() {
        let cfg = EngineConfig {
            servers: 3,
            ..EngineConfig::sized_for(1.0, 1.0, crate::Fidelity::Auto)
        };
        let mut st = Station::with_backlog(&cfg, 5);
        assert_eq!(st.in_system(), 5);
        assert_eq!(st.peak_queue, 5);
        st.run_tick(&[], SimDuration::from_millis(50));
        assert_eq!((st.served, st.in_system(), st.events), (3, 2, 3));
        st.run_tick(&[], SimDuration::from_secs(1));
        assert_eq!((st.served, st.in_system()), (5, 0));
        assert_eq!(st.latency().count(), 5);
    }
}
