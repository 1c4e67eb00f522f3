//! The FIFO station against the event kernel.
//!
//! The reference below is the station as `arrive`/`complete` handlers on
//! `elc_simcore::Simulation`: each tick schedules its arrivals with
//! `schedule_batch` and runs the kernel to the tick's end with `run_for`,
//! and each started service schedules its completion. The kernel runs
//! events in `(time, seq)` order, so its tie-breaking is the definition
//! [`Station`] must reproduce.

use std::collections::VecDeque;

use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

use crate::engine::{self, EngineConfig, EngineReport};
use crate::station::Station;
use crate::Fidelity;

/// The reference station's state.
struct Reference {
    servers: u64,
    busy: u64,
    service: SimDuration,
    queue: VecDeque<SimTime>,
    queue_limit: usize,
    offered: u64,
    served: u64,
    shed: u64,
    peak_queue: usize,
    latency: Histogram,
}

impl Reference {
    fn new(cfg: &EngineConfig) -> Self {
        Reference {
            servers: cfg.servers,
            busy: 0,
            service: cfg.service_time,
            queue: VecDeque::new(),
            queue_limit: usize::try_from(cfg.queue_limit).expect("room fits in memory"),
            offered: 0,
            served: 0,
            shed: 0,
            peak_queue: 0,
            latency: Histogram::new(),
        }
    }
}

fn arrive(sim: &mut Simulation<Reference>) {
    let now = sim.now();
    let st = sim.state_mut();
    st.offered += 1;
    if st.busy < st.servers {
        st.busy += 1;
        let service = st.service;
        st.latency.record(service.as_secs_f64());
        sim.schedule_in(service, complete);
    } else if st.queue.len() < st.queue_limit {
        st.queue.push_back(now);
        st.peak_queue = st.peak_queue.max(st.queue.len());
    } else {
        st.shed += 1;
    }
}

fn complete(sim: &mut Simulation<Reference>) {
    let now = sim.now();
    let st = sim.state_mut();
    st.served += 1;
    if let Some(arrived) = st.queue.pop_front() {
        let service = st.service;
        let wait = now.saturating_since(arrived);
        st.latency.record((wait + service).as_secs_f64());
        sim.schedule_in(service, complete);
    } else {
        st.busy -= 1;
    }
}

/// What both stations are compared on after every tick.
#[derive(Debug, PartialEq)]
struct Tally {
    offered: u64,
    served: u64,
    shed: u64,
    peak_queue: usize,
    in_system: u64,
    events: u64,
    p95_bits: u64,
    count: u64,
}

fn reference_tally(sim: &Simulation<Reference>) -> Tally {
    let st = sim.state();
    Tally {
        offered: st.offered,
        served: st.served,
        shed: st.shed,
        peak_queue: st.peak_queue,
        in_system: st.queue.len() as u64 + st.busy,
        events: sim.executed(),
        p95_bits: st.latency.p95().to_bits(),
        count: st.latency.count(),
    }
}

fn fifo_tally(st: &mut Station) -> Tally {
    let latency = st.latency();
    let (p95_bits, count) = (latency.p95().to_bits(), latency.count());
    Tally {
        offered: st.offered,
        served: st.served,
        shed: st.shed,
        peak_queue: st.peak_queue,
        in_system: st.in_system(),
        events: st.events,
        p95_bits,
        count,
    }
}

/// Runs hand-written ticks (sorted offsets in milliseconds) through both
/// stations and requires equal tallies after every tick. Returns the
/// final tally.
fn run_both(cfg: &EngineConfig, ticks: &[&[u64]]) -> Tally {
    let mut sim = Simulation::new(0, Reference::new(cfg));
    let mut fifo = Station::new(cfg);
    for (i, offsets_ms) in ticks.iter().enumerate() {
        let offsets: Vec<SimDuration> = offsets_ms
            .iter()
            .map(|&ms| SimDuration::from_millis(ms))
            .collect();
        sim.schedule_batch(&offsets, arrive);
        sim.run_for(cfg.tick);
        let nanos: Vec<u64> = offsets.iter().map(|d| d.as_nanos()).collect();
        fifo.run_tick(&nanos, cfg.tick);
        assert_eq!(fifo_tally(&mut fifo), reference_tally(&sim), "tick {i}");
    }
    fifo_tally(&mut fifo)
}

/// One server, 50 ms service, one-second ticks, a waiting room of
/// `queue_limit`.
fn one_server(queue_limit: u64) -> EngineConfig {
    EngineConfig {
        tick: SimDuration::from_secs(1),
        horizon: SimDuration::from_secs(10),
        servers: 1,
        queue_limit,
        ..EngineConfig::sized_for(1.0, 1.0, Fidelity::Event)
    }
}

#[test]
fn a_carried_completion_runs_before_a_same_instant_arrival() {
    // The 970 ms arrival completes at 1.020 s, in the next tick, where a
    // request arrives at 20 ms. The completion frees the server first.
    let t = run_both(&one_server(0), &[&[970], &[20], &[]]);
    assert_eq!((t.served, t.shed), (2, 0));
    let t = run_both(&one_server(1), &[&[970], &[20], &[]]);
    assert_eq!((t.served, t.peak_queue), (2, 0));
}

#[test]
fn a_completion_from_this_tick_runs_after_a_same_instant_arrival() {
    // The 100 ms arrival completes at 150 ms, when the second request
    // arrives: the arrival runs first and finds the server busy.
    let t = run_both(&one_server(0), &[&[100, 150], &[]]);
    assert_eq!((t.served, t.shed), (1, 1));
    let t = run_both(&one_server(1), &[&[100, 150], &[]]);
    assert_eq!((t.served, t.peak_queue, t.shed), (2, 1, 0));
}

#[test]
fn events_at_the_tick_end_run_within_the_tick() {
    // An arrival exactly at the horizon, tied with a completion scheduled
    // in the same tick; then an arrival at the next tick's first instant.
    let t = run_both(&one_server(0), &[&[950, 1_000], &[0], &[]]);
    assert_eq!((t.served, t.shed), (2, 1));
    let t = run_both(&one_server(1), &[&[950, 1_000], &[0], &[]]);
    assert_eq!((t.served, t.peak_queue, t.shed), (3, 1, 0));
}

#[test]
fn grid_aligned_arrivals_tie_everywhere_and_still_match() {
    // Offsets on a 10 ms grid with a 50 ms service time: arrivals and
    // completions share instants all the time, within and across ticks.
    let mut rng = SimRng::seed(5).derive("grid");
    for (servers, queue_limit) in [(1, 0), (1, 3), (3, 2), (4, 40)] {
        let cfg = EngineConfig {
            servers,
            queue_limit,
            ..one_server(0)
        };
        let ticks: Vec<Vec<u64>> = (0..40)
            .map(|_| {
                let n = rng.range_u64(0, 120);
                let mut offsets: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 100) * 10).collect();
                offsets.sort_unstable();
                offsets
            })
            .collect();
        let refs: Vec<&[u64]> = ticks.iter().map(Vec::as_slice).collect();
        run_both(&cfg, &refs);
    }
}

/// The reference engine run: the event fidelity's arrival sampling,
/// each tick through the kernel.
fn reference_run(
    cfg: &EngineConfig,
    rate_at: &dyn Fn(SimTime) -> f64,
    rng: &SimRng,
) -> EngineReport {
    let mut arr_rng = rng.derive("arrivals");
    let mut sim = Simulation::new(0, Reference::new(cfg));
    let mut offsets = Vec::new();
    let span = cfg.tick.as_secs_f64();
    let ticks = cfg.horizon.as_nanos() / cfg.tick.as_nanos();
    let mut util_sum = 0.0;
    for i in 0..ticks {
        let rate = rate_at(cfg.start + cfg.tick * i);
        util_sum += rate / cfg.capacity_rps();
        let n = Poisson::new((rate * span).max(0.0))
            .expect("rate is finite")
            .sample(&mut arr_rng);
        offsets.clear();
        for _ in 0..n {
            offsets.push(SimDuration::from_secs_f64(arr_rng.range_f64(0.0, span)));
        }
        offsets.sort_unstable();
        sim.schedule_batch(&offsets, arrive);
        sim.run_for(cfg.tick);
    }
    let events = sim.executed();
    let st = sim.into_state();
    EngineReport {
        fidelity: Fidelity::Event,
        offered: st.offered as f64,
        served: st.served as f64,
        shed: st.shed as f64,
        p95_latency_s: st.latency.p95(),
        mean_utilization: util_sum / ticks as f64,
        peak_backlog: st.peak_queue as f64,
        events_executed: events,
        fluid_ticks: 0,
        event_ticks: ticks,
        switches: 0,
        materialized: 0,
    }
}

#[test]
fn event_fidelity_matches_the_kernel_station() {
    // Four servers (80 rps) over a 20-minute evening peaking at
    // `60 × scale` rps: ×1 queues, ×1.4 saturates, ×2 sheds.
    let cfg = EngineConfig {
        horizon: SimDuration::from_mins(20),
        ..EngineConfig::sized_for(60.0, 0.8, Fidelity::Event)
    };
    assert_eq!(cfg.servers, 4);
    for seed in [42, 9001, 7] {
        for scale in [1.0, 1.4, 2.0] {
            let rate = |t: SimTime| {
                let min = t.as_secs_f64() / 60.0;
                let shape = (0.3 + min / 10.0).min(1.0).min(0.3 + (20.0 - min) / 10.0);
                60.0 * scale * shape
            };
            let rng = SimRng::seed(seed).derive("oracle");
            let expect = reference_run(&cfg, &rate, &rng);
            let got = engine::run(&cfg, &rate, &mut rng.clone());
            assert_eq!(got, expect, "seed {seed}, scale ×{scale}");
            if scale == 2.0 {
                assert!(got.shed > 0.0, "×2 must overload the station");
            }
        }
    }
}
