//! The hybrid-fidelity serving engine: one pooled queueing station
//! driven by a rate curve, simulated at event, fluid or auto fidelity.
//!
//! This is the execution core behind the national-scale experiment
//! (E18) and the `a5_hotpath` fluid benches. The station — `c` servers
//! with deterministic service time and a bounded waiting room — has two
//! representations, and [`run`] steps one of them per tick:
//!
//! * the **event station**: every request is an individual arrival
//!   (Poisson arrivals per tick, uniform jitter, FIFO waiting room) with
//!   its own completion. The service time is constant, so requests
//!   finish in the order they start and the station keeps its in-service
//!   requests as a FIFO of completion times instead of running an event
//!   kernel; it executes events in the order `elc_simcore::Simulation`
//!   would (see `station.rs`). Exact, and linear in request count.
//! * the **fluid queue**: a [`FluidQueue`] integrates arrival/service
//!   flows per tick; cost is per tick, independent of request volume.
//!
//! Event fidelity steps the event station on every tick and fluid
//! fidelity the fluid queue. Auto fidelity asks a `FidelityController`
//! each tick: it keeps the station fluid in steady state, materializes
//! the backlog into an event station (through the station's RNG
//! lineage) around utilization spikes and surge boundaries, and absorbs
//! the event station back into fluid when the crisis passes.
//!
//! Determinism: all randomness flows from the caller's [`SimRng`]
//! through fixed `derive` labels (`arrivals`, `materialize`), so a seed
//! fully determines the run at any fidelity.

use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};

use crate::control::{FidelityController, Mode, EXIT_UTIL};
use crate::fidelity::Fidelity;
use crate::queue::FluidQueue;
use crate::station::{Arrivals, Station};

/// Fixed integration substeps per tick of the fluid queue.
const SUBSTEPS: u32 = 4;

/// Station and solver parameters for one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Which fidelity to run at.
    pub fidelity: Fidelity,
    /// Where on the workload's clock the run starts (rates are read at
    /// `start + elapsed`).
    pub start: SimTime,
    /// Simulated span.
    pub horizon: SimDuration,
    /// Coarse tick: arrival-sampling slot of the event station,
    /// integration step of the fluid queue.
    pub tick: SimDuration,
    /// Pooled identical servers.
    pub servers: u64,
    /// Deterministic per-request service time.
    pub service_time: SimDuration,
    /// Waiting-room size in requests; arrivals beyond it are shed.
    pub queue_limit: u64,
}

impl EngineConfig {
    /// A station sized for `peak_rps` at `target_util` utilization, with
    /// a 50 ms service time, 60 s ticks over a 24 h horizon and a
    /// waiting room of 30 s × capacity.
    ///
    /// # Panics
    ///
    /// Panics unless `peak_rps` and `target_util` are positive and finite.
    #[must_use]
    pub fn sized_for(peak_rps: f64, target_util: f64, fidelity: Fidelity) -> Self {
        assert!(
            peak_rps.is_finite() && peak_rps > 0.0,
            "bad peak {peak_rps}"
        );
        assert!(
            target_util.is_finite() && target_util > 0.0,
            "bad target utilization {target_util}"
        );
        let service_time = SimDuration::from_millis(50);
        let per_server = 1.0 / service_time.as_secs_f64();
        let servers = (peak_rps / target_util / per_server).ceil().max(1.0) as u64;
        let capacity = servers as f64 * per_server;
        EngineConfig {
            fidelity,
            start: SimTime::ZERO,
            horizon: SimDuration::from_hours(24),
            tick: SimDuration::from_secs(60),
            servers,
            service_time,
            queue_limit: (capacity * 30.0).ceil() as u64,
        }
    }

    /// Pooled capacity in requests/second.
    #[must_use]
    pub fn capacity_rps(&self) -> f64 {
        self.servers as f64 / self.service_time.as_secs_f64()
    }

    fn ticks(&self) -> u64 {
        let n = self.horizon.as_nanos() / self.tick.as_nanos();
        assert!(n > 0, "horizon must cover at least one tick");
        n
    }
}

/// What one engine run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineReport {
    /// Fidelity the run used.
    pub fidelity: Fidelity,
    /// Requests offered (sampled in event mode, integrated in fluid).
    pub offered: f64,
    /// Requests served to completion.
    pub served: f64,
    /// Requests shed at a full waiting room.
    pub shed: f64,
    /// 95th-percentile request latency (wait + service), seconds.
    pub p95_latency_s: f64,
    /// Mean offered-rate utilization across ticks.
    pub mean_utilization: f64,
    /// Peak backlog (waiting requests or fluid equivalent).
    pub peak_backlog: f64,
    /// Discrete events executed (0 in pure fluid mode).
    pub events_executed: u64,
    /// Ticks integrated as fluid.
    pub fluid_ticks: u64,
    /// Ticks simulated per-request.
    pub event_ticks: u64,
    /// Fluid↔event transitions (auto mode).
    pub switches: u32,
    /// Requests created by backlog materialization (auto mode).
    pub materialized: u64,
}

impl EngineReport {
    /// Shed requests over offered requests (0 when nothing was offered).
    #[must_use]
    pub fn shed_fraction(&self) -> f64 {
        if self.offered > 0.0 {
            self.shed / self.offered
        } else {
            0.0
        }
    }
}

/// Utilization floor under which a rate swing is not a surge trigger:
/// below it the waiting room is empty on both sides of the step, so the
/// fluid integration absorbs it exactly. A provisioned station (E18
/// sizes for 60% peak utilization) must not burn event ticks on every
/// hourly step of the diurnal table. It is the controller's exit
/// threshold, so a surge-entered segment can always drain back to fluid.
const SURGE_UTIL_FLOOR: f64 = EXIT_UTIL;

/// What the run has counted outside the fluid queue: the tallies of
/// every event segment that has ended, and the latency of every request
/// served at either fidelity.
#[derive(Debug, Default)]
struct Tally {
    offered: f64,
    served: f64,
    shed: f64,
    events: u64,
    latency: Histogram,
}

impl Tally {
    /// Folds an ended event segment's tallies in and returns the
    /// requests still waiting or in service.
    fn fold(&mut self, mut st: Station) -> u64 {
        self.events += st.events;
        self.offered += st.offered as f64;
        self.served += st.served as f64;
        self.shed += st.shed as f64;
        self.latency.merge(st.latency());
        st.in_system()
    }
}

/// Runs the station at the configured fidelity over the horizon.
///
/// `rate_at` is the offered-rate curve (requests/second) on the
/// workload's own clock; the engine reads it at
/// `cfg.start + elapsed`. All randomness derives from `rng`.
///
/// # Panics
///
/// Panics if the configuration is degenerate (zero servers, zero tick,
/// or a horizon shorter than one tick).
pub fn run(cfg: &EngineConfig, rate_at: &dyn Fn(SimTime) -> f64, rng: &mut SimRng) -> EngineReport {
    assert!(cfg.servers > 0, "need at least one server");
    assert!(!cfg.tick.is_zero(), "tick must be positive");
    let capacity = cfg.capacity_rps();
    let mut fq = FluidQueue::new(capacity, cfg.queue_limit as f64);
    let mut controller = FidelityController::new();
    let mut arr_rng = rng.derive("arrivals");
    let mut mat_rng = rng.derive("materialize");
    let mut arrivals = Arrivals::default();
    let mut tally = Tally::default();
    let mut util_sum = 0.0;
    let mut peak_backlog = 0.0f64;
    let mut fluid_ticks = 0u64;
    let mut event_ticks = 0u64;
    let mut materialized = 0u64;
    // Event fidelity runs one event segment over the whole horizon.
    let mut segment = (cfg.fidelity == Fidelity::Event).then(|| Station::new(cfg));
    let service_s = cfg.service_time.as_secs_f64();
    let tick_s = cfg.tick.as_secs_f64();
    let ticks = cfg.ticks();
    for i in 0..ticks {
        let t = cfg.start + SimDuration::from_nanos(cfg.tick.as_nanos() * i);
        let rate = rate_at(t);
        let utilization = rate / capacity;
        util_sum += utilization;
        let mode = match cfg.fidelity {
            Fidelity::Event => Mode::Event,
            Fidelity::Fluid => Mode::Fluid,
            Fidelity::Auto => {
                // A fast rate swing is a surge boundary — but only when
                // the station is running hot (see SURGE_UTIL_FLOOR).
                let next_rate = rate_at(t + cfg.tick);
                let next_util = next_rate / capacity;
                let surge = (next_rate - rate).abs() / capacity > 0.05
                    && utilization.max(next_util) > SURGE_UTIL_FLOOR;
                controller.decide(t.as_nanos(), surge, utilization)
            }
        };
        match mode {
            Mode::Fluid => {
                if let Some(st) = segment.take() {
                    // Event→fluid: absorb waiting + in-flight requests
                    // back as backlog.
                    fq.absorb(tally.fold(st));
                }
                let flow = fq.step(cfg.tick, rate, SUBSTEPS);
                peak_backlog = peak_backlog.max(flow.backlog);
                let flow_served = flow.served.round() as u64;
                if flow_served > 0 {
                    tally
                        .latency
                        .record_n(service_s + fq.wait_estimate_s(), flow_served);
                }
                fluid_ticks += 1;
            }
            Mode::Event => {
                let st = segment.get_or_insert_with(|| {
                    // Fluid→event: materialize the backlog into waiting
                    // requests through this station's RNG lineage. Their
                    // fluid inflow is already in `fq.offered_total`, so
                    // the station's `offered` counts fresh arrivals only.
                    let backlog = fq.materialize(&mut mat_rng, t.as_nanos());
                    materialized += backlog;
                    Station::with_backlog(cfg, backlog)
                });
                st.run_tick(
                    arrivals.sample(&mut arr_rng, rate * tick_s, cfg.tick),
                    cfg.tick,
                );
                peak_backlog = peak_backlog.max(st.peak_queue as f64);
                event_ticks += 1;
            }
        }
    }
    if let Some(st) = segment.take() {
        fq.absorb(tally.fold(st));
    }
    EngineReport {
        fidelity: cfg.fidelity,
        offered: tally.offered + fq.offered_total(),
        served: tally.served + fq.served_total(),
        shed: tally.shed + fq.shed_total(),
        p95_latency_s: tally.latency.p95(),
        mean_utilization: util_sum / ticks as f64,
        peak_backlog,
        events_executed: tally.events,
        fluid_ticks,
        event_ticks,
        switches: controller.switches(),
        materialized,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diurnal-ish day: quiet night, evening peak at `peak` rps.
    fn day_rate(peak: f64) -> impl Fn(SimTime) -> f64 {
        move |t: SimTime| {
            let hour = (t.as_secs_f64() / 3_600.0) % 24.0;
            let shape = (1.0 - ((hour - 20.0) / 8.0).powi(2)).max(0.05);
            peak * shape
        }
    }

    fn cfg(fidelity: Fidelity, peak: f64) -> EngineConfig {
        EngineConfig::sized_for(peak, 0.7, fidelity)
    }

    #[test]
    fn fluid_matches_event_on_a_moderate_day() {
        let peak = 400.0;
        let mut rng_e = SimRng::seed(42).derive("engine-test");
        let event = run(&cfg(Fidelity::Event, peak), &day_rate(peak), &mut rng_e);
        let mut rng_f = SimRng::seed(42).derive("engine-test");
        let fluid = run(&cfg(Fidelity::Fluid, peak), &day_rate(peak), &mut rng_f);
        assert!(event.events_executed > 0);
        assert_eq!(fluid.events_executed, 0);
        let rel = (event.served - fluid.served).abs() / event.served;
        assert!(
            rel < 0.01,
            "served: event {} vs fluid {} ({rel})",
            event.served,
            fluid.served
        );
        assert!((event.shed_fraction() - fluid.shed_fraction()).abs() < 0.01);
    }

    #[test]
    fn auto_mode_switches_and_still_agrees() {
        // Saturating peak forces event segments around the evening surge.
        let peak = 900.0;
        let config = EngineConfig {
            fidelity: Fidelity::Auto,
            ..EngineConfig::sized_for(600.0, 0.7, Fidelity::Auto)
        };
        let mut rng_a = SimRng::seed(7).derive("engine-test");
        let auto = run(&config, &day_rate(peak), &mut rng_a);
        assert!(auto.switches > 0, "saturation must force event fidelity");
        assert!(auto.event_ticks > 0 && auto.fluid_ticks > 0);
        assert!(auto.events_executed > 0);
        assert_eq!(
            auto,
            saturating_day_pin(31102617.71875, 30803126.71875, 299461.0, 44524141)
        );
        let event_cfg = EngineConfig {
            fidelity: Fidelity::Event,
            ..config.clone()
        };
        let mut rng_e = SimRng::seed(7).derive("engine-test");
        let event = run(&event_cfg, &day_rate(peak), &mut rng_e);
        let rel = (event.served - auto.served).abs() / event.served;
        assert!(
            rel < 0.02,
            "served: event {} vs auto {} ({rel})",
            event.served,
            auto.served
        );
        assert!(
            (event.shed_fraction() - auto.shed_fraction()).abs() < 0.02,
            "shed: event {} vs auto {}",
            event.shed_fraction(),
            auto.shed_fraction()
        );
    }

    #[test]
    fn fluid_saturating_day_is_pinned() {
        // The day `saturating_day_pin` runs at auto fidelity, integrated
        // as flow throughout: the evening fills the waiting room and sheds.
        let config = EngineConfig::sized_for(600.0, 0.7, Fidelity::Fluid);
        let mut rng = SimRng::seed(7).derive("engine-test");
        let expect = EngineReport {
            fidelity: Fidelity::Fluid,
            offered: 31101424.21875,
            served: 30803407.5,
            shed: 298016.71875000006,
            p95_latency_s: 29.9866821457648,
            mean_utilization: 0.4185699857174582,
            peak_backlog: 25800.0,
            events_executed: 0,
            fluid_ticks: 1440,
            event_ticks: 0,
            switches: 0,
            materialized: 0,
        };
        assert_eq!(run(&config, &day_rate(900.0), &mut rng), expect);
    }

    #[test]
    fn auto_is_deterministic_for_a_seed() {
        let peak = 900.0;
        let config = EngineConfig {
            fidelity: Fidelity::Auto,
            ..EngineConfig::sized_for(600.0, 0.7, Fidelity::Auto)
        };
        let mut a = SimRng::seed(11).derive("engine-test");
        let mut b = SimRng::seed(11).derive("engine-test");
        let ra = run(&config, &day_rate(peak), &mut a);
        let rb = run(&config, &day_rate(peak), &mut b);
        assert_eq!(ra, rb);
        assert_eq!(
            ra,
            saturating_day_pin(31097143.71875, 30800725.71875, 296377.0, 44516266)
        );
    }

    /// The auto report of a 900 rps day on a station sized for 600 rps,
    /// as the kernel-driven station produced it: one switch to event
    /// fidelity for the evening, no backlog materialized.
    fn saturating_day_pin(offered: f64, served: f64, shed: f64, events: u64) -> EngineReport {
        EngineReport {
            fidelity: Fidelity::Auto,
            offered,
            served,
            shed,
            p95_latency_s: 29.9866821457648,
            mean_utilization: 0.4185699857174582,
            peak_backlog: 25800.0,
            events_executed: events,
            fluid_ticks: 992,
            event_ticks: 448,
            switches: 1,
            materialized: 0,
        }
    }

    #[test]
    fn auto_segments_seeded_with_a_backlog_are_pinned() {
        // 10 ms ticks alternating six ticks at 1.5× capacity with ten at
        // 0.3×: every low phase returns the station to fluid with
        // requests still in it, and the next surge materializes them.
        let config = EngineConfig {
            tick: SimDuration::from_millis(10),
            horizon: SimDuration::from_secs(60),
            ..EngineConfig::sized_for(200.0, 1.0, Fidelity::Auto)
        };
        let capacity = config.capacity_rps();
        let tick = config.tick.as_nanos();
        let rate = move |t: SimTime| {
            if (t.as_nanos() / tick) % 16 < 6 {
                1.5 * capacity
            } else {
                0.3 * capacity
            }
        };
        let pinned = [
            (
                3,
                9107.999999999909,
                9099.400000000027,
                0.10741370613265487,
                23.0,
                14461,
                1544,
            ),
            (
                5,
                9055.999999999909,
                9038.000000000025,
                0.1121693171876942,
                25.0,
                14378,
                1606,
            ),
        ];
        for (seed, offered, served, p95, peak, events, materialized) in pinned {
            let mut rng = SimRng::seed(seed).derive("engine-test");
            let report = run(&config, &rate, &mut rng);
            let expect = EngineReport {
                fidelity: Fidelity::Auto,
                offered,
                served,
                shed: 0.0,
                p95_latency_s: p95,
                mean_utilization: 0.7500000000000531,
                peak_backlog: peak,
                events_executed: events,
                fluid_ticks: 1500,
                event_ticks: 4500,
                switches: 751,
                materialized,
            };
            assert_eq!(report, expect, "seed {seed}");
            // The request ledger across real materializations: whatever
            // is neither served nor shed is still in the station, which
            // holds at most `servers + queue_limit` requests. Each
            // fluid→event switch rounds the backlog to whole requests,
            // moving the balance by less than one request. Switches
            // alternate starting with fluid→event.
            let m = f64::from(report.switches.div_ceil(2));
            let in_system = report.offered - report.served - report.shed;
            let room = (config.servers + config.queue_limit) as f64;
            assert!(
                (-m..=room + m).contains(&in_system),
                "seed {seed}: in_system = {in_system} outside [{}, {}]",
                -m,
                room + m
            );
        }
    }

    #[test]
    fn more_servers_never_shed_more() {
        // The same arrivals (sampling never reads `servers`) and waiting
        // room, served by c, c + 1 and 2c servers through an hour at up
        // to 1.5× the c-server capacity.
        let base = EngineConfig {
            start: SimTime::from_secs(19 * 3_600 + 1_800),
            horizon: SimDuration::from_hours(1),
            ..EngineConfig::sized_for(100.0, 0.6, Fidelity::Event)
        };
        let c = base.servers;
        let peak = 1.5 * base.capacity_rps();
        for seed in [1, 2, 3] {
            let shed: Vec<f64> = [c, c + 1, 2 * c]
                .iter()
                .map(|&servers| {
                    let cfg = EngineConfig {
                        servers,
                        ..base.clone()
                    };
                    let mut rng = SimRng::seed(seed).derive("engine-test");
                    run(&cfg, &day_rate(peak), &mut rng).shed
                })
                .collect();
            assert!(shed[0] > 0.0, "seed {seed}: c servers must shed");
            assert!(
                shed.windows(2).all(|w| w[0] >= w[1]),
                "seed {seed}: shed by c, c+1, 2c servers = {shed:?}"
            );
        }
    }

    #[test]
    fn fluid_mode_cost_is_independent_of_scale() {
        // Not a wall-clock assertion (CI noise) — structural: fluid
        // executes zero events no matter the population.
        let peak = 2_000_000.0;
        let mut rng = SimRng::seed(5).derive("engine-test");
        let report = run(&cfg(Fidelity::Fluid, peak), &day_rate(peak), &mut rng);
        assert_eq!(report.events_executed, 0);
        assert!(report.offered > 1e10, "a 2M rps day offers >10B requests");
        assert!(report.served > 0.0);
    }

    #[test]
    fn saturated_station_sheds_in_both_fidelities() {
        // Peak 3× capacity: both paths must shed a similar fraction.
        let capacity_peak = 300.0;
        let day_peak = 900.0;
        let event_cfg = EngineConfig::sized_for(capacity_peak, 0.7, Fidelity::Event);
        let fluid_cfg = EngineConfig {
            fidelity: Fidelity::Fluid,
            ..event_cfg.clone()
        };
        let mut rng_e = SimRng::seed(3).derive("engine-test");
        let event = run(&event_cfg, &day_rate(day_peak), &mut rng_e);
        let mut rng_f = SimRng::seed(3).derive("engine-test");
        let fluid = run(&fluid_cfg, &day_rate(day_peak), &mut rng_f);
        assert!(event.shed_fraction() > 0.2);
        assert!(
            (event.shed_fraction() - fluid.shed_fraction()).abs() < 0.02,
            "event {} vs fluid {}",
            event.shed_fraction(),
            fluid.shed_fraction()
        );
    }
}
