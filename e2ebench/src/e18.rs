//! The `e18-event` workload: E18's university station at event fidelity.
//!
//! E18 runs one pooled station per region over the 16:00–22:00 exam
//! evening in 360 one-minute ticks; each tick samples a Poisson batch of
//! arrivals, sorts it, hands it to `Simulation::schedule_batch` and runs
//! the kernel to the end of the tick. A full university evening takes
//! tens of seconds, so one benchmark iteration runs every 30th of those
//! ticks (16:00, 16:30, …, 21:30): twelve ticks whose arrival batches
//! have exactly the size E18 gives them, through the same public
//! `elc_fluid::engine::run` with E18's station configuration and E18's
//! RNG lineage for region 0.
//!
//! The kernel probe replays the same ticks through `Simulation`'s public
//! functions with spans around sampling, `schedule_batch` and `run_for`,
//! and must reproduce the engine's report exactly.

use std::cell::Cell;
use std::collections::VecDeque;
use std::time::Instant;

use elc_core::experiments::e18;
use elc_core::scenario::Scenario;
use elc_elearn::WorkloadSource;
use elc_fluid::{EngineConfig, EngineReport, Fidelity};
use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::time::{SimDuration, SimTime};
use elc_simcore::Simulation;

use crate::measure::{median, setup_median, timed_loop, Checks, EndToEnd, Metric};
use crate::spans::Spans;

/// Ticks one iteration runs.
const TICKS_PER_ITER: u64 = 12;

/// E18 sizes each station for its regional peak at this utilization
/// (`e18::TARGET_UTIL`; [`Evening::validate`] checks the copy).
const E18_TARGET_UTIL: f64 = 0.6;

/// Where E18's window opens: 16:00 on the second exam day.
fn e18_window_start(scenario: &Scenario) -> SimTime {
    scenario.calendar().exams_start() + SimDuration::from_days(1) + SimDuration::from_hours(16)
}

/// Everything one iteration needs, built once in set-up.
pub struct Evening {
    seed: u64,
    scenario: Scenario,
    workload: Box<dyn WorkloadSource>,
    start: SimTime,
    share: f64,
    stride: u64,
    cfg: EngineConfig,
}

impl Evening {
    /// Builds the university scenario, its workload source and E18's
    /// station configuration for the strided evening.
    pub fn setup(seed: u64) -> Evening {
        let scenario = Scenario::university(seed);
        let workload = scenario.workload();
        let share = f64::from(scenario.shards().max(1));
        let start = e18_window_start(&scenario);
        let sized = EngineConfig::sized_for(
            workload.peak_rate() / share,
            E18_TARGET_UTIL,
            Fidelity::Event,
        );
        let e18_ticks = e18::WINDOW.as_nanos() / sized.tick.as_nanos();
        let cfg = EngineConfig {
            start,
            horizon: sized.tick * TICKS_PER_ITER,
            ..sized
        };
        Evening {
            seed,
            scenario,
            workload,
            start,
            share,
            stride: e18_ticks / TICKS_PER_ITER,
            cfg,
        }
    }

    /// E18's per-region rate at the E18 tick this iteration's clock maps
    /// to: iteration tick `i` reads E18 tick `i × stride`.
    fn rate(&self, t: SimTime) -> f64 {
        let elapsed = t.saturating_since(self.start);
        let e18_t = self.start + SimDuration::from_nanos(elapsed.as_nanos() * self.stride);
        self.workload.rate_at(e18_t) / self.share
    }

    /// E18's RNG lineage for region 0 at this seed.
    fn rng(&self) -> SimRng {
        SimRng::seed(self.seed).derive("e18").derive_u64(0)
    }

    /// One iteration: the strided evening through the engine.
    pub fn iteration(&self) -> EngineReport {
        elc_fluid::engine::run(&self.cfg, &|t| self.rate(t), &mut self.rng())
    }

    /// The request ledger: offered = served + shed + still in the
    /// system, where at most every server and every waiting-room slot
    /// can hold one.
    pub fn ledger_ok(&self, r: &EngineReport) -> bool {
        let in_system = r.offered - r.served - r.shed;
        let room = (self.cfg.servers + self.cfg.queue_limit) as f64;
        [r.offered, r.served, r.shed]
            .iter()
            .all(|v| v.fract() == 0.0 && *v >= 0.0)
            && (0.0..=room).contains(&in_system)
            && r.events_executed > 0
    }

    /// Checks the copied E18 constants (window start, sizing, rate
    /// split) against E18 itself: E18 at fluid fidelity must equal the
    /// engine run on the reconstructed full-window configuration.
    /// Returns the two wall times, E18's first.
    fn validate(&self, spans: &mut Spans, iter: u32, checks: &mut Checks) -> (f64, f64) {
        let fluid = self.scenario.with_fidelity(Fidelity::Fluid);
        let cfg = EngineConfig {
            start: self.start,
            horizon: e18::WINDOW,
            ..EngineConfig::sized_for(
                self.workload.peak_rate() / self.share,
                E18_TARGET_UTIL,
                Fidelity::Fluid,
            )
        };
        let t0 = spans.mark();
        let out = spans.span("core.e18", iter, |_| e18::run(&fluid));
        let rate = |t: SimTime| self.workload.rate_at(t) / self.share;
        let rep = spans.span("fluid.engine_run_full", iter, |_| {
            elc_fluid::engine::run(&cfg, &rate, &mut self.rng())
        });
        checks.check(
            out.rows.len() == 1 && out.rows[0].report == rep,
            "e18: reconstructed station configuration differs from E18's",
        );
        (
            spans.total_s(t0, "core.e18"),
            spans.total_s(t0, "fluid.engine_run_full"),
        )
    }

    /// The kernel probe: the iteration's ticks through `Simulation`'s
    /// public functions, one span per call.
    fn probe(&self, spans: &mut Spans, iter: u32) -> Probe {
        let rng = self.rng();
        let mut arrivals_rng = rng.derive("arrivals");
        let mut sim = Simulation::new(
            rng.derive("engine-event").next_u64(),
            Station::new(&self.cfg),
        );
        let mut offsets: Vec<SimDuration> = Vec::new();
        let tick = self.cfg.tick;
        let span_s = tick.as_secs_f64();
        let mut peak_pending = 0;
        let mut arrivals = 0;
        for i in 0..self.cfg.horizon.as_nanos() / tick.as_nanos() {
            let t = self.start + tick * i;
            let lambda = (self.rate(t) * span_s).max(0.0);
            spans.span("simcore.sample", iter, |_| {
                let n = Poisson::new(lambda)
                    .expect("rate is finite")
                    .sample(&mut arrivals_rng);
                offsets.clear();
                offsets.reserve(usize::try_from(n).expect("batch fits in memory"));
                for _ in 0..n {
                    offsets.push(SimDuration::from_secs_f64(
                        arrivals_rng.range_f64(0.0, span_s),
                    ));
                }
                offsets.sort_unstable();
            });
            arrivals += offsets.len() as u64;
            spans.span("simcore.schedule_batch", iter, |_| {
                sim.schedule_batch(&offsets, arrive)
            });
            peak_pending = peak_pending.max(sim.pending());
            spans.span("simcore.run_for", iter, |_| sim.run_for(tick));
        }
        Probe {
            arrivals,
            events: sim.executed(),
            peak_pending,
            inline: sim.inline_scheduled(),
            spilled: sim.spilled_scheduled(),
            station: sim.into_state(),
        }
    }
}

/// What the probe counted.
struct Probe {
    arrivals: u64,
    events: u64,
    peak_pending: usize,
    inline: u64,
    spilled: u64,
    station: Station,
}

impl Probe {
    /// The probe must reproduce the engine's report exactly.
    fn matches(&self, r: &EngineReport) -> bool {
        let st = &self.station;
        self.arrivals as f64 == r.offered
            && st.offered as f64 == r.offered
            && st.served as f64 == r.served
            && st.shed as f64 == r.shed
            && st.peak_queue as f64 == r.peak_backlog
            && st.latency.p95() == r.p95_latency_s
            && self.events == r.events_executed
    }
}

/// The probe's copy of E18's station: `servers` servers with a fixed
/// service time over a bounded FIFO waiting room. The handlers do what
/// the engine's do, so the kernel sees the same calls.
struct Station {
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

impl Station {
    fn new(cfg: &EngineConfig) -> Self {
        Station {
            servers: cfg.servers,
            busy: 0,
            service: cfg.service_time,
            queue: VecDeque::new(),
            queue_limit: usize::try_from(cfg.queue_limit).expect("waiting room fits in memory"),
            offered: 0,
            served: 0,
            shed: 0,
            peak_queue: 0,
            latency: Histogram::new(),
        }
    }
}

fn arrive(sim: &mut Simulation<Station>) {
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

fn complete(sim: &mut Simulation<Station>) {
    let now = sim.now();
    let st = sim.state_mut();
    st.served += 1;
    if let Some(arrived) = st.queue.pop_front() {
        let service = st.service;
        st.latency
            .record((now.saturating_since(arrived) + service).as_secs_f64());
        sim.schedule_in(service, complete);
    } else {
        st.busy -= 1;
    }
}

/// Pending-set sizes of the fixed kernel series.
const PENDING_SIZES: [(u64, &str); 4] = [
    (1_000, "simcore.pending_1e3"),
    (10_000, "simcore.pending_1e4"),
    (100_000, "simcore.pending_1e5"),
    (1_000_000, "simcore.pending_1e6"),
];

/// Events each series point executes at least.
const SERIES_EVENTS: u64 = 2_000_000;

/// E18's tick shape at fixed batch sizes: each tick schedules `size`
/// sorted arrivals over one minute with `schedule_batch`, then `run_for`
/// drains them; every arrival schedules its completion 50 ms later.
/// Returns ns per executed event, one value per size.
fn pending_series(seed: u64, spans: &mut Spans, iter: u32) -> Vec<Metric> {
    fn arrival(sim: &mut Simulation<()>) {
        sim.schedule_in(SimDuration::from_millis(50), |_: &mut Simulation<()>| {});
    }
    let tick = SimDuration::from_secs(60);
    PENDING_SIZES
        .iter()
        .map(|&(size, name)| {
            let mut rng = SimRng::seed(seed).derive("pending-series").derive_u64(size);
            let mut offsets: Vec<SimDuration> = (0..size)
                .map(|_| SimDuration::from_secs_f64(rng.range_f64(0.0, tick.as_secs_f64())))
                .collect();
            offsets.sort_unstable();
            let mut sim = Simulation::new(seed, ());
            let from = spans.mark();
            spans.span(name, iter, |_| {
                while sim.executed() < SERIES_EVENTS {
                    sim.schedule_batch(&offsets, arrival);
                    sim.run_for(tick);
                }
            });
            let ns = spans.total_s(from, name) * 1e9 / sim.executed() as f64;
            Metric::new(format!("{name}.ns_per_event"), ns, "ns")
        })
        .collect()
}

/// One round of the traced run's E18 section. Returns its per-layer
/// metrics plus the traced (probe) and untraced (engine) iteration wall.
pub fn traced_round(
    ev: &Evening,
    reference: &EngineReport,
    spans: &mut Spans,
    round: u32,
    checks: &mut Checks,
) -> (Vec<Metric>, f64, f64) {
    let t = Instant::now();
    let untraced = ev.iteration();
    let untraced_s = t.elapsed().as_secs_f64();
    checks.check(
        &untraced == reference,
        "e18: untraced report differs from the untimed run",
    );

    let from = spans.mark();
    let calls = Cell::new(0u64);
    let rate_ns = Cell::new(0u128);
    let counting = |t: SimTime| {
        let s = Instant::now();
        let r = ev.rate(t);
        rate_ns.set(rate_ns.get() + s.elapsed().as_nanos());
        calls.set(calls.get() + 1);
        r
    };
    let report = spans.span("fluid.engine_run", round, |_| {
        elc_fluid::engine::run(&ev.cfg, &counting, &mut ev.rng())
    });
    checks.check(
        &report == reference,
        "e18: traced report differs from the untimed run",
    );
    checks.check(
        ev.ledger_ok(&report),
        "e18: traced run's ledger does not balance",
    );

    let probe = spans.span("simcore.probe", round, |s| ev.probe(s, round));
    checks.check(
        probe.matches(&report),
        "e18: kernel probe does not reproduce the engine's report",
    );

    let (e18_s, engine_s): (Vec<f64>, Vec<f64>) =
        (0..9).map(|_| ev.validate(spans, round, checks)).unzip();

    let engine_run_s = spans.total_s(from, "fluid.engine_run");
    let arrivals = probe.arrivals as f64;
    let mut metrics = vec![
        Metric::new("simcore.events", probe.events as f64, "count"),
        Metric::new("simcore.peak_pending", probe.peak_pending as f64, "count"),
        Metric::new("simcore.arrivals", arrivals, "count"),
        Metric::new(
            "simcore.sample_ns_per_arrival",
            spans.total_s(from, "simcore.sample") * 1e9 / arrivals,
            "ns",
        ),
        Metric::new(
            "simcore.schedule_batch_ns_per_event",
            spans.total_s(from, "simcore.schedule_batch") * 1e9 / arrivals,
            "ns",
        ),
        Metric::new(
            "simcore.run_for_ns_per_event",
            spans.total_s(from, "simcore.run_for") * 1e9 / probe.events as f64,
            "ns",
        ),
        Metric::new(
            "simcore.spilled_frac",
            probe.spilled as f64 / (probe.inline + probe.spilled) as f64,
            "frac",
        ),
        Metric::new("fluid.engine_run_s", engine_run_s, "s"),
        Metric::new(
            "fluid.events_per_s",
            report.events_executed as f64 / engine_run_s,
            "1/s",
        ),
        Metric::new("core.e18_self_s", median(&e18_s) - median(&engine_s), "s"),
        Metric::new("elearn.rate_at_calls", calls.get() as f64, "count"),
        Metric::new("elearn.rate_at_s", rate_ns.get() as f64 * 1e-9, "s"),
    ];
    metrics.push(Metric::new(
        "spans.e18-event.unattributed_s",
        spans.self_s(from, "simcore.probe"),
        "s",
    ));
    metrics.extend(pending_series(ev.seed, spans, round));
    let traced_s = spans.total_s(from, "simcore.probe");
    (metrics, traced_s, untraced_s)
}

/// The end-to-end run: set-up, one untimed reference iteration, then
/// timed iterations for `seconds`, each checked against the reference.
pub fn end_to_end(seed: u64, seconds: f64) -> EndToEnd {
    let (setup, ev) = setup_median(|| Evening::setup(seed));
    let mut checks = Checks::default();
    let reference = ev.iteration();
    checks.check(
        ev.ledger_ok(&reference),
        "e18: untimed run's ledger does not balance",
    );
    let timed = timed_loop(seconds, || {
        let t = Instant::now();
        let report = ev.iteration();
        let wall = t.elapsed().as_secs_f64();
        checks.check(
            report == reference && ev.ledger_ok(&report),
            "e18: iteration differs from the untimed run",
        );
        wall
    });
    EndToEnd {
        setup,
        timed,
        checks,
        work: Some(("events", reference.events_executed as f64)),
        extra: vec![Metric::new(
            "arrivals_per_tick",
            reference.offered / TICKS_PER_ITER as f64,
            "count",
        )],
    }
}
