//! E12 — Elasticity under the exam-day surge.
//!
//! Paper claim under test: the abstract motivates clouds for e-learning by
//! the "dynamically allocation of computation and storage resources";
//! §IV.A's counterpart is the fixed on-premise fleet. A one-minute tick
//! loop steps one exam day (the workload's 4× surge) against five
//! capacity strategies: each tick draws the minute's arrivals, serves
//! what the datacenter's running VMs can take and rejects the rest, and
//! an autoscaler probe runs every two minutes:
//!
//! * **elastic** — target-tracking autoscaler, 2-minute boot delay,
//! * **fixed-teaching** — fleet sized for an ordinary teaching peak (the
//!   §IV.B budget reality): saturates during exams,
//! * **fixed-exam** — fleet sized for the exam peak: never saturates but
//!   idles the rest of the year,
//! * **elastic + host failure** / **fixed-exam + host failure** — the
//!   failure-injection arms: the busiest host dies at the 19:00 peak; the
//!   autoscaler re-provisions, the fixed fleet cannot.
//!
//! Expected shape: fixed-teaching rejects a large share of exam-day
//! requests; elastic tracks the surge with a small transient; fixed-exam
//! matches elastic on service quality at several times the machine-hours —
//! until a host dies, after which only the elastic fleet recovers.
//!
//! At fluid/auto fidelity (`scenario.fidelity()`) the per-tick Poisson
//! draw is replaced by the deterministic mean flow `rate × tick`; the
//! autoscaler is rate-driven either way, so the fleet trajectory is
//! identical and only the demand-side counters change. The event path
//! keeps its exact integer arithmetic, so default-fidelity output is
//! bit-identical to what it was before the fluid path existed.

use elc_analysis::metrics::{Cell, MetricSet, MetricTable};
use elc_analysis::report::Section;
use elc_cloud::autoscale::{AutoScaler, ScaleDecision};
use elc_cloud::datacenter::Datacenter;
use elc_cloud::placement::FirstFit;
use elc_cloud::resources::Resources;
use elc_cloud::vm::VmState;
use elc_elearn::source::WorkloadSource;
use elc_simcore::dist::{Distribution, Poisson};
use elc_simcore::metrics::Histogram;
use elc_simcore::rng::SimRng;
use elc_simcore::series::TimeWeighted;
use elc_simcore::time::{SimDuration, SimTime};

use super::exam_day::{
    exam_day_start, load_latency_s, midnight_fleet, peak_fleet, standard_scaler, Clock, UNIT,
};
use crate::scenario::Scenario;

/// Autoscaler probe interval.
const SCALE_EVERY: SimDuration = SimDuration::from_secs(120);

/// Offset of each probe after the tick that precedes it.
const SCALE_OFFSET: SimDuration = SimDuration::from_secs(30);

/// When the failure arms lose their busiest host: the evening peak.
const HOST_FAILURE_AT: SimDuration = SimDuration::from_hours(19);

/// How a fleet is sized (and whether a host failure is injected at the
/// evening peak).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Target-tracking autoscaler.
    Elastic,
    /// Fixed fleet sized for the teaching-week peak.
    FixedTeaching,
    /// Fixed fleet sized for the exam peak.
    FixedExam,
    /// Autoscaler, with the busiest host killed at 19:00 — the scaler
    /// re-provisions the lost capacity.
    ElasticHostFailure,
    /// Exam-sized fixed fleet, same failure — the lost capacity stays
    /// lost (spare parts are weeks away, §IV.B).
    FixedExamHostFailure,
}

impl Strategy {
    /// All strategies, baseline trio first.
    pub const ALL: [Strategy; 5] = [
        Strategy::Elastic,
        Strategy::FixedTeaching,
        Strategy::FixedExam,
        Strategy::ElasticHostFailure,
        Strategy::FixedExamHostFailure,
    ];

    fn injects_failure(self) -> bool {
        matches!(
            self,
            Strategy::ElasticHostFailure | Strategy::FixedExamHostFailure
        )
    }

    fn is_elastic(self) -> bool {
        matches!(self, Strategy::Elastic | Strategy::ElasticHostFailure)
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Strategy::Elastic => "elastic",
            Strategy::FixedTeaching => "fixed-teaching",
            Strategy::FixedExam => "fixed-exam",
            Strategy::ElasticHostFailure => "elastic+host-failure",
            Strategy::FixedExamHostFailure => "fixed-exam+host-failure",
        };
        f.write_str(s)
    }
}

/// Measured behaviour of one strategy over the exam day.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeRow {
    /// The capacity strategy.
    pub strategy: Strategy,
    /// Fraction of requests rejected for lack of capacity.
    pub rejected_fraction: f64,
    /// 95th-percentile minute-level latency, seconds.
    pub p95_latency_s: f64,
    /// Machine-hours consumed over the day.
    pub vm_hours: f64,
    /// Largest fleet observed.
    pub peak_vms: f64,
}

/// The day's demand ledger. At fluid fidelity the offered flow splits into
/// served and rejected to rounding. At event fidelity the offered requests
/// are exactly the Poisson draws, and each tick truncates its rejected
/// count to a whole request, so less than one request per tick is neither
/// served nor rejected.
#[derive(Debug, Clone, Copy, Default)]
struct Ledger {
    ticks: u64,
    /// Σ per-tick Poisson draws (event fidelity only).
    draws: u64,
    offered: f64,
    served: f64,
    rejected: f64,
}

impl Ledger {
    fn balances(&self, fluid: bool) -> bool {
        let gap = self.offered - self.served - self.rejected;
        // Summing fractional `served` rounds; allow that much below zero.
        let rounding = 1e-9 * self.offered.max(1.0);
        if fluid {
            gap.abs() <= rounding
        } else {
            self.offered == self.draws as f64 && gap >= -rounding && gap < self.ticks as f64
        }
    }
}

/// E12 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Output {
    /// One row per strategy.
    pub rows: Vec<SurgeRow>,
}

struct World {
    dc: Datacenter,
    scaler: Option<AutoScaler>,
    workload: Box<dyn WorkloadSource>,
    clock: Clock,
    rng: SimRng,
    /// Fluid fidelity: demand is the deterministic mean flow
    /// `rate × tick` instead of a Poisson draw per tick.
    fluid: bool,
    /// Requests offered / served / rejected. Event fidelity offers and
    /// rejects only whole requests; fluid fidelity accumulates fractional
    /// flow.
    ledger: Ledger,
    latency: Histogram,
    fleet: TimeWeighted,
}

impl World {
    fn tick(&mut self, now: SimTime) {
        let cal_now = self.clock.calendar(now);
        // Demand is the source's rate curve: a generator and a replayed
        // trace answer with the same bits, and the tick's Poisson draw
        // comes from this strategy's own seed lineage. At fluid fidelity
        // the draw is replaced by the mean flow — the tick-level
        // mean-field limit of the same arrival process.
        let flow = self.workload.rate_at(cal_now) * self.clock.tick_s();
        let arrivals = if self.fluid {
            flow
        } else {
            let n = Poisson::new(flow.max(0.0))
                .expect("rate is finite and non-negative")
                .sample(&mut self.rng);
            self.ledger.draws += n;
            n as f64
        };
        let capacity = self.dc.serving_capacity_rps(now) * self.clock.tick_s();
        let served = arrivals.min(capacity);
        self.ledger.ticks += 1;
        self.ledger.offered += arrivals;
        self.ledger.served += served;
        self.ledger.rejected += if self.fluid {
            arrivals - served
        } else {
            // Keep the event path's exact truncation semantics.
            (arrivals - served) as u64 as f64
        };
        // Latency from the utilization of the serving fleet, capped when
        // saturated.
        let rho = if capacity > 0.0 {
            arrivals / capacity
        } else {
            1.0
        };
        self.latency.record(load_latency_s(rho));
        let fleet_now = self.dc.active_vm_count() as f64;
        self.fleet.set(now, fleet_now);
    }

    fn autoscale(&mut self, now: SimTime) {
        let Some(scaler) = self.scaler.as_mut() else {
            return;
        };
        let rate = self.workload.rate_at(self.clock.calendar(now));
        let current = self.dc.active_vm_count() as u32;
        match scaler.decide(now, current, rate, UNIT.requests_per_sec()) {
            ScaleDecision::ScaleUp(n) => {
                for _ in 0..n {
                    // Capacity errors only happen if the host pool is
                    // undersized; the experiment provisions a generous pool.
                    let _ = self.dc.provision(UNIT, now);
                }
            }
            ScaleDecision::ScaleDown(n) => {
                let victims: Vec<_> = self
                    .dc
                    .vms()
                    .filter(|vm| {
                        matches!(vm.state(), VmState::Provisioning { .. } | VmState::Running)
                    })
                    .map(elc_cloud::vm::Vm::id)
                    .collect();
                for &vm in victims.iter().rev().take(n as usize) {
                    self.dc.decommission(vm, now);
                }
            }
            ScaleDecision::Hold => {}
        }
    }

    /// Kills the most loaded host; its VMs die with it.
    fn kill_busiest_host(&mut self, now: SimTime) {
        let victim = self
            .dc
            .hosts()
            .filter(|h| h.is_alive())
            .max_by_key(|h| h.vms().len())
            .map(elc_cloud::host::Host::id);
        if let Some(host) = victim {
            self.dc.fail_host(host, now);
        }
    }
}

/// Simulates one strategy over 24 hours of the exam day.
fn simulate(scenario: &Scenario, strategy: Strategy) -> (SurgeRow, Ledger) {
    let workload = scenario.workload();
    let clock = Clock::day(exam_day_start(scenario));

    let mut dc = Datacenter::new("e12", FirstFit, SimDuration::from_secs(120));

    // Teaching-week evening peak (no exam multiplier): phase factor 1.0,
    // diurnal max 1.3.
    let teaching_peak = f64::from(workload.students()) / 1_000.0 * 20.0 * 1.3;
    let exam_peak = workload.peak_rate();

    let initial = match strategy {
        Strategy::Elastic | Strategy::ElasticHostFailure => {
            midnight_fleet(workload.rate_at(clock.calendar(SimTime::ZERO)))
        }
        Strategy::FixedTeaching => peak_fleet(teaching_peak),
        Strategy::FixedExam | Strategy::FixedExamHostFailure => peak_fleet(exam_peak),
    };
    // A generous host pool: 40 hosts take the autoscaler's 600-VM ceiling,
    // and a larger fixed fleet gets as many as it fills (each 32-core host
    // fits sixteen 2-core medium VMs).
    dc.add_hosts(
        40.max(initial.div_ceil(16) as usize),
        Resources::new(32, 128.0, 2_000.0),
    );
    for _ in 0..initial {
        dc.provision(UNIT, SimTime::ZERO)
            .expect("host pool sized for any fleet");
    }

    let mut w = World {
        fleet: TimeWeighted::new(SimTime::ZERO, f64::from(initial)),
        dc,
        scaler: strategy.is_elastic().then(standard_scaler),
        workload,
        clock,
        rng: SimRng::seed(scenario.seed())
            .derive("e12")
            .derive(&strategy.to_string()),
        fluid: scenario.fidelity().uses_fluid(),
        ledger: Ledger::default(),
        latency: Histogram::new(),
    };

    let horizon = clock.end();
    let host_failure = strategy
        .injects_failure()
        .then_some(SimTime::ZERO + HOST_FAILURE_AT);
    // The day's ticks run through 24:00 itself: that 1,441st tick is part
    // of E12's goldens.
    for now in clock.ticks().chain([horizon]) {
        // The 19:00 kill lands before the 19:00 tick.
        if host_failure == Some(now) {
            w.kill_busiest_host(now);
        }
        w.tick(now);
        // The scaler probes 30 s after every other tick: 30 s + 120 s·k.
        let probe = now + SCALE_OFFSET;
        if (now - SimTime::ZERO)
            .as_nanos()
            .is_multiple_of(SCALE_EVERY.as_nanos())
            && probe <= horizon
        {
            w.autoscale(probe);
        }
    }

    let ledger = w.ledger;
    debug_assert!(ledger.balances(w.fluid), "{strategy}: {ledger:?}");
    let row = SurgeRow {
        strategy,
        rejected_fraction: if ledger.offered == 0.0 {
            0.0
        } else {
            ledger.rejected / ledger.offered
        },
        p95_latency_s: w.latency.p95(),
        vm_hours: w.fleet.integral(horizon) / 3_600.0,
        peak_vms: w.fleet.max(),
    };
    (row, ledger)
}

/// Runs all five strategies.
#[must_use]
pub fn run(scenario: &Scenario) -> Output {
    Output {
        rows: Strategy::ALL
            .iter()
            .map(|&s| simulate(scenario, s).0)
            .collect(),
    }
}

impl Output {
    /// The row for a strategy.
    #[must_use]
    pub fn row(&self, strategy: Strategy) -> &SurgeRow {
        self.rows
            .iter()
            .find(|r| r.strategy == strategy)
            .expect("all strategies simulated")
    }

    /// The measured table: source of both the display section and the
    /// typed metrics.
    fn metric_table(&self) -> MetricTable {
        let mut t = MetricTable::new([
            "strategy",
            "rejected (%)",
            "p95 latency (s)",
            "vm-hours (day)",
            "peak fleet",
        ]);
        for r in &self.rows {
            t.row(
                r.strategy.to_string(),
                vec![
                    Cell::num(r.rejected_fraction * 100.0),
                    Cell::num(r.p95_latency_s),
                    Cell::num(r.vm_hours),
                    Cell::num(r.peak_vms),
                ],
            );
        }
        t
    }

    /// The typed metrics, without rendering the table.
    #[must_use]
    pub fn metrics(&self) -> MetricSet {
        self.metric_table().metrics()
    }

    /// Renders the E12 section.
    #[must_use]
    pub fn section(&self) -> Section {
        let mut s = Section::new(
            "E12",
            "Exam-day surge: elastic vs fixed capacity",
            self.metric_table().to_table(),
        );
        s.note("paper abstract: e-learning needs \"dynamically allocation of computation and storage resources\"");
        s.note("measured: a teaching-sized fixed fleet drops a large share of exam-day traffic; the autoscaler tracks the surge");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::exam_day::MAX_LATENCY_S;

    fn output() -> Output {
        run(&Scenario::university(41))
    }

    #[test]
    fn fixed_teaching_saturates_on_exam_day() {
        let out = output();
        let fixed = out.row(Strategy::FixedTeaching);
        assert!(
            fixed.rejected_fraction > 0.2,
            "rejected {}",
            fixed.rejected_fraction
        );
        assert!(fixed.p95_latency_s >= MAX_LATENCY_S * 0.9);
    }

    #[test]
    fn elastic_serves_almost_everything() {
        let out = output();
        let elastic = out.row(Strategy::Elastic);
        assert!(
            elastic.rejected_fraction < 0.05,
            "rejected {}",
            elastic.rejected_fraction
        );
    }

    #[test]
    fn fixed_exam_serves_everything_but_idles() {
        let out = output();
        let exam = out.row(Strategy::FixedExam);
        let elastic = out.row(Strategy::Elastic);
        assert!(exam.rejected_fraction < 0.01);
        // Even on the exam day itself — its busiest day of the year — the
        // exam-sized fixed fleet burns ~40% more machine-hours than the
        // autoscaler; on every other day the gap is far larger (E1 prices
        // that waste).
        assert!(
            exam.vm_hours > 1.25 * elastic.vm_hours,
            "exam-sized {} vs elastic {} vm-hours",
            exam.vm_hours,
            elastic.vm_hours
        );
    }

    #[test]
    fn elastic_fleet_moves() {
        let out = output();
        let elastic = out.row(Strategy::Elastic);
        // Fleet grows well beyond its initial size during the surge.
        assert!(elastic.peak_vms > 10.0, "peak {}", elastic.peak_vms);
    }

    #[test]
    fn fixed_fleets_do_not_move() {
        let out = output();
        for s in [Strategy::FixedTeaching, Strategy::FixedExam] {
            let r = out.row(s);
            assert!(
                (r.vm_hours / 24.0 - r.peak_vms).abs() < 1.0,
                "{s}: fleet moved"
            );
        }
    }

    #[test]
    fn section_shape() {
        let s = output().section();
        assert_eq!(s.id(), "E12");
        assert_eq!(s.table().len(), Strategy::ALL.len());
    }

    #[test]
    fn elastic_recovers_from_host_failure() {
        let out = output();
        let healthy = out.row(Strategy::Elastic);
        let failed = out.row(Strategy::ElasticHostFailure);
        // The autoscaler re-provisions within minutes: the day-level
        // rejected fraction stays small.
        assert!(
            failed.rejected_fraction < 0.05,
            "elastic did not recover: {}",
            failed.rejected_fraction
        );
        assert!(failed.rejected_fraction >= healthy.rejected_fraction);
    }

    #[test]
    fn fixed_fleet_cannot_replace_a_dead_host() {
        let out = output();
        let healthy = out.row(Strategy::FixedExam);
        let failed = out.row(Strategy::FixedExamHostFailure);
        // Losing the busiest host at the peak costs the fixed fleet real
        // traffic (no replacement hardware for weeks).
        assert!(
            failed.rejected_fraction > healthy.rejected_fraction + 0.01,
            "failure had no effect: {} vs {}",
            failed.rejected_fraction,
            healthy.rejected_fraction
        );
        // ... and far more than the self-healing elastic fleet loses.
        let elastic_failed = out.row(Strategy::ElasticHostFailure);
        assert!(failed.rejected_fraction > 3.0 * elastic_failed.rejected_fraction);
    }

    #[test]
    fn deterministic() {
        let a = run(&Scenario::university(8));
        let b = run(&Scenario::university(8));
        assert_eq!(a, b);
    }

    #[test]
    fn fluid_fidelity_tracks_the_event_path() {
        use elc_fluid::Fidelity;
        let event = run(&Scenario::university(42));
        let fluid = run(&Scenario::university(42).with_fidelity(Fidelity::Fluid));
        for s in Strategy::ALL {
            let e = event.row(s);
            let f = fluid.row(s);
            // Demand-side counters see only Poisson noise at this scale.
            assert!(
                (e.rejected_fraction - f.rejected_fraction).abs() < 0.02,
                "{s}: rejected event {} vs fluid {}",
                e.rejected_fraction,
                f.rejected_fraction
            );
            // The autoscaler is rate-driven, so the fleet is identical.
            assert!((e.vm_hours - f.vm_hours).abs() < 1e-9, "{s}: fleet moved");
            assert!((e.peak_vms - f.peak_vms).abs() < 1e-9);
        }
    }

    #[test]
    fn every_strategy_balances_its_demand_ledger() {
        use elc_fluid::Fidelity;
        use elc_wltrace::TraceRecorder;
        let generator = Scenario::small_college(42);
        let recorder = TraceRecorder::new();
        let mut recording = generator.clone();
        recording.attach_recorder(recorder.clone());
        let _ = run(&recording);
        let trace = recorder.finish().expect("E12 queried the rate curve");
        let replay = generator.with_workload_trace(trace.into_shared()).unwrap();

        // The offered flow, recomputed from the curve outside the tick loop.
        let clock = Clock::day(exam_day_start(&generator));
        let curve = generator.workload();
        let times: Vec<SimTime> = clock.ticks().chain([clock.end()]).collect();
        let flow: f64 = times
            .iter()
            .map(|&t| curve.rate_at(clock.calendar(t)) * clock.tick_s())
            .sum();
        for scenario in [&generator, &replay] {
            for fidelity in [Fidelity::Event, Fidelity::Fluid] {
                let scenario = scenario.with_fidelity(fidelity);
                for strategy in Strategy::ALL {
                    let (_, l) = simulate(&scenario, strategy);
                    let fluid = fidelity == Fidelity::Fluid;
                    assert!(l.balances(fluid), "{fidelity:?} {strategy}: {l:?}");
                    assert_eq!(l.ticks, times.len() as u64);
                    if fluid {
                        let split = l.served + l.rejected;
                        assert!((flow - split).abs() <= 1e-9 * flow, "{strategy}");
                    } else {
                        // The draws track the curve: within 5σ of its mass.
                        let draws = l.draws as f64;
                        assert!((draws - flow).abs() < 5.0 * flow.sqrt(), "{strategy}");
                    }
                }
            }
        }
    }

    #[test]
    fn national_scale_fixed_fleets_fit_the_host_pool() {
        // An exam-sized fleet for 5M students outgrows the 40-host floor;
        // the pool grows with it instead of failing to place a VM.
        let scenario = Scenario::national_5m(42);
        let out = run(&scenario);
        assert_eq!(out.rows.len(), Strategy::ALL.len());
        let exam = out.row(Strategy::FixedExam);
        assert!(exam.peak_vms > 640.0, "peak {}", exam.peak_vms);
        assert!(exam.rejected_fraction < 0.01);
        let suite = crate::experiments::run_all(&scenario);
        assert_eq!(suite.e12, out);
    }
}
