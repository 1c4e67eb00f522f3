//! E18's request ledger: every region's station must account for every
//! request it was offered.
//!
//! offered = served + shed + in_system, where in_system (requests still
//! waiting or in service when the window closes) lies between zero and
//! the station's servers plus its waiting room. A region run entirely at
//! event level counts whole requests, so all four terms are integers.
//! The check runs at event and auto fidelity with one and two regions
//! (`--shards`), and once more at auto fidelity with the rate curve
//! doubled, where the evening overloads the station and the report is
//! pinned exactly.

use elearn_cloud::core::experiments::e18;
use elearn_cloud::core::Scenario;
use elearn_cloud::fluid::{engine, EngineReport, Fidelity};
use elearn_cloud::simcore::rng::SimRng;

/// Round-off allowed on fluid-integrated totals (requests).
const FLUID_TOL: f64 = 1e-6;

fn assert_ledger(label: &str, r: &EngineReport, room: f64) {
    let in_system = r.offered - r.served - r.shed;
    if r.fluid_ticks == 0 {
        for (name, v) in [
            ("offered", r.offered),
            ("served", r.served),
            ("shed", r.shed),
        ] {
            assert!(
                v >= 0.0 && v.fract() == 0.0,
                "{label}: {name} = {v} is not a whole count"
            );
        }
        assert!(
            (0.0..=room).contains(&in_system),
            "{label}: in_system = {in_system} outside [0, {room}]"
        );
    } else {
        let tol = FLUID_TOL * r.offered.max(1.0);
        assert!(
            in_system >= -tol && in_system <= room + tol,
            "{label}: in_system = {in_system} outside [0, {room}]"
        );
    }
}

#[test]
fn every_e18_row_balances_at_event_and_auto_fidelity() {
    // The smallest preset: its event-fidelity evening (about 7.7M events)
    // takes about a second at test optimisation.
    let base = Scenario::small_college(42);
    for fidelity in [Fidelity::Event, Fidelity::Auto] {
        for shards in [1, 2] {
            let scenario = base.with_fidelity(fidelity).with_shards(shards);
            let station = e18::station(&scenario);
            let room = (station.servers + station.queue_limit) as f64;
            let out = e18::run(&scenario);
            assert_eq!(out.rows.len(), shards as usize);
            for row in &out.rows {
                let label = format!("{fidelity} shards={shards} region-{}", row.region);
                assert!(row.report.offered > 0.0, "{label}: nothing offered");
                if fidelity == Fidelity::Event {
                    assert!(row.report.events_executed > 0, "{label}: no events ran");
                }
                assert_ledger(&label, &row.report, room);
            }
        }
    }
}

#[test]
fn e18_auto_at_twice_the_rate_curve_is_pinned() {
    // Region 0 of a one-region small-college evening, E18's station and
    // RNG lineage, twice E18's demand: auto fidelity switches to event
    // level for the last five hours and sheds.
    let scenario = Scenario::small_college(42)
        .with_fidelity(Fidelity::Auto)
        .with_shards(1);
    let station = e18::station(&scenario);
    let workload = scenario.workload();
    let mut rng = SimRng::seed(42).derive("e18").derive_u64(0);
    let report = engine::run(&station, &|t| 2.0 * workload.rate_at(t), &mut rng);
    let pinned = EngineReport {
        fidelity: Fidelity::Auto,
        offered: 7719276.0,
        served: 7384413.0,
        shed: 334834.0,
        p95_latency_s: 29.9866821457648,
        mean_utilization: 0.9925925925925919,
        peak_backlog: 10800.0,
        events_executed: 12914889,
        fluid_ticks: 60,
        event_ticks: 300,
        switches: 1,
        materialized: 0,
    };
    assert_eq!(report, pinned);
    assert_ledger(
        "auto ×2",
        &report,
        (station.servers + station.queue_limit) as f64,
    );
}

#[test]
fn e18_university_at_fluid_fidelity_is_pinned() {
    // Region 0 of E18's university evening, seed 42: the station is
    // sized for 60% of the peak, so the flow never builds a backlog.
    let out = e18::run(&Scenario::university(42).with_fidelity(Fidelity::Fluid));
    let pinned = EngineReport {
        fidelity: Fidelity::Fluid,
        offered: 48240000.0,
        served: 48240000.0,
        shed: 0.0,
        p95_latency_s: 0.05,
        mean_utilization: 0.5145929339477762,
        peak_backlog: 0.0,
        events_executed: 0,
        fluid_ticks: 360,
        event_ticks: 0,
        switches: 0,
        materialized: 0,
    };
    assert_eq!(out.rows[0].report, pinned);
}
