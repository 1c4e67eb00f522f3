//! A4 ablation — E12's closed-form load-latency curve vs an explicit
//! M/M/c queueing station.
//!
//! E12, E16 and E17 convert per-minute utilization into latency with one
//! M/M/1-style formula, [`load_latency_s`]. This ablation drives the same
//! offered load through `elc_simcore::queueing::Station` and compares the
//! sojourn times, so the approximation's error is on the record.

use elc_bench::crit::{criterion_group, criterion_main, Criterion};
use elc_bench::{quick_criterion, HARNESS_SEED};
use elc_core::experiments::load_latency_s;
use elc_simcore::dist::{Distribution, Exp};
use elc_simcore::queueing::Station;
use elc_simcore::{SimDuration, SimRng, SimTime};
use std::hint::black_box;

/// Mean service time per request, seconds (matches E12's base latency).
const SERVICE_S: f64 = 0.12;

/// Simulates `servers` at utilization `rho` and returns the mean sojourn.
fn station_sojourn(servers: usize, rho: f64, rng: &mut SimRng) -> f64 {
    let mu = 1.0 / SERVICE_S;
    let lambda = rho * servers as f64 * mu;
    let arrivals = Exp::new(lambda).expect("positive rate");
    let service = Exp::new(mu).expect("positive rate");
    let mut st = Station::new(servers, None);
    let mut t = 0.0;
    for _ in 0..60_000 {
        t += arrivals.sample(rng);
        st.arrive(
            SimTime::from_nanos((t * 1e9) as u64),
            SimDuration::from_secs_f64(service.sample(rng)),
        );
    }
    st.advance_to(SimTime::from_nanos((t * 1e9) as u64) + SimDuration::from_secs(1_000));
    st.sojourn_time().mean()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("a4_latency_model");
    g.bench_function("station_60k_jobs_rho07", |b| {
        b.iter(|| {
            let mut rng = SimRng::seed(HARNESS_SEED);
            station_sojourn(black_box(8), 0.7, &mut rng)
        })
    });
    g.bench_function("formula", |b| b.iter(|| load_latency_s(black_box(0.7))));
    g.finish();

    println!("\nA4 ablation — mean latency: M/M/c station vs E12's formula (8 servers):");
    println!("  rho   station(s)  formula(s)  ratio");
    let mut rng = SimRng::seed(HARNESS_SEED);
    for rho in [0.3, 0.5, 0.7, 0.85, 0.93] {
        let st = station_sojourn(8, rho, &mut rng);
        let f = load_latency_s(rho);
        println!("  {rho:.2}  {st:>9.4}  {f:>9.4}  {:>5.2}", f / st);
    }
    println!("  (the formula is conservative: an M/M/1 curve over-estimates a pooled M/M/c)");
}

criterion_group! {
    name = benches;
    config = quick_criterion();
    targets = bench
}
criterion_main!(benches);
