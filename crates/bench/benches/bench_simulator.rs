//! Benchmarks of the auditorium simulator.

// Benchmarks are fixture-driven: a panic on a broken fixture is the
// right failure mode, so the panic-free-library lints are relaxed here.
#![allow(missing_docs, clippy::expect_used, clippy::unwrap_used)]
use criterion::{criterion_group, criterion_main, Criterion};
use thermal_sim::{run, Drive, Layout, Rk4Buffers, Scenario, ThermalParams, ZoneNetwork};

fn bench_derivative(c: &mut Criterion) {
    let net = ZoneNetwork::new(Layout::auditorium(), ThermalParams::default());
    let state = net.initial_state(20.0);
    let mut drive = Drive::quiescent(net.node_count(), 20.0);
    drive.outlet_flow = [0.5, 0.5];
    drive.supply_temp = 14.0;
    let mut out = vec![0.0; net.state_len()];
    c.bench_function("network_derivative", |b| {
        b.iter(|| net.derivative(&state, &drive, &mut out))
    });
}

fn bench_rk4_day(c: &mut Criterion) {
    let net = ZoneNetwork::new(Layout::auditorium(), ThermalParams::default());
    let mut drive = Drive::quiescent(net.node_count(), 20.0);
    drive.outlet_flow = [0.5, 0.5];
    drive.supply_temp = 14.0;
    let mut buf = Rk4Buffers::new(net.state_len());
    c.bench_function("rk4_one_simulated_day", |b| {
        b.iter(|| {
            let mut state = net.initial_state(20.0);
            for _ in 0..1440 {
                net.rk4_step(&mut state, &drive, 60.0, &mut buf);
            }
            state
        })
    });
}

fn bench_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign");
    group.sample_size(10);
    group.bench_function("one_day_full_campaign", |b| {
        b.iter(|| run(&Scenario::quick().with_days(1)).expect("valid scenario"))
    });
    group.finish();
}

criterion_group!(benches, bench_derivative, bench_rk4_day, bench_campaign);
criterion_main!(benches);
