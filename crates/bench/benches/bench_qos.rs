//! T-imd — interactive MD slowdown vs network QoS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spice_bench::BENCH_SEED;
use spice_core::config::Scale;
use spice_core::experiments::imd_qos;
use spice_gridsim::network::{Path, QosProfile};
use spice_steering::imd::{simulate_session, ImdConfig};
use spice_telemetry::Telemetry;

fn qos(c: &mut Criterion) {
    let report = imd_qos::run(Scale::Bench, BENCH_SEED);
    println!("{}", report.render());

    let mut g = c.benchmark_group("imd_session");
    for (name, profile) in [
        ("lightpath", QosProfile::TransAtlanticLightpath),
        ("commodity", QosProfile::TransAtlanticCommodity),
        ("lan", QosProfile::Lan),
    ] {
        g.bench_with_input(BenchmarkId::new("simulate", name), &profile, |b, &p| {
            let path = Path::new(vec![p.link()]);
            let cfg = ImdConfig::default();
            b.iter(|| simulate_session(&cfg, &path, &path, &Telemetry::disabled(), 0));
        });
    }
    g.finish();
}

criterion_group!(benches, qos);
criterion_main!(benches);
