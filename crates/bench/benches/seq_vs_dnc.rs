//! Baseline comparison: sequential synthesis (eq. 2.1) vs divide-and-conquer
//! (eq. 3.2) vs the CPU-only executor that bypasses the graphics
//! subsystem (the paper's "different architectures" discussion).

use criterion::{criterion_group, criterion_main, Criterion};
use softpipe::machine::MachineConfig;
use spotnoise::dnc::{synthesize_cpu_only, synthesize_dnc};
use spotnoise::synth::synthesize_sequential;
use spotnoise_bench::{analytic_small, atmospheric_scaled, Workload};

fn bench_workload(c: &mut Criterion, workload: &Workload, label: &str) {
    let mut group = c.benchmark_group(format!("seq_vs_dnc/{label}"));
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("sequential", |b| {
        b.iter(|| synthesize_sequential(workload.field.as_ref(), &workload.spots, &workload.config))
    });
    let machine = MachineConfig::onyx2_full();
    group.bench_function("dnc_8p_4g", |b| {
        b.iter(|| {
            synthesize_dnc(
                workload.field.as_ref(),
                &workload.spots,
                &workload.config,
                &machine,
            )
        })
    });
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    group.bench_function("cpu_only", |b| {
        b.iter(|| {
            synthesize_cpu_only(
                workload.field.as_ref(),
                &workload.spots,
                &workload.config,
                threads,
            )
        })
    });
    group.finish();
}

fn bench_seq_vs_dnc(c: &mut Criterion) {
    bench_workload(c, &analytic_small(), "analytic_small");
    bench_workload(c, &atmospheric_scaled(), "atmospheric_scaled");
}

criterion_group!(benches, bench_seq_vs_dnc);
criterion_main!(benches);
