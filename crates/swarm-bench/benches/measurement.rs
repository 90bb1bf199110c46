//! Throughput of the measurement pipeline's catalog generation. The
//! seed-process walk behind Figure 1 is measured by `catalog_bench` and
//! swarmbench's `catalog` workload.

use criterion::{criterion_group, criterion_main, Criterion};
use swarm_measurement::{generate_catalog, CatalogConfig};

fn bench_measurement(c: &mut Criterion) {
    c.bench_function("generate_catalog_1pct", |b| {
        b.iter(|| {
            generate_catalog(&CatalogConfig {
                scale: 0.01,
                seed: 1,
            })
        })
    });
}

criterion_group!(benches, bench_measurement);
criterion_main!(benches);
