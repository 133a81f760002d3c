//! Micro-benchmarks of the packed-state exploration core: packed
//! class keys vs materializing canonicalisation, and arena interning vs
//! `HashMap<Configuration, _>` interning. End-to-end cell timings,
//! layer by layer, come from the sweep-path benchmark in `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use robots::visited::ClassArena;
use robots::Configuration;
use std::collections::HashMap;
use trigrid::Coord;

fn bench(c: &mut Criterion) {
    let classes = bench_suite::all_classes();
    // Shifted copies so the canonicalisation paths do real work.
    let shifted: Vec<Configuration> =
        classes.iter().map(|cfg| cfg.translate(Coord::new(6, 2))).collect();

    let mut g = c.benchmark_group("canonical_key");
    g.bench_function("canonical_vec", |b| {
        b.iter(|| shifted.iter().map(|cfg| cfg.canonical().len()).sum::<usize>());
    });
    g.bench_function("canonical_key_packed", |b| {
        b.iter(|| shifted.iter().map(|cfg| cfg.canonical_key().robots()).sum::<usize>());
    });
    g.finish();

    let mut g = c.benchmark_group("intern");
    g.bench_function("hashmap_configuration", |b| {
        b.iter(|| {
            let mut map: HashMap<Configuration, u32> = HashMap::new();
            for (i, cfg) in shifted.iter().enumerate() {
                map.entry(cfg.canonical()).or_insert(i as u32);
            }
            shifted.iter().map(|cfg| map[&cfg.canonical()] as usize).sum::<usize>()
        });
    });
    g.bench_function("class_arena_packed", |b| {
        b.iter(|| {
            let mut arena = ClassArena::new();
            for cfg in &shifted {
                arena.intern(cfg);
            }
            shifted.iter().map(|cfg| arena.intern(cfg).0 as usize).sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
