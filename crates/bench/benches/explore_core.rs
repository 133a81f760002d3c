//! Micro-benchmarks of the packed-state exploration core: packed
//! class keys vs materializing canonicalisation, arena interning vs
//! `HashMap<Configuration, _>` interning, and the memoized move oracle
//! vs raw per-robot computation. End-to-end cell timings, layer by
//! layer, come from the sweep-path benchmark in `perfbench/`.

use criterion::{criterion_group, criterion_main, Criterion};
use gathering::SevenGather;
use robots::visited::ClassArena;
use robots::{engine, Configuration, MoveOracle};
use std::collections::HashMap;
use trigrid::Coord;

fn bench(c: &mut Criterion) {
    let classes = bench_suite::all_classes();
    // Shifted copies so the canonicalisation paths do real work.
    let shifted: Vec<Configuration> =
        classes.iter().map(|cfg| cfg.translate(Coord::new(6, 2))).collect();
    let algo = SevenGather::verified();

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

    let mut g = c.benchmark_group("move_oracle");
    g.sample_size(10);
    g.bench_function("raw_compute_moves", |b| {
        b.iter(|| classes.iter().map(|cfg| engine::compute_moves(cfg, &algo).len()).sum::<usize>());
    });
    let oracle = MoveOracle::new(&algo);
    for cfg in &classes {
        let _ = engine::compute_moves(cfg, &oracle); // warm the memo table
    }
    g.bench_function("memoized_compute_moves", |b| {
        b.iter(|| {
            classes.iter().map(|cfg| engine::compute_moves(cfg, &oracle).len()).sum::<usize>()
        });
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
