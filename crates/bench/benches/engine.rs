//! Serial vs. engine `execute_many` on the acceptance-criteria batch:
//! 32 Generate requests, each with its own seed stream, once per
//! execution backend. The engines run with the result cache disabled
//! so every iteration measures real sampling work, not replay.

use chatpattern_core::{
    BackendKind, ChatPattern, EngineConfig, GenerateParams, PatternEngine, PatternRequest,
    PatternService,
};
use cp_dataset::Style;
use criterion::{criterion_group, criterion_main, Criterion};

fn batch() -> Vec<PatternRequest> {
    (0..32u64)
        .map(|seed| {
            PatternRequest::Generate(GenerateParams {
                style: if seed.is_multiple_of(2) {
                    Style::Layer10001
                } else {
                    Style::Layer10003
                },
                rows: 16,
                cols: 16,
                count: 1,
                seed,
            })
        })
        .collect()
}

fn small_system() -> ChatPattern {
    ChatPattern::builder()
        .window(16)
        .training_patterns(8)
        .diffusion_steps(6)
        .seed(0)
        .build()
        .expect("valid configuration")
}

fn engine(backend: BackendKind) -> PatternEngine<ChatPattern> {
    PatternEngine::with_config(
        small_system(),
        EngineConfig {
            backend,
            workers: 4,
            queue_depth: 64,
            cache_capacity: 0,
        },
    )
    .expect("valid config")
}

fn bench_execute_many(c: &mut Criterion) {
    let system = small_system();
    let mut group = c.benchmark_group("execute_many_32");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            let results = system.execute_many(batch());
            assert!(results.iter().all(Result::is_ok));
        });
    });
    for (name, backend) in [
        ("inline", BackendKind::Inline),
        ("pooled_4_workers", BackendKind::ThreadPool),
        ("sharded_2x2", BackendKind::Sharded { shards: 2 }),
    ] {
        let engine = engine(backend);
        group.bench_function(name, |b| {
            b.iter(|| {
                let results = engine.execute_many(batch());
                assert!(results.iter().all(Result::is_ok));
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_execute_many);
criterion_main!(benches);
