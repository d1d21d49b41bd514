//! Micro-benchmarks of the learning stack: autograd matmul, a BiSAGE
//! training epoch, histogram fitting and scoring.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use gem_core::{BiSage, BiSageConfig, EnhancedDetector, HistogramModel, InferenceEngine};
use gem_graph::{BipartiteGraph, WeightFn};
use gem_nn::tape::{Graph, ParamStore};
use gem_nn::{init, Tensor};
use gem_signal::rng::child_rng;
use gem_signal::{MacAddr, SignalRecord};

fn cluster_graph(n: u64) -> BipartiteGraph {
    let mut g = BipartiteGraph::new(WeightFn::default());
    for i in 0..n {
        g.add_record(&SignalRecord::from_pairs(
            i as f64,
            (0..10).map(|k| (MacAddr::from_raw((i / 20) * 10 + k), -50.0 - k as f32 * 3.0)),
        ));
    }
    g
}

fn embeddings(rows: usize, dim: usize) -> Tensor {
    let mut rng = child_rng(11, 12);
    init::unit_rows(&mut rng, rows, dim)
}

fn bench_models(c: &mut Criterion) {
    let mut group = c.benchmark_group("model_ops");
    group.sample_size(20);

    group.bench_function("tape_matmul_backward_256x64x32", |b| {
        let mut rng = child_rng(13, 14);
        let x = init::xavier_uniform(&mut rng, 256, 64);
        let target = Tensor::zeros(256, 32);
        let mut store = ParamStore::new();
        let w = store.add("w", init::xavier_uniform(&mut rng, 64, 32));
        b.iter(|| {
            store.zero_grads();
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let wv = g.param(&store, w);
            let y = g.matmul(xv, wv);
            let loss = g.mse_mean(y, target.clone());
            g.backward(loss, &mut store);
            black_box(store.grad_norm())
        })
    });

    group.bench_function("bisage_fit_120_records", |b| {
        let graph = cluster_graph(120);
        let cfg = BiSageConfig {
            epochs: 1,
            dim: 16,
            sample_sizes: vec![6, 3],
            ..BiSageConfig::default()
        };
        b.iter(|| {
            let mut model = BiSage::new(cfg.clone());
            black_box(model.fit(black_box(&graph)))
        })
    });

    group.bench_function("bisage_embed_one_record", |b| {
        let graph = cluster_graph(200);
        let cfg = BiSageConfig {
            epochs: 1,
            dim: 16,
            sample_sizes: vec![6, 3],
            ..BiSageConfig::default()
        };
        let mut model = BiSage::new(cfg);
        model.fit(&graph);
        let mut engine = InferenceEngine::new();
        let mut out = Vec::new();
        b.iter(|| {
            engine.embed_record_into(&model, &graph, gem_graph::RecordId(100), None, &mut out);
            black_box(&out);
        })
    });

    group.bench_function("hbos_fit_300x32", |b| {
        let train = embeddings(300, 32);
        b.iter(|| black_box(HistogramModel::fit(black_box(&train), 10)))
    });

    group.bench_function("detector_score", |b| {
        let train = embeddings(300, 32);
        let det = EnhancedDetector::fit(&train, 10, 0.06, 0.005, 0.001);
        let probe = embeddings(1, 32);
        b.iter(|| black_box(det.score(black_box(probe.row(0)))))
    });

    group.bench_function("detector_update_with_reanchor", |b| {
        let train = embeddings(300, 32);
        let probe = embeddings(1, 32);
        b.iter_with_setup(
            || EnhancedDetector::fit(&train, 10, 0.06, 0.9, 0.89),
            |mut det| {
                black_box(det.detect_and_update(probe.row(0)));
                det
            },
        )
    });

    group.finish();
}

criterion_group!(benches, bench_models);
criterion_main!(benches);
