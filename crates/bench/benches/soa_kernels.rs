//! SoA traversal kernel cost: the same 64-coalition × 12-row composite
//! block through the scalar register-chunked kernel at d ∈ {8, 14, 20},
//! plus a fused-replay case with duplicate composite rows that prices the
//! adjacent-dedup pass. Results are bit-identical either way — these cases
//! measure time, never accuracy.

use criterion::{criterion_group, criterion_main, Criterion};
use nfv_bench::SizedTask;
use nfv_ml::prelude::*;
use nfv_xai::prelude::*;
use std::time::Duration;

/// Deterministic pseudo-random memberships spanning all coalition sizes
/// (the same construction as the `coalition_eval_d14_forest50` group).
fn coalitions(d: usize) -> Vec<Vec<bool>> {
    (0..64u64)
        .map(|i| {
            let bits = (i + 1)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(i as u32);
            (0..d).map(|j| (bits >> j) & 1 == 1).collect()
        })
        .collect()
}

/// The kernel at every dimension. One 64×12 coalition block per
/// iteration — the exact shape `coalition_values` hands the engine on the
/// serve hot path — so these medians are directly comparable with
/// `coalition_eval_d14_forest50/batched_block_64x12`.
fn bench_kernels(c: &mut Criterion) {
    let mut g = c.benchmark_group("soa_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for d in [8usize, 14, 20] {
        let task = SizedTask::new(d, 1);
        let x = task.data.row(3).to_vec();
        let memberships = coalitions(d);
        let mut ws = CoalitionWorkspace::default();
        g.bench_function(format!("scalar_d{d}_64x12"), |b| {
            b.iter(|| {
                task.background
                    .coalition_values(&task.packed, &x, &memberships, &mut ws)
                    .iter()
                    .sum::<f64>()
            })
        });
    }
    g.finish();
}

/// The dedup fused-replay case: 8 sampling-Shapley requests whose
/// instances are themselves background rows (the NFV monitoring shape —
/// the telemetry row being explained was also sampled into the background
/// set), planned into one shared block. Walks that draw the matching
/// background row produce runs of bit-identical composites; the `_dedup`
/// arm collapses them before prediction, the `_full` arm evaluates every
/// row. Results are bit-identical either way.
fn bench_fused_dedup(c: &mut Criterion) {
    let task = SizedTask::new(14, 1);
    let cfg = SamplingConfig {
        n_permutations: 24,
        antithetic: true,
        seed: 7,
    };
    let mut block = FusedBlock::default();
    for i in 0..8 {
        let x: Vec<f64> = task.background.rows()[i % task.background.rows().len()].clone();
        sampling_shapley_plan(&task.packed, &x, &task.background, &cfg, None, &mut block)
            .expect("plan sampling walks");
    }
    let mut g = c.benchmark_group("soa_kernels");
    g.sample_size(10).measurement_time(Duration::from_secs(2));

    let mut full = block.clone();
    full.set_dedup(false);
    g.bench_function("fused_sampling_replay_full", |b| {
        b.iter(|| {
            full.evaluate(&task.packed);
            full.preds()[0]
        })
    });
    g.bench_function("fused_sampling_replay_dedup", |b| {
        b.iter(|| {
            block.evaluate(&task.packed);
            block.preds()[0]
        })
    });
    println!(
        "fused dedup: {} of {} rows skipped per evaluate ({:.1}%), kernel={}",
        block.last_dedup_saved(),
        block.n_rows(),
        100.0 * block.last_dedup_saved() as f64 / block.n_rows() as f64,
        active_kernel_name(),
    );
    assert_eq!(
        block.preds().len(),
        full.preds().len(),
        "dedup must scatter back to every row"
    );
    for (a, b) in block.preds().iter().zip(full.preds()) {
        assert_eq!(a.to_bits(), b.to_bits(), "dedup changed a prediction");
    }
    g.finish();
}

criterion_group!(soa, bench_kernels, bench_fused_dedup);
criterion_main!(soa);
