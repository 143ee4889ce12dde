//! B1 — fuzzy-hash generation and comparison throughput.
//!
//! Underpins Table 2 (hash similarity example) and every similarity-matrix
//! experiment: the cost of `fuzzy_hash_bytes` scales with executable size,
//! the cost of `compare` is bounded by the 64-character signature length.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fhc_bench::synthetic_bytes;
use ssdeep::{
    compare, damerau_levenshtein, damerau_levenshtein_bitparallel, fuzzy_hash_bytes,
    fuzzy_hash_bytes_oracle, weighted_edit_distance, weighted_edit_distance_bounded,
};
use std::hint::black_box;

fn bench_hash_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ssdeep/hash_bytes");
    for size in [4_096usize, 65_536, 1_048_576] {
        let data = synthetic_bytes(size, 7);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
            b.iter(|| fuzzy_hash_bytes(black_box(data)))
        });
    }
    group.finish();

    // The halve-and-rehash reference the engine is tested against, at one
    // size, so a single run shows what the one-pass engine saves.
    let mut group = c.benchmark_group("ssdeep/hash_bytes_oracle");
    let size = 65_536usize;
    let data = synthetic_bytes(size, 7);
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, data| {
        b.iter(|| fuzzy_hash_bytes_oracle(black_box(data)))
    });
    group.finish();
}

fn bench_comparison(c: &mut Criterion) {
    let base = synthetic_bytes(262_144, 11);
    let mut variant = base.clone();
    for byte in variant.iter_mut().skip(100_000).take(4_000) {
        *byte ^= 0x77;
    }
    let unrelated = synthetic_bytes(262_144, 997);
    let ha = fuzzy_hash_bytes(&base);
    let hb = fuzzy_hash_bytes(&variant);
    let hc = fuzzy_hash_bytes(&unrelated);

    let mut group = c.benchmark_group("ssdeep/compare");
    group.bench_function("similar_pair", |b| {
        b.iter(|| compare(black_box(&ha), black_box(&hb)))
    });
    group.bench_function("unrelated_pair", |b| {
        b.iter(|| compare(black_box(&ha), black_box(&hc)))
    });
    group.finish();
}

fn bench_edit_distance(c: &mut Criterion) {
    let a = "lnkVZEyLhOQGxkVZEyLhOQGAbCdEfGhIjKlMnOpQrStUvWxYz0123456789abcd";
    let b = "lnkVZEyLhOQGklVZEyLhOQGAbCdEfGhIjKlMnOpQrStUvWxYz9876543210abcd";
    let mut group = c.benchmark_group("ssdeep/edit_distance");
    group.bench_function("damerau_levenshtein_64", |bch| {
        bch.iter(|| damerau_levenshtein(black_box(a), black_box(b)))
    });
    group.bench_function("weighted_64", |bch| {
        bch.iter(|| weighted_edit_distance(black_box(a), black_box(b)))
    });
    group.finish();
}

/// The tiers of the `fastdist` kernel on realistic signatures: the
/// full-table oracle, the bounded kernel with a loose limit (no pruning
/// possible, so the anti-diagonal lane DP fills the whole table), the
/// bounded kernel under a tight budget (the max-merge serving case, where
/// the bit-parallel lower bound rejects before any table), and the
/// bit-parallel lower bound alone.
fn bench_distance_kernel(c: &mut Criterion) {
    // Realistic 64-char signatures from generated hashes: a similar pair
    // (localized edit -> small distance) and an unrelated pair (large
    // distance, where tight budgets reject hardest).
    let base = synthetic_bytes(262_144, 11);
    let mut variant = base.clone();
    for byte in variant.iter_mut().skip(100_000).take(4_000) {
        *byte ^= 0x77;
    }
    // `synthetic_bytes` with a different salt is the *same* stream shifted
    // (the salt only offsets the index), which fuzzy-hashes to a nearly
    // identical signature — remap the bytes so the pair is genuinely
    // unrelated at the signature level.
    let unrelated: Vec<u8> = synthetic_bytes(262_144, 997)
        .into_iter()
        .map(|b| b.wrapping_mul(167).wrapping_add(13))
        .collect();
    let sig_a = fuzzy_hash_bytes(&base).signature().to_string();
    let sig_b = fuzzy_hash_bytes(&variant).signature().to_string();
    let sig_c = fuzzy_hash_bytes(&unrelated).signature().to_string();
    assert!(
        sig_a.len() >= 48 && sig_c.len() >= 32,
        "benchmark needs realistic signatures"
    );
    let loose = sig_a.len() + sig_c.len();

    let mut group = c.benchmark_group("ssdeep/distance");
    for (pair, a, b) in [("similar", &sig_a, &sig_b), ("unrelated", &sig_a, &sig_c)] {
        group.bench_function(format!("scan_oracle_{pair}"), |bch| {
            bch.iter(|| weighted_edit_distance(black_box(a), black_box(b)))
        });
        group.bench_function(format!("lane_loose_limit_{pair}"), |bch| {
            bch.iter(|| weighted_edit_distance_bounded(black_box(a), black_box(b), loose))
        });
        group.bench_function(format!("bounded_tight_budget_{pair}"), |bch| {
            bch.iter(|| weighted_edit_distance_bounded(black_box(a), black_box(b), 12))
        });
        group.bench_function(format!("bitparallel_lower_bound_{pair}"), |bch| {
            bch.iter(|| damerau_levenshtein_bitparallel(black_box(a), black_box(b)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_hash_generation, bench_comparison, bench_edit_distance, bench_distance_kernel
}
criterion_main!(benches);
