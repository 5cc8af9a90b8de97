//! Criterion benches for the similarity measures (matcher hot path) and
//! for the interner that feeds them their token ids.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use minoan_common::Interner;
use minoan_datagen::{generate, profiles};
use minoan_er::similarity::{jaccard, jaro_winkler, jaro_winkler_chars, JaroScratch, TfIdfWeights};
use minoan_rdf::tokenize::TokenBuffers;
use std::hint::black_box;

fn bench_similarity(c: &mut Criterion) {
    let mut group = c.benchmark_group("similarity");
    group.sample_size(20);

    // Token sets the size a description produces (~25 tokens).
    let a: Vec<u32> = (0..25).map(|i| i * 3).collect();
    let b: Vec<u32> = (0..25).map(|i| i * 4).collect();
    group.bench_function("jaccard/25", |bch| {
        bch.iter(|| black_box(jaccard(&a, &b)));
    });
    let idf = TfIdfWeights::build(200, (0..100).map(|i| vec![i, i % 50, i % 25]));
    group.bench_function("tfidf-cosine/25", |bch| {
        bch.iter(|| black_box(idf.cosine(&a, &b)));
    });

    let s1 = "mikis theodorakis composer";
    let s2 = "m theodorakis greek composer";
    group.bench_function("jaro-winkler/26", |bch| {
        bch.iter(|| black_box(jaro_winkler(s1, s2)));
    });

    // The comparison loop's form: chars split once, one scratch. 12 is the
    // length of a `batch_lod` name; 64 is the longest input of the
    // bit-parallel kernel and 65 the shortest of the scalar loop.
    let name: Vec<char> = "mikis theodorakis greek composer and songwriter of zorba's dance!"
        .chars()
        .collect();
    let mut scratch = JaroScratch::default();
    for len in [12, 64, 65] {
        let a = &name[..len];
        let mut b = a.to_vec();
        b.swap(len / 2, len / 2 + 1);
        b[len - 1] = '?';
        group.bench_function(format!("jaro-winkler-chars/{len}"), |bch| {
            bch.iter(|| black_box(jaro_winkler_chars(black_box(a), &b, &mut scratch)));
        });
    }
    group.finish();
}

/// The interner under its two loads: building a vocabulary from a token
/// stream (block build, `Matcher::new`), and hitting a table of a few
/// predicate IRIs once per statement (`DatasetBuilder::add_literal`).
fn bench_interner(c: &mut Criterion) {
    // The `batch_lod` world of the ledger at seed 101.
    let dataset = generate(&profiles::lod_cloud(5_000, 101)).dataset;

    // Every blocking token in block-build order, flat, so an iteration
    // reads one buffer and times nothing but the interner.
    let (mut text, mut ends) = (String::new(), Vec::new());
    let mut buffers = TokenBuffers::default();
    for e in dataset.entities() {
        dataset.for_each_blocking_token(e, &mut buffers, |t| {
            text.push_str(t);
            ends.push(text.len());
        });
    }
    let intern_all = |interner: &mut Interner| {
        let mut start = 0;
        for &end in &ends {
            black_box(interner.intern(&text[start..end]));
            start = end;
        }
    };
    let mut vocabulary = Interner::new();
    intern_all(&mut vocabulary);
    // The row names say what this world holds; rename them if it changes.
    assert_eq!((ends.len(), vocabulary.len()), (290_525, 60_986));
    drop(vocabulary);

    let mut group = c.benchmark_group("interner");
    group.sample_size(10);
    group.throughput(Throughput::Elements(ends.len() as u64));
    group.bench_function("tokens-290k/vocab-61k", |bch| {
        bch.iter(|| {
            let mut interner = Interner::new();
            intern_all(&mut interner);
            black_box(interner.len())
        });
    });

    // One predicate per attribute in statement order, all hits.
    let statements: Vec<&str> = dataset
        .entities()
        .flat_map(|e| dataset.description(e).attributes())
        .map(|(p, _)| dataset.predicate_name(p))
        .collect();
    let mut predicates = dataset.predicates().clone();
    group.throughput(Throughput::Elements(statements.len() as u64));
    group.bench_function(
        format!("predicates-{}/hits-only", predicates.len()),
        |bch| {
            bch.iter(|| {
                for p in &statements {
                    black_box(predicates.intern(p));
                }
            });
        },
    );
    group.finish();
}

criterion_group!(benches, bench_similarity, bench_interner);
criterion_main!(benches);
