//! What anchors the specification (`common::spec`) itself.
//!
//! * **Golden digests.** For every scheme × family on one clean–clean and
//!   one dirty world at two seeds, `fx_hash_bytes` of the input-edge
//!   count and the kept `(a, b, weight bits)` stream, pinned by value —
//!   for the specification and for a streaming session alike. An edit to
//!   the specification or to the product's rules that moves a bit shows
//!   up in review as a changed constant below.
//! * **Golden digests of block cleaning.** `fx_hash_bytes` of every
//!   block's key, members and comparison count, for purge and filter on
//!   both worlds before cleaning — for the cleaning specification, which
//!   the product's passes must equal.
//! * **Golden digests of block building.** The same block digest for
//!   every blocking method, built at one and four workers.
//! * **Golden digests of resolution.** For every strategy × budget on the
//!   four resolution worlds at two seeds, and each clustering of their
//!   matches, `fx_hash_bytes` of every bit of the answer — for the
//!   resolution specification (`common::resolve_spec`), which the
//!   product's resolvers at one and four workers, its clusterings and
//!   its oracle traces must equal. The composite and incremental
//!   resolvers are pinned beside them, with no specification.
//! * **The coverage list** (`common::coverage`): each named world
//!   contains the case the list names it for.

mod common;

use common::coverage::{self, clean, dirty, raw_clean, raw_dirty, star};
use common::spec::Spec;
use common::{assert_collections_identical, cleaning, resolve_spec};
use common::{assert_same_resolution, clusters_bytes, resolution_digest, trace_bits};
use minoan::blocking::parallel::parallel_token_blocking;
use minoan::blocking::{filter, purge, BlockCollection, ErMode, Method};
use minoan::common::hash::fx_hash_bytes;
use minoan::datagen::ArrivalOrder;
use minoan::er::{
    oracle_trace, perfect_trace, BenefitModel, ClusteringAlgorithm, CompositeResolution,
    CompositeResolver, IncrementalConfig, IncrementalResolver, Matcher, MatcherConfig, Pipeline,
    PipelineConfig, ResolverConfig, Strategy,
};
use minoan::mapreduce::Engine;
use minoan::metablocking::{blast, PrunedComparisons, Pruning, Session, WeightingScheme};

/// `fx_hash_bytes` of `input_edges` then every kept `(a, b, weight bits)`,
/// little-endian.
fn digest(out: &PrunedComparisons) -> u64 {
    let mut bytes = (out.input_edges as u64).to_le_bytes().to_vec();
    for p in &out.pairs {
        bytes.extend(p.a.0.to_le_bytes());
        bytes.extend(p.b.0.to_le_bytes());
        bytes.extend(p.weight.to_bits().to_le_bytes());
    }
    fx_hash_bytes(&bytes)
}

/// The families the table pins per scheme, by their
/// [`coverage::families`] label.
const PINNED: [&str; 9] = [
    "None",
    "WEP",
    "CEP",
    "CEP(1)",
    "WNP",
    "WNP-recip",
    "CNP",
    "CNP-recip",
    "CNP(2)",
];

/// The digested cases of one world with `num_edges` edges: every scheme
/// × pinned family, then BLAST at its default ratio and the supervised
/// pruner (each brings its own weights).
fn cases(num_edges: usize, model: Pruning) -> Vec<(String, WeightingScheme, Pruning)> {
    let families = coverage::families(num_edges);
    let mut cases = Vec::new();
    for scheme in WeightingScheme::ALL {
        for (label, pruning) in &families {
            if PINNED.contains(&label.as_str()) {
                cases.push((format!("{} {label}", scheme.name()), scheme, *pruning));
            }
        }
    }
    let blast = Pruning::Blast {
        ratio: blast::DEFAULT_RATIO,
    };
    assert!(families.contains(&("BLAST".to_string(), blast)));
    let arcs = WeightingScheme::Arcs;
    cases.push(("BLAST".to_string(), arcs, blast));
    cases.push(("supervised".to_string(), arcs, model));
    cases
}

/// Pinned by value; regenerate by running this test and copying the
/// table it prints on a mismatch.
const GOLDEN: &[(&str, u64)] = &[
    ("clean/7 CBS None", 0x0bf9cd913a23b70f),
    ("clean/7 CBS WEP", 0x9a1942337003ed4c),
    ("clean/7 CBS CEP(1)", 0x34659548f13b1ac6),
    ("clean/7 CBS CEP", 0xcd8a9259e92d5904),
    ("clean/7 CBS WNP", 0x2da372e0e146da96),
    ("clean/7 CBS CNP", 0x8a45d4ab637bd12e),
    ("clean/7 CBS CNP(2)", 0x3ffc2679633d7789),
    ("clean/7 CBS WNP-recip", 0x03324a890433b016),
    ("clean/7 CBS CNP-recip", 0x60bdb6134369be55),
    ("clean/7 ECBS None", 0x6295be503dc1e64b),
    ("clean/7 ECBS WEP", 0x6b10bc42f14315d5),
    ("clean/7 ECBS CEP(1)", 0x97690e0046a6082a),
    ("clean/7 ECBS CEP", 0xe324bc6afb3c7ace),
    ("clean/7 ECBS WNP", 0xf79e6dee6942fcad),
    ("clean/7 ECBS CNP", 0x9d4347c1fe54b4eb),
    ("clean/7 ECBS CNP(2)", 0xd17af8cd9f00067d),
    ("clean/7 ECBS WNP-recip", 0xadeb6daaf7c185be),
    ("clean/7 ECBS CNP-recip", 0x30a225dcfc101c7c),
    ("clean/7 JS None", 0x923039715ef09b2e),
    ("clean/7 JS WEP", 0xa91af067462ad51a),
    ("clean/7 JS CEP(1)", 0xb13621de9ee1b3f6),
    ("clean/7 JS CEP", 0x06ffe0b6cde35e7b),
    ("clean/7 JS WNP", 0xd10d20fec09ab7d2),
    ("clean/7 JS CNP", 0x1bf4cf770d0f66b6),
    ("clean/7 JS CNP(2)", 0x861bee628c1e726f),
    ("clean/7 JS WNP-recip", 0xdd6c8ba662e8cc6c),
    ("clean/7 JS CNP-recip", 0x9d1ce03833e0a542),
    ("clean/7 EJS None", 0xf70056fe102844f7),
    ("clean/7 EJS WEP", 0xafa5abffb97a4825),
    ("clean/7 EJS CEP(1)", 0x047bc3e1cb47f57c),
    ("clean/7 EJS CEP", 0x8eb77d19d8d1ea97),
    ("clean/7 EJS WNP", 0x8f1fd000ccf3a460),
    ("clean/7 EJS CNP", 0x68ce4da3ff1fc84f),
    ("clean/7 EJS CNP(2)", 0xfa8543781aa25503),
    ("clean/7 EJS WNP-recip", 0xa16430c172bd6ce8),
    ("clean/7 EJS CNP-recip", 0x8680a2498a03d4de),
    ("clean/7 ARCS None", 0x03110c4dae686034),
    ("clean/7 ARCS WEP", 0x51d351439531be04),
    ("clean/7 ARCS CEP(1)", 0x085fdec71d1b3a8d),
    ("clean/7 ARCS CEP", 0xee891616ec82b8e2),
    ("clean/7 ARCS WNP", 0x2600179d51dccbac),
    ("clean/7 ARCS CNP", 0xbf9ac7c38612d142),
    ("clean/7 ARCS CNP(2)", 0xce842429b1aebe2d),
    ("clean/7 ARCS WNP-recip", 0xa2530e65e6a145d5),
    ("clean/7 ARCS CNP-recip", 0xd71c9ace8f6e7dd3),
    ("clean/7 BLAST", 0x0af021540e85894c),
    ("clean/7 supervised", 0x6e3f200e117e83d6),
    ("dirty/7 CBS None", 0x5c2585aece2af7cf),
    ("dirty/7 CBS WEP", 0x532ebebbd0c3338d),
    ("dirty/7 CBS CEP(1)", 0x18b5d8f26e5f5ba1),
    ("dirty/7 CBS CEP", 0x6afc366cfcf47844),
    ("dirty/7 CBS WNP", 0x532ebebbd0c3338d),
    ("dirty/7 CBS CNP", 0x785557fd0872664e),
    ("dirty/7 CBS CNP(2)", 0xecc550797d62f743),
    ("dirty/7 CBS WNP-recip", 0x532ebebbd0c3338d),
    ("dirty/7 CBS CNP-recip", 0x6b7b880129c23728),
    ("dirty/7 ECBS None", 0xc658920c58146348),
    ("dirty/7 ECBS WEP", 0x03c7ce7971ea1815),
    ("dirty/7 ECBS CEP(1)", 0xb6a73254d731c658),
    ("dirty/7 ECBS CEP", 0x347ac947229fc71f),
    ("dirty/7 ECBS WNP", 0x79f0392afa098b3a),
    ("dirty/7 ECBS CNP", 0xe7a624ba82167367),
    ("dirty/7 ECBS CNP(2)", 0xee5c9fa86f15a604),
    ("dirty/7 ECBS WNP-recip", 0x7c01827c1706258f),
    ("dirty/7 ECBS CNP-recip", 0x6509a802be9a4b6d),
    ("dirty/7 JS None", 0xf6780c8e33f26f04),
    ("dirty/7 JS WEP", 0xcd8b2ffb0ef6ada4),
    ("dirty/7 JS CEP(1)", 0x2e4a8d96dd214c2f),
    ("dirty/7 JS CEP", 0x2e643c2d9b169548),
    ("dirty/7 JS WNP", 0xc5606bf86997b718),
    ("dirty/7 JS CNP", 0xeff96dfe6ccb044d),
    ("dirty/7 JS CNP(2)", 0x340794b0ed1f69f4),
    ("dirty/7 JS WNP-recip", 0xb6a3498ecbedb804),
    ("dirty/7 JS CNP-recip", 0xf36a68ddacfe14d1),
    ("dirty/7 EJS None", 0x8835fd8437a550db),
    ("dirty/7 EJS WEP", 0x696ca28f532ed261),
    ("dirty/7 EJS CEP(1)", 0x59d40103e0569516),
    ("dirty/7 EJS CEP", 0x1a40240263c310e0),
    ("dirty/7 EJS WNP", 0xdf58ea9736fdbfd2),
    ("dirty/7 EJS CNP", 0x47f4df2efda5f922),
    ("dirty/7 EJS CNP(2)", 0x8d0ebccf2bba153a),
    ("dirty/7 EJS WNP-recip", 0x6d9462a8efa7f283),
    ("dirty/7 EJS CNP-recip", 0xb4138bb97663bed2),
    ("dirty/7 ARCS None", 0xaebc49150beee5ec),
    ("dirty/7 ARCS WEP", 0x6a43a640052db304),
    ("dirty/7 ARCS CEP(1)", 0x4be9196700982aa4),
    ("dirty/7 ARCS CEP", 0x1a807fc0eabeeba2),
    ("dirty/7 ARCS WNP", 0xb11fc73ccd7f0fb3),
    ("dirty/7 ARCS CNP", 0x9d8732f724db7e5d),
    ("dirty/7 ARCS CNP(2)", 0x8a991b05e3eddd44),
    ("dirty/7 ARCS WNP-recip", 0xd3cde7a776acee6a),
    ("dirty/7 ARCS CNP-recip", 0xe0f865131bef69dd),
    ("dirty/7 BLAST", 0xf4b77912339eefa6),
    ("dirty/7 supervised", 0xcdd9e2089ec6e145),
    ("clean/19 CBS None", 0x34bb201926ff651c),
    ("clean/19 CBS WEP", 0xa8e15490f46996c9),
    ("clean/19 CBS CEP(1)", 0xe3345382623d36a9),
    ("clean/19 CBS CEP", 0xea404e0e8c3f1be2),
    ("clean/19 CBS WNP", 0x77171f9e0d76d206),
    ("clean/19 CBS CNP", 0x8a2efaa95492a95e),
    ("clean/19 CBS CNP(2)", 0x2c69c448d6c70c63),
    ("clean/19 CBS WNP-recip", 0x21b0575332339f42),
    ("clean/19 CBS CNP-recip", 0x06ba4a6b5afffa9e),
    ("clean/19 ECBS None", 0x1f7738be8fbdb1be),
    ("clean/19 ECBS WEP", 0x6e998b4f6f275706),
    ("clean/19 ECBS CEP(1)", 0x943b558e1b02eb3d),
    ("clean/19 ECBS CEP", 0x981a3bbc3e0106cc),
    ("clean/19 ECBS WNP", 0x17ff526068dba6fc),
    ("clean/19 ECBS CNP", 0xe47f3307c87e9e70),
    ("clean/19 ECBS CNP(2)", 0x64658c623abf1144),
    ("clean/19 ECBS WNP-recip", 0xa7f1b3ce0c6acf8b),
    ("clean/19 ECBS CNP-recip", 0xadf36ca1cb932a96),
    ("clean/19 JS None", 0x3477abfb1bb647cb),
    ("clean/19 JS WEP", 0x8397541a4262f53a),
    ("clean/19 JS CEP(1)", 0xeb3bc953811232bf),
    ("clean/19 JS CEP", 0x5262e4e0f1e3d78b),
    ("clean/19 JS WNP", 0x858707c17e63d4d9),
    ("clean/19 JS CNP", 0x8ddff42867da2ccd),
    ("clean/19 JS CNP(2)", 0x0eac5ac17fb7615f),
    ("clean/19 JS WNP-recip", 0x19bf26ebf3d06467),
    ("clean/19 JS CNP-recip", 0x95ef09648b629781),
    ("clean/19 EJS None", 0xae5bdbb89369081c),
    ("clean/19 EJS WEP", 0x8d65ae22851fce56),
    ("clean/19 EJS CEP(1)", 0x1efad255eb4f752c),
    ("clean/19 EJS CEP", 0xd62f539a49e9bada),
    ("clean/19 EJS WNP", 0x62ad15f30e1e1d0a),
    ("clean/19 EJS CNP", 0xb2439c9b58e2c940),
    ("clean/19 EJS CNP(2)", 0x8f477570b54180be),
    ("clean/19 EJS WNP-recip", 0x241ae4c78c78feaf),
    ("clean/19 EJS CNP-recip", 0x0ee2ecbfb52051eb),
    ("clean/19 ARCS None", 0xee1ade6ff0cedcc6),
    ("clean/19 ARCS WEP", 0xf7d583103307c69e),
    ("clean/19 ARCS CEP(1)", 0xfb8f5309f70a9e83),
    ("clean/19 ARCS CEP", 0x66bcac1e9b0865da),
    ("clean/19 ARCS WNP", 0xf6535c1915e62683),
    ("clean/19 ARCS CNP", 0x40ee21286fc44913),
    ("clean/19 ARCS CNP(2)", 0xba9a07326146ccc2),
    ("clean/19 ARCS WNP-recip", 0xd3428bf9eb598985),
    ("clean/19 ARCS CNP-recip", 0x0611ce299496c0bf),
    ("clean/19 BLAST", 0x24beb0bb5eb28492),
    ("clean/19 supervised", 0x536b6873c81be0e6),
    ("dirty/19 CBS None", 0xef422415cf407ec0),
    ("dirty/19 CBS WEP", 0xecc589d7d127cd2b),
    ("dirty/19 CBS CEP(1)", 0x98c3b7432d15081d),
    ("dirty/19 CBS CEP", 0xf527fe5abc565451),
    ("dirty/19 CBS WNP", 0xecc589d7d127cd2b),
    ("dirty/19 CBS CNP", 0x25b095ba48e5b848),
    ("dirty/19 CBS CNP(2)", 0x1a2a59f4248f42d9),
    ("dirty/19 CBS WNP-recip", 0xecc589d7d127cd2b),
    ("dirty/19 CBS CNP-recip", 0x97aafe1035f24df4),
    ("dirty/19 ECBS None", 0x1c1466edd01f91e8),
    ("dirty/19 ECBS WEP", 0xcc712513834925fe),
    ("dirty/19 ECBS CEP(1)", 0xbf3e703ea0ab8f8e),
    ("dirty/19 ECBS CEP", 0xd9bdc572839c639b),
    ("dirty/19 ECBS WNP", 0xbf4960a586088da7),
    ("dirty/19 ECBS CNP", 0xace9f15073da04a5),
    ("dirty/19 ECBS CNP(2)", 0x21f68b2c2bdf17fd),
    ("dirty/19 ECBS WNP-recip", 0xb17e3c7799d91e66),
    ("dirty/19 ECBS CNP-recip", 0x984be44e7f929e1a),
    ("dirty/19 JS None", 0x49a082fe68b9712e),
    ("dirty/19 JS WEP", 0xa48b53d8e13fbf76),
    ("dirty/19 JS CEP(1)", 0x26ca22df36b643b1),
    ("dirty/19 JS CEP", 0xf070bf3e651ac4b6),
    ("dirty/19 JS WNP", 0xbe17d0f159852ac9),
    ("dirty/19 JS CNP", 0xd64cb6495f4b036a),
    ("dirty/19 JS CNP(2)", 0x57f6f07c4d54bc24),
    ("dirty/19 JS WNP-recip", 0x2293b7705099c36d),
    ("dirty/19 JS CNP-recip", 0x1152900c03058f59),
    ("dirty/19 EJS None", 0xe492a721439f0d04),
    ("dirty/19 EJS WEP", 0x1851eb5e8319efef),
    ("dirty/19 EJS CEP(1)", 0xd0e858c90b5d0b46),
    ("dirty/19 EJS CEP", 0x0a99395c6a710e2e),
    ("dirty/19 EJS WNP", 0x713dfc280721ee02),
    ("dirty/19 EJS CNP", 0xc19babc3f36c943a),
    ("dirty/19 EJS CNP(2)", 0x4fdc002968ce11f1),
    ("dirty/19 EJS WNP-recip", 0x0bbe28d8a2c6c242),
    ("dirty/19 EJS CNP-recip", 0x84a3ec03f41db72b),
    ("dirty/19 ARCS None", 0x321b212a75cd32e0),
    ("dirty/19 ARCS WEP", 0x9fd1e926283f5afb),
    ("dirty/19 ARCS CEP(1)", 0x485fbfc64da9aa2c),
    ("dirty/19 ARCS CEP", 0xf0e2604b87b3b082),
    ("dirty/19 ARCS WNP", 0x94560a95ceca5d1e),
    ("dirty/19 ARCS CNP", 0x27b4ba62cbe3eecc),
    ("dirty/19 ARCS CNP(2)", 0x8dbfa72ea4f1a164),
    ("dirty/19 ARCS WNP-recip", 0x43b047db471e6fa5),
    ("dirty/19 ARCS CNP-recip", 0x24c90691cefaa372),
    ("dirty/19 BLAST", 0xd664525672d87597),
    ("dirty/19 supervised", 0x5df5d42b35b60587),
];

#[test]
fn golden_digests_pin_every_family() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for seed in [7u64, 19] {
        for (world, (blocks, truth)) in [("clean", clean(seed)), ("dirty", dirty(seed))] {
            let model = Pruning::Supervised(coverage::model(&blocks, &truth, seed));
            let spec = Spec::of(&blocks);
            let mut session = Session::new(&blocks);
            session.workers(2);
            for (case, scheme, pruning) in cases(spec.num_edges(), model) {
                let want = digest(&spec.run(scheme, pruning));
                let out = session.scheme(scheme).pruning(pruning).run();
                let label = format!("{world}/{seed} {case}");
                assert_eq!(digest(&out.pruned), want, "{label}: session vs spec");
                got.push((label, want));
            }
        }
    }
    assert_golden(&got, GOLDEN);
}

/// Panics with the whole current table unless `got` is `pinned`.
fn assert_golden(got: &[(String, u64)], pinned: &[(&str, u64)]) {
    let pinned: Vec<(String, u64)> = pinned.iter().map(|&(l, d)| (l.to_string(), d)).collect();
    if got != pinned {
        let table: String = got
            .iter()
            .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
            .collect();
        panic!("golden digests moved; the current table:\n{table}");
    }
}

/// `fx_hash_bytes` of every block's key string (length first), members
/// and comparison count, little-endian.
fn blocks_digest(blocks: &BlockCollection) -> u64 {
    let mut bytes = Vec::new();
    for b in blocks.blocks() {
        let key = blocks.key_str(b.id);
        bytes.extend((key.len() as u64).to_le_bytes());
        bytes.extend(key.as_bytes());
        bytes.extend(b.entities.iter().flat_map(|e| e.0.to_le_bytes()));
        bytes.extend(b.comparisons.to_le_bytes());
    }
    fx_hash_bytes(&bytes)
}

/// Pinned like [`GOLDEN`]: the `clean` and `dirty` worlds before
/// cleaning, purged at three smoothing factors, and filtered at three
/// ratios after the default purge.
const GOLDEN_CLEANING: &[(&str, u64)] = &[
    ("clean/7 blocks", 0x63278087652f98e0),
    ("clean/7 purge(1.01)", 0xb3f31719458b14d1),
    ("clean/7 purge(1.025)", 0x83f0ef4c525e83c4),
    ("clean/7 purge(2)", 0x63278087652f98e0),
    ("clean/7 filter(0.3)", 0xc50748613a41de95),
    ("clean/7 filter(0.8)", 0xf363040e6c34d583),
    ("clean/7 filter(1)", 0x83f0ef4c525e83c4),
    ("dirty/7 blocks", 0xcd79ea0460ac95df),
    ("dirty/7 purge(1.01)", 0x1fd02ac18d260acd),
    ("dirty/7 purge(1.025)", 0x1fd02ac18d260acd),
    ("dirty/7 purge(2)", 0xcd79ea0460ac95df),
    ("dirty/7 filter(0.3)", 0xbc0de0fa6359f16c),
    ("dirty/7 filter(0.8)", 0xae6d3f87b99290af),
    ("dirty/7 filter(1)", 0x1fd02ac18d260acd),
];

#[test]
fn golden_digests_pin_purge_and_filter() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for (name, (world, blocks)) in [("clean", raw_clean(7)), ("dirty", raw_dirty(7))] {
        let build = |groups: cleaning::Groups| {
            BlockCollection::from_groups(&world.dataset, blocks.mode(), groups)
        };
        got.push((format!("{name}/7 blocks"), blocks_digest(&blocks)));
        for smoothing in [1.01, purge::DEFAULT_SMOOTHING, 2.0] {
            let spec = build(cleaning::purge(&blocks, smoothing).1);
            let label = format!("{name}/7 purge({smoothing})");
            assert_collections_identical(
                &purge::purge_with(&blocks, smoothing).collection,
                &spec,
                &label,
            );
            got.push((label, blocks_digest(&spec)));
        }
        let purged = purge::purge(&blocks).collection;
        for ratio in [0.3, 0.8, 1.0] {
            let spec = build(cleaning::filter(&purged, ratio));
            let label = format!("{name}/7 filter({ratio})");
            assert_collections_identical(&filter::filter_with(&purged, ratio), &spec, &label);
            got.push((label, blocks_digest(&spec)));
        }
    }
    assert_golden(&got, GOLDEN_CLEANING);
}

/// Pinned like [`GOLDEN`]: every blocking method at the parameters the
/// `reproduce` E9 table runs, and the MapReduce token blocker, on the
/// worlds of the `clean` and `dirty` collections: `clean`'s under both ER
/// modes, `dirty`'s (one KB) under dirty ER.
const GOLDEN_BLOCKERS: &[(&str, u64)] = &[
    ("clean/7 CleanClean token", 0x63278087652f98e0),
    ("clean/7 CleanClean uri-infix", 0x21a0ff17f401a261),
    ("clean/7 CleanClean token+uri", 0x22b3239eb9f95eeb),
    ("clean/7 CleanClean attr-cluster", 0xa19c69d118885ecb),
    ("clean/7 CleanClean qgrams(3)", 0x6440d23c19b41c6c),
    ("clean/7 CleanClean ext-qgrams(3,.8)", 0x1594d9688352f6f1),
    ("clean/7 CleanClean snm(6)", 0xb87c9e510ba309d0),
    ("clean/7 CleanClean adaptive-snm", 0x4766dd5aa5d13778),
    ("clean/7 CleanClean minhash-lsh", 0x9c551e90045f9fc4),
    ("clean/7 CleanClean canopy", 0x97b961457aa6fe8c),
    ("clean/7 CleanClean mapreduce token", 0x63278087652f98e0),
    ("clean/7 Dirty token", 0x302e4c14ce936ff5),
    ("clean/7 Dirty uri-infix", 0xc2508882fe0769d6),
    ("clean/7 Dirty token+uri", 0x687debf65cfe9d9d),
    ("clean/7 Dirty attr-cluster", 0x769cba94f5f4f55b),
    ("clean/7 Dirty qgrams(3)", 0xc559dca302f3bc73),
    ("clean/7 Dirty ext-qgrams(3,.8)", 0xe8d0f8b295de0123),
    ("clean/7 Dirty snm(6)", 0xa5d06d6e983133f8),
    ("clean/7 Dirty adaptive-snm", 0x33866659082c3612),
    ("clean/7 Dirty minhash-lsh", 0xf2e87a2883f1690c),
    ("clean/7 Dirty canopy", 0xfb0ceb81cbe8196d),
    ("clean/7 Dirty mapreduce token", 0x302e4c14ce936ff5),
    ("dirty/7 Dirty token", 0xcd79ea0460ac95df),
    ("dirty/7 Dirty uri-infix", 0x11a3100cee661eaf),
    ("dirty/7 Dirty token+uri", 0xd802fe23e7959a20),
    ("dirty/7 Dirty attr-cluster", 0x33ee19579ee32057),
    ("dirty/7 Dirty qgrams(3)", 0x912bb5d29237a470),
    ("dirty/7 Dirty ext-qgrams(3,.8)", 0x307766784c3408b4),
    ("dirty/7 Dirty snm(6)", 0x138c27c2f1fac95c),
    ("dirty/7 Dirty adaptive-snm", 0x128c70165f3a47f1),
    ("dirty/7 Dirty minhash-lsh", 0x63ec8b012c09a62b),
    ("dirty/7 Dirty canopy", 0x373ed306469aa30e),
    ("dirty/7 Dirty mapreduce token", 0xcd79ea0460ac95df),
];

#[test]
fn golden_digests_pin_every_blocker() {
    let methods = [
        ("token", Method::Token),
        ("uri-infix", Method::UriInfix),
        ("token+uri", Method::TokenAndUri),
        ("attr-cluster", Method::AttributeClustering),
        ("qgrams(3)", Method::QGrams),
        ("ext-qgrams(3,.8)", Method::ExtendedQGrams),
        ("snm(6)", Method::SortedNeighborhood),
        ("adaptive-snm", Method::AdaptiveSortedNeighborhood),
        ("minhash-lsh", Method::MinHashLsh),
        ("canopy", Method::Canopy),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    let worlds = [
        (
            "clean",
            raw_clean(7).0,
            &[ErMode::CleanClean, ErMode::Dirty][..],
        ),
        ("dirty", raw_dirty(7).0, &[ErMode::Dirty][..]),
    ];
    for (name, world, modes) in worlds {
        let ds = &world.dataset;
        for &mode in modes {
            let mut case = |label: String, at: &dyn Fn(usize) -> BlockCollection| {
                let want = blocks_digest(&at(1));
                assert_eq!(blocks_digest(&at(4)), want, "{label}: 1 vs 4 workers");
                got.push((label, want));
            };
            for (method_name, method) in methods {
                case(format!("{name}/7 {mode:?} {method_name}"), &|threads| {
                    method.run(ds, mode, threads)
                });
            }
            case(format!("{name}/7 {mode:?} mapreduce token"), &|workers| {
                parallel_token_blocking(ds, mode, &Engine::new(workers))
            });
        }
    }
    assert_golden(&got, GOLDEN_BLOCKERS);
}

/// Per entity, its edges' weights from an unpruned run, descending.
fn rows(out: &PrunedComparisons, n: usize) -> Vec<Vec<f64>> {
    let mut rows = vec![Vec::new(); n];
    for p in &out.pairs {
        rows[p.a.index()].push(p.weight);
        rows[p.b.index()].push(p.weight);
    }
    for row in &mut rows {
        row.sort_by(|x, y| y.total_cmp(x));
    }
    rows
}

/// Whether the `k`-th and `k+1`-th of `weights` (descending) tie: a
/// cardinality `k` cuts inside a class of equal weights.
fn cut_in_tie(weights: &[f64], k: usize) -> bool {
    k >= 1 && weights.len() > k && weights[k - 1] == weights[k]
}

#[test]
fn coverage_list_holds() {
    let (clean, _) = clean(7);
    let (dirty, _) = dirty(7);
    let (star, empty) = (star(), coverage::empty());
    let spec = Spec::of(&clean);
    let cbs = spec.run(WeightingScheme::Cbs, Pruning::None);
    let mut weights: Vec<f64> = cbs.pairs.iter().map(|p| p.weight).collect();
    weights.sort_by(|x, y| y.total_cmp(x));
    assert!(
        weights.windows(2).any(|w| w[0] == w[1]),
        "clean: ties under CBS"
    );
    let default_k = (clean.total_assignments() / 2) as usize;
    assert!(
        cut_in_tie(&weights, default_k),
        "clean: CEP's default k cuts inside a tie"
    );
    let clean_rows = rows(&cbs, clean.num_entities());
    assert!(
        clean_rows.iter().any(|row| cut_in_tie(row, 2)),
        "clean: CNP(2) cuts inside some node's tie"
    );
    let wnp = |reciprocal| spec.run(WeightingScheme::Arcs, Pruning::Wnp { reciprocal });
    assert!(
        wnp(true).pairs.len() < wnp(false).pairs.len(),
        "clean: an edge only the reciprocal rule loses"
    );

    let star_spec = Spec::of(&star);
    let star_rows = rows(
        &star_spec.run(WeightingScheme::Cbs, Pruning::None),
        star.num_entities(),
    );
    assert!(star_rows.iter().any(Vec::is_empty), "star: an empty row");
    for scheme in [WeightingScheme::Ecbs, WeightingScheme::Ejs] {
        let out = star_spec.run(scheme, Pruning::None);
        assert!(
            out.pairs.iter().any(|p| p.weight == 0.0),
            "star: a zero-weight {scheme:?} edge"
        );
    }

    assert_eq!(
        empty.total_assignments() / 2,
        0,
        "empty: CEP's default k is 0"
    );
    let families: Vec<Pruning> = coverage::families(0).into_iter().map(|(_, p)| p).collect();
    assert!(families.contains(&Pruning::Cep(Some(0))));
    assert!(families.contains(&Pruning::Cnp {
        reciprocal: true,
        k: Some(0)
    }));

    for (name, blocks, mode) in [
        ("clean", &clean, ErMode::CleanClean),
        ("dirty", &dirty, ErMode::Dirty),
    ] {
        assert_eq!(blocks.mode(), mode, "{name}: ER mode");
        assert!(blocks.placed_entities() >= 4, "{name}: a 4-way split sweep");
    }
    assert!(
        dirty.blocks().any(|b| b.len() >= 3),
        "dirty: a block of 3 or more comparable members"
    );
    let dirty_spec = Spec::of(&dirty);
    let dirty_cbs = dirty_spec.run(WeightingScheme::Cbs, Pruning::None);
    let dirty_arcs = dirty_spec.run(WeightingScheme::Arcs, Pruning::None);
    assert!(
        dirty_cbs
            .pairs
            .iter()
            .zip(&dirty_arcs.pairs)
            .any(|(c, a)| c.weight != a.weight),
        "dirty: an edge whose ARCS weight differs from its CBS weight"
    );
    let named: Vec<&str> = coverage::named().iter().map(|(n, _)| *n).collect();
    assert_eq!(named, ["clean", "dirty", "star", "empty"]);
    resolution_rows_hold();
}

/// The coverage list's resolution rows, on the specification's runs.
fn resolution_rows_hold() {
    let worlds = coverage::resolution_worlds(7);
    let named: Vec<&str> = worlds.iter().map(|(n, _, _)| *n).collect();
    assert_eq!(named, ["clean", "dirty", "sparse", "periphery"]);
    let pq = ResolverConfig::default();
    for (world, g, pairs) in &worlds {
        let matcher = Matcher::new(&g.dataset, MatcherConfig::default());
        let run = |c: &ResolverConfig| resolve_spec::resolve(&g.dataset, &matcher, pairs, c);
        let tenth = pairs.len() as u64 / 10;
        let cut = run(&ResolverConfig {
            budget: tenth,
            ..Default::default()
        });
        assert!(
            cut.comparisons == tenth && run(&pq).comparisons > tenth,
            "{world}: a budget cut inside the run"
        );
    }
    let world = |i: usize| (&worlds[i].1, worlds[i].2.as_slice());
    let ((clean, clean_pairs), (dirty, dirty_pairs)) = (world(0), world(1));
    let ((sparse, sparse_pairs), (periphery, periphery_pairs)) = (world(2), world(3));
    let matcher = Matcher::new(&clean.dataset, MatcherConfig::default());
    let model = BenefitModel::PairQuantity;
    let (all, ties) = resolve_spec::progressive(&clean.dataset, &matcher, clean_pairs, &pq, model);
    assert!(ties > 0, "clean: a schedule tie decided by candidate id");
    assert!(
        all.trace.steps().iter().any(|s| s.discovered && s.matched),
        "clean: a discovered candidate that matches"
    );
    let unique = ResolverConfig {
        unique_mapping: true,
        ..Default::default()
    };
    let unique = resolve_spec::resolve(&clean.dataset, &matcher, clean_pairs, &unique);
    let compared: Vec<(u32, u32)> = unique.trace.steps().iter().map(|s| (s.a, s.b)).collect();
    let together = |a: u32, b: u32| {
        unique
            .clusters
            .iter()
            .any(|c| c.contains(&a) && c.contains(&b))
    };
    assert!(
        clean_pairs
            .iter()
            .any(|&(a, b, _)| !compared.contains(&(a.0, b.0)) && !together(a.0, b.0)),
        "clean: a unique-mapping refusal (an unbounded run left a pair apart, uncompared)"
    );

    let matcher = Matcher::new(&sparse.dataset, MatcherConfig::default());
    let steps = resolve_spec::resolve(&sparse.dataset, &matcher, sparse_pairs, &pq).trace;
    let steps = steps.steps();
    let again = |i: usize| {
        steps[..i]
            .iter()
            .any(|t| (t.a, t.b) == (steps[i].a, steps[i].b))
    };
    assert!(
        (0..steps.len()).any(|i| steps[i].matched && again(i)),
        "sparse: a re-comparison that flips to a match"
    );

    let matcher = Matcher::new(&periphery.dataset, MatcherConfig::default());
    let run = |c: &ResolverConfig| {
        let out = resolve_spec::resolve(&periphery.dataset, &matcher, periphery_pairs, c);
        common::resolution_bits(&out)
    };
    let margin = ResolverConfig {
        recompare_margin: 0.0,
        ..Default::default()
    };
    assert_ne!(
        run(&pq),
        run(&margin),
        "periphery: a re-comparison recompare_margin defers"
    );

    let centre = |alg| resolve_spec::cluster(alg, &dirty.dataset, dirty_pairs);
    assert_ne!(
        centre(ClusteringAlgorithm::Center),
        centre(ClusteringAlgorithm::MergeCenter),
        "dirty: an edge of two centres among the candidates"
    );
}

/// The resolution cases of one world with `pairs` candidates: every
/// strategy × budget of 10 %, 50 % and ∞, then pair-quantity under
/// unique mapping on `clean`.
fn resolution_cases(world: &str, pairs: usize) -> Vec<(String, ResolverConfig)> {
    let mut strategies = vec![
        Strategy::Batch,
        Strategy::Random { seed: 5 },
        Strategy::StaticBestFirst,
    ];
    strategies.extend(BenefitModel::ALL.map(Strategy::Progressive));
    let budgets = [
        ("10%", pairs as u64 / 10),
        ("50%", pairs as u64 / 2),
        ("all", u64::MAX),
    ];
    let mut cases = Vec::new();
    for strategy in strategies {
        for (label, budget) in budgets {
            let config = ResolverConfig {
                strategy,
                budget,
                ..Default::default()
            };
            let name = match strategy {
                Strategy::Progressive(model) => model.name().to_string(),
                fixed => fixed.name(),
            };
            cases.push((format!("{name} {label}"), config));
        }
    }
    if world == "clean" {
        for (label, budget) in budgets {
            let config = ResolverConfig {
                budget,
                unique_mapping: true,
                ..Default::default()
            };
            cases.push((format!("unique {label}"), config));
        }
    }
    cases
}

/// `fx_hash_bytes` of an incremental run: comparisons, every match
/// `(a, b, score bits)`, then the clusters.
fn incremental_digest(inc: &mut IncrementalResolver) -> u64 {
    let mut bytes = inc.comparisons().to_le_bytes().to_vec();
    for &(a, b, score) in inc.matches() {
        bytes.extend(a.0.to_le_bytes());
        bytes.extend(b.0.to_le_bytes());
        bytes.extend(score.to_bits().to_le_bytes());
    }
    bytes.extend(clusters_bytes(&inc.clusters()));
    fx_hash_bytes(&bytes)
}

/// `fx_hash_bytes` of a composite run: comparisons, then every match
/// `(a, b, score bits, rule name)`.
fn composite_digest(out: &CompositeResolution) -> u64 {
    let mut bytes = out.comparisons.to_le_bytes().to_vec();
    for m in &out.matches {
        bytes.extend(m.a.0.to_le_bytes());
        bytes.extend(m.b.0.to_le_bytes());
        bytes.extend(m.score.to_bits().to_le_bytes());
        bytes.extend(m.rule.name().as_bytes());
    }
    fx_hash_bytes(&bytes)
}

/// Pinned like [`GOLDEN`]: every case of [`resolution_cases`] and each
/// clustering of the unbounded pair-quantity matches, on which every plan
/// must equal the specification (`common::resolve_spec`); then the
/// composite and incremental resolvers, pinned only.
const GOLDEN_RESOLUTION: &[(&str, u64)] = &[
    ("clean/7 batch 10%", 0x6b7a97d1d88e95a1),
    ("clean/7 batch 50%", 0x09851b491f045558),
    ("clean/7 batch all", 0x87cff42e7a162a2c),
    ("clean/7 random 10%", 0xba4495c8e3f01361),
    ("clean/7 random 50%", 0xc649eed4ac56ae2f),
    ("clean/7 random all", 0x7ffe9bdd27c70cfe),
    ("clean/7 static-best-first 10%", 0x6b7a97d1d88e95a1),
    ("clean/7 static-best-first 50%", 0x09851b491f045558),
    ("clean/7 static-best-first all", 0x87cff42e7a162a2c),
    ("clean/7 pair-quantity 10%", 0x26f117aa8b90fe1e),
    ("clean/7 pair-quantity 50%", 0x28ae968f9ec43990),
    ("clean/7 pair-quantity all", 0x31ce16e6e0a858ed),
    ("clean/7 attr-completeness 10%", 0x6260ffe7382d925b),
    ("clean/7 attr-completeness 50%", 0x97cd6052957f4f07),
    ("clean/7 attr-completeness all", 0x737caf7b443e103c),
    ("clean/7 entity-coverage 10%", 0x26f117aa8b90fe1e),
    ("clean/7 entity-coverage 50%", 0x287e541744552a34),
    ("clean/7 entity-coverage all", 0x575df23a10ce3a19),
    ("clean/7 rel-completeness 10%", 0xcd9fcda942c97d90),
    ("clean/7 rel-completeness 50%", 0xa50c5bd98f3067a7),
    ("clean/7 rel-completeness all", 0x74c6cdc43441ba34),
    ("clean/7 unique 10%", 0x26f117aa8b90fe1e),
    ("clean/7 unique 50%", 0x38dd3ef80b7a25b9),
    ("clean/7 unique all", 0x38dd3ef80b7a25b9),
    ("clean/7 connected-components", 0xac1ab1982fbc61c8),
    ("clean/7 center", 0xa104f2babee2f390),
    ("clean/7 merge-center", 0xa104f2babee2f390),
    ("clean/7 unique-mapping", 0xb5601636d417c66a),
    ("clean/7 composite", 0x8752b2ba16f658c9),
    ("clean/7 stream kb-sequential ×1", 0x4de9659990a1612d),
    ("clean/7 stream kb-sequential ×8", 0x838c4e2ab1453948),
    ("clean/7 stream kb-sequential ×1 m:n", 0x71c05a194af2c684),
    ("clean/7 stream round-robin ×1", 0x2bf84da8e7995fb6),
    ("clean/7 stream round-robin ×8", 0x96d04481ebdb01d3),
    ("clean/7 stream round-robin ×1 m:n", 0x1537e3c65d60db94),
    ("clean/7 stream shuffled ×1", 0x7bd4174ba605e770),
    ("clean/7 stream shuffled ×8", 0xf8d308ec5f5cfff0),
    ("clean/7 stream shuffled ×1 m:n", 0xd2f9c80d29e0a81d),
    ("clean/7 stream clustered-bursts ×1", 0xfde560027d235615),
    ("clean/7 stream clustered-bursts ×8", 0xe25a71c9f742d800),
    ("clean/7 stream clustered-bursts ×1 m:n", 0x6df39376f0279206),
    ("dirty/7 batch 10%", 0x2b39969198cb9c9a),
    ("dirty/7 batch 50%", 0x2f8373a135316d99),
    ("dirty/7 batch all", 0x4ea980988848cbc0),
    ("dirty/7 random 10%", 0x7cc17fd83cb258e5),
    ("dirty/7 random 50%", 0x74dc119948c0069c),
    ("dirty/7 random all", 0x1f5d391ad4dc9d33),
    ("dirty/7 static-best-first 10%", 0x2b39969198cb9c9a),
    ("dirty/7 static-best-first 50%", 0x2f8373a135316d99),
    ("dirty/7 static-best-first all", 0x4ea980988848cbc0),
    ("dirty/7 pair-quantity 10%", 0x75790e1e346d706c),
    ("dirty/7 pair-quantity 50%", 0x9d8c2bf4d0aa6245),
    ("dirty/7 pair-quantity all", 0x18532713be7435a2),
    ("dirty/7 attr-completeness 10%", 0x173597b1dc3e9c5e),
    ("dirty/7 attr-completeness 50%", 0x6c99cd16efcb0cd7),
    ("dirty/7 attr-completeness all", 0x3095666a4f6625e5),
    ("dirty/7 entity-coverage 10%", 0x4d83468938c6776e),
    ("dirty/7 entity-coverage 50%", 0x6ca12c5702f31061),
    ("dirty/7 entity-coverage all", 0x8a54fa2769869789),
    ("dirty/7 rel-completeness 10%", 0x9cfbf015fc7bcc9d),
    ("dirty/7 rel-completeness 50%", 0x305304bb5a1df384),
    ("dirty/7 rel-completeness all", 0x1ca3c4ef5a102640),
    ("dirty/7 connected-components", 0x3ec854f3cd619430),
    ("dirty/7 center", 0x3ec854f3cd619430),
    ("dirty/7 merge-center", 0x3ec854f3cd619430),
    ("dirty/7 unique-mapping", 0x0000000000000000),
    ("sparse/7 batch 10%", 0x53c978135b631c1f),
    ("sparse/7 batch 50%", 0xfc547ac4acdf1472),
    ("sparse/7 batch all", 0xb317536f50726ff0),
    ("sparse/7 random 10%", 0x6f63d95cab9490ef),
    ("sparse/7 random 50%", 0xa859a010b63da9a4),
    ("sparse/7 random all", 0x135819b4d4e89f85),
    ("sparse/7 static-best-first 10%", 0x53c978135b631c1f),
    ("sparse/7 static-best-first 50%", 0xfc547ac4acdf1472),
    ("sparse/7 static-best-first all", 0xb317536f50726ff0),
    ("sparse/7 pair-quantity 10%", 0xbe0ec32624b22183),
    ("sparse/7 pair-quantity 50%", 0x9ff8b37208620a0f),
    ("sparse/7 pair-quantity all", 0x564a8883997d4d09),
    ("sparse/7 attr-completeness 10%", 0x50b68438403af773),
    ("sparse/7 attr-completeness 50%", 0x684f6a3c9802845a),
    ("sparse/7 attr-completeness all", 0x5b9b2a00cecf4943),
    ("sparse/7 entity-coverage 10%", 0x055599c7f236b8d9),
    ("sparse/7 entity-coverage 50%", 0xa137829c53715a6c),
    ("sparse/7 entity-coverage all", 0xdd7f008bd861aff2),
    ("sparse/7 rel-completeness 10%", 0x2150d73f51d5e1ed),
    ("sparse/7 rel-completeness 50%", 0xf89d9c96bbef2f5e),
    ("sparse/7 rel-completeness all", 0x16dfe4f6ae26373f),
    ("sparse/7 connected-components", 0xb2f2c297352504eb),
    ("sparse/7 center", 0xb2f2c297352504eb),
    ("sparse/7 merge-center", 0xb2f2c297352504eb),
    ("sparse/7 unique-mapping", 0xb2f2c297352504eb),
    ("sparse/7 composite", 0x2d914590c3255eba),
    ("periphery/7 batch 10%", 0x86edd0c344cd9d37),
    ("periphery/7 batch 50%", 0xe1cd4d3cc80dd7e1),
    ("periphery/7 batch all", 0x4f0d98fc38b0ca94),
    ("periphery/7 random 10%", 0x70fa81db8c239203),
    ("periphery/7 random 50%", 0x4da22b0c5ccd598a),
    ("periphery/7 random all", 0x038b7b3d1508f9cb),
    ("periphery/7 static-best-first 10%", 0x86edd0c344cd9d37),
    ("periphery/7 static-best-first 50%", 0xe1cd4d3cc80dd7e1),
    ("periphery/7 static-best-first all", 0x4f0d98fc38b0ca94),
    ("periphery/7 pair-quantity 10%", 0xd9557a6fdc38fa98),
    ("periphery/7 pair-quantity 50%", 0x8842a075a983aa34),
    ("periphery/7 pair-quantity all", 0xbfa7b5cc533b9d18),
    ("periphery/7 attr-completeness 10%", 0x6e75ec8fc3d42cfc),
    ("periphery/7 attr-completeness 50%", 0x4bdccbdc0223faaf),
    ("periphery/7 attr-completeness all", 0xc6693cc24ca114d5),
    ("periphery/7 entity-coverage 10%", 0xd9557a6fdc38fa98),
    ("periphery/7 entity-coverage 50%", 0x6b17a58fdb46b4ee),
    ("periphery/7 entity-coverage all", 0xec529ff39e0156a9),
    ("periphery/7 rel-completeness 10%", 0x6882be336a756643),
    ("periphery/7 rel-completeness 50%", 0x9ada8938c7f16669),
    ("periphery/7 rel-completeness all", 0x1e452228013f6319),
    ("periphery/7 connected-components", 0x21bd558229389868),
    ("periphery/7 center", 0x21bd558229389868),
    ("periphery/7 merge-center", 0x21bd558229389868),
    ("periphery/7 unique-mapping", 0x21bd558229389868),
    ("periphery/7 composite", 0x92e9309c7028e585),
    ("clean/19 batch 10%", 0xcc1f49df0febd01c),
    ("clean/19 batch 50%", 0xe4613cec3ddd4636),
    ("clean/19 batch all", 0xd55564e763107f71),
    ("clean/19 random 10%", 0x0e20ee1d1c7e44ac),
    ("clean/19 random 50%", 0x73c98d54a3a7415d),
    ("clean/19 random all", 0x296bc3b6f71ac878),
    ("clean/19 static-best-first 10%", 0xcc1f49df0febd01c),
    ("clean/19 static-best-first 50%", 0xe4613cec3ddd4636),
    ("clean/19 static-best-first all", 0xd55564e763107f71),
    ("clean/19 pair-quantity 10%", 0x7aded7ce843c2342),
    ("clean/19 pair-quantity 50%", 0xd4c13f0fdcfaa3ef),
    ("clean/19 pair-quantity all", 0xac43870361c67cba),
    ("clean/19 attr-completeness 10%", 0xe198e9ae7bae8648),
    ("clean/19 attr-completeness 50%", 0xfb04768778bcba17),
    ("clean/19 attr-completeness all", 0xd15dc99f79f96799),
    ("clean/19 entity-coverage 10%", 0x7aded7ce843c2342),
    ("clean/19 entity-coverage 50%", 0x97811c5ca395f853),
    ("clean/19 entity-coverage all", 0xa3dc225997a10043),
    ("clean/19 rel-completeness 10%", 0xc74099ab247b32a8),
    ("clean/19 rel-completeness 50%", 0x879a192aca5ecfbd),
    ("clean/19 rel-completeness all", 0xf6180c28c9ca43d1),
    ("clean/19 unique 10%", 0x7aded7ce843c2342),
    ("clean/19 unique 50%", 0xdd9540614bda6ee7),
    ("clean/19 unique all", 0xdd9540614bda6ee7),
    ("clean/19 connected-components", 0xe810286adf820d44),
    ("clean/19 center", 0x37eecb2eb0860189),
    ("clean/19 merge-center", 0x37eecb2eb0860189),
    ("clean/19 unique-mapping", 0x37eecb2eb0860189),
    ("clean/19 composite", 0x0305e7de8548db8d),
    ("clean/19 stream kb-sequential ×1", 0x874ef79397bad112),
    ("clean/19 stream kb-sequential ×8", 0x00cbbeebc59f3f2f),
    ("clean/19 stream kb-sequential ×1 m:n", 0x6f197ac490b61c68),
    ("clean/19 stream round-robin ×1", 0xa52f55b1000724cc),
    ("clean/19 stream round-robin ×8", 0xa34f317a90b6c77a),
    ("clean/19 stream round-robin ×1 m:n", 0x2a7d05c03326ef21),
    ("clean/19 stream shuffled ×1", 0xce1b34705e0d94eb),
    ("clean/19 stream shuffled ×8", 0xebf9b3942d4015e0),
    ("clean/19 stream shuffled ×1 m:n", 0x5712afe3aa86a045),
    ("clean/19 stream clustered-bursts ×1", 0x846561099bd99028),
    ("clean/19 stream clustered-bursts ×8", 0x57ecb27e47c6d53c),
    (
        "clean/19 stream clustered-bursts ×1 m:n",
        0x78dea069fd0d0d12,
    ),
    ("dirty/19 batch 10%", 0x09686b021b85e033),
    ("dirty/19 batch 50%", 0x0eb3c03df7f0fab3),
    ("dirty/19 batch all", 0x3ea4057534b0abf9),
    ("dirty/19 random 10%", 0xa6691ca906a18cfa),
    ("dirty/19 random 50%", 0x5da707a2850b67c1),
    ("dirty/19 random all", 0x20a1dbe2ac48f0db),
    ("dirty/19 static-best-first 10%", 0x09686b021b85e033),
    ("dirty/19 static-best-first 50%", 0x0eb3c03df7f0fab3),
    ("dirty/19 static-best-first all", 0x3ea4057534b0abf9),
    ("dirty/19 pair-quantity 10%", 0x6c2175c1161d4aa0),
    ("dirty/19 pair-quantity 50%", 0xa71b168f172eb500),
    ("dirty/19 pair-quantity all", 0x0a7191fa216ba70d),
    ("dirty/19 attr-completeness 10%", 0x30c1e31e230cd409),
    ("dirty/19 attr-completeness 50%", 0xeaabab0595adc8e4),
    ("dirty/19 attr-completeness all", 0x6bd8f0e9a443b9ed),
    ("dirty/19 entity-coverage 10%", 0xba3aeef5e6d1b7ec),
    ("dirty/19 entity-coverage 50%", 0xcdf57c2fc927e2c2),
    ("dirty/19 entity-coverage all", 0x6c289e9f10d17df9),
    ("dirty/19 rel-completeness 10%", 0x9d1d99c1fe12e90d),
    ("dirty/19 rel-completeness 50%", 0x20cab1525b370a3c),
    ("dirty/19 rel-completeness all", 0x9afa5f79b9b99073),
    ("dirty/19 connected-components", 0xa63597216011ab03),
    ("dirty/19 center", 0xa63597216011ab03),
    ("dirty/19 merge-center", 0xa63597216011ab03),
    ("dirty/19 unique-mapping", 0x0000000000000000),
    ("sparse/19 batch 10%", 0x5cf2dac19a8a9a92),
    ("sparse/19 batch 50%", 0x69253d36f023747d),
    ("sparse/19 batch all", 0x5c889daeae8d0049),
    ("sparse/19 random 10%", 0xf41d95b3a2416196),
    ("sparse/19 random 50%", 0x8af0494e39060633),
    ("sparse/19 random all", 0xf75155345b127401),
    ("sparse/19 static-best-first 10%", 0x5cf2dac19a8a9a92),
    ("sparse/19 static-best-first 50%", 0x69253d36f023747d),
    ("sparse/19 static-best-first all", 0x5c889daeae8d0049),
    ("sparse/19 pair-quantity 10%", 0xb4a799052e3ff026),
    ("sparse/19 pair-quantity 50%", 0x0a9c591f0e225211),
    ("sparse/19 pair-quantity all", 0x7a52282851b9aa2c),
    ("sparse/19 attr-completeness 10%", 0xf25ae012138f368d),
    ("sparse/19 attr-completeness 50%", 0x33ccd0cb6caeb0c8),
    ("sparse/19 attr-completeness all", 0x34c0ce434b6c82a2),
    ("sparse/19 entity-coverage 10%", 0xb4a799052e3ff026),
    ("sparse/19 entity-coverage 50%", 0x5a604b1e76bdb703),
    ("sparse/19 entity-coverage all", 0x2e3d05dd698b8bd3),
    ("sparse/19 rel-completeness 10%", 0x4d665afc0cdba406),
    ("sparse/19 rel-completeness 50%", 0xd7954a746c560994),
    ("sparse/19 rel-completeness all", 0x90b67617b56aef33),
    ("sparse/19 connected-components", 0x66fb516787ee1e7e),
    ("sparse/19 center", 0x66fb516787ee1e7e),
    ("sparse/19 merge-center", 0x66fb516787ee1e7e),
    ("sparse/19 unique-mapping", 0x66fb516787ee1e7e),
    ("sparse/19 composite", 0xcd49c65d7861aece),
    ("periphery/19 batch 10%", 0xa17015a26ef42916),
    ("periphery/19 batch 50%", 0x8f953801cd98b216),
    ("periphery/19 batch all", 0x8429acdc5862b569),
    ("periphery/19 random 10%", 0xcfe15c51e14cf22b),
    ("periphery/19 random 50%", 0x5ee0b163b4956048),
    ("periphery/19 random all", 0xf79ebd06ed4272f7),
    ("periphery/19 static-best-first 10%", 0xa17015a26ef42916),
    ("periphery/19 static-best-first 50%", 0x8f953801cd98b216),
    ("periphery/19 static-best-first all", 0x8429acdc5862b569),
    ("periphery/19 pair-quantity 10%", 0x949d4d63826c42f1),
    ("periphery/19 pair-quantity 50%", 0x9c3f6f9310df92e6),
    ("periphery/19 pair-quantity all", 0x0df509e4dc29e78c),
    ("periphery/19 attr-completeness 10%", 0x8fcd8b5f3119a632),
    ("periphery/19 attr-completeness 50%", 0x4571306b518b02c5),
    ("periphery/19 attr-completeness all", 0x194a02b62d130bfa),
    ("periphery/19 entity-coverage 10%", 0x1c781b900faa79fe),
    ("periphery/19 entity-coverage 50%", 0xf6e22b0e8644f29f),
    ("periphery/19 entity-coverage all", 0x80c4b51eb368c6eb),
    ("periphery/19 rel-completeness 10%", 0x22dcbaa1f3c1953b),
    ("periphery/19 rel-completeness 50%", 0xb7b8081d4024f2ad),
    ("periphery/19 rel-completeness all", 0x39ab56c856fa5d8c),
    ("periphery/19 connected-components", 0xe6bb637b8dca086e),
    ("periphery/19 center", 0xe6bb637b8dca086e),
    ("periphery/19 merge-center", 0xe6bb637b8dca086e),
    ("periphery/19 unique-mapping", 0xe6bb637b8dca086e),
    ("periphery/19 composite", 0x7a03882aca9994ef),
];

#[test]
fn golden_digests_pin_every_resolution() {
    let mut got: Vec<(String, u64)> = Vec::new();
    for seed in [7u64, 19] {
        for (world, g, pairs) in coverage::resolution_worlds(seed) {
            let dataset = &g.dataset;
            let matcher = Matcher::new(dataset, MatcherConfig::default());
            for (case, resolver) in resolution_cases(world, pairs.len()) {
                let label = format!("{world}/{seed} {case}");
                let want = resolve_spec::resolve(dataset, &matcher, &pairs, &resolver);
                for workers in [1, 4] {
                    let config = PipelineConfig {
                        workers: Some(workers),
                        resolver: resolver.clone(),
                        ..Default::default()
                    };
                    let matcher = Matcher::new(dataset, MatcherConfig::default());
                    let out = Pipeline::new(config).resolve(dataset, matcher, &pairs);
                    assert_same_resolution(&out, &want, &format!("{label}, {workers} workers"));
                }
                got.push((label, resolution_digest(&want)));
            }
            let pq = ResolverConfig::default();
            let matches = resolve_spec::resolve(dataset, &matcher, &pairs, &pq).matches;
            for alg in ClusteringAlgorithm::ALL {
                let run = |edges: &[_]| alg.run(dataset.len(), edges, |e| dataset.kb_of(e).0);
                let label = format!("{world}/{seed} {}", alg.name());
                let want = resolve_spec::cluster(alg, dataset, &pairs);
                assert_eq!(run(&pairs), want, "{label} over the candidates");
                let want = resolve_spec::cluster(alg, dataset, &matches);
                assert_eq!(run(&matches), want, "{label}");
                got.push((label, fx_hash_bytes(&clusters_bytes(&want))));
            }
            if world != "dirty" {
                let composite = CompositeResolver::new(dataset, &matcher);
                let label = format!("{world}/{seed} composite");
                got.push((label, composite_digest(&composite.run(&pairs))));
            }
            if world != "clean" {
                continue;
            }
            let orders = [
                ArrivalOrder::KbSequential,
                ArrivalOrder::RoundRobin,
                ArrivalOrder::Shuffled { seed },
                ArrivalOrder::ClusteredBursts,
            ];
            for order in orders {
                let arrivals = order.order(dataset, &g.truth);
                // On two KBs unique mapping refuses an arrival's other
                // candidates once it matches; without it (`m:n`) only the
                // budget stops the scan.
                for (batch, unique_mapping) in [(1, true), (8, true), (1, false)] {
                    let config = IncrementalConfig {
                        unique_mapping,
                        ..Default::default()
                    };
                    let mut inc = IncrementalResolver::new(dataset, &matcher, config);
                    for arrival in arrivals.chunks(batch) {
                        inc.arrive_batch(arrival);
                    }
                    let mapping = if unique_mapping { "" } else { " m:n" };
                    let name = order.name();
                    let label = format!("{world}/{seed} stream {name} ×{batch}{mapping}");
                    got.push((label, incremental_digest(&mut inc)));
                }
            }
        }
    }
    assert_golden(&got, GOLDEN_RESOLUTION);
}

/// Both oracle traces, in input order and with the true matches first,
/// equal the specification's on every resolution world and budget.
#[test]
fn oracle_traces_follow_the_spec() {
    for seed in [7u64, 19] {
        for (world, g, pairs) in coverage::resolution_worlds(seed) {
            let is_match = |a, b| g.truth.is_match(a, b);
            let truth: resolve_spec::Truth = &is_match;
            for (_, resolver) in resolution_cases(world, pairs.len()).into_iter().take(3) {
                let budget = resolver.budget;
                let label = format!("{world}/{seed} budget {budget}");
                let got = oracle_trace(&pairs, is_match, budget);
                let want = resolve_spec::oracle_trace(&pairs, truth, budget);
                assert_eq!(trace_bits(&got), trace_bits(&want), "{label}: oracle");
                let got = perfect_trace(&pairs, is_match, budget);
                let want = resolve_spec::perfect_trace(&pairs, truth, budget);
                assert_eq!(trace_bits(&got), trace_bits(&want), "{label}: perfect");
            }
        }
    }
}
