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
//! * **The coverage list** (`common::coverage`): each named world
//!   contains the case the list names it for.

mod common;

use common::coverage::{self, clean, dirty, raw_clean, raw_dirty, star};
use common::spec::Spec;
use common::{assert_collections_identical, cleaning};
use minoan::blocking::{filter, purge, BlockCollection, ErMode};
use minoan::common::hash::fx_hash_bytes;
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
}
