//! End-to-end CLI integration: generate → stats → snapshot → inspect →
//! resolve → eval → stream, all through the library entry point the
//! `minoan` binary wraps.

use minoan_cli::run;

fn cli(cmd: &str) -> Result<String, minoan_cli::CliError> {
    let argv: Vec<String> = cmd.split_whitespace().map(|s| s.to_string()).collect();
    run(&argv)
}

fn workdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("minoan_cli_e2e");
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = workdir();
    // 1. Generate a world on disk.
    let gen = cli(&format!(
        "generate --profile lod --entities 150 --seed 21 --out {}",
        dir.display()
    ))
    .expect("generate");
    assert!(gen.contains("matching pairs"));

    // 2. Collect the emitted KB files.
    let mut inputs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            p.extension()
                .is_some_and(|x| x == "nt")
                .then(|| p.display().to_string())
        })
        .collect();
    inputs.sort();
    assert!(inputs.len() >= 2, "lod profile emits several KBs");
    let input_args: String = inputs
        .iter()
        .map(|p| format!("--input {p} "))
        .collect::<String>();

    // 3. Stats over the N-Triples files.
    let stats = cli(&format!("stats {input_args}")).expect("stats");
    assert!(stats.contains("proprietary"));

    // 4. Snapshot + inspect.
    let snap = dir.join("world.mnstore");
    cli(&format!("snapshot {input_args} --out {}", snap.display())).expect("snapshot");
    let inspect = cli(&format!("inspect --snapshot {}", snap.display())).expect("inspect");
    assert!(inspect.contains("store:"));

    // 5. Resolve with a budget.
    let resolve = cli(&format!("resolve {input_args} --budget 5000 --show 5")).expect("resolve");
    assert!(resolve.contains("matches"));

    // 6. In-memory eval and stream commands.
    let eval = cli("eval --profile lod --entities 150 --seed 21").expect("eval");
    assert!(eval.contains("f1"));
    let stream =
        cli("stream --profile lod --entities 150 --seed 21 --order round-robin").expect("stream");
    assert!(stream.contains("round-robin"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn turtle_inputs_resolve_like_ntriples() {
    use minoan::prelude::*;
    use minoan::rdf::{ntriples, turtle};
    let dir = std::env::temp_dir().join("minoan_cli_ttl");
    std::fs::create_dir_all(&dir).unwrap();
    // Build a world, write one KB as N-Triples and the other as Turtle.
    let world = generate(&profiles::center_dense(100, 27));
    let mut inputs = Vec::new();
    for kb in 0..world.dataset.kb_count() {
        let id = KbId(kb as u16);
        let nt = world.dataset.to_ntriples(id);
        let path = if kb == 0 {
            let p = dir.join("a.nt");
            std::fs::write(&p, &nt).unwrap();
            p
        } else {
            let triples = ntriples::parse_document(&nt).unwrap();
            let p = dir.join("b.ttl");
            std::fs::write(&p, turtle::write_turtle(&triples, &[])).unwrap();
            p
        };
        inputs.push(path.display().to_string());
    }
    let out = cli(&format!(
        "resolve --input {} --input {} --show 2",
        inputs[0], inputs[1]
    ))
    .expect("mixed-format resolve");
    assert!(out.contains("matches"), "{out}");
    let stats = cli(&format!(
        "stats --input {} --input {}",
        inputs[0], inputs[1]
    ))
    .unwrap();
    assert!(stats.contains("store:"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn turtle_extensions_are_read_in_any_letter_case() {
    let dir = std::env::temp_dir().join("minoan_cli_ttl_case");
    std::fs::create_dir_all(&dir).unwrap();
    let inputs: Vec<String> = [("KB.TTL", "one"), ("kb.Turtle", "two")]
        .iter()
        .map(|(file, ns)| {
            let path = dir.join(file);
            let ttl = format!(
                "@prefix k: <http://{ns}/> .\nk:a k:name \"Knossos palace\" .\n\
                 k:b k:name \"Phaistos disc\" .\n"
            );
            std::fs::write(&path, ttl).unwrap();
            path.display().to_string()
        })
        .collect();
    for command in ["resolve --show 2", "stats"] {
        let line = format!("{command} --input {} --input {}", inputs[0], inputs[1]);
        if let Err(e) = cli(&line) {
            panic!("`{line}`: {e}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `batch_dirty`'s command line — dirty mode, JS × CEP under a comparison
/// budget — prints the same report, byte for byte, from every backend at
/// every worker count (the benchmark pins `--workers 2`, so it cannot
/// show this).
#[test]
fn dirty_cep_reports_do_not_depend_on_backend_or_workers() {
    let dir = std::env::temp_dir().join("minoan_cli_dirty");
    std::fs::create_dir_all(&dir).unwrap();
    cli(&format!(
        "generate --profile dirty --entities 400 --seed 9 --out {}",
        dir.display()
    ))
    .expect("generate");
    let resolve = |backend: &str, workers: usize| {
        let line = format!(
            "resolve --input {}/dirty.nt --dirty --weighting js --pruning cep --budget 1000 \
             --show 1000 --backend {backend} --workers {workers}",
            dir.display()
        );
        cli(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    };
    let expect = resolve("materialized", 1);
    assert!(expect.contains("800 descriptions") && expect.contains("comparisons 1000"));
    assert!(expect.lines().count() > 300, "every match is printed");
    for backend in ["streaming", "mapreduce", "materialized"] {
        for workers in [1, 2, 3, 8] {
            assert_eq!(
                resolve(backend, workers),
                expect,
                "{backend}, {workers} workers"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_errors_are_user_facing() {
    assert!(cli("resolve --input /nonexistent/file.nt").is_err());
    assert!(cli("inspect --snapshot /nonexistent.mnstore").is_err());
    assert!(cli("eval --profile nope").is_err());
    assert!(cli("nonsense").is_err());
}
