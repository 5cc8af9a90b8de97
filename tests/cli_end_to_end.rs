//! End-to-end CLI integration: generate → stats → resolve → eval →
//! stream, all through the library entry point the `minoan` binary wraps.

use minoan_cli::run;
use std::collections::BTreeSet;

fn cli(cmd: &str) -> Result<String, minoan_cli::CliError> {
    let argv: Vec<String> = cmd.split_whitespace().map(|s| s.to_string()).collect();
    run(&argv)
}

fn workdir() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("minoan_cli_e2e");
    std::fs::create_dir_all(&dir).expect("the temp dir is writable");
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

    // 3. Stats over the N-Triples files: one line per KB.
    let stats = cli(&format!("stats {input_args}")).expect("stats");
    assert!(stats.contains("proprietary"));
    for input in &inputs {
        let kb = std::path::Path::new(input).file_stem().unwrap();
        let line = format!("  {}: ", kb.to_str().unwrap());
        assert!(stats.contains(&line), "no line for {input}: {stats}");
    }

    // 4. `snapshot` and `inspect` are not commands.
    for gone in ["snapshot", "inspect"] {
        let err = cli(&format!("{gone} {input_args}")).unwrap_err();
        assert!(err.to_string().starts_with("unknown command"), "{err}");
    }

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

/// `stats` on two hand-written KBs, to the character: one shared and two
/// proprietary predicates, and a repeated statement that counts once.
#[test]
fn stats_count_statements_predicates_and_proprietary_vocabulary() {
    let dir = std::env::temp_dir().join("minoan_cli_stats");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.nt");
    let b = dir.join("b.nt");
    std::fs::write(
        &a,
        "<http://a/1> <http://x/name> \"Knossos\" .\n\
         <http://a/1> <http://a/near> <http://a/2> .\n\
         <http://a/1> <http://x/name> \"Knossos\" .\n\
         <http://a/2> <http://x/name> \"Phaistos\" .\n",
    )
    .unwrap();
    std::fs::write(
        &b,
        "<http://b/1> <http://x/name> \"Knossos\" .\n\
         <http://b/1> <http://b/era> \"Minoan\" .\n",
    )
    .unwrap();
    let stats = cli(&format!(
        "stats --input {} --input {}",
        a.display(),
        b.display()
    ))
    .unwrap();
    assert_eq!(
        stats,
        "2 KBs, 3 descriptions, 3 predicates (66.7% proprietary)\n\
         \x20 a: 2 descriptions, 3 statements, 2 predicates, 1 resource / 2 literal values\n\
         \x20 b: 1 descriptions, 2 statements, 2 predicates, 0 resource / 2 literal values\n\
         \x20 top predicates:\n\
         \x20   http://x/name × 3\n\
         \x20   http://a/near × 1\n\
         \x20   http://b/era × 1\n"
    );
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
    let stats = |b: &str| cli(&format!("stats --input {} --input {b}", inputs[0])).unwrap();
    let b_nt = dir.join("b.nt");
    std::fs::write(&b_nt, world.dataset.to_ntriples(KbId(1))).unwrap();
    let mixed = stats(&inputs[1]);
    assert!(mixed.contains("proprietary"), "{mixed}");
    assert_eq!(mixed, stats(&b_nt.display().to_string()));
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
    let expect = resolve("streaming", 1);
    assert!(expect.contains("800 descriptions") && expect.contains("comparisons 1000"));
    assert!(expect.lines().count() > 300, "every match is printed");
    for backend in ["streaming", "mapreduce"] {
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

/// `minoan resolve` prints the same report, byte for byte, whether its
/// four KB files load one after another or side by side, and whether the
/// progressive loop compares alone or with comparison workers beside it.
#[test]
fn resolve_reports_do_not_depend_on_workers() {
    let dir = std::env::temp_dir().join(format!("minoan_cli_workers_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    cli(&format!(
        "generate --profile lod --entities 300 --seed 13 --out {}",
        dir.display()
    ))
    .expect("generate");
    let mut inputs: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "nt"))
        .map(|p| format!("--input {}", p.display()))
        .collect();
    inputs.sort();
    assert_eq!(inputs.len(), 4, "the lod profile emits four KBs");
    let resolve = |workers: usize| {
        let line = format!(
            "resolve {} --show 1000000 --workers {workers}",
            inputs.join(" ")
        );
        cli(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    };
    let expect = resolve(1);
    assert!(expect.starts_with("4 KBs"), "{expect}");
    assert!(expect.lines().count() > 100, "every match is printed");
    for workers in [2, 4] {
        assert_eq!(resolve(workers), expect, "{workers} workers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One dirty KB in one file over 2 MiB, so `load_files` cuts it into two
/// pieces at two workers and three at three: the report is the same to the
/// byte at every worker count.
#[test]
fn one_file_resolves_the_same_however_it_is_cut() {
    let dir = std::env::temp_dir().join(format!("minoan_cli_one_file_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    cli(&format!(
        "generate --profile dirty --entities 1500 --seed 21 --out {}",
        dir.display()
    ))
    .expect("generate");
    let one = dir.join("dirty.nt");
    let bytes = std::fs::metadata(&one).unwrap().len();
    assert!(bytes > 2 << 20, "{bytes} B is not cut in three");
    let resolve = |workers: usize| {
        let line = format!(
            "resolve --input {} --dirty --weighting js --pruning cep --budget 4000 \
             --show 1000000 --workers {workers}",
            one.display()
        );
        cli(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"))
    };
    let expect = resolve(1);
    assert!(expect.starts_with("1 KBs"), "{expect}");
    assert!(expect.lines().count() > 100, "every match is printed");
    for workers in [2, 3] {
        assert_eq!(resolve(workers), expect, "{workers} workers");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_errors_are_user_facing() {
    assert!(cli("resolve --input /nonexistent/file.nt").is_err());
    let err = cli("snapshot --input x.nt --out x.mnstore").unwrap_err();
    assert!(err.to_string().starts_with("unknown command \"snapshot\""));
    assert!(cli("eval --profile nope").is_err());
    assert!(cli("nonsense").is_err());
    // A threshold outside [value_floor, 1] is refused before any work:
    // above 1 the matcher would panic, below the floor it changes nothing.
    for threshold in ["1.5", "-0.5", "0.2", "0.0", "NaN"] {
        for command in ["eval --profile lod --entities 60", "resolve --input x.nt"] {
            let line = format!("{command} --threshold {threshold}");
            let err = cli(&line).unwrap_err().to_string();
            assert!(
                err.contains("[value_floor, 1] = [0.3, 1]"),
                "`{line}`: {err}"
            );
        }
    }
    for threshold in ["0.3", "1"] {
        let line = format!("eval --profile lod --entities 60 --threshold {threshold}");
        cli(&line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
    }
    // `stream` cannot resolve one dirty KB, nor resolve anything without
    // a comparison per arrival: both are refused with the reason, not
    // answered with zeros.
    let err = cli("stream --profile dirty --entities 300 --seed 3").unwrap_err();
    assert!(err.to_string().contains("has one KB"), "{err}");
    let err = cli("stream --profile center --entities 300 --seed 3 --arrival-budget 0");
    let err = err.unwrap_err().to_string();
    assert!(
        err.starts_with("option --arrival-budget: expected a count ≥ 1"),
        "{err}"
    );
}

/// A misspelled option and another command's flag are both errors, raised
/// before the command does any work.
#[test]
fn unknown_options_and_foreign_flags_are_errors() {
    let err = cli("eval --profile center --entities 300 --seed 7 --prunning cep").unwrap_err();
    assert_eq!(
        err.to_string(),
        "unknown option --prunning for eval; try `minoan help`"
    );
    let dir = std::env::temp_dir().join("minoan_cli_foreign_flag");
    std::fs::remove_dir_all(&dir).ok();
    let line = format!(
        "generate --profile center --entities 40 --seed 1 --out {} --stats",
        dir.display()
    );
    let err = cli(&line).unwrap_err();
    assert!(err.to_string().contains("--stats for generate"), "{err}");
    assert!(!dir.exists(), "a rejected command line must not generate");
    for line in [
        "query --addr 127.0.0.1:1 --dirty",
        "stats --input x.nt --show 3",
    ] {
        let err = cli(line).unwrap_err().to_string();
        assert!(err.starts_with("unknown option"), "`{line}`: {err}");
    }
}

/// The `--name`s `help` lists under `command`.
fn help_options(command: &str) -> BTreeSet<String> {
    let help = cli("help").expect("help");
    let mut lines = help
        .lines()
        .skip_while(|l| !l.starts_with(&format!("  {command} ")));
    let head = lines
        .next()
        .unwrap_or_else(|| panic!("help lists {command}"));
    let block = lines.take_while(|l| l.starts_with("            "));
    let tokens = std::iter::once(head)
        .chain(block)
        .flat_map(str::split_whitespace);
    let names = tokens.filter_map(|t| t.trim_start_matches('[').strip_prefix("--"));
    names
        .map(|name| name.trim_end_matches(']').to_string())
        .collect()
}

/// The commands `help` lists: the first word of every line of its
/// COMMANDS block that is indented by exactly two spaces.
fn help_commands() -> BTreeSet<String> {
    let help = cli("help").expect("help");
    let block = help.lines().skip_while(|l| *l != "COMMANDS").skip(1);
    let heads = block
        .take_while(|l| !l.is_empty())
        .filter_map(|l| l.strip_prefix("  ").filter(|l| !l.starts_with(' ')));
    heads
        .filter_map(|l| l.split_whitespace().next())
        .map(String::from)
        .collect()
}

/// `help` lists exactly the commands `run` dispatches — the set an
/// unknown command's error spells out — so no help line outlives its
/// command and no command goes undocumented.
#[test]
fn help_lists_exactly_the_commands_run_accepts() {
    let err = cli("frobnicate").unwrap_err().to_string();
    let valid = err
        .split("valid: ")
        .nth(1)
        .and_then(|rest| rest.split(';').next())
        .unwrap_or_else(|| panic!("no list of valid commands in {err:?}"));
    let accepted: BTreeSet<String> = valid.split(" | ").map(String::from).collect();
    assert_eq!(help_commands(), accepted);
    for command in &accepted {
        // Bare command lines: each is dispatched, and fails (if at all)
        // on a missing option, not as an unknown command.
        if let Err(e) = cli(command) {
            assert!(
                !e.to_string().starts_with("unknown command"),
                "{command}: {e}"
            );
        }
    }
}

/// Every option `help` lists for `resolve` and `eval` is accepted, all on
/// one command line, and so is the set the frozen benchmark harness hands
/// `resolve` for `batch_dirty` (`benchmark/src/{batch,worlds}.rs`).
#[test]
fn every_option_help_lists_for_resolve_and_eval_is_accepted() {
    let dir = std::env::temp_dir().join("minoan_cli_help_options");
    let line = format!(
        "generate --profile center --entities 80 --seed 5 --out {}",
        dir.display()
    );
    cli(&line).expect("generate");
    let kb = |name: &str| dir.join(format!("{name}.nt")).display().to_string();
    let (a, b) = (kb("dbp"), kb("ygo"));
    let shared = "--strategy progressive:coverage --budget 2000 --blocking token \
                  --backend mapreduce --workers 2 --pruning cnp --weighting js \
                  --threshold 0.5 --no-purge --dirty";
    let every = [
        format!("resolve --input {a} --input {b} --show 3 {shared}"),
        format!("eval --profile center --entities 80 --seed 5 --clustering center {shared}"),
    ];
    let harness = format!(
        "resolve --input {a} --show 5 --dirty --backend streaming --workers 2 --weighting js \
         --pruning cep --budget 1000"
    );
    for line in every.iter().chain([&harness]) {
        let command = line.split_whitespace().next().expect("a command");
        let given: BTreeSet<String> = line
            .split_whitespace()
            .filter_map(|t| Some(t.strip_prefix("--")?.to_string()))
            .collect();
        let listed = help_options(command);
        assert!(given.is_subset(&listed), "`{line}` vs help {listed:?}");
        if every.contains(line) {
            assert_eq!(given, listed, "help lists exactly what {command} accepts");
        }
        let out = cli(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert!(out.contains("comparisons"), "`{line}`: {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
