//! The `.pp` protocol files shipped in `protocols/` must parse and run.

use population_protocols::lang::interp::Executor;
use population_protocols::lang::parse::parse_program;
use population_protocols::rules::Guard;
use std::fs;

#[test]
fn all_shipped_protocol_files_parse() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/protocols");
    let mut found = 0;
    for entry in fs::read_dir(dir).expect("protocols/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("pp") {
            continue;
        }
        found += 1;
        let source = fs::read_to_string(&path).expect("readable");
        let program = parse_program(&source).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!program.name.is_empty());
        assert!(!program.threads.is_empty());
    }
    assert!(found >= 2, "expected at least two shipped protocol files");
}

#[test]
fn shipped_leader_election_file_elects_a_leader() {
    let source = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/protocols/leader_election.pp"
    ))
    .expect("file exists");
    let program = parse_program(&source).expect("parses");
    let l = program.vars.get("L").expect("L");
    let mut exec = Executor::new(&program, &[(vec![], 400)], 99);
    let it = exec
        .run_until(300, |e| e.count_where(&Guard::var(l)) == 1)
        .expect("elects a unique leader");
    assert!(it < 100);
}

#[test]
fn shipped_rumor_file_completes() {
    let source = fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/protocols/rumor_with_skeptics.pp"
    ))
    .expect("file exists");
    let program = parse_program(&source).expect("parses");
    let r = program.vars.get("R").expect("R");
    let s = program.vars.get("S").expect("S");
    let done = program.vars.get("Done").expect("Done");
    let mut exec = Executor::new(&program, &[(vec![r], 5), (vec![s], 20), (vec![], 375)], 7);
    let it = exec
        .run_until(100, |e| e.count_where(&Guard::var(done)) == e.n())
        .expect("rumor reaches everyone and Done is raised");
    assert!(it < 60);
}
