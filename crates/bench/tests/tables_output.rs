//! The paper-facing output, pinned byte for byte:
//!
//! ```text
//! cargo test --release -p fo4depth-bench --test tables_output -- --ignored
//! ```
//!
//! `bench_tables_output.txt` at the repository root is the stdout of
//! `tables --all`. Every table, figure and §4.2 number the study prints
//! is in it, so a change that moves one fails here and must say why. There
//! is no regeneration switch: to accept a new number, regenerate the file
//! by hand (`cargo run -q --release -p fo4depth-bench --bin tables --
//! --all > bench_tables_output.txt`) and commit it with the reason. The
//! run takes about 18 s in a release build, so the test is `#[ignore]`d in
//! the plain `cargo test` run and CI runs it in its release step.

use std::path::Path;
use std::process::Command;

#[test]
#[ignore = "about 18 s in a release build; CI runs it with --ignored"]
fn tables_all_matches_the_committed_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_tables"))
        .arg("--all")
        .output()
        .expect("run tables --all");
    assert!(out.status.success(), "tables --all exited {}", out.status);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench_tables_output.txt");
    let want = std::fs::read_to_string(&path).expect("read bench_tables_output.txt");
    let got = String::from_utf8(out.stdout).expect("tables prints UTF-8");
    let first_diff = got.lines().zip(want.lines()).position(|(g, w)| g != w);
    if let Some(i) = first_diff {
        let (g, w) = (got.lines().nth(i), want.lines().nth(i));
        panic!("line {} differs:\n  got:  {g:?}\n  want: {w:?}", i + 1);
    }
    assert!(
        got == want,
        "tables --all differs from bench_tables_output.txt in length"
    );
}
