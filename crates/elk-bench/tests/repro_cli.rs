//! The `repro` binary's usage errors: no experiment, an unknown one, or
//! an unknown flag exit 2 before anything runs, and name the valid ids.

use std::process::Command;

use elk_bench::experiments::REGISTRY;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro");
    (
        output.status.code(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn unknown_or_missing_ids_exit_2_listing_the_valid_ids() {
    for args in [&["fig99"][..], &["fig05", "nope"], &[]] {
        let (code, stderr) = repro(args);
        assert_eq!(code, Some(2), "repro {args:?}: {stderr}");
        for (id, _) in REGISTRY {
            assert!(
                stderr.contains(id),
                "repro {args:?} must list {id}: {stderr}"
            );
        }
    }
    let (code, stderr) = repro(&["fig99"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown experiment 'fig99'"), "{stderr}");
}

#[test]
fn unknown_flags_exit_2() {
    let (code, stderr) = repro(&["--thread", "2", "fig05"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("--thread"), "{stderr}");
}
