//! The `dtfe` command-line front end, driven as a subprocess: a malformed
//! render grid is a clean `error:` and exit status 1, never a panic.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn dtfe(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dtfe"))
        .args(args)
        .output()
        .expect("spawn dtfe")
}

/// A fresh directory holding a 500-particle cluster snapshot.
fn snapshot_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtfe_cli_{}_{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snap.bin");
    let out = dtfe(&[
        "generate",
        "--kind",
        "cluster",
        "--n",
        "500",
        "--out",
        snap.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "generate failed: {out:?}");
    dir
}

fn render(dir: &Path, extra: &[&str]) -> Output {
    let snap = dir.join("snap.bin");
    let pgm = dir.join("sigma.pgm");
    let mut args = vec![
        "render",
        "--snapshot",
        snap.to_str().unwrap(),
        "--out",
        pgm.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    dtfe(&args)
}

#[test]
fn bad_render_grids_fail_with_an_error_not_a_panic() {
    let dir = snapshot_dir("bad_grid");
    for extra in [
        &["--grid", "0"][..],
        &["--center", "1,2", "--len", "0"],
        &["--center", "1,2", "--len", "-1"],
        &["--center", "1,2", "--len", "nan"],
    ] {
        let out = render(&dir, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{extra:?}: {stderr}");
        assert!(stderr.contains("error:"), "{extra:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{extra:?}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn valid_render_grid_succeeds() {
    let dir = snapshot_dir("good_grid");
    let out = render(&dir, &["--grid", "16"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(dir.join("sigma.pgm").exists());
    std::fs::remove_dir_all(&dir).ok();
}
