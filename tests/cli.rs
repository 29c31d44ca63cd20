//! The `dtfe` command-line front end, driven as a subprocess: a malformed
//! render grid, halo linking length or generated box is a clean `error:`
//! and exit status 1, never a panic.

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

fn halos(dir: &Path, link: &str) -> Output {
    let snap = dir.join("snap.bin");
    dtfe(&[
        "halos",
        "--snapshot",
        snap.to_str().unwrap(),
        "--link",
        link,
    ])
}

#[test]
fn bad_halo_links_fail_with_an_error_not_a_panic() {
    let dir = snapshot_dir("bad_link");
    for link in ["0", "-1", "nan"] {
        let out = halos(&dir, link);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--link {link}: {stderr}");
        assert!(stderr.contains("error:"), "--link {link}: {stderr}");
        assert!(!stderr.contains("panicked"), "--link {link}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_tiny_halo_link_finds_no_halos() {
    let dir = snapshot_dir("tiny_link");
    let out = halos(&dir, "1e-9");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains(": 0 groups"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_generate_boxes_fail_with_an_error_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("dtfe_cli_{}_bad_box", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("snap.bin");
    for (kind, side) in [
        ("galaxy-box", "nan"),
        ("galaxy-box", "-1"),
        ("zeldovich", "0"),
    ] {
        let out = dtfe(&[
            "generate",
            "--kind",
            kind,
            "--n",
            "16",
            "--box",
            side,
            "--out",
            snap.to_str().unwrap(),
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{kind} --box {side}: {stderr}");
        assert!(stderr.contains("error:"), "{kind} --box {side}: {stderr}");
        assert!(!snap.exists(), "{kind} --box {side} wrote a snapshot");
    }
    std::fs::remove_dir_all(&dir).ok();
}
