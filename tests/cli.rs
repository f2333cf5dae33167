//! End-to-end tests of the `spca-cli` binary: generate → info → fit →
//! transform, through real files.

use std::path::PathBuf;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_spca-cli"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spca-cli-test-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_pipeline_roundtrip() {
    let dir = workdir("pipeline");
    let data = dir.join("data.sm");
    let model = dir.join("model.txt");
    let latent = dir.join("latent.dm");

    // generate
    let out = cli()
        .args(["generate", "tweets", "800", "300", "--seed", "5", "-o"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("800 x 300"));

    // info
    let out = cli().args(["info", "-i"]).arg(&data).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("rows     : 800"));
    assert!(text.contains("columns  : 300"));

    // fit
    let out = cli()
        .args(["fit", "-d", "4", "--iters", "3", "--engine", "spark", "-i"])
        .arg(&data)
        .arg("-o")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    // transform
    let out = cli()
        .args(["transform", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .arg("-o")
        .arg(&latent)
        .output()
        .unwrap();
    assert!(out.status.success());
    let x = linalg::io::load_dense(&latent).unwrap();
    assert_eq!((x.rows(), x.cols()), (800, 4));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fit_is_reproducible_across_invocations() {
    let dir = workdir("repro");
    let data = dir.join("data.sm");
    let m1 = dir.join("m1.txt");
    let m2 = dir.join("m2.txt");

    assert!(cli()
        .args(["generate", "lowrank", "400", "120", "--seed", "9", "-o"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    for m in [&m1, &m2] {
        assert!(cli()
            .args(["fit", "-d", "3", "--iters", "2", "--seed", "17", "-i"])
            .arg(&data)
            .arg("-o")
            .arg(m)
            .status()
            .unwrap()
            .success());
    }
    assert_eq!(
        std::fs::read_to_string(&m1).unwrap(),
        std::fs::read_to_string(&m2).unwrap(),
        "same seed must produce byte-identical models"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_replays_a_deterministic_multi_tenant_mix() {
    let dir = workdir("serve");
    let data = dir.join("data.sm");
    let model = dir.join("model.txt");

    assert!(cli()
        .args(["generate", "lowrank", "300", "80", "--seed", "4", "-o"])
        .arg(&data)
        .status()
        .unwrap()
        .success());
    assert!(cli()
        .args(["fit", "-d", "3", "--iters", "2", "-i"])
        .arg(&data)
        .arg("-o")
        .arg(&model)
        .status()
        .unwrap()
        .success());

    let run = || {
        let out = cli()
            .args([
                "serve", "--tenants", "2", "--batches", "30", "--batch-rows", "4",
                "--fit-jobs", "1", "--policy", "fifo", "-i",
            ])
            .arg(&data)
            .arg("-m")
            .arg(&model)
            .output()
            .unwrap();
        assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout).to_string()
    };
    let text = run();
    assert!(text.contains("served 240 requests in 60 batches"), "got:\n{text}");
    assert!(text.contains("trace hash"));
    assert_eq!(text, run(), "a seeded serve replay must be byte-identical");

    // An unknown policy is a usage error, not a panic.
    let out = cli()
        .args(["serve", "--policy", "lifo", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown policy"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors_on_bad_usage() {
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"), "should print usage on error");

    let out = cli().args(["fit", "-i", "/nonexistent/file.sm", "-o", "/tmp/x"]).output().unwrap();
    assert!(!out.status.success());

    // A flag the command does not read fails instead of running on a
    // default: a misspelt `--iters`, and the removed `--precision`.
    let dir = workdir("bad-usage");
    let (data, model) = (dir.join("data.sm"), dir.join("model.txt"));
    let out = cli()
        .args(["generate", "tweets", "200", "60", "--seed", "3", "-o"])
        .arg(&data)
        .output()
        .unwrap();
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    for (flag, value) in [("--iter", "3"), ("--precision", "f32")] {
        let out = cli()
            .args(["fit", "-d", "3", flag, value, "-i"])
            .arg(&data)
            .arg("-o")
            .arg(&model)
            .output()
            .unwrap();
        assert!(!out.status.success(), "fit accepted {flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag {flag} for `fit`")), "{err}");
    }

    // Removed surfaces are usage errors: the `likelihood` command and the
    // `backfill` scheduler policy.
    let out = cli()
        .args(["fit", "-d", "2", "--iters", "1", "-i"])
        .arg(&data)
        .arg("-o")
        .arg(&model)
        .output()
        .unwrap();
    assert!(out.status.success(), "fit failed: {}", String::from_utf8_lossy(&out.stderr));
    let out = cli().args(["likelihood", "-i"]).arg(&data).arg("-m").arg(&model).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    let out = cli()
        .args(["serve", "--policy", "backfill", "-i"])
        .arg(&data)
        .arg("-m")
        .arg(&model)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown policy \"backfill\""), "{err}");

    // A model file is input from outside the program: a negative or
    // non-finite entry is an error message, never a panic.
    let latent = dir.join("x.dm");
    for (ss, mean, c) in [("-1", "0", "1"), ("NaN", "0", "1"), ("0.5", "inf", "1"), ("0.5", "0", "NaN")] {
        let text = format!("spca-model v1\ndims 2 1\nss {ss}\nmean 0 {mean}\nc 1\nc {c}\n");
        std::fs::write(&model, &text).unwrap();
        let out = cli()
            .args(["transform", "-i"])
            .arg(&data)
            .arg("-m")
            .arg(&model)
            .arg("-o")
            .arg(&latent)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{text}: {err}");
        assert!(err.contains("is not finite") || err.contains("is negative"), "{text}: {err}");
        assert!(!err.contains("panicked"), "{text}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
