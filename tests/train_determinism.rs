//! Determinism of the self-training label factory across runtime knobs.
//!
//! The daemon's contract (see `sns-train`): same [`DaemonConfig`] + same
//! step count ⇒ **bit-identical model**, at any `SNS_THREADS` /
//! `SNS_BATCH`. This test runs the full loop —
//! bootstrap, generate, vsynth-label, active-learning filter, Markov
//! arm, fine-tune, refit, checkpoint — under different knob settings and
//! compares the zoo manifests: every checkpoint's FNV-128 weight hash
//! must match exactly, and a rerun of the first setting must reproduce
//! itself.
//!
//! The knobs are resolved once per process, so each setting runs in a
//! child process: the test re-executes its own binary with the knobs set
//! at spawn, and the child (recognized by `CHILD_TAG`) runs the daemon
//! and prints its manifest rows on stdout.

use std::path::{Path, PathBuf};
use std::process::Command;

use sns::conformance::GenConfig;
use sns::core::ZooManifest;
use sns::train::{DaemonConfig, TrainDaemon};

fn tiny_daemon_config(zoo: PathBuf) -> DaemonConfig {
    let mut cfg = DaemonConfig::fast();
    cfg.bootstrap_designs = 6;
    cfg.designs_per_step = 4;
    cfg.markov_per_step = 8;
    cfg.max_paths_per_design = 32;
    cfg.refit_every = 2;
    cfg.checkpoint_every = 2;
    cfg.gen = GenConfig { max_items: 8, ..GenConfig::default() };
    cfg.bootstrap.cf_train.epochs = 4;
    cfg.bootstrap.mlp_train.epochs = 60;
    cfg.zoo_dir = Some(zoo);
    cfg
}

/// Set on a child process to the zoo tag it should train under.
const CHILD_TAG: &str = "SNS_TRAIN_DET_CHILD";
/// Stdout prefix of a manifest row printed by a child.
const ROW: &str = "manifest-row";
const TEST_NAME: &str = "daemon_checkpoints_are_bit_identical_across_thread_and_batch_knobs";

/// Runs the daemon for 4 steps in a child process started with the given
/// knobs and returns the zoo manifest as (id, weight hash, train steps)
/// rows.
fn run_daemon(tag: &str, threads: &str, batch: &str) -> Vec<(String, String, u64)> {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([TEST_NAME, "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_TAG, tag)
        .env("SNS_THREADS", threads)
        .env("SNS_BATCH", batch)
        .output()
        .expect("spawn child test process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "child {tag} failed:\n{stdout}\n{stderr}");
    stdout
        .lines()
        // libtest's own status text can share a line with the first row.
        .filter_map(|l| l.split_once(ROW).map(|(_, row)| row))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            (f[0].to_string(), f[1].to_string(), f[2].parse().expect("train steps"))
        })
        .collect()
}

/// The child side: trains under the knobs this process was started with
/// and prints the manifest rows.
fn child_run(tag: &str) {
    let zoo = std::env::temp_dir().join(format!("sns_train_det_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&zoo);
    let mut daemon = TrainDaemon::new(tiny_daemon_config(zoo.clone())).expect("bootstrap");
    daemon.run(4).expect("train loop");
    for (id, hash, steps) in manifest_rows(&zoo) {
        println!("{ROW} {id} {hash} {steps}");
    }
    let _ = std::fs::remove_dir_all(&zoo);
}

fn manifest_rows(zoo: &Path) -> Vec<(String, String, u64)> {
    ZooManifest::load(zoo)
        .expect("zoo manifest")
        .entries
        .iter()
        .map(|e| (e.id.clone(), e.weight_hash.clone(), e.train_steps))
        .collect()
}

#[test]
fn daemon_checkpoints_are_bit_identical_across_thread_and_batch_knobs() {
    if let Ok(tag) = std::env::var(CHILD_TAG) {
        return child_run(&tag);
    }
    let baseline = run_daemon("t1", "1", "2");
    // checkpoint_every=2 over 4 steps: periodic at steps 2 and 4; the
    // final checkpoint coincides with the step-4 one (idempotent).
    assert_eq!(baseline.len(), 2, "{baseline:?}");
    assert!(baseline.iter().any(|(_, _, steps)| *steps == 4));

    let wide = run_daemon("t4", "4", "5");
    assert_eq!(
        baseline, wide,
        "weight hashes must not depend on SNS_THREADS/SNS_BATCH"
    );

    let replay = run_daemon("t1b", "1", "2");
    assert_eq!(baseline, replay, "same seed + same steps must replay bit-identically");
}
