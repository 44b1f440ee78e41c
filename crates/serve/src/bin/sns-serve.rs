//! The `sns-serve` daemon: load (or quick-train) an SNS model and serve
//! predictions over HTTP until SIGTERM/ctrl-C, then drain and exit.
//!
//! ```text
//! sns-serve --model model.bin [--addr 127.0.0.1:7878] [--replicas N] [--zoo DIR]
//! sns-serve --zoo zoo/         [--addr 127.0.0.1:7878] [--replicas N]   # latest checkpoint
//! sns-serve --train 8          [--addr 127.0.0.1:7878] [--replicas N]   # demo model
//! ```
//!
//! `--replicas N` (or `SNS_REPLICAS=N`) enables **sns-shard mode**: N
//! model replicas, each with a private path cache, behind a
//! consistent-hash router keyed on design content.
//!
//! `--zoo DIR` (or `SNS_ZOO_DIR`) points at a versioned model zoo (as
//! written by `sns-train`); without `--model`/`--train` the latest
//! checkpoint boots the server. A running server hot-swaps to the zoo's
//! latest checkpoint on **SIGHUP** or `POST /admin/reload` without
//! dropping in-flight requests.
//!
//! Environment knobs: SNS_REPLICAS, SNS_WORKERS, SNS_QUEUE_CAP,
//! SNS_MAX_CONNS, SNS_MAX_BODY, SNS_DEADLINE_MS, SNS_CACHE_CAP,
//! SNS_THREADS, SNS_BATCH, SNS_SESSION_CAP, SNS_ELAB_CACHE_CAP,
//! SNS_ZOO_DIR.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use sns_serve::{ServeConfig, Server};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static RELOAD: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod sig {
    //! SIGINT/SIGTERM → shutdown flag, SIGHUP → reload flag; the main
    //! loop polls both. Installed via the C `signal` symbol that libc
    //! (already linked by `std`) exports — no new dependency. The
    //! handler bodies are single atomic stores, which are
    //! async-signal-safe.
    use std::ffi::c_int;
    use std::sync::atomic::Ordering;

    const SIGHUP: c_int = 1;
    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    }

    extern "C" fn on_signal(_signum: c_int) {
        super::SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_reload(_signum: c_int) {
        super::RELOAD.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
            signal(SIGHUP, on_reload);
        }
    }
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  sns-serve --model <model.bin> [--addr <ip:port>] [--replicas <n>] [--zoo <dir>]
  sns-serve --zoo <dir>          [--addr <ip:port>] [--replicas <n>]
  sns-serve --train <n-designs>  [--addr <ip:port>] [--replicas <n>]

SIGHUP or POST /admin/reload hot-swaps to the zoo's latest checkpoint.

env: SNS_REPLICAS SNS_WORKERS SNS_QUEUE_CAP SNS_MAX_CONNS SNS_MAX_BODY
     SNS_DEADLINE_MS SNS_CACHE_CAP SNS_THREADS SNS_BATCH SNS_SESSION_CAP
     SNS_ELAB_CACHE_CAP SNS_ZOO_DIR"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = ServeConfig::from_env();
    config.addr = arg(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7878".to_string());
    if let Some(n) = arg(&args, "--replicas") {
        let Ok(n) = n.parse::<usize>() else { return usage() };
        config.replicas = n.max(1);
    }
    if let Some(dir) = arg(&args, "--zoo") {
        config.zoo_dir = Some(dir.into());
    }

    let (model, model_id) = if let Some(path) = arg(&args, "--model") {
        eprintln!("loading model from {path}...");
        match sns_core::load_model(&path) {
            Ok(m) => (m, "boot".to_string()),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if let Some(n) = arg(&args, "--train") {
        let Ok(n) = n.parse::<usize>() else { return usage() };
        let designs: Vec<_> = sns_designs::catalog().into_iter().take(n.max(2)).collect();
        eprintln!("training a demo model on {} designs (fast schedule)...", designs.len());
        let (model, report) = sns_core::train_sns(&designs, &sns_core::SnsTrainConfig::fast());
        eprintln!("trained on {} paths", report.path_dataset_size);
        (model, "boot".to_string())
    } else if let Some(dir) = config.zoo_dir.clone() {
        eprintln!("loading latest checkpoint from zoo {}...", dir.display());
        match sns_core::load_from_zoo(&dir, None) {
            Ok((m, entry)) => {
                eprintln!("loaded {} (weights {})", entry.id, entry.weight_hash);
                (m, entry.id)
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        return usage();
    };

    let server = match Server::start_named(std::sync::Arc::new(model), &model_id, config.clone())
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "sns-serve listening on http://{} (replicas={}, workers={}, threads={}, batch={}, queue_cap={}, max_conns={}, cache_cap={}, deadline={})",
        server.addr(),
        config.replicas,
        config.workers,
        config.threads,
        config.batch,
        config.queue_cap,
        config.max_conns,
        config.cache_cap.map_or("unbounded".to_string(), |c| c.to_string()),
        config.deadline.map_or("none".to_string(), |d| format!("{}ms", d.as_millis())),
    );

    #[cfg(unix)]
    sig::install();

    while !SHUTDOWN.load(Ordering::SeqCst) {
        if RELOAD.swap(false, Ordering::SeqCst) {
            match server.reload_from_zoo(None) {
                Ok(o) if o.swapped => {
                    eprintln!("reloaded: {} -> {} (weights {})", o.previous_id, o.model_id, o.weight_hash)
                }
                Ok(o) => eprintln!("reload: {} already serving, caches kept warm", o.model_id),
                Err(e) => eprintln!("reload failed (model unchanged): {e}"),
            }
        }
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("shutdown requested — draining in-flight requests...");
    let metrics = server.metrics();
    server.join();
    eprintln!(
        "done: {} requests served ({} predictions)",
        metrics.requests_total.load(Ordering::Relaxed),
        metrics.predict_ok.load(Ordering::Relaxed),
    );
    ExitCode::SUCCESS
}
