//! The `sns` command-line tool: train, predict, and synthesize from the
//! shell.
//!
//! ```text
//! sns train --out model.bin [--designs N] [--paper]
//! sns predict --model model.bin --verilog design.v --top mymod [--activity act.csv]
//! sns synth --verilog design.v --top mymod
//! sns catalog
//! ```

use std::collections::HashMap;
use std::process::ExitCode;

use sns::core::{load_model, save_model, train_sns, SnsTrainConfig};
use sns::designs::catalog;
use sns::netlist::parse_and_elaborate;
use sns::vsynth::{SynthOptions, VirtualSynthesizer};

fn usage() -> ExitCode {
    eprintln!(
        "usage:
  sns train --out <model.bin> [--designs <n>] [--paper]
  sns predict --model <model.bin> --verilog <file.v> --top <module> [--activity <act.csv>]
  sns synth --verilog <file.v> --top <module> [--effort <iterations>]
  sns catalog"
    );
    ExitCode::from(2)
}

fn arg(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1).cloned())
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("train") => cmd_train(&args),
        Some("predict") => cmd_predict(&args),
        Some("synth") => cmd_synth(&args),
        Some("catalog") => cmd_catalog(),
        _ => usage(),
    }
}

fn cmd_train(args: &[String]) -> ExitCode {
    let Some(out) = arg(args, "--out") else { return usage() };
    let n: usize = arg(args, "--designs").and_then(|v| v.parse().ok()).unwrap_or(41);
    let config = if flag(args, "--paper") { SnsTrainConfig::paper() } else { SnsTrainConfig::fast() };
    let designs: Vec<_> = catalog().into_iter().take(n.max(2)).collect();
    eprintln!("training on {} designs ({} schedule)...", designs.len(), if flag(args, "--paper") { "paper" } else { "fast" });
    let (model, report) = train_sns(&designs, &config);
    eprintln!(
        "trained: {} paths ({} direct / {} markov / {} seqgan), final val loss {:.4}",
        report.path_dataset_size,
        report.direct_paths,
        report.markov_paths,
        report.seqgan_paths,
        report.cf_history.last().map(|e| e.val_loss).unwrap_or(f32::NAN)
    );
    match save_model(&model, &out) {
        Ok(()) => {
            eprintln!("model written to {out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn read_activity(path: &str) -> Result<HashMap<String, f32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut map = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, value) = line
            .rsplit_once(',')
            .ok_or_else(|| format!("line {}: expected `register,coefficient`", i + 1))?;
        let v: f32 = value.trim().parse().map_err(|e| format!("line {}: {e}", i + 1))?;
        map.insert(name.trim().to_string(), v);
    }
    Ok(map)
}

fn cmd_predict(args: &[String]) -> ExitCode {
    let (Some(model_path), Some(verilog), Some(top)) =
        (arg(args, "--model"), arg(args, "--verilog"), arg(args, "--top"))
    else {
        return usage();
    };
    let model = match load_model(&model_path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error loading model: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&verilog) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {verilog}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let activity = match arg(args, "--activity") {
        None => None,
        Some(p) => match read_activity(&p) {
            Ok(m) => Some(m),
            Err(e) => {
                eprintln!("error reading activity file: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let nl = match parse_and_elaborate(&source, &top) {
        Ok(nl) => nl,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let pred = model.predict_netlist(&nl, activity.as_ref());
    println!("design:        {top}");
    println!("timing_ps:     {:.2}", pred.timing_ps);
    println!("area_um2:      {:.2}", pred.area_um2);
    println!("power_mw:      {:.5}", pred.power_mw);
    println!("paths_sampled: {}", pred.path_count);
    println!("runtime_ms:    {:.2}", pred.runtime.as_secs_f64() * 1e3);
    println!("critical_path: {}", pred.critical_path.join(" -> "));
    ExitCode::SUCCESS
}

fn cmd_synth(args: &[String]) -> ExitCode {
    let (Some(verilog), Some(top)) = (arg(args, "--verilog"), arg(args, "--top")) else {
        return usage();
    };
    let effort: u32 = arg(args, "--effort").and_then(|v| v.parse().ok()).unwrap_or(8);
    let source = match std::fs::read_to_string(&verilog) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error reading {verilog}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nl = match parse_and_elaborate(&source, &top) {
        Ok(nl) => nl,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = VirtualSynthesizer::new(SynthOptions { sizing_iterations: effort, ..Default::default() })
        .synthesize(&nl);
    println!("design:      {top}");
    println!("gates:       {}", report.gate_count);
    println!("transistors: {}", report.transistor_count);
    println!("timing_ps:   {:.2}", report.timing_ps);
    println!("area_um2:    {:.2}", report.area_um2);
    println!("power_mw:    {:.5} (dynamic {:.5} + leakage {:.5})", report.power_mw, report.dynamic_mw, report.leakage_mw);
    println!("runtime_ms:  {:.2}", report.runtime.as_secs_f64() * 1e3);
    ExitCode::SUCCESS
}

fn cmd_catalog() -> ExitCode {
    println!("{:<26} {:<18} {:<22}", "name", "family", "base");
    for d in catalog() {
        println!("{:<26} {:<18} {:<22}", d.name, d.family.to_string(), d.base);
    }
    ExitCode::SUCCESS
}
