//! The regression corpus: minimized failing designs, replayed forever.
//!
//! Every disagreement the conformance harness finds is shrunk (see
//! [`crate::shrink`](mod@crate::shrink)) and checked in under `tests/corpus/` as a small
//! `.v` file with a `.json` sidecar pinning the expected behavior:
//!
//! ```json
//! {
//!   "top": "top",
//!   "stim_seed": 3405691582,
//!   "cycles": 6,
//!   "trace_hash": "0x8c5f4e21aa770b13",
//!   "synth": { "area_um2": ..., "timing_ps": ..., "power_mw": ..., "gate_count": ... }
//! }
//! ```
//!
//! [`replay`] re-runs each case through the sim-vs-gates differential
//! oracle, re-hashes its output trace, and re-synthesizes it, demanding
//! bit-identical agreement with the sidecar (the workspace JSON printer is
//! shortest-round-trip, so `f64` comparisons are exact). Intentional
//! behavior changes are blessed with `SNS_BLESS=1`, which rewrites the
//! sidecars in place; the diff is then reviewed and committed.
//!
//! Fresh failures found at test time land under `tests/corpus/pending/`
//! (Verilog only) for a human to promote.

use std::fs;
use std::path::{Path, PathBuf};

use sns_netlist::parse_and_elaborate;
use sns_rt::json::{parse as parse_json, Json};
use sns_vsynth::{SynthOptions, SynthReport, VirtualSynthesizer};

use crate::generator::DesignSpec;
use crate::oracle::{diff_sim_netlist, trace_hash};

/// Stimulus cycles a corpus case replays by default.
pub const DEFAULT_CYCLES: usize = 6;
/// Stimulus seed new corpus cases are blessed with.
pub const DEFAULT_STIM_SEED: u64 = 0xCAFE_F00D;

/// The synthesis-label signature pinned by a sidecar.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthSignature {
    pub area_um2: f64,
    pub timing_ps: f64,
    pub power_mw: f64,
    pub gate_count: u64,
}

impl SynthSignature {
    fn of(report: &SynthReport) -> SynthSignature {
        SynthSignature {
            area_um2: report.area_um2,
            timing_ps: report.timing_ps,
            power_mw: report.power_mw,
            gate_count: report.gate_count,
        }
    }
}

/// One replayable corpus case (a `.v` file plus its parsed sidecar).
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// File stem, e.g. `div_by_zero`.
    pub name: String,
    pub verilog: String,
    pub top: String,
    pub stim_seed: u64,
    pub cycles: usize,
    pub trace_hash: u64,
    pub synth: SynthSignature,
}

/// The checked-in corpus directory (`tests/corpus/` at the repo root).
pub fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Loads every `.v` + `.json` case in `dir`, sorted by name.
///
/// # Errors
///
/// Returns an error when a `.v` file has no sidecar (run with `SNS_BLESS=1`
/// to create it) or a sidecar fails to parse.
pub fn load_corpus(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    let mut cases = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read corpus dir {dir:?}: {e}"))?;
    let mut verilog_files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().and_then(|s| s.to_str()) == Some("v"))
        .collect();
    verilog_files.sort();
    for vpath in verilog_files {
        cases.push(load_case(&vpath)?);
    }
    Ok(cases)
}

/// Loads one case from its `.v` path.
pub fn load_case(vpath: &Path) -> Result<CorpusCase, String> {
    let name = vpath
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| format!("bad corpus file name: {vpath:?}"))?
        .to_string();
    let verilog =
        fs::read_to_string(vpath).map_err(|e| format!("cannot read {vpath:?}: {e}"))?;
    let spath = vpath.with_extension("json");
    let sidecar = fs::read_to_string(&spath).map_err(|e| {
        format!("corpus case `{name}` has no sidecar (bless it with SNS_BLESS=1): {e}")
    })?;
    let json = parse_json(&sidecar).map_err(|e| format!("bad sidecar {spath:?}: {e}"))?;
    let field = |k: &str| json.get(k).map_err(|e| format!("sidecar {spath:?}: {e}"));
    let synth = field("synth")?;
    let sfield = |k: &str| -> Result<f64, String> {
        synth.get(k).and_then(|v| v.as_f64()).map_err(|e| format!("sidecar {spath:?}: {e}"))
    };
    let hash_text = field("trace_hash")?.as_str().map_err(|e| format!("{spath:?}: {e}"))?;
    let trace_hash = hash_text
        .strip_prefix("0x")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("sidecar {spath:?}: trace_hash is not 0x-hex: {hash_text}"))?;
    Ok(CorpusCase {
        name,
        verilog,
        top: field("top")?.as_str().map_err(|e| format!("{spath:?}: {e}"))?.to_string(),
        stim_seed: field("stim_seed")?.as_u64().map_err(|e| format!("{spath:?}: {e}"))?,
        cycles: field("cycles")?.as_usize().map_err(|e| format!("{spath:?}: {e}"))?,
        trace_hash,
        synth: SynthSignature {
            area_um2: sfield("area_um2")?,
            timing_ps: sfield("timing_ps")?,
            power_mw: sfield("power_mw")?,
            gate_count: synth
                .get("gate_count")
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("sidecar {spath:?}: {e}"))?,
        },
    })
}

/// Replays one case: the sim-vs-gates differential oracle must pass, the
/// output trace hash must match the sidecar exactly, and re-synthesis
/// must reproduce the pinned labels bit-for-bit.
pub fn replay(case: &CorpusCase) -> Result<(), String> {
    let err = |msg: String| format!("corpus case `{}`: {msg}", case.name);
    let nl = parse_and_elaborate(&case.verilog, &case.top)
        .map_err(|e| err(format!("no longer elaborates: {e}")))?;
    diff_sim_netlist(&nl, case.stim_seed, case.cycles).map_err(&err)?;
    let h = trace_hash(&nl, case.stim_seed, case.cycles).map_err(&err)?;
    if h != case.trace_hash {
        return Err(err(format!(
            "output trace drifted: expected {:#018x}, got {h:#018x} \
             (intentional change? re-bless with SNS_BLESS=1)",
            case.trace_hash
        )));
    }
    let report = VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl);
    let now = SynthSignature::of(&report);
    for (name, want, got) in [
        ("area_um2", case.synth.area_um2, now.area_um2),
        ("timing_ps", case.synth.timing_ps, now.timing_ps),
        ("power_mw", case.synth.power_mw, now.power_mw),
    ] {
        if want.to_bits() != got.to_bits() {
            return Err(err(format!(
                "synthesis label {name} drifted: expected {want}, got {got} \
                 (intentional change? re-bless with SNS_BLESS=1)"
            )));
        }
    }
    if now.gate_count != case.synth.gate_count {
        return Err(err(format!(
            "gate_count drifted: expected {}, got {} \
             (intentional change? re-bless with SNS_BLESS=1)",
            case.synth.gate_count, now.gate_count
        )));
    }
    Ok(())
}

/// Computes and writes the sidecar for `vpath`, pinning current behavior.
/// Returns the blessed case.
pub fn bless(vpath: &Path, top: &str, stim_seed: u64, cycles: usize) -> Result<CorpusCase, String> {
    let verilog =
        fs::read_to_string(vpath).map_err(|e| format!("cannot read {vpath:?}: {e}"))?;
    let nl = parse_and_elaborate(&verilog, top)
        .map_err(|e| format!("{vpath:?} does not elaborate: {e}"))?;
    // A blessed case must at minimum pass the differential oracle — a
    // sidecar that pins divergent behavior would be self-contradictory.
    diff_sim_netlist(&nl, stim_seed, cycles)
        .map_err(|e| format!("{vpath:?} fails sim-vs-gates, refusing to bless: {e}"))?;
    let hash = trace_hash(&nl, stim_seed, cycles)?;
    let report = VirtualSynthesizer::new(SynthOptions::default()).synthesize(&nl);
    let synth = SynthSignature::of(&report);
    let sidecar = Json::obj(vec![
        ("top", Json::Str(top.to_string())),
        ("stim_seed", Json::Num(stim_seed as f64)),
        ("cycles", Json::Num(cycles as f64)),
        ("trace_hash", Json::Str(format!("{hash:#018x}"))),
        (
            "synth",
            Json::obj(vec![
                ("area_um2", Json::Num(synth.area_um2)),
                ("timing_ps", Json::Num(synth.timing_ps)),
                ("power_mw", Json::Num(synth.power_mw)),
                ("gate_count", Json::Num(synth.gate_count as f64)),
            ]),
        ),
    ]);
    let spath = vpath.with_extension("json");
    fs::write(&spath, sidecar.pretty() + "\n").map_err(|e| format!("cannot write {spath:?}: {e}"))?;
    load_case(vpath)
}

/// `true` when the `SNS_BLESS=1` environment knob asks sidecars to be
/// regenerated instead of checked.
pub fn blessing() -> bool {
    std::env::var("SNS_BLESS").map(|v| v == "1").unwrap_or(false)
}

/// Persists a freshly-found failing design under `tests/corpus/pending/`
/// so a human can inspect it, name it, and bless it into the corpus.
/// Returns the written path.
pub fn write_pending(spec: &DesignSpec, label: &str) -> Result<PathBuf, String> {
    let dir = corpus_dir().join("pending");
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let path = dir.join(format!("{label}.v"));
    let header = format!(
        "// Minimized failing design (generator seed {}).\n\
         // Promote: move next to tests/corpus/*.v and run the corpus test with SNS_BLESS=1.\n",
        spec.seed
    );
    fs::write(&path, header + &spec.verilog()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sns-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn bless_then_replay_round_trips() {
        let dir = scratch_dir("roundtrip");
        let vpath = dir.join("counter.v");
        fs::write(
            &vpath,
            "module top (input clk, input [3:0] i0, output [3:0] o0);\n\
                 reg [3:0] s0;\n\
                 always @(posedge clk) s0 <= s0 + i0;\n\
                 assign o0 = s0;\n\
             endmodule\n",
        )
        .unwrap();
        let case = bless(&vpath, "top", DEFAULT_STIM_SEED, DEFAULT_CYCLES).unwrap();
        assert_eq!(case.name, "counter");
        assert_eq!(case.cycles, DEFAULT_CYCLES);
        replay(&case).unwrap();
        // And through the directory loader too.
        let loaded = load_corpus(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        replay(&loaded[0]).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_detects_trace_drift() {
        let dir = scratch_dir("drift");
        let vpath = dir.join("xor.v");
        fs::write(
            &vpath,
            "module top (input [3:0] i0, output [3:0] o0);\n\
                 assign o0 = i0 ^ 4'd5;\n\
             endmodule\n",
        )
        .unwrap();
        let mut case = bless(&vpath, "top", 7, 4).unwrap();
        case.trace_hash ^= 1; // simulate a behavior change
        let e = replay(&case).unwrap_err();
        assert!(e.contains("trace drifted"), "unexpected error: {e}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_sidecar_is_a_clear_error() {
        let dir = scratch_dir("nosidecar");
        fs::write(dir.join("orphan.v"), "module top (output o0); assign o0 = 1'd0; endmodule\n")
            .unwrap();
        let e = load_corpus(&dir).unwrap_err();
        assert!(e.contains("SNS_BLESS"), "unexpected error: {e}");
        let _ = fs::remove_dir_all(&dir);
    }
}
