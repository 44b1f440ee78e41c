//! Bit-identity sweep for the memoized synthesis flow.
//!
//! Elaboration with the per-call expansion memo must be *bit-identical*
//! to the unmemoized reference elaboration — same gate graph node for
//! node, same labels bit for bit — at every `sizing_iterations` setting,
//! and unchanged by whatever design the same synthesizer ran before. Any
//! divergence means the memo changed semantics, which would silently
//! re-label every training set.

use std::collections::HashMap;

use sns_netlist::{parse_and_elaborate, CellKind};
use sns_vsynth::{GateLevel, SynthOptions, SynthReport, VirtualSynthesizer};

/// Mixed-operator datapath hitting every memoizable expander (add, sub,
/// mul, div, mod, shifts, compares, reductions) with repeated shapes so
/// the per-call memo actually gets hits.
const MIXED: &str = "module mixed (input clk, input [15:0] a, b, c, d, output reg [15:0] y,
                                   output [15:0] z);
                         reg [15:0] t0, t1, t2, t3;
                         always @(posedge clk) begin
                             t0 <= a * b;
                             t1 <= c * d;
                             t2 <= (a + c) / (b | 16'd1);
                             t3 <= (b - d) % (c | 16'd1);
                             y <= (t0 >> 2) + (t1 << 1) + t2 + t3;
                         end
                         assign z = ((a == b) ? c : d) + ((a > b) ? (&a ? b : c) : (^d ? d : a));
                     endmodule";

/// Big (four 24-bit dividers plus multipliers): tens of thousands of
/// gates, with repeated divider shapes the memo serves from one template.
const BIG: &str = "module big (input clk, input [23:0] a, b, c, d, output reg [23:0] y);
                       reg [23:0] t0, t1, t2, t3;
                       always @(posedge clk) begin
                           t0 <= a / b;
                           t1 <= c / d;
                           t2 <= (a + c) / (b | 24'd1);
                           t3 <= (b + d) % (a | 24'd1);
                           y <= (t0 * t1) + (t2 ^ t3) + (a * d);
                       end
                   endmodule";

/// A design with many distinct register banks, for the pinned-activity
/// regression: the per-register activity lookup must stay linear and the
/// map must apply to exactly the named banks.
fn many_registers(n: usize) -> String {
    let mut src = String::from("module regs (input clk, input [7:0] a, output [7:0] y);\n");
    for i in 0..n {
        src.push_str(&format!("    reg [7:0] r{i};\n"));
    }
    src.push_str("    always @(posedge clk) begin\n");
    src.push_str("        r0 <= a;\n");
    for i in 1..n {
        src.push_str(&format!("        r{i} <= r{} + 8'd{};\n", i - 1, i % 7));
    }
    src.push_str("    end\n");
    src.push_str(&format!("    assign y = r{};\n", n - 1));
    src.push_str("endmodule\n");
    src
}

fn assert_reports_identical(ctx: &str, r: &SynthReport, r_ref: &SynthReport) {
    for (name, x, y) in [
        ("area_um2", r.area_um2, r_ref.area_um2),
        ("timing_ps", r.timing_ps, r_ref.timing_ps),
        ("power_mw", r.power_mw, r_ref.power_mw),
        ("dynamic_mw", r.dynamic_mw, r_ref.dynamic_mw),
        ("leakage_mw", r.leakage_mw, r_ref.leakage_mw),
    ] {
        assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: label {name} diverged ({x} vs {y})");
    }
    assert_eq!(r.gate_count, r_ref.gate_count, "{ctx}: gate_count");
    assert_eq!(r.transistor_count, r_ref.transistor_count, "{ctx}: transistor_count");
    assert_eq!(r.cycles_broken, r_ref.cycles_broken, "{ctx}: cycles_broken");
}

fn assert_gatelevel_identical(ctx: &str, gl: &GateLevel, gl_ref: &GateLevel) {
    assert_eq!(
        gl.graph.kind_histogram(),
        gl_ref.graph.kind_histogram(),
        "{ctx}: gate histogram diverged"
    );
    assert_eq!(gl.graph, gl_ref.graph, "{ctx}: gate graph diverged");
    assert_eq!(gl.regions, gl_ref.regions, "{ctx}: region spans diverged");
    assert_eq!(gl.registers, gl_ref.registers, "{ctx}: register banks diverged");
    assert_eq!(gl.outputs, gl_ref.outputs, "{ctx}: output nodes diverged");
    assert_eq!(gl.cycles_broken, gl_ref.cycles_broken, "{ctx}: cycles_broken diverged");
}

/// Runs the full sweep on one source: for each sizing setting, pin the
/// reference elaboration once, then check the memoized flow against it —
/// on a fresh synthesizer, and again after that synthesizer has run
/// `prior` (a `(source, top)` pair), so no state may cross calls.
fn sweep(name: &str, src: &str, top: &str, sizing_settings: &[u32], prior: (&str, &str)) {
    let nl = parse_and_elaborate(src, top).unwrap();
    let prior_nl = parse_and_elaborate(prior.0, prior.1).unwrap();
    for &sizing in sizing_settings {
        let vs = VirtualSynthesizer::new(SynthOptions {
            sizing_iterations: sizing,
            ..SynthOptions::default()
        });
        let gl_ref = vs.elaborate_gates_reference(&nl);
        let r_ref = vs.analyze(&gl_ref);
        let ctx = format!("{name} sizing={sizing}");
        let gl = vs.elaborate_gates(&nl);
        assert_gatelevel_identical(&ctx, &gl, &gl_ref);
        let r = vs.analyze(&gl);
        assert_reports_identical(&ctx, &r, &r_ref);

        vs.synthesize(&prior_nl);
        let ctx = format!("{ctx} after {}", prior.1);
        let gl_after = vs.elaborate_gates(&nl);
        assert_gatelevel_identical(&ctx, &gl_after, &gl);
        assert_reports_identical(&ctx, &vs.analyze(&gl_after), &r);
    }
}

#[test]
fn mixed_operators_sweep_is_bit_identical() {
    sweep("mixed", MIXED, "mixed", &[0, 2, 8], (BIG, "big"));
}

#[test]
fn big_design_sweep_is_bit_identical() {
    // One sizing setting keeps the debug-build runs affordable; the point
    // of this design is its size and its repeated divider shapes.
    sweep("big", BIG, "big", &[2], (MIXED, "mixed"));
}

#[test]
fn many_register_sweep_is_bit_identical() {
    let src = many_registers(48);
    sweep("regs", &src, "regs", &[0, 4], (MIXED, "mixed"));
}

/// Pinned-activity regression: with many register banks, a user activity
/// map must scale the dynamic power of exactly the pinned banks — and the
/// memoized flow must agree with the reference bit for bit when a map is
/// set.
#[test]
fn register_activity_map_is_bit_identical_and_effective() {
    let src = many_registers(32);
    let nl = parse_and_elaborate(&src, "regs").unwrap();
    let dffs: Vec<String> = nl
        .cells()
        .filter(|c| c.kind == CellKind::Dff)
        .map(|c| c.name.clone())
        .collect();
    assert!(dffs.len() >= 32, "expected one Dff cell per bank, got {}", dffs.len());

    let mk_map = |act: f32| -> HashMap<String, f32> {
        dffs.iter().map(|n| (n.clone(), act)).collect()
    };
    let run = |map: HashMap<String, f32>| -> (SynthReport, SynthReport) {
        let opts = SynthOptions { register_activity: Some(map), ..SynthOptions::default() };
        let vs = VirtualSynthesizer::new(opts);
        let fast = vs.synthesize(&nl);
        let reference = vs.synthesize_reference(&nl);
        (fast, reference)
    };

    let (hot, hot_ref) = run(mk_map(1.0));
    let (cold, cold_ref) = run(mk_map(0.001));
    assert_reports_identical("hot map", &hot, &hot_ref);
    assert_reports_identical("cold map", &cold, &cold_ref);
    assert!(
        hot.dynamic_mw > cold.dynamic_mw,
        "pinning all banks hot must raise dynamic power: {} vs {}",
        hot.dynamic_mw,
        cold.dynamic_mw
    );
    assert_eq!(hot.area_um2.to_bits(), cold.area_um2.to_bits(), "activity is a power-only knob");
}
