//! Adversarial tests for the Verilog front-end — the untrusted boundary of
//! the `sns-serve` HTTP daemon, where arbitrary network bytes flow into
//! `parse_and_elaborate`. The whole pipeline (lexer → parser → elaborator
//! → GraphIR → path sampler) must be *total*: every input returns `Ok` or
//! a structured `NetlistError`; it must never panic, overflow the stack,
//! or amplify a small request into unbounded allocation.
//!
//! Four seeded generators (`sns_rt::rng::StdRng`, so failures reproduce
//! exactly), ≥ 10k cases overall:
//!
//! 1. **token soup** — random sequences of legal Verilog tokens,
//! 2. **mutation** — catalog designs with a few random byte edits (the
//!    near-valid inputs most likely to reach deep elaborator paths),
//! 3. **truncation** — catalog sources cut at every strided char
//!    boundary (mid-token, mid-statement, mid-module),
//! 4. **deep nesting / amplification** — `((((…))))`, `{2{{2{…}}}}`,
//!    operator and statement chains, huge replications and widths.

use sns_netlist::elaborate::ElabLimits;
use sns_netlist::parser::MAX_DEPTH;
use sns_netlist::{elaborate_with_limits, parse_source, Lexer, NetlistError, TokenKind};
use sns_rt::rng::StdRng;

use sns_graphir::GraphIr;
use sns_sampler::{PathSampler, SampleConfig};

/// Tight budgets so even "successfully amplifying" mutants stay cheap;
/// the serving default is larger, but the totality property is identical.
fn fuzz_limits() -> ElabLimits {
    ElabLimits { max_cells: 50_000, max_net_bits: 4_096, max_replication: 4_096 }
}

/// Drives the full untrusted pipeline the way a `/predict` handler does.
/// The return value only matters to the optimizer; the assertion is that
/// this function returns at all instead of aborting the process.
fn full_pipeline(source: &str, top: &str) -> Result<usize, NetlistError> {
    let design = parse_source(source)?;
    let netlist = elaborate_with_limits(&design, top, fuzz_limits())?;
    let graph = GraphIr::from_netlist(&netlist);
    let paths = PathSampler::new(SampleConfig {
        max_paths: 256,
        ..SampleConfig::paper_default()
    })
    .sample(&graph);
    Ok(paths.len())
}

// ---- generator 1: token soup ----

const TOKENS: &[&str] = &[
    "module", "endmodule", "input", "output", "wire", "reg", "assign", "always", "posedge",
    "negedge", "begin", "end", "if", "else", "case", "endcase", "default", "parameter",
    "localparam", "integer", "genvar", "generate", "endgenerate", "(", ")", "[", "]", "{", "}",
    ";", ",", ":", "?", "=", "<=", "==", "!=", "<", ">", ">=", "<<", ">>", ">>>", "+", "-", "*",
    "/", "%", "&", "|", "^", "~", "!", "&&", "||", "~^", "@", "#", ".", "a", "b", "clk", "rst",
    "m", "top", "x", "y", "0", "1", "8", "255", "8'hff", "4'b1010", "32'd7", "16'hdead", "'x",
    "1'bz", "9999999999999999999999", "\u{00e9}", "$display",
];

#[test]
fn token_soup_never_panics() {
    let mut rng = StdRng::seed_from_u64(0x5050_0001);
    for case in 0..5000usize {
        let len = rng.gen_range(1..60usize);
        let mut src = String::new();
        // Half the cases get a plausible module wrapper so the soup lands
        // inside item/statement parsing instead of dying at `module`.
        let wrapped = case % 2 == 0;
        if wrapped {
            src.push_str("module m (input a, output y);\n");
        }
        for _ in 0..len {
            src.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
            src.push(if rng.next_u32() & 7 == 0 { '\n' } else { ' ' });
        }
        if wrapped {
            src.push_str("\nendmodule\n");
        }
        // Must return, not panic; errors are expected and unremarkable.
        let _ = full_pipeline(&src, "m");
    }
}

// ---- generator 2: mutation of valid designs ----

/// The smallest catalog sources: cheap to elaborate thousands of times in
/// a debug build, yet they exercise every front-end feature (parameters,
/// hierarchy, memories, case statements, replication).
fn small_catalog() -> Vec<(String, String)> {
    let mut designs: Vec<_> = sns_designs::catalog()
        .into_iter()
        .map(|d| (d.verilog, d.top))
        .collect();
    designs.sort_by_key(|(v, _)| v.len());
    designs.truncate(8);
    designs
}

#[test]
fn mutated_catalog_designs_never_panic() {
    let designs = small_catalog();
    let mut rng = StdRng::seed_from_u64(0x00AD_BEEF);
    for case in 0..3000usize {
        let (source, top) = &designs[case % designs.len()];
        let mut bytes = source.clone().into_bytes();
        // 1–3 single-byte edits drawn from printable ASCII: most mutants
        // still lex, many still parse, some still elaborate — exactly the
        // near-valid inputs that reach deep pipeline states.
        let edits = 1 + (rng.next_u32() % 3) as usize;
        for _ in 0..edits {
            let pos = rng.gen_range(0..bytes.len());
            bytes[pos] = 0x20 + (rng.next_u32() % 0x5f) as u8;
        }
        match String::from_utf8(bytes) {
            Ok(src) => {
                let _ = full_pipeline(&src, top);
            }
            Err(_) => continue, // catalog sources are ASCII; unreachable
        }
    }
}

// ---- generator 3: truncation sweeps ----

#[test]
fn truncated_catalog_sources_never_panic() {
    let designs = small_catalog();
    let mut done = 0usize;
    for (source, top) in &designs {
        // Stride chosen so the 8 designs together contribute ~2500 cuts.
        let stride = (source.len() / 320).max(1);
        let mut cut = 0usize;
        while cut < source.len() {
            if source.is_char_boundary(cut) {
                let _ = full_pipeline(&source[..cut], top);
                done += 1;
            }
            cut += stride;
        }
    }
    assert!(done >= 2000, "expected ≥ 2000 truncation cases, got {done}");
}

/// Byte-level edges of the lexer: multi-byte characters glued to every
/// kind of token on either side, and the literals and escaped names that
/// end exactly at the end of input. Each must lex to `Ok` or a structured
/// error; the lexer slices borrowed identifiers out of the source, so a
/// slice that split a character would panic here.
#[test]
fn non_ascii_and_end_of_input_edges_never_panic() {
    let words = [
        "a", "\\esc", "\\", "8'hff", "8'", "8'h", "'", "42", "<=", ">>>", "(", "/*", "//", "$",
        "",
    ];
    let wide = ["\u{e9}", "\u{2603}", "\u{1F600}", "\u{feff}", "\u{0}", "\u{7f}"];
    let mut cases = 0usize;
    for w in wide {
        for a in words {
            for b in words {
                for src in [format!("{a}{w}{b}"), format!("{w}{a}{b}"), format!("{a}{b}{w}")] {
                    let _ = Lexer::new(&src).lex_all();
                    let wrapped = format!("module m (input a, output y); assign y = {src}");
                    let _ = full_pipeline(&wrapped, "m");
                    cases += 1;
                }
            }
        }
    }
    assert!(cases >= 4000, "{cases}");

    // At the very end of input: an escaped identifier, and a sized
    // literal cut after its `'`.
    let tail = "module m (input a, output y); assign y = ";
    let escaped = format!("{tail}\\esc");
    let toks = Lexer::new(&escaped).lex_all().expect("escaped name lexes");
    assert_eq!(toks[toks.len() - 2].kind, TokenKind::Ident("esc"));
    assert!(matches!(parse_source(&escaped), Err(NetlistError::Parse { .. })));
    let err = parse_source(&format!("{tail}8'")).unwrap_err();
    assert_eq!(err.to_string(), "lex error at 1:42: truncated based literal");
}

// ---- generator 4: deep nesting and resource amplification ----

fn expect_too_deep(src: &str) {
    match parse_source(src) {
        Err(NetlistError::TooDeep { limit, .. }) => assert_eq!(limit, MAX_DEPTH),
        other => panic!("expected TooDeep, got {other:?}"),
    }
}

#[test]
fn deep_nesting_is_rejected_not_fatal() {
    // Parenthesis nesting, the canonical stack-overflow reproducer from
    // the issue — including one ~100k-level monster.
    for n in [(MAX_DEPTH + 1) as usize, 1_000, 10_000, 100_000] {
        let src = format!(
            "module m (input a, output y); assign y = {}a{}; endmodule",
            "(".repeat(n),
            ")".repeat(n)
        );
        expect_too_deep(&src);
    }
    // Every other recursive construct, swept across depths for ~600 cases.
    for n in (130..430usize).step_by(2) {
        let shapes = [
            format!("assign y = {}a;", "~".repeat(n)),
            format!("assign y = {}a{};", "{2{".repeat(n), "}}".repeat(n)),
            format!("assign y = {}a;", "a ? a : ".repeat(n)),
            format!("assign y = a{};", " ^ a".repeat(n)),
            format!("always @(*) {}y = a;", "if (a) ".repeat(n)),
            format!("always @(*) {}y = a;{}", "begin ".repeat(n), " end".repeat(n)),
        ];
        let shape = &shapes[n % shapes.len()];
        expect_too_deep(&format!("module m (input a, output y); reg y; {shape} endmodule"));
    }
    // Nesting *below* the bound still works after all that.
    let ok = format!(
        "module m (input a, output y); assign y = {}a{}; endmodule",
        "(".repeat(100),
        ")".repeat(100)
    );
    assert!(full_pipeline(&ok, "m").is_ok());
}

#[test]
fn amplification_is_rejected_before_allocation() {
    let cases = [
        // One replication token asking for gigabytes of cells.
        "module m (input x, output [7:0] y); assign y = {100000000{x}}; endmodule",
        // Nested replication: each factor is individually modest.
        "module m (input x, output [7:0] y); assign y = {60000{{60000{x}}}}; endmodule",
        // Net width far past any budget.
        "module m (input x, output y); wire [100000000:0] w; assign y = x; endmodule",
        // Width smuggled in via a parameter expression.
        "module m (input x, output y); parameter P = 1 << 30; wire [P:0] w; assign y = x; endmodule",
        // Memory depth amplification.
        "module m (input clk, input x, output y); reg [7:0] mem [0:100000000]; assign y = x; endmodule",
    ];
    for (i, src) in cases.iter().enumerate() {
        let design = parse_source(src).unwrap_or_else(|e| panic!("case {i} must parse: {e}"));
        let err = elaborate_with_limits(&design, "m", fuzz_limits())
            .expect_err("amplifying source must be rejected");
        assert!(err.is_budget() || matches!(err, NetlistError::Elab { .. }), "case {i}: {err}");
    }
    // And a sweep of randomized replication factors around the budget.
    let mut rng = StdRng::seed_from_u64(0xA3F1);
    for _ in 0..60 {
        let n = rng.gen_range(4_097..2_000_000u32);
        let src = format!("module m (input x, output [7:0] y); assign y = {{{n}{{x}}}}; endmodule");
        let design = parse_source(&src).expect("replication source parses");
        let err = elaborate_with_limits(&design, "m", fuzz_limits())
            .expect_err("over-budget replication must be rejected");
        assert!(err.is_budget(), "n={n}: {err}");
    }
}

/// After absorbing adversarial input, the front-end still produces the
/// same netlist for the same valid source — no hidden global state.
#[test]
fn valid_designs_survive_the_corpus_bit_identically() {
    let designs = small_catalog();
    let (source, top) = &designs[0];
    let before = full_pipeline(source, top).expect("catalog design elaborates");
    let mut rng = StdRng::seed_from_u64(0xDEAD_BEEF);
    for _ in 0..200 {
        let len = rng.gen_range(1..40usize);
        let mut soup = String::new();
        for _ in 0..len {
            soup.push_str(TOKENS[rng.gen_range(0..TOKENS.len())]);
            soup.push(' ');
        }
        let _ = full_pipeline(&soup, "m");
    }
    let after = full_pipeline(source, top).expect("catalog design still elaborates");
    assert_eq!(before, after);
}
