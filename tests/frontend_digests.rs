//! Golden digests of the Verilog front end.
//!
//! Every stage of the front end — the token stream, the parsed
//! `Design`, the elaborated `Netlist` and the `GraphIr` — is pinned by a
//! 128-bit FNV digest per design, over every catalog design, every
//! checked-in corpus design and 200 generated designs. The error text of
//! a fixed list of malformed sources is pinned verbatim. A rewrite of the
//! lexer, the parser, the elaborator or the GraphIR builder that claims
//! to keep every bit must leave `tests/golden/frontend_digests.json`
//! unchanged.
//!
//! After an *intentional* front-end change, regenerate the snapshot with:
//!
//! ```text
//! SNS_BLESS=1 cargo test --test frontend_digests
//! ```
//!
//! and commit the diff.

use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

use sns::conformance::generator::{generate, GenConfig};
use sns::designs::catalog;
use sns::graphir::GraphIr;
use sns::netlist::{elaborate, parse_source, Lexer, Netlist, PortDir, TokenKind};
use sns::rt::hash::Fnv128;
use sns::rt::json::{parse as parse_json, Json};

/// Generated designs in the snapshot (`GenConfig::default()`, seeds
/// `0..GENERATED`): the size of a serve_mix request.
const GENERATED: u64 = 200;

/// Malformed sources whose error text is pinned: one per lexer failure
/// mode, plus the truncations at the end of input that a lexer rewrite
/// gets wrong first.
const MALFORMED: &[&str] = &[
    "module m (input a, output y); assign y = a ` a; endmodule",
    "module m (input a, output y); /* never closed",
    "module m (input a, output y); assign y = 99999999999999999999999; endmodule",
    "module m (input a, output y); assign y = 65'h1; endmodule",
    "module m (input a, output y); assign y = 4'hFF; endmodule",
    "module m (input a, output y); assign y = 8'",
    "module m (input a, output y); assign y = 8'q0; endmodule",
    "module m (input a, output y); assign y = 8'h; endmodule",
    "module m (input a, output y); assign y = a; endmodule \\",
    "module m (input a, output y); assign y = \\esc",
    "module m (input a, output y); assign y = a \u{e9}; endmodule",
    "module m (input a, output y); assign y = a;\u{2603}endmodule",
    "\u{feff}module m (input a, output y); endmodule",
    "module m (input a, output y); assign y = a <== a; endmodule",
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend_digests.json")
}

fn hex(h: &Fnv128) -> String {
    let [a, b] = h.finish128();
    format!("{a:016x}{b:016x}")
}

fn str_field(h: &mut Fnv128, s: &str) {
    h.write(s.as_bytes());
    h.write_u8(0xff);
}

fn token_digest(src: &str) -> String {
    let mut h = Fnv128::new();
    let tokens = Lexer::new(src).lex_all().unwrap_or_else(|e| panic!("lex: {e}"));
    h.write_usize(tokens.len());
    for t in &tokens {
        match &t.kind {
            TokenKind::Ident(s) => {
                h.write_u8(0);
                str_field(&mut h, s);
            }
            TokenKind::Number { value, width } => {
                h.write_u8(1);
                h.write_u64(*value);
                width.hash(&mut h);
            }
            TokenKind::Punct(p) => {
                h.write_u8(2);
                str_field(&mut h, p);
            }
            TokenKind::Eof => h.write_u8(3),
        }
        h.write_u32(t.loc.line);
        h.write_u32(t.loc.col);
    }
    hex(&h)
}

/// A field-by-field walk of the netlist, in id order.
fn netlist_digest(nl: &Netlist) -> String {
    let mut h = Fnv128::new();
    str_field(&mut h, nl.name());
    h.write_usize(nl.net_count());
    for (id, net) in nl.nets_enumerated() {
        h.write_u32(id.0);
        h.write_u32(net.width);
        match &net.name {
            Some(n) => {
                h.write_u8(1);
                str_field(&mut h, n);
            }
            None => h.write_u8(0),
        }
    }
    h.write_usize(nl.cell_count());
    for c in nl.cells() {
        str_field(&mut h, &c.kind.to_string());
        h.write_usize(c.inputs.len());
        for i in &c.inputs {
            h.write_u32(i.0);
        }
        h.write_u32(c.output.0);
        str_field(&mut h, &c.name);
        h.write_u64(c.attr);
    }
    h.write_usize(nl.port_count());
    for p in nl.ports() {
        str_field(&mut h, &p.name);
        h.write_u8(u8::from(p.dir == PortDir::Input));
        h.write_u32(p.net.0);
    }
    hex(&h)
}

fn graph_digest(g: &GraphIr) -> String {
    let mut h = Fnv128::new();
    h.write_usize(g.vertex_count());
    for (id, v) in g.vertices_enumerated() {
        v.vertex.hash(&mut h);
        str_field(&mut h, &v.name);
        let succs = g.successors(id);
        h.write_usize(succs.len());
        for s in succs {
            h.write_u32(s.0);
        }
        let preds = g.predecessors(id);
        h.write_usize(preds.len());
        for p in preds {
            h.write_u32(p.0);
        }
    }
    hex(&h)
}

fn digests(src: &str, top: &str) -> Json {
    let design = parse_source(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let mut h = Fnv128::new();
    design.hash(&mut h);
    let design_digest = hex(&h);
    let nl = elaborate(&design, top).unwrap_or_else(|e| panic!("elaborate: {e}"));
    let g = GraphIr::from_netlist(&nl);
    Json::obj(vec![
        ("tokens", Json::Str(token_digest(src))),
        ("design", Json::Str(design_digest)),
        ("netlist", Json::Str(netlist_digest(&nl))),
        ("graphir", Json::Str(graph_digest(&g))),
    ])
}

/// `(name, verilog, top)` for every design the snapshot covers.
fn suite() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for d in catalog() {
        out.push((format!("catalog/{}", d.name), d.verilog, d.top));
    }
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut cases: Vec<PathBuf> = std::fs::read_dir(&corpus)
        .expect("tests/corpus exists")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "v"))
        .collect();
    cases.sort();
    for v in cases {
        let meta = std::fs::read_to_string(v.with_extension("json")).expect("corpus sidecar");
        let meta = parse_json(&meta).expect("corpus sidecar is JSON");
        let top = meta.get("top").and_then(Json::as_str).expect("corpus top").to_string();
        let name = v.file_stem().and_then(|s| s.to_str()).expect("utf-8 name");
        out.push((format!("corpus/{name}"), std::fs::read_to_string(&v).expect("corpus .v"), top));
    }
    let cfg = GenConfig::default();
    for seed in 0..GENERATED {
        let spec = generate(seed, &cfg);
        out.push((format!("generated/{seed}"), spec.verilog(), spec.top().to_string()));
    }
    out
}

fn error_text(src: &str) -> String {
    match parse_source(src) {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    }
}

fn current_snapshot() -> Json {
    let designs = suite()
        .into_iter()
        .map(|(name, src, top)| {
            let d = digests(&src, &top);
            (name, d)
        })
        .collect();
    let errors = MALFORMED
        .iter()
        .map(|src| {
            Json::obj(vec![
                ("source", Json::Str(src.to_string())),
                ("error", Json::Str(error_text(src))),
            ])
        })
        .collect();
    Json::obj(vec![("designs", Json::Obj(designs)), ("errors", Json::Arr(errors))])
}

#[test]
fn front_end_digests_match_the_golden_snapshot() {
    let current = current_snapshot();
    let path = golden_path();

    if std::env::var("SNS_BLESS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, current.pretty()).unwrap();
        eprintln!("blessed front-end digests into {}", path.display());
        return;
    }

    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\n(first run? bless it: SNS_BLESS=1 cargo test --test frontend_digests)",
            path.display()
        )
    });
    let golden = parse_json(&text).expect("golden snapshot is valid JSON");

    // Compare per design and per stage, so a drift names the first stage
    // that moved.
    let (Json::Obj(want), Json::Obj(got)) =
        (golden.get("designs").unwrap(), current.get("designs").unwrap())
    else {
        panic!("`designs` must be an object");
    };
    assert_eq!(
        want.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        got.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        "design suite changed — rebless the snapshot (SNS_BLESS=1) and review the diff"
    );
    for ((name, w), (_, g)) in want.iter().zip(got) {
        for stage in ["tokens", "design", "netlist", "graphir"] {
            assert_eq!(
                g.get(stage).unwrap(),
                w.get(stage).unwrap(),
                "{name}: {stage} digest drifted"
            );
        }
    }
    assert_eq!(
        current.get("errors").unwrap(),
        golden.get("errors").unwrap(),
        "front-end error text drifted"
    );
}
