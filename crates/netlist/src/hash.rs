//! Structural content hashing for module definitions.
//!
//! The incremental elaboration cache (see [`crate::incremental`]) keys
//! module bodies by *content*, not by source text: a module's hash is the
//! derived `Hash` of its parsed AST fed through [`Fnv128`], so sources
//! that differ only in whitespace, comments, or token spelling the lexer
//! normalizes away hash alike, and anything that changes elaboration is
//! a field of some AST node and changes the hash.
//!
//! Two hashes are computed per module:
//!
//! * the **own** hash covers exactly one module definition;
//! * the **transitive** hash additionally folds in the transitive hashes
//!   of every module the body instantiates, so editing a leaf module
//!   changes the transitive hash of every ancestor. Key equality on the
//!   transitive hash therefore gives "this whole subtree is unchanged"
//!   for free, which is what lets cached elaborations be reused safely.
//!
//! Hashes are 128 bits: wide enough that accidental collisions across a
//! realistic design corpus are not a practical concern (the conformance
//! suite checks a catalog + 1000 generated designs). They are
//! process-local cache keys, never persisted.
//!
//! Recursion over expressions is safe: the parser caps AST nesting at
//! [`crate::parser::MAX_DEPTH`], so hashing depth is bounded too.

use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};

use sns_rt::hash::Fnv128;

use crate::ast::{Design, Item, Module};

/// The content hashes of one module definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModHash {
    /// Hash of this module definition alone.
    pub own: [u64; 2],
    /// Hash of this module plus every transitively instantiated module.
    pub trans: [u64; 2],
}

/// Hashes one module definition (its own content only).
pub fn module_hash(m: &Module) -> [u64; 2] {
    let mut h = Fnv128::new();
    m.hash(&mut h);
    h.finish128()
}

/// Computes own + transitive hashes for every module in a design.
///
/// A module that instantiates an undefined module, or participates in an
/// instantiation cycle, still gets a well-defined transitive hash (a
/// marker is mixed in); elaboration reports the real error later.
pub fn design_hashes(design: &Design) -> HashMap<String, ModHash> {
    let own: HashMap<&str, [u64; 2]> =
        design.modules.iter().map(|m| (m.name.as_str(), module_hash(m))).collect();
    // Direct instantiation edges, per module, sorted + deduped so the
    // transitive hash depends on the set of children, not on body order
    // (body order is already covered by the own hash).
    let children: HashMap<&str, Vec<&str>> =
        design.modules.iter().map(|m| (m.name.as_str(), instantiated_children(m))).collect();

    // Iterative DFS with a visiting set: cycles and missing definitions
    // mix a marker instead of recursing forever.
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Visiting,
        Done,
    }
    let mut trans: HashMap<&str, [u64; 2]> = HashMap::new();
    let mut state: HashMap<&str, State> = HashMap::new();
    for root in design.modules.iter().map(|m| m.name.as_str()) {
        if state.get(root) == Some(&State::Done) {
            continue;
        }
        // (module, next child index) explicit stack.
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        state.insert(root, State::Visiting);
        while let Some(&mut (name, ref mut idx)) = stack.last_mut() {
            let kids = children.get(name).map(Vec::as_slice).unwrap_or(&[]);
            if *idx < kids.len() {
                let kid = kids[*idx];
                *idx += 1;
                match state.get(kid) {
                    Some(State::Done) | Some(State::Visiting) => {}
                    None if own.contains_key(kid) => {
                        state.insert(kid, State::Visiting);
                        stack.push((kid, 0));
                    }
                    None => {}
                }
            } else {
                let mut h = Fnv128::new();
                own.get(name).hash(&mut h);
                for kid in kids {
                    kid.hash(&mut h);
                    match (state.get(kid), trans.get(kid)) {
                        (_, Some(t)) => t.hash(&mut h),
                        (Some(State::Visiting), None) => h.write_u8(0xC1), // cycle marker
                        _ => h.write_u8(0xFE), // missing definition marker
                    }
                }
                trans.insert(name, h.finish128());
                state.insert(name, State::Done);
                stack.pop();
            }
        }
    }

    design
        .modules
        .iter()
        .map(|m| {
            let name = m.name.as_str();
            let t = trans.get(name).copied().unwrap_or([0, 0]);
            (m.name.clone(), ModHash { own: own.get(name).copied().unwrap_or([0, 0]), trans: t })
        })
        .collect()
}

/// `top` plus every module it transitively instantiates: the modules an
/// elaboration of `top` builds, read off the AST's instance edges.
///
/// Exact for every design that elaborates: the grammar has no generate
/// blocks or conditional instances, so each instance item is elaborated
/// exactly once per enclosing instance. Names resolve as the elaborator
/// resolves them (the first definition wins); undefined names are
/// skipped. Empty if `top` is not defined.
pub fn instantiated_modules(design: &Design, top: &str) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut work: Vec<&str> = vec![top];
    while let Some(name) = work.pop() {
        let Some(m) = design.module(name) else { continue };
        if seen.insert(m.name.clone()) {
            work.extend(instantiated_children(m));
        }
    }
    seen
}

/// The module names `m` instantiates directly, sorted and deduplicated.
fn instantiated_children(m: &Module) -> Vec<&str> {
    let mut c: Vec<&str> = m
        .items
        .iter()
        .filter_map(|i| match i {
            Item::Instance(inst) => Some(inst.module.as_str()),
            _ => None,
        })
        .collect();
    c.sort_unstable();
    c.dedup();
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;

    fn hashes_of(src: &str) -> HashMap<String, ModHash> {
        design_hashes(&parse_source(src).unwrap())
    }

    #[test]
    fn whitespace_and_comments_do_not_change_the_hash() {
        let a = hashes_of(
            "module m (input [3:0] a, output [3:0] y);\n    assign y = a + 4'd1;\nendmodule",
        );
        let b = hashes_of(
            "// a comment\nmodule   m(input [3:0] a,\n\n output [3:0] y); /* block\ncomment */ assign y=a+4'd1; endmodule",
        );
        assert_eq!(a.get("m"), b.get("m"));
    }

    #[test]
    fn body_changes_change_the_hash() {
        let a = hashes_of("module m (input [3:0] a, output [3:0] y); assign y = a + 4'd1; endmodule");
        let b = hashes_of("module m (input [3:0] a, output [3:0] y); assign y = a + 4'd2; endmodule");
        assert_ne!(a.get("m").unwrap().own, b.get("m").unwrap().own);
    }

    #[test]
    fn leaf_edit_invalidates_every_ancestor_transitively() {
        let base = "module mid (input [3:0] a, output [3:0] y); leaf u (.a(a), .y(y)); endmodule
                    module top (input [3:0] a, output [3:0] y); mid m (.a(a), .y(y)); endmodule";
        let a = hashes_of(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = a; endmodule {base}"
        ));
        let b = hashes_of(&format!(
            "module leaf (input [3:0] a, output [3:0] y); assign y = ~a; endmodule {base}"
        ));
        // Own hashes of the untouched ancestors agree; transitive hashes
        // all differ because the leaf changed.
        assert_eq!(a.get("mid").unwrap().own, b.get("mid").unwrap().own);
        assert_eq!(a.get("top").unwrap().own, b.get("top").unwrap().own);
        assert_ne!(a.get("leaf").unwrap().trans, b.get("leaf").unwrap().trans);
        assert_ne!(a.get("mid").unwrap().trans, b.get("mid").unwrap().trans);
        assert_ne!(a.get("top").unwrap().trans, b.get("top").unwrap().trans);
    }

    #[test]
    fn instantiation_cycles_and_missing_children_terminate() {
        // `a` instantiates `b` instantiates `a`; `c` instantiates nothing
        // that exists. Hashing must terminate with distinct stable values.
        let h = hashes_of(
            "module a (input x, output y); b u (.x(x), .y(y)); endmodule
             module b (input x, output y); a u (.x(x), .y(y)); endmodule
             module c (input x, output y); ghost u (.x(x), .y(y)); endmodule",
        );
        assert_eq!(h.len(), 3);
        let vals: std::collections::HashSet<[u64; 2]> =
            h.values().map(|m| m.trans).collect();
        assert_eq!(vals.len(), 3, "distinct modules hash distinctly: {h:?}");
    }

    #[test]
    fn instantiated_modules_follow_instance_edges_from_top() {
        let design = parse_source(
            "module leaf (input x, output y); assign y = x; endmodule
             module unused (input x, output y); leaf u (.x(x), .y(y)); endmodule
             module mid (input x, output y); leaf u (.x(x), .y(y)); endmodule
             module top (input x, output y, output z);
                 mid m (.x(x), .y(y));
                 leaf u (.x(x), .y(z));
             endmodule",
        )
        .unwrap();
        let names = |top: &str| -> Vec<String> {
            instantiated_modules(&design, top).into_iter().collect()
        };
        assert_eq!(names("top"), ["leaf", "mid", "top"]);
        assert_eq!(names("leaf"), ["leaf"]);
        assert!(names("ghost").is_empty());
        // Cycles terminate; undefined children are skipped.
        let cyclic = parse_source(
            "module a (input x, output y); b u (.x(x), .y(y)); endmodule
             module b (input x, output y); a u (.x(x), .y(y)); ghost g (.x(x)); endmodule",
        )
        .unwrap();
        assert_eq!(instantiated_modules(&cyclic, "a").into_iter().collect::<Vec<_>>(), ["a", "b"]);
    }

    #[test]
    fn shared_submodules_hash_identically_across_designs() {
        let a = hashes_of(
            "module leaf (input x, output y); assign y = x; endmodule
             module top1 (input x, output y); leaf u (.x(x), .y(y)); endmodule",
        );
        let b = hashes_of(
            "module leaf (input x, output y); assign y = x; endmodule
             module top2 (input x, output y); leaf u (.x(x), .y(y)); leaf v (.x(y)); endmodule",
        );
        assert_eq!(a.get("leaf"), b.get("leaf"));
    }
}
