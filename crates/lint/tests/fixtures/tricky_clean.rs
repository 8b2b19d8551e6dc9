// Tricky-but-clean fixture: every live rule's trigger below appears
// only in a position the lexer must strip (comments, strings, raw
// strings, attributes, char literals) — an unordered key flowing into
// `push` (OCT-LINT-006), a float `+=` in a merge path (OCT-LINT-007)
// and an uncovered `run_batch` call from a `pub fn` (OCT-LINT-009).
// Linted under an engine path; must produce zero diagnostics.

use std::collections::HashMap; // the import alone is exempt; uses fire

// for k in m.keys() { out.push(*k); } in a line comment
/* run_batch(0) in a block comment, /* nested: *acc += 0.5; */ still fine */

#[doc = "for k in m.keys() { out.push(*k); } inside an attribute string"]
#[cfg(feature = "run_batch")]
pub fn merge_strings<'a>(x: &'a str, m: &HashMap<u8, u8>, acc: &mut f64) -> String {
    #[doc = stringify!(run_batch(0))]
    let s = "*acc += 0.5; inside a string literal";
    let r = r#"for k in m.keys() { out.push(*k); } in a raw string, "quoted" too"#;
    let c = '"'; // a char literal that looks like a string opener
    let l = '\''; // escaped quote char
    let _ = (m, acc);
    format!("{s}{r}{c}{l}{x}")
}

fn ordered() -> std::collections::BTreeMap<u64, u64> {
    std::collections::BTreeMap::new()
}
