// Known-bad fixture: OCT-LINT-000 analyzer-integrity. Every allow here
// is defective in a distinct way and must be reported, so the
// suppression mechanism cannot rot into a silent opt-out.

struct A {
    m: std::collections::HashMap<u64, u32>, // octolint: allow(OCT-LINT-001) -- retired rule: must force migration //~ OCT-LINT-000
}

fn unused() -> u32 {
    42 // octolint: allow(OCT-LINT-007) -- nothing ever fired here //~ OCT-LINT-000
}

fn unknown_rule() -> u32 {
    7 // octolint: allow(OCT-LINT-999) -- no such rule //~ OCT-LINT-000
}

fn unjustified(m: &std::collections::HashMap<u64, u32>, out: &mut Vec<u32>) {
    out.extend(m.values().copied()); // octolint: allow(OCT-LINT-006) //~ OCT-LINT-000
}
