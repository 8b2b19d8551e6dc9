// False-positive-guard fixture: every violation below carries a
// justified suppression, so the file must lint clean with
// `suppressed == 2` (the VEF false-positive guard applied to the tool).

fn spread(m: &std::collections::HashMap<u64, u32>, out: &mut Vec<u32>) {
    out.extend(m.values().copied()); // octolint: allow(OCT-LINT-006) -- fixture: pretend this sink is order-insensitive
}

fn merge_bins(acc: &mut f64, bin: f64) {
    *acc += bin; // octolint: allow(OCT-LINT-007) -- fixture: pretend the bins merge in one fixed order
}
