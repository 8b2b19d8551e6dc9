// Known-bad fixture: OCT-LINT-005 shard-unsafe-write.
// Linted under crates/core/src/bad_005.rs (and asserted exempt under
// crates/core/src/simnet.rs, the simulation driver module).

fn fabricate(node: &mut Node) {
    // a protocol path mutating the shared directory would change what
    // the other colluders read mid-window, in event order
    node.adversary.write().enroll(node.id); //~ OCT-LINT-005
}

fn evict(adversary: &SharedAdversary, id: u64) {
    adversary.write().remove(id); //~ OCT-LINT-005
}

fn reads_are_fine(node: &Node) -> usize {
    node.adversary.read().live_count()
}

fn unrelated_io(w: &mut impl std::io::Write, buf: &[u8]) {
    // `.write()` without the adversary directory in the expression is
    // ordinary IO, not a contract violation
    let _ = w.write(buf);
}

fn merge_everywhere(adversary: &ShardedAdversary, id: u64) {
    // mutating the directory is the driver's move between windows, not
    // a protocol handler's
    adversary.update(|a| a.enroll(id)); //~ OCT-LINT-005
}

fn unrelated_update(counter: &mut MovingAverage) {
    // `.update()` without the adversary directory in the expression is
    // an ordinary method call, not a contract violation
    counter.update(1.0);
}
