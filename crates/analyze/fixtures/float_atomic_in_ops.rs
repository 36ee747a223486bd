// Lint fixture: a grouped-aggregation kernel folding floats through a
// CAS-emulated atomic — the summation order is the thread interleaving.
// Never compiled; `xlint --self-test` asserts the scanner flags it.
fn accumulate(accumulators: &Buffer, gid: usize, value: f32) {
    atomic_add_f32(accumulators.cell(gid), value);
}
