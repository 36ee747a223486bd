// Lint fixture: an operator kernel that never declares the buffer ranges it
// touches, so the race detector observes it but cannot check it. Never
// compiled; `xlint --self-test` asserts the scanner flags it.
impl Kernel for ScaleKernel {
    fn name(&self) -> &str {
        "scale"
    }
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for run in group.runs(self.n) {
            for idx in run {
                self.output.set_i32(idx, self.input.get_i32(idx) * 2);
            }
        }
    }
}
