// Lint fixture: an operator kernel walking each work-item's indices — under
// the strided pattern one item's rows lie a launch's work-items apart, the
// per-index walk lock-step work-groups replaced. Never compiled;
// `xlint --self-test` asserts the scanner flags it.
impl Kernel for ScaleKernel {
    fn run_group(&self, group: &mut WorkGroupCtx) {
        for item in group.items() {
            for idx in item.assigned() {
                self.output.set_i32(idx, self.input.get_i32(idx) * 2);
            }
        }
    }
}
