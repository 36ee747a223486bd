// Lint fixture: a backend raising a device failure as a typed panic
// payload for the plan layer to catch and downcast — the unwind machinery
// PR 17 deleted. Never compiled; `xlint --self-test` asserts the scanner
// flags it.
fn raise<T>(error: KernelError) -> T {
    std::panic::panic_any(error)
}
