//! The untraced benchmark binary: end-to-end metrics, system allocator.

fn main() {
    benchmark::main_with(false)
}
