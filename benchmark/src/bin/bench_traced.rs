//! The traced benchmark binary: per-layer metrics from spans recorded
//! around each call into a layer, with allocations counted.

#[global_allocator]
static COUNTING: benchmark::alloc::Counting = benchmark::alloc::Counting;

fn main() {
    benchmark::main_with(true)
}
