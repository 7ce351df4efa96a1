//! Fixture bench: benches are callers.

fn main() {
    spice_lib::bench_only();
}
