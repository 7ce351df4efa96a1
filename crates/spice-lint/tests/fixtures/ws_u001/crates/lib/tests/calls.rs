//! Fixture integration test: test code, so its calls do not count.

#[test]
fn calls() {
    spice_lib::orphan();
    spice_lib::reexported();
}
