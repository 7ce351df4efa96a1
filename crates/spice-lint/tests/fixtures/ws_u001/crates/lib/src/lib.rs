//! Fixture crate `lib`: one pub fn per U001 case.

mod inner;

pub use inner::reexported;

/// Only tests call this: the integration test and the unit test below.
pub fn orphan() {}

/// Only a bench calls this.
pub fn bench_only() {}

/// Non-test code of this crate calls this.
pub fn used() {}

fn caller() {
    used();
}

// spice-lint: allow(U001) kept on purpose: the fixture's allowed case
pub fn kept() {}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_orphan() {
        super::orphan();
    }
}
