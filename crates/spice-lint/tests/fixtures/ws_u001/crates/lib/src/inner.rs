//! Fixture module: its fn's only non-test mention is a re-export.

pub fn reexported() {}
