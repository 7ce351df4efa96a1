//! Fixture binary: its pub fns are not library surface.

pub fn in_binary() {}

fn main() {}
