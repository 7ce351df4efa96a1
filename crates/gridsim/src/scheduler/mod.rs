//! Batch scheduling: per-site queues, capacity profiles, and advance
//! reservations (manual and semi-automated).

pub mod fcfs;
pub mod profile;
pub mod reservation;

pub use fcfs::SiteScheduler;
pub use profile::CapacityProfile;
pub use reservation::{BookingOutcome, ManualBookingModel};
