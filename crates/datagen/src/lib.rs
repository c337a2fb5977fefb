//! # datagen — synthetic aligned heterogeneous social networks
//!
//! The paper evaluates on a proprietary Foursquare + Twitter crawl
//! (Table II) that cannot be redistributed. This crate is the
//! substitution: a **seeded generator** of two aligned
//! attributed heterogeneous networks whose signal structure exercises every
//! meta path and meta diagram of the paper:
//!
//! * a latent social graph over the *shared* users is subsampled into both
//!   networks, so anchored pairs have correlated (but not identical)
//!   neighborhoods → signal for P1–P4 and the Ψf² diagrams;
//! * each shared user owns a spatio-temporal *habit profile* — a set of
//!   (location, timestamp) pairs reused by **both** accounts — so anchored
//!   pairs co-check-in at the same place *and* time → signal for Ψa² (the
//!   meta-diagram-only feature), while `profile_noise` produces the paper's
//!   "dislocated" coincidences that fool P5/P6 but not Ψ2;
//! * non-anchored users draw independent profiles → negative pairs look
//!   similar only by chance.
//!
//! Everything is a pure function of [`GeneratorConfig::seed`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod activity;
pub mod config;
pub mod follow;
pub mod generator;
pub mod presets;

pub use config::GeneratorConfig;
pub use generator::{generate, GeneratedWorld};
