//! One module per paper artifact (table/figure). Every module exposes a
//! `run(&Env)` that prints the regenerated rows/series; `repro` dispatches
//! to them by experiment id.

pub mod f1a;
pub mod f1b;
pub mod f5;
pub mod f7;
pub mod f8;
pub mod f9;
pub mod hier;
pub mod levels;
pub mod t3;
pub mod tables456;
pub mod toys;
