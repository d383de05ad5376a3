//! The pure parts of the served-path benchmark: order statistics,
//! span arithmetic, seeded input generation and output-quality
//! metrics. The binary (`src/main.rs`) drives the served fleet and the
//! in-process replay with them.

pub mod gen;
pub mod quality;
pub mod registry;
pub mod stats;
pub mod trace;
