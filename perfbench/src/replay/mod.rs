//! One traced replay per workload. Each splits its scenario into
//! `build` (the inputs: everything `setup_s` times) and `analyze` (the
//! kernels `wall_s` is dominated by), wrapping every layer call in a
//! span.

pub mod e18;
pub mod e19;
pub mod e6;
pub mod e9;
