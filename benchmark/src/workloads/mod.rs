//! The four workloads. Each module's header says what the workload
//! stresses, what it bypasses, and why it was chosen.

pub mod churn_host;
pub mod coreutils_pipeline;
pub mod proxy_bulk_stream;
pub mod proxy_short_conns;

use crate::jobs::Ctx;
use crate::report::Outcome;
use std::io;

/// Runs the workload called `name` (one of [`crate::spec::WORKLOADS`]).
///
/// # Errors
///
/// `InvalidInput` for an unknown name; otherwise the workload's own
/// harness faults.
pub fn run(name: &str, ctx: &Ctx) -> io::Result<Outcome> {
    match name {
        "churn_host" => churn_host::run(ctx),
        "coreutils_pipeline" => coreutils_pipeline::run(ctx),
        "proxy_short_conns" => proxy_short_conns::run(ctx),
        "proxy_bulk_stream" => proxy_bulk_stream::run(ctx),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unknown workload {name}"),
        )),
    }
}
