//! Binary wrapper for the `resilience-report` fault-injection matrix.

fn main() {
    // The matrix expects plain Graphene's audit kills: it catches each one
    // per cell and prints it as a `detected [...]` line. Keep the default
    // report (and backtrace) for every other panic only.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload_as_str().is_some_and(|m| m.starts_with("audit[")) {
            default_hook(info);
        }
    }));
    rh_bench::propagate_audit_mode();
    rh_bench::resilience_report::run(rh_bench::fast_mode());
}
