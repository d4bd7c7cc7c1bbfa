//! §VI: execution-time comparison and projected parallel speed-up.
use bench_harness::scale::ExperimentScale;
use bench_harness::DensityResults;
fn main() {
    let scale = ExperimentScale::from_args();
    bench_harness::experiments::exp_timing(&DensityResults::collect_all(&scale, &scale.densities));
}
