//! Table IV + Figure 7: indicator distributions and Wilcoxon comparisons.
use bench_harness::scale::ExperimentScale;
use bench_harness::DensityResults;
fn main() {
    let scale = ExperimentScale::from_args();
    bench_harness::experiments::exp_metrics(&DensityResults::collect_all(&scale, &scale.densities));
}
