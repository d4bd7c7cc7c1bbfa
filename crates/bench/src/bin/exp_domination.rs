//! §VI: mutual domination counts between the AEDB-MLS and Reference fronts.
use bench_harness::scale::ExperimentScale;
use bench_harness::DensityResults;
fn main() {
    let scale = ExperimentScale::from_args();
    bench_harness::experiments::exp_domination(&DensityResults::collect_all(
        &scale,
        &scale.densities,
    ));
}
