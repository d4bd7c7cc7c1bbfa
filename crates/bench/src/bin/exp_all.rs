//! Runs every experiment in sequence (Tables I-IV, Figures 2, 6, 7 and the
//! §V/§VI analyses). Accepts the shared scale flags; `--paper` reproduces
//! the full protocol (hours of CPU).
use bench_harness::scale::ExperimentScale;
fn main() {
    let scale = ExperimentScale::from_args();
    bench_harness::experiments::exp_config();
    bench_harness::experiments::exp_sensitivity(&scale);
    let data = bench_harness::experiments::exp_fronts(&scale);
    bench_harness::experiments::exp_metrics(&data);
    bench_harness::experiments::exp_domination(&data);
    bench_harness::experiments::exp_timing(&data);
    bench_harness::experiments::exp_hybrid(&scale);
    bench_harness::experiments::exp_param_study(&scale);
}
