//! The paper's §5.2.1 scenario in miniature: a symmetric disk array where
//! query response time is governed by the busiest device.
//!
//! Sweeps the number of unspecified fields (the paper's Tables 7–9 rows)
//! and prints the average largest response size and the simulated response
//! time for FX, GDM, and Disk Modulo side by side.
//!
//! Run with `cargo run --release --example parallel_disks`. Set
//! `PMR_TRACE=<path>` to record the sweep's inverse-mapping metrics as
//! JSON lines, then aggregate with `pmr stats <path>`.

use pmr::analysis::response::{average_largest_response, optimal_average};
use pmr::baselines::gdm::PaperGdmSet;
use pmr::baselines::{GdmDistribution, ModuloDistribution};
use pmr::core::method::DistributionMethod;
use pmr::core::{AssignmentStrategy, FxDistribution, SystemConfig};
use pmr::storage::CostModel;

fn main() {
    // Table 7's system: six fields of size 8 over 32 devices.
    let sys = SystemConfig::new(&[8; 6], 32).expect("valid configuration");
    let cost = CostModel::disk_1988();

    let dm = ModuloDistribution::new(sys.clone());
    let gdm = GdmDistribution::paper_set(sys.clone(), PaperGdmSet::Gdm1);
    let fx = FxDistribution::with_strategy(sys.clone(), AssignmentStrategy::CycleIu1)
        .expect("valid configuration");
    let methods: [(&str, &dyn DistributionMethod); 3] =
        [("Modulo", &dm), ("GDM1", &gdm), ("FX", &fx)];

    println!(
        "disk array: {sys}, {:.0} ms seek + {:.0} ms/bucket",
        cost.seek_us / 1000.0,
        cost.transfer_us_per_bucket / 1000.0
    );
    println!();
    println!(
        "{:<4} {:>10} {:>22} {:>22} {:>22}",
        "k", "optimal", "Modulo (resp/ms)", "GDM1 (resp/ms)", "FX (resp/ms)"
    );
    for k in 2..=6u32 {
        let optimal = optimal_average(&sys, k);
        print!("{k:<4} {optimal:>10.1}");
        for (_, method) in methods {
            let avg = average_largest_response(method, &sys, k);
            // Paper model: response time ~ seek + largest-response · transfer.
            let time_ms = cost.device_time_us(avg.round() as u64, 0) / 1000.0;
            print!(" {:>13.1} {:>8.1}", avg, time_ms);
        }
        println!();
    }
    println!();
    println!(
        "Reading: FX tracks the optimal column (perfect balance) while Modulo \
         pays up to {}x more I/O on the busiest disk.",
        (average_largest_response(&dm, &sys, 3) / optimal_average(&sys, 3)).round()
    );
    if pmr::rt::obs::enabled() {
        // With PMR_TRACE set, leave the final metric totals in the
        // trace so `pmr stats` can aggregate the sweep.
        println!();
        for (name, total) in pmr::rt::obs::counters_snapshot() {
            println!("trace counter {name} = {total}");
        }
        pmr::rt::obs::flush();
    }
}
