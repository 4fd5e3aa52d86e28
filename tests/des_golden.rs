//! Golden outcomes of the discrete-event executor.
//!
//! The DES is a deterministic simulator: the paper tables are computed
//! from it, so its results must not move when the executor code is
//! restructured. This suite pins the exact [`DesOutcome`] of a matrix of
//! fixtures × configurations — parallel time to the bit, MAP counts,
//! memory peaks, message/package counters, suspension counts, queue
//! depths, and an FNV-1a hash of every task's finish-time bits. Failing
//! runs pin their error instead.
//!
//! On a mismatch the test prints the full actual table, so an intended
//! change of the simulator's semantics can be reviewed line by line.

use rapid::core::fixtures::{self, random_irregular_graph, RandomGraphSpec};
use rapid::core::graph::TaskGraph;
use rapid::core::memreq::min_mem;
use rapid::machine::FaultPlan;
use rapid::prelude::*;
use rapid::rt::des::{DesConfig, DesExecutor};
use rapid::rt::MapWindow;
use rapid::sched::assign::cyclic_owner_map;
use rapid::sparse::{gen, taskgen};

/// FNV-1a over the little-endian bytes of every finish time.
fn fnv_finish(finish: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in finish {
        for b in f.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One fixture: a graph and its schedule.
struct Fixture {
    name: &'static str,
    g: TaskGraph,
    sched: Schedule,
}

fn fixtures() -> Vec<Fixture> {
    let mut out = Vec::new();
    let g = fixtures::figure2_dag();
    out.push(Fixture { name: "fig2-b", sched: fixtures::figure2_schedule_b(), g: g.clone() });
    out.push(Fixture { name: "fig2-c", sched: fixtures::figure2_schedule_c(), g });

    let a = gen::grid2d_laplacian(6, 5);
    let model = taskgen::cholesky_2d_model(&a, 6, 4);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 4);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    out.push(Fixture { name: "cholesky", g: model.graph, sched });

    let a = gen::goodwin_like(60, 4, 1, 5);
    let model = taskgen::lu_1d_model(&a, 10, 3, true);
    let assign = owner_compute_assignment(&model.graph, &model.owner, 3);
    let sched = mpo_order(&model.graph, &assign, &CostModel::unit());
    out.push(Fixture { name: "lu", g: model.graph, sched });

    for (name, seed) in [("random-3", 3u64), ("random-11", 11), ("random-29", 29)] {
        let g = random_irregular_graph(seed, &RandomGraphSpec::default());
        let owner = cyclic_owner_map(g.num_objects(), 3);
        let assign = owner_compute_assignment(&g, &owner, 3);
        let sched = mpo_order(&g, &assign, &CostModel::unit());
        out.push(Fixture { name, g, sched });
    }
    // Unit-size objects on four processors: many MAPs per processor, so
    // senders block on occupied single-slot mailboxes.
    let spec = RandomGraphSpec { objects: 16, tasks: 40, max_obj_size: 1, ..Default::default() };
    let g = random_irregular_graph(21, &spec);
    let owner = cyclic_owner_map(g.num_objects(), 4);
    let assign = owner_compute_assignment(&g, &owner, 4);
    let sched = mpo_order(&g, &assign, &CostModel::unit());
    out.push(Fixture { name: "random-21-p4", g, sched });
    out
}

/// The configuration matrix, all at exact `MIN_MEM` except the unmanaged
/// baseline (which needs the no-recycling footprint and gets ample room).
fn configs(nprocs: usize, mm: u64) -> Vec<(&'static str, DesConfig)> {
    let unit = MachineConfig::unit(nprocs, mm);
    let t3d = MachineConfig::t3d(nprocs).with_capacity(mm);
    vec![
        ("managed-unit", DesConfig::managed(unit.clone())),
        ("managed-t3d", DesConfig::managed(t3d.clone())),
        ("unmanaged-t3d", DesConfig::unmanaged(t3d.clone().with_capacity(1 << 40))),
        ("unmanaged-tight", DesConfig::unmanaged(unit.clone())),
        ("buffered-unit", DesConfig::managed(unit.clone()).with_addr_buffering()),
        ("buffered-t3d", DesConfig::managed(t3d.clone()).with_addr_buffering()),
        ("greedy-t3d", DesConfig::managed(t3d.clone()).with_window(MapWindow::Greedy)),
        ("single-unit", DesConfig::managed(unit.clone()).with_window(MapWindow::Single)),
        (
            "single-buffered-unit",
            DesConfig::managed(unit).with_window(MapWindow::Single).with_addr_buffering(),
        ),
        ("single-t3d", DesConfig::managed(t3d.clone()).with_window(MapWindow::Single)),
        (
            "delays-t3d",
            DesConfig::managed(t3d).with_faults(FaultPlan::delay_heavy(7)).expect("delay-only"),
        ),
    ]
}

fn actual_table() -> Vec<String> {
    let mut lines = Vec::new();
    for fx in fixtures() {
        let nprocs = fx.sched.assign.nprocs;
        let mm = min_mem(&fx.g, &fx.sched).min_mem;
        for (cname, cfg) in configs(nprocs, mm) {
            let line = match DesExecutor::new(&fx.g, &fx.sched, cfg).run() {
                Ok(o) => format!(
                    "{} {cname}: pt={:#018x} maps={:?} peak={:?} msgs={} pkgs={} susp={} q={} fin={:#018x}",
                    fx.name,
                    o.parallel_time.to_bits(),
                    o.maps,
                    o.peak_mem,
                    o.msgs_sent,
                    o.addr_pkgs_sent,
                    o.suspended_sends,
                    o.peak_queued_pkgs,
                    fnv_finish(&o.finish),
                ),
                Err(e) => format!("{} {cname}: err={e}", fx.name),
            };
            lines.push(line);
        }
    }
    lines
}

#[rustfmt::skip]
const GOLDEN: &[&str] = &[
    "fig2-b managed-unit: pt=0x402e000000000000 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=1 q=1 fin=0x91800959891a8b5e",
    "fig2-b managed-t3d: pt=0x3f1b47820d5178e5 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=4 q=1 fin=0x0f126258534b1cdf",
    "fig2-b unmanaged-t3d: pt=0x3ef414dd607dac61 maps=[0, 0] peak=[7, 9] msgs=5 pkgs=0 susp=0 q=0 fin=0xc3afdfb4b14d6c99",
    "fig2-b unmanaged-tight: pt=0x402e000000000000 maps=[0, 0] peak=[7, 9] msgs=5 pkgs=0 susp=0 q=0 fin=0x91800959891a8b5e",
    "fig2-b buffered-unit: pt=0x402e000000000000 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=1 q=1 fin=0x91800959891a8b5e",
    "fig2-b buffered-t3d: pt=0x3f1b47820d5178e5 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=4 q=1 fin=0x0f126258534b1cdf",
    "fig2-b greedy-t3d: pt=0x3f1b47820d5178e5 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=4 q=1 fin=0x0f126258534b1cdf",
    "fig2-b single-unit: pt=0x4030000000000000 maps=[6, 14] peak=[7, 9] msgs=5 pkgs=5 susp=4 q=1 fin=0xb81fb55153ab0322",
    "fig2-b single-buffered-unit: pt=0x4030000000000000 maps=[6, 14] peak=[7, 9] msgs=5 pkgs=5 susp=4 q=1 fin=0xb81fb55153ab0322",
    "fig2-b single-t3d: pt=0x3f3415d70c46ac84 maps=[6, 14] peak=[7, 9] msgs=5 pkgs=5 susp=4 q=1 fin=0xb6098acb8cd123f0",
    "fig2-b delays-t3d: pt=0x3f37c3c3358eb098 maps=[1, 1] peak=[7, 9] msgs=5 pkgs=2 susp=4 q=1 fin=0x6d7bea4209d15d6d",
    "fig2-c managed-unit: pt=0x402e000000000000 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=2 q=1 fin=0x0f7d99db8eacb61e",
    "fig2-c managed-t3d: pt=0x3f21a23b4e525c78 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=4 q=1 fin=0x3eaf1ec0cbc8dc94",
    "fig2-c unmanaged-t3d: pt=0x3ef40a70a8ccc409 maps=[0, 0] peak=[7, 9] msgs=5 pkgs=0 susp=0 q=0 fin=0x3843159fb3bfe015",
    "fig2-c unmanaged-tight: err=non-executable under memory constraint: P1 task #0 needs 9 units, capacity 8",
    "fig2-c buffered-unit: pt=0x402e000000000000 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=2 q=1 fin=0x0f7d99db8eacb61e",
    "fig2-c buffered-t3d: pt=0x3f21a23b4e525c78 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=4 q=1 fin=0x3eaf1ec0cbc8dc94",
    "fig2-c greedy-t3d: pt=0x3f21a23b4e525c78 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=4 q=1 fin=0x3eaf1ec0cbc8dc94",
    "fig2-c single-unit: pt=0x4030000000000000 maps=[6, 14] peak=[7, 8] msgs=5 pkgs=5 susp=4 q=1 fin=0xf6a4013633bdae62",
    "fig2-c single-buffered-unit: pt=0x4030000000000000 maps=[6, 14] peak=[7, 8] msgs=5 pkgs=5 susp=4 q=1 fin=0xf6a4013633bdae62",
    "fig2-c single-t3d: pt=0x3f3415d70c46ac84 maps=[6, 14] peak=[7, 8] msgs=5 pkgs=5 susp=4 q=1 fin=0x5348bb50c4e8db12",
    "fig2-c delays-t3d: pt=0x3f3abbcbab9025c9 maps=[1, 2] peak=[7, 8] msgs=5 pkgs=3 susp=4 q=1 fin=0xa65215533a2c2d61",
    "cholesky managed-unit: pt=0x40a7100000000000 maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=1 q=1 fin=0x6349715e5bea0b0d",
    "cholesky managed-t3d: pt=0x3f2b64697d07c6bd maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=1 q=1 fin=0x50cfb14463744688",
    "cholesky unmanaged-t3d: pt=0x3f178e6a617a3826 maps=[0, 0, 0, 0] peak=[180, 144, 144, 144] msgs=8 pkgs=0 susp=0 q=0 fin=0xa2199e626ed3f02b",
    "cholesky unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 180 units, capacity 144",
    "cholesky buffered-unit: pt=0x40a7100000000000 maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=1 q=1 fin=0x6349715e5bea0b0d",
    "cholesky buffered-t3d: pt=0x3f2b64697d07c6bd maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=1 q=1 fin=0x50cfb14463744688",
    "cholesky greedy-t3d: pt=0x3f2b64697d07c6bd maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=1 q=1 fin=0x50cfb14463744688",
    "cholesky single-unit: pt=0x40a7100000000000 maps=[5, 2, 2, 4] peak=[144, 108, 108, 108] msgs=8 pkgs=8 susp=1 q=1 fin=0x6349715e5bea0b0d",
    "cholesky single-buffered-unit: pt=0x40a7100000000000 maps=[5, 2, 2, 4] peak=[144, 108, 108, 108] msgs=8 pkgs=8 susp=1 q=1 fin=0x6349715e5bea0b0d",
    "cholesky single-t3d: pt=0x3f315b9ddf3aeb6f maps=[5, 2, 2, 4] peak=[144, 108, 108, 108] msgs=8 pkgs=8 susp=1 q=1 fin=0xdf5c6cd3d8286bc7",
    "cholesky delays-t3d: pt=0x3f4b5a17052b8bf5 maps=[2, 1, 1, 1] peak=[144, 144, 144, 144] msgs=8 pkgs=5 susp=2 q=1 fin=0x210abe246f7c7533",
    "lu managed-unit: pt=0x40f3754000000000 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=5 q=1 fin=0xc3de800d97fcd716",
    "lu managed-t3d: pt=0x3f521b2c56b4f936 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0x71e7001f18272c90",
    "lu unmanaged-t3d: pt=0x3f4d8d811cc0a52a maps=[0, 0, 0] peak=[2440, 3050, 3660] msgs=9 pkgs=0 susp=0 q=0 fin=0xd9820294d2f36078",
    "lu unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 2440 units, capacity 1830",
    "lu buffered-unit: pt=0x40f3754000000000 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=5 q=1 fin=0xc3de800d97fcd716",
    "lu buffered-t3d: pt=0x3f521b2c56b4f936 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0x71e7001f18272c90",
    "lu greedy-t3d: pt=0x3f521b2c56b4f936 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0x71e7001f18272c90",
    "lu single-unit: pt=0x40f3754000000000 maps=[5, 7, 9] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0xc3de800d97fcd716",
    "lu single-buffered-unit: pt=0x40f3754000000000 maps=[5, 7, 9] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0xc3de800d97fcd716",
    "lu single-t3d: pt=0x3f54dccb284b67f8 maps=[5, 7, 9] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=7 q=1 fin=0xe5be8708237d1060",
    "lu delays-t3d: pt=0x3f5894e12ec803d5 maps=[2, 3, 4] peak=[1830, 1830, 1830] msgs=9 pkgs=9 susp=6 q=1 fin=0x4637c64e8e494d64",
    "random-3 managed-unit: pt=0x4053a239413118b6 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=18 q=1 fin=0x974d6a316bb7f574",
    "random-3 managed-t3d: pt=0x3f48e6ec37f70130 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=23 q=1 fin=0xf2eaf4eb8e209f6a",
    "random-3 unmanaged-t3d: pt=0x3f1fc1b5ea532e0e maps=[0, 0, 0] peak=[81, 69, 89] msgs=58 pkgs=0 susp=0 q=0 fin=0xee0522099ec346a8",
    "random-3 unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 81 units, capacity 59",
    "random-3 buffered-unit: pt=0x4053a239413118b6 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=18 q=1 fin=0x974d6a316bb7f574",
    "random-3 buffered-t3d: pt=0x3f48e6ec37f70130 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=23 q=1 fin=0xf2eaf4eb8e209f6a",
    "random-3 greedy-t3d: pt=0x3f48e6ec37f70130 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=23 q=1 fin=0xf2eaf4eb8e209f6a",
    "random-3 single-unit: pt=0x405727de85b8e503 maps=[19, 20, 21] peak=[53, 58, 59] msgs=58 pkgs=38 susp=31 q=1 fin=0xca7728e2cc37061d",
    "random-3 single-buffered-unit: pt=0x405727de85b8e503 maps=[19, 20, 21] peak=[53, 58, 59] msgs=58 pkgs=38 susp=31 q=1 fin=0xca7728e2cc37061d",
    "random-3 single-t3d: pt=0x3f51633258cecd11 maps=[19, 20, 21] peak=[53, 58, 59] msgs=58 pkgs=38 susp=35 q=1 fin=0x6e67b0a8620de213",
    "random-3 delays-t3d: pt=0x3f64f9d6f33ea6b6 maps=[3, 4, 7] peak=[58, 58, 59] msgs=58 pkgs=22 susp=23 q=1 fin=0x40e2bb86fcdf4d2c",
    "random-11 managed-unit: pt=0x4056dcb08221772c maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=17 q=1 fin=0x131960ba0dd00743",
    "random-11 managed-t3d: pt=0x3f49f49a9dd9e8b7 maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=20 q=1 fin=0x32787f541f2c2cad",
    "random-11 unmanaged-t3d: pt=0x3f253cc8e6336fcc maps=[0, 0, 0] peak=[69, 70, 60] msgs=69 pkgs=0 susp=0 q=0 fin=0x736e3323cd0edd32",
    "random-11 unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 69 units, capacity 49",
    "random-11 buffered-unit: pt=0x4056dcb08221772c maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=17 q=1 fin=0x131960ba0dd00743",
    "random-11 buffered-t3d: pt=0x3f49f49a9dd9e8b7 maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=20 q=1 fin=0x32787f541f2c2cad",
    "random-11 greedy-t3d: pt=0x3f49f49a9dd9e8b7 maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=20 q=1 fin=0x32787f541f2c2cad",
    "random-11 single-unit: pt=0x40599b61efc36e92 maps=[16, 22, 22] peak=[46, 42, 49] msgs=69 pkgs=40 susp=33 q=1 fin=0x8816725ae6160cca",
    "random-11 single-buffered-unit: pt=0x40599b61efc36e92 maps=[16, 22, 22] peak=[46, 42, 49] msgs=69 pkgs=40 susp=33 q=1 fin=0x8816725ae6160cca",
    "random-11 single-t3d: pt=0x3f55f3788531bf3d maps=[16, 22, 22] peak=[46, 42, 49] msgs=69 pkgs=40 susp=35 q=1 fin=0x7eb8b10cb59070a6",
    "random-11 delays-t3d: pt=0x3f627edfa74facad maps=[3, 3, 5] peak=[48, 49, 49] msgs=69 pkgs=18 susp=21 q=1 fin=0x869987510eec6262",
    "random-29 managed-unit: pt=0x405576213f4e0eb3 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=22 q=1 fin=0x42af4e14a82f4881",
    "random-29 managed-t3d: pt=0x3f48cabc19efcba6 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=24 q=1 fin=0x83c59439508c5c0a",
    "random-29 unmanaged-t3d: pt=0x3f1b6ba335a9e5a5 maps=[0, 0, 0] peak=[73, 90, 83] msgs=64 pkgs=0 susp=0 q=0 fin=0x7f586e12433f4b7e",
    "random-29 unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 73 units, capacity 61",
    "random-29 buffered-unit: pt=0x405576213f4e0eb3 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=22 q=1 fin=0x42af4e14a82f4881",
    "random-29 buffered-t3d: pt=0x3f48cabc19efcba6 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=24 q=1 fin=0x83c59439508c5c0a",
    "random-29 greedy-t3d: pt=0x3f48cabc19efcba6 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=24 q=1 fin=0x83c59439508c5c0a",
    "random-29 single-unit: pt=0x405830e0eb2cad79 maps=[18, 25, 17] peak=[48, 59, 61] msgs=64 pkgs=45 susp=43 q=1 fin=0xb6de3560e4c63445",
    "random-29 single-buffered-unit: pt=0x405830e0eb2cad79 maps=[18, 25, 17] peak=[48, 59, 61] msgs=64 pkgs=45 susp=43 q=1 fin=0xb6de3560e4c63445",
    "random-29 single-t3d: pt=0x3f533ea76db6d42f maps=[18, 25, 17] peak=[48, 59, 61] msgs=64 pkgs=45 susp=44 q=1 fin=0x94907e1ab03c0d47",
    "random-29 delays-t3d: pt=0x3f5db85686c86ee2 maps=[2, 5, 4] peak=[61, 61, 61] msgs=64 pkgs=20 susp=23 q=1 fin=0x71d48afd5e2a8ad2",
    "random-21-p4 managed-unit: pt=0x40496a3114de974c maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=17 q=1 fin=0x585265c00855ab84",
    "random-21-p4 managed-t3d: pt=0x3f41003bb82c098b maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=18 q=1 fin=0x534ab7c6893c1859",
    "random-21-p4 unmanaged-t3d: pt=0x3f15720c8f427dad maps=[0, 0, 0, 0] peak=[17, 17, 12, 13] msgs=47 pkgs=0 susp=0 q=0 fin=0x86d9deb80f943707",
    "random-21-p4 unmanaged-tight: err=non-executable under memory constraint: P0 task #0 needs 17 units, capacity 11",
    "random-21-p4 buffered-unit: pt=0x40496a3114de974c maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=17 q=1 fin=0x585265c00855ab84",
    "random-21-p4 buffered-t3d: pt=0x3f41003bb82c098b maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=18 q=1 fin=0x534ab7c6893c1859",
    "random-21-p4 greedy-t3d: pt=0x3f41003bb82c098b maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=18 q=1 fin=0x534ab7c6893c1859",
    "random-21-p4 single-unit: pt=0x404b787112323826 maps=[15, 11, 6, 8] peak=[11, 10, 8, 8] msgs=47 pkgs=31 susp=31 q=1 fin=0xbe83a0182c3e994b",
    "random-21-p4 single-buffered-unit: pt=0x404b787112323826 maps=[15, 11, 6, 8] peak=[11, 10, 8, 8] msgs=47 pkgs=31 susp=31 q=1 fin=0xbe83a0182c3e994b",
    "random-21-p4 single-t3d: pt=0x3f47167c14cf944a maps=[15, 11, 6, 8] peak=[11, 10, 8, 8] msgs=47 pkgs=31 susp=31 q=1 fin=0x685f116b604ded5c",
    "random-21-p4 delays-t3d: pt=0x3f56c004d206b643 maps=[5, 3, 2, 2] peak=[11, 11, 10, 11] msgs=47 pkgs=23 susp=20 q=1 fin=0x1d065030e97a12fd",
];

#[test]
fn des_outcomes_match_the_golden_table() {
    let actual = actual_table();
    if actual != GOLDEN {
        let mut report = String::new();
        for (i, line) in actual.iter().enumerate() {
            let mark = if GOLDEN.get(i) == Some(&line.as_str()) { ' ' } else { '!' };
            report.push_str(&format!("{mark} {line:?},\n"));
        }
        panic!(
            "DES outcomes diverge from the golden table ({} actual vs {} golden lines; \
             '!' marks a differing line):\n{report}",
            actual.len(),
            GOLDEN.len()
        );
    }
}
