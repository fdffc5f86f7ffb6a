//! Pins the bits of the `des` ground-truth simulators.
//!
//! The DES oracle is what Figs. 4–9 and 14/15 compare the Petri nets
//! against, so any change to its event order or arithmetic must be a
//! deliberate one. Each test folds every output field of a fixed sweep
//! into one `u64` (f64 fields by bit pattern) and compares it with the
//! value recorded before the event queue was last reworked.

use des::{simulate_cpu, simulate_node, CpuSimParams, NodeSimParams, NodeSimResult, Workload};
use energy::StateTimes;
use wsn::sweep::{fig4_9_pdt_grid, FIG14_15_PDT_GRID};

/// FNV-1a-style fold of one 64-bit word into the running fingerprint.
fn fold(h: &mut u64, word: u64) {
    *h = (*h ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

fn fold_times(h: &mut u64, t: &StateTimes) {
    for x in [t.sleep, t.wakeup, t.idle, t.active] {
        fold(h, x.to_bits());
    }
}

fn fold_node(h: &mut u64, r: &NodeSimResult) {
    fold_times(h, &r.cpu_times);
    fold_times(h, &r.radio_times);
    for n in [
        r.cpu_wakeups,
        r.radio_wakeups,
        r.cycles_completed,
        r.events_generated,
        r.max_pending,
    ] {
        fold(h, n);
    }
}

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn simulate_cpu_bits_over_the_fig4_9_sweep() {
    let mut h = OFFSET;
    for pud in [0.001, 0.3, 10.0] {
        for pdt in fig4_9_pdt_grid() {
            for seed in [1u64, 2] {
                let mut p = CpuSimParams::paper_defaults(pdt, pud);
                p.horizon = 5000.0;
                let r = simulate_cpu(&p, seed);
                fold_times(&mut h, &r.times);
                fold(&mut h, r.wakeups);
                fold(&mut h, r.jobs_served);
                fold(&mut h, r.jobs_arrived);
            }
        }
    }
    assert_eq!(h, CPU_FINGERPRINT, "simulate_cpu output changed: {h:#018x}");
}

#[test]
fn simulate_node_bits_over_the_fig14_15_sweep() {
    let mut h = OFFSET;
    for workload in [
        Workload::Closed { interval: 1.0 },
        Workload::Open { rate: 1.0 },
    ] {
        for pdt in FIG14_15_PDT_GRID {
            for seed in [1u64, 2] {
                let mut p = NodeSimParams::paper_defaults(workload, pdt);
                p.horizon = 900.0;
                fold_node(&mut h, &simulate_node(&p, seed));
            }
        }
    }
    assert_eq!(
        h, NODE_FINGERPRINT,
        "simulate_node output changed: {h:#018x}"
    );
}

const CPU_FINGERPRINT: u64 = 0xea76_c48f_3bcc_bb65;
const NODE_FINGERPRINT: u64 = 0xc931_31ea_a0a0_eead;
