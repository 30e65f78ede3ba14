//! The parallel execution contract: any thread count — including one —
//! produces bit-identical sweep and Monte-Carlo BER results. This is
//! what makes the parallel engine a pure speedup rather than a
//! different experiment.

use wlan_dataflow::sweep::Sweep;
use wlan_exec::{split_seed, ThreadPool};
use wlan_meas::montecarlo::{run_sharded, EarlyStop, McPlan};
use wlan_meas::BerMeter;
use wlan_phy::Rate;
use wlan_rf::receiver::RfConfig;
use wlan_sim::experiments::{ip3, Effort, Engine, Experiment, RunContext, RunOutput};
use wlan_sim::link::{AdjacentChannel, FrontEnd, LinkConfig, LinkSimulation, McRun, ShardReport};

#[test]
fn sweep_run_parallel_matches_serial_for_any_thread_count() {
    let sweep = Sweep::linspace(-10.0, 10.0, 9);
    // A deterministic, moderately expensive point function.
    let eval = |p: &f64| {
        let mut acc = 0.0f64;
        for k in 1..200 {
            acc += (p * k as f64).sin() / k as f64;
        }
        (acc, p.to_bits())
    };
    let serial = sweep.run(eval);
    for threads in [1, 2, 4] {
        let par = sweep.run_parallel(&ThreadPool::new(threads), eval);
        assert_eq!(par.len(), serial.len());
        for (a, b) in par.iter().zip(serial.iter()) {
            assert_eq!(a.param, b.param, "{threads} threads");
            assert_eq!(a.result, b.result, "{threads} threads");
        }
    }
}

#[test]
fn link_ber_is_bit_identical_across_thread_counts() {
    let sim = LinkSimulation::new(LinkConfig {
        rate: Rate::R24,
        packets: 6,
        psdu_len: 50,
        seed: 77,
        snr_db: Some(9.0),
        front_end: FrontEnd::Ideal,
        ..LinkConfig::default()
    });
    let mc = McRun {
        shard_packets: 2,
        ..McRun::default()
    };
    let base = sim.run_parallel(&ThreadPool::new(1), &mc);
    assert!(base.meter.bits() > 0);
    for threads in [2, 4] {
        let r = sim.run_parallel(&ThreadPool::new(threads), &mc);
        assert_eq!(r.meter, base.meter, "{threads} threads");
        assert_eq!(r.decoded_packets, base.decoded_packets);
        assert_eq!(r.evm_db, base.evm_db);
        assert_eq!(r.packets, base.packets);
    }
}

/// Every field of a shard report, floats as bits.
fn shard_bits(r: &ShardReport) -> (BerMeter, usize, u64, usize) {
    (
        r.meter,
        r.decoded_packets,
        r.evm_sum_db.to_bits(),
        r.packets,
    )
}

#[test]
fn shards_reusing_a_thread_match_shards_on_fresh_threads() {
    // `run_shard` keeps the thread's last packet arena for the next
    // shard of the same rate, profile and osr. Interleave two RF
    // configurations that differ in rate and osr on one thread, so the
    // arena is alternately reused and rebuilt: every shard must equal
    // the same shard run on a thread that has never run one.
    let rf = |rate, osr, seed| {
        LinkSimulation::new(LinkConfig {
            rate,
            psdu_len: 60,
            packets: 4,
            seed,
            rx_level_dbm: -80.0,
            adjacent: Some(AdjacentChannel::first()),
            front_end: FrontEnd::RfBaseband(RfConfig::default()),
            osr,
            ..LinkConfig::default()
        })
    };
    let a = rf(Rate::R24, 4, 11);
    let b = rf(Rate::R54, 8, 12);
    let schedule: [(&LinkSimulation, usize, usize, u64); 7] = [
        (&a, 0, 1, 101),
        (&a, 1, 1, 102),
        (&b, 0, 1, 201),
        (&a, 2, 2, 103),
        (&b, 1, 1, 202),
        (&b, 2, 2, 203),
        (&a, 0, 1, 101),
    ];
    let mut decoded = 0;
    for &(sim, first, packets, seed) in &schedule {
        let reused = sim.run_shard(first, packets, seed);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| sim.run_shard(first, packets, seed))
                .join()
                .unwrap()
        });
        assert_eq!(
            shard_bits(&reused),
            shard_bits(&fresh),
            "shard {first}+{packets} seed {seed}"
        );
        decoded += reused.decoded_packets;
    }
    assert!(decoded > 0, "workload must decode");
}

#[test]
fn early_stopping_decisions_are_thread_invariant() {
    // A synthetic high-BER Monte-Carlo point: the Wilson interval
    // tightens fast, so the rule fires well before the shard budget —
    // and must fire after the *same* wave regardless of thread count.
    let plan = McPlan {
        shards: 64,
        wave: 4,
        early_stop: Some(EarlyStop {
            min_bits: 2_000,
            rel_width: 0.4,
            ber_floor: 1e-9,
        }),
    };
    let sim = |shard: usize| {
        let mut rng = wlan_dsp::Rng::new(split_seed(5, 0, shard as u64));
        let tx = vec![0u8; 500];
        let rx: Vec<u8> = (0..500)
            .map(|_| if rng.uniform() < 0.08 { 1 } else { 0 })
            .collect();
        let mut m = BerMeter::new();
        m.update_bits(&tx, &rx);
        m
    };
    let base = run_sharded(&ThreadPool::new(1), &plan, sim);
    assert!(base.stopped_early, "rule should fire before 64 shards");
    for threads in [2, 4] {
        let out = run_sharded(&ThreadPool::new(threads), &plan, sim);
        assert_eq!(out.acc, base.acc, "{threads} threads");
        assert_eq!(out.shards_run, base.shards_run, "{threads} threads");
    }
}

#[test]
fn experiment_sweep_is_thread_invariant_end_to_end() {
    // Full RF-chain experiment through the engine: 1 vs 4 threads.
    let exp = ip3::Ip3Sweep {
        lo_dbm: wlan_units::Dbm(-35.0),
        hi_dbm: wlan_units::Dbm(-15.0),
        points: 2,
    };
    let on = |engine| {
        exp.run(&RunContext {
            engine,
            serial: false,
            ..RunContext::serial_reference(Effort::quick(), 11)
        })
    };
    let (serial, par) = (on(Engine::serial()), on(Engine::with_threads(4)));
    assert_eq!(serial.snapshot, par.snapshot);
    let bits = |o: &RunOutput| o.points.iter().map(|p| p.bits).collect::<Vec<_>>();
    assert_eq!(bits(&serial), bits(&par));
}

#[test]
fn split_seed_isolates_points_and_shards() {
    // Seeds across a sweep grid are pairwise distinct and stable.
    let mut seen = std::collections::HashSet::new();
    for point in 0..16u64 {
        for shard in 0..16u64 {
            assert!(seen.insert(split_seed(42, point, shard)));
        }
    }
    assert_eq!(split_seed(42, 3, 7), split_seed(42, 3, 7));
}
