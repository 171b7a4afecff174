//! Steady-state allocation probe for the arena-staged broadcast path.
//!
//! After warm-up — once the event queue, the arena slab and free list,
//! and the staging buffer have grown to their steady-state capacities —
//! routing a broadcast at n = 128 and draining all of its deliveries must
//! perform **zero** heap allocations: the payload is staged once, the
//! delivery index is packed `Copy` data, and every buffer is recycled.
//! This pins the tentpole's O(n)-index-writes-not-O(n)-clones claim at
//! the allocator level, where a regression (a stray `clone`, a rebuilt
//! `Vec`, a `HashMap` insert) cannot hide.
//!
//! The probe binary holds exactly one `#[test]` so no concurrently
//! running test can touch the process-global counter between the
//! snapshots. Counting is compiled in only under `debug_assertions`
//! (see [`CountingAlloc`]); release runs skip the assertions.

use fd_bench::CountingAlloc;
use fd_sim::{
    DelayModel, EventKind, EventQueue, MsgArena, Network, ProcessId, SplitMix64, Staged, Time,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

const N: usize = 128;

/// Pops every pending event, consuming the arena payloads the way the
/// engine does; folds them so the work cannot be optimized away.
fn drain(q: &mut EventQueue, arena: &mut MsgArena<u64>) -> u64 {
    let mut acc = 0u64;
    while let Some(ev) = q.pop() {
        if let EventKind::Deliver { slot, .. } = ev.kind {
            acc = acc.wrapping_add(arena.take(slot));
        }
    }
    acc
}

#[test]
fn routed_broadcast_is_allocation_free_after_warmup() {
    if !ALLOC.enabled() {
        eprintln!("skipping: allocation counting is debug-only");
        return;
    }
    let mut q = EventQueue::new();
    let mut net = Network::new(
        DelayModel::Uniform { lo: 1, hi: 12 },
        vec![],
        SplitMix64::new(7).stream(0xDE1A),
    );
    let mut arena: MsgArena<u64> = MsgArena::new();
    let mut staging: Vec<Staged> = Vec::new();
    let mut acc = 0u64;
    let mut clock = 0u64;
    // Warm-up at 4× the measured load, so every recycled capacity — heap,
    // arena slab and free list, staging — strictly dominates what a single
    // steady-state broadcast needs.
    for _ in 0..320 {
        for burst in 0..4 {
            let from = ProcessId(((clock + burst) % N as u64) as usize);
            net.route_broadcast(
                &mut q,
                &mut arena,
                from,
                N,
                Time(clock),
                clock ^ burst,
                &mut staging,
            );
        }
        acc = acc.wrapping_add(drain(&mut q, &mut arena));
        clock += 1;
    }
    assert!(arena.is_empty(), "warm-up left live payloads");
    let before = ALLOC.allocations();
    for _ in 0..256 {
        let from = ProcessId((clock % N as u64) as usize);
        net.route_broadcast(
            &mut q,
            &mut arena,
            from,
            N,
            Time(clock),
            clock,
            &mut staging,
        );
        acc = acc.wrapping_add(drain(&mut q, &mut arena));
        clock += 1;
    }
    let after = ALLOC.allocations();
    assert_eq!(
        after - before,
        0,
        "{} heap allocations across 256 warmed-up broadcasts at n = {N} \
         (the routed-broadcast steady state must be allocation-free)",
        after - before,
    );
    assert!(arena.is_empty(), "probe left live payloads");
    std::hint::black_box(acc);
}
