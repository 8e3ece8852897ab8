//! Regression gate: the best-of-K neighborhood scan must not touch the
//! heap once its scratch buffers are warm. A counting global allocator
//! watches a long steady-state run of [`best_of_k_move_in`]; any
//! allocation (or reallocation) on the hot path fails the test. The
//! ejection chain may allocate its scratch once per call, never per item.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide; for the same reason the tests
//! take turns (`SERIAL`), so one test's allocations never land in
//! another's armed window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use mkp::eval::Ratios;
use mkp::generate::{gk_instance, GkSpec};
use mkp::greedy::greedy;
use mkp::Xoshiro256;
use mkp_tabu::intensify::ejection_chain_intensification;
use mkp_tabu::moves::MoveStats;
use mkp_tabu::neighborhood::{best_of_k_move_in, NeighborhoodScratch};
use mkp_tabu::tabu_list::Recency;

/// Pass-through allocator that counts heap traffic while armed.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SERIAL: Mutex<()> = Mutex::new(());

/// Take this binary's turn. A failing test poisons the lock, but it guards
/// no data, so the next test can still run.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn apply_move_steady_state_is_allocation_free() {
    use mkp_tabu::moves::apply_move;
    let _serial = serial();
    let inst = gk_instance(
        "na2",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 7,
        },
    );
    let ratios = Ratios::new(&inst);
    let mut sol = greedy(&inst, &ratios);
    let mut tabu = Recency::new(inst.n(), 15);
    let mut stats = MoveStats::default();
    let mut rng = Xoshiro256::seed_from_u64(8);
    let mut now = 0u64;
    for _ in 0..5_000 {
        apply_move(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            now,
            2,
            i64::MAX,
            0.1,
            &mut rng,
            &mut stats,
        );
        now += 1;
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..10_000 {
        apply_move(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            now,
            2,
            i64::MAX,
            0.1,
            &mut rng,
            &mut stats,
        );
        now += 1;
    }
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "apply_move allocated {allocs} time(s) over 10k steady-state moves"
    );
}

#[test]
fn best_of_k_steady_state_is_allocation_free() {
    let _serial = serial();
    let inst = gk_instance(
        "na",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 7,
        },
    );
    let ratios = Ratios::new(&inst);
    let mut sol = greedy(&inst, &ratios);
    let mut tabu = Recency::new(inst.n(), 15);
    let mut stats = MoveStats::default();
    let mut rng = Xoshiro256::seed_from_u64(8);
    let mut scratch = NeighborhoodScratch::new();
    let mut now = 0u64;

    // Warm-up: let every lazily-grown buffer (neighborhood slots, the
    // move workspace, tabu census queue, stats) reach its steady size.
    for _ in 0..5_000 {
        best_of_k_move_in(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            now,
            2,
            i64::MAX,
            0.1,
            4,
            false,
            &mut rng,
            &mut stats,
            &mut scratch,
        );
        now += 1;
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..10_000 {
        best_of_k_move_in(
            &inst,
            &ratios,
            &mut sol,
            &mut tabu,
            now,
            2,
            i64::MAX,
            0.1,
            4,
            false,
            &mut rng,
            &mut stats,
            &mut scratch,
        );
        now += 1;
    }
    ARMED.store(false, Ordering::SeqCst);

    let allocs = ALLOCS.load(Ordering::SeqCst) - before;
    assert_eq!(
        allocs, 0,
        "best_of_k_move_in allocated {allocs} time(s) over 10k steady-state moves"
    );
}

/// One ejection-chain call allocates its trial solution and scoring
/// buffers up front and reuses them for every entrant it tries, so the
/// count is the same small constant at 250 items as at 500 (allocating
/// per tried item, it was twice the number of entrants tried).
#[test]
fn ejection_chain_allocates_a_constant_per_call() {
    let _serial = serial();
    for (n, m) in [(250, 10), (500, 25)] {
        let inst = gk_instance(
            "ej",
            GkSpec {
                n,
                m,
                tightness: 0.5,
                seed: 7,
            },
        );
        let start = greedy(&inst, &Ratios::new(&inst));
        // Warm-up call: nothing lazily initialised is charged below.
        ejection_chain_intensification(&inst, &mut start.clone(), &mut MoveStats::default(), 3);
        let mut sol = start.clone();
        let mut stats = MoveStats::default();
        let before = ALLOCS.load(Ordering::SeqCst);
        ARMED.store(true, Ordering::SeqCst);
        let improvements = ejection_chain_intensification(&inst, &mut sol, &mut stats, 3);
        ARMED.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst) - before;
        assert!(
            improvements > 0 && stats.candidate_evals > 0,
            "{m}x{n}: the call must do real work for the count to mean anything"
        );
        assert!(
            allocs <= 8,
            "{m}x{n}: one ejection-chain call allocated {allocs} time(s)"
        );
    }
}
