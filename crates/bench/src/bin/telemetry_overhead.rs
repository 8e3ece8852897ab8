//! A/B measurement of the telemetry layer's end-to-end cost (M1 hygiene
//! for PRs that touch the engine's hot path): the same seeded CTS1 run is
//! timed with telemetry enabled and disabled, and the median overhead is
//! reported and written to `results/telemetry-overhead.json`.
//!
//! ```text
//! cargo run --release -p mkp-bench --bin telemetry_overhead [-- --smoke] [--json PATH]
//! ```
//!
//! The alternating on/off schedule keeps slow drift (thermal, scheduler)
//! from biasing one arm; medians over the repetitions absorb outliers.

use mkp::generate::{gk_instance, GkSpec};
use mkp_bench::median;
use parallel_tabu::{Engine, Mode, RunConfig};
use std::hint::black_box;

/// Process CPU seconds (all threads). Preemption by other processes does
/// not advance this clock, so on oversubscribed machines — a CI
/// container time-slicing one core — it resolves sub-percent A/B
/// differences that wall clock buries in scheduler noise.
#[cfg(unix)]
fn cpu_now() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Wall-clock fallback where the POSIX CPU clock is unavailable.
#[cfg(not(unix))]
fn cpu_now() -> f64 {
    use std::sync::OnceLock;
    use std::time::Instant;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64()
}

fn main() {
    let mut smoke = false;
    let mut json_path = "results/telemetry-overhead.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => {
                json_path = args.next().unwrap_or_else(|| {
                    eprintln!("--json requires a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    // The full run must be long enough (hundreds of ms) that the timer
    // resolves sub-percent differences, and the repetitions numerous
    // enough that each arm catches several quiet scheduler windows — the
    // floor over the reps is the figure of merit. The smoke arm only
    // proves the binary runs.
    let (budget, reps) = if smoke {
        (150_000u64, 3usize)
    } else {
        (20_000_000, 25)
    };
    let inst = gk_instance(
        "overhead",
        GkSpec {
            n: 250,
            m: 10,
            tightness: 0.5,
            seed: 11,
        },
    );
    // p = 1 on purpose: the master sleeps in recv while the lone slave
    // computes, so the farm runs essentially contention-free and the A/B
    // difference isolates the telemetry cost instead of the scheduler's
    // mood (wider farms on small machines time-slice a single core and
    // drown a percent-level signal in multi-percent run-to-run noise).
    let cfg = RunConfig {
        p: 1,
        rounds: 4,
        ..RunConfig::new(budget, 42)
    };

    // One persistent engine per arm: pool spawn/teardown stays outside
    // the timed region (that is the Engine's deployment model anyway),
    // and an untimed warmup run per arm absorbs first-touch costs.
    let mut on_engine = Engine::new(cfg.p);
    on_engine.set_telemetry(true);
    let mut off_engine = Engine::new(cfg.p);
    off_engine.set_telemetry(false);
    for engine in [&mut on_engine, &mut off_engine] {
        let warm = engine
            .run(&inst, Mode::Cooperative, &cfg)
            .expect("warmup run failed");
        black_box(warm.best.value());
    }

    let mut with_tel = Vec::with_capacity(reps);
    let mut without_tel = Vec::with_capacity(reps);
    for rep in 0..reps {
        for enabled in [true, false] {
            let engine = if enabled {
                &mut on_engine
            } else {
                &mut off_engine
            };
            let t0 = cpu_now();
            let report = engine
                .run(&inst, Mode::Cooperative, &cfg)
                .expect("overhead run failed");
            let secs = cpu_now() - t0;
            black_box(report.best.value());
            if enabled {
                with_tel.push(secs);
            } else {
                without_tel.push(secs);
            }
            eprintln!(
                "rep {rep} telemetry={enabled:<5} {:>9.1} cpu-ms",
                secs * 1e3
            );
        }
    }

    // The headline figure is the median of the *paired* per-rep
    // differences: each on-run is compared against the off-run adjacent
    // to it in time, so slowly varying ambient load (a shared CI host)
    // cancels out of every pair, and the median discards the pairs a
    // load spike split. Floors and medians are reported alongside as the
    // honest noise indicators.
    let diffs: Vec<f64> = with_tel
        .iter()
        .zip(&without_tel)
        .map(|(on, off)| on - off)
        .collect();
    let on_min_ms = with_tel.iter().copied().fold(f64::MAX, f64::min) * 1e3;
    let off_min_ms = without_tel.iter().copied().fold(f64::MAX, f64::min) * 1e3;
    let on_med_ms = median(&with_tel) * 1e3;
    let off_med_ms = median(&without_tel) * 1e3;
    let overhead_pct = 100.0 * median(&diffs) * 1e3 / off_med_ms;
    println!("telemetry on  (min / median): {on_min_ms:.1} / {on_med_ms:.1} cpu-ms");
    println!("telemetry off (min / median): {off_min_ms:.1} / {off_med_ms:.1} cpu-ms");
    println!("overhead (paired median)    : {overhead_pct:+.2}%");

    let clock = if cfg!(unix) { "process_cpu" } else { "wall" };
    let json = format!(
        "{{\n  \"schema\": \"mkp-telemetry/overhead/v1\",\n  \"smoke\": {smoke},\n  \
         \"mode\": \"CTS1\",\n  \"p\": {},\n  \"rounds\": {},\n  \"budget_evals\": {budget},\n  \
         \"reps\": {reps},\n  \"clock\": \"{clock}\",\n  \"telemetry_on_min_ms\": {on_min_ms:.3},\n  \
         \"telemetry_off_min_ms\": {off_min_ms:.3},\n  \
         \"telemetry_on_median_ms\": {on_med_ms:.3},\n  \
         \"telemetry_off_median_ms\": {off_med_ms:.3},\n  \
         \"overhead_pct\": {overhead_pct:.3}\n}}\n",
        cfg.p, cfg.rounds,
    );
    if let Some(dir) = std::path::Path::new(&json_path).parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    if let Err(e) = std::fs::write(&json_path, json) {
        eprintln!("cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!("json report: {json_path}");
}
