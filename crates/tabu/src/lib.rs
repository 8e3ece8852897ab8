//! # mkp-tabu — the sequential tabu-search engine (paper Fig. 1)
//!
//! The slave-side procedure of Niar & Fréville's parallel tabu search:
//! Drop/Add moves against the most saturated constraint, a recency tabu list
//! with aspiration, swap and strategic-oscillation intensification, and
//! frequency-memory diversification. The engine is generic over its
//! [`tabu_list::TabuMemory`], so the two self-tuning alternatives discussed
//! in the paper's §4.1 — the Reverse Elimination Method ([`rem`]) and
//! Reactive Tabu Search ([`reactive`]) — run in the identical harness for
//! the ablation experiments. The cited critical-event baseline ([`cets`]),
//! width-K neighborhood examination ([`neighborhood`]) and elite path
//! relinking ([`relink`]) complete the era's toolbox.
//!
//! ```
//! use mkp::generate::{gk_instance, GkSpec};
//! use mkp::eval::Ratios;
//! use mkp::greedy::greedy;
//! use mkp::Xoshiro256;
//! use mkp_tabu::search::{run, Budget, TsConfig};
//!
//! let inst = gk_instance("demo", GkSpec { n: 60, m: 5, tightness: 0.5, seed: 1 });
//! let ratios = Ratios::new(&inst);
//! let init = greedy(&inst, &ratios);
//! let mut rng = Xoshiro256::seed_from_u64(42);
//! let report = run(&inst, &ratios, init.clone(),
//!                  &TsConfig::default_for(inst.n()), Budget::evals(50_000), &mut rng);
//! assert!(report.best.value() >= init.value());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cets;
pub mod diversify;
pub mod elite;
pub mod history;
pub mod intensify;
pub mod moves;
pub mod neighborhood;
pub mod oscillate;
pub mod reactive;
pub mod relink;
pub mod rem;
pub mod search;
pub mod strategy;
pub mod tabu_list;

pub use neighborhood::MoveSelection;
pub use search::{run, run_with_memory, Budget, SearchReport, TsConfig};
pub use strategy::{Strategy, StrategyBounds};
