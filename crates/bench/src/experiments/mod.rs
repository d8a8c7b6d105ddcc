//! The fourteen experiments of EXPERIMENTS.md as
//! [`Experiment`](sim_runtime::Experiment)
//! implementations.
//!
//! Each experiment used to be a standalone binary printing straight to
//! stdout; the bodies now build deterministic [`sim_runtime::Report`]s
//! so that the e2e suite can iterate [`registry`] and the determinism
//! suite can byte-compare reports across `--threads` settings. The
//! `experiments` binary runs any of them by name through
//! [`sim_runtime::run_cli_args`].

mod e1;
mod e10;
mod e11;
mod e12;
mod e13;
mod e14;
mod e2;
mod e3;
mod e4;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;

pub use e1::E1;
pub use e10::E10;
pub use e11::E11;
pub use e12::E12;
pub use e13::E13;
pub use e14::E14;
pub use e2::E2;
pub use e3::E3;
pub use e4::E4;
pub use e5::E5;
pub use e6::E6;
pub use e7::E7;
pub use e8::E8;
pub use e9::E9;

use sim_runtime::Registry;

/// All experiments, `e1`–`e14`, in paper order.
#[must_use]
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register(Box::new(E1))
        .register(Box::new(E2))
        .register(Box::new(E3))
        .register(Box::new(E4))
        .register(Box::new(E5))
        .register(Box::new(E6))
        .register(Box::new(E7))
        .register(Box::new(E8))
        .register(Box::new(E9))
        .register(Box::new(E10))
        .register(Box::new(E11))
        .register(Box::new(E12))
        .register(Box::new(E13))
        .register(Box::new(E14));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_fourteen_in_order() {
        let reg = registry();
        assert_eq!(
            reg.names(),
            vec![
                "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12",
                "e13", "e14"
            ]
        );
    }

    #[test]
    fn names_match_trait_lookup() {
        let reg = registry();
        for exp in reg.iter() {
            assert!(reg.get(exp.name()).is_some());
            assert!(!exp.title().is_empty());
            assert!(!exp.paper_ref().is_empty());
        }
    }
}
