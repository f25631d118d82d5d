//! Registry registration for the baseline algorithms.

use crate::admission::{Buyback, CreditSqrtM, GreedyNonPreemptive, PreemptCheapest, RandomPreempt};
use crate::stochastic::{LcbGreedy, LpResolve};
use acmr_core::registry::Registry;
use acmr_core::AcmrError;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Register every baseline admission algorithm — the worst-case
/// baselines `greedy`, `preempt-cheapest`, `credit-sqrt-m`,
/// `random-preempt`, the cancellation-cost policy `buyback`
/// (`?factor=`), and the stochastic policies `lp-resolve`
/// (`?period=`, `?buffer=`) and `lcb-greedy` (`?delta=`).
///
/// The worst-case baselines take no tuning parameters; only the shared
/// `seed` key is accepted (and only `random-preempt` consumes
/// randomness). The tunable policies are deterministic:
/// `buyback?factor=0.5`, `lp-resolve?period=1024&buffer=0.05`,
/// `lcb-greedy?delta=0.05`.
pub fn register_baselines(reg: &mut Registry) {
    reg.register(
        "greedy",
        "FCFS non-preemptive greedy: accept iff it fits (BKK's (c+1)-competitive flavour)",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed"])?;
            Ok(Box::new(GreedyNonPreemptive::new(ctx.capacities)))
        }),
    );
    reg.register(
        "preempt-cheapest",
        "evict cheapest conflicting requests when cheaper than rejecting the newcomer",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed"])?;
            Ok(Box::new(PreemptCheapest::new(ctx.capacities)))
        }),
    );
    reg.register(
        "credit-sqrt-m",
        "credit/charging scheme in the spirit of BKK's O(sqrt m) algorithm",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed"])?;
            Ok(Box::new(CreditSqrtM::new(ctx.capacities)))
        }),
    );
    reg.register(
        "random-preempt",
        "preempt uniformly random victims to make room (control baseline)",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed"])?;
            let seed = ctx.effective_seed(spec)?;
            Ok(Box::new(RandomPreempt::new(
                ctx.capacities,
                StdRng::seed_from_u64(seed),
            )))
        }),
    );
    reg.register(
        "buyback",
        "cancellation-cost admission: upgrade past the (1+delta) margin, pay factor*cost per preemption",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed", "factor"])?;
            let factor = spec.get::<f64>("factor")?.unwrap_or(0.5);
            if !factor.is_finite() || factor < 0.0 {
                return Err(bad_param("factor", factor, "must be finite and >= 0"));
            }
            Ok(Box::new(Buyback::new(ctx.capacities, factor)))
        }),
    );
    reg.register(
        "lp-resolve",
        "periodic fluid LP re-solve; plan-enforcing preemptive admission",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed", "period", "buffer"])?;
            let period = spec.get::<u32>("period")?.unwrap_or(128);
            let buffer = spec.get::<f64>("buffer")?.unwrap_or(0.05);
            if period == 0 {
                return Err(bad_param("period", 0, "must be >= 1"));
            }
            if !(0.0..1.0).contains(&buffer) {
                return Err(bad_param("buffer", buffer, "must be in [0,1)"));
            }
            Ok(Box::new(LpResolve::new(ctx.capacities, period, buffer)))
        }),
    );
    reg.register(
        "lcb-greedy",
        "greedy with a lower-confidence-bound demand guard on contested edges",
        Box::new(|spec, ctx| {
            spec.reject_unknown_params(&["seed", "delta"])?;
            let delta = spec.get::<f64>("delta")?.unwrap_or(0.05);
            if !(0.0..1.0).contains(&delta) {
                return Err(bad_param("delta", delta, "must be in [0,1)"));
            }
            Ok(Box::new(LcbGreedy::new(ctx.capacities, delta)))
        }),
    );
}

fn bad_param(key: &str, value: impl ToString, reason: &str) -> AcmrError {
    AcmrError::BadParam {
        key: key.into(),
        value: value.to_string(),
        reason: reason.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acmr_core::registry::BuildCtx;
    use acmr_core::{OnlineAdmission as _, Request, RequestId};
    use acmr_graph::{EdgeId, EdgeSet};

    #[test]
    fn all_baselines_register_and_build() {
        let mut reg = Registry::new();
        register_baselines(&mut reg);
        assert_eq!(
            reg.names(),
            vec![
                "buyback",
                "credit-sqrt-m",
                "greedy",
                "lcb-greedy",
                "lp-resolve",
                "preempt-cheapest",
                "random-preempt"
            ]
        );
        let caps = vec![2u32, 2];
        let ctx = BuildCtx::new(&caps).with_seed(1);
        for name in reg.names() {
            let mut alg = reg.build(name, &ctx).unwrap();
            let req = Request::unit(EdgeSet::singleton(EdgeId(0)));
            assert!(alg.on_request(RequestId(0), &req).accepted, "{name}");
        }
    }

    #[test]
    fn random_preempt_is_reproducible_from_spec_seed() {
        let mut reg = Registry::new();
        register_baselines(&mut reg);
        let caps = vec![1u32];
        let ctx = BuildCtx::new(&caps);
        let drive = |mut alg: Box<dyn acmr_core::OnlineAdmission>| -> Vec<bool> {
            (0..6)
                .map(|i| {
                    let req = Request::unit(EdgeSet::singleton(EdgeId(0)));
                    alg.on_request(RequestId(i), &req).accepted
                })
                .collect()
        };
        let a = drive(reg.build("random-preempt?seed=9", &ctx).unwrap());
        let b = drive(reg.build("random-preempt?seed=9", &ctx).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn tuning_params_are_rejected() {
        let mut reg = Registry::new();
        register_baselines(&mut reg);
        let caps = vec![1u32];
        assert!(reg
            .build("greedy?threshold=2", &BuildCtx::new(&caps))
            .is_err());
    }

    #[test]
    fn stochastic_policy_params_parse_and_validate() {
        let mut reg = Registry::new();
        register_baselines(&mut reg);
        let caps = vec![2u32, 2];
        let ctx = BuildCtx::new(&caps);
        assert!(reg
            .build("lp-resolve?period=1024&buffer=0.05", &ctx)
            .is_ok());
        assert!(reg.build("lcb-greedy?delta=0.05", &ctx).is_ok());
        // Out-of-range values are typed errors, not silent clamps.
        assert!(reg.build("lp-resolve?period=0", &ctx).is_err());
        assert!(reg.build("lp-resolve?buffer=1.5", &ctx).is_err());
        assert!(reg.build("lcb-greedy?delta=2", &ctx).is_err());
        // Unknown keys rejected like everywhere else.
        assert!(reg.build("lp-resolve?horizon=9", &ctx).is_err());
    }

    #[test]
    fn buyback_factor_parses_and_validates() {
        let mut reg = Registry::new();
        register_baselines(&mut reg);
        let caps = vec![2u32, 2];
        let ctx = BuildCtx::new(&caps);
        // Valid factors, including 0 (free preemption).
        for spec in ["buyback", "buyback?factor=0", "buyback?factor=1.5"] {
            assert!(reg.build(spec, &ctx).is_ok(), "{spec}");
        }
        // The built algorithm advertises its factor to the session.
        let alg = reg.build("buyback?factor=0.25", &ctx).unwrap();
        assert_eq!(alg.buyback_factor(), 0.25);
        let alg = reg.build("buyback", &ctx).unwrap();
        assert_eq!(alg.buyback_factor(), 0.5, "default factor");
        // Bad factors are typed errors, not silent clamps.
        for spec in [
            "buyback?factor=-1",
            "buyback?factor=nan",
            "buyback?factor=inf",
        ] {
            assert!(reg.build(spec, &ctx).is_err(), "{spec}");
        }
        // Unknown keys rejected like everywhere else.
        assert!(reg.build("buyback?margin=2", &ctx).is_err());
    }
}
