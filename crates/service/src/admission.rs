//! Cost-aware admission control.
//!
//! Every request is priced in *model seconds* using the paper's workload
//! model (`framework::model`): a request on a non-resident tile pays the
//! triangulation term `c·n·log₂n`, one whose estimator table is not yet
//! filled pays that table's multiple of it, and every request pays the
//! render term `α·n^β`. Admission keeps a running
//! sum of admitted-but-unfinished cost (the *priced backlog*); once it
//! would exceed the configured budget, the request is shed with a typed
//! [`ServiceError::Overloaded`] whose `retry_after_ms` estimates how long
//! the excess takes to drain across the worker pool.
//!
//! Pricing is advisory, not a reservation: residency may change between
//! pricing and serving, which at worst misprices one build. The budget
//! bounds *expected* queueing delay, which is exactly what an upstream
//! retry policy needs.

use crate::error::ServiceError;
use dtfe_core::EstimatorKind;
use dtfe_framework::WorkloadModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub struct Admission {
    /// Budget in priced seconds, stored as f64 bits so operators can
    /// retune it at runtime without contending the backlog lock.
    budget_bits: AtomicU64,
    workers: usize,
    model: WorkloadModel,
    backlog_s: Mutex<f64>,
}

impl Admission {
    pub fn new(model: WorkloadModel, budget_s: f64, workers: usize) -> Admission {
        Admission {
            budget_bits: AtomicU64::new(budget_s.to_bits()),
            workers: workers.max(1),
            model,
            backlog_s: Mutex::new(0.0),
        }
    }

    /// Current admission budget in priced seconds.
    pub fn budget_s(&self) -> f64 {
        f64::from_bits(self.budget_bits.load(Ordering::Relaxed))
    }

    /// Retune the admission budget at runtime — an operator control for
    /// load shedding (`0.0` sheds everything, forcing degraded serving
    /// where the service allows it).
    pub fn set_budget(&self, budget_s: f64) {
        self.budget_bits
            .store(budget_s.max(0.0).to_bits(), Ordering::Relaxed);
    }

    /// Price one request: `n` is the padded particle count of its tile,
    /// `mesh_resident` whether the tile's triangulation is (currently)
    /// cached, and `table_to_fill` the estimator whose table the request
    /// will have to fill, if it is not there yet
    /// ([`EstimatorKind::table_cost_factor`] triangulations' worth: PS-DTFE
    /// adds gradient solves, stochastic `k` jittered triangulations).
    pub fn price(
        &self,
        n: usize,
        mesh_resident: bool,
        table_to_fill: Option<EstimatorKind>,
    ) -> f64 {
        let n = n as f64;
        let tri = self.model.tri.predict(n);
        let mesh = if mesh_resident { 0.0 } else { tri };
        let table = table_to_fill.map_or(0.0, |kind| tri * kind.table_cost_factor());
        mesh + table + self.model.interp.predict(n)
    }

    /// Admit a request of the given priced cost, or shed it.
    pub fn try_admit(&self, cost_s: f64) -> Result<(), ServiceError> {
        let budget_s = self.budget_s();
        let mut backlog = self.backlog_s.lock().unwrap();
        if *backlog + cost_s > budget_s {
            let excess = (*backlog + cost_s - budget_s).max(0.0);
            // The pool drains `workers` priced seconds per wall second;
            // floor the hint so clients never busy-spin on retries.
            let retry_after_ms = ((excess / self.workers as f64) * 1e3).ceil().max(10.0) as u64;
            dtfe_telemetry::counter_add!("service.admission_shed", 1);
            return Err(ServiceError::Overloaded { retry_after_ms });
        }
        *backlog += cost_s;
        dtfe_telemetry::gauge_set!("service.priced_backlog_ms", (*backlog * 1e3) as i64);
        Ok(())
    }

    /// Return a request's cost to the pool once it finishes (served,
    /// failed, or dropped on deadline).
    pub fn complete(&self, cost_s: f64) {
        let mut backlog = self.backlog_s.lock().unwrap();
        *backlog = (*backlog - cost_s).max(0.0);
        dtfe_telemetry::gauge_set!("service.priced_backlog_ms", (*backlog * 1e3) as i64);
    }

    /// Current priced backlog in seconds.
    pub fn backlog_s(&self) -> f64 {
        *self.backlog_s.lock().unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::default_model;

    const STOCHASTIC: EstimatorKind = EstimatorKind::Stochastic { realizations: 4 };

    #[test]
    fn resident_tiles_price_cheaper() {
        let adm = Admission::new(default_model(), 1.0, 2);
        let cold = adm.price(100_000, false, Some(EstimatorKind::Dtfe));
        let warm = adm.price(100_000, true, None);
        assert!(cold > warm);
        assert!(warm > 0.0);
    }

    #[test]
    fn mesh_and_table_terms_add_up() {
        let adm = Admission::new(default_model(), 1.0, 2);
        let n = 100_000;
        let tri = default_model().tri.predict(n as f64);
        let render = adm.price(n, true, None);
        // Cold: one triangulation for DTFE, 1.5 for PS-DTFE, k + 1 for
        // stochastic.
        let cold = |kind| adm.price(n, false, Some(kind)) - render;
        assert!((cold(EstimatorKind::Dtfe) - tri).abs() < 1e-12 * tri);
        assert!((cold(EstimatorKind::PsDtfe) - 1.5 * tri).abs() < 1e-12 * tri);
        assert!((cold(STOCHASTIC) - 5.0 * tri).abs() < 1e-12 * tri);
        // A resident mesh erases the mesh term only: a second estimator on
        // a warm tile still pays for its table.
        let warm = |kind| adm.price(n, true, Some(kind)) - render;
        assert_eq!(warm(EstimatorKind::Dtfe), 0.0);
        assert!((warm(EstimatorKind::VelocityDivergence) - 0.5 * tri).abs() < 1e-12 * tri);
        assert!((warm(STOCHASTIC) - 4.0 * tri).abs() < 1e-12 * tri);
    }

    #[test]
    fn sheds_once_backlog_exceeds_budget_and_drains_on_complete() {
        // Each cold 1M-point request prices ≈ 4.5 s under the default
        // model; a 10 s budget fits two of them but not three.
        let adm = Admission::new(default_model(), 10.0, 2);
        let cost = adm.price(1_000_000, false, Some(EstimatorKind::Dtfe));
        assert!(cost > 3.0 && cost < 5.0, "cost {cost}");
        adm.try_admit(cost).unwrap();
        adm.try_admit(cost).unwrap();
        let shed = adm.try_admit(cost).unwrap_err();
        let ServiceError::Overloaded { retry_after_ms } = shed else {
            panic!("expected Overloaded, got {shed:?}");
        };
        assert!(retry_after_ms >= 10);
        // Draining one admits the next.
        adm.complete(cost);
        adm.try_admit(cost).unwrap();
        adm.complete(cost);
        adm.complete(cost);
        assert!(adm.backlog_s() < cost);
    }

    #[test]
    fn backlog_never_goes_negative() {
        let adm = Admission::new(default_model(), 1.0, 1);
        adm.complete(5.0);
        assert_eq!(adm.backlog_s(), 0.0);
    }
}
