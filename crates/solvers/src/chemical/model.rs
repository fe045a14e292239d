//! Physical model of the 2-species advection–diffusion problem
//! (Section 4.2, equations 7–10).
//!
//! Two chemical species react and are transported in a two-dimensional
//! domain. The constants, reaction terms, diurnal rate coefficients and
//! initial profile below are transcribed from the paper. One transcription
//! note: the paper's β(z) mixes `(0.1z−1)²` and `(0.1z−4)⁴`; we use
//! `(0.1z−1)` in both terms (the standard form of this classical test
//! problem), which keeps β smooth and in [1/2, 1] over the domain — the
//! change only affects the initial profile shape, not the structure or cost
//! of the computation.

use serde::{Deserialize, Serialize};

/// Horizontal diffusion coefficient `Kh`.
pub const KH: f64 = 4.0e-6;
/// Horizontal advection velocity `V`.
pub const V: f64 = 1.0e-3;
/// Third-body concentration `c3`.
pub const C3: f64 = 3.7e16;
/// Reaction rate `q1`.
pub const Q1: f64 = 1.63e-16;
/// Reaction rate `q2`.
pub const Q2: f64 = 4.66e-16;
/// Exponent `a3` of the diurnal coefficient `q3(t)`.
pub const A3: f64 = 22.62;
/// Exponent `a4` of the diurnal coefficient `q4(t)`.
pub const A4: f64 = 7.601;
/// Diurnal pulsation ω = π / 43200 (a 24-hour cycle).
pub const OMEGA: f64 = std::f64::consts::PI / 43_200.0;

/// Typical magnitude of species 1, used to express residuals relatively.
pub const C1_SCALE: f64 = 1.0e6;
/// Typical magnitude of species 2.
pub const C2_SCALE: f64 = 1.0e12;

/// Vertical diffusion coefficient `Kv(z) = 1e-8 · exp(z / 5)`.
pub fn kv(z: f64) -> f64 {
    1.0e-8 * (z / 5.0).exp()
}

/// Diurnal rate coefficient `q3(t)`.
pub fn q3(t: f64) -> f64 {
    diurnal(t, A3)
}

/// Diurnal rate coefficient `q4(t)`.
pub fn q4(t: f64) -> f64 {
    diurnal(t, A4)
}

fn diurnal(t: f64, a: f64) -> f64 {
    let s = (OMEGA * t).sin();
    if s > 0.0 {
        (-a / s).exp()
    } else {
        0.0
    }
}

/// Reaction terms `R1` and `R2` of equation (8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Reaction {
    /// `R1(c1, c2, t)`.
    pub r1: f64,
    /// `R2(c1, c2, t)`.
    pub r2: f64,
}

/// The diurnal coefficients `q3(t)` and `q4(t)` evaluated at one time. They
/// cost a `sin` and an `exp` each, so a time step evaluates them once and
/// every grid point reuses them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DiurnalRates {
    /// `q3(t)`.
    pub q3: f64,
    /// `q4(t)`.
    pub q4: f64,
}

impl DiurnalRates {
    /// The coefficients at time `t`.
    pub fn at(t: f64) -> Self {
        Self {
            q3: q3(t),
            q4: q4(t),
        }
    }
}

/// Evaluates the reaction terms at concentrations `(c1, c2)` and time `t`.
pub fn reaction(c1: f64, c2: f64, t: f64) -> Reaction {
    reaction_with(c1, c2, DiurnalRates::at(t))
}

/// Evaluates the reaction terms at concentrations `(c1, c2)` with the
/// diurnal coefficients already evaluated.
pub fn reaction_with(c1: f64, c2: f64, rates: DiurnalRates) -> Reaction {
    let DiurnalRates { q3: q3t, q4: q4t } = rates;
    Reaction {
        r1: -Q1 * c1 * C3 - Q2 * c1 * c2 + 2.0 * q3t * C3 + q4t * c2,
        r2: Q1 * c1 * C3 - Q2 * c1 * c2 + q4t * c2,
    }
}

/// Partial derivatives of the reaction terms with respect to `(c1, c2)`,
/// used to assemble the Newton Jacobian.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReactionJacobian {
    /// ∂R1/∂c1.
    pub dr1_dc1: f64,
    /// ∂R1/∂c2.
    pub dr1_dc2: f64,
    /// ∂R2/∂c1.
    pub dr2_dc1: f64,
    /// ∂R2/∂c2.
    pub dr2_dc2: f64,
}

/// Evaluates the reaction Jacobian at `(c1, c2)` and time `t`.
pub fn reaction_jacobian(c1: f64, c2: f64, t: f64) -> ReactionJacobian {
    reaction_jacobian_with(c1, c2, DiurnalRates::at(t))
}

/// Evaluates the reaction Jacobian at `(c1, c2)` with the diurnal
/// coefficients already evaluated.
pub fn reaction_jacobian_with(c1: f64, c2: f64, rates: DiurnalRates) -> ReactionJacobian {
    let q4t = rates.q4;
    ReactionJacobian {
        dr1_dc1: -Q1 * C3 - Q2 * c2,
        dr1_dc2: -Q2 * c1 + q4t,
        dr2_dc1: Q1 * C3 - Q2 * c2,
        dr2_dc2: -Q2 * c1 + q4t,
    }
}

/// Horizontal profile α(x) of the initial condition (equation 10).
pub fn alpha(x: f64) -> f64 {
    let u = 0.1 * x - 1.0;
    1.0 - u * u + u.powi(4) / 2.0
}

/// Vertical profile β(z) of the initial condition (see the transcription note
/// in the module documentation).
pub fn beta(z: f64) -> f64 {
    let u = 0.1 * z - 1.0;
    1.0 - u * u + u.powi(4) / 2.0
}

/// Initial concentrations `(c1, c2)` at a point `(x, z)` (equation 9).
pub fn initial_concentrations(x: f64, z: f64) -> (f64, f64) {
    let profile = alpha(x) * beta(z);
    (C1_SCALE * profile, C2_SCALE * profile)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_grows_exponentially_with_altitude() {
        assert!((kv(0.0) - 1.0e-8).abs() < 1e-20);
        assert!((kv(5.0) - 1.0e-8 * std::f64::consts::E).abs() < 1e-20);
        assert!(kv(20.0) > kv(10.0));
    }

    #[test]
    fn diurnal_coefficients_vanish_at_night() {
        // sin(ωt) <= 0 on the second half of the cycle
        assert_eq!(q3(0.0), 0.0);
        assert_eq!(q3(43_200.0 + 10.0), 0.0);
        assert_eq!(q4(2.0 * 43_200.0), 0.0);
    }

    #[test]
    fn diurnal_coefficients_peak_at_noon() {
        let noon = 43_200.0 / 2.0;
        assert!(q3(noon) > q3(1_000.0));
        assert!(q4(noon) > q4(1_000.0));
        assert!((q3(noon) - (-A3).exp()).abs() < 1e-18);
    }

    #[test]
    fn reaction_terms_balance_species_exchange() {
        // During the night (q3 = q4 = 0) the production of species 2 equals
        // the photolysis loss of species 1 minus the mutual destruction term.
        let c1 = 1e6;
        let c2 = 1e12;
        let r = reaction(c1, c2, 0.0);
        assert!(r.r1 < 0.0, "species 1 is consumed");
        assert!(r.r2 > 0.0, "species 2 is produced");
        assert!((r.r1 + r.r2 - (-2.0 * Q2 * c1 * c2)).abs() < (r.r1.abs() * 1e-12));
    }

    #[test]
    fn reaction_jacobian_matches_finite_differences() {
        let (c1, c2, t) = (2.3e6, 0.8e12, 500.0);
        let j = reaction_jacobian(c1, c2, t);
        let h1 = 1.0;
        let h2 = 1e6;
        let base = reaction(c1, c2, t);
        let d1 = reaction(c1 + h1, c2, t);
        let d2 = reaction(c1, c2 + h2, t);
        assert!((j.dr1_dc1 - (d1.r1 - base.r1) / h1).abs() < 1e-6 * j.dr1_dc1.abs());
        assert!((j.dr2_dc1 - (d1.r2 - base.r2) / h1).abs() < 1e-6 * j.dr2_dc1.abs());
        assert!((j.dr1_dc2 - (d2.r1 - base.r1) / h2).abs() < 1e-6);
        assert!((j.dr2_dc2 - (d2.r2 - base.r2) / h2).abs() < 1e-6);
    }

    #[test]
    fn initial_profile_is_positive_and_peaks_mid_domain() {
        for &(x, z) in &[(0.0, 0.0), (10.0, 10.0), (20.0, 20.0), (5.0, 15.0)] {
            let (c1, c2) = initial_concentrations(x, z);
            assert!(c1 > 0.0 && c2 > 0.0);
            assert!((c2 / c1 - 1e6).abs() < 1e-6 * 1e6);
        }
        let (centre, _) = initial_concentrations(10.0, 10.0);
        let (corner, _) = initial_concentrations(0.0, 0.0);
        assert!(centre > corner);
    }

    #[test]
    fn alpha_and_beta_are_bounded_on_the_domain() {
        for i in 0..=20 {
            let v = i as f64;
            assert!(alpha(v) > 0.4 && alpha(v) <= 1.0 + 1e-12);
            assert!(beta(v) > 0.4 && beta(v) <= 1.0 + 1e-12);
        }
    }
}
