//! Algorithm parameters and the paper's skew bounds.
//!
//! `A^opt` is parameterized by (paper Sections 4–5):
//!
//! * `ε̂` — the known upper bound on the hardware drift `ε` (`ε̂ < 1`),
//! * `𝒯̂` — the known upper bound on the delay uncertainty `𝒯`,
//! * `H₀` — the send period in hardware-clock units (Algorithm 1),
//! * `μ`  — the fast-mode rate boost (Algorithm 3),
//! * `κ`  — the skew-balancing quantum (Algorithm 3, line 1).
//!
//! Correctness of the skew bounds requires (paper Eqs. 4–6):
//!
//! * `H̄₀ = (2ε̂ + μ)·H₀`                       (Eq. 5)
//! * `κ ≥ 2((1 + ε̂)(1 + μ)·𝒯̂ + H̄₀)`          (Eq. 4)
//! * `σ ≥ 2` where `σ = ⌊μ(1 − ε̂)/(7ε̂)⌋` is the largest integer with
//!   `μ ≥ 7σε̂/(1 − ε̂)`                        (Eq. 6)
//!
//! and yields (Theorems 5.5 and 5.10):
//!
//! * global skew ≤ `𝒢 = (1 + ε̂)·D·𝒯̂ + 2ε̂/(1 + ε̂)·H₀`
//! * local skew ≤ `κ(⌈log_σ(2𝒢/κ)⌉ + ½)`, the level decided exactly by
//!   [`binding_level`]

use std::error::Error;
use std::fmt;

/// Error returned for parameter combinations that violate the paper's
/// constraints.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamError {
    /// `ε̂` must satisfy `0 < ε̂ < 1`.
    EpsilonOutOfRange {
        /// Offending value.
        epsilon: f64,
    },
    /// `𝒯̂` must be non-negative and finite.
    DelayOutOfRange {
        /// Offending value.
        t_hat: f64,
    },
    /// `H₀` must be positive and finite.
    H0OutOfRange {
        /// Offending value.
        h0: f64,
    },
    /// `μ` violates Eq. (6): `μ ≥ 14ε̂/(1 − ε̂)` is required for `σ ≥ 2`.
    MuTooSmall {
        /// Offending value.
        mu: f64,
        /// Smallest admissible value.
        required: f64,
    },
    /// `κ` violates Eq. (4).
    KappaTooSmall {
        /// Offending value.
        kappa: f64,
        /// Smallest admissible value.
        required: f64,
    },
}

impl fmt::Display for ParamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamError::EpsilonOutOfRange { epsilon } => {
                write!(f, "drift bound ε̂ = {epsilon} outside (0, 1)")
            }
            ParamError::DelayOutOfRange { t_hat } => {
                write!(f, "delay bound 𝒯̂ = {t_hat} must be non-negative and finite")
            }
            ParamError::H0OutOfRange { h0 } => {
                write!(f, "send period H₀ = {h0} must be positive and finite")
            }
            ParamError::MuTooSmall { mu, required } => {
                write!(f, "μ = {mu} violates Eq. (6); need μ ≥ {required}")
            }
            ParamError::KappaTooSmall { kappa, required } => {
                write!(f, "κ = {kappa} violates Eq. (4); need κ ≥ {required}")
            }
        }
    }
}

impl Error for ParamError {}

/// Validated parameters of `A^opt` together with the paper's bound formulas.
///
/// # Example
///
/// ```
/// let p = gcs_core::Params::recommended(1e-4, 1.0)?;
/// assert!(p.sigma() >= 2);
/// // Thm 5.5: 𝒢 grows linearly with the diameter.
/// assert!(p.global_skew_bound(64) > p.global_skew_bound(32));
/// // Thm 5.10: the local skew bound grows logarithmically — a 64× larger
/// // diameter costs far less than a 3× larger bound.
/// assert!(p.local_skew_bound(4096) < 3.0 * p.local_skew_bound(64));
/// # Ok::<(), gcs_core::ParamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    epsilon_hat: f64,
    t_hat: f64,
    h0: f64,
    mu: f64,
    kappa: f64,
}

impl Params {
    /// Creates and validates an explicit parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`ParamError`] if any constraint of Eqs. (4)–(6) is
    /// violated (see the module documentation).
    pub fn new(
        epsilon_hat: f64,
        t_hat: f64,
        h0: f64,
        mu: f64,
        kappa: f64,
    ) -> Result<Self, ParamError> {
        if !(epsilon_hat.is_finite() && epsilon_hat > 0.0 && epsilon_hat < 1.0) {
            return Err(ParamError::EpsilonOutOfRange {
                epsilon: epsilon_hat,
            });
        }
        if !(t_hat.is_finite() && t_hat >= 0.0) {
            return Err(ParamError::DelayOutOfRange { t_hat });
        }
        if !(h0.is_finite() && h0 > 0.0) {
            return Err(ParamError::H0OutOfRange { h0 });
        }
        let mu_required = 14.0 * epsilon_hat / (1.0 - epsilon_hat);
        if !(mu.is_finite() && mu >= mu_required * (1.0 - 1e-12)) {
            return Err(ParamError::MuTooSmall {
                mu,
                required: mu_required,
            });
        }
        let params = Params {
            epsilon_hat,
            t_hat,
            h0,
            mu,
            kappa,
        };
        let kappa_required = params.min_kappa();
        if !(kappa.is_finite() && kappa >= kappa_required * (1.0 - 1e-12)) {
            return Err(ParamError::KappaTooSmall {
                kappa,
                required: kappa_required,
            });
        }
        Ok(params)
    }

    /// The paper's recommended instantiation: `μ = 14ε̂/(1 − ε̂)` (the
    /// smallest value giving `σ = 2`), `H₀ = 𝒯̂/μ` (so message overhead is
    /// amortized to `Θ(ε̂/𝒯̂)`, Section 6.1), and the smallest admissible
    /// `κ` from Eq. (4).
    ///
    /// # Errors
    ///
    /// Propagates validation errors for out-of-range `ε̂`/`𝒯̂` (`𝒯̂` must be
    /// strictly positive here because `H₀` is derived from it).
    pub fn recommended(epsilon_hat: f64, t_hat: f64) -> Result<Self, ParamError> {
        if !(t_hat.is_finite() && t_hat > 0.0) {
            return Err(ParamError::DelayOutOfRange { t_hat });
        }
        if !(epsilon_hat.is_finite() && epsilon_hat > 0.0 && epsilon_hat < 1.0) {
            return Err(ParamError::EpsilonOutOfRange {
                epsilon: epsilon_hat,
            });
        }
        let mu = 14.0 * epsilon_hat / (1.0 - epsilon_hat);
        let h0 = t_hat / mu;
        Self::with_h0_mu(epsilon_hat, t_hat, h0, mu)
    }

    /// Like [`Params::recommended`] but with explicit `H₀` and `μ`; `κ` is
    /// set to its Eq. (4) minimum (`κ` enters the local-skew bound linearly,
    /// so the minimum is always the right choice).
    ///
    /// # Errors
    ///
    /// Propagates validation errors.
    pub fn with_h0_mu(epsilon_hat: f64, t_hat: f64, h0: f64, mu: f64) -> Result<Self, ParamError> {
        let tentative = Params {
            epsilon_hat,
            t_hat,
            h0,
            mu,
            kappa: f64::NAN,
        };
        let kappa = tentative.min_kappa();
        Self::new(epsilon_hat, t_hat, h0, mu, kappa)
    }

    /// An instantiation targeting a logarithm base `σ`: sets
    /// `μ = 7σε̂/(1 − ε̂)` and `H₀ = 𝒯̂/μ`.
    ///
    /// Larger `σ` trades a larger fast-mode boost `μ` (hence a looser rate
    /// envelope `β`) for a smaller local skew — the trade-off quantified by
    /// Corollary 7.8.
    ///
    /// # Errors
    ///
    /// Returns an error unless `σ ≥ 2` and the remaining parameters are in
    /// range.
    pub fn with_sigma(epsilon_hat: f64, t_hat: f64, sigma: u32) -> Result<Self, ParamError> {
        if !(epsilon_hat.is_finite() && epsilon_hat > 0.0 && epsilon_hat < 1.0) {
            return Err(ParamError::EpsilonOutOfRange {
                epsilon: epsilon_hat,
            });
        }
        let mu = 7.0 * sigma.max(1) as f64 * epsilon_hat / (1.0 - epsilon_hat);
        if sigma < 2 {
            return Err(ParamError::MuTooSmall {
                mu,
                required: 14.0 * epsilon_hat / (1.0 - epsilon_hat),
            });
        }
        if !(t_hat.is_finite() && t_hat > 0.0) {
            return Err(ParamError::DelayOutOfRange { t_hat });
        }
        let h0 = t_hat / mu;
        Self::with_h0_mu(epsilon_hat, t_hat, h0, mu)
    }

    /// The drift bound `ε̂` known to the algorithm.
    pub fn epsilon_hat(&self) -> f64 {
        self.epsilon_hat
    }

    /// The delay-uncertainty bound `𝒯̂` known to the algorithm.
    pub fn t_hat(&self) -> f64 {
        self.t_hat
    }

    /// The send period `H₀` (hardware-clock units).
    pub fn h0(&self) -> f64 {
        self.h0
    }

    /// The fast-mode boost `μ`.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The balancing quantum `κ`.
    pub fn kappa(&self) -> f64 {
        self.kappa
    }

    /// `H̄₀ = (2ε̂ + μ)·H₀` (Eq. 5) — the estimate staleness contributed by
    /// periodic (rather than continuous) sending.
    pub fn h0_bar(&self) -> f64 {
        (2.0 * self.epsilon_hat + self.mu) * self.h0
    }

    /// The smallest `κ` admitted by Eq. (4).
    pub fn min_kappa(&self) -> f64 {
        2.0 * ((1.0 + self.epsilon_hat) * (1.0 + self.mu) * self.t_hat + self.h0_bar())
    }

    /// The base `σ` of the local-skew logarithm: the largest integer with
    /// `μ ≥ 7σε̂/(1 − ε̂)` (Eq. 6); always ≥ 2 for validated parameters.
    pub fn sigma(&self) -> u32 {
        (self.mu * (1.0 - self.epsilon_hat) / (7.0 * self.epsilon_hat) + 1e-9).floor() as u32
    }

    /// Theorem 5.5: the global-skew bound
    /// `𝒢 = (1 + ε̂)·D·𝒯̂ + 2ε̂/(1 + ε̂)·H₀`.
    pub fn global_skew_bound(&self, diameter: u32) -> f64 {
        (1.0 + self.epsilon_hat) * diameter as f64 * self.t_hat
            + 2.0 * self.epsilon_hat / (1.0 + self.epsilon_hat) * self.h0
    }

    /// Theorem 5.10: the local-skew bound `κ(⌈log_σ(2𝒢/κ)⌉ + ½)`, with
    /// the level `⌈log_σ(2𝒢/κ)⌉` (at least 0) decided exactly by
    /// [`binding_level`].
    pub fn local_skew_bound(&self, diameter: u32) -> f64 {
        let c0 = 2.0 * self.global_skew_bound(diameter) / self.kappa;
        self.kappa * (binding_level(1, c0, self.sigma()) as f64 + 0.5)
    }

    /// The legal-state distance threshold `C_s = (2𝒢/κ)·σ^{−s}`
    /// (Definition 5.6).
    pub fn legal_state_threshold(&self, diameter: u32, s: u32) -> f64 {
        2.0 * self.global_skew_bound(diameter) / self.kappa
            * (self.sigma() as f64).powi(-(s as i32))
    }

    /// Returns a copy with `κ` scaled by `factor`, **bypassing the Eq. (4)
    /// validation**.
    ///
    /// Exists solely for the κ-ablation experiment (`a1_kappa_ablation`),
    /// which demonstrates empirically that Eq. (4) is load-bearing: with an
    /// undersized κ the skew guarantees of Theorems 5.5/5.10 no longer
    /// hold. Never use this to *run* a deployment.
    ///
    /// # Panics
    ///
    /// Panics unless `factor` is positive and finite.
    pub fn with_kappa_factor_unchecked(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "invalid factor {factor}"
        );
        self.kappa *= factor;
        self
    }

    /// The rate envelope `[α, β] = [1 − ε̂, (1 + ε̂)(1 + μ)]` guaranteed by
    /// `A^opt` (Corollary 5.3).
    pub fn rate_envelope(&self) -> (f64, f64) {
        (
            1.0 - self.epsilon_hat,
            (1.0 + self.epsilon_hat) * (1.0 + self.mu),
        )
    }
}

/// The smallest level `s ≥ 0` with `d·σ^s ≥ c0`, i.e. with
/// `C_s = c0·σ^{−s} ≤ d`: for `c0 = 2𝒢/κ` the level of Definition 5.6 that
/// binds a pair at distance `d`, and for `d = 1` the `⌈log_σ(2𝒢/κ)⌉` of
/// Theorem 5.10.
///
/// Decided by direct comparison rather than `⌈log_σ(c0/d)⌉`, whose rounded
/// logarithm lands on either side of an exact power `c0/d = σ^k`
/// (`⌈log₅ 125⌉` evaluates to 4). The products `d·σ^s` are integers, exact
/// in f64 below 2⁵³. A non-finite `c0` stops the loop too: `∞` once the
/// product overflows, NaN at once.
///
/// # Panics
///
/// Panics unless `d ≥ 1` and `σ ≥ 2` (validated parameters give `σ ≥ 2`).
pub fn binding_level(d: u32, c0: f64, sigma: u32) -> u32 {
    assert!(d >= 1 && sigma >= 2, "binding level needs d ≥ 1, σ ≥ 2");
    let sigma = f64::from(sigma);
    let mut reach = f64::from(d);
    let mut s = 0;
    while reach < c0 && reach.is_finite() {
        reach *= sigma;
        s += 1;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binding_level_is_exact_at_powers_of_sigma() {
        // ⌈log₅(125)⌉ evaluates to 4; the binding level is 3.
        assert_eq!(binding_level(1, 125.0, 5), 3);
        assert_eq!(binding_level(2, 250.0, 5), 3);
        for sigma in 2..=10u32 {
            let mut power = 1.0f64;
            for k in 0..30u32 {
                for d in [1u32, 3, 7] {
                    let c0 = f64::from(d) * power;
                    if c0 >= 2f64.powi(53) {
                        continue;
                    }
                    assert_eq!(binding_level(d, c0, sigma), k, "σ={sigma} k={k} d={d}");
                    assert_eq!(
                        binding_level(d, c0.next_up(), sigma),
                        k + 1,
                        "σ={sigma} k={k} d={d}, just above"
                    );
                    assert_eq!(
                        binding_level(d, c0.next_down(), sigma),
                        k,
                        "σ={sigma} k={k} d={d}, just below"
                    );
                }
                power *= f64::from(sigma);
            }
        }
        // Pairs at or beyond C_0, and a degenerate threshold, bind level 0.
        assert_eq!(binding_level(9, 4.5, 2), 0);
        assert_eq!(binding_level(1, f64::NAN, 2), 0);
        assert!(binding_level(1, f64::INFINITY, 2) > 1000);
    }

    #[test]
    fn local_skew_level_is_exact_at_powers_of_sigma() {
        // κ runs over the floats around 2𝒢/σ^k; at each, the level must be
        // the smallest s with σ^s ≥ 2𝒢/κ, decided on exact integer powers.
        // At least one exact hit must be a case the rounded-logarithm
        // formula got wrong (⌈log₅ 125⌉ and ⌈log₆ 216⌉ evaluate to 4).
        let (eps, t_hat) = (0.01, 0.5);
        let mut exact_hits = 0;
        let mut log_overshoots = 0;
        for sigma in 2..=10u32 {
            let base = Params::with_sigma(eps, t_hat, sigma).unwrap();
            for diameter in (100..=2000).step_by(100) {
                let g = base.global_skew_bound(diameter);
                for k in 1..=4u32 {
                    let power = f64::from(sigma.pow(k));
                    let mut kappa = 2.0 * g / power;
                    for _ in 0..8 {
                        kappa = kappa.next_down();
                    }
                    let around = std::iter::successors(Some(kappa), |k| Some(k.next_up()));
                    for kappa in around.take(17) {
                        let Ok(p) = Params::new(eps, t_hat, base.h0(), base.mu(), kappa) else {
                            continue; // κ below Eq. (4)'s minimum
                        };
                        let c0 = 2.0 * p.global_skew_bound(diameter) / p.kappa();
                        let level = (0..).find(|&s| f64::from(sigma.pow(s)) >= c0).unwrap();
                        assert_eq!(
                            p.local_skew_bound(diameter),
                            p.kappa() * (f64::from(level) + 0.5),
                            "σ={sigma} D={diameter} κ={kappa}"
                        );
                        if c0 == power {
                            exact_hits += 1;
                            if c0.log(f64::from(sigma)).ceil() != f64::from(level) {
                                log_overshoots += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            exact_hits > 100,
            "only {exact_hits} κ hit a power of σ exactly"
        );
        assert!(
            log_overshoots > 0,
            "no exact hit exercised the old rounding"
        );
    }

    #[test]
    fn recommended_is_valid_and_sigma_two() {
        let p = Params::recommended(1e-3, 0.5).unwrap();
        assert_eq!(p.sigma(), 2);
        assert!(p.kappa() >= p.min_kappa() * (1.0 - 1e-12));
        assert!((p.h0() - 0.5 / p.mu()).abs() < 1e-12);
    }

    #[test]
    fn with_sigma_scales_mu_linearly() {
        let p2 = Params::with_sigma(1e-3, 1.0, 2).unwrap();
        let p8 = Params::with_sigma(1e-3, 1.0, 8).unwrap();
        assert!((p8.mu() / p2.mu() - 4.0).abs() < 1e-9);
        assert_eq!(p2.sigma(), 2);
        assert_eq!(p8.sigma(), 8);
    }

    #[test]
    fn with_sigma_rejects_sigma_below_two() {
        assert!(matches!(
            Params::with_sigma(1e-3, 1.0, 1),
            Err(ParamError::MuTooSmall { .. })
        ));
    }

    #[test]
    fn rejects_bad_epsilon() {
        for eps in [0.0, 1.0, -0.5, f64::NAN] {
            assert!(matches!(
                Params::recommended(eps, 1.0),
                Err(ParamError::EpsilonOutOfRange { .. })
            ));
        }
    }

    #[test]
    fn rejects_bad_delay() {
        assert!(matches!(
            Params::recommended(0.01, 0.0),
            Err(ParamError::DelayOutOfRange { .. })
        ));
        assert!(matches!(
            Params::recommended(0.01, f64::INFINITY),
            Err(ParamError::DelayOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_small_mu() {
        let eps = 0.01;
        let err = Params::new(eps, 1.0, 100.0, 0.01, 1000.0).unwrap_err();
        match err {
            ParamError::MuTooSmall { required, .. } => {
                assert!((required - 14.0 * eps / (1.0 - eps)).abs() < 1e-12);
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn rejects_small_kappa() {
        let p = Params::recommended(0.01, 1.0).unwrap();
        let err = Params::new(0.01, 1.0, p.h0(), p.mu(), p.min_kappa() * 0.9).unwrap_err();
        assert!(matches!(err, ParamError::KappaTooSmall { .. }));
    }

    #[test]
    fn eq4_matches_hand_computation() {
        // ε̂ = 0.1, μ = 14·0.1/0.9, H₀ = 2, 𝒯̂ = 1.
        let eps: f64 = 0.1;
        let mu = 14.0 * eps / (1.0 - eps);
        let p = Params::with_h0_mu(eps, 1.0, 2.0, mu).unwrap();
        let h0_bar = (2.0 * eps + mu) * 2.0;
        let kappa = 2.0 * (1.1 * (1.0 + mu) + h0_bar);
        assert!((p.kappa() - kappa).abs() < 1e-12);
        assert!((p.h0_bar() - h0_bar).abs() < 1e-12);
    }

    #[test]
    fn global_bound_linear_in_diameter() {
        let p = Params::recommended(1e-3, 1.0).unwrap();
        let g1 = p.global_skew_bound(10);
        let g2 = p.global_skew_bound(20);
        // Subtracting the H₀ offset, the 𝒯-part doubles.
        let offset = 2.0 * 1e-3 / (1.0 + 1e-3) * p.h0();
        assert!(((g2 - offset) / (g1 - offset) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_bound_is_logarithmic() {
        let p = Params::recommended(1e-3, 1.0).unwrap();
        let deltas: Vec<f64> = [16u32, 64, 256, 1024]
            .iter()
            .map(|&d| p.local_skew_bound(d))
            .collect();
        // Quadrupling D adds the same increment each time (log behaviour):
        let inc1 = deltas[1] - deltas[0];
        let inc2 = deltas[2] - deltas[1];
        let inc3 = deltas[3] - deltas[2];
        assert!((inc1 - inc2).abs() <= p.kappa() + 1e-9);
        assert!((inc2 - inc3).abs() <= p.kappa() + 1e-9);
        assert!(inc2 > 0.0);
    }

    #[test]
    fn legal_state_thresholds_shrink_geometrically() {
        let p = Params::with_sigma(1e-3, 1.0, 4).unwrap();
        let c0 = p.legal_state_threshold(128, 0);
        let c1 = p.legal_state_threshold(128, 1);
        let c2 = p.legal_state_threshold(128, 2);
        assert!((c0 / c1 - 4.0).abs() < 1e-9);
        assert!((c1 / c2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn rate_envelope_matches_corollary_5_3() {
        let p = Params::recommended(0.01, 1.0).unwrap();
        let (alpha, beta) = p.rate_envelope();
        assert!((alpha - 0.99).abs() < 1e-12);
        assert!((beta - 1.01 * (1.0 + p.mu())).abs() < 1e-12);
    }

    #[test]
    fn display_of_errors_is_informative() {
        let err = Params::recommended(2.0, 1.0).unwrap_err();
        assert!(format!("{err}").contains("ε̂"));
    }
}
