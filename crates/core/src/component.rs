//! Zig-Components: simple, verifiable indicators of dissimilarity.
//!
//! "The idea behind the Zig-Dissimilarity is to compute several simple
//! indicators of dissimilarity, the Zig-Components, and aggregate them
//! into one synthetic score." (§2.2, Figure 3.) Each component is an
//! effect size from the meta-analysis literature comparing the selection
//! (`inside`) against the complement (`outside`):
//!
//! * [`ComponentKind::MeanShift`] — difference between the means
//!   (Hedges' g).
//! * [`ComponentKind::DispersionShift`] — difference between the standard
//!   deviations (log SD ratio).
//! * [`ComponentKind::CorrelationShift`] — difference between the
//!   correlation coefficients (Fisher-z difference; two-dimensional).
//! * [`ComponentKind::FrequencyShift`] — difference between categorical
//!   frequency distributions (Cohen's w; from the full paper).

use serde::{Deserialize, Serialize};
use ziggy_stats::{
    cohens_w, correlation_difference, hedges_g, ks_test, log_std_ratio, EffectSize, FrequencyTable,
    PairMoments, StatsError, UniMoments,
};

/// The family a Zig-Component belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ComponentKind {
    /// Standardized difference between the means (1 column).
    MeanShift,
    /// Log ratio of the standard deviations (1 column).
    DispersionShift,
    /// Fisher-z difference between correlation coefficients (2 columns).
    CorrelationShift,
    /// Cohen's w divergence between category frequencies (1 column).
    FrequencyShift,
    /// Kolmogorov–Smirnov distance between the full distributions
    /// (1 column; extended component, off by default — the paper notes
    /// extra components "only add marginal accuracy gains in practice,
    /// at the cost of significant processing times").
    ShapeShift,
}

impl ComponentKind {
    /// Every one-column family (all but [`ComponentKind::CorrelationShift`]).
    pub const UNIVARIATE: [ComponentKind; 4] = [
        ComponentKind::MeanShift,
        ComponentKind::DispersionShift,
        ComponentKind::FrequencyShift,
        ComponentKind::ShapeShift,
    ];

    /// Human-readable family name.
    pub fn name(self) -> &'static str {
        match self {
            ComponentKind::MeanShift => "difference between the means",
            ComponentKind::DispersionShift => "difference between the std. deviations",
            ComponentKind::CorrelationShift => "difference between the correlation coefficients",
            ComponentKind::FrequencyShift => "difference between the frequency distributions",
            ComponentKind::ShapeShift => "difference between the overall distributions",
        }
    }

    /// Number of columns the component spans (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            ComponentKind::CorrelationShift => 2,
            _ => 1,
        }
    }
}

/// One computed Zig-Component: an effect size attached to one column (or a
/// column pair), plus the normalized magnitude used in the weighted sum.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZigComponent {
    /// Component family.
    pub kind: ComponentKind,
    /// First column index.
    pub column_a: usize,
    /// Second column index for two-dimensional components.
    pub column_b: Option<usize>,
    /// The raw effect size (signed value, SE, p-value).
    pub effect: EffectSize,
    /// Magnitude normalized to `[0, 1]` across the run (filled in by the
    /// preparation stage; 0 until normalized).
    pub normalized: f64,
}

impl ZigComponent {
    /// Builds the mean-shift component for one numeric column.
    pub fn mean_shift(
        column: usize,
        inside: &UniMoments,
        outside: &UniMoments,
    ) -> Result<Self, StatsError> {
        Ok(Self {
            kind: ComponentKind::MeanShift,
            column_a: column,
            column_b: None,
            effect: hedges_g(inside, outside)?,
            normalized: 0.0,
        })
    }

    /// Builds the dispersion-shift component for one numeric column.
    pub fn dispersion_shift(
        column: usize,
        inside: &UniMoments,
        outside: &UniMoments,
    ) -> Result<Self, StatsError> {
        Ok(Self {
            kind: ComponentKind::DispersionShift,
            column_a: column,
            column_b: None,
            effect: log_std_ratio(inside, outside)?,
            normalized: 0.0,
        })
    }

    /// Builds the correlation-shift component for a numeric column pair.
    pub fn correlation_shift(
        column_a: usize,
        column_b: usize,
        inside: &PairMoments,
        outside: &PairMoments,
    ) -> Result<Self, StatsError> {
        let r_in = inside.correlation()?;
        let r_out = outside.correlation()?;
        Ok(Self {
            kind: ComponentKind::CorrelationShift,
            column_a,
            column_b: Some(column_b),
            effect: correlation_difference(r_in, inside.count(), r_out, outside.count())?,
            normalized: 0.0,
        })
    }

    /// Builds the frequency-shift component for one categorical column.
    pub fn frequency_shift(
        column: usize,
        inside: &FrequencyTable,
        outside: &FrequencyTable,
    ) -> Result<Self, StatsError> {
        Ok(Self {
            kind: ComponentKind::FrequencyShift,
            column_a: column,
            column_b: None,
            effect: cohens_w(inside.counts(), outside.counts())?,
            normalized: 0.0,
        })
    }

    /// Builds the distribution-shape component for one numeric column
    /// from the raw inside/outside samples (two-sample KS).
    pub fn shape_shift(column: usize, inside: &[f64], outside: &[f64]) -> Result<Self, StatsError> {
        let test = ks_test(inside, outside)?;
        Ok(Self {
            kind: ComponentKind::ShapeShift,
            column_a: column,
            column_b: None,
            effect: EffectSize {
                value: test.statistic,
                se: f64::NAN,
                p_value: test.p_value,
            },
            normalized: 0.0,
        })
    }

    /// Absolute raw magnitude of the effect.
    pub fn magnitude(&self) -> f64 {
        self.effect.value.abs()
    }

    /// The columns the component spans.
    pub fn columns(&self) -> Vec<usize> {
        match self.column_b {
            Some(b) => vec![self.column_a, b],
            None => vec![self.column_a],
        }
    }

    /// True when the component concerns only columns inside `set`.
    pub fn within(&self, set: &[usize]) -> bool {
        set.contains(&self.column_a) && self.column_b.is_none_or(|b| set.contains(&b))
    }
}

/// Normalizes a batch of components *per family*: each component's
/// [`ZigComponent::normalized`] becomes `|value| / max |value|` over its
/// kind (0 when the family maximum is 0). This puts heterogeneous effect
/// scales (standardized means, log ratios, Fisher-z units, Cohen's w) on
/// the comparable `[0, 1]` footing the weighted sum requires.
pub fn normalize_components(components: &mut [ZigComponent]) {
    use std::collections::HashMap;
    let mut max_by_kind: HashMap<ComponentKind, f64> = HashMap::new();
    for c in components.iter() {
        let m = c.magnitude();
        if m.is_finite() {
            let e = max_by_kind.entry(c.kind).or_insert(0.0);
            if m > *e {
                *e = m;
            }
        }
    }
    for c in components.iter_mut() {
        let max = max_by_kind.get(&c.kind).copied().unwrap_or(0.0);
        c.normalized = if max > 0.0 && c.magnitude().is_finite() {
            (c.magnitude() / max).clamp(0.0, 1.0)
        } else {
            0.0
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uni(vals: &[f64]) -> UniMoments {
        UniMoments::from_slice(vals)
    }

    #[test]
    fn kinds_metadata() {
        assert_eq!(ComponentKind::MeanShift.arity(), 1);
        assert_eq!(ComponentKind::CorrelationShift.arity(), 2);
        assert!(ComponentKind::DispersionShift.name().contains("deviations"));
    }

    #[test]
    fn mean_shift_component() {
        let c =
            ZigComponent::mean_shift(3, &uni(&[5.0, 6.0, 7.0, 8.0]), &uni(&[1.0, 2.0, 3.0, 4.0]))
                .unwrap();
        assert_eq!(c.kind, ComponentKind::MeanShift);
        assert_eq!(c.column_a, 3);
        assert!(c.effect.value > 0.0);
        assert_eq!(c.columns(), vec![3]);
    }

    #[test]
    fn correlation_shift_component() {
        let n = 200;
        let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let ys_up: Vec<f64> = xs.iter().map(|&x| 2.0 * x + 1.0).collect();
        let ys_noise: Vec<f64> = (0..n).map(|i| ((i * 7919) % 100) as f64).collect();
        let inside = PairMoments::from_slices(&xs, &ys_up).unwrap();
        let outside = PairMoments::from_slices(&xs, &ys_noise).unwrap();
        let c = ZigComponent::correlation_shift(0, 1, &inside, &outside).unwrap();
        assert_eq!(c.columns(), vec![0, 1]);
        assert!(
            c.effect.value > 1.0,
            "perfect vs noise correlation is a big z-shift"
        );
        assert!(c.effect.p_value < 0.001);
    }

    #[test]
    fn frequency_shift_component() {
        let inside = FrequencyTable::from_codes([Some(0); 50].into_iter().collect::<Vec<_>>(), 2);
        let mut both = vec![Some(0u32); 50];
        both.extend(vec![Some(1u32); 50]);
        let outside = FrequencyTable::from_codes(both, 2);
        let c = ZigComponent::frequency_shift(4, &inside, &outside).unwrap();
        assert_eq!(c.kind, ComponentKind::FrequencyShift);
        assert!(c.effect.value > 0.0);
    }

    #[test]
    fn shape_shift_component() {
        let inside: Vec<f64> = (0..200).map(|i| (i % 40) as f64).collect();
        let shifted: Vec<f64> = (0..400).map(|i| (i % 40) as f64 + 30.0).collect();
        let c = ZigComponent::shape_shift(2, &inside, &shifted).unwrap();
        assert_eq!(c.kind, ComponentKind::ShapeShift);
        assert!(c.effect.value > 0.5, "disjoint-ish supports: big KS D");
        assert!(c.effect.p_value < 1e-6);
        // Identical samples: D = 0, insignificant.
        let same = ZigComponent::shape_shift(2, &inside, &inside).unwrap();
        assert!(same.effect.value < 1e-12);
        assert!(same.effect.p_value > 0.99);
    }

    #[test]
    fn within_checks_column_coverage() {
        let c = ZigComponent {
            kind: ComponentKind::CorrelationShift,
            column_a: 1,
            column_b: Some(4),
            effect: EffectSize {
                value: 1.0,
                se: 0.1,
                p_value: 0.01,
            },
            normalized: 0.0,
        };
        assert!(c.within(&[0, 1, 4]));
        assert!(c.within(&[4, 1]));
        assert!(!c.within(&[1, 2]));
        assert!(!c.within(&[4]));
        assert!(!c.within(&[]));
        let uni = ZigComponent {
            column_b: None,
            ..c
        };
        assert!(uni.within(&[1]));
        assert!(!uni.within(&[4]));
    }

    #[test]
    fn normalization_per_family() {
        let mk = |kind, value| ZigComponent {
            kind,
            column_a: 0,
            column_b: None,
            effect: EffectSize {
                value,
                se: 1.0,
                p_value: 0.5,
            },
            normalized: 0.0,
        };
        let mut cs = vec![
            mk(ComponentKind::MeanShift, 2.0),
            mk(ComponentKind::MeanShift, -4.0),
            mk(ComponentKind::DispersionShift, 0.5),
        ];
        normalize_components(&mut cs);
        assert!((cs[0].normalized - 0.5).abs() < 1e-12);
        assert!((cs[1].normalized - 1.0).abs() < 1e-12);
        // Own-family max: the dispersion component normalizes to 1.
        assert!((cs[2].normalized - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_handles_zero_and_nonfinite() {
        let mk = |value| ZigComponent {
            kind: ComponentKind::MeanShift,
            column_a: 0,
            column_b: None,
            effect: EffectSize {
                value,
                se: 1.0,
                p_value: 0.5,
            },
            normalized: 9.0,
        };
        let mut cs = vec![mk(0.0), mk(0.0)];
        normalize_components(&mut cs);
        assert_eq!(cs[0].normalized, 0.0);
        let mut cs = vec![mk(f64::INFINITY), mk(1.0)];
        normalize_components(&mut cs);
        assert_eq!(cs[0].normalized, 0.0);
        assert_eq!(cs[1].normalized, 1.0);
    }
}
