//! The correctness oracle. Runs outside the timed window: every answer is
//! checked for shape as it arrives (after its latency is taken), and a
//! deterministic sample is recomputed directly through the registry
//! explainer, seeded exactly as a serving worker seeds it.

use crate::stream::MODEL_ID;
use nfv_serve::cache::CacheKey;
use nfv_serve::prelude::*;
use nfv_serve::request::request_seed;
use nfv_xai::prelude::*;
use std::sync::Arc;

/// The attribution lengths a registered model's answers must have.
#[derive(Debug, Clone, Copy)]
pub struct AnswerLens {
    features: usize,
    groups: usize,
}

impl AnswerLens {
    /// The lengths of `entry`'s answers.
    pub fn of(entry: &ModelEntry) -> AnswerLens {
        AnswerLens {
            features: entry.model.n_features(),
            groups: entry.groups.len(),
        }
    }

    /// The length an answer to `method` must have.
    pub fn expected(&self, method: ExplainMethod) -> usize {
        match method {
            ExplainMethod::GroupedShapley => self.groups,
            _ => self.features,
        }
    }
}

/// Right length and every number finite.
pub fn well_formed(attr: &Attribution, len: usize) -> bool {
    attr.values.len() == len
        && attr.values.iter().all(|v| v.is_finite())
        && attr.base_value.is_finite()
        && attr.prediction.is_finite()
}

/// One sampled answer kept for the direct recomputation.
#[derive(Debug, Clone)]
pub struct Sampled {
    /// The request's features.
    pub features: Vec<f64>,
    /// The request's method.
    pub method: ExplainMethod,
    /// Model version the answer was computed against.
    pub model_version: u64,
    /// The served attribution.
    pub served: Arc<Attribution>,
    /// How faithful the server said it is.
    pub fidelity: Fidelity,
}

/// The seed a serving worker hands the explainer for this request:
/// `request_seed(engine seed, CacheKey::build(..).stable_hash())`.
pub fn request_seed_for(
    engine_seed: u64,
    model_version: u64,
    method: ExplainMethod,
    x: &[f64],
) -> Result<u64, String> {
    let grid = ServeConfig::default().quantization_grid;
    let key = CacheKey::build(MODEL_ID, model_version, method, x, grid)
        .ok_or("features cannot be keyed")?;
    Ok(request_seed(engine_seed, key.stable_hash()))
}

/// The context a serving worker builds: the packed model, the
/// registration-time base value and the content-derived seed.
pub fn context<'a>(entry: &'a ModelEntry, x: &'a [f64], seed: u64) -> ExplainContext<'a> {
    ExplainContext {
        model: entry.explain_regressor(),
        x,
        background: &entry.background,
        names: &entry.feature_names,
        base_hint: Some(entry.expected_output),
        seed,
    }
}

/// What the engine would compute for this request, through the registry
/// explainer.
pub fn direct(
    entry: &ModelEntry,
    engine_seed: u64,
    model_version: u64,
    method: ExplainMethod,
    x: &[f64],
    ws: &mut CoalitionWorkspace,
) -> Result<Attribution, String> {
    let seed = request_seed_for(engine_seed, model_version, method, x)?;
    let explainer = entry.explainer(method).map_err(|e| e.to_string())?;
    explainer
        .direct(&context(entry, x, seed), ws)
        .map_err(|e| e.to_string())
}

/// Compares a served answer with the direct computation: exact answers
/// must be bit-identical, quantized ones within their reported bound
/// (values only; base value and prediction stay exact). Coarse answers
/// used a smaller budget and are only shape-checked.
pub fn compare(
    direct: &Attribution,
    served: &Attribution,
    fidelity: Fidelity,
) -> Result<(), String> {
    if served.values.len() != direct.values.len() {
        return Err(format!(
            "length {} vs direct {}",
            served.values.len(),
            direct.values.len()
        ));
    }
    if fidelity.grade() == 0 {
        return Ok(());
    }
    if served.base_value.to_bits() != direct.base_value.to_bits()
        || served.prediction.to_bits() != direct.prediction.to_bits()
    {
        return Err("base value or prediction differs".into());
    }
    let bound = fidelity.max_abs_err();
    for (i, (s, d)) in served.values.iter().zip(&direct.values).enumerate() {
        let ok = if fidelity.is_exact() {
            s.to_bits() == d.to_bits()
        } else {
            (s - d).abs() <= bound
        };
        if !ok {
            return Err(format!(
                "value {i}: served {s} vs direct {d} ({fidelity:?})"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr(values: Vec<f64>) -> Attribution {
        Attribution {
            names: (0..values.len()).map(|i| format!("f{i}")).collect(),
            values,
            base_value: 0.5,
            prediction: 1.0,
            method: "test".into(),
        }
    }

    #[test]
    fn exact_needs_bits_quantized_needs_its_bound() {
        let d = attr(vec![0.1, 0.2]);
        assert!(compare(&d, &attr(vec![0.1, 0.2]), Fidelity::Exact).is_ok());
        let off = attr(vec![0.1, 0.2 + 1e-15]);
        assert!(
            compare(&d, &off, Fidelity::Exact).is_err(),
            "one ulp is a mismatch"
        );
        let q = Fidelity::Quantized { max_abs_err: 1e-6 };
        assert!(compare(&d, &attr(vec![0.1 + 5e-7, 0.2]), q).is_ok());
        assert!(compare(&d, &attr(vec![0.1 + 5e-6, 0.2]), q).is_err());
        assert!(compare(&d, &attr(vec![0.1]), Fidelity::Exact).is_err());
    }

    #[test]
    fn malformed_answers_are_caught() {
        assert!(well_formed(&attr(vec![0.1, 0.2]), 2));
        assert!(!well_formed(&attr(vec![0.1]), 2));
        assert!(!well_formed(&attr(vec![0.1, f64::NAN]), 2));
    }
}
