//! Per-layer probes of the traced run: direct calls into `nfv-xai`,
//! `nfv-ml` and the `nfv-net` codec on the workload's own inputs and
//! messages, each inside a span.

use crate::oracle::{self, Sampled};
use crate::stream::{mix, MODEL_ID};
use crate::target::{serve_model, Target};
use crate::trace::{Layer, Tracer};
use bytes::Bytes;
use nfv_bench::SizedTask;
use nfv_ml::prelude::SoaForest;
use nfv_net::frame::{decode_frame, encode_frame};
use nfv_net::msg::WireAnswer;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::*;
use std::hint::black_box;

/// Inputs each explainer probe runs on.
const XAI_INPUTS: usize = 24;
/// Composite blocks the predict probe evaluates, each several times.
const ML_BLOCKS: usize = 24;
const ML_REPEATS: usize = 4;
/// Coalitions × background rows of one composite block: the serve shape
/// of a 64-coalition KernelSHAP request.
const COALITIONS: usize = 64;
/// Codec operations timed inside one span (one operation is too short
/// for the clock).
pub const CODEC_REPS: usize = 16;
/// Repeated set-ups and packs per probe.
const SETUP_REPEATS: usize = 5;
const PACK_REPEATS: usize = 7;

/// The explainers the workloads use: the per-layer metric each probe
/// reports to, its span name (the method's registry tag), and the method.
pub const XAI_METHODS: [(&str, &str, ExplainMethod); 5] = [
    ("xai.tree_shap_us_p50", "tree-shap", ExplainMethod::TreeShap),
    (
        "xai.kernel_shap_us_p50",
        "kernel-shap",
        ExplainMethod::KernelShap { n_coalitions: 64 },
    ),
    (
        "xai.sampling_shapley_us_p50",
        "sampling-shapley",
        ExplainMethod::SamplingShapley {
            n_permutations: 4,
            antithetic: true,
        },
    ),
    (
        "xai.permutation_us_p50",
        "permutation",
        ExplainMethod::Permutation,
    ),
    (
        "xai.grouped_shapley_us_p50",
        "grouped-shapley",
        ExplainMethod::GroupedShapley,
    ),
];

/// Calls each registry explainer directly on the workload's sampled
/// inputs, seeded as the engine would seed it.
pub fn xai(
    tracer: &mut Tracer,
    entry: &ModelEntry,
    samples: &[Sampled],
    engine_seed: u64,
) -> Result<(), String> {
    let mut ws = CoalitionWorkspace::default();
    for (_, span, method) in XAI_METHODS {
        let explainer = entry.explainer(method).map_err(|e| e.to_string())?;
        for (i, s) in samples.iter().take(XAI_INPUTS).enumerate() {
            let seed = oracle::request_seed_for(engine_seed, entry.version, method, &s.features)?;
            let ctx = oracle::context(entry, &s.features, seed);
            tracer
                .span(span, Layer::Xai, i as u64, || {
                    explainer.direct(&ctx, &mut ws)
                })
                .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Rows of one composite block.
pub fn block_rows(task: &SizedTask) -> usize {
    COALITIONS * task.background.len()
}

/// Evaluates 64-coalition × background composite blocks built from the
/// workload's inputs with `SoaForest::predict_block_into`, and packs the
/// forest with `SoaForest::from_forest`.
pub fn ml(tracer: &mut Tracer, task: &SizedTask, samples: &[Sampled]) -> Result<(), String> {
    let packed = SoaForest::from_forest(&task.forest).map_err(|e| e.to_string())?;
    let bg = &task.background;
    let rows = block_rows(task);
    let mut out = vec![0.0; rows];
    for (i, s) in samples.iter().take(ML_BLOCKS).enumerate() {
        let x = &s.features;
        let d = x.len();
        let mut flat = Vec::with_capacity(rows * d);
        for c in 0..COALITIONS {
            let bits = mix(i as u64 ^ ((c as u64) << 32));
            for b in 0..bg.len() {
                let z = bg.row(b);
                flat.extend((0..d).map(|j| if (bits >> j) & 1 == 1 { x[j] } else { z[j] }));
            }
        }
        for _ in 0..ML_REPEATS {
            tracer.span("SoaForest::predict_block_into", Layer::Ml, i as u64, || {
                packed.predict_block_into(black_box(&flat), &mut out)
            });
            black_box(&out);
        }
    }
    for i in 0..PACK_REPEATS {
        let p = tracer.span("SoaForest::from_forest", Layer::Ml, i as u64, || {
            SoaForest::from_forest(black_box(&task.forest))
        });
        black_box(p.map_err(|e| e.to_string())?);
    }
    Ok(())
}

/// Frame sizes of the run's messages, in bytes.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecBytes {
    /// Median explain-request frame.
    pub request: f64,
    /// Median explain-reply frame.
    pub reply: f64,
    /// The model registration frame.
    pub register: f64,
}

/// Encodes the run's sampled requests and decodes their replies with the
/// wire codec (`Message::encode_payload` / `decode_payload` plus the frame
/// layer), `CODEC_REPS` operations per span.
pub fn codec(
    tracer: &mut Tracer,
    task: &SizedTask,
    samples: &[Sampled],
) -> Result<CodecBytes, String> {
    let mut req_bytes = Vec::new();
    let mut reply_bytes = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let rid = i as u64;
        let request = Message::Explain(WireRequest {
            rid,
            model_id: MODEL_ID.into(),
            features: s.features.clone(),
            method: s.method,
            budget_ns: crate::stream::BUDGET.as_nanos() as u64,
        });
        let frame = tracer.span("Message::encode_payload", Layer::Net, rid, || {
            let mut frame = Vec::new();
            for _ in 0..CODEC_REPS {
                let payload = black_box(&request).encode_payload();
                frame = encode_frame(request.msg_type(), &payload);
            }
            frame
        });
        req_bytes.push(frame.len() as f64);

        let reply = Message::ExplainReply(WireResponse {
            rid,
            outcome: Ok(WireAnswer {
                attribution: (*s.served).clone(),
                model_version: s.model_version,
                cache_hit: false,
                batch_size: 1,
                queue_wait_ns: 0,
                service_ns: 0,
                coarse_budget: s.fidelity.sample_budget(),
                max_abs_err: s.fidelity.max_abs_err(),
            }),
        });
        let frame = encode_frame(reply.msg_type(), &reply.encode_payload());
        reply_bytes.push(frame.len() as f64);
        let copies: Vec<Bytes> = (0..CODEC_REPS)
            .map(|_| Bytes::from(frame.clone()))
            .collect();
        let decoded = tracer.span("Message::decode_payload", Layer::Net, rid, || {
            let mut last = None;
            for mut buf in copies {
                let (t, payload) =
                    decode_frame(&mut buf, MAX_PAYLOAD).map_err(|e| e.to_string())?;
                last = Some(Message::decode_payload(t, payload).map_err(|e| e.to_string())?);
            }
            Ok::<_, String>(last)
        })?;
        if decoded.as_ref() != Some(&reply) {
            return Err("reply did not survive an encode/decode round trip".into());
        }
    }
    let register = Message::Register(WireRegister {
        rid: 0,
        model_id: MODEL_ID.into(),
        model_json: serde_json::to_string(&serve_model(task)).map_err(|e| e.to_string())?,
        feature_names: task.names.clone(),
        background_rows: task.background.rows().to_vec(),
        method_configs: Vec::new(),
    });
    let register = encode_frame(register.msg_type(), &register.encode_payload()).len() as f64;
    Ok(CodecBytes {
        request: crate::stats::median(req_bytes),
        reply: crate::stats::median(reply_bytes),
        register,
    })
}

/// Sets up both stacks a few times, so `ModelRegistry::register` and
/// `NetCluster::register` have spans on every workload (the workload's own
/// timed set-ups run in a child process, untraced).
pub fn register(tracer: &mut Tracer, task: &SizedTask, seed: u64) -> Result<(), String> {
    for wire in [false, true] {
        for _ in 0..SETUP_REPEATS {
            let (target, _) = Target::setup(wire, task, seed, Some(tracer))?;
            target.shutdown()?;
        }
    }
    Ok(())
}
