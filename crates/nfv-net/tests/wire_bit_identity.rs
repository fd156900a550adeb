//! The distributed determinism contract: for every serve method, an
//! explanation computed (1) directly against the library, (2) by a
//! single-process [`ServeEngine`], (3) by the in-process [`ServeCluster`],
//! and (4) by a [`NetCluster`] routing over real TCP connections to shard
//! servers is **bit-identical** (`f64::to_bits`).
//!
//! The wire can uphold this because every f64 crosses as its IEEE-754 bit
//! pattern and every stochastic explainer is seeded from request content.
//! The shard servers live in this process, listening on loopback.

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::prelude::*;
use nfv_serve::cache::CacheKey;
use nfv_serve::prelude::*;
use nfv_serve::request::request_seed;
use nfv_xai::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 42;

struct Fixture {
    gbdt: Gbdt,
    packed: SoaForest,
    names: Vec<String>,
    background: Background,
    groups: FeatureGroups,
    rows: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let synth = friedman1(300, 5, 0.1, 11).unwrap();
    let gbdt = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 15,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let packed = SoaForest::from_gbdt(&gbdt).unwrap();
    let names = synth.data.names.clone();
    let d = names.len();
    let groups = FeatureGroups::per_stage(&names)
        .unwrap_or_else(|_| FeatureGroups::new(vec!["all".into()], vec![0; d]).unwrap());
    Fixture {
        gbdt,
        packed,
        names,
        background: Background::from_dataset(&synth.data, 16, 1).unwrap(),
        groups,
        rows: vec![synth.data.row(0).to_vec(), synth.data.row(13).to_vec()],
    }
}

fn methods() -> Vec<ExplainMethod> {
    vec![
        ExplainMethod::TreeShap,
        ExplainMethod::KernelShap { n_coalitions: 32 },
        ExplainMethod::Lime { n_samples: 64 },
        ExplainMethod::SamplingShapley {
            n_permutations: 6,
            antithetic: true,
        },
        ExplainMethod::ExactShapley,
        ExplainMethod::GroupedShapley,
        ExplainMethod::Permutation,
        ExplainMethod::Interactions,
    ]
}

/// The library-level computation every transport must reproduce: the
/// method's explainer built by its `MethodRegistry` factory, seeded
/// exactly as a shard worker would seed it.
fn direct(f: &Fixture, x: &[f64], method: ExplainMethod, version: u64, grid: f64) -> Attribution {
    let key = CacheKey::build("m", version, method, x, grid).unwrap();
    let explainer = MethodRegistry::global()
        .get(method.method_id())
        .expect("built-in method is registered")
        .instantiate(&MethodConfig {
            budget: method.budget_word(),
            n_features: f.names.len(),
            groups: Some(f.groups.clone()),
            trees: Some(TreeModel::Gbdt(Arc::new(f.gbdt.clone()))),
            anytime_divisor: DEFAULT_ANYTIME_DIVISOR,
        })
        .unwrap();
    let ctx = ExplainContext {
        model: &f.packed,
        x,
        background: &f.background,
        names: &f.names,
        base_hint: Some(f.background.expected_output(&f.packed)),
        seed: request_seed(SEED, key.stable_hash()),
    };
    explainer
        .direct(&ctx, &mut CoalitionWorkspace::default())
        .unwrap()
}

fn bits(a: &Attribution) -> (Vec<u64>, u64, u64) {
    (
        a.values.iter().map(|v| v.to_bits()).collect(),
        a.base_value.to_bits(),
        a.prediction.to_bits(),
    )
}

/// One full pass over all four serving paths, each constructed fresh so
/// every answer is computed rather than served from a cache. `arm` labels
/// the failure messages.
fn run_arm(f: &Fixture, arm: &str) {
    let cfg = ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    };
    let engine = ServeEngine::start(cfg);
    let cluster = ServeCluster::start(ClusterConfig {
        shards: 3,
        shard: cfg,
        ..ClusterConfig::default()
    });
    // Three real shard servers on loopback, one router over them.
    let servers: Vec<ShardServer> = (0..3)
        .map(|_| {
            ShardServer::start(ShardConfig {
                serve: cfg,
                ..ShardConfig::default()
            })
            .unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let net = NetCluster::connect(&addrs, NetClusterConfig::default()).unwrap();

    let ev = engine
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(f.gbdt.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    let cv = cluster
        .register(
            "m",
            ServeModel::Gbdt(f.gbdt.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    let nv = net
        .register(
            "m",
            ServeModel::Gbdt(f.gbdt.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    assert_eq!(ev, cv, "fresh registries must assign the same version");
    assert_eq!(ev, nv, "wire registration must assign the same version");

    for method in methods() {
        for x in &f.rows {
            let want = bits(&direct(f, x, method, ev, cfg.quantization_grid));
            let req = || ExplainRequest {
                model_id: "m".into(),
                features: x.clone(),
                method,
                budget: Duration::from_secs(30),
            };
            let via_engine = engine.explain(req()).unwrap();
            let via_cluster = cluster.explain(req()).unwrap();
            let via_wire = net.explain(&req()).unwrap();
            assert_eq!(via_wire.model_version, nv);
            assert_eq!(
                bits(&via_engine.attribution),
                want,
                "[{arm}] engine diverged from direct on {method:?}"
            );
            assert_eq!(
                bits(&via_cluster.attribution),
                want,
                "[{arm}] in-process cluster diverged from direct on {method:?}"
            );
            assert_eq!(
                bits(&via_wire.attribution),
                want,
                "[{arm}] wire cluster diverged from direct on {method:?}"
            );
        }
    }

    // No frame was ever rejected, and the drain handshake is clean.
    let stats = net.stats();
    assert_eq!(stats.net_errors, 0, "[{arm}] transport faults on loopback");
    for (id, _, health) in &stats.shards {
        let h = health.as_ref().expect("health probe");
        assert_eq!(h.protocol_errors, 0, "[{arm}] shard {id} protocol errors");
    }
    net.drain_all().unwrap();
    for s in servers {
        let (_completed, protocol_errors) = s.join();
        assert_eq!(protocol_errors, 0, "[{arm}] server-side protocol errors");
    }
    engine.shutdown();
    cluster.shutdown();
}

#[test]
fn wire_cluster_engine_and_direct_are_bit_identical() {
    run_arm(&fixture(), "scalar");
}
