//! Cluster-level behaviour over real shard *processes*: spill on shard
//! death, graceful join/leave with registration replay, and the drain
//! handshake. The shard binary is the real `nfv-shard` (via
//! `CARGO_BIN_EXE_nfv-shard`).

use nfv_data::prelude::*;
use nfv_ml::prelude::*;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use nfv_xai::prelude::Background;
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

const SEED: u64 = 5;

fn spawn_shard() -> (Child, String, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_nfv-shard"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--seed",
            &SEED.to_string(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn nfv-shard");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read banner");
    let addr = line
        .trim()
        .strip_prefix("nfv-shard listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {line:?}"))
        .to_string();
    (child, addr, reader)
}

struct Fixture {
    model: Gbdt,
    names: Vec<String>,
    background: Background,
    rows: Vec<Vec<f64>>,
}

fn fixture() -> Fixture {
    let synth = friedman1(200, 5, 0.1, 7).unwrap();
    let model = Gbdt::fit(
        &synth.data,
        &GbdtParams {
            n_rounds: 10,
            ..Default::default()
        },
        0,
    )
    .unwrap();
    let rows = (0..24).map(|i| synth.data.row(i * 7).to_vec()).collect();
    Fixture {
        model,
        names: synth.data.names.clone(),
        background: Background::from_dataset(&synth.data, 16, 1).unwrap(),
        rows,
    }
}

fn request(f: &Fixture, n: usize) -> ExplainRequest {
    ExplainRequest {
        model_id: "m".into(),
        features: f.rows[n % f.rows.len()].clone(),
        method: match n % 3 {
            0 => ExplainMethod::TreeShap,
            1 => ExplainMethod::KernelShap { n_coalitions: 16 },
            _ => ExplainMethod::Permutation,
        },
        budget: Duration::from_secs(30),
    }
}

/// Kill one shard process mid-replay: every subsequent request that hashed
/// to the dead shard must still complete, served by its ring successor,
/// and the spill/net-error counters must record the reroutes.
#[test]
fn killing_a_shard_mid_replay_spills_to_the_ring_successor() {
    let f = fixture();
    let mut shards: Vec<(Child, String, BufReader<ChildStdout>)> =
        (0..3).map(|_| spawn_shard()).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.1.clone()).collect();

    let net = NetCluster::connect(&addrs, NetClusterConfig::default()).unwrap();
    net.register(
        "m",
        ServeModel::Gbdt(f.model.clone()),
        f.names.clone(),
        f.background.clone(),
    )
    .unwrap();

    // A reference engine (same seed) pins the expected bits.
    let reference = Engine::start(ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    });
    reference
        .registry()
        .register(
            "m",
            ServeModel::Gbdt(f.model.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();

    // Phase 1: healthy cluster, answers must match the reference bit for
    // bit (subprocess arm of the identity contract).
    for n in 0..8 {
        let wire = net.explain(&request(&f, n)).unwrap();
        let local = reference.explain(request(&f, n)).unwrap();
        let wire_bits: Vec<u64> = wire
            .attribution
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let local_bits: Vec<u64> = local
            .attribution
            .values
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(wire_bits, local_bits, "request {n} diverged over the wire");
    }
    assert_eq!(net.stats().spills, 0, "healthy cluster never spills");

    // Phase 2: kill shard id 1 (process murder, no drain) and keep going.
    shards[1].0.kill().expect("kill shard 1");
    shards[1].0.wait().expect("reap shard 1");
    for n in 8..24 {
        let resp = net
            .explain(&request(&f, n))
            .unwrap_or_else(|e| panic!("request {n} failed after shard kill: {e}"));
        assert!(!resp.attribution.values.is_empty());
    }
    let stats = net.stats();
    assert!(
        stats.spills > 0,
        "some of the 16 post-kill requests must have hashed to the dead shard"
    );
    assert!(
        stats.net_errors > 0,
        "connection loss must be observed and counted"
    );

    // Phase 3: formally remove the corpse. leave() tolerates the dead
    // connection (drains as 0) and rebuilds the ring without it, after
    // which routing never touches it: no new spills.
    assert_eq!(net.leave(1).unwrap(), 0, "a killed shard drains as zero");
    let spills_after_leave = net.stats().spills;
    for n in 0..24 {
        net.explain(&request(&f, n)).unwrap();
    }
    assert_eq!(
        net.stats().spills,
        spills_after_leave,
        "after leave() the ring has no dead entries to spill from"
    );

    // Survivors drain cleanly and exit 0.
    net.drain_all().unwrap();
    let (mut c0, _, r0) = shards.remove(0);
    let (mut c2, _, r2) = {
        // shards[1] (originally index 2) after the remove above.
        shards.remove(1)
    };
    assert!(c0.wait().unwrap().success(), "shard 0 exit status");
    assert!(c2.wait().unwrap().success(), "shard 2 exit status");
    drop((r0, r2));
    reference.shutdown();
}

/// Join replays the registration history so a late shard answers with the
/// same model versions; leave() drains gracefully with bounded remap.
#[test]
fn join_replays_registrations_and_leave_drains_gracefully() {
    let f = fixture();

    // Two in-process shard servers to start with.
    let cfg = ServeConfig {
        seed: SEED,
        ..ServeConfig::default()
    };
    let s0 = ShardServer::start(ShardConfig {
        serve: cfg,
        ..ShardConfig::default()
    })
    .unwrap();
    let s1 = ShardServer::start(ShardConfig {
        serve: cfg,
        ..ShardConfig::default()
    })
    .unwrap();
    let addrs = vec![s0.local_addr().to_string(), s1.local_addr().to_string()];
    let net = NetCluster::connect(&addrs, NetClusterConfig::default()).unwrap();

    // Two models registered *before* the third shard exists.
    let v1 = net
        .register(
            "m",
            ServeModel::Gbdt(f.model.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();
    let v2 = net
        .register(
            "m2",
            ServeModel::Gbdt(f.model.clone()),
            f.names.clone(),
            f.background.clone(),
        )
        .unwrap();

    // Joiner: a real subprocess shard. Replay must hand it the same
    // history, so answers carry the same versions.
    let (mut child, addr, reader) = spawn_shard();
    let id = net.join(&addr).unwrap();
    assert_eq!(net.shard_ids(), vec![0, 1, id]);

    let mut m2_served = 0;
    for n in 0..24 {
        let mut req = request(&f, n);
        if n % 2 == 0 {
            req.model_id = "m2".into();
        }
        let resp = net.explain(&req).unwrap();
        let want = if n % 2 == 0 { v2 } else { v1 };
        assert_eq!(resp.model_version, want, "replayed history must agree");
        if req.model_id == "m2" {
            m2_served += 1;
        }
    }
    assert_eq!(m2_served, 12);
    assert_eq!(net.stats().spills, 0, "no spills on a healthy 3-shard ring");

    // Graceful leave of the joiner: drain handshake completes, process
    // exits 0, survivors absorb its keys.
    net.leave(id).unwrap();
    for n in 0..12 {
        net.explain(&request(&f, n)).unwrap();
    }
    assert!(child.wait().unwrap().success(), "drained shard exits 0");
    drop(reader);

    // Removing one of two remaining shards is allowed; removing the last
    // is not.
    net.leave(1).unwrap();
    assert!(matches!(net.leave(0), Err(NetError::Config(_))));
    net.drain_all().unwrap();
    let (_, e0) = s0.join();
    let (_, e1) = s1.join();
    assert_eq!((e0, e1), (0, 0), "no protocol errors on either server");
}

/// The router refuses to start empty and surfaces rejects untouched.
#[test]
fn config_errors_and_engine_rejects_surface_cleanly() {
    assert!(matches!(
        NetCluster::connect(&[], NetClusterConfig::default()),
        Err(NetError::Config(_))
    ));

    let server = ShardServer::start(ShardConfig::default()).unwrap();
    let addrs = vec![server.local_addr().to_string()];
    let net = NetCluster::connect(&addrs, NetClusterConfig::default()).unwrap();
    // No model registered: the shard's admission control answers, and the
    // reject crosses the wire typed, not stringly.
    let err = net
        .explain(&ExplainRequest {
            model_id: "ghost".into(),
            features: vec![1.0, 2.0],
            method: ExplainMethod::TreeShap,
            budget: Duration::from_secs(1),
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            NetError::Serve(ServeError::Rejected(RejectReason::UnknownModel { ref model_id }))
                if model_id == "ghost"
        ),
        "got {err:?}"
    );
    net.drain_all().unwrap();
    server.join();
}
