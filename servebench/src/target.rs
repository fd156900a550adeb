//! The system under test: one in-process engine, or a router over two
//! shard servers on loopback, driven only through their public APIs.

use crate::stream::{COLD_CAPACITY, HOT_CAPACITY, MODEL_ID};
use crate::trace::{Layer, Tracer};
use nfv_bench::SizedTask;
use nfv_net::prelude::*;
use nfv_serve::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shard servers behind the router of the wire workload.
pub const SHARDS: usize = 2;

/// The engine configuration every workload serves with: the defaults
/// apart from the scaled-down cache capacities (see [`HOT_CAPACITY`]).
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        cache_capacity: HOT_CAPACITY,
        cold_capacity: COLD_CAPACITY,
        seed,
        ..ServeConfig::default()
    }
}

/// The fixture model as the serving stack registers it.
pub fn serve_model(task: &SizedTask) -> ServeModel {
    ServeModel::Forest(task.forest.clone())
}

/// Router-side and shard-side transport counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetCounters {
    /// Requests the router retried on a ring successor.
    pub spills: u64,
    /// Transport faults the router saw.
    pub net_errors: u64,
    /// Frames the shard servers failed to decode.
    pub protocol_errors: u64,
}

/// A started serving stack with the fixture model registered.
pub enum Target {
    /// One in-process engine.
    Local(ServeEngine),
    /// A router over shard servers on loopback TCP in this process. The
    /// shards' cache capacities add up to the in-process engine's.
    Wire {
        /// The client-side router.
        net: NetCluster,
        /// The shard servers it routes to.
        servers: Vec<ShardServer>,
    },
}

impl Target {
    /// Starts the stack and registers the model, returning the set-up
    /// time (start, connect and registration; the fixture fit is not
    /// included). Spans go to `tracer` when given.
    pub fn setup(
        wire: bool,
        task: &SizedTask,
        seed: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<(Target, Duration), String> {
        let t0 = Instant::now();
        let target = if wire {
            let shard = ServeConfig {
                cache_capacity: HOT_CAPACITY / SHARDS,
                cold_capacity: COLD_CAPACITY / SHARDS,
                ..serve_config(seed)
            };
            let mut servers = Vec::with_capacity(SHARDS);
            for _ in 0..SHARDS {
                let server = traced(&mut tracer, "ShardServer::start", Layer::Net, || {
                    ShardServer::start(ShardConfig {
                        serve: shard,
                        ..ShardConfig::default()
                    })
                })
                .map_err(|e| format!("shard start: {e}"))?;
                servers.push(server);
            }
            let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
            let net = traced(&mut tracer, "NetCluster::connect", Layer::Net, || {
                NetCluster::connect(&addrs, NetClusterConfig::default())
            })
            .map_err(|e| format!("connect: {e}"))?;
            traced(&mut tracer, "NetCluster::register", Layer::Net, || {
                net.register(
                    MODEL_ID,
                    serve_model(task),
                    task.names.clone(),
                    task.background.clone(),
                )
            })
            .map_err(|e| format!("register: {e}"))?;
            Target::Wire { net, servers }
        } else {
            let engine = traced(&mut tracer, "Engine::start", Layer::Serve, || {
                ServeEngine::start(serve_config(seed))
            });
            traced(&mut tracer, "ModelRegistry::register", Layer::Serve, || {
                engine.registry().register(
                    MODEL_ID,
                    serve_model(task),
                    task.names.clone(),
                    task.background.clone(),
                )
            })
            .map_err(|e| format!("register: {e}"))?;
            Target::Local(engine)
        };
        Ok((target, t0.elapsed()))
    }

    /// The name of the public function a request goes through.
    pub fn explain_span_name(&self) -> &'static str {
        match self {
            Target::Local(_) => "Engine::explain",
            Target::Wire { .. } => "NetCluster::explain",
        }
    }

    /// The layer a request enters.
    pub fn layer(&self) -> Layer {
        match self {
            Target::Local(_) => Layer::Serve,
            Target::Wire { .. } => Layer::Net,
        }
    }

    /// One request, answered or refused.
    pub fn explain(&self, request: ExplainRequest) -> Result<ExplainResponse, String> {
        match self {
            Target::Local(engine) => engine.explain(request).map_err(|e| e.to_string()),
            Target::Wire { net, .. } => net.explain(&request).map_err(|e| e.to_string()),
        }
    }

    /// Engine counters, summed over shards for the wire stack.
    pub fn stats(&self) -> Result<ServeStats, String> {
        match self {
            Target::Local(engine) => Ok(engine.stats()),
            Target::Wire { .. } => Ok(ServeStats::aggregate(&self.shard_stats()?)),
        }
    }

    /// Engine counters of each engine: one in process, one per shard
    /// server on the wire.
    pub fn shard_stats(&self) -> Result<Vec<ServeStats>, String> {
        match self {
            Target::Local(engine) => Ok(vec![engine.stats()]),
            Target::Wire { net, .. } => {
                let mut shards = Vec::new();
                for (id, _, health) in net.stats().shards {
                    let health = health.ok_or(format!("shard {id} health probe failed"))?;
                    let stats = serde_json::from_str::<ServeStats>(&health.stats_json)
                        .map_err(|e| format!("shard {id} stats: {e}"))?;
                    shards.push(stats);
                }
                Ok(shards)
            }
        }
    }

    /// Transport counters (all zero in process).
    pub fn net_counters(&self) -> NetCounters {
        match self {
            Target::Local(_) => NetCounters::default(),
            Target::Wire { net, servers } => {
                let s = net.stats();
                NetCounters {
                    spills: s.spills,
                    net_errors: s.net_errors,
                    protocol_errors: servers.iter().map(ShardServer::protocol_errors).sum(),
                }
            }
        }
    }

    /// The registered model entry the serving side explains against. The
    /// wire stack's shards hold theirs in their own registries, so a local
    /// registry receives the same registration for the oracle; its
    /// version is not used (answers carry the shard's).
    pub fn model_entry(&self, task: &SizedTask) -> Result<Arc<ModelEntry>, String> {
        let local;
        let registry = match self {
            Target::Local(engine) => engine.registry(),
            Target::Wire { .. } => {
                local = ModelRegistry::new();
                local
                    .register(
                        MODEL_ID,
                        serve_model(task),
                        task.names.clone(),
                        task.background.clone(),
                    )
                    .map_err(|e| format!("oracle register: {e}"))?;
                &local
            }
        };
        registry
            .get(MODEL_ID)
            .ok_or_else(|| "model not registered".to_string())
    }

    /// Stops every thread the stack started and waits for them.
    pub fn shutdown(self) -> Result<(), String> {
        match self {
            Target::Local(engine) => {
                engine.shutdown();
                Ok(())
            }
            Target::Wire { net, servers } => {
                let drained = net.drain_all().map_err(|e| format!("drain: {e}"));
                for s in servers {
                    // A failed drain leaves loops running; stop them so
                    // the joins below return.
                    if drained.is_err() {
                        s.stop();
                    }
                    s.join();
                }
                drained.map(|_| ())
            }
        }
    }
}

/// Runs `f`, inside a span when a tracer is given.
fn traced<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    layer: Layer,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, layer, 0, f),
        None => f(),
    }
}
