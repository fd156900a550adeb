//! Seeded request streams. The program under test sees only the requests
//! these generate; the same seed always yields the same stream.

use nfv_bench::SizedTask;
use nfv_serve::prelude::*;
use std::time::Duration;

/// Closed-loop client threads (each waits for its reply before sending
/// the next request).
pub const CLIENTS: usize = 2;

/// Hot (exact) cache entries of the in-process engine. `ServeConfig`'s
/// default capacities scaled down 16× (same 1:4 hot:cold split), so a
/// warm-up fills the cache in seconds instead of minutes of TreeSHAP.
pub const HOT_CAPACITY: usize = 256;
/// Cold (quantized) cache entries of the in-process engine.
pub const COLD_CAPACITY: usize = 1024;
/// Zipf key space: twice the two tiers combined, so a warmed cache still
/// misses on a steady share of requests.
pub const ZIPF_KEYS: u64 = 2 * (HOT_CAPACITY + COLD_CAPACITY) as u64;

/// Grid step between the feature-0 offsets of distinct keys; a multiple of
/// the engine's 1e-6 quantization grid, so distinct keys are distinct
/// cache cells.
const CELL_STEP: f64 = 1e-5;

/// Per-request deadline budget: generous, so no request is refused for an
/// unmeetable deadline on a loaded host.
pub const BUDGET: Duration = Duration::from_secs(5);

/// The shape of a workload's request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// TreeSHAP on zipf-distributed keys (repeat queries of dashboards).
    Zipf,
    /// A never-repeated grid cell per request, methods cycling through
    /// four sampling explainers.
    Fresh,
}

/// One request as the stream generates it: a key naming the input cell
/// and the method asked for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Key {
    /// Background row the features start from.
    pub row: u64,
    /// Distinct-cell offset index added to feature 0.
    pub cell: u64,
    /// Explanation method.
    pub method: ExplainMethod,
}

impl Key {
    /// The request this key stands for against the fixture model.
    pub fn request(&self, task: &SizedTask) -> ExplainRequest {
        let n_rows = task.data.n_rows() as u64;
        let mut features = task.data.row((self.row % n_rows) as usize).to_vec();
        features[0] += self.cell as f64 * CELL_STEP;
        ExplainRequest {
            model_id: MODEL_ID.into(),
            features,
            method: self.method,
            budget: BUDGET,
        }
    }
}

/// Registry id of the fixture model.
pub const MODEL_ID: &str = "forest";

/// SplitMix64 finaliser: a well-mixed 64-bit hash of `x`.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The four sampling explainers of the fresh workload, in cycle order.
pub fn mixed_method(n: u64) -> ExplainMethod {
    match n % 4 {
        0 => ExplainMethod::KernelShap { n_coalitions: 64 },
        1 => ExplainMethod::SamplingShapley {
            n_permutations: 4,
            antithetic: true,
        },
        2 => ExplainMethod::Permutation,
        _ => ExplainMethod::GroupedShapley,
    }
}

/// Which part of a run a stream feeds; each phase draws different keys
/// from the same seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Untimed cache warm-up.
    Warmup,
    /// The measured window.
    Measure,
}

/// One client's endless request stream.
#[derive(Debug, Clone)]
pub struct ClientStream {
    shape: Shape,
    seed: u64,
    /// Zipf: LCG state. Fresh: next request index of this client.
    state: u64,
    client: u64,
    phase: Phase,
    /// Zipf rank → key bijection `r ↦ (a·r + b) mod K`, `a` coprime to K.
    perm: (u64, u64),
    /// Requests drawn so far.
    issued: u64,
}

impl ClientStream {
    /// Stream of `client` in `phase`, derived from `seed` alone.
    pub fn new(shape: Shape, seed: u64, phase: Phase, client: usize) -> ClientStream {
        let client = client as u64;
        let salt = match phase {
            Phase::Warmup => 0x5741_524D,
            Phase::Measure => 0x4D45_4153,
        };
        let state = match shape {
            Shape::Zipf => mix(seed ^ mix(salt ^ (client << 32))) | 1,
            Shape::Fresh => 0,
        };
        // The rank → key map depends on the seed only, so warm-up and
        // measurement agree on which keys are hot.
        let mut a = (mix(seed ^ 0xA5A5) % ZIPF_KEYS) | 1;
        while gcd(a, ZIPF_KEYS) != 1 {
            a += 2;
        }
        let b = mix(seed ^ 0x5A5A) % ZIPF_KEYS;
        ClientStream {
            shape,
            seed,
            state,
            client,
            phase,
            perm: (a, b),
            issued: 0,
        }
    }

    /// Requests drawn so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The next request of this client.
    pub fn next_key(&mut self) -> Key {
        self.issued += 1;
        match self.shape {
            Shape::Zipf => {
                // Log-uniform ranks: `K^u - 1` for u ∈ [0,1) — a heavy head
                // and a long tail, the shape of NFV telemetry keys.
                self.state = self
                    .state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let u = (self.state >> 11) as f64 / (1u64 << 53) as f64;
                let rank = (((ZIPF_KEYS as f64).powf(u) - 1.0) as u64).min(ZIPF_KEYS - 1);
                let key = (self.perm.0 * rank + self.perm.1) % ZIPF_KEYS;
                Key {
                    row: mix(self.seed ^ key),
                    cell: key,
                    method: ExplainMethod::TreeShap,
                }
            }
            Shape::Fresh => {
                let i = self.state;
                self.state += 1;
                // Request index unique across clients and phases: warm-up
                // cells sit above 2^24, measured cells below.
                let id = self.client + CLIENTS as u64 * i;
                let cell = match self.phase {
                    Phase::Warmup => (1 << 24) + id,
                    Phase::Measure => id,
                };
                Key {
                    row: mix(self.seed ^ mix(cell)),
                    cell,
                    method: mixed_method(id),
                }
            }
        }
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take(shape: Shape, seed: u64, phase: Phase, client: usize, n: usize) -> Vec<Key> {
        let mut s = ClientStream::new(shape, seed, phase, client);
        (0..n).map(|_| s.next_key()).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for shape in [Shape::Zipf, Shape::Fresh] {
            for client in 0..CLIENTS {
                let a = take(shape, 7, Phase::Measure, client, 500);
                assert_eq!(a, take(shape, 7, Phase::Measure, client, 500));
                assert_ne!(a, take(shape, 8, Phase::Measure, client, 500));
            }
        }
    }

    #[test]
    fn clients_and_phases_draw_different_keys() {
        for shape in [Shape::Zipf, Shape::Fresh] {
            let m0 = take(shape, 3, Phase::Measure, 0, 200);
            assert_ne!(m0, take(shape, 3, Phase::Measure, 1, 200));
            assert_ne!(m0, take(shape, 3, Phase::Warmup, 0, 200));
        }
    }

    #[test]
    fn fresh_cells_never_repeat() {
        let mut cells = std::collections::HashSet::new();
        for phase in [Phase::Warmup, Phase::Measure] {
            for client in 0..CLIENTS {
                for k in take(Shape::Fresh, 11, phase, client, 2000) {
                    assert!(cells.insert(k.cell), "cell {} repeated", k.cell);
                }
            }
        }
    }

    #[test]
    fn zipf_keys_stay_in_the_key_space_and_repeat() {
        let keys = take(Shape::Zipf, 5, Phase::Measure, 0, 5000);
        assert!(keys.iter().all(|k| k.cell < ZIPF_KEYS));
        let distinct: std::collections::HashSet<u64> = keys.iter().map(|k| k.cell).collect();
        assert!(distinct.len() < keys.len() / 2, "zipf head must repeat");
    }
}
