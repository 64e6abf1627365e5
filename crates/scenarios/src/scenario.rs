//! A [`Scenario`] is a named, self-contained description of one DES
//! experiment: simulator configuration, traffic sources, fault
//! injection, and (optionally) a multi-hop [`Topology`] with per-source
//! [`Route`]s instead of the single bottleneck.
//!
//! Scenarios are the unit the sweep/ensemble machinery replicates: a
//! scenario plus a seed fully determines a run, and
//! [`Scenario::run_seeded`] reduces the run to the
//! [`RunSummary`] the aggregation layer consumes.
//! Every scenario — single-bottleneck or multi-hop — runs through the
//! one topology-first engine (`fpk_sim::run_network`), so sweeps over
//! topology axes (hop count, per-hop μ, route span) compose with every
//! existing axis.

use fpk_numerics::{NumericsError, Result};
use fpk_sim::{
    run_network_summary, run_network_workload_summary, FaultConfig, FlowSpec, NetArena, NetConfig,
    PacketBytes, QdiscKind, Route, RunSummary, SimConfig, SourceSpec, Topology, Workload,
};
use serde::{Deserialize, Serialize};

/// A named bundle of everything one simulation run needs except the
/// seed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name; sweep cells append their coordinates.
    pub name: String,
    /// Run control (horizon, warm-up, sampling, and — when [`Self::topology`]
    /// is `None` — the single bottleneck's μ/service/buffer). The `seed`
    /// field is overwritten by [`Scenario::run_seeded`].
    pub config: SimConfig,
    /// Traffic sources feeding the network.
    pub sources: Vec<SourceSpec>,
    /// Fault injection applied at *every* hop (random loss before each
    /// queue). Overridden per hop by [`Self::hop_faults`] when set.
    pub faults: FaultConfig,
    /// When set, the run uses this multi-hop topology; `config`'s
    /// μ/service/buffer fields are ignored in favour of the per-link
    /// values.
    pub topology: Option<Topology>,
    /// Per-source routes, aligned with `sources`. `None` = every flow
    /// crosses the full topology (for the single bottleneck that is the
    /// classic one-hop path).
    pub routes: Option<Vec<Route>>,
    /// Per-hop fault overrides (one entry per link). `None` = replicate
    /// [`Self::faults`] at every hop.
    pub hop_faults: Option<Vec<FaultConfig>>,
    /// Finite-flow workload running alongside (or instead of) the
    /// static `sources`: open-loop arrivals, flow sizes, Zipf route
    /// popularity. When set, the summary's
    /// [`RunSummary::workload`] carries FCT/slowdown statistics.
    /// `sources` may be empty iff this is set.
    pub workload: Option<Workload>,
    /// Queue discipline at every hop ([`QdiscKind::Fifo`] keeps the
    /// historical per-flow marking policy; see `fpk_sim::qdisc`).
    pub qdisc: QdiscKind,
    /// Optional byte-granular packet sizing (`None` = unit packets).
    pub packet_bytes: Option<PacketBytes>,
    /// Fraction of the queue trace analysed for oscillation in the
    /// summary (validated by `fpk_sim::metrics`).
    pub tail_fraction: f64,
}

impl Scenario {
    /// A single-bottleneck scenario with no faults and the default
    /// oscillation tail (the final half of the trace).
    #[must_use]
    pub fn new(name: impl Into<String>, config: SimConfig, sources: Vec<SourceSpec>) -> Self {
        Self {
            name: name.into(),
            config,
            sources,
            faults: FaultConfig::default(),
            topology: None,
            routes: None,
            hop_faults: None,
            workload: None,
            qdisc: QdiscKind::Fifo,
            packet_bytes: None,
            tail_fraction: 0.5,
        }
    }

    /// Attach fault injection (applied at every hop unless
    /// [`Self::with_hop_faults`] overrides it).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Replace the single bottleneck with a multi-hop topology.
    #[must_use]
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Pin each source to a route (aligned with `sources`; without this
    /// every flow crosses the full topology).
    #[must_use]
    pub fn with_routes(mut self, routes: Vec<Route>) -> Self {
        self.routes = Some(routes);
        self
    }

    /// Per-hop fault injection (one [`FaultConfig`] per link).
    #[must_use]
    pub fn with_hop_faults(mut self, hop_faults: Vec<FaultConfig>) -> Self {
        self.hop_faults = Some(hop_faults);
        self
    }

    /// Attach a finite-flow workload (open-loop arrivals over the
    /// effective topology). With a workload, `sources` may be empty.
    #[must_use]
    pub fn with_workload(mut self, workload: Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Select the queue discipline every hop runs (default:
    /// [`QdiscKind::Fifo`], the historical per-flow marking).
    #[must_use]
    pub fn with_qdisc(mut self, qdisc: QdiscKind) -> Self {
        self.qdisc = qdisc;
        self
    }

    /// Enable byte-granular packets: every packet draws its size from
    /// the distribution and takes `bytes / ref_bytes` nominal service
    /// times.
    #[must_use]
    pub fn with_packet_bytes(mut self, packet_bytes: PacketBytes) -> Self {
        self.packet_bytes = Some(packet_bytes);
        self
    }

    /// Override the oscillation-analysis tail fraction.
    #[must_use]
    pub fn with_tail_fraction(mut self, tail_fraction: f64) -> Self {
        self.tail_fraction = tail_fraction;
        self
    }

    /// The topology this scenario runs on: the explicit one, or the
    /// 1-link topology `config` describes.
    #[must_use]
    pub fn effective_topology(&self) -> Topology {
        self.topology.clone().unwrap_or_else(|| {
            Topology::single(self.config.mu, self.config.service, self.config.buffer)
        })
    }

    /// Assemble the [`NetConfig`] + [`FlowSpec`] list for a run under
    /// `seed`.
    ///
    /// # Errors
    /// [`NumericsError::InvalidParameter`] when `routes` is set but its
    /// length disagrees with `sources`.
    pub fn network(&self, seed: u64) -> Result<(NetConfig, Vec<FlowSpec>)> {
        let topology = self.effective_topology();
        let k = topology.len();
        let faults = self
            .hop_faults
            .clone()
            .unwrap_or_else(|| vec![self.faults; k]);
        if let Some(routes) = &self.routes {
            if routes.len() != self.sources.len() {
                return Err(NumericsError::InvalidParameter {
                    context: "Scenario: routes must align one-to-one with sources",
                });
            }
        }
        let flows: Vec<FlowSpec> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, s)| FlowSpec {
                source: s.clone(),
                route: self
                    .routes
                    .as_ref()
                    .map_or_else(|| Route::full(k), |r| r[i]),
            })
            .collect();
        let net = NetConfig {
            topology,
            faults,
            t_end: self.config.t_end,
            warmup: self.config.warmup,
            sample_interval: self.config.sample_interval,
            seed,
            qdisc: self.qdisc,
            packet_bytes: self.packet_bytes,
        };
        Ok((net, flows))
    }

    /// Run the scenario under the given seed and summarise it.
    ///
    /// # Errors
    /// Propagates simulator configuration/validation errors and summary
    /// (fairness/oscillation) errors.
    pub fn run_seeded(&self, seed: u64) -> Result<RunSummary> {
        self.run_seeded_in(&mut NetArena::new(), seed)
    }

    /// [`Self::run_seeded`] against caller-owned scratch state: the run
    /// leaves its traces in the arena and the summary is computed
    /// straight from them, so a replication loop
    /// holding one arena performs no per-run trace allocation. Output is
    /// bit-identical to [`Self::run_seeded`].
    ///
    /// # Errors
    /// Same contract as [`Self::run_seeded`].
    pub fn run_seeded_in(&self, arena: &mut NetArena, seed: u64) -> Result<RunSummary> {
        let (net, flows) = self.network(seed)?;
        match &self.workload {
            Some(w) => run_network_workload_summary(arena, &net, &flows, w, self.tail_fraction),
            None => run_network_summary(arena, &net, &flows, self.tail_fraction),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpk_congestion::{LinearExp, WindowAimd};
    use fpk_sim::{run_network, summarize_network, Link, Service};

    fn base() -> Scenario {
        Scenario::new(
            "unit",
            SimConfig {
                mu: 50.0,
                service: Service::Exponential,
                buffer: None,
                t_end: 20.0,
                warmup: 4.0,
                sample_interval: 0.1,
                seed: 0,
            },
            vec![SourceSpec::Rate {
                law: LinearExp::new(8.0, 0.5, 10.0),
                lambda0: 20.0,
                update_interval: 0.1,
                prop_delay: 0.01,
                poisson: true,
            }],
        )
    }

    #[test]
    fn run_seeded_is_deterministic_and_seed_sensitive() {
        let sc = base();
        let a = sc.run_seeded(7).unwrap();
        let b = sc.run_seeded(7).unwrap();
        let c = sc.run_seeded(8).unwrap();
        assert_eq!(a.throughputs, b.throughputs);
        assert!(
            (a.throughputs[0] - c.throughputs[0]).abs() > 1e-12,
            "different seeds should perturb the throughput"
        );
    }

    #[test]
    fn seed_field_in_config_is_ignored() {
        let mut sc = base();
        sc.config.seed = 1;
        let a = sc.run_seeded(7).unwrap();
        sc.config.seed = 2;
        let b = sc.run_seeded(7).unwrap();
        assert_eq!(a.throughputs, b.throughputs);
    }

    #[test]
    fn single_bottleneck_summary_matches_full_trace_path() {
        // The arena summary behind run_seeded must not move any number:
        // it equals run_network + summarize_network on the scenario's
        // own network and seed, field for field.
        let sc = base().with_faults(FaultConfig::Iid { loss_prob: 0.02 });
        let via_scenario = sc.run_seeded(11).unwrap();
        let (net, flows) = sc.network(11).unwrap();
        let direct =
            summarize_network(&run_network(&net, &flows).unwrap(), sc.tail_fraction).unwrap();
        assert_eq!(via_scenario.throughputs, direct.throughputs);
        assert_eq!(
            via_scenario.mean_queue.to_bits(),
            direct.mean_queue.to_bits()
        );
        assert_eq!(
            via_scenario.utilization.to_bits(),
            direct.utilization.to_bits()
        );
        assert_eq!(via_scenario.jain.to_bits(), direct.jain.to_bits());
        assert_eq!(via_scenario.total_dropped, direct.total_dropped);
        assert_eq!(via_scenario.ctl_std, direct.ctl_std);
    }

    #[test]
    fn topology_scenario_runs_multi_hop() {
        let flow = |_: usize| SourceSpec::Window {
            aimd: WindowAimd::new(1.0, 0.5, 0.04, 10.0),
            w0: 2.0,
        };
        let sc = base()
            .with_topology(Topology::uniform(
                2,
                Link {
                    mu: 60.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_routes(vec![
                Route { first: 0, last: 1 },
                Route::single(0),
                Route::single(1),
            ]);
        let sc = Scenario {
            sources: vec![flow(0), flow(1), flow(2)],
            config: SimConfig {
                t_end: 30.0,
                warmup: 5.0,
                ..sc.config
            },
            ..sc
        };
        let s = sc.run_seeded(3).unwrap();
        assert_eq!(s.throughputs.len(), 3);
        assert!(s.utilization > 0.0 && s.jain > 0.0);
        // The unified engine records per-hop traces, so multi-hop
        // scenarios now get control-variability and oscillation data the
        // legacy tandem path never had.
        assert_eq!(s.ctl_std.len(), 3);
    }

    #[test]
    fn routes_default_to_full_path() {
        let sc = base().with_topology(Topology::uniform(
            3,
            Link {
                mu: 80.0,
                service: Service::Exponential,
                buffer: None,
            },
        ));
        let (net, flows) = sc.network(1).unwrap();
        assert_eq!(net.topology.len(), 3);
        assert_eq!(flows[0].route, Route { first: 0, last: 2 });
    }

    #[test]
    fn faults_replicate_across_hops_unless_overridden() {
        let sc = base()
            .with_topology(Topology::uniform(
                2,
                Link {
                    mu: 80.0,
                    service: Service::Exponential,
                    buffer: None,
                },
            ))
            .with_faults(FaultConfig::Iid { loss_prob: 0.1 });
        let (net, _) = sc.network(1).unwrap();
        assert_eq!(net.faults.len(), 2);
        assert!(net.faults.iter().all(|f| *f == FaultConfig::iid(0.1)));

        let sc = sc.with_hop_faults(vec![
            FaultConfig::Iid { loss_prob: 0.0 },
            FaultConfig::Iid { loss_prob: 0.2 },
        ]);
        let (net, _) = sc.network(1).unwrap();
        assert_eq!(net.faults[0], FaultConfig::iid(0.0));
        assert_eq!(net.faults[1], FaultConfig::iid(0.2));
    }

    #[test]
    fn misaligned_routes_rejected() {
        let sc = base().with_routes(vec![Route::single(0), Route::single(0)]);
        assert!(sc.run_seeded(1).is_err());
    }
}
