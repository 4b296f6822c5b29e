#include "core/glitch_analyzer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/fault_injection.h"
#include "util/resource.h"
#include "util/status.h"
#include "util/timer.h"

namespace xtv {

namespace {

/// NaN/Inf sweep on engine outputs: a waveform with a non-finite sample
/// means the integration silently blew up; report it as a typed condition
/// so the verifier's ladder can retry instead of trusting a garbage peak.
void check_finite_waves(const std::vector<Waveform>& waves, const char* engine) {
  bool bad = XTV_INJECT_FAULT(FaultSite::kWaveformFinite);
  for (std::size_t i = 0; !bad && i < waves.size(); ++i)
    bad = !waves[i].all_finite();
  if (bad)
    throw NumericalError(StatusCode::kNonFiniteWaveform,
                         std::string(engine) + ": non-finite waveform output");
}

/// Input tie level that makes `cell` hold its output at `held_high`.
double victim_input_level(const CellMaster& cell, bool held_high, double vdd) {
  const bool input_high = cell.inverting() ? !held_high : held_high;
  return input_high ? vdd : 0.0;
}

/// Direction of the aggressor INPUT transition for a given output direction.
bool aggressor_input_rising(const CellMaster& cell, bool output_rising) {
  return cell.inverting() ? !output_rising : output_rising;
}

}  // namespace

GlitchAnalyzer::GlitchAnalyzer(const Extractor& extractor,
                               CharacterizedLibrary& chars)
    : extractor_(extractor), chars_(chars) {}

GlitchAnalyzer::BuiltCluster GlitchAnalyzer::build_cluster(
    const VictimSpec& victim, const std::vector<AggressorSpec>& aggressors,
    const GlitchAnalysisOptions& options) {
  std::vector<NetRoute> nets;
  nets.push_back(victim.route);
  std::vector<CouplingRun> runs;
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    nets.push_back(aggressors[k].route);
    CouplingRun run = aggressors[k].run;
    run.net_a = 0;
    run.net_b = k + 1;
    runs.push_back(run);
  }

  BuiltCluster built;
  built.network = extractor_.extract_cluster(nets, runs);
  RcNetwork& net = built.network;

  // Receiver loads at the far ends.
  net.add_capacitor(net.port_node(ClusterPorts::receiver(0)), RcNetwork::kGround,
                    victim.receiver_cap);
  for (std::size_t k = 0; k < aggressors.size(); ++k)
    net.add_capacitor(net.port_node(ClusterPorts::receiver(k + 1)),
                      RcNetwork::kGround, aggressors[k].receiver_cap);

  const double kGminPort = 1e-9;
  // Receiver ports: regularization only (capacitive terminations, paper §3).
  net.stamp_port_conductance(ClusterPorts::receiver(0), kGminPort);
  for (std::size_t k = 0; k < aggressors.size(); ++k)
    net.stamp_port_conductance(ClusterPorts::receiver(k + 1), kGminPort);

  // Victim driver.
  const CellModel& vic_model = chars_.model(victim.driver_cell);
  switch (options.driver_model) {
    case DriverModelKind::kLinearResistor:
      built.victim_drive_r = victim.held_high ? vic_model.drive_resistance_rise
                                              : vic_model.drive_resistance_fall;
      break;
    case DriverModelKind::kFixedResistor:
      built.victim_drive_r = options.fixed_resistance;
      break;
    case DriverModelKind::kNonlinearTable:
    case DriverModelKind::kTransistor:
      built.victim_drive_r = 0.0;  // nonlinear termination handles holding
      break;
  }
  net.stamp_port_conductance(ClusterPorts::driver(0),
                             built.victim_drive_r > 0.0
                                 ? 1.0 / built.victim_drive_r
                                 : kGminPort);
  if (options.driver_model == DriverModelKind::kNonlinearTable)
    net.add_capacitor(net.port_node(ClusterPorts::driver(0)), RcNetwork::kGround,
                      vic_model.output_cap);

  // Aggressor drivers.
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    const AggressorSpec& agg = aggressors[k];
    const CellModel& model = chars_.model(agg.driver_cell);
    double r = 0.0;
    switch (options.driver_model) {
      case DriverModelKind::kLinearResistor:
        r = agg.rising ? model.drive_resistance_rise : model.drive_resistance_fall;
        break;
      case DriverModelKind::kFixedResistor:
        r = options.fixed_resistance;
        break;
      case DriverModelKind::kNonlinearTable:
      case DriverModelKind::kTransistor:
        r = 0.0;
        break;
    }
    built.agg_drive_r.push_back(r);
    net.stamp_port_conductance(ClusterPorts::driver(k + 1),
                               r > 0.0 ? 1.0 / r : kGminPort);
    if (options.driver_model == DriverModelKind::kNonlinearTable)
      net.add_capacitor(net.port_node(ClusterPorts::driver(k + 1)),
                        RcNetwork::kGround, model.output_cap);
  }
  return built;
}

SourceWave GlitchAnalyzer::aggressor_output_ramp(const AggressorSpec& agg,
                                                 double switch_time,
                                                 const GlitchAnalysisOptions& options) {
  const CellModel& model = chars_.model(agg.driver_cell);
  const double vdd = extractor_.tech().vdd;
  // Load the driver sees: its wire plus receiver plus coupling to victim.
  const double load = extractor_.route_ground_cap(agg.route) + agg.receiver_cap +
                      extractor_.run_coupling_cap(agg.run);
  const TimingTable& table = agg.rising ? model.rise : model.fall;
  const double delay = table.delay.lookup(agg.input_slew, load);
  const double slew = table.output_slew.lookup(agg.input_slew, load);
  const double start = std::max(switch_time + delay - 0.5 * slew, 0.0);
  (void)options;
  return agg.rising ? SourceWave::ramp(0.0, vdd, start, slew)
                    : SourceWave::ramp(vdd, 0.0, start, slew);
}

std::vector<double> GlitchAnalyzer::align_switch_times(
    const VictimSpec& victim, const std::vector<AggressorSpec>& aggressors,
    const GlitchAnalysisOptions& options) {
  std::vector<double> times(aggressors.size(), options.default_switch_time);
  if (!options.align_aggressors || aggressors.size() <= 1) {
    for (std::size_t k = 0; k < aggressors.size(); ++k) {
      const TimingWindow& w = aggressors[k].window;
      if (w.valid)
        times[k] = std::clamp(options.default_switch_time, w.start, w.end);
    }
    return times;
  }

  // Single-aggressor probe runs: find each aggressor's victim-peak latency.
  // Probes always run on the (cheap) MOR path; the transistor abstraction
  // is probed with its nonlinear table model.
  GlitchAnalysisOptions probe = options;
  probe.align_aggressors = false;
  probe.certify = false;  // probes inform alignment only; certifying them
                          // would charge the exact-solve cost per aggressor
  if (probe.driver_model == DriverModelKind::kTransistor)
    probe.driver_model = DriverModelKind::kNonlinearTable;
  std::vector<double> latency(aggressors.size(), 0.0);
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    AggressorSpec solo = aggressors[k];
    solo.window = TimingWindow::of(probe.default_switch_time,
                                   probe.default_switch_time);
    const GlitchResult r = analyze(victim, {solo}, probe);
    // Time of the victim's peak relative to the aggressor's switch time.
    double t_peak = probe.default_switch_time;
    double best = 0.0;
    const Waveform& w = r.victim_wave;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double dev = std::fabs(w.value(i) - w.first_value());
      if (dev > best) {
        best = dev;
        t_peak = w.time(i);
      }
    }
    latency[k] = t_peak - probe.default_switch_time;
  }

  // Common peak time: the earliest every aggressor can reach within its
  // window; each switch time is then clamped into its own window.
  double t_star = 0.0;
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    const TimingWindow& w = aggressors[k].window;
    const double earliest = (w.valid ? w.start : 0.0) + latency[k];
    t_star = std::max(t_star, earliest);
  }
  t_star = std::max(t_star, options.default_switch_time);
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    const TimingWindow& w = aggressors[k].window;
    double s = t_star - latency[k];
    if (w.valid) s = std::clamp(s, w.start, w.end);
    times[k] = std::max(s, 0.0);
  }
  return times;
}

GlitchAnalyzer::PreparedCluster GlitchAnalyzer::prepare(
    const VictimSpec& victim, const std::vector<AggressorSpec>& aggressors,
    const GlitchAnalysisOptions& options) {
  if (options.driver_model == DriverModelKind::kTransistor)
    throw std::runtime_error(
        "GlitchAnalyzer::analyze: transistor drivers need the SPICE path");
  PreparedCluster prepared;
  prepared.switch_times = align_switch_times(victim, aggressors, options);
  prepared.built = build_cluster(victim, aggressors, options);
  return prepared;
}

GlitchAnalyzer::ReducedOutcome GlitchAnalyzer::reduce(
    const PreparedCluster& prepared, const GlitchAnalysisOptions& options) {
  poll_cancel(options.cancel, "GlitchAnalyzer::analyze");
  SympvlOptions mor = options.mor;
  mor.cancel = options.cancel;  // deadlines reach into the Krylov sweep

  // Certificate band: the frequencies this transient resolves (slowest
  // feature 1/tstop up to a few samples per step).
  const double dt_eff = options.dt > 0.0 ? options.dt : options.tstop / 2000.0;
  const double s_min = 1.0 / options.tstop;
  const double s_max = 1.0 / (4.0 * dt_eff);

  ReducedOutcome out;
  ModelCache* cache = options.model_cache;
  ClusterFingerprint fp{};
  CanonicalKey canon{};
  const bool use_canonical = cache && options.canonical_cache;
  // The dense pencil is assembled once: it keys the cache, and on a miss
  // it feeds the reduction (the RcNetwork overload of sympvl_reduce
  // assembles exactly these matrices).
  const DenseMatrix g = prepared.built.network.g_matrix();
  const DenseMatrix c = prepared.built.network.c_matrix(true);
  const DenseMatrix b = prepared.built.network.b_matrix();
  if (cache) {
    fp = cluster_fingerprint(g, c, b, options.mor, options.certify,
                             options.cert_rel_tol, options.cert_freqs, s_min,
                             s_max);
    if (auto hit = cache->lookup(fp)) {
      out.payload = std::move(hit);
      out.from_cache = true;
      return out;
    }
  }
  if (use_canonical) {
    // Exact key missed: try the canonical (permutation/tolerance-
    // invariant) index. Cluster nets own contiguous node blocks, each
    // starting at its driver port node (extract_cluster layout).
    const RcNetwork& net = prepared.built.network;
    const std::size_t nets = net.port_count() / 2;
    std::vector<std::size_t> net_node_begin;
    net_node_begin.reserve(nets + 1);
    for (std::size_t k = 0; k < nets; ++k)
      net_node_begin.push_back(
          static_cast<std::size_t>(net.port_node(ClusterPorts::driver(k))));
    net_node_begin.push_back(static_cast<std::size_t>(net.node_count()));
    canon = canonical_cluster_fingerprint(
        g, c, b, net_node_begin, options.canonical_cache_tol, options.mor,
        options.certify, options.cert_rel_tol, options.cert_freqs, s_min,
        s_max);
    auto chit = cache->canonical_lookup(canon.key);
    if (chit && chit->agg_order.size() == canon.agg_order.size() &&
        chit->payload->model.port_count() == 2 * nets) {
      // Re-express the donor payload in this cluster's port order:
      // canonical slot c pairs the donor aggressor chit->agg_order[c]
      // with our aggressor canon.agg_order[c].
      std::vector<std::size_t> port_from(2 * nets);
      port_from[0] = 0;
      port_from[1] = 1;
      for (std::size_t slot = 0; slot < canon.agg_order.size(); ++slot) {
        const std::size_t req = canon.agg_order[slot];
        const std::size_t don = chit->agg_order[slot];
        port_from[2 * req] = 2 * don;
        port_from[2 * req + 1] = 2 * don + 1;
      }
      std::shared_ptr<CachedReducedModel> candidate =
          permute_payload_ports(*chit->payload, port_from);
      // Certificate gate — always, even when the run does not certify
      // fresh reductions: a tolerant hit is only trusted once its model
      // re-passes the a-posteriori certificate against THIS cluster's
      // exact pencil. Deadline expiry propagates as usual.
      CertifyOptions copt;
      copt.num_freqs = options.cert_freqs;
      copt.s_min = s_min;
      copt.s_max = s_max;
      copt.cancel = options.cancel;
      const Certificate gate =
          certify_reduced_model(net, candidate->model, true, copt);
      if (gate.pass(options.cert_rel_tol)) {
        // Attach the gate certificate only when the run certifies anyway,
        // so certify=false findings look identical to the fresh path.
        if (options.certify) {
          candidate->certificate = gate;
          candidate->have_certificate = true;
          candidate->certified = true;
        }
        candidate->account();
        cache->count_canonical_hit();
        out.payload = std::move(candidate);
        out.from_cache = true;
        out.canonical = true;
        return out;
      }
      cache->count_canonical_cert_reject();
    }
  }

  ReducedModel model = sympvl_reduce(g, c, b, mor);

  // A-posteriori certificate against the exact cluster. Never throws on
  // accuracy failure — the verifier's escalation ladder reads the verdict;
  // deadline expiry still propagates.
  Certificate certificate;
  bool certified = false;
  if (options.certify) {
    CertifyOptions copt;
    copt.num_freqs = options.cert_freqs;
    copt.s_min = s_min;
    copt.s_max = s_max;
    copt.cancel = options.cancel;
    certificate = certify_reduced_model(prepared.built.network, model, true,
                                        copt);
    certified = certificate.pass(options.cert_rel_tol);
  }

  ReducedEigenSystem eigen = diagonalize_reduced(model);

  if (cache) {
    // Deep-copy the payload outside any ClusterScope: cache-owned storage
    // outlives this victim, so it must not bind a charge to the victim's
    // (soon dead) accounting scope.
    std::shared_ptr<CachedReducedModel> payload;
    {
      resource::ClusterScope::Suspension off_the_books;
      payload = std::make_shared<CachedReducedModel>();
      payload->model = model;
      payload->eigen.d = eigen.d;
      payload->eigen.eta = eigen.eta;
      payload->certificate = certificate;
      payload->have_certificate = options.certify;
      payload->certified = certified;
      payload->account();
    }
    cache->insert(fp, payload);
    if (use_canonical)
      cache->canonical_insert(canon.key, std::move(canon.agg_order), payload);
    out.payload = std::move(payload);
  } else {
    // No cache: the payload lives and dies with this victim, so the
    // victim-scoped charges simply move along with the storage.
    auto payload = std::make_shared<CachedReducedModel>();
    payload->model = std::move(model);
    payload->eigen = std::move(eigen);
    payload->certificate = std::move(certificate);
    payload->have_certificate = options.certify;
    payload->certified = certified;
    payload->account();
    out.payload = std::move(payload);
  }
  return out;
}

GlitchResult GlitchAnalyzer::simulate_reduced(
    const VictimSpec& victim, const std::vector<AggressorSpec>& aggressors,
    const PreparedCluster& prepared, const ReducedOutcome& reduced,
    const GlitchAnalysisOptions& options) {
  Timer timer;
  const BuiltCluster& built = prepared.built;
  const std::vector<double>& switch_times = prepared.switch_times;
  const CachedReducedModel& payload = *reduced.payload;
  const double vdd = extractor_.tech().vdd;

  // Copy the (possibly shared, immutable) diagonalization into the
  // simulator under the victim's scope. Cached and fresh payloads are
  // bit-identical by the fingerprint contract, so the transient below
  // cannot tell them apart.
  ReducedSimulator sim(ReducedEigenSystem{payload.eigen.d, payload.eigen.eta});

  // Victim driver.
  std::shared_ptr<const OnePortDevice> victim_holder;
  const CellModel& vic_model = chars_.model(victim.driver_cell);
  if (options.driver_model == DriverModelKind::kNonlinearTable) {
    const double vin = victim_input_level(
        chars_.library().by_name(victim.driver_cell), victim.held_high, vdd);
    victim_holder = std::make_shared<NonlinearTableDriver>(
        std::make_shared<CellModel>(vic_model), SourceWave::dc(vin));
    sim.set_termination(ClusterPorts::driver(0), victim_holder);
  } else if (victim.held_high && built.victim_drive_r > 0.0) {
    // Norton equivalent of the Thevenin holder to Vdd.
    sim.set_input(ClusterPorts::driver(0),
                  SourceWave::dc(vdd / built.victim_drive_r));
  }

  // Aggressor drivers.
  for (std::size_t k = 0; k < aggressors.size(); ++k) {
    const AggressorSpec& agg = aggressors[k];
    const std::size_t port = ClusterPorts::driver(k + 1);
    if (options.driver_model == DriverModelKind::kNonlinearTable) {
      const CellMaster& master = chars_.library().by_name(agg.driver_cell);
      const CellModel& model = chars_.model(agg.driver_cell);
      const bool in_rising = aggressor_input_rising(master, agg.rising);
      const SourceWave input =
          in_rising ? SourceWave::ramp(0.0, vdd, switch_times[k], agg.input_slew)
                    : SourceWave::ramp(vdd, 0.0, switch_times[k], agg.input_slew);
      const double load = extractor_.route_ground_cap(agg.route) +
                          agg.receiver_cap +
                          extractor_.run_coupling_cap(agg.run);
      sim.set_termination(port, std::make_shared<NonlinearTableDriver>(
                                    std::make_shared<CellModel>(model), input,
                                    model.warp(agg.rising, agg.input_slew, load)));
    } else {
      const double g = 1.0 / built.agg_drive_r[k];
      const SourceWave vout =
          aggressor_output_ramp(agg, switch_times[k], options);
      // Norton injection: i(t) = Vout(t) * g.
      std::vector<std::pair<double, double>> pts;
      for (const auto& [t, v] : vout.breakpoints()) pts.emplace_back(t, v * g);
      sim.set_input(port, pts.size() == 1 ? SourceWave::dc(pts.front().second)
                                          : SourceWave::pwl(std::move(pts)));
    }
  }

  ReducedSimOptions ropt;
  ropt.tstop = options.tstop;
  ropt.dt = options.dt;
  ropt.cancel = options.cancel;
  const ReducedSimResult res = sim.run(ropt);
  check_finite_waves(res.port_voltages, "GlitchAnalyzer::analyze");

  GlitchResult out;
  out.cpu_seconds = timer.elapsed();
  out.reduced_order = payload.model.order();
  out.certificate = payload.certificate;  // copy: the payload may be shared
  out.certified = payload.certified;
  out.victim_wave = res.port_voltages[ClusterPorts::receiver(0)];
  out.peak = out.victim_wave.peak_deviation();
  out.peak_at_driver =
      res.port_voltages[ClusterPorts::driver(0)].peak_deviation();
  if (!aggressors.empty())
    out.aggressor_wave = res.port_voltages[ClusterPorts::receiver(1)];
  out.switch_times = switch_times;

  // Electromigration audit: reconstruct the victim holder's current from
  // its port-voltage waveform through the (memoryless) driver model.
  if (victim_holder) {
    const Waveform& vd = res.port_voltages[ClusterPorts::driver(0)];
    Waveform current;
    current.reserve(vd.size());
    for (std::size_t i = 0; i < vd.size(); ++i)
      current.append(vd.time(i), victim_holder->current(vd.value(i), vd.time(i)));
    out.victim_driver_rms_current = current.rms();
    out.victim_driver_peak_current =
        std::max(std::fabs(current.max_value()), std::fabs(current.min_value()));
  }
  return out;
}

GlitchResult GlitchAnalyzer::analyze(const VictimSpec& victim,
                                     const std::vector<AggressorSpec>& aggressors,
                                     const GlitchAnalysisOptions& options) {
  const PreparedCluster prepared = prepare(victim, aggressors, options);
  Timer timer;
  const ReducedOutcome reduced = reduce(prepared, options);
  GlitchResult out = simulate_reduced(victim, aggressors, prepared, reduced,
                                      options);
  out.cpu_seconds = timer.elapsed();  // reduce + transient, as before
  return out;
}

GlitchResult GlitchAnalyzer::analyze_spice(const VictimSpec& victim,
                                           const std::vector<AggressorSpec>& aggressors,
                                           const GlitchAnalysisOptions& options) {
  const std::vector<double> switch_times =
      align_switch_times(victim, aggressors, options);

  // For apples-to-apples engine comparisons the SPICE path uses the exact
  // circuit of the MOR path. Transistor drivers bring their own junction
  // caps and conductances, so their cluster is built with bare (gmin-only)
  // ports and no model output caps.
  GlitchAnalysisOptions build_opts = options;
  if (options.driver_model == DriverModelKind::kTransistor) {
    build_opts.driver_model = DriverModelKind::kFixedResistor;
    build_opts.fixed_resistance = 1e18;  // gmin-class stamp, no model caps
  }
  BuiltCluster built = build_cluster(victim, aggressors, build_opts);

  const double vdd = extractor_.tech().vdd;
  Circuit ckt;
  std::vector<int> port_nodes;
  for (std::size_t p = 0; p < built.network.port_count(); ++p)
    port_nodes.push_back(ckt.add_node("port" + std::to_string(p)));
  built.network.export_to(ckt, port_nodes);

  const int vic_drv = port_nodes[ClusterPorts::driver(0)];
  const int vic_rcv = port_nodes[ClusterPorts::receiver(0)];

  Timer timer;
  switch (options.driver_model) {
    case DriverModelKind::kLinearResistor:
    case DriverModelKind::kFixedResistor: {
      if (victim.held_high && built.victim_drive_r > 0.0)
        ckt.add_isource(Circuit::ground(), vic_drv,
                        SourceWave::dc(vdd / built.victim_drive_r));
      for (std::size_t k = 0; k < aggressors.size(); ++k) {
        const double g = 1.0 / built.agg_drive_r[k];
        const SourceWave vout =
            aggressor_output_ramp(aggressors[k], switch_times[k], options);
        std::vector<std::pair<double, double>> pts;
        for (const auto& [t, v] : vout.breakpoints()) pts.emplace_back(t, v * g);
        ckt.add_isource(Circuit::ground(),
                        port_nodes[ClusterPorts::driver(k + 1)],
                        pts.size() == 1 ? SourceWave::dc(pts.front().second)
                                        : SourceWave::pwl(std::move(pts)));
      }
      break;
    }
    case DriverModelKind::kNonlinearTable: {
      const double vin = victim_input_level(
          chars_.library().by_name(victim.driver_cell), victim.held_high, vdd);
      ckt.add_termination(vic_drv, std::make_shared<NonlinearTableDriver>(
                                       std::make_shared<CellModel>(
                                           chars_.model(victim.driver_cell)),
                                       SourceWave::dc(vin)));
      for (std::size_t k = 0; k < aggressors.size(); ++k) {
        const AggressorSpec& agg = aggressors[k];
        const CellMaster& master = chars_.library().by_name(agg.driver_cell);
        const CellModel& model = chars_.model(agg.driver_cell);
        const bool in_rising = aggressor_input_rising(master, agg.rising);
        const SourceWave input =
            in_rising
                ? SourceWave::ramp(0.0, vdd, switch_times[k], agg.input_slew)
                : SourceWave::ramp(vdd, 0.0, switch_times[k], agg.input_slew);
        const double load = extractor_.route_ground_cap(agg.route) +
                            agg.receiver_cap +
                            extractor_.run_coupling_cap(agg.run);
        ckt.add_termination(
            port_nodes[ClusterPorts::driver(k + 1)],
            std::make_shared<NonlinearTableDriver>(
                std::make_shared<CellModel>(model), input,
                model.warp(agg.rising, agg.input_slew, load)));
      }
      break;
    }
    case DriverModelKind::kTransistor: {
      const int vdd_node = ckt.add_node("vdd");
      ckt.add_vsource(vdd_node, Circuit::ground(), SourceWave::dc(vdd));
      auto tie_side_pins = [&](const CellMaster& master,
                               std::map<std::string, int>& pins) {
        for (const auto& pin : master.input_pins()) {
          if (pins.count(pin)) continue;
          const int tied = ckt.add_node();
          ckt.add_vsource(tied, Circuit::ground(),
                          SourceWave::dc(master.tie_high(pin) ? vdd : 0.0));
          pins[pin] = tied;
        }
      };
      // Victim holder cell.
      {
        const CellMaster& master = chars_.library().by_name(victim.driver_cell);
        const int in = ckt.add_node("vic_in");
        ckt.add_vsource(in, Circuit::ground(),
                        SourceWave::dc(victim_input_level(master, victim.held_high, vdd)));
        std::map<std::string, int> pins{{master.switching_pin(), in},
                                        {master.output_pin(), vic_drv}};
        tie_side_pins(master, pins);
        master.instantiate(ckt, pins, vdd_node);
      }
      // Aggressor driver cells with switching inputs.
      for (std::size_t k = 0; k < aggressors.size(); ++k) {
        const AggressorSpec& agg = aggressors[k];
        const CellMaster& master = chars_.library().by_name(agg.driver_cell);
        const bool in_rising = aggressor_input_rising(master, agg.rising);
        const int in = ckt.add_node("agg_in" + std::to_string(k));
        ckt.add_vsource(in, Circuit::ground(),
                        in_rising
                            ? SourceWave::ramp(0.0, vdd, switch_times[k], agg.input_slew)
                            : SourceWave::ramp(vdd, 0.0, switch_times[k], agg.input_slew));
        std::map<std::string, int> pins{
            {master.switching_pin(), in},
            {master.output_pin(), port_nodes[ClusterPorts::driver(k + 1)]}};
        tie_side_pins(master, pins);
        master.instantiate(ckt, pins, vdd_node);
      }
      break;
    }
  }

  Simulator sim(ckt);
  TransientOptions topt;
  topt.tstop = options.tstop;
  topt.dt = options.dt;
  topt.exploit_linearity = options.spice_exploit_linearity;
  topt.cancel = options.cancel;
  const TransientResult res = sim.transient(
      topt, {vic_rcv, vic_drv,
             aggressors.empty() ? vic_rcv
                                : port_nodes[ClusterPorts::receiver(1)]});
  check_finite_waves(res.probes, "GlitchAnalyzer::analyze_spice");

  GlitchResult out;
  out.cpu_seconds = timer.elapsed();
  out.victim_wave = res.probes[0];
  out.peak = out.victim_wave.peak_deviation();
  out.peak_at_driver = res.probes[1].peak_deviation();
  if (!aggressors.empty()) out.aggressor_wave = res.probes[2];
  out.switch_times = switch_times;
  return out;
}

}  // namespace xtv
