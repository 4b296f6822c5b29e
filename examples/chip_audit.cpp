// Chip-level crosstalk audit — the paper's end-to-end methodology on a
// synthetic DSP-class design: generate the design, build the chip-level
// coupling database, prune it into clusters, analyze every victim with the
// MOR engine under timing-window and logic-correlation filtering, and
// report glitch violations.
//
// Build & run:  ./build/examples/chip_audit [net_count] [flags]
//   --threads N               worker threads (default 1 = serial)
//   --processes N             forked holder *processes* (default 0 =
//                             in-process path); each holder analyzes one
//                             leased victim at a time, crash-isolated from
//                             the others (DESIGN.md §12)
//   --shard-heartbeat-ms MS   holder heartbeat period (> 0); 10x silence
//                             expires its lease, another 10x kills it
//   --cluster-deadline-ms MS  per-cluster wall-clock budget (0 = unlimited)
//   --cluster-mem-mb MB       per-cluster memory budget (0 = unlimited)
//   --global-mem-soft-mb MB   soft RSS limit; sheds largest queued clusters
//   --journal PATH            write every victim to a crash-safe journal
//   --resume                  skip victims already in the journal (needs --journal)
//   --model-cache-mb MB       reduced-model cache budget (default 64; repeated
//                             cluster pencils reuse their certified model)
//   --no-model-cache          disable the reduced-model cache
//   --canonical-cache         permutation/tolerance-invariant cache keys; a
//                             tolerant hit is reused only after its accuracy
//                             certificate re-passes against the requesting
//                             cluster's exact matrices
//   --canonical-cache-tol T   canonical key quantization tolerance (default
//                             1e-6 relative)
//   --cell-cache PATH         cell characterization cache file (default:
//                             xtv_cells.cache next to the binary)
//   --replicate-rows R        tile the design out of R identical rows
//   --cluster-repeat-skew S   jitter replicated-row receiver loads by a
//                             relative factor up to S (defeats exact cache
//                             fingerprints; pairs with --canonical-cache)
//   --mor-order Q             starting reduced-model order (default 0 =
//                             automatic: min(4 x ports, cluster nodes))
//   --certify                 a-posteriori accuracy certificates + escalation
//   --cert-tol T              max relative transfer-fn error (default 0.02)
//   --cert-freqs N            sample frequencies per certificate (default 5)
//   --max-mor-order Q         escalation ladder order ceiling (default 64)
//   --audit-fraction F        fraction of MOR results re-run on golden SPICE
//   --audit-peak-tol F        audit peak tolerance as fraction of Vdd
//   --fail-on LIST            exit 3 when any finding is at least as severe as
//                             any listed status (comma-separated names, e.g.
//                             "accuracy-bound,failed" or "kFailed") — CI gate
//   --workers LIST            comma-separated xtv_worker endpoints
//                             (host:port,...); victims are leased to the
//                             fleet over TCP (DESIGN.md §14) instead of
//                             local threads/processes
//   --worker-heartbeat-ms MS  expected worker heartbeat (> 0); 10x silence
//                             expires its leases (default 250)
//   --unit-victims N          victims per leased work unit (default 16)
//   --max-unit-attempts N     lease attempts before a unit is quarantined
//                             and conceded (default 4)
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>

#include <memory>

#include "chipgen/dsp_chip.h"
#include "core/verifier.h"
#include "flags.h"
#include "serve/job.h"
#include "serve/remote.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace xtv;

int main(int argc, char** argv) {
  const Technology tech = Technology::default_250nm();
  CellLibrary library(tech);
  CharacterizedLibrary chars(library);
  Extractor extractor(tech);

  DspChipOptions chip_options;
  chip_options.net_count = 800;
  VerifierOptions options;
  options.glitch_threshold = 0.10;          // flag peaks above 10% of Vdd
  options.glitch.align_aggressors = true;   // worst-case alignment search
  options.glitch.tstop = 4e-9;
  options.model_cache_mb = 64.0;            // repeated clusters reuse models

  // Cell characterization cache: default next to the binary (not the
  // CWD), so every invocation of the same build shares one cache no
  // matter where it is launched from.
  std::string cell_cache = "xtv_cells.cache";
  {
    std::string self = argv[0] ? argv[0] : "";
    const std::size_t slash = self.rfind('/');
    if (slash != std::string::npos)
      cell_cache = self.substr(0, slash + 1) + cell_cache;
  }

  int fail_on_severity = INT_MAX;  // --fail-on CI gate; INT_MAX = disabled
  serve::RemoteExecOptions remote_options;  // --workers remote fan-out
  flags::SeenFlags seen;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    seen.check(arg);
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(arg, "--threads") == 0) {
      options.threads = flags::parse_size(arg, value(arg), 1,
                                          "an integer >= 1");
    } else if (std::strcmp(arg, "--processes") == 0) {
      // 0 is the library default (in-process path), but asking for zero
      // worker processes explicitly is a contradiction, not a request.
      options.processes = flags::parse_size(arg, value(arg), 1,
                                            "an integer >= 1");
    } else if (std::strcmp(arg, "--shard-heartbeat-ms") == 0) {
      const char* v = value(arg);
      options.shard_heartbeat_ms =
          flags::parse_double(arg, v, 0.0, 1e9, "a period > 0 ms");
      if (options.shard_heartbeat_ms <= 0.0)
        flags::usage_error(arg, v, "a period > 0 ms");
    } else if (std::strcmp(arg, "--cluster-deadline-ms") == 0) {
      options.cluster_deadline_ms =
          flags::parse_double(arg, value(arg), 0.0, 1e12,
                              "a budget >= 0 ms");
    } else if (std::strcmp(arg, "--cluster-mem-mb") == 0) {
      options.cluster_mem_mb = flags::parse_double(
          arg, value(arg), 0.0, 1e9, "a size >= 0 MiB");
    } else if (std::strcmp(arg, "--global-mem-soft-mb") == 0) {
      options.global_mem_soft_mb = flags::parse_double(
          arg, value(arg), 0.0, 1e9, "a size >= 0 MiB");
    } else if (std::strcmp(arg, "--journal") == 0) {
      options.journal_path = value(arg);
    } else if (std::strcmp(arg, "--resume") == 0) {
      options.resume = true;
    } else if (std::strcmp(arg, "--model-cache-mb") == 0) {
      options.model_cache_mb = flags::parse_double(
          arg, value(arg), 0.0, 1e9, "a size >= 0 MiB");
    } else if (std::strcmp(arg, "--no-model-cache") == 0) {
      options.model_cache_mb = 0.0;
    } else if (std::strcmp(arg, "--canonical-cache") == 0) {
      options.canonical_cache = true;
    } else if (std::strcmp(arg, "--canonical-cache-tol") == 0) {
      const char* v = value(arg);
      options.canonical_cache_tol =
          flags::parse_double(arg, v, 0.0, 1.0, "a relative tolerance in (0,1]");
      if (options.canonical_cache_tol <= 0.0)
        flags::usage_error(arg, v, "a relative tolerance in (0,1]");
    } else if (std::strcmp(arg, "--cell-cache") == 0) {
      cell_cache = value(arg);
    } else if (std::strcmp(arg, "--replicate-rows") == 0) {
      chip_options.replicate_rows =
          flags::parse_size(arg, value(arg), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--cluster-repeat-skew") == 0) {
      chip_options.cluster_repeat_skew = flags::parse_double(
          arg, value(arg), 0.0, 1.0, "a relative skew in [0,1)");
    } else if (std::strcmp(arg, "--mor-order") == 0) {
      options.glitch.mor.max_order = flags::parse_size(
          arg, value(arg), 0, "an integer (0 = automatic)");
    } else if (std::strcmp(arg, "--certify") == 0) {
      options.certify = true;
    } else if (std::strcmp(arg, "--cert-tol") == 0) {
      const char* v = value(arg);
      options.cert_rel_tol =
          flags::parse_double(arg, v, 0.0, 1.0, "a tolerance in (0,1]");
      if (options.cert_rel_tol <= 0.0)
        flags::usage_error(arg, v, "a tolerance in (0,1]");
    } else if (std::strcmp(arg, "--cert-freqs") == 0) {
      options.cert_freqs =
          flags::parse_size(arg, value(arg), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--max-mor-order") == 0) {
      options.max_mor_order =
          flags::parse_size(arg, value(arg), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--audit-fraction") == 0) {
      options.audit_fraction = flags::parse_double(
          arg, value(arg), 0.0, 1.0, "a fraction in [0,1]");
    } else if (std::strcmp(arg, "--audit-peak-tol") == 0) {
      options.audit_peak_tol_frac = flags::parse_double(
          arg, value(arg), 0.0, 1.0, "a fraction in [0,1]");
    } else if (std::strcmp(arg, "--workers") == 0) {
      std::istringstream list(value(arg));
      for (std::string ep; std::getline(list, ep, ',');)
        if (!ep.empty()) remote_options.workers.push_back(ep);
      if (remote_options.workers.empty())
        flags::usage_error(arg, "", "a host:port list");
    } else if (std::strcmp(arg, "--worker-heartbeat-ms") == 0) {
      const char* v = value(arg);
      remote_options.heartbeat_ms =
          flags::parse_double(arg, v, 0.0, 1e9, "a period > 0 ms");
      if (remote_options.heartbeat_ms <= 0.0)
        flags::usage_error(arg, v, "a period > 0 ms");
    } else if (std::strcmp(arg, "--unit-victims") == 0) {
      remote_options.unit_victims =
          flags::parse_size(arg, value(arg), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--max-unit-attempts") == 0) {
      remote_options.max_unit_attempts =
          flags::parse_size(arg, value(arg), 1, "an integer >= 1");
    } else if (std::strcmp(arg, "--fail-on") == 0) {
      std::istringstream list(value(arg));
      for (std::string name; std::getline(list, name, ',');) {
        if (name.empty()) continue;
        FindingStatus s;
        if (!parse_finding_status(name, &s)) {
          std::fprintf(stderr,
                       "--fail-on: unknown finding status \"%s\"\n",
                       name.c_str());
          return 2;
        }
        fail_on_severity = std::min(fail_on_severity,
                                    finding_status_severity(s));
      }
    } else if (arg[0] != '-') {
      chip_options.net_count =
          flags::parse_size("net_count", arg, 1, "an integer >= 1");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg);
      return 2;
    }
  }
  if (options.resume && options.journal_path.empty()) {
    std::fprintf(stderr, "--resume requires --journal PATH\n");
    return 2;
  }
  if (!remote_options.workers.empty() &&
      chip_options.cluster_repeat_skew > 0.0) {
    // The design knob does not travel in a job spec: remote workers would
    // rebuild an unskewed design and verify different electricals.
    std::fprintf(stderr,
                 "--cluster-repeat-skew cannot be combined with --workers\n");
    return 2;
  }

  // Remote fan-out: workers rebuild the job from a JobSpec text replay,
  // so any result-affecting flag that does not travel in a spec would
  // silently put the fleet on different options. The distributability
  // gate is exact: the spec must round-trip to this run's options hash.
  std::unique_ptr<serve::RemoteExecutor> remote;
  if (!remote_options.workers.empty()) {
    serve::JobSpec spec;
    spec.options = options;
    spec.design_nets = chip_options.net_count;
    if (chip_options.replicate_rows > 1)
      spec.design_rows = chip_options.replicate_rows;
    serve::JobSpec echo;
    std::string perr;
    if (!serve::JobSpec::parse(spec.to_text(), &echo, &perr)) {
      std::fprintf(stderr, "--workers: options not distributable: %s\n",
                   perr.c_str());
      return 2;
    }
    if (options_result_hash(echo.to_options()) !=
        options_result_hash(options)) {
      std::fprintf(stderr,
                   "--workers: options not distributable (a "
                   "result-affecting flag does not travel in a job spec)\n");
      return 2;
    }
    remote_options.spec_text = spec.to_text();
    remote = std::make_unique<serve::RemoteExecutor>(remote_options);
    options.remote_backend = remote.get();
  }
  chars.load(cell_cache);

  std::printf("generating DSP-like design: %zu nets...\n", chip_options.net_count);
  const ChipDesign design = generate_dsp_chip(library, chip_options);

  std::size_t buses = 0, latches = 0;
  for (const auto& net : design.nets) {
    if (!net.bus_drivers.empty()) ++buses;
    if (net.latch_input) ++latches;
  }
  std::printf("  %zu coupling runs, %zu tri-state buses, %zu latch inputs, "
              "%zu complementary pairs\n",
              design.couplings.size(), buses, latches,
              design.complementary_pairs.size());
  if (options.threads > 1)
    std::printf("  %zu worker threads\n", options.threads);
  if (options.processes > 0)
    std::printf("  %zu worker processes (heartbeat %.0f ms)\n",
                options.processes, options.shard_heartbeat_ms);
  if (remote)
    std::printf("  %zu remote workers (heartbeat %.0f ms, %zu victims/unit, "
                "%zu lease attempts)\n",
                remote_options.workers.size(), remote_options.heartbeat_ms,
                remote_options.unit_victims,
                remote_options.max_unit_attempts);
  if (options.cluster_deadline_ms > 0.0)
    std::printf("  per-cluster budget %.1f ms\n", options.cluster_deadline_ms);
  if (options.cluster_mem_mb > 0.0)
    std::printf("  per-cluster memory budget %.3f MiB\n", options.cluster_mem_mb);
  if (options.global_mem_soft_mb > 0.0)
    std::printf("  soft RSS limit %.1f MiB\n", options.global_mem_soft_mb);
  if (options.model_cache_mb > 0.0)
    std::printf("  reduced-model cache %.0f MiB\n", options.model_cache_mb);
  if (options.canonical_cache)
    std::printf("  canonical cache keys (quantization tol %.3g, "
                "certificate-gated reuse)\n",
                options.canonical_cache_tol);
  if (chip_options.replicate_rows > 1)
    std::printf("  %zu replicated rows%s\n", chip_options.replicate_rows,
                chip_options.cluster_repeat_skew > 0.0 ? " (load-skewed)"
                                                       : "");
  if (!options.journal_path.empty())
    std::printf("  journal %s%s\n", options.journal_path.c_str(),
                options.resume ? " (resuming)" : "");
  if (options.certify)
    std::printf("  certifying reduced models (rel tol %.3g, %zu freqs, "
                "order ceiling %zu)\n",
                options.cert_rel_tol, options.cert_freqs,
                options.max_mor_order);
  if (options.audit_fraction > 0.0)
    std::printf("  auditing %.0f%% of MOR results on the golden engine\n",
                100.0 * options.audit_fraction);

  ChipVerifier verifier(extractor, chars);
  VerificationReport report;
  try {
    report = verifier.verify(design, options);
  } catch (const std::exception& e) {
    // Configuration errors (e.g. --resume against a journal written under
    // different options) are reported, not crashed on.
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::printf("\n%s", report.to_string().c_str());
  std::printf("robustness: eligible=%zu analyzed=%zu screened=%zu retried=%zu "
              "fallback=%zu (deadline=%zu resource=%zu accuracy=%zu) "
              "failed=%zu\n",
              report.victims_eligible, report.victims_analyzed,
              report.victims_screened_out, report.victims_retried,
              report.victims_fallback, report.victims_deadline_bound,
              report.victims_resource_bound, report.victims_accuracy_bound,
              report.victims_failed);
  if (options.processes > 0 && !remote)
    std::printf("process shards: crashes=%zu restarts=%zu quarantined=%zu "
                "shard-crashed=%zu\n",
                report.worker_crashes, report.shard_restarts,
                report.victims_quarantined, report.victims_shard_crashed);
  if (remote) {
    const CoordinatorStats& rs = remote->remote_stats();
    std::printf("remote fan-out: connected=%zu rejected=%zu lost=%zu "
                "lease-expiries=%zu reassignments=%zu stale-frames=%zu "
                "duplicates=%zu quarantined=%zu local-fallback=%zu\n",
                rs.workers_connected, rs.workers_rejected, rs.workers_lost,
                rs.lease_expiries, rs.lease.reassignments,
                rs.lease.stale_frames, rs.lease.duplicate_results,
                report.victims_quarantined, rs.victims_local);
  }
  if (options.certify)
    std::printf("accuracy: certified=%zu escalated=%zu (order raises=%zu) "
                "accuracy-bound=%zu\n",
                report.victims_certified, report.victims_escalated,
                report.order_escalations, report.victims_accuracy_bound);
  if (report.model_cache_hits + report.model_cache_misses > 0)
    std::printf("model cache: hits=%zu misses=%zu (%.0f%% hit rate) "
                "entries=%zu bytes=%.1f MiB evictions=%zu\n",
                report.model_cache_hits, report.model_cache_misses,
                100.0 * static_cast<double>(report.model_cache_hits) /
                    static_cast<double>(report.model_cache_hits +
                                        report.model_cache_misses),
                report.model_cache_entries,
                static_cast<double>(report.model_cache_bytes) /
                    (1024.0 * 1024.0),
                report.model_cache_evictions);
  if (report.canonical_hits + report.canonical_cert_rejects > 0)
    std::printf("canonical cache: certified-reuses=%zu cert-rejects=%zu\n",
                report.canonical_hits, report.canonical_cert_rejects);
  if (report.victims_audited > 0)
    std::printf("audit: sampled=%zu out-of-tolerance=%zu "
                "worst peak delta=%.4g V worst arrival delta=%.3g s\n",
                report.victims_audited, report.audit_failures,
                report.audit_max_peak_err, report.audit_max_time_err);
  for (const auto& f : report.findings) {
    if (f.status == FindingStatus::kAnalyzed ||
        f.status == FindingStatus::kCertified)
      continue;
    std::printf("  net %zu: %s (%zu retries%s%s)\n", f.net,
                finding_status_name(f.status), f.retries,
                f.error.empty() ? "" : ", first error: ",
                f.error.c_str());
  }

  // Distribution of glitch magnitudes across the chip.
  Histogram hist(0.0, 1.0, 10);
  for (const auto& f : report.findings) hist.add(f.peak_fraction);
  std::printf("\nglitch peak distribution (fraction of Vdd):\n%s",
              hist.to_ascii(40, 2).c_str());

  SummaryStats orders;
  for (const auto& f : report.findings)
    orders.add(static_cast<double>(f.reduced_order));
  std::printf("\nreduced model orders: %s\n", orders.to_string(1).c_str());
  std::printf("wall time: %.1f s (%.1f s cpu) for %zu analyzed victims\n",
              report.wall_seconds, report.total_cpu_seconds,
              report.victims_analyzed);
  chars.save(cell_cache);

  // CI gate: any finding at least as severe as the worst-tolerated status
  // fails the run with a distinct exit code (2 = config error, 3 = gated).
  if (fail_on_severity != INT_MAX) {
    std::size_t gated = 0;
    for (const auto& f : report.findings)
      if (finding_status_severity(f.status) >= fail_on_severity) ++gated;
    if (gated > 0) {
      std::fprintf(stderr,
                   "--fail-on: %zu finding(s) at or above the gated "
                   "severity\n",
                   gated);
      return 3;
    }
  }
  return 0;
}
