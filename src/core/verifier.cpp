#include "core/verifier.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>

#include "core/journal.h"
#include "core/pipeline.h"
#include "core/shard_exec.h"
#include "mor/model_cache.h"
#include "util/fault_injection.h"
#include "util/log.h"
#include "util/resource.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace xtv {

namespace {

/// FNV-1a accumulator for options hashing. Doubles hash by bit pattern:
/// two option sets are "the same" exactly when every field is bit-equal,
/// which is also the precondition for bit-identical findings.
struct OptionsHasher {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    bytes(&bits, sizeof(bits));
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
};

}  // namespace

std::uint64_t options_result_hash(const VerifierOptions& o) {
  OptionsHasher h;
  h.f64(o.prune.ratio_threshold);
  h.f64(o.prune.abs_floor);
  h.u64(o.prune.max_aggressors);
  h.u64(o.prune.use_driver_strength ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(o.glitch.driver_model));
  h.f64(o.glitch.fixed_resistance);
  h.f64(o.glitch.tstop);
  h.f64(o.glitch.dt);
  h.u64(o.glitch.mor.max_order);
  h.f64(o.glitch.mor.deflation_tol);
  h.u64(o.glitch.align_aggressors ? 1 : 0);
  h.u64(o.glitch.spice_exploit_linearity ? 1 : 0);
  h.f64(o.glitch.default_switch_time);
  h.f64(o.glitch_threshold);
  h.u64(o.latch_inputs_only ? 1 : 0);
  h.u64(0);  // the deleted max_victims' default: older hashes stay valid
  h.u64(o.analyze_delay_change ? 1 : 0);
  h.u64(o.use_noise_screen ? 1 : 0);
  h.f64(o.em_rms_limit);
  // Budgets affect results (they decide which findings become bounds);
  // threads/journal_path/resume affect only scheduling and are excluded.
  h.f64(o.cluster_deadline_ms);
  // The model cache reuses bit-identical payloads, but a cache hit skips
  // the Krylov-stage memory charges, so under a cluster memory budget the
  // cache on/off decision can steer a finding between kAnalyzed and
  // kResourceBound — result-affecting, hence hashed.
  h.f64(o.model_cache_mb);
  h.f64(o.cluster_mem_mb);
  h.f64(o.global_mem_soft_mb);
  // Certification and audit knobs all steer statuses, escalations, or the
  // audit fields of findings.
  h.u64(o.certify ? 1 : 0);
  h.f64(o.cert_rel_tol);
  h.u64(o.cert_freqs);
  h.u64(o.max_mor_order);
  h.u64(o.mor_order_step);
  h.f64(o.audit_fraction);
  h.u64(o.audit_seed);
  h.f64(o.audit_peak_tol_frac);
  h.f64(o.audit_time_tol);
  // Canonical caching changes which payload serves a victim (certified-
  // equivalent, not bit-identical), so both knobs are result-affecting.
  // Appended at the end to keep the field order stable for older fields.
  h.u64(o.canonical_cache ? 1 : 0);
  h.f64(o.canonical_cache_tol);
  // The reduced transient's step tolerance moves every peak it computes.
  h.f64(o.glitch.lte_vtol);
  return h.h;
}

bool parse_finding_status(const std::string& name, FindingStatus* out) {
  static constexpr struct {
    const char* enumerator;
    FindingStatus status;
  } kTable[] = {
      {"kAnalyzed", FindingStatus::kAnalyzed},
      {"kAnalyzedAfterRetry", FindingStatus::kAnalyzedAfterRetry},
      {"kFellBackToFullSim", FindingStatus::kFellBackToFullSim},
      {"kFellBackToBound", FindingStatus::kFellBackToBound},
      {"kDeadlineBound", FindingStatus::kDeadlineBound},
      {"kResourceBound", FindingStatus::kResourceBound},
      {"kFailed", FindingStatus::kFailed},
      {"kCertified", FindingStatus::kCertified},
      {"kAccuracyBound", FindingStatus::kAccuracyBound},
      {"kShardCrashed", FindingStatus::kShardCrashed},
  };
  for (const auto& entry : kTable) {
    if (name == entry.enumerator ||
        name == finding_status_name(entry.status)) {
      *out = entry.status;
      return true;
    }
  }
  return false;
}

ChipVerifier::ChipVerifier(const Extractor& extractor, CharacterizedLibrary& chars)
    : extractor_(extractor), chars_(chars) {}

std::pair<VictimSpec, std::vector<AggressorSpec>> ChipVerifier::build_victim_cluster(
    const ChipDesign& design, const std::vector<NetSummary>& summaries,
    const PruneResult& pruned, std::size_t victim_net,
    VictimFinding* accounting) const {
  const ChipNet& vnet = design.nets.at(victim_net);

  VictimSpec victim;
  victim.route = vnet.route;
  victim.driver_cell = vnet.driver_cell;  // strongest bus driver pre-applied
  victim.held_high = true;                // worst case analyzed per level; high here
  victim.receiver_cap = vnet.receiver_cap;
  victim.window = vnet.window;

  std::vector<AggressorSpec> aggressors;
  for (const auto& coupling : pruned.retained.at(victim_net)) {
    const ChipNet& anet = design.nets.at(coupling.other);

    // Timing correlation: an aggressor whose switching window cannot
    // overlap the victim's sensitive window cannot hurt it.
    if (!anet.window.overlaps(vnet.window)) {
      if (accounting) ++accounting->aggressors_dropped_by_window;
      continue;
    }
    // Logic correlation: the worst-case glitch on a high victim has every
    // aggressor falling; complementary (Q/QN) aggressors cannot fall
    // together with one already falling — veto against any previously
    // accepted aggressor.
    bool vetoed = false;
    for (const AggressorSpec& prev : aggressors) {
      if (!design.correlations.can_switch_same_direction(prev.net_id,
                                                         coupling.other) ||
          !design.correlations.can_switch_together(prev.net_id, coupling.other)) {
        vetoed = true;
        break;
      }
    }
    // The victim itself may be correlated with the aggressor: a quiet
    // victim is compatible with any aggressor switching, so only mutexes
    // (bus enables) apply.
    if (!vetoed &&
        !design.correlations.can_switch_together(victim_net, coupling.other))
      vetoed = true;
    if (vetoed) {
      if (accounting) ++accounting->aggressors_dropped_by_correlation;
      continue;
    }

    AggressorSpec agg;
    agg.route = anet.route;
    agg.driver_cell = anet.driver_cell;
    agg.rising = !victim.held_high;  // drive toward the opposite rail
    agg.input_slew = anet.input_slew;
    agg.receiver_cap = anet.receiver_cap;
    agg.window = anet.window;
    agg.net_id = coupling.other;
    // Reconstruct the geometric run from the design's coupling list.
    for (const ChipCoupling& c : design.couplings) {
      if ((c.a == victim_net && c.b == coupling.other)) {
        agg.run = {0, 0, c.overlap, c.spacing, c.offset_a, c.offset_b};
        break;
      }
      if (c.b == victim_net && c.a == coupling.other) {
        agg.run = {0, 0, c.overlap, c.spacing, c.offset_b, c.offset_a};
        break;
      }
    }
    if (agg.run.overlap <= 0.0) {
      // Database coupling without geometry (shouldn't happen with the
      // generator) — synthesize an equivalent mid-net run.
      agg.run.overlap = std::min(vnet.route.length, anet.route.length) * 0.5;
      agg.run.spacing = 0.0;
    }
    aggressors.push_back(std::move(agg));
  }
  (void)summaries;
  return {std::move(victim), std::move(aggressors)};
}

// --- ChipVerifier::Prepared -------------------------------------------

struct ChipVerifier::Prepared::Impl {
  const ChipDesign& design;
  const VerifierOptions& options;
  std::vector<NetSummary> summaries;
  PruneResult pruned;
  GlitchAnalyzer analyzer;
  std::unique_ptr<ModelCache> model_cache;
  PipelineContext ctx;
  std::unique_ptr<VictimPipeline> pipeline;
  std::vector<std::size_t> candidates;
  std::size_t shed_threshold = 0;
  double vdd = 0.0;

  Impl(ChipVerifier& verifier, const ChipDesign& d, const VerifierOptions& o)
      : design(d),
        options(o),
        summaries(chip_net_summaries(d, verifier.extractor_, verifier.chars_)),
        pruned(prune_couplings(summaries, o.prune)),
        analyzer(verifier.extractor_, verifier.chars_),
        vdd(verifier.extractor_.tech().vdd) {
    // Shared reduced-model cache (off by default; see VerifierOptions).
    // Hits are bit-identical to fresh computation, so sharing it across
    // worker threads cannot perturb findings.
    if (o.model_cache_mb > 0.0)
      model_cache = std::make_unique<ModelCache>(
          static_cast<std::size_t>(o.model_cache_mb * 1024.0 * 1024.0));

    // Every victim runs through the staged pipeline (core/pipeline.h);
    // one stateless pipeline instance serves all workers.
    ctx.verifier = &verifier;
    ctx.extractor = &verifier.extractor_;
    ctx.chars = &verifier.chars_;
    ctx.analyzer = &analyzer;
    ctx.design = &d;
    ctx.summaries = &summaries;
    ctx.pruned = &pruned;
    ctx.options = &o;
    ctx.model_cache = model_cache.get();
    pipeline = std::make_unique<VictimPipeline>(ctx);

    // Candidate victims in stable net order — the report order,
    // regardless of which worker (or which prior run) produced each
    // result.
    for (std::size_t v = 0; v < d.nets.size(); ++v) {
      if (pruned.retained[v].empty()) continue;
      if (o.latch_inputs_only && !d.nets[v].latch_input) continue;
      candidates.push_back(v);
    }
    set_shed_from(candidates);
  }

  std::size_t footprint(std::size_t v) const {
    return pruned.retained[v].size();
  }

  // Admission control: while the RSS watchdog reports memory pressure,
  // victims with the largest retained clusters (the dominant memory
  // axis) are shed to their conservative Devgan bound instead of being
  // admitted to simulation. The threshold is the median footprint of the
  // work list, so shedding targets the largest half first.
  void set_shed_from(const std::vector<std::size_t>& work) {
    shed_threshold = 0;
    if (work.empty()) return;
    std::vector<std::size_t> sizes;
    sizes.reserve(work.size());
    for (std::size_t v : work) sizes.push_back(footprint(v));
    std::sort(sizes.begin(), sizes.end());
    shed_threshold = sizes[sizes.size() / 2];
  }
};

ChipVerifier::Prepared::Prepared(ChipVerifier& verifier,
                                 const ChipDesign& design,
                                 const VerifierOptions& options)
    : impl_(std::make_unique<Impl>(verifier, design, options)) {}

ChipVerifier::Prepared::~Prepared() = default;

const std::vector<std::size_t>& ChipVerifier::Prepared::candidates() const {
  return impl_->candidates;
}

const PruneResult& ChipVerifier::Prepared::prune_result() const {
  return impl_->pruned;
}

std::size_t ChipVerifier::Prepared::footprint(std::size_t victim) const {
  return impl_->footprint(victim);
}

void ChipVerifier::Prepared::set_shed_work(
    const std::vector<std::size_t>& work) {
  impl_->set_shed_from(work);
}

double ChipVerifier::Prepared::vdd() const { return impl_->vdd; }

std::optional<JournalRecord> ChipVerifier::Prepared::analyze(
    std::size_t victim, bool bound_only) {
  // Injection decisions inside this task are keyed on the victim id, so
  // a threaded (or sharded, or remote) run disturbs exactly the victims
  // a serial run would.
  FaultInjector::ScopedVictim victim_ctx(victim);
  try {
    if (!bound_only && XTV_INJECT_FAULT(FaultSite::kVictimTask))
      throw std::runtime_error(
          "ChipVerifier: injected worker-task fault outside the ladder");
    const bool shed =
        bound_only ||
        (resource::MemoryGovernor::instance().under_pressure() &&
         impl_->footprint(victim) >= impl_->shed_threshold);
    return impl_->pipeline->run(victim, shed);
  } catch (const std::exception& e) {
    // A failure outside the ladder (task setup, the pessimistic path
    // itself) becomes a typed finding attached to this victim — never a
    // lost index or a dead worker.
    JournalRecord rec;
    rec.finding.net = victim;
    record_first_error(rec.finding, e);
    mark_pessimistic(rec.finding, FindingStatus::kFailed, impl_->vdd);
    return rec;
  }
}

void ChipVerifier::Prepared::fill_cache_stats(
    VerificationReport* report) const {
  if (!impl_->model_cache) return;
  const ModelCache::Stats cs = impl_->model_cache->stats();
  report->model_cache_hits = cs.hits;
  report->model_cache_misses = cs.misses;
  report->model_cache_insertions = cs.insertions;
  report->model_cache_evictions = cs.evictions;
  report->model_cache_entries = cs.entries;
  report->model_cache_bytes = cs.bytes;
  report->canonical_hits = cs.canonical_hits;
  report->canonical_cert_rejects = cs.canonical_cert_rejects;
}

// --- verify() ----------------------------------------------------------

VerificationReport ChipVerifier::verify(const ChipDesign& design,
                                        const VerifierOptions& options) {
  if (options.resume && options.journal_path.empty())
    throw std::runtime_error("ChipVerifier: resume requires journal_path");

  VerificationReport report;
  Timer total;

  Prepared prep(*this, design, options);
  report.prune_stats = prep.prune_result().stats;
  const std::vector<std::size_t>& candidates = prep.candidates();

  // Remote fan-out (DESIGN.md §14) and process-isolated execution
  // (DESIGN.md §12) hand the sweep to the lease coordinator, over TCP
  // workers or forked holders.
  const bool use_remote = options.remote_backend != nullptr;
  const bool use_processes = !use_remote && options.processes > 0;

  // Resume: records of the killed run — its journal, then the insurance
  // file the sweep was appending to — stand in for re-analysis. The
  // journal header must carry the current options hash — findings
  // produced under different options are not comparable, so a mismatched
  // resume is refused rather than silently merged.
  const std::uint64_t ohash = options_result_hash(options);
  std::map<std::size_t, JournalRecord> journaled;
  std::unique_ptr<ResultJournal> insurance;
  if (!options.journal_path.empty()) {
    if (options.resume) {
      RunJournal prior = load_run_journal(options.journal_path, ohash);
      if (prior.base_mismatch) {
        char hashes[96];
        std::snprintf(hashes, sizeof(hashes),
                      "(journal hash %016" PRIx64 ", current %016" PRIx64 ")",
                      prior.base_hash, ohash);
        throw NumericalError(StatusCode::kInvalidInput,
                             "ChipVerifier: journal " + options.journal_path +
                                 " was written with different "
                                 "result-affecting options " +
                                 hashes +
                                 "; re-run without --resume to start fresh");
      }
      journaled = std::move(prior.records);
      // Durably rewrite the journal before the insurance file is reset
      // below, so a second crash cannot lose the folded progress.
      if (prior.folded_insurance) {
        std::vector<const JournalRecord*> recs;
        recs.reserve(journaled.size());
        for (const auto& [net, rec] : journaled) recs.push_back(&rec);
        ResultJournal::write_atomic(options.journal_path, recs, ohash);
      }
    } else {
      // A fresh run owns the path: an older run's journal must not be
      // resumed into this one's records.
      ::unlink(options.journal_path.c_str());
    }
    insurance = std::make_unique<ResultJournal>(
        journal_insurance_path(options.journal_path), ohash);
  }

  std::vector<std::size_t> work;
  for (std::size_t v : candidates)
    if (!journaled.count(v)) work.push_back(v);
  prep.set_shed_work(work);

  // The one sink of every backend: a settled record is durable in the
  // insurance file before anyone sees it, then streamed, then merged.
  std::map<std::size_t, JournalRecord> fresh;
  std::mutex fresh_mutex;
  auto settle = [&](JournalRecord&& rec) {
    if (insurance) insurance->append(rec);
    if (options.on_record) {
      try {
        options.on_record(rec);
      } catch (...) {
        // A listener failure must not cost the victim its record.
      }
    }
    std::lock_guard<std::mutex> lock(fresh_mutex);
    fresh.emplace(rec.finding.net, std::move(rec));
  };

  // RSS watchdog for the duration of the sweep (no-op when disabled).
  // Process mode must keep the coordinator single-threaded, because it
  // forks holders (fork duplicates only the calling thread), so there
  // each holder starts its own watchdog instead. The remote coordinator
  // never forks, so it runs the watchdog itself — it may end up
  // analyzing victims locally (concessions, the all-workers-lost
  // fallback).
  std::optional<resource::RssWatchdog> watchdog;
  if (options.global_mem_soft_mb > 0.0 && !use_processes)
    watchdog.emplace(static_cast<std::size_t>(options.global_mem_soft_mb *
                                              1024.0 * 1024.0));

  if (use_processes || use_remote) {
    ShardCallbacks scb;
    // Holder side: the record is returned (streamed over the wire and
    // settled by the coordinator); `bound_only` routes straight to the
    // terminal Devgan-bound stage (the concession).
    scb.analyze = [&](std::size_t v,
                      bool bound_only) -> std::optional<JournalRecord> {
      return prep.analyze(v, bound_only);
    };
    scb.worker_init = [&] {
      if (options.global_mem_soft_mb > 0.0)
        watchdog.emplace(static_cast<std::size_t>(options.global_mem_soft_mb *
                                                  1024.0 * 1024.0));
    };
    scb.on_result = [&](JournalRecord rec) { settle(std::move(rec)); };
    if (options.on_tick)
      scb.on_tick = [&] {
        try {
          options.on_tick();
        } catch (...) {
        }
      };

    CoordinatorStats cstats;
    if (use_remote) {
      cstats = options.remote_backend->run(work, ohash, scb);
    } else {
      CoordinatorOptions copt;
      copt.heartbeat_ms = options.shard_heartbeat_ms;
      // One victim per unit: a holder's death charges exactly the victim
      // it held.
      copt.lease.unit_victims = 1;
      copt.options_hash = ohash;
      cstats = run_process_shards(work, options.processes, copt, scb);
    }
    report.worker_crashes = cstats.workers_lost + cstats.lease_expiries;
    report.shard_restarts = cstats.lease.reassignments;
    report.victims_quarantined = cstats.lease.victims_charged;
  } else {
    auto run_one = [&](std::size_t v) {
      if (auto rec = prep.analyze(v, false)) settle(std::move(*rec));
    };
    if (options.threads <= 1) {
      for (std::size_t v : work) run_one(v);
    } else {
      // Smallest clusters first: when pressure arises mid-run, what
      // remains queued is the largest clusters — exactly what shedding
      // targets. Merge order (below) and victim-keyed injection are both
      // execution-order independent, so this cannot change a clean run's
      // report.
      std::stable_sort(work.begin(), work.end(),
                       [&](std::size_t a, std::size_t b) {
                         return prep.footprint(a) < prep.footprint(b);
                       });
      ThreadPool pool(options.threads);
      pool.parallel_for(work.size(), [&](std::size_t i) { run_one(work[i]); });
    }
  }

  // Merge in candidate order: journaled and fresh results interleave into
  // the exact report an uninterrupted serial run would have produced.
  std::vector<const JournalRecord*> merged;
  if (insurance) merged.reserve(journaled.size() + fresh.size());
  for (std::size_t v : candidates) {
    const JournalRecord* rec = nullptr;
    if (const auto it = journaled.find(v); it != journaled.end())
      rec = &it->second;
    else if (const auto it2 = fresh.find(v); it2 != fresh.end())
      rec = &it2->second;
    if (!rec) continue;  // ineligible
    if (insurance) merged.push_back(rec);

    ++report.victims_eligible;
    report.total_cpu_seconds += rec->finding.cpu_seconds;
    if (rec->screened) {
      ++report.victims_screened_out;
      continue;
    }
    report.findings.push_back(rec->finding);
    const VictimFinding& f = report.findings.back();
    switch (f.status) {
      case FindingStatus::kAnalyzed:
      case FindingStatus::kAnalyzedAfterRetry:
        ++report.victims_analyzed;
        break;
      case FindingStatus::kCertified:
        ++report.victims_analyzed;
        ++report.victims_certified;
        break;
      case FindingStatus::kFellBackToFullSim:
      case FindingStatus::kFellBackToBound:
        ++report.victims_fallback;
        break;
      case FindingStatus::kDeadlineBound:
        ++report.victims_fallback;
        ++report.victims_deadline_bound;
        break;
      case FindingStatus::kResourceBound:
        ++report.victims_fallback;
        ++report.victims_resource_bound;
        break;
      case FindingStatus::kAccuracyBound:
        ++report.victims_fallback;
        ++report.victims_accuracy_bound;
        break;
      case FindingStatus::kShardCrashed:
        ++report.victims_fallback;
        ++report.victims_shard_crashed;
        break;
      case FindingStatus::kFailed:
        ++report.victims_failed;
        break;
    }
    if (f.retries > 0) ++report.victims_retried;
    if (f.cert_order_escalations > 0) {
      ++report.victims_escalated;
      report.order_escalations += f.cert_order_escalations;
    }
    if (f.audited) {
      ++report.victims_audited;
      if (!f.audit_pass) ++report.audit_failures;
      report.audit_max_peak_err =
          std::max(report.audit_max_peak_err, f.audit_peak_err);
      report.audit_max_time_err =
          std::max(report.audit_max_time_err, f.audit_time_err);
    }
    if (f.violation) ++report.violations;
  }
  // Finalization: one atomic write of the merged journal in stable
  // candidate order, then the insurance file is retired — it was only
  // ever crash insurance.
  if (insurance) {
    ResultJournal::write_atomic(options.journal_path, merged, ohash);
    insurance.reset();
    ::unlink(journal_insurance_path(options.journal_path).c_str());
  }
  prep.fill_cache_stats(&report);
  report.wall_seconds = total.elapsed();
  return report;
}

std::string VerificationReport::to_string() const {
  std::ostringstream out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pruning: %zu nets, couplings %zu -> %zu, avg cluster %.1f -> %.1f "
                "(max %zu)\n",
                prune_stats.nets, prune_stats.couplings_before,
                prune_stats.couplings_after, prune_stats.avg_cluster_before,
                prune_stats.avg_cluster_after, prune_stats.max_cluster_after);
  out << buf;
  std::snprintf(buf, sizeof(buf),
                "analyzed %zu victims (%zu screened out analytically), "
                "%zu violations, %.2f s cpu / %.2f s wall\n",
                victims_analyzed, victims_screened_out, violations,
                total_cpu_seconds, wall_seconds);
  out << buf;
  if (victims_retried + victims_fallback + victims_failed > 0) {
    std::snprintf(buf, sizeof(buf),
                  "recovery: %zu of %zu victims retried, %zu fell back "
                  "(full-sim or bound, %zu on deadline, %zu on memory, "
                  "%zu on accuracy), %zu failed every rung\n",
                  victims_retried, victims_eligible, victims_fallback,
                  victims_deadline_bound, victims_resource_bound,
                  victims_accuracy_bound, victims_failed);
    out << buf;
  }
  if (worker_crashes + shard_restarts + victims_quarantined +
          victims_shard_crashed >
      0) {
    std::snprintf(buf, sizeof(buf),
                  "process shards: %zu worker crash(es), %zu shard "
                  "restart(s), %zu victim(s) quarantined, %zu conceded as "
                  "shard-crashed\n",
                  worker_crashes, shard_restarts, victims_quarantined,
                  victims_shard_crashed);
    out << buf;
  }
  if (victims_certified + victims_accuracy_bound + victims_escalated > 0) {
    std::snprintf(buf, sizeof(buf),
                  "certified: %zu victims carry a passing certificate "
                  "(%zu escalated, %zu order raises total), "
                  "%zu accuracy-bound\n",
                  victims_certified, victims_escalated, order_escalations,
                  victims_accuracy_bound);
    out << buf;
  }
  if (model_cache_hits + model_cache_misses > 0) {
    const double lookups =
        static_cast<double>(model_cache_hits + model_cache_misses);
    std::snprintf(buf, sizeof(buf),
                  "model cache: %zu hits / %zu lookups (%.0f%% hit rate), "
                  "%zu entries / %.1f MiB live, %zu evictions\n",
                  model_cache_hits, model_cache_hits + model_cache_misses,
                  100.0 * static_cast<double>(model_cache_hits) / lookups,
                  model_cache_entries,
                  static_cast<double>(model_cache_bytes) / (1024.0 * 1024.0),
                  model_cache_evictions);
    out << buf;
  }
  if (canonical_hits + canonical_cert_rejects > 0) {
    std::snprintf(buf, sizeof(buf),
                  "canonical cache: %zu certified tolerant reuse(s), "
                  "%zu candidate(s) rejected by re-certification\n",
                  canonical_hits, canonical_cert_rejects);
    out << buf;
  }
  if (victims_audited > 0) {
    std::snprintf(buf, sizeof(buf),
                  "audit: %zu victims cross-checked on the golden engine, "
                  "%zu out of tolerance (worst peak delta %.4g V, "
                  "worst arrival delta %.3g s)\n",
                  victims_audited, audit_failures, audit_max_peak_err,
                  audit_max_time_err);
    out << buf;
  }
  for (const auto& f : findings) {
    if (!f.violation) continue;
    std::snprintf(buf, sizeof(buf),
                  "  VIOLATION net %zu: peak %+.3f V (%.0f%% of Vdd), "
                  "%zu aggressors (dropped: %zu window, %zu correlation)%s%s\n",
                  f.net, f.peak, 100.0 * f.peak_fraction, f.aggressors_analyzed,
                  f.aggressors_dropped_by_window,
                  f.aggressors_dropped_by_correlation,
                  f.status == FindingStatus::kAnalyzed ? "" : " via ",
                  f.status == FindingStatus::kAnalyzed
                      ? ""
                      : finding_status_name(f.status));
    out << buf;
  }
  return out.str();
}

}  // namespace xtv
