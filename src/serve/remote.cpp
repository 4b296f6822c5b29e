#include "serve/remote.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

#include "cells/cell_library.h"
#include "cells/characterize.h"
#include "cells/tech.h"
#include "chipgen/dsp_chip.h"
#include "core/wire.h"
#include "extract/extractor.h"
#include "serve/client.h"
#include "serve/job.h"
#include "util/atomic_file.h"
#include "util/fault_injection.h"
#include "util/log.h"

namespace xtv {
namespace serve {

namespace {

constexpr std::size_t kNoUnit = static_cast<std::size_t>(-1);

double mono_ms() {
  timespec ts;
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::string hash_hex(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

bool parse_u64(const std::string& tok, std::uint64_t* out, int base = 10) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, base);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

bool parse_size(const std::string& tok, std::size_t* out) {
  std::uint64_t v = 0;
  if (!parse_u64(tok, &v)) return false;
  *out = static_cast<std::size_t>(v);
  return true;
}

/// Stamps a bound-only record as a quarantine concession — field-for-field
/// what the shard supervisor's stamp_concession writes (core/shard_exec.cpp),
/// so a quarantined victim looks the same whichever backend conceded it.
void stamp_concession(JournalRecord& rec, const std::string& why) {
  rec.screened = false;
  rec.finding.status = FindingStatus::kShardCrashed;
  rec.finding.error_code = StatusCode::kWorkerCrashed;
  rec.finding.error = "conceded to conservative bound: " + why;
}

}  // namespace

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {

struct Peer {
  std::string endpoint;  ///< lease-holder identity
  ServeClient client;
  WireDecoder decoder;
  bool ready = false;        ///< setup handshake completed
  bool dead = false;
  double last_heard = 0.0;
  double probation_since = -1.0;  ///< leases expired; awaiting a fresh frame
  std::size_t unit = kNoUnit;     ///< live assignment
  std::size_t attempt = 0;
};

}  // namespace

std::map<std::size_t, JournalRecord> RemoteExecutor::run(
    const std::vector<std::size_t>& work, const ShardCallbacks& callbacks,
    ShardExecStats* stats) {
  // A worker can vanish between poll() and write(); the failure must come
  // back as EPIPE, not a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);

  std::map<std::size_t, JournalRecord> results;

  LeaseOptions lopt;
  lopt.unit_victims = opt_.unit_victims;
  lopt.max_unit_attempts = opt_.max_unit_attempts;
  lopt.backoff_base_ms = opt_.backoff_base_ms;
  lopt.backoff_max_ms = opt_.backoff_max_ms;
  LeaseTable lease(work, lopt);

  // Crash insurance: accepted results are appended (flush-every-1) to the
  // shard-0 journal, exactly where a process-shard worker would write
  // them — a killed coordinator resumes without redoing settled victims,
  // and verify()'s finalization unlinks the file after the stable-order
  // merge.
  std::unique_ptr<ResultJournal> insurance;
  if (!opt_.journal_path.empty()) {
    try {
      insurance = std::make_unique<ResultJournal>(
          journal_shard_path(opt_.journal_path, 0), /*resume=*/false,
          opt_.options_hash, /*flush_every=*/1);
      if (stats) stats->workers_spawned = 1;
    } catch (const std::exception& e) {
      logf(LogLevel::kWarn, "remote: insurance journal unavailable: %s",
           e.what());
    }
  }

  auto settle_record = [&](const JournalRecord& rec) {
    results[rec.finding.net] = rec;
    if (insurance) insurance->append(rec);
    if (callbacks.on_result) callbacks.on_result(rec);
  };

  auto concede_quarantined = [&]() {
    for (std::size_t v : lease.take_quarantined()) {
      if (stats) ++stats->victims_quarantined;
      logf(LogLevel::kWarn,
           "remote: victim %zu quarantined, conceding to local bound", v);
      auto rec = callbacks.analyze ? callbacks.analyze(v, /*bound_only=*/true)
                                   : std::nullopt;
      if (!rec) continue;  // ineligible victim: no record, like a skip
      stamp_concession(*rec, "work unit failed on distinct workers");
      settle_record(*rec);
    }
  };

  // --- Dial the fleet and replay the job spec to every worker. ---
  std::vector<std::unique_ptr<Peer>> peers;
  const double start = mono_ms();
  {
    char hb[64];
    std::snprintf(hb, sizeof hb, "%.17g", opt_.heartbeat_ms);
    const std::string setup = hash_hex(opt_.options_hash) + " " + hb + " " +
                              opt_.spec_text;
    for (const std::string& ep : opt_.workers) {
      auto p = std::make_unique<Peer>();
      p->endpoint = ep;
      std::string err;
      if (!p->client.connect(ep, &err) ||
          !p->client.send(WireType::kWorkerSetup, setup, &err)) {
        logf(LogLevel::kWarn, "remote: worker %s unreachable: %s",
             ep.c_str(), err.c_str());
        p->client.close();
        p->dead = true;
        ++rstats_.workers_lost;
        if (stats) ++stats->worker_crashes;
      }
      p->last_heard = mono_ms();
      peers.push_back(std::move(p));
    }
  }

  auto peer_lost = [&](Peer& p, const char* why) {
    if (p.dead) return;
    logf(LogLevel::kWarn, "remote: worker %s lost (%s)", p.endpoint.c_str(),
         why);
    p.client.close();
    p.dead = true;
    p.unit = kNoUnit;
    lease.fail_holder(p.endpoint, mono_ms());
    ++rstats_.workers_lost;
    if (stats) ++stats->worker_crashes;
  };

  auto expire_leases = [&](Peer& p, const char* why) {
    logf(LogLevel::kWarn, "remote: worker %s lease expired (%s)",
         p.endpoint.c_str(), why);
    lease.fail_holder(p.endpoint, mono_ms());
    p.unit = kNoUnit;
    if (p.probation_since < 0.0) p.probation_since = mono_ms();
    ++rstats_.lease_expiries;
    if (stats) ++stats->worker_crashes;
  };

  auto handle_frame = [&](Peer& p, const WireFrame& f) {
    p.last_heard = mono_ms();
    p.probation_since = -1.0;  // any verified frame re-admits the worker
    std::istringstream in(f.payload);
    switch (f.type) {
      case WireType::kWorkerReady: {
        std::string hex, pid;
        in >> hex >> pid;
        std::uint64_t theirs = 0;
        if (!parse_u64(hex, &theirs, 16) || theirs != opt_.options_hash) {
          // The worker validates first, so this means a broken worker.
          peer_lost(p, "ready-frame hash mismatch");
          return;
        }
        p.ready = true;
        ++rstats_.workers_connected;
        logf(LogLevel::kInfo, "remote: worker %s ready (pid %s)",
             p.endpoint.c_str(), pid.c_str());
        return;
      }
      case WireType::kWorkerReject: {
        std::string reason, detail;
        in >> reason >> detail;
        std::string plain;
        if (!serve_unescape(detail, &plain)) plain = detail;
        logf(LogLevel::kWarn, "remote: worker %s refused the job: %s %s",
             p.endpoint.c_str(), reason.c_str(), plain.c_str());
        ++rstats_.workers_rejected;
        peer_lost(p, "typed rejection");
        return;
      }
      case WireType::kHeartbeat:
        return;
      case WireType::kUnitResult: {
        std::string ustr, astr, tag;
        in >> ustr >> astr >> tag;
        std::size_t unit = 0, attempt = 0;
        if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt)) return;
        if (tag == "r") {
          std::string payload;
          std::getline(in, payload);
          if (!payload.empty() && payload.front() == ' ')
            payload.erase(0, 1);
          JournalRecord rec;
          if (!journal_decode(payload, rec)) {
            peer_lost(p, "undecodable result payload");
            return;
          }
          // Frames from lapsed leases are counted by the lease table
          // (LeaseTableStats::stale_frames) and dropped here.
          if (lease.result(unit, attempt, rec.finding.net) ==
              LeaseVerdict::kAccepted)
            settle_record(rec);
        } else if (tag == "s") {
          std::string vstr;
          in >> vstr;
          std::size_t victim = 0;
          if (!parse_size(vstr, &victim)) return;
          // kAccepted: ineligible victim — settled with no record, the
          // exact in-process semantics of a skipped victim.
          lease.result(unit, attempt, victim);
        }
        return;
      }
      case WireType::kUnitDone: {
        std::string ustr, astr;
        in >> ustr >> astr;
        std::size_t unit = 0, attempt = 0;
        if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt)) return;
        lease.complete(unit, attempt, mono_ms());
        if (p.unit == unit && p.attempt == attempt) p.unit = kNoUnit;
        return;
      }
      default:
        return;  // unexpected type: ignore, the checksum already verified
    }
  };

  // --- Main poll loop: assign, read, supervise. ---
  while (!lease.all_settled()) {
    concede_quarantined();
    if (lease.all_settled()) break;

    const double now = mono_ms();

    // Deterministic lease-expiry fault: expire the first live lease.
    if (XTV_INJECT_FAULT(FaultSite::kLeaseExpiry)) {
      for (auto& p : peers)
        if (!p->dead && p->unit != kNoUnit) {
          expire_leases(*p, "fault injection");
          break;
        }
    }

    // Graceful degradation: with every worker gone, the remaining victims
    // run locally in-process — slower, but every victim still settles
    // with an explicit status.
    std::size_t live = 0;
    for (auto& p : peers)
      if (!p->dead) ++live;
    if (live == 0) {
      const std::vector<std::size_t> rest = lease.drain_remaining();
      if (!rest.empty())
        logf(LogLevel::kWarn,
             "remote: all %zu workers lost; analyzing %zu victims locally",
             peers.size(), rest.size());
      for (std::size_t v : rest) {
        ++rstats_.victims_local;
        auto rec = callbacks.analyze
                       ? callbacks.analyze(v, /*bound_only=*/false)
                       : std::nullopt;
        if (rec) settle_record(*rec);
        if (callbacks.on_tick) callbacks.on_tick();
      }
      concede_quarantined();
      break;
    }

    // Hand the lowest ready unit to each idle, admitted worker.
    for (auto& p : peers) {
      if (p->dead || !p->ready || p->probation_since >= 0.0 ||
          p->unit != kNoUnit)
        continue;
      LeaseAssignment a;
      if (!lease.acquire(p->endpoint, now, &a)) break;  // nothing ready
      std::ostringstream out;
      out << a.unit << " " << a.attempt;
      for (std::size_t v : a.victims) out << " " << v;
      std::string err;
      if (XTV_INJECT_FAULT(FaultSite::kRemoteSend) ||
          !p->client.send(WireType::kUnitAssign, out.str(), &err)) {
        peer_lost(*p, "assign write failed");
        continue;
      }
      p->unit = a.unit;
      p->attempt = a.attempt;
    }

    // Poll every live connection.
    std::vector<pollfd> fds;
    std::vector<Peer*> fd_peers;
    for (auto& p : peers) {
      if (p->dead) continue;
      fds.push_back({p->client.fd(), POLLIN, 0});
      fd_peers.push_back(p.get());
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      Peer& p = *fd_peers[i];
      if (p.dead || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (XTV_INJECT_FAULT(FaultSite::kRemoteRecv)) {
        peer_lost(p, "injected read fault");
        continue;
      }
      char buf[65536];
      const ssize_t n = ::read(fds[i].fd, buf, sizeof buf);
      if (n == 0) {
        peer_lost(p, "connection closed");
        continue;
      }
      if (n < 0) {
        if (errno == EINTR || errno == EAGAIN) continue;
        peer_lost(p, "read error");
        continue;
      }
      p.decoder.feed(buf, static_cast<std::size_t>(n));
      WireFrame frame;
      while (!p.dead && p.decoder.next(&frame)) handle_frame(p, frame);
      if (!p.dead && p.decoder.corrupt()) peer_lost(p, "corrupt stream");
    }

    // Supervision: heartbeat silence past 10x the period expires the
    // worker's leases but keeps the socket — a healed partition re-admits
    // it on the next frame. Silence through a second window means the
    // worker is wedged for good; holding its poll slot (and the operator's
    // hope) any longer helps nobody.
    if (opt_.heartbeat_ms > 0) {
      const double limit = 10.0 * opt_.heartbeat_ms;
      const double t = mono_ms();
      for (auto& p : peers) {
        if (p->dead) continue;
        if (!p->ready) {
          if (t - start > opt_.setup_timeout_ms)
            peer_lost(*p, "setup timeout");
          continue;
        }
        if (t - p->last_heard <= limit) continue;
        if (p->probation_since < 0.0) {
          expire_leases(*p, "heartbeat silence");
        } else if (t - p->probation_since > limit) {
          peer_lost(*p, "silent through probation");
        }
      }
    }

    if (callbacks.on_tick) callbacks.on_tick();
  }

  for (auto& p : peers) p->client.close();
  rstats_.lease = lease.stats();
  if (stats) stats->shard_restarts = lease.stats().reassignments;
  if (insurance) insurance->flush();
  return results;
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

namespace {

/// Everything a worker rebuilds per kWorkerSetup: the spec'd design and a
/// ready-to-run per-victim engine. Member order is construction order —
/// chars/extractor reference tech/library, Prepared references everything.
struct WorkerEngine {
  Technology tech;
  CellLibrary library;
  CharacterizedLibrary chars;
  Extractor extractor;
  ChipDesign design;
  VerifierOptions vo;
  ChipVerifier verifier;
  std::unique_ptr<ChipVerifier::Prepared> prepared;

  WorkerEngine(const JobSpec& spec, const std::string& cell_cache)
      : tech(Technology::default_250nm()),
        library(tech),
        chars(library),
        extractor(tech),
        verifier(extractor, chars) {
    if (!cell_cache.empty()) chars.load(cell_cache);
    DspChipOptions chip;
    chip.net_count = spec.design_nets;
    if (spec.design_rows != 0) chip.replicate_rows = spec.design_rows;
    if (spec.design_seed != 0) chip.seed = spec.design_seed;
    design = generate_dsp_chip(library, chip);
    vo = spec.to_options();
    // Scheduling state is the coordinator's business; the worker only
    // analyzes. (None of these enter options_result_hash.)
    vo.journal_path.clear();
    vo.resume = false;
    vo.processes = 0;
    vo.remote_backend = nullptr;
    prepared = std::make_unique<ChipVerifier::Prepared>(verifier, design, vo);
    if (!cell_cache.empty()) chars.save(cell_cache);
  }
};

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  std::size_t out = 0;
  return parse_size(v, &out) ? out : fallback;
}

/// One coordinator connection, setup through EOF.
void worker_serve_connection(int fd, const WorkerOptions& opt) {
  WireWriter writer(fd);
  WireDecoder decoder;
  std::unique_ptr<WorkerEngine> engine;

  // Heartbeat thread: shares the WireWriter (frames never interleave) and
  // is suppressed both before setup completes (period 0) and while a test
  // stall is active — a stalled worker must look dead to the coordinator.
  std::atomic<bool> stop{false};
  std::atomic<double> hb_period{0.0};
  std::atomic<double> stall_until{0.0};
  std::thread heartbeat([&] {
    std::uint64_t seq = 0;
    double next = 0.0;
    while (!stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      const double period = hb_period.load();
      if (period <= 0.0) continue;
      const double now = mono_ms();
      if (now < next || now < stall_until.load()) continue;
      next = now + period;
      if (!writer.send(WireType::kHeartbeat, std::to_string(++seq))) return;
    }
  });

  bool alive = true;
  bool stalled_once = false;     // XTV_TEST_WORKER_STALL_MS fires once
  std::size_t results_sent = 0;  // for the drop-every-nth test hook
  while (alive) {
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
    WireFrame frame;
    while (alive && decoder.next(&frame)) {
      switch (frame.type) {
        case WireType::kWorkerSetup: {
          std::istringstream in(frame.payload);
          std::string hex, hbstr;
          in >> hex >> hbstr;
          std::uint64_t coord_hash = 0;
          double period = 0.0;
          {
            char* end = nullptr;
            period = std::strtod(hbstr.c_str(), &end);
          }
          std::string spec_text;
          std::getline(in, spec_text);
          if (!spec_text.empty() && spec_text.front() == ' ')
            spec_text.erase(0, 1);

          JobSpec spec;
          std::string err;
          if (!parse_u64(hex, &coord_hash, 16) ||
              !JobSpec::parse(spec_text, &spec, &err)) {
            writer.send(WireType::kWorkerReject,
                        "bad-spec " + serve_escape(err));
            break;
          }
          if (!spec.has_design_ref()) {
            writer.send(WireType::kWorkerReject,
                        "no-design-ref " +
                            serve_escape("spec names no generated design; a "
                                         "worker has no resident design"));
            break;
          }
          try {
            engine = std::make_unique<WorkerEngine>(spec, opt.cell_cache);
          } catch (const std::exception& e) {
            engine.reset();
            writer.send(WireType::kWorkerReject,
                        "design-build-failed " + serve_escape(e.what()));
            break;
          }
          const std::uint64_t mine = options_result_hash(engine->vo);
          if (mine != coord_hash) {
            // The gate the whole merge rests on: findings computed under
            // different result-affecting options are incomparable.
            engine.reset();
            writer.send(WireType::kWorkerReject,
                        "options-hash-mismatch " +
                            serve_escape("mine " + hash_hex(mine) +
                                         " coordinator " + hash_hex(coord_hash)));
            break;
          }
          logf(LogLevel::kInfo,
               "xtv_worker: job accepted (%zu nets, hash %s)",
               engine->design.nets.size(), hash_hex(mine).c_str());
          if (!writer.send(WireType::kWorkerReady,
                           hash_hex(mine) + " " +
                               std::to_string(::getpid())))
            alive = false;
          hb_period.store(period);
          break;
        }
        case WireType::kUnitAssign: {
          if (!engine) break;  // assign before setup: coordinator bug
          std::istringstream in(frame.payload);
          std::string ustr, astr;
          in >> ustr >> astr;
          std::size_t unit = 0, attempt = 0;
          if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt))
            break;

          if (env_size("XTV_TEST_WORKER_CRASH_UNIT", kNoUnit) == unit) {
            logf(LogLevel::kWarn,
                 "xtv_worker: TEST crash on unit %zu", unit);
            ::_exit(42);
          }
          // One stall per connection: the partitioned-then-healed worker
          // must make progress after it wakes, or the heal is untestable.
          const std::size_t stall_ms =
              stalled_once ? 0 : env_size("XTV_TEST_WORKER_STALL_MS", 0);
          if (stall_ms > 0) {
            stalled_once = true;
            stall_until.store(mono_ms() + static_cast<double>(stall_ms));
            while (mono_ms() < stall_until.load())
              std::this_thread::sleep_for(std::chrono::milliseconds(10));
          }
          const std::size_t drop_every =
              env_size("XTV_TEST_DROP_FRAME_EVERY", 0);

          const std::string prefix =
              std::to_string(unit) + " " + std::to_string(attempt);
          std::size_t streamed = 0;
          std::string vstr;
          while (alive && (in >> vstr)) {
            std::size_t victim = 0;
            if (!parse_size(vstr, &victim)) continue;
            std::string payload;
            if (victim >= engine->design.nets.size()) {
              payload = prefix + " s " + std::to_string(victim);
            } else {
              auto rec = engine->prepared->analyze(victim, false);
              payload = rec ? prefix + " r " + journal_encode(*rec)
                            : prefix + " s " + std::to_string(victim);
            }
            ++results_sent;
            if (drop_every > 0 && results_sent % drop_every == 0) continue;
            if (!writer.send(WireType::kUnitResult, payload)) {
              alive = false;
              break;
            }
            ++streamed;
          }
          if (alive &&
              !writer.send(WireType::kUnitDone,
                           prefix + " " + std::to_string(streamed)))
            alive = false;
          break;
        }
        case WireType::kHeartbeat:
          break;  // coordinator keepalive, nothing to do
        default:
          break;
      }
    }
    if (decoder.corrupt()) break;
  }

  stop.store(true);
  heartbeat.join();
}

}  // namespace

int run_worker(const WorkerOptions& opt) {
  ::signal(SIGPIPE, SIG_IGN);

  std::string host, port;
  if (!parse_tcp_endpoint(opt.listen, &host, &port)) {
    logf(LogLevel::kError, "xtv_worker: bad listen address '%s'",
         opt.listen.c_str());
    return 2;
  }

  addrinfo hints;
  std::memset(&hints, 0, sizeof hints);
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    logf(LogLevel::kError, "xtv_worker: cannot resolve '%s'",
         opt.listen.c_str());
    return 2;
  }
  int listen_fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    listen_fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (listen_fd < 0) continue;
    const int one = 1;
    ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(listen_fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(listen_fd, 8) == 0)
      break;
    ::close(listen_fd);
    listen_fd = -1;
  }
  ::freeaddrinfo(res);
  if (listen_fd < 0) {
    logf(LogLevel::kError, "xtv_worker: cannot bind %s: %s",
         opt.listen.c_str(), std::strerror(errno));
    return 2;
  }

  // Resolve the actual port (the listen address may have asked for an
  // ephemeral one) and publish it atomically — a script reading the
  // endpoint file never sees a torn write.
  sockaddr_storage bound;
  socklen_t blen = sizeof bound;
  char bhost[NI_MAXHOST] = "127.0.0.1";
  char bport[NI_MAXSERV] = "0";
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound), &blen) ==
      0)
    ::getnameinfo(reinterpret_cast<sockaddr*>(&bound), blen, bhost,
                  sizeof bhost, bport, sizeof bport,
                  NI_NUMERICHOST | NI_NUMERICSERV);
  const std::string endpoint = std::string(bhost) + ":" + bport;
  if (!opt.endpoint_file.empty()) {
    std::string err;
    if (!write_file_atomic(opt.endpoint_file, endpoint + "\n", &err))
      logf(LogLevel::kWarn, "xtv_worker: endpoint file: %s", err.c_str());
  }
  logf(LogLevel::kInfo, "xtv_worker: listening on %s", endpoint.c_str());

  std::size_t served = 0;
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    worker_serve_connection(fd, opt);
    ::close(fd);
    if (opt.max_coordinators != 0 && ++served >= opt.max_coordinators) break;
  }
  ::close(listen_fd);
  return 0;
}

}  // namespace serve
}  // namespace xtv
