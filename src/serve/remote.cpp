#include "serve/remote.h"

#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <sstream>

#include "cells/cell_library.h"
#include "cells/characterize.h"
#include "cells/tech.h"
#include "chipgen/dsp_chip.h"
#include "core/wire.h"
#include "extract/extractor.h"
#include "serve/client.h"
#include "serve/job.h"
#include "util/log.h"

namespace xtv {
namespace serve {

// ---------------------------------------------------------------------------
// Coordinator
// ---------------------------------------------------------------------------

namespace {

/// One connection per configured endpoint, dialed once with the job spec
/// replayed in the setup frame.
class TcpFleet final : public HolderFleet {
 public:
  TcpFleet(const RemoteExecOptions& opt, std::uint64_t options_hash)
      : opt_(opt), options_hash_(options_hash) {}

  std::vector<HolderLink> open() override {
    char hb[64];
    std::snprintf(hb, sizeof hb, "%.17g", opt_.heartbeat_ms);
    const std::string setup =
        job_key_hex(options_hash_) + " " + hb + " " + opt_.spec_text;
    std::vector<HolderLink> links;
    for (const std::string& ep : opt_.workers) {
      auto client = std::make_unique<ServeClient>();
      HolderLink link;
      link.id = ep;
      std::string err;
      if (client->connect(ep, &err) &&
          client->send(WireType::kWorkerSetup, setup, &err)) {
        link.fd = client->fd();
      } else {
        logf(LogLevel::kWarn, "remote: worker %s unreachable: %s", ep.c_str(),
             err.c_str());
        client->close();
      }
      clients_.push_back(std::move(client));
      links.push_back(link);
    }
    return links;
  }

  void close(const HolderLink& link) override {
    for (auto& c : clients_)
      if (c->connected() && c->fd() == link.fd) c->close();
  }

 private:
  const RemoteExecOptions& opt_;
  std::uint64_t options_hash_;
  std::vector<std::unique_ptr<ServeClient>> clients_;
};

}  // namespace

CoordinatorStats RemoteExecutor::run(const std::vector<std::size_t>& work,
                                     std::uint64_t options_hash,
                                     const ShardCallbacks& callbacks) {
  // A worker can vanish between connect() and the setup write; the
  // failure must come back as EPIPE, not a process-killing signal.
  ::signal(SIGPIPE, SIG_IGN);
  CoordinatorOptions copt;
  copt.heartbeat_ms = opt_.heartbeat_ms;
  copt.setup_timeout_ms = opt_.setup_timeout_ms;
  copt.lease.unit_victims = opt_.unit_victims;
  copt.lease.max_unit_attempts = opt_.max_unit_attempts;
  copt.lease.backoff_base_ms = opt_.backoff_base_ms;
  copt.lease.backoff_max_ms = opt_.backoff_max_ms;
  copt.options_hash = options_hash;
  TcpFleet fleet(opt_, options_hash);
  stats_ = run_leases(work, fleet, copt, callbacks);
  return stats_;
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

/// One coordinator connection, setup through EOF. The setup handshake
/// admits the coordinator once a kWorkerSetup spec builds and hashes
/// right; every refusal is a typed kWorkerReject, after which the worker
/// keeps waiting for a setup it can accept.
void worker_serve_connection(int fd, const WorkerOptions& opt) {
  WireWriter writer(fd);
  WireDecoder decoder;
  std::unique_ptr<WorkerEngine> engine;
  double period = 0.0;
  while (!engine) {
    WireFrame frame;
    if (!decoder.next(&frame)) {
      if (decoder.corrupt()) return;
      char buf[65536];
      const ssize_t n = ::read(fd, buf, sizeof buf);
      if (n == 0) return;
      if (n < 0) {
        if (errno == EINTR) continue;
        return;
      }
      decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (frame.type != WireType::kWorkerSetup) continue;
    std::istringstream in(frame.payload);
    std::string hex, hbstr;
    in >> hex >> hbstr;
    std::uint64_t coord_hash = 0;
    period = std::strtod(hbstr.c_str(), nullptr);
    std::string spec_text;
    std::getline(in, spec_text);
    if (!spec_text.empty() && spec_text.front() == ' ') spec_text.erase(0, 1);

    JobSpec spec;
    std::string err;
    if (!parse_job_key(hex, &coord_hash) ||
        !JobSpec::parse(spec_text, &spec, &err)) {
      writer.send(WireType::kWorkerReject, "bad-spec " + serve_escape(err));
      continue;
    }
    if (!spec.has_design_ref()) {
      writer.send(WireType::kWorkerReject,
                  "no-design-ref " +
                      serve_escape("spec names no generated design; a "
                                   "worker has no resident design"));
      continue;
    }
    try {
      engine = std::make_unique<WorkerEngine>(spec, opt.cell_cache);
    } catch (const std::exception& e) {
      writer.send(WireType::kWorkerReject,
                  "design-build-failed " + serve_escape(e.what()));
      continue;
    }
    const std::uint64_t mine = options_result_hash(engine->vo);
    if (mine != coord_hash) {
      // The gate the whole merge rests on: findings computed under
      // different result-affecting options are incomparable.
      engine.reset();
      writer.send(WireType::kWorkerReject,
                  "options-hash-mismatch " +
                      serve_escape("mine " + job_key_hex(mine) +
                                   " coordinator " + job_key_hex(coord_hash)));
      continue;
    }
    logf(LogLevel::kInfo, "xtv_worker: job accepted (%zu nets, hash %s)",
         engine->design.nets.size(), job_key_hex(mine).c_str());
    if (!writer.send(WireType::kWorkerReady,
                     job_key_hex(mine) + " " + std::to_string(::getpid())))
      return;
  }
  serve_units(
      fd, decoder,
      [&](std::size_t victim) -> std::optional<JournalRecord> {
        if (victim >= engine->design.nets.size()) return std::nullopt;
        return engine->prepared->analyze(victim, false);
      },
      period);
}

}  // namespace

int run_worker(const WorkerOptions& opt) {
  ::signal(SIGPIPE, SIG_IGN);

  std::string endpoint, err;
  const int listen_fd = listen_tcp(opt.listen, opt.endpoint_file, &endpoint,
                                   &err);
  if (listen_fd < 0) {
    logf(LogLevel::kError, "xtv_worker: %s", err.c_str());
    return 2;
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
