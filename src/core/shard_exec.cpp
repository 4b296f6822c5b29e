#include "core/shard_exec.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "util/fault_injection.h"
#include "util/log.h"
#include "util/subprocess.h"

namespace xtv {

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

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* v = std::getenv(name);
  std::size_t out = 0;
  return v != nullptr && parse_size(v, &out) ? out : fallback;
}

/// Writes one frame to a holder socket. MSG_NOSIGNAL: a holder that died
/// surfaces as EPIPE here, not as a SIGPIPE that kills the coordinator.
bool send_frame(int fd, WireType type, const std::string& payload) {
  const std::string frame = wire_encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Rewrites a bound-only record into the concession contract: the
/// conservative peak stands, the status says why it was conceded.
void stamp_concession(JournalRecord& rec) {
  rec.screened = false;
  rec.finding.status = FindingStatus::kShardCrashed;
  rec.finding.error_code = StatusCode::kWorkerCrashed;
  rec.finding.error =
      "conceded to conservative bound: its lease failed on two distinct "
      "workers or used up its attempts";
}

// --- Test hooks (env-driven, inert in production) ---

/// Holder side: crash deterministically on reaching a chosen victim.
struct CrashHook {
  bool armed = false;
  std::size_t victim = 0;
  enum Mode { kAbort, kSegv, kFpe, kExit42 } mode = kAbort;
  std::string once_file;

  static CrashHook from_env() {
    CrashHook h;
    const char* v = std::getenv("XTV_TEST_CRASH_VICTIM");
    if (!v || !parse_size(v, &h.victim)) return h;
    h.armed = true;
    if (const char* m = std::getenv("XTV_TEST_CRASH_MODE")) {
      if (std::strcmp(m, "segv") == 0) h.mode = kSegv;
      else if (std::strcmp(m, "fpe") == 0) h.mode = kFpe;
      else if (std::strcmp(m, "exit42") == 0) h.mode = kExit42;
    }
    if (const char* f = std::getenv("XTV_TEST_CRASH_ONCE_FILE"))
      h.once_file = f;
    return h;
  }

  void maybe_crash(std::size_t net) const {
    if (!armed || net != victim) return;
    if (!once_file.empty()) {
      // O_CREAT|O_EXCL succeeds exactly once across all holder processes:
      // the first reaching the victim crashes, retries run clean.
      const int fd =
          ::open(once_file.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
      if (fd < 0) return;
      ::close(fd);
    }
    switch (mode) {
      case kSegv: ::raise(SIGSEGV); break;
      case kFpe: ::raise(SIGFPE); break;
      case kExit42: ::_exit(42);
      case kAbort: std::abort();
    }
  }
};

/// Coordinator side: SIGKILL the forked holder just granted a chosen
/// net's unit, up to a count — before the assignment is sent, so the
/// holder can never finish the victim first. Victim-keyed (not
/// record-count-keyed), so the injection replays deterministically.
struct KillOnGrantHook {
  std::size_t victim = 0;
  int remaining = 0;

  static KillOnGrantHook from_env() {
    KillOnGrantHook h;
    const char* v = std::getenv("XTV_TEST_SHARD_KILL_ON_START");
    if (!v || !*v) return h;
    errno = 0;
    char* end = nullptr;
    const unsigned long long net = std::strtoull(v, &end, 10);
    if (errno != 0 || end == v) return h;
    h.victim = static_cast<std::size_t>(net);
    h.remaining = (end && *end == ':') ? std::atoi(end + 1) : 1;
    return h;
  }

  bool fires(const HolderLink& link, const std::vector<std::size_t>& unit) {
    if (remaining <= 0 || link.pid <= 0 ||
        std::find(unit.begin(), unit.end(), victim) == unit.end())
      return false;
    --remaining;
    return true;
  }
};

// --- Holder side ---

/// Sends kHeartbeat every period from its own thread, except while a test
/// stall holds it back (a stalled holder must look dead).
class Heartbeat {
 public:
  Heartbeat(WireWriter& writer, double period_ms) : writer_(writer) {
    if (period_ms <= 0.0) return;
    thread_ = std::thread([this, period_ms] {
      std::uint64_t seq = 0;
      const auto period = std::chrono::duration<double, std::milli>(period_ms);
      std::unique_lock<std::mutex> lock(mutex_);
      while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
        if (mono_ms() < stall_until_ms_.load()) continue;
        if (!writer_.send(WireType::kHeartbeat, std::to_string(seq++))) return;
      }
    });
  }
  ~Heartbeat() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  void stall_until(double ms) { stall_until_ms_.store(ms); }

 private:
  WireWriter& writer_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;  ///< guarded by mutex_
  std::atomic<double> stall_until_ms_{0.0};
  std::thread thread_;  // last: started after the members it uses
};

/// A forked holder's whole life: per-process setup, the ready frame, then
/// the unit loop until the coordinator closes the link. _exit, not exit:
/// atexit handlers and static destructors belong to the coordinator image
/// this process was forked from — and no exception may unwind into it.
[[noreturn]] void holder_main(int fd, const CoordinatorOptions& opt,
                              const ShardCallbacks& cb) {
  try {
    subprocess::ignore_sigpipe();
    if (cb.worker_init) {
      try {
        cb.worker_init();
      } catch (const std::exception& e) {
        logf(LogLevel::kWarn, "holder %d: worker_init failed: %s",
             static_cast<int>(::getpid()), e.what());
      }
    }
    WireWriter writer(fd);
    if (writer.send(WireType::kWorkerReady,
                    hash_hex(opt.options_hash) + " " +
                        std::to_string(::getpid()))) {
      WireDecoder decoder;
      serve_units(fd, decoder,
                  [&](std::size_t v) { return cb.analyze(v, false); },
                  opt.heartbeat_ms);
    }
  } catch (...) {
    std::abort();
  }
  ::_exit(0);
}

/// Forked holders: socketpair + fork without exec, one victim per unit.
class ForkedFleet final : public HolderFleet {
 public:
  ForkedFleet(std::size_t processes, const CoordinatorOptions& opt,
              const ShardCallbacks& cb)
      : processes_(processes), opt_(opt), cb_(cb) {}

  std::vector<HolderLink> open() override {
    std::vector<HolderLink> links;
    for (std::size_t i = 0; i < processes_; ++i) links.push_back(replace());
    return links;
  }

  void close(const HolderLink& link) override {
    ::close(link.fd);
    fds_.erase(link.fd);
    ::kill(link.pid, SIGKILL);
    subprocess::wait_for(link.pid, nullptr);
  }

  HolderLink replace() override {
    int sv[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
      logf(LogLevel::kWarn, "holder socketpair failed: %s",
           std::strerror(errno));
      return {};
    }
    const std::size_t index = spawned_++;
    const pid_t pid = ::fork();
    if (pid == 0) {
      // The coordinator ends of the other holders' links must not stay
      // open here, or closing them would never reach those holders.
      ::close(sv[0]);
      for (int fd : fds_) ::close(fd);
      holder_main(sv[1], opt_, cb_);
    }
    ::close(sv[1]);
    if (pid < 0) {
      logf(LogLevel::kWarn, "holder fork failed: %s", std::strerror(errno));
      ::close(sv[0]);
      return {};
    }
    fds_.insert(sv[0]);
    return {"process " + std::to_string(index), sv[0], pid};
  }

 private:
  std::size_t processes_;
  const CoordinatorOptions& opt_;
  const ShardCallbacks& cb_;
  std::set<int> fds_;  ///< coordinator ends of the live links
  std::size_t spawned_ = 0;
};

// --- Coordinator ---

struct Holder {
  HolderLink link;
  WireDecoder decoder;
  bool ready = false;             ///< ready frame accepted
  bool dead = false;
  double opened_ms = 0.0;
  double last_heard = 0.0;
  double probation_since = -1.0;  ///< leases expired; awaiting a fresh frame
  std::size_t unit = kNoUnit;     ///< live assignment
  std::size_t attempt = 0;
};

class Coordinator {
 public:
  Coordinator(const std::vector<std::size_t>& work, HolderFleet& fleet,
              const CoordinatorOptions& opt, const ShardCallbacks& cb)
      : fleet_(fleet), opt_(opt), cb_(cb), lease_(work, opt.lease),
        kill_hook_(KillOnGrantHook::from_env()) {
    for (HolderLink& link : fleet_.open()) adopt(std::move(link));
  }

  ~Coordinator() {
    for (auto& h : holders_)
      if (!h->dead) fleet_.close(h->link);
  }
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  CoordinatorStats run() {
    while (!lease_.all_settled()) {
      concede_quarantined();
      if (lease_.all_settled()) break;

      // Deterministic lease-expiry fault: expire the first live lease.
      if (XTV_INJECT_FAULT(FaultSite::kLeaseExpiry)) {
        for (auto& h : holders_)
          if (!h->dead && h->unit != kNoUnit) {
            expire(*h, "fault injection");
            break;
          }
      }

      // Graceful degradation: with every holder gone, the remaining
      // victims run locally in-process — slower, but every victim still
      // settles with an explicit status.
      if (std::none_of(holders_.begin(), holders_.end(),
                       [](const auto& h) { return !h->dead; })) {
        run_rest_locally();
        break;
      }

      assign(mono_ms());
      poll_holders();
      supervise(mono_ms());
      if (cb_.on_tick) cb_.on_tick();
    }
    stats_.lease = lease_.stats();
    return stats_;
  }

 private:
  void adopt(HolderLink link) {
    auto h = std::make_unique<Holder>();
    h->link = std::move(link);
    h->opened_ms = h->last_heard = mono_ms();
    if (h->link.fd < 0) {
      logf(LogLevel::kWarn, "holder %s unavailable", h->link.id.c_str());
      h->dead = true;
      ++stats_.workers_lost;
    }
    holders_.push_back(std::move(h));
  }

  void concede_quarantined() {
    for (std::size_t v : lease_.take_quarantined()) {
      logf(LogLevel::kWarn,
           "victim %zu quarantined; conceding to its conservative bound", v);
      auto rec = cb_.analyze(v, /*bound_only=*/true);
      if (!rec) continue;  // ineligible victim: no record, like a skip
      stamp_concession(*rec);
      cb_.on_result(std::move(*rec));
    }
  }

  void run_rest_locally() {
    concede_quarantined();
    const std::vector<std::size_t> rest = lease_.drain_remaining();
    if (!rest.empty())
      logf(LogLevel::kWarn,
           "all %zu holders lost; analyzing %zu victims locally",
           holders_.size(), rest.size());
    for (std::size_t v : rest) {
      ++stats_.victims_local;
      if (auto rec = cb_.analyze(v, /*bound_only=*/false))
        cb_.on_result(std::move(*rec));
      if (cb_.on_tick) cb_.on_tick();
    }
  }

  /// Drops a holder for good. Its leases fail. It is replaced, when the
  /// fleet can grow, only if it had sent its ready frame — a crash at
  /// startup must not become a fork loop — and its loss failed a lease
  /// (held, or expired on probation), so the lease attempt budget bounds
  /// the respawns. Iterates nothing: callers index holders_, which this
  /// may extend.
  void lose(Holder& h, const char* why) {
    if (h.dead) return;
    logf(LogLevel::kWarn, "holder %s lost (%s)", h.link.id.c_str(), why);
    const bool charged = h.unit != kNoUnit || h.probation_since >= 0.0;
    fleet_.close(h.link);
    h.dead = true;
    h.unit = kNoUnit;
    lease_.fail_holder(h.link.id, mono_ms());
    ++stats_.workers_lost;
    if (h.ready && charged && !lease_.all_settled()) {
      HolderLink fresh = fleet_.replace();
      if (fresh.fd >= 0) adopt(std::move(fresh));
    }
  }

  void expire(Holder& h, const char* why) {
    logf(LogLevel::kWarn, "holder %s lease expired (%s)", h.link.id.c_str(),
         why);
    lease_.fail_holder(h.link.id, mono_ms());
    h.unit = kNoUnit;
    if (h.probation_since < 0.0) h.probation_since = mono_ms();
    ++stats_.lease_expiries;
  }

  /// Hands the lowest ready unit to each idle, admitted holder.
  void assign(double now) {
    for (std::size_t i = 0; i < holders_.size(); ++i) {
      Holder& h = *holders_[i];
      if (h.dead || !h.ready || h.probation_since >= 0.0 || h.unit != kNoUnit)
        continue;
      LeaseAssignment a;
      if (!lease_.acquire(h.link.id, now, &a)) break;  // nothing ready
      h.unit = a.unit;
      h.attempt = a.attempt;
      if (kill_hook_.fires(h.link, a.victims)) {
        ::kill(h.link.pid, SIGKILL);  // surfaces as EOF in poll_holders()
        continue;
      }
      std::ostringstream out;
      out << a.unit << " " << a.attempt;
      for (std::size_t v : a.victims) out << " " << v;
      if (XTV_INJECT_FAULT(FaultSite::kRemoteSend) ||
          !send_frame(h.link.fd, WireType::kUnitAssign, out.str()))
        lose(h, "assign write failed");
    }
  }

  void poll_holders() {
    std::vector<pollfd> fds;
    std::vector<Holder*> polled;
    for (auto& h : holders_) {
      if (h->dead) continue;
      fds.push_back({h->link.fd, POLLIN, 0});
      polled.push_back(h.get());
    }
    ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Holder& h = *polled[i];
      if (h.dead || !(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      if (XTV_INJECT_FAULT(FaultSite::kRemoteRecv)) {
        lose(h, "injected read fault");
        continue;
      }
      char buf[65536];
      const ssize_t n = ::read(h.link.fd, buf, sizeof buf);
      if (n == 0) {
        lose(h, "connection closed");
        continue;
      }
      if (n < 0) {
        if (errno != EINTR && errno != EAGAIN) lose(h, "read error");
        continue;
      }
      h.decoder.feed(buf, static_cast<std::size_t>(n));
      WireFrame frame;
      while (!h.dead && h.decoder.next(&frame)) handle_frame(h, frame);
      if (!h.dead && h.decoder.corrupt()) lose(h, "corrupt stream");
    }
  }

  void handle_frame(Holder& h, const WireFrame& f) {
    h.last_heard = mono_ms();
    h.probation_since = -1.0;  // any verified frame re-admits the holder
    std::istringstream in(f.payload);
    switch (f.type) {
      case WireType::kWorkerReady: {
        std::string hex, pid;
        in >> hex >> pid;
        std::uint64_t theirs = 0;
        if (!parse_u64(hex, &theirs, 16) || theirs != opt_.options_hash) {
          // A TCP worker validates first, so this means a broken holder.
          lose(h, "ready-frame hash mismatch");
          return;
        }
        h.ready = true;
        ++stats_.workers_connected;
        logf(LogLevel::kInfo, "holder %s ready (pid %s)", h.link.id.c_str(),
             pid.c_str());
        return;
      }
      case WireType::kWorkerReject: {
        std::string reason, detail;
        in >> reason >> detail;
        logf(LogLevel::kWarn, "holder %s refused the job: %s %s",
             h.link.id.c_str(), reason.c_str(), detail.c_str());
        ++stats_.workers_rejected;
        lose(h, "typed rejection");
        return;
      }
      case WireType::kUnitResult: {
        std::string ustr, astr, tag;
        in >> ustr >> astr >> tag;
        std::size_t unit = 0, attempt = 0;
        if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt)) return;
        if (tag == "r") {
          std::string payload;
          std::getline(in, payload);
          if (!payload.empty() && payload.front() == ' ') payload.erase(0, 1);
          JournalRecord rec;
          if (!journal_decode(payload, rec)) {
            lose(h, "undecodable result payload");
            return;
          }
          // Frames from lapsed leases are counted by the lease table
          // (LeaseTableStats::stale_frames) and dropped here.
          if (lease_.result(unit, attempt, rec.finding.net) ==
              LeaseVerdict::kAccepted)
            cb_.on_result(std::move(rec));
        } else if (tag == "s") {
          std::string vstr;
          in >> vstr;
          std::size_t victim = 0;
          // kAccepted: ineligible victim — settled with no record, the
          // exact in-process semantics of a skipped victim.
          if (parse_size(vstr, &victim)) lease_.result(unit, attempt, victim);
        }
        return;
      }
      case WireType::kUnitDone: {
        std::string ustr, astr;
        in >> ustr >> astr;
        std::size_t unit = 0, attempt = 0;
        if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt)) return;
        lease_.complete(unit, attempt, mono_ms());
        if (h.unit == unit && h.attempt == attempt) h.unit = kNoUnit;
        return;
      }
      default:
        return;  // kHeartbeat, or a type no holder sends: nothing to do
    }
  }

  /// Heartbeat silence past 10x the period expires the holder's leases but
  /// keeps the link — a healed partition re-admits it on the next frame.
  /// Silence through a second window means it is wedged for good; holding
  /// its poll slot any longer helps nobody.
  void supervise(double t) {
    const double limit = 10.0 * opt_.heartbeat_ms;
    for (std::size_t i = 0; i < holders_.size(); ++i) {
      Holder& h = *holders_[i];
      if (h.dead) continue;
      if (!h.ready) {
        if (t - h.opened_ms > opt_.setup_timeout_ms) lose(h, "setup timeout");
        continue;
      }
      if (opt_.heartbeat_ms <= 0.0 || t - h.last_heard <= limit) continue;
      if (h.probation_since < 0.0) {
        expire(h, "heartbeat silence");
      } else if (t - h.probation_since > limit) {
        lose(h, "silent through probation");
      }
    }
  }

  HolderFleet& fleet_;
  const CoordinatorOptions& opt_;
  const ShardCallbacks& cb_;
  LeaseTable lease_;
  KillOnGrantHook kill_hook_;
  std::vector<std::unique_ptr<Holder>> holders_;
  CoordinatorStats stats_;
};

}  // namespace

CoordinatorStats run_leases(const std::vector<std::size_t>& work,
                            HolderFleet& fleet,
                            const CoordinatorOptions& options,
                            const ShardCallbacks& callbacks) {
  Coordinator coordinator(work, fleet, options, callbacks);
  return coordinator.run();
}

CoordinatorStats run_process_shards(const std::vector<std::size_t>& work,
                                    std::size_t processes,
                                    const CoordinatorOptions& options,
                                    const ShardCallbacks& callbacks) {
  ForkedFleet fleet(std::min(processes, work.size()), options, callbacks);
  return run_leases(work, fleet, options, callbacks);
}

void serve_units(
    int fd, WireDecoder& decoder,
    const std::function<std::optional<JournalRecord>(std::size_t victim)>&
        analyze,
    double heartbeat_ms) {
  WireWriter writer(fd);
  Heartbeat heartbeat(writer, heartbeat_ms);
  const CrashHook crash = CrashHook::from_env();
  const std::size_t crash_unit =
      env_size("XTV_TEST_WORKER_CRASH_UNIT", kNoUnit);
  // One stall per loop: the partitioned-then-healed holder must make
  // progress after it wakes, or the heal is untestable.
  std::size_t stall_ms = env_size("XTV_TEST_WORKER_STALL_MS", 0);
  const std::size_t drop_every = env_size("XTV_TEST_DROP_FRAME_EVERY", 0);
  std::size_t results_sent = 0;

  for (;;) {
    WireFrame frame;
    while (decoder.next(&frame)) {
      if (frame.type != WireType::kUnitAssign) continue;
      std::istringstream in(frame.payload);
      std::string ustr, astr;
      in >> ustr >> astr;
      std::size_t unit = 0, attempt = 0;
      if (!parse_size(ustr, &unit) || !parse_size(astr, &attempt)) continue;
      if (unit == crash_unit) {
        logf(LogLevel::kWarn, "holder: TEST crash on unit %zu", unit);
        ::_exit(42);
      }
      if (stall_ms > 0) {
        const double until = mono_ms() + static_cast<double>(stall_ms);
        heartbeat.stall_until(until);
        while (mono_ms() < until)
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
        stall_ms = 0;
      }
      const std::string prefix =
          std::to_string(unit) + " " + std::to_string(attempt);
      std::size_t streamed = 0;
      for (std::string vstr; in >> vstr;) {
        std::size_t victim = 0;
        if (!parse_size(vstr, &victim)) continue;
        crash.maybe_crash(victim);
        std::optional<JournalRecord> rec;
        try {
          rec = analyze(victim);
        } catch (...) {
          // analyze() contractually absorbs analysis failures; an escape
          // means this process is no longer trustworthy — die loudly so
          // the coordinator fails the lease.
          std::abort();
        }
        const std::string payload =
            rec ? prefix + " r " + journal_encode(*rec)
                : prefix + " s " + std::to_string(victim);
        if (drop_every > 0 && ++results_sent % drop_every == 0) continue;
        if (!writer.send(WireType::kUnitResult, payload)) return;
        ++streamed;
      }
      if (!writer.send(WireType::kUnitDone,
                       prefix + " " + std::to_string(streamed)))
        return;
    }
    if (decoder.corrupt()) return;
    char buf[65536];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) return;
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    decoder.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace xtv
